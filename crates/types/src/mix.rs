//! The simulator's one bit-mixing function.

/// The SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
/// The flash fault plan's per-operation decisions and the oracle's
/// fuzz generator both mix with it.
///
/// # Examples
///
/// ```
/// use zssd_types::splitmix64;
/// assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
#[inline]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
