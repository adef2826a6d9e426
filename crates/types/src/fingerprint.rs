//! 16-byte content fingerprints.
//!
//! The paper's traces carry the MD5 (16 B) of every 4 KB request and
//! the drive is assumed to own a hash engine with a 12 µs latency. The
//! simulator does not need a cryptographic digest — only a 128-bit
//! identifier whose collisions are negligible — so [`Fingerprint`]
//! mixes its input through two independent rounds of a strong 64-bit
//! finalizer (the SplitMix64/Murmur3 avalanche). The substitution is
//! recorded in `DESIGN.md`.

use core::fmt;

use crate::ValueId;

/// A 16-byte content hash, the unit stored in dead-value-pool entries.
///
/// Stands in for the MD5/SHA-1 digests carried by the FIU/OSU traces.
/// Equal contents (equal [`ValueId`]s) always produce equal
/// fingerprints; distinct contents collide with probability ~2⁻¹²⁸.
///
/// # Examples
///
/// ```
/// use zssd_types::{Fingerprint, ValueId};
/// let fp = Fingerprint::of_value(ValueId::new(1));
/// assert_eq!(fp.as_bytes().len(), 16);
/// assert_eq!(fp, Fingerprint::of_value(ValueId::new(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Computes the fingerprint of a value id (the simulator fast path).
    ///
    /// The id is avalanched through two independently-seeded 64-bit
    /// finalizers; the results form the high and low halves.
    #[inline]
    pub fn of_value(value: ValueId) -> Self {
        let hi = splitmix64(value.raw() ^ 0xa076_1d64_78bd_642f);
        let lo = splitmix64(value.raw() ^ 0xe703_7ed1_a0b4_28db);
        Fingerprint(((hi as u128) << 64) | lo as u128)
    }

    /// Returns the digest as 16 big-endian bytes.
    pub fn as_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::LowerHex for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<ValueId> for Fingerprint {
    fn from(value: ValueId) -> Self {
        Fingerprint::of_value(value)
    }
}

/// The SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
/// Fingerprints, the flash fault plan's per-operation decisions and the
/// oracle's fuzz generator all mix with it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_values_equal_fingerprints() {
        assert_eq!(
            Fingerprint::of_value(ValueId::new(77)),
            Fingerprint::of_value(ValueId::new(77))
        );
    }

    #[test]
    fn distinct_values_distinct_fingerprints() {
        let fps: HashSet<Fingerprint> = (0..100_000u64)
            .map(|v| Fingerprint::of_value(ValueId::new(v)))
            .collect();
        assert_eq!(fps.len(), 100_000, "no collisions over 100k ids");
    }

    #[test]
    fn display_is_32_hex_chars() {
        let s = Fingerprint::of_value(ValueId::new(9)).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
