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

/// Size of one flash page / host request payload, in bytes (§II-A:
/// "All traces contain identical request sizes of 4KB").
pub const PAGE_SIZE_BYTES: usize = 4096;

/// A deterministic 4 KB page image for a [`ValueId`].
///
/// Used by tests and examples that want to exercise byte-level hashing
/// rather than the fast id-level path.
#[derive(Clone, PartialEq, Eq)]
pub struct PageBuf {
    bytes: Box<[u8; PAGE_SIZE_BYTES]>,
}

impl PageBuf {
    /// Expands a value id into its canonical 4 KB page image.
    ///
    /// Distinct ids produce distinct images (the id is embedded in the
    /// first 8 bytes) and the remainder is a fixed pseudo-random fill
    /// keyed by the id, so images look like incompressible data.
    pub fn for_value(value: ValueId) -> Self {
        let mut bytes = Box::new([0u8; PAGE_SIZE_BYTES]);
        let mut state = value.raw() ^ 0x9e37_79b9_7f4a_7c15;
        for chunk in bytes.chunks_exact_mut(8) {
            state = splitmix64(state);
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        bytes[..8].copy_from_slice(&value.raw().to_le_bytes());
        PageBuf { bytes }
    }

    /// Returns the page contents.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE_BYTES] {
        &self.bytes
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PageBuf {{ value: {:#x}, .. }}",
            u64::from_le_bytes(self.bytes[..8].try_into().expect("8 bytes"))
        )
    }
}

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

    /// Computes the fingerprint of raw bytes (FNV-1a folded to 128 bits
    /// with per-half offset bases), used when byte-level realism is
    /// wanted, e.g. hashing a [`PageBuf`].
    pub fn of_bytes(bytes: &[u8]) -> Self {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x84222325_cbf29ce4;
        for &b in bytes {
            h1 = (h1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
        }
        // Avalanche both halves so short inputs still disperse.
        Fingerprint(((splitmix64(h1) as u128) << 64) | splitmix64(h2) as u128)
    }

    /// Returns the digest as 16 big-endian bytes.
    pub fn as_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Reconstructs a fingerprint from 16 big-endian bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Fingerprint(u128::from_be_bytes(bytes))
    }

    /// Returns the raw 128-bit digest.
    pub const fn as_u128(self) -> u128 {
        self.0
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
    fn byte_round_trip() {
        let fp = Fingerprint::of_value(ValueId::new(5));
        assert_eq!(Fingerprint::from_bytes(fp.as_bytes()), fp);
    }

    #[test]
    fn of_bytes_differs_on_single_bit_flip() {
        let mut a = [0u8; 64];
        let fp_a = Fingerprint::of_bytes(&a);
        a[17] ^= 1;
        assert_ne!(Fingerprint::of_bytes(&a), fp_a);
    }

    #[test]
    fn page_buf_embeds_value_and_is_deterministic() {
        let p1 = PageBuf::for_value(ValueId::new(123));
        let p2 = PageBuf::for_value(ValueId::new(123));
        assert_eq!(p1, p2);
        assert_eq!(&p1.as_bytes()[..8], &123u64.to_le_bytes());
        assert_ne!(p1, PageBuf::for_value(ValueId::new(124)));
    }

    #[test]
    fn page_buf_hashes_agree_with_inequality_of_values() {
        let h1 = Fingerprint::of_bytes(PageBuf::for_value(ValueId::new(1)).as_bytes());
        let h2 = Fingerprint::of_bytes(PageBuf::for_value(ValueId::new(2)).as_bytes());
        assert_ne!(h1, h2);
    }

    #[test]
    fn display_is_32_hex_chars() {
        let s = Fingerprint::of_value(ValueId::new(9)).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
