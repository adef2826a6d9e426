//! A fast, deterministic hasher for the simulator's hot maps.
//!
//! The FTL write path does several hash-map probes per host request
//! (dead-value pool and dedup index by value, LX-SSD's pool by
//! address, the trace generator's content map). The standard
//! library's SipHash is DoS-resistant but costs tens of nanoseconds
//! per probe; the Fx algorithm (a rotate–xor–multiply mix, as used by
//! the Rust compiler) is several times cheaper and — because it is
//! unkeyed — gives every run the same iteration order, which keeps
//! reports reproducible.
//!
//! None of these maps ever hash attacker-controlled keys: they key on
//! page numbers and value ids produced by the simulator itself, so
//! trading DoS resistance for speed is safe here.
//!
//! # Examples
//!
//! ```
//! use zssd_types::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// The `BuildHasher` for [`FxHasher`] (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The Firefox/rustc "Fx" hash: for each input word, rotate the state,
/// xor the word in, and multiply by a large odd constant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// `pi.frac() * 2^64` rounded to odd — the multiplier rustc-hash uses
/// on 64-bit targets.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        // Length-prefix-free chunking is fine here: the simulator only
        // hashes fixed-width integer keys, which use the write_uN
        // fast paths; this byte path exists for completeness (e.g.
        // derived Hash over enums writes discriminants through it).
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ppn, ValueId};
    use core::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&7u64), hash_of(&7u64));
        assert_ne!(hash_of(&7u64), hash_of(&8u64));
        let value = ValueId::new(42);
        assert_eq!(hash_of(&value), hash_of(&value));
        assert_ne!(hash_of(&value), hash_of(&ValueId::new(43)));
    }

    #[test]
    fn maps_round_trip_domain_keys() {
        let mut by_ppn: FxHashMap<Ppn, u64> = FxHashMap::default();
        let mut by_value: FxHashSet<ValueId> = FxHashSet::default();
        for i in 0..1000u64 {
            by_ppn.insert(Ppn::new(i), i * 3);
            by_value.insert(ValueId::new(i));
        }
        assert_eq!(by_ppn.len(), 1000);
        assert_eq!(by_value.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(by_ppn.get(&Ppn::new(i)), Some(&(i * 3)));
            assert!(by_value.contains(&ValueId::new(i)));
        }
    }

    #[test]
    fn byte_path_distinguishes_lengths() {
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn low_bits_spread_for_sequential_keys() {
        // HashMap uses the low bits for bucket selection; sequential
        // PPNs must not collapse onto a few buckets.
        let mut low7 = FxHashSet::default();
        for i in 0..128u64 {
            low7.insert(hash_of(&i) & 0x7f);
        }
        assert!(
            low7.len() > 80,
            "only {} distinct low-7 patterns",
            low7.len()
        );
    }
}
