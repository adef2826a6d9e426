//! Page-number and value-identity newtypes.

use core::fmt;
use core::hash::{Hash, Hasher};

/// A logical page number: the host-visible 4 KB block address.
///
/// The FTL maps each `Lpn` to at most one live [`Ppn`]. Keeping the two
/// address spaces as distinct types means a physical address can never
/// be handed to an API expecting a logical one.
///
/// An `Lpn` holds a 32-bit index, `0..=Lpn::MAX.index()`: every drive
/// the simulator builds has fewer logical pages than that (Table I's
/// drive has 2^28), and four bytes per address halve the LPN share of
/// each trace record. [`index`](Lpn::index) still returns a `u64`, and
/// the hash feeds that `u64`, so maps keyed by `Lpn` iterate as they
/// would keyed by the index.
///
/// # Examples
///
/// ```
/// use zssd_types::Lpn;
/// let lpn = Lpn::new(128);
/// assert_eq!(lpn.index(), 128);
/// assert!(Lpn::new(1) < Lpn::new(2));
/// assert_eq!(Lpn::from(7u32), Lpn::new(7));
/// assert_eq!(Lpn::MAX.index(), u64::from(u32::MAX));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Lpn(u32);

impl Lpn {
    /// The highest logical page number the type holds.
    pub const MAX: Lpn = Lpn(u32::MAX);

    /// Creates a logical page number from its raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is above [`Lpn::MAX`]; [`From<u32>`] needs no
    /// check.
    #[inline]
    pub const fn new(index: u64) -> Self {
        assert!(
            index <= Lpn::MAX.0 as u64,
            "LPN beyond the 32-bit logical page range"
        );
        Lpn(index as u32)
    }

    /// Returns the raw index of this logical page.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0 as u64
    }
}

impl Hash for Lpn {
    /// Hashes the `u64` index, so a map keyed by `Lpn` hashes as one
    /// keyed by the index.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.index().hash(state);
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<u32> for Lpn {
    #[inline]
    fn from(index: u32) -> Self {
        Lpn(index)
    }
}

/// A physical page number: a flat index into the NAND flash array.
///
/// The flash geometry decodes a `Ppn` into
/// (channel, chip, die, plane, block, page); see `zssd-flash`.
///
/// # Examples
///
/// ```
/// use zssd_types::Ppn;
/// let ppn = Ppn::new(4096);
/// assert_eq!(ppn.index(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(u64);

impl Ppn {
    /// Creates a physical page number from its raw index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        Ppn(index)
    }

    /// Returns the raw index of this physical page.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u64> for Ppn {
    fn from(index: u64) -> Self {
        Ppn::new(index)
    }
}

/// The identity of a distinct 4 KB content chunk ("value" in the paper).
///
/// Real traces carry the MD5 of each request's payload; our synthetic
/// traces instead carry a `ValueId` drawn from a popularity
/// distribution. Two requests write identical bytes if and only if they
/// carry equal `ValueId`s, so the id is the content key of the
/// dead-value pools and the dedup index, where the paper's drive keys
/// by the digest its hash engine computes.
///
/// # Examples
///
/// ```
/// use zssd_types::ValueId;
/// let a = ValueId::new(9);
/// assert_eq!(a.raw(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ValueId(u64);

impl ValueId {
    /// Creates a value identity from its raw id.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        ValueId(raw)
    }

    /// Returns the raw id.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

impl From<u64> for ValueId {
    fn from(raw: u64) -> Self {
        ValueId::new(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lpn_round_trips_and_orders() {
        assert_eq!(Lpn::new(5).index(), 5);
        assert!(Lpn::new(5) < Lpn::new(6));
        assert_eq!(Lpn::from(7u32), Lpn::new(7));
        assert_eq!(Lpn::default(), Lpn::new(0));
        assert_eq!(Lpn::new(u64::from(u32::MAX)), Lpn::MAX);
        assert!(Lpn::new(1 << 31) < Lpn::MAX);
    }

    #[test]
    #[should_panic(expected = "32-bit logical page range")]
    fn lpn_beyond_32_bits_panics() {
        let _ = Lpn::new(1 << 32);
    }

    #[test]
    fn an_lpn_is_4_bytes() {
        assert_eq!(core::mem::size_of::<Lpn>(), 4);
    }

    #[test]
    fn lpn_keys_hash_as_their_u64_index() {
        use crate::{FxBuildHasher, FxHashMap};
        use core::hash::BuildHasher;
        let build = FxBuildHasher::default();
        for i in [0, 1, 7, 1 << 20, u64::from(u32::MAX)] {
            assert_eq!(build.hash_one(Lpn::new(i)), build.hash_one(i));
        }
        // Same hashes, same insertion sequence: same iteration order.
        let keys = (0..1_000u64).map(|i| i.wrapping_mul(0x9e37_79b9) % 300_000);
        let by_lpn: FxHashMap<Lpn, ()> = keys.clone().map(|i| (Lpn::new(i), ())).collect();
        let by_u64: FxHashMap<u64, ()> = keys.map(|i| (i, ())).collect();
        let lpn_order: Vec<u64> = by_lpn.keys().map(|l| l.index()).collect();
        let u64_order: Vec<u64> = by_u64.keys().copied().collect();
        assert_eq!(lpn_order, u64_order);
    }

    #[test]
    fn ppn_round_trips_and_orders() {
        assert_eq!(Ppn::new(5).index(), 5);
        assert!(Ppn::new(5) < Ppn::new(6));
        assert_eq!(Ppn::from(7u64), Ppn::new(7));
    }

    #[test]
    fn value_id_round_trips() {
        assert_eq!(ValueId::new(11).raw(), 11);
        assert_eq!(ValueId::from(11u64), ValueId::new(11));
    }

    #[test]
    fn display_is_tagged_and_nonempty() {
        assert_eq!(Lpn::new(3).to_string(), "L3");
        assert_eq!(Ppn::new(3).to_string(), "P3");
        assert_eq!(ValueId::new(3).to_string(), "V3");
    }

    #[test]
    fn ids_are_hashable_and_distinct_in_sets() {
        let set: HashSet<Lpn> = (0..10).map(Lpn::new).collect();
        assert_eq!(set.len(), 10);
        assert!(set.contains(&Lpn::new(4)));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Lpn>();
        assert_send_sync::<Ppn>();
        assert_send_sync::<ValueId>();
    }
}
