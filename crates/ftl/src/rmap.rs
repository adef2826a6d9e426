//! The reverse map: physical page → content record.
//!
//! Every live or garbage physical page carries a [`PhysPage`] record
//! (its content identity and owning logical pages). The write path
//! probes this map on every revival, dedup hit, kill, and GC
//! relocation, so its representation matters:
//!
//! * [`Rmap::Dense`] — a `Vec<Option<PhysPage>>` indexed directly by
//!   PPN. Physical page numbers are dense by construction (the flash
//!   geometry numbers them `0..total_pages`), so a flat vector turns
//!   every probe into one bounds-checked array access with no hashing.
//!   This is the default.
//! * [`Rmap::Sparse`] — the original `HashMap<Ppn, PhysPage>`. Kept
//!   behind [`SsdConfig::with_sparse_rmap`] as an equivalence oracle:
//!   property tests replay the same trace against both representations
//!   and assert identical [`RunReport`]s.
//!
//! [`SsdConfig::with_sparse_rmap`]: crate::SsdConfig::with_sparse_rmap
//! [`RunReport`]: crate::RunReport

use std::collections::HashMap;

use zssd_types::{Fingerprint, Lpn, Ppn, ValueId};

/// What the controller knows about the data in one physical page:
/// its content identity and the logical pages referencing it (empty
/// for garbage pages — kept so revival and GC know the content).
///
/// `owners` is the page's only reference count: under deduplication
/// the page dies when its last owner leaves. The fingerprint is not
/// stored; it is derived from `value` when needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PhysPage {
    pub(crate) value: ValueId,
    pub(crate) owners: Vec<Lpn>,
}

impl PhysPage {
    /// The content hash of the page's data.
    #[inline]
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_value(self.value)
    }
}

/// Reverse mapping from physical page numbers to their records.
#[derive(Debug)]
pub(crate) enum Rmap {
    /// Direct-indexed by PPN; one slot per physical page.
    Dense(Vec<Option<PhysPage>>),
    /// Hash-mapped; the pre-optimization representation, kept as an
    /// equivalence oracle for property tests.
    Sparse(HashMap<Ppn, PhysPage>),
}

impl Rmap {
    /// A dense map with one (empty) slot per physical page.
    pub(crate) fn dense(total_pages: u64) -> Self {
        let slots = usize::try_from(total_pages).expect("page count fits in memory");
        Rmap::Dense(vec![None; slots])
    }

    /// An empty hash-based map.
    pub(crate) fn sparse() -> Self {
        Rmap::Sparse(HashMap::new())
    }

    /// The record of `ppn`, if one is tracked.
    #[inline]
    pub(crate) fn get(&self, ppn: Ppn) -> Option<&PhysPage> {
        match self {
            Rmap::Dense(slots) => slots.get(ppn.index() as usize)?.as_ref(),
            Rmap::Sparse(map) => map.get(&ppn),
        }
    }

    /// Mutable access to the record of `ppn`, if one is tracked.
    #[inline]
    pub(crate) fn get_mut(&mut self, ppn: Ppn) -> Option<&mut PhysPage> {
        match self {
            Rmap::Dense(slots) => slots.get_mut(ppn.index() as usize)?.as_mut(),
            Rmap::Sparse(map) => map.get_mut(&ppn),
        }
    }

    /// Tracks `page` at `ppn`, returning the previous record if any.
    ///
    /// # Panics
    ///
    /// A dense map panics if `ppn` is beyond the geometry it was sized
    /// for — that would mean the flash layer produced an address it
    /// never announced.
    #[inline]
    pub(crate) fn insert(&mut self, ppn: Ppn, page: PhysPage) -> Option<PhysPage> {
        match self {
            Rmap::Dense(slots) => slots[ppn.index() as usize].replace(page),
            Rmap::Sparse(map) => map.insert(ppn, page),
        }
    }

    /// Stops tracking `ppn`, returning its record if one existed.
    #[inline]
    pub(crate) fn remove(&mut self, ppn: Ppn) -> Option<PhysPage> {
        match self {
            Rmap::Dense(slots) => slots.get_mut(ppn.index() as usize)?.take(),
            Rmap::Sparse(map) => map.remove(&ppn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(value: u64, owners: &[u64]) -> PhysPage {
        PhysPage {
            value: ValueId::new(value),
            owners: owners.iter().copied().map(Lpn::new).collect(),
        }
    }

    fn exercise(mut rmap: Rmap) {
        assert!(rmap.get(Ppn::new(3)).is_none());
        assert!(rmap.insert(Ppn::new(3), page(7, &[0])).is_none());
        assert_eq!(rmap.get(Ppn::new(3)), Some(&page(7, &[0])));
        rmap.get_mut(Ppn::new(3))
            .expect("tracked")
            .owners
            .push(Lpn::new(1));
        assert_eq!(rmap.get(Ppn::new(3)), Some(&page(7, &[0, 1])));
        let old = rmap.insert(Ppn::new(3), page(8, &[2]));
        assert_eq!(old, Some(page(7, &[0, 1])));
        assert_eq!(rmap.remove(Ppn::new(3)), Some(page(8, &[2])));
        assert!(rmap.remove(Ppn::new(3)).is_none());
        assert!(rmap.get_mut(Ppn::new(3)).is_none());
    }

    #[test]
    fn a_dense_slot_is_32_bytes() {
        // A value id plus the owner list; the empty slot costs nothing
        // extra (the `Vec` pointer is the `None` niche).
        assert_eq!(std::mem::size_of::<Option<PhysPage>>(), 32);
    }

    #[test]
    fn dense_round_trips() {
        exercise(Rmap::dense(16));
    }

    #[test]
    fn sparse_round_trips() {
        exercise(Rmap::sparse());
    }

    #[test]
    fn dense_out_of_range_reads_are_none() {
        let mut rmap = Rmap::dense(4);
        assert!(rmap.get(Ppn::new(4)).is_none());
        assert!(rmap.get_mut(Ppn::new(4)).is_none());
        assert!(rmap.remove(Ppn::new(4)).is_none());
    }

    #[test]
    #[should_panic]
    fn dense_out_of_range_insert_panics() {
        let mut rmap = Rmap::dense(4);
        rmap.insert(Ppn::new(4), page(1, &[]));
    }
}
