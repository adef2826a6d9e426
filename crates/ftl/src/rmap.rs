//! The reverse map: physical page → content record.
//!
//! Every live or garbage physical page carries a [`PhysPage`] record
//! (its content identity and owning logical pages). The write path
//! probes this map on every revival, dedup hit, kill, and GC
//! relocation, so it is a `Vec<Option<PhysPage>>` indexed directly by
//! PPN: physical page numbers are dense by construction (the flash
//! geometry numbers them `0..total_pages`), so every probe is one
//! bounds-checked array access with no hashing.

use zssd_types::{Lpn, Ppn, ValueId};

/// What the controller knows about the data in one physical page:
/// its content identity and the logical pages referencing it (empty
/// for garbage pages — kept so revival and GC know the content).
///
/// `owners` is the page's only reference count: under deduplication
/// the page dies when its last owner leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PhysPage {
    pub(crate) value: ValueId,
    pub(crate) owners: Owners,
}

/// The logical pages mapped to one physical page, in arrival order.
/// Only dedup gives a page a second owner, so the first is stored
/// inline and only later ones allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Owners {
    first: Option<Lpn>,
    /// `Some` only while non-empty, and then `first` is set too.
    #[expect(
        clippy::box_collection,
        reason = "a thin pointer keeps the rmap slot at 32 bytes; a bare Vec would make it 48"
    )]
    rest: Option<Box<Vec<Lpn>>>,
}

impl Owners {
    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    pub(crate) fn push(&mut self, lpn: Lpn) {
        match self.first {
            None => self.first = Some(lpn),
            Some(_) => self.rest.get_or_insert_with(Box::default).push(lpn),
        }
    }

    /// Removes `lpn` if it is an owner, keeping the others in order.
    pub(crate) fn remove(&mut self, lpn: Lpn) {
        if self.first == Some(lpn) {
            self.first = self.rest.as_mut().map(|rest| rest.remove(0));
        } else if let Some(rest) = self.rest.as_mut() {
            rest.retain(|&l| l != lpn);
        }
        if self.rest.as_ref().is_some_and(|rest| rest.is_empty()) {
            self.rest = None;
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = Lpn> + '_ {
        let rest = self.rest.iter().flat_map(|rest| rest.iter().copied());
        self.first.into_iter().chain(rest)
    }
}

/// Reverse mapping from physical page numbers to their records, one
/// slot per physical page. Writing a PPN beyond the geometry panics:
/// the flash layer never produces one.
#[derive(Debug)]
pub(crate) struct Rmap {
    slots: Vec<Option<PhysPage>>,
}

impl Rmap {
    pub(crate) fn new(total_pages: u64) -> Self {
        let slots = usize::try_from(total_pages).expect("page count fits in memory");
        Rmap {
            slots: vec![None; slots],
        }
    }

    #[inline]
    pub(crate) fn get(&self, ppn: Ppn) -> Option<&PhysPage> {
        self.slots.get(ppn.index() as usize)?.as_ref()
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, ppn: Ppn) -> Option<&mut PhysPage> {
        self.slots.get_mut(ppn.index() as usize)?.as_mut()
    }

    /// Records a freshly programmed page holding `value` for `owner`.
    #[inline]
    pub(crate) fn insert(&mut self, ppn: Ppn, value: ValueId, owner: Lpn) {
        let owners = Owners {
            first: Some(owner),
            rest: None,
        };
        self.slots[ppn.index() as usize] = Some(PhysPage { value, owners });
    }

    /// Moves the record of `from` to `to`.
    #[inline]
    pub(crate) fn relocate(&mut self, from: Ppn, to: Ppn) {
        self.slots[to.index() as usize] = self.slots[from.index() as usize].take();
    }

    #[inline]
    pub(crate) fn remove(&mut self, ppn: Ppn) -> Option<PhysPage> {
        self.slots.get_mut(ppn.index() as usize)?.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owners(lpns: &[u64]) -> Owners {
        let mut owners = Owners::default();
        for &lpn in lpns {
            owners.push(Lpn::new(lpn));
        }
        owners
    }

    fn listed(owners: &Owners) -> Vec<u64> {
        owners.iter().map(Lpn::index).collect()
    }

    fn page(value: u64, lpns: &[u64]) -> PhysPage {
        PhysPage {
            value: ValueId::new(value),
            owners: owners(lpns),
        }
    }

    #[test]
    fn a_dense_slot_is_32_bytes() {
        // A value id plus the owner list; the empty slot costs nothing
        // extra (the inline owner's tag is the `None` niche).
        assert_eq!(std::mem::size_of::<Option<PhysPage>>(), 32);
    }

    #[test]
    fn a_single_owner_allocates_nothing() {
        let mut rmap = Rmap::new(1);
        rmap.insert(Ppn::new(0), ValueId::new(7), Lpn::new(5));
        let one = &rmap.get(Ppn::new(0)).expect("tracked").owners;
        assert!(one.rest.is_none());
        assert_eq!(listed(one), [5]);
        assert_eq!(*one, owners(&[5]));
        assert!(!one.is_empty());
        assert!(Owners::default().is_empty());
    }

    #[test]
    fn a_second_owner_goes_to_the_overflow_list() {
        let mut two = owners(&[5]);
        two.push(Lpn::new(9));
        assert_eq!(two.first, Some(Lpn::new(5)));
        assert_eq!(two.rest.as_deref(), Some(&vec![Lpn::new(9)]));
        assert_eq!(listed(&two), [5, 9]);
    }

    #[test]
    fn removing_the_inline_owner_keeps_the_others_in_order() {
        let mut shared = owners(&[1, 2, 3, 4]);
        shared.remove(Lpn::new(1));
        assert_eq!(listed(&shared), [2, 3, 4]);
        shared.remove(Lpn::new(3));
        assert_eq!(listed(&shared), [2, 4]);
        shared.remove(Lpn::new(7)); // not an owner: no change
        assert_eq!(listed(&shared), [2, 4]);
    }

    #[test]
    fn the_overflow_list_is_freed_when_one_owner_is_left() {
        let mut shared = owners(&[1, 2, 3]);
        shared.remove(Lpn::new(3));
        assert!(shared.rest.is_some());
        shared.remove(Lpn::new(1));
        assert!(shared.rest.is_none(), "one owner left: no allocation");
        assert_eq!(shared, owners(&[2]));
        shared.remove(Lpn::new(2));
        assert!(shared.is_empty());
        assert_eq!(shared, Owners::default());
        // An emptied list takes owners again.
        shared.push(Lpn::new(8));
        assert_eq!(shared, owners(&[8]));
    }

    #[test]
    fn dense_round_trips() {
        let mut rmap = Rmap::new(16);
        assert!(rmap.get(Ppn::new(3)).is_none());
        rmap.insert(Ppn::new(3), ValueId::new(7), Lpn::new(0));
        assert_eq!(rmap.get(Ppn::new(3)), Some(&page(7, &[0])));
        rmap.get_mut(Ppn::new(3))
            .expect("tracked")
            .owners
            .push(Lpn::new(1));
        assert_eq!(rmap.get(Ppn::new(3)), Some(&page(7, &[0, 1])));
        rmap.relocate(Ppn::new(3), Ppn::new(5));
        assert!(rmap.get(Ppn::new(3)).is_none());
        assert_eq!(rmap.get(Ppn::new(5)), Some(&page(7, &[0, 1])));
        rmap.insert(Ppn::new(5), ValueId::new(8), Lpn::new(2));
        assert_eq!(rmap.remove(Ppn::new(5)), Some(page(8, &[2])));
        assert!(rmap.remove(Ppn::new(5)).is_none());
        assert!(rmap.get_mut(Ppn::new(5)).is_none());
    }

    #[test]
    fn dense_out_of_range_reads_are_none() {
        let mut rmap = Rmap::new(4);
        assert!(rmap.get(Ppn::new(4)).is_none());
        assert!(rmap.get_mut(Ppn::new(4)).is_none());
        assert!(rmap.remove(Ppn::new(4)).is_none());
    }

    #[test]
    #[should_panic]
    fn dense_out_of_range_insert_panics() {
        let mut rmap = Rmap::new(4);
        rmap.insert(Ppn::new(4), ValueId::new(1), Lpn::new(0));
    }
}
