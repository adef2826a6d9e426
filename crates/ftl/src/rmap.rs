//! The reverse map: physical page → content record.
//!
//! Every live or garbage physical page carries a record: its content
//! identity and the logical pages that own it (none for a garbage
//! page, whose record is kept so revival and GC know the content).
//! The write path probes this map on every revival, dedup hit, kill,
//! and GC relocation, so it is one 16-byte slot per physical page,
//! indexed directly by PPN: physical page numbers are dense by
//! construction (the flash geometry numbers them `0..total_pages`), so
//! every probe is one bounds-checked array access with no hashing.
//!
//! Only dedup gives a page a second owner. A slot stores its first
//! owner inline; the later owners of a shared page live in one list of
//! a side table that the slot indexes. Lists are reused through a free
//! list, so the table holds at most as many lists as pages were ever
//! shared at once.

use zssd_types::{Lpn, Ppn, ValueId};

use crate::mapping::MAX_PAGES;

/// `rest` of a slot that holds no record.
const VACANT: u32 = u32::MAX;
/// `rest` of a record with at most one owner.
const NO_REST: u32 = u32::MAX - 1;
/// `first` of a record with no owner (a garbage page).
const NO_OWNER: u32 = u32::MAX;

/// One physical page's record, or a vacant slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    value: ValueId,
    /// The first owner's LPN, or [`NO_OWNER`].
    first: u32,
    /// [`VACANT`], [`NO_REST`], or the index of the side-table list of
    /// the later owners. A record with a list always has a first
    /// owner, and its list is never empty.
    rest: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        value: ValueId::new(0),
        first: NO_OWNER,
        rest: VACANT,
    };

    /// The side-table list this slot names, if any.
    fn list(self) -> Option<usize> {
        (self.rest < NO_REST).then_some(self.rest as usize)
    }
}

/// An owner as stored in a slot or list. Never fails on a validated
/// drive: it has at most [`MAX_PAGES`] logical pages, and the FTL
/// checks every LPN against the mapping table before it reaches the
/// reverse map.
fn pack(lpn: Lpn) -> u32 {
    assert!(lpn.index() < MAX_PAGES, "{lpn} beyond 32-bit owners");
    lpn.index() as u32
}

fn unpack(owner: u32) -> Lpn {
    Lpn::new(u64::from(owner))
}

/// Reverse mapping from physical page numbers to their records, one
/// slot per physical page.
///
/// Writing a PPN beyond the geometry panics: the flash layer never
/// produces one. [`Rmap::recorded_value`] and the owner methods
/// ([`Rmap::push_owner`], [`Rmap::remove_owner`]) also panic on a PPN
/// that holds no record.
/// The FTL calls them only on mapped, valid or pool-tracked pages,
/// which always have one: between host operations
/// [`Ssd::check_invariants`](crate::Ssd::check_invariants) holds, so a
/// mapped PPN (clause 1) or dedup-indexed PPN (5) is valid, every
/// valid page has a record (2), and every PPN the pool tracks keeps
/// its record (3); callers look the PPN up before their operation
/// changes that page's state.
#[derive(Debug)]
pub(crate) struct Rmap {
    slots: Vec<Slot>,
    /// The owners after the first of each shared page, in arrival
    /// order, indexed by the page's `rest`.
    lists: Vec<Vec<u32>>,
    /// Indices of emptied `lists`, reused before the table grows.
    free: Vec<u32>,
}

impl Rmap {
    pub(crate) fn new(total_pages: u64) -> Self {
        let slots = usize::try_from(total_pages).expect("page count fits in memory");
        Rmap {
            slots: vec![Slot::EMPTY; slots],
            lists: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn slot(&self, ppn: Ppn) -> Option<&Slot> {
        self.slots
            .get(ppn.index() as usize)
            .filter(|slot| slot.rest != VACANT)
    }

    /// The index of `ppn`'s slot, which must hold a record.
    #[inline]
    fn recorded(&self, ppn: Ppn) -> usize {
        assert!(
            self.slot(ppn).is_some(),
            "mapped, valid and pool-tracked pages have physical-page records"
        );
        ppn.index() as usize
    }

    /// The content of `ppn`, or `None` if it holds no record.
    #[inline]
    pub(crate) fn value(&self, ppn: Ppn) -> Option<ValueId> {
        self.slot(ppn).map(|slot| slot.value)
    }

    /// The content of `ppn`, which must hold a record.
    #[inline]
    pub(crate) fn recorded_value(&self, ppn: Ppn) -> ValueId {
        self.slots[self.recorded(ppn)].value
    }

    /// The logical pages owning `ppn`, in the order they arrived
    /// (none if it holds no record).
    pub(crate) fn owners(&self, ppn: Ppn) -> impl Iterator<Item = Lpn> + '_ {
        let slot = self.slot(ppn).copied().unwrap_or(Slot::EMPTY);
        let rest = slot.list().map_or(&[][..], |list| &self.lists[list]);
        let first = (slot.first != NO_OWNER).then_some(slot.first);
        first.into_iter().chain(rest.iter().copied()).map(unpack)
    }

    /// Records a freshly programmed page holding `value` for `owner`.
    #[inline]
    pub(crate) fn insert(&mut self, ppn: Ppn, value: ValueId, owner: Lpn) {
        let idx = ppn.index() as usize;
        self.release(self.slots[idx]);
        self.slots[idx] = Slot {
            value,
            first: pack(owner),
            rest: NO_REST,
        };
    }

    /// Adds `lpn` as the last owner of `ppn`.
    #[inline]
    pub(crate) fn push_owner(&mut self, ppn: Ppn, lpn: Lpn) {
        let idx = self.recorded(ppn);
        let slot = self.slots[idx];
        if slot.first == NO_OWNER {
            self.slots[idx].first = pack(lpn);
        } else if let Some(list) = slot.list() {
            self.lists[list].push(pack(lpn));
        } else {
            let list = match self.free.pop() {
                Some(list) => list,
                None => {
                    self.lists.push(Vec::new());
                    u32::try_from(self.lists.len() - 1)
                        .expect("fewer shared pages than physical pages")
                }
            };
            self.lists[list as usize].push(pack(lpn));
            self.slots[idx].rest = list;
        }
    }

    /// Removes `lpn` if it owns `ppn`, keeping the others in order, and
    /// returns whether `ppn` is left without owners.
    #[inline]
    pub(crate) fn remove_owner(&mut self, ppn: Ppn, lpn: Lpn) -> bool {
        let idx = self.recorded(ppn);
        let owner = pack(lpn);
        let slot = &mut self.slots[idx];
        match slot.list() {
            None => {
                if slot.first == owner {
                    slot.first = NO_OWNER;
                }
            }
            Some(list) => {
                let rest = &mut self.lists[list];
                if slot.first == owner {
                    slot.first = rest.remove(0);
                } else {
                    rest.retain(|&other| other != owner);
                }
                if rest.is_empty() {
                    self.free.push(slot.rest);
                    slot.rest = NO_REST;
                }
            }
        }
        slot.first == NO_OWNER
    }

    /// Moves the record of `from` to `to`.
    #[inline]
    pub(crate) fn relocate(&mut self, from: Ppn, to: Ppn) {
        let moved = std::mem::replace(&mut self.slots[from.index() as usize], Slot::EMPTY);
        let to = to.index() as usize;
        self.release(self.slots[to]);
        self.slots[to] = moved;
    }

    /// Drops the record of `ppn`, if it has one.
    #[inline]
    pub(crate) fn remove(&mut self, ppn: Ppn) {
        if let Some(slot) = self.slots.get_mut(ppn.index() as usize) {
            let old = std::mem::replace(slot, Slot::EMPTY);
            self.release(old);
        }
    }

    /// Returns the list of a slot being overwritten to the free list.
    #[inline]
    fn release(&mut self, old: Slot) {
        if let Some(list) = old.list() {
            self.lists[list].clear();
            self.free.push(old.rest);
        }
    }

    /// Checks the owner side table: every list in use is named by
    /// exactly one record, which has a first owner, and holds at least
    /// one owner; every free-listed list is empty and named by no
    /// record.
    pub(crate) fn check_lists(&self) -> Result<(), String> {
        let mut named = vec![0u32; self.lists.len()];
        for (ppn, slot) in self.slots.iter().enumerate() {
            let Some(list) = slot.list() else {
                continue;
            };
            if list >= self.lists.len() {
                return Err(format!("P{ppn} names owner list {list} beyond the table"));
            }
            if slot.first == NO_OWNER {
                return Err(format!("P{ppn} has an owner list but no first owner"));
            }
            named[list] += 1;
        }
        let mut free = vec![false; self.lists.len()];
        for &list in &self.free {
            match free.get_mut(list as usize) {
                None => return Err(format!("free owner list {list} beyond the table")),
                Some(true) => return Err(format!("owner list {list} is free-listed twice")),
                Some(slot) => *slot = true,
            }
        }
        for (list, (owners, (&named, &free))) in
            self.lists.iter().zip(named.iter().zip(&free)).enumerate()
        {
            // Free: named by none and empty. In use: named once, not empty.
            if named != u32::from(!free) || owners.is_empty() != free {
                let state = if free { "free" } else { "in-use" };
                return Err(format!(
                    "{state} owner list {list} is named by {named} records and holds {} owners",
                    owners.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl Rmap {
    /// Points `ppn`'s record at side-table list `list`, as a corrupted
    /// slot would.
    pub(crate) fn point_at_list(&mut self, ppn: Ppn, list: u32) {
        let idx = self.recorded(ppn);
        self.slots[idx].rest = list;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn listed(rmap: &Rmap, ppn: u64) -> Vec<u64> {
        rmap.owners(Ppn::new(ppn)).map(Lpn::index).collect()
    }

    /// A one-page map whose page 0 holds value 7 owned by `lpns`.
    fn shared(lpns: &[u64]) -> Rmap {
        let mut rmap = Rmap::new(1);
        rmap.insert(Ppn::new(0), ValueId::new(7), Lpn::new(lpns[0]));
        for &lpn in &lpns[1..] {
            rmap.push_owner(Ppn::new(0), Lpn::new(lpn));
        }
        rmap
    }

    #[test]
    fn a_slot_is_16_bytes() {
        // The value id, the inline owner, and the vacant / no-list /
        // list-index word.
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn a_single_owner_allocates_nothing() {
        let rmap = shared(&[5]);
        assert_eq!(listed(&rmap, 0), [5]);
        assert!(rmap.lists.is_empty());
        assert_eq!(rmap.value(Ppn::new(0)), Some(ValueId::new(7)));
    }

    #[test]
    fn a_second_owner_goes_to_the_overflow_list() {
        let rmap = shared(&[5, 9]);
        assert_eq!(rmap.slots[0].first, 5);
        assert_eq!(rmap.lists, [vec![9]]);
        assert_eq!(listed(&rmap, 0), [5, 9]);
        rmap.check_lists().expect("consistent");
    }

    #[test]
    fn removing_the_inline_owner_keeps_the_others_in_order() {
        let mut rmap = shared(&[1, 2, 3, 4]);
        assert!(!rmap.remove_owner(Ppn::new(0), Lpn::new(1)));
        assert_eq!(listed(&rmap, 0), [2, 3, 4]);
        assert!(!rmap.remove_owner(Ppn::new(0), Lpn::new(3)));
        assert_eq!(listed(&rmap, 0), [2, 4]);
        assert!(!rmap.remove_owner(Ppn::new(0), Lpn::new(7))); // not an owner
        assert_eq!(listed(&rmap, 0), [2, 4]);
    }

    #[test]
    fn the_overflow_list_is_freed_when_one_owner_is_left() {
        let mut rmap = shared(&[1, 2, 3]);
        rmap.remove_owner(Ppn::new(0), Lpn::new(3));
        assert!(rmap.free.is_empty());
        rmap.remove_owner(Ppn::new(0), Lpn::new(1));
        assert_eq!(rmap.free, [0], "one owner left: the list is free");
        assert_eq!(listed(&rmap, 0), [2]);
        assert!(rmap.remove_owner(Ppn::new(0), Lpn::new(2)), "now empty");
        assert_eq!(listed(&rmap, 0), Vec::<u64>::new());
        assert_eq!(rmap.value(Ppn::new(0)), Some(ValueId::new(7)), "kept");
        // An emptied record takes owners again, reusing the free list.
        rmap.push_owner(Ppn::new(0), Lpn::new(8));
        rmap.push_owner(Ppn::new(0), Lpn::new(9));
        assert_eq!(listed(&rmap, 0), [8, 9]);
        assert_eq!(rmap.lists.len(), 1);
        assert!(rmap.free.is_empty());
        rmap.check_lists().expect("consistent");
    }

    #[test]
    fn dense_round_trips() {
        let mut rmap = Rmap::new(16);
        assert_eq!(rmap.value(Ppn::new(3)), None);
        rmap.insert(Ppn::new(3), ValueId::new(7), Lpn::new(0));
        rmap.push_owner(Ppn::new(3), Lpn::new(1));
        rmap.relocate(Ppn::new(3), Ppn::new(5));
        assert_eq!(rmap.value(Ppn::new(3)), None);
        assert_eq!(listed(&rmap, 3), Vec::<u64>::new());
        assert_eq!(rmap.value(Ppn::new(5)), Some(ValueId::new(7)));
        assert_eq!(listed(&rmap, 5), [0, 1]);
        rmap.insert(Ppn::new(5), ValueId::new(8), Lpn::new(2));
        assert_eq!(listed(&rmap, 5), [2]);
        assert_eq!(rmap.free, [0], "the overwritten record's list is freed");
        rmap.remove(Ppn::new(5));
        assert_eq!(rmap.value(Ppn::new(5)), None);
        rmap.remove(Ppn::new(5));
        rmap.check_lists().expect("consistent");
    }

    #[test]
    fn dense_out_of_range_reads_are_none() {
        let mut rmap = Rmap::new(4);
        assert_eq!(rmap.value(Ppn::new(4)), None);
        assert_eq!(rmap.owners(Ppn::new(4)).count(), 0);
        rmap.remove(Ppn::new(4));
    }

    #[test]
    #[should_panic]
    fn dense_out_of_range_insert_panics() {
        let mut rmap = Rmap::new(4);
        rmap.insert(Ppn::new(4), ValueId::new(1), Lpn::new(0));
    }

    #[test]
    #[should_panic(expected = "physical-page records")]
    fn owners_of_a_vacant_page_panic() {
        let mut rmap = Rmap::new(4);
        rmap.push_owner(Ppn::new(1), Lpn::new(0));
    }

    #[test]
    fn the_list_check_catches_corrupt_slots() {
        let broken = |corrupt: fn(&mut Rmap)| {
            let mut rmap = Rmap::new(3);
            rmap.insert(Ppn::new(0), ValueId::new(7), Lpn::new(1));
            rmap.push_owner(Ppn::new(0), Lpn::new(2));
            rmap.insert(Ppn::new(1), ValueId::new(8), Lpn::new(3));
            rmap.push_owner(Ppn::new(1), Lpn::new(4));
            rmap.remove_owner(Ppn::new(1), Lpn::new(4)); // list 1 is free
            rmap.insert(Ppn::new(2), ValueId::new(9), Lpn::new(5));
            rmap.check_lists().expect("consistent before corruption");
            corrupt(&mut rmap);
            rmap.check_lists().expect_err("corruption found")
        };
        let named_twice = broken(|rmap| rmap.point_at_list(Ppn::new(2), 0));
        assert!(named_twice.contains("named by 2 records"), "{named_twice}");
        let free_named = broken(|rmap| rmap.point_at_list(Ppn::new(2), 1));
        assert!(free_named.contains("free owner list 1"), "{free_named}");
        let orphan = broken(|rmap| rmap.point_at_list(Ppn::new(0), NO_REST));
        assert!(orphan.contains("named by 0 records"), "{orphan}");
        let beyond = broken(|rmap| rmap.point_at_list(Ppn::new(2), 5));
        assert!(beyond.contains("beyond the table"), "{beyond}");
        let emptied = broken(|rmap| rmap.lists[0].clear());
        assert!(emptied.contains("holds 0 owners"), "{emptied}");
        let ownerless = broken(|rmap| rmap.slots[0].first = NO_OWNER);
        assert!(ownerless.contains("no first owner"), "{ownerless}");
        let twice = broken(|rmap| rmap.free.push(1));
        assert!(twice.contains("free-listed twice"), "{twice}");
    }

    const PAGES: u64 = 6;
    const LPNS: u64 = 6;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64, u64),
        Push(u64, u64),
        Remove(u64, u64),
        Relocate(u64, u64),
        Drop(u64),
    }

    /// Owner changes are listed twice, so pages gather several owners.
    fn op() -> impl Strategy<Value = Op> {
        let push = || (0..PAGES, 0..LPNS).prop_map(|(p, l)| Op::Push(p, l));
        let remove = || (0..PAGES, 0..LPNS).prop_map(|(p, l)| Op::Remove(p, l));
        prop_oneof![
            (0..PAGES, 0u64..4, 0..LPNS).prop_map(|(p, v, l)| Op::Insert(p, v, l)),
            push(),
            push(),
            remove(),
            remove(),
            (0..PAGES, 0..PAGES).prop_map(|(from, to)| Op::Relocate(from, to)),
            (0..PAGES).prop_map(Op::Drop),
        ]
    }

    /// The plain model: each page's value and owners in order.
    type Model = Vec<Option<(ValueId, Vec<Lpn>)>>;

    /// Applies `op` to both sides. Operations the FTL never issues are
    /// skipped: owner changes on a page without a record, a second
    /// push of the same owner, and relocation onto itself.
    fn apply(rmap: &mut Rmap, model: &mut Model, op: Op) {
        match op {
            Op::Insert(p, v, l) => {
                rmap.insert(Ppn::new(p), ValueId::new(v), Lpn::new(l));
                model[p as usize] = Some((ValueId::new(v), vec![Lpn::new(l)]));
            }
            Op::Push(p, l) => {
                let Some((_, owners)) = model[p as usize].as_mut() else {
                    return;
                };
                if !owners.contains(&Lpn::new(l)) {
                    owners.push(Lpn::new(l));
                    rmap.push_owner(Ppn::new(p), Lpn::new(l));
                }
            }
            Op::Remove(p, l) => {
                let Some((_, owners)) = model[p as usize].as_mut() else {
                    return;
                };
                owners.retain(|&owner| owner != Lpn::new(l));
                let emptied = rmap.remove_owner(Ppn::new(p), Lpn::new(l));
                assert_eq!(emptied, owners.is_empty(), "emptiness of P{p}");
            }
            Op::Relocate(from, to) => {
                if from != to && model[from as usize].is_some() {
                    model[to as usize] = model[from as usize].take();
                    rmap.relocate(Ppn::new(from), Ppn::new(to));
                }
            }
            Op::Drop(p) => {
                model[p as usize] = None;
                rmap.remove(Ppn::new(p));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Values, owner order and emptiness match the model after
        /// every operation, the side table stays consistent, and it
        /// never holds more lists than pages were shared at once.
        #[test]
        fn the_rmap_matches_a_plain_model(ops in prop::collection::vec(op(), 1..200)) {
            let mut rmap = Rmap::new(PAGES);
            let mut model: Model = vec![None; PAGES as usize];
            let mut peak_shared = 0;
            for op in ops {
                apply(&mut rmap, &mut model, op);
                for (p, page) in model.iter().enumerate() {
                    let ppn = Ppn::new(p as u64);
                    prop_assert_eq!(rmap.value(ppn), page.as_ref().map(|(value, _)| *value));
                    let owners: Vec<Lpn> = rmap.owners(ppn).collect();
                    prop_assert_eq!(&owners, page.as_ref().map_or(&Vec::new(), |(_, o)| o));
                }
                rmap.check_lists().expect("side table");
                let shared = model
                    .iter()
                    .flatten()
                    .filter(|(_, owners)| owners.len() > 1)
                    .count();
                peak_shared = peak_shared.max(shared);
                prop_assert!(rmap.lists.len() <= peak_shared);
            }
        }
    }
}
