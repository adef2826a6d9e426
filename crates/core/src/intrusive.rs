//! A slab of entries threaded through intrusive doubly-linked lists.
//!
//! The MQ pool (in every configuration, one queue included) and the
//! LX-SSD pool need O(1) detach-from-middle (on hits and promotions)
//! as well as O(1) push-tail / pop-head, across *multiple* queues
//! whose membership changes. A slab with intrusive prev/next
//! links gives all of that without per-node allocation. [`PpnSlots`]
//! finds the entry tracking a garbage page.

use zssd_types::Ppn;

/// Index of a slot in the slab.
pub(crate) type SlotId = u32;

#[derive(Debug, Clone)]
struct Slot<T> {
    data: T,
    prev: Option<SlotId>,
    next: Option<SlotId>,
}

/// A growable arena of list nodes with a free list.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<Slot<T>>>,
    free: Vec<SlotId>,
    len: usize,
}

impl<T> Slab<T> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn insert(&mut self, data: T) -> SlotId {
        self.len += 1;
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = Some(Slot {
                data,
                prev: None,
                next: None,
            });
            id
        } else {
            let id = self.slots.len() as SlotId;
            self.slots.push(Some(Slot {
                data,
                prev: None,
                next: None,
            }));
            id
        }
    }

    /// Removes a slot, returning its data. The slot must not be linked
    /// into any list (detach it first).
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub(crate) fn remove(&mut self, id: SlotId) -> T {
        let slot = self.slots[id as usize].take().expect("slot occupied");
        debug_assert!(
            slot.prev.is_none() && slot.next.is_none(),
            "slot still linked"
        );
        self.free.push(id);
        self.len -= 1;
        slot.data
    }

    pub(crate) fn get(&self, id: SlotId) -> &T {
        &self.slots[id as usize]
            .as_ref()
            .expect("slot occupied")
            .data
    }

    pub(crate) fn get_mut(&mut self, id: SlotId) -> &mut T {
        &mut self.slots[id as usize]
            .as_mut()
            .expect("slot occupied")
            .data
    }
}

/// The slab slot tracking each garbage page, indexed by PPN. PPNs are
/// dense, so a lookup is one array read; the table grows on demand to
/// the highest PPN inserted, and [`SlotId::MAX`] marks an untracked page.
#[derive(Debug, Clone, Default)]
pub(crate) struct PpnSlots {
    slots: Vec<SlotId>,
    len: usize,
}

impl PpnSlots {
    const EMPTY: SlotId = SlotId::MAX;

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn get(&self, ppn: Ppn) -> Option<SlotId> {
        let id = *self.slots.get(ppn.index() as usize)?;
        (id != Self::EMPTY).then_some(id)
    }

    /// Records that slot `id` tracks `ppn`, which must be untracked.
    pub(crate) fn insert(&mut self, ppn: Ppn, id: SlotId) {
        let index = ppn.index() as usize;
        if index >= self.slots.len() {
            self.slots.resize(index + 1, Self::EMPTY);
        }
        debug_assert_eq!(self.slots[index], Self::EMPTY, "{ppn} already tracked");
        self.slots[index] = id;
        self.len += 1;
    }

    pub(crate) fn remove(&mut self, ppn: Ppn) -> Option<SlotId> {
        let id = std::mem::replace(self.slots.get_mut(ppn.index() as usize)?, Self::EMPTY);
        self.len -= usize::from(id != Self::EMPTY);
        (id != Self::EMPTY).then_some(id)
    }
}

/// Head/tail of one intrusive list over a [`Slab`].
///
/// Head is the LRU end (pop side); tail is the MRU end (push side).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ListHandle {
    head: Option<SlotId>,
    tail: Option<SlotId>,
    len: usize,
}

impl ListHandle {
    pub(crate) fn new() -> Self {
        ListHandle::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg_attr(not(test), allow(dead_code))] // exercised by the list tests
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn head(&self) -> Option<SlotId> {
        self.head
    }

    /// Appends a (detached) slot at the tail (MRU position).
    pub(crate) fn push_tail<T>(&mut self, slab: &mut Slab<T>, id: SlotId) {
        let old_tail = self.tail;
        {
            let slot = slab.slots[id as usize].as_mut().expect("slot occupied");
            debug_assert!(
                slot.prev.is_none() && slot.next.is_none(),
                "slot already linked"
            );
            slot.prev = old_tail;
            slot.next = None;
        }
        match old_tail {
            Some(t) => {
                slab.slots[t as usize].as_mut().expect("slot occupied").next = Some(id);
            }
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        self.len += 1;
    }

    /// Unlinks a slot from anywhere in this list.
    pub(crate) fn detach<T>(&mut self, slab: &mut Slab<T>, id: SlotId) {
        let (prev, next) = {
            let slot = slab.slots[id as usize].as_mut().expect("slot occupied");
            let links = (slot.prev, slot.next);
            slot.prev = None;
            slot.next = None;
            links
        };
        match prev {
            Some(p) => slab.slots[p as usize].as_mut().expect("slot occupied").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => slab.slots[n as usize].as_mut().expect("slot occupied").prev = prev,
            None => self.tail = prev,
        }
        self.len -= 1;
    }

    /// Iterates slot ids from head (LRU) to tail (MRU).
    #[cfg_attr(not(test), allow(dead_code))] // exercised by the list tests
    pub(crate) fn iter<'a, T>(&self, slab: &'a Slab<T>) -> ListIter<'a, T> {
        ListIter {
            slab,
            cursor: self.head,
        }
    }
}

#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct ListIter<'a, T> {
    slab: &'a Slab<T>,
    cursor: Option<SlotId>,
}

impl<T> Iterator for ListIter<'_, T> {
    type Item = SlotId;

    fn next(&mut self) -> Option<SlotId> {
        let id = self.cursor?;
        self.cursor = self.slab.slots[id as usize]
            .as_ref()
            .expect("slot occupied")
            .next;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let mut slab = Slab::with_capacity(4);
        let mut list = ListHandle::new();
        for v in 0..4 {
            let id = slab.insert(v);
            list.push_tail(&mut slab, id);
        }
        assert_eq!(list.len(), 4);
        let mut order = Vec::new();
        while let Some(id) = list.head() {
            list.detach(&mut slab, id);
            order.push(slab.remove(id));
        }
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(list.is_empty());
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn detach_from_middle_relinks() {
        let mut slab = Slab::with_capacity(3);
        let mut list = ListHandle::new();
        let ids: Vec<SlotId> = (0..3).map(|v| slab.insert(v)).collect();
        for &id in &ids {
            list.push_tail(&mut slab, id);
        }
        list.detach(&mut slab, ids[1]);
        let remaining: Vec<i32> = list.iter(&slab).map(|id| *slab.get(id)).collect();
        assert_eq!(remaining, vec![0, 2]);
        // Detached slot can be pushed again (becomes MRU).
        list.push_tail(&mut slab, ids[1]);
        let now: Vec<i32> = list.iter(&slab).map(|id| *slab.get(id)).collect();
        assert_eq!(now, vec![0, 2, 1]);
    }

    #[test]
    fn detach_head_and_tail_update_ends() {
        let mut slab = Slab::with_capacity(2);
        let mut list = ListHandle::new();
        let a = slab.insert('a');
        let b = slab.insert('b');
        list.push_tail(&mut slab, a);
        list.push_tail(&mut slab, b);
        list.detach(&mut slab, b); // tail
        assert_eq!(list.head(), Some(a));
        list.detach(&mut slab, a); // head == tail
        assert!(list.is_empty());
        assert_eq!(list.head(), None);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut slab: Slab<u8> = Slab::with_capacity(1);
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        assert_eq!(a, b, "freed slot is recycled");
        assert_eq!(*slab.get(b), 2);
        *slab.get_mut(b) = 9;
        assert_eq!(*slab.get(b), 9);
    }

    #[test]
    fn ppn_slots_grow_on_demand() {
        let mut table = PpnSlots::default();
        assert_eq!(table.len(), 0);
        assert_eq!(table.get(Ppn::new(0)), None, "out of range reads as empty");
        table.insert(Ppn::new(1000), 7);
        assert_eq!(table.get(Ppn::new(1000)), Some(7));
        assert_eq!(table.get(Ppn::new(999)), None, "grown but empty");
        assert_eq!(table.get(Ppn::new(1001)), None, "beyond the growth");
        table.insert(Ppn::new(3), 0);
        assert_eq!(table.get(Ppn::new(3)), Some(0), "slot 0 is a real slot");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn ppn_slots_remove_once() {
        let mut table = PpnSlots::default();
        assert_eq!(table.remove(Ppn::new(5)), None, "out of range");
        table.insert(Ppn::new(5), 2);
        table.insert(Ppn::new(6), 3);
        assert_eq!(table.remove(Ppn::new(4)), None, "in range but empty");
        assert_eq!(table.remove(Ppn::new(5)), Some(2));
        assert_eq!(table.remove(Ppn::new(5)), None);
        assert_eq!(table.get(Ppn::new(5)), None);
        assert_eq!(table.len(), 1);
        // A freed page can be tracked again, by another slot.
        table.insert(Ppn::new(5), 9);
        assert_eq!(table.get(Ppn::new(5)), Some(9));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn entries_move_between_lists() {
        let mut slab = Slab::with_capacity(2);
        let mut q0 = ListHandle::new();
        let mut q1 = ListHandle::new();
        let id = slab.insert(7);
        q0.push_tail(&mut slab, id);
        q0.detach(&mut slab, id);
        q1.push_tail(&mut slab, id);
        assert!(q0.is_empty());
        assert_eq!(q1.len(), 1);
        assert_eq!(q1.head(), Some(id));
    }
}
