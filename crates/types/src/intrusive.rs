//! A slab of entries threaded through intrusive doubly-linked lists:
//! the one LRU list of the workspace.
//!
//! The dead-value pools (the MQ pool in every configuration, one queue
//! included, and the LX-SSD pool) and the dedup fingerprint index need
//! O(1) detach-from-middle (on hits and promotions) as well as O(1)
//! push-tail and head access, across *multiple* queues whose
//! membership changes. A slab with intrusive prev/next links gives all
//! of that without per-node allocation.

/// Index of a slot in a [`Slab`].
pub type SlotId = u32;

#[derive(Debug, Clone)]
struct Slot<T> {
    data: T,
    prev: Option<SlotId>,
    next: Option<SlotId>,
}

/// A growable arena of list nodes with a free list.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Option<Slot<T>>>,
    free: Vec<SlotId>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab with room for `capacity` slots before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `data` in a free slot, linked into no list, and returns
    /// the slot's id.
    pub fn insert(&mut self, data: T) -> SlotId {
        let slot = Some(Slot {
            data,
            prev: None,
            next: None,
        });
        self.len += 1;
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                id
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as SlotId
            }
        }
    }

    /// Removes a slot, returning its data. The slot must not be linked
    /// into any list (detach it first).
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn remove(&mut self, id: SlotId) -> T {
        let slot = self.slots[id as usize].take().expect("slot occupied");
        debug_assert!(
            slot.prev.is_none() && slot.next.is_none(),
            "slot still linked"
        );
        self.free.push(id);
        self.len -= 1;
        slot.data
    }

    /// The data in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn get(&self, id: SlotId) -> &T {
        &self.slot(id).data
    }

    /// The data in slot `id`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn get_mut(&mut self, id: SlotId) -> &mut T {
        &mut self.slot_mut(id).data
    }

    fn slot(&self, id: SlotId) -> &Slot<T> {
        self.slots[id as usize].as_ref().expect("slot occupied")
    }

    fn slot_mut(&mut self, id: SlotId) -> &mut Slot<T> {
        self.slots[id as usize].as_mut().expect("slot occupied")
    }
}

/// Head/tail of one intrusive list over a [`Slab`].
///
/// Head is the LRU end; tail is the MRU end (push side).
#[derive(Debug, Clone, Copy, Default)]
pub struct ListHandle {
    head: Option<SlotId>,
    tail: Option<SlotId>,
    len: usize,
}

impl ListHandle {
    /// Number of slots in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The least recently pushed slot still in the list.
    pub fn head(&self) -> Option<SlotId> {
        self.head
    }

    /// Appends a (detached) slot at the tail (MRU position).
    pub fn push_tail<T>(&mut self, slab: &mut Slab<T>, id: SlotId) {
        let slot = slab.slot_mut(id);
        debug_assert!(
            slot.prev.is_none() && slot.next.is_none(),
            "slot already linked"
        );
        slot.prev = self.tail;
        match self.tail {
            Some(tail) => slab.slot_mut(tail).next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        self.len += 1;
    }

    /// Unlinks a slot from anywhere in this list.
    pub fn detach<T>(&mut self, slab: &mut Slab<T>, id: SlotId) {
        let slot = slab.slot_mut(id);
        let (prev, next) = (slot.prev.take(), slot.next.take());
        match prev {
            Some(p) => slab.slot_mut(p).next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => slab.slot_mut(n).prev = prev,
            None => self.tail = prev,
        }
        self.len -= 1;
    }

    /// Moves a slot of this list to the tail (MRU position).
    pub fn move_to_tail<T>(&mut self, slab: &mut Slab<T>, id: SlotId) {
        self.detach(slab, id);
        self.push_tail(slab, id);
    }

    /// Iterates slot ids from head (LRU) to tail (MRU).
    pub fn iter<'a, T>(&self, slab: &'a Slab<T>) -> impl Iterator<Item = SlotId> + 'a {
        std::iter::successors(self.head, |&id| slab.slot(id).next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let mut slab = Slab::with_capacity(4);
        let mut list = ListHandle::default();
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
        let mut list = ListHandle::default();
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
        list.move_to_tail(&mut slab, ids[0]);
        let moved: Vec<i32> = list.iter(&slab).map(|id| *slab.get(id)).collect();
        assert_eq!(moved, vec![2, 1, 0]);
    }

    #[test]
    fn detach_head_and_tail_update_ends() {
        let mut slab = Slab::with_capacity(2);
        let mut list = ListHandle::default();
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
    fn entries_move_between_lists() {
        let mut slab = Slab::with_capacity(2);
        let mut q0 = ListHandle::default();
        let mut q1 = ListHandle::default();
        let id = slab.insert(7);
        q0.push_tail(&mut slab, id);
        q0.detach(&mut slab, id);
        q1.push_tail(&mut slab, id);
        assert!(q0.is_empty());
        assert_eq!(q1.len(), 1);
        assert_eq!(q1.head(), Some(id));
    }
}
