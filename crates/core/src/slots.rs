//! The PPN-indexed slot table the pools use to find the entry
//! tracking a garbage page.

use zssd_types::{Ppn, SlotId};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
