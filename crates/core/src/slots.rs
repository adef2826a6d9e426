//! The PPN-indexed slot table the pools use to find the entry
//! tracking a garbage page, and the per-block popularity sums the GC
//! victim selector reads.

use zssd_types::{PopularityDegree, Ppn, SlotId};

/// The slab slot tracking each garbage page, indexed by PPN. PPNs are
/// dense, so a lookup is one array read; the table grows on demand to
/// the highest PPN inserted, and [`SlotId::MAX`] marks an untracked page.
///
/// The table also keeps, per flash block, the sum of the popularity
/// degrees its tracked pages hold (`Σpop` of the §IV-D victim metric).
/// Every insertion and removal names the degree the page enters or
/// leaves with, and [`reweigh`](PpnSlots::reweigh) moves a tracked page
/// from one degree to another, so a block's sum always equals the sum
/// of its pages' current degrees.
#[derive(Debug, Clone)]
pub(crate) struct PpnSlots {
    slots: Vec<SlotId>,
    len: usize,
    /// `log2(pages_per_block)`.
    page_shift: u32,
    /// Σpop per block, indexed by `ppn >> page_shift`; grows on demand
    /// like `slots`.
    block_weights: Vec<u32>,
}

impl PpnSlots {
    const EMPTY: SlotId = SlotId::MAX;

    /// An empty table for a device whose blocks hold `pages_per_block`
    /// pages, PPN `b·pages_per_block` being the first page of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_block` is zero, not a power of two (as the
    /// flash geometry requires of every device), or so large that a
    /// block of maximally popular pages would overflow its `u32` sum.
    pub(crate) fn new(pages_per_block: u32) -> Self {
        assert!(pages_per_block > 0, "pages_per_block must be nonzero");
        assert!(
            pages_per_block.is_power_of_two(),
            "pages_per_block must be a power of two"
        );
        assert!(
            pages_per_block <= u32::MAX / u32::from(PopularityDegree::MAX.get()),
            "pages_per_block too large for a u32 popularity sum"
        );
        PpnSlots {
            slots: Vec::new(),
            len: 0,
            page_shift: pages_per_block.trailing_zeros(),
            block_weights: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn get(&self, ppn: Ppn) -> Option<SlotId> {
        let id = *self.slots.get(ppn.index() as usize)?;
        (id != Self::EMPTY).then_some(id)
    }

    /// Records that slot `id` tracks `ppn`, which must be untracked, at
    /// popularity degree `pop`.
    pub(crate) fn insert(&mut self, ppn: Ppn, id: SlotId, pop: PopularityDegree) {
        let index = ppn.index() as usize;
        if index >= self.slots.len() {
            self.slots.resize(index + 1, Self::EMPTY);
        }
        debug_assert_eq!(self.slots[index], Self::EMPTY, "{ppn} already tracked");
        self.slots[index] = id;
        self.len += 1;
        let block = self.block_of(ppn);
        if block >= self.block_weights.len() {
            self.block_weights.resize(block + 1, 0);
        }
        self.block_weights[block] += u32::from(pop.get());
    }

    /// Stops tracking `ppn`, which leaves at popularity degree `pop`,
    /// and returns the slot that tracked it; `None` (and no change) if
    /// it was untracked.
    pub(crate) fn remove(&mut self, ppn: Ppn, pop: PopularityDegree) -> Option<SlotId> {
        let id = std::mem::replace(self.slots.get_mut(ppn.index() as usize)?, Self::EMPTY);
        if id == Self::EMPTY {
            return None;
        }
        self.len -= 1;
        let block = self.block_of(ppn);
        self.block_weights[block] -= u32::from(pop.get());
        Some(id)
    }

    /// Moves tracked `ppn` from popularity degree `from` to `to`.
    #[inline]
    pub(crate) fn reweigh(&mut self, ppn: Ppn, from: PopularityDegree, to: PopularityDegree) {
        debug_assert!(self.get(ppn).is_some(), "{ppn} not tracked");
        let block = self.block_of(ppn);
        let weight = &mut self.block_weights[block];
        *weight = *weight - u32::from(from.get()) + u32::from(to.get());
    }

    /// The sum of the popularity degrees of block `block`'s tracked
    /// pages; 0 for a block with none.
    #[inline]
    pub(crate) fn block_weight(&self, block: u64) -> u32 {
        self.block_weights.get(block as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn block_of(&self, ppn: Ppn) -> usize {
        (ppn.index() >> self.page_shift) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POP: PopularityDegree = PopularityDegree::new(3);

    #[test]
    fn ppn_slots_grow_on_demand() {
        let mut table = PpnSlots::new(4);
        assert_eq!(table.len(), 0);
        assert_eq!(table.get(Ppn::new(0)), None, "out of range reads as empty");
        table.insert(Ppn::new(1000), 7, POP);
        assert_eq!(table.get(Ppn::new(1000)), Some(7));
        assert_eq!(table.get(Ppn::new(999)), None, "grown but empty");
        assert_eq!(table.get(Ppn::new(1001)), None, "beyond the growth");
        table.insert(Ppn::new(3), 0, POP);
        assert_eq!(table.get(Ppn::new(3)), Some(0), "slot 0 is a real slot");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn ppn_slots_remove_once() {
        let mut table = PpnSlots::new(4);
        assert_eq!(table.remove(Ppn::new(5), POP), None, "out of range");
        table.insert(Ppn::new(5), 2, POP);
        table.insert(Ppn::new(6), 3, POP);
        assert_eq!(table.remove(Ppn::new(4), POP), None, "in range but empty");
        assert_eq!(table.remove(Ppn::new(5), POP), Some(2));
        assert_eq!(table.remove(Ppn::new(5), POP), None);
        assert_eq!(table.get(Ppn::new(5)), None);
        assert_eq!(table.len(), 1);
        // A freed page can be tracked again, by another slot.
        table.insert(Ppn::new(5), 9, POP);
        assert_eq!(table.get(Ppn::new(5)), Some(9));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn block_weights_follow_inserts_removals_and_reweighs() {
        let pop = PopularityDegree::new;
        let mut table = PpnSlots::new(4);
        assert_eq!(table.block_weight(0), 0, "out of range reads as 0");
        table.insert(Ppn::new(4), 0, pop(10));
        table.insert(Ppn::new(7), 1, pop(255));
        table.insert(Ppn::new(8), 2, pop(1));
        assert_eq!([0, 1, 2, 3].map(|b| table.block_weight(b)), [0, 265, 1, 0]);
        table.reweigh(Ppn::new(4), pop(10), pop(11));
        assert_eq!(table.block_weight(1), 266);
        // An untracked page leaves the sums alone, whatever its degree.
        assert_eq!(table.remove(Ppn::new(5), pop(200)), None);
        assert_eq!(table.remove(Ppn::new(7), pop(255)), Some(1));
        assert_eq!(table.block_weight(1), 11);
        assert_eq!(table.block_weight(u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_pages_per_block_rejected() {
        let _ = PpnSlots::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_pages_per_block_rejected() {
        let _ = PpnSlots::new(96);
    }
}
