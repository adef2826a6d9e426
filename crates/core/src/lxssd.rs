//! The LX-SSD prior-work baseline (Zhou et al., MSST 2017).
//!
//! The paper compares against LX-SSD and attributes its weaker results
//! to two design choices (§I, §VI-B):
//!
//! 1. recycling probability is driven by *read and write* value
//!    popularity, although read-popular values are not necessarily
//!    rewritten ("a value which is frequently read is not necessarily
//!    written frequently"), and
//! 2. "their buffer replacement policy considers the recency of
//!    garbage pages **associated with each page address**, hindering
//!    the efficacy and scalability of their work" — tracking is
//!    per-garbage-page (per LBA), not per value, so one buffer entry
//!    covers a single dead page rather than every dead copy of a
//!    value.
//!
//! This reimplementation has exactly those properties: every dead page
//! is its own LRU entry keyed by the address that produced it, any
//! host access (read *or* write) to that address refreshes the entry,
//! and at equal entry budgets it therefore covers far fewer distinct
//! values than the paper's MQ pool — the scalability gap the paper
//! demonstrates on mail.

use zssd_types::{
    FxHashMap, ListHandle, Lpn, PopularityDegree, Ppn, Slab, SlotId, ValueId, WriteClock,
};

use crate::pool::PoolStats;
use crate::slots::PpnSlots;

/// One tracked garbage page.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: ValueId,
    ppn: Ppn,
    lpn: Lpn,
    /// Combined read+write access count (the conflation the paper
    /// critiques).
    pop: PopularityDegree,
}

/// An LBA-recency LRU recycler modeling LX-SSD: one entry per garbage
/// page, replacement by the recency of the page's logical address.
///
/// # Examples
///
/// ```
/// use zssd_core::{DeadValuePool, LxSsdPool};
/// use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};
///
/// let mut pool = DeadValuePool::LxSsd(LxSsdPool::new(10, 64));
/// let value = ValueId::new(1);
/// pool.insert_dead(value, Ppn::new(1), Lpn::new(7), PopularityDegree::ZERO, WriteClock::ZERO);
/// // A *read* of LBA 7 refreshes the entry — the behaviour the paper
/// // identifies as a mistake.
/// pool.note_lpn_access(Lpn::new(7));
/// assert_eq!(pool.take_match(value, WriteClock::from_count(2)), Some(Ppn::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct LxSsdPool {
    /// Maximum number of tracked garbage pages (one entry each).
    capacity: usize,
    slab: Slab<Entry>,
    lru: ListHandle,
    /// All garbage pages currently holding each value.
    by_value: FxHashMap<ValueId, Vec<SlotId>>,
    by_ppn: PpnSlots,
    /// Entries whose recency is refreshed by accesses to an address.
    by_lpn: FxHashMap<Lpn, Vec<SlotId>>,
    stats: PoolStats,
}

impl LxSsdPool {
    /// Creates an empty pool of `capacity` entries for a device whose
    /// flash blocks hold `pages_per_block` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `pages_per_block` is zero.
    pub fn new(capacity: usize, pages_per_block: u32) -> Self {
        assert!(capacity > 0, "LX-SSD pool capacity must be nonzero");
        LxSsdPool {
            capacity,
            slab: Slab::with_capacity(capacity.min(1 << 20)),
            lru: ListHandle::default(),
            by_value: FxHashMap::default(),
            by_ppn: PpnSlots::new(pages_per_block),
            by_lpn: FxHashMap::default(),
            stats: PoolStats::default(),
        }
    }

    fn evict_one(&mut self) {
        if let Some(id) = self.lru.head() {
            self.remove_entry(id);
            self.stats.evictions += 1;
        }
    }

    /// Unlinks an entry and removes it from every index.
    fn remove_entry(&mut self, id: SlotId) -> Entry {
        self.lru.detach(&mut self.slab, id);
        let entry = self.slab.remove(id);
        if let Some(ids) = self.by_value.get_mut(&entry.value) {
            ids.retain(|&e| e != id);
            if ids.is_empty() {
                self.by_value.remove(&entry.value);
            }
        }
        self.by_ppn.remove(entry.ppn, entry.pop);
        if let Some(ids) = self.by_lpn.get_mut(&entry.lpn) {
            ids.retain(|&e| e != id);
            if ids.is_empty() {
                self.by_lpn.remove(&entry.lpn);
            }
        }
        entry
    }

    pub(crate) fn take_match(&mut self, value: ValueId, _now: WriteClock) -> Option<Ppn> {
        let Some(ids) = self.by_value.get(&value) else {
            self.stats.misses += 1;
            return None;
        };
        let id = *ids.last().expect("value index entries are non-empty");
        let entry = self.remove_entry(id);
        self.stats.hits += 1;
        Some(entry.ppn)
    }

    pub(crate) fn insert_dead(
        &mut self,
        value: ValueId,
        ppn: Ppn,
        lpn: Lpn,
        pop: PopularityDegree,
        _now: WriteClock,
    ) {
        if self.by_ppn.get(ppn).is_some() {
            return;
        }
        self.stats.insertions += 1;
        let id = self.slab.insert(Entry {
            value,
            ppn,
            lpn,
            pop,
        });
        self.lru.push_tail(&mut self.slab, id);
        self.by_value.entry(value).or_default().push(id);
        self.by_ppn.insert(ppn, id, pop);
        self.by_lpn.entry(lpn).or_default().push(id);
        if self.slab.len() > self.capacity {
            self.evict_one();
        }
    }

    pub(crate) fn remove_ppn(&mut self, ppn: Ppn) {
        let Some(id) = self.by_ppn.get(ppn) else {
            return;
        };
        self.remove_entry(id);
        self.stats.gc_removals += 1;
    }

    pub(crate) fn garbage_weight(&self, ppn: Ppn) -> Option<PopularityDegree> {
        self.by_ppn.get(ppn).map(|id| self.slab.get(id).pop)
    }

    pub(crate) fn block_weight(&self, block: u64) -> u32 {
        self.by_ppn.block_weight(block)
    }

    /// Any host access — including reads — to an LBA with tracked
    /// garbage refreshes those entries' recency and bumps their
    /// (read+write) popularity. This is LX-SSD's behaviour, not the
    /// DVP's.
    pub(crate) fn note_lpn_access(&mut self, lpn: Lpn) {
        let Some(ids) = self.by_lpn.get(&lpn) else {
            return;
        };
        for &id in ids {
            let entry = self.slab.get_mut(id);
            let from = entry.pop;
            entry.pop.increment();
            self.by_ppn.reweigh(entry.ppn, from, entry.pop);
            self.lru.move_to_tail(&mut self.slab, id);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    pub(crate) fn tracked_ppns(&self) -> usize {
        self.by_ppn.len()
    }

    pub(crate) fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize) -> LxSsdPool {
        LxSsdPool::new(capacity, 4)
    }

    fn insert(pool: &mut LxSsdPool, v: u64, ppn: u64, lpn: u64, now: u64) {
        pool.insert_dead(
            ValueId::new(v),
            Ppn::new(ppn),
            Lpn::new(lpn),
            PopularityDegree::ZERO,
            WriteClock::from_count(now),
        );
    }

    #[test]
    fn reads_refresh_recency_the_paper_critique() {
        let mut p = pool(2);
        insert(&mut p, 1, 1, 10, 1);
        insert(&mut p, 2, 2, 20, 2);
        // A read of LBA 10 keeps value 1's page hot even though its
        // value is never rewritten...
        p.note_lpn_access(Lpn::new(10));
        insert(&mut p, 3, 3, 30, 4); // evicts value 2, not value 1
        assert!(p
            .take_match(ValueId::new(1), WriteClock::from_count(5))
            .is_some());
        assert_eq!(
            p.take_match(ValueId::new(2), WriteClock::from_count(6)),
            None
        );
    }

    #[test]
    fn one_entry_per_garbage_page_not_per_value() {
        // The scalability flaw: three dead copies of one value consume
        // three entries (the MQ pool would use one).
        let mut p = pool(3);
        insert(&mut p, 1, 1, 10, 1);
        insert(&mut p, 1, 2, 11, 2);
        insert(&mut p, 1, 3, 12, 3);
        assert_eq!(p.len(), 3);
        insert(&mut p, 2, 4, 20, 4); // overflows: evicts page 1
        assert_eq!(p.len(), 3);
        assert_eq!(p.stats().evictions, 1);
        assert_eq!(p.garbage_weight(Ppn::new(1)), None);
        assert!(p.garbage_weight(Ppn::new(2)).is_some());
    }

    #[test]
    fn lpn_access_bumps_combined_popularity() {
        let mut p = pool(4);
        insert(&mut p, 1, 1, 10, 1);
        assert_eq!(p.garbage_weight(Ppn::new(1)), Some(PopularityDegree::ZERO));
        p.note_lpn_access(Lpn::new(10));
        assert_eq!(
            p.garbage_weight(Ppn::new(1)),
            Some(PopularityDegree::new(1))
        );
    }

    #[test]
    fn unrelated_lpn_access_is_ignored() {
        let mut p = pool(4);
        insert(&mut p, 1, 1, 10, 1);
        p.note_lpn_access(Lpn::new(99));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn content_hits_consume_most_recent_copy() {
        let mut p = pool(4);
        insert(&mut p, 1, 1, 10, 1);
        insert(&mut p, 1, 2, 11, 2);
        assert_eq!(p.tracked_ppns(), 2);
        assert_eq!(
            p.take_match(ValueId::new(1), WriteClock::from_count(3)),
            Some(Ppn::new(2))
        );
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.take_match(ValueId::new(1), WriteClock::from_count(4)),
            Some(Ppn::new(1))
        );
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn eviction_and_gc_keep_indexes_consistent() {
        let mut p = pool(2);
        for v in 1..=5u64 {
            insert(&mut p, v, v, v * 10, v);
        }
        assert_eq!(p.len(), 2);
        assert_eq!(p.stats().evictions, 3);
        p.remove_ppn(Ppn::new(5));
        assert_eq!(p.len(), 1);
        p.remove_ppn(Ppn::new(5)); // idempotent
        assert_eq!(p.stats().gc_removals, 1);
        // The evicted entries' LBAs no longer resolve.
        p.note_lpn_access(Lpn::new(10));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn several_entries_can_share_an_lpn() {
        // Two different dead pages produced by updates of the same
        // address: a later access refreshes both.
        let mut p = pool(4);
        insert(&mut p, 1, 1, 10, 1);
        insert(&mut p, 2, 2, 10, 2);
        insert(&mut p, 3, 3, 30, 3);
        p.note_lpn_access(Lpn::new(10));
        insert(&mut p, 4, 4, 40, 5);
        insert(&mut p, 5, 5, 50, 6); // evicts value 3 (LRU), not 1 or 2
        assert_eq!(
            p.take_match(ValueId::new(3), WriteClock::from_count(7)),
            None
        );
        assert!(p
            .take_match(ValueId::new(1), WriteClock::from_count(8))
            .is_some());
        assert!(p
            .take_match(ValueId::new(2), WriteClock::from_count(9))
            .is_some());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }
}
