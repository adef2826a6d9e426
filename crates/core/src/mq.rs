//! The Multi-Queue dead-value pool (§III-B, §IV of the paper).

use zssd_types::{
    FxHashMap, ListHandle, Lpn, PopularityDegree, Ppn, Slab, SlotId, ValueId, WriteClock,
};

use crate::pool::PoolStats;
use crate::slots::PpnSlots;

/// Configuration of the [`MqDeadValuePool`].
///
/// The paper's evaluated point is **8 queues, 200 K entries** (~5 MB of
/// controller RAM); Fig 9 sweeps 100 K–300 K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MqConfig {
    /// Number of LRU queues (popularity bands).
    pub num_queues: usize,
    /// Maximum number of entries (distinct values).
    pub capacity: usize,
    /// Expiration interval (in writes) used until the pool has observed
    /// a re-access interval of its hottest entry (§IV-C: `ExpTime =
    /// CurrentTime + HottestInterval`).
    pub initial_hottest_interval: u64,
}

impl MqConfig {
    /// The paper's configuration: 8 queues, 200 K entries.
    pub fn paper_default() -> Self {
        MqConfig {
            num_queues: 8,
            capacity: 200_000,
            initial_hottest_interval: 25_000,
        }
    }

    /// The §III-A LRU strawman: a single queue, so recency alone
    /// decides eviction and popularity never promotes an entry.
    pub fn lru(capacity: usize) -> Self {
        MqConfig {
            num_queues: 1,
            capacity,
            ..MqConfig::paper_default()
        }
    }

    /// The §V *Ideal* pool: a single queue with no capacity limit, so
    /// every dead page stays tracked until it is reused or erased.
    pub fn ideal() -> Self {
        MqConfig::lru(usize::MAX)
    }

    /// Same policy with a different entry capacity (the Fig 9 sweep).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self.initial_hottest_interval = (capacity as u64 / 8).max(1024);
        self
    }

    /// Same policy with a different queue count (queue-count ablation).
    pub fn with_queues(mut self, num_queues: usize) -> Self {
        self.num_queues = num_queues;
        self
    }
}

impl Default for MqConfig {
    fn default() -> Self {
        MqConfig::paper_default()
    }
}

#[derive(Debug, Clone)]
struct Entry {
    value: ValueId,
    /// Garbage pages currently holding this value, most recent death
    /// last. A hit surrenders the most recently dead copy.
    ppns: Vec<Ppn>,
    pop: PopularityDegree,
    expire: WriteClock,
    last_access: WriteClock,
    queue: u8,
}

/// The paper's dead-value pool: one LRU queue per popularity band.
///
/// * Frequency is handled by queue placement: an entry whose
///   popularity degree `d` satisfies `log2(d+1) >` its queue index is
///   promoted one queue up on access (§IV-C).
/// * Recency is handled inside each queue by LRU order.
/// * Aging is handled by expiration: on every death insertion, the head
///   of each queue is demoted one queue down if its expiration time
///   (`now + hottest_interval` at last access) has passed.
/// * Capacity overflow evicts the LRU head of the lowest non-empty
///   queue, on demand (§IV-C "Eviction").
///
/// # Examples
///
/// ```
/// use zssd_core::{MqConfig, MqDeadValuePool};
/// use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};
///
/// let mut pool = MqDeadValuePool::new(MqConfig::default().with_capacity(1000), 64);
/// let value = ValueId::new(1);
/// pool.insert_dead(value, Ppn::new(10), Lpn::new(0), PopularityDegree::new(5),
///                  WriteClock::from_count(1));
/// assert_eq!(pool.len(), 1);
/// assert_eq!(pool.take_match(value, WriteClock::from_count(2)), Some(Ppn::new(10)));
/// assert!(pool.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MqDeadValuePool {
    cfg: MqConfig,
    slab: Slab<Entry>,
    queues: Vec<ListHandle>,
    by_value: FxHashMap<ValueId, SlotId>,
    by_ppn: PpnSlots,
    hottest_pop: PopularityDegree,
    hottest_interval: u64,
    stats: PoolStats,
}

impl MqDeadValuePool {
    /// Creates an empty pool for a device whose flash blocks hold
    /// `pages_per_block` pages (the unit of
    /// [`block_weight`](MqDeadValuePool::block_weight)).
    ///
    /// # Panics
    ///
    /// Panics if `num_queues`, `capacity` or `pages_per_block` is zero.
    pub fn new(cfg: MqConfig, pages_per_block: u32) -> Self {
        assert!(cfg.num_queues > 0, "MQ needs at least one queue");
        assert!(cfg.capacity > 0, "MQ capacity must be nonzero");
        MqDeadValuePool {
            cfg,
            slab: Slab::with_capacity(cfg.capacity.min(1 << 20)),
            queues: vec![ListHandle::default(); cfg.num_queues],
            by_value: FxHashMap::default(),
            by_ppn: PpnSlots::new(pages_per_block),
            hottest_pop: PopularityDegree::ZERO,
            hottest_interval: cfg.initial_hottest_interval,
            stats: PoolStats::default(),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &MqConfig {
        &self.cfg
    }

    /// Entry count per queue, lowest queue first (diagnostics/tests).
    pub fn queue_lens(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.len()).collect()
    }

    /// Queue index currently holding the entry for `value`, if present.
    pub fn queue_of(&self, value: ValueId) -> Option<usize> {
        self.by_value
            .get(&value)
            .map(|&id| usize::from(self.slab.get(id).queue))
    }

    /// Current expiration interval derived from the hottest entry.
    pub fn hottest_interval(&self) -> u64 {
        self.hottest_interval
    }

    /// Re-sizes the pool at runtime — the paper's stated future work
    /// ("dynamically tuning the total capacity for MQ, in order to
    /// adapt itself to any changes in the workload", §V footnote).
    /// Shrinking evicts LRU entries from the lowest queues immediately;
    /// growing takes effect on subsequent insertions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "MQ capacity must be nonzero");
        self.cfg.capacity = capacity;
        while self.slab.len() > capacity {
            self.evict_one();
        }
    }

    /// Refreshes hottest-entry tracking when `id` is accessed at `now`
    /// (before `last_access` is overwritten).
    fn observe_access(&mut self, id: SlotId, now: WriteClock) {
        let entry = self.slab.get(id);
        if entry.pop >= self.hottest_pop {
            self.hottest_pop = entry.pop;
            let interval = now.saturating_since(entry.last_access);
            if interval > 0 {
                self.hottest_interval = interval;
            }
        }
    }

    /// Moves an entry to the MRU tail of its queue, promoting one
    /// queue up if its popularity band exceeds the current queue.
    fn refresh_and_promote(&mut self, id: SlotId, now: WriteClock) {
        let (cur, target) = {
            let entry = self.slab.get(id);
            let band = entry.pop.queue_index().min(self.cfg.num_queues - 1);
            (usize::from(entry.queue), band)
        };
        let dest = if target > cur {
            self.stats.promotions += 1;
            cur + 1
        } else {
            cur
        };
        self.queues[cur].detach(&mut self.slab, id);
        self.queues[dest].push_tail(&mut self.slab, id);
        let expire = now.plus(self.hottest_interval);
        let entry = self.slab.get_mut(id);
        entry.queue = dest as u8;
        entry.last_access = now;
        entry.expire = expire;
    }

    /// §IV-C "Promotion and Demotion": on each update, the head (LRU)
    /// entry of every queue above Q0 whose expiration has passed is
    /// demoted one queue down.
    fn demote_expired(&mut self, now: WriteClock) {
        for q in 1..self.cfg.num_queues {
            let Some(head) = self.queues[q].head() else {
                continue;
            };
            // §IV-C: demote when the "expiration time has passed" —
            // inclusive, so a lifetime elapsing exactly at `now` counts.
            if self.slab.get(head).expire <= now {
                self.queues[q].detach(&mut self.slab, head);
                self.queues[q - 1].push_tail(&mut self.slab, head);
                let expire = now.plus(self.hottest_interval);
                let entry = self.slab.get_mut(head);
                entry.queue = (q - 1) as u8;
                entry.expire = expire;
                self.stats.demotions += 1;
            }
        }
    }

    /// Evicts the LRU head of the lowest non-empty queue.
    fn evict_one(&mut self) {
        if let Some(id) = self.queues.iter().find_map(ListHandle::head) {
            let entry = self.unlink_entry(id);
            for ppn in entry.ppns {
                self.by_ppn.remove(ppn, entry.pop);
            }
            self.stats.evictions += 1;
        }
    }

    /// Moves every page entry `id` tracks from popularity degree `from`
    /// to `to` in the per-block sums.
    fn reweigh_entry(&mut self, id: SlotId, from: PopularityDegree, to: PopularityDegree) {
        if from != to {
            for &ppn in &self.slab.get(id).ppns {
                self.by_ppn.reweigh(ppn, from, to);
            }
        }
    }

    fn unlink_entry(&mut self, id: SlotId) -> Entry {
        let queue = usize::from(self.slab.get(id).queue);
        self.queues[queue].detach(&mut self.slab, id);
        let entry = self.slab.remove(id);
        self.by_value.remove(&entry.value);
        entry
    }

    #[cfg(test)]
    fn debug_validate(&self) {
        let in_queues: usize = self.queues.iter().map(|q| q.len()).sum();
        assert_eq!(in_queues, self.slab.len());
        assert_eq!(self.by_value.len(), self.slab.len());
        let ppns: usize = self
            .by_value
            .values()
            .map(|&id| self.slab.get(id).ppns.len())
            .sum();
        assert_eq!(ppns, self.by_ppn.len());
    }

    /// Looks up a write's value; a hit removes and returns a dead copy.
    pub fn take_match(&mut self, value: ValueId, now: WriteClock) -> Option<Ppn> {
        let Some(&id) = self.by_value.get(&value) else {
            self.stats.misses += 1;
            return None;
        };
        self.observe_access(id, now);
        let (ppn, from, to, emptied) = {
            let entry = self.slab.get_mut(id);
            let from = entry.pop;
            entry.pop.increment();
            let ppn = entry.ppns.pop().expect("entries always track >= 1 ppn");
            (ppn, from, entry.pop, entry.ppns.is_empty())
        };
        // The surrendered page leaves at the degree it was tracked
        // with; the pages left behind rise with the entry.
        self.by_ppn.remove(ppn, from);
        self.reweigh_entry(id, from, to);
        if emptied {
            // §IV-C Writes: "If the dead-value pool entry containing
            // H(D) has only one PPN, this entry is removed since it
            // does not contain the information of a garbage page
            // anymore."
            self.unlink_entry(id);
        } else {
            self.refresh_and_promote(id, now);
        }
        self.stats.hits += 1;
        Some(ppn)
    }

    /// Offers a freshly dead page to the pool.
    pub fn insert_dead(
        &mut self,
        value: ValueId,
        ppn: Ppn,
        _lpn: Lpn,
        pop: PopularityDegree,
        now: WriteClock,
    ) {
        if self.by_ppn.get(ppn).is_some() {
            return; // already tracked (defensive; FTL never re-offers)
        }
        self.stats.insertions += 1;
        if let Some(&id) = self.by_value.get(&value) {
            self.observe_access(id, now);
            let from = self.slab.get(id).pop;
            let to = from.max(pop);
            self.reweigh_entry(id, from, to);
            let entry = self.slab.get_mut(id);
            entry.pop = to;
            entry.ppns.push(ppn);
            self.by_ppn.insert(ppn, id, to);
            self.refresh_and_promote(id, now);
        } else {
            let entry = Entry {
                value,
                ppns: vec![ppn],
                pop,
                expire: now.plus(self.hottest_interval),
                last_access: now,
                queue: 0,
            };
            let id = self.slab.insert(entry);
            self.queues[0].push_tail(&mut self.slab, id);
            self.by_value.insert(value, id);
            self.by_ppn.insert(ppn, id, pop);
            if self.slab.len() > self.cfg.capacity {
                self.evict_one();
            }
        }
        self.demote_expired(now);
    }

    /// Drops a page GC erased; untracked pages are ignored.
    pub fn remove_ppn(&mut self, ppn: Ppn) {
        let Some(id) = self.by_ppn.get(ppn) else {
            return;
        };
        self.by_ppn.remove(ppn, self.slab.get(id).pop);
        self.stats.gc_removals += 1;
        let emptied = {
            let entry = self.slab.get_mut(id);
            let pos = entry
                .ppns
                .iter()
                .position(|&p| p == ppn)
                .expect("ppn index consistent with entry");
            entry.ppns.swap_remove(pos);
            entry.ppns.is_empty()
        };
        if emptied {
            self.unlink_entry(id);
        }
    }

    /// Popularity degree of a tracked garbage page, `None` if untracked.
    pub fn garbage_weight(&self, ppn: Ppn) -> Option<PopularityDegree> {
        self.by_ppn.get(ppn).map(|id| self.slab.get(id).pop)
    }

    /// Sum of [`garbage_weight`](MqDeadValuePool::garbage_weight) over
    /// the pages of flash block `block`, kept as the pool changes.
    pub fn block_weight(&self, block: u64) -> u32 {
        self.by_ppn.block_weight(block)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the pool holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of garbage pages tracked.
    pub fn tracked_ppns(&self) -> usize {
        self.by_ppn.len()
    }

    /// Entry capacity, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        (self.cfg.capacity != usize::MAX).then_some(self.cfg.capacity)
    }

    /// Usage counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize) -> MqDeadValuePool {
        MqDeadValuePool::new(MqConfig::default().with_capacity(capacity), 4)
    }

    fn insert(pool: &mut MqDeadValuePool, v: u64, ppn: u64, pop: u8, now: u64) {
        pool.insert_dead(
            ValueId::new(v),
            Ppn::new(ppn),
            Lpn::new(ppn),
            PopularityDegree::new(pop),
            WriteClock::from_count(now),
        );
    }

    #[test]
    fn hit_consumes_most_recent_death_first() {
        for cfg in [
            MqConfig::default().with_capacity(16),
            MqConfig::lru(16),
            MqConfig::ideal(),
        ] {
            let mut p = MqDeadValuePool::new(cfg, 4);
            insert(&mut p, 1, 100, 0, 1);
            insert(&mut p, 1, 200, 0, 2);
            assert_eq!(p.len(), 1);
            assert_eq!(p.tracked_ppns(), 2);
            assert_eq!(
                p.take_match(ValueId::new(1), WriteClock::from_count(3)),
                Some(Ppn::new(200))
            );
            assert_eq!(p.len(), 1, "a hit on a multi-PPN entry keeps it");
            assert_eq!(
                p.take_match(ValueId::new(1), WriteClock::from_count(4)),
                Some(Ppn::new(100))
            );
            assert_eq!(
                p.take_match(ValueId::new(1), WriteClock::from_count(5)),
                None
            );
            assert!(p.is_empty());
            p.debug_validate();
        }
    }

    #[test]
    fn miss_counts_and_returns_none() {
        let mut p = pool(4);
        assert_eq!(p.take_match(ValueId::new(9), WriteClock::ZERO), None);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn new_entries_start_in_q0() {
        let mut p = pool(16);
        insert(&mut p, 1, 1, 200, 1); // very popular value still enters Q0
        assert_eq!(p.queue_of(ValueId::new(1)), Some(0));
    }

    #[test]
    fn accesses_promote_through_queues() {
        let mut p = pool(64);
        insert(&mut p, 1, 1, 0, 1);
        // Each (death + hit) pair raises popularity; entry climbs.
        let mut now = 2;
        let mut last_queue = 0;
        for round in 0..20u64 {
            insert(&mut p, 1, 100 + round, 0, now);
            now += 1;
            let q = p.queue_of(ValueId::new(1)).expect("entry present");
            assert!(q >= last_queue, "no spontaneous drops while hot");
            last_queue = q;
            let _ = p.take_match(ValueId::new(1), WriteClock::from_count(now));
            now += 1;
        }
        assert!(last_queue >= 2, "popular entry must climb queues");
        assert!(p.stats().promotions > 0);
        p.debug_validate();
    }

    #[test]
    fn promotion_is_one_queue_per_access() {
        let mut p = pool(64);
        insert(&mut p, 1, 1, 255, 1); // band 8, but starts at Q0
        assert_eq!(p.queue_of(ValueId::new(1)), Some(0));
        insert(&mut p, 1, 2, 255, 2);
        assert_eq!(p.queue_of(ValueId::new(1)), Some(1), "one step per access");
    }

    #[test]
    fn overflow_evicts_lru_of_lowest_queue() {
        let mut p = pool(3);
        for v in 1..=3u64 {
            insert(&mut p, v, v, 0, v);
        }
        insert(&mut p, 4, 4, 0, 4); // overflows: evicts value 1
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.take_match(ValueId::new(1), WriteClock::from_count(5)),
            None
        );
        assert!(p
            .take_match(ValueId::new(2), WriteClock::from_count(6))
            .is_some());
        assert_eq!(p.stats().evictions, 1);
        p.debug_validate();
    }

    #[test]
    fn eviction_prefers_low_queue_over_popular_high_queue() {
        let mut p = pool(2);
        // Value 1 becomes popular and climbs out of Q0.
        insert(&mut p, 1, 1, 3, 1);
        insert(&mut p, 1, 2, 3, 2);
        assert!(p.queue_of(ValueId::new(1)).expect("present") >= 1);
        // Fill with cold values; each overflow must evict cold Q0
        // entries, never the popular one.
        insert(&mut p, 2, 10, 0, 3);
        insert(&mut p, 3, 11, 0, 4); // evicts value 2 (Q0 LRU)
        assert!(p.queue_of(ValueId::new(1)).is_some(), "popular survivor");
        assert_eq!(
            p.take_match(ValueId::new(2), WriteClock::from_count(5)),
            None
        );
        p.debug_validate();
    }

    #[test]
    fn expired_heads_demote_toward_q0() {
        let mut p = MqDeadValuePool::new(
            MqConfig {
                num_queues: 4,
                capacity: 16,
                initial_hottest_interval: 5,
            },
            4,
        );
        // Promote value 1 to Q1. The re-access one write later sets the
        // hottest interval to 1, so expire = 2 + 1 = 3.
        insert(&mut p, 1, 1, 2, 1);
        insert(&mut p, 1, 2, 2, 2);
        assert_eq!(p.queue_of(ValueId::new(1)), Some(1));
        // Let it expire: the next insertion comes well after 3.
        insert(&mut p, 2, 10, 0, 20);
        assert_eq!(p.queue_of(ValueId::new(1)), Some(0), "expired head demoted");
        assert!(p.stats().demotions >= 1);
    }

    #[test]
    fn expiry_boundary_is_inclusive() {
        // Regression: `demote_expired` used `expire < now`, so an entry
        // whose lifetime elapsed exactly at `now` was never demoted.
        // §IV-C demotes once the expiration "has passed" — inclusive.
        let mut p = MqDeadValuePool::new(
            MqConfig {
                num_queues: 4,
                capacity: 16,
                initial_hottest_interval: 5,
            },
            4,
        );
        // Promote value 1 to Q1 at now=2. The re-access one write after
        // its death sets the hottest interval to 1 (not the initial 5),
        // so expire = 2 + 1 = 3.
        insert(&mut p, 1, 1, 2, 1);
        insert(&mut p, 1, 2, 2, 2);
        assert_eq!(p.queue_of(ValueId::new(1)), Some(1));
        assert_eq!(p.hottest_interval(), 1);
        // Insertion at exactly now == expire must demote the Q1 head;
        // under `expire < now` it would stay in Q1.
        insert(&mut p, 2, 10, 0, 3);
        assert_eq!(
            p.queue_of(ValueId::new(1)),
            Some(0),
            "boundary demotion at expire == now"
        );
        assert_eq!(p.stats().demotions, 1);
    }

    #[test]
    fn hottest_interval_tracks_reaccess_gap() {
        let mut p = pool(16);
        insert(&mut p, 1, 1, 10, 100);
        insert(&mut p, 1, 2, 10, 140); // hottest entry re-accessed after 40
        assert_eq!(p.hottest_interval(), 40);
    }

    #[test]
    fn gc_removal_drops_ppn_and_possibly_entry() {
        let mut p = pool(16);
        insert(&mut p, 1, 1, 0, 1);
        insert(&mut p, 1, 2, 0, 2);
        p.remove_ppn(Ppn::new(1));
        assert_eq!(p.len(), 1);
        assert_eq!(p.tracked_ppns(), 1);
        p.remove_ppn(Ppn::new(2));
        assert!(p.is_empty());
        p.remove_ppn(Ppn::new(2)); // idempotent
        assert_eq!(p.stats().gc_removals, 2);
        p.debug_validate();
    }

    #[test]
    fn garbage_weight_reflects_entry_popularity() {
        let mut p = pool(16);
        insert(&mut p, 1, 1, 7, 1);
        assert_eq!(
            p.garbage_weight(Ppn::new(1)),
            Some(PopularityDegree::new(7))
        );
        assert_eq!(p.garbage_weight(Ppn::new(2)), None);
    }

    #[test]
    fn duplicate_ppn_offer_is_ignored() {
        let mut p = pool(16);
        insert(&mut p, 1, 1, 0, 1);
        insert(&mut p, 1, 1, 0, 2);
        assert_eq!(p.tracked_ppns(), 1);
        assert_eq!(p.stats().insertions, 1);
    }

    #[test]
    fn popularity_merges_to_max_on_reinsert() {
        let mut p = pool(16);
        insert(&mut p, 1, 1, 9, 1);
        insert(&mut p, 1, 2, 3, 2);
        assert_eq!(
            p.garbage_weight(Ppn::new(2)),
            Some(PopularityDegree::new(9))
        );
    }

    #[test]
    fn queue_lens_sum_to_len() {
        let mut p = pool(32);
        for v in 0..10u64 {
            insert(&mut p, v, v, (v % 5) as u8, v + 1);
        }
        let lens = p.queue_lens();
        assert_eq!(lens.iter().sum::<usize>(), p.len());
        assert_eq!(lens.len(), p.config().num_queues);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MqDeadValuePool::new(MqConfig::default().with_capacity(0), 4);
    }

    #[test]
    fn set_capacity_shrinks_and_grows() {
        let mut p = pool(8);
        for v in 1..=8u64 {
            insert(&mut p, v, v, 0, v);
        }
        assert_eq!(p.len(), 8);
        p.set_capacity(3);
        assert_eq!(p.len(), 3, "shrink evicts immediately");
        assert_eq!(p.capacity(), Some(3));
        // The survivors are the most recent insertions.
        assert!(p
            .take_match(ValueId::new(8), WriteClock::from_count(9))
            .is_some());
        assert_eq!(
            p.take_match(ValueId::new(1), WriteClock::from_count(10)),
            None
        );
        p.set_capacity(100);
        for v in 20..=40u64 {
            insert(&mut p, v, v, 0, v);
        }
        // 2 survivors (6, 7) plus the 21 fresh insertions.
        assert_eq!(p.len(), 23, "growth admits new entries");
        p.debug_validate();
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn set_capacity_rejects_zero() {
        pool(4).set_capacity(0);
    }

    #[test]
    fn one_queue_evicts_least_recently_used() {
        let mut p = MqDeadValuePool::new(MqConfig::lru(2), 4);
        insert(&mut p, 1, 1, 0, 1);
        insert(&mut p, 2, 2, 0, 2);
        // Touch value 1 so value 2 becomes LRU.
        insert(&mut p, 1, 10, 0, 3);
        insert(&mut p, 3, 3, 0, 4); // evicts value 2
        assert_eq!(
            p.take_match(ValueId::new(2), WriteClock::from_count(5)),
            None
        );
        assert!(p
            .take_match(ValueId::new(1), WriteClock::from_count(6))
            .is_some());
        assert_eq!(p.stats().evictions, 1);
        p.debug_validate();
    }

    #[test]
    fn one_queue_does_not_protect_popular_entries() {
        // The motivating flaw of the §III-A LRU strawman (Fig 6): a
        // popular value at the LRU head is evicted by a burst of cold
        // insertions, where the paper's eight queues keep it.
        let mut lru = MqDeadValuePool::new(MqConfig::lru(3), 4);
        let mut mq = pool(3);
        for p in [&mut lru, &mut mq] {
            insert(p, 1, 1, 200, 1);
            insert(p, 1, 2, 200, 2);
            for v in 2..=4u64 {
                insert(p, v, v + 10, 0, v + 1);
            }
        }
        assert_eq!(
            lru.take_match(ValueId::new(1), WriteClock::from_count(9)),
            None,
            "LRU evicted the popular value"
        );
        assert!(mq
            .take_match(ValueId::new(1), WriteClock::from_count(9))
            .is_some());
        assert_eq!(lru.stats().promotions, 0, "one queue never promotes");
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let mut p = MqDeadValuePool::new(MqConfig::ideal(), 4);
        assert_eq!(p.capacity(), None, "unbounded");
        for v in 0..10_000u64 {
            insert(&mut p, v, v, 0, v + 1);
        }
        assert_eq!(p.len(), 10_000);
        assert_eq!(p.stats().evictions, 0);
        assert!(p
            .take_match(ValueId::new(0), WriteClock::from_count(10_001))
            .is_some());
        p.debug_validate();
    }

    #[test]
    fn churn_keeps_indexes_consistent() {
        let mut p = pool(8);
        let mut now = 0u64;
        for round in 0..500u64 {
            now += 1;
            let v = round % 13;
            insert(&mut p, v, round + 1000, (v % 4) as u8, now);
            if round % 3 == 0 {
                now += 1;
                let _ = p.take_match(ValueId::new((round + 1) % 13), WriteClock::from_count(now));
            }
            if round % 7 == 0 {
                p.remove_ppn(Ppn::new(round + 1000));
            }
        }
        p.debug_validate();
        assert!(p.len() <= 8);
    }
}
