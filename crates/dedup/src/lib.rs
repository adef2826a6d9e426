//! CAFTL-style device-level deduplication (§VII of the paper).
//!
//! With deduplication, the FTL keeps a **many-to-one** mapping: several
//! logical pages may point at one physical page holding their shared
//! content. A physical page "turns into garbage only when all pointers
//! to that page are removed". Those pointers are the owner list of the
//! page's reverse-map record in the FTL, so the FTL alone decides when
//! a page dies; this crate holds no per-page reference counts.
//!
//! The [`DedupStore`] is the **fingerprint index** (`content → PPN`),
//! keyed by the content's [`ValueId`], the exact identity a real drive
//! approximates with a hash. It lives in scarce controller RAM and is
//! therefore *capacity-bounded* with LRU replacement, as in
//! CAFTL/CA-SSD. Its entries sit on one intrusive list
//! ([`zssd_types::ListHandle`], the LRU list the dead-value pools
//! use), so a hit, a registration and an eviction are each O(1).
//! Evicting an index entry does not affect the page or its owners —
//! it only means future duplicates of that
//! content can no longer be detected and will be programmed again
//! (possibly creating a second live physical copy, exactly as on a
//! real bounded-index deduplicating SSD).
//!
//! # Examples
//!
//! ```
//! use zssd_dedup::DedupStore;
//! use zssd_types::{Ppn, ValueId};
//!
//! let mut store = DedupStore::new(1024); // index up to 1024 values
//! let value = ValueId::new(1);
//!
//! // First write of a value programs a page and registers it.
//! store.register(value, Ppn::new(10));
//! // A second logical copy deduplicates against it.
//! assert_eq!(store.reference(value), Some(Ppn::new(10)));
//!
//! // When the FTL sees the page's last owner leave, the page is
//! // garbage and its index entry goes.
//! store.forget(value, Ppn::new(10));
//! assert_eq!(store.lookup(value), None);
//! assert_eq!(store.stats().deaths, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use zssd_types::{FxHashMap, ListHandle, Ppn, Slab, SlotId, ValueId};

/// Usage counters for the dedup index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupStats {
    /// `reference` calls that found a live copy (writes removed).
    pub dedup_hits: u64,
    /// `reference` calls that found nothing in the index.
    pub misses: u64,
    /// New unique values registered.
    pub registrations: u64,
    /// Pages whose last owner left (true deaths).
    pub deaths: u64,
    /// Index entries evicted for capacity.
    pub index_evictions: u64,
}

/// The content-addressed index of live values: a bounded,
/// LRU-replaced value → physical-page lookup.
#[derive(Debug, Clone)]
pub struct DedupStore {
    index: FxHashMap<ValueId, SlotId>,
    slab: Slab<(ValueId, Ppn)>,
    /// Least recently registered or referenced entry at the head.
    lru: ListHandle,
    capacity: usize,
    stats: DedupStats,
}

impl DedupStore {
    /// Creates a store whose index holds at most `entries` values
    /// (LRU-replaced).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "dedup index capacity must be nonzero");
        DedupStore {
            index: FxHashMap::default(),
            slab: Slab::with_capacity(entries.min(1 << 20)),
            lru: ListHandle::default(),
            capacity: entries,
            stats: DedupStats::default(),
        }
    }

    /// Looks up the live copy of a value without counting a hit or
    /// refreshing recency.
    pub fn lookup(&self, value: ValueId) -> Option<Ppn> {
        self.index.get(&value).map(|&id| self.slab.get(id).1)
    }

    /// Finds the live copy a new logical page of this value should
    /// share, if the index still knows one. Counts a dedup hit (an
    /// eliminated write) on success and refreshes the entry's recency;
    /// counts a miss otherwise.
    pub fn reference(&mut self, value: ValueId) -> Option<Ppn> {
        let Some(&id) = self.index.get(&value) else {
            self.stats.misses += 1;
            return None;
        };
        self.lru.move_to_tail(&mut self.slab, id);
        self.stats.dedup_hits += 1;
        Some(self.slab.get(id).1)
    }

    /// Makes a freshly programmed (or revived) copy of a value the
    /// index's target for that value, as its most recently used
    /// entry. A new value in a full index evicts the least
    /// recently used one.
    ///
    /// Registering a value that already has an indexed copy
    /// repoints the index at the new page (the old copy keeps its
    /// owners and dies when they leave). This is what happens on a
    /// real bounded-index device after an index miss on duplicated
    /// content.
    pub fn register(&mut self, value: ValueId, ppn: Ppn) {
        self.stats.registrations += 1;
        if let Some(&id) = self.index.get(&value) {
            self.slab.get_mut(id).1 = ppn;
            self.lru.move_to_tail(&mut self.slab, id);
            return;
        }
        if self.slab.len() == self.capacity {
            if let Some(victim) = self.lru.head() {
                self.lru.detach(&mut self.slab, victim);
                let (evicted, _) = self.slab.remove(victim);
                self.index.remove(&evicted);
                self.stats.index_evictions += 1;
            }
        }
        let id = self.slab.insert((value, ppn));
        self.lru.push_tail(&mut self.slab, id);
        self.index.insert(value, id);
    }

    /// Records the death of the page at `ppn` holding `value` (its last
    /// owner left): drops the index entry if it pointed there.
    pub fn forget(&mut self, value: ValueId, ppn: Ppn) {
        if let Some(&id) = self.index.get(&value) {
            if self.slab.get(id).1 == ppn {
                self.index.remove(&value);
                self.lru.detach(&mut self.slab, id);
                self.slab.remove(id);
            }
        }
        self.stats.deaths += 1;
    }

    /// Follows a live page holding `value` from `old` to `new` (GC or a
    /// scrub relocated it), updating the index if it pointed at `old`.
    pub fn relocate(&mut self, value: ValueId, old: Ppn, new: Ppn) {
        if let Some(&id) = self.index.get(&value) {
            let entry = self.slab.get_mut(id);
            if entry.1 == old {
                entry.1 = new;
            }
        }
    }

    /// Every indexed value with the physical page it names, from
    /// the least to the most recently used.
    pub fn entries(&self) -> impl Iterator<Item = (ValueId, Ppn)> + '_ {
        self.lru.iter(&self.slab).map(|id| *self.slab.get(id))
    }

    /// Number of values currently in the bounded index.
    pub fn indexed_len(&self) -> usize {
        self.slab.len()
    }

    /// Usage counters.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Zeroes the usage counters, keeping the index (used after
    /// preconditioning).
    pub fn reset_stats(&mut self) {
        self.stats = DedupStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn references_hit_until_the_page_is_forgotten() {
        let mut s = DedupStore::new(64);
        s.register(ValueId::new(1), Ppn::new(1));
        assert_eq!(s.reference(ValueId::new(1)), Some(Ppn::new(1)));
        assert_eq!(s.reference(ValueId::new(1)), Some(Ppn::new(1)));
        s.forget(ValueId::new(1), Ppn::new(1));
        assert_eq!(s.reference(ValueId::new(1)), None);
        assert_eq!(s.indexed_len(), 0);
        assert_eq!(s.stats().deaths, 1);
        assert_eq!(s.stats().dedup_hits, 2);
    }

    #[test]
    fn lookup_does_not_take_references() {
        let mut s = DedupStore::new(64);
        s.register(ValueId::new(1), Ppn::new(1));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(1)));
        assert_eq!(s.lookup(ValueId::new(2)), None);
        assert_eq!(s.stats().dedup_hits, 0, "lookups are not hits");
        assert_eq!(s.stats().misses, 0, "...nor misses");
    }

    #[test]
    fn relocate_moves_the_live_copy() {
        let mut s = DedupStore::new(64);
        s.register(ValueId::new(1), Ppn::new(1));
        s.reference(ValueId::new(1));
        s.relocate(ValueId::new(1), Ppn::new(1), Ppn::new(5));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(5)));
        // A stale source no longer matches the index entry.
        s.relocate(ValueId::new(1), Ppn::new(1), Ppn::new(6));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(5)));
    }

    #[test]
    fn a_value_can_be_reregistered_after_death() {
        let mut s = DedupStore::new(64);
        s.register(ValueId::new(1), Ppn::new(1));
        s.forget(ValueId::new(1), Ppn::new(1));
        assert_eq!(s.lookup(ValueId::new(1)), None);
        s.register(ValueId::new(1), Ppn::new(1));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(1)));
        assert_eq!(s.stats().registrations, 2);
    }

    #[test]
    fn bounded_index_evicts_lru_fingerprints() {
        let mut s = DedupStore::new(2);
        s.register(ValueId::new(1), Ppn::new(1));
        s.register(ValueId::new(2), Ppn::new(2));
        s.reference(ValueId::new(1)); // refresh 1; 2 becomes LRU
        s.register(ValueId::new(3), Ppn::new(3)); // evicts ValueId::new(2)
        assert_eq!(s.lookup(ValueId::new(2)), None, "index entry evicted");
        assert_eq!(s.indexed_len(), 2);
        assert_eq!(s.stats().index_evictions, 1);
        // Page 2 still dies normally, leaving the index alone.
        s.forget(ValueId::new(2), Ppn::new(2));
        assert_eq!(s.indexed_len(), 2);
        assert_eq!(s.stats().deaths, 1);
    }

    #[test]
    fn duplicate_content_can_be_registered_twice_after_eviction() {
        let mut s = DedupStore::new(1);
        s.register(ValueId::new(1), Ppn::new(1));
        s.register(ValueId::new(2), Ppn::new(2)); // evicts ValueId::new(1)

        // ValueId::new(1) content arrives again: index miss, a second physical
        // copy is programmed and registered.
        assert_eq!(s.reference(ValueId::new(1)), None);
        s.register(ValueId::new(1), Ppn::new(3));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(3)));
        // The death of the *indexed* copy clears its index entry...
        s.forget(ValueId::new(1), Ppn::new(3));
        assert_eq!(s.lookup(ValueId::new(1)), None);
        // ...while the death of a non-indexed copy leaves it alone.
        s.register(ValueId::new(1), Ppn::new(4));
        s.forget(ValueId::new(1), Ppn::new(1));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(4)));
    }

    #[test]
    fn reregistering_a_fingerprint_repoints_the_index() {
        let mut s = DedupStore::new(64);
        s.register(ValueId::new(1), Ppn::new(1));
        s.register(ValueId::new(1), Ppn::new(2));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(2)));
        assert_eq!(s.indexed_len(), 1, "one entry per value");
    }

    #[test]
    fn relocate_of_non_indexed_copy_keeps_index() {
        let mut s = DedupStore::new(64);
        s.register(ValueId::new(1), Ppn::new(1));
        s.register(ValueId::new(1), Ppn::new(2));
        s.relocate(ValueId::new(1), Ppn::new(1), Ppn::new(9));
        assert_eq!(s.lookup(ValueId::new(1)), Some(Ppn::new(2)));
    }

    #[test]
    fn stats_track_misses() {
        let mut s = DedupStore::new(64);
        assert_eq!(s.reference(ValueId::new(3)), None);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.indexed_len(), 0);
    }

    #[test]
    fn reset_stats_keeps_the_index() {
        let mut s = DedupStore::new(1);
        s.register(ValueId::new(1), Ppn::new(1));
        s.register(ValueId::new(2), Ppn::new(2));
        s.reset_stats();
        assert_eq!(s.stats(), DedupStats::default());
        assert_eq!(s.lookup(ValueId::new(2)), Some(Ppn::new(2)));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = DedupStore::new(0);
    }

    /// One call on the store: value ids are reduced into a
    /// domain sized to the capacity, PPNs are drawn from a few pages so
    /// `forget` and `relocate` often name the indexed copy.
    #[derive(Debug, Clone)]
    enum Op {
        Register(u8, u8),
        Reference(u8),
        Forget(u8, u8),
        Relocate(u8, u8, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), 0u8..4).prop_map(|(f, p)| Op::Register(f, p)),
            any::<u8>().prop_map(Op::Reference),
            (any::<u8>(), 0u8..4).prop_map(|(f, p)| Op::Forget(f, p)),
            (any::<u8>(), 0u8..4, 0u8..4).prop_map(|(f, a, b)| Op::Relocate(f, a, b)),
        ]
    }

    /// The reference index: entries ordered from least to most
    /// recently used, replaced from the front.
    #[derive(Default)]
    struct Model {
        lru: Vec<(ValueId, Ppn)>,
        stats: DedupStats,
    }

    impl Model {
        fn find(&self, value: ValueId) -> Option<usize> {
            self.lru.iter().position(|&(f, _)| f == value)
        }

        fn apply(&mut self, op: &Op, capacity: usize, domain: u8) -> Option<Ppn> {
            let value = |f: u8| ValueId::new(u64::from(f % domain));
            let ppn = |p: u8| Ppn::new(u64::from(p));
            match *op {
                Op::Register(f, p) => {
                    self.stats.registrations += 1;
                    if let Some(at) = self.find(value(f)) {
                        self.lru.remove(at);
                    } else if self.lru.len() == capacity {
                        self.lru.remove(0);
                        self.stats.index_evictions += 1;
                    }
                    self.lru.push((value(f), ppn(p)));
                    None
                }
                Op::Reference(f) => {
                    let Some(at) = self.find(value(f)) else {
                        self.stats.misses += 1;
                        return None;
                    };
                    self.stats.dedup_hits += 1;
                    let entry = self.lru.remove(at);
                    self.lru.push(entry);
                    Some(entry.1)
                }
                Op::Forget(f, p) => {
                    self.stats.deaths += 1;
                    if let Some(at) = self.find(value(f)).filter(|&at| self.lru[at].1 == ppn(p)) {
                        self.lru.remove(at);
                    }
                    None
                }
                Op::Relocate(f, old, new) => {
                    if let Some(at) = self.find(value(f)).filter(|&at| self.lru[at].1 == ppn(old)) {
                        self.lru[at].1 = ppn(new);
                    }
                    None
                }
            }
        }
    }

    fn apply(store: &mut DedupStore, op: &Op, domain: u8) -> Option<Ppn> {
        let value = |f: u8| ValueId::new(u64::from(f % domain));
        let ppn = |p: u8| Ppn::new(u64::from(p));
        match *op {
            Op::Register(f, p) => store.register(value(f), ppn(p)),
            Op::Reference(f) => return store.reference(value(f)),
            Op::Forget(f, p) => store.forget(value(f), ppn(p)),
            Op::Relocate(f, old, new) => store.relocate(value(f), ppn(old), ppn(new)),
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn store_matches_a_reference_lru(ops in prop::collection::vec(op(), 1..300)) {
            for capacity in [1usize, 2, 7, 64] {
                // Room for about twice the capacity, so every size
                // sees both hits and evictions.
                let domain = (2 * capacity + 3) as u8;
                let mut store = DedupStore::new(capacity);
                let mut model = Model::default();
                for op in &ops {
                    let got = apply(&mut store, op, domain);
                    prop_assert_eq!(got, model.apply(op, capacity, domain), "{:?}", op);
                    for f in 0..domain {
                        let value = ValueId::new(u64::from(f));
                        let want = model.find(value).map(|at| model.lru[at].1);
                        prop_assert_eq!(store.lookup(value), want, "capacity {}", capacity);
                    }
                    prop_assert_eq!(store.indexed_len(), model.lru.len());
                    prop_assert_eq!(store.stats(), model.stats);
                    prop_assert!(store.entries().eq(model.lru.iter().copied()));
                }
            }
        }
    }
}
