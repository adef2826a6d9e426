//! CAFTL-style device-level deduplication (§VII of the paper).
//!
//! With deduplication, the FTL keeps a **many-to-one** mapping: several
//! logical pages may point at one physical page holding their shared
//! content. A physical page "turns into garbage only when all pointers
//! to that page are removed". Those pointers are the owner list of the
//! page's reverse-map record in the FTL, so the FTL alone decides when
//! a page dies; this crate holds no per-page reference counts.
//!
//! The [`DedupStore`] is the **fingerprint index** (`fingerprint →
//! PPN`). It lives in scarce controller RAM and is therefore
//! *capacity-bounded* with LRU replacement, as in CAFTL/CA-SSD.
//! Evicting an index entry does not affect the page or its owners — it
//! only means future duplicates of that content can no longer be
//! detected and will be programmed again (possibly creating a second
//! live physical copy, exactly as on a real bounded-index
//! deduplicating SSD).
//!
//! # Examples
//!
//! ```
//! use zssd_dedup::DedupStore;
//! use zssd_types::{Fingerprint, Ppn, ValueId};
//!
//! let mut store = DedupStore::new(); // unbounded index
//! let fp = Fingerprint::of_value(ValueId::new(1));
//!
//! // First write of a value programs a page and registers it.
//! store.register(fp, Ppn::new(10));
//! // A second logical copy deduplicates against it.
//! assert_eq!(store.reference(fp), Some(Ppn::new(10)));
//!
//! // When the FTL sees the page's last owner leave, the page is
//! // garbage and its index entry goes.
//! store.forget(fp, Ppn::new(10));
//! assert_eq!(store.lookup(fp), None);
//! assert_eq!(store.stats().deaths, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use zssd_types::{Fingerprint, FxHashMap, Ppn};

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
    /// Fingerprint index entries evicted for capacity.
    pub index_evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    ppn: Ppn,
    stamp: u64,
}

/// The content-addressed index of live values: a bounded,
/// LRU-replaced fingerprint → physical-page lookup.
#[derive(Debug, Clone, Default)]
pub struct DedupStore {
    index: FxHashMap<Fingerprint, IndexEntry>,
    lru: BTreeMap<u64, Fingerprint>,
    next_stamp: u64,
    capacity: Option<usize>,
    stats: DedupStats,
}

impl DedupStore {
    /// Creates a store with an unbounded fingerprint index.
    pub fn new() -> Self {
        DedupStore::default()
    }

    /// Creates a store whose fingerprint index holds at most
    /// `entries` fingerprints (LRU-replaced).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn with_index_capacity(entries: usize) -> Self {
        assert!(entries > 0, "dedup index capacity must be nonzero");
        DedupStore {
            capacity: Some(entries),
            ..DedupStore::default()
        }
    }

    /// The index capacity, or `None` when unbounded.
    pub fn index_capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn touch(&mut self, fp: Fingerprint) {
        let Some(entry) = self.index.get_mut(&fp) else {
            return;
        };
        self.lru.remove(&entry.stamp);
        entry.stamp = self.next_stamp;
        self.lru.insert(self.next_stamp, fp);
        self.next_stamp += 1;
    }

    fn index_insert(&mut self, fp: Fingerprint, ppn: Ppn) {
        if let Some(old) = self.index.insert(
            fp,
            IndexEntry {
                ppn,
                stamp: self.next_stamp,
            },
        ) {
            self.lru.remove(&old.stamp);
        }
        self.lru.insert(self.next_stamp, fp);
        self.next_stamp += 1;
        if let Some(cap) = self.capacity {
            while self.index.len() > cap {
                let Some((_, victim)) = self.lru.pop_first() else {
                    break;
                };
                self.index.remove(&victim);
                self.stats.index_evictions += 1;
            }
        }
    }

    /// Looks up the live copy of a value without counting a hit or
    /// refreshing recency.
    pub fn lookup(&self, fp: Fingerprint) -> Option<Ppn> {
        self.index.get(&fp).map(|e| e.ppn)
    }

    /// Finds the live copy a new logical page of this value should
    /// share, if the index still knows one. Counts a dedup hit (an
    /// eliminated write) on success and refreshes the entry's recency;
    /// counts a miss otherwise.
    pub fn reference(&mut self, fp: Fingerprint) -> Option<Ppn> {
        let Some(&IndexEntry { ppn, .. }) = self.index.get(&fp) else {
            self.stats.misses += 1;
            return None;
        };
        self.touch(fp);
        self.stats.dedup_hits += 1;
        Some(ppn)
    }

    /// Makes a freshly programmed (or revived) copy of a value the
    /// index's target for that fingerprint.
    ///
    /// Registering a fingerprint that already has an indexed copy
    /// repoints the index at the new page (the old copy keeps its
    /// owners and dies when they leave). This is what happens on a
    /// real bounded-index device after an index miss on duplicated
    /// content.
    pub fn register(&mut self, fp: Fingerprint, ppn: Ppn) {
        self.index_insert(fp, ppn);
        self.stats.registrations += 1;
    }

    /// Records the death of the page at `ppn` holding `fp` (its last
    /// owner left): drops the index entry if it pointed there.
    pub fn forget(&mut self, fp: Fingerprint, ppn: Ppn) {
        if let Some(entry) = self.index.get(&fp) {
            if entry.ppn == ppn {
                let stamp = entry.stamp;
                self.index.remove(&fp);
                self.lru.remove(&stamp);
            }
        }
        self.stats.deaths += 1;
    }

    /// Follows a live page holding `fp` from `old` to `new` (GC or a
    /// scrub relocated it), updating the index if it pointed at `old`.
    pub fn relocate(&mut self, fp: Fingerprint, old: Ppn, new: Ppn) {
        if let Some(idx) = self.index.get_mut(&fp) {
            if idx.ppn == old {
                idx.ppn = new;
            }
        }
    }

    /// Every indexed fingerprint with the physical page it names, in
    /// no particular order.
    pub fn entries(&self) -> impl Iterator<Item = (Fingerprint, Ppn)> + '_ {
        self.index.iter().map(|(&fp, e)| (fp, e.ppn))
    }

    /// Number of fingerprints currently in the bounded index.
    pub fn indexed_len(&self) -> usize {
        self.index.len()
    }

    /// Usage counters.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_types::ValueId;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::of_value(ValueId::new(v))
    }

    #[test]
    fn references_hit_until_the_page_is_forgotten() {
        let mut s = DedupStore::new();
        s.register(fp(1), Ppn::new(1));
        assert_eq!(s.reference(fp(1)), Some(Ppn::new(1)));
        assert_eq!(s.reference(fp(1)), Some(Ppn::new(1)));
        s.forget(fp(1), Ppn::new(1));
        assert_eq!(s.reference(fp(1)), None);
        assert_eq!(s.indexed_len(), 0);
        assert_eq!(s.stats().deaths, 1);
        assert_eq!(s.stats().dedup_hits, 2);
    }

    #[test]
    fn lookup_does_not_take_references() {
        let mut s = DedupStore::new();
        s.register(fp(1), Ppn::new(1));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(1)));
        assert_eq!(s.lookup(fp(2)), None);
        assert_eq!(s.stats().dedup_hits, 0, "lookups are not hits");
        assert_eq!(s.stats().misses, 0, "...nor misses");
    }

    #[test]
    fn relocate_moves_the_live_copy() {
        let mut s = DedupStore::new();
        s.register(fp(1), Ppn::new(1));
        s.reference(fp(1));
        s.relocate(fp(1), Ppn::new(1), Ppn::new(5));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(5)));
        // A stale source no longer matches the index entry.
        s.relocate(fp(1), Ppn::new(1), Ppn::new(6));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(5)));
    }

    #[test]
    fn a_value_can_be_reregistered_after_death() {
        let mut s = DedupStore::new();
        s.register(fp(1), Ppn::new(1));
        s.forget(fp(1), Ppn::new(1));
        assert_eq!(s.lookup(fp(1)), None);
        s.register(fp(1), Ppn::new(1));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(1)));
        assert_eq!(s.stats().registrations, 2);
    }

    #[test]
    fn bounded_index_evicts_lru_fingerprints() {
        let mut s = DedupStore::with_index_capacity(2);
        s.register(fp(1), Ppn::new(1));
        s.register(fp(2), Ppn::new(2));
        s.reference(fp(1)); // refresh 1; 2 becomes LRU
        s.register(fp(3), Ppn::new(3)); // evicts fp(2)
        assert_eq!(s.lookup(fp(2)), None, "index entry evicted");
        assert_eq!(s.indexed_len(), 2);
        assert_eq!(s.stats().index_evictions, 1);
        // Page 2 still dies normally, leaving the index alone.
        s.forget(fp(2), Ppn::new(2));
        assert_eq!(s.indexed_len(), 2);
        assert_eq!(s.stats().deaths, 1);
    }

    #[test]
    fn duplicate_content_can_be_registered_twice_after_eviction() {
        let mut s = DedupStore::with_index_capacity(1);
        s.register(fp(1), Ppn::new(1));
        s.register(fp(2), Ppn::new(2)); // evicts fp(1)

        // fp(1) content arrives again: index miss, a second physical
        // copy is programmed and registered.
        assert_eq!(s.reference(fp(1)), None);
        s.register(fp(1), Ppn::new(3));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(3)));
        // The death of the *indexed* copy clears its index entry...
        s.forget(fp(1), Ppn::new(3));
        assert_eq!(s.lookup(fp(1)), None);
        // ...while the death of a non-indexed copy leaves it alone.
        s.register(fp(1), Ppn::new(4));
        s.forget(fp(1), Ppn::new(1));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(4)));
    }

    #[test]
    fn reregistering_a_fingerprint_repoints_the_index() {
        let mut s = DedupStore::new();
        s.register(fp(1), Ppn::new(1));
        s.register(fp(1), Ppn::new(2));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(2)));
        assert_eq!(s.indexed_len(), 1, "one entry per fingerprint");
    }

    #[test]
    fn relocate_of_non_indexed_copy_keeps_index() {
        let mut s = DedupStore::new();
        s.register(fp(1), Ppn::new(1));
        s.register(fp(1), Ppn::new(2));
        s.relocate(fp(1), Ppn::new(1), Ppn::new(9));
        assert_eq!(s.lookup(fp(1)), Some(Ppn::new(2)));
    }

    #[test]
    fn stats_track_misses() {
        let mut s = DedupStore::new();
        assert_eq!(s.reference(fp(3)), None);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.indexed_len(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = DedupStore::with_index_capacity(0);
    }
}
