//! Garbage-reuse studies: the Fig 1 infinite-buffer bound and the
//! Fig 5/6 bounded-buffer replays.

use std::collections::HashMap;

use zssd_core::{MqConfig, MqDeadValuePool};
use zssd_trace::TraceRecord;
use zssd_types::{FxHashMap, Lpn, PopularityDegree, Ppn, ValueId, WriteClock};

use crate::content::{Found, Replay, Rule};
use crate::lifecycle::{popularity_bins, PopularityBin};

/// Result of the infinite-buffer study (Fig 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InfiniteReuse {
    /// Host writes scanned.
    pub writes: u64,
    /// Writes short-circuited by reviving a dead copy.
    pub reused: u64,
    /// Writes eliminated by deduplication *before* the garbage pool
    /// was consulted (0 when `dedup` is off).
    pub dedup_eliminated: u64,
}

impl InfiniteReuse {
    /// Probability that a write can be serviced from garbage pages —
    /// the y-axis of Fig 1.
    pub fn reuse_fraction(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.reused as f64 / self.writes as f64
        }
    }

    /// Fraction of writes removed by dedup (for the "after
    /// deduplication" series).
    pub fn dedup_fraction(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.dedup_eliminated as f64 / self.writes as f64
        }
    }
}

/// The Fig 1 study: replay a trace with an **unlimited** dead-value
/// buffer and count how many writes could be short-circuited. An
/// overwrite or a trim kills a copy; reads change nothing.
///
/// With `dedup` enabled, live-copy hits are removed first (they are
/// deduplication's wins, not the pool's) and a copy dies only with its
/// value's last live reference, so the returned `reuse_fraction` is the
/// *additional* opportunity on garbage pages — the paper's point that
/// "this opportunity still exists (although it decreases), even after
/// deduplication".
///
/// # Examples
///
/// ```
/// use zssd_analysis::infinite_reuse;
/// use zssd_trace::TraceRecord;
/// use zssd_types::{Lpn, ValueId};
///
/// let records = [
///     TraceRecord::write(Lpn::new(0), ValueId::new(7)),
///     TraceRecord::write(Lpn::new(0), ValueId::new(8)), // 7 dies
///     TraceRecord::write(Lpn::new(1), ValueId::new(7)), // reusable
/// ];
/// let reuse = infinite_reuse(&records, false);
/// assert_eq!(reuse.reused, 1);
/// assert_eq!(reuse.writes, 3);
/// ```
pub fn infinite_reuse(records: &[TraceRecord], dedup: bool) -> InfiniteReuse {
    let mut replay = Replay::new(if dedup {
        Rule::LastReference
    } else {
        Rule::EveryKill
    });
    let mut result = InfiniteReuse::default();
    for record in records {
        match replay.step(record).0 {
            Found::Dead(_) => result.reused += 1,
            Found::Live => result.dedup_eliminated += 1,
            Found::Nothing => {}
        }
    }
    result.writes = replay.clock();
    result
}

/// Summary of a bounded-pool replay (Figs 5 and 6).
#[derive(Debug, Clone, Default)]
pub struct PoolRunSummary {
    /// Host writes scanned.
    pub writes: u64,
    /// Writes the pool short-circuited.
    pub hits: u64,
    /// Writes an infinite buffer would have short-circuited but the
    /// bounded pool missed (capacity misses — the Fig 5 gap).
    pub capacity_misses: u64,
    /// Capacity misses per value (for the Fig 6 per-popularity
    /// breakdown).
    pub misses_by_value: HashMap<ValueId, u64>,
    /// Total writes per value (popularity, for binning Fig 6).
    pub writes_by_value: HashMap<ValueId, u64>,
}

impl PoolRunSummary {
    /// Writes that still reach flash: `writes − hits`.
    pub fn writes_remaining(&self) -> u64 {
        self.writes - self.hits
    }

    /// Mean capacity misses per value, per `floor(log2(write count))`
    /// popularity band — Fig 6's series.
    pub fn mean_misses_by_popularity(&self) -> Vec<PopularityBin> {
        popularity_bins(self.writes_by_value.iter().map(|(value, &writes)| {
            let misses = self.misses_by_value.get(value).copied().unwrap_or(0);
            (writes, misses as f64, 1)
        }))
    }
}

/// Replays a trace against a real MQ dead-value pool (in any setting:
/// MQ, LRU, Ideal), beside the infinite-buffer replay of
/// [`infinite_reuse`], so capacity misses can be attributed (Fig 6).
///
/// Dead pages are identified by synthetic PPNs (the write clock that
/// placed each copy); no flash model is involved — this is the paper's
/// §II/§III "analyze the traces" methodology.
///
/// # Examples
///
/// ```
/// use zssd_analysis::PoolReuseSim;
/// use zssd_core::MqConfig;
/// use zssd_trace::{SyntheticTrace, WorkloadProfile};
///
/// let trace = SyntheticTrace::generate(&WorkloadProfile::mail().scaled(0.01), 3);
/// let summary = PoolReuseSim::new(MqConfig::lru(500)).run(trace.records());
/// assert!(summary.hits > 0);
/// assert!(summary.writes_remaining() < summary.writes);
/// ```
#[derive(Debug)]
pub struct PoolReuseSim {
    pool: MqDeadValuePool,
}

impl PoolReuseSim {
    /// Synthetic PPNs lie on no flash block, so the pool's per-block
    /// popularity sums (read only by GC) get a nominal block size.
    const PAGES_PER_BLOCK: u32 = 64;

    /// A replay against an empty pool with policy `cfg`.
    pub fn new(cfg: MqConfig) -> Self {
        PoolReuseSim {
            pool: MqDeadValuePool::new(cfg, Self::PAGES_PER_BLOCK),
        }
    }

    /// Replays the trace and returns the hit/miss summary. An
    /// overwrite or a trim offers the killed copy to the pool.
    pub fn run(mut self, records: &[TraceRecord]) -> PoolRunSummary {
        let mut summary = PoolRunSummary::default();
        let mut oracle = Replay::new(Rule::EveryKill);
        // Popularity proxy: per-address write counters, as in the
        // paper's 1-byte mapping-table field.
        let mut popularity: FxHashMap<Lpn, PopularityDegree> = FxHashMap::default();
        for record in records {
            let (found, kill) = oracle.step(record);
            let now = WriteClock::from_count(oracle.clock());
            if record.is_write() {
                *summary.writes_by_value.entry(record.value).or_insert(0) += 1;
                popularity.entry(record.lpn).or_default().increment();
                // The pool is looked up before the killed copy enters
                // it (§IV-C order).
                if self.pool.take_match(record.value, now).is_some() {
                    summary.hits += 1;
                } else if let Found::Dead(_) = found {
                    summary.capacity_misses += 1;
                    *summary.misses_by_value.entry(record.value).or_insert(0) += 1;
                }
            }
            // A copy's synthetic PPN is the write clock that placed it,
            // which no other copy shares.
            if let Some((old, born)) = kill {
                let pop = popularity[&record.lpn];
                self.pool
                    .insert_dead(old, Ppn::new(born), record.lpn, pop, now);
            }
        }
        summary.writes = oracle.clock();
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_trace::{SyntheticTrace, WorkloadProfile};

    fn w(lpn: u64, value: u64) -> TraceRecord {
        TraceRecord::write(Lpn::new(lpn), ValueId::new(value))
    }

    #[test]
    fn infinite_reuse_counts_simple_rebirth() {
        let records = [w(0, 7), w(0, 8), w(1, 7), w(2, 7)];
        let r = infinite_reuse(&records, false);
        // Only one dead copy of 7 existed; the second rewrite programs.
        assert_eq!(r.reused, 1);
        assert_eq!(r.writes, 4);
        assert_eq!(r.reuse_fraction(), 0.25);
    }

    #[test]
    fn dedup_mode_splits_wins() {
        // 7 written twice while live (dedup win), then dies, then
        // returns (pool win).
        let records = [w(0, 7), w(1, 7), w(0, 8), w(1, 9), w(2, 7)];
        let r = infinite_reuse(&records, true);
        assert_eq!(r.dedup_eliminated, 1);
        assert_eq!(r.reused, 1);
        // Without dedup the same trace reuses more from garbage.
        let plain = infinite_reuse(&records, false);
        assert!(plain.reused >= r.reused);
    }

    #[test]
    fn same_value_overwrite_reuses_the_previous_death() {
        // Rewriting the same content at the same address: the §IV-C
        // order resolves the pool lookup *before* this write's own
        // death, so the second rewrite misses (no dead copy yet) and
        // the third hits the copy killed by the second.
        let records = [w(0, 7), w(0, 7), w(0, 7)];
        let r = infinite_reuse(&records, false);
        assert_eq!(r.reused, 1);
    }

    #[test]
    fn ideal_pool_matches_infinite_oracle() {
        let trace = SyntheticTrace::generate(&WorkloadProfile::mail().scaled(0.01), 2);
        let oracle = infinite_reuse(trace.records(), false);
        let summary = PoolReuseSim::new(MqConfig::ideal()).run(trace.records());
        assert_eq!(summary.hits, oracle.reused);
        assert_eq!(summary.capacity_misses, 0);
    }

    #[test]
    fn bounded_lru_loses_to_infinite_and_gap_is_capacity_misses() {
        let trace = SyntheticTrace::generate(&WorkloadProfile::mail().scaled(0.02), 2);
        let oracle = infinite_reuse(trace.records(), false);
        let summary = PoolReuseSim::new(MqConfig::lru(64)).run(trace.records());
        assert!(summary.hits <= oracle.reused);
        assert_eq!(summary.hits + summary.capacity_misses, oracle.reused);
        assert!(summary.capacity_misses > 0, "tiny buffer must miss");
    }

    #[test]
    fn larger_buffers_do_no_worse() {
        let trace = SyntheticTrace::generate(&WorkloadProfile::web().scaled(0.02), 4);
        let small = PoolReuseSim::new(MqConfig::lru(32)).run(trace.records());
        let large = PoolReuseSim::new(MqConfig::lru(4096)).run(trace.records());
        assert!(large.hits >= small.hits);
        assert!(large.writes_remaining() <= small.writes_remaining());
    }

    #[test]
    fn mq_beats_lru_at_equal_capacity_on_skewed_traces() {
        let trace = SyntheticTrace::generate(&WorkloadProfile::mail().scaled(0.03), 8);
        let entries = 256;
        let lru = PoolReuseSim::new(MqConfig::lru(entries)).run(trace.records());
        let mq = PoolReuseSim::new(MqConfig::paper_default().with_capacity(entries))
            .run(trace.records());
        assert!(
            mq.hits >= lru.hits,
            "MQ ({}) must not lose to LRU ({}) on a skewed trace",
            mq.hits,
            lru.hits
        );
    }

    #[test]
    fn miss_breakdown_buckets_by_popularity() {
        let trace = SyntheticTrace::generate(&WorkloadProfile::mail().scaled(0.02), 2);
        let summary = PoolReuseSim::new(MqConfig::lru(64)).run(trace.records());
        let bins = summary.mean_misses_by_popularity();
        assert!(!bins.is_empty());
        let total_values: u64 = bins.iter().map(|b| b.values).sum();
        assert_eq!(total_values, summary.writes_by_value.len() as u64);
    }

    #[test]
    fn empty_trace_summaries_are_zero() {
        assert_eq!(infinite_reuse(&[], true).reuse_fraction(), 0.0);
        let summary = PoolReuseSim::new(MqConfig::ideal()).run(&[]);
        assert_eq!(summary.writes, 0);
        assert_eq!(summary.writes_remaining(), 0);
    }
}
