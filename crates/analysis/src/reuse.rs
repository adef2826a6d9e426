//! Garbage-reuse studies: the Fig 1 infinite-buffer bound and the
//! Fig 5/6 bounded-buffer replays.

use std::collections::HashMap;

use zssd_core::{MqConfig, MqDeadValuePool};
use zssd_trace::TraceRecord;
use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};

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

/// The Fig 1 study: replay a trace's writes with an **unlimited**
/// dead-value buffer and count how many could be short-circuited.
///
/// With `dedup` enabled, live-copy hits are removed first (they are
/// deduplication's wins, not the pool's), so the returned
/// `reuse_fraction` is the *additional* opportunity on garbage pages —
/// the paper's point that "this opportunity still exists (although it
/// decreases), even after deduplication".
///
/// # Examples
///
/// ```
/// use zssd_analysis::infinite_reuse;
/// use zssd_trace::TraceRecord;
/// use zssd_types::{Lpn, ValueId};
///
/// let records = [
///     TraceRecord::write(0, Lpn::new(0), ValueId::new(7)),
///     TraceRecord::write(1, Lpn::new(0), ValueId::new(8)), // 7 dies
///     TraceRecord::write(2, Lpn::new(1), ValueId::new(7)), // reusable
/// ];
/// let reuse = infinite_reuse(&records, false);
/// assert_eq!(reuse.reused, 1);
/// assert_eq!(reuse.writes, 3);
/// ```
pub fn infinite_reuse(records: &[TraceRecord], dedup: bool) -> InfiniteReuse {
    let mut result = InfiniteReuse::default();
    // Current content of each address.
    let mut content: HashMap<Lpn, ValueId> = HashMap::new();
    // Dead copies per value (count of garbage pages holding it).
    let mut dead: HashMap<ValueId, u64> = HashMap::new();
    // Live reference counts per value (dedup mode only).
    let mut live_refs: HashMap<ValueId, u64> = HashMap::new();

    for record in records.iter().filter(|r| r.is_write()) {
        result.writes += 1;
        let value = record.value;

        // Death of the overwritten copy happens conceptually after the
        // lookup (§IV-C order), so resolve the lookup against the
        // current pool state first.
        enum Outcome {
            Dedup,
            Reuse,
            Program,
        }
        let outcome = if dedup {
            if live_refs.get(&value).copied().unwrap_or(0) > 0 {
                Outcome::Dedup
            } else if dead.get(&value).copied().unwrap_or(0) > 0 {
                Outcome::Reuse
            } else {
                Outcome::Program
            }
        } else if dead.get(&value).copied().unwrap_or(0) > 0 {
            Outcome::Reuse
        } else {
            Outcome::Program
        };

        // Now the overwritten copy dies.
        if let Some(old) = content.insert(record.lpn, value) {
            if dedup {
                let refs = live_refs.get_mut(&old).expect("live value has refs");
                *refs -= 1;
                if *refs == 0 {
                    live_refs.remove(&old);
                    *dead.entry(old).or_insert(0) += 1;
                }
            } else {
                *dead.entry(old).or_insert(0) += 1;
            }
        }

        match outcome {
            Outcome::Dedup => {
                result.dedup_eliminated += 1;
                *live_refs.entry(value).or_insert(0) += 1;
            }
            Outcome::Reuse => {
                result.reused += 1;
                let copies = dead.get_mut(&value).expect("dead copy exists");
                *copies -= 1;
                if *copies == 0 {
                    dead.remove(&value);
                }
                if dedup {
                    *live_refs.entry(value).or_insert(0) += 1;
                }
            }
            Outcome::Program => {
                if dedup {
                    *live_refs.entry(value).or_insert(0) += 1;
                }
            }
        }
    }
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

    /// Mean capacity misses per value, bucketed by
    /// `floor(log2(write count))` popularity bands; returns
    /// `(degree, mean misses, values in band)` sorted by degree —
    /// Fig 6's series.
    pub fn mean_misses_by_popularity(&self) -> Vec<(u32, f64, u64)> {
        let mut sums: HashMap<u32, (u64, u64)> = HashMap::new();
        for (value, &writes) in &self.writes_by_value {
            let degree = writes.max(1).ilog2();
            let misses = self.misses_by_value.get(value).copied().unwrap_or(0);
            let entry = sums.entry(degree).or_default();
            entry.0 += misses;
            entry.1 += 1;
        }
        let mut out: Vec<(u32, f64, u64)> = sums
            .into_iter()
            .map(|(d, (misses, values))| (d, misses as f64 / values as f64, values))
            .collect();
        out.sort_by_key(|&(d, _, _)| d);
        out
    }
}

/// Replays a trace's write stream against a real MQ dead-value pool
/// (in any setting: MQ, LRU, Ideal), tracking an infinite-buffer oracle alongside so
/// capacity misses can be attributed (Fig 6).
///
/// Dead pages are identified by synthetic PPNs (the death ordinal);
/// no flash model is involved — this is the paper's §II/§III "analyze
/// the traces" methodology.
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

    /// Replays the write stream and returns the hit/miss summary.
    pub fn run(mut self, records: &[TraceRecord]) -> PoolRunSummary {
        let mut summary = PoolRunSummary::default();
        let mut clock = WriteClock::ZERO;
        // Address -> (value, synthetic ppn of the live copy).
        let mut content: HashMap<Lpn, (ValueId, Ppn)> = HashMap::new();
        // Oracle: dead copies per value under an infinite buffer.
        let mut oracle_dead: HashMap<ValueId, u64> = HashMap::new();
        // Popularity proxy: per-address write counters, as in the
        // paper's 1-byte mapping-table field.
        let mut popularity: HashMap<Lpn, PopularityDegree> = HashMap::new();
        let mut next_ppn = 0u64;

        for record in records.iter().filter(|r| r.is_write()) {
            summary.writes += 1;
            let now = clock.tick();
            let value = record.value;
            *summary.writes_by_value.entry(value).or_insert(0) += 1;
            let pop = popularity
                .entry(record.lpn)
                .or_insert(PopularityDegree::ZERO);
            pop.increment();
            let pop = *pop;

            // Pool lookup first (§IV-C order), oracle alongside.
            let fp = record.fingerprint();
            let pool_hit = self.pool.take_match(fp, now);
            let oracle_hit = oracle_dead.get(&value).copied().unwrap_or(0) > 0;

            // The overwritten copy dies.
            if let Some((old_value, old_ppn)) = content.get(&record.lpn).copied() {
                self.pool.insert_dead(
                    zssd_types::Fingerprint::of_value(old_value),
                    old_ppn,
                    record.lpn,
                    pop,
                    now,
                );
                *oracle_dead.entry(old_value).or_insert(0) += 1;
            }

            let live_ppn = match pool_hit {
                Some(revived) => {
                    summary.hits += 1;
                    revived
                }
                None => {
                    if oracle_hit {
                        summary.capacity_misses += 1;
                        *summary.misses_by_value.entry(value).or_insert(0) += 1;
                    }
                    next_ppn += 1;
                    Ppn::new(next_ppn)
                }
            };
            if oracle_hit {
                let copies = oracle_dead.get_mut(&value).expect("oracle copy");
                *copies -= 1;
                if *copies == 0 {
                    oracle_dead.remove(&value);
                }
            }
            content.insert(record.lpn, (value, live_ppn));
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_trace::{SyntheticTrace, WorkloadProfile};

    fn w(seq: u64, lpn: u64, value: u64) -> TraceRecord {
        TraceRecord::write(seq, Lpn::new(lpn), ValueId::new(value))
    }

    #[test]
    fn infinite_reuse_counts_simple_rebirth() {
        let records = [w(0, 0, 7), w(1, 0, 8), w(2, 1, 7), w(3, 2, 7)];
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
        let records = [w(0, 0, 7), w(1, 1, 7), w(2, 0, 8), w(3, 1, 9), w(4, 2, 7)];
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
        let records = [w(0, 0, 7), w(1, 0, 7), w(2, 0, 7)];
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
        let total_values: u64 = bins.iter().map(|&(_, _, v)| v).sum();
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
