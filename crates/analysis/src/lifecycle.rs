//! Per-value life-cycle accounting: creation, death, rebirth (§II-B).
//!
//! The paper extends a value's life-cycle to three stages: "(i)
//! creation, the first time a value is written, (ii) death, when a
//! value gets invalidated, and (iii) rebirth, when a value is
//! rewritten after its death."

use std::collections::BTreeMap;

use zssd_metrics::{Cdf, ShareCurve};
use zssd_trace::TraceRecord;
use zssd_types::{FxHashMap, ValueId};

use crate::content::{Found, Replay, Rule};

/// Life-cycle counters of one value. Time is the paper's logical
/// write clock (number of writes issued).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ValueStats {
    /// Host writes carrying this value.
    pub writes: u64,
    /// Copies of this value invalidated by overwrites or trims
    /// (deaths).
    pub deaths: u64,
    /// Writes of this value that arrived while a dead copy existed
    /// (rebirths — reusable with an infinite buffer).
    pub rebirths: u64,
    /// Σ (death clock − creation-or-rebirth clock of that copy),
    /// for Fig 4(a).
    pub lifetime_sum: u64,
    /// Number of lifetime samples in `lifetime_sum`.
    pub lifetime_samples: u64,
    /// Σ (rebirth clock − death clock), for Fig 4(b).
    pub dead_time_sum: u64,
    /// Number of dead-time samples in `dead_time_sum`.
    pub dead_time_samples: u64,
}

/// One popularity band of Figs 4 and 6: values bucketed by
/// `floor(log2(writes))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopularityBin {
    /// Band index (0 = written once, 1 = 2–3 writes, 2 = 4–7, …).
    pub degree: u32,
    /// Inclusive range of write counts in this band.
    pub write_range: (u64, u64),
    /// Number of values in the band.
    pub values: u64,
    /// Band average of the plotted quantity.
    pub mean: f64,
}

/// Bands values by `floor(log2(writes))` and averages a quantity per
/// band. `values` yields each value's write count (at least 1), its
/// part of the quantity's sum and its number of samples.
pub(crate) fn popularity_bins(values: impl Iterator<Item = (u64, f64, u64)>) -> Vec<PopularityBin> {
    let mut bands: BTreeMap<u32, (f64, u64, u64)> = BTreeMap::new();
    for (writes, q, samples) in values {
        let band = bands.entry(writes.ilog2()).or_default();
        *band = (band.0 + q, band.1 + samples, band.2 + 1);
    }
    bands
        .into_iter()
        .map(|(degree, (sum, samples, values))| PopularityBin {
            degree,
            write_range: (1 << degree, (1u64 << (degree + 1)) - 1),
            values,
            mean: if samples == 0 {
                0.0
            } else {
                sum / samples as f64
            },
        })
        .collect()
}

/// The §II analysis over one trace (or trace prefix).
///
/// # Examples
///
/// ```
/// use zssd_analysis::ValueLifecycles;
/// use zssd_trace::TraceRecord;
/// use zssd_types::{Lpn, ValueId};
///
/// // Value 7 is created, dies, and is reborn.
/// let records = [
///     TraceRecord::write(Lpn::new(0), ValueId::new(7)),
///     TraceRecord::write(Lpn::new(0), ValueId::new(8)), // kills 7
///     TraceRecord::write(Lpn::new(1), ValueId::new(7)), // rebirth
/// ];
/// let lc = ValueLifecycles::analyze(&records);
/// let stats = lc.value(ValueId::new(7)).expect("tracked");
/// assert_eq!((stats.writes, stats.deaths, stats.rebirths), (2, 1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ValueLifecycles {
    values: FxHashMap<ValueId, ValueStats>,
}

impl ValueLifecycles {
    /// Scans a trace and accumulates per-value life-cycle statistics.
    ///
    /// Writes create and revive values; an overwrite or a trim kills
    /// a copy. Reads change nothing (the paper tracks value popularity
    /// in writes only, footnote 3).
    pub fn analyze(records: &[TraceRecord]) -> Self {
        let mut values: FxHashMap<ValueId, ValueStats> = FxHashMap::default();
        let mut replay = Replay::new(Rule::EveryKill);
        for record in records {
            let (found, kill) = replay.step(record);
            let clock = replay.clock();
            if let Some((old, born)) = kill {
                let stats = values.entry(old).or_default();
                stats.deaths += 1;
                stats.lifetime_sum += clock - born;
                stats.lifetime_samples += 1;
            }
            if record.is_write() {
                let stats = values.entry(record.value).or_default();
                stats.writes += 1;
                if let Found::Dead(died) = found {
                    stats.rebirths += 1;
                    stats.dead_time_sum += clock - died;
                    stats.dead_time_samples += 1;
                }
            }
        }
        ValueLifecycles { values }
    }

    /// Statistics of one value, if it was ever written.
    pub fn value(&self, value: ValueId) -> Option<&ValueStats> {
        self.values.get(&value)
    }

    /// Number of distinct values written.
    pub fn unique_values(&self) -> u64 {
        self.values.len() as u64
    }

    /// Total rebirths across all values: the reusable-write count of
    /// [`infinite_reuse`](crate::infinite_reuse) without dedup, since
    /// both count the writes that find a dead copy.
    pub fn total_rebirths(&self) -> u64 {
        self.values.values().map(|s| s.rebirths).sum()
    }

    /// Fraction of values that were invalidated at least once — the
    /// Fig 2 observation ("only 30% of values … are still present
    /// (live) … and the rest have been invalidated" for mail).
    pub fn fraction_with_deaths(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let died = self.values.values().filter(|s| s.deaths > 0).count();
        died as f64 / self.values.len() as f64
    }

    /// Fig 2: CDF of per-value invalidation counts.
    pub fn invalidation_cdf(&self) -> Cdf {
        self.values.values().map(|s| s.deaths).collect()
    }

    /// Fig 3(a): cumulative share of writes over values sorted by
    /// write count.
    pub fn writes_share(&self) -> ShareCurve {
        ShareCurve::from_weights(self.values.values().map(|s| s.writes))
    }

    /// Fig 3(b): cumulative share of invalidations, values sorted by
    /// *write* count (the paper keeps the x-axis ordering of 3(a)).
    pub fn invalidations_share(&self) -> ShareCurve {
        ShareCurve::from_keyed_weights(self.values.values().map(|s| (s.writes, s.deaths)))
    }

    /// Fig 3(c): cumulative share of rebirths, values sorted by write
    /// count.
    pub fn rebirths_share(&self) -> ShareCurve {
        ShareCurve::from_keyed_weights(self.values.values().map(|s| (s.writes, s.rebirths)))
    }

    fn bins<F: Fn(&ValueStats) -> (f64, u64)>(&self, quantity: F) -> Vec<PopularityBin> {
        popularity_bins(self.values.values().map(|stats| {
            let (q, samples) = quantity(stats);
            (stats.writes, q, samples)
        }))
    }

    /// Fig 4(a): mean writes from a copy's creation to its death, per
    /// popularity band.
    pub fn lifetime_by_popularity(&self) -> Vec<PopularityBin> {
        self.bins(|s| (s.lifetime_sum as f64, s.lifetime_samples))
    }

    /// Fig 4(b): mean writes from death to rebirth, per popularity
    /// band.
    pub fn dead_time_by_popularity(&self) -> Vec<PopularityBin> {
        self.bins(|s| (s.dead_time_sum as f64, s.dead_time_samples))
    }

    /// Fig 4(c): mean rebirth count per value, per popularity band.
    pub fn rebirths_by_popularity(&self) -> Vec<PopularityBin> {
        self.bins(|s| (s.rebirths as f64, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_types::Lpn;

    fn w(lpn: u64, value: u64) -> TraceRecord {
        TraceRecord::write(Lpn::new(lpn), ValueId::new(value))
    }

    #[test]
    fn creation_death_rebirth_counting() {
        // 7 written twice at different addresses, both copies die,
        // then 7 returns twice (two rebirths).
        let records = [
            w(0, 7),
            w(1, 7),
            w(0, 1), // death of copy @0
            w(1, 2), // death of copy @1
            w(2, 7), // rebirth 1
            w(3, 7), // rebirth 2
        ];
        let lc = ValueLifecycles::analyze(&records);
        let s = lc.value(ValueId::new(7)).expect("tracked");
        assert_eq!(s.writes, 4);
        assert_eq!(s.deaths, 2);
        assert_eq!(s.rebirths, 2);
        assert_eq!(lc.unique_values(), 3);
    }

    #[test]
    fn rebirth_requires_a_dead_copy() {
        let records = [w(0, 7), w(1, 7)]; // two live copies, no death
        let lc = ValueLifecycles::analyze(&records);
        let s = lc.value(ValueId::new(7)).expect("tracked");
        assert_eq!(s.rebirths, 0);
        assert_eq!(lc.fraction_with_deaths(), 0.0);
    }

    #[test]
    fn lifetime_interval_measured_in_writes() {
        let records = [
            w(0, 7), // clock 1: birth
            w(5, 9), // clock 2
            w(0, 8), // clock 3: death of 7 -> lifetime 2
            w(1, 7), // clock 4: rebirth -> dead time 1
        ];
        let lc = ValueLifecycles::analyze(&records);
        let s = lc.value(ValueId::new(7)).expect("tracked");
        assert_eq!(s.lifetime_sum, 2);
        assert_eq!(s.lifetime_samples, 1);
        assert_eq!(s.dead_time_sum, 1);
        assert_eq!(s.dead_time_samples, 1);
    }

    #[test]
    fn reads_are_ignored() {
        let records = [
            w(0, 7),
            TraceRecord::read(Lpn::new(0), ValueId::new(7)),
            w(0, 8),
        ];
        let lc = ValueLifecycles::analyze(&records);
        let writes = |v: u64| lc.value(ValueId::new(v)).expect("tracked").writes;
        assert_eq!(writes(7) + writes(8), 2);
        assert_eq!(lc.value(ValueId::new(7)).expect("tracked").deaths, 1);
    }

    #[test]
    fn invalidation_cdf_counts_values() {
        let records = [w(0, 1), w(0, 2), w(0, 3)];
        // value 1 died, value 2 died, value 3 live
        let cdf = ValueLifecycles::analyze(&records).invalidation_cdf();
        assert_eq!(cdf.len(), 3);
        assert!((cdf.fraction_le(0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.fraction_le(1), 1.0);
    }

    #[test]
    fn share_curves_expose_popularity_skew() {
        // Value 9 written 9 times (dying each time at the same lpn),
        // values 1..=3 written once each.
        let mut records = Vec::new();
        for _ in 0..9 {
            records.push(w(0, 9));
        }
        records.push(w(1, 1));
        records.push(w(2, 2));
        records.push(w(3, 3));
        let lc = ValueLifecycles::analyze(&records);
        let writes = lc.writes_share();
        assert_eq!(writes.share_of_top(0.25), 0.75); // 9 of 12 writes
        let inval = lc.invalidations_share();
        assert_eq!(inval.share_of_top(0.25), 1.0); // all deaths are 9's
        let rebirth = lc.rebirths_share();
        assert_eq!(rebirth.share_of_top(0.25), 1.0); // all rebirths are 9's
    }

    #[test]
    fn popularity_bins_are_log2_bands() {
        let mut records = Vec::new();
        // value 1: 1 write -> band 0; value 2: 2 writes -> band 1;
        // value 3: 5 writes -> band 2.
        for (value, count) in [(1u64, 1u64), (2, 2), (3, 5)] {
            for _ in 0..count {
                records.push(w(100 + value, value));
            }
        }
        let lc = ValueLifecycles::analyze(&records);
        let bins = lc.rebirths_by_popularity();
        let degrees: Vec<u32> = bins.iter().map(|b| b.degree).collect();
        assert_eq!(degrees, vec![0, 1, 2]);
        assert_eq!(bins[2].write_range, (4, 7));
        assert_eq!(bins[0].values, 1);
    }

    #[test]
    fn popular_values_are_reborn_more_in_synthetic_traces() {
        use zssd_trace::{SyntheticTrace, WorkloadProfile};
        let trace = SyntheticTrace::generate(&WorkloadProfile::mail().scaled(0.02), 9);
        let lc = ValueLifecycles::analyze(trace.records());
        let bins = lc.rebirths_by_popularity();
        assert!(bins.len() >= 3, "need several popularity bands");
        let first = bins.first().expect("nonempty");
        let last = bins.last().expect("nonempty");
        assert!(
            last.mean > first.mean,
            "the higher the popularity, the higher the number of rebirths \
             (paper Fig 4c): {} vs {}",
            last.mean,
            first.mean
        );
    }

    #[test]
    fn empty_trace_is_benign() {
        let lc = ValueLifecycles::analyze(&[]);
        assert_eq!(lc.unique_values(), 0);
        assert_eq!(lc.fraction_with_deaths(), 0.0);
        assert!(lc.invalidation_cdf().is_empty());
        assert!(lc.lifetime_by_popularity().is_empty());
    }
}
