//! Exact latency digests.

use core::fmt;

use zssd_types::SimDuration;

use crate::cdf::nearest_rank;

/// The headline statistics of a set of request latencies: count, mean,
/// and the exact nearest-rank median, 99th percentile and maximum.
///
/// The simulator runs bounded trace lengths (≤ a few million requests),
/// so every latency is kept and the digest is exact rather than a
/// streaming sketch's estimate. [`Timeline::summaries`] computes one
/// per request kind.
///
/// [`Timeline::summaries`]: crate::Timeline::summaries
///
/// # Examples
///
/// ```
/// use zssd_metrics::Timeline;
/// use zssd_types::{SimDuration, SimTime};
///
/// let mut tl = Timeline::new();
/// for us in 1..=100u64 {
///     tl.record_write(SimTime::ZERO, SimDuration::from_micros(us));
/// }
/// let (write, read, _) = tl.summaries();
/// assert_eq!(write.p99.as_nanos(), 99_000);
/// assert_eq!(write.count, 100);
/// assert_eq!(read.count, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 99th percentile (the paper's "tail latency").
    pub p99: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl LatencySummary {
    /// Digests latencies given in nanoseconds; all zero when empty.
    /// Percentiles are found by selection rather than a full sort, so
    /// `samples` is left reordered.
    pub(crate) fn of(samples: &mut [u64]) -> LatencySummary {
        let n = samples.len();
        if n == 0 {
            return LatencySummary::default();
        }
        let sum: u128 = samples.iter().map(|&ns| u128::from(ns)).sum();
        let p99_rank = nearest_rank(0.99, n);
        let (below, &mut p99, above) = samples.select_nth_unstable(p99_rank);
        let max = above.iter().copied().max().unwrap_or(p99);
        // The median's rank never exceeds the 99th percentile's, so it
        // lies among the samples already partitioned below it.
        let p50_rank = nearest_rank(0.50, n);
        let p50 = if p50_rank == p99_rank {
            p99
        } else {
            *below.select_nth_unstable(p50_rank).1
        };
        LatencySummary {
            count: n as u64,
            mean: SimDuration::from_nanos((sum / n as u128) as u64),
            p50: SimDuration::from_nanos(p50),
            p99: SimDuration::from_nanos(p99),
            max: SimDuration::from_nanos(max),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count, self.mean, self.p50, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_types::SimTime;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_digest_is_all_zero() {
        assert_eq!(LatencySummary::of(&mut []), LatencySummary::default());
    }

    #[test]
    fn mean_and_percentiles_exact() {
        let mut samples = [400_000, 100_000, 300_000, 200_000];
        let summary = LatencySummary::of(&mut samples);
        assert_eq!(summary.count, 4);
        assert_eq!(summary.mean, us(250));
        assert_eq!(summary.p50, us(200));
        assert_eq!(summary.p99, us(400));
        assert_eq!(summary.max, us(400));
    }

    #[test]
    fn p99_is_nearest_rank() {
        let mut samples: Vec<u64> = (1..=1000).rev().collect();
        let summary = LatencySummary::of(&mut samples);
        assert_eq!(summary.p99.as_nanos(), 990);
        assert_eq!(summary.p50.as_nanos(), 500);
        assert_eq!(summary.max.as_nanos(), 1000);
    }

    #[test]
    fn interleaved_record_and_query_stay_consistent() {
        // A digest leaves the timeline as recorded, so later requests
        // and later digests see every sample.
        let mut tl = crate::Timeline::new();
        tl.record_write(SimTime::ZERO, us(10));
        tl.record_read(SimTime::ZERO, us(5));
        assert_eq!(tl.summaries().2.max, us(10));
        tl.record_write(SimTime::ZERO, us(1));
        let (write, _, all) = tl.summaries();
        assert_eq!((write.count, write.p50), (2, us(1)));
        assert_eq!((all.count, all.p50, all.max), (3, us(5), us(10)));
    }

    #[test]
    fn summary_display_mentions_all_fields() {
        let text = LatencySummary::of(&mut [2_000]).to_string();
        assert!(text.contains("n=1") && text.contains("p99="));
    }
}
