//! Exact latency digests.

use core::fmt;

use zssd_types::SimDuration;

use crate::cdf::nearest_rank;

/// The headline statistics of a set of request latencies: count, mean,
/// and the exact nearest-rank median, 99th percentile and maximum.
///
/// The digest is exact rather than a streaming sketch's estimate: a
/// [`Timeline`] counts the requests at each distinct latency, and
/// [`Timeline::summaries`] computes one digest per request kind from
/// those counts.
///
/// [`Timeline`]: crate::Timeline
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
    /// Digests latencies given as `(nanoseconds, requests)` pairs in
    /// ascending latency order (a latency may appear in more than one
    /// pair), with `sum` the exact total of those requests' latencies;
    /// all zero when there are none.
    pub(crate) fn from_counts(counts: &[(u64, u64)], sum: u128) -> LatencySummary {
        let Some(&(max, _)) = counts.last() else {
            return LatencySummary::default();
        };
        let n: u64 = counts.iter().map(|&(_, count)| count).sum();
        // The latency holding 0-based rank `rank`: the first whose
        // running count passes it.
        let at_rank = |rank: usize| {
            let mut seen = 0;
            counts
                .iter()
                .find(|&&(_, count)| {
                    seen += count;
                    seen > rank as u64
                })
                .map_or(max, |&(ns, _)| ns)
        };
        LatencySummary {
            count: n,
            mean: SimDuration::from_nanos((sum / u128::from(n)) as u64),
            p50: SimDuration::from_nanos(at_rank(nearest_rank(0.50, n as usize))),
            p99: SimDuration::from_nanos(at_rank(nearest_rank(0.99, n as usize))),
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

    /// The digest of `samples`, each counted once.
    fn digest(samples: &[u64]) -> LatencySummary {
        let mut counts: Vec<(u64, u64)> = samples.iter().map(|&ns| (ns, 1)).collect();
        counts.sort_unstable();
        let sum = samples.iter().map(|&ns| u128::from(ns)).sum();
        LatencySummary::from_counts(&counts, sum)
    }

    #[test]
    fn empty_digest_is_all_zero() {
        assert_eq!(digest(&[]), LatencySummary::default());
    }

    #[test]
    fn mean_and_percentiles_exact() {
        let summary = digest(&[400_000, 100_000, 300_000, 200_000]);
        assert_eq!(summary.count, 4);
        assert_eq!(summary.mean, us(250));
        assert_eq!(summary.p50, us(200));
        assert_eq!(summary.p99, us(400));
        assert_eq!(summary.max, us(400));
    }

    #[test]
    fn p99_is_nearest_rank() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        let summary = digest(&samples);
        assert_eq!(summary.p99.as_nanos(), 990);
        assert_eq!(summary.p50.as_nanos(), 500);
        assert_eq!(summary.max.as_nanos(), 1000);
    }

    #[test]
    fn repeated_latencies_share_one_count() {
        // 98 requests at 1 us and two at 5 us: rank 98 (the 99th
        // smallest) is the first 5 us request.
        let summary = LatencySummary::from_counts(&[(1_000, 98), (5_000, 2)], 108_000);
        assert_eq!(
            (summary.count, summary.mean),
            (100, SimDuration::from_nanos(1_080))
        );
        assert_eq!(
            (summary.p50, summary.p99, summary.max),
            (us(1), us(5), us(5))
        );
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
        let text = digest(&[2_000]).to_string();
        assert!(text.contains("n=1") && text.contains("p99="));
    }
}
