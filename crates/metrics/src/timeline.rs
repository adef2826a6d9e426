//! Latency over simulated time: the "episode" view.
//!
//! The paper motivates the dead-value pool partly through performance
//! *consistency*: GC "imposes frequent short episodes of high
//! latencies during the operation time". A [`Timeline`] records
//! (arrival, latency) pairs and aggregates them into fixed wall-clock
//! windows so those episodes are visible. It is also the run's only
//! record of request latencies, from which the write, read and
//! all-request [`LatencySummary`] digests are derived.

use zssd_types::{SimDuration, SimTime};

use crate::LatencySummary;

/// Aggregate of one wall-clock window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStat {
    /// Window start time.
    pub start: SimTime,
    /// Requests arriving in the window.
    pub count: u64,
    /// Mean latency of those requests.
    pub mean: SimDuration,
    /// Worst latency of those requests.
    pub max: SimDuration,
}

/// Every request's (arrival, latency) pair, in request order, with
/// writes and reads held apart — 16 bytes a request.
///
/// # Examples
///
/// ```
/// use zssd_metrics::Timeline;
/// use zssd_types::{SimDuration, SimTime};
///
/// let mut tl = Timeline::new();
/// tl.record_write(SimTime::from_nanos(100), SimDuration::from_micros(10));
/// tl.record_read(SimTime::from_nanos(1_500), SimDuration::from_micros(30));
/// let windows = tl.windows(SimDuration::from_nanos(1_000));
/// assert_eq!(windows.len(), 2);
/// assert_eq!(windows[1].max, SimDuration::from_micros(30));
/// let (write, read, all) = tl.summaries();
/// assert_eq!((write.count, read.count, all.count), (1, 1, 2));
/// assert_eq!(all.mean, SimDuration::from_micros(20));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    writes: Vec<(SimTime, SimDuration)>,
    reads: Vec<(SimTime, SimDuration)>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Records the latency of a write that arrived at `at`.
    pub fn record_write(&mut self, at: SimTime, latency: SimDuration) {
        self.writes.push((at, latency));
    }

    /// Records the latency of a read that arrived at `at`.
    pub fn record_read(&mut self, at: SimTime, latency: SimDuration) {
        self.reads.push((at, latency));
    }

    /// Number of samples, writes and reads together.
    pub fn len(&self) -> usize {
        self.writes.len() + self.reads.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn samples(&self) -> impl Iterator<Item = &(SimTime, SimDuration)> {
        self.writes.iter().chain(&self.reads)
    }

    /// The write, read and all-request latency digests, in that order.
    /// A side with no samples digests to all zero. The only extra
    /// storage is one 8-byte scratch slot per request.
    pub fn summaries(&self) -> (LatencySummary, LatencySummary, LatencySummary) {
        let mut scratch = Vec::with_capacity(self.len());
        scratch.extend(self.samples().map(|&(_, latency)| latency.as_nanos()));
        let (writes, reads) = scratch.split_at_mut(self.writes.len());
        let write = LatencySummary::of(writes);
        let read = LatencySummary::of(reads);
        (write, read, LatencySummary::of(&mut scratch))
    }

    /// Aggregates into consecutive windows of length `window`,
    /// covering `[0, last arrival]`. Empty windows are included with
    /// zero counts so episode gaps stay visible.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn windows(&self, window: SimDuration) -> Vec<WindowStat> {
        assert!(window.as_nanos() > 0, "window must be nonzero");
        let Some(last) = self.samples().map(|&(at, _)| at).max() else {
            return Vec::new();
        };
        let n = (last.as_nanos() / window.as_nanos() + 1) as usize;
        let mut counts = vec![0u64; n];
        let mut sums = vec![0u128; n];
        let mut maxes = vec![0u64; n];
        for &(at, latency) in self.samples() {
            let idx = (at.as_nanos() / window.as_nanos()) as usize;
            counts[idx] += 1;
            sums[idx] += u128::from(latency.as_nanos());
            maxes[idx] = maxes[idx].max(latency.as_nanos());
        }
        (0..n)
            .map(|i| WindowStat {
                start: SimTime::from_nanos(i as u64 * window.as_nanos()),
                count: counts[i],
                mean: if counts[i] == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos((sums[i] / u128::from(counts[i])) as u64)
                },
                max: SimDuration::from_nanos(maxes[i]),
            })
            .collect()
    }

    /// Fraction of windows whose worst latency exceeds `threshold` —
    /// a scalar "episode frequency" for comparisons.
    pub fn episode_fraction(&self, window: SimDuration, threshold: SimDuration) -> f64 {
        let windows = self.windows(window);
        if windows.is_empty() {
            return 0.0;
        }
        let episodes = windows.iter().filter(|w| w.max > threshold).count();
        episodes as f64 / windows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn windows_partition_by_arrival_time() {
        let mut tl = Timeline::new();
        tl.record_write(SimTime::from_nanos(0), us(1));
        tl.record_read(SimTime::from_nanos(999), us(3));
        tl.record_write(SimTime::from_nanos(2_500), us(7));
        let w = tl.windows(SimDuration::from_nanos(1_000));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].count, 2);
        assert_eq!(w[0].mean, us(2));
        assert_eq!(w[0].max, us(3));
        assert_eq!(w[1].count, 0);
        assert_eq!(w[1].max, SimDuration::ZERO);
        assert_eq!(w[2].count, 1);
        assert_eq!(w[2].mean, us(7));
    }

    #[test]
    fn episode_fraction_counts_bad_windows() {
        let mut tl = Timeline::new();
        for i in 0..10u64 {
            let latency = if i == 3 || i == 7 { us(100) } else { us(1) };
            tl.record_write(SimTime::from_nanos(i * 1_000), latency);
        }
        let frac = tl.episode_fraction(SimDuration::from_nanos(1_000), us(50));
        assert!((frac - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_is_benign() {
        let tl = Timeline::new();
        assert!(tl.is_empty());
        assert!(tl.windows(us(1)).is_empty());
        assert_eq!(tl.episode_fraction(us(1), us(1)), 0.0);
    }

    #[test]
    fn summaries_of_writes_only() {
        let mut tl = Timeline::new();
        for v in [400, 100, 300, 200] {
            tl.record_write(SimTime::ZERO, us(v));
        }
        let (write, read, all) = tl.summaries();
        assert_eq!(
            (write.count, write.mean, write.p50, write.p99, write.max),
            (4, us(250), us(200), us(400), us(400))
        );
        assert_eq!(read, LatencySummary::default());
        assert_eq!(all, write);
    }

    #[test]
    fn summaries_of_reads_only() {
        let mut tl = Timeline::new();
        for v in [5, 1, 3] {
            tl.record_read(SimTime::ZERO, us(v));
        }
        let (write, read, all) = tl.summaries();
        assert_eq!(write, LatencySummary::default());
        assert_eq!(
            (read.count, read.mean, read.p50, read.p99, read.max),
            (3, us(3), us(3), us(5), us(5))
        );
        assert_eq!(all, read);
    }

    #[test]
    fn summaries_of_nothing_are_all_zero() {
        let zero = LatencySummary::default();
        assert_eq!(Timeline::new().summaries(), (zero, zero, zero));
    }

    #[test]
    fn all_request_digest_covers_both_sides() {
        let mut tl = Timeline::new();
        for v in [3, 1, 2] {
            tl.record_write(SimTime::ZERO, us(v));
        }
        tl.record_read(SimTime::ZERO, us(20));
        tl.record_read(SimTime::ZERO, us(10));
        let (write, read, all) = tl.summaries();
        assert_eq!((write.count, read.count, read.p50), (3, 2, us(10)));
        assert_eq!(
            (all.count, all.mean, all.p50, all.p99, all.max),
            (5, SimDuration::from_nanos(7_200), us(3), us(20), us(20))
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_window_rejected() {
        let mut tl = Timeline::new();
        tl.record_write(SimTime::ZERO, us(1));
        let _ = tl.windows(SimDuration::ZERO);
    }
}
