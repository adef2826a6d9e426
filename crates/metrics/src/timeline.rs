//! Latency over simulated time: the "episode" view.
//!
//! The paper motivates the dead-value pool partly through performance
//! *consistency*: GC "imposes frequent short episodes of high
//! latencies during the operation time". A [`Timeline`] aggregates
//! request latencies into fixed wall-clock windows as they are
//! recorded, so those episodes are visible. It is also the run's only
//! record of request latencies: it counts each distinct latency per
//! request kind, from which the write, read and all-request
//! [`LatencySummary`] digests are derived exactly.

use std::collections::BTreeMap;

use zssd_types::{FxHashMap, SimDuration, SimTime};

use crate::LatencySummary;

/// The width of the windows a [`Timeline`] aggregates into as it
/// records (250 ms of simulated time). Every experiment export buckets
/// at this width, so GC-episode series from different tools line up
/// bucket for bucket; [`Timeline::windows`] serves its multiples.
pub const METRICS_WINDOW: SimDuration = SimDuration::from_millis(250);

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

/// Exact request counts per distinct latency of one request kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Digest {
    /// Requests per distinct latency in nanoseconds.
    counts: FxHashMap<u64, u64>,
    /// Requests recorded.
    len: u64,
    /// Exact sum of their latencies in nanoseconds.
    sum: u128,
}

impl Digest {
    fn add(&mut self, ns: u64) {
        *self.counts.entry(ns).or_insert(0) += 1;
        self.len += 1;
        self.sum += u128::from(ns);
    }

    /// The `(latency, count)` pairs in latency order.
    fn sorted(&self) -> Vec<(u64, u64)> {
        let mut counts: Vec<(u64, u64)> = self.counts.iter().map(|(&ns, &n)| (ns, n)).collect();
        counts.sort_unstable();
        counts
    }
}

/// Count, latency sum and worst latency of the requests that arrived
/// in one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Window {
    count: u64,
    sum: u128,
    max: u64,
}

impl Window {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.sum += u128::from(ns);
        self.max = self.max.max(ns);
    }

    fn merge(&mut self, other: &Window) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    fn stat(&self, start: u64) -> WindowStat {
        WindowStat {
            start: SimTime::from_nanos(start),
            count: self.count,
            mean: if self.count == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos((self.sum / u128::from(self.count)) as u64)
            },
            max: SimDuration::from_nanos(self.max),
        }
    }
}

/// Request latencies, aggregated as they are recorded: per request
/// kind, a count of each distinct latency and their exact sum; per
/// [`METRICS_WINDOW`] that received a request, its count, latency sum
/// and worst latency. The memory grows with the distinct latencies and
/// the busy windows, not with the requests.
///
/// # Examples
///
/// ```
/// use zssd_metrics::{Timeline, METRICS_WINDOW};
/// use zssd_types::{SimDuration, SimTime};
///
/// let mut tl = Timeline::new();
/// tl.record_write(SimTime::from_nanos(100), SimDuration::from_micros(10));
/// tl.record_read(SimTime::ZERO + METRICS_WINDOW, SimDuration::from_micros(30));
/// let windows = tl.windows(METRICS_WINDOW);
/// assert_eq!(windows.len(), 2);
/// assert_eq!(windows[1].max, SimDuration::from_micros(30));
/// let (write, read, all) = tl.summaries();
/// assert_eq!((write.count, read.count, all.count), (1, 1, 2));
/// assert_eq!(all.mean, SimDuration::from_micros(20));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    writes: Digest,
    reads: Digest,
    /// The busy windows, keyed by arrival time over [`METRICS_WINDOW`].
    windows: BTreeMap<u64, Window>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Records the latency of a write that arrived at `at`.
    pub fn record_write(&mut self, at: SimTime, latency: SimDuration) {
        self.writes.add(latency.as_nanos());
        self.add_to_window(at, latency.as_nanos());
    }

    /// Records the latency of a read that arrived at `at`.
    pub fn record_read(&mut self, at: SimTime, latency: SimDuration) {
        self.reads.add(latency.as_nanos());
        self.add_to_window(at, latency.as_nanos());
    }

    fn add_to_window(&mut self, at: SimTime, ns: u64) {
        let index = at.as_nanos() / METRICS_WINDOW.as_nanos();
        // Arrivals mostly move forward, so the latest window is the
        // one to try first; an earlier stamp finds its own.
        if let Some(mut latest) = self.windows.last_entry() {
            if *latest.key() == index {
                latest.get_mut().add(ns);
                return;
            }
        }
        self.windows.entry(index).or_default().add(ns);
    }

    /// Number of requests recorded, writes and reads together.
    pub fn len(&self) -> usize {
        (self.writes.len + self.reads.len) as usize
    }

    /// Whether no requests were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The write, read and all-request latency digests, in that order.
    /// A side with no requests digests to all zero.
    pub fn summaries(&self) -> (LatencySummary, LatencySummary, LatencySummary) {
        let writes = self.writes.sorted();
        let reads = self.reads.sorted();
        let mut all = [writes.as_slice(), reads.as_slice()].concat();
        all.sort_unstable();
        (
            LatencySummary::from_counts(&writes, self.writes.sum),
            LatencySummary::from_counts(&reads, self.reads.sum),
            LatencySummary::from_counts(&all, self.writes.sum + self.reads.sum),
        )
    }

    /// The windows of length `window` that received a request, in time
    /// order: [`Timeline::windows`] without the empty ones.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is a nonzero multiple of
    /// [`METRICS_WINDOW`].
    fn busy_windows(&self, window: SimDuration) -> Vec<WindowStat> {
        let base = METRICS_WINDOW.as_nanos();
        assert!(
            window.as_nanos() > 0 && window.as_nanos().is_multiple_of(base),
            "window must be a nonzero multiple of {METRICS_WINDOW}, got {window}"
        );
        let factor = window.as_nanos() / base;
        let mut busy: Vec<(u64, Window)> = Vec::new();
        for (&index, w) in &self.windows {
            match busy.last_mut() {
                Some((last, merged)) if *last == index / factor => merged.merge(w),
                _ => busy.push((index / factor, *w)),
            }
        }
        busy.iter()
            .map(|(index, w)| w.stat(index * window.as_nanos()))
            .collect()
    }

    /// Aggregates into consecutive windows of length `window`,
    /// covering `[0, last arrival]`. Empty windows are included with
    /// zero counts so episode gaps stay visible.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is a nonzero multiple of
    /// [`METRICS_WINDOW`].
    pub fn windows(&self, window: SimDuration) -> Vec<WindowStat> {
        let busy = self.busy_windows(window);
        let Some(last) = busy.last() else {
            return Vec::new();
        };
        let n = last.start.as_nanos() / window.as_nanos() + 1;
        let mut windows = Vec::with_capacity(n as usize);
        for stat in busy {
            let index = stat.start.as_nanos() / window.as_nanos();
            windows.extend(
                (windows.len() as u64..index)
                    .map(|i| Window::default().stat(i * window.as_nanos())),
            );
            windows.push(stat);
        }
        windows
    }

    /// Fraction of windows whose worst latency exceeds `threshold` —
    /// a scalar "episode frequency" for comparisons. The windows are
    /// those of [`Timeline::windows`], empty ones included.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is a nonzero multiple of
    /// [`METRICS_WINDOW`].
    pub fn episode_fraction(&self, window: SimDuration, threshold: SimDuration) -> f64 {
        let busy = self.busy_windows(window);
        let Some(last) = busy.last() else {
            return 0.0;
        };
        let windows = last.start.as_nanos() / window.as_nanos() + 1;
        let episodes = busy.iter().filter(|w| w.max > threshold).count();
        episodes as f64 / windows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    /// The start of base window `i`.
    fn window(i: u64) -> SimTime {
        SimTime::from_nanos(i * METRICS_WINDOW.as_nanos())
    }

    #[test]
    fn windows_partition_by_arrival_time() {
        let mut tl = Timeline::new();
        tl.record_write(window(0), us(1));
        tl.record_read(SimTime::from_nanos(METRICS_WINDOW.as_nanos() - 1), us(3));
        tl.record_write(window(2) + SimDuration::from_millis(100), us(7));
        let w = tl.windows(METRICS_WINDOW);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].count, 2);
        assert_eq!(w[0].mean, us(2));
        assert_eq!(w[0].max, us(3));
        assert_eq!(w[1].count, 0);
        assert_eq!(w[1].max, SimDuration::ZERO);
        assert_eq!(w[2].count, 1);
        assert_eq!(w[2].mean, us(7));
        assert_eq!(w[2].start, window(2));
    }

    #[test]
    fn wider_windows_merge_base_windows() {
        let mut tl = Timeline::new();
        tl.record_write(window(5), us(9));
        tl.record_write(window(1), us(1));
        tl.record_read(window(0), us(5));
        let w = tl.windows(METRICS_WINDOW.mul(2));
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].count, w[0].mean, w[0].max), (2, us(3), us(5)));
        assert_eq!((w[1].count, w[1].start), (0, window(2)));
        assert_eq!((w[2].count, w[2].start, w[2].max), (1, window(4), us(9)));
        assert_eq!(tl.busy_windows(METRICS_WINDOW.mul(2)).len(), 2);
    }

    #[test]
    fn episode_fraction_counts_bad_windows() {
        let mut tl = Timeline::new();
        for i in 0..10u64 {
            let latency = if i == 3 || i == 7 { us(100) } else { us(1) };
            tl.record_write(window(i), latency);
        }
        let frac = tl.episode_fraction(METRICS_WINDOW, us(50));
        assert!((frac - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_is_benign() {
        let tl = Timeline::new();
        assert!(tl.is_empty());
        assert!(tl.windows(METRICS_WINDOW).is_empty());
        assert_eq!(tl.episode_fraction(METRICS_WINDOW, us(1)), 0.0);
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
    fn a_stamp_near_the_end_of_the_clock_holds_one_window() {
        let at = SimTime::from_nanos(1 << 63);
        let mut tl = Timeline::new();
        tl.record_write(at, us(40));
        let busy = tl.busy_windows(METRICS_WINDOW);
        assert_eq!(busy.len(), 1);
        let start = (1 << 63) / METRICS_WINDOW.as_nanos() * METRICS_WINDOW.as_nanos();
        assert_eq!(busy[0].start, SimTime::from_nanos(start));
        assert_eq!(
            (busy[0].count, busy[0].mean, busy[0].max),
            (1, us(40), us(40))
        );
        let (write, read, all) = tl.summaries();
        assert_eq!((write.count, write.p50, write.p99), (1, us(40), us(40)));
        assert_eq!(read, LatencySummary::default());
        assert_eq!(all, write);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_window_rejected() {
        let mut tl = Timeline::new();
        tl.record_write(SimTime::ZERO, us(1));
        let _ = tl.windows(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "multiple of 250.000ms")]
    fn window_off_the_base_width_rejected() {
        let mut tl = Timeline::new();
        tl.record_write(SimTime::ZERO, us(1));
        let _ = tl.windows(SimDuration::from_millis(300));
    }
}
