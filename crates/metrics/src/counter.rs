//! Monotone event counters.

use core::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use zssd_metrics::Counter;
/// let mut writes = Counter::new();
/// writes.add(3);
/// writes.incr();
/// assert_eq!(writes.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Relative reduction of `candidate` with respect to `baseline`, as a
/// percentage in `[−∞, 100]`: `100 · (baseline − candidate) / baseline`.
///
/// This is the quantity every evaluation figure of the paper plots
/// ("reduction in the number of writes", "latency improvement"). A
/// zero baseline yields 0.
///
/// # Examples
///
/// ```
/// use zssd_metrics::reduction_pct;
/// assert_eq!(reduction_pct(200.0, 140.0), 30.0);
/// assert_eq!(reduction_pct(0.0, 10.0), 0.0);
/// ```
pub fn reduction_pct(baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        100.0 * (baseline - candidate) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn reduction_pct_basic() {
        assert_eq!(reduction_pct(100.0, 71.0), 29.0);
        assert_eq!(reduction_pct(100.0, 100.0), 0.0);
        assert!(reduction_pct(100.0, 130.0) < 0.0);
    }
}
