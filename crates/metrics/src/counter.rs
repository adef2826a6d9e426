//! The paper's comparison metric: reduction against a baseline.

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
    fn reduction_pct_basic() {
        assert_eq!(reduction_pct(100.0, 71.0), 29.0);
        assert_eq!(reduction_pct(100.0, 100.0), 0.0);
        assert!(reduction_pct(100.0, 130.0) < 0.0);
    }
}
