//! Empirical cumulative distribution functions.

use core::fmt;

/// An empirical CDF over integer samples.
///
/// Figure 2 of the paper plots "the fraction of values with less than
/// or equal number of invalidations" — exactly [`Cdf::fraction_le`].
///
/// # Examples
///
/// ```
/// use zssd_metrics::Cdf;
/// let cdf = Cdf::from_samples([0u64, 0, 1, 3]);
/// assert_eq!(cdf.fraction_le(0), 0.5);
/// assert_eq!(cdf.fraction_le(2), 0.75);
/// assert_eq!(cdf.fraction_le(3), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cdf {
    sorted: Vec<u64>,
}

impl Cdf {
    /// Builds a CDF from any iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut sorted: Vec<u64> = samples.into_iter().collect();
        sorted.sort_unstable();
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `≤ x`; 0 for an empty CDF.
    pub fn fraction_le(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The smallest sample value `v` with `fraction_le(v) ≥ q`; zero
    /// when empty, matching the all-zero
    /// [`LatencySummary`](crate::LatencySummary) of no samples, so a
    /// zero-read or all-trim workload never crashes report generation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted[nearest_rank(q, self.sorted.len())]
    }

    /// Minimum sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.sorted.first().copied()
    }

    /// Maximum sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }

    /// Evaluation points covering the full support: each distinct
    /// sample value paired with its cumulative fraction. Suitable for
    /// plotting or text tables.
    pub fn steps(&self) -> Vec<(u64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let v = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == v {
                j += 1;
            }
            out.push((v, j as f64 / n as f64));
            i = j;
        }
        out
    }
}

impl FromIterator<u64> for Cdf {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Cdf::from_samples(iter)
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "<empty cdf>");
        }
        for (v, frac) in self.steps() {
            writeln!(f, "{:>10}  {:.4}", v, frac)?;
        }
        Ok(())
    }
}

/// The 0-based position of the nearest-rank `q` quantile among `n > 0`
/// sorted samples: the `⌈q·n⌉`-th smallest, at least the first.
pub(crate) fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_le_matches_hand_count() {
        let cdf = Cdf::from_samples([5u64, 1, 1, 2, 9]);
        assert_eq!(cdf.fraction_le(0), 0.0);
        assert_eq!(cdf.fraction_le(1), 0.4);
        assert_eq!(cdf.fraction_le(2), 0.6);
        assert_eq!(cdf.fraction_le(8), 0.8);
        assert_eq!(cdf.fraction_le(100), 1.0);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let cdf: Cdf = (1..=10u64).collect();
        assert_eq!(cdf.quantile(0.1), 1);
        assert_eq!(cdf.quantile(0.5), 5);
        assert_eq!(cdf.quantile(1.0), 10);
        assert_eq!(cdf.min(), Some(1));
        assert_eq!(cdf.max(), Some(10));
    }

    #[test]
    fn steps_collapse_duplicates() {
        let cdf = Cdf::from_samples([2u64, 2, 2, 7]);
        assert_eq!(cdf.steps(), vec![(2, 0.75), (7, 1.0)]);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::default();
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_le(5), 0.0);
        assert_eq!(cdf.min(), None);
        assert_eq!(cdf.to_string(), "<empty cdf>");
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        // Regression: used to panic, crashing report generation for
        // workloads with no samples (e.g. zero reads). The empty case
        // now mirrors the all-zero digest of an empty `LatencySummary`.
        let cdf = Cdf::default();
        assert_eq!(cdf.quantile(0.0), 0);
        assert_eq!(cdf.quantile(0.5), 0);
        assert_eq!(cdf.quantile(1.0), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range_even_when_empty() {
        let _ = Cdf::default().quantile(1.5);
    }
}
