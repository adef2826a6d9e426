//! Popularity share curves (Fig 3 of the paper).
//!
//! Figure 3 sorts unique values by write count (descending) and plots
//! the cumulative share of writes / invalidations / rebirths they
//! account for — a Lorenz-style curve showing, e.g., that "around 20%
//! of the values account for almost 80% of the writes".

use core::fmt;

/// One point on a [`ShareCurve`]: the top `item_frac` of items account
/// for `event_frac` of all events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharePoint {
    /// Fraction of items considered (top-k by weight), in `(0, 1]`.
    pub item_frac: f64,
    /// Fraction of total events those items account for, in `[0, 1]`.
    pub event_frac: f64,
}

/// A cumulative-share curve over weighted items.
///
/// # Examples
///
/// ```
/// use zssd_metrics::ShareCurve;
/// // 4 values with write counts 8, 1, 1, 0.
/// let curve = ShareCurve::from_weights([8u64, 1, 1, 0]);
/// // The single most-written value (top 25%) has 80% of the writes.
/// assert_eq!(curve.share_of_top(0.25), 0.8);
/// assert_eq!(curve.share_of_top(1.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShareCurve {
    /// Weights sorted descending.
    sorted_desc: Vec<u64>,
    total: u128,
}

impl ShareCurve {
    /// Builds a curve from per-item event counts. Items are sorted by
    /// weight descending internally (the paper's x-axis ordering).
    pub fn from_weights<I: IntoIterator<Item = u64>>(weights: I) -> Self {
        let mut sorted_desc: Vec<u64> = weights.into_iter().collect();
        sorted_desc.sort_unstable_by(|a, b| b.cmp(a));
        let total = sorted_desc.iter().map(|&w| u128::from(w)).sum();
        ShareCurve { sorted_desc, total }
    }

    /// Builds a curve from per-item counts keyed by the *same* item
    /// order as another curve's descending-weight order. Used when
    /// Fig 3(b)/(c) plot invalidations/rebirths but keep the x-axis
    /// sorted by write count: pass `(write_count, event_count)` pairs.
    ///
    /// Items are ordered by write count descending; items with equal
    /// write counts are ordered by event count descending. The order
    /// is a function of the pairs alone, so the curve does not depend
    /// on the order they arrive in (e.g. a hash map's).
    pub fn from_keyed_weights<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Self {
        let mut keyed: Vec<(u64, u64)> = pairs.into_iter().collect();
        keyed.sort_unstable_by(|a, b| b.cmp(a));
        let sorted_desc: Vec<u64> = keyed.into_iter().map(|(_, e)| e).collect();
        let total = sorted_desc.iter().map(|&w| u128::from(w)).sum();
        ShareCurve { sorted_desc, total }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.sorted_desc.len()
    }

    /// Whether the curve holds no items.
    pub fn is_empty(&self) -> bool {
        self.sorted_desc.is_empty()
    }

    /// Share of all events accounted for by the top `item_frac` of
    /// items (by the curve's ordering). Returns 0 for an empty curve.
    ///
    /// # Panics
    ///
    /// Panics if `item_frac` is outside `[0, 1]`.
    pub fn share_of_top(&self, item_frac: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&item_frac),
            "item fraction {item_frac} outside [0, 1]"
        );
        if self.sorted_desc.is_empty() || self.total == 0 {
            return 0.0;
        }
        let k = ((item_frac * self.sorted_desc.len() as f64).round() as usize)
            .min(self.sorted_desc.len());
        let top: u128 = self.sorted_desc[..k].iter().map(|&w| u128::from(w)).sum();
        top as f64 / self.total as f64
    }

    /// Samples the curve at `n` evenly spaced item fractions,
    /// returning `(item_frac, event_frac)` points.
    pub fn sample(&self, n: usize) -> Vec<SharePoint> {
        (1..=n)
            .map(|i| {
                let item_frac = i as f64 / n as f64;
                SharePoint {
                    item_frac,
                    event_frac: self.share_of_top(item_frac),
                }
            })
            .collect()
    }

    /// Smallest item fraction whose share reaches `event_frac`
    /// (e.g. "what fraction of values produce 80% of writes?").
    /// Returns 1.0 if never reached (all-zero weights).
    pub fn items_for_share(&self, event_frac: f64) -> f64 {
        if self.sorted_desc.is_empty() || self.total == 0 {
            return 1.0;
        }
        let target = event_frac * self.total as f64;
        let mut acc: u128 = 0;
        for (i, &w) in self.sorted_desc.iter().enumerate() {
            acc += u128::from(w);
            if acc as f64 >= target {
                return (i + 1) as f64 / self.sorted_desc.len() as f64;
            }
        }
        1.0
    }
}

impl fmt::Display for ShareCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.sample(10) {
            writeln!(
                f,
                "top {:>5.1}% -> {:>5.1}%",
                p.item_frac * 100.0,
                p.event_frac * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_weights_show_pareto_shape() {
        let curve = ShareCurve::from_weights([80u64, 10, 5, 3, 2]);
        assert_eq!(curve.share_of_top(0.2), 0.8);
        assert_eq!(curve.share_of_top(1.0), 1.0);
        assert_eq!(curve.items_for_share(0.8), 0.2);
    }

    #[test]
    fn uniform_weights_are_diagonal() {
        let curve = ShareCurve::from_weights(vec![5u64; 10]);
        assert!((curve.share_of_top(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn keyed_weights_keep_write_ordering() {
        // Item A: 10 writes, 1 rebirth. Item B: 1 write, 9 rebirths.
        // Sorted by writes, the top-50% item contributes 1 of 10 rebirths.
        let curve = ShareCurve::from_keyed_weights([(10u64, 1u64), (1, 9)]);
        assert_eq!(curve.share_of_top(0.5), 0.1);
    }

    #[test]
    fn keyed_weights_ignore_input_order() {
        // Four items tie at 5 writes; the top third must not depend on
        // which of them arrives first.
        let pairs = [(5u64, 1u64), (5, 7), (9, 0), (5, 3), (1, 4), (5, 0)];
        let forward = ShareCurve::from_keyed_weights(pairs);
        let backward = ShareCurve::from_keyed_weights(pairs.iter().rev().copied());
        assert_eq!(forward, backward);
        // Top 2 of 6: the 9-write item, then the tied item with most events.
        assert_eq!(forward.share_of_top(1.0 / 3.0), 7.0 / 15.0);
    }

    #[test]
    fn empty_and_zero_total_curves() {
        let empty = ShareCurve::default();
        assert!(empty.is_empty());
        assert_eq!(empty.share_of_top(0.5), 0.0);
        assert_eq!(empty.items_for_share(0.5), 1.0);
        let zeros = ShareCurve::from_weights([0u64, 0]);
        assert_eq!(zeros.share_of_top(1.0), 0.0);
    }

    #[test]
    fn sample_is_monotone_nondecreasing() {
        let curve = ShareCurve::from_weights([9u64, 4, 4, 2, 1, 0]);
        let pts = curve.sample(6);
        assert_eq!(pts.len(), 6);
        for w in pts.windows(2) {
            assert!(w[1].event_frac >= w[0].event_frac);
        }
        assert_eq!(pts.last().expect("nonempty").event_frac, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn share_of_top_validates_fraction() {
        let _ = ShareCurve::from_weights([1u64]).share_of_top(1.5);
    }
}
