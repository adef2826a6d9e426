//! A Zipf(α) sampler over a finite rank space.
//!
//! Value popularity in the paper's traces is highly skewed ("around 20%
//! of the values account for almost 80% of the writes", Fig 3a). A
//! Zipf distribution with exponent near 1 reproduces that shape; the
//! sampler here precomputes the cumulative weights once and draws by
//! guide-table lookup (Chen & Asau's indexed search): a table of `n`
//! equal-probability buckets names the contiguous ranks each draw can
//! land on, so the binary search runs over that short range instead of
//! the whole array. The rank is exactly the one a whole-array search
//! returns, and a draw stays fast for the rank counts the generator
//! uses (≤ a few million).

use rand::Rng;

/// Samples ranks `0..n` with probability proportional to
/// `1 / (rank + 1)^alpha`. Rank 0 is the most popular.
///
/// A draw maps one uniform `u` to the first rank whose cumulative
/// weight reaches `u · total`. A guide table of `n + 1` entries
/// narrows that search to one bucket's ranks; a draw that floating-
/// point rounding puts outside its bucket is searched over the whole
/// array, so the rank is always exact.
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use zssd_trace::ZipfSampler;
///
/// let zipf = ZipfSampler::new(100, 1.0);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    /// `guide[b]`, for `b` in `0..=n`, is the first rank whose
    /// cumulative weight is at least `b / n · total`.
    guide: Vec<u32>,
    alpha: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `alpha ≥ 0`.
    /// `alpha = 0` is uniform; larger values are more skewed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above `u32::MAX`, or if `alpha` is
    /// negative/non-finite.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "rank space must be nonempty");
        assert!(
            n <= u64::from(u32::MAX),
            "rank space must fit the u32 guide table"
        );
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be a finite non-negative number"
        );
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(alpha);
            cumulative.push(total);
        }
        let guide = guide_table(&cumulative);
        ZipfSampler {
            cumulative,
            guide,
            alpha,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.cumulative.len() as u64
    }

    /// Whether the rank space is empty (never true — `new` rejects 0).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The exponent this sampler was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.rank_of(rng.random::<f64>())
    }

    /// The rank a uniform draw `u ∈ [0, 1)` selects: the first whose
    /// cumulative weight reaches `u · total`.
    pub(crate) fn rank_of(&self, u: f64) -> u64 {
        let total = *self.cumulative.last().expect("nonempty rank space");
        let target = u * total;
        let buckets = self.guide.len() - 1;
        let bucket = ((u * buckets as f64) as usize).min(buckets - 1);
        let lo = self.guide[bucket] as usize;
        let hi = self.guide[bucket + 1] as usize + 1;
        // The answer lies in `lo..hi` exactly when
        // `cumulative[lo - 1] < target <= cumulative[hi - 1]`. That
        // fails only if rounding put `target` outside the bucket's
        // edges; then search the whole array.
        if (lo == 0 || self.cumulative[lo - 1] < target) && self.cumulative[hi - 1] >= target {
            (lo + self.cumulative[lo..hi].partition_point(|&c| c < target)) as u64
        } else {
            self.cumulative.partition_point(|&c| c < target) as u64
        }
    }

    /// Probability mass of a rank.
    pub fn probability(&self, rank: u64) -> f64 {
        let total = *self.cumulative.last().expect("nonempty rank space");
        let hi = self.cumulative[rank as usize];
        let lo = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank as usize - 1]
        };
        (hi - lo) / total
    }
}

/// Builds the guide table of `cumulative.len()` equal-probability
/// buckets in one merge-like pass over the nondecreasing weights.
fn guide_table(cumulative: &[f64]) -> Vec<u32> {
    let buckets = cumulative.len();
    let total = cumulative[buckets - 1];
    let mut guide = Vec::with_capacity(buckets + 1);
    let mut rank = 0;
    for b in 0..=buckets {
        // Never beyond `total`, so the walk stops at the last rank.
        let edge = b as f64 / buckets as f64 * total;
        while cumulative[rank] < edge {
            rank += 1;
        }
        guide.push(rank as u32);
    }
    guide
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let zipf = ZipfSampler::new(10, 1.2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(zipf.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn rank_zero_dominates_when_skewed() {
        let zipf = ZipfSampler::new(1000, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut zero = 0;
        let draws = 20_000;
        for _ in 0..draws {
            if zipf.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        let expected = zipf.probability(0) * draws as f64;
        let observed = zero as f64;
        assert!(
            (observed - expected).abs() < expected * 0.25,
            "observed {observed}, expected about {expected}"
        );
        assert!(zipf.probability(0) > zipf.probability(500));
    }

    #[test]
    fn alpha_zero_is_roughly_uniform() {
        let zipf = ZipfSampler::new(4, 0.0);
        assert!((zipf.probability(0) - 0.25).abs() < 1e-12);
        assert!((zipf.probability(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let zipf = ZipfSampler::new(50, 0.8);
        let sum: f64 = (0..50).map(|r| zipf.probability(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(zipf.len(), 50);
        assert!(!zipf.is_empty());
        assert_eq!(zipf.alpha(), 0.8);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_rank_space_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn negative_alpha_rejected() {
        let _ = ZipfSampler::new(1, -1.0);
    }

    #[test]
    #[should_panic(expected = "u32")]
    fn rank_space_beyond_u32_rejected() {
        let _ = ZipfSampler::new(u64::from(u32::MAX) + 1, 1.0);
    }

    /// Checks `rank_of` against a whole-array `partition_point` at
    /// `0`, `1 − 2⁻⁵³`, the given random draws, every bucket edge
    /// `b / n` and the `f64` neighbours on either side of each edge.
    fn assert_exact(zipf: &ZipfSampler, random: &[u64]) {
        let total = *zipf.cumulative.last().unwrap();
        let buckets = zipf.guide.len() - 1;
        let mut draws = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        // The generator's own `u`: 53 random bits scaled to [0, 1).
        draws.extend(
            random
                .iter()
                .map(|&x| (x >> 11) as f64 / (1u64 << 53) as f64),
        );
        for b in 0..=buckets {
            let edge = b as f64 / buckets as f64;
            draws.extend([edge.next_down(), edge, edge.next_up()]);
        }
        for u in draws.into_iter().filter(|u| (0.0..1.0).contains(u)) {
            let target = u * total;
            let expected = zipf.cumulative.partition_point(|&c| c < target) as u64;
            assert_eq!(zipf.rank_of(u), expected, "u = {u:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn rank_of_matches_whole_array_search(
            n in prop_oneof![Just(1u64), Just(2u64), 1u64..5000],
            // α in [0, 3] in steps of 0.001, plus one so large that
            // every weight past rank 0 adds nothing to the total.
            alpha in prop_oneof![
                (0u32..3001).prop_map(|k| f64::from(k) / 1000.0),
                Just(0.0),
                Just(100.0),
            ],
            random in prop::collection::vec(any::<u64>(), 1..200),
        ) {
            assert_exact(&ZipfSampler::new(n, alpha), &random);
        }

        /// Zipf weights almost never put a rank boundary within an ulp
        /// of a bucket edge, so rounding rarely sends a draw outside
        /// its bucket. Equal weights `w ≠ 1` put every boundary on an
        /// edge, where the bucket index (`u · n`) and the target
        /// (`u · n · w`) round differently in about 40% of cases; the
        /// fallback search must still return the exact rank.
        #[test]
        fn rank_of_is_exact_when_rank_boundaries_meet_bucket_edges(
            n in 1u64..5000,
            weight in 2u32..100,
            random in prop::collection::vec(any::<u64>(), 1..200),
        ) {
            let cumulative: Vec<f64> =
                (1..=n).map(|r| r as f64 * f64::from(weight)).collect();
            let zipf = ZipfSampler {
                guide: guide_table(&cumulative),
                cumulative,
                alpha: 0.0,
            };
            assert_exact(&zipf, &random);
        }
    }
}
