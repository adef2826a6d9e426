//! Garbage-collection victim selection.

use core::fmt;

use zssd_core::DeadValuePool;
use zssd_flash::{BlockId, FlashArray};

/// Chooses which full block of a plane to reclaim.
///
/// Implementations see the flash occupancy and the dead-value pool (to
/// weigh popular garbage). Only *full* blocks (no free pages) with at
/// least one invalid page are legal victims, and the plane's active
/// block is excluded by the caller.
pub trait GcPolicy: fmt::Debug {
    /// Selects a victim block in `plane`, or `None` if no block is
    /// reclaimable.
    fn select_victim(
        &self,
        flash: &FlashArray,
        plane: u64,
        exclude: Option<BlockId>,
        pool: &dyn DeadValuePool,
    ) -> Option<BlockId>;
}

/// Iterates the candidate blocks of a plane: full, with invalid pages,
/// and not the active block.
fn candidates(
    flash: &FlashArray,
    plane: u64,
    exclude: Option<BlockId>,
) -> impl Iterator<Item = (BlockId, u32, u64)> + '_ {
    let geometry = flash.geometry();
    let bpp = u64::from(geometry.blocks_per_plane());
    (plane * bpp..(plane + 1) * bpp).filter_map(move |b| {
        let block = BlockId::new(b);
        if exclude == Some(block) {
            return None;
        }
        let info = flash.block_info(block).expect("block within device");
        if info.is_full() && info.invalid_pages > 0 {
            Some((block, info.invalid_pages, info.erase_count))
        } else {
            None
        }
    })
}

/// The conventional greedy selector: most invalid pages wins (ties
/// break toward the least-worn block, a mild wear-levelling bias).
///
/// # Examples
///
/// ```
/// use zssd_ftl::GreedyGc;
/// let gc = GreedyGc::new();
/// assert_eq!(format!("{gc:?}"), "GreedyGc");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyGc;

impl GreedyGc {
    /// Creates the greedy selector.
    pub fn new() -> Self {
        GreedyGc
    }
}

impl GcPolicy for GreedyGc {
    fn select_victim(
        &self,
        flash: &FlashArray,
        plane: u64,
        exclude: Option<BlockId>,
        _pool: &dyn DeadValuePool,
    ) -> Option<BlockId> {
        candidates(flash, plane, exclude)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|(block, _, _)| block)
    }
}

/// The paper's §IV-D selector: "instead of selecting a block with most
/// number of invalid/garbage pages, we calculate the new
/// popularity-aware metric which relates to the weighted sum of
/// popularity degrees of garbage pages in a block".
///
/// Score = `invalid_pages − weight · Σ pop(garbage page in pool)/255`;
/// the highest score wins, so blocks full of *popular* garbage (likely
/// to be revived soon) are erased later.
#[derive(Debug, Clone, Copy)]
pub struct PopularityAwareGc {
    weight: f64,
}

impl PopularityAwareGc {
    /// Creates the selector with the given popularity penalty weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn new(weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative"
        );
        PopularityAwareGc { weight }
    }

    /// The configured weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

impl Default for PopularityAwareGc {
    fn default() -> Self {
        PopularityAwareGc::new(2.0)
    }
}

/// How many top-by-invalid-count candidates get the full per-page
/// popularity scoring. A block outside this set has fewer invalid
/// pages than every block inside it, so its score (≤ its invalid
/// count) can only win when the popular-garbage penalty demotes all of
/// them — rare enough that bounding the scan preserves the policy
/// while keeping victim selection O(blocks + K·pages).
const SCORED_CANDIDATES: usize = 12;

impl GcPolicy for PopularityAwareGc {
    fn select_victim(
        &self,
        flash: &FlashArray,
        plane: u64,
        exclude: Option<BlockId>,
        pool: &dyn DeadValuePool,
    ) -> Option<BlockId> {
        let geometry = flash.geometry();
        let mut top: Vec<(BlockId, u32, u64)> = candidates(flash, plane, exclude).collect();
        top.sort_unstable_by_key(|&(_, invalid, _)| std::cmp::Reverse(invalid));
        top.truncate(SCORED_CANDIDATES);
        top.into_iter()
            .map(|(block, invalid, wear)| {
                let popular: f64 = geometry
                    .pages_of(block)
                    .filter_map(|ppn| pool.garbage_weight(ppn))
                    .map(|pop| f64::from(pop.get()) / 255.0)
                    .sum();
                let score = f64::from(invalid) - self.weight * popular;
                (block, score, wear)
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("scores are finite")
                    .then(b.2.cmp(&a.2))
            })
            .map(|(block, _, _)| block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_core::{DeadValuePool, MqConfig, MqDeadValuePool, NoPool};
    use zssd_flash::{FlashTiming, Geometry};
    use zssd_types::{Fingerprint, Lpn, PopularityDegree, Ppn, SimTime, ValueId, WriteClock};

    /// One plane, 3 blocks of 4 pages.
    fn setup() -> FlashArray {
        let geom = Geometry::new(1, 1, 1, 1, 3, 4).expect("valid geometry");
        FlashArray::new(geom, FlashTiming::paper_table1())
    }

    /// Fills a block and invalidates `kill` of its pages.
    fn fill_block(flash: &mut FlashArray, block: u64, kill: usize) {
        let block = BlockId::new(block);
        let pages: Vec<Ppn> = flash.geometry().pages_of(block).collect();
        for _ in &pages {
            flash.program_next(block, SimTime::ZERO).expect("program");
        }
        for ppn in pages.into_iter().take(kill) {
            flash.invalidate_page(ppn).expect("invalidate");
        }
    }

    #[test]
    fn greedy_picks_most_invalid() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 1);
        fill_block(&mut flash, 1, 3);
        fill_block(&mut flash, 2, 2);
        let victim = GreedyGc::new().select_victim(&flash, 0, None, &NoPool::new());
        assert_eq!(victim, Some(BlockId::new(1)));
    }

    #[test]
    fn greedy_skips_excluded_and_unfull_blocks() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 2);
        fill_block(&mut flash, 1, 3);
        // Block 2 is only partially programmed (3 of 4 pages), yet all
        // of its written pages are invalid — the most garbage in the
        // plane. Unfull, so it must never be a candidate.
        let block2 = BlockId::new(2);
        let pages: Vec<Ppn> = flash.geometry().pages_of(block2).take(3).collect();
        for _ in &pages {
            flash.program_next(block2, SimTime::ZERO).expect("program");
        }
        for ppn in pages {
            flash.invalidate_page(ppn).expect("invalidate");
        }
        // Without exclusion: block 1 wins (full, 3 invalid); block 2's
        // 3 invalid pages don't count because it is not full.
        let victim = GreedyGc::new().select_victim(&flash, 0, None, &NoPool::new());
        assert_eq!(victim, Some(BlockId::new(1)));
        // Excluding block 1 (the active block): selection falls back to
        // block 0 (2 invalid), still skipping the garbage-richer but
        // unfull block 2.
        let fallback =
            GreedyGc::new().select_victim(&flash, 0, Some(BlockId::new(1)), &NoPool::new());
        assert_eq!(fallback, Some(BlockId::new(0)));
    }

    #[test]
    fn greedy_returns_none_without_reclaimable_blocks() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 0); // full but fully valid
        let victim = GreedyGc::new().select_victim(&flash, 0, None, &NoPool::new());
        assert_eq!(victim, None);
    }

    #[test]
    fn popularity_aware_protects_popular_garbage() {
        let mut flash = setup();
        // Block 0: 3 invalid pages, all holding *popular* values.
        // Block 1: 2 invalid pages of cold values.
        fill_block(&mut flash, 0, 3);
        fill_block(&mut flash, 1, 2);
        let mut pool = MqDeadValuePool::new(MqConfig::ideal());
        for ppn in 0..3u64 {
            pool.insert_dead(
                Fingerprint::of_value(ValueId::new(ppn)),
                Ppn::new(ppn),
                Lpn::new(ppn),
                PopularityDegree::new(255),
                WriteClock::ZERO,
            );
        }
        // Greedy would take block 0 (3 invalid > 2); the §IV-D metric
        // penalizes its popular garbage: 3 - 2.0*3.0 = -3 < 2 - 0 = 2.
        let greedy = GreedyGc::new().select_victim(&flash, 0, None, &pool);
        assert_eq!(greedy, Some(BlockId::new(0)));
        let aware = PopularityAwareGc::new(2.0).select_victim(&flash, 0, None, &pool);
        assert_eq!(aware, Some(BlockId::new(1)));
    }

    #[test]
    fn popularity_aware_with_zero_weight_is_greedy() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 3);
        fill_block(&mut flash, 1, 2);
        let aware = PopularityAwareGc::new(0.0).select_victim(&flash, 0, None, &NoPool::new());
        assert_eq!(aware, Some(BlockId::new(0)));
        assert_eq!(PopularityAwareGc::default().weight(), 2.0);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn negative_weight_rejected() {
        let _ = PopularityAwareGc::new(-0.5);
    }
}
