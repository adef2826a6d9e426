//! Garbage-collection victim selection: one total order over a plane's
//! blocks, with the paper's popularity score on top of it.
//!
//! **The rank.** More invalid pages wins, then less wear (a mild
//! wear-levelling bias), then the higher block id. Greedy selection is
//! the top-ranked candidate.
//!
//! **The score** (§IV-D): "instead of selecting a block with most
//! number of invalid/garbage pages, we calculate the new
//! popularity-aware metric which relates to the weighted sum of
//! popularity degrees of garbage pages in a block". A block scores
//! `255·invalid − w·Σpop`, where Σpop sums the popularity degree of
//! each of its garbage pages the dead-value pool tracks. The highest
//! score wins and equal scores fall back to the rank, so blocks full
//! of *popular* garbage (likely to be revived soon) are erased later.
//! Weight 0 is greedy.
//!
//! **The cost.** Σpop is not recomputed here: the pool keeps it per
//! block ([`DeadValuePool::block_weight`]), updating a block's sum
//! whenever one of its pages enters the pool, leaves it, or changes
//! popularity. Scoring a candidate is one array read, so a selection
//! is one O(blocks) pass over the plane's block counters, greedy or
//! not.

use std::cmp::Reverse;

use zssd_core::DeadValuePool;
use zssd_flash::{BlockId, BlockInfo, FlashArray};

/// A block's place in the victim order; the greatest rank wins:
/// `(invalid pages, Reverse(erase count), block)`.
type Rank = (u32, Reverse<u64>, BlockId);

/// How many top-ranked candidates get the popularity score. This
/// shortlist is part of the victim policy, not only a saving: a block
/// outside it is never chosen, even when the popular-garbage penalty
/// demotes every block inside it below that block's score. Scoring
/// every candidate instead changes the results (at default scale,
/// web × MQ-DVP's write reduction moves from 32.6% to 33.5%, and
/// `gc_tuning` at w = 8 erases 1 362 blocks instead of 919), so it
/// bounds how far the weight can push a collection away from greedy. The selector keeps
/// the set in a fixed-size array during its one O(blocks) pass, and
/// reads each member's Σpop from the pool's per-block sums.
const SCORED_CANDIDATES: usize = 12;

/// Ranks the blocks of `plane` that `admit` accepts.
fn ranked<'a>(
    flash: &'a FlashArray,
    plane: u64,
    admit: impl Fn(BlockId, &BlockInfo) -> bool + 'a,
) -> impl Iterator<Item = Rank> + 'a {
    let bpp = u64::from(flash.geometry().blocks_per_plane());
    (plane * bpp..(plane + 1) * bpp).filter_map(move |b| {
        let block = BlockId::new(b);
        let info = flash.block_info(block);
        admit(block, &info).then_some((info.invalid_pages, Reverse(info.erase_count), block))
    })
}

/// Chooses the block of `plane` to reclaim, or `None` if none is
/// reclaimable. Candidates are full (no free page), hold at least one
/// invalid page, and are not `exclude` (the plane's active block).
///
/// With `weight` 0 this is greedy: the top-ranked candidate, found in
/// one pass without reading `pool`. Otherwise the
/// [`SCORED_CANDIDATES`] top-ranked candidates are scored by
/// `255·invalid − weight·Σpop` (see the module docs).
pub(crate) fn select_victim(
    flash: &FlashArray,
    plane: u64,
    exclude: Option<BlockId>,
    pool: Option<&DeadValuePool>,
    weight: f64,
) -> Option<BlockId> {
    let candidates = ranked(flash, plane, |block, info| {
        info.is_full() && info.invalid_pages > 0 && Some(block) != exclude
    });
    if weight == 0.0 {
        return candidates.max().map(|(_, _, block)| block);
    }
    // The SCORED_CANDIDATES greatest ranks, greatest first. Ranks are
    // distinct (the block id breaks every tie), so a new rank goes
    // before the first lesser one.
    let mut top = [(0, Reverse(0), BlockId::new(0)); SCORED_CANDIDATES];
    let mut len = 0;
    for rank in candidates {
        if len == SCORED_CANDIDATES && rank <= top[len - 1] {
            continue;
        }
        let at = top[..len].partition_point(|&kept| kept > rank);
        len = (len + 1).min(SCORED_CANDIDATES);
        top.copy_within(at..len - 1, at + 1);
        top[at] = rank;
    }
    top[..len]
        .iter()
        .map(|&rank| {
            let popularity = pool.map_or(0, |pool| pool.block_weight(rank.2.index()));
            (
                255.0 * f64::from(rank.0) - weight * f64::from(popularity),
                rank,
            )
        })
        .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, (_, _, block))| block)
}

/// The last-resort victim, for a plane with no free block and no
/// reclaimable full block: the top-ranked block with any invalid page,
/// full or not, the active block included (erase does not need a full
/// block; only programs are sequential).
pub(crate) fn emergency_victim(flash: &FlashArray, plane: u64) -> Option<BlockId> {
    ranked(flash, plane, |_, info| info.invalid_pages > 0)
        .max()
        .map(|(_, _, block)| block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zssd_core::{MqConfig, MqDeadValuePool};
    use zssd_flash::{FlashTiming, Geometry};
    use zssd_types::{Lpn, PopularityDegree, Ppn, SimTime, ValueId, WriteClock};

    /// One plane of `blocks` blocks of 4 pages.
    fn plane_of(blocks: u32) -> FlashArray {
        let geom = Geometry::new(1, 1, 1, 1, blocks, 4).expect("valid geometry");
        FlashArray::new(geom, FlashTiming::paper_table1())
    }

    /// One plane, 3 blocks of 4 pages.
    fn setup() -> FlashArray {
        plane_of(3)
    }

    /// Programs the first `programmed` pages of a block and invalidates
    /// the first `kill` of them.
    fn write_block(flash: &mut FlashArray, block: u64, programmed: usize, kill: usize) {
        let block = BlockId::new(block);
        let pages: Vec<Ppn> = flash.geometry().pages_of(block).take(programmed).collect();
        for _ in &pages {
            let _ = flash.program_next(block, SimTime::ZERO).expect("program");
        }
        for &ppn in pages.iter().take(kill) {
            flash.invalidate_page(ppn).expect("invalidate");
        }
    }

    /// Fills a block and invalidates `kill` of its pages.
    fn fill_block(flash: &mut FlashArray, block: u64, kill: usize) {
        write_block(flash, block, 4, kill);
    }

    /// Raises a block's erase count by `cycles`, leaving it erased.
    fn wear_block(flash: &mut FlashArray, block: u64, cycles: u64) {
        for _ in 0..cycles {
            fill_block(flash, block, 4);
            let _ = flash
                .erase_block(BlockId::new(block), SimTime::ZERO)
                .expect("erase");
        }
    }

    /// A pool holding each of `pages` as garbage of popularity `pop`.
    fn pool_with(pages: impl IntoIterator<Item = (u64, u8)>) -> DeadValuePool {
        let mut pool = MqDeadValuePool::new(MqConfig::ideal(), 4);
        for (ppn, pop) in pages {
            pool.insert_dead(
                ValueId::new(ppn),
                Ppn::new(ppn),
                Lpn::new(ppn),
                PopularityDegree::new(pop),
                WriteClock::ZERO,
            );
        }
        DeadValuePool::Mq(pool)
    }

    fn greedy(flash: &FlashArray, exclude: Option<BlockId>) -> Option<BlockId> {
        select_victim(flash, 0, exclude, None, 0.0)
    }

    #[test]
    fn greedy_picks_most_invalid() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 1);
        fill_block(&mut flash, 1, 3);
        fill_block(&mut flash, 2, 2);
        assert_eq!(greedy(&flash, None), Some(BlockId::new(1)));
    }

    #[test]
    fn greedy_skips_excluded_and_unfull_blocks() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 2);
        fill_block(&mut flash, 1, 3);
        // Block 2 is only partially programmed (3 of 4 pages), yet all
        // of its written pages are invalid — the most garbage in the
        // plane. Unfull, so it must never be a candidate.
        write_block(&mut flash, 2, 3, 3);
        // Without exclusion: block 1 wins (full, 3 invalid); block 2's
        // 3 invalid pages don't count because it is not full.
        assert_eq!(greedy(&flash, None), Some(BlockId::new(1)));
        // Excluding block 1 (the active block): selection falls back to
        // block 0 (2 invalid), still skipping the garbage-richer but
        // unfull block 2.
        assert_eq!(greedy(&flash, Some(BlockId::new(1))), Some(BlockId::new(0)));
        // The emergency path takes any block with garbage: block 2's
        // three invalid pages tie block 1, and the higher id wins.
        assert_eq!(emergency_victim(&flash, 0), Some(BlockId::new(2)));
    }

    #[test]
    fn greedy_returns_none_without_reclaimable_blocks() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 0); // full but fully valid
        assert_eq!(greedy(&flash, None), None);
        assert_eq!(emergency_victim(&flash, 0), None);
    }

    #[test]
    fn popularity_aware_protects_popular_garbage() {
        let mut flash = setup();
        // Block 0: 3 invalid pages, all holding *popular* values.
        // Block 1: 2 invalid pages of cold values.
        fill_block(&mut flash, 0, 3);
        fill_block(&mut flash, 1, 2);
        let pool = pool_with((0..3).map(|ppn| (ppn, 255)));
        // Greedy takes block 0 (3 invalid > 2); the §IV-D metric
        // penalizes its popular garbage:
        // 255·3 − 2·765 = −765 < 255·2 − 0 = 510.
        assert_eq!(
            select_victim(&flash, 0, None, Some(&pool), 0.0),
            Some(BlockId::new(0))
        );
        assert_eq!(
            select_victim(&flash, 0, None, Some(&pool), 2.0),
            Some(BlockId::new(1))
        );
    }

    #[test]
    fn popularity_aware_with_zero_weight_is_greedy() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 3);
        fill_block(&mut flash, 1, 2);
        let popular = pool_with((0..3).map(|ppn| (ppn, 255)));
        for pool in [Some(&popular), None] {
            assert_eq!(
                select_victim(&flash, 0, None, pool, 0.0),
                Some(BlockId::new(0))
            );
        }
    }

    #[test]
    fn equal_invalid_counts_go_to_the_least_worn_block() {
        let mut flash = setup();
        wear_block(&mut flash, 0, 1);
        wear_block(&mut flash, 1, 3);
        wear_block(&mut flash, 2, 2);
        for block in 0..3 {
            fill_block(&mut flash, block, 2);
        }
        assert_eq!(greedy(&flash, None), Some(BlockId::new(0)));
        assert_eq!(emergency_victim(&flash, 0), Some(BlockId::new(0)));
        assert_eq!(
            select_victim(&flash, 0, None, None, 0.5),
            Some(BlockId::new(0))
        );
    }

    #[test]
    fn equal_invalid_counts_and_wear_go_to_the_higher_block_id() {
        let mut flash = setup();
        fill_block(&mut flash, 0, 2);
        fill_block(&mut flash, 1, 2);
        fill_block(&mut flash, 2, 1);
        assert_eq!(greedy(&flash, None), Some(BlockId::new(1)));
        assert_eq!(emergency_victim(&flash, 0), Some(BlockId::new(1)));
        assert_eq!(
            select_victim(&flash, 0, None, None, 0.5),
            Some(BlockId::new(1))
        );
    }

    #[test]
    fn equal_scores_are_broken_by_rank() {
        let mut flash = setup();
        // Block 0: 1 cold invalid page, score 255.
        // Block 1: 3 invalid pages, one of popularity 255, score
        //   255·3 − 1·255 = 510.
        // Block 2: 2 cold invalid pages, score 255·2 = 510.
        // Blocks 1 and 2 tie on score; block 1 ranks higher (more
        // invalid pages) although block 2 has the higher id.
        fill_block(&mut flash, 0, 1);
        fill_block(&mut flash, 1, 3);
        fill_block(&mut flash, 2, 2);
        let pool = pool_with([(4, 255)]);
        assert_eq!(
            select_victim(&flash, 0, None, Some(&pool), 1.0),
            Some(BlockId::new(1))
        );
        // Blocks 0 and 1 both hold 3 invalid pages, one of them
        // popular (score 510), but block 1 is more worn: block 0 ranks
        // higher although its id is lower.
        let mut flash = setup();
        wear_block(&mut flash, 1, 1);
        fill_block(&mut flash, 0, 3);
        fill_block(&mut flash, 1, 3);
        let pool = pool_with([(0, 255), (4, 255)]);
        assert_eq!(
            select_victim(&flash, 0, None, Some(&pool), 1.0),
            Some(BlockId::new(0))
        );
    }

    /// The documented selection, spelled out: sort every candidate by
    /// the rank (invalid descending, wear ascending, id descending);
    /// greedy takes the first, popularity-aware scores the first
    /// [`SCORED_CANDIDATES`] and takes the first of the best score.
    fn brute_force(
        flash: &FlashArray,
        exclude: Option<BlockId>,
        pool: &DeadValuePool,
        weight: f64,
    ) -> Option<BlockId> {
        let mut all: Vec<(BlockId, BlockInfo)> = flash
            .blocks()
            .filter(|&(block, info)| {
                info.is_full() && info.invalid_pages > 0 && Some(block) != exclude
            })
            .collect();
        all.sort_by(|(a, x), (b, y)| {
            y.invalid_pages
                .cmp(&x.invalid_pages)
                .then(x.erase_count.cmp(&y.erase_count))
                .then(b.cmp(a))
        });
        if weight == 0.0 {
            return all.first().map(|&(block, _)| block);
        }
        let mut best: Option<(f64, BlockId)> = None;
        for &(block, info) in all.iter().take(SCORED_CANDIDATES) {
            let mut popularity = 0u64;
            for ppn in flash.geometry().pages_of(block) {
                if let Some(pop) = pool.garbage_weight(ppn) {
                    popularity += u64::from(pop.get());
                }
            }
            let score = 255.0 * f64::from(info.invalid_pages) - weight * popularity as f64;
            if best.is_none_or(|(top, _)| score > top) {
                best = Some((score, block));
            }
        }
        best.map(|(_, block)| block)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Each block is `(erase cycles, programmed pages, invalid
        /// pages, popularity choice)`; programmed counts past 4 fill
        /// the block, and the popularity choice decides whether the
        /// block's garbage is pooled and how popular it is. Up to 48
        /// blocks of 4 pages, two thirds of them full, give many more
        /// than SCORED_CANDIDATES candidates and many rank ties. In `hot`
        /// cases all garbage is pooled at popularity 128 or 255, so at
        /// weight ≥ 2 every score falls with the invalid count and a
        /// block outside the scored set would win if it were scored.
        #[test]
        fn selection_matches_the_brute_force_order(
            blocks in prop::collection::vec((0u64..3, 0usize..12, 0usize..5, 0u8..4), 1..48),
            exclude in 0u64..56,
            weight in 0usize..5,
            hot in 0u8..2,
        ) {
            let mut flash = plane_of(blocks.len() as u32);
            let mut pooled = Vec::new();
            for (b, &(cycles, programmed, kill, pop)) in blocks.iter().enumerate() {
                let b = b as u64;
                wear_block(&mut flash, b, cycles);
                let programmed = programmed.min(4);
                let kill = kill.min(programmed);
                write_block(&mut flash, b, programmed, kill);
                let pop = if hot == 1 {
                    [128, 255][usize::from(pop % 2)]
                } else {
                    [0, 1, 128, 255][usize::from(pop)]
                };
                if pop > 0 {
                    let first = flash.geometry().first_ppn_of(BlockId::new(b)).index();
                    pooled.extend((first..first + kill as u64).map(|ppn| (ppn, pop)));
                }
            }
            let pool = pool_with(pooled);
            // Out-of-range ids exclude nothing.
            let exclude = Some(BlockId::new(exclude));
            for weight in [0.0, [0.5, 1.0, 2.0, 8.0, 1e-3][weight]] {
                prop_assert_eq!(
                    select_victim(&flash, 0, exclude, Some(&pool), weight),
                    brute_force(&flash, exclude, &pool, weight),
                    "weight {}", weight
                );
            }
        }
    }
}
