//! The flash array executor: page state plus the busy-until timing
//! model.

use core::fmt;
use core::ops::Range;
use std::error::Error;

use zssd_metrics::Counter;
use zssd_types::{Ppn, SimTime};

use crate::block::{Block, BlockInfo, PageState, Placement};
use crate::fault::{FaultConfig, FaultKind, FaultPlan};
use crate::geometry::{BlockId, Geometry};
use crate::timing::FlashTiming;

/// An illegal flash command. Injected NAND faults are not errors: a
/// command they hit still ran, and reports them in its [`Completion`].
/// A page or block beyond the device is not an error either: the FTL
/// only passes numbers from its own tables, so [`FlashArray`] indexes
/// with them directly and panics on one out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashOpError {
    /// The page was not in the state the operation requires (e.g.
    /// reading a free page, reviving a valid page).
    State {
        /// The page operated on.
        ppn: Ppn,
        /// The state the operation requires.
        expected: PageState,
        /// The state the page was actually in.
        actual: PageState,
    },
    /// An erase targeted a block that still holds valid pages; GC must
    /// relocate them first.
    BlockHasValidPages {
        /// The block targeted.
        block: BlockId,
        /// How many valid pages remain.
        valid_pages: u32,
    },
    /// A program targeted a block with no free pages.
    BlockFull {
        /// The block targeted.
        block: BlockId,
    },
    /// A copyback crossed planes; the internal-data-move command only
    /// works within one plane's page register.
    CrossPlaneCopyback {
        /// The source page.
        src: Ppn,
        /// The destination block (in another plane).
        dest_block: BlockId,
    },
}

impl fmt::Display for FlashOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashOpError::State {
                ppn,
                expected,
                actual,
            } => write!(f, "page {ppn} is {actual}, operation requires {expected}"),
            FlashOpError::BlockHasValidPages { block, valid_pages } => {
                write!(f, "erase of {block} with {valid_pages} valid pages")
            }
            FlashOpError::BlockFull { block } => write!(f, "program into full block {block}"),
            FlashOpError::CrossPlaneCopyback { src, dest_block } => {
                write!(f, "copyback from {src} to {dest_block} crosses planes")
            }
        }
    }
}

impl Error for FlashOpError {}

/// What a flash command reports once it has run: when it completed,
/// and whether an injected NAND fault hit it. A faulted command still
/// spends its full time — the failure only shows in the status poll,
/// so a retry starts at `done`. What the fault did depends on the
/// command:
///
/// * read — an uncorrectable-ECC event forced a second sense and
///   transfer; the data survived;
/// * program, and copyback's program half — the page went
///   [`PageState::Bad`] without ever holding data, and the block's
///   cursor moved past it;
/// * erase — the block did not erase; its page states and wear are
///   unchanged.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the command finished.
    pub done: SimTime,
    /// Whether an injected fault hit the command.
    pub faulted: bool,
}

/// Aggregate operation counters for the whole array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlashStats {
    /// Page reads executed (host + GC relocation reads).
    pub reads: Counter,
    /// Page programs executed (host + GC relocation writes).
    pub programs: Counter,
    /// Block erases executed.
    pub erases: Counter,
    /// Injected program failures (the failed attempts are *not*
    /// counted in [`FlashStats::programs`]).
    pub program_failures: Counter,
    /// Injected erase failures (not counted in [`FlashStats::erases`]).
    pub erase_failures: Counter,
    /// Reads that hit an uncorrectable-ECC event and re-sensed the
    /// page (each costs an extra read pass).
    pub read_retries: Counter,
    /// Blocks permanently removed from service after repeated erase
    /// failures.
    pub retired_blocks: Counter,
}

/// The simulated NAND array: per-page state, per-block wear, and the
/// busy-until timing model that converts operations into completion
/// times.
///
/// Page states live in one flat table indexed by PPN; each block's
/// record holds its counters, its write cursor and its placement
/// (plane, chip, channel), resolved once at construction from
/// [`Geometry::decode`]. No operation divides a PPN: the block of a
/// page is a shift, its offset a mask (see [`Geometry`]).
///
/// Timing model (per operation, all on the simulated wall clock):
///
/// * **read** — the owning chip senses for `tR` as soon as it is free,
///   then the 4 KB transfer serializes on the channel;
/// * **program** — the transfer serializes on the channel, then the
///   chip is busy for `tPROG`;
/// * **erase** — the chip is busy for `tBERS`; channel time is
///   negligible.
///
/// Chips on the same channel overlap their cell operations but contend
/// for the channel; operations on the same chip serialize entirely.
/// Reads that arrive while a program/erase occupies their chip wait —
/// this queueing is the source of the latency the paper attacks.
///
/// State changes that involve no flash command — [`invalidate_page`]
/// (a mapping update) and [`revive_page`] (the paper's short-circuited
/// write) — take zero simulated time here; the controller-side costs
/// (hashing) are charged by the FTL layer, and the completion itself
/// goes through [`controller_complete`] so fast-path requests still
/// queue behind an occupied device.
///
/// [`controller_complete`]: FlashArray::controller_complete
///
/// [`invalidate_page`]: FlashArray::invalidate_page
/// [`revive_page`]: FlashArray::revive_page
#[derive(Debug, Clone)]
pub struct FlashArray {
    geometry: Geometry,
    timing: FlashTiming,
    blocks: Vec<Block>,
    /// Every page's state, indexed by PPN.
    pages: Vec<PageState>,
    chip_busy_until: Vec<SimTime>,
    channel_busy_until: Vec<SimTime>,
    controller_busy_until: SimTime,
    stats: FlashStats,
    fault: FaultPlan,
}

impl FlashArray {
    /// Creates a fully erased array with the given geometry and timing,
    /// injecting no faults.
    pub fn new(geometry: Geometry, timing: FlashTiming) -> Self {
        FlashArray::with_faults(geometry, timing, FaultConfig::none())
    }

    /// Creates a fully erased array whose operations fail according to
    /// the given (seeded, deterministic) fault configuration.
    pub fn with_faults(geometry: Geometry, timing: FlashTiming, faults: FaultConfig) -> Self {
        FlashArray {
            geometry,
            timing,
            blocks: (0..geometry.total_blocks())
                .map(|b| {
                    Block::new(
                        geometry.pages_per_block(),
                        placement(&geometry, BlockId::new(b)),
                    )
                })
                .collect(),
            pages: vec![PageState::Free; geometry.total_pages() as usize],
            chip_busy_until: vec![SimTime::ZERO; geometry.total_chips() as usize],
            channel_busy_until: vec![SimTime::ZERO; geometry.channels() as usize],
            controller_busy_until: SimTime::ZERO,
            stats: FlashStats::default(),
            fault: FaultPlan::new(faults),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The array's timing parameters.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Aggregate operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// The record of the block owning `ppn`.
    fn record_of(&self, ppn: Ppn) -> &Block {
        &self.blocks[self.geometry.block_of(ppn).index() as usize]
    }

    /// The PPN range of a block in the page table.
    fn page_range(&self, block: BlockId) -> Range<usize> {
        let first = self.geometry.first_ppn_of(block).index() as usize;
        first..first + self.geometry.pages_per_block() as usize
    }

    /// A block's record and its page states, borrowed together for the
    /// [`Block`] methods that change pages.
    fn block_mut(&mut self, block: BlockId) -> (&mut Block, &mut [PageState]) {
        let range = self.page_range(block);
        (
            &mut self.blocks[block.index() as usize],
            &mut self.pages[range],
        )
    }

    /// Current state of a page.
    #[inline]
    pub fn page_state(&self, ppn: Ppn) -> PageState {
        self.pages[ppn.index() as usize]
    }

    /// The states of a block's pages, in program order.
    pub fn page_states(&self, block: BlockId) -> &[PageState] {
        // Index the record first: a block number far past the device
        // would otherwise shift into another block's page range.
        let _ = &self.blocks[block.index() as usize];
        &self.pages[self.page_range(block)]
    }

    /// Occupancy snapshot of a block.
    pub fn block_info(&self, block: BlockId) -> BlockInfo {
        self.blocks[block.index() as usize].info()
    }

    /// Wear (erase count) of a block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.blocks[block.index() as usize].erase_count
    }

    /// Number of free (programmable) pages in a block.
    pub fn free_pages_in(&self, block: BlockId) -> u32 {
        self.blocks[block.index() as usize].free_count()
    }

    /// Reads a page. The page must hold data (valid or invalid — GC
    /// may read garbage pages).
    ///
    /// A faulted read hit an uncorrectable-ECC event and cost a full
    /// second sense + transfer pass; the retry always succeeds (the
    /// data survives — the FTL should still relocate it off the
    /// suspect page).
    ///
    /// # Errors
    ///
    /// Returns an error if the page is free or bad.
    pub fn read_page(&mut self, ppn: Ppn, at: SimTime) -> Result<Completion, FlashOpError> {
        let state = self.page_state(ppn);
        if state == PageState::Free || state == PageState::Bad {
            return Err(FlashOpError::State {
                ppn,
                expected: PageState::Valid,
                actual: state,
            });
        }
        let block = self.record_of(ppn);
        let (chip, channel) = (
            block.placement.chip as usize,
            block.placement.channel as usize,
        );
        let sense_start = at.max(self.chip_busy_until[chip]);
        let sense_done = sense_start + self.timing.read;
        let xfer_start = sense_done.max(self.channel_busy_until[channel]);
        let mut done = xfer_start + self.timing.transfer;
        self.stats.reads.incr();
        let faulted = self.fault.decide(FaultKind::Read, ppn.index());
        if faulted {
            // ECC failed on the first sense: sense and transfer again.
            let retry_xfer = (done + self.timing.read).max(self.channel_busy_until[channel]);
            done = retry_xfer + self.timing.transfer;
            self.stats.reads.incr();
            self.stats.read_retries.incr();
        }
        self.chip_busy_until[chip] = done;
        self.channel_busy_until[channel] = done;
        Ok(Completion { done, faulted })
    }

    /// Programs the next sequential page of `block`: the transfer
    /// serializes on the channel, then the chip is busy for `tPROG`.
    /// Returns the page and the command's [`Completion`]; on success the
    /// page becomes [`PageState::Valid`]. A faulted program still spent
    /// the full transfer + `tPROG`, and the caller retries on the
    /// block's next page.
    ///
    /// # Errors
    ///
    /// Returns an error if the block is full.
    pub fn program_next(
        &mut self,
        block: BlockId,
        at: SimTime,
    ) -> Result<(Ppn, Completion), FlashOpError> {
        let (ppn, faulted) = self.program_at_cursor(block)?;
        let placement = self.blocks[block.index() as usize].placement;
        let (chip, channel) = (placement.chip as usize, placement.channel as usize);
        let xfer_start = at
            .max(self.chip_busy_until[chip])
            .max(self.channel_busy_until[channel]);
        let xfer_done = xfer_start + self.timing.transfer;
        let done = xfer_done + self.timing.program;
        self.channel_busy_until[channel] = xfer_done;
        self.chip_busy_until[chip] = done;
        Ok((ppn, Completion { done, faulted }))
    }

    /// The page-state half of every program, shared by
    /// [`program_next`](FlashArray::program_next) and
    /// [`copyback_page`](FlashArray::copyback_page): checks that `block`
    /// has a free page, decides whether the program fails,
    /// marks the page at the write cursor valid (or bad) and counts the
    /// outcome. Returns the page and whether the program failed; the
    /// callers charge the time.
    fn program_at_cursor(&mut self, block: BlockId) -> Result<(Ppn, bool), FlashOpError> {
        let cursor = self.blocks[block.index() as usize].write_cursor;
        if cursor >= self.geometry.pages_per_block() {
            return Err(FlashOpError::BlockFull { block });
        }
        let ppn = Ppn::new(self.geometry.first_ppn_of(block).index() + u64::from(cursor));
        debug_assert_eq!(
            self.pages[ppn.index() as usize],
            PageState::Free,
            "the write cursor rests on a free page"
        );
        let failed = self.fault.decide(FaultKind::Program, ppn.index());
        let (record, pages) = self.block_mut(block);
        if failed {
            record.fail_at_cursor(pages);
            self.stats.program_failures.incr();
        } else {
            record.program_at_cursor(pages);
            self.stats.programs.incr();
        }
        Ok((ppn, failed))
    }

    /// Marks a valid page invalid (a death). Pure bookkeeping: no flash
    /// command, no simulated time.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is not valid.
    pub fn invalidate_page(&mut self, ppn: Ppn) -> Result<(), FlashOpError> {
        let state = self.page_state(ppn);
        if state != PageState::Valid {
            return Err(FlashOpError::State {
                ppn,
                expected: PageState::Valid,
                actual: state,
            });
        }
        self.pages[ppn.index() as usize] = PageState::Invalid;
        let block = &mut self.blocks[self.geometry.block_of(ppn).index() as usize];
        block.valid_count -= 1;
        block.invalid_count += 1;
        Ok(())
    }

    /// Flips an invalid page back to valid — the paper's rebirth, used
    /// when a dead-value-pool hit short-circuits a write. Pure
    /// bookkeeping: no flash command, no simulated time.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is not invalid.
    pub fn revive_page(&mut self, ppn: Ppn) -> Result<(), FlashOpError> {
        let state = self.page_state(ppn);
        if state != PageState::Invalid {
            return Err(FlashOpError::State {
                ppn,
                expected: PageState::Invalid,
                actual: state,
            });
        }
        self.pages[ppn.index() as usize] = PageState::Valid;
        let block = &mut self.blocks[self.geometry.block_of(ppn).index() as usize];
        block.invalid_count -= 1;
        block.valid_count += 1;
        Ok(())
    }

    /// Copies a page to the next free page of a destination block in
    /// the **same plane** without crossing the channel (the ONFi
    /// copyback / internal-data-move advanced command): the plane
    /// reads the source into its page register and programs the
    /// destination directly. Returns the destination page and the
    /// command's [`Completion`]. The source keeps its state (the caller
    /// invalidates it); the destination becomes valid, or bad if the
    /// program half faulted.
    ///
    /// Cost: `tR + tPROG` of chip time, no channel occupancy — cheaper
    /// than a read–modify–write relocation and the reason GC prefers
    /// in-plane moves.
    ///
    /// # Errors
    ///
    /// Returns an error if the source holds no data, or the destination
    /// block is full or in a different plane.
    pub fn copyback_page(
        &mut self,
        src: Ppn,
        dest_block: BlockId,
        at: SimTime,
    ) -> Result<(Ppn, Completion), FlashOpError> {
        let state = self.page_state(src);
        if state == PageState::Free || state == PageState::Bad {
            return Err(FlashOpError::State {
                ppn: src,
                expected: PageState::Valid,
                actual: state,
            });
        }
        let source = self.record_of(src).placement;
        if self.blocks[dest_block.index() as usize].placement.plane != source.plane {
            return Err(FlashOpError::CrossPlaneCopyback { src, dest_block });
        }
        let (dest, faulted) = self.program_at_cursor(dest_block)?;
        // One plane lives on one chip.
        let chip = source.chip as usize;
        let start = at.max(self.chip_busy_until[chip]);
        let done = start + self.timing.read + self.timing.program;
        self.chip_busy_until[chip] = done;
        self.stats.reads.incr();
        Ok((dest, Completion { done, faulted }))
    }

    /// Erases a block: the chip is busy for `tBERS`. All non-bad pages
    /// become free and the block's wear count increments. A faulted
    /// erase spent the full `tBERS` but left page states and wear
    /// untouched — the caller retries, and retires the block if
    /// failures repeat.
    ///
    /// # Errors
    ///
    /// Returns an error if the block still holds valid pages (relocate
    /// them first).
    pub fn erase_block(&mut self, block: BlockId, at: SimTime) -> Result<Completion, FlashOpError> {
        let b = &self.blocks[block.index() as usize];
        if b.valid_count > 0 {
            return Err(FlashOpError::BlockHasValidPages {
                block,
                valid_pages: b.valid_count,
            });
        }
        let chip = b.placement.chip as usize;
        let faulted = self.fault.decide(FaultKind::Erase, block.index());
        let done = at.max(self.chip_busy_until[chip]) + self.timing.erase;
        self.chip_busy_until[chip] = done;
        if faulted {
            self.stats.erase_failures.incr();
        } else {
            let (b, pages) = self.block_mut(block);
            b.erase(pages);
            self.stats.erases.incr();
        }
        Ok(Completion { done, faulted })
    }

    /// Permanently removes a block from service: every page becomes
    /// [`PageState::Bad`], so the block can never be programmed again
    /// and never offers garbage to GC or the dead-value pool. Pure
    /// bookkeeping (the failed erase attempts already paid their
    /// time). The FTL calls this after repeated erase failures, once
    /// all mapping/pool/rmap entries into the block are purged.
    ///
    /// # Errors
    ///
    /// Returns an error if the block still holds valid pages (relocate
    /// them first).
    pub fn retire_block(&mut self, block: BlockId) -> Result<(), FlashOpError> {
        let (b, pages) = self.block_mut(block);
        if b.valid_count > 0 {
            return Err(FlashOpError::BlockHasValidPages {
                block,
                valid_pages: b.valid_count,
            });
        }
        b.retire(pages);
        self.stats.retired_blocks.incr();
        Ok(())
    }

    /// Completes a request on the *controller's* fast path — a revival,
    /// a dedup hit, or an unmapped read — without issuing any NAND
    /// command. Even these short-circuited requests occupy the host
    /// interface: completion waits for the controller to be free, and
    /// when the request's content sits on flash (`ppn` is `Some`) also
    /// for that page's channel, then holds the controller for one 4 KB
    /// transfer. The channel itself is **not** occupied — no flash
    /// command crosses it — so this models a device answering from
    /// mapping state while the array keeps working.
    ///
    /// Returns the completion time.
    pub fn controller_complete(&mut self, ppn: Option<Ppn>, at: SimTime) -> SimTime {
        let mut start = at.max(self.controller_busy_until);
        if let Some(ppn) = ppn {
            let channel = self.record_of(ppn).placement.channel as usize;
            start = start.max(self.channel_busy_until[channel]);
        }
        let done = start + self.timing.transfer;
        self.controller_busy_until = done;
        done
    }

    /// Forgets all busy times (used after preconditioning fills, so
    /// warm-up programs do not delay the measured trace).
    pub fn reset_time(&mut self) {
        self.chip_busy_until.fill(SimTime::ZERO);
        self.channel_busy_until.fill(SimTime::ZERO);
        self.controller_busy_until = SimTime::ZERO;
    }

    /// Zeroes the operation counters (used after preconditioning).
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
    }

    /// Iterates `(BlockId, BlockInfo)` over every block, for GC victim
    /// scans.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, BlockInfo)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i as u64), b.info()))
    }

    /// Total valid pages across the device.
    pub fn total_valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.valid_count)).sum()
    }

    /// Total invalid (zombie) pages across the device.
    pub fn total_invalid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.invalid_count)).sum()
    }

    /// Total bad (program-failed or retired) pages across the device.
    pub fn total_bad_pages(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.bad_count)).sum()
    }

    /// Wear summary across all blocks (min/max/mean erase counts) —
    /// the paper's lifetime argument is about total erases, but
    /// *spread* matters for wear levelling.
    pub fn wear_summary(&self) -> WearSummary {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sum = 0u64;
        for b in &self.blocks {
            min = min.min(b.erase_count);
            max = max.max(b.erase_count);
            sum += b.erase_count;
        }
        WearSummary {
            min_erases: if self.blocks.is_empty() { 0 } else { min },
            max_erases: max,
            mean_erases: if self.blocks.is_empty() {
                0.0
            } else {
                sum as f64 / self.blocks.len() as f64
            },
        }
    }
}

/// Where `block` sits, from [`Geometry::decode`] of its first page —
/// the one definition of the layout — flattened channel-major.
fn placement(geometry: &Geometry, block: BlockId) -> Placement {
    let addr = geometry.decode(geometry.first_ppn_of(block));
    let chip =
        u64::from(addr.channel) * u64::from(geometry.chips_per_channel()) + u64::from(addr.chip);
    let plane = (chip * u64::from(geometry.dies_per_chip()) + u64::from(addr.die))
        * u64::from(geometry.planes_per_die())
        + u64::from(addr.plane);
    Placement {
        plane: u32::try_from(plane).expect("plane count fits in u32"),
        chip: u32::try_from(chip).expect("chip count fits in u32"),
        channel: addr.channel,
    }
}

/// Distribution of block wear across the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSummary {
    /// Fewest erases of any block.
    pub min_erases: u64,
    /// Most erases of any block.
    pub max_erases: u64,
    /// Mean erases per block.
    pub mean_erases: f64,
}

impl WearSummary {
    /// Max-to-mean wear imbalance; 1.0 is perfectly level. Returns 0
    /// when nothing has been erased.
    pub fn imbalance(&self) -> f64 {
        if self.mean_erases == 0.0 {
            0.0
        } else {
            self.max_erases as f64 / self.mean_erases
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use zssd_types::SimDuration;

    fn tiny() -> FlashArray {
        let geom = Geometry::new(2, 1, 1, 1, 2, 4).expect("valid geometry");
        FlashArray::new(geom, FlashTiming::paper_table1())
    }

    /// Programs the next page of `block` at `at`, expecting no fault.
    fn program(flash: &mut FlashArray, block: u64, at: SimTime) -> (Ppn, SimTime) {
        let (ppn, program) = flash
            .program_next(BlockId::new(block), at)
            .expect("program");
        assert!(!program.faulted, "no fault injected");
        (ppn, program.done)
    }

    #[test]
    fn program_then_read_round_trip_times() {
        let mut flash = tiny();
        let t = FlashTiming::paper_table1();
        let (ppn, done) = program(&mut flash, 0, SimTime::ZERO);
        assert_eq!(ppn, Ppn::new(0));
        assert_eq!(done, SimTime::ZERO + t.transfer + t.program);
        let read = flash.read_page(ppn, SimTime::ZERO).expect("read");
        // The read waits for the program to finish on the same chip.
        assert_eq!(read.done, done + t.read + t.transfer);
        assert!(!read.faulted);
    }

    #[test]
    fn programs_on_different_channels_overlap() {
        let mut flash = tiny();
        let geom = *flash.geometry();
        let a = geom.block_of(geom.ppn_at(0, 0, 0, 0, 0, 0));
        let b = geom.block_of(geom.ppn_at(1, 0, 0, 0, 0, 0));
        let (_, da) = program(&mut flash, a.index(), SimTime::ZERO);
        let (_, db) = program(&mut flash, b.index(), SimTime::ZERO);
        assert_eq!(da, db, "independent channels see identical latency");
    }

    #[test]
    fn programs_on_same_chip_serialize() {
        let mut flash = tiny();
        let (_, da) = program(&mut flash, 0, SimTime::ZERO);
        let (_, db) = program(&mut flash, 0, SimTime::ZERO);
        assert!(db > da, "same-chip programs must queue");
    }

    #[test]
    fn invalidate_then_revive_counts_and_states() {
        let mut flash = tiny();
        let (ppn, _) = program(&mut flash, 0, SimTime::ZERO);
        flash.invalidate_page(ppn).expect("invalidate");
        assert_eq!(flash.page_state(ppn), PageState::Invalid);
        assert_eq!(flash.total_invalid_pages(), 1);
        flash.revive_page(ppn).expect("revive");
        assert_eq!(flash.page_state(ppn), PageState::Valid);
        assert_eq!(flash.total_invalid_pages(), 0);
        assert_eq!(flash.total_valid_pages(), 1);
    }

    #[test]
    fn revive_requires_invalid() {
        let mut flash = tiny();
        let err = flash.revive_page(Ppn::new(0)).unwrap_err();
        assert!(matches!(err, FlashOpError::State { .. }));
    }

    #[test]
    fn erase_requires_no_valid_pages_and_bumps_wear() {
        let mut flash = tiny();
        let block = BlockId::new(0);
        let (ppn, programmed) = program(&mut flash, 0, SimTime::ZERO);
        let err = flash.erase_block(block, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashOpError::BlockHasValidPages { .. }));
        flash.invalidate_page(ppn).expect("invalidate");
        // The erase queues behind the still-running program on the
        // same chip.
        let erase = flash.erase_block(block, SimTime::ZERO).expect("erase");
        assert_eq!(erase.done, programmed + SimDuration::from_micros(3800));
        assert!(!erase.faulted);
        assert_eq!(flash.erase_count(block), 1);
        assert_eq!(flash.free_pages_in(block), 4);
        // Block can be programmed again from offset zero.
        assert_eq!(program(&mut flash, 0, erase.done).0, Ppn::new(0));
    }

    #[test]
    fn program_next_walks_the_block() {
        let mut flash = tiny();
        let block = BlockId::new(1);
        let mut last = SimTime::ZERO;
        for expect in 4..8u64 {
            let (ppn, done) = program(&mut flash, 1, last);
            assert_eq!(ppn.index(), expect);
            last = done;
        }
        let err = flash.program_next(block, last).unwrap_err();
        assert!(matches!(err, FlashOpError::BlockFull { .. }));
    }

    #[test]
    fn reads_of_free_pages_rejected() {
        let mut flash = tiny();
        let err = flash.read_page(Ppn::new(0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashOpError::State { .. }));
    }

    #[test]
    fn out_of_range_numbers_panic() {
        let mut flash = tiny();
        let (page, _) = program(&mut flash, 0, SimTime::ZERO);
        let bad = Ppn::new(flash.geometry().total_pages());
        let beyond = BlockId::new(flash.geometry().total_blocks());
        let panics = |op: &dyn Fn(&mut FlashArray)| {
            let mut flash = flash.clone();
            catch_unwind(AssertUnwindSafe(|| op(&mut flash))).is_err()
        };
        assert!(panics(&|f| {
            f.page_state(bad);
        }));
        assert!(panics(&|f| {
            f.page_states(beyond);
        }));
        // Its first page would be 2^64, which wraps to block 0's.
        assert!(panics(&|f| {
            f.page_states(BlockId::new(1 << 62));
        }));
        assert!(panics(&|f| {
            f.block_info(beyond);
        }));
        assert!(panics(&|f| {
            f.erase_count(beyond);
        }));
        assert!(panics(&|f| {
            f.free_pages_in(beyond);
        }));
        assert!(panics(&|f| {
            f.controller_complete(Some(bad), SimTime::ZERO);
        }));
        assert!(panics(&|f| {
            let _ = f.read_page(bad, SimTime::ZERO);
        }));
        assert!(panics(&|f| {
            let _ = f.program_next(beyond, SimTime::ZERO);
        }));
        assert!(panics(&|f| {
            let _ = f.copyback_page(bad, BlockId::new(1), SimTime::ZERO);
        }));
        assert!(panics(&|f| {
            let _ = f.copyback_page(page, beyond, SimTime::ZERO);
        }));
        assert!(panics(&|f| {
            let _ = f.invalidate_page(bad);
        }));
        assert!(panics(&|f| {
            let _ = f.revive_page(bad);
        }));
        assert!(panics(&|f| {
            let _ = f.erase_block(beyond, SimTime::ZERO);
        }));
        assert!(panics(&|f| {
            let _ = f.retire_block(beyond);
        }));
    }

    #[test]
    fn stats_track_each_operation() {
        let mut flash = tiny();
        let (ppn, _) = program(&mut flash, 0, SimTime::ZERO);
        let _ = flash.read_page(ppn, SimTime::ZERO).expect("ok");
        flash.invalidate_page(ppn).expect("ok");
        let _ = flash
            .erase_block(BlockId::new(0), SimTime::ZERO)
            .expect("ok");
        let s = flash.stats();
        assert_eq!((s.programs.get(), s.reads.get(), s.erases.get()), (1, 1, 1));
    }

    #[test]
    fn blocks_iterator_covers_device() {
        let flash = tiny();
        assert_eq!(
            flash.blocks().count() as u64,
            flash.geometry().total_blocks()
        );
    }

    #[test]
    fn copyback_moves_within_plane_without_channel() {
        let geom = Geometry::new(1, 1, 1, 2, 2, 4).expect("valid geometry");
        let mut flash = FlashArray::new(geom, FlashTiming::paper_table1());
        let t = FlashTiming::paper_table1();
        // Program page 0 of block 0 (plane 0), then copy it into
        // block 1 (same plane).
        let (src, done) = program(&mut flash, 0, SimTime::ZERO);
        let (dest, copy) = flash
            .copyback_page(src, BlockId::new(1), done)
            .expect("copyback");
        assert_eq!(geom.block_of(dest), BlockId::new(1));
        assert_eq!(
            copy.done,
            done + t.read + t.program,
            "tR + tPROG, no transfer"
        );
        assert!(!copy.faulted);
        assert_eq!(flash.page_state(dest), PageState::Valid);
        // Source is untouched until the caller invalidates it.
        assert_eq!(flash.page_state(src), PageState::Valid);
        flash.invalidate_page(src).expect("invalidate");
        // Cross-plane copyback is rejected (block 2 is plane 1).
        let err = flash
            .copyback_page(dest, BlockId::new(2), copy.done)
            .unwrap_err();
        assert!(matches!(err, FlashOpError::CrossPlaneCopyback { .. }));
        // Copyback of a free page is rejected.
        let err = flash
            .copyback_page(Ppn::new(3), BlockId::new(1), copy.done)
            .unwrap_err();
        assert!(matches!(err, FlashOpError::State { .. }));
    }

    #[test]
    fn copyback_fills_destination_sequentially() {
        let geom = Geometry::new(1, 1, 1, 1, 2, 2).expect("valid geometry");
        let mut flash = FlashArray::new(geom, FlashTiming::paper_table1());
        program(&mut flash, 0, SimTime::ZERO);
        program(&mut flash, 0, SimTime::ZERO);
        let (d1, _) = flash
            .copyback_page(Ppn::new(0), BlockId::new(1), SimTime::ZERO)
            .expect("copyback");
        let (d2, _) = flash
            .copyback_page(Ppn::new(1), BlockId::new(1), SimTime::ZERO)
            .expect("copyback");
        assert_eq!((d1.index(), d2.index()), (2, 3));
        let err = flash
            .copyback_page(Ppn::new(0), BlockId::new(1), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashOpError::BlockFull { .. }));
    }

    #[test]
    fn wear_summary_tracks_erase_spread() {
        let mut flash = tiny();
        let fresh = flash.wear_summary();
        assert_eq!((fresh.min_erases, fresh.max_erases), (0, 0));
        assert_eq!(fresh.imbalance(), 0.0);
        // Erase block 0 three times, block 1 once (4 blocks total).
        for _ in 0..3 {
            let _ = flash
                .erase_block(BlockId::new(0), SimTime::ZERO)
                .expect("erase");
        }
        let _ = flash
            .erase_block(BlockId::new(1), SimTime::ZERO)
            .expect("erase");
        let worn = flash.wear_summary();
        assert_eq!(worn.max_erases, 3);
        assert_eq!(worn.min_erases, 0);
        assert_eq!(worn.mean_erases, 1.0);
        assert_eq!(worn.imbalance(), 3.0);
    }

    #[test]
    fn controller_completions_serialize_on_the_controller() {
        let mut flash = tiny();
        let t = FlashTiming::paper_table1();
        let d1 = flash.controller_complete(None, SimTime::ZERO);
        assert_eq!(d1, SimTime::ZERO + t.transfer);
        let d2 = flash.controller_complete(None, SimTime::ZERO);
        assert_eq!(d2, d1 + t.transfer, "same-instant completions queue");
    }

    #[test]
    fn controller_completion_waits_for_a_busy_channel() {
        let mut flash = tiny();
        let t = FlashTiming::paper_table1();
        let (ppn, _) = program(&mut flash, 0, SimTime::ZERO);
        // Read holds the channel until its transfer finishes.
        let read = flash.read_page(ppn, SimTime::ZERO).expect("read");
        let done = flash.controller_complete(Some(ppn), SimTime::ZERO);
        assert_eq!(done, read.done + t.transfer, "waits out the channel");
        // A flash-free completion ignores channels entirely.
        let free = flash.controller_complete(None, SimTime::ZERO);
        assert_eq!(free, done + t.transfer, "only the controller serializes");
    }

    #[test]
    fn injected_program_failure_marks_page_bad_and_advances_cursor() {
        let geom = Geometry::new(1, 1, 1, 1, 2, 4).expect("valid geometry");
        let mut flash = FlashArray::with_faults(
            geom,
            FlashTiming::paper_table1(),
            FaultConfig::none().with_program_fail(1.0),
        );
        let block = BlockId::new(0);
        let (ppn, program) = flash.program_next(block, SimTime::ZERO).expect("ran");
        assert_eq!(ppn, Ppn::new(0));
        assert!(program.faulted);
        assert_eq!(flash.page_state(ppn), PageState::Bad);
        assert_eq!(flash.free_pages_in(block), 3);
        assert_eq!(flash.stats().program_failures.get(), 1);
        assert_eq!(flash.stats().programs.get(), 0, "failures are not programs");
        // The failed attempt still occupied the chip for a full program.
        let t = FlashTiming::paper_table1();
        assert_eq!(program.done, SimTime::ZERO + t.transfer + t.program);
        // At rate 1.0 every retry fails too, until the block is consumed;
        // each retry queues behind the failed pulse before it.
        let mut last = program.done;
        for expect in 1..4u64 {
            let (ppn, retry) = flash.program_next(block, SimTime::ZERO).expect("ran");
            assert_eq!((ppn.index(), retry.faulted), (expect, true));
            assert_eq!(retry.done, last + t.transfer + t.program);
            last = retry.done;
        }
        assert!(matches!(
            flash.program_next(block, SimTime::ZERO).unwrap_err(),
            FlashOpError::BlockFull { .. }
        ));
        assert_eq!(flash.total_bad_pages(), 4);
    }

    #[test]
    fn injected_copyback_failure_marks_destination_bad_and_keeps_source() {
        let geom = Geometry::new(1, 1, 1, 1, 2, 4).expect("valid geometry");
        let t = FlashTiming::paper_table1();
        // A seed whose first program (page 0, the source) succeeds and
        // whose second (page 4, the copyback's destination) fails.
        let config = |seed| FaultConfig::none().with_program_fail(0.5).with_seed(seed);
        let seed = (0..)
            .find(|&seed| {
                let mut plan = FaultPlan::new(config(seed));
                !plan.decide(FaultKind::Program, 0) && plan.decide(FaultKind::Program, 4)
            })
            .expect("some seed fails only the copyback");
        let mut flash = FlashArray::with_faults(geom, t, config(seed));
        let (src, programmed) = program(&mut flash, 0, SimTime::ZERO);
        let before = *flash.stats();
        let (dest, copy) = flash
            .copyback_page(src, BlockId::new(1), programmed)
            .expect("ran");
        assert!(copy.faulted);
        assert_eq!(dest, Ppn::new(4));
        assert_eq!(copy.done, programmed + t.read + t.program, "tR + tPROG");
        assert_eq!(flash.page_state(dest), PageState::Bad);
        assert_eq!(flash.page_state(src), PageState::Valid);
        let after = flash.stats();
        assert_eq!(after.reads.get(), before.reads.get() + 1);
        assert_eq!(
            after.program_failures.get(),
            before.program_failures.get() + 1
        );
        assert_eq!(after.programs.get(), before.programs.get());
        // The destination's cursor moved past the bad page.
        assert_eq!(flash.free_pages_in(BlockId::new(1)), 3);
        let (next, _) = flash.program_next(BlockId::new(1), copy.done).expect("ran");
        assert_eq!(next, Ppn::new(5));
        // A bad page holds no data to copy.
        assert!(matches!(
            flash.copyback_page(dest, BlockId::new(1), copy.done),
            Err(FlashOpError::State { .. })
        ));
    }

    #[test]
    fn injected_erase_failure_leaves_block_intact() {
        let geom = Geometry::new(1, 1, 1, 1, 2, 4).expect("valid geometry");
        let mut flash = FlashArray::with_faults(
            geom,
            FlashTiming::paper_table1(),
            FaultConfig::none().with_erase_fail(1.0),
        );
        let block = BlockId::new(0);
        let (ppn, programmed) = program(&mut flash, 0, SimTime::ZERO);
        flash.invalidate_page(ppn).expect("ok");
        let erase = flash.erase_block(block, SimTime::ZERO).expect("ran");
        assert!(erase.faulted);
        // Page states and wear are untouched, but tBERS was spent.
        assert_eq!(erase.done, programmed + FlashTiming::paper_table1().erase);
        assert_eq!(flash.page_state(ppn), PageState::Invalid);
        assert_eq!(flash.erase_count(block), 0);
        assert_eq!(flash.stats().erase_failures.get(), 1);
        assert_eq!(flash.stats().erases.get(), 0);
        // Retirement takes the block out of service for good.
        flash.retire_block(block).expect("retire");
        assert_eq!(flash.stats().retired_blocks.get(), 1);
        assert!(flash.block_info(block).is_retired());
        assert_eq!(flash.free_pages_in(block), 0);
        assert!(flash.read_page(ppn, SimTime::ZERO).is_err());
    }

    #[test]
    fn retire_refuses_blocks_with_valid_pages() {
        let mut flash = tiny();
        program(&mut flash, 0, SimTime::ZERO);
        assert!(matches!(
            flash.retire_block(BlockId::new(0)).unwrap_err(),
            FlashOpError::BlockHasValidPages { .. }
        ));
    }

    #[test]
    fn injected_read_error_retries_and_costs_a_second_pass() {
        let geom = Geometry::new(1, 1, 1, 1, 2, 4).expect("valid geometry");
        let mut flash = FlashArray::with_faults(
            geom,
            FlashTiming::paper_table1(),
            FaultConfig::none().with_read_error(1.0),
        );
        let t = FlashTiming::paper_table1();
        let (ppn, done) = program(&mut flash, 0, SimTime::ZERO);
        let read = flash.read_page(ppn, done).expect("read survives via retry");
        assert!(read.faulted);
        assert_eq!(
            read.done,
            done + t.read + t.transfer + t.read + t.transfer,
            "two full sense + transfer passes"
        );
        assert_eq!(flash.stats().read_retries.get(), 1);
        assert_eq!(flash.stats().reads.get(), 2, "the retry re-senses");
    }

    #[test]
    fn zero_rate_faults_change_nothing() {
        let mut faulty = FlashArray::with_faults(
            *tiny().geometry(),
            FlashTiming::paper_table1(),
            FaultConfig::none().with_seed(12345),
        );
        let mut plain = tiny();
        for _ in 0..4 {
            let a = faulty.program_next(BlockId::new(0), SimTime::ZERO);
            let b = plain.program_next(BlockId::new(0), SimTime::ZERO);
            assert_eq!(a, b);
        }
        assert_eq!(faulty.stats(), plain.stats());
    }

    /// Every block's stored placement equals `decode` of its first page.
    fn assert_placement_matches_decode(geom: Geometry) {
        let flash = FlashArray::new(geom, FlashTiming::paper_table1());
        for (b, block) in flash.blocks.iter().enumerate() {
            let id = BlockId::new(b as u64);
            let addr = geom.decode(geom.first_ppn_of(id));
            let chip = addr.channel * geom.chips_per_channel() + addr.chip;
            let plane =
                (chip * geom.dies_per_chip() + addr.die) * geom.planes_per_die() + addr.plane;
            assert_eq!(block.placement.channel, addr.channel, "{geom:?} {id}");
            assert_eq!(block.placement.chip, chip, "{geom:?} {id}");
            assert_eq!(block.placement.plane, plane, "{geom:?} {id}");
            assert_eq!(u64::from(plane), geom.plane_of_block(id), "{geom:?} {id}");
        }
    }

    #[test]
    fn stored_placement_matches_decode() {
        // `SsdConfig::small_test`'s geometry.
        assert_placement_matches_decode(Geometry::new(1, 1, 1, 2, 8, 16).expect("valid"));
        // `SsdConfig::for_footprint(60_000)` (hadoop): 69 blocks per plane.
        assert_placement_matches_decode(Geometry::new(4, 2, 1, 2, 69, 64).expect("valid"));
        // Several dies and chips, five blocks per plane.
        assert_placement_matches_decode(Geometry::new(2, 2, 2, 2, 5, 8).expect("valid"));
    }

    #[test]
    fn erase_and_retire_leave_neighbouring_blocks_untouched() {
        let geom = Geometry::new(1, 1, 1, 1, 3, 4).expect("valid geometry");
        let mut flash = FlashArray::new(geom, FlashTiming::paper_table1());
        // Fill all three blocks, then kill every page of the middle one.
        for b in 0..3 {
            for _ in 0..4 {
                program(&mut flash, b, SimTime::ZERO);
            }
        }
        for ppn in geom.pages_of(BlockId::new(1)) {
            flash.invalidate_page(ppn).expect("invalidate");
        }
        let middle = BlockId::new(1);
        let neighbours = |flash: &FlashArray| {
            [BlockId::new(0), BlockId::new(2)].map(|b| flash.page_states(b).to_vec())
        };
        let before = neighbours(&flash);
        assert!(before.iter().flatten().all(|&p| p == PageState::Valid));
        let _ = flash.erase_block(middle, SimTime::ZERO).expect("erase");
        assert!(flash
            .page_states(middle)
            .iter()
            .all(|&p| p == PageState::Free));
        assert_eq!(neighbours(&flash), before, "erase touched a neighbour");
        flash.retire_block(middle).expect("retire");
        assert!(flash
            .page_states(middle)
            .iter()
            .all(|&p| p == PageState::Bad));
        assert_eq!(neighbours(&flash), before, "retire touched a neighbour");
        assert_eq!(flash.total_valid_pages(), 8);
    }

    #[test]
    fn reset_time_and_stats_clear_state() {
        let mut flash = tiny();
        let t = FlashTiming::paper_table1();
        let (ppn, _) = program(&mut flash, 0, SimTime::ZERO);
        flash.controller_complete(None, SimTime::ZERO);
        flash.reset_time();
        // Neither the program's chip nor its channel is busy any more.
        let read = flash.read_page(ppn, SimTime::ZERO).expect("read");
        assert_eq!(read.done, SimTime::ZERO + t.read + t.transfer);
        flash.reset_time();
        let d = flash.controller_complete(None, SimTime::ZERO);
        assert_eq!(
            d,
            SimTime::ZERO + t.transfer,
            "controller busy-until cleared"
        );
        assert_eq!(flash.stats().programs.get(), 1);
        flash.reset_stats();
        assert_eq!(flash.stats().programs.get(), 0);
        // Page states survive the resets.
        assert_eq!(flash.page_state(ppn), PageState::Valid);
    }
}
