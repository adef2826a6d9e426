//! Active-block allocation striped across planes.

use std::collections::VecDeque;

use zssd_flash::{BlockId, FlashArray, Geometry};

use crate::error::SsdError;

/// Per-plane free-block lists and active (currently programmed)
/// blocks, with round-robin plane striping for host writes — the
/// "allocation strategy" knob of SSDSim-style simulators.
#[derive(Debug, Clone)]
pub(crate) struct Allocator {
    free: Vec<VecDeque<BlockId>>,
    active: Vec<Option<BlockId>>,
    cursor: u64,
}

impl Allocator {
    /// Creates an allocator with every block of the geometry free.
    pub(crate) fn new(geometry: &Geometry) -> Self {
        let planes = geometry.total_planes();
        let mut free: Vec<VecDeque<BlockId>> = (0..planes).map(|_| VecDeque::new()).collect();
        for b in 0..geometry.total_blocks() {
            let block = BlockId::new(b);
            free[geometry.plane_of_block(block) as usize].push_back(block);
        }
        Allocator {
            free,
            active: vec![None; planes as usize],
            cursor: 0,
        }
    }

    /// Number of planes managed.
    pub(crate) fn plane_count(&self) -> u64 {
        self.free.len() as u64
    }

    /// Free (fully erased, unassigned) blocks remaining in a plane.
    pub(crate) fn free_blocks_in(&self, plane: u64) -> usize {
        self.free[plane as usize].len()
    }

    /// The block currently receiving writes in a plane, if any. GC
    /// victim selection must skip it.
    pub(crate) fn active_block(&self, plane: u64) -> Option<BlockId> {
        self.active[plane as usize]
    }

    /// The next plane for a host write (round-robin striping, so
    /// consecutive writes exploit channel/chip parallelism).
    pub(crate) fn next_plane(&mut self) -> u64 {
        let plane = self.cursor;
        self.cursor += 1;
        if self.cursor == self.plane_count() {
            self.cursor = 0;
        }
        plane
    }

    /// Moves the round-robin cursor on as `writes` calls of
    /// [`Allocator::next_plane`] would.
    pub(crate) fn advance(&mut self, writes: u64) {
        self.cursor = (self.cursor + writes % self.plane_count()) % self.plane_count();
    }

    /// Returns a block in `plane` with at least one programmable page,
    /// opening a fresh free block when the active one is full.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::OutOfSpace`] when the active block is full
    /// and the plane has no free blocks left.
    // Every host program and GC move calls this. Left to itself the
    // compiler calls it out of line, and perfbench's `setup_s` rose by
    // 5-10%.
    #[inline]
    pub(crate) fn take_active(
        &mut self,
        plane: u64,
        flash: &FlashArray,
    ) -> Result<BlockId, SsdError> {
        let slot = plane as usize;
        if let Some(block) = self.active[slot] {
            if flash.free_pages_in(block) > 0 {
                return Ok(block);
            }
            self.active[slot] = None;
        }
        let block = self.free[slot]
            .pop_front()
            .ok_or(SsdError::OutOfSpace { plane })?;
        self.active[slot] = Some(block);
        Ok(block)
    }

    /// Drops the plane's active pointer without touching the block.
    /// Used when GC must reclaim the active block itself (emergency
    /// collection): the block stops receiving writes and can then be
    /// relocated and erased like any other.
    pub(crate) fn retire_active(&mut self, plane: u64) -> Option<BlockId> {
        self.active[plane as usize].take()
    }

    /// Returns a programmable block in *any* plane, preferring the
    /// round-robin order. Used by emergency GC when the victim's own
    /// plane is dry: valid pages relocate cross-plane (a
    /// controller-mediated move; the timing model charges the same
    /// read + program either way).
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::OutOfSpace`] when every plane is dry.
    pub(crate) fn take_active_any(
        &mut self,
        flash: &FlashArray,
    ) -> Result<(u64, BlockId), SsdError> {
        let planes = self.plane_count();
        for offset in 0..planes {
            let plane = (self.cursor + offset) % planes;
            if let Ok(block) = self.take_active(plane, flash) {
                return Ok((plane, block));
            }
        }
        Err(SsdError::OutOfSpace {
            plane: self.cursor % planes,
        })
    }

    /// Returns an erased block to its plane's free list.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is the plane's active block
    /// (GC must never erase the active block).
    pub(crate) fn on_block_erased(&mut self, geometry: &Geometry, block: BlockId) {
        let plane = geometry.plane_of_block(block) as usize;
        debug_assert_ne!(self.active[plane], Some(block), "erased the active block");
        self.free[plane].push_back(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_flash::FlashTiming;
    use zssd_types::SimTime;

    fn setup() -> (Geometry, FlashArray, Allocator) {
        let geom = Geometry::new(1, 1, 1, 2, 3, 4).expect("valid geometry");
        let flash = FlashArray::new(geom, FlashTiming::paper_table1());
        let alloc = Allocator::new(&geom);
        (geom, flash, alloc)
    }

    #[test]
    fn blocks_distributed_per_plane() {
        let (_, _, alloc) = setup();
        assert_eq!(alloc.plane_count(), 2);
        assert_eq!(alloc.free_blocks_in(0), 3);
        assert_eq!(alloc.free_blocks_in(1), 3);
    }

    #[test]
    fn round_robin_covers_all_planes() {
        let (_, _, mut alloc) = setup();
        let picks: Vec<u64> = (0..4).map(|_| alloc.next_plane()).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn active_block_rolls_over_when_full() {
        let (_, mut flash, mut alloc) = setup();
        let first = alloc.take_active(0, &flash).expect("block");
        assert_eq!(alloc.active_block(0), Some(first));
        assert_eq!(alloc.free_blocks_in(0), 2);
        // Fill all 4 pages of the first block.
        for _ in 0..4 {
            let block = alloc.take_active(0, &flash).expect("block");
            assert_eq!(block, first);
            let _ = flash.program_next(block, SimTime::ZERO).expect("program");
        }
        let second = alloc.take_active(0, &flash).expect("block");
        assert_ne!(second, first);
        assert_eq!(alloc.free_blocks_in(0), 1);
    }

    #[test]
    fn out_of_space_when_plane_exhausted() {
        let (_, mut flash, mut alloc) = setup();
        // Consume all 3 blocks of plane 0.
        for _ in 0..3 {
            let block = alloc.take_active(0, &flash).expect("block");
            for _ in 0..4 {
                let _ = flash.program_next(block, SimTime::ZERO).expect("program");
            }
            // Force rollover by requesting again (last one errors).
            let _ = alloc.take_active(0, &flash);
        }
        assert!(matches!(
            alloc.take_active(0, &flash),
            Err(SsdError::OutOfSpace { plane: 0 })
        ));
        // Plane 1 is untouched.
        assert!(alloc.take_active(1, &flash).is_ok());
    }

    #[test]
    fn retire_active_detaches_the_block() {
        let (_, flash, mut alloc) = setup();
        let block = alloc.take_active(0, &flash).expect("block");
        assert_eq!(alloc.retire_active(0), Some(block));
        assert_eq!(alloc.active_block(0), None);
        assert_eq!(alloc.retire_active(0), None);
        // The next request opens a fresh block.
        let next = alloc.take_active(0, &flash).expect("block");
        assert_ne!(next, block);
    }

    #[test]
    fn take_active_any_skips_dry_planes() {
        let (_, mut flash, mut alloc) = setup();
        // Exhaust plane 0 completely.
        for _ in 0..3 {
            let block = alloc.take_active(0, &flash).expect("block");
            for _ in 0..4 {
                let _ = flash.program_next(block, SimTime::ZERO).expect("program");
            }
            let _ = alloc.take_active(0, &flash);
        }
        assert!(alloc.take_active(0, &flash).is_err());
        // take_active_any falls through to plane 1.
        let (plane, _) = alloc.take_active_any(&flash).expect("some plane");
        assert_eq!(plane, 1);
    }

    #[test]
    fn take_active_any_errors_when_all_planes_dry() {
        let geom = Geometry::new(1, 1, 1, 1, 1, 2).expect("valid geometry");
        let mut flash = FlashArray::new(geom, FlashTiming::paper_table1());
        let mut alloc = Allocator::new(&geom);
        let block = alloc.take_active(0, &flash).expect("block");
        let _ = flash.program_next(block, SimTime::ZERO).expect("ok");
        let _ = flash.program_next(block, SimTime::ZERO).expect("ok");
        assert!(matches!(
            alloc.take_active_any(&flash),
            Err(SsdError::OutOfSpace { .. })
        ));
    }

    #[test]
    fn erased_blocks_return_to_their_plane() {
        let (geom, mut flash, mut alloc) = setup();
        let block = alloc.take_active(1, &flash).expect("block");
        for _ in 0..4 {
            let _ = flash.program_next(block, SimTime::ZERO).expect("program");
        }
        // Roll the active pointer off the full block before erasing.
        let _ = alloc.take_active(1, &flash).expect("rollover");
        for ppn in geom.pages_of(block) {
            flash.invalidate_page(ppn).expect("invalidate");
        }
        let _ = flash.erase_block(block, SimTime::ZERO).expect("erase");
        let before = alloc.free_blocks_in(1);
        alloc.on_block_erased(&geom, block);
        assert_eq!(alloc.free_blocks_in(1), before + 1);
    }
}
