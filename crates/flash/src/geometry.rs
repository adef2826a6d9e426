//! Device geometry and physical address arithmetic.

use core::fmt;

use zssd_types::{ConfigError, Ppn};

/// A flat block index across the whole device.
///
/// Blocks are the erase unit; GC victim selection operates on
/// `BlockId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(u64);

impl BlockId {
    /// Creates a block id from its flat index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        BlockId(index)
    }

    /// Returns the flat index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A fully decoded physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageAddress {
    /// Channel index.
    pub channel: u32,
    /// Chip index within the channel.
    pub chip: u32,
    /// Die index within the chip.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl fmt::Display for PageAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/chip{}/die{}/pl{}/blk{}/pg{}",
            self.channel, self.chip, self.die, self.plane, self.block, self.page
        )
    }
}

/// The dimensions of the flash array.
///
/// The flat [`Ppn`] layout is page-major within a block, block-major
/// within a plane, and so on up to channels, so consecutive PPNs within
/// a block are consecutive pages — matching NAND's sequential-program
/// constraint:
///
/// ```text
/// ppn = ((((channel·chips + chip)·dies + die)·planes + plane)·blocks + block)·pages + page
/// ```
///
/// `pages_per_block` must be a power of two, so the block of a PPN and
/// its offset within the block are a shift and a mask; the other
/// dimensions are free-form, and [`Geometry::decode`] is the one
/// definition of the rest of the layout.
///
/// # Examples
///
/// ```
/// use zssd_flash::Geometry;
/// // Table I topology: 8 channels × 8 chips, 4 dies, 2 planes.
/// let geom = Geometry::new(8, 8, 4, 2, 32, 256)?;
/// assert_eq!(geom.total_blocks(), 8 * 8 * 4 * 2 * 32);
/// let ppn = geom.ppn_at(7, 7, 3, 1, 31, 255);
/// assert_eq!(geom.decode(ppn).page, 255);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    channels: u32,
    chips_per_channel: u32,
    dies_per_chip: u32,
    planes_per_die: u32,
    blocks_per_plane: u32,
    pages_per_block: u32,
    /// `log2(pages_per_block)`.
    page_shift: u32,
    /// The product of the first five dimensions.
    total_blocks: u64,
}

impl Geometry {
    /// Creates a geometry, validating that every dimension is nonzero
    /// and that blocks hold a power-of-two number of pages.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero,
    /// `pages_per_block` is not a power of two, or the total page count
    /// overflows `u64`.
    pub fn new(
        channels: u32,
        chips_per_channel: u32,
        dies_per_chip: u32,
        planes_per_die: u32,
        blocks_per_plane: u32,
        pages_per_block: u32,
    ) -> Result<Self, ConfigError> {
        let dims = [
            ("channels", channels),
            ("chips_per_channel", chips_per_channel),
            ("dies_per_chip", dies_per_chip),
            ("planes_per_die", planes_per_die),
            ("blocks_per_plane", blocks_per_plane),
            ("pages_per_block", pages_per_block),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(ConfigError::new(format!("{name} must be nonzero")));
            }
        }
        if !pages_per_block.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "pages_per_block must be a power of two, got {pages_per_block}"
            )));
        }
        let total_blocks = u64::from(channels)
            .checked_mul(u64::from(chips_per_channel))
            .and_then(|v| v.checked_mul(u64::from(dies_per_chip)))
            .and_then(|v| v.checked_mul(u64::from(planes_per_die)))
            .and_then(|v| v.checked_mul(u64::from(blocks_per_plane)))
            .ok_or_else(|| ConfigError::new("geometry block count overflows u64"))?;
        total_blocks
            .checked_mul(u64::from(pages_per_block))
            .ok_or_else(|| ConfigError::new("geometry page count overflows u64"))?;
        Ok(Geometry {
            channels,
            chips_per_channel,
            dies_per_chip,
            planes_per_die,
            blocks_per_plane,
            pages_per_block,
            page_shift: pages_per_block.trailing_zeros(),
            total_blocks,
        })
    }

    /// Number of channels.
    pub const fn channels(&self) -> u32 {
        self.channels
    }

    /// Chips per channel.
    pub const fn chips_per_channel(&self) -> u32 {
        self.chips_per_channel
    }

    /// Dies per chip.
    pub const fn dies_per_chip(&self) -> u32 {
        self.dies_per_chip
    }

    /// Planes per die.
    pub const fn planes_per_die(&self) -> u32 {
        self.planes_per_die
    }

    /// Blocks per plane.
    pub const fn blocks_per_plane(&self) -> u32 {
        self.blocks_per_plane
    }

    /// Pages per block (the erase-unit size).
    pub const fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Total chips in the device.
    pub const fn total_chips(&self) -> u64 {
        self.channels as u64 * self.chips_per_channel as u64
    }

    /// Total planes in the device.
    pub const fn total_planes(&self) -> u64 {
        self.total_chips() * self.dies_per_chip as u64 * self.planes_per_die as u64
    }

    /// Total erase blocks in the device.
    pub const fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Total physical pages in the device.
    pub const fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Encodes a decomposed address into a flat [`Ppn`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component is out of range.
    pub fn ppn_at(
        &self,
        channel: u32,
        chip: u32,
        die: u32,
        plane: u32,
        block: u32,
        page: u32,
    ) -> Ppn {
        debug_assert!(channel < self.channels);
        debug_assert!(chip < self.chips_per_channel);
        debug_assert!(die < self.dies_per_chip);
        debug_assert!(plane < self.planes_per_die);
        debug_assert!(block < self.blocks_per_plane);
        debug_assert!(page < self.pages_per_block);
        let addr = PageAddress {
            channel,
            chip,
            die,
            plane,
            block,
            page,
        };
        self.encode(addr)
    }

    /// Encodes a [`PageAddress`] into a flat [`Ppn`].
    pub fn encode(&self, addr: PageAddress) -> Ppn {
        let mut idx = u64::from(addr.channel);
        idx = idx * u64::from(self.chips_per_channel) + u64::from(addr.chip);
        idx = idx * u64::from(self.dies_per_chip) + u64::from(addr.die);
        idx = idx * u64::from(self.planes_per_die) + u64::from(addr.plane);
        idx = idx * u64::from(self.blocks_per_plane) + u64::from(addr.block);
        idx = idx * u64::from(self.pages_per_block) + u64::from(addr.page);
        Ppn::new(idx)
    }

    /// Decodes a flat [`Ppn`] into its components.
    ///
    /// # Panics
    ///
    /// Panics if the PPN is outside the device.
    pub fn decode(&self, ppn: Ppn) -> PageAddress {
        assert!(
            ppn.index() < self.total_pages(),
            "ppn {ppn} outside device of {} pages",
            self.total_pages()
        );
        let mut idx = ppn.index();
        let page = (idx % u64::from(self.pages_per_block)) as u32;
        idx /= u64::from(self.pages_per_block);
        let block = (idx % u64::from(self.blocks_per_plane)) as u32;
        idx /= u64::from(self.blocks_per_plane);
        let plane = (idx % u64::from(self.planes_per_die)) as u32;
        idx /= u64::from(self.planes_per_die);
        let die = (idx % u64::from(self.dies_per_chip)) as u32;
        idx /= u64::from(self.dies_per_chip);
        let chip = (idx % u64::from(self.chips_per_channel)) as u32;
        idx /= u64::from(self.chips_per_channel);
        let channel = idx as u32;
        PageAddress {
            channel,
            chip,
            die,
            plane,
            block,
            page,
        }
    }

    /// The block that contains `ppn`.
    #[inline]
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        BlockId::new(ppn.index() >> self.page_shift)
    }

    /// The first PPN of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block is outside the device (the shift would
    /// otherwise wrap a large block number onto another block's pages).
    #[inline]
    pub fn first_ppn_of(&self, block: BlockId) -> Ppn {
        assert!(
            block.index() < self.total_blocks,
            "block {block} outside device of {} blocks",
            self.total_blocks
        );
        Ppn::new(block.index() << self.page_shift)
    }

    /// Flat plane index that owns `block` — the unit of block
    /// allocation.
    pub fn plane_of_block(&self, block: BlockId) -> u64 {
        block.index() / u64::from(self.blocks_per_plane)
    }

    /// Iterates every PPN of `block` in program order.
    ///
    /// # Panics
    ///
    /// Panics if the block is outside the device.
    pub fn pages_of(&self, block: BlockId) -> impl Iterator<Item = Ppn> + '_ {
        let first = self.first_ppn_of(block).index();
        (first..first + u64::from(self.pages_per_block)).map(Ppn::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Geometry {
        Geometry::new(2, 2, 2, 2, 4, 8).expect("valid geometry")
    }

    #[test]
    fn totals_multiply_out() {
        let g = small();
        assert_eq!(g.total_chips(), 4);
        assert_eq!(g.total_planes(), 16);
        assert_eq!(g.total_blocks(), 64);
        assert_eq!(g.total_pages(), 512);
    }

    #[test]
    fn encode_decode_round_trips_every_page() {
        let g = small();
        for idx in 0..g.total_pages() {
            let ppn = Ppn::new(idx);
            let addr = g.decode(ppn);
            assert_eq!(g.encode(addr), ppn);
        }
    }

    #[test]
    fn consecutive_ppns_within_block_are_consecutive_pages() {
        let g = small();
        let ppn = g.ppn_at(1, 0, 1, 0, 2, 3);
        let next = Ppn::new(ppn.index() + 1);
        let a = g.decode(ppn);
        let b = g.decode(next);
        assert_eq!(b.page, a.page + 1);
        assert_eq!((b.block, b.plane), (a.block, a.plane));
    }

    #[test]
    fn block_arithmetic_consistent() {
        let g = small();
        let ppn = g.ppn_at(1, 1, 0, 1, 3, 5);
        let block = g.block_of(ppn);
        assert_eq!(g.first_ppn_of(block).index() + 5, ppn.index());
        let pages: Vec<Ppn> = g.pages_of(block).collect();
        assert_eq!(pages.len(), 8);
        assert!(pages.contains(&ppn));
    }

    #[test]
    fn shift_and_mask_agree_with_decode() {
        // Five blocks per plane: the block index is not a power of two
        // even though the page offset is.
        let g = Geometry::new(2, 2, 2, 2, 5, 8).expect("valid geometry");
        for idx in 0..g.total_pages() {
            let ppn = Ppn::new(idx);
            let addr = g.decode(ppn);
            let block = g.block_of(ppn);
            assert_eq!(block.index(), idx / 8);
            assert_eq!(g.first_ppn_of(block).index(), idx - u64::from(addr.page));
            let chip = u64::from(addr.channel * 2 + addr.chip);
            let plane = (chip * 2 + u64::from(addr.die)) * 2 + u64::from(addr.plane);
            assert_eq!(g.plane_of_block(block), plane);
        }
    }

    #[test]
    fn plane_of_block_partitions_blocks() {
        let g = small();
        let mut per_plane = vec![0u32; g.total_planes() as usize];
        for b in 0..g.total_blocks() {
            per_plane[g.plane_of_block(BlockId::new(b)) as usize] += 1;
        }
        assert!(per_plane.iter().all(|&c| c == g.blocks_per_plane()));
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(Geometry::new(0, 1, 1, 1, 1, 1).is_err());
        assert!(Geometry::new(1, 1, 1, 1, 1, 0).is_err());
    }

    #[test]
    fn non_power_of_two_block_size_rejected() {
        for pages in [3, 96, 384] {
            let err = Geometry::new(1, 1, 1, 1, 4, pages).unwrap_err();
            assert!(err.to_string().contains("power of two"), "{err}");
        }
        for pages in [1, 2, 64, 256] {
            assert!(Geometry::new(1, 1, 1, 1, 4, pages).is_ok());
        }
        // Blocks per plane stay free-form.
        assert!(Geometry::new(4, 2, 1, 2, 69, 64).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside device")]
    fn decode_out_of_range_panics() {
        let g = small();
        let _ = g.decode(Ppn::new(g.total_pages()));
    }

    #[test]
    fn last_block_has_the_last_pages() {
        let g = small();
        let last = BlockId::new(g.total_blocks() - 1);
        assert_eq!(g.first_ppn_of(last).index(), g.total_pages() - 8);
        assert_eq!(g.pages_of(last).last(), Some(Ppn::new(g.total_pages() - 1)));
    }

    #[test]
    #[should_panic(expected = "outside device")]
    fn first_ppn_of_block_past_device_panics() {
        let g = small();
        let _ = g.first_ppn_of(BlockId::new(g.total_blocks()));
    }

    /// `1 << 62` shifted by a 4-page block's 2 bits is 0: without the
    /// bound it would name block 0's pages.
    #[test]
    #[should_panic(expected = "outside device")]
    fn first_ppn_of_wrapping_block_panics() {
        let g = Geometry::new(1, 1, 1, 1, 4, 4).expect("valid geometry");
        let _ = g.first_ppn_of(BlockId::new(1 << 62));
    }

    #[test]
    #[should_panic(expected = "outside device")]
    fn pages_of_wrapping_block_panics() {
        let g = Geometry::new(1, 1, 1, 1, 4, 4).expect("valid geometry");
        let _ = g.pages_of(BlockId::new(1 << 62));
    }

    #[test]
    fn display_formats() {
        let g = small();
        assert_eq!(BlockId::new(3).to_string(), "B3");
        let text = g.decode(Ppn::new(0)).to_string();
        assert!(text.starts_with("ch0/"));
    }
}
