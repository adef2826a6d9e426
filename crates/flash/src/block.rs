//! Per-page and per-block state.

use core::fmt;

/// The life-cycle state of one physical page.
///
/// The paper's central move is the `Invalid → Valid` transition
/// ("rebirth"): a garbage page whose content matches an incoming write
/// is flipped back to valid instead of being erased.
///
/// [`PageState::Bad`] is terminal: a page whose program failed (or
/// whose whole block was retired) never holds data again and is
/// skipped by the sequential program cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageState {
    /// Erased and programmable.
    #[default]
    Free,
    /// Holds live data referenced by the mapping table.
    Valid,
    /// Holds dead data (a garbage / "zombie" page) awaiting GC — or
    /// revival.
    Invalid,
    /// Worn out or program-failed; permanently unusable.
    Bad,
}

impl fmt::Display for PageState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageState::Free => "free",
            PageState::Valid => "valid",
            PageState::Invalid => "invalid",
            PageState::Bad => "bad",
        };
        f.write_str(s)
    }
}

/// Where a block sits in the array, resolved once from
/// [`Geometry::decode`](crate::Geometry::decode) of its first page so
/// the per-operation paths never divide a PPN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Placement {
    /// Flat plane index (channel-major); copyback stays within it.
    pub(crate) plane: u32,
    /// Flat chip index (channel-major): the unit of busy-time
    /// serialization for reads, programs and erases.
    pub(crate) chip: u32,
    /// Channel index: the unit of transfer serialization.
    pub(crate) channel: u32,
}

/// Mutable state of one erase block. Its page states live in the
/// array's flat PPN-indexed table; the methods that change them take
/// the block's slice of it.
///
/// Invariant: every page at or beyond `write_cursor` is
/// [`PageState::Free`] — the cursor is advanced past bad pages by
/// [`Block::skip_bad`] whenever it moves, so callers may always program
/// at the cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Block {
    /// Next page offset that may be programmed (NAND programs pages of
    /// a block strictly in order).
    pub(crate) write_cursor: u32,
    pub(crate) erase_count: u64,
    pub(crate) valid_count: u32,
    pub(crate) invalid_count: u32,
    pub(crate) bad_count: u32,
    /// Programmable pages remaining; maintained explicitly so the hot
    /// allocator probe stays O(1) with bad pages in the mix.
    pub(crate) free_count: u32,
    pub(crate) placement: Placement,
}

impl Block {
    pub(crate) fn new(pages_per_block: u32, placement: Placement) -> Self {
        Block {
            write_cursor: 0,
            erase_count: 0,
            valid_count: 0,
            invalid_count: 0,
            bad_count: 0,
            free_count: pages_per_block,
            placement,
        }
    }

    pub(crate) fn free_count(&self) -> u32 {
        self.free_count
    }

    /// Advances the cursor past bad pages so it rests on a free page
    /// (or the end of the block).
    pub(crate) fn skip_bad(&mut self, pages: &[PageState]) {
        while pages.get(self.write_cursor as usize) == Some(&PageState::Bad) {
            self.write_cursor += 1;
        }
    }

    /// Marks the page at the cursor valid (a successful program) and
    /// advances the cursor.
    pub(crate) fn program_at_cursor(&mut self, pages: &mut [PageState]) {
        pages[self.write_cursor as usize] = PageState::Valid;
        self.write_cursor += 1;
        self.valid_count += 1;
        self.free_count -= 1;
        self.skip_bad(pages);
    }

    /// Marks the page at the cursor bad (a failed program) and
    /// advances the cursor — the page is consumed without ever holding
    /// data.
    pub(crate) fn fail_at_cursor(&mut self, pages: &mut [PageState]) {
        pages[self.write_cursor as usize] = PageState::Bad;
        self.write_cursor += 1;
        self.bad_count += 1;
        self.free_count -= 1;
        self.skip_bad(pages);
    }

    /// Erases the block: every non-bad page becomes free, bad pages
    /// stay bad, and the cursor returns to the first free page.
    pub(crate) fn erase(&mut self, pages: &mut [PageState]) {
        for page in pages.iter_mut() {
            if *page != PageState::Bad {
                *page = PageState::Free;
            }
        }
        self.write_cursor = 0;
        self.valid_count = 0;
        self.invalid_count = 0;
        self.free_count = pages.len() as u32 - self.bad_count;
        self.erase_count += 1;
        self.skip_bad(pages);
    }

    /// Retires the block: every page becomes bad and nothing is
    /// programmable ever again. The caller must have relocated or
    /// purged any data first (no valid pages remain).
    pub(crate) fn retire(&mut self, pages: &mut [PageState]) {
        pages.fill(PageState::Bad);
        self.write_cursor = pages.len() as u32;
        self.valid_count = 0;
        self.invalid_count = 0;
        self.bad_count = pages.len() as u32;
        self.free_count = 0;
    }

    /// The invalid pages of a full block (no free page), 0 for any
    /// other block: see [`FlashArray::reclaimable_pages`].
    ///
    /// [`FlashArray::reclaimable_pages`]: crate::FlashArray::reclaimable_pages
    #[inline]
    pub(crate) fn reclaimable(&self) -> u32 {
        if self.free_count == 0 {
            self.invalid_count
        } else {
            0
        }
    }

    pub(crate) fn info(&self) -> BlockInfo {
        BlockInfo {
            valid_pages: self.valid_count,
            invalid_pages: self.invalid_count,
            free_pages: self.free_count(),
            bad_pages: self.bad_count,
            erase_count: self.erase_count,
        }
    }
}

/// A read-only snapshot of a block's occupancy, consumed by GC victim
/// selectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BlockInfo {
    /// Pages holding live data.
    pub valid_pages: u32,
    /// Garbage pages (candidates for revival or erase).
    pub invalid_pages: u32,
    /// Pages still programmable.
    pub free_pages: u32,
    /// Permanently unusable pages (program failures / retirement).
    pub bad_pages: u32,
    /// How many times this block has been erased (wear).
    pub erase_count: u64,
}

impl BlockInfo {
    /// Whether the block has been fully written (no free pages) — only
    /// such blocks are sensible GC victims.
    pub fn is_full(&self) -> bool {
        self.free_pages == 0
    }

    /// Whether the block is retired: every page is bad, so it holds no
    /// data and can never be programmed or erased back into service.
    pub fn is_retired(&self) -> bool {
        self.bad_pages > 0
            && self.valid_pages == 0
            && self.invalid_pages == 0
            && self.free_pages == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh block and its page states.
    fn fresh(pages: u32) -> (Block, Vec<PageState>) {
        (
            Block::new(pages, Placement::default()),
            vec![PageState::Free; pages as usize],
        )
    }

    #[test]
    fn fresh_block_is_all_free() {
        let (b, _) = fresh(8);
        assert_eq!(b.free_count(), 8);
        assert_eq!(b.info().valid_pages, 0);
        assert!(!b.info().is_full());
        assert!(!b.info().is_retired());
    }

    #[test]
    fn erase_resets_everything_but_wear() {
        let (mut b, mut pages) = fresh(4);
        pages[0] = PageState::Valid;
        pages[1] = PageState::Invalid;
        b.write_cursor = 2;
        b.valid_count = 1;
        b.invalid_count = 1;
        b.free_count = 2;
        b.erase(&mut pages);
        assert_eq!(b.free_count(), 4);
        assert_eq!(b.erase_count, 1);
        assert!(pages.iter().all(|&p| p == PageState::Free));
    }

    #[test]
    fn failed_programs_consume_pages_and_survive_erase() {
        let (mut b, mut pages) = fresh(4);
        b.program_at_cursor(&mut pages); // page 0 valid
        b.fail_at_cursor(&mut pages); // page 1 bad
        assert_eq!(b.write_cursor, 2);
        assert_eq!(b.free_count(), 2);
        assert_eq!(b.info().bad_pages, 1);
        b.program_at_cursor(&mut pages); // page 2 valid
        pages[0] = PageState::Invalid;
        pages[2] = PageState::Invalid;
        b.valid_count = 0;
        b.invalid_count = 2;
        b.erase(&mut pages);
        // Bad pages stay bad; capacity shrinks accordingly.
        assert_eq!(b.free_count(), 3);
        assert_eq!(pages[1], PageState::Bad);
        assert_eq!(b.write_cursor, 0, "cursor returns to the first free page");
    }

    #[test]
    fn cursor_skips_leading_and_mid_block_bad_pages() {
        let (mut b, mut pages) = fresh(4);
        b.fail_at_cursor(&mut pages); // page 0 bad
        assert_eq!(b.write_cursor, 1, "cursor already past the bad page");
        b.program_at_cursor(&mut pages); // page 1 valid
        b.fail_at_cursor(&mut pages); // page 2 bad -> cursor lands on 3
        assert_eq!(b.write_cursor, 3);
        pages[1] = PageState::Invalid;
        b.valid_count = 0;
        b.invalid_count = 1;
        b.erase(&mut pages);
        // After erase the cursor skips the bad page 0.
        assert_eq!(b.write_cursor, 1);
        b.program_at_cursor(&mut pages); // page 1 valid again
        assert_eq!(b.write_cursor, 3, "mid-block bad page 2 skipped");
    }

    #[test]
    fn cursor_stops_at_the_end_of_a_block_ending_in_bad_pages() {
        let (mut b, mut pages) = fresh(4);
        pages[2] = PageState::Bad;
        pages[3] = PageState::Bad;
        b.bad_count = 2;
        b.free_count = 2;
        b.program_at_cursor(&mut pages);
        b.program_at_cursor(&mut pages);
        assert_eq!(b.write_cursor, 4, "cursor rests at the end, not past it");
        assert_eq!(b.free_count(), 0);
    }

    #[test]
    fn retire_makes_every_page_bad() {
        let (mut b, mut pages) = fresh(4);
        b.program_at_cursor(&mut pages);
        pages[0] = PageState::Invalid;
        b.valid_count = 0;
        b.invalid_count = 1;
        b.retire(&mut pages);
        assert!(pages.iter().all(|&p| p == PageState::Bad));
        assert_eq!(b.free_count(), 0);
        assert!(b.info().is_retired());
        assert!(b.info().is_full());
        // Erasing a retired block frees nothing.
        b.erase(&mut pages);
        assert_eq!(b.free_count(), 0);
        assert!(b.info().is_retired());
    }

    #[test]
    fn only_a_full_block_has_reclaimable_pages() {
        let (mut b, mut pages) = fresh(4);
        b.program_at_cursor(&mut pages);
        pages[0] = PageState::Invalid;
        b.valid_count = 0;
        b.invalid_count = 1;
        b.fail_at_cursor(&mut pages);
        b.program_at_cursor(&mut pages);
        assert_eq!(b.reclaimable(), 0, "one free page is left");
        b.program_at_cursor(&mut pages);
        assert_eq!(b.reclaimable(), 1, "full, bad page included");
        b.retire(&mut pages);
        assert_eq!(b.reclaimable(), 0, "full, but no garbage");
    }

    #[test]
    fn page_state_default_and_display() {
        assert_eq!(PageState::default(), PageState::Free);
        assert_eq!(PageState::Invalid.to_string(), "invalid");
        assert_eq!(PageState::Bad.to_string(), "bad");
    }
}
