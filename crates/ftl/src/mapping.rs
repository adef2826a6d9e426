//! The LPN→PPN mapping table with per-page popularity (Fig 8).

use zssd_types::{Lpn, PopularityDegree, Ppn};

/// Page-level mapping table.
///
/// Each logical page holds its current physical location (if mapped)
/// and the paper's 1-byte popularity counter: "we add 8 bits (1 byte)
/// to the LPN-to-PPN mapping table which counts the popularity of a
/// data block" (§IV-C). Both live in one 8-byte entry per logical
/// page. The counter survives unmapping so popularity information is
/// not lost when content dies.
///
/// Every page number it is given comes from the drive's own tables or
/// from a host address [`Ssd`](crate::Ssd) has already checked, so an
/// out-of-range one is a bug and indexing panics, as the reverse map's
/// writes do.
#[derive(Debug, Clone)]
pub(crate) struct MappingTable {
    entries: Vec<Entry>,
}

/// The most pages either page table can number: the range of [`Lpn`].
/// Both tables store page numbers as `u32` and keep `u32::MAX`
/// ([`Lpn::MAX`]) as a sentinel (an unmapped entry here, an owner-less
/// record in the reverse map), so a drive holds at most `u32::MAX`
/// physical and logical pages, numbered `0..u32::MAX`.
/// [`SsdConfig::validate`](crate::SsdConfig::validate) rejects larger
/// drives.
pub(crate) const MAX_PAGES: u64 = Lpn::MAX.index();

/// The `ppn` of an entry that maps nowhere.
const UNMAPPED: u32 = u32::MAX;

/// One logical page's mapping entry, 8 bytes: its physical page and
/// its popularity byte, so a write's lookup and popularity bump touch
/// one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The physical page, or [`UNMAPPED`].
    ppn: u32,
    popularity: PopularityDegree,
}

impl Entry {
    fn ppn(self) -> Option<Ppn> {
        (self.ppn != UNMAPPED).then(|| Ppn::new(u64::from(self.ppn)))
    }

    /// Sets the physical page, returning the previous one.
    fn replace(&mut self, ppn: u32) -> Option<Ppn> {
        let old = self.ppn();
        self.ppn = ppn;
        old
    }
}

impl MappingTable {
    /// Creates an unmapped table for `logical_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `logical_pages` exceeds `u32::MAX`, the most pages a
    /// table entry can number ([`SsdConfig::validate`] rejects such a
    /// drive before [`Ssd::new`] builds its table).
    ///
    /// [`SsdConfig::validate`]: crate::SsdConfig::validate
    /// [`Ssd::new`]: crate::Ssd::new
    pub(crate) fn new(logical_pages: u64) -> Self {
        assert!(
            logical_pages <= MAX_PAGES,
            "{logical_pages} logical pages do not fit 32-bit page numbers"
        );
        let entry = Entry {
            ppn: UNMAPPED,
            popularity: PopularityDegree::ZERO,
        };
        MappingTable {
            entries: vec![entry; logical_pages as usize],
        }
    }

    /// Current physical location of a logical page.
    pub(crate) fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        self.entries[lpn.index() as usize].ppn()
    }

    /// Points a logical page at a new physical page, returning the
    /// previous location (the page that just died, if any).
    ///
    /// # Panics
    ///
    /// Panics if the physical page number is `u32::MAX` or more, which
    /// no drive that passed [`SsdConfig::validate`] numbers.
    ///
    /// [`SsdConfig::validate`]: crate::SsdConfig::validate
    pub(crate) fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let packed = u32::try_from(ppn.index())
            .ok()
            .filter(|&packed| packed != UNMAPPED)
            .expect("a validated drive numbers its pages below u32::MAX");
        self.entries[lpn.index() as usize].replace(packed)
    }

    /// Unmaps a logical page, returning its previous location.
    pub(crate) fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        self.entries[lpn.index() as usize].replace(UNMAPPED)
    }

    /// The popularity counter of a logical page.
    pub(crate) fn popularity(&self, lpn: Lpn) -> PopularityDegree {
        self.entries[lpn.index() as usize].popularity
    }

    /// Increments the popularity counter (on every host write to the
    /// page), saturating at 255.
    pub(crate) fn bump_popularity(&mut self, lpn: Lpn) {
        self.entries[lpn.index() as usize].popularity.increment();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Whether `f` panics.
    fn panics(f: impl FnOnce()) -> bool {
        catch_unwind(AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn update_reports_the_dying_page() {
        let mut map = MappingTable::new(4);
        assert_eq!(map.update(Lpn::new(0), Ppn::new(10)), None);
        assert_eq!(map.update(Lpn::new(0), Ppn::new(20)), Some(Ppn::new(10)));
        assert_eq!(map.lookup(Lpn::new(0)), Some(Ppn::new(20)));
    }

    #[test]
    fn unmap_clears_and_counts() {
        let mut map = MappingTable::new(4);
        map.update(Lpn::new(1), Ppn::new(5));
        assert_eq!(map.unmap(Lpn::new(1)), Some(Ppn::new(5)));
        assert_eq!(map.unmap(Lpn::new(1)), None);
        assert_eq!(map.lookup(Lpn::new(1)), None);
    }

    #[test]
    fn popularity_persists_across_remaps() {
        let mut map = MappingTable::new(2);
        map.bump_popularity(Lpn::new(0));
        map.bump_popularity(Lpn::new(0));
        map.update(Lpn::new(0), Ppn::new(1));
        map.unmap(Lpn::new(0));
        assert_eq!(map.popularity(Lpn::new(0)), PopularityDegree::new(2));
        assert_eq!(map.popularity(Lpn::new(1)), PopularityDegree::ZERO);
    }

    #[test]
    fn an_entry_is_8_bytes() {
        // A u32 page number and the popularity byte, padded to the
        // u32's alignment.
        assert_eq!(std::mem::size_of::<Entry>(), 8);
    }

    #[test]
    fn the_largest_page_numbers_round_trip() {
        let mut map = MappingTable::new(2);
        let last = Ppn::new(MAX_PAGES - 1);
        assert_eq!(map.update(Lpn::new(1), last), None);
        assert_eq!(map.lookup(Lpn::new(1)), Some(last));
        assert_eq!(map.unmap(Lpn::new(1)), Some(last));
    }

    #[test]
    fn ppns_beyond_32_bits_panic_and_change_nothing() {
        let mut map = MappingTable::new(2);
        map.update(Lpn::new(0), Ppn::new(3));
        for beyond in [MAX_PAGES, 1 << 32, u64::MAX] {
            assert!(panics(|| {
                map.update(Lpn::new(0), Ppn::new(beyond));
            }));
        }
        assert_eq!(map.lookup(Lpn::new(0)), Some(Ppn::new(3)));
    }

    #[test]
    #[should_panic(expected = "32-bit page numbers")]
    fn a_table_beyond_32_bits_panics() {
        // Panics before it allocates anything.
        let _ = MappingTable::new(MAX_PAGES + 1);
    }

    #[test]
    fn out_of_range_lpns_panic() {
        let mut map = MappingTable::new(2);
        let beyond = Lpn::new(2);
        assert!(panics(|| {
            map.lookup(beyond);
        }));
        assert!(panics(|| {
            map.update(beyond, Ppn::new(0));
        }));
        assert!(panics(|| {
            map.unmap(beyond);
        }));
        assert!(panics(|| {
            map.popularity(beyond);
        }));
        assert!(panics(|| map.bump_popularity(beyond)));
    }
}
