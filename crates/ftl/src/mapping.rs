//! The LPN→PPN mapping table with per-page popularity (Fig 8).

use zssd_types::{AddressError, Lpn, PopularityDegree, Ppn};

/// Page-level mapping table.
///
/// Each logical page holds its current physical location (if mapped)
/// and the paper's 1-byte popularity counter: "we add 8 bits (1 byte)
/// to the LPN-to-PPN mapping table which counts the popularity of a
/// data block" (§IV-C). Both live in one 8-byte entry per logical
/// page. The counter survives unmapping so popularity information is
/// not lost when content dies.
///
/// # Examples
///
/// ```
/// use zssd_ftl::MappingTable;
/// use zssd_types::{Lpn, Ppn};
///
/// let mut map = MappingTable::new(128);
/// assert_eq!(map.lookup(Lpn::new(5))?, None);
/// let old = map.update(Lpn::new(5), Ppn::new(40))?;
/// assert_eq!(old, None);
/// assert_eq!(map.lookup(Lpn::new(5))?, Some(Ppn::new(40)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MappingTable {
    entries: Vec<Entry>,
}

/// The most pages either page table can number. Both store page
/// numbers as `u32` and keep `u32::MAX` as a sentinel (an unmapped
/// entry here, an owner-less record in the reverse map), so a drive
/// holds at most `u32::MAX` physical and logical pages, numbered
/// `0..u32::MAX`. [`SsdConfig::validate`](crate::SsdConfig::validate)
/// rejects larger drives.
pub(crate) const MAX_PAGES: u64 = u32::MAX as u64;

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
    pub fn new(logical_pages: u64) -> Self {
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

    /// Number of logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.entries.len() as u64
    }

    fn check(&self, lpn: Lpn) -> Result<usize, AddressError> {
        let idx = lpn.index() as usize;
        if idx >= self.entries.len() {
            Err(AddressError::out_of_range(
                "lpn",
                lpn.index(),
                self.entries.len() as u64,
            ))
        } else {
            Ok(idx)
        }
    }

    /// Current physical location of a logical page.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn lookup(&self, lpn: Lpn) -> Result<Option<Ppn>, AddressError> {
        Ok(self.entries[self.check(lpn)?].ppn())
    }

    /// Points a logical page at a new physical page, returning the
    /// previous location (the page that just died, if any).
    ///
    /// # Errors
    ///
    /// Returns an error if the logical page is beyond the logical
    /// capacity, or the physical page number is `u32::MAX` or more
    /// (no drive has that many pages).
    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Result<Option<Ppn>, AddressError> {
        let idx = self.check(lpn)?;
        let packed = u32::try_from(ppn.index())
            .ok()
            .filter(|&packed| packed != UNMAPPED)
            .ok_or_else(|| AddressError::out_of_range("ppn", ppn.index(), MAX_PAGES))?;
        Ok(self.entries[idx].replace(packed))
    }

    /// Unmaps a logical page, returning its previous location.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn unmap(&mut self, lpn: Lpn) -> Result<Option<Ppn>, AddressError> {
        let idx = self.check(lpn)?;
        Ok(self.entries[idx].replace(UNMAPPED))
    }

    /// The popularity counter of a logical page.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn popularity(&self, lpn: Lpn) -> Result<PopularityDegree, AddressError> {
        Ok(self.entries[self.check(lpn)?].popularity)
    }

    /// Increments the popularity counter (on every host write to the
    /// page), saturating at 255, and returns the new value.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn bump_popularity(&mut self, lpn: Lpn) -> Result<PopularityDegree, AddressError> {
        let idx = self.check(lpn)?;
        let popularity = &mut self.entries[idx].popularity;
        popularity.increment();
        Ok(*popularity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_reports_the_dying_page() {
        let mut map = MappingTable::new(4);
        assert_eq!(map.update(Lpn::new(0), Ppn::new(10)).expect("ok"), None);
        assert_eq!(
            map.update(Lpn::new(0), Ppn::new(20)).expect("ok"),
            Some(Ppn::new(10))
        );
    }

    #[test]
    fn unmap_clears_and_counts() {
        let mut map = MappingTable::new(4);
        map.update(Lpn::new(1), Ppn::new(5)).expect("ok");
        assert_eq!(map.unmap(Lpn::new(1)).expect("ok"), Some(Ppn::new(5)));
        assert_eq!(map.unmap(Lpn::new(1)).expect("ok"), None);
        assert_eq!(map.lookup(Lpn::new(1)).expect("ok"), None);
    }

    #[test]
    fn popularity_persists_across_remaps() {
        let mut map = MappingTable::new(2);
        map.bump_popularity(Lpn::new(0)).expect("ok");
        map.bump_popularity(Lpn::new(0)).expect("ok");
        map.update(Lpn::new(0), Ppn::new(1)).expect("ok");
        map.unmap(Lpn::new(0)).expect("ok");
        assert_eq!(
            map.popularity(Lpn::new(0)).expect("ok"),
            PopularityDegree::new(2)
        );
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
        assert_eq!(map.update(Lpn::new(1), last).expect("ok"), None);
        assert_eq!(map.lookup(Lpn::new(1)).expect("ok"), Some(last));
        assert_eq!(map.unmap(Lpn::new(1)).expect("ok"), Some(last));
    }

    #[test]
    fn ppns_beyond_32_bits_error_and_change_nothing() {
        let mut map = MappingTable::new(2);
        map.update(Lpn::new(0), Ppn::new(3)).expect("ok");
        for beyond in [MAX_PAGES, 1 << 32, u64::MAX] {
            assert!(map.update(Lpn::new(0), Ppn::new(beyond)).is_err());
        }
        assert_eq!(map.lookup(Lpn::new(0)).expect("ok"), Some(Ppn::new(3)));
    }

    #[test]
    #[should_panic(expected = "32-bit page numbers")]
    fn a_table_beyond_32_bits_panics() {
        // Panics before it allocates anything.
        let _ = MappingTable::new(MAX_PAGES + 1);
    }

    #[test]
    fn out_of_range_lpns_error() {
        let mut map = MappingTable::new(2);
        assert!(map.lookup(Lpn::new(2)).is_err());
        assert!(map.update(Lpn::new(9), Ppn::new(0)).is_err());
        assert!(map.bump_popularity(Lpn::new(9)).is_err());
        assert_eq!(map.logical_pages(), 2);
    }
}
