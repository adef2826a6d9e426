//! The LPN→PPN mapping table with per-page popularity (Fig 8).

use zssd_types::{AddressError, Lpn, PopularityDegree, Ppn};

/// Page-level mapping table.
///
/// Each logical page holds its current physical location (if mapped)
/// and the paper's 1-byte popularity counter: "we add 8 bits (1 byte)
/// to the LPN-to-PPN mapping table which counts the popularity of a
/// data block" (§IV-C). The counter survives unmapping so popularity
/// information is not lost when content dies.
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
    entries: Vec<Option<Ppn>>,
    popularity: Vec<PopularityDegree>,
}

impl MappingTable {
    /// Creates an unmapped table for `logical_pages` pages.
    pub fn new(logical_pages: u64) -> Self {
        MappingTable {
            entries: vec![None; logical_pages as usize],
            popularity: vec![PopularityDegree::ZERO; logical_pages as usize],
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
        Ok(self.entries[self.check(lpn)?])
    }

    /// Points a logical page at a new physical page, returning the
    /// previous location (the page that just died, if any).
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Result<Option<Ppn>, AddressError> {
        let idx = self.check(lpn)?;
        Ok(self.entries[idx].replace(ppn))
    }

    /// Unmaps a logical page, returning its previous location.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn unmap(&mut self, lpn: Lpn) -> Result<Option<Ppn>, AddressError> {
        let idx = self.check(lpn)?;
        Ok(self.entries[idx].take())
    }

    /// The popularity counter of a logical page.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn popularity(&self, lpn: Lpn) -> Result<PopularityDegree, AddressError> {
        Ok(self.popularity[self.check(lpn)?])
    }

    /// Increments the popularity counter (on every host write to the
    /// page), saturating at 255, and returns the new value.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is beyond the logical capacity.
    pub fn bump_popularity(&mut self, lpn: Lpn) -> Result<PopularityDegree, AddressError> {
        let idx = self.check(lpn)?;
        self.popularity[idx].increment();
        Ok(self.popularity[idx])
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
    fn out_of_range_lpns_error() {
        let mut map = MappingTable::new(2);
        assert!(map.lookup(Lpn::new(2)).is_err());
        assert!(map.update(Lpn::new(9), Ppn::new(0)).is_err());
        assert!(map.bump_popularity(Lpn::new(9)).is_err());
        assert_eq!(map.logical_pages(), 2);
    }
}
