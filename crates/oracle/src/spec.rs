//! The timing-free executable specification of the drive.
//!
//! [`OracleDrive`] is the reference the real [`Ssd`] is diffed against:
//! a flat `Lpn → ValueId` map with the paper's host-visible semantics
//! and none of the mechanism. It knows nothing about flash geometry,
//! GC, block allocation, or wall-clock time — which is exactly why it
//! is trustworthy: every line is auditable against §III of the paper.
//!
//! Besides the exact read semantics, the oracle tracks two *upper
//! bounds* the mechanism can never beat:
//!
//! * `revival_bound` — writes whose content had at least one dead copy
//!   at write time (an infinite, never-collected dead-value pool would
//!   revive exactly these),
//! * `dedup_bound` — writes whose content was live somewhere at write
//!   time but had no dead copy (an unbounded fingerprint index could
//!   dedup these).
//!
//! The real drive's `revived_writes`/`deduped_writes` counters must
//! stay at or below these bounds for any pool capacity, GC schedule,
//! or fault pattern; the differential runner asserts that at the end
//! of every replay.
//!
//! [`Ssd`]: zssd_ftl::Ssd

use std::collections::HashMap;
use std::fmt;

use zssd_trace::{initial_value_of, IoOp, TraceRecord};
use zssd_types::{Lpn, ValueId};

/// Host-level counters of an oracle replay, compared against the real
/// drive's [`RunReport`] by the differential runner.
///
/// [`RunReport`]: zssd_ftl::RunReport
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Host writes accepted.
    pub writes: u64,
    /// Host reads accepted.
    pub reads: u64,
    /// Host trims accepted (idempotent trims included, matching
    /// [`Ssd::trim`]).
    ///
    /// [`Ssd::trim`]: zssd_ftl::Ssd::trim
    pub trims: u64,
    /// Writes an infinite dead-value pool would have revived.
    pub revival_bound: u64,
    /// Writes an unbounded dedup index would have absorbed (and the
    /// pool could not have revived first).
    pub dedup_bound: u64,
}

/// An out-of-range logical address handed to the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleError {
    message: String,
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for OracleError {}

/// The reference drive: what every read must return, independent of
/// pool capacity, dedup index size, GC schedule, or injected faults.
///
/// # Examples
///
/// ```
/// use zssd_oracle::OracleDrive;
/// use zssd_trace::initial_value_of;
/// use zssd_types::{Lpn, ValueId};
///
/// let mut oracle = OracleDrive::new(8, true);
/// oracle.write(Lpn::new(3), ValueId::new(7))?;
/// assert_eq!(oracle.expected_read(Lpn::new(3))?, ValueId::new(7));
/// oracle.trim(Lpn::new(3))?;
/// // Trimmed (and never-written) pages read as pre-trace content.
/// assert_eq!(oracle.expected_read(Lpn::new(3))?, initial_value_of(Lpn::new(3)));
/// # Ok::<(), zssd_oracle::OracleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OracleDrive {
    live: Vec<Option<ValueId>>,
    /// How many logical pages currently hold each value.
    live_refs: HashMap<ValueId, u64>,
    /// Dead copies per value. Deliberately *permissive*: every kill
    /// deposits a copy even when live references remain (the
    /// non-deduplicating drive really does leave a garbage page
    /// behind), so the derived revival bound holds for every system.
    dead_copies: HashMap<ValueId, u64>,
    stats: OracleStats,
}

impl OracleDrive {
    /// A drive of `logical_pages` pages. With `preconditioned` set,
    /// every page starts mapped to its [`initial_value_of`] content
    /// (mirroring [`SsdConfig::precondition`]); otherwise pages start
    /// unmapped — reads return the same initial content either way,
    /// but preconditioned content can die and feed the bounds.
    ///
    /// [`SsdConfig::precondition`]: zssd_ftl::SsdConfig
    pub fn new(logical_pages: u64, preconditioned: bool) -> Self {
        let pages = usize::try_from(logical_pages).expect("oracle footprints fit in memory");
        let mut oracle = OracleDrive {
            live: vec![None; pages],
            live_refs: HashMap::new(),
            dead_copies: HashMap::new(),
            stats: OracleStats::default(),
        };
        if preconditioned {
            for (i, slot) in oracle.live.iter_mut().enumerate() {
                let value = initial_value_of(Lpn::new(i as u64));
                *slot = Some(value);
                oracle.live_refs.insert(value, 1);
            }
        }
        oracle
    }

    /// The logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.live.len() as u64
    }

    /// Counters so far.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// The content a read of `lpn` must return right now: the last
    /// value written, or the pre-trace content when the page was never
    /// written (or was trimmed since).
    ///
    /// # Errors
    ///
    /// Returns an error if `lpn` is beyond the logical capacity.
    pub fn expected_read(&self, lpn: Lpn) -> Result<ValueId, OracleError> {
        let i = self.index(lpn)?;
        Ok(self.live[i].unwrap_or_else(|| initial_value_of(lpn)))
    }

    /// Counting variant of [`OracleDrive::expected_read`].
    ///
    /// # Errors
    ///
    /// Returns an error if `lpn` is beyond the logical capacity.
    pub fn read(&mut self, lpn: Lpn) -> Result<ValueId, OracleError> {
        let value = self.expected_read(lpn)?;
        self.stats.reads += 1;
        Ok(value)
    }

    /// Records a host write of `value` to `lpn`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lpn` is beyond the logical capacity.
    pub fn write(&mut self, lpn: Lpn, value: ValueId) -> Result<(), OracleError> {
        self.write_exact(lpn, selftest_mutate(value))
    }

    /// The write path with no self-test mutation applied, used by the
    /// differential runner (which injects its own mutation hook) and
    /// by trace normalization.
    pub(crate) fn write_exact(&mut self, lpn: Lpn, value: ValueId) -> Result<(), OracleError> {
        let i = self.index(lpn)?;
        self.stats.writes += 1;
        // Score the bounds *before* the overwrite kills the old
        // content, mirroring the real §IV-C order (pool lookup, then
        // dedup, then program) on the pre-write state.
        if self.dead_copies.get(&value).is_some_and(|&n| n > 0) {
            self.stats.revival_bound += 1;
            self.take_dead_copy(value);
        } else if self.live_refs.get(&value).is_some_and(|&n| n > 0) {
            self.stats.dedup_bound += 1;
        }
        self.kill_current(i);
        self.live[i] = Some(value);
        *self.live_refs.entry(value).or_insert(0) += 1;
        Ok(())
    }

    /// Records a host trim of `lpn`: the page is unmapped and its
    /// content (if any) dies. Trimming an unmapped page is an
    /// acknowledged no-op, exactly like [`Ssd::trim`].
    ///
    /// # Errors
    ///
    /// Returns an error if `lpn` is beyond the logical capacity.
    ///
    /// [`Ssd::trim`]: zssd_ftl::Ssd::trim
    pub fn trim(&mut self, lpn: Lpn) -> Result<(), OracleError> {
        let i = self.index(lpn)?;
        self.stats.trims += 1;
        self.kill_current(i);
        Ok(())
    }

    /// Applies one trace record, returning the expected content for
    /// reads (the record's own `value` field is ignored — shrunk
    /// traces legitimately carry stale read expectations).
    ///
    /// # Errors
    ///
    /// Returns an error if the record's `lpn` is beyond the logical
    /// capacity.
    pub fn step(&mut self, record: &TraceRecord) -> Result<Option<ValueId>, OracleError> {
        match record.op {
            IoOp::Write => {
                self.write(record.lpn, record.value)?;
                Ok(None)
            }
            IoOp::Read => Ok(Some(self.read(record.lpn)?)),
            IoOp::Trim => {
                self.trim(record.lpn)?;
                Ok(None)
            }
        }
    }

    fn index(&self, lpn: Lpn) -> Result<usize, OracleError> {
        let i = lpn.index();
        if i >= self.live.len() as u64 {
            return Err(OracleError {
                message: format!("{lpn} beyond logical capacity {}", self.live.len()),
            });
        }
        Ok(i as usize)
    }

    fn kill_current(&mut self, i: usize) {
        if let Some(old) = self.live[i].take() {
            if let Some(refs) = self.live_refs.get_mut(&old) {
                *refs -= 1;
                if *refs == 0 {
                    self.live_refs.remove(&old);
                }
            }
            *self.dead_copies.entry(old).or_insert(0) += 1;
        }
    }

    fn take_dead_copy(&mut self, value: ValueId) {
        if let Some(n) = self.dead_copies.get_mut(&value) {
            *n -= 1;
            if *n == 0 {
                self.dead_copies.remove(&value);
            }
        }
    }
}

/// The deliberate specification bug armed by `--cfg zssd_fuzz_selftest`
/// builds: values on a thin, stateless slice of the value space are
/// recorded off by one. The shrinker self-test (and the CI `fuzz-smoke`
/// job) prove the differential harness catches this and minimizes the
/// failing trace to a handful of operations. The mutation is stateless
/// on purpose — a counter-keyed bug would put a floor under how far a
/// trace can shrink.
#[cfg(any(test, zssd_fuzz_selftest))]
pub(crate) fn off_by_one(value: ValueId) -> ValueId {
    if value.raw() % 257 == 13 {
        ValueId::new(value.raw() + 1)
    } else {
        value
    }
}

#[cfg(zssd_fuzz_selftest)]
pub(crate) fn selftest_mutate(value: ValueId) -> ValueId {
    off_by_one(value)
}

#[cfg(not(zssd_fuzz_selftest))]
pub(crate) fn selftest_mutate(value: ValueId) -> ValueId {
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_and_trimmed_pages_read_initial_content() {
        let mut o = OracleDrive::new(4, false);
        let lpn = Lpn::new(2);
        assert_eq!(
            o.expected_read(lpn).expect("in range"),
            initial_value_of(lpn)
        );
        o.write(lpn, ValueId::new(9)).expect("write");
        assert_eq!(o.expected_read(lpn).expect("in range"), ValueId::new(9));
        o.trim(lpn).expect("trim");
        assert_eq!(
            o.expected_read(lpn).expect("in range"),
            initial_value_of(lpn)
        );
        // Idempotent trim still counts, like Ssd::trim.
        o.trim(lpn).expect("re-trim");
        assert_eq!(o.stats().trims, 2);
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let mut o = OracleDrive::new(4, true);
        assert!(o.expected_read(Lpn::new(4)).is_err());
        assert!(o.write(Lpn::new(99), ValueId::new(1)).is_err());
        assert!(o.trim(Lpn::new(4)).is_err());
        assert_eq!(
            o.stats(),
            OracleStats::default(),
            "rejected ops count nothing"
        );
    }

    #[test]
    fn revival_bound_tracks_dead_copies() {
        let mut o = OracleDrive::new(8, false);
        let (a, b) = (Lpn::new(0), Lpn::new(1));
        let v = ValueId::new(7);
        o.write(a, v).expect("write");
        o.write(a, ValueId::new(8)).expect("overwrite kills 7");
        o.write(b, v).expect("rewrite of dead content");
        assert_eq!(o.stats().revival_bound, 1);
        // The dead copy was consumed: a further rewrite sees only the
        // live copy at `b` and scores as a dedup opportunity.
        o.write(Lpn::new(2), v).expect("second rewrite");
        assert_eq!(o.stats().revival_bound, 1);
        assert_eq!(o.stats().dedup_bound, 1);
    }

    #[test]
    fn preconditioned_content_feeds_the_bounds() {
        let mut o = OracleDrive::new(8, true);
        let lpn = Lpn::new(3);
        // Writing another page's initial content dedups against the
        // preconditioned copy.
        o.write(lpn, initial_value_of(Lpn::new(5))).expect("write");
        assert_eq!(o.stats().dedup_bound, 1);
        // The overwrite killed lpn 3's own initial content; rewriting
        // it is a revival opportunity.
        o.write(Lpn::new(6), initial_value_of(lpn))
            .expect("rewrite");
        assert_eq!(o.stats().revival_bound, 1);
    }

    #[test]
    fn same_content_rewrite_scores_as_dedup() {
        let mut o = OracleDrive::new(8, false);
        let lpn = Lpn::new(0);
        let v = ValueId::new(5);
        o.write(lpn, v).expect("write");
        o.write(lpn, v).expect("rewrite in place");
        assert_eq!(o.stats().dedup_bound, 1);
        assert_eq!(o.expected_read(lpn).expect("in range"), v);
    }

    #[test]
    fn step_applies_records_and_reports_read_expectations() {
        let mut o = OracleDrive::new(8, false);
        let w = TraceRecord::write(Lpn::new(1), ValueId::new(3));
        let r = TraceRecord::read(Lpn::new(1), ValueId::new(999)); // stale
        let t = TraceRecord::trim(Lpn::new(1));
        assert_eq!(o.step(&w).expect("write"), None);
        assert_eq!(o.step(&r).expect("read"), Some(ValueId::new(3)));
        assert_eq!(o.step(&t).expect("trim"), None);
        assert_eq!(o.stats().writes, 1);
        assert_eq!(o.stats().reads, 1);
        assert_eq!(o.stats().trims, 1);
    }

    #[test]
    fn off_by_one_is_thin_and_stateless() {
        assert_eq!(off_by_one(ValueId::new(13)), ValueId::new(14));
        assert_eq!(off_by_one(ValueId::new(13 + 257)), ValueId::new(14 + 257));
        assert_eq!(off_by_one(ValueId::new(12)), ValueId::new(12));
        assert_eq!(off_by_one(ValueId::new(0)), ValueId::new(0));
    }
}
