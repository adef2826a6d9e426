//! Workload profiles: the knobs of the synthetic generator plus the
//! six paper presets (Table II).

use core::fmt;
use std::error::Error;

use zssd_types::Lpn;

/// A profile too large for the generator's compact tables, reported
/// by [`WorkloadProfile::validate`] before anything is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// `requests_per_day × days` does not fit a `u64`.
    RequestsOverflow,
    /// The trace would hold this many writes, `u32::MAX` or more: the
    /// generator keeps value ranks in `u32`s.
    TooManyWrites(u64),
    /// The footprint, in pages, is above `u32::MAX` ([`Lpn::MAX`]): the
    /// generator keeps addresses in `u32`s, as [`Lpn`] does.
    FootprintTooLarge(u64),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RequestsOverflow => f.write_str("requests per day times days overflows a u64"),
            Self::TooManyWrites(n) => {
                write!(f, "{n} writes: the generator takes fewer than {}", u32::MAX)
            }
            Self::FootprintTooLarge(n) => {
                let max = Lpn::MAX.index();
                write!(f, "{n} pages: the generator takes at most {max}")
            }
        }
    }
}

impl Error for ProfileError {}

/// Parameters of a synthetic content workload.
///
/// The three quantities Table II reports — write ratio, % unique write
/// values, % unique read values — are controlled by `write_ratio`,
/// `unique_write_frac`, and `read_alpha` respectively; `value_alpha`
/// sets the popularity skew among duplicated values (Fig 3's 20/80
/// shape at `alpha ≈ 1`). All fields are public: this is a passive
/// configuration record.
///
/// # Examples
///
/// ```
/// use zssd_trace::WorkloadProfile;
/// let mail = WorkloadProfile::mail();
/// assert_eq!(mail.name, "mail");
/// assert!(mail.write_ratio > 0.7);
/// let small = mail.scaled(0.1);
/// assert_eq!(small.requests_per_day, mail.requests_per_day / 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (used in figure labels: "mail" → `m1`, `m2`, …).
    pub name: String,
    /// Requests issued per simulated day.
    pub requests_per_day: u64,
    /// Number of consecutive days (the paper's `m1`..`mN` series).
    pub days: u32,
    /// Fraction of requests that are writes (Table II "WR %").
    pub write_ratio: f64,
    /// Target fraction of write requests carrying never-seen content
    /// (Table II "Unique Value % — WR").
    pub unique_write_frac: f64,
    /// Zipf exponent of duplicate-value popularity (higher = a few
    /// values dominate rewrites).
    pub value_alpha: f64,
    /// Zipf exponent of write address selection (update locality).
    pub lpn_alpha: f64,
    /// Zipf exponent of read address selection — the main control of
    /// Table II "Unique Value % — RD" (higher = more repeated reads).
    pub read_alpha: f64,
    /// Logical footprint in 4 KB pages.
    pub lpn_space: u64,
    /// Probability that a duplicate write lands on its value's *home*
    /// address instead of a fresh Zipf draw. Real traces correlate
    /// content and address (the same file block is rewritten with the
    /// same content), which is what makes the paper's per-LPN 1-byte
    /// popularity counter a usable proxy for value popularity.
    pub home_affinity: f64,
    /// Mean length of a value's occurrence *burst*: a value's writes
    /// arrive in clustered runs (a circulated attachment lands in many
    /// mailboxes this hour, then goes quiet) rather than spread
    /// uniformly over the trace. Between bursts all copies of a value
    /// typically die — the window in which only the dead-value pool
    /// (not deduplication) can eliminate its rewrites (SVII, Fig 13).
    /// `1.0` disables bursting.
    pub burst_len: f64,
    /// Fraction of the footprint that hosts the values' *home*
    /// addresses. A small region makes recurring content share a hot
    /// set of addresses (a mail spool, a database working set), so
    /// values overwrite each other there and fully die between bursts
    /// — the death/rebirth cycle the paper exploits. `1.0` spreads
    /// homes over the whole footprint.
    pub home_region_frac: f64,
    /// Fraction of requests that are TRIMs (host discards). The FIU
    /// traces predate widespread TRIM, so every paper preset uses
    /// `0.0`; [`WorkloadProfile::with_trim_ratio`] opts a workload in.
    pub trim_ratio: f64,
}

impl WorkloadProfile {
    /// FIU **web** server: WR 77%, unique writes 42%, unique reads 32%.
    pub fn web() -> Self {
        WorkloadProfile {
            name: "web".to_owned(),
            requests_per_day: 600_000,
            days: 3,
            write_ratio: 0.77,
            unique_write_frac: 0.42,
            value_alpha: 0.95,
            lpn_alpha: 1.1,
            read_alpha: 1.35,
            lpn_space: 160_000,
            home_affinity: 0.8,
            burst_len: 4.0,
            home_region_frac: 0.03,
            trim_ratio: 0.0,
        }
    }

    /// FIU **home** directories: WR 96%, unique writes 66%, unique
    /// reads 80%.
    pub fn home() -> Self {
        WorkloadProfile {
            name: "home".to_owned(),
            requests_per_day: 600_000,
            days: 3,
            write_ratio: 0.96,
            unique_write_frac: 0.66,
            value_alpha: 1.05,
            lpn_alpha: 1.0,
            read_alpha: 1.0,
            lpn_space: 240_000,
            home_affinity: 0.75,
            burst_len: 3.0,
            home_region_frac: 0.05,
            trim_ratio: 0.0,
        }
    }

    /// FIU **mail** server: WR 77%, unique writes 8%, unique reads 80%.
    /// The paper's best case: massive write redundancy (circulated
    /// attachments, SPAM) and the largest footprint.
    pub fn mail() -> Self {
        WorkloadProfile {
            name: "mail".to_owned(),
            requests_per_day: 1_000_000,
            days: 3,
            write_ratio: 0.77,
            unique_write_frac: 0.08,
            value_alpha: 1.05,
            lpn_alpha: 1.3,
            read_alpha: 0.15,
            lpn_space: 2_100_000,
            home_affinity: 0.9,
            burst_len: 6.0,
            home_region_frac: 0.02,
            trim_ratio: 0.0,
        }
    }

    /// OSU **hadoop**: WR 30%, unique writes 63.9%, unique reads 17.5%.
    pub fn hadoop() -> Self {
        WorkloadProfile {
            name: "hadoop".to_owned(),
            requests_per_day: 300_000,
            days: 3,
            write_ratio: 0.30,
            unique_write_frac: 0.639,
            value_alpha: 1.0,
            lpn_alpha: 0.9,
            read_alpha: 1.12,
            lpn_space: 60_000,
            home_affinity: 0.65,
            burst_len: 2.5,
            home_region_frac: 0.1,
            trim_ratio: 0.0,
        }
    }

    /// OSU **trans** (transactional/TPC-like): WR 55%, unique writes
    /// 77.4%, unique reads 13.8%.
    pub fn trans() -> Self {
        WorkloadProfile {
            name: "trans".to_owned(),
            requests_per_day: 300_000,
            days: 3,
            write_ratio: 0.55,
            unique_write_frac: 0.774,
            value_alpha: 1.3,
            lpn_alpha: 0.8,
            read_alpha: 1.52,
            lpn_space: 30_000,
            home_affinity: 0.5,
            burst_len: 2.0,
            home_region_frac: 0.1,
            trim_ratio: 0.0,
        }
    }

    /// OSU **desktop** (office system): WR 42%, unique writes 74.7%,
    /// unique reads 49.7%. Small footprint, low redundancy — the
    /// paper's worst case.
    pub fn desktop() -> Self {
        WorkloadProfile {
            name: "desktop".to_owned(),
            requests_per_day: 300_000,
            days: 3,
            write_ratio: 0.42,
            unique_write_frac: 0.747,
            value_alpha: 1.2,
            lpn_alpha: 0.8,
            read_alpha: 0.8,
            lpn_space: 96_000,
            home_affinity: 0.5,
            burst_len: 2.0,
            home_region_frac: 0.25,
            trim_ratio: 0.0,
        }
    }

    /// All six paper workloads, in the order of the evaluation figures.
    pub fn paper_set() -> Vec<WorkloadProfile> {
        vec![
            WorkloadProfile::web(),
            WorkloadProfile::home(),
            WorkloadProfile::mail(),
            WorkloadProfile::hadoop(),
            WorkloadProfile::trans(),
            WorkloadProfile::desktop(),
        ]
    }

    /// The three FIU day-series workloads of Figs 1 and 5 (mail, home,
    /// web).
    pub fn fiu_set() -> Vec<WorkloadProfile> {
        vec![
            WorkloadProfile::mail(),
            WorkloadProfile::home(),
            WorkloadProfile::web(),
        ]
    }

    /// Shrinks (or grows) the workload: request count and footprint
    /// scale by `factor`, all ratios stay fixed. Useful for tests and
    /// examples.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> WorkloadProfile {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let mut scaled = self.clone();
        scaled.requests_per_day = ((self.requests_per_day as f64 * factor).round() as u64).max(10);
        scaled.lpn_space = ((self.lpn_space as f64 * factor).round() as u64).max(64);
        scaled
    }

    /// Same profile with a different number of days.
    pub fn with_days(mut self, days: u32) -> WorkloadProfile {
        assert!(days > 0, "at least one day");
        self.days = days;
        self
    }

    /// Same profile with `ratio` of its requests issued as TRIMs.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= ratio < 1`.
    pub fn with_trim_ratio(mut self, ratio: f64) -> WorkloadProfile {
        assert!(
            ratio.is_finite() && (0.0..1.0).contains(&ratio),
            "trim ratio must be in [0, 1)"
        );
        self.trim_ratio = ratio;
        self
    }

    /// Total requests across all days.
    pub fn total_requests(&self) -> u64 {
        self.requests_per_day * u64::from(self.days)
    }

    /// Writes among `total` requests: `write_ratio` of them, rounded.
    pub(crate) fn write_count(&self, total: u64) -> u64 {
        (((total as f64) * self.write_ratio).round() as u64).min(total)
    }

    /// Checks that the generator can produce this profile: the request
    /// count fits a `u64`, the writes stay below `u32::MAX`, and the
    /// footprint is at most `u32::MAX` pages, the range of [`Lpn`].
    ///
    /// # Errors
    ///
    /// Returns the first limit the profile breaks.
    pub fn validate(&self) -> Result<(), ProfileError> {
        let total = self
            .requests_per_day
            .checked_mul(u64::from(self.days))
            .ok_or(ProfileError::RequestsOverflow)?;
        let writes = self.write_count(total);
        if writes >= u64::from(u32::MAX) {
            return Err(ProfileError::TooManyWrites(writes));
        }
        if self.lpn_space > Lpn::MAX.index() {
            return Err(ProfileError::FootprintTooLarge(self.lpn_space));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_matches_table2_targets() {
        let set = WorkloadProfile::paper_set();
        assert_eq!(set.len(), 6);
        let names: Vec<&str> = set.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["web", "home", "mail", "hadoop", "trans", "desktop"]);
        let mail = &set[2];
        assert_eq!(mail.write_ratio, 0.77);
        assert_eq!(mail.unique_write_frac, 0.08);
        let home = &set[1];
        assert_eq!(home.write_ratio, 0.96);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let base = WorkloadProfile::web();
        let s = base.scaled(0.1);
        assert_eq!(s.write_ratio, base.write_ratio);
        assert_eq!(s.unique_write_frac, base.unique_write_frac);
        assert_eq!(s.requests_per_day, base.requests_per_day / 10);
        assert_eq!(s.lpn_space, base.lpn_space / 10);
    }

    #[test]
    fn scaling_clamps_to_minimums() {
        let tiny = WorkloadProfile::web().scaled(1e-9);
        assert!(tiny.requests_per_day >= 10);
        assert!(tiny.lpn_space >= 64);
    }

    #[test]
    fn with_days_and_totals() {
        let p = WorkloadProfile::mail().with_days(5);
        assert_eq!(p.days, 5);
        assert_eq!(p.total_requests(), 5 * p.requests_per_day);
    }

    #[test]
    fn trim_ratio_defaults_off_and_opts_in() {
        for p in WorkloadProfile::paper_set() {
            assert_eq!(p.trim_ratio, 0.0, "{}", p.name);
        }
        let p = WorkloadProfile::web().with_trim_ratio(0.1);
        assert_eq!(p.trim_ratio, 0.1);
    }

    #[test]
    #[should_panic(expected = "trim ratio")]
    fn bad_trim_ratio_rejected() {
        let _ = WorkloadProfile::web().with_trim_ratio(1.5);
    }

    #[test]
    fn validate_rejects_what_the_generator_cannot_hold() {
        for p in WorkloadProfile::paper_set() {
            assert_eq!(p.validate(), Ok(()), "{}", p.name);
        }
        // Saturated by the scale: the request count overflows.
        let huge = WorkloadProfile::web().scaled(1e300);
        assert_eq!(huge.validate(), Err(ProfileError::RequestsOverflow));
        let mut p = WorkloadProfile::web();
        p.write_ratio = 1.0;
        p.days = 1;
        p.requests_per_day = u64::from(u32::MAX) - 1;
        assert_eq!(p.validate(), Ok(()), "the largest write count fits");
        p.requests_per_day += 1;
        let err = p.validate().expect_err("one write too many");
        assert_eq!(err, ProfileError::TooManyWrites(u64::from(u32::MAX)));
        assert!(err.to_string().contains("4294967295 writes"), "{err}");
        let mut p = WorkloadProfile::web();
        p.lpn_space = u64::from(u32::MAX);
        assert_eq!(p.validate(), Ok(()), "the largest footprint fits");
        p.lpn_space += 1;
        assert_eq!(p.validate(), Err(ProfileError::FootprintTooLarge(1 << 32)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_scale_rejected() {
        let _ = WorkloadProfile::web().scaled(0.0);
    }
}
