//! The correctness gate: every check a run makes, counted so that the
//! result line can report checks attempted and failed.

use zssd_ftl::RunReport;

/// Tally of correctness checks. A failed check is also described on
/// stderr.
#[derive(Debug, Default)]
pub struct Gate {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Records `attempted` checks of one kind, `failed` of which failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed ({failed} of {attempted}): {}", what());
        }
    }

    /// Checks a finished run's report: the drive's own read verification
    /// (one check per read), the program conservation identity, and that
    /// every record was serviced exactly once.
    pub fn check_report(&mut self, report: &RunReport, records: usize) {
        self.tally(report.host_reads, report.read_mismatches, || {
            "replayed reads returned the trace's recorded values".into()
        });
        let sources = report.host_programs + report.gc_programs + report.scrub_programs;
        self.check(report.flash_programs == sources, || {
            format!(
                "flash_programs {} != host {} + gc {} + scrub {}",
                report.flash_programs,
                report.host_programs,
                report.gc_programs,
                report.scrub_programs
            )
        });
        let serviced = report.host_writes + report.host_reads + report.trims;
        self.check(serviced == records as u64, || {
            format!("{serviced} requests serviced for {records} trace records")
        });
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    /// Failed checks as a share of checks attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
