//! One untraced figure cell: generate the trace, build the drive, replay
//! it with `Ssd::replay`, finalize the report and serialize it, timing
//! each phase on the host clock. The replay runs in chunks with a
//! host-speed reference sample between them (see `reference.rs`).

use std::time::Instant;

use zssd_ftl::{RunReport, Ssd, SsdError};
use zssd_trace::{SyntheticTrace, TraceRecord};
use zssd_types::SimDuration;

use crate::gate::Gate;
use crate::reference::Reference;
use crate::workload::Workload;

/// Timeline bucket of the JSON export: the experiment binaries' 250 ms.
const EXPORT_WINDOW: SimDuration = SimDuration::from_millis(250);

/// Chunks the replay is cut into, each followed by a reference sample.
const REPLAY_CHUNKS: usize = 64;

/// Host wall-clock seconds spent in each phase of one cell.
#[derive(Debug, Clone, Copy)]
pub struct CellTimes {
    /// Synthetic trace generation.
    pub gen_s: f64,
    /// `Ssd::new`, including the preconditioning fill.
    pub setup_s: f64,
    /// `Ssd::replay` of the whole trace (the sum over its chunks).
    pub replay_s: f64,
    /// `Ssd::into_report`.
    pub report_s: f64,
    /// `RunReport::to_json` plus rendering it to text.
    pub export_s: f64,
}

impl CellTimes {
    /// What a user waits for one figure cell: the sum of the phases
    /// (the benchmark's own checks between them are excluded).
    pub fn cell_s(&self) -> f64 {
        self.gen_s + self.setup_s + self.replay_s + self.report_s + self.export_s
    }
}

/// A finished cell: its trace, its report, the exported text, the
/// phase times, and the host speed they were measured at.
#[derive(Debug)]
pub struct Cell {
    /// The generated trace.
    pub records: Vec<TraceRecord>,
    /// The run report.
    pub report: RunReport,
    /// The report's JSON export.
    pub export: String,
    /// Host time per phase.
    pub times: CellTimes,
    /// Mean seconds of one reference sample during the cell.
    pub ref_sample_s: f64,
}

/// Runs one untraced cell of `workload` on the trace drawn from `seed`,
/// checking the drive's invariants after the replay and the report after
/// finalizing.
///
/// Every record is stamped with the arrival instant `Ssd::replay` would
/// draw for it, so that replaying the trace chunk by chunk is exactly
/// replaying it whole (the repeated-export check confirms it).
///
/// # Errors
///
/// Propagates any simulator error.
pub fn run_cell(
    workload: &Workload,
    seed: u64,
    reference: &mut Reference,
    gate: &mut Gate,
) -> Result<Cell, SsdError> {
    reference.sample();
    let clock = Instant::now();
    let mut records = SyntheticTrace::generate(&workload.profile, seed).into_records();
    let gen = clock.elapsed().as_secs_f64();
    let config = workload.config();
    let mut arrivals = config.arrival.times();
    for record in &mut records {
        record.arrival = Some(record.arrival.unwrap_or_else(|| arrivals.next_time()));
    }

    reference.sample();
    let clock = Instant::now();
    let mut ssd = Ssd::new(config)?;
    let setup = clock.elapsed().as_secs_f64();

    let mut replay = 0.0;
    for chunk in records.chunks(records.len().div_ceil(REPLAY_CHUNKS).max(1)) {
        reference.sample();
        let clock = Instant::now();
        ssd.replay(chunk)?;
        replay += clock.elapsed().as_secs_f64();
    }
    reference.sample();

    let invariants = ssd.check_invariants();
    gate.check(invariants.is_ok(), || {
        format!("drive invariants after replay: {invariants:?}")
    });

    let clock = Instant::now();
    let report = ssd.into_report();
    let finalize = clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let export = report.to_json(EXPORT_WINDOW).to_string();
    let serialize = clock.elapsed().as_secs_f64();

    gate.check_report(&report, records.len());
    Ok(Cell {
        records,
        report,
        export,
        times: CellTimes {
            gen_s: gen,
            setup_s: setup,
            replay_s: replay,
            report_s: finalize,
            export_s: serialize,
        },
        ref_sample_s: reference.take_mean_s(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_replay_matches_one_whole_replay() {
        let workload = Workload::named("web-dvp", 0.01).expect("known workload");
        let mut gate = Gate::default();
        let cell = run_cell(&workload, 7, &mut Reference::new(), &mut gate).expect("cell runs");
        assert!(gate.passed());
        let records = SyntheticTrace::generate(&workload.profile, 7).into_records();
        let whole = Ssd::new(workload.config())
            .expect("valid config")
            .run_trace(&records)
            .expect("whole replay runs");
        assert_eq!(cell.report, whole);
    }
}
