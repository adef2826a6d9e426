//! The parallel experiment grid executor.
//!
//! Every evaluation figure runs a (workload × system) matrix of
//! independent full-system simulations. Cells share nothing mutable —
//! each builds its own drive and replays a read-only trace — so the
//! grid fans out across threads with a simple work-queue:
//!
//! * each workload's trace is generated **once** and shared read-only
//!   (`Arc<[TraceRecord]>`) by every cell in its row,
//! * worker threads claim cells from an atomic counter, so any number
//!   of threads drains the queue without partitioning skew,
//! * results land in per-cell slots, so output order equals input
//!   order no matter which thread finished first — a parallel run is
//!   byte-identical to a serial one.
//!
//! Thread count comes from [`grid_threads`]: the `ZSSD_THREADS`
//! environment variable if set, otherwise the machine's available
//! parallelism. `ZSSD_THREADS=1` forces the serial order, which is
//! also what [`run_grid_with_threads`] uses as the speedup baseline
//! in `all_experiments --timing`.
//!
//! # Examples
//!
//! ```
//! use zssd_bench::{config_for, GridCell, run_grid};
//! use zssd_core::SystemKind;
//! use zssd_trace::{SyntheticTrace, WorkloadProfile};
//!
//! let profile = WorkloadProfile::paper_set().remove(0).scaled(0.001);
//! let records: std::sync::Arc<[_]> =
//!     SyntheticTrace::generate(&profile, 42).into_records().into();
//! let cells: Vec<GridCell> = [SystemKind::Baseline, SystemKind::Ideal]
//!     .iter()
//!     .map(|&system| GridCell::new(
//!         profile.name.clone(),
//!         system.to_string(),
//!         config_for(&profile, system),
//!         records.clone(),
//!     ))
//!     .collect();
//! let reports = run_grid(cells)?;
//! assert_eq!(reports.len(), 2);
//! # Ok::<(), zssd_ftl::SsdError>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use zssd_core::SystemKind;
use zssd_ftl::{RunReport, Ssd, SsdConfig, SsdError};
use zssd_trace::{SyntheticTrace, TraceRecord, WorkloadProfile};

use crate::{config_for, seed};

/// One independent (workload, system) simulation of an experiment
/// grid: a drive configuration plus the shared read-only trace it
/// replays, labeled with its row and column for reporting.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Row label — usually the workload name.
    pub row: String,
    /// Column label — usually the system name.
    pub col: String,
    /// The drive configuration this cell simulates.
    pub config: SsdConfig,
    /// The trace this cell replays; one `Arc` per workload, shared by
    /// every system column in the row.
    pub records: Arc<[TraceRecord]>,
}

impl GridCell {
    /// Builds a cell from its labels, configuration, and shared trace.
    pub fn new(
        row: impl Into<String>,
        col: impl Into<String>,
        config: SsdConfig,
        records: Arc<[TraceRecord]>,
    ) -> Self {
        GridCell {
            row: row.into(),
            col: col.into(),
            config,
            records,
        }
    }

    /// Runs this cell's simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (configuration, out-of-space).
    pub fn run(&self) -> Result<RunReport, SsdError> {
        Ssd::new(self.config.clone())?.run_trace(&self.records)
    }
}

/// The number of worker threads grid runs use: `ZSSD_THREADS`, which
/// must be a positive integer, if set, otherwise the machine's
/// available parallelism (1 if that cannot be determined).
pub fn grid_threads() -> usize {
    crate::env_knob("ZSSD_THREADS", "a positive integer", |&n: &usize| n > 0).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `n` independent jobs on `threads` workers and returns their
/// results in job order. Jobs are claimed from an atomic counter, so
/// threads that draw short jobs automatically pick up more.
fn parallel_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return (0..n).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed job stores a result")
        })
        .collect()
}

/// Runs `n` independent jobs across [`grid_threads`] worker threads
/// and returns the results **in job order** — the general-purpose
/// fan-out behind [`run_grid`], exposed for other embarrassingly
/// parallel work (the `zssd fuzz` differential fuzzer spreads its
/// seeds through this). Jobs must be pure functions of their index for
/// the serial/parallel bit-identity guarantee to mean anything.
pub fn run_jobs<T, F>(n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_indexed(n, grid_threads(), job)
}

/// [`run_jobs`] with an explicit worker count (1 = serial), for tests
/// that pin the thread count.
pub fn run_jobs_with_threads<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_indexed(n, threads, job)
}

/// Runs every cell of a grid, fanning out across [`grid_threads`]
/// worker threads, and returns the reports **in input order**.
///
/// Cells are independent simulations; the executor guarantees the
/// result vector is identical to running the cells serially (a
/// `ZSSD_THREADS=1` run produces byte-identical reports).
///
/// # Errors
///
/// If any cells fail, the error of the earliest failing cell (in input
/// order) is returned.
pub fn run_grid(cells: Vec<GridCell>) -> Result<Vec<RunReport>, SsdError> {
    run_grid_with_threads(cells, grid_threads())
}

/// [`run_grid`] with an explicit worker count (1 = serial). Used for
/// the serial-vs-parallel timing comparison and by tests that pin the
/// thread count.
///
/// # Errors
///
/// If any cells fail, the error of the earliest failing cell (in input
/// order) is returned.
pub fn run_grid_with_threads(
    cells: Vec<GridCell>,
    threads: usize,
) -> Result<Vec<RunReport>, SsdError> {
    parallel_indexed(cells.len(), threads, |i| cells[i].run())
        .into_iter()
        .collect()
}

/// Generates each profile's trace once — in parallel across
/// [`grid_threads`] workers — and returns the records as shareable
/// `Arc` buffers, in profile order. Each trace is seeded with the
/// configured [`seed`], so this matches serial [`crate::trace_for`]
/// calls exactly.
pub fn shared_traces(profiles: &[WorkloadProfile]) -> Vec<Arc<[TraceRecord]>> {
    let seed = seed();
    parallel_indexed(profiles.len(), grid_threads(), |i| {
        Arc::from(SyntheticTrace::generate(&profiles[i], seed).into_records())
    })
}

/// Builds the standard (profile × system) grid: one shared trace per
/// profile, one cell per system column, row-major order (all systems
/// of the first profile, then the second, …). Configurations come
/// from [`config_for`].
pub fn grid_for(profiles: &[WorkloadProfile], systems: &[SystemKind]) -> Vec<GridCell> {
    let traces = shared_traces(profiles);
    profiles
        .iter()
        .zip(&traces)
        .flat_map(|(profile, records)| {
            systems.iter().map(|&system| {
                GridCell::new(
                    profile.name.clone(),
                    system.to_string(),
                    config_for(profile, system),
                    records.clone(),
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> WorkloadProfile {
        WorkloadProfile::paper_set().remove(0).scaled(0.002)
    }

    #[test]
    fn parallel_indexed_preserves_order() {
        let results = parallel_indexed(100, 8, |i| i * 2);
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        // Serial path.
        let results = parallel_indexed(5, 1, |i| i);
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
        // Empty grid.
        assert!(parallel_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn parallel_and_serial_grids_agree() {
        let profile = tiny_profile();
        let systems = [
            SystemKind::Baseline,
            SystemKind::MqDvp { entries: 64 },
            SystemKind::Ideal,
        ];
        let cells = grid_for(&[profile], &systems);
        assert_eq!(cells.len(), 3);
        let serial = run_grid_with_threads(cells.clone(), 1).expect("serial run");
        let parallel = run_grid_with_threads(cells, 4).expect("parallel run");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grid_rows_share_one_trace() {
        let profile = tiny_profile();
        let cells = grid_for(&[profile], &[SystemKind::Baseline, SystemKind::Ideal]);
        assert!(Arc::ptr_eq(&cells[0].records, &cells[1].records));
        assert_eq!(cells[0].row, cells[1].row);
        assert_ne!(cells[0].col, cells[1].col);
    }

    #[test]
    fn shared_traces_match_serial_generation() {
        let profiles = vec![tiny_profile(), tiny_profile().scaled(2.0)];
        let shared = shared_traces(&profiles);
        for (profile, records) in profiles.iter().zip(&shared) {
            let serial = crate::trace_for(profile);
            assert_eq!(&records[..], serial.records());
        }
    }

    #[test]
    fn grid_metrics_json_labels_cells_and_is_thread_invariant() {
        let profile = tiny_profile();
        let mut cells = grid_for(&[profile], &[SystemKind::Baseline, SystemKind::Ideal]);
        for cell in &mut cells {
            cell.config.trace_events = true;
        }
        let serial = run_grid_with_threads(cells.clone(), 1).expect("serial run");
        let parallel = run_grid_with_threads(cells.clone(), 4).expect("parallel run");
        let text = crate::grid_metrics_json(&cells, &serial);
        assert_eq!(
            text,
            crate::grid_metrics_json(&cells, &parallel),
            "export is byte-identical across thread counts"
        );
        let doc = zssd_metrics::Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(zssd_metrics::Json::as_str),
            Some("zssd-grid-v1")
        );
        let cells_json = doc
            .get("cells")
            .and_then(zssd_metrics::Json::as_arr)
            .expect("cells array");
        assert_eq!(cells_json.len(), 2);
        assert_eq!(
            cells_json[1]
                .get("system")
                .and_then(zssd_metrics::Json::as_str),
            Some("Ideal")
        );
        let events = cells_json[0]
            .get("report")
            .and_then(|r| r.get("events"))
            .and_then(zssd_metrics::Json::as_arr)
            .expect("events array");
        assert!(!events.is_empty(), "traced run exports its events");
    }

    #[test]
    fn grid_errors_surface_in_input_order() {
        let profile = tiny_profile();
        let records: Arc<[TraceRecord]> = crate::trace_for(&profile).into_records().into();
        let mut bad_config = config_for(&profile, SystemKind::Baseline);
        bad_config.logical_pages = 0; // fails validation
        let cells = vec![
            GridCell::new(
                "w",
                "ok",
                config_for(&profile, SystemKind::Baseline),
                records.clone(),
            ),
            GridCell::new("w", "bad", bad_config, records),
        ];
        assert!(run_grid_with_threads(cells, 2).is_err());
    }
}
