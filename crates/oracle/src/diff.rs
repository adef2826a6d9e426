//! The differential runner: real drive vs. oracle across a config grid.
//!
//! [`run_diff`] replays one trace through one [`Ssd`] configuration
//! with the oracle in lock-step, checking:
//!
//! 1. **read agreement** — every read's content equals the oracle's
//!    expectation,
//! 2. **structural invariants** — [`Ssd::check_invariants`] after every
//!    `check_every`-th command (and always at the end),
//! 3. **conservation identities** — at end of run,
//!    `flash_programs == host + gc + scrub` and
//!    `host_writes == host_programs + revived + deduped`,
//! 4. **oracle bounds** — `revived_writes ≤ revival_bound`,
//!    `revived + deduped ≤ revival_bound + dedup_bound`, and zero for
//!    systems without the corresponding mechanism,
//! 5. **command accounting** — host write/read/trim counters equal the
//!    oracle's.
//!
//! [`fuzz_seed`] wraps the whole per-seed pipeline: generate a trace,
//! run it through [`standard_grid`] (DVP on/off × dedup on/off × fault
//! rates × arrival processes), and on any failure shrink the trace to
//! a minimal reproduction. Everything is a pure function of the seed,
//! so seeds fan out across threads with bit-identical results.
//!
//! [`Ssd`]: zssd_ftl::Ssd
//! [`Ssd::check_invariants`]: zssd_ftl::Ssd::check_invariants

use zssd_core::SystemKind;
use zssd_flash::FaultConfig;
use zssd_ftl::{RunReport, Ssd, SsdConfig, SsdError};
use zssd_trace::{ArrivalProcess, IoOp, TraceRecord};
use zssd_types::{splitmix64, SimDuration, ValueId};

use crate::gen::{generate, GenConfig};
use crate::shrink::shrink;
use crate::spec::{OracleDrive, OracleStats};

/// Logical footprint the fuzzing configs use — the
/// [`SsdConfig::small_test`] drive (256 physical pages, 2 planes), big
/// enough for real GC pressure and small enough that per-command
/// invariant sweeps stay cheap.
pub const FUZZ_LOGICAL_PAGES: u64 = 192;

/// Pool capacity of the pooled systems in the grid: far smaller than
/// the footprint, so eviction paths are exercised too.
const FUZZ_POOL_ENTRIES: usize = 64;

/// Evaluation budget of the shrinker inside [`fuzz_seed`].
const SHRINK_EVALS: usize = 4_096;

/// A drive configuration ready for differential fuzzing: the
/// small-test geometry with the given system, faults, and arrival
/// process, trace-value read verification off (the oracle is the
/// authority; shrunk traces carry stale record values).
pub fn fuzz_config(system: SystemKind, faults: FaultConfig, arrival: ArrivalProcess) -> SsdConfig {
    SsdConfig::small_test()
        .with_system(system)
        .with_faults(faults)
        .with_arrival(arrival)
        .with_verify_reads(false)
        .with_dedup_index_entries(1_024)
}

/// The moderate fault rates of the grid's faulty column. When the
/// `ZSSD_FAULTS` environment knob is set (as in the CI `fuzz-smoke`
/// job) its rates are used; otherwise built-in defaults apply. The
/// decision seed is always re-derived from the fuzz seed so fault
/// patterns decorrelate across seeds but stay reproducible.
pub fn moderate_faults(seed: u64) -> FaultConfig {
    let env = FaultConfig::from_env();
    let base = if env.is_none() {
        FaultConfig::none()
            .with_program_fail(2e-3)
            .with_erase_fail(5e-3)
            .with_read_error(2e-3)
    } else {
        env
    };
    base.with_seed(splitmix64(seed ^ 0xFA01))
}

/// One cell of the differential grid.
#[derive(Debug, Clone)]
pub struct DiffCell {
    /// `system/faults/arrival` label, stable across runs.
    pub label: String,
    /// The drive configuration this cell diffs against the oracle.
    pub config: SsdConfig,
}

/// The standard grid for one fuzz seed: {Baseline, DVP, Dedup,
/// DVP+Dedup} × {clean, moderate faults} × {constant, poisson, bursty}
/// arrivals — 24 cells. Arrival and fault seeds are derived from the
/// fuzz seed, so the whole grid is a pure function of `seed`.
pub fn standard_grid(seed: u64) -> Vec<DiffCell> {
    let systems = [
        SystemKind::Baseline,
        SystemKind::MqDvp {
            entries: FUZZ_POOL_ENTRIES,
        },
        SystemKind::Dedup,
        SystemKind::DvpPlusDedup {
            entries: FUZZ_POOL_ENTRIES,
        },
    ];
    let faults = [
        ("clean", FaultConfig::none()),
        ("faulty", moderate_faults(seed)),
    ];
    let gap = SimDuration::from_micros(50);
    let arrivals = [
        ("constant", ArrivalProcess::constant(gap)),
        (
            "poisson",
            ArrivalProcess::poisson(gap, splitmix64(seed ^ 0xA201)),
        ),
        (
            "bursty",
            ArrivalProcess::bursty(gap, 8.0, splitmix64(seed ^ 0xA202)),
        ),
    ];
    let mut cells = Vec::with_capacity(systems.len() * faults.len() * arrivals.len());
    for system in systems {
        for (fault_name, fault) in &faults {
            for (arrival_name, arrival) in &arrivals {
                cells.push(DiffCell {
                    label: format!("{}/{fault_name}/{arrival_name}", system.label()),
                    config: fuzz_config(system, *fault, *arrival),
                });
            }
        }
    }
    cells
}

/// Deterministic counters of one clean differential replay. Everything
/// here is a pure function of (config, trace), which is what the
/// thread-count bit-identity tests compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffSummary {
    /// Commands replayed.
    pub commands: u64,
    /// Reads checked against the oracle.
    pub reads_checked: u64,
    /// Invariant sweeps performed (including the final one).
    pub invariant_checks: u64,
    /// Host writes serviced.
    pub host_writes: u64,
    /// Writes absorbed by zombie revival.
    pub revived_writes: u64,
    /// Writes absorbed by dedup sharing.
    pub deduped_writes: u64,
    /// NAND page programs (host + GC + scrub).
    pub flash_programs: u64,
    /// Block erases.
    pub erases: u64,
    /// Trims serviced.
    pub trims: u64,
    /// Injected program failures survived.
    pub program_failures: u64,
    /// Injected erase failures survived.
    pub erase_failures: u64,
    /// Reads that needed an ECC retry.
    pub read_retries: u64,
    /// Blocks retired after repeated erase failure.
    pub retired_blocks: u64,
    /// `Some(step)` when fault-injected capacity loss (bad pages,
    /// retired blocks) over-committed the drive mid-trace. The replay
    /// stops there: every command before the step was verified, but
    /// the end-of-run checks are skipped because the dying write
    /// aborted mid-flight. Only possible on faulty cells — a clean
    /// drive running out of space is still reported as a divergence.
    pub capacity_death_at: Option<u64>,
}

/// Replays `records` through a drive built from `config` with the
/// oracle in lock-step. `check_every` is the invariant-sweep period in
/// commands (0 disables periodic sweeps; the end-of-run sweep always
/// happens).
///
/// On a fault-injected config, a write failing with
/// [`SsdError::OutOfSpace`] ends the replay gracefully — see
/// [`DiffSummary::capacity_death_at`]. On a clean config the same
/// failure is a divergence.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence:
/// the step index and command for read disagreements and invariant
/// violations, or the failed identity for end-of-run checks.
pub fn run_diff(
    config: &SsdConfig,
    records: &[TraceRecord],
    check_every: usize,
) -> Result<DiffSummary, String> {
    run_diff_with(config, records, check_every, &crate::spec::selftest_mutate)
}

/// [`run_diff`] with the deliberate off-by-one specification bug armed
/// regardless of build flags — the predicate the shrinker self-test
/// minimizes against.
#[cfg(test)]
pub(crate) fn run_diff_off_by_one(
    config: &SsdConfig,
    records: &[TraceRecord],
    check_every: usize,
) -> Result<DiffSummary, String> {
    run_diff_with(config, records, check_every, &crate::spec::off_by_one)
}

fn run_diff_with(
    config: &SsdConfig,
    records: &[TraceRecord],
    check_every: usize,
    mutate: &dyn Fn(ValueId) -> ValueId,
) -> Result<DiffSummary, String> {
    let mut ssd = Ssd::new(config.clone()).map_err(|e| format!("building the drive: {e}"))?;
    let mut oracle = OracleDrive::new(config.logical_pages, config.precondition);
    let mut arrivals = config.arrival.times();
    let mut reads_checked = 0u64;
    let mut invariant_checks = 0u64;
    let mut capacity_death_at = None;
    for (i, record) in records.iter().enumerate() {
        let arrival = record.arrival.unwrap_or_else(|| arrivals.next_time());
        match record.op {
            IoOp::Write => {
                match ssd.write(record.lpn, record.value, arrival) {
                    Ok(_) => {}
                    // Injected faults burn capacity for good (bad
                    // pages, retired blocks); on the tiny fuzz drive a
                    // long enough trace can legitimately over-commit a
                    // plane. That is the drive reaching end-of-life,
                    // not an FTL bug: stop here with the prefix fully
                    // verified. A clean cell dying this way IS a bug
                    // (space leak) and still falls through to Err.
                    Err(SsdError::OutOfSpace { .. }) if !config.faults.is_none() => {
                        capacity_death_at = Some(i as u64);
                        break;
                    }
                    Err(e) => return Err(format!("step {i} (write {}): {e}", record.lpn)),
                }
                oracle
                    .write_exact(record.lpn, mutate(record.value))
                    .map_err(|e| format!("step {i} (write {}): oracle: {e}", record.lpn))?;
            }
            IoOp::Read => {
                let (got, _) = ssd
                    .read(record.lpn, arrival)
                    .map_err(|e| format!("step {i} (read {}): {e}", record.lpn))?;
                let want = oracle
                    .read(record.lpn)
                    .map_err(|e| format!("step {i} (read {}): oracle: {e}", record.lpn))?;
                if got != want {
                    return Err(format!(
                        "step {i}: read {} returned {got}, oracle expects {want}",
                        record.lpn
                    ));
                }
                reads_checked += 1;
            }
            IoOp::Trim => {
                ssd.trim(record.lpn)
                    .map_err(|e| format!("step {i} (trim {}): {e}", record.lpn))?;
                oracle
                    .trim(record.lpn)
                    .map_err(|e| format!("step {i} (trim {}): oracle: {e}", record.lpn))?;
            }
        }
        if check_every > 0 && (i + 1) % check_every == 0 {
            ssd.check_invariants()
                .map_err(|e| format!("step {i}: invariant violated: {e}"))?;
            invariant_checks += 1;
        }
    }
    // A capacity death aborts its write mid-flight (the drive has
    // counted and killed, but not re-programmed), so neither the
    // structural sweep nor the count identities can be expected to
    // hold at that instant — the per-command checks up to the previous
    // step already covered the executed prefix.
    if capacity_death_at.is_none() {
        ssd.check_invariants()
            .map_err(|e| format!("end of trace: invariant violated: {e}"))?;
        invariant_checks += 1;
    }
    let stats = oracle.stats();
    let report = ssd.into_report();
    if capacity_death_at.is_none() {
        end_checks(&report, stats, config)?;
    }
    Ok(DiffSummary {
        commands: capacity_death_at.unwrap_or(records.len() as u64),
        reads_checked,
        invariant_checks,
        host_writes: report.host_writes,
        revived_writes: report.revived_writes,
        deduped_writes: report.deduped_writes,
        flash_programs: report.flash_programs,
        erases: report.erases,
        trims: report.trims,
        program_failures: report.program_failures,
        erase_failures: report.erase_failures,
        read_retries: report.read_retries,
        retired_blocks: report.retired_blocks,
        capacity_death_at,
    })
}

fn end_checks(report: &RunReport, oracle: OracleStats, config: &SsdConfig) -> Result<(), String> {
    let expect = |name: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "end of trace: {name}: drive {got} vs oracle {want}"
            ))
        }
    };
    expect("host_writes", report.host_writes, oracle.writes)?;
    expect("host_reads", report.host_reads, oracle.reads)?;
    expect("trims", report.trims, oracle.trims)?;
    if report.flash_programs != report.host_programs + report.gc_programs + report.scrub_programs {
        return Err(format!(
            "end of trace: program conservation: flash {} != host {} + gc {} + scrub {}",
            report.flash_programs, report.host_programs, report.gc_programs, report.scrub_programs
        ));
    }
    if report.host_writes != report.host_programs + report.revived_writes + report.deduped_writes {
        return Err(format!(
            "end of trace: write decomposition: writes {} != programs {} + revived {} + deduped {}",
            report.host_writes, report.host_programs, report.revived_writes, report.deduped_writes
        ));
    }
    let system = config.system;
    if !system.uses_pool() && report.revived_writes != 0 {
        return Err(format!(
            "end of trace: {} revived {} writes without a pool",
            system.label(),
            report.revived_writes
        ));
    }
    if !system.uses_dedup() && report.deduped_writes != 0 {
        return Err(format!(
            "end of trace: {} deduped {} writes without an index",
            system.label(),
            report.deduped_writes
        ));
    }
    if report.revived_writes > oracle.revival_bound {
        return Err(format!(
            "end of trace: revived {} writes, oracle's infinite-pool bound is {}",
            report.revived_writes, oracle.revival_bound
        ));
    }
    if report.revived_writes + report.deduped_writes > oracle.revival_bound + oracle.dedup_bound {
        return Err(format!(
            "end of trace: revived {} + deduped {} exceeds the oracle bound {} + {}",
            report.revived_writes, report.deduped_writes, oracle.revival_bound, oracle.dedup_bound
        ));
    }
    Ok(())
}

/// One failing cell of a fuzz seed, with the shrunk reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The grid cell that diverged.
    pub cell: String,
    /// First-divergence description from [`run_diff`].
    pub detail: String,
    /// The minimized failing trace (see [`shrink`]).
    pub shrunk: Vec<TraceRecord>,
    /// A one-line recipe for regenerating the full failing input.
    pub repro: String,
}

/// Everything one fuzz seed produced: per-cell summaries in grid order
/// plus any failures. A pure function of `(seed, budget, check_every)`
/// and the `ZSSD_FAULTS` environment — the thread-count determinism
/// tests compare these wholesale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedOutcome {
    /// The fuzz seed.
    pub seed: u64,
    /// Commands in the generated trace.
    pub commands: u64,
    /// `(cell label, summary)` for every clean cell, in grid order.
    pub cells: Vec<(String, DiffSummary)>,
    /// Diverging cells, in grid order.
    pub failures: Vec<FuzzFailure>,
}

impl SeedOutcome {
    /// Whether every cell of the grid agreed with the oracle.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one fuzz seed end to end: generate `budget` commands, diff
/// them through every cell of [`standard_grid`], and shrink any
/// failure to a minimal reproduction.
pub fn fuzz_seed(seed: u64, budget: usize, check_every: usize) -> SeedOutcome {
    let records = generate(seed, &GenConfig::standard(budget));
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for cell in standard_grid(seed) {
        match run_diff(&cell.config, &records, check_every) {
            Ok(summary) => cells.push((cell.label, summary)),
            Err(detail) => {
                let shrunk = shrink(&records, SHRINK_EVALS, |t| {
                    run_diff(&cell.config, t, check_every).is_err()
                });
                failures.push(FuzzFailure {
                    repro: format!(
                        "zssd fuzz --seeds 1 --base-seed {seed} --budget {budget}  # cell {}",
                        cell.label
                    ),
                    cell: cell.label,
                    detail,
                    shrunk: shrunk.records,
                });
            }
        }
    }
    SeedOutcome {
        seed,
        commands: records.len() as u64,
        cells,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_cell(system: SystemKind) -> SsdConfig {
        fuzz_config(
            system,
            FaultConfig::none(),
            ArrivalProcess::constant(SimDuration::from_micros(50)),
        )
    }

    #[test]
    fn grid_has_the_advertised_shape() {
        let grid = standard_grid(9);
        assert_eq!(grid.len(), 24);
        let labels: Vec<&str> = grid.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"Baseline/clean/constant"));
        assert!(labels.contains(&"DVP+Dedup-64/faulty/bursty"));
        for cell in &grid {
            cell.config.validate().expect("every cell validates");
        }
    }

    #[cfg(not(zssd_fuzz_selftest))]
    #[test]
    fn generated_traces_agree_with_the_oracle_on_every_system() {
        let records = generate(5, &GenConfig::standard(1_500));
        for system in [
            SystemKind::Baseline,
            SystemKind::MqDvp { entries: 64 },
            SystemKind::Dedup,
            SystemKind::DvpPlusDedup { entries: 64 },
        ] {
            let summary = run_diff(&clean_cell(system), &records, 16)
                .unwrap_or_else(|e| panic!("{}: {e}", system.label()));
            assert_eq!(summary.commands, 1_500);
            assert!(summary.reads_checked > 0);
            assert!(summary.invariant_checks > 0);
        }
    }

    #[cfg(not(zssd_fuzz_selftest))]
    #[test]
    fn pooled_systems_actually_revive_on_generated_traces() {
        let records = generate(2, &GenConfig::standard(2_000));
        let dvp = run_diff(&clean_cell(SystemKind::MqDvp { entries: 64 }), &records, 0)
            .expect("clean diff");
        assert!(dvp.revived_writes > 0, "the adversarial phases must fire");
        let combo = run_diff(
            &clean_cell(SystemKind::DvpPlusDedup { entries: 64 }),
            &records,
            0,
        )
        .expect("clean diff");
        assert!(combo.deduped_writes > 0, "dedup must fire too");
    }

    #[test]
    fn the_armed_off_by_one_bug_is_caught() {
        let records = generate(1, &GenConfig::standard(4_000));
        let err = run_diff_off_by_one(&clean_cell(SystemKind::Baseline), &records, 0)
            .expect_err("the armed oracle bug must diverge");
        assert!(
            err.contains("oracle expects"),
            "read divergence, got: {err}"
        );
    }

    // Lethal fault rates erode the tiny fuzz drive's over-provisioning
    // (bad pages, retired blocks) until a plane over-commits. That is
    // the drive dying of injected wear, not a correctness bug: the diff
    // ends gracefully at the fatal write with the prefix verified.
    #[test]
    fn fault_induced_capacity_death_truncates_gracefully() {
        let lethal = FaultConfig::none()
            .with_program_fail(0.2)
            .with_erase_fail(0.5)
            .with_seed(0xC0FFEE);
        let config = fuzz_config(
            SystemKind::Baseline,
            lethal,
            ArrivalProcess::constant(SimDuration::from_micros(50)),
        );
        let records = generate(0xDEAD, &GenConfig::standard(4_000));
        let summary = run_diff(&config, &records, 256).expect("capacity death is not a divergence");
        let died_at = summary
            .capacity_death_at
            .expect("lethal rates must over-commit the 64-page OP within 4k commands");
        assert_eq!(
            summary.commands, died_at,
            "commands counts the verified prefix"
        );
        assert!((died_at as usize) < records.len());
        assert_eq!(
            run_diff(&config, &records, 256),
            Ok(summary),
            "the death step is a pure function of the inputs"
        );
    }

    #[cfg(not(zssd_fuzz_selftest))]
    #[test]
    fn fuzz_seed_is_a_pure_function_of_its_inputs() {
        let a = fuzz_seed(3, 400, 8);
        let b = fuzz_seed(3, 400, 8);
        assert_eq!(a, b);
        assert!(a.ok(), "seed 3 must be clean: {:?}", a.failures);
        assert_eq!(a.cells.len(), 24);
    }

    // The shrinker self-test: arm the off-by-one specification bug
    // explicitly, fuzz a 10k-op trace into it, and require the shrinker
    // to cut the reproduction down to a handful of operations that
    // replay deterministically from a corpus file.
    #[test]
    fn shrinker_selftest_minimizes_the_off_by_one_bug() {
        let records = generate(0xB06, &GenConfig::standard(10_000));
        let config = clean_cell(SystemKind::MqDvp { entries: 64 });
        let fails = |t: &[TraceRecord]| run_diff_off_by_one(&config, t, 64).is_err();
        assert!(fails(&records), "a 10k-op trace must trip the armed bug");
        let result = crate::shrink(&records, 4_096, fails);
        assert!(
            result.records.len() <= 20,
            "shrunk to {} ops (budget: {} evals)",
            result.records.len(),
            result.evaluations
        );
        // The minimized trace survives corpus hygiene and replays
        // deterministically from disk: same divergence, every time.
        let normal = crate::normalize(&result.records, FUZZ_LOGICAL_PAGES, true);
        let dir = std::env::temp_dir().join(format!("zssd-selftest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::write_corpus(&dir, "off-by-one", &["selftest".to_owned()], &normal)
            .expect("corpus write");
        let loaded = crate::load_corpus(&dir).expect("corpus load");
        assert_eq!(loaded.len(), 1);
        let a = run_diff_off_by_one(&config, &loaded[0].1, 1).expect_err("still fails");
        let b = run_diff_off_by_one(&config, &loaded[0].1, 1).expect_err("still fails");
        assert_eq!(a, b, "deterministic divergence");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // With `--cfg zssd_fuzz_selftest` the oracle itself is buggy: the
    // full pipeline must catch it, and the shrinker must reduce the
    // reproduction to a handful of operations.
    #[cfg(zssd_fuzz_selftest)]
    #[test]
    fn selftest_armed_bug_fails_the_fuzz_pipeline() {
        let outcome = fuzz_seed(1, 10_000, 0);
        assert!(!outcome.ok(), "the armed off-by-one must diverge");
        for failure in &outcome.failures {
            assert!(
                failure.shrunk.len() <= 20,
                "{}: shrunk to {} ops",
                failure.cell,
                failure.shrunk.len()
            );
        }
    }
}
