//! Runs the full evaluation matrix once — every system of §V on every
//! workload of Table II — and prints the consolidated numbers behind
//! Figures 9–12, 14, 15 plus the paper's headline means. This is the
//! binary `EXPERIMENTS.md` is produced from.
//!
//! The whole (workload × system) matrix runs through the parallel
//! grid executor; `ZSSD_THREADS` pins the worker count.
//!
//! Run with `cargo run -p zssd-bench --release --bin all_experiments`
//! (`ZSSD_SCALE=0.1` for a quick pass). Pass `--timing` to run the
//! matrix [`TIMING_RUNS`] times serially and as often in parallel,
//! alternating, verify every run produced identical reports, and write
//! the median, fastest and slowest wall-clock times of each side to
//! `BENCH_grid.json`.

use std::time::Instant;

use zssd_bench::{
    experiment_profiles, grid_for, grid_threads, pct, run_grid, run_grid_with_threads,
    scaled_entries, vs_baseline_table, PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;
use zssd_ftl::RunReport;
use zssd_metrics::reduction_pct;

/// How many serial and how many parallel runs `--timing` makes. The
/// two sides alternate, so slow spells of a shared host land on both.
const TIMING_RUNS: usize = 5;

/// Median, fastest and slowest of a set of wall-clock times.
fn spread(secs: &mut [f64]) -> [f64; 3] {
    secs.sort_by(f64::total_cmp);
    [secs[secs.len() / 2], secs[0], secs[secs.len() - 1]]
}

/// Writes the serial-vs-parallel timing comparison as a small JSON
/// report (hand-rolled: the workspace carries no serde).
fn write_timing_json(
    path: &str,
    cells: usize,
    threads: usize,
    serial_secs: &mut [f64],
    parallel_secs: &mut [f64],
    identical: bool,
) -> std::io::Result<()> {
    let runs = serial_secs.len();
    let [serial, parallel] = [serial_secs, parallel_secs].map(|secs| {
        let [median, min, max] = spread(secs);
        (
            median,
            format!("{{\"median\": {median:.3}, \"min\": {min:.3}, \"max\": {max:.3}}}"),
        )
    });
    let speedup = if parallel.0 > 0.0 {
        serial.0 / parallel.0
    } else {
        0.0
    };
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"benchmark\": \"grid_runner\",\n  \"cells\": {cells},\n  \"threads\": {threads},\n  \"available_cpus\": {cpus},\n  \"scale\": {scale},\n  \"runs\": {runs},\n  \"serial_secs\": {serial},\n  \"parallel_secs\": {parallel},\n  \"speedup\": {speedup:.2},\n  \"reports_identical\": {identical}\n}}\n",
        scale = zssd_bench::scale(),
        serial = serial.1,
        parallel = parallel.1,
    );
    std::fs::write(path, json)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let entries = scaled_entries(PAPER_POOL_ENTRIES);
    let systems = [
        SystemKind::Baseline,
        SystemKind::MqDvp { entries },
        SystemKind::LruDvp { entries },
        SystemKind::Ideal,
        SystemKind::LxSsd { entries },
        SystemKind::Dedup,
        SystemKind::DvpPlusDedup { entries },
    ];
    let timing = std::env::args().any(|a| a == "--timing");
    let profiles = experiment_profiles();
    println!(
        "Full evaluation matrix ({} systems x {} workloads)\n",
        systems.len(),
        profiles.len(),
    );
    eprintln!("[grid] {} threads", grid_threads());

    let cells = grid_for(&profiles, &systems);
    let reports = if timing {
        // The first run's reports are kept; every later run is compared
        // with them and dropped, so at most two runs' reports are alive
        // at once.
        let mut first: Option<Vec<RunReport>> = None;
        let mut identical = true;
        let mut keep_or_compare = |reports: Vec<RunReport>| match &first {
            Some(reference) => identical &= reports == *reference,
            None => first = Some(reports),
        };
        let (mut serial_secs, mut parallel_secs) = (Vec::new(), Vec::new());
        for run in 1..=TIMING_RUNS {
            let start = Instant::now();
            let serial = run_grid_with_threads(cells.clone(), 1)?;
            serial_secs.push(start.elapsed().as_secs_f64());
            keep_or_compare(serial);
            let start = Instant::now();
            let parallel = run_grid(cells.clone())?;
            parallel_secs.push(start.elapsed().as_secs_f64());
            keep_or_compare(parallel);
            eprintln!(
                "[timing] run {run}/{TIMING_RUNS}: serial {:.2}s, parallel ({} threads) {:.2}s",
                serial_secs[run - 1],
                grid_threads(),
                parallel_secs[run - 1],
            );
        }
        let first = first.expect("at least one timing run");
        write_timing_json(
            "BENCH_grid.json",
            first.len(),
            grid_threads(),
            &mut serial_secs,
            &mut parallel_secs,
            identical,
        )?;
        eprintln!("[timing] wrote BENCH_grid.json (identical: {identical})");
        assert!(
            identical,
            "every grid run must reproduce the first serial reports"
        );
        first
    } else {
        run_grid(cells)?
    };

    for (profile, reports) in profiles.iter().zip(reports.chunks(systems.len())) {
        eprintln!("[{}]", profile.name);
        for r in reports {
            eprintln!(
                "  {} programs={} erases={} mean={}",
                r.system,
                r.flash_programs,
                r.erases,
                r.mean_latency()
            );
        }
    }

    let table = |metric: fn(&RunReport) -> u64| {
        vs_baseline_table(
            vec![
                "trace",
                "DVP",
                "LRU-DVP",
                "Ideal",
                "LX-SSD",
                "Dedup",
                "DVP+Dedup",
            ],
            &profiles,
            &reports,
            |base, r| reduction_pct(metric(base) as f64, metric(r) as f64),
            pct,
        )
    };
    let writes = table(|r| r.flash_programs);
    let erase = table(|r| r.erases);
    let mean_lat = table(|r| r.mean_latency().as_nanos());
    let tail_lat = table(|r| r.tail_latency().as_nanos());

    println!("\n== % write (NAND program) reduction vs Baseline  [Figs 9, 14]\n{writes}");
    println!("\n== % erase reduction vs Baseline  [Fig 10]\n{erase}");
    println!("\n== % mean latency improvement vs Baseline  [Figs 11, 15]\n{mean_lat}");
    println!("\n== % tail (p99) latency improvement vs Baseline  [Fig 12]\n{tail_lat}");

    println!("\npaper headlines: 29% writes / 35.5% erases / 24.5% mean / 22% tail (DVP-200K);");
    println!("DVP ~2x LX-SSD on mean latency; DVP+Dedup adds ~11% writes over Dedup alone");
    Ok(())
}
