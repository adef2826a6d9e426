//! Host-time replay benchmark for the zombie-ssd simulator.
//!
//! One process runs one workload (see `workload.rs`) on one simulation
//! thread. With `--trace 0` it repeats untraced figure cells (trace
//! generation, `Ssd::new`, `Ssd::replay`, `into_report`, JSON export)
//! for `--seconds` and reports end-to-end medians. With `--trace 1` each
//! repetition runs an untraced cell and then a traced pass over the same
//! trace, and reports per-layer medians. Every repetition checks the
//! simulator's output; the last stdout line is the result object.
//!
//! Usage: `perfbench --workload <name> [--seed N] [--seconds S]
//! [--trace 0|1] [--scale F] [--forge-read-mismatch]`

mod cell;
mod gate;
mod reference;
mod summary;
mod traced;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use zssd_ftl::SsdError;
use zssd_metrics::Json;
use zssd_trace::{IoOp, TraceRecord};
use zssd_types::ValueId;

use cell::{run_cell, Cell};
use gate::Gate;
use reference::Reference;
use summary::{smoothed_quantile, Table};
use traced::Class;
use workload::{Workload, NAMES};

/// Untraced cells per run, however short `--seconds` is, so that every
/// median has at least this many samples.
const MIN_CELLS: usize = 3;

/// Command-line options.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    forge_read_mismatch: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut name = None;
        let mut seed = 42;
        let mut seconds: f64 = 10.0;
        let mut traced = false;
        let mut scale: f64 = 1.0;
        let mut forge_read_mismatch = false;
        while let Some(flag) = args.next() {
            if flag == "--forge-read-mismatch" {
                forge_read_mismatch = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => name = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--scale" => scale = value.parse().map_err(|e| bad(&e))?,
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if !(seconds >= 0.0 && seconds.is_finite()) {
            return Err(format!(
                "--seconds {seconds}: expected a non-negative number"
            ));
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(format!("--scale {scale}: expected a positive number"));
        }
        let name = name.ok_or("--workload is required")?;
        let workload = Workload::named(&name, scale)
            .ok_or_else(|| format!("unknown workload {name}; expected one of {NAMES:?}"))?;
        Ok(Args {
            workload,
            seed,
            seconds,
            traced,
            forge_read_mismatch,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::default();
    let table = match run(&args, &mut gate) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("perfbench: simulator error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("metrics (median over repetitions, [min .. max]):");
    print!("{}", table.render());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(gate.passed())),
        ("attempted".into(), Json::U64(gate.attempted)),
        ("failed".into(), Json::U64(gate.failed)),
        ("metrics".into(), table.to_json()),
    ]);
    println!("{result}");
    if gate.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the repetitions `args` asks for and returns their metrics.
fn run(args: &Args, gate: &mut Gate) -> Result<Table, SsdError> {
    let workload = &args.workload;
    println!("workload: {}", workload.describe(args.seed));
    println!(
        "host: {} CPUs available, 1 simulation thread; replay_req_per_s, cell_s and setup_s \
         are scaled to nominal host speed (host.slowdown), other host times are wall-clock",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "note: sim_ns values are simulated time from the SSD model, which is not validated \
         against hardware"
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut table = Table::default();
    let mut first_export: Option<String> = None;
    let mut reference = Reference::new();
    let mut reps = 0;
    let min_reps = if args.traced { 1 } else { MIN_CELLS };
    // A repetition starts only if one as long as the last still fits in
    // the budget, so a run lasts about `--seconds` whatever the workload.
    let mut last_rep = Duration::ZERO;
    while reps < min_reps || start.elapsed() + last_rep < budget {
        let rep_start = Instant::now();
        let cell = run_cell(workload, args.seed, &mut reference, gate)?;
        match &first_export {
            None => {
                println!("sim counters: {}", counters_json(&cell));
                first_export = Some(cell.export.clone());
            }
            Some(first) => gate.check(*first == cell.export, || {
                "a repeated cell exported a different report".into()
            }),
        }
        let t = cell.times;
        // How much slower than nominal the host ran during this cell.
        let slowdown = cell.ref_sample_s / reference::NOMINAL_SAMPLE_S;
        table.put("host.ref_sample_s", "s", cell.ref_sample_s);
        table.put("host.slowdown", "x", slowdown);
        println!(
            "rep {reps}: gen {:.4}s setup {:.4}s replay {:.4}s report {:.4}s export {:.4}s \
             cell {:.4}s slowdown {slowdown:.4}",
            t.gen_s,
            t.setup_s,
            t.replay_s,
            t.report_s,
            t.export_s,
            t.cell_s()
        );
        if args.traced {
            traced_rep(args, cell, gate, &mut table)?;
        } else {
            let requests = cell.records.len() as f64;
            let throughput = requests / t.replay_s;
            table.put("wall.replay_req_per_s", "1/s", throughput);
            table.put("wall.cell_s", "s", t.cell_s());
            table.put("wall.setup_s", "s", t.setup_s);
            table.put("replay_req_per_s", "1/s", throughput * slowdown);
            table.put("cell_s", "s", t.cell_s() / slowdown);
            table.put("setup_s", "s", t.setup_s / slowdown);
        }
        reps += 1;
        last_rep = rep_start.elapsed();
    }
    if args.traced {
        table.put("tracing.timer_ns", "ns", timer_ns());
    } else {
        table.record("peak_rss_mib", "MiB", peak_rss_mib());
    }
    table.put("failed_frac", "frac", gate.failed_frac());
    Ok(table)
}

/// Runs the traced pass over the cell's trace, checks it replayed exactly
/// what `Ssd::replay` did, and records the per-layer metrics of both.
fn traced_rep(args: &Args, cell: Cell, gate: &mut Gate, table: &mut Table) -> Result<(), SsdError> {
    let Cell {
        mut records,
        report,
        export,
        times,
        ref_sample_s: _,
    } = cell;
    if args.forge_read_mismatch {
        forge_read_mismatch(&mut records);
    }
    let pass = traced::run(args.workload.config(), &records, gate)?;
    gate.check(pass.report == report, || {
        "traced pass report differs from the untraced Ssd::replay report".into()
    });

    let n = records.len() as f64;
    table.put("trace.gen_s", "s", times.gen_s);
    table.put("trace.records_per_s", "1/s", n / times.gen_s);
    let lpns = args.workload.config().logical_pages as f64;
    table.put("ftl.setup_ns_per_lpn", "ns", times.setup_s * 1e9 / lpns);

    let all_ns: f64 = pass.samples.iter().flatten().map(|&ns| ns as f64).sum();
    let mut gc_ns = 0.0;
    for (class, mut samples) in Class::ALL.into_iter().zip(pass.samples) {
        let c = class.name();
        let total_ns = samples.iter().fold(0.0, |sum, &ns| sum + ns as f64);
        samples.sort_unstable();
        table.put(format!("ftl.{c}.count"), "count", samples.len() as f64);
        table.put(format!("ftl.{c}.total_s"), "s", total_ns / 1e9);
        table.put(format!("ftl.{c}.share"), "frac", total_ns / all_ns);
        table.record(
            format!("ftl.{c}.p50_ns"),
            "ns",
            smoothed_quantile(&samples, 0.50),
        );
        table.record(
            format!("ftl.{c}.p99_ns"),
            "ns",
            smoothed_quantile(&samples, 0.99),
        );
        if class == Class::WriteGc {
            gc_ns = total_ns;
        }
    }
    let collections = report.gc_collections;
    table.record(
        "ftl.write_gc.ns_per_collection",
        "ns",
        (collections > 0).then(|| gc_ns / collections as f64),
    );
    table.put("ftl.trim.count", "count", pass.trims as f64);
    let flash_ops = report.flash_programs + report.flash_reads + report.erases;
    table.put(
        "ftl.host_ns_per_flash_op",
        "ns",
        times.replay_s * 1e9 / flash_ops.max(1) as f64,
    );

    table.put("metrics.report_s", "s", times.report_s);
    table.put("metrics.export_s", "s", times.export_s);
    table.put("metrics.export_bytes", "bytes", export.len() as f64);

    table.put("core.pool_hit_ratio", "frac", report.pool.hit_ratio());
    table.put("core.pool_evictions", "count", report.pool.evictions as f64);
    let dedup_ratio = report.dedup.map_or(0.0, |d| {
        let lookups = d.dedup_hits + d.misses;
        if lookups == 0 {
            0.0
        } else {
            d.dedup_hits as f64 / lookups as f64
        }
    });
    table.put("dedup.hit_ratio", "frac", dedup_ratio);

    table.put("sim.flash_programs", "count", report.flash_programs as f64);
    table.put("sim.erases", "count", report.erases as f64);
    table.put("sim.gc_collections", "count", report.gc_collections as f64);
    table.put("sim.revived_writes", "count", report.revived_writes as f64);
    table.put("sim.deduped_writes", "count", report.deduped_writes as f64);
    let all = &report.all_latency;
    table.put("sim.all_mean_ns", "sim_ns", all.mean.as_nanos() as f64);
    table.put("sim.all_p99_ns", "sim_ns", all.p99.as_nanos() as f64);

    table.put(
        "tracing.overhead_frac",
        "frac",
        pass.loop_s / times.replay_s - 1.0,
    );
    Ok(())
}

/// Alters the value the trace recorded for its first read, so that the
/// traced pass's read check must fail (the self-test's proof that the
/// gate trips).
fn forge_read_mismatch(records: &mut [TraceRecord]) {
    if let Some(read) = records.iter_mut().find(|r| r.op == IoOp::Read) {
        read.value = ValueId::new(read.value.raw() ^ 1);
    }
}

/// Every simulated counter of a cell's report, as one JSON object.
fn counters_json(cell: &Cell) -> Json {
    Json::Obj(
        cell.report
            .counters()
            .iter()
            .map(|(name, value)| (name.to_string(), Json::U64(value)))
            .collect(),
    )
}

/// Host nanoseconds of one timed call's clock overhead: an
/// `Instant::now` followed by `elapsed`, as the traced pass does around
/// every call.
fn timer_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        let clock = Instant::now();
        black_box(clock.elapsed());
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// This process's peak resident set (`VmHWM`) in MiB; `None` where
/// `/proc/self/status` does not report it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}
