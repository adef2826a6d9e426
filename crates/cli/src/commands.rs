//! Subcommand implementations.

use std::error::Error;
use std::io::Write;

use zssd_core::SystemKind;
use zssd_flash::FaultConfig;
use zssd_ftl::{Ssd, SsdConfig};
use zssd_trace::{
    read_file, write_file, ArrivalProcess, SyntheticTrace, TraceRecord, TraceStats, WorkloadProfile,
};
use zssd_types::{SimDuration, SimTime};

use crate::args::{ArgError, Args};

type CliResult = Result<(), Box<dyn Error>>;

/// `println!` that hands a failed write to stdout (a reader that closed
/// the pipe, say) back to the caller instead of panicking.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*)?
    };
}

const HELP: &str = "\
zssd — the zombie-ssd simulator (Reviving Zombie Pages on SSDs, IISWC'18)

USAGE:
    zssd <command> [--flag value ...]

COMMANDS:
    list                             workloads and systems available
    gen      --workload W --out F    generate a trace file
             [--scale S] [--seed N] [--days D]
             [--arrival A] [--interval-us U]   stamp arrival times
    run      --workload W --system SYS   simulate a generated trace
             [--entries N] [--scale S] [--seed N] [--days D]
             [--arrival A] [--interval-us U]
             [--fault-rate R] [--fault-seed N]
             [--metrics-out F]           write the run report as JSON
    replay   --trace F --system SYS      simulate a trace file
             [--entries N] [--footprint P] [--seed N]
             [--arrival A] [--interval-us U]
             [--fault-rate R] [--fault-seed N]
             [--metrics-out F]           write the run report as JSON
    events   --workload W --system SYS   trace a run's event stream
             [--entries N] [--scale S] [--seed N] [--days D]
             [--tail N]                  print the last N events (20)
             [--out F]                   write the full stream as CSV
    analyze  --workload W            value life-cycle characterization
             [--scale S] [--seed N]
    fuzz     [--seeds N]             differential fuzz vs the oracle
             [--budget OPS] [--base-seed S]
             [--check-every K] [--corpus DIR]
    help                             this text

SYSTEMS (for --system):
    baseline | dvp | lru-dvp | ideal | lxssd | dedup | dvp-dedup

ARRIVALS (for --arrival; --interval-us sets the mean gap):
    constant | poisson | bursty | bursty:<mean-burst-len>

FAULTS (for --fault-rate; same syntax as the ZSSD_FAULTS env knob):
    a bare probability (applied to program, erase, and read alike), or
    program=P,erase=P,read=P,seed=N with any subset of keys;
    --fault-seed overrides the plan seed

METRICS (DESIGN.md §13):
    --metrics-out writes the schema `zssd-metrics-v1` JSON report
    (counters, latency digests, phase timers, wear, windowed timeline);
    `zssd events` runs with event tracing on and prints/exports the
    typed, timestamped event stream. Both are byte-deterministic for a
    given workload, seed, and configuration

FUZZ:
    each seed generates --budget adversarial commands and replays them
    through the full config grid (DVP/dedup × faults × arrivals) in
    lock-step with the reference oracle, checking every read, the
    drive invariants every --check-every commands, and the program
    conservation identities; divergences are shrunk to minimal traces
    and written to --corpus (default tests/corpus). Seeds fan out
    across ZSSD_THREADS workers; ZSSD_FAULTS sets the faulty column's
    rates. Exit status is nonzero on any divergence (DESIGN.md §12)
";

/// Routes a command line to its implementation.
pub fn dispatch(argv: &[String]) -> CliResult {
    let Some((command, rest)) = argv.split_first() else {
        say!("{HELP}");
        return Ok(());
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            say!("{HELP}");
            Ok(())
        }
        "list" => list(),
        "gen" => gen(rest),
        "run" => run(rest),
        "replay" => replay(rest),
        "events" => events(rest),
        "analyze" => analyze(rest),
        "fuzz" => fuzz(rest),
        other => Err(Box::new(ArgError(format!("unknown command {other:?}")))),
    }
}

fn workload(name: &str) -> Result<WorkloadProfile, ArgError> {
    WorkloadProfile::paper_set()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| {
            ArgError(format!(
                "unknown workload {name:?}; expected web/home/mail/hadoop/trans/desktop"
            ))
        })
}

fn system(name: &str, entries: usize) -> Result<SystemKind, ArgError> {
    Ok(match name {
        "baseline" => SystemKind::Baseline,
        "dvp" => SystemKind::MqDvp { entries },
        "lru-dvp" => SystemKind::LruDvp { entries },
        "ideal" => SystemKind::Ideal,
        "lxssd" => SystemKind::LxSsd { entries },
        "dedup" => SystemKind::Dedup,
        "dvp-dedup" => SystemKind::DvpPlusDedup { entries },
        other => {
            return Err(ArgError(format!(
                "unknown system {other:?}; see `zssd help`"
            )))
        }
    })
}

/// The `--arrival`/`--interval-us` pair, resolved lazily so the mean
/// gap can default to whatever the drive config would use anyway.
struct ArrivalFlags {
    spec: Option<String>,
    interval: Option<SimDuration>,
    seed: u64,
}

impl ArrivalFlags {
    fn from_args(args: &Args) -> Result<ArrivalFlags, Box<dyn Error>> {
        let interval = match args.optional("interval-us") {
            None => None,
            Some(raw) => {
                let us: u64 = raw
                    .parse()
                    .map_err(|e| ArgError(format!("bad value for --interval-us: {e}")))?;
                let ns = us.checked_mul(1_000).ok_or_else(|| {
                    ArgError(format!(
                        "bad value for --interval-us: expected at most {} microseconds, got {us}",
                        u64::MAX / 1_000
                    ))
                })?;
                Some(SimDuration::from_nanos(ns))
            }
        };
        Ok(ArrivalFlags {
            spec: args.optional("arrival").map(str::to_owned),
            interval,
            seed: args.parse_or("seed", 42)?,
        })
    }

    /// Applies the flags to a drive config; absent flags leave the
    /// config's own arrival process untouched.
    fn apply(&self, mut config: SsdConfig) -> Result<SsdConfig, ArgError> {
        if let Some(gap) = self.interval {
            config = config.with_arrival_interval(gap);
        }
        if let Some(spec) = &self.spec {
            let mean = config.arrival.mean_interval();
            let process = ArrivalProcess::from_spec(spec, mean, self.seed).map_err(ArgError)?;
            config = config.with_arrival(process);
        }
        Ok(config)
    }

    /// The concrete process to stamp generated traces with, or `None`
    /// when neither flag was given (records stay unstamped and replay
    /// falls back to the drive's configured spacing).
    fn process(&self) -> Result<Option<ArrivalProcess>, ArgError> {
        match (&self.spec, self.interval) {
            (None, None) => Ok(None),
            (None, Some(gap)) => Ok(Some(ArrivalProcess::constant(gap))),
            (Some(spec), interval) => {
                let mean = interval.unwrap_or(SimDuration::from_micros(1_000));
                Ok(Some(
                    ArrivalProcess::from_spec(spec, mean, self.seed).map_err(ArgError)?,
                ))
            }
        }
    }
}

/// Rejects a constant arrival gap at which the last of `requests`
/// unstamped requests would arrive past the end of the simulated clock,
/// [`SimTime::MAX`].
fn check_clock_span(arrival: &ArrivalProcess, requests: usize) -> Result<(), ArgError> {
    let ArrivalProcess::Constant { interval } = *arrival else {
        return Ok(());
    };
    let gaps = (requests as u64).saturating_sub(1);
    let last = SimTime::MAX.as_nanos();
    match interval.as_nanos().checked_mul(gaps) {
        Some(span) if span <= last => Ok(()),
        _ => Err(ArgError(format!(
            "bad value for --interval-us: {requests} requests {} microseconds apart \
             overrun the simulated clock (at most {} microseconds)",
            interval.as_nanos() / 1_000,
            last / gaps / 1_000
        ))),
    }
}

fn scaled_profile(args: &Args) -> Result<WorkloadProfile, Box<dyn Error>> {
    let mut profile = workload(args.required("workload")?)?;
    let scale: f64 = args.parse_or("scale", 1.0)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(Box::new(ArgError(format!(
            "bad value for --scale: expected a positive number, got {scale}"
        ))));
    }
    if scale != 1.0 {
        profile = profile.scaled(scale);
    }
    let days: u32 = args.parse_or("days", profile.days)?;
    if days == 0 {
        return Err(Box::new(ArgError(
            "bad value for --days: expected at least 1, got 0".to_owned(),
        )));
    }
    let profile = profile.with_days(days);
    profile
        .validate()
        .map_err(|e| ArgError(format!("bad value for --scale or --days: {e}")))?;
    Ok(profile)
}

fn list() -> CliResult {
    say!("workloads (Table II profiles):");
    for p in WorkloadProfile::paper_set() {
        say!(
            "  {:8} WR {:>4.0}%  unique writes {:>4.1}%  {} req/day x {} days, footprint {} pages",
            p.name,
            p.write_ratio * 100.0,
            p.unique_write_frac * 100.0,
            p.requests_per_day,
            p.days,
            p.lpn_space
        );
    }
    say!("\nsystems: baseline dvp lru-dvp ideal lxssd dedup dvp-dedup");
    Ok(())
}

fn gen(argv: &[String]) -> CliResult {
    let args = Args::parse(
        argv,
        &[
            "workload",
            "out",
            "scale",
            "seed",
            "days",
            "arrival",
            "interval-us",
        ],
    )?;
    let profile = scaled_profile(&args)?;
    let out = args.required("out")?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let arrivals = ArrivalFlags::from_args(&args)?.process()?;
    let trace = SyntheticTrace::generate(&profile, seed);
    let mut records = trace.records().to_vec();
    if let Some(process) = arrivals {
        check_clock_span(&process, records.len())?;
        process.stamp(&mut records);
        say!("stamped arrivals: {process}");
    }
    write_file(&records, out)?;
    let stats = TraceStats::measure(&records);
    say!("wrote {} records to {out}", records.len());
    say!("{stats}");
    Ok(())
}

/// The `--fault-rate`/`--fault-seed` pair. Absent flags fall back to
/// the `ZSSD_FAULTS` environment knob (which defaults to no faults).
fn fault_flags(args: &Args) -> Result<FaultConfig, Box<dyn Error>> {
    let mut faults = match args.optional("fault-rate") {
        Some(spec) => FaultConfig::from_spec(spec)
            .map_err(|e| ArgError(format!("bad value for --fault-rate: {e}")))?,
        None => FaultConfig::from_env(),
    };
    if let Some(raw) = args.optional("fault-seed") {
        faults = faults.with_seed(
            raw.parse()
                .map_err(|e| ArgError(format!("bad value for --fault-seed: {e}")))?,
        );
    }
    Ok(faults)
}

/// The scaled drive for `footprint` logical pages running `system`,
/// with the arrival and fault flags applied, validated. A footprint too
/// large for any drive is an error in the value of `--flag`, the flag
/// it came from. The commands build it before they generate or replay
/// a trace, so a rejected drive costs no generation.
fn drive_config(
    footprint: u64,
    flag: &str,
    system: SystemKind,
    args: &Args,
) -> Result<SsdConfig, Box<dyn Error>> {
    let config = SsdConfig::try_for_footprint(footprint)
        .map_err(|e| ArgError(format!("bad value for --{flag}: {}", e.message())))?
        .with_system(system)
        .with_faults(fault_flags(args)?);
    let config = ArrivalFlags::from_args(args)?.apply(config)?;
    config.validate()?;
    Ok(config)
}

fn simulate(records: &[TraceRecord], config: SsdConfig, metrics_out: Option<&str>) -> CliResult {
    if !config.faults.is_none() {
        eprintln!("fault injection: {}", config.faults);
    }
    eprintln!(
        "simulating {} requests on {} ({} physical pages, OP {:.1}%)...",
        records.len(),
        config.system,
        config.geometry.total_pages(),
        config.over_provisioning() * 100.0
    );
    let report = Ssd::new(config)?.run_trace(records)?;
    say!("{report}");
    say!(
        "  wear: min {} / mean {:.1} / max {} erases per block",
        report.wear.min_erases,
        report.wear.mean_erases,
        report.wear.max_erases
    );
    if let Some(path) = metrics_out {
        let doc = report.to_json(zssd_bench::METRICS_WINDOW);
        std::fs::write(path, format!("{doc}\n"))?;
        eprintln!("wrote metrics report to {path}");
    }
    Ok(())
}

fn run(argv: &[String]) -> CliResult {
    let args = Args::parse(
        argv,
        &[
            "workload",
            "system",
            "entries",
            "scale",
            "seed",
            "days",
            "arrival",
            "interval-us",
            "fault-rate",
            "fault-seed",
            "metrics-out",
        ],
    )?;
    let profile = scaled_profile(&args)?;
    let entries: usize = args.parse_or("entries", 200_000)?;
    let system = system(args.required("system")?, entries)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let config = drive_config(profile.lpn_space, "scale", system, &args)?;
    let trace = SyntheticTrace::generate(&profile, seed);
    check_clock_span(&config.arrival, trace.records().len())?;
    simulate(trace.records(), config, args.optional("metrics-out"))
}

fn replay(argv: &[String]) -> CliResult {
    let args = Args::parse(
        argv,
        &[
            "trace",
            "system",
            "entries",
            "footprint",
            "seed",
            "arrival",
            "interval-us",
            "fault-rate",
            "fault-seed",
            "metrics-out",
        ],
    )?;
    let records = read_file(args.required("trace")?)?;
    let entries: usize = args.parse_or("entries", 200_000)?;
    let system = system(args.required("system")?, entries)?;
    // The default footprint covers the highest LPN, and at least 64
    // pages. An `Lpn` is 32 bits, so `index() + 1` cannot overflow.
    let covered = records.iter().map(|r| r.lpn.index() + 1).fold(64, u64::max);
    let footprint: u64 = args.parse_or("footprint", covered)?;
    if footprint == 0 {
        return Err(Box::new(ArgError(
            "bad value for --footprint: expected at least 1, got 0".to_owned(),
        )));
    }
    let config = drive_config(footprint, "footprint", system, &args)?;
    let unstamped = records.iter().filter(|r| r.arrival.is_none()).count();
    check_clock_span(&config.arrival, unstamped)?;
    simulate(&records, config, args.optional("metrics-out"))
}

/// `zssd events` — run a workload with event tracing enabled, print
/// the tail of the unified event stream, and optionally export the
/// whole stream as CSV.
fn events(argv: &[String]) -> CliResult {
    let args = Args::parse(
        argv,
        &[
            "workload", "system", "entries", "scale", "seed", "days", "tail", "out",
        ],
    )?;
    let profile = scaled_profile(&args)?;
    let entries: usize = args.parse_or("entries", 200_000)?;
    let system = system(args.required("system")?, entries)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let tail: usize = args.parse_or("tail", 20)?;
    // `events` takes no arrival or fault flags, so those stay at the
    // drive's defaults (`ZSSD_FAULTS` included).
    let config = drive_config(profile.lpn_space, "scale", system, &args)?.with_event_tracing(true);
    let trace = SyntheticTrace::generate(&profile, seed);
    eprintln!(
        "tracing {} requests on {} ({} physical pages)...",
        trace.records().len(),
        system,
        config.geometry.total_pages()
    );
    let report = Ssd::new(config)?.run_trace(trace.records())?;
    say!(
        "{} events recorded ({} writes, {} reads, {} revives, {} GC erases)",
        report.events.len(),
        report.host_writes,
        report.host_reads,
        report.revived_writes,
        report.erases
    );
    let start = report.events.len().saturating_sub(tail);
    if start > 0 {
        say!("  ... {start} earlier events (--tail N shows more, --out F exports all)");
    }
    for (index, event) in report.events.iter().enumerate().skip(start) {
        say!("{index:>8}  {event}");
    }
    if let Some(path) = args.optional("out") {
        std::fs::write(path, zssd_metrics::events_to_csv(&report.events))?;
        eprintln!("wrote {} events to {path}", report.events.len());
    }
    Ok(())
}

fn analyze(argv: &[String]) -> CliResult {
    use zssd_analysis::{infinite_reuse, ValueLifecycles};
    let args = Args::parse(argv, &["workload", "scale", "seed", "days"])?;
    let profile = scaled_profile(&args)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let trace = SyntheticTrace::generate(&profile, seed);
    let stats = TraceStats::measure(trace.records());
    say!("{} — {stats}", profile.name);

    let lc = ValueLifecycles::analyze(trace.records());
    say!(
        "values: {} unique, {:.1}% died at least once, {} rebirths total",
        lc.unique_values(),
        lc.fraction_with_deaths() * 100.0,
        lc.total_rebirths()
    );
    say!(
        "popularity: top 20% of values carry {:.1}% of writes, {:.1}% of rebirths",
        lc.writes_share().share_of_top(0.2) * 100.0,
        lc.rebirths_share().share_of_top(0.2) * 100.0
    );
    let plain = infinite_reuse(trace.records(), false);
    let dedup = infinite_reuse(trace.records(), true);
    say!(
        "reuse bound: {:.1}% of writes revivable (infinite pool); after dedup {:.1}% \
         (+{:.1}% removed by dedup itself)",
        plain.reuse_fraction() * 100.0,
        dedup.reuse_fraction() * 100.0,
        dedup.dedup_fraction() * 100.0
    );
    Ok(())
}

fn fuzz(argv: &[String]) -> CliResult {
    let args = Args::parse(
        argv,
        &["seeds", "budget", "base-seed", "check-every", "corpus"],
    )?;
    let seeds: usize = args.parse_or("seeds", 8)?;
    let budget: usize = args.parse_or("budget", 4_096)?;
    let base_seed: u64 = args.parse_or("base-seed", 1)?;
    let check_every: usize = args.parse_or("check-every", 1)?;
    let corpus = args.optional("corpus").unwrap_or("tests/corpus").to_owned();
    if seeds == 0 || budget == 0 {
        return Err(Box::new(ArgError(
            "--seeds and --budget must be positive".into(),
        )));
    }
    let cells = zssd_oracle::standard_grid(base_seed).len();
    eprintln!(
        "fuzzing {seeds} seeds x {cells} grid cells, {budget} commands each \
         ({} worker threads)...",
        zssd_bench::grid_threads()
    );
    let outcomes = zssd_bench::run_jobs(seeds, |i| {
        zssd_oracle::fuzz_seed(base_seed + i as u64, budget, check_every)
    });
    let mut divergences = 0usize;
    for outcome in &outcomes {
        let sum = |f: fn(&zssd_oracle::DiffSummary) -> u64| -> u64 {
            outcome.cells.iter().map(|(_, s)| f(s)).sum()
        };
        let dead = outcome
            .cells
            .iter()
            .filter(|(_, s)| s.capacity_death_at.is_some())
            .count();
        say!(
            "seed {:>6}: {} commands x {} cells | reads {} | revived {} | \
             deduped {} | erases {} | faults {}p/{}e/{}r | retired {}{}{}",
            outcome.seed,
            outcome.commands,
            outcome.cells.len(),
            sum(|s| s.reads_checked),
            sum(|s| s.revived_writes),
            sum(|s| s.deduped_writes),
            sum(|s| s.erases),
            sum(|s| s.program_failures),
            sum(|s| s.erase_failures),
            sum(|s| s.read_retries),
            sum(|s| s.retired_blocks),
            if dead > 0 {
                format!(" | {dead} cell(s) died of fault-induced capacity loss")
            } else {
                String::new()
            },
            if outcome.ok() { "" } else { "  <-- DIVERGED" },
        );
        for failure in &outcome.failures {
            divergences += 1;
            let name = format!("fuzz-seed{}-{}", outcome.seed, slug(&failure.cell));
            eprintln!("  [{}] {}", failure.cell, failure.detail);
            let shrunk =
                zssd_oracle::normalize(&failure.shrunk, zssd_oracle::FUZZ_LOGICAL_PAGES, true);
            let header = vec![failure.repro.clone(), failure.detail.clone()];
            match zssd_oracle::write_corpus(&corpus, &name, &header, &shrunk) {
                Ok(path) => eprintln!(
                    "  minimized to {} commands -> {}",
                    shrunk.len(),
                    path.display()
                ),
                Err(e) => eprintln!("  could not write {corpus}/{name}.trace: {e}"),
            }
        }
    }
    if divergences > 0 {
        return Err(Box::new(ArgError(format!(
            "fuzz: {divergences} divergence(s) across {seeds} seeds; \
             minimized traces written to {corpus}/"
        ))));
    }
    say!("fuzz: {seeds} seeds x {cells} cells clean — no divergences, no invariant violations");
    Ok(())
}

/// Turns a grid-cell label like `DVP+Dedup-64/faulty/bursty` into a
/// file-name-safe slug.
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_trace::TraceParseError;

    #[test]
    fn workload_lookup() {
        assert_eq!(workload("mail").expect("known").name, "mail");
        assert!(workload("floppy").is_err());
    }

    #[test]
    fn system_lookup() {
        assert_eq!(
            system("dvp", 7).expect("known"),
            SystemKind::MqDvp { entries: 7 }
        );
        assert_eq!(system("baseline", 7).expect("known"), SystemKind::Baseline);
        assert_eq!(
            system("dvp-dedup", 9).expect("known"),
            SystemKind::DvpPlusDedup { entries: 9 }
        );
        assert!(system("magic", 7).is_err());
    }

    /// The error `scaled_profile` returns for web with `flags`.
    fn profile_error(flags: &[&str]) -> String {
        let argv: Vec<String> = ["--workload", "web"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv, &["workload", "scale", "days"]).expect("known flags");
        scaled_profile(&args).unwrap_err().to_string()
    }

    #[test]
    fn zero_scale_is_an_argument_error() {
        assert_eq!(
            profile_error(&["--scale", "0"]),
            "bad value for --scale: expected a positive number, got 0"
        );
    }

    #[test]
    fn nan_scale_is_an_argument_error() {
        assert_eq!(
            profile_error(&["--scale", "nan"]),
            "bad value for --scale: expected a positive number, got NaN"
        );
    }

    #[test]
    fn negative_scale_is_an_argument_error() {
        assert_eq!(
            profile_error(&["--scale", "-2"]),
            "bad value for --scale: expected a positive number, got -2"
        );
    }

    #[test]
    fn infinite_scale_is_an_argument_error() {
        assert_eq!(
            profile_error(&["--scale", "inf"]),
            "bad value for --scale: expected a positive number, got inf"
        );
    }

    #[test]
    fn zero_days_is_an_argument_error() {
        assert_eq!(
            profile_error(&["--days", "0"]),
            "bad value for --days: expected at least 1, got 0"
        );
    }

    #[test]
    fn oversized_scale_is_an_argument_error() {
        assert_eq!(
            profile_error(&["--scale", "1e300"]),
            "bad value for --scale or --days: requests per day times days overflows a u64"
        );
    }

    #[test]
    fn every_profile_command_rejects_a_bad_scale() {
        for argv in [
            &["gen", "--workload", "web", "--out", "unused"][..],
            &["run", "--workload", "web", "--system", "dvp"],
            &["analyze", "--workload", "web"],
            &[
                "events",
                "--workload",
                "web",
                "--system",
                "dvp",
                "--out",
                "unused",
            ],
        ] {
            let argv: Vec<String> = argv
                .iter()
                .chain(&["--scale", "0"])
                .map(|s| s.to_string())
                .collect();
            let err = dispatch(&argv).unwrap_err().to_string();
            assert!(
                err.starts_with("bad value for --scale"),
                "{}: {err}",
                argv[0]
            );
        }
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        let err = dispatch(&["frobnicate".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn help_and_list_succeed() {
        dispatch(&[]).expect("bare invocation prints help");
        dispatch(&["help".to_owned()]).expect("help");
        dispatch(&["list".to_owned()]).expect("list");
    }

    #[test]
    fn end_to_end_gen_replay_analyze() {
        let dir = std::env::temp_dir().join(format!("zssd-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("tiny.trace");
        let path_str = path.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = [
            "gen",
            "--workload",
            "trans",
            "--out",
            &path_str,
            "--scale",
            "0.002",
            "--seed",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("gen");
        let argv: Vec<String> = [
            "replay",
            "--trace",
            &path_str,
            "--system",
            "dvp",
            "--entries",
            "64",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("replay");
        let argv: Vec<String> = ["analyze", "--workload", "trans", "--scale", "0.002"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        dispatch(&argv).expect("analyze");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn replay_rejects_an_lpn_no_footprint_can_hold() {
        let dir = std::env::temp_dir().join(format!("zssd-cli-lpn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("max-lpn.trace");
        std::fs::write(&path, "0 W 3 7\n1 W 18446744073709551615 8\n").expect("writable");
        let path_str = path.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = ["replay", "--trace", &path_str, "--system", "baseline"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = dispatch(&argv).expect_err("LPN u64::MAX fits no drive");
        let parse = err
            .downcast_ref::<std::io::Error>()
            .and_then(|e| e.get_ref())
            .and_then(|e| e.downcast_ref::<TraceParseError>())
            .expect("a typed parse error");
        assert_eq!(parse.line(), 2);
        assert_eq!(
            parse.to_string(),
            "trace line 2: lpn 18446744073709551615 out of range: at most 4294967295"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn replay_rejects_a_zero_footprint() {
        let dir = std::env::temp_dir().join(format!("zssd-cli-footprint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("one-write.trace");
        std::fs::write(&path, "0 W 3 7\n").expect("writable");
        let path_str = path.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = [
            "replay",
            "--trace",
            &path_str,
            "--system",
            "baseline",
            "--footprint",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = dispatch(&argv).expect_err("no drive has zero pages");
        let arg = err
            .downcast_ref::<ArgError>()
            .expect("a typed argument error");
        assert_eq!(
            arg.to_string(),
            "bad value for --footprint: expected at least 1, got 0"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn an_interval_too_long_for_the_clock_is_rejected() {
        let out = std::env::temp_dir().join(format!("zssd-cli-interval-{}", std::process::id()));
        let out_str = out.to_str().expect("utf8 path").to_owned();
        let expected = "bad value for --interval-us: expected at most 18446744073709551 \
                        microseconds, got 18446744073709551615";
        for command in [
            &["gen", "--out", &out_str][..],
            &["run", "--system", "dvp"][..],
        ] {
            let argv: Vec<String> = command
                .iter()
                .chain(&["--workload", "web", "--scale", "0.001"])
                .chain(&["--interval-us", "18446744073709551615"])
                .map(|s| s.to_string())
                .collect();
            let err = dispatch(&argv).expect_err("the gap overflows nanoseconds");
            let arg = err
                .downcast_ref::<ArgError>()
                .expect("a typed argument error");
            assert_eq!(arg.to_string(), expected, "{}", command[0]);
        }
        assert!(!out.exists(), "no trace is written");
    }

    #[test]
    fn the_clock_span_ends_at_the_last_instant() {
        let gap = |ns| ArrivalProcess::constant(SimDuration::from_nanos(ns));
        let last = SimTime::MAX.as_nanos();
        check_clock_span(&gap(last), 2).expect("the second request arrives at SimTime::MAX");
        let err = check_clock_span(&gap(u64::MAX), 2).expect_err("one past SimTime::MAX");
        assert!(
            err.to_string().contains("overrun the simulated clock"),
            "{err}"
        );
        check_clock_span(&gap(last / 2), 3).expect("an exact fit");
        check_clock_span(&gap(last / 2 + 1), 3).expect_err("two gaps past the last instant");
        check_clock_span(&gap(u64::MAX), 1).expect("one request needs no gap");
    }

    #[test]
    fn a_constant_interval_that_wraps_the_clock_is_rejected() {
        // 1 800 requests 18 446 744 073 709 551 us apart would stamp
        // the third at an instant past 2^64 - 1 ns.
        let dir = std::env::temp_dir().join(format!("zssd-cli-wrap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = dir.join("web.trace");
        let out_str = out.to_str().expect("utf8 path").to_owned();
        let wrap = "18446744073709551";
        let expected = "bad value for --interval-us: 1800 requests 18446744073709551 \
                        microseconds apart overrun the simulated clock (at most \
                        10253887756369 microseconds)";
        for command in [
            &["gen", "--out", &out_str][..],
            &["run", "--system", "dvp"][..],
        ] {
            let argv: Vec<String> = command
                .iter()
                .chain(&[
                    "--workload",
                    "web",
                    "--scale",
                    "0.001",
                    "--interval-us",
                    wrap,
                ])
                .map(|s| s.to_string())
                .collect();
            let err = dispatch(&argv).expect_err("the last arrival wraps");
            let arg = err
                .downcast_ref::<ArgError>()
                .expect("a typed argument error");
            assert_eq!(arg.to_string(), expected, "{}", command[0]);
        }
        assert!(!out.exists(), "no trace is written");
        // One gap fits the clock and the last one does not: the limit
        // is exact.
        let at_limit = |us: &str| {
            let argv: Vec<String> = ["gen", "--out", &out_str, "--workload", "web"]
                .iter()
                .chain(&["--scale", "0.001", "--interval-us", us])
                .map(|s| s.to_string())
                .collect();
            dispatch(&argv)
        };
        at_limit("10253887756369").expect("the last arrival fits");
        at_limit("10253887756370").expect_err("the last arrival wraps");

        // Replay counts only the records the arrival process stamps:
        // 10^19 ns apart, two of them fit the clock and three do not.
        let trace = dir.join("three.trace");
        let trace_str = trace.to_str().expect("utf8 path").to_owned();
        let replay = |text: &str| {
            std::fs::write(&trace, text).expect("writable");
            let argv: Vec<String> = ["replay", "--trace", &trace_str, "--system", "baseline"]
                .iter()
                .chain(&["--interval-us", "10000000000000000"])
                .map(|s| s.to_string())
                .collect();
            dispatch(&argv)
        };
        replay("0 W 3 7\n1 W 4 8 @5\n2 W 5 9\n").expect("two unstamped records fit");
        let err = replay("0 W 3 7\n1 W 4 8\n2 W 5 9\n").expect_err("three do not");
        assert!(err
            .to_string()
            .starts_with("bad value for --interval-us: 3 requests"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn replay_rejects_a_footprint_no_plane_can_hold() {
        let dir = std::env::temp_dir().join(format!("zssd-cli-huge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("one-write.trace");
        std::fs::write(&path, "0 W 3 7\n").expect("writable");
        let path_str = path.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = [
            "replay",
            "--trace",
            &path_str,
            "--system",
            "baseline",
            "--footprint",
            "18446744073709551615",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = dispatch(&argv).expect_err("no drive has 2^64 - 1 pages");
        let arg = err
            .downcast_ref::<ArgError>()
            .expect("a typed argument error");
        assert_eq!(
            arg.to_string(),
            "bad value for --footprint: a footprint of 18446744073709551615 pages needs \
             18014398509481984 blocks per plane, more than 4294967295 fit"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn run_and_events_reject_a_drive_before_generating_its_trace() {
        // At full scale mail generates 3 M records; a rejected drive
        // must fail before that, on the configuration alone.
        for command in ["run", "events"] {
            let argv: Vec<String> = [command, "--workload", "mail", "--system", "dvp"]
                .iter()
                .chain(&["--entries", "0"])
                .map(|s| s.to_string())
                .collect();
            let started = std::time::Instant::now();
            let err = dispatch(&argv).expect_err("an empty pool is rejected");
            assert_eq!(
                err.to_string(),
                "invalid configuration: dead-value pool capacity must be at least one entry"
            );
            assert!(
                started.elapsed() < std::time::Duration::from_millis(500),
                "{command} took {:?} to reject the drive",
                started.elapsed()
            );
        }
    }

    #[test]
    fn fuzz_small_clean_run_succeeds() {
        let dir = std::env::temp_dir().join(format!("zssd-cli-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let dir_str = dir.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = [
            "fuzz",
            "--seeds",
            "2",
            "--budget",
            "120",
            "--base-seed",
            "7",
            "--check-every",
            "8",
            "--corpus",
            &dir_str,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("a small clean fuzz run");
        // A clean run writes no corpus entries.
        let entries = std::fs::read_dir(&dir).expect("readable").count();
        assert_eq!(entries, 0, "clean fuzz runs must not write traces");
        assert!(dispatch(&["fuzz".into(), "--seeds".into(), "0".into()]).is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn run_writes_metrics_json_and_events_exports_csv() {
        let dir = std::env::temp_dir().join(format!("zssd-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let json_path = dir.join("report.json");
        let json_str = json_path.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = [
            "run",
            "--workload",
            "trans",
            "--system",
            "dvp",
            "--scale",
            "0.002",
            "--entries",
            "64",
            "--metrics-out",
            &json_str,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("run with --metrics-out");
        let text = std::fs::read_to_string(&json_path).expect("report written");
        let doc = zssd_metrics::Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(zssd_metrics::Json::as_str),
            Some("zssd-metrics-v1")
        );
        assert!(
            doc.get("counters")
                .and_then(|c| c.get("host_writes"))
                .and_then(zssd_metrics::Json::as_u64)
                .unwrap_or(0)
                > 0
        );

        let csv_path = dir.join("events.csv");
        let csv_str = csv_path.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = [
            "events",
            "--workload",
            "trans",
            "--system",
            "dvp",
            "--scale",
            "0.002",
            "--entries",
            "64",
            "--tail",
            "5",
            "--out",
            &csv_str,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("events with --out");
        let csv = std::fs::read_to_string(&csv_path).expect("events written");
        assert!(csv.starts_with("seq,at_ns,kind,fields"));
        assert!(csv.contains("host_write"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn slug_is_file_name_safe() {
        assert_eq!(
            slug("DVP+Dedup-64/faulty/bursty"),
            "dvp-dedup-64-faulty-bursty"
        );
    }

    #[test]
    fn run_honors_fault_flags() {
        let argv: Vec<String> = [
            "run",
            "--workload",
            "trans",
            "--system",
            "dvp",
            "--scale",
            "0.002",
            "--entries",
            "64",
            "--fault-rate",
            "program=1e-3,erase=5e-3,read=1e-3",
            "--fault-seed",
            "99",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("run with fault injection");
        // A bare probability applies to all three operation kinds.
        let argv: Vec<String> = [
            "run",
            "--workload",
            "trans",
            "--system",
            "baseline",
            "--scale",
            "0.002",
            "--fault-rate",
            "0.001",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("run with a bare fault rate");
        // Malformed specs are rejected up front.
        assert!(dispatch(&[
            "run".into(),
            "--workload".into(),
            "trans".into(),
            "--system".into(),
            "dvp".into(),
            "--fault-rate".into(),
            "program=2.0".into(),
        ])
        .is_err());
    }

    #[test]
    fn gen_stamps_arrivals_and_replay_honors_arrival_flags() {
        let dir = std::env::temp_dir().join(format!("zssd-cli-arrival-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("stamped.trace");
        let path_str = path.to_str().expect("utf8 path").to_owned();
        let argv: Vec<String> = [
            "gen",
            "--workload",
            "trans",
            "--out",
            &path_str,
            "--scale",
            "0.002",
            "--seed",
            "1",
            "--arrival",
            "poisson",
            "--interval-us",
            "500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("gen with stamped arrivals");
        let records = read_file(&path).expect("readable");
        assert!(
            records.iter().all(|r| r.arrival.is_some()),
            "gen --arrival must stamp every record"
        );
        let argv: Vec<String> = [
            "replay",
            "--trace",
            &path_str,
            "--system",
            "baseline",
            "--entries",
            "64",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("replay of a stamped trace");
        // An unstamped run accepts the arrival flags too.
        let argv: Vec<String> = [
            "run",
            "--workload",
            "trans",
            "--system",
            "dvp",
            "--scale",
            "0.002",
            "--entries",
            "64",
            "--arrival",
            "bursty:8",
            "--interval-us",
            "200",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&argv).expect("run with bursty arrivals");
        assert!(dispatch(&[
            "run".into(),
            "--workload".into(),
            "trans".into(),
            "--system".into(),
            "dvp".into(),
            "--arrival".into(),
            "tidal".into()
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
