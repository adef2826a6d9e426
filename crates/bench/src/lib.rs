//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (see `DESIGN.md` §5 for the index); this library holds what they
//! share: the experiment workload set, full-system runners, and plain
//! text-table rendering.
//!
//! The paper reports its evaluation figures as changes against
//! Baseline, and every such table — Figs 9, 10, 11, 14, 15 and the four
//! tables of `all_experiments` — is built by [`vs_baseline_table`]
//! from a metric of (Baseline report, report). Fig 12 builds its own
//! rows: five of its seven columns are absolute latencies and ratios
//! with no meaningful mean.
//!
//! Scale: experiments default to the paper-sized traces (150 K
//! requests/day × 3 days per workload). Set `ZSSD_SCALE` (e.g. `0.1`)
//! to shrink every trace and footprint proportionally for quick runs,
//! and `ZSSD_SEED` to change the generator seed.
//!
//! Parallelism: the (workload × system) matrix runs through the
//! [`run_grid`] executor, which fans cells across worker threads
//! (`ZSSD_THREADS` overrides the count) while keeping output order —
//! and every report — identical to a serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;

use std::fmt::Display;

use zssd_core::SystemKind;
use zssd_ftl::{RunReport, SsdConfig};
use zssd_metrics::Json;
use zssd_trace::{ArrivalProcess, SyntheticTrace, WorkloadProfile};

pub use grid::{
    grid_for, grid_threads, run_grid, run_grid_with_threads, run_jobs, run_jobs_with_threads,
    shared_traces, GridCell,
};

/// The paper's headline pool size (entries).
pub const PAPER_POOL_ENTRIES: usize = 200_000;

/// The timeline bucket width every experiment export uses (250 ms of
/// simulated time), so GC-episode series from different binaries line
/// up bucket-for-bucket.
pub use zssd_metrics::METRICS_WINDOW;

/// Parses `raw`, the value of the environment knob `name` (`None` when
/// unset). A value that does not parse, or that `valid` rejects, is an
/// error naming the knob and what it `expected`.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    raw: Option<&str>,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    raw.map(|raw| match raw.parse() {
        Ok(value) if valid(&value) => Ok(value),
        _ => Err(format!("invalid {name} {raw:?}: expected {expected}")),
    })
    .transpose()
}

/// Reads the environment knob `name` through [`parse_knob`], panicking
/// on a malformed value: experiments fail loudly rather than fall back
/// to a default.
pub(crate) fn env_knob<T: std::str::FromStr>(
    name: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    let raw = std::env::var(name).ok();
    parse_knob(name, raw.as_deref(), expected, valid).unwrap_or_else(|e| panic!("{e}"))
}

/// Reads the experiment scale factor from `ZSSD_SCALE` (default 1.0),
/// which must be a positive number.
pub fn scale() -> f64 {
    let positive = |s: &f64| s.is_finite() && *s > 0.0;
    env_knob("ZSSD_SCALE", "a positive number", positive).unwrap_or(1.0)
}

/// Reads the trace seed from `ZSSD_SEED` (default 42), which must be
/// an unsigned 64-bit integer.
pub fn seed() -> u64 {
    env_knob("ZSSD_SEED", "an unsigned 64-bit integer", |_: &u64| true).unwrap_or(42)
}

/// The arrival-process spec from `ZSSD_ARRIVAL` (default `constant`).
/// Accepted specs: `constant` (alias `uniform`/`fixed`), `poisson`,
/// `bursty`, `bursty:<mean-burst-len>` — see
/// [`ArrivalProcess::from_spec`].
pub fn arrival_spec() -> String {
    std::env::var("ZSSD_ARRIVAL").unwrap_or_else(|_| "constant".to_owned())
}

/// Resolves [`arrival_spec`] against a mean inter-arrival gap and the
/// configured seed.
///
/// # Panics
///
/// Panics with a descriptive message when `ZSSD_ARRIVAL` holds an
/// unknown spec — experiments should fail loudly, not silently fall
/// back to uniform arrivals.
fn arrival_for(mean: zssd_types::SimDuration) -> ArrivalProcess {
    let spec = arrival_spec();
    ArrivalProcess::from_spec(&spec, mean, seed()).unwrap_or_else(|e| panic!("ZSSD_ARRIVAL: {e}"))
}

/// Pool entry capacity scaled with the trace scale, so "200 K entries"
/// keeps its meaning relative to trace footprint when `ZSSD_SCALE`
/// shrinks the run. At scale 1.0 this is the identity.
pub fn scaled_entries(entries: usize) -> usize {
    ((entries as f64) * scale()).round().max(16.0) as usize
}

/// The six paper workloads at the configured scale.
pub fn experiment_profiles() -> Vec<WorkloadProfile> {
    WorkloadProfile::paper_set()
        .into_iter()
        .map(|p| p.scaled(scale()))
        .collect()
}

/// The three FIU day-series workloads (Figs 1, 5, 6) at the configured
/// scale.
pub fn fiu_profiles() -> Vec<WorkloadProfile> {
    WorkloadProfile::fiu_set()
        .into_iter()
        .map(|p| p.scaled(scale()))
        .collect()
}

/// Generates the trace for a profile with the configured seed.
pub fn trace_for(profile: &WorkloadProfile) -> SyntheticTrace {
    SyntheticTrace::generate(profile, seed())
}

/// Builds the drive configuration for a profile/system pair. The
/// dedup fingerprint index gets the same RAM budget as the paper's
/// pool (200 K entries), scaled with the traces. The arrival process
/// comes from `ZSSD_ARRIVAL`, keeping the config's default mean gap.
pub fn config_for(profile: &WorkloadProfile, system: SystemKind) -> SsdConfig {
    let config = SsdConfig::for_footprint(profile.lpn_space)
        .with_system(system)
        .with_dedup_index_entries(scaled_entries(PAPER_POOL_ENTRIES));
    let arrival = arrival_for(config.arrival.mean_interval());
    config.with_arrival(arrival)
}

/// A minimal aligned text table for experiment output.
///
/// # Examples
///
/// ```
/// use zssd_bench::TextTable;
/// let mut t = TextTable::new(vec!["workload", "reduction"]);
/// t.row(vec!["mail".into(), "70.0%".into()]);
/// let s = t.to_string();
/// assert!(s.contains("mail"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

impl TextTable {
    /// Renders the table as CSV (header row + data rows, commas and
    /// quotes escaped by double-quoting).
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| cell(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes `contents` as `file` into the directory named by the
/// environment variable `var`, if set. Silent no-op otherwise; I/O
/// errors are reported to stderr but never fail an experiment.
fn write_to_env_dir(var: &str, file: &str, contents: &str) {
    let Ok(dir) = std::env::var(var) else {
        return;
    };
    let path = std::path::Path::new(&dir).join(file);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Writes a table as `<name>.csv` into the directory named by the
/// `ZSSD_CSV` environment variable, if set. Silent no-op otherwise;
/// I/O errors are reported to stderr but never fail an experiment.
pub fn maybe_write_csv(name: &str, table: &TextTable) {
    write_to_env_dir("ZSSD_CSV", &format!("{name}.csv"), &table.to_csv());
}

/// Serializes a whole experiment grid as one deterministic JSON
/// document: `{"schema":"zssd-grid-v1","window_ns":…,"cells":[…]}`
/// with one object per cell — its `workload`/`system` labels plus the
/// full [`RunReport::to_json`] report — in input (row-major) order.
/// Because reports are input-ordered regardless of `ZSSD_THREADS`, the
/// output is byte-identical for serial and parallel runs.
///
/// # Panics
///
/// Panics if `cells` and `reports` have different lengths (a grid's
/// reports always pair one-to-one with its cells).
pub fn grid_metrics_json(cells: &[GridCell], reports: &[RunReport]) -> String {
    assert_eq!(
        cells.len(),
        reports.len(),
        "one report per grid cell required"
    );
    let cell_objects = cells
        .iter()
        .zip(reports)
        .map(|(cell, report)| {
            Json::Obj(vec![
                ("workload".into(), Json::Str(cell.row.clone())),
                ("system".into(), Json::Str(cell.col.clone())),
                ("report".into(), report.to_json(METRICS_WINDOW)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("zssd-grid-v1".into())),
        ("window_ns".into(), Json::U64(METRICS_WINDOW.as_nanos())),
        ("cells".into(), Json::Arr(cell_objects)),
    ]);
    format!("{doc}\n")
}

/// Writes an export as `<name>.<ext>` into the directory named by the
/// `ZSSD_METRICS` environment variable, if set — the metrics twin of
/// [`maybe_write_csv`]. Silent no-op otherwise; I/O errors are
/// reported to stderr but never fail an experiment.
pub fn maybe_write_metrics(name: &str, ext: &str, contents: &str) {
    write_to_env_dir("ZSSD_METRICS", &format!("{name}.{ext}"), contents);
}

/// Builds the table every vs-Baseline figure prints: one row per
/// workload, one column per non-Baseline system, and a final `MEAN`
/// row holding each column's mean across the workloads.
///
/// `reports` is the row-major output of a [`grid_for`] grid over
/// `profiles` whose first system is Baseline, so each row of reports
/// is `headers.len()` wide: the Baseline report stands in the row-label
/// column. Each cell is `format(metric(baseline, report))`, where
/// `baseline` is the Baseline report of the cell's own row.
///
/// # Panics
///
/// Panics if `reports` does not hold `headers.len()` reports for each
/// profile.
pub fn vs_baseline_table(
    headers: Vec<&str>,
    profiles: &[WorkloadProfile],
    reports: &[RunReport],
    metric: impl Fn(&RunReport, &RunReport) -> f64,
    format: impl Fn(f64) -> String,
) -> TextTable {
    let width = headers.len();
    assert_eq!(
        reports.len(),
        profiles.len() * width,
        "each workload needs one report per header column"
    );
    let mut table = TextTable::new(headers);
    let mut sums = vec![0.0f64; width - 1];
    for (profile, row) in profiles.iter().zip(reports.chunks(width)) {
        let mut cells = vec![profile.name.clone()];
        for (sum, report) in sums.iter_mut().zip(&row[1..]) {
            let value = metric(&row[0], report);
            *sum += value;
            cells.push(format(value));
        }
        table.row(cells);
    }
    let n = profiles.len() as f64;
    let mut mean = vec!["MEAN".to_owned()];
    mean.extend(sums.iter().map(|&sum| format(sum / n)));
    table.row(mean);
    table
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x)
}

/// Formats a fraction as a percentage with one decimal.
pub fn frac_pct(x: f64) -> String {
    pct(x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_parse_or_name_themselves() {
        let positive = |s: &f64| s.is_finite() && *s > 0.0;
        assert_eq!(parse_knob("ZSSD_SCALE", None, "x", positive), Ok(None));
        assert_eq!(
            parse_knob("ZSSD_SCALE", Some("0.05"), "x", positive),
            Ok(Some(0.05))
        );
        for bad in ["0,1", "0", "-1", "inf", "NaN", ""] {
            assert_eq!(
                parse_knob("ZSSD_SCALE", Some(bad), "a positive number", positive),
                Err(format!(
                    "invalid ZSSD_SCALE {bad:?}: expected a positive number"
                )),
            );
        }
        let any = |_: &u64| true;
        assert_eq!(parse_knob("ZSSD_SEED", Some("7"), "x", any), Ok(Some(7)));
        assert!(parse_knob("ZSSD_SEED", Some("-7"), "x", any).is_err());
        assert!(parse_knob("ZSSD_SEED", Some("seven"), "x", any).is_err());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "quantity"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["12".into(), "345".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn csv_escapes_delimiters_and_quotes() {
        let mut t = TextTable::new(vec!["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        t.row(vec!["plain".into(), "ok".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "\"a,b\",\"say \"\"hi\"\"\"");
        assert_eq!(lines[2], "plain,ok");
    }

    /// Two workloads' rows of three reports (Baseline first), each an
    /// empty Baseline run with the given NAND program counts.
    fn two_rows(programs: [[u64; 3]; 2]) -> (Vec<WorkloadProfile>, Vec<RunReport>) {
        let profiles: Vec<WorkloadProfile> = WorkloadProfile::paper_set()
            .into_iter()
            .take(2)
            .map(|p| p.scaled(0.002))
            .collect();
        let empty = zssd_ftl::Ssd::new(config_for(&profiles[0], SystemKind::Baseline))
            .and_then(|ssd| ssd.run_trace(&[]))
            .expect("empty run");
        let reports = programs
            .iter()
            .flatten()
            .map(|&flash_programs| RunReport {
                flash_programs,
                ..empty.clone()
            })
            .collect();
        (profiles, reports)
    }

    fn program_ratio(baseline: &RunReport, report: &RunReport) -> f64 {
        report.flash_programs as f64 / baseline.flash_programs as f64
    }

    #[test]
    fn vs_baseline_rows_use_their_own_baseline() {
        let (profiles, reports) = two_rows([[100, 50, 25], [10, 5, 20]]);
        let t = vs_baseline_table(
            vec!["trace", "a", "b"],
            &profiles,
            &reports,
            program_ratio,
            |x| x.to_string(),
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows[0], ["web", "0.5", "0.25"]);
        assert_eq!(t.rows[1], ["home", "0.5", "2"]);
    }

    #[test]
    fn vs_baseline_mean_row_averages_each_column() {
        let (profiles, reports) = two_rows([[100, 50, 25], [10, 5, 20]]);
        let t = vs_baseline_table(
            vec!["trace", "a", "b"],
            &profiles,
            &reports,
            program_ratio,
            |x| x.to_string(),
        );
        assert_eq!(t.rows[2], ["MEAN", "0.5", "1.125"]);
    }

    #[test]
    #[should_panic(expected = "one report per header column")]
    fn vs_baseline_rejects_headers_narrower_than_a_row() {
        let (profiles, reports) = two_rows([[100, 50, 25], [10, 5, 20]]);
        let _ = vs_baseline_table(vec!["trace", "a"], &profiles, &reports, program_ratio, pct);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(12.34), "12.3%");
        assert_eq!(frac_pct(0.5), "50.0%");
    }

    #[test]
    fn env_defaults() {
        // Do not set env vars here (tests run in parallel); just check
        // the defaults are sane when unset.
        assert!(scale() > 0.0);
        let _ = seed();
        assert!(scaled_entries(100) >= 16);
    }
}
