//! **Episode analysis** — the consistency story behind Figs 11/12:
//! GC "imposes frequent short episodes of high latencies"; recycling
//! garbage pages removes many of them. Prints per-window worst
//! latencies for Baseline vs DVP on the mail workload, plus the
//! fraction of windows containing an episode.
//!
//! Run with `cargo run -p zssd-bench --release --bin gc_episodes`.

use zssd_bench::{
    frac_pct, grid_for, maybe_write_metrics, run_grid, scale, scaled_entries, TextTable,
    METRICS_WINDOW, PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;
use zssd_metrics::{windows_to_csv, windows_to_json};
use zssd_trace::WorkloadProfile;
use zssd_types::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = WorkloadProfile::mail().scaled(scale());
    let window = METRICS_WINDOW;
    let threshold = SimDuration::from_millis(4); // ~ one erase stall

    let systems = [
        SystemKind::Baseline,
        SystemKind::MqDvp {
            entries: scaled_entries(PAPER_POOL_ENTRIES),
        },
    ];
    let [baseline, dvp]: [_; 2] = run_grid(grid_for(&[profile], &systems))?
        .try_into()
        .expect("one report per system");

    println!("GC latency episodes (mail): windows of {window}, episode = max > {threshold}\n");
    let base_windows = baseline.timeline.windows(window);
    let dvp_windows = dvp.timeline.windows(window);
    maybe_write_metrics(
        "gc_episodes_baseline",
        "json",
        &format!("{}\n", windows_to_json(window, &base_windows)),
    );
    maybe_write_metrics(
        "gc_episodes_dvp",
        "json",
        &format!("{}\n", windows_to_json(window, &dvp_windows)),
    );
    maybe_write_metrics(
        "gc_episodes_baseline",
        "csv",
        &windows_to_csv(&base_windows),
    );
    maybe_write_metrics("gc_episodes_dvp", "csv", &windows_to_csv(&dvp_windows));
    let mut table = TextTable::new(vec!["window", "baseline max", "DVP max"]);
    // Print a readable subsample: every Nth window.
    let step = (base_windows.len() / 24).max(1);
    for (b, d) in base_windows.iter().zip(&dvp_windows).step_by(step) {
        table.row(vec![
            b.start.to_string(),
            b.max.to_string(),
            d.max.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "episode fraction: baseline {}  DVP {}",
        frac_pct(baseline.timeline.episode_fraction(window, threshold)),
        frac_pct(dvp.timeline.episode_fraction(window, threshold)),
    );
    println!("the pool removes programs and erases, so fewer windows contain a GC stall");
    Ok(())
}
