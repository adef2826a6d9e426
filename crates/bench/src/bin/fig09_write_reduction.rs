//! **Figure 9** — reduction in the number of writes (NAND programs),
//! normalized to the Baseline system, for MQ dead-value pools of
//! 100 K / 200 K / 300 K entries plus the Ideal (infinite) pool,
//! across the six workloads.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig09_write_reduction`.
//! Scale down with `ZSSD_SCALE=0.1` for a quick pass (pool sizes scale
//! with the trace so the sweep stays meaningful). The whole sweep runs
//! through the parallel grid executor (`ZSSD_THREADS` to pin).

use zssd_bench::{
    experiment_profiles, grid_for, maybe_write_csv, pct, run_grid, scaled_entries,
    vs_baseline_table,
};
use zssd_core::SystemKind;
use zssd_metrics::reduction_pct;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 9: % reduction in number of writes vs Baseline\n");
    let systems = [
        SystemKind::Baseline,
        SystemKind::MqDvp {
            entries: scaled_entries(100_000),
        },
        SystemKind::MqDvp {
            entries: scaled_entries(200_000),
        },
        SystemKind::MqDvp {
            entries: scaled_entries(300_000),
        },
        SystemKind::Ideal,
    ];
    let profiles = experiment_profiles();
    let reports = run_grid(grid_for(&profiles, &systems))?;
    let table = vs_baseline_table(
        vec!["trace", "DVP-100K", "DVP-200K", "DVP-300K", "Ideal"],
        &profiles,
        &reports,
        |base, r| reduction_pct(base.flash_programs as f64, r.flash_programs as f64),
        pct,
    );
    maybe_write_csv("fig09_write_reduction", &table);
    println!("{table}");
    println!("paper: mean 29% at 200K entries, up to 70% (mail); gains saturate beyond 200K");
    Ok(())
}
