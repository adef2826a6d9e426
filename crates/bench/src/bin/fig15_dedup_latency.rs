//! **Figure 15** — mean latency improvement vs Baseline for DVP,
//! Dedup, and DVP+Dedup (§VII-A).
//!
//! Run with `cargo run -p zssd-bench --release --bin fig15_dedup_latency`.

use zssd_bench::{
    experiment_profiles, grid_for, maybe_write_csv, pct, run_grid, scaled_entries,
    vs_baseline_table, PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;
use zssd_metrics::reduction_pct;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 15: % mean latency improvement vs Baseline\n");
    let entries = scaled_entries(PAPER_POOL_ENTRIES);
    let systems = [
        SystemKind::Baseline,
        SystemKind::MqDvp { entries },
        SystemKind::Dedup,
        SystemKind::DvpPlusDedup { entries },
    ];
    let profiles = experiment_profiles();
    let reports = run_grid(grid_for(&profiles, &systems))?;
    let table = vs_baseline_table(
        vec!["trace", "DVP", "Dedup", "DVP+Dedup"],
        &profiles,
        &reports,
        |base, r| {
            reduction_pct(
                base.mean_latency().as_nanos() as f64,
                r.mean_latency().as_nanos() as f64,
            )
        },
        pct,
    );
    maybe_write_csv("fig15_dedup_latency", &table);
    println!("{table}");
    println!("paper: dedup improves latency by up to 58.5%; stacking the DVP adds");
    println!("       another ~9.8% on average (up to 15%)");
    Ok(())
}
