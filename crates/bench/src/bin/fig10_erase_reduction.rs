//! **Figure 10** — reduction in erase counts for the 200 K-entry MQ
//! dead-value pool and the Ideal pool, normalized to Baseline.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig10_erase_reduction`.

use zssd_bench::{
    experiment_profiles, grid_for, grid_metrics_json, maybe_write_csv, maybe_write_metrics, pct,
    run_grid, scaled_entries, vs_baseline_table, PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;
use zssd_metrics::reduction_pct;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 10: % reduction in erase counts vs Baseline\n");
    let systems = [
        SystemKind::Baseline,
        SystemKind::MqDvp {
            entries: scaled_entries(PAPER_POOL_ENTRIES),
        },
        SystemKind::Ideal,
    ];
    let profiles = experiment_profiles();
    let cells = grid_for(&profiles, &systems);
    let reports = run_grid(cells.clone())?;
    maybe_write_metrics(
        "fig10_erase_reduction",
        "json",
        &grid_metrics_json(&cells, &reports),
    );
    let table = vs_baseline_table(
        vec!["trace", "DVP-200K", "Ideal"],
        &profiles,
        &reports,
        |base, r| reduction_pct(base.erases as f64, r.erases as f64),
        pct,
    );
    maybe_write_csv("fig10_erase_reduction", &table);
    println!("{table}");
    println!("paper: mean 35.5% erase reduction, up to 59.2% (mail); trend follows Fig 9");
    Ok(())
}
