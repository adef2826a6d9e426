//! **Figure 14** — number of writes normalized to Baseline for
//! Dedup alone, DVP alone, and DVP+Dedup (§VII).
//!
//! Run with `cargo run -p zssd-bench --release --bin fig14_dedup_writes`.

use zssd_bench::{
    experiment_profiles, frac_pct, grid_for, grid_metrics_json, maybe_write_csv,
    maybe_write_metrics, run_grid, scaled_entries, vs_baseline_table, PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 14: NAND writes normalized to Baseline (lower is better)\n");
    let entries = scaled_entries(PAPER_POOL_ENTRIES);
    let systems = [
        SystemKind::Baseline,
        SystemKind::Dedup,
        SystemKind::MqDvp { entries },
        SystemKind::DvpPlusDedup { entries },
    ];
    let profiles = experiment_profiles();
    let cells = grid_for(&profiles, &systems);
    let reports = run_grid(cells.clone())?;
    maybe_write_metrics(
        "fig14_dedup_writes",
        "json",
        &grid_metrics_json(&cells, &reports),
    );
    let table = vs_baseline_table(
        vec!["trace", "Dedup", "DVP", "DVP+Dedup"],
        &profiles,
        &reports,
        |base, r| r.flash_programs as f64 / base.flash_programs as f64,
        frac_pct,
    );
    maybe_write_csv("fig14_dedup_writes", &table);
    println!("{table}");
    println!("paper: dedup alone removes ~40.5% of writes; adding the DVP removes");
    println!("       another ~11% — the two techniques are complementary");
    Ok(())
}
