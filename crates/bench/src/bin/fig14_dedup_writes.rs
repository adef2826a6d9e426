//! **Figure 14** — number of writes normalized to Baseline for
//! Dedup alone, DVP alone, and DVP+Dedup (§VII).
//!
//! Run with `cargo run -p zssd-bench --release --bin fig14_dedup_writes`.

use zssd_bench::{
    experiment_profiles, frac_pct, grid_for, grid_metrics_json, maybe_write_csv,
    maybe_write_metrics, run_grid, scaled_entries, TextTable, PAPER_POOL_ENTRIES,
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
    let mut table = TextTable::new(vec!["trace", "Dedup", "DVP", "DVP+Dedup"]);
    let mut sums = [0.0f64; 3];
    let profiles = experiment_profiles();
    let cells = grid_for(&profiles, &systems);
    let all = run_grid(cells.clone())?;
    maybe_write_metrics(
        "fig14_dedup_writes",
        "json",
        &grid_metrics_json(&cells, &all),
    );
    for (profile, reports) in profiles.iter().zip(all.chunks(systems.len())) {
        let base = reports[0].flash_programs as f64;
        let mut cells = vec![profile.name.clone()];
        for (i, report) in reports[1..].iter().enumerate() {
            let normalized = report.flash_programs as f64 / base;
            sums[i] += normalized;
            cells.push(frac_pct(normalized));
        }
        table.row(cells);
        eprintln!("  [{}] done", profile.name);
    }
    let n = profiles.len() as f64;
    table.row(vec![
        "MEAN".into(),
        frac_pct(sums[0] / n),
        frac_pct(sums[1] / n),
        frac_pct(sums[2] / n),
    ]);
    maybe_write_csv("fig14_dedup_writes", &table);
    println!("{table}");
    println!("paper: dedup alone removes ~40.5% of writes; adding the DVP removes");
    println!("       another ~11% — the two techniques are complementary");
    Ok(())
}
