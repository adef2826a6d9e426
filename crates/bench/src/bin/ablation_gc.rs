//! **Ablation** — the §IV-D popularity-aware GC victim selector vs
//! plain greedy (max-invalid) selection, both under the 200 K-entry
//! MQ dead-value pool.
//!
//! Run with `cargo run -p zssd-bench --release --bin ablation_gc`.

use zssd_bench::{
    config_for, experiment_profiles, grid_metrics_json, maybe_write_metrics, pct, run_grid,
    scaled_entries, shared_traces, GridCell, TextTable, PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Ablation: popularity-aware GC (SIV-D) vs greedy GC, DVP-200K\n");
    let system = SystemKind::MqDvp {
        entries: scaled_entries(PAPER_POOL_ENTRIES),
    };
    let mut table = TextTable::new(vec![
        "trace",
        "revived (greedy)",
        "revived (pop-aware)",
        "revive gain",
        "erases (greedy)",
        "erases (pop-aware)",
    ]);
    let profiles = experiment_profiles();
    // Two columns per workload — greedy and popularity-aware — each
    // pair replaying one shared trace.
    let cells: Vec<GridCell> = profiles
        .iter()
        .zip(shared_traces(&profiles))
        .flat_map(|(profile, records)| {
            [false, true].into_iter().map(move |aware| {
                GridCell::new(
                    profile.name.clone(),
                    if aware { "pop-aware" } else { "greedy" },
                    config_for(profile, system).with_popularity_aware_gc(aware),
                    records.clone(),
                )
            })
        })
        .collect();
    let reports = run_grid(cells.clone())?;
    maybe_write_metrics("ablation_gc", "json", &grid_metrics_json(&cells, &reports));
    for (profile, pair) in profiles.iter().zip(reports.chunks(2)) {
        let (greedy, aware) = (&pair[0], &pair[1]);
        table.row(vec![
            profile.name.clone(),
            greedy.revived_writes.to_string(),
            aware.revived_writes.to_string(),
            pct(
                100.0 * (aware.revived_writes as f64 - greedy.revived_writes as f64)
                    / greedy.revived_writes.max(1) as f64,
            ),
            greedy.erases.to_string(),
            aware.erases.to_string(),
        ]);
        eprintln!("  [{}] done", profile.name);
    }
    println!("{table}");
    println!("popularity-aware selection keeps popular zombies alive longer, so more");
    println!("incoming writes find their content still resident (SIV-D)");
    Ok(())
}
