//! **Figure 11** — mean latency improvement of the dead-value pool
//! (DVP, 200 K entries) and the prior-work LX-SSD recycler, vs
//! Baseline.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig11_mean_latency`.

use zssd_bench::{
    arrival_spec, experiment_profiles, grid_for, maybe_write_csv, pct, run_grid, scaled_entries,
    vs_baseline_table, PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;
use zssd_metrics::reduction_pct;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 11: % mean latency improvement vs Baseline");
    println!(
        "arrivals: {} (set ZSSD_ARRIVAL to poisson or bursty)\n",
        arrival_spec()
    );
    let entries = scaled_entries(PAPER_POOL_ENTRIES);
    let systems = [
        SystemKind::Baseline,
        SystemKind::MqDvp { entries },
        SystemKind::LxSsd { entries },
    ];
    let profiles = experiment_profiles();
    let reports = run_grid(grid_for(&profiles, &systems))?;
    let table = vs_baseline_table(
        vec!["trace", "DVP", "LX-SSD"],
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
    maybe_write_csv("fig11_mean_latency", &table);
    println!("{table}");
    println!("paper: DVP improves mean latency 4.8%-52% (mean 24.5%) and beats LX-SSD");
    println!("       by ~2x on average (LX-SSD is weakest on mail)");
    Ok(())
}
