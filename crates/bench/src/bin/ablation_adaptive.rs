//! **Ablation** — the self-sizing MQ pool (the paper's §V future
//! work) against fixed capacities, on a workload whose redundancy
//! changes phase: the adaptive pool should grow in the redundant
//! phase and shrink in the unique phase.
//!
//! Run with `cargo run -p zssd-bench --release --bin ablation_adaptive`.

use std::sync::Arc;

use zssd_bench::{config_for, run_grid, scale, scaled_entries, GridCell, TextTable};
use zssd_core::SystemKind;
use zssd_trace::{SyntheticTrace, TraceRecord, WorkloadProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1: mail-like (redundant). Phase 2: trans-like (unique).
    let mail = WorkloadProfile::mail().scaled(scale() * 0.3);
    let trans = WorkloadProfile::trans().scaled(scale() * 0.3);
    let t1 = SyntheticTrace::generate(&mail, 5);
    let t2 = SyntheticTrace::generate(&trans, 6);
    // Splice: mail records then trans records remapped into the mail
    // footprint.
    let mut records = t1.records().to_vec();
    records.extend(t2.records().iter().map(|r| {
        let mut r = *r;
        r.lpn = zssd_types::Lpn::new(r.lpn.index() % mail.lpn_space);
        r
    }));
    println!(
        "phase-change workload: {} mail-like + {} trans-like requests\n",
        t1.records().len(),
        t2.records().len()
    );
    let records: Arc<[TraceRecord]> = records.into();

    let min = scaled_entries(50_000);
    let max = scaled_entries(400_000);
    let systems = [
        SystemKind::MqDvp { entries: min },
        SystemKind::MqDvp {
            entries: scaled_entries(200_000),
        },
        SystemKind::MqDvp { entries: max },
        SystemKind::AdaptiveDvp {
            min_entries: min,
            max_entries: max,
        },
    ];
    let cells: Vec<GridCell> = systems
        .iter()
        .map(|&system| {
            GridCell::new(
                "phase-change",
                system.label(),
                config_for(&mail, system),
                records.clone(),
            )
        })
        .collect();
    let reports = run_grid(cells)?;

    let mut table = TextTable::new(vec!["system", "revived", "programs", "mean latency"]);
    for (system, report) in systems.iter().zip(&reports) {
        table.row(vec![
            system.label(),
            report.revived_writes.to_string(),
            report.flash_programs.to_string(),
            report.mean_latency().to_string(),
        ]);
        eprintln!("  [{system}] done");
    }
    println!("{table}");
    println!("the adaptive pool tracks the fixed pool that suits each phase without");
    println!("committing worst-case RAM for the whole run (paper SV future work)");
    Ok(())
}
