//! **Ablation** — number of MQ queues (1 queue is the LRU-DVP
//! strawman; the paper uses 8). Runs the mail workload with the
//! 200 K-entry pool.
//!
//! Run with `cargo run -p zssd-bench --release --bin ablation_queues`.

use std::sync::Arc;

use zssd_bench::{
    config_for, pct, run_grid, scale, scaled_entries, trace_for, GridCell, TextTable,
    PAPER_POOL_ENTRIES,
};
use zssd_core::SystemKind;
use zssd_metrics::reduction_pct;
use zssd_trace::{TraceRecord, WorkloadProfile};

const QUEUE_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = WorkloadProfile::mail().scaled(scale());
    let records: Arc<[TraceRecord]> = trace_for(&profile).into_records().into();
    let system = SystemKind::MqDvp {
        entries: scaled_entries(PAPER_POOL_ENTRIES),
    };
    // One grid: the baseline column plus one column per queue count,
    // all replaying the same shared trace.
    let mut cells = vec![GridCell::new(
        profile.name.clone(),
        "baseline",
        config_for(&profile, SystemKind::Baseline),
        records.clone(),
    )];
    cells.extend(QUEUE_SWEEP.iter().map(|&queues| {
        GridCell::new(
            profile.name.clone(),
            format!("{queues} queues"),
            config_for(&profile, system).with_mq_queues(queues),
            records.clone(),
        )
    }));
    let reports = run_grid(cells)?;
    let baseline = &reports[0];

    println!("Ablation: MQ queue count (mail, 200K entries)\n");
    let mut table = TextTable::new(vec![
        "queues",
        "revived",
        "write reduction",
        "promotions",
        "demotions",
    ]);
    for (queues, report) in QUEUE_SWEEP.iter().zip(&reports[1..]) {
        table.row(vec![
            queues.to_string(),
            report.revived_writes.to_string(),
            pct(reduction_pct(
                baseline.flash_programs as f64,
                report.flash_programs as f64,
            )),
            report.pool.promotions.to_string(),
            report.pool.demotions.to_string(),
        ]);
        eprintln!("  [{queues} queues] done");
    }
    println!("{table}");
    println!("paper: 8 queues chosen 'after an extensive evaluation' (SV footnote)");
    Ok(())
}
