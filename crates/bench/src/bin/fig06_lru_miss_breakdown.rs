//! **Figure 6** — average number of LRU-buffer misses per value, per
//! popularity band, for the m2 trace prefix with a 100 K-entry
//! buffer: the motivation for MQ (popular values miss the most under
//! plain LRU).
//!
//! Run with `cargo run -p zssd-bench --release --bin fig06_lru_miss_breakdown`.

use zssd_analysis::PoolReuseSim;
use zssd_bench::{scale, scaled_entries, trace_for, TextTable};
use zssd_core::MqConfig;
use zssd_trace::WorkloadProfile;

fn main() {
    let profile = WorkloadProfile::mail().scaled(scale());
    let trace = trace_for(&profile);
    let records = trace.through_day(1); // the paper's m2 prefix
    let entries = scaled_entries(100_000);

    let lru = PoolReuseSim::new(MqConfig::lru(entries)).run(records);
    // MQ at the same size, for contrast (the fix Fig 6 motivates).
    let mq = PoolReuseSim::new(MqConfig::paper_default().with_capacity(entries)).run(records);

    println!("Figure 6: mean buffer misses per value by popularity band (m2, {entries} entries)\n");
    let mut table = TextTable::new(vec![
        "band (writes)",
        "values",
        "LRU mean misses",
        "MQ mean misses",
    ]);
    let mq_bins = mq.mean_misses_by_popularity();
    for (degree, lru_mean, values) in lru.mean_misses_by_popularity() {
        let mq_mean = mq_bins
            .iter()
            .find(|&&(d, _, _)| d == degree)
            .map_or(0.0, |&(_, m, _)| m);
        table.row(vec![
            format!("{}-{}", 1u64 << degree, (1u64 << (degree + 1)) - 1),
            values.to_string(),
            format!("{lru_mean:.3}"),
            format!("{mq_mean:.3}"),
        ]);
    }
    println!("{table}");
    println!(
        "totals: LRU hits {} misses {} | MQ hits {} misses {}",
        lru.hits, lru.capacity_misses, mq.hits, mq.capacity_misses
    );
    println!("paper: LRU leads to many misses especially for popular values —");
    println!("       motivating popularity-aware (MQ) replacement");
}
