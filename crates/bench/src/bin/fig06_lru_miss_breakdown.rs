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
    // Both replays saw the same writes, so their bands line up.
    let mq_bins = mq.mean_misses_by_popularity();
    for (bin, mq_bin) in lru.mean_misses_by_popularity().iter().zip(&mq_bins) {
        let (low, high) = bin.write_range;
        table.row(vec![
            format!("{low}-{high}"),
            bin.values.to_string(),
            format!("{:.3}", bin.mean),
            format!("{:.3}", mq_bin.mean),
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
