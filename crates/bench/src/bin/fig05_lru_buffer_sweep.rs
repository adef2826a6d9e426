//! **Figure 5** — number of writes remaining when a *plain LRU*
//! dead-value buffer of 100 K–1 M entries services the FIU day
//! traces, against the no-buffer and infinite-buffer extremes.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig05_lru_buffer_sweep`.
//! Buffer sizes scale with `ZSSD_SCALE` like the traces do.

use zssd_analysis::PoolReuseSim;
use zssd_bench::{fiu_profiles, maybe_write_csv, scaled_entries, trace_for, TextTable};
use zssd_core::MqConfig;

fn main() {
    println!("Figure 5: writes remaining with an LRU dead-value buffer\n");
    let sizes = [100_000usize, 200_000, 500_000, 1_000_000];
    let mut headers = vec!["day".to_owned(), "no buffer".to_owned()];
    headers.extend(sizes.iter().map(|s| format!("LRU {}K", s / 1000)));
    headers.push("infinite".to_owned());
    let mut table = TextTable::new(headers);

    for profile in fiu_profiles() {
        let trace = trace_for(&profile);
        for (day, label) in trace.day_labels().into_iter().enumerate() {
            let records = trace.through_day(day as u32);
            let summaries: Vec<_> = sizes
                .iter()
                .map(|&size| PoolReuseSim::new(MqConfig::lru(scaled_entries(size))).run(records))
                .collect();
            // Every replay saw the same writes, and the infinite buffer
            // short-circuits each pool hit and each capacity miss.
            let first = &summaries[0];
            let mut cells = vec![label, first.writes.to_string()];
            cells.extend(summaries.iter().map(|s| s.writes_remaining().to_string()));
            cells.push((first.writes - first.hits - first.capacity_misses).to_string());
            table.row(cells);
        }
        eprintln!("  [{}] done", profile.name);
    }
    maybe_write_csv("fig05_lru_buffer_sweep", &table);
    println!("{table}");
    println!("paper: even 100K entries removes up to 62% of writes, but large traces");
    println!("       (mail) leave a sizeable gap to the infinite buffer under plain LRU");
}
