//! Bring your own trace: build records by hand (or convert your own
//! block trace with content hashes into the text format), save them,
//! reload them, and replay them against any system — no synthetic
//! generator involved.
//!
//! Run with `cargo run --release --example custom_trace`.

use zombie_ssd::core::SystemKind;
use zombie_ssd::ftl::{Ssd, SsdConfig};
use zombie_ssd::trace::{parse_text, write_text, TraceRecord, TraceStats};
use zombie_ssd::types::{Lpn, ValueId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A miniature "config file rewrite" workload: three files (pages
    // 0-2) that flip between two configurations A/B, and a log page
    // that always appends fresh content.
    let (a, b) = (ValueId::new(100), ValueId::new(200));
    let mut records = Vec::new();
    let mut write = |lpn: u64, value: ValueId| {
        records.push(TraceRecord::write(Lpn::new(lpn), value));
    };
    for round in 0..200u64 {
        let config = if round % 2 == 0 { a } else { b };
        for file in 0..3 {
            write(file, config); // same content rewritten across files
        }
        write(3, ValueId::new(1_000 + round)); // unique log append
    }

    // Round-trip through the FIU-like text format.
    let mut buf = Vec::new();
    write_text(&records, &mut buf)?;
    let text = String::from_utf8(buf)?;
    let reloaded = parse_text(&text)?;
    assert_eq!(reloaded, records);
    println!("trace: {}", TraceStats::measure(&reloaded));
    println!("(first lines of the text format)");
    for line in text.lines().take(4) {
        println!("  {line}");
    }

    // Replay against Baseline and the paper's system.
    for system in [SystemKind::Baseline, SystemKind::MqDvp { entries: 64 }] {
        let config = SsdConfig::for_footprint(64)
            .without_precondition()
            .with_system(system);
        let report = Ssd::new(config)?.run_trace(&reloaded)?;
        println!(
            "\n{system}: {} host writes -> {} programs ({} revived)",
            report.host_writes, report.flash_programs, report.revived_writes
        );
    }
    println!("\nthe A/B flip means every config write finds its previous incarnation");
    println!("dead in the pool — almost no page is ever programmed twice");
    Ok(())
}
