//! Consistency between the independent implementations of the same
//! concepts: trace-level analysis (zssd-analysis), the pool data
//! structures (zssd-core), and the full device (zssd-ftl).

use zombie_ssd::analysis::{infinite_reuse, PoolReuseSim, ValueLifecycles};
use zombie_ssd::core::{MqConfig, SystemKind};
use zombie_ssd::ftl::{Ssd, SsdConfig};
use zombie_ssd::oracle::OracleDrive;
use zombie_ssd::trace::{parse_text, write_text, SyntheticTrace, TraceStats, WorkloadProfile};

#[test]
fn analysis_counts_match_the_oracle_on_trimmed_traces() {
    // The oracle drive is an independent model of the same content:
    // a trim kills a copy there as an overwrite does, so every
    // trace-side count must equal its bound on traces with trims.
    for profile in WorkloadProfile::paper_set() {
        let profile = profile.scaled(0.005).with_trim_ratio(0.1);
        let trace = SyntheticTrace::generate(&profile, 42);
        let mut oracle = OracleDrive::new(profile.lpn_space, false);
        for record in trace.records() {
            oracle.step(record).expect("in range");
        }
        let bounds = oracle.stats();
        let plain = infinite_reuse(trace.records(), false);
        let lc = ValueLifecycles::analyze(trace.records());
        let ideal = PoolReuseSim::new(MqConfig::ideal()).run(trace.records());
        let name = &profile.name;
        assert!(bounds.trims > 0, "{name}: the trace trims");
        assert_eq!(plain.reused, bounds.revival_bound, "{name}: infinite reuse");
        assert_eq!(
            lc.total_rebirths(),
            bounds.revival_bound,
            "{name}: rebirths"
        );
        assert_eq!(ideal.hits, bounds.revival_bound, "{name}: ideal pool hits");

        // Every write of a value already seen finds a live or a dead
        // copy, whichever rule counts it.
        let dedup = infinite_reuse(trace.records(), true);
        let repeats = plain.writes - lc.unique_values();
        assert_eq!(bounds.revival_bound + bounds.dedup_bound, repeats, "{name}");
        assert_eq!(dedup.reused + dedup.dedup_eliminated, repeats, "{name}");
    }
}

#[test]
fn ideal_pool_replay_matches_oracle_on_all_workloads() {
    for profile in WorkloadProfile::paper_set() {
        let trace = SyntheticTrace::generate(&profile.scaled(0.004), 5);
        let oracle = infinite_reuse(trace.records(), false);
        let summary = PoolReuseSim::new(MqConfig::ideal()).run(trace.records());
        assert_eq!(summary.hits, oracle.reused, "{}", profile.name);
        assert_eq!(summary.capacity_misses, 0, "{}", profile.name);
    }
}

#[test]
fn bounded_pool_hits_plus_misses_equal_oracle() {
    for profile in [WorkloadProfile::mail(), WorkloadProfile::web()] {
        let trace = SyntheticTrace::generate(&profile.scaled(0.01), 9);
        let oracle = infinite_reuse(trace.records(), false);
        for entries in [32usize, 256, 4096] {
            let lru = PoolReuseSim::new(MqConfig::lru(entries)).run(trace.records());
            assert_eq!(
                lru.hits + lru.capacity_misses,
                oracle.reused,
                "{} LRU-{entries}: every oracle hit is a hit or a capacity miss",
                profile.name
            );
            let mq = PoolReuseSim::new(MqConfig::paper_default().with_capacity(entries))
                .run(trace.records());
            assert_eq!(mq.hits + mq.capacity_misses, oracle.reused);
        }
    }
}

#[test]
fn device_revivals_match_trace_replay_hits() {
    // The full device wires the same pool into a real FTL. GC-induced
    // removals can only *lose* opportunities, never create them, so
    // device revivals are bounded by the trace-level replay and stay
    // nonzero on redundant traces.
    let profile = WorkloadProfile::mail().scaled(0.004);
    let trace = SyntheticTrace::generate(&profile, 7);
    let entries = 2048usize;
    let replay =
        PoolReuseSim::new(MqConfig::paper_default().with_capacity(entries)).run(trace.records());
    let device = Ssd::new(
        SsdConfig::for_footprint(profile.lpn_space).with_system(SystemKind::MqDvp { entries }),
    )
    .expect("drive")
    .run_trace(trace.records())
    .expect("run");
    assert!(device.revived_writes > 0);
    assert!(
        device.revived_writes <= replay.hits,
        "device ({}) cannot out-revive the GC-free replay ({})",
        device.revived_writes,
        replay.hits
    );
}

#[test]
fn text_round_trip_preserves_stats() {
    let profile = WorkloadProfile::hadoop().scaled(0.003);
    let trace = SyntheticTrace::generate(&profile, 13);
    let mut buf = Vec::new();
    write_text(trace.records(), &mut buf).expect("serialize");
    let parsed = parse_text(&String::from_utf8(buf).expect("utf8")).expect("parse");
    assert_eq!(parsed, trace.records());
    assert_eq!(
        TraceStats::measure(&parsed),
        TraceStats::measure(trace.records())
    );
}
