//! Cross-crate integration tests: the full device model driven by
//! generated traces, checked for conservation invariants, content
//! correctness, and the orderings the paper's design relies on.

use std::collections::HashMap;

use zombie_ssd::core::SystemKind;
use zombie_ssd::ftl::{RunReport, Ssd, SsdConfig};
use zombie_ssd::trace::{IoOp, SyntheticTrace, WorkloadProfile};
use zombie_ssd::types::{Lpn, SimTime, ValueId};

const ALL_SYSTEMS: [SystemKind; 7] = [
    SystemKind::Baseline,
    SystemKind::MqDvp { entries: 512 },
    SystemKind::LruDvp { entries: 512 },
    SystemKind::Ideal,
    SystemKind::LxSsd { entries: 512 },
    SystemKind::Dedup,
    SystemKind::DvpPlusDedup { entries: 512 },
];

fn small_trace(profile: WorkloadProfile, seed: u64) -> SyntheticTrace {
    SyntheticTrace::generate(&profile.scaled(0.004), seed)
}

/// Replays the trace and — before finalizing the report — checks the
/// drive's cross-structure invariants, so every scenario below doubles
/// as a consistency audit (mapping ↔ reverse map, pool hygiene, block
/// accounting; see `Ssd::check_invariants`).
fn run(profile: &WorkloadProfile, trace: &SyntheticTrace, system: SystemKind) -> RunReport {
    let mut ssd = Ssd::new(SsdConfig::for_footprint(profile.lpn_space).with_system(system))
        .unwrap_or_else(|e| panic!("{system}: construction failed: {e}"));
    ssd.replay(trace.records())
        .unwrap_or_else(|e| panic!("{system}: run failed: {e}"));
    ssd.check_invariants()
        .unwrap_or_else(|e| panic!("{system}: invariants violated: {e}"));
    ssd.into_report()
}

#[test]
fn every_system_survives_every_workload() {
    for profile in WorkloadProfile::paper_set() {
        let scaled = profile.scaled(0.003);
        let trace = SyntheticTrace::generate(&scaled, 7);
        for system in ALL_SYSTEMS {
            let report = run(&scaled, &trace, system);
            assert_eq!(
                report.host_writes + report.host_reads,
                trace.records().len() as u64,
                "{system} on {}: all requests serviced",
                profile.name
            );
        }
    }
}

#[test]
fn content_read_back_matches_shadow_model_for_all_systems() {
    let profile = WorkloadProfile::mail().scaled(0.003);
    let trace = SyntheticTrace::generate(&profile, 21);
    for system in ALL_SYSTEMS {
        let mut ssd = Ssd::new(SsdConfig::for_footprint(profile.lpn_space).with_system(system))
            .expect("drive");
        let mut shadow: HashMap<Lpn, ValueId> = HashMap::new();
        let mut at = SimTime::ZERO;
        for record in trace.records() {
            match record.op {
                IoOp::Write => {
                    at = ssd.write(record.lpn, record.value, at).expect("write");
                    shadow.insert(record.lpn, record.value);
                }
                IoOp::Read => {
                    let (value, done) = ssd.read(record.lpn, at).expect("read");
                    at = done;
                    if let Some(&expect) = shadow.get(&record.lpn) {
                        assert_eq!(value, expect, "{system}: content at {}", record.lpn);
                    }
                }
                IoOp::Trim => {
                    ssd.trim(record.lpn).expect("trim");
                    shadow.remove(&record.lpn);
                }
            }
        }
        // Final sweep: every shadow entry reads back exactly.
        for (&lpn, &expect) in &shadow {
            let (value, _) = ssd.read(lpn, at).expect("read");
            assert_eq!(value, expect, "{system}: final content at {lpn}");
        }
        ssd.check_invariants()
            .unwrap_or_else(|e| panic!("{system}: invariants violated: {e}"));
    }
}

#[test]
fn valid_page_conservation_without_dedup() {
    let profile = WorkloadProfile::web().scaled(0.003);
    let trace = SyntheticTrace::generate(&profile, 3);
    for system in [
        SystemKind::Baseline,
        SystemKind::MqDvp { entries: 512 },
        SystemKind::Ideal,
    ] {
        let mut ssd = Ssd::new(SsdConfig::for_footprint(profile.lpn_space).with_system(system))
            .expect("drive");
        let mut at = SimTime::ZERO;
        for record in trace.records().iter().filter(|r| r.is_write()) {
            at = ssd.write(record.lpn, record.value, at).expect("write");
        }
        // One-to-one mapping: every mapped LPN owns exactly one valid
        // physical page (preconditioning mapped every logical page).
        assert_eq!(
            ssd.flash().total_valid_pages(),
            profile.lpn_space,
            "{system}: valid pages == mapped logical pages"
        );
        ssd.check_invariants()
            .unwrap_or_else(|e| panic!("{system}: invariants violated: {e}"));
    }
}

#[test]
fn dvp_reduces_programs_and_erases_on_redundant_traces() {
    let profile = WorkloadProfile::mail().scaled(0.005);
    let trace = SyntheticTrace::generate(&profile, 11);
    let baseline = run(&profile, &trace, SystemKind::Baseline);
    let dvp = run(&profile, &trace, SystemKind::MqDvp { entries: 2048 });
    assert!(
        dvp.flash_programs < baseline.flash_programs,
        "DVP must cut programs: {} vs {}",
        dvp.flash_programs,
        baseline.flash_programs
    );
    assert!(
        dvp.erases <= baseline.erases,
        "fewer programs cannot need more erases: {} vs {}",
        dvp.erases,
        baseline.erases
    );
    assert!(dvp.revived_writes > 0);
    assert!(
        dvp.mean_latency() <= baseline.mean_latency(),
        "write elimination must not hurt mean latency"
    );
}

#[test]
fn bigger_pools_never_revive_less() {
    let profile = WorkloadProfile::mail().scaled(0.005);
    let trace = SyntheticTrace::generate(&profile, 13);
    let small = run(&profile, &trace, SystemKind::MqDvp { entries: 64 });
    let large = run(&profile, &trace, SystemKind::MqDvp { entries: 8192 });
    let ideal = run(&profile, &trace, SystemKind::Ideal);
    assert!(small.revived_writes <= large.revived_writes);
    assert!(large.revived_writes <= ideal.revived_writes);
}

#[test]
fn dvp_plus_dedup_beats_dedup_alone() {
    let profile = WorkloadProfile::mail().scaled(0.005);
    let trace = SyntheticTrace::generate(&profile, 17);
    let dedup = run(&profile, &trace, SystemKind::Dedup);
    let combo = run(&profile, &trace, SystemKind::DvpPlusDedup { entries: 4096 });
    assert!(
        combo.flash_programs <= dedup.flash_programs,
        "recycling garbage is complementary to dedup (SVII): {} vs {}",
        combo.flash_programs,
        dedup.flash_programs
    );
    assert!(
        combo.revived_writes > 0,
        "the pool must fire on top of dedup"
    );
}

#[test]
fn reports_are_internally_consistent() {
    let profile = WorkloadProfile::home().scaled(0.003);
    let trace = SyntheticTrace::generate(&profile, 23);
    for system in ALL_SYSTEMS {
        let report = run(&profile, &trace, system);
        assert_eq!(
            report.flash_programs,
            report.host_programs + report.gc_programs + report.scrub_programs,
            "{system}: program breakdown adds up"
        );
        assert_eq!(
            report.host_writes,
            report.host_programs + report.revived_writes + report.deduped_writes,
            "{system}: every write is programmed, revived, or deduped"
        );
        assert_eq!(
            report.all_latency.count,
            report.host_writes + report.host_reads,
            "{system}: every request has a latency sample"
        );
        assert!(report.all_latency.p99 >= report.all_latency.p50);
        assert!(report.all_latency.max >= report.all_latency.p99);
    }
}

#[test]
fn wear_and_trim_surface_in_reports() {
    let profile = WorkloadProfile::mail().scaled(0.005);
    let trace = SyntheticTrace::generate(&profile, 29);
    let report = run(&profile, &trace, SystemKind::Baseline);
    assert!(report.erases > 0);
    assert!(
        report.wear.max_erases > 0,
        "wear must accumulate once GC runs"
    );
    assert!(report.wear.mean_erases > 0.0);
    assert!(report.wear.imbalance() >= 1.0);
    // Timeline covers every request.
    assert_eq!(
        report.timeline.len() as u64,
        report.host_writes + report.host_reads
    );
}

#[test]
fn trim_heavy_traces_replay_cleanly() {
    let profile = WorkloadProfile::mail().scaled(0.004).with_trim_ratio(0.1);
    let trace = SyntheticTrace::generate(&profile, 37);
    let trims_in_trace = trace.records().iter().filter(|r| r.is_trim()).count() as u64;
    assert!(trims_in_trace > 0, "trim ratio must emit trims");
    for system in [SystemKind::Baseline, SystemKind::MqDvp { entries: 512 }] {
        let report = run(&profile, &trace, system);
        assert_eq!(
            report.trims, trims_in_trace,
            "{system}: every trim serviced"
        );
        assert_eq!(
            report.read_mismatches, 0,
            "{system}: content stays consistent"
        );
        assert_eq!(
            report.host_writes + report.host_reads + report.trims,
            trace.records().len() as u64,
            "{system}: every record serviced"
        );
        // Trims are mapping-table operations: no latency sample.
        assert_eq!(
            report.all_latency.count,
            report.host_writes + report.host_reads,
            "{system}: trims record no latency"
        );
    }
}

#[test]
fn run_reports_are_deterministic() {
    let profile = WorkloadProfile::trans().scaled(0.003);
    let trace = SyntheticTrace::generate(&profile, 31);
    let a = run(&profile, &trace, SystemKind::MqDvp { entries: 1024 });
    let b = run(&profile, &trace, SystemKind::MqDvp { entries: 1024 });
    assert_eq!(a.flash_programs, b.flash_programs);
    assert_eq!(a.erases, b.erases);
    assert_eq!(a.revived_writes, b.revived_writes);
    assert_eq!(a.all_latency.mean, b.all_latency.mean);
}

#[test]
fn multi_day_traces_replay_day_by_day() {
    let profile = WorkloadProfile::web().scaled(0.002);
    let trace = small_trace(WorkloadProfile::web(), 5);
    let _ = profile;
    let mut ssd = Ssd::new(
        SsdConfig::for_footprint(
            trace
                .records()
                .iter()
                .map(|r| r.lpn.index() + 1)
                .max()
                .unwrap(),
        )
        .with_system(SystemKind::MqDvp { entries: 512 }),
    )
    .expect("drive");
    let mut at = SimTime::ZERO;
    for day in 0..trace.num_days() {
        for record in trace.day(day) {
            match record.op {
                IoOp::Write => at = ssd.write(record.lpn, record.value, at).expect("write"),
                IoOp::Read => at = ssd.read(record.lpn, at).expect("read").1,
                IoOp::Trim => ssd.trim(record.lpn).expect("trim"),
            }
        }
    }
    assert_eq!(
        ssd.stats().host_writes + ssd.stats().host_reads,
        trace.records().len() as u64
    );
    ssd.check_invariants()
        .unwrap_or_else(|e| panic!("invariants violated: {e}"));
}

#[test]
fn trimmed_page_on_a_retired_block_stays_coherent() {
    // Regression for the trim × fault interaction: trim an LBA, then
    // force the GC onto the block holding the trimmed (dead) page
    // with every erase attempt failing, so the block double-faults
    // and retires with the zombie still on it. The pool must not keep
    // a claim on the retired page, and the LBA must keep full
    // read/write semantics afterwards.
    let faults = zombie_ssd::flash::FaultConfig::none()
        .with_erase_fail(1.0)
        .with_seed(11);
    // GC early (high watermark): erases never succeed here, so free
    // pages only shrink — retirement must happen while there is still
    // headroom for the post-retirement writes below.
    let mut config = SsdConfig::small_test()
        .without_precondition()
        .with_system(SystemKind::MqDvp { entries: 64 })
        .with_faults(faults);
    config.gc_low_watermark = 4;
    let mut ssd = Ssd::new(config).expect("drive");
    let at = SimTime::ZERO;
    let trimmed_value = ValueId::new(7);
    ssd.write(Lpn::new(0), trimmed_value, at).expect("seed L0");
    // Fill out the planes' first blocks, then trim everything: both
    // first blocks go all-invalid, making them the GC's first victims.
    for i in 1..32u64 {
        ssd.write(Lpn::new(i), ValueId::new(100 + i), at)
            .expect("fill");
    }
    for i in 0..32u64 {
        ssd.trim(Lpn::new(i)).expect("trim");
    }
    // Churn fresh, never-repeated content until GC pressure forces
    // two blocks through the double-erase-failure retirement path.
    let mut i = 0u64;
    while ssd.flash().stats().retired_blocks < 2 {
        ssd.write(Lpn::new(32 + (i % 64)), ValueId::new(10_000 + i), at)
            .expect("churn");
        i += 1;
        assert!(i < 10_000, "erase failures never retired a block");
    }
    assert!(
        ssd.flash().stats().erase_failures >= 2,
        "retirement takes two failures"
    );
    ssd.check_invariants()
        .unwrap_or_else(|e| panic!("invariants violated after retirement: {e}"));
    // The trimmed LBA still reads as trimmed.
    let (v, _) = ssd.read(Lpn::new(0), at).expect("read of trimmed LBA");
    assert_eq!(v, zombie_ssd::trace::initial_value_of(Lpn::new(0)));
    // Rewriting the trimmed content must not revive from a page that
    // went down with the retired block.
    assert_eq!(
        ssd.stats().revived_writes,
        0,
        "churn used fresh values only"
    );
    ssd.write(Lpn::new(96), trimmed_value, at)
        .expect("rewrite of the trimmed content");
    assert_eq!(
        ssd.stats().revived_writes,
        0,
        "the zombie's page retired with its block; reviving it would read bad flash"
    );
    let (v, _) = ssd.read(Lpn::new(96), at).expect("read back");
    assert_eq!(v, trimmed_value);
    // And the trimmed LBA itself round-trips a fresh write.
    ssd.write(Lpn::new(0), ValueId::new(0xBEEF), at)
        .expect("rewrite of the trimmed LBA");
    let (v, _) = ssd.read(Lpn::new(0), at).expect("read back");
    assert_eq!(v, ValueId::new(0xBEEF));
    ssd.check_invariants()
        .unwrap_or_else(|e| panic!("invariants violated at end: {e}"));
}

#[test]
fn faulty_drives_stay_consistent_across_systems() {
    // The whole scenario matrix again, but on flash that injects
    // program, erase, and read failures. Every survival path —
    // program retry onto fresh pages, erase retry then block
    // retirement, read-retry scrubbing — must leave the drive's
    // cross-structure state coherent and the content intact.
    let faults = zombie_ssd::flash::FaultConfig::none()
        .with_program_fail(2e-3)
        .with_erase_fail(5e-2)
        .with_read_error(2e-3)
        .with_seed(0xFA17);
    let profile = WorkloadProfile::mail().scaled(0.004);
    let trace = SyntheticTrace::generate(&profile, 41);
    for system in ALL_SYSTEMS {
        let mut ssd = Ssd::new(
            SsdConfig::for_footprint(profile.lpn_space)
                .with_system(system)
                .with_faults(faults),
        )
        .unwrap_or_else(|e| panic!("{system}: construction failed: {e}"));
        ssd.replay(trace.records())
            .unwrap_or_else(|e| panic!("{system}: faulty run failed: {e}"));
        ssd.check_invariants()
            .unwrap_or_else(|e| panic!("{system}: invariants violated: {e}"));
        let report = ssd.into_report();
        assert_eq!(
            report.read_mismatches, 0,
            "{system}: retried reads must still return recorded content"
        );
        assert_eq!(
            report.flash_programs,
            report.host_programs + report.gc_programs + report.scrub_programs,
            "{system}: program breakdown adds up under faults"
        );
        assert!(
            report.program_failures > 0 || report.erase_failures > 0 || report.read_retries > 0,
            "{system}: these rates must actually fire on this trace"
        );
    }
}

/// ROADMAP item 2(a): a pool that can hold every garbage page never
/// evicts. MQ, LRU and the unbounded pool then differ only in the
/// order of their queues, which matters only when the pool evicts, so
/// on a trace without trims DVP, LRU-DVP and Ideal do the same flash
/// work at the same simulated times. LX-SSD is left out: it revives a
/// different page of a value and weighs reads.
#[test]
fn pools_that_never_evict_make_dvp_lru_dvp_and_ideal_identical() {
    let profile = WorkloadProfile::web().scaled(0.02);
    let trace = SyntheticTrace::generate(&profile, 7);
    assert!(!trace.records().iter().any(|r| r.is_trim()));
    let config = SsdConfig::for_footprint(profile.lpn_space);
    let spare = (config.geometry.total_pages() - config.logical_pages) as usize;
    let reports = [
        SystemKind::MqDvp { entries: spare },
        SystemKind::LruDvp { entries: spare },
        SystemKind::Ideal,
    ]
    .map(|system| run(&profile, &trace, system));
    let work = |r: &RunReport| {
        (
            r.flash_programs,
            r.erases,
            r.gc_collections,
            r.revived_writes,
            r.write_latency,
            r.read_latency,
            r.all_latency,
        )
    };
    assert!(
        reports[0].gc_collections > 0 && reports[0].revived_writes > 0,
        "the trace exercises GC and revival"
    );
    for r in &reports {
        assert_eq!(r.pool.evictions, 0, "{}: the pool never fills", r.system);
        assert_eq!(work(r), work(&reports[0]), "{} differs from DVP", r.system);
    }
}

/// ROADMAP item 4: on a trace whose every write carries new content,
/// nothing can be revived or deduplicated, and with popularity-aware
/// GC off every system collects by the same greedy rule, triggered by
/// free-block counts rather than by time. So every system does
/// Baseline's flash work.
#[test]
fn an_all_unique_trace_gives_every_system_baselines_flash_work() {
    let mut profile = WorkloadProfile::web().scaled(0.02);
    profile.unique_write_frac = 1.0;
    let trace = SyntheticTrace::generate(&profile, 7);
    let writes: Vec<ValueId> = trace
        .records()
        .iter()
        .filter(|r| r.is_write())
        .map(|r| r.value)
        .collect();
    let distinct: std::collections::HashSet<ValueId> = writes.iter().copied().collect();
    assert_eq!(distinct.len(), writes.len(), "every write is new content");
    let run_greedy = |system: SystemKind| {
        let config = SsdConfig::for_footprint(profile.lpn_space)
            .with_system(system)
            .with_popularity_aware_gc(false);
        let report = Ssd::new(config)
            .and_then(|ssd| ssd.run_trace(trace.records()))
            .unwrap_or_else(|e| panic!("{system}: run failed: {e}"));
        assert_eq!(report.revived_writes + report.deduped_writes, 0, "{system}");
        (report.flash_programs, report.erases, report.gc_collections)
    };
    let baseline = run_greedy(SystemKind::Baseline);
    assert!(baseline.2 > 0, "the trace exercises GC");
    let adaptive = SystemKind::AdaptiveDvp {
        min_entries: 64,
        max_entries: 512,
    };
    for system in ALL_SYSTEMS.into_iter().chain([adaptive]) {
        assert_eq!(
            run_greedy(system),
            baseline,
            "{system} differs from Baseline"
        );
    }
}
