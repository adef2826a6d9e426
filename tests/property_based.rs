//! Property-based tests (proptest) on the core invariants: pools never
//! fabricate or duplicate garbage pages, flash page accounting is
//! conserved, the device always reads back what was written, and the
//! measurement utilities are monotone.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use zombie_ssd::core::{
    AdaptiveConfig, AdaptiveMqPool, DeadValuePool, LxSsdPool, MqConfig, MqDeadValuePool, SystemKind,
};
use zombie_ssd::flash::FaultConfig;
use zombie_ssd::ftl::{Ssd, SsdConfig};
use zombie_ssd::metrics::{Cdf, LatencySummary, ShareCurve, Timeline, WindowStat, METRICS_WINDOW};
use zombie_ssd::trace::{ArrivalProcess, SyntheticTrace, TraceRecord, WorkloadProfile};
use zombie_ssd::types::{Lpn, PopularityDegree, Ppn, SimDuration, SimTime, ValueId, WriteClock};
use zssd_bench::{run_grid_with_threads, GridCell};

/// The latency digest of `ns` computed the plain way: sort everything,
/// then index the nearest ranks. All zero when empty.
fn sorted_digest(mut ns: Vec<u64>) -> LatencySummary {
    ns.sort_unstable();
    let n = ns.len();
    if n == 0 {
        return LatencySummary::default();
    }
    let rank = |q: f64| ns[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
    let sum: u128 = ns.iter().map(|&v| u128::from(v)).sum();
    LatencySummary {
        count: n as u64,
        mean: SimDuration::from_nanos((sum / n as u128) as u64),
        p50: SimDuration::from_nanos(rank(0.50)),
        p99: SimDuration::from_nanos(rank(0.99)),
        max: SimDuration::from_nanos(ns[n - 1]),
    }
}

/// The windows of `width` ns over raw `(arrival ns, latency ns)`
/// samples, computed the plain way: one slot per window from zero to
/// the last arrival, filled by a walk over every sample.
fn sample_windows(samples: &[(u64, u64)], width: u64) -> Vec<WindowStat> {
    let Some(last) = samples.iter().map(|&(at, _)| at).max() else {
        return Vec::new();
    };
    let n = (last / width + 1) as usize;
    let mut slots = vec![(0u64, 0u128, 0u64); n];
    for &(at, ns) in samples {
        let slot = &mut slots[(at / width) as usize];
        slot.0 += 1;
        slot.1 += u128::from(ns);
        slot.2 = slot.2.max(ns);
    }
    slots
        .iter()
        .enumerate()
        .map(|(i, &(count, sum, max))| WindowStat {
            start: SimTime::from_nanos(i as u64 * width),
            count,
            mean: SimDuration::from_nanos(if count == 0 {
                0
            } else {
                (sum / u128::from(count)) as u64
            }),
            max: SimDuration::from_nanos(max),
        })
        .collect()
}

/// The block size the pool-model exercise's pools are built with.
const PAGES_PER_BLOCK: u32 = 64;

/// One step of the pool-model exercise.
#[derive(Debug, Clone)]
enum PoolOp {
    /// Offer a dead page (value id, ppn chosen by index, popularity).
    Insert(u8, u16, u8),
    /// Look up a value's hash.
    Take(u8),
    /// GC-remove a ppn.
    Remove(u16),
    /// Touch an address (read), LX-SSD-only behaviour.
    Note(u16),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (any::<u8>(), any::<u16>(), any::<u8>()).prop_map(|(v, p, d)| PoolOp::Insert(v, p, d)),
        any::<u8>().prop_map(PoolOp::Take),
        any::<u16>().prop_map(PoolOp::Remove),
        any::<u16>().prop_map(PoolOp::Note),
    ]
}

/// Drives any pool through an arbitrary op sequence against a simple
/// model: a multiset of (value -> live-in-pool ppns). Checks
/// that every hit returns a ppn that was inserted with that exact
/// value and not yet consumed/removed, and that no ppn is ever
/// handed out twice. After every op, the pool's PPN index must agree
/// with the model: a pool tracks only pages the model holds, and an
/// unbounded pool (which never evicts) tracks exactly those.
fn check_pool_against_model(mut pool: DeadValuePool, ops: Vec<PoolOp>) {
    let mut clock = WriteClock::ZERO;
    let unbounded = pool.capacity().is_none();
    // Every ppn an op has named, so the index checks cover pages that
    // were never inserted or have left the pool too.
    let mut named: HashSet<Ppn> = HashSet::new();
    // What the pool *may* return for each value (superset of
    // what it will: bounded pools evict silently).
    let mut may_return: HashMap<ValueId, HashSet<Ppn>> = HashMap::new();
    let mut owner: HashMap<Ppn, ValueId> = HashMap::new();
    let mut handed_out: HashSet<Ppn> = HashSet::new();

    for op in ops {
        let now = clock.tick();
        match op {
            PoolOp::Insert(v, p, d) => {
                let value = ValueId::new(u64::from(v));
                let ppn = Ppn::new(u64::from(p));
                named.insert(ppn);
                if owner.contains_key(&ppn) {
                    // A ppn can only hold one value at a time; the FTL
                    // never re-offers a tracked page. Skip like the
                    // FTL would.
                    continue;
                }
                pool.insert_dead(
                    value,
                    ppn,
                    Lpn::new(u64::from(p)),
                    PopularityDegree::new(d),
                    now,
                );
                // The pool may or may not retain it (eviction), but if
                // it returns it later, it must be for this value.
                may_return.entry(value).or_default().insert(ppn);
                owner.insert(ppn, value);
            }
            PoolOp::Take(v) => {
                let value = ValueId::new(u64::from(v));
                if let Some(ppn) = pool.take_match(value, now) {
                    assert!(
                        may_return.get(&value).is_some_and(|s| s.contains(&ppn)),
                        "pool returned {ppn} never inserted for this value"
                    );
                    assert!(handed_out.insert(ppn), "ppn {ppn} handed out twice");
                    may_return.get_mut(&value).expect("entry").remove(&ppn);
                    owner.remove(&ppn);
                }
            }
            PoolOp::Remove(p) => {
                let ppn = Ppn::new(u64::from(p));
                named.insert(ppn);
                pool.remove_ppn(ppn);
                if let Some(value) = owner.remove(&ppn) {
                    may_return.get_mut(&value).expect("entry").remove(&ppn);
                }
            }
            PoolOp::Note(p) => {
                pool.note_lpn_access(Lpn::new(u64::from(p)));
            }
        }
        if let Some(cap) = pool.capacity() {
            assert!(pool.len() <= cap, "pool exceeded its capacity");
        }
        assert!(
            pool.tracked_ppns() >= pool.len(),
            "every entry tracks a page"
        );
        if unbounded {
            assert_eq!(pool.tracked_ppns(), owner.len(), "unbounded pool count");
        }
        for ppn in &named {
            let tracked = pool.garbage_weight(*ppn).is_some();
            let held = owner.contains_key(ppn);
            if unbounded {
                assert_eq!(tracked, held, "unbounded pool disagrees on {ppn}");
            } else {
                assert!(
                    !tracked || held,
                    "pool tracks {ppn}, which the model dropped"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mq_pool_honours_the_model(ops in prop::collection::vec(pool_op(), 1..400)) {
        let pool = MqDeadValuePool::new(
            MqConfig {
                num_queues: 4,
                capacity: 32,
                initial_hottest_interval: 8,
            },
            PAGES_PER_BLOCK,
        );
        check_pool_against_model(DeadValuePool::Mq(pool), ops);
    }

    #[test]
    fn lru_pool_honours_the_model(ops in prop::collection::vec(pool_op(), 1..400)) {
        let pool = MqDeadValuePool::new(MqConfig::lru(16), PAGES_PER_BLOCK);
        check_pool_against_model(DeadValuePool::Mq(pool), ops);
    }

    #[test]
    fn ideal_pool_honours_the_model(ops in prop::collection::vec(pool_op(), 1..400)) {
        let pool = MqDeadValuePool::new(MqConfig::ideal(), PAGES_PER_BLOCK);
        check_pool_against_model(DeadValuePool::Mq(pool), ops);
    }

    #[test]
    fn lxssd_pool_honours_the_model(ops in prop::collection::vec(pool_op(), 1..400)) {
        let pool = LxSsdPool::new(16, PAGES_PER_BLOCK);
        check_pool_against_model(DeadValuePool::LxSsd(pool), ops);
    }

    /// A 16-event epoch makes the controller resize the pool many times
    /// in one case.
    #[test]
    fn adaptive_pool_honours_the_model(ops in prop::collection::vec(pool_op(), 1..400)) {
        let pool = AdaptiveMqPool::new(
            AdaptiveConfig {
                min_entries: 4,
                max_entries: 64,
                initial_entries: 16,
                epoch: 16,
                ..AdaptiveConfig::paper_default()
            },
            PAGES_PER_BLOCK,
        );
        check_pool_against_model(DeadValuePool::Adaptive(pool), ops);
    }

    #[test]
    fn ideal_pool_never_misses_a_tracked_value(
        inserts in prop::collection::vec((any::<u8>(), any::<u16>()), 1..100)
    ) {
        let mut pool = MqDeadValuePool::new(MqConfig::ideal(), PAGES_PER_BLOCK);
        let mut seen = HashSet::new();
        let mut inserted_values = HashSet::new();
        let mut clock = WriteClock::ZERO;
        for (v, p) in &inserts {
            let ppn = Ppn::new(u64::from(*p));
            // A ppn holds one value at a time; duplicates are skipped
            // exactly as the FTL would skip re-offering a tracked page.
            if seen.insert(ppn) {
                pool.insert_dead(
                    ValueId::new(u64::from(*v)),
                    ppn,
                    Lpn::new(0),
                    PopularityDegree::ZERO,
                    clock.tick(),
                );
                inserted_values.insert(*v);
            }
        }
        // Every value actually inserted must be matchable at least once.
        for v in inserted_values {
            prop_assert!(pool
                .take_match(ValueId::new(u64::from(v)), clock.tick())
                .is_some());
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded(samples in prop::collection::vec(0u64..1000, 1..200)) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let mut last = 0.0;
        for x in [0u64, 1, 5, 10, 100, 500, 999, 1000] {
            let f = cdf.fraction_le(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last);
            last = f;
        }
        prop_assert_eq!(cdf.fraction_le(1000), 1.0);
        let max = cdf.max().expect("nonempty");
        prop_assert_eq!(cdf.quantile(1.0), max);
    }

    #[test]
    fn share_curve_is_monotone_and_complete(weights in prop::collection::vec(0u64..1000, 1..200)) {
        let curve = ShareCurve::from_weights(weights.iter().copied());
        let mut last = 0.0;
        for i in 1..=10 {
            let share = curve.share_of_top(i as f64 / 10.0);
            prop_assert!(share + 1e-12 >= last, "share must not decrease");
            last = share;
        }
        let total: u64 = weights.iter().sum();
        if total > 0 {
            prop_assert!((curve.share_of_top(1.0) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn latency_percentiles_are_ordered(
        samples in prop::collection::vec((0u64..10_000_000, any::<bool>()), 1..300),
    ) {
        let mut timeline = Timeline::new();
        for &(ns, is_read) in &samples {
            let at = SimTime::from_nanos(ns / 7);
            if is_read {
                timeline.record_read(at, SimDuration::from_nanos(ns));
            } else {
                timeline.record_write(at, SimDuration::from_nanos(ns));
            }
        }
        let side = |read: bool| samples.iter().filter(|s| s.1 == read).map(|s| s.0).collect();
        let (write, read, all) = timeline.summaries();
        let expected = [
            (write, side(false)),
            (read, side(true)),
            (all, samples.iter().map(|s| s.0).collect()),
        ];
        for (summary, ns) in expected {
            prop_assert_eq!(summary, sorted_digest(ns));
            prop_assert!(summary.p50 <= summary.p99);
            prop_assert!(summary.p99 <= summary.max);
            prop_assert!(summary.mean <= summary.max);
        }
        prop_assert_eq!(all.count, samples.len() as u64);
    }

    #[test]
    fn timeline_counts_match_the_raw_samples(
        samples in prop::collection::vec(
            (0u64..4_000_000_000, 0u64..40, 0u64..3_000, any::<bool>()),
            0..300,
        ),
    ) {
        // Arrivals in random order over 16 base windows; latencies
        // drawn from 40 coarse values plus a fine offset, so some
        // repeat and some do not.
        let samples: Vec<(u64, u64, bool)> = samples
            .iter()
            .map(|&(at, coarse, fine, is_read)| {
                (at, coarse * 250_000 + if fine < 1_000 { 0 } else { fine }, is_read)
            })
            .collect();
        let mut timeline = Timeline::new();
        for &(at, ns, is_read) in &samples {
            let (at, ns) = (SimTime::from_nanos(at), SimDuration::from_nanos(ns));
            if is_read {
                timeline.record_read(at, ns);
            } else {
                timeline.record_write(at, ns);
            }
        }
        let side = |read: bool| samples.iter().filter(|s| s.2 == read).map(|s| s.1).collect();
        prop_assert_eq!(
            timeline.summaries(),
            (
                sorted_digest(side(false)),
                sorted_digest(side(true)),
                sorted_digest(samples.iter().map(|s| s.1).collect()),
            )
        );
        let raw: Vec<(u64, u64)> = samples.iter().map(|&(at, ns, _)| (at, ns)).collect();
        for k in 1..4 {
            let width = METRICS_WINDOW.mul(k);
            prop_assert_eq!(timeline.windows(width), sample_windows(&raw, width.as_nanos()));
        }
    }

    #[test]
    fn device_reads_back_writes_under_arbitrary_sequences(
        ops in prop::collection::vec((0u64..192, 0u64..40, 0u8..8), 1..250),
        system_pick in 0usize..8,
    ) {
        let system = [
            SystemKind::Baseline,
            SystemKind::MqDvp { entries: 24 },
            SystemKind::LruDvp { entries: 24 },
            SystemKind::Ideal,
            SystemKind::LxSsd { entries: 24 },
            SystemKind::Dedup,
            SystemKind::DvpPlusDedup { entries: 24 },
            SystemKind::AdaptiveDvp { min_entries: 8, max_entries: 64 },
        ][system_pick];
        let mut ssd = Ssd::new(
            SsdConfig::small_test()
                .without_precondition()
                .with_system(system),
        ).expect("valid drive");
        let mut shadow: HashMap<Lpn, ValueId> = HashMap::new();
        let mut at = SimTime::ZERO;
        for (lpn, value, action) in ops {
            let lpn = Lpn::new(lpn);
            match action {
                // Writes dominate; occasionally trim, otherwise read.
                0..=4 => {
                    at = ssd.write(lpn, ValueId::new(value), at).expect("write");
                    shadow.insert(lpn, ValueId::new(value));
                }
                5 => {
                    ssd.trim(lpn).expect("trim");
                    shadow.remove(&lpn);
                }
                _ => {
                    let (got, done) = ssd.read(lpn, at).expect("read");
                    at = done;
                    if let Some(&expect) = shadow.get(&lpn) {
                        prop_assert_eq!(got, expect, "{} mismatch at {}", system, lpn);
                    }
                }
            }
        }
        // Page-state conservation on the tiny drive.
        let flash = ssd.flash();
        let geom = flash.geometry();
        let mut valid = 0u64;
        let mut counted = 0u64;
        for (_, info) in flash.blocks() {
            valid += u64::from(info.valid_pages);
            counted += u64::from(info.valid_pages)
                + u64::from(info.invalid_pages)
                + u64::from(info.free_pages)
                + u64::from(info.bad_pages);
        }
        prop_assert_eq!(counted, geom.total_pages(), "page states partition the device");
        if !system.uses_dedup() {
            prop_assert_eq!(valid, shadow.len() as u64, "one valid page per mapped LPN");
        }
    }
}

proptest! {
    // Full synthetic-trace replays are heavier than the op-sequence
    // cases above, so run fewer of them.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Backward-compatibility oracle for the timing rework: stamping
    /// every record with the constant process must be report-identical
    /// to leaving records unstamped and configuring the same interval
    /// on the drive.
    #[test]
    fn stamped_constant_arrivals_match_interval_replay(
        seed in any::<u64>(),
        interval_us in 1u64..5_000,
    ) {
        let profile = WorkloadProfile::mail().scaled(0.001).with_days(1);
        let trace = SyntheticTrace::generate(&profile, seed);
        let interval = SimDuration::from_micros(interval_us);
        let mut stamped = trace.records().to_vec();
        ArrivalProcess::constant(interval).stamp(&mut stamped);
        let config = SsdConfig::for_footprint(profile.lpn_space)
            .with_system(SystemKind::MqDvp { entries: 512 });
        let unstamped_report = Ssd::new(config.clone().with_arrival_interval(interval))
            .expect("drive")
            .run_trace(trace.records())
            .expect("unstamped run");
        // The stamped drive keeps the default interval: stamps win.
        let stamped_report = Ssd::new(config)
            .expect("drive")
            .run_trace(&stamped)
            .expect("stamped run");
        prop_assert_eq!(unstamped_report, stamped_report);
    }

    /// A seeded fault plan is part of the experiment configuration:
    /// the same fault seed must reproduce the exact same report run
    /// after run, and — because fault state lives inside each drive's
    /// own flash array — whether the runs execute serially or race
    /// each other on the parallel grid.
    #[test]
    fn fault_injection_is_seed_deterministic_across_thread_counts(fault_seed in any::<u64>()) {
        let faults = FaultConfig::none()
            .with_program_fail(1e-3)
            .with_erase_fail(5e-3)
            .with_read_error(1e-3)
            .with_seed(fault_seed);
        let profile = WorkloadProfile::mail().scaled(0.001).with_days(1);
        let records: Arc<[TraceRecord]> =
            SyntheticTrace::generate(&profile, 9).into_records().into();
        let config = SsdConfig::for_footprint(profile.lpn_space)
            .with_system(SystemKind::MqDvp { entries: 512 })
            .with_faults(faults);
        let cells: Vec<GridCell> = (0..3)
            .map(|i| GridCell::new("mail", format!("run{i}"), config.clone(), records.clone()))
            .collect();
        let serial = run_grid_with_threads(cells.clone(), 1).expect("serial grid");
        let parallel = run_grid_with_threads(cells, 3).expect("parallel grid");
        prop_assert_eq!(&serial, &parallel, "thread count must not leak into fault decisions");
        prop_assert_eq!(&serial[0], &serial[1], "same fault seed, same report");
        prop_assert_eq!(&serial[1], &serial[2], "same fault seed, same report");
    }

    /// A fault plan with every rate at zero must be indistinguishable
    /// from no fault plan at all, whatever its seed — the fault layer
    /// may not perturb a single byte of a faultless run's report.
    #[test]
    fn zero_rate_faults_are_byte_identical_to_faultless(fault_seed in any::<u64>()) {
        let profile = WorkloadProfile::mail().scaled(0.001).with_days(1);
        let trace = SyntheticTrace::generate(&profile, 9);
        let config = SsdConfig::for_footprint(profile.lpn_space)
            .with_system(SystemKind::MqDvp { entries: 512 });
        let plain = Ssd::new(config.clone().with_faults(FaultConfig::none()))
            .expect("drive")
            .run_trace(trace.records())
            .expect("faultless run");
        let zeroed = Ssd::new(config.with_faults(FaultConfig::none().with_seed(fault_seed)))
            .expect("drive")
            .run_trace(trace.records())
            .expect("zero-rate run");
        prop_assert_eq!(plain, zeroed);
    }

    /// Reads that complete only after an ECC retry (and the scrub
    /// relocation it triggers) must still return exactly the values
    /// the trace recorded, and leave the drive coherent.
    #[test]
    fn retried_reads_return_trace_recorded_values(fault_seed in any::<u64>()) {
        let profile = WorkloadProfile::web().scaled(0.001).with_days(1);
        let trace = SyntheticTrace::generate(&profile, 9);
        let config = SsdConfig::for_footprint(profile.lpn_space)
            .with_system(SystemKind::MqDvp { entries: 512 })
            .with_faults(FaultConfig::none().with_read_error(0.05).with_seed(fault_seed));
        let mut ssd = Ssd::new(config).expect("drive");
        ssd.replay(trace.records()).expect("run");
        ssd.check_invariants()
            .unwrap_or_else(|e| panic!("invariants violated: {e}"));
        let report = ssd.into_report();
        prop_assert_eq!(report.read_mismatches, 0, "retried reads must stay correct");
        prop_assert!(report.read_retries > 0, "a 5% ECC rate must fire on this trace");
        prop_assert_eq!(
            report.flash_programs,
            report.host_programs + report.gc_programs + report.scrub_programs
        );
    }

    /// Poisson replay: the same seed reproduces the exact report, the
    /// latency tail stays ordered, and reads stay content-consistent
    /// under the irregular arrival spacing.
    #[test]
    fn poisson_replay_is_seed_deterministic_with_ordered_tail(seed in any::<u64>()) {
        let profile = WorkloadProfile::mail().scaled(0.001).with_days(1);
        let trace = SyntheticTrace::generate(&profile, 9);
        let config = SsdConfig::for_footprint(profile.lpn_space)
            .with_system(SystemKind::Baseline)
            .with_arrival(ArrivalProcess::poisson(SimDuration::from_micros(500), seed));
        let a = Ssd::new(config.clone())
            .expect("drive")
            .run_trace(trace.records())
            .expect("first run");
        let b = Ssd::new(config)
            .expect("drive")
            .run_trace(trace.records())
            .expect("second run");
        prop_assert!(a.all_latency.p99 >= a.all_latency.p50);
        prop_assert_eq!(a.read_mismatches, 0);
        prop_assert_eq!(a, b);
    }
}
