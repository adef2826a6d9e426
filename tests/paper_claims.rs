//! Shape-level assertions of the paper's comparative claims, at small
//! scale: who wins, who loses, and in which direction each mechanism
//! moves the metrics. These are the claims `EXPERIMENTS.md` verifies
//! at full scale.

use std::sync::OnceLock;

use zombie_ssd::analysis::{infinite_reuse, PoolReuseSim, ValueLifecycles};
use zombie_ssd::core::{MqConfig, SystemKind};
use zombie_ssd::ftl::{Ssd, SsdConfig};
use zombie_ssd::trace::{SyntheticTrace, WorkloadProfile};
use zombie_ssd::types::{Lpn, SimTime, ValueId};

fn trace(profile: &WorkloadProfile, seed: u64) -> SyntheticTrace {
    SyntheticTrace::generate(profile, seed)
}

fn run(
    profile: &WorkloadProfile,
    t: &SyntheticTrace,
    system: SystemKind,
) -> zombie_ssd::ftl::RunReport {
    Ssd::new(
        SsdConfig::for_footprint(profile.lpn_space)
            .with_system(system)
            .with_dedup_index_entries(4096),
    )
    .expect("drive")
    .run_trace(t.records())
    .expect("run")
}

/// §I / Fig 1: "a majority of pages written to SSD turn into garbage
/// pages" and redundant traces offer large reuse.
#[test]
fn most_values_die_and_mail_reuse_dominates_desktop() {
    let mail = WorkloadProfile::mail().scaled(0.01);
    let desktop = WorkloadProfile::desktop().scaled(0.01);
    let mail_t = trace(&mail, 1);
    let desktop_t = trace(&desktop, 1);

    let lc = ValueLifecycles::analyze(mail_t.records());
    assert!(
        lc.fraction_with_deaths() > 0.5,
        "most mail values must die at least once (got {:.2})",
        lc.fraction_with_deaths()
    );

    let mail_reuse = infinite_reuse(mail_t.records(), false).reuse_fraction();
    let desktop_reuse = infinite_reuse(desktop_t.records(), false).reuse_fraction();
    assert!(
        mail_reuse > 2.0 * desktop_reuse,
        "mail ({mail_reuse:.2}) must dwarf desktop ({desktop_reuse:.2})"
    );
}

/// Fig 3: value popularity is skewed — a small fraction of values
/// accounts for most writes, invalidations, and rebirths.
#[test]
fn popularity_skew_holds_across_all_three_curves() {
    let profile = WorkloadProfile::mail().scaled(0.01);
    let lc = ValueLifecycles::analyze(trace(&profile, 2).records());
    assert!(lc.writes_share().share_of_top(0.2) > 0.6);
    assert!(lc.invalidations_share().share_of_top(0.2) > 0.6);
    assert!(lc.rebirths_share().share_of_top(0.2) > 0.6);
}

/// Fig 4(a)/(b): popular values die and are reborn more quickly.
#[test]
fn popular_values_cycle_faster() {
    let profile = WorkloadProfile::mail().scaled(0.02);
    let lc = ValueLifecycles::analyze(trace(&profile, 3).records());
    let dead_times = lc.dead_time_by_popularity();
    assert!(dead_times.len() >= 3);
    let coldest = dead_times.iter().find(|b| b.values > 2 && b.mean > 0.0);
    let hottest = dead_times
        .iter()
        .rev()
        .find(|b| b.values > 0 && b.mean > 0.0);
    let (cold, hot) = (coldest.expect("cold band"), hottest.expect("hot band"));
    assert!(
        hot.mean < cold.mean,
        "popular values must be reborn sooner: hot {} vs cold {}",
        hot.mean,
        cold.mean
    );
}

/// §III / Figs 5-6: MQ at least matches LRU at equal capacity, and
/// both are bounded by the infinite buffer.
#[test]
fn mq_ge_lru_le_infinite() {
    let profile = WorkloadProfile::mail().scaled(0.03);
    let t = trace(&profile, 4);
    let entries = 512;
    let oracle = infinite_reuse(t.records(), false);
    let lru = PoolReuseSim::new(MqConfig::lru(entries)).run(t.records());
    let mq = PoolReuseSim::new(MqConfig::paper_default().with_capacity(entries)).run(t.records());
    assert!(mq.hits >= lru.hits, "MQ {} vs LRU {}", mq.hits, lru.hits);
    assert!(mq.hits <= oracle.reused);
}

/// Fig 9/10 direction: DVP cuts programs and erases vs Baseline on
/// every redundant workload; Ideal bounds DVP.
#[test]
fn dvp_improves_and_ideal_bounds_it() {
    for profile in [WorkloadProfile::web(), WorkloadProfile::mail()] {
        let p = profile.scaled(0.005);
        let t = trace(&p, 5);
        let base = run(&p, &t, SystemKind::Baseline);
        let dvp = run(&p, &t, SystemKind::MqDvp { entries: 4096 });
        let ideal = run(&p, &t, SystemKind::Ideal);
        assert!(dvp.flash_programs < base.flash_programs, "{}", p.name);
        assert!(dvp.erases <= base.erases, "{}", p.name);
        assert!(ideal.revived_writes >= dvp.revived_writes, "{}", p.name);
    }
}

/// Fig 11 direction: the DVP's mean-latency win on mail is material.
#[test]
fn dvp_latency_win_is_material_on_mail() {
    let p = WorkloadProfile::mail().scaled(0.005);
    let t = trace(&p, 6);
    let base = run(&p, &t, SystemKind::Baseline);
    let dvp = run(&p, &t, SystemKind::MqDvp { entries: 4096 });
    let improvement =
        1.0 - dvp.mean_latency().as_nanos() as f64 / base.mean_latency().as_nanos() as f64;
    assert!(
        improvement > 0.10,
        "mail mean-latency improvement too small: {:.1}%",
        improvement * 100.0
    );
    // Tail latency at this tiny scale is set by a handful of GC
    // bursts, so allow sampling noise but no real regression.
    assert!(
        dvp.tail_latency().as_nanos() as f64 <= base.tail_latency().as_nanos() as f64 * 1.15,
        "DVP tail {} vs baseline {}",
        dvp.tail_latency(),
        base.tail_latency()
    );
}

/// §VII / Fig 14: DVP+Dedup ≤ Dedup ≤ Baseline in programs, and the
/// pool still fires on a deduplicated store.
#[test]
fn dedup_stacking_is_complementary() {
    let p = WorkloadProfile::mail().scaled(0.005);
    let t = trace(&p, 7);
    let base = run(&p, &t, SystemKind::Baseline);
    let dedup = run(&p, &t, SystemKind::Dedup);
    let combo = run(&p, &t, SystemKind::DvpPlusDedup { entries: 4096 });
    assert!(dedup.flash_programs < base.flash_programs);
    assert!(combo.flash_programs <= dedup.flash_programs);
    assert!(combo.revived_writes > 0);
    assert!(combo.mean_latency() <= dedup.mean_latency());
}

/// Fig 10 magnitude: the paper reports the DVP erasing ~35.5% fewer
/// blocks than Baseline on average. On the GC-active workloads (the
/// ones whose small-scale traces overflow the over-provisioned
/// capacity and actually trigger erases) our replication must clear
/// that average, and every one of them must improve individually.
#[test]
fn fig10_erase_reduction_meets_the_papers_average() {
    let mut reductions = Vec::new();
    for profile in [
        WorkloadProfile::web(),
        WorkloadProfile::mail(),
        WorkloadProfile::home(),
    ] {
        let p = profile.scaled(0.02);
        let t = trace(&p, 8);
        let base = run(&p, &t, SystemKind::Baseline);
        let dvp = run(&p, &t, SystemKind::MqDvp { entries: 4096 });
        assert!(
            base.erases > 0,
            "{}: baseline must GC at this scale",
            p.name
        );
        let reduction = 1.0 - dvp.erases as f64 / base.erases as f64;
        assert!(
            reduction > 0.0,
            "{}: DVP must erase less than baseline ({} vs {})",
            p.name,
            dvp.erases,
            base.erases
        );
        reductions.push(reduction);
    }
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(
        mean >= 0.355,
        "mean erase reduction {:.1}% must reach the paper's ~35.5%",
        mean * 100.0
    );
}

/// One workload's Fig 14 program reductions against Baseline.
struct Fig14Cell {
    name: String,
    dvp: f64,
    dedup: f64,
    combo: f64,
}

/// Fig 14's cells for the six paper workloads at scale 0.02, seed 8.
/// Computed once and shared by the Fig 14 tests.
fn fig14_reductions() -> &'static [Fig14Cell] {
    static CELLS: OnceLock<Vec<Fig14Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        WorkloadProfile::paper_set()
            .into_iter()
            .map(|profile| {
                let p = profile.scaled(0.02);
                let t = trace(&p, 8);
                let base = run(&p, &t, SystemKind::Baseline).flash_programs as f64;
                let reduction = |system| 1.0 - run(&p, &t, system).flash_programs as f64 / base;
                Fig14Cell {
                    dvp: reduction(SystemKind::MqDvp { entries: 4096 }),
                    dedup: reduction(SystemKind::Dedup),
                    combo: reduction(SystemKind::DvpPlusDedup { entries: 4096 }),
                    name: p.name,
                }
            })
            .collect()
    })
}

/// Fig 14, dedup stacked on the DVP: (DVP − DVP+Dedup)/Baseline, the
/// programs deduplication removes that the pool alone cannot. This is
/// the reverse of the paper's ~11% (see the next test); here it
/// measures 11.8% mean at scale 0.02, seed 8.
#[test]
fn fig14_dedup_stacked_on_the_dvp_removes_more_programs() {
    let mut extras = Vec::new();
    for cell in fig14_reductions() {
        let extra = cell.combo - cell.dvp;
        assert!(
            extra > 0.0,
            "{}: dedup must remove programs the pool alone cannot \
             (DVP {:.1}% vs DVP+Dedup {:.1}%)",
            cell.name,
            cell.dvp * 100.0,
            cell.combo * 100.0
        );
        extras.push(extra);
    }
    let mean = extras.iter().sum::<f64>() / extras.len() as f64;
    assert!(
        (0.06..=0.18).contains(&mean),
        "mean extra write reduction {:.1}% left its 6-18% band",
        mean * 100.0
    );
}

/// Fig 14, the paper's quantity: the DVP stacked on dedup,
/// (Dedup − DVP+Dedup)/Baseline. The paper reports ~11%; our
/// synthetic traces leave the pool less to add on top of dedup
/// (EXPERIMENTS.md, known divergence 3). Pinned to the value measured
/// at scale 0.02, seed 8 (4.1% mean), so drift either way fails.
#[test]
fn fig14_dvp_stacked_on_dedup_diverges_low_from_the_papers_eleven_percent() {
    let mut extras = Vec::new();
    for cell in fig14_reductions() {
        let extra = cell.combo - cell.dedup;
        assert!(
            extra > 0.0,
            "{}: the pool must remove programs dedup alone cannot \
             (Dedup {:.1}% vs DVP+Dedup {:.1}%)",
            cell.name,
            cell.dedup * 100.0,
            cell.combo * 100.0
        );
        extras.push(extra);
    }
    let mean = extras.iter().sum::<f64>() / extras.len() as f64;
    assert!(
        (0.035..=0.047).contains(&mean),
        "mean DVP-on-dedup write reduction {:.1}% left its 3.5-4.7% band",
        mean * 100.0
    );
}

/// Fig 13's scenario, literally: W1 programs D, W2/W3 dedup against
/// the live copy, the copy dies, and W4 is serviced from the garbage
/// pool without a program.
#[test]
fn fig13_scenario_plays_out() {
    let mut ssd = Ssd::new(
        SsdConfig::small_test()
            .without_precondition()
            .with_system(SystemKind::DvpPlusDedup { entries: 64 }),
    )
    .expect("drive");
    let d = ValueId::new(0xD);
    let at = SimTime::ZERO;
    ssd.write(Lpn::new(0), d, at).expect("W1: program D"); // t0
    ssd.write(Lpn::new(1), d, at).expect("W2: dedup");
    ssd.write(Lpn::new(2), d, at).expect("W3: dedup");
    assert_eq!(ssd.stats().deduped_writes, 2);
    // Updates kill all three logical copies -> D turns to garbage (t3).
    ssd.write(Lpn::new(0), ValueId::new(1), at).expect("kill");
    ssd.write(Lpn::new(1), ValueId::new(2), at).expect("kill");
    ssd.write(Lpn::new(2), ValueId::new(3), at).expect("kill");
    assert_eq!(ssd.flash().total_invalid_pages(), 1, "D's page is garbage");
    // W4 at t4: dedup cannot help (D has no live copy), the DVP can.
    ssd.write(Lpn::new(3), d, at).expect("W4: revive");
    assert_eq!(ssd.stats().revived_writes, 1, "W4 revived the zombie");
    assert_eq!(
        ssd.stats().host_programs,
        4,
        "only W1 and the 3 kills programmed"
    );
}

/// TRIM integrates with the pool: trimmed content is revivable.
#[test]
fn trimmed_pages_can_be_revived() {
    let mut ssd = Ssd::new(
        SsdConfig::small_test()
            .without_precondition()
            .with_system(SystemKind::MqDvp { entries: 64 }),
    )
    .expect("drive");
    let at = SimTime::ZERO;
    ssd.write(Lpn::new(0), ValueId::new(7), at).expect("write");
    ssd.trim(Lpn::new(0)).expect("trim");
    assert_eq!(ssd.stats().trims, 1);
    assert_eq!(ssd.flash().total_invalid_pages(), 1);
    // Reading a trimmed page sees pre-trace content again.
    let (v, _) = ssd.read(Lpn::new(0), at).expect("read");
    assert_eq!(v, zombie_ssd::trace::initial_value_of(Lpn::new(0)));
    // A rewrite of the trimmed content revives the zombie.
    ssd.write(Lpn::new(5), ValueId::new(7), at).expect("revive");
    assert_eq!(ssd.stats().revived_writes, 1);
}

/// §IV-D: popularity-aware GC victim selection keeps popular zombies
/// alive longer than greedy selection, so more writes find their
/// content still in the pool — `ablation_gc`'s "revive gain" column.
/// Home at scale 0.05 is GC-bound (about 4 500 collections under
/// either selector) and pop-aware revives 0.7–1.6% more over seeds 1,
/// 2, 3, 7, 8, 42 and 99 (seed 42: 13 629 → 13 834). Web gains too on
/// average, but by at most 0.4% at this scale and not on every seed,
/// so it is left to `ablation_gc`.
#[test]
fn popularity_aware_gc_revives_more_than_greedy() {
    let p = WorkloadProfile::home().scaled(0.05);
    let t = trace(&p, 42);
    let run = |aware: bool| {
        Ssd::new(
            SsdConfig::for_footprint(p.lpn_space)
                .with_system(SystemKind::MqDvp { entries: 10_000 })
                .with_popularity_aware_gc(aware),
        )
        .expect("drive")
        .run_trace(t.records())
        .expect("run")
    };
    let (greedy, aware) = (run(false), run(true));
    assert!(
        greedy.gc_collections > 1000 && aware.gc_collections > 1000,
        "the drive must be GC-bound ({} and {} collections)",
        greedy.gc_collections,
        aware.gc_collections
    );
    assert!(
        aware.revived_writes > greedy.revived_writes,
        "pop-aware GC must revive more than greedy ({} vs {})",
        aware.revived_writes,
        greedy.revived_writes
    );
}
