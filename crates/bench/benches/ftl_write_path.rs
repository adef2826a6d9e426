//! Per-write simulator cost on the full FTL stack: how much host-side
//! work a write costs under each system (pure simulator throughput,
//! not simulated latency), and the cost of a write stream dominated by
//! garbage collection.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use zssd_core::SystemKind;
use zssd_flash::FaultConfig;
use zssd_ftl::{Ssd, SsdConfig};
use zssd_types::{splitmix64, Lpn, SimTime, ValueId};

fn drive(system: SystemKind) -> Ssd {
    Ssd::new(
        SsdConfig::for_footprint(20_000)
            .without_precondition()
            .with_system(system),
    )
    .expect("valid drive")
}

fn bench_write_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ftl_write_path");
    group.sample_size(20);
    for system in [
        SystemKind::Baseline,
        SystemKind::MqDvp { entries: 10_000 },
        SystemKind::Dedup,
        SystemKind::DvpPlusDedup { entries: 10_000 },
    ] {
        group.bench_function(format!("10k_writes/{system}"), |b| {
            b.iter_batched_ref(
                || drive(system),
                |ssd| {
                    for i in 0..10_000u64 {
                        let lpn = Lpn::new((i * 13) % 20_000);
                        let value = ValueId::new(i % 700); // heavy reuse
                        ssd.write(lpn, value, SimTime::ZERO).expect("write");
                    }
                    black_box(ssd.stats().host_writes)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Logical pages of the GC case's drive.
const GC_FOOTPRINT: u64 = 20_000;

/// Uniform overwrites of a preconditioned Baseline drive, three times
/// its logical capacity: greedy GC relocates about six valid pages per
/// host write (6 781 collections, 375 K moves for 60 K programs), so
/// relocation and erases dominate the host time.
fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ftl_write_path");
    group.sample_size(10);
    group.bench_function("gc/60k_uniform_overwrites/Baseline", |b| {
        b.iter_batched_ref(
            || {
                let config = SsdConfig::for_footprint(GC_FOOTPRINT)
                    .with_system(SystemKind::Baseline)
                    .with_faults(FaultConfig::none());
                Ssd::new(config).expect("valid drive")
            },
            |ssd| {
                for i in 0..3 * GC_FOOTPRINT {
                    let lpn = Lpn::new(splitmix64(i) % GC_FOOTPRINT);
                    ssd.write(lpn, ValueId::new(i), SimTime::ZERO)
                        .expect("write");
                }
                black_box(ssd.stats().gc_collections)
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Logical pages of the popularity-aware GC case's drive: web's
/// footprint, so each plane holds web's 184 blocks.
const WEB_FOOTPRINT: u64 = 160_000;

/// Skewed overwrites of a preconditioned MQ-DVP drive at web's
/// footprint and pool size, one and a half times its logical capacity:
/// the product of three uniform fractions of the footprint picks the
/// address, so low addresses are hot, and 58% of writes reuse one of
/// 8 192 values, so the pool revives pages and GC purges the pooled
/// pages it erases (6 556 collections, 60 K revivals, 154 K purges,
/// 266 K moves). Every collection takes the popularity-aware path
/// (weight 0.5, the default), so victim selection, pool purges and
/// relocation all count.
fn bench_popularity_gc(c: &mut Criterion) {
    let system = SystemKind::MqDvp { entries: 200_000 };
    let mut group = c.benchmark_group("ftl_write_path");
    group.sample_size(10);
    group.bench_function(format!("gc/240k_skewed_overwrites/{system}"), |b| {
        b.iter_batched_ref(
            || {
                let config = SsdConfig::for_footprint(WEB_FOOTPRINT)
                    .with_system(system)
                    .with_faults(FaultConfig::none());
                Ssd::new(config).expect("valid drive")
            },
            |ssd| {
                for i in 0..3 * WEB_FOOTPRINT / 2 {
                    let r = splitmix64(i);
                    let lpn = (r % WEB_FOOTPRINT) * (splitmix64(r) % WEB_FOOTPRINT) / WEB_FOOTPRINT
                        * (splitmix64(r ^ 1) % WEB_FOOTPRINT)
                        / WEB_FOOTPRINT;
                    let value = if r >> 56 < 107 {
                        ValueId::new(1 << 40 | i)
                    } else {
                        ValueId::new((r >> 8) % 8_192)
                    };
                    ssd.write(Lpn::new(lpn), value, SimTime::ZERO)
                        .expect("write");
                }
                black_box(ssd.stats().gc_collections)
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Keep `cargo bench --workspace` to a few minutes: fewer
    // samples and shorter windows than criterion's defaults.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_write_path, bench_gc, bench_popularity_gc
}
criterion_main!(benches);
