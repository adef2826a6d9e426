//! Microbenchmarks of the MQ dead-value pool: the per-write costs the
//! controller pays (lookup, death insertion, promotion churn).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use zssd_core::{MqConfig, MqDeadValuePool};
use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};

fn filled_pool(entries: usize) -> MqDeadValuePool {
    let mut pool = MqDeadValuePool::new(MqConfig::paper_default().with_capacity(entries), 64);
    for i in 0..entries as u64 {
        pool.insert_dead(
            ValueId::new(i),
            Ppn::new(i),
            Lpn::new(i),
            PopularityDegree::new((i % 16) as u8),
            WriteClock::from_count(i + 1),
        );
    }
    pool
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("mq_pool/insert_dead_into_full_200k", |b| {
        let pool = filled_pool(200_000);
        let mut i = 1_000_000u64;
        b.iter_batched_ref(
            || pool.clone(),
            |pool| {
                i += 1;
                pool.insert_dead(
                    ValueId::new(i),
                    Ppn::new(i),
                    Lpn::new(i),
                    PopularityDegree::new(3),
                    WriteClock::from_count(i),
                );
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("mq_pool");
    group.bench_function("lookup_miss_200k", |b| {
        let mut pool = filled_pool(200_000);
        let value = ValueId::new(u64::MAX);
        b.iter(|| black_box(pool.take_match(black_box(value), WriteClock::from_count(1))));
    });
    group.bench_function("hit_then_reinsert_200k", |b| {
        let mut pool = filled_pool(200_000);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 200_000;
            let value = ValueId::new(i);
            let now = WriteClock::from_count(1_000_000 + i);
            if let Some(ppn) = pool.take_match(value, now) {
                pool.insert_dead(value, ppn, Lpn::new(i), PopularityDegree::new(3), now);
            }
            black_box(pool.len())
        });
    });
    group.finish();
}

fn bench_weight(c: &mut Criterion) {
    c.bench_function("mq_pool/garbage_weight_200k", |b| {
        let pool = filled_pool(200_000);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 400_000;
            black_box(pool.garbage_weight(Ppn::new(i)))
        });
    });
}

criterion_group! {
    name = benches;
    // Keep `cargo bench --workspace` to a few minutes: fewer
    // samples and shorter windows than criterion's defaults.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_insert, bench_lookup, bench_weight
}
criterion_main!(benches);
