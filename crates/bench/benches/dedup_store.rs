//! Microbenchmarks of the CAFTL-style dedup index.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use zssd_dedup::DedupStore;
use zssd_types::{Ppn, ValueId};

fn filled_store(values: u64) -> DedupStore {
    let mut store = DedupStore::new(values as usize);
    for i in 0..values {
        store.register(ValueId::new(i), Ppn::new(i));
    }
    store
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("dedup_store");
    group.bench_function("lookup_hit_1m", |b| {
        let store = filled_store(1_000_000);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1_000_000;
            black_box(store.lookup(ValueId::new(i)))
        });
    });
    group.bench_function("lookup_miss_1m", |b| {
        let store = filled_store(1_000_000);
        let value = ValueId::new(u64::MAX);
        b.iter(|| black_box(store.lookup(black_box(value))));
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
    targets = bench_ops
}
criterion_main!(benches);
