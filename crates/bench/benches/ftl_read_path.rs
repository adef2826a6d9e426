//! Per-read simulator cost on a mail-sized drive: uniform random reads
//! over a preconditioned 2.1 M-page footprint, so nearly every read
//! misses the CPU caches in the mapping table, the flash page states
//! and the reverse map.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use zssd_core::SystemKind;
use zssd_flash::FaultConfig;
use zssd_ftl::{Ssd, SsdConfig};
use zssd_types::{splitmix64, Lpn, SimDuration, SimTime};

/// Logical pages of the drive: mail's footprint.
const FOOTPRINT: u64 = 2_100_000;

/// Reads per timed call; divide the reported time by this for one read.
const READS: u64 = 100_000;

fn bench_read_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ftl_read_path");
    group.sample_size(10);
    group.bench_function("100k_uniform_reads/mail_footprint/Baseline", |b| {
        b.iter_batched_ref(
            || {
                let config = SsdConfig::for_footprint(FOOTPRINT)
                    .with_system(SystemKind::Baseline)
                    .with_faults(FaultConfig::none());
                Ssd::new(config).expect("valid drive")
            },
            |ssd| {
                // 10 µs apart, so the simulated chips keep up.
                let gap = SimDuration::from_micros(10);
                let mut at = SimTime::ZERO;
                for i in 0..READS {
                    let lpn = Lpn::new(splitmix64(i) % FOOTPRINT);
                    black_box(ssd.read(lpn, at).expect("read"));
                    at += gap;
                }
                black_box(ssd.stats().host_reads)
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_read_path
}
criterion_main!(benches);
