//! Synthetic trace generation throughput, end to end and for the Zipf
//! sampler alone, plus the two full-scale phases perfbench pays for:
//! generating hadoop's nine-day trace and building a 2.1 M-rank
//! address sampler.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

use zssd_trace::{SyntheticTrace, WorkloadProfile, ZipfSampler};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gen");
    group.sample_size(10);
    for profile in [
        WorkloadProfile::mail().scaled(0.02),
        WorkloadProfile::trans().scaled(0.02),
    ] {
        let name = format!("{}_{}req", profile.name, profile.total_requests());
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(SyntheticTrace::generate(&profile, seed).records().len())
            });
        });
    }
    group.finish();
}

/// Full-scale generation phases. `hadoop_9days` is perfbench's
/// hadoop-baseline trace (2.7 M records, seed 42); `zipf_build` is one
/// of mail's two 2.1 M-rank address samplers, a `powf` per rank.
fn bench_full_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gen_full");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(6));
    let hadoop = WorkloadProfile::hadoop().with_days(9);
    let name = format!("hadoop_9days_{}req", hadoop.total_requests());
    group.bench_function(name, |b| {
        b.iter(|| black_box(SyntheticTrace::generate(&hadoop, 42).records().len()));
    });
    let mail = WorkloadProfile::mail();
    let name = format!(
        "zipf_build_mail_{}ranks_alpha{}",
        mail.lpn_space, mail.lpn_alpha
    );
    group.bench_function(name, |b| {
        b.iter(|| black_box(ZipfSampler::new(mail.lpn_space, mail.lpn_alpha).len()));
    });
    group.finish();
}

/// Draws from full-size address samplers. The `trace_gen` cases use
/// mail at scale 0.02, whose 42 K-rank tables fit in cache; mail's
/// full 2.1 M-rank tables do not, which is where the lookup cost shows.
fn bench_zipf_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf_sample");
    let mail = WorkloadProfile::mail();
    for (role, alpha) in [("read", mail.read_alpha), ("write", mail.lpn_alpha)] {
        let zipf = ZipfSampler::new(mail.lpn_space, alpha);
        let name = format!("mail_{role}_{}ranks_alpha{alpha}_1k_draws", zipf.len());
        group.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| {
                (0..1000)
                    .map(|_| zipf.sample(&mut rng))
                    .fold(0, u64::wrapping_add)
            });
        });
    }
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
    targets = bench_generation, bench_full_scale, bench_zipf_sample
}
criterion_main!(benches);
