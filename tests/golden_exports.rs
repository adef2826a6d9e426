//! Golden `zssd-metrics-v1` exports: eight small full-system cells
//! whose `RunReport::to_json` text is checked in under `tests/golden/`
//! and must be reproduced byte for byte. Any change to simulated
//! behaviour — counters, latencies, phase timers, wear, timeline —
//! shows up here as a diff, so a refactor or speed-up that claims to
//! leave behaviour alone is held to it by `cargo test`.
//!
//! Of the four scale-0.01 cells only `mail-dedup` (deduplication
//! without a pool) collects garbage, a handful of times. The four `-gc`
//! cells run web at scale 0.05, where greedy (Baseline) and
//! popularity-aware (MQ-DVP, LX-SSD, adaptive MQ) victim selection each
//! run hundreds of collections; `web-lxssd-gc` also covers LX-SSD's
//! read refresh. The adaptive pool never fills there, so its export
//! differs from `web-mq-dvp-gc` only in the system label.
//!
//! The cells pin every knob the environment could otherwise supply
//! (seed, arrival process, fault plan), so the files do not depend on
//! `ZSSD_*` settings. After a deliberate behaviour change, regenerate
//! them with
//!
//! ```text
//! cargo test --release --test golden_exports -- --ignored
//! ```
//!
//! and review the diff.

use std::path::PathBuf;

use zombie_ssd::core::SystemKind;
use zombie_ssd::flash::FaultConfig;
use zombie_ssd::ftl::{Ssd, SsdConfig};
use zombie_ssd::trace::{SyntheticTrace, WorkloadProfile};
use zssd_bench::METRICS_WINDOW;

const SEED: u64 = 42;

/// One golden cell: `system` replaying `profile` scaled by `scale`,
/// with the paper's 200 K pool and dedup-index entries scaled alike.
struct Cell {
    stem: &'static str,
    profile: WorkloadProfile,
    scale: f64,
    system: fn(usize) -> SystemKind,
}

impl Cell {
    fn entries(&self) -> usize {
        (200_000.0 * self.scale).round() as usize
    }
}

fn cells() -> [Cell; 8] {
    let cell = |stem, profile, scale, system| Cell {
        stem,
        profile,
        scale,
        system,
    };
    [
        cell("web-mq-dvp", WorkloadProfile::web(), 0.01, |entries| {
            SystemKind::MqDvp { entries }
        }),
        cell("mail-dvp-dedup", WorkloadProfile::mail(), 0.01, |entries| {
            SystemKind::DvpPlusDedup { entries }
        }),
        cell("hadoop-baseline", WorkloadProfile::hadoop(), 0.01, |_| {
            SystemKind::Baseline
        }),
        cell("web-baseline-gc", WorkloadProfile::web(), 0.05, |_| {
            SystemKind::Baseline
        }),
        cell("web-mq-dvp-gc", WorkloadProfile::web(), 0.05, |entries| {
            SystemKind::MqDvp { entries }
        }),
        cell("web-lxssd-gc", WorkloadProfile::web(), 0.05, |entries| {
            SystemKind::LxSsd { entries }
        }),
        cell("web-adaptive-gc", WorkloadProfile::web(), 0.05, |entries| {
            SystemKind::AdaptiveDvp {
                min_entries: entries / 4,
                max_entries: 2 * entries,
            }
        }),
        cell("mail-dedup", WorkloadProfile::mail(), 0.01, |_| {
            SystemKind::Dedup
        }),
    ]
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{stem}.json"))
}

/// The export of one cell, exactly as `zssd run --metrics-out` would
/// write it.
fn export(cell: &Cell) -> String {
    let profile = cell.profile.scaled(cell.scale);
    let trace = SyntheticTrace::generate(&profile, SEED);
    let config = SsdConfig::for_footprint(profile.lpn_space)
        .with_system((cell.system)(cell.entries()))
        .with_dedup_index_entries(cell.entries())
        .with_faults(FaultConfig::none());
    let report = Ssd::new(config)
        .expect("drive")
        .run_trace(trace.records())
        .expect("run");
    format!("{}\n", report.to_json(METRICS_WINDOW))
}

#[test]
fn exports_match_the_golden_files() {
    for cell in cells() {
        let stem = cell.stem;
        let path = golden_path(stem);
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}; run `cargo test --release --test golden_exports -- --ignored`",
                path.display()
            )
        });
        let fresh = export(&cell);
        if fresh != golden {
            // The export is one line; point at the first differing byte.
            let at = fresh
                .bytes()
                .zip(golden.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(fresh.len().min(golden.len()));
            let near = |s: &str| {
                s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                    .map(str::to_owned)
            };
            panic!(
                "{stem}: export differs from {} at byte {at}\n  fresh:  {:?}\n  golden: {:?}",
                path.display(),
                near(&fresh),
                near(&golden)
            );
        }
    }
}

/// Rewrites `tests/golden/` from the current simulator. Run manually
/// after a deliberate behaviour change (see the module docs).
#[test]
#[ignore = "writes tests/golden/; run manually to regenerate the golden exports"]
fn regenerate_golden_exports() {
    for cell in cells() {
        let path = golden_path(cell.stem);
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir writable");
        std::fs::write(&path, export(&cell)).expect("golden file writable");
        println!("{} -> {}", cell.stem, path.display());
    }
}
