//! Integration tests for the observability layer (DESIGN.md §13):
//! the exports must be deterministic — bit-identical for the same seed
//! regardless of `ZSSD_THREADS` — and the event stream must agree with
//! the run's counters.

use zssd_bench::{
    config_for, grid_for, grid_metrics_json, run_grid_with_threads, trace_for, METRICS_WINDOW,
};
use zssd_core::SystemKind;
use zssd_flash::FaultConfig;
use zssd_ftl::{Ssd, SsdConfig};
use zssd_metrics::{events_to_csv, events_to_json, windows_to_json, Event, Json};
use zssd_trace::{SyntheticTrace, WorkloadProfile};

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tiny_profiles() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile::paper_set().remove(0).scaled(0.002),
        WorkloadProfile::mail().scaled(0.002),
    ]
}

#[test]
fn grid_export_is_bit_identical_across_thread_counts() {
    let systems = [SystemKind::Baseline, SystemKind::MqDvp { entries: 64 }];
    let mut cells = grid_for(&tiny_profiles(), &systems);
    for cell in &mut cells {
        cell.config.trace_events = true;
    }
    let serial = run_grid_with_threads(cells.clone(), 1).expect("serial grid");
    let parallel = run_grid_with_threads(cells.clone(), 4).expect("parallel grid");
    let serial_json = grid_metrics_json(&cells, &serial);
    let parallel_json = grid_metrics_json(&cells, &parallel);
    assert_eq!(
        serial_json, parallel_json,
        "metrics export must be byte-identical for any ZSSD_THREADS"
    );
    // Event streams — the most order-sensitive part of a report — are
    // identical cell by cell, too.
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(!s.events.is_empty(), "traced cells record events");
        assert_eq!(events_to_csv(&s.events), events_to_csv(&p.events));
    }
}

#[test]
fn gc_episode_series_round_trips_through_the_json_exporter() {
    let profile = WorkloadProfile::mail().scaled(0.002);
    let trace = trace_for(&profile);
    let report = Ssd::new(config_for(&profile, SystemKind::Baseline))
        .expect("drive")
        .run_trace(trace.records())
        .expect("run");
    let windows = report.timeline.windows(METRICS_WINDOW);
    assert!(!windows.is_empty(), "the run spans at least one window");
    let text = windows_to_json(METRICS_WINDOW, &windows).to_string();
    let parsed = Json::parse(&text).expect("exporter emits valid JSON");
    let field = |value: &Json, key: &str| value.get(key).and_then(Json::as_u64);
    assert_eq!(field(&parsed, "window_ns"), Some(METRICS_WINDOW.as_nanos()));
    let rows = parsed
        .get("windows")
        .and_then(Json::as_arr)
        .expect("a windows array");
    assert_eq!(rows.len(), windows.len());
    for (row, w) in rows.iter().zip(&windows) {
        let got = ["start_ns", "count", "mean_ns", "max_ns"].map(|key| field(row, key));
        let want = [
            w.start.as_nanos(),
            w.count,
            w.mean.as_nanos(),
            w.max.as_nanos(),
        ]
        .map(Some);
        assert_eq!(got, want, "lossless series round-trip");
    }
}

#[test]
fn event_stream_agrees_with_the_run_counters() {
    let profile = WorkloadProfile::mail().scaled(0.002);
    let trace = trace_for(&profile);
    let run = || {
        Ssd::new(config_for(&profile, SystemKind::MqDvp { entries: 64 }).with_event_tracing(true))
            .expect("drive")
            .run_trace(trace.records())
            .expect("run")
    };
    let report = run();
    let count = |kind: &str| {
        report
            .events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count() as u64
    };
    assert_eq!(count("host_write"), report.host_writes);
    assert_eq!(count("host_read"), report.host_reads);
    assert_eq!(count("revive"), report.revived_writes);
    assert!(report.revived_writes > 0, "mail revives zombie pages");
    assert_eq!(count("gc_erase"), report.erases);
    assert_eq!(count("gc_relocate"), report.gc_programs);
    // Timestamps never precede the run start and seqs are gapless.
    for (i, e) in report.events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    // The same seed reproduces the stream bit for bit.
    let again = run();
    assert_eq!(
        events_to_json(&report.events).to_string(),
        events_to_json(&again.events).to_string()
    );
    // And the full report export is reproducible too.
    assert_eq!(
        report.to_json(METRICS_WINDOW).to_string(),
        again.to_json(METRICS_WINDOW).to_string()
    );
}

#[test]
fn fault_event_stream_is_pinned() {
    // Built without `config_for`, so no `ZSSD_*` knob can change the run.
    let profile = WorkloadProfile::web().scaled(0.02);
    let trace = SyntheticTrace::generate(&profile, 42);
    let faults = FaultConfig::from_spec("program=5e-3,erase=0.2,read=5e-3").expect("valid spec");
    let config = SsdConfig::for_footprint(profile.lpn_space)
        .with_system(SystemKind::MqDvp { entries: 4_000 })
        .with_dedup_index_entries(4_000)
        .with_faults(faults)
        .with_event_tracing(true);
    let report = Ssd::new(config)
        .expect("drive")
        .run_trace(trace.records())
        .expect("run");
    // Faults count by their fault kind, everything else by its tag.
    let count = |key: &str| {
        report
            .events
            .iter()
            .filter(|e| match e.event {
                Event::Fault { kind, .. } => kind.name() == key,
                other => other.kind() == key,
            })
            .count() as u64
    };
    let counted = [
        ("program", report.program_failures),
        ("erase", report.erase_failures),
        ("read_retry", report.read_retries),
        ("retire", report.retired_blocks),
        ("scrub", report.scrub_programs),
    ];
    for (key, counter) in counted {
        assert!(counter > 0, "the fault rates exercise {key}");
        assert_eq!(count(key), counter, "{key} events match the counter");
    }
    let csv = events_to_csv(&report.events);
    let json = report.to_json(METRICS_WINDOW).to_string();
    assert_eq!(
        (report.events.len(), fnv1a(&csv), fnv1a(&json)),
        (47_013, 0xbea5_471c_0a81_0de2, 0xf1cf_f039_1bd0_1751),
        "event stream or metrics export changed"
    );
}
