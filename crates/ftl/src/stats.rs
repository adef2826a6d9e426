//! Device statistics and the per-run report.

use core::fmt;

use zssd_core::{PoolStats, SystemKind};
use zssd_dedup::DedupStats;
use zssd_flash::WearSummary;
use zssd_metrics::{
    events_to_json, windows_to_json, CounterRegistry, Json, LatencySummary, Timeline, TracedEvent,
};
use zssd_types::SimDuration;

/// Mutable counters accumulated while a trace runs.
#[derive(Debug, Clone, Default)]
pub struct SsdStats {
    /// Host write requests serviced.
    pub host_writes: u64,
    /// Host read requests serviced.
    pub host_reads: u64,
    /// Host writes that caused a NAND program.
    pub host_programs: u64,
    /// NAND programs caused by GC relocation.
    pub gc_programs: u64,
    /// Host writes short-circuited by a dead-value-pool hit.
    pub revived_writes: u64,
    /// Host writes absorbed by deduplication (live-copy hits, plus
    /// same-content overwrites of the same page).
    pub deduped_writes: u64,
    /// GC victim collections performed.
    pub gc_collections: u64,
    /// Host TRIM/discard commands serviced.
    pub trims: u64,
    /// Replayed reads whose returned content differed from the value
    /// the trace recorded — any nonzero count is an FTL consistency
    /// bug (or a trace replayed against the wrong initial state).
    pub read_mismatches: u64,
    /// NAND programs issued to relocate data off a page that needed a
    /// read retry (background scrubbing, only under fault injection).
    pub scrub_programs: u64,
    /// Request latencies, counted per distinct value and aggregated per
    /// 250 ms window of arrival: the run's one record of latencies,
    /// behind both the episode analysis and the latency digests of the
    /// report.
    pub timeline: Timeline,
    /// Simulated time spent per internal phase. Always accumulated —
    /// the additions are a handful of integer ops per GC episode, far
    /// off the per-request hot path.
    pub phases: Phases,
}

/// Accumulated simulated time and execution count of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Total simulated time spent in the phase.
    pub total: SimDuration,
    /// Number of executions accumulated.
    pub count: u64,
}

impl PhaseTotal {
    /// Accumulates one execution lasting `elapsed`.
    pub fn add(&mut self, elapsed: SimDuration) {
        self.total += elapsed;
        self.count += 1;
    }
}

/// Simulated time per internal phase of the drive (DESIGN.md §13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Erasing a GC victim, a retried pulse included; one per
    /// collection.
    pub gc_erase: PhaseTotal,
    /// Relocating a GC victim's valid pages; one per collection.
    pub gc_relocate: PhaseTotal,
    /// A write's wait for GC to bring its plane back above the
    /// free-block watermark; one per write that waited.
    pub gc_stall: PhaseTotal,
    /// Copying a page that needed a read retry onto fresh flash.
    pub scrub: PhaseTotal,
}

impl Phases {
    /// Every phase with its export name, in name order.
    fn named(&self) -> [(&'static str, PhaseTotal); 4] {
        [
            ("gc_erase", self.gc_erase),
            ("gc_relocate", self.gc_relocate),
            ("gc_stall", self.gc_stall),
            ("scrub", self.scrub),
        ]
    }
}

/// Everything the paper's evaluation figures need from one run.
///
/// Comparisons between runs use
/// [`zssd_metrics::reduction_pct`]: e.g. Fig 9 plots
/// `reduction_pct(baseline.flash_programs, dvp.flash_programs)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The system configuration that produced this run.
    pub system: SystemKind,
    /// Host write requests serviced.
    pub host_writes: u64,
    /// Host read requests serviced.
    pub host_reads: u64,
    /// Total NAND programs (host + GC relocation) — the paper's
    /// "number of writes" metric (Figs 9, 14).
    pub flash_programs: u64,
    /// NAND programs caused directly by host writes.
    pub host_programs: u64,
    /// NAND programs caused by GC relocation.
    pub gc_programs: u64,
    /// NAND reads (host + GC relocation).
    pub flash_reads: u64,
    /// Block erases — Fig 10's metric.
    pub erases: u64,
    /// Writes short-circuited by the dead-value pool.
    pub revived_writes: u64,
    /// Writes absorbed by deduplication.
    pub deduped_writes: u64,
    /// GC victim collections.
    pub gc_collections: u64,
    /// Host TRIM/discard commands serviced.
    pub trims: u64,
    /// Replayed reads returning content other than what the trace
    /// recorded (should always be zero; see [`SsdStats::read_mismatches`]).
    pub read_mismatches: u64,
    /// NAND program operations that failed (fault injection); each one
    /// consumed a page, marked it bad, and forced a retry elsewhere.
    pub program_failures: u64,
    /// NAND erase operations that failed (fault injection).
    pub erase_failures: u64,
    /// Host reads that needed a second sense pass to correct an
    /// injected ECC error.
    pub read_retries: u64,
    /// Blocks permanently removed from service after repeated erase
    /// failures.
    pub retired_blocks: u64,
    /// Programs issued to relocate data off pages that needed a read
    /// retry (scrubbing).
    pub scrub_programs: u64,
    /// Dead-value-pool counters.
    pub pool: PoolStats,
    /// Dedup counters, when the system deduplicates.
    pub dedup: Option<DedupStats>,
    /// Block-wear distribution at the end of the run.
    pub wear: WearSummary,
    /// Request latencies over simulated time (episode analysis).
    pub timeline: Timeline,
    /// Write-latency digest.
    pub write_latency: LatencySummary,
    /// Read-latency digest.
    pub read_latency: LatencySummary,
    /// Combined (read + write) latency digest — the paper's headline
    /// latency numbers cover "across reads and write requests".
    pub all_latency: LatencySummary,
    /// Simulated time spent per internal phase.
    pub phases: Phases,
    /// The run's event trace, in deterministic causal order. Empty
    /// unless the run was configured with
    /// [`SsdConfig::with_event_tracing`].
    ///
    /// [`SsdConfig::with_event_tracing`]: crate::SsdConfig::with_event_tracing
    pub events: Vec<TracedEvent>,
}

impl RunReport {
    /// Mean latency across all requests.
    pub fn mean_latency(&self) -> SimDuration {
        self.all_latency.mean
    }

    /// 99th-percentile latency across all requests (the paper's tail).
    pub fn tail_latency(&self) -> SimDuration {
        self.all_latency.p99
    }

    /// Flattens every scalar counter of the run — device, pool, and
    /// dedup — into one deterministic name → value registry.
    pub fn counters(&self) -> CounterRegistry {
        let mut reg = CounterRegistry::default();
        reg.add("host_writes", self.host_writes);
        reg.add("host_reads", self.host_reads);
        reg.add("flash_programs", self.flash_programs);
        reg.add("host_programs", self.host_programs);
        reg.add("gc_programs", self.gc_programs);
        reg.add("flash_reads", self.flash_reads);
        reg.add("erases", self.erases);
        reg.add("revived_writes", self.revived_writes);
        reg.add("deduped_writes", self.deduped_writes);
        reg.add("gc_collections", self.gc_collections);
        reg.add("trims", self.trims);
        reg.add("read_mismatches", self.read_mismatches);
        reg.add("program_failures", self.program_failures);
        reg.add("erase_failures", self.erase_failures);
        reg.add("read_retries", self.read_retries);
        reg.add("retired_blocks", self.retired_blocks);
        reg.add("scrub_programs", self.scrub_programs);
        reg.add("pool_hits", self.pool.hits);
        reg.add("pool_misses", self.pool.misses);
        reg.add("pool_insertions", self.pool.insertions);
        reg.add("pool_evictions", self.pool.evictions);
        reg.add("pool_gc_removals", self.pool.gc_removals);
        reg.add("pool_promotions", self.pool.promotions);
        reg.add("pool_demotions", self.pool.demotions);
        if let Some(dedup) = &self.dedup {
            reg.add("dedup_hits", dedup.dedup_hits);
            reg.add("dedup_misses", dedup.misses);
            reg.add("dedup_registrations", dedup.registrations);
            reg.add("dedup_deaths", dedup.deaths);
            reg.add("dedup_index_evictions", dedup.index_evictions);
        }
        reg
    }

    /// Serializes the whole report — counters, latency digests, phase
    /// timers, wear, the timeline bucketed into `window`-wide
    /// [`zssd_metrics::WindowStat`]s, and the event trace — as a
    /// self-describing JSON document (schema `zssd-metrics-v1`,
    /// DESIGN.md §13). Byte-deterministic for a given report.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is a nonzero multiple of
    /// [`zssd_metrics::METRICS_WINDOW`] (see [`Timeline::windows`]).
    pub fn to_json(&self, window: SimDuration) -> Json {
        fn latency(summary: &LatencySummary) -> Json {
            Json::Obj(vec![
                ("count".into(), Json::U64(summary.count)),
                ("mean_ns".into(), Json::U64(summary.mean.as_nanos())),
                ("p50_ns".into(), Json::U64(summary.p50.as_nanos())),
                ("p99_ns".into(), Json::U64(summary.p99.as_nanos())),
                ("max_ns".into(), Json::U64(summary.max.as_nanos())),
            ])
        }
        let counters = self
            .counters()
            .iter()
            .map(|(name, value)| (name.to_string(), Json::U64(value)))
            .collect();
        let phases = self
            .phases
            .named()
            .into_iter()
            .filter(|(_, total)| total.count > 0)
            .map(|(name, total)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("total_ns".into(), Json::U64(total.total.as_nanos())),
                        ("count".into(), Json::U64(total.count)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("zssd-metrics-v1".into())),
            ("system".into(), Json::Str(self.system.to_string())),
            ("counters".into(), Json::Obj(counters)),
            (
                "latency".into(),
                Json::Obj(vec![
                    ("write".into(), latency(&self.write_latency)),
                    ("read".into(), latency(&self.read_latency)),
                    ("all".into(), latency(&self.all_latency)),
                ]),
            ),
            ("phases".into(), Json::Obj(phases)),
            (
                "wear".into(),
                Json::Obj(vec![
                    ("min_erases".into(), Json::U64(self.wear.min_erases)),
                    ("max_erases".into(), Json::U64(self.wear.max_erases)),
                    ("mean_erases".into(), Json::F64(self.wear.mean_erases)),
                ]),
            ),
            (
                "timeline".into(),
                windows_to_json(window, &self.timeline.windows(window)),
            ),
            ("events".into(), events_to_json(&self.events)),
        ])
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} writes / {} reads",
            self.system, self.host_writes, self.host_reads
        )?;
        writeln!(
            f,
            "  programs={} (host {} + gc {})  erases={}  revived={}  deduped={}",
            self.flash_programs,
            self.host_programs,
            self.gc_programs,
            self.erases,
            self.revived_writes,
            self.deduped_writes
        )?;
        if self.program_failures != 0
            || self.erase_failures != 0
            || self.read_retries != 0
            || self.retired_blocks != 0
            || self.scrub_programs != 0
        {
            writeln!(
                f,
                "  faults: program_failures={} erase_failures={} read_retries={} retired_blocks={} scrub_programs={}",
                self.program_failures,
                self.erase_failures,
                self.read_retries,
                self.retired_blocks,
                self.scrub_programs
            )?;
        }
        writeln!(f, "  write latency: {}", self.write_latency)?;
        writeln!(f, "  read  latency: {}", self.read_latency)?;
        write!(f, "  all   latency: {}", self.all_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> LatencySummary {
        let us = SimDuration::from_micros(10);
        LatencySummary {
            count: 1,
            mean: us,
            p50: us,
            p99: us,
            max: us,
        }
    }

    fn report() -> RunReport {
        RunReport {
            system: SystemKind::Baseline,
            host_writes: 100,
            host_reads: 50,
            flash_programs: 90,
            host_programs: 80,
            gc_programs: 10,
            flash_reads: 60,
            erases: 5,
            revived_writes: 20,
            deduped_writes: 0,
            gc_collections: 5,
            trims: 0,
            read_mismatches: 0,
            program_failures: 0,
            erase_failures: 0,
            read_retries: 0,
            retired_blocks: 0,
            scrub_programs: 0,
            pool: PoolStats::default(),
            dedup: None,
            wear: WearSummary {
                min_erases: 0,
                max_erases: 0,
                mean_erases: 0.0,
            },
            timeline: Timeline::new(),
            write_latency: summary(),
            read_latency: summary(),
            all_latency: summary(),
            phases: Phases::default(),
            events: Vec::new(),
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert_eq!(r.mean_latency(), SimDuration::from_micros(10));
        assert_eq!(r.tail_latency(), SimDuration::from_micros(10));
    }

    #[test]
    fn display_contains_key_counters() {
        let text = report().to_string();
        assert!(text.contains("programs=90"));
        assert!(text.contains("revived=20"));
        assert!(text.contains("Baseline"));
    }

    #[test]
    fn counters_flatten_device_pool_and_dedup() {
        let mut r = report();
        r.pool.hits = 7;
        let reg = r.counters();
        assert_eq!(reg.get("host_writes"), 100);
        assert_eq!(reg.get("pool_hits"), 7);
        assert_eq!(reg.get("dedup_hits"), 0, "no dedup section");
        r.dedup = Some(zssd_dedup::DedupStats {
            dedup_hits: 3,
            ..DedupStats::default()
        });
        assert_eq!(r.counters().get("dedup_hits"), 3);
    }

    #[test]
    fn json_export_lists_the_phases_that_ran_in_name_order() {
        let mut r = report();
        let phases = |r: &RunReport| {
            let doc = r.to_json(zssd_metrics::METRICS_WINDOW);
            doc.get("phases").map(Json::to_string)
        };
        assert_eq!(phases(&r).as_deref(), Some("{}"));
        r.phases.scrub.add(SimDuration::from_micros(2));
        r.phases.gc_relocate.add(SimDuration::ZERO);
        assert_eq!(
            phases(&r).as_deref(),
            Some(concat!(
                r#"{"gc_relocate":{"total_ns":0,"count":1},"#,
                r#""scrub":{"total_ns":2000,"count":1}}"#
            ))
        );
    }

    #[test]
    fn json_export_is_deterministic_and_parses() {
        let mut r = report();
        r.phases.gc_erase.add(SimDuration::from_micros(3800));
        let window = zssd_metrics::METRICS_WINDOW;
        let text = r.to_json(window).to_string();
        assert_eq!(text, r.clone().to_json(window).to_string());
        let parsed = Json::parse(&text).expect("exporter emits valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("zssd-metrics-v1")
        );
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("host_writes"))
                .and_then(Json::as_u64),
            Some(100)
        );
        assert_eq!(
            parsed
                .get("phases")
                .and_then(|p| p.get("gc_erase"))
                .and_then(|p| p.get("total_ns"))
                .and_then(Json::as_u64),
            Some(3_800_000)
        );
        assert_eq!(
            parsed
                .get("latency")
                .and_then(|l| l.get("all"))
                .and_then(|l| l.get("p99_ns"))
                .and_then(Json::as_u64),
            Some(10_000)
        );
        assert!(parsed.get("events").and_then(Json::as_arr).is_some());
    }
}
