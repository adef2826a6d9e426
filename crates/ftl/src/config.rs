//! SSD configuration (Table I of the paper, plus scaled presets).

use zssd_core::{MqConfig, SystemKind};
use zssd_flash::{FaultConfig, FlashTiming, Geometry};
use zssd_trace::ArrivalProcess;
use zssd_types::{ConfigError, SimDuration};

use crate::mapping::MAX_PAGES;

/// Full configuration of a simulated drive.
///
/// The builder starts from sane defaults and is adjusted with the
/// `with_*` methods (non-consuming style is unnecessary here: configs
/// are tiny `Copy`-free values moved into [`Ssd::new`]).
///
/// Three presets exist:
///
/// * [`SsdConfig::paper_table1`] — the 1 TB, 8×8-chip drive of Table I
///   (for documentation and the `table1_config` harness; simulating it
///   would need gigabytes of mapping state),
/// * [`SsdConfig::for_footprint`] — a scaled drive sized for a given
///   logical footprint at the paper's 15% over-provisioning, keeping
///   the multi-channel/multi-plane topology (the experiment default),
/// * [`SsdConfig::small_test`] — a tiny drive for unit tests.
///
/// [`Ssd::new`]: crate::Ssd::new
///
/// # Examples
///
/// ```
/// use zssd_core::SystemKind;
/// use zssd_ftl::SsdConfig;
///
/// let config = SsdConfig::for_footprint(10_000)
///     .with_system(SystemKind::MqDvp { entries: 2_000 });
/// assert!(config.geometry.total_pages() as f64 >= 10_000.0 * 1.15);
/// ```
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Flash array dimensions.
    pub geometry: Geometry,
    /// Operation latencies.
    pub timing: FlashTiming,
    /// Which evaluated system to assemble (pool/dedup wiring).
    pub system: SystemKind,
    /// Host-visible capacity in 4 KB pages. Must leave at least
    /// `min_over_provisioning` of the physical pages spare.
    pub logical_pages: u64,
    /// Minimum spare-capacity fraction (Table I: OP = 15%).
    pub min_over_provisioning: f64,
    /// How unstamped requests are spaced on the wall clock. Records
    /// carrying their own [`TraceRecord::arrival`] timestamp override
    /// this per request.
    ///
    /// [`TraceRecord::arrival`]: zssd_trace::TraceRecord
    pub arrival: ArrivalProcess,
    /// Verify that every replayed read returns the content the trace
    /// recorded for it (a debug assertion; mismatches are counted in
    /// [`RunReport::read_mismatches`] either way).
    ///
    /// [`RunReport::read_mismatches`]: crate::RunReport
    pub verify_reads: bool,
    /// GC starts when a plane's free-block count drops below this.
    pub gc_low_watermark: u32,
    /// Use the §IV-D popularity-aware victim selector instead of
    /// greedy max-invalid. Only systems with a dead-value pool use it;
    /// with `gc_popularity_weight` 0 it is greedy.
    pub popularity_aware_gc: bool,
    /// Weight `w` of the popular-garbage penalty in the §IV-D score
    /// `255·invalid − w·Σpop`.
    pub gc_popularity_weight: f64,
    /// MQ parameters of the MQ-DVP and DVP+Dedup pools: they take the
    /// queue count and initial hottest interval from it, and their
    /// capacity from the [`SystemKind`] (its `capacity` goes unread).
    /// LRU-DVP, Ideal, LX-SSD and the adaptive pool ignore it.
    pub mq: MqConfig,
    /// RAM budget of the deduplication fingerprint index, in entries
    /// (CAFTL-style bounded index; the reverse map's per-page owner
    /// lists, which decide when a shared page dies, are not bounded by
    /// this).
    pub dedup_index_entries: usize,
    /// Fill every logical page with unique content before the trace
    /// (and reset clocks), so reads hit mapped pages and GC pressure is
    /// realistic from the first request.
    pub precondition: bool,
    /// Seeded NAND fault injection (program/erase/read failures). The
    /// default comes from the `ZSSD_FAULTS` environment knob and is
    /// [`FaultConfig::none`] when the knob is unset, which makes the
    /// drive byte-identical to a fault-free build.
    pub faults: FaultConfig,
    /// Record a typed, timestamped event per host request, revive,
    /// dedup hit, GC action, scrub, fault, and retirement (DESIGN.md
    /// §13). Off by default: the disabled path is a single branch per
    /// emission site and keeps the simulator's timing and counters
    /// byte-identical to a build without tracing.
    pub trace_events: bool,
}

impl SsdConfig {
    /// A drive built around a given geometry, with Table I timing and
    /// paper defaults, sized to 85% of physical capacity.
    pub fn new(geometry: Geometry) -> Self {
        let logical = (geometry.total_pages() as f64 * 0.85).floor() as u64;
        SsdConfig {
            geometry,
            timing: FlashTiming::paper_table1(),
            system: SystemKind::Baseline,
            logical_pages: logical.max(1),
            min_over_provisioning: 0.15,
            // Keeps the scaled 16-plane drive well below saturation
            // even for the write-heaviest traces: at baseline write
            // amplification (~3.5-4 NAND programs per host write,
            // each ~500 µs of chip time counting the program, the GC
            // read, and the amortized erase) over 8 chips, a 1 ms
            // mean inter-arrival gap leaves baseline utilization
            // around 20-25%, so latency reflects GC-burst queueing
            // rather than unbounded backlog.
            arrival: ArrivalProcess::constant(SimDuration::from_micros(1000)),
            verify_reads: true,
            gc_low_watermark: 2,
            popularity_aware_gc: true,
            gc_popularity_weight: 0.5,
            mq: MqConfig::paper_default(),
            dedup_index_entries: 200_000,
            precondition: true,
            faults: FaultConfig::from_env(),
            trace_events: false,
        }
    }

    /// The exact drive of Table I: 8 channels × 8 chips, 4 dies ×
    /// 2 planes, 256-page blocks, 1 TB, OP 15%. Useful for printing
    /// the configuration; running traces against it requires ~1 GB of
    /// mapping state.
    pub fn paper_table1() -> Self {
        // 1 TB / 4 KB = 268,435,456 pages over 8*8*4*2 = 512 planes
        // with 256-page blocks -> 2048 blocks per plane.
        let geometry = Geometry::new(8, 8, 4, 2, 2048, 256).expect("paper geometry is valid");
        SsdConfig::new(geometry)
    }

    /// A scaled drive whose usable capacity fits `logical_pages` at
    /// 15% over-provisioning, keeping a parallel topology (4 channels
    /// × 2 chips × 2 planes, 64-page blocks) so channel/chip queueing
    /// still happens.
    ///
    /// # Panics
    ///
    /// Panics if `logical_pages` is zero or the drive would need more
    /// than `u32::MAX` blocks per plane; see
    /// [`try_for_footprint`](SsdConfig::try_for_footprint).
    pub fn for_footprint(logical_pages: u64) -> Self {
        SsdConfig::try_for_footprint(logical_pages).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`for_footprint`](SsdConfig::for_footprint) for a footprint that
    /// comes from outside the program.
    ///
    /// # Errors
    ///
    /// Returns an error if `logical_pages` is zero or the drive would
    /// need more than `u32::MAX` blocks per plane. A drive it builds
    /// may still fail [`validate`](SsdConfig::validate): one of more
    /// than `u32::MAX` pages is built but not valid.
    pub fn try_for_footprint(logical_pages: u64) -> Result<Self, ConfigError> {
        if logical_pages == 0 {
            return Err(ConfigError::new("logical capacity must be nonzero"));
        }
        let channels = 4u32;
        let chips = 2u32;
        let dies = 1u32;
        let planes = 2u32;
        let pages_per_block = 64u32;
        let plane_count = u64::from(channels * chips * dies * planes);
        let physical_target = (logical_pages as f64 / 0.85).ceil() as u64;
        let blocks = physical_target
            .div_ceil(plane_count * u64::from(pages_per_block))
            .max(16);
        let blocks_per_plane = u32::try_from(blocks).map_err(|_| {
            ConfigError::new(format!(
                "a footprint of {logical_pages} pages needs {blocks} blocks per plane, \
                 more than {} fit",
                u32::MAX
            ))
        })?;
        let geometry = Geometry::new(
            channels,
            chips,
            dies,
            planes,
            blocks_per_plane,
            pages_per_block,
        )
        .expect("scaled geometry is valid");
        let mut config = SsdConfig::new(geometry);
        config.logical_pages = logical_pages;
        Ok(config)
    }

    /// A tiny single-channel drive for unit tests: 2 planes × 8 blocks
    /// × 16 pages (256 physical pages), 192 logical pages.
    pub fn small_test() -> Self {
        let geometry = Geometry::new(1, 1, 1, 2, 8, 16).expect("test geometry is valid");
        let mut config = SsdConfig::new(geometry);
        config.logical_pages = 192;
        config
    }

    /// Selects the evaluated system.
    pub fn with_system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Overrides the host inter-arrival gap with a constant-interval
    /// process (sugar for `with_arrival(ArrivalProcess::constant(..))`,
    /// kept because most tests and ablations want exactly this).
    pub fn with_arrival_interval(self, interval: SimDuration) -> Self {
        self.with_arrival(ArrivalProcess::constant(interval))
    }

    /// Overrides the arrival process for unstamped requests.
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Enables or disables read-verification debug assertions (the
    /// mismatch counter stays active regardless).
    pub fn with_verify_reads(mut self, verify: bool) -> Self {
        self.verify_reads = verify;
        self
    }

    /// Overrides the flash timing (e.g. hash-latency ablations).
    pub fn with_timing(mut self, timing: FlashTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Enables or disables the popularity-aware GC victim selector.
    pub fn with_popularity_aware_gc(mut self, enabled: bool) -> Self {
        self.popularity_aware_gc = enabled;
        self
    }

    /// Overrides the number of MQ queues (ablation).
    pub fn with_mq_queues(mut self, queues: usize) -> Self {
        self.mq = self.mq.with_queues(queues);
        self
    }

    /// Overrides the dedup fingerprint-index budget (entries).
    pub fn with_dedup_index_entries(mut self, entries: usize) -> Self {
        self.dedup_index_entries = entries;
        self
    }

    /// Skips preconditioning (unit tests that want a fresh drive).
    pub fn without_precondition(mut self) -> Self {
        self.precondition = false;
        self
    }

    /// Enables or disables run-wide event tracing. The trace is
    /// surfaced as [`RunReport::events`] and through the
    /// `zssd events` CLI subcommand.
    ///
    /// [`RunReport::events`]: crate::RunReport
    pub fn with_event_tracing(mut self, trace: bool) -> Self {
        self.trace_events = trace;
        self
    }

    /// Overrides the fault-injection configuration (replacing whatever
    /// the `ZSSD_FAULTS` environment knob supplied). Pass
    /// [`FaultConfig::none`] to pin a drive fault-free regardless of
    /// the environment.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The spare-capacity fraction this configuration leaves.
    pub fn over_provisioning(&self) -> f64 {
        let total = self.geometry.total_pages() as f64;
        (total - self.logical_pages as f64) / total
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error if the logical capacity is zero, exceeds
    /// physical capacity, or leaves less spare space than
    /// `min_over_provisioning`, if the drive has more than `u32::MAX`
    /// pages (the page tables store 32-bit page numbers), if GC
    /// parameters are degenerate, or if a fixed-size dead-value pool
    /// has no entries.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.logical_pages == 0 {
            return Err(ConfigError::new("logical capacity must be nonzero"));
        }
        if self.logical_pages > self.geometry.total_pages() {
            return Err(ConfigError::new(format!(
                "logical capacity {} exceeds physical capacity {}",
                self.logical_pages,
                self.geometry.total_pages()
            )));
        }
        // Logical pages never outnumber physical ones (checked above),
        // so this bounds both page tables.
        if self.geometry.total_pages() > MAX_PAGES {
            return Err(ConfigError::new(format!(
                "physical capacity {} pages exceeds the {MAX_PAGES} that 32-bit page numbers allow",
                self.geometry.total_pages()
            )));
        }
        if self.over_provisioning() + 1e-9 < self.min_over_provisioning {
            return Err(ConfigError::new(format!(
                "over-provisioning {:.1}% below required {:.1}%",
                self.over_provisioning() * 100.0,
                self.min_over_provisioning * 100.0
            )));
        }
        if self.gc_low_watermark == 0 {
            return Err(ConfigError::new("gc_low_watermark must be at least 1"));
        }
        if u64::from(self.gc_low_watermark) + 1 >= u64::from(self.geometry.blocks_per_plane()) {
            return Err(ConfigError::new(
                "gc_low_watermark must leave room for an active block per plane",
            ));
        }
        if !self.gc_popularity_weight.is_finite() || self.gc_popularity_weight < 0.0 {
            return Err(ConfigError::new("gc_popularity_weight must be >= 0"));
        }
        if self.system.pool_entries() == Some(0) {
            return Err(ConfigError::new(
                "dead-value pool capacity must be at least one entry",
            ));
        }
        if self.dedup_index_entries == 0 && self.system.uses_dedup() {
            return Err(ConfigError::new(
                "dedup_index_entries must be nonzero for deduplicating systems",
            ));
        }
        self.arrival.validate().map_err(ConfigError::new)?;
        self.faults.validate().map_err(ConfigError::new)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_is_one_terabyte() {
        let c = SsdConfig::paper_table1();
        let bytes = c.geometry.total_pages() * 4096;
        assert_eq!(bytes, 1 << 40);
        assert_eq!(c.geometry.channels(), 8);
        assert_eq!(c.geometry.chips_per_channel(), 8);
        assert_eq!(c.geometry.pages_per_block(), 256);
        assert!((c.over_provisioning() - 0.15).abs() < 0.01);
        c.validate().expect("paper config valid");
    }

    #[test]
    fn for_footprint_reserves_op() {
        for pages in [100u64, 10_000, 80_000] {
            let c = SsdConfig::for_footprint(pages);
            assert!(c.over_provisioning() >= 0.15 - 1e-9, "OP for {pages}");
            c.validate().expect("valid");
        }
    }

    #[test]
    fn footprints_beyond_u32_blocks_per_plane_are_errors() {
        let err = SsdConfig::try_for_footprint(u64::MAX).expect_err("wraps no block count");
        assert!(err.to_string().contains("blocks per plane"), "{err}");
        assert!(SsdConfig::try_for_footprint(0).is_err());
        // The largest footprint whose plane fits u32::MAX blocks builds,
        // and fails validation on its page count instead.
        let limit = u64::from(u32::MAX) * 16 * 64 * 85 / 100;
        let c = SsdConfig::try_for_footprint(limit).expect("fits u32 blocks per plane");
        assert_eq!(c.geometry.blocks_per_plane(), u32::MAX);
        let err = c.validate().expect_err("too many pages");
        assert!(err.to_string().contains("32-bit page numbers"), "{err}");
        assert!(SsdConfig::try_for_footprint(limit * 2).is_err());
        assert_eq!(
            SsdConfig::try_for_footprint(10_000)
                .expect("small")
                .geometry,
            SsdConfig::for_footprint(10_000).geometry
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn a_zero_footprint_panics() {
        let _ = SsdConfig::for_footprint(0);
    }

    #[test]
    fn validation_catches_overcommit() {
        let mut c = SsdConfig::small_test();
        c.logical_pages = c.geometry.total_pages(); // zero OP
        assert!(c.validate().is_err());
        c.logical_pages = c.geometry.total_pages() + 1;
        assert!(c.validate().is_err());
        c.logical_pages = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_drives_beyond_32_bit_page_numbers() {
        // 2^24 blocks of 256 pages: 2^32 pages. Building the geometry
        // allocates nothing, and validation fails before anything does.
        let huge = Geometry::new(1, 1, 1, 1, 1 << 24, 256).expect("geometry");
        assert_eq!(huge.total_pages(), 1 << 32);
        let mut c = SsdConfig::small_test();
        c.geometry = huge;
        c.logical_pages = 1 << 31; // 50% spare: only the page count is wrong
        let err = c.validate().expect_err("2^32 pages do not fit");
        assert!(err.to_string().contains("32-bit page numbers"), "{err}");
        c.logical_pages = u64::from(u32::MAX);
        assert!(c.validate().is_err(), "nor do 2^32 - 1 logical pages on it");
        assert!(matches!(
            crate::Ssd::new(c),
            Err(crate::SsdError::Config(_))
        ));
        // One block fewer fits: 2^32 - 256 pages.
        let mut c = SsdConfig::small_test();
        c.geometry = Geometry::new(1, 1, 1, 1, (1 << 24) - 1, 256).expect("geometry");
        c.logical_pages = 1 << 31;
        c.validate().expect("fits 32-bit page numbers");
        assert_eq!(SsdConfig::paper_table1().geometry.total_pages(), 1 << 28);
        SsdConfig::paper_table1().validate().expect("Table I fits");
    }

    #[test]
    fn validation_catches_degenerate_gc() {
        let mut c = SsdConfig::small_test();
        c.gc_low_watermark = 0;
        assert!(c.validate().is_err());
        let mut c = SsdConfig::small_test();
        c.gc_low_watermark = c.geometry.blocks_per_plane();
        assert!(c.validate().is_err());
        let mut c = SsdConfig::small_test();
        c.gc_popularity_weight = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_entry_pools_are_rejected() {
        for system in [
            SystemKind::MqDvp { entries: 0 },
            SystemKind::LruDvp { entries: 0 },
            SystemKind::DvpPlusDedup { entries: 0 },
            SystemKind::LxSsd { entries: 0 },
        ] {
            let c = SsdConfig::small_test().with_system(system);
            let err = c.validate().expect_err("an empty pool is rejected");
            assert!(err.to_string().contains("at least one entry"), "{err}");
            assert!(matches!(
                crate::Ssd::new(c),
                Err(crate::SsdError::Config(_))
            ));
        }
        let c = SsdConfig::small_test().with_system(SystemKind::MqDvp { entries: 1 });
        c.validate().expect("a one-entry pool is valid");
    }

    #[test]
    fn dedup_index_budget_is_validated_for_dedup_systems() {
        let mut c = SsdConfig::small_test().with_system(SystemKind::Dedup);
        c.dedup_index_entries = 0;
        assert!(c.validate().is_err());
        // Non-dedup systems ignore the budget.
        let mut c = SsdConfig::small_test();
        c.dedup_index_entries = 0;
        c.validate().expect("baseline ignores dedup budget");
        let c = SsdConfig::small_test().with_dedup_index_entries(77);
        assert_eq!(c.dedup_index_entries, 77);
    }

    #[test]
    fn arrival_builders_and_validation() {
        let c = SsdConfig::small_test().with_arrival_interval(SimDuration::from_micros(10));
        assert_eq!(
            c.arrival,
            ArrivalProcess::constant(SimDuration::from_micros(10))
        );
        let c = SsdConfig::small_test()
            .with_arrival(ArrivalProcess::poisson(SimDuration::from_micros(500), 3));
        c.validate().expect("poisson config valid");
        let mut c = SsdConfig::small_test();
        c.arrival = ArrivalProcess::poisson(SimDuration::ZERO, 0);
        assert!(c.validate().is_err(), "degenerate arrivals rejected");
        assert!(SsdConfig::small_test().verify_reads);
        assert!(
            !SsdConfig::small_test()
                .with_verify_reads(false)
                .verify_reads
        );
    }

    #[test]
    fn event_tracing_defaults_off() {
        assert!(!SsdConfig::small_test().trace_events);
        assert!(
            SsdConfig::small_test()
                .with_event_tracing(true)
                .trace_events
        );
    }

    #[test]
    fn small_test_is_valid() {
        SsdConfig::small_test().validate().expect("valid");
        SsdConfig::small_test()
            .without_precondition()
            .validate()
            .expect("valid");
    }
}
