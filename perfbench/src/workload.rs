//! The four benchmark workloads, each one (trace profile × system) cell
//! pinned to a drive configuration that no environment variable can
//! change.

use zssd_core::{MqConfig, SystemKind};
use zssd_flash::{FaultConfig, FlashTiming};
use zssd_ftl::SsdConfig;
use zssd_metrics::Json;
use zssd_trace::{ArrivalProcess, WorkloadProfile};
use zssd_types::SimDuration;

/// Dead-value-pool entries and dedup index entries at full scale (the
/// paper's headline 200 K).
const TABLE_ENTRIES: usize = 200_000;

/// Constant simulated inter-arrival gap of every unstamped request.
const ARRIVAL_GAP: SimDuration = SimDuration::from_millis(1);

/// Every workload name, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = ["mail-dvp", "web-dvp", "mail-dvp-dedup", "hadoop-baseline"];

/// One benchmark workload: a synthetic trace profile replayed against
/// one system.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The workload's name (one of [`NAMES`]).
    pub name: &'static str,
    /// The trace generator's profile, already scaled.
    pub profile: WorkloadProfile,
    /// The simulated system.
    pub system: SystemKind,
    /// Dead-value-pool and dedup-index entries, already scaled.
    pub table_entries: usize,
}

impl Workload {
    /// The workload called `name`, with trace length, footprint and table
    /// sizes multiplied by `scale` (1.0 is the paper size; the self-test
    /// uses a small scale). `None` for an unknown name.
    pub fn named(name: &str, scale: f64) -> Option<Workload> {
        let entries = ((TABLE_ENTRIES as f64 * scale).round() as usize).max(16);
        let (name, profile, system) = match name {
            "mail-dvp" => (
                NAMES[0],
                WorkloadProfile::mail(),
                SystemKind::MqDvp { entries },
            ),
            "web-dvp" => (
                NAMES[1],
                WorkloadProfile::web(),
                SystemKind::MqDvp { entries },
            ),
            "mail-dvp-dedup" => (
                NAMES[2],
                WorkloadProfile::mail(),
                SystemKind::DvpPlusDedup { entries },
            ),
            "hadoop-baseline" => (
                NAMES[3],
                WorkloadProfile::hadoop().with_days(9),
                SystemKind::Baseline,
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            profile: profile.scaled(scale),
            system,
            table_entries: entries,
        })
    }

    /// The drive configuration. The geometry is the experiments' scaled
    /// drive for this footprint; every behavioural field is then set
    /// here, so neither `ZSSD_FAULTS` nor `ZSSD_ARRIVAL` reaches the
    /// workload.
    pub fn config(&self) -> SsdConfig {
        let mut config = SsdConfig::for_footprint(self.profile.lpn_space);
        config.system = self.system;
        config.timing = FlashTiming::paper_table1();
        config.arrival = ArrivalProcess::constant(ARRIVAL_GAP);
        config.faults = FaultConfig::none();
        config.mq = MqConfig::paper_default().with_capacity(self.table_entries);
        config.dedup_index_entries = self.table_entries;
        config.precondition = true;
        config.popularity_aware_gc = true;
        config.gc_popularity_weight = 0.5;
        config.gc_low_watermark = 2;
        config.min_over_provisioning = 0.15;
        config.verify_reads = true;
        config.trace_events = false;
        config
    }

    /// The workload's full definition, printed with every run so that a
    /// changed workload shows in the output.
    pub fn describe(&self, seed: u64) -> Json {
        let config = self.config();
        let g = config.geometry;
        let u = |v: u64| Json::U64(v);
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.name.into())),
            ("profile".into(), Json::Str(self.profile.name.clone())),
            ("seed".into(), u(seed)),
            ("requests".into(), u(self.profile.total_requests())),
            ("days".into(), u(self.profile.days.into())),
            ("lpn_space".into(), u(self.profile.lpn_space)),
            ("system".into(), Json::Str(config.system.to_string())),
            (
                "pool_entries".into(),
                config
                    .system
                    .pool_entries()
                    .map_or(Json::Null, |e| u(e as u64)),
            ),
            (
                "dedup_index_entries".into(),
                if config.system.uses_dedup() {
                    u(config.dedup_index_entries as u64)
                } else {
                    Json::Null
                },
            ),
            (
                "gc".into(),
                Json::Str(
                    if config.popularity_aware_gc && config.system.uses_pool() {
                        "popularity-aware"
                    } else {
                        "greedy"
                    }
                    .into(),
                ),
            ),
            (
                "geometry".into(),
                Json::Obj(vec![
                    ("channels".into(), u(g.channels().into())),
                    ("chips_per_channel".into(), u(g.chips_per_channel().into())),
                    ("dies_per_chip".into(), u(g.dies_per_chip().into())),
                    ("planes_per_die".into(), u(g.planes_per_die().into())),
                    ("blocks_per_plane".into(), u(g.blocks_per_plane().into())),
                    ("pages_per_block".into(), u(g.pages_per_block().into())),
                ]),
            ),
            ("logical_pages".into(), u(config.logical_pages)),
            (
                "arrival_gap_ns".into(),
                u(config.arrival.mean_interval().as_nanos()),
            ),
            ("faults".into(), Json::Str(config.faults.to_string())),
            ("precondition".into(), Json::Bool(config.precondition)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in NAMES {
            let workload = Workload::named(name, 0.01).expect("known workload");
            assert_eq!(workload.name, name);
            workload
                .config()
                .validate()
                .expect("pinned config is valid");
        }
        assert!(Workload::named("web", 1.0).is_none());
    }

    #[test]
    fn full_scale_matches_the_documented_cells() {
        let requests = |name| {
            Workload::named(name, 1.0)
                .expect("known workload")
                .profile
                .total_requests()
        };
        assert_eq!(requests("mail-dvp"), 3_000_000);
        assert_eq!(requests("web-dvp"), 1_800_000);
        assert_eq!(requests("mail-dvp-dedup"), 3_000_000);
        assert_eq!(requests("hadoop-baseline"), 2_700_000);
        let config = Workload::named("hadoop-baseline", 1.0)
            .expect("known workload")
            .config();
        assert_eq!(config.faults, FaultConfig::none());
        assert_eq!(config.arrival, ArrivalProcess::constant(ARRIVAL_GAP));
    }
}
