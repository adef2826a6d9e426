//! `zombie-ssd` — a reproduction of *Reviving Zombie Pages on SSDs*
//! (Elyasi, Sivasubramaniam, Kandemir, Das — IISWC 2018).
//!
//! This facade crate re-exports the whole workspace so examples,
//! integration tests, and downstream users need a single dependency:
//!
//! * [`types`] — shared identifiers (content is a `ValueId`), clocks,
//! * [`metrics`] — counters, latency recorders, CDF/share curves,
//! * [`flash`] — the NAND array model (geometry, timing, page state),
//! * [`ftl`] — the page-mapped FTL, GC, and the [`ftl::Ssd`] device,
//! * [`core`] — the dead-value pools (MQ, LRU, Ideal, LX-SSD),
//! * [`dedup`] — the CAFTL-style content-addressed store,
//! * [`trace`] — synthetic content traces (six paper workloads),
//! * [`analysis`] — value life-cycle characterization (Figs 1-6),
//! * [`oracle`] — the differential-testing harness: executable
//!   specification, trace fuzzer, shrinker, regression corpus.
//!
//! # Quickstart
//!
//! ```
//! use zombie_ssd::core::SystemKind;
//! use zombie_ssd::ftl::{Ssd, SsdConfig};
//! use zombie_ssd::trace::{SyntheticTrace, WorkloadProfile};
//!
//! // A small drive running the paper's proposal on a mail-like trace.
//! let profile = WorkloadProfile::mail().scaled(0.005);
//! let trace = SyntheticTrace::generate(&profile, 0xB10B);
//! let config = SsdConfig::for_footprint(profile.lpn_space)
//!     .with_system(SystemKind::MqDvp { entries: 4096 });
//! let report = Ssd::new(config)?.run_trace(trace.records())?;
//! assert!(report.host_programs <= report.host_writes);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use zssd_analysis as analysis;
pub use zssd_core as core;
pub use zssd_dedup as dedup;
pub use zssd_flash as flash;
pub use zssd_ftl as ftl;
pub use zssd_metrics as metrics;
pub use zssd_oracle as oracle;
pub use zssd_trace as trace;
pub use zssd_types as types;
