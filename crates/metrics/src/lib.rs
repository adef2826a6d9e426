//! Measurement utilities for the `zombie-ssd` simulator.
//!
//! The experiment harness reports exactly what the paper reports:
//! request counts, erase counts, mean latency, and tail (99th
//! percentile) latency, plus the CDF/share curves of the
//! characterization section. This crate provides those primitives:
//!
//! * [`reduction_pct`] — the relative reduction against Baseline that
//!   every evaluation figure plots,
//! * [`Timeline`] — request latencies counted per distinct value and
//!   aggregated online into [`METRICS_WINDOW`]s of simulated time,
//!   digested into exact mean/percentile [`LatencySummary`] values,
//! * [`Cdf`] — empirical cumulative distribution over integer samples
//!   (Fig 2-style "fraction of values with ≤ k invalidations"),
//! * [`ShareCurve`] — Lorenz-style "top x% of values account for y% of
//!   events" curves (Fig 3-style, values sorted by popularity).
//!
//! On top of those sits the run-wide observability layer (DESIGN.md
//! §13):
//!
//! * [`Event`] / [`TracedEvent`] — typed, timestamped,
//!   zero-cost-when-disabled event tracing through the simulator's hot
//!   paths,
//! * [`CounterRegistry`] — a deterministic name → value counter map,
//! * [`Json`] plus the `*_to_json` / `*_to_csv` exporters — dependency
//!   free, byte-deterministic export of reports, windowed time series,
//!   and event streams.
//!
//! # Examples
//!
//! ```
//! use zssd_metrics::Timeline;
//! use zssd_types::{SimDuration, SimTime};
//!
//! let mut timeline = Timeline::new();
//! for us in [100u64, 200, 300, 400] {
//!     timeline.record_write(SimTime::ZERO, SimDuration::from_micros(us));
//! }
//! let (write, _, _) = timeline.summaries();
//! assert_eq!(write.mean.as_nanos(), 250_000);
//! assert_eq!(write.p99.as_nanos(), 400_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod counter;
mod events;
mod export;
mod latency;
mod registry;
mod share;
mod timeline;

pub use cdf::Cdf;
pub use counter::reduction_pct;
pub use events::{Event, FaultEvent, TracedEvent};
pub use export::{
    events_to_csv, events_to_json, windows_to_csv, windows_to_json, Json, JsonParseError,
};
pub use latency::LatencySummary;
pub use registry::CounterRegistry;
pub use share::{ShareCurve, SharePoint};
pub use timeline::{Timeline, WindowStat, METRICS_WINDOW};
