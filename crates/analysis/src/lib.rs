//! Trace-only characterization of garbage pages (§II of the paper).
//!
//! "Note that the studies throughout this section are done by
//! analyzing the traces and keeping track of accesses and updates
//! which result in creation of garbage pages, and reusing them." —
//! this crate is that machinery:
//!
//! * [`ValueLifecycles`] — per-value creation / death / rebirth
//!   accounting with interval statistics (Figs 2, 3, 4),
//! * [`infinite_reuse`] — the Fig 1 study: how many writes an
//!   *unlimited* dead-value buffer would short-circuit, with and
//!   without deduplication,
//! * [`PoolReuseSim`] — replay a trace against an MQ pool in any
//!   setting (Fig 5's LRU sweep, Fig 6's per-popularity miss
//!   breakdown, and MQ-vs-LRU ablations).
//!
//! # Examples
//!
//! ```
//! use zssd_analysis::{infinite_reuse, ValueLifecycles};
//! use zssd_trace::{SyntheticTrace, WorkloadProfile};
//!
//! let trace = SyntheticTrace::generate(&WorkloadProfile::mail().scaled(0.01), 5);
//! let reuse = infinite_reuse(trace.records(), false);
//! // Mail's redundancy means many writes are reusable from garbage.
//! assert!(reuse.reuse_fraction() > 0.3);
//!
//! let lc = ValueLifecycles::analyze(trace.records());
//! assert!(lc.fraction_with_deaths() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lifecycle;
mod reuse;

pub use lifecycle::{PopularityBin, ValueLifecycles, ValueStats};
pub use reuse::{infinite_reuse, InfiniteReuse, PoolReuseSim, PoolRunSummary};
