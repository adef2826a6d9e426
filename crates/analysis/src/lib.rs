//! Trace-only characterization of garbage pages (§II of the paper).
//!
//! "Note that the studies throughout this section are done by
//! analyzing the traces and keeping track of accesses and updates
//! which result in creation of garbage pages, and reusing them." —
//! this crate is that machinery. One private content replay steps the
//! trace: a write finds a dead copy, a live copy or nothing of its
//! value, and an overwrite or a trim kills a copy. It counts by one of
//! two rules: under *every kill* each kill leaves a dead copy and a
//! write looks for one first; under *last reference* a copy dies only
//! with its value's last live reference and a write looks for a live
//! copy first (deduplication's order). Three views read it:
//!
//! * [`ValueLifecycles`] — per-value creation / death / rebirth
//!   accounting with interval statistics (Figs 2, 3, 4),
//! * [`infinite_reuse`] — the Fig 1 study: how many writes an
//!   *unlimited* dead-value buffer would short-circuit, with and
//!   without deduplication,
//! * [`PoolReuseSim`] — replay a trace against an MQ pool in any
//!   setting beside an every-kill replay (Fig 5's LRU sweep, Fig 6's
//!   per-popularity miss breakdown, and MQ-vs-LRU ablations).
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

mod content;
mod lifecycle;
mod reuse;

pub use lifecycle::{PopularityBin, ValueLifecycles, ValueStats};
pub use reuse::{infinite_reuse, InfiniteReuse, PoolReuseSim, PoolRunSummary};
