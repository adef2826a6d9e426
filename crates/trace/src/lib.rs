//! Content traces for the `zombie-ssd` simulator.
//!
//! The paper evaluates on six block traces (FIU: **web**, **home**,
//! **mail**; OSU: **hadoop**, **trans**, **desktop**) whose records
//! carry the MD5 of every 4 KB request. Those traces are not
//! redistributable, so this crate generates *synthetic equivalents*:
//! each [`WorkloadProfile`] is tuned to reproduce the aggregates the
//! paper reports in Table II — write ratio, the percentage of write
//! requests carrying unique content, and the percentage of read
//! requests reading unique content — plus Zipf-skewed value popularity,
//! which is the property every mechanism in the paper exploits.
//!
//! * [`TraceRecord`] — one 4 KB request: ordinal, op, LPN, value id,
//! * [`WorkloadProfile`] — the knobs + six paper presets,
//! * [`SyntheticTrace`] — multi-day generation (`m1`, `m2`, … in the
//!   paper's figures are consecutive days of the same server),
//! * [`TraceStats`] — measures the Table II aggregates of any record
//!   slice so the calibration is auditable,
//! * [`ArrivalProcess`] — arrival-timestamp generators (constant,
//!   Poisson, bursty on/off) for stamping when each request hits the
//!   device,
//! * [`write_text`]/[`parse_text`] — an FIU-like text format.
//!
//! # Examples
//!
//! ```
//! use zssd_trace::{SyntheticTrace, TraceStats, WorkloadProfile};
//!
//! let profile = WorkloadProfile::mail().scaled(0.02);
//! let trace = SyntheticTrace::generate(&profile, 42);
//! let stats = TraceStats::measure(trace.records());
//! // Mail is write-heavy with very low write uniqueness (Table II:
//! // WR 77%, unique writes 8%).
//! assert!(stats.write_ratio() > 0.7);
//! assert!(stats.unique_write_frac() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod profile;
mod record;
mod stats;
mod synth;
mod text;
mod zipf;

pub use arrival::{ArrivalProcess, ArrivalTimes, DEFAULT_BURST_LEN};
pub use profile::{ProfileError, WorkloadProfile};
pub use record::{initial_value_of, IoOp, TraceRecord, INITIAL_VALUE_BASE};
pub use stats::TraceStats;
pub use synth::SyntheticTrace;
pub use text::{parse_text, read_file, write_file, write_text, TraceParseError};
pub use zipf::ZipfSampler;
