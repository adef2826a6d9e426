//! The flash translation layer and full-device model of `zombie-ssd`.
//!
//! This crate assembles the substrates into the device the paper
//! simulates (a modified SSDSim):
//!
//! * the mapping table — page-level LPN→PPN map carrying the paper's
//!   1-byte popularity counter per logical page (§IV-C, Fig 8),
//! * the allocator — striped active-block allocation across planes
//!   with per-plane free lists,
//! * GC victim selection — one order over a plane's blocks (more
//!   invalid pages, then less wear, then the higher block id). Greedy
//!   takes the top-ranked block; the paper's popularity-aware selector
//!   (§IV-D) scores a shortlist of the 12 top-ranked blocks by
//!   `255·invalid − w·Σpop(pooled garbage)`, so blocks holding popular
//!   garbage are erased later. The shortlist is part of the policy, not
//!   only a saving: a block outside it is never chosen, even when the
//!   penalty drops every listed block below that block's score. Set
//!   through
//!   [`SsdConfig::popularity_aware_gc`] and
//!   [`SsdConfig::gc_popularity_weight`],
//! * [`Ssd`] — the device: write/read service paths wiring the
//!   dead-value pool ([`zssd_core`]) and optional deduplication
//!   ([`zssd_dedup`]) into the FTL, garbage collection, and latency
//!   accounting on the [`zssd_flash`] timing model. One reverse-map
//!   record per physical page holds its content and owning logical
//!   pages; under dedup the owner list is the reference count, and a
//!   shared page dies only when its last owner leaves (§VII),
//! * [`SsdConfig`] — a builder with Table I defaults and scaled-down
//!   presets for experiments,
//! * [`RunReport`] — everything the paper's figures report: write /
//!   erase counts and mean / p99 latencies.
//!
//! # Examples
//!
//! ```
//! use zssd_core::SystemKind;
//! use zssd_ftl::{Ssd, SsdConfig};
//! use zssd_trace::{SyntheticTrace, WorkloadProfile};
//!
//! let profile = WorkloadProfile::mail().scaled(0.005);
//! let trace = SyntheticTrace::generate(&profile, 1);
//!
//! let baseline = Ssd::new(SsdConfig::for_footprint(profile.lpn_space))?
//!     .run_trace(trace.records())?;
//! let dvp = Ssd::new(
//!     SsdConfig::for_footprint(profile.lpn_space)
//!         .with_system(SystemKind::MqDvp { entries: 4096 }),
//! )?
//! .run_trace(trace.records())?;
//!
//! // Mail is redundant: recycling zombies must eliminate programs.
//! assert!(dvp.flash_programs < baseline.flash_programs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod config;
mod error;
mod gc;
mod mapping;
mod rmap;
mod ssd;
mod stats;

pub use config::SsdConfig;
pub use error::SsdError;
pub use ssd::Ssd;
pub use stats::{PhaseTotal, Phases, RunReport, SsdStats};
