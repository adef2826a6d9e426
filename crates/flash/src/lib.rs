//! NAND flash array model for the `zombie-ssd` simulator.
//!
//! This crate is the hardware substrate the paper assumes (its
//! evaluation modifies SSDSim; we rebuild the equivalent from scratch):
//!
//! * [`Geometry`] — channels × chips × dies × planes × blocks × pages,
//!   with flat [`Ppn`](zssd_types::Ppn) encoding/decoding,
//! * [`FlashTiming`] — operation latencies (Table I: read 75 µs,
//!   program 400 µs, erase 3.8 ms) plus ONFi-style channel transfer,
//! * [`FlashArray`] — per-page state (free/valid/invalid), sequential
//!   in-block programming, erase accounting, and a busy-until timing
//!   model per chip and per channel that converts page commands into
//!   completion times (reads and writes queue behind ongoing programs
//!   and erases, which is where the paper's tail latency comes from).
//!
//! The key operation for this paper is [`FlashArray::revive_page`]:
//! flipping an invalid ("zombie") page back to valid without a program
//! operation, which is how a dead-value-pool hit short-circuits a
//! write.
//!
//! Observability: the array keeps counters ([`FlashStats`]) but
//! records no events. Every operation reports its fault in its result
//! (an error or the read-retry flag), and the FTL turns those results
//! into the run's event log (DESIGN.md §13).
//!
//! # Examples
//!
//! ```
//! use zssd_flash::{FlashArray, FlashTiming, Geometry};
//! use zssd_types::SimTime;
//!
//! let geom = Geometry::new(1, 1, 1, 1, 4, 8)?;
//! let mut flash = FlashArray::new(geom, FlashTiming::paper_table1());
//! let ppn = geom.ppn_at(0, 0, 0, 0, 0, 0);
//! let done = flash.program_page(ppn, SimTime::ZERO)?;
//! assert!(done > SimTime::ZERO);
//! flash.invalidate_page(ppn)?;   // page dies (out-of-place update)
//! flash.revive_page(ppn)?;       // ...and is revived by a DVP hit
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod block;
mod fault;
mod geometry;
mod timing;

pub use array::{FlashArray, FlashOpError, FlashStats, WearSummary};
pub use block::{BlockInfo, PageState};
pub use fault::{FaultConfig, FaultKind, FaultPlan};
pub use geometry::{BlockId, Geometry, PageAddress};
pub use timing::FlashTiming;
