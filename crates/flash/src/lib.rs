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
//! Faults: every NAND command — [`FlashArray::read_page`],
//! [`program_next`](FlashArray::program_next),
//! [`copyback_page`](FlashArray::copyback_page) and
//! [`erase_block`](FlashArray::erase_block) — returns a [`Completion`]:
//! when it finished and whether an injected fault ([`FaultConfig`]) hit
//! it. [`FlashOpError`] is reserved for illegal commands, which are FTL
//! bugs.
//!
//! Observability: the array keeps counters ([`FlashStats`]) but
//! records no events; the FTL turns each command's [`Completion`] into
//! the run's event log (DESIGN.md §13).
//!
//! # Examples
//!
//! ```
//! use zssd_flash::{BlockId, FlashArray, FlashTiming, Geometry};
//! use zssd_types::SimTime;
//!
//! let geom = Geometry::new(1, 1, 1, 1, 4, 8)?;
//! let mut flash = FlashArray::new(geom, FlashTiming::paper_table1());
//! let (ppn, program) = flash.program_next(BlockId::new(0), SimTime::ZERO)?;
//! assert_eq!(ppn, geom.ppn_at(0, 0, 0, 0, 0, 0));
//! assert!(program.done > SimTime::ZERO && !program.faulted);
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

pub use array::{Completion, FlashArray, FlashOpError, FlashStats, WearSummary};
pub use block::{BlockInfo, PageState};
pub use fault::{FaultConfig, FaultKind, FaultPlan};
pub use geometry::{BlockId, Geometry, PageAddress};
pub use timing::FlashTiming;
