//! Shared vocabulary types for the `zombie-ssd` simulator.
//!
//! This crate defines the small, copyable identifier and quantity types
//! that every other crate in the workspace speaks:
//!
//! * [`Lpn`] / [`Ppn`] — logical and physical page numbers
//!   ([C-NEWTYPE]-style static distinctions so the two address spaces
//!   can never be confused),
//! * [`ValueId`] — the identity of a 4 KB content chunk: equal
//!   contents carry equal ids, so the id is the exact key the paper's
//!   drive approximates with an MD5 digest of the page,
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated
//!   wall-clock time,
//! * [`WriteClock`] — the paper's *logical* clock: "the ith incoming
//!   write request has a timestamp of i" (§IV-A),
//! * [`PopularityDegree`] — the saturating 1-byte per-LPN write counter
//!   the paper adds to the mapping table (§IV-C),
//! * [`FxHashMap`] / [`FxHashSet`] — hash containers using the fast,
//!   deterministic Fx hasher for the simulator's hot lookup structures
//!   (dead-value pools, dedup index, trace content map),
//! * [`Slab`] / [`ListHandle`] — intrusive LRU lists over a slab, shared
//!   by the dead-value pools and the dedup index.
//!
//! # Examples
//!
//! ```
//! use zssd_types::{Lpn, PopularityDegree, ValueId};
//!
//! let value = ValueId::new(42);
//! assert_eq!(value, ValueId::new(42));
//! assert_ne!(value, ValueId::new(43));
//!
//! let mut pop = PopularityDegree::ZERO;
//! pop.increment();
//! assert_eq!(pop.get(), 1);
//! assert_eq!(Lpn::new(7).index(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fx;
mod ids;
mod intrusive;
mod mix;
mod popularity;
mod time;

pub use error::{AddressError, ConfigError};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{Lpn, Ppn, ValueId};
pub use intrusive::{ListHandle, Slab, SlotId};
pub use mix::splitmix64;
pub use popularity::PopularityDegree;
pub use time::{SimDuration, SimTime, WriteClock};
