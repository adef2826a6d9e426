//! Dead-value pools — the core contribution of *Reviving Zombie Pages
//! on SSDs* (IISWC 2018).
//!
//! When an out-of-place update invalidates a flash page, its content
//! does not disappear: the page keeps holding a dead copy of the value
//! until GC erases the block. This crate implements the paper's
//! **dead-value pool**: a small buffer of `(content → garbage PPNs)`
//! entries kept in controller RAM. The paper keys an entry by the
//! content's MD5; the pools here key it by its
//! [`ValueId`](zssd_types::ValueId), which equal contents share. An
//! incoming write whose value hits the pool is *short-circuited* — the
//! matching garbage page is flipped back to valid and no NAND program
//! happens.
//!
//! [`DeadValuePool`] is an enum over the three pool designs:
//!
//! * [`MqDeadValuePool`] — the paper's design (§III-IV): the
//!   Multi-Queue algorithm with one LRU queue per popularity band,
//!   `log2(pop+1)` promotion, expiration-driven demotion, and
//!   on-demand eviction from the lowest queue. Its one-queue settings
//!   are the paper's two comparison points: [`MqConfig::lru`] is the
//!   §III-A strawman (recency only, no popularity) and
//!   [`MqConfig::ideal`] drops the capacity limit too, giving the
//!   *Ideal* upper bound of §V,
//! * [`AdaptiveMqPool`] — the MQ pool wrapped in a self-sizing
//!   capacity controller (the paper's §V future work),
//! * [`LxSsdPool`] — the prior-work baseline (Zhou et al., LX-SSD):
//!   recency of the *logical address* rather than of the value, and
//!   read accesses refresh recency too — precisely the two design
//!   choices the paper critiques.
//!
//! The pools are pure data structures over
//! [`WriteClock`](zssd_types::WriteClock) logical time; the FTL crate
//! wires them into the write path, and the GC layer queries
//! [`DeadValuePool::block_weight`] — the popularity each flash block's
//! tracked garbage holds, kept per block as the pool changes — to keep
//! popular zombies alive longer (§IV-D).
//!
//! # Examples
//!
//! ```
//! use zssd_core::{MqConfig, MqDeadValuePool};
//! use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};
//!
//! let mut pool = MqDeadValuePool::new(MqConfig::default(), 64); // 64-page blocks
//! let value = ValueId::new(7);
//! let mut clock = WriteClock::ZERO;
//!
//! // A page holding value 7 dies...
//! let now = clock.tick();
//! pool.insert_dead(value, Ppn::new(42), Lpn::new(3), PopularityDegree::new(2), now);
//!
//! // ...and a later write of value 7 revives it.
//! let now = clock.tick();
//! assert_eq!(pool.take_match(value, now), Some(Ppn::new(42)));
//! assert_eq!(pool.take_match(value, now), None); // consumed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod lxssd;
mod mq;
mod pool;
mod slots;
mod system;

pub use adaptive::{AdaptiveConfig, AdaptiveMqPool};
pub use lxssd::LxSsdPool;
pub use mq::{MqConfig, MqDeadValuePool};
pub use pool::{DeadValuePool, PoolStats};
pub use system::SystemKind;
