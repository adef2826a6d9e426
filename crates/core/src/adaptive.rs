//! Self-sizing MQ pool — the paper's stated future work.
//!
//! "In the future, we are planning to add more capabilities to our
//! design, such as dynamically tuning the total capacity for MQ, in
//! order to adapt itself to any changes in the workload." (§V
//! footnote 5.)
//!
//! [`AdaptiveMqPool`] wraps [`MqDeadValuePool`] and re-sizes it at
//! epoch boundaries (every `epoch` write events) with a simple
//! multiplicative-increase / multiplicative-decrease controller:
//!
//! * if the epoch saw capacity pressure (evictions) *and* a healthy
//!   hit ratio, the pool grows — the workload rewards more entries;
//! * if the hit ratio stayed poor despite the current size, the pool
//!   shrinks — RAM is better returned to the rest of the controller.

use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};

use crate::mq::{MqConfig, MqDeadValuePool};
use crate::pool::PoolStats;

/// Configuration of the [`AdaptiveMqPool`] controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Smallest allowed capacity (entries).
    pub min_entries: usize,
    /// Largest allowed capacity (entries).
    pub max_entries: usize,
    /// Initial capacity (entries).
    pub initial_entries: usize,
    /// Write events (lookups + insertions) per adaptation epoch.
    pub epoch: u64,
    /// Grow/shrink factor applied at epoch boundaries.
    pub factor: f64,
    /// Hit ratio above which pressure triggers growth.
    pub grow_threshold: f64,
    /// Hit ratio below which the pool shrinks.
    pub shrink_threshold: f64,
}

impl AdaptiveConfig {
    /// Defaults spanning the paper's sweep: 50 K–400 K entries around
    /// the 200 K operating point.
    pub fn paper_default() -> Self {
        AdaptiveConfig {
            min_entries: 50_000,
            max_entries: 400_000,
            initial_entries: 200_000,
            epoch: 100_000,
            factor: 1.5,
            grow_threshold: 0.05,
            shrink_threshold: 0.01,
        }
    }

    /// Validates the controller bounds.
    fn checked(self) -> Self {
        assert!(self.min_entries > 0, "min_entries must be nonzero");
        assert!(
            self.min_entries <= self.initial_entries && self.initial_entries <= self.max_entries,
            "need min <= initial <= max"
        );
        assert!(self.epoch > 0, "epoch must be nonzero");
        assert!(self.factor > 1.0, "factor must exceed 1");
        assert!(
            self.shrink_threshold <= self.grow_threshold,
            "shrink threshold must not exceed grow threshold"
        );
        self
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::paper_default()
    }
}

/// An [`MqDeadValuePool`] that re-sizes itself per workload phase.
///
/// # Examples
///
/// ```
/// use zssd_core::{AdaptiveConfig, AdaptiveMqPool, DeadValuePool};
///
/// let pool = AdaptiveMqPool::new(
///     AdaptiveConfig {
///         min_entries: 100,
///         max_entries: 1000,
///         initial_entries: 200,
///         epoch: 50,
///         ..AdaptiveConfig::paper_default()
///     },
///     64,
/// );
/// assert_eq!(pool.current_capacity(), 200);
/// assert_eq!(DeadValuePool::Adaptive(pool).capacity(), Some(200));
/// ```
#[derive(Debug)]
pub struct AdaptiveMqPool {
    cfg: AdaptiveConfig,
    inner: MqDeadValuePool,
    events_in_epoch: u64,
    epoch_hits: u64,
    epoch_lookups: u64,
    epoch_evictions_start: u64,
    resizes: u64,
}

impl AdaptiveMqPool {
    /// Creates the pool at its initial capacity, for a device whose
    /// flash blocks hold `pages_per_block` pages.
    ///
    /// # Panics
    ///
    /// Panics if the configuration bounds are inconsistent or
    /// `pages_per_block` is zero.
    pub fn new(cfg: AdaptiveConfig, pages_per_block: u32) -> Self {
        let cfg = cfg.checked();
        AdaptiveMqPool {
            inner: MqDeadValuePool::new(
                MqConfig::paper_default().with_capacity(cfg.initial_entries),
                pages_per_block,
            ),
            events_in_epoch: 0,
            epoch_hits: 0,
            epoch_lookups: 0,
            epoch_evictions_start: 0,
            resizes: 0,
            cfg,
        }
    }

    /// Current capacity in entries.
    pub fn current_capacity(&self) -> usize {
        self.inner.config().capacity
    }

    /// Number of capacity changes performed so far.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    fn on_event(&mut self) {
        self.events_in_epoch += 1;
        if self.events_in_epoch < self.cfg.epoch {
            return;
        }
        let hit_ratio = if self.epoch_lookups == 0 {
            0.0
        } else {
            self.epoch_hits as f64 / self.epoch_lookups as f64
        };
        let pressured = self.inner.stats().evictions > self.epoch_evictions_start;
        let current = self.current_capacity();
        let target = if pressured && hit_ratio >= self.cfg.grow_threshold {
            ((current as f64 * self.cfg.factor) as usize).min(self.cfg.max_entries)
        } else if hit_ratio < self.cfg.shrink_threshold {
            ((current as f64 / self.cfg.factor) as usize).max(self.cfg.min_entries)
        } else {
            current
        };
        if target != current {
            self.inner.set_capacity(target);
            self.resizes += 1;
        }
        self.events_in_epoch = 0;
        self.epoch_hits = 0;
        self.epoch_lookups = 0;
        self.epoch_evictions_start = self.inner.stats().evictions;
    }

    pub(crate) fn take_match(&mut self, value: ValueId, now: WriteClock) -> Option<Ppn> {
        let result = self.inner.take_match(value, now);
        self.epoch_lookups += 1;
        if result.is_some() {
            self.epoch_hits += 1;
        }
        self.on_event();
        result
    }

    pub(crate) fn insert_dead(
        &mut self,
        value: ValueId,
        ppn: Ppn,
        lpn: Lpn,
        pop: PopularityDegree,
        now: WriteClock,
    ) {
        self.inner.insert_dead(value, ppn, lpn, pop, now);
        self.on_event();
    }

    pub(crate) fn remove_ppn(&mut self, ppn: Ppn) {
        self.inner.remove_ppn(ppn);
    }

    pub(crate) fn garbage_weight(&self, ppn: Ppn) -> Option<PopularityDegree> {
        self.inner.garbage_weight(ppn)
    }

    pub(crate) fn block_weight(&self, block: u64) -> u32 {
        self.inner.block_weight(block)
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.len()
    }

    pub(crate) fn tracked_ppns(&self) -> usize {
        self.inner.tracked_ppns()
    }

    pub(crate) fn capacity(&self) -> Option<usize> {
        Some(self.current_capacity())
    }

    pub(crate) fn stats(&self) -> PoolStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            min_entries: 4,
            max_entries: 64,
            initial_entries: 8,
            epoch: 16,
            factor: 2.0,
            grow_threshold: 0.05,
            shrink_threshold: 0.01,
        }
    }

    #[test]
    fn grows_under_pressure_with_hits() {
        let mut pool = AdaptiveMqPool::new(cfg(), 4);
        let mut clock = WriteClock::ZERO;
        // Four hot values that MQ retains (steady hits) plus a churn
        // stream of cold uniques (steady evictions): pressure + hits
        // is the grow signal.
        let mut cold = 1_000u64;
        for round in 0..60u64 {
            for v in 0..4u64 {
                let now = clock.tick();
                let _ = pool.take_match(ValueId::new(v), now);
                // Two dead copies per round: the second access promotes
                // the entry out of Q0, so the cold flood below cannot
                // evict it (that is MQ working as designed).
                pool.insert_dead(
                    ValueId::new(v),
                    Ppn::new(round * 100 + v),
                    Lpn::new(v),
                    PopularityDegree::new(7),
                    now,
                );
                pool.insert_dead(
                    ValueId::new(v),
                    Ppn::new(round * 100 + 50 + v),
                    Lpn::new(v),
                    PopularityDegree::new(7),
                    now,
                );
            }
            for _ in 0..8 {
                cold += 1;
                let now = clock.tick();
                pool.insert_dead(
                    ValueId::new(cold),
                    Ppn::new(cold + 1_000_000),
                    Lpn::new(cold),
                    PopularityDegree::ZERO,
                    now,
                );
            }
        }
        assert!(
            pool.current_capacity() > 8,
            "pressured pool must grow (capacity {})",
            pool.current_capacity()
        );
        assert!(pool.resizes() > 0);
    }

    #[test]
    fn shrinks_when_hits_dry_up() {
        let mut pool = AdaptiveMqPool::new(
            AdaptiveConfig {
                initial_entries: 64,
                ..cfg()
            },
            4,
        );
        let mut clock = WriteClock::ZERO;
        // Unique values only: zero hits forever.
        for v in 0..500u64 {
            let now = clock.tick();
            let _ = pool.take_match(ValueId::new(1_000_000 + v), now);
            pool.insert_dead(
                ValueId::new(v),
                Ppn::new(v),
                Lpn::new(v),
                PopularityDegree::ZERO,
                now,
            );
        }
        assert_eq!(pool.current_capacity(), 4, "no-hit pool shrinks to min");
    }

    #[test]
    fn capacity_stays_within_bounds() {
        let mut pool = AdaptiveMqPool::new(cfg(), 4);
        let mut clock = WriteClock::ZERO;
        for round in 0..200u64 {
            for v in 0..30u64 {
                let now = clock.tick();
                let _ = pool.take_match(ValueId::new(v), now);
                pool.insert_dead(
                    ValueId::new(v),
                    Ppn::new(round * 1000 + v),
                    Lpn::new(v),
                    PopularityDegree::new(5),
                    now,
                );
                let cap = pool.current_capacity();
                assert!((4..=64).contains(&cap));
            }
        }
        assert_eq!(pool.capacity(), Some(pool.current_capacity()));
    }

    #[test]
    fn delegates_pool_behaviour() {
        let mut pool = AdaptiveMqPool::new(cfg(), 4);
        pool.insert_dead(
            ValueId::new(1),
            Ppn::new(1),
            Lpn::new(1),
            PopularityDegree::new(2),
            WriteClock::from_count(1),
        );
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.tracked_ppns(), 1);
        assert_eq!(
            pool.garbage_weight(Ppn::new(1)),
            Some(PopularityDegree::new(2))
        );
        pool.remove_ppn(Ppn::new(1));
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.stats().gc_removals, 1);
    }

    #[test]
    #[should_panic(expected = "min <= initial <= max")]
    fn bad_bounds_rejected() {
        let _ = AdaptiveMqPool::new(
            AdaptiveConfig {
                min_entries: 10,
                initial_entries: 5,
                ..cfg()
            },
            4,
        );
    }
}
