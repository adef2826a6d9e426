//! The [`DeadValuePool`] type and shared statistics.

use core::fmt;

use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};

use crate::{AdaptiveConfig, AdaptiveMqPool, LxSsdPool, MqConfig, MqDeadValuePool, SystemKind};

/// Counters shared by every pool design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Write lookups that found (and consumed) a matching garbage page.
    pub hits: u64,
    /// Write lookups that found nothing.
    pub misses: u64,
    /// Dead pages offered to the pool.
    pub insertions: u64,
    /// Entries evicted because the pool was full.
    pub evictions: u64,
    /// PPNs dropped because GC erased them.
    pub gc_removals: u64,
    /// MQ promotions between queues (0 for non-MQ pools).
    pub promotions: u64,
    /// MQ demotions between queues (0 for non-MQ pools).
    pub demotions: u64,
}

impl PoolStats {
    /// Hit ratio over all lookups, 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} ({:.1}%) ins={} evict={} gc={} promo={} demo={}",
            self.hits,
            self.misses,
            self.hit_ratio() * 100.0,
            self.insertions,
            self.evictions,
            self.gc_removals,
            self.promotions,
            self.demotions
        )
    }
}

/// A buffer of dead values: the contents of garbage pages and the
/// physical pages that still hold them. One variant per pool design;
/// each method dispatches to the variant's own.
///
/// All methods take the paper's logical clock (`now` = number of write
/// requests issued so far, §IV-A); the pools use it for recency,
/// expiration, and interval bookkeeping.
///
/// # Contract
///
/// * After `insert_dead(value, ppn, ..)` and until `ppn` is returned by
///   [`take_match`](DeadValuePool::take_match) or dropped by
///   [`remove_ppn`](DeadValuePool::remove_ppn) or eviction, the pool
///   *may* return `ppn` from a lookup of `value`.
/// * A PPN is returned by `take_match` **at most once** — the FTL
///   revives it, so it is no longer garbage.
/// * [`remove_ppn`](DeadValuePool::remove_ppn) must be called when GC
///   erases a tracked page, and is idempotent.
///
/// # Examples
///
/// ```
/// use zssd_core::{DeadValuePool, MqConfig, SystemKind};
///
/// let pool = DeadValuePool::for_system(SystemKind::LruDvp { entries: 64 }, MqConfig::default(), 64);
/// assert_eq!(pool.map(|p| p.capacity()), Some(Some(64)));
/// // Baseline and Dedup recycle nothing, so they get no pool at all.
/// assert!(DeadValuePool::for_system(SystemKind::Baseline, MqConfig::default(), 64).is_none());
/// ```
#[derive(Debug)]
pub enum DeadValuePool {
    /// The paper's MQ pool, including its LRU and Ideal settings.
    Mq(MqDeadValuePool),
    /// The MQ pool under the self-sizing controller.
    Adaptive(AdaptiveMqPool),
    /// The LX-SSD prior-work baseline.
    LxSsd(LxSsdPool),
}

/// Evaluates `$body` with `$pool` bound to whichever pool `$self` holds.
macro_rules! each {
    ($self:expr, $pool:ident => $body:expr) => {
        match $self {
            DeadValuePool::Mq($pool) => $body,
            DeadValuePool::Adaptive($pool) => $body,
            DeadValuePool::LxSsd($pool) => $body,
        }
    };
}

impl DeadValuePool {
    /// The pool `system` runs with, or `None` for the systems that
    /// recycle nothing (Baseline, Dedup). `mq` is the MQ policy for
    /// the MQ-DVP and DVP+Dedup systems, which set its capacity.
    /// `pages_per_block` is the device's block size, the unit of
    /// [`block_weight`](DeadValuePool::block_weight).
    pub fn for_system(system: SystemKind, mq: MqConfig, pages_per_block: u32) -> Option<Self> {
        let ppb = pages_per_block;
        Some(match system {
            SystemKind::Baseline | SystemKind::Dedup => return None,
            SystemKind::MqDvp { entries } | SystemKind::DvpPlusDedup { entries } => {
                Self::Mq(MqDeadValuePool::new(mq.with_capacity(entries), ppb))
            }
            SystemKind::LruDvp { entries } => {
                Self::Mq(MqDeadValuePool::new(MqConfig::lru(entries), ppb))
            }
            SystemKind::Ideal => Self::Mq(MqDeadValuePool::new(MqConfig::ideal(), ppb)),
            SystemKind::LxSsd { entries } => Self::LxSsd(LxSsdPool::new(entries, ppb)),
            SystemKind::AdaptiveDvp {
                min_entries,
                max_entries,
            } => Self::Adaptive(AdaptiveMqPool::new(
                AdaptiveConfig {
                    min_entries,
                    max_entries,
                    initial_entries: min_entries.midpoint(max_entries),
                    ..AdaptiveConfig::paper_default()
                },
                ppb,
            )),
        })
    }

    /// Looks up the value of an incoming write. On a hit, removes and
    /// returns one garbage PPN holding that content (the FTL will
    /// revive it). Entries with multiple PPNs surrender one per call.
    pub fn take_match(&mut self, value: ValueId, now: WriteClock) -> Option<Ppn> {
        each!(self, pool => pool.take_match(value, now))
    }

    /// Offers a freshly dead page to the pool. `lpn` is the logical
    /// page whose update killed it (used only by LX-SSD, which tracks
    /// address recency); `pop` is the value's popularity degree from
    /// the mapping table.
    pub fn insert_dead(
        &mut self,
        value: ValueId,
        ppn: Ppn,
        lpn: Lpn,
        pop: PopularityDegree,
        now: WriteClock,
    ) {
        each!(self, pool => pool.insert_dead(value, ppn, lpn, pop, now));
    }

    /// Drops a PPN whose block GC erased. Idempotent; untracked PPNs
    /// are ignored.
    pub fn remove_ppn(&mut self, ppn: Ppn) {
        each!(self, pool => pool.remove_ppn(ppn));
    }

    /// Popularity degree of a tracked garbage page, or `None` if the
    /// page is not in the pool. The per-page reference that
    /// [`block_weight`](DeadValuePool::block_weight) must sum to.
    pub fn garbage_weight(&self, ppn: Ppn) -> Option<PopularityDegree> {
        each!(self, pool => pool.garbage_weight(ppn))
    }

    /// The sum of [`garbage_weight`](DeadValuePool::garbage_weight)
    /// over the pages of flash block `block` (PPNs `block·B ..
    /// (block+1)·B` for the block size `B` the pool was built with):
    /// the `Σpop` of the §IV-D victim metric. The pool keeps the sums
    /// as pages enter, leave and change popularity, so this is one
    /// array read.
    pub fn block_weight(&self, block: u64) -> u32 {
        each!(self, pool => pool.block_weight(block))
    }

    /// Notifies the pool of a host access (read or write) to a logical
    /// page. Only LX-SSD, which tracks address recency, reacts; the
    /// paper's pool deliberately ignores reads (footnote 3).
    pub fn note_lpn_access(&mut self, lpn: Lpn) {
        if let DeadValuePool::LxSsd(pool) = self {
            pool.note_lpn_access(lpn);
        }
    }

    /// Number of distinct values currently buffered.
    pub fn len(&self) -> usize {
        each!(self, pool => pool.len())
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of garbage PPNs currently tracked (≥ [`len`](DeadValuePool::len)).
    pub fn tracked_ppns(&self) -> usize {
        each!(self, pool => pool.tracked_ppns())
    }

    /// Entry capacity, or `None` for the unbounded Ideal pool.
    pub fn capacity(&self) -> Option<usize> {
        each!(self, pool => pool.capacity())
    }

    /// Usage counters.
    pub fn stats(&self) -> PoolStats {
        each!(self, pool => pool.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_the_recycling_systems_get_a_pool() {
        let adaptive = SystemKind::AdaptiveDvp {
            min_entries: 4,
            max_entries: 16,
        };
        for (system, capacity) in [
            (SystemKind::Baseline, None),
            (SystemKind::MqDvp { entries: 8 }, Some(8)),
            (SystemKind::LruDvp { entries: 8 }, Some(8)),
            (SystemKind::Dedup, None),
            (SystemKind::DvpPlusDedup { entries: 8 }, Some(8)),
            (SystemKind::Ideal, None),
            (SystemKind::LxSsd { entries: 8 }, Some(8)),
            (adaptive, Some(10)),
        ] {
            let pool = DeadValuePool::for_system(system, MqConfig::default(), 4);
            assert_eq!(pool.is_some(), system.uses_pool(), "{system}");
            assert_eq!(pool.and_then(|pool| pool.capacity()), capacity, "{system}");
        }
    }

    #[test]
    fn hit_ratio_handles_empty_and_mixed() {
        let mut s = PoolStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.hit_ratio(), 0.75);
        assert!(s.to_string().contains("75.0%"));
    }
}
