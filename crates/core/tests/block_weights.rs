//! The per-block popularity sums every pool keeps for the GC victim
//! score must equal a per-page recount after every operation: random
//! sequences of deaths, hits, GC removals, address accesses and
//! resizes, on every pool design.

use proptest::prelude::*;

use zssd_core::{
    AdaptiveConfig, AdaptiveMqPool, DeadValuePool, LxSsdPool, MqConfig, MqDeadValuePool,
};
use zssd_types::{Lpn, PopularityDegree, Ppn, ValueId, WriteClock};

const PAGES_PER_BLOCK: u32 = 8;
/// PPNs span this many blocks, so one value's dead copies land in
/// several blocks.
const BLOCKS: u64 = 6;
const PAGES: u64 = BLOCKS * PAGES_PER_BLOCK as u64;

#[derive(Debug, Clone)]
enum Op {
    /// A page dies: (value, ppn, popularity degree).
    Insert(u8, u64, u8),
    /// A write of a value looks the pool up.
    Take(u8),
    /// GC erases a page.
    Remove(u64),
    /// The host touches an address (LX-SSD bumps its entries).
    Note(u64),
    /// The pool is resized (MQ pools only).
    Resize(usize),
}

/// Degrees to die with: near the 255 ceiling too, so hits saturate.
const POPS: [u8; 7] = [0, 1, 2, 7, 100, 254, 255];

/// Few values, so entries gather several pages and merges are common.
/// Deaths and lookups are listed twice to make them twice as likely.
fn op() -> impl Strategy<Value = Op> {
    let insert =
        || (0u8..10, 0..PAGES, 0..POPS.len()).prop_map(|(v, p, d)| Op::Insert(v, p, POPS[d]));
    prop_oneof![
        insert(),
        insert(),
        (0u8..12).prop_map(Op::Take),
        (0u8..12).prop_map(Op::Take),
        (0..PAGES).prop_map(Op::Remove),
        (0..PAGES / 4).prop_map(Op::Note),
        (1usize..6).prop_map(Op::Resize),
    ]
}

/// Compares every block's kept sum with the sum of its pages'
/// `garbage_weight`.
fn check_sums(pool: &DeadValuePool) {
    for block in 0..=BLOCKS {
        let first = block * u64::from(PAGES_PER_BLOCK);
        let recount: u32 = (first..first + u64::from(PAGES_PER_BLOCK))
            .filter_map(|ppn| pool.garbage_weight(Ppn::new(ppn)))
            .map(|pop| u32::from(pop.get()))
            .sum();
        assert_eq!(pool.block_weight(block), recount, "block {block}");
    }
}

fn apply(pool: &mut DeadValuePool, op: Op, now: WriteClock) {
    match op {
        Op::Insert(v, p, d) => pool.insert_dead(
            ValueId::new(u64::from(v)),
            Ppn::new(p),
            // Addresses repeat, so one access bumps several LX-SSD entries.
            Lpn::new(p % (PAGES / 4)),
            PopularityDegree::new(d),
            now,
        ),
        Op::Take(v) => {
            let _ = pool.take_match(ValueId::new(u64::from(v)), now);
        }
        Op::Remove(p) => pool.remove_ppn(Ppn::new(p)),
        Op::Note(lpn) => pool.note_lpn_access(Lpn::new(lpn)),
        Op::Resize(capacity) => {
            if let DeadValuePool::Mq(mq) = pool {
                if mq.capacity().is_some() {
                    mq.set_capacity(capacity);
                }
            }
        }
    }
}

fn run(mut pool: DeadValuePool, ops: Vec<Op>) {
    let mut clock = WriteClock::ZERO;
    for op in ops {
        apply(&mut pool, op, clock.tick());
        check_sums(&pool);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Capacity 4 with up to 10 live values evicts constantly.
    #[test]
    fn mq_sums_match_a_recount(ops in prop::collection::vec(op(), 1..300)) {
        let cfg = MqConfig { num_queues: 8, capacity: 4, initial_hottest_interval: 4 };
        run(DeadValuePool::Mq(MqDeadValuePool::new(cfg, PAGES_PER_BLOCK)), ops);
    }

    #[test]
    fn lru_sums_match_a_recount(ops in prop::collection::vec(op(), 1..300)) {
        let pool = MqDeadValuePool::new(MqConfig::lru(4), PAGES_PER_BLOCK);
        run(DeadValuePool::Mq(pool), ops);
    }

    #[test]
    fn ideal_sums_match_a_recount(ops in prop::collection::vec(op(), 1..300)) {
        let pool = MqDeadValuePool::new(MqConfig::ideal(), PAGES_PER_BLOCK);
        run(DeadValuePool::Mq(pool), ops);
    }

    #[test]
    fn lxssd_sums_match_a_recount(ops in prop::collection::vec(op(), 1..300)) {
        let pool = LxSsdPool::new(6, PAGES_PER_BLOCK);
        run(DeadValuePool::LxSsd(pool), ops);
    }

    /// The controller first shrinks a pool of multi-page entries (an
    /// epoch of misses), then resizes it as the random operations go.
    #[test]
    fn adaptive_sums_match_a_recount(ops in prop::collection::vec(op(), 1..300)) {
        let pool = AdaptiveMqPool::new(
            AdaptiveConfig {
                min_entries: 2,
                max_entries: 32,
                initial_entries: 8,
                epoch: 16,
                factor: 2.0,
                ..AdaptiveConfig::paper_default()
            },
            PAGES_PER_BLOCK,
        );
        let mut pool = DeadValuePool::Adaptive(pool);
        let mut clock = WriteClock::ZERO;
        for v in 0..8u8 {
            for copy in 0..3 {
                let ppn = (u64::from(v) * 5 + copy * 17) % PAGES;
                apply(&mut pool, Op::Insert(v, ppn, 200 + v), clock.tick());
            }
        }
        while pool.capacity() != Some(2) {
            apply(&mut pool, Op::Take(u8::MAX), clock.tick());
            check_sums(&pool);
        }
        assert!(pool.stats().evictions > 0, "the shrink evicted entries");
        for op in ops {
            apply(&mut pool, op, clock.tick());
            check_sums(&pool);
        }
    }
}
