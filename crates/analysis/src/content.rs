//! The one content replay behind every trace-side count. An overwrite
//! or a trim kills the address's copy, as `Ssd::trim` does; reads
//! change nothing, and the clock counts writes only.

use zssd_trace::{IoOp, TraceRecord};
use zssd_types::{FxHashMap, Lpn, Slab, SlotId, ValueId};

/// When a killed copy becomes a dead copy, and what a write looks for
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Every kill leaves a dead copy, and a write looks for a dead copy
    /// first: every overwrite leaves a garbage page.
    EveryKill,
    /// A copy dies only with its value's last live reference, and a
    /// write looks for a live copy first: deduplication's order.
    LastReference,
}

/// What a write found of its own value before it landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Found {
    /// A dead copy, killed at this write clock; the write revives it.
    Dead(u64),
    /// A live copy (only under [`Rule::LastReference`]).
    Live,
    /// Neither. Reads and trims find this too.
    Nothing,
}

/// Each address's value and birth clock, each value's live reference
/// count (under [`Rule::LastReference`] only), and each value's dead
/// copies as a last-in first-out stack of death clocks.
pub(crate) struct Replay {
    rule: Rule,
    clock: u64,
    content: FxHashMap<Lpn, (ValueId, u64)>,
    live_refs: FxHashMap<ValueId, u64>,
    /// The top of each value's dead-copy stack in `dead`.
    dead_top: FxHashMap<ValueId, SlotId>,
    /// Dead copies: (death clock, the copy below on the same stack).
    dead: Slab<(u64, Option<SlotId>)>,
}

impl Replay {
    pub(crate) fn new(rule: Rule) -> Self {
        Replay {
            rule,
            clock: 0,
            content: FxHashMap::default(),
            live_refs: FxHashMap::default(),
            dead_top: FxHashMap::default(),
            dead: Slab::with_capacity(0),
        }
    }

    /// Writes stepped so far: the clock of the latest write.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// Applies one record. Returns what a write found and the copy that
    /// it or a trim killed, as (value, birth clock). A write looks its
    /// value up before its overwrite kills the old copy (the §IV-C
    /// order), so a value overwriting itself cannot revive that copy.
    pub(crate) fn step(&mut self, record: &TraceRecord) -> (Found, Option<(ValueId, u64)>) {
        let (found, kill) = match record.op {
            IoOp::Read => return (Found::Nothing, None),
            IoOp::Trim => (Found::Nothing, self.content.remove(&record.lpn)),
            IoOp::Write => {
                self.clock += 1;
                let found = self.find(record.value);
                let kill = self.content.insert(record.lpn, (record.value, self.clock));
                (found, kill)
            }
        };
        if let Some((old, _)) = kill {
            self.kill(old);
        }
        if record.is_write() && self.rule == Rule::LastReference {
            *self.live_refs.entry(record.value).or_insert(0) += 1;
        }
        (found, kill)
    }

    fn find(&mut self, value: ValueId) -> Found {
        if self.rule == Rule::LastReference && self.live_refs.contains_key(&value) {
            return Found::Live;
        }
        let Some(top) = self.dead_top.remove(&value) else {
            return Found::Nothing;
        };
        let (death, below) = self.dead.remove(top);
        if let Some(below) = below {
            self.dead_top.insert(value, below);
        }
        Found::Dead(death)
    }

    fn kill(&mut self, value: ValueId) {
        if self.rule == Rule::LastReference {
            let refs = self.live_refs.get_mut(&value).expect("live value");
            *refs -= 1;
            if *refs > 0 {
                return;
            }
            self.live_refs.remove(&value);
        }
        let below = self.dead_top.get(&value).copied();
        let top = self.dead.insert((self.clock, below));
        self.dead_top.insert(value, top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(lpn: u64, value: u64) -> TraceRecord {
        TraceRecord::write(Lpn::new(lpn), ValueId::new(value))
    }

    fn steps(rule: Rule, records: &[TraceRecord]) -> Vec<(Found, Option<(ValueId, u64)>)> {
        let mut replay = Replay::new(rule);
        records.iter().map(|r| replay.step(r)).collect()
    }

    fn v(value: u64) -> ValueId {
        ValueId::new(value)
    }

    #[test]
    fn a_value_overwriting_itself() {
        let records = [w(0, 7), w(0, 7), w(0, 7)];
        // The second write finds no dead copy (its own kill comes after
        // the lookup); the third revives the copy the second killed.
        assert_eq!(
            steps(Rule::EveryKill, &records),
            [
                (Found::Nothing, None),
                (Found::Nothing, Some((v(7), 1))),
                (Found::Dead(2), Some((v(7), 2))),
            ]
        );
        // Under dedup the value is live at every rewrite, and each
        // overwrite drops its last reference, leaving a dead copy.
        assert_eq!(
            steps(Rule::LastReference, &records),
            [
                (Found::Nothing, None),
                (Found::Live, Some((v(7), 1))),
                (Found::Live, Some((v(7), 2))),
            ]
        );
    }

    #[test]
    fn a_trim_kills_and_a_later_write_revives_the_copy() {
        for rule in [Rule::EveryKill, Rule::LastReference] {
            let mut replay = Replay::new(rule);
            replay.step(&w(0, 7));
            replay.step(&w(1, 8));
            let trim = TraceRecord::trim(Lpn::new(0));
            assert_eq!(replay.step(&trim), (Found::Nothing, Some((v(7), 1))));
            // A second trim of the unmapped page kills nothing.
            assert_eq!(replay.step(&trim), (Found::Nothing, None));
            assert_eq!(replay.clock(), 2, "trims do not tick the clock");
            // The copy died at clock 2, the latest write before the trim.
            assert_eq!(replay.step(&w(5, 7)), (Found::Dead(2), None), "{rule:?}");
        }
    }

    #[test]
    fn last_reference_leaves_a_dead_copy_only_at_the_last_reference() {
        let mut every = Replay::new(Rule::EveryKill);
        let mut last = Replay::new(Rule::LastReference);
        // 7 lives at two addresses; clock 3 kills one copy, clock 4 the
        // other, which is 7's last reference.
        let records = [w(0, 7), w(1, 7), w(0, 8), w(1, 9)];
        let dead_copies = records.map(|r| {
            every.step(&r);
            last.step(&r);
            (every.dead.len(), last.dead.len())
        });
        assert_eq!(dead_copies, [(0, 0), (0, 0), (1, 0), (2, 1)]);
        assert_eq!(last.step(&w(2, 7)).0, Found::Dead(4));
        assert_eq!(last.step(&w(3, 7)).0, Found::Live);
    }

    #[test]
    fn death_clocks_come_back_last_in_first_out() {
        let records = [
            w(0, 7),
            w(1, 7),
            w(2, 7),
            w(0, 1), // clock 4: first death
            w(1, 2), // clock 5
            w(2, 3), // clock 6: last death
            w(3, 7),
            w(4, 7),
            w(5, 7),
            w(6, 7),
        ];
        let found: Vec<Found> = steps(Rule::EveryKill, &records)[6..]
            .iter()
            .map(|&(found, _)| found)
            .collect();
        assert_eq!(
            found,
            [
                Found::Dead(6),
                Found::Dead(5),
                Found::Dead(4),
                Found::Nothing
            ]
        );
    }

    #[test]
    fn reads_change_nothing() {
        let read = TraceRecord::read(Lpn::new(0), ValueId::new(9));
        for rule in [Rule::EveryKill, Rule::LastReference] {
            let mut plain = Replay::new(rule);
            let mut with_reads = Replay::new(rule);
            for write in [w(0, 7), w(0, 8), w(1, 7)] {
                assert_eq!(with_reads.step(&read), (Found::Nothing, None));
                assert_eq!(with_reads.step(&write), plain.step(&write), "{rule:?}");
            }
            assert_eq!(with_reads.clock(), plain.clock());
        }
    }
}
