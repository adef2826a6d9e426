//! Typed simulator events and the log that records them.
//!
//! The observability layer (DESIGN.md §13) keeps an
//! `Option<`[`EventLog`]`>` beside the simulator's hot paths. When
//! tracing is off the log is `None` and every emission site reduces to
//! a single branch on it — no allocation, no formatting, no clock
//! reads.
//! When tracing is on, each site records a small `Copy` payload tagged
//! with its simulated timestamp and a global sequence number, so the
//! full causal order of a run can be replayed, filtered, or exported.
//!
//! Determinism: events carry only simulated time and typed payloads —
//! never wall-clock time or addresses of host memory — so the event
//! stream of a run is a pure function of (config, trace, seed) and is
//! byte-identical across `ZSSD_THREADS` settings when exported.

use core::fmt;

use zssd_types::{Lpn, Ppn, SimDuration, SimTime};

/// Which injected NAND fault a [`Event::Fault`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A program-status failure; the target page went bad.
    Program,
    /// An erase failure; the block survived unchanged.
    Erase,
    /// An uncorrectable-ECC read that was resolved by a retry.
    ReadRetry,
}

impl FaultEvent {
    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            FaultEvent::Program => "program",
            FaultEvent::Erase => "erase",
            FaultEvent::ReadRetry => "read_retry",
        }
    }
}

/// One typed simulator event.
///
/// Block-granularity payloads carry raw block indexes (`u64`) rather
/// than the flash crate's `BlockId` — this crate sits below `zssd-flash`
/// in the dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A host write completed (any path: program, revive, or dedup).
    HostWrite {
        /// Logical page written.
        lpn: Lpn,
        /// End-to-end request latency.
        latency: SimDuration,
    },
    /// A host read completed.
    HostRead {
        /// Logical page read.
        lpn: Lpn,
        /// End-to-end request latency.
        latency: SimDuration,
    },
    /// A dead-value-pool hit revived a zombie page in place.
    Revive {
        /// Logical page whose write was short-circuited.
        lpn: Lpn,
        /// The garbage page flipped back to valid.
        ppn: Ppn,
    },
    /// A dedup hit added a reference to an already-stored value.
    DedupHit {
        /// Logical page whose write was deduplicated.
        lpn: Lpn,
        /// The live page now shared.
        ppn: Ppn,
    },
    /// A GC pass started on a plane.
    GcStart {
        /// The plane collected.
        plane: u64,
        /// Whether this was the emergency (no-free-block) path.
        emergency: bool,
    },
    /// GC chose a victim block.
    GcVictim {
        /// The victim block index.
        block: u64,
        /// Valid pages that must be relocated.
        valid: u32,
        /// Invalid (garbage) pages reclaimed by the erase.
        invalid: u32,
    },
    /// GC relocated one valid page out of the victim.
    GcRelocate {
        /// Source page in the victim block.
        src: Ppn,
        /// Destination page.
        dest: Ppn,
    },
    /// GC erased the victim block.
    GcErase {
        /// The erased block index.
        block: u64,
    },
    /// A read-retry scrub relocated data off a suspect page.
    Scrub {
        /// The suspect source page.
        src: Ppn,
        /// The fresh destination page.
        dest: Ppn,
    },
    /// An injected NAND fault fired.
    Fault {
        /// Which operation failed.
        kind: FaultEvent,
        /// The page (program/read) or block (erase) index involved.
        unit: u64,
    },
    /// A block was permanently retired after repeated erase failures.
    Retire {
        /// The retired block index.
        block: u64,
    },
}

impl Event {
    /// Stable snake_case kind tag used by the JSON and CSV exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::HostWrite { .. } => "host_write",
            Event::HostRead { .. } => "host_read",
            Event::Revive { .. } => "revive",
            Event::DedupHit { .. } => "dedup_hit",
            Event::GcStart { .. } => "gc_start",
            Event::GcVictim { .. } => "gc_victim",
            Event::GcRelocate { .. } => "gc_relocate",
            Event::GcErase { .. } => "gc_erase",
            Event::Scrub { .. } => "scrub",
            Event::Fault { .. } => "fault",
            Event::Retire { .. } => "retire",
        }
    }

    /// The event's payload as ordered `(name, value)` pairs — the
    /// single source of truth both exporters render from, so JSON and
    /// CSV can never disagree on field names.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            Event::HostWrite { lpn, latency } | Event::HostRead { lpn, latency } => {
                vec![("lpn", lpn.index()), ("latency_ns", latency.as_nanos())]
            }
            Event::Revive { lpn, ppn } | Event::DedupHit { lpn, ppn } => {
                vec![("lpn", lpn.index()), ("ppn", ppn.index())]
            }
            Event::GcStart { plane, emergency } => {
                vec![("plane", plane), ("emergency", u64::from(emergency))]
            }
            Event::GcVictim {
                block,
                valid,
                invalid,
            } => vec![
                ("block", block),
                ("valid", u64::from(valid)),
                ("invalid", u64::from(invalid)),
            ],
            Event::GcRelocate { src, dest } | Event::Scrub { src, dest } => {
                vec![("src", src.index()), ("dest", dest.index())]
            }
            Event::GcErase { block } | Event::Retire { block } => vec![("block", block)],
            Event::Fault { kind: _, unit } => vec![("unit", unit)],
        }
    }
}

/// An [`Event`] tagged with its simulated timestamp and a run-global
/// sequence number (total order, even among same-instant events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Position in the run's total event order, starting at 0.
    pub seq: u64,
    /// Simulated time the event occurred.
    pub at: SimTime,
    /// The typed payload.
    pub event: Event,
}

impl fmt::Display for TracedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>8}  {:>14}  {:<11}",
            self.seq,
            self.at,
            self.event.kind()
        )?;
        for (name, value) in self.event.fields() {
            write!(f, "  {name}={value}")?;
        }
        Ok(())
    }
}

/// An in-memory, sequence-numbered event recorder.
///
/// # Examples
///
/// ```
/// use zssd_metrics::{Event, EventLog};
/// use zssd_types::{Lpn, SimDuration, SimTime};
///
/// let mut log = EventLog::new();
/// log.emit(SimTime::from_nanos(5), Event::HostWrite {
///     lpn: Lpn::new(1),
///     latency: SimDuration::from_micros(100),
/// });
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.events()[0].seq, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<TracedEvent>,
    next_seq: u64,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Records one event at simulated time `at`, numbering it after
    /// the previous one.
    pub fn emit(&mut self, at: SimTime, event: Event) {
        self.events.push(TracedEvent {
            seq: self.next_seq,
            at,
            event,
        });
        self.next_seq += 1;
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All recorded events in emission order.
    pub fn events(&self) -> &[TracedEvent] {
        &self.events
    }

    /// Consumes the log, returning its events.
    pub fn into_events(self) -> Vec<TracedEvent> {
        self.events
    }

    /// Clears all events and resets the sequence counter (used when a
    /// preconditioning phase should not appear in the measured trace).
    pub fn clear(&mut self) {
        self.events.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_numbers_events_in_order() {
        let mut log = EventLog::new();
        log.emit(SimTime::from_nanos(1), Event::GcErase { block: 3 });
        log.emit(SimTime::from_nanos(1), Event::Retire { block: 3 });
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(log.events()[1].event, Event::Retire { block: 3 });
        log.clear();
        assert!(log.is_empty());
        log.emit(SimTime::ZERO, Event::GcErase { block: 0 });
        assert_eq!(log.events()[0].seq, 0, "clear resets sequencing");
    }

    #[test]
    fn kinds_and_fields_cover_every_variant() {
        let events = [
            Event::HostWrite {
                lpn: Lpn::new(1),
                latency: SimDuration::from_nanos(9),
            },
            Event::HostRead {
                lpn: Lpn::new(2),
                latency: SimDuration::from_nanos(8),
            },
            Event::Revive {
                lpn: Lpn::new(3),
                ppn: Ppn::new(30),
            },
            Event::DedupHit {
                lpn: Lpn::new(4),
                ppn: Ppn::new(40),
            },
            Event::GcStart {
                plane: 0,
                emergency: true,
            },
            Event::GcVictim {
                block: 5,
                valid: 1,
                invalid: 3,
            },
            Event::GcRelocate {
                src: Ppn::new(50),
                dest: Ppn::new(51),
            },
            Event::GcErase { block: 5 },
            Event::Scrub {
                src: Ppn::new(60),
                dest: Ppn::new(61),
            },
            Event::Fault {
                kind: FaultEvent::Program,
                unit: 70,
            },
            Event::Retire { block: 7 },
        ];
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len(), "kind tags are distinct");
        for event in &events {
            assert!(!event.fields().is_empty(), "{} has fields", event.kind());
        }
        assert_eq!(FaultEvent::ReadRetry.name(), "read_retry");
        assert_eq!(FaultEvent::Erase.name(), "erase");
    }

    #[test]
    fn traced_event_display_lists_fields() {
        let traced = TracedEvent {
            seq: 7,
            at: SimTime::from_nanos(1000),
            event: Event::GcVictim {
                block: 2,
                valid: 1,
                invalid: 3,
            },
        };
        let text = traced.to_string();
        assert!(text.contains("gc_victim"));
        assert!(text.contains("block=2"));
        assert!(text.contains("invalid=3"));
    }
}
