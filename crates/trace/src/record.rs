//! Trace records.

use core::fmt;

use zssd_types::{Lpn, SimTime, ValueId};

/// Value-id offset marking *pre-trace* device content: reading an LPN
/// the trace never wrote observes `INITIAL_VALUE_BASE + lpn`, a value
/// unique to that address (a freshly formatted filesystem has distinct
/// content everywhere).
pub const INITIAL_VALUE_BASE: u64 = 1 << 48;

/// The pre-trace content of a logical page.
///
/// # Examples
///
/// ```
/// use zssd_trace::initial_value_of;
/// use zssd_types::Lpn;
/// let v = initial_value_of(Lpn::new(7));
/// assert_ne!(v, initial_value_of(Lpn::new(8)));
/// ```
pub fn initial_value_of(lpn: Lpn) -> ValueId {
    ValueId::new(INITIAL_VALUE_BASE + lpn.index())
}

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A 4 KB read.
    Read,
    /// A 4 KB write.
    Write,
    /// A 4 KB TRIM (discard): the host declares the page's content
    /// dead, unmapping it without writing replacement data.
    Trim,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoOp::Read => "R",
            IoOp::Write => "W",
            IoOp::Trim => "T",
        })
    }
}

/// One 4 KB request of a content trace.
///
/// Mirrors the FIU format: every request carries the identity of the
/// content moved ([`ValueId`], standing in for the trace's MD5 digest).
/// For reads, `value` is the content the address held at that point of
/// the trace (generated traces track this; it lets trace-only analyses
/// reason about read redundancy). A record's ordinal is its position
/// in the trace: nothing stores it.
///
/// A record is 24 bytes, because a trace is held whole in memory while
/// it replays (3 M records for mail). [`Lpn`] holds a 32-bit index,
/// `0..=Lpn::MAX`, which is safe because no drive the simulator builds
/// has more pages than that (Table I's drive has 2^28 and
/// `SsdConfig::validate` rejects more than `u32::MAX`); the generator's
/// footprint is bounded the same way. [`SimTime`] reaches
/// `SimTime::MAX`, `u64::MAX - 1` ns (about 584 years), and has a niche,
/// so `Option<SimTime>` is 8 bytes. The text reader rejects an LPN or
/// a stamp past either limit with a [`TraceParseError`](crate::TraceParseError),
/// so every input that reaches a record is representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Read or write.
    pub op: IoOp,
    /// The 4 KB logical page addressed.
    pub lpn: Lpn,
    /// Identity of the 4 KB content written (or observed, for reads).
    /// Zero (unused) for trims.
    pub value: ValueId,
    /// When the request reaches the device, if the trace records it.
    /// `None` means "unstamped": replay spaces the request with the
    /// drive's configured arrival process instead.
    pub arrival: Option<SimTime>,
}

impl TraceRecord {
    /// Creates a write record.
    pub fn write(lpn: Lpn, value: ValueId) -> Self {
        TraceRecord {
            op: IoOp::Write,
            lpn,
            value,
            arrival: None,
        }
    }

    /// Creates a read record.
    pub fn read(lpn: Lpn, value: ValueId) -> Self {
        TraceRecord {
            op: IoOp::Read,
            lpn,
            value,
            arrival: None,
        }
    }

    /// Creates a TRIM record (no content moves; `value` is zero).
    pub fn trim(lpn: Lpn) -> Self {
        TraceRecord {
            op: IoOp::Trim,
            lpn,
            value: ValueId::new(0),
            arrival: None,
        }
    }

    /// This record with an explicit arrival timestamp.
    #[must_use]
    pub fn with_arrival(mut self, at: SimTime) -> Self {
        self.arrival = Some(at);
        self
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        self.op == IoOp::Write
    }

    /// Whether this is a TRIM.
    pub fn is_trim(&self) -> bool {
        self.op == IoOp::Trim
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.op, self.lpn, self.value)?;
        if let Some(at) = self.arrival {
            write!(f, " @{}", at.as_nanos())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let w = TraceRecord::write(Lpn::new(1), ValueId::new(2));
        let r = TraceRecord::read(Lpn::new(1), ValueId::new(2));
        assert!(w.is_write());
        assert!(!r.is_write());
    }

    #[test]
    fn initial_values_do_not_collide_with_trace_values() {
        // Trace generators allocate value ids well below the base.
        assert!(initial_value_of(Lpn::new(0)).raw() >= INITIAL_VALUE_BASE);
        assert_ne!(initial_value_of(Lpn::new(1)), initial_value_of(Lpn::new(2)));
    }

    #[test]
    fn display_round_trips_visually() {
        let rec = TraceRecord::write(Lpn::new(9), ValueId::new(3));
        assert_eq!(rec.to_string(), "W L9 V3");
        let stamped = rec.with_arrival(SimTime::from_nanos(1_500));
        assert_eq!(stamped.to_string(), "W L9 V3 @1500");
        let trim = TraceRecord::trim(Lpn::new(9));
        assert_eq!(trim.to_string(), "T L9 V0");
        assert!(trim.is_trim());
        assert!(!trim.is_write());
    }

    #[test]
    fn a_record_is_24_bytes() {
        assert_eq!(core::mem::size_of::<TraceRecord>(), 24);
    }
}
