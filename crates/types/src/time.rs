//! Simulated time.
//!
//! Two clocks coexist in the simulator, mirroring the paper:
//!
//! * [`SimTime`] — nanosecond wall-clock used by the flash timing model
//!   (read 75 µs, program 400 µs, erase 3.8 ms, hash 12 µs), and
//! * [`WriteClock`] — the logical clock of §IV-A: "the ith incoming
//!   write request has a timestamp of i". MQ expiration times and
//!   life-cycle intervals are measured on this clock.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use zssd_types::SimDuration;
/// let d = SimDuration::from_micros(400);
/// assert_eq!(d.as_nanos(), 400_000);
/// assert_eq!(d + SimDuration::from_micros(100), SimDuration::from_micros(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the value overflows `u64` nanoseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Returns the duration in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of another duration.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by an integer count.
    #[inline]
    pub const fn mul(self, count: u64) -> SimDuration {
        SimDuration(self.0 * count)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant on the simulated wall clock, in nanoseconds since start.
///
/// # Examples
///
/// ```
/// use zssd_types::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_micros(75);
/// assert_eq!(t.as_nanos(), 75_000);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

/// The paper's logical clock: the ordinal of a write request (§IV-A).
///
/// "The algorithm utilizes a relative timestamp which is tracked as the
/// number of write requests to measure the recency of a page."
///
/// # Examples
///
/// ```
/// use zssd_types::WriteClock;
/// let mut clock = WriteClock::ZERO;
/// let first = clock.tick();
/// let second = clock.tick();
/// assert_eq!(first.count(), 1);
/// assert_eq!(second.count(), 2);
/// assert_eq!(second.saturating_since(first), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WriteClock(u64);

impl WriteClock {
    /// The clock before any write has been issued.
    pub const ZERO: WriteClock = WriteClock(0);

    /// Creates a clock value from a raw write count.
    #[inline]
    pub const fn from_count(count: u64) -> Self {
        WriteClock(count)
    }

    /// Returns the number of writes issued so far.
    #[inline]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Advances the clock by one write and returns the new value
    /// (the timestamp of the write just issued).
    #[inline]
    pub fn tick(&mut self) -> WriteClock {
        self.0 += 1;
        *self
    }

    /// Number of writes between `earlier` and `self`, saturating.
    #[inline]
    pub const fn saturating_since(self, earlier: WriteClock) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The clock value `delta` writes in the future.
    #[inline]
    pub const fn plus(self, delta: u64) -> WriteClock {
        WriteClock(self.0 + delta)
    }
}

impl fmt::Display for WriteClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!(a.saturating_sub(b).as_nanos(), 60);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(b.mul(3).as_nanos(), 120);
        let mut c = a;
        c += b;
        assert_eq!(c.as_nanos(), 140);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_nanos(10);
        let t1 = t0 + SimDuration::from_nanos(90);
        assert_eq!(t1.as_nanos(), 100);
        assert_eq!((t1 - t0).as_nanos(), 90);
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t1.max(t0), t1);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        let mut t = t0;
        t += SimDuration::from_nanos(5);
        assert_eq!(t.as_nanos(), 15);
    }

    #[test]
    fn write_clock_ticks_monotonically() {
        let mut clock = WriteClock::ZERO;
        for expect in 1..=5u64 {
            assert_eq!(clock.tick().count(), expect);
        }
        assert_eq!(clock.count(), 5);
        assert_eq!(clock.plus(10).count(), 15);
        assert_eq!(WriteClock::from_count(3).saturating_since(clock), 0);
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(75).to_string(), "75.000us");
        assert_eq!(SimDuration::from_millis(4).to_string(), "4.000ms");
        assert!(SimTime::ZERO.to_string().starts_with("t="));
        assert_eq!(WriteClock::from_count(2).to_string(), "w2");
    }
}
