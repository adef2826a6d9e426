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
use core::hash::{Hash, Hasher};
use core::num::NonZeroU64;
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
/// Instants run from [`SimTime::ZERO`] to [`SimTime::MAX`], one
/// nanosecond short of `u64::MAX`: the type stores `ns + 1` in a
/// `NonZeroU64`, so `Option<SimTime>` (a trace record's arrival stamp)
/// takes 8 bytes, not 16. The mapping is monotone, so comparisons and
/// differences are those of the nanosecond counts. Adding a
/// [`SimDuration`] past `MAX` panics rather than wrapping to an instant
/// before the epoch.
///
/// # Examples
///
/// ```
/// use zssd_types::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_micros(75);
/// assert_eq!(t.as_nanos(), 75_000);
/// assert!(t > SimTime::ZERO);
/// assert_eq!(size_of::<Option<SimTime>>(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimTime(NonZeroU64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(NonZeroU64::MIN);

    /// The last representable instant, `u64::MAX - 1` ns.
    pub const MAX: SimTime = SimTime(NonZeroU64::MAX);

    /// Creates an instant from nanoseconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is `u64::MAX`, one past [`SimTime::MAX`].
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        match NonZeroU64::new(ns.wrapping_add(1)) {
            Some(stored) => SimTime(stored),
            None => panic!("instant past the end of the simulated clock"),
        }
    }

    /// Returns nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0.get() - 1
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
        SimDuration(self.0.get().saturating_sub(earlier.0.get()))
    }
}

impl Default for SimTime {
    /// The epoch, [`SimTime::ZERO`].
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Hash for SimTime {
    /// Hashes the nanosecond count, not the stored `ns + 1`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_nanos().hash(state);
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SimTime").field(&self.as_nanos()).finish()
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if the sum is past [`SimTime::MAX`].
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        match self.0.checked_add(rhs.0) {
            Some(sum) => SimTime(sum),
            None => clock_overflow(self, rhs),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    /// # Panics
    ///
    /// Panics if the sum is past [`SimTime::MAX`].
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

#[cold]
#[inline(never)]
fn clock_overflow(at: SimTime, by: SimDuration) -> ! {
    panic!(
        "simulated clock overflow: {} ns + {} ns is past the last instant, {} ns",
        at.as_nanos(),
        by.as_nanos(),
        SimTime::MAX.as_nanos()
    )
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.get() - rhs.0.get())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.as_nanos()))
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
    fn time_range_ends_one_short_of_u64_max() {
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::MAX.as_nanos(), u64::MAX - 1);
        assert_eq!(SimTime::from_nanos(u64::MAX - 1), SimTime::MAX);
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_nanos(u64::MAX - 2) < SimTime::MAX);
        assert_eq!(
            SimTime::MAX.saturating_since(SimTime::ZERO).as_nanos(),
            u64::MAX - 1
        );
        assert_eq!(
            SimTime::ZERO + SimDuration::from_nanos(u64::MAX - 1),
            SimTime::MAX
        );
        assert_eq!(format!("{:?}", SimTime::from_nanos(7)), "SimTime(7)");
    }

    #[test]
    fn an_optional_instant_is_8_bytes() {
        assert_eq!(core::mem::size_of::<SimTime>(), 8);
        assert_eq!(core::mem::size_of::<Option<SimTime>>(), 8);
    }

    #[test]
    fn instants_hash_as_their_nanoseconds() {
        use crate::FxBuildHasher;
        use core::hash::BuildHasher;
        let build = FxBuildHasher::default();
        for ns in [0, 1, 1_000, u64::MAX - 1] {
            assert_eq!(build.hash_one(SimTime::from_nanos(ns)), build.hash_one(ns));
        }
    }

    #[test]
    #[should_panic(expected = "past the end of the simulated clock")]
    fn an_instant_at_u64_max_panics() {
        let _ = SimTime::from_nanos(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "simulated clock overflow")]
    fn adding_past_the_last_instant_panics() {
        let _ = SimTime::MAX + SimDuration::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "simulated clock overflow")]
    fn add_assign_past_the_last_instant_panics() {
        let mut t = SimTime::from_nanos(u64::MAX / 2 + 1);
        t += SimDuration::from_nanos(u64::MAX / 2);
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
