//! Per-component counter registries and phase timers.
//!
//! A [`CounterRegistry`] flattens a run's scalar counters into one
//! name → value map; a [`PhaseTimers`] accumulates how much simulated
//! time each named phase (GC relocation, erase, scrub, …) consumed.
//! Both store their entries in `BTreeMap`s so iteration — and hence
//! every export built on it — has a deterministic order regardless of
//! insertion order or thread count.

use std::collections::BTreeMap;

use zssd_types::SimDuration;

/// A deterministic name → value counter map.
///
/// # Examples
///
/// ```
/// use zssd_metrics::CounterRegistry;
/// let mut reg = CounterRegistry::new();
/// reg.add("host_writes", 10);
/// reg.incr("gc_collections");
/// assert_eq!(reg.get("host_writes"), 10);
/// assert_eq!(reg.get("missing"), 0);
/// let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
/// assert_eq!(names, vec!["gc_collections", "host_writes"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    counters: BTreeMap<&'static str, u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Adds `value` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.counters.entry(name).or_insert(0) += value;
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name`; 0 if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the registry holds no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterates `(name, value)` in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }
}

/// Accumulated simulated time and invocation count of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Total simulated time spent in the phase.
    pub total: SimDuration,
    /// Number of phase executions accumulated.
    pub count: u64,
}

impl PhaseTotal {
    /// Mean duration per execution; zero when never executed.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.total.as_nanos().checked_div(self.count).unwrap_or(0))
    }
}

/// Named phase timers with deterministic iteration order.
///
/// # Examples
///
/// ```
/// use zssd_metrics::PhaseTimers;
/// use zssd_types::SimDuration;
///
/// let mut timers = PhaseTimers::new();
/// timers.add("gc_erase", SimDuration::from_micros(3800));
/// timers.add("gc_erase", SimDuration::from_micros(3800));
/// assert_eq!(timers.get("gc_erase").count, 2);
/// assert_eq!(timers.get("gc_erase").mean(), SimDuration::from_micros(3800));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimers {
    phases: BTreeMap<&'static str, PhaseTotal>,
}

impl PhaseTimers {
    /// Creates an empty set of timers.
    pub fn new() -> Self {
        PhaseTimers::default()
    }

    /// Accumulates one execution of `name` lasting `elapsed`.
    pub fn add(&mut self, name: &'static str, elapsed: SimDuration) {
        let entry = self.phases.entry(name).or_default();
        entry.total += elapsed;
        entry.count += 1;
    }

    /// Totals for `name`; all-zero if the phase never ran.
    pub fn get(&self, name: &str) -> PhaseTotal {
        self.phases.get(name).copied().unwrap_or_default()
    }

    /// Number of distinct phases observed.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether no phase has been timed.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Iterates `(name, totals)` in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, PhaseTotal)> + '_ {
        self.phases.iter().map(|(&name, &total)| (name, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_orders_and_accumulates() {
        let mut a = CounterRegistry::new();
        a.add("zeta", 1);
        a.add("alpha", 2);
        a.add("alpha", 3);
        a.incr("mid");
        let entries: Vec<(&str, u64)> = a.iter().collect();
        assert_eq!(entries, vec![("alpha", 5), ("mid", 1), ("zeta", 1)]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(CounterRegistry::new().is_empty());
    }

    #[test]
    fn phase_timers_accumulate_and_average() {
        let mut timers = PhaseTimers::new();
        timers.add("relocate", SimDuration::from_micros(10));
        timers.add("relocate", SimDuration::from_micros(30));
        timers.add("erase", SimDuration::from_micros(5));
        let relocate = timers.get("relocate");
        assert_eq!(relocate.total, SimDuration::from_micros(40));
        assert_eq!(relocate.count, 2);
        assert_eq!(relocate.mean(), SimDuration::from_micros(20));
        assert_eq!(timers.get("nothing"), PhaseTotal::default());
        assert_eq!(PhaseTotal::default().mean(), SimDuration::ZERO);

        let names: Vec<&str> = timers.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["erase", "relocate"], "deterministic order");
        assert_eq!(timers.len(), 2);
        assert!(!timers.is_empty());
        assert!(PhaseTimers::new().is_empty());
    }
}
