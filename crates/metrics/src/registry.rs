//! A name → value counter registry.
//!
//! A [`CounterRegistry`] flattens a run's scalar counters into one
//! name → value map. It stores its entries in a `BTreeMap` so
//! iteration — and hence every export built on it — has a
//! deterministic order regardless of insertion order or thread count.

use std::collections::BTreeMap;

/// A deterministic name → value counter map.
///
/// # Examples
///
/// ```
/// use zssd_metrics::CounterRegistry;
/// let mut reg = CounterRegistry::default();
/// reg.add("host_writes", 10);
/// reg.add("gc_collections", 1);
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
    /// Adds `value` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.counters.entry(name).or_insert(0) += value;
    }

    /// Current value of `name`; 0 if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_orders_and_accumulates() {
        let mut a = CounterRegistry::default();
        a.add("zeta", 1);
        a.add("alpha", 2);
        a.add("alpha", 3);
        a.add("mid", 1);
        let entries: Vec<(&str, u64)> = a.iter().collect();
        assert_eq!(entries, vec![("alpha", 5), ("mid", 1), ("zeta", 1)]);
    }
}
