//! Measured workload characteristics (Table II).

use core::fmt;
use std::collections::HashSet;

use zssd_types::{Lpn, ValueId};

use crate::record::{IoOp, TraceRecord};

/// The aggregates Table II reports, measured over any record slice.
///
/// # Examples
///
/// ```
/// use zssd_trace::{SyntheticTrace, TraceStats, WorkloadProfile};
/// let trace = SyntheticTrace::generate(&WorkloadProfile::home().scaled(0.01), 3);
/// let stats = TraceStats::measure(trace.records());
/// assert!((stats.write_ratio() - 0.96).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total requests measured.
    pub requests: u64,
    /// Write requests.
    pub writes: u64,
    /// Read requests.
    pub reads: u64,
    /// TRIM requests.
    pub trims: u64,
    /// Distinct values among written contents.
    pub distinct_write_values: u64,
    /// Distinct values among read contents.
    pub distinct_read_values: u64,
    /// Distinct logical pages touched (footprint).
    pub distinct_lpns: u64,
}

impl TraceStats {
    /// Scans a record slice and measures the Table II aggregates.
    pub fn measure(records: &[TraceRecord]) -> Self {
        let mut write_values: HashSet<ValueId> = HashSet::new();
        let mut read_values: HashSet<ValueId> = HashSet::new();
        let mut lpns: HashSet<Lpn> = HashSet::new();
        let mut writes = 0u64;
        let mut reads = 0u64;
        let mut trims = 0u64;
        for r in records {
            lpns.insert(r.lpn);
            match r.op {
                IoOp::Write => {
                    writes += 1;
                    write_values.insert(r.value);
                }
                IoOp::Read => {
                    reads += 1;
                    read_values.insert(r.value);
                }
                IoOp::Trim => trims += 1,
            }
        }
        TraceStats {
            requests: records.len() as u64,
            writes,
            reads,
            trims,
            distinct_write_values: write_values.len() as u64,
            distinct_read_values: read_values.len() as u64,
            distinct_lpns: lpns.len() as u64,
        }
    }

    /// Fraction of requests that are writes (Table II "WR %").
    pub fn write_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.writes as f64 / self.requests as f64
        }
    }

    /// Fraction of writes carrying unique content (Table II "Unique
    /// Value % — WR").
    pub fn unique_write_frac(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.distinct_write_values as f64 / self.writes as f64
        }
    }

    /// Fraction of reads observing unique content (Table II "Unique
    /// Value % — RD").
    pub fn unique_read_frac(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.distinct_read_values as f64 / self.reads as f64
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "req={} WR={:.1}% uniqW={:.1}% uniqR={:.1}% footprint={}",
            self.requests,
            self.write_ratio() * 100.0,
            self.unique_write_frac() * 100.0,
            self.unique_read_frac() * 100.0,
            self.distinct_lpns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    #[test]
    fn measures_hand_built_trace() {
        let records = vec![
            TraceRecord::write(Lpn::new(1), ValueId::new(10)),
            TraceRecord::write(Lpn::new(2), ValueId::new(10)),
            TraceRecord::write(Lpn::new(1), ValueId::new(11)),
            TraceRecord::read(Lpn::new(2), ValueId::new(10)),
            TraceRecord::trim(Lpn::new(1)),
        ];
        let s = TraceStats::measure(&records);
        assert_eq!(s.requests, 5);
        assert_eq!(s.writes, 3);
        assert_eq!(s.reads, 1);
        assert_eq!(s.trims, 1);
        assert_eq!(s.distinct_write_values, 2);
        assert_eq!(s.distinct_read_values, 1);
        assert_eq!(s.distinct_lpns, 2);
        assert_eq!(s.write_ratio(), 0.6);
        assert!((s.unique_write_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.unique_read_frac(), 1.0);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::measure(&[]);
        assert_eq!(s.write_ratio(), 0.0);
        assert_eq!(s.unique_write_frac(), 0.0);
        assert_eq!(s.unique_read_frac(), 0.0);
    }

    #[test]
    fn display_has_percentages() {
        let records = vec![TraceRecord::write(Lpn::new(1), ValueId::new(1))];
        let text = TraceStats::measure(&records).to_string();
        assert!(text.contains("WR=100.0%"));
    }
}
