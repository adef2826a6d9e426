//! Delta-debugging trace minimization.
//!
//! Given a failing trace and a failure predicate, [`shrink`] finds a
//! much smaller trace that still fails:
//!
//! 1. **shortest failing prefix** — replay aborts at the first
//!    divergence, so "prefix of length n fails" is monotone in n and a
//!    binary search finds the boundary in `O(log n)` replays (end-of-
//!    run identity failures are not monotone; the search still lands
//!    on *a* failing prefix, just not necessarily the shortest — the
//!    next stage keeps cutting),
//! 2. **ddmin chunk removal** — repeatedly try deleting contiguous
//!    chunks, halving the chunk size until single commands, restarting
//!    whenever a deletion sticks, until no single command can be
//!    removed.
//!
//! The predicate is called `O(n + evals)` times, capped by
//! `max_evals`; on budget exhaustion the best trace found so far is
//! returned (still failing — every intermediate accepted trace fails).

use zssd_trace::TraceRecord;

/// The result of a [`shrink`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkResult {
    /// The minimized trace; still fails the predicate.
    pub records: Vec<TraceRecord>,
    /// Predicate evaluations spent.
    pub evaluations: usize,
}

/// Minimizes `records` against `fails` (which must return `true` for
/// the input — otherwise the input is returned untouched).
pub fn shrink<F>(records: &[TraceRecord], max_evals: usize, fails: F) -> ShrinkResult
where
    F: Fn(&[TraceRecord]) -> bool,
{
    let mut evals = 0usize;
    let check = |t: &[TraceRecord], evals: &mut usize| {
        *evals += 1;
        fails(t)
    };
    if records.is_empty() || !check(records, &mut evals) {
        return ShrinkResult {
            records: records.to_vec(),
            evaluations: evals,
        };
    }

    // 1. Shortest failing prefix. Invariant: records[..hi] fails.
    let (mut lo, mut hi) = (1usize, records.len());
    while lo < hi && evals < max_evals {
        let mid = lo + (hi - lo) / 2;
        if check(&records[..mid], &mut evals) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut current: Vec<TraceRecord> = records[..hi].to_vec();

    // 2. ddmin: delete chunks, halving granularity until single
    // commands stop being removable.
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0usize;
        while start < current.len() {
            if evals >= max_evals {
                return ShrinkResult {
                    records: current,
                    evaluations: evals,
                };
            }
            let end = (start + chunk).min(current.len());
            let candidate: Vec<TraceRecord> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if !candidate.is_empty() && check(&candidate, &mut evals) {
                current = candidate;
                removed_any = true;
                // The next chunk now starts at the same index.
            } else {
                start = end;
            }
        }
        if removed_any {
            continue; // retry at the same granularity
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    ShrinkResult {
        records: current,
        evaluations: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_types::{Lpn, ValueId};

    fn trace_of(values: &[u64]) -> Vec<TraceRecord> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| TraceRecord::write(Lpn::new(i as u64 % 8), ValueId::new(v)))
            .collect()
    }

    #[test]
    fn shrinks_to_the_single_triggering_command() {
        let mut values: Vec<u64> = (100..400).collect();
        values[137] = 13; // the poison value
        let records = trace_of(&values);
        let result = shrink(&records, 10_000, |t| {
            t.iter().any(|r| r.value == ValueId::new(13))
        });
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].value, ValueId::new(13));
    }

    #[test]
    fn shrinks_conjunctive_failures_to_both_commands() {
        let mut values: Vec<u64> = (100..1100).collect();
        values[41] = 13;
        values[800] = 14;
        let records = trace_of(&values);
        let needs_both = |t: &[TraceRecord]| {
            t.iter().any(|r| r.value == ValueId::new(13))
                && t.iter().any(|r| r.value == ValueId::new(14))
        };
        let result = shrink(&records, 10_000, needs_both);
        assert_eq!(result.records.len(), 2);
        assert!(needs_both(&result.records));
    }

    #[test]
    fn non_failing_input_is_returned_untouched() {
        let records = trace_of(&[1, 2, 3]);
        let result = shrink(&records, 100, |_| false);
        assert_eq!(result.records, records);
        assert_eq!(result.evaluations, 1);
    }

    #[test]
    fn an_exhausted_budget_still_returns_a_failing_trace() {
        let values: Vec<u64> = (0..2_000).map(|i| 100 + i % 7).collect();
        let records = trace_of(&values);
        let fails = |t: &[TraceRecord]| t.len() >= 10;
        let result = shrink(&records, 25, fails);
        assert!(result.evaluations <= 25);
        assert!(fails(&result.records), "intermediate traces always fail");
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let result = shrink(&[], 100, |_| true);
        assert!(result.records.is_empty());
    }
}
