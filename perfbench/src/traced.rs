//! The traced pass: the benchmark replays the trace itself through the
//! public `Ssd::write` / `Ssd::read` / `Ssd::trim` calls, times every
//! call, and classifies each one by the change it caused in
//! `Ssd::stats()`. Nothing inside the simulator is instrumented.

use std::time::Instant;

use zssd_ftl::{RunReport, Ssd, SsdConfig, SsdError, SsdStats};
use zssd_trace::{IoOp, TraceRecord};

use crate::gate::Gate;

/// What a timed call did, judged from the counters it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A host read.
    Read,
    /// A write served by reviving a zombie page (dead-value-pool hit).
    WriteRevive,
    /// A write absorbed by deduplication against a live copy.
    WriteDedup,
    /// A write that programmed a page and triggered no GC.
    WriteProgram,
    /// A write during which at least one GC collection ran.
    WriteGc,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 5] = [
        Class::Read,
        Class::WriteRevive,
        Class::WriteDedup,
        Class::WriteProgram,
        Class::WriteGc,
    ];

    /// The class's metric-name segment.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::WriteRevive => "write_revive",
            Class::WriteDedup => "write_dedup",
            Class::WriteProgram => "write_program",
            Class::WriteGc => "write_gc",
        }
    }

    /// Classifies a write from the counters before and after it. GC wins
    /// over the other outcomes: a write that set off a collection is
    /// charged with the collection's cost.
    fn of_write(before: Counters, after: Counters) -> Class {
        if after.gc_collections > before.gc_collections {
            Class::WriteGc
        } else if after.revived_writes > before.revived_writes {
            Class::WriteRevive
        } else if after.deduped_writes > before.deduped_writes {
            Class::WriteDedup
        } else {
            Class::WriteProgram
        }
    }
}

/// The drive counters a write's class is judged by.
#[derive(Debug, Clone, Copy)]
struct Counters {
    gc_collections: u64,
    revived_writes: u64,
    deduped_writes: u64,
}

impl Counters {
    fn of(stats: &SsdStats) -> Counters {
        Counters {
            gc_collections: stats.gc_collections,
            revived_writes: stats.revived_writes,
            deduped_writes: stats.deduped_writes,
        }
    }
}

/// The outcome of one traced pass.
#[derive(Debug)]
pub struct TracedPass {
    /// Host nanoseconds of every call, one vector per [`Class`] (indexed
    /// like [`Class::ALL`]).
    pub samples: [Vec<u64>; 5],
    /// TRIM calls (untimed; the paper's traces issue none).
    pub trims: u64,
    /// Host seconds of the whole loop, timer calls included.
    pub loop_s: f64,
    /// The finalized report of the traced drive.
    pub report: RunReport,
}

/// Builds a drive from `config` and replays `records` through it call by
/// call, exactly as `Ssd::replay` would. Every read is checked against
/// the value the trace recorded and the drive's invariants are checked
/// afterwards, both through `gate`.
///
/// # Errors
///
/// Propagates any simulator error.
pub fn run(
    config: SsdConfig,
    records: &[TraceRecord],
    gate: &mut Gate,
) -> Result<TracedPass, SsdError> {
    let mut ssd = Ssd::new(config)?;
    let mut arrivals = ssd.config().arrival.times();
    let mut samples: [Vec<u64>; 5] = Default::default();
    let mut trims = 0;
    let mut reads = 0;
    let mut mismatches = 0;
    let start = Instant::now();
    for record in records {
        let arrival = record.arrival.unwrap_or_else(|| arrivals.next_time());
        match record.op {
            IoOp::Read => {
                let clock = Instant::now();
                let (value, _) = ssd.read(record.lpn, arrival)?;
                let ns = clock.elapsed().as_nanos();
                samples[Class::Read as usize].push(ns as u64);
                reads += 1;
                mismatches += u64::from(value != record.value);
            }
            IoOp::Write => {
                let before = Counters::of(ssd.stats());
                let clock = Instant::now();
                ssd.write(record.lpn, record.value, arrival)?;
                let ns = clock.elapsed().as_nanos();
                let class = Class::of_write(before, Counters::of(ssd.stats()));
                samples[class as usize].push(ns as u64);
            }
            IoOp::Trim => {
                ssd.trim(record.lpn)?;
                trims += 1;
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    gate.tally(reads, mismatches, || {
        "traced reads returned the trace's recorded values".into()
    });
    let invariants = ssd.check_invariants();
    gate.check(invariants.is_ok(), || {
        format!("drive invariants after traced pass: {invariants:?}")
    });
    Ok(TracedPass {
        samples,
        trims,
        loop_s,
        report: ssd.into_report(),
    })
}
