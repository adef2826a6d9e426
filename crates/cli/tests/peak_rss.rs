//! Peak memory of a full-scale run with many distinct latencies.
//!
//! `zssd run --workload web --system dvp --arrival poisson` replays
//! 1.8 M requests whose Poisson arrivals give about 447 K distinct
//! latencies, the worst case for a timeline that counts requests per
//! distinct latency. Its peak resident set must stay below that of the
//! timeline that stored every request's (arrival, latency) pair:
//! 144.7 MiB with that timeline, 113.6 MiB with the counting one
//! (release builds on x86-64 Linux; the debug build reads within
//! 1 MiB of each).
//!
//! This file holds one test only: it reads the peak of its waited-for
//! children, which any other test spawning a process would disturb.

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use std::process::{Command, Stdio};

/// The peak the run must stay under, in MiB: the per-request
/// timeline's peak, rounded down.
const PEAK_RSS_BOUND_MIB: f64 = 144.0;

extern "C" {
    /// `getrusage(2)`; `usage` points at a `struct rusage`, which on
    /// 64-bit Linux is two `timeval`s followed by fourteen `long`s.
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// `RUSAGE_CHILDREN`: the terminated children that were waited for.
const RUSAGE_CHILDREN: i32 = -1;

/// The largest resident set of any waited-for child, in MiB.
fn children_peak_rss_mib() -> f64 {
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is as large as the kernel's `struct rusage` on
    // 64-bit Linux, which the attribute at the top of the file ensures.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    // `ru_maxrss`, in KiB, follows the two 16-byte `timeval`s.
    usage[4] as f64 / 1024.0
}

#[test]
fn poisson_web_run_peaks_below_the_per_request_timeline() {
    let status = Command::new(env!("CARGO_BIN_EXE_zssd"))
        .args(["run", "--workload", "web", "--system", "dvp"])
        .args(["--arrival", "poisson"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("zssd starts");
    assert!(status.success(), "zssd run failed: {status}");
    let peak = children_peak_rss_mib();
    assert!(
        peak < PEAK_RSS_BOUND_MIB,
        "peak RSS {peak:.1} MiB, bound {PEAK_RSS_BOUND_MIB} MiB"
    );
}
