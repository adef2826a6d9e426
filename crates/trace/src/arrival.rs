//! Request arrival processes.
//!
//! The paper's latency results come from requests queueing behind NAND
//! programs and erases, so *when* requests arrive matters as much as
//! what they carry. This module generates arrival timestamps for a
//! trace under three processes, all seeded and deterministic:
//!
//! * [`ArrivalProcess::Constant`] — one request every fixed interval
//!   (the original replay behaviour: request `i` arrives at
//!   `i * interval`),
//! * [`ArrivalProcess::Poisson`] — exponential inter-arrival gaps, the
//!   classic open-system arrival model,
//! * [`ArrivalProcess::Bursty`] — an on/off process: requests arrive in
//!   geometric-length bursts at a fast intra-burst rate, separated by
//!   idle gaps, with the same long-run mean rate as the other two.
//!
//! Timestamps are stamped onto [`TraceRecord::arrival`] with
//! [`ArrivalProcess::stamp`], or drawn one at a time from
//! [`ArrivalProcess::times`] by the replay loop for unstamped records.
//!
//! # Examples
//!
//! ```
//! use zssd_trace::ArrivalProcess;
//! use zssd_types::SimDuration;
//!
//! let mean = SimDuration::from_micros(1000);
//! let constant = ArrivalProcess::constant(mean);
//! let times: Vec<_> = constant.times().take(3).collect();
//! assert_eq!(times[2].as_nanos(), 2_000_000);
//!
//! // Poisson and bursty keep the same mean rate, deterministically.
//! let poisson = ArrivalProcess::poisson(mean, 42);
//! assert_eq!(poisson.mean_interval(), mean);
//! let a: Vec<_> = poisson.times().take(100).collect();
//! let b: Vec<_> = poisson.times().take(100).collect();
//! assert_eq!(a, b);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use zssd_types::{SimDuration, SimTime};

use crate::record::TraceRecord;

/// Mean burst length used by [`ArrivalProcess::from_spec`] when a
/// `bursty` spec gives no explicit length.
pub const DEFAULT_BURST_LEN: f64 = 16.0;

/// Hard cap on a single burst's length, so a pathological RNG streak
/// cannot stall generation.
const MAX_BURST_LEN: u64 = 65_536;

/// How a trace's requests are spaced on the simulated wall clock.
///
/// All variants are `Copy` and carry their own seed, so a process value
/// fully determines its arrival sequence — two calls to
/// [`ArrivalProcess::times`] yield identical streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Request `i` arrives at exactly `i * interval`.
    Constant {
        /// Fixed inter-arrival gap.
        interval: SimDuration,
    },
    /// Exponentially distributed inter-arrival gaps (a Poisson
    /// process) with the given mean.
    Poisson {
        /// Mean inter-arrival gap (the reciprocal of the rate).
        mean_interval: SimDuration,
        /// RNG seed; the same seed reproduces the same arrivals.
        seed: u64,
    },
    /// On/off bursts: within a burst consecutive requests are
    /// `on_interval` apart; after a burst of geometric mean length
    /// `mean_burst_len` an extra `off_gap` of idle time passes. The
    /// long-run mean inter-arrival gap is
    /// `on_interval + off_gap / mean_burst_len`.
    Bursty {
        /// Gap between consecutive requests inside a burst.
        on_interval: SimDuration,
        /// Extra idle time between the end of one burst and the start
        /// of the next.
        off_gap: SimDuration,
        /// Mean burst length (geometric; must be >= 1).
        mean_burst_len: f64,
        /// RNG seed; the same seed reproduces the same arrivals.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// A constant-interval process — the backward-compatible default.
    pub fn constant(interval: SimDuration) -> Self {
        ArrivalProcess::Constant { interval }
    }

    /// A Poisson process with the given mean inter-arrival gap.
    pub fn poisson(mean_interval: SimDuration, seed: u64) -> Self {
        ArrivalProcess::Poisson {
            mean_interval,
            seed,
        }
    }

    /// A bursty on/off process with the given **long-run mean**
    /// inter-arrival gap: inside a burst requests arrive 4x faster
    /// than the mean rate; the idle gap between bursts is sized so the
    /// overall rate matches `mean_interval` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `mean_burst_len` is not finite or is below 1.
    pub fn bursty(mean_interval: SimDuration, mean_burst_len: f64, seed: u64) -> Self {
        assert!(
            mean_burst_len.is_finite() && mean_burst_len >= 1.0,
            "mean burst length must be >= 1"
        );
        let on = SimDuration::from_nanos(mean_interval.as_nanos() / 4);
        let deficit = mean_interval.saturating_sub(on);
        let off = SimDuration::from_nanos((deficit.as_nanos() as f64 * mean_burst_len) as u64);
        ArrivalProcess::Bursty {
            on_interval: on,
            off_gap: off,
            mean_burst_len,
            seed,
        }
    }

    /// Parses a process spec string, as used by the `ZSSD_ARRIVAL`
    /// environment variable and the `--arrival` CLI flag:
    ///
    /// * `constant` (aliases `uniform`, `fixed`) — constant interval,
    /// * `poisson` — Poisson arrivals,
    /// * `bursty` — on/off bursts of mean length [`DEFAULT_BURST_LEN`],
    /// * `bursty:<len>` — on/off bursts of mean length `<len>`.
    ///
    /// `mean` is the long-run mean inter-arrival gap for every variant
    /// and `seed` feeds the stochastic ones.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for unknown specs or
    /// malformed burst lengths.
    pub fn from_spec(spec: &str, mean: SimDuration, seed: u64) -> Result<Self, String> {
        match spec.trim() {
            "constant" | "uniform" | "fixed" => Ok(ArrivalProcess::constant(mean)),
            "poisson" => Ok(ArrivalProcess::poisson(mean, seed)),
            "bursty" => Ok(ArrivalProcess::bursty(mean, DEFAULT_BURST_LEN, seed)),
            other => {
                if let Some(raw) = other.strip_prefix("bursty:") {
                    let len: f64 = raw
                        .parse()
                        .map_err(|e| format!("bad burst length {raw:?}: {e}"))?;
                    if !len.is_finite() || len < 1.0 {
                        return Err(format!("burst length {len} must be >= 1"));
                    }
                    Ok(ArrivalProcess::bursty(mean, len, seed))
                } else {
                    Err(format!(
                        "unknown arrival process {other:?}; expected \
                         constant | poisson | bursty[:<mean-burst-len>]"
                    ))
                }
            }
        }
    }

    /// The long-run mean inter-arrival gap of this process.
    pub fn mean_interval(&self) -> SimDuration {
        match *self {
            ArrivalProcess::Constant { interval } => interval,
            ArrivalProcess::Poisson { mean_interval, .. } => mean_interval,
            ArrivalProcess::Bursty {
                on_interval,
                off_gap,
                mean_burst_len,
                ..
            } => {
                let extra = off_gap.as_nanos() as f64 / mean_burst_len;
                SimDuration::from_nanos(on_interval.as_nanos() + extra.round() as u64)
            }
        }
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem: stochastic processes need
    /// a positive mean gap, bursty needs a finite burst length >= 1.
    /// (A zero-interval constant process is allowed: it models
    /// replaying a trace as one back-to-back batch.)
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalProcess::Constant { .. } => Ok(()),
            ArrivalProcess::Poisson { mean_interval, .. } => {
                if mean_interval == SimDuration::ZERO {
                    Err("poisson arrivals need a positive mean interval".to_owned())
                } else {
                    Ok(())
                }
            }
            ArrivalProcess::Bursty {
                on_interval,
                off_gap,
                mean_burst_len,
                ..
            } => {
                if !mean_burst_len.is_finite() || mean_burst_len < 1.0 {
                    Err(format!("mean burst length {mean_burst_len} must be >= 1"))
                } else if on_interval == SimDuration::ZERO && off_gap == SimDuration::ZERO {
                    Err("bursty arrivals need a positive on-interval or off-gap".to_owned())
                } else {
                    Ok(())
                }
            }
        }
    }

    /// An infinite iterator of arrival instants, starting at
    /// [`SimTime::ZERO`]. Deterministic: the process (including its
    /// embedded seed) fully determines the stream.
    pub fn times(&self) -> ArrivalTimes {
        let seed = match *self {
            ArrivalProcess::Constant { .. } => 0,
            ArrivalProcess::Poisson { seed, .. } | ArrivalProcess::Bursty { seed, .. } => seed,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let burst_left = match *self {
            ArrivalProcess::Bursty { mean_burst_len, .. } => {
                geometric_burst(mean_burst_len, &mut rng) - 1
            }
            _ => 0,
        };
        ArrivalTimes {
            process: *self,
            rng,
            index: 0,
            next: SimTime::ZERO,
            burst_left,
        }
    }

    /// Stamps every record's [`TraceRecord::arrival`] with this
    /// process's arrival instants, in order.
    pub fn stamp(&self, records: &mut [TraceRecord]) {
        let mut times = self.times();
        for record in records {
            record.arrival = Some(times.next_time());
        }
    }
}

impl core::fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ArrivalProcess::Constant { interval } => write!(f, "constant({interval})"),
            ArrivalProcess::Poisson { mean_interval, .. } => {
                write!(f, "poisson(mean {mean_interval})")
            }
            ArrivalProcess::Bursty {
                on_interval,
                off_gap,
                mean_burst_len,
                ..
            } => write!(
                f,
                "bursty(on {on_interval}, off {off_gap}, mean burst {mean_burst_len})"
            ),
        }
    }
}

/// Samples an exponential gap with the given mean via inversion.
fn exponential_gap(mean: SimDuration, rng: &mut SmallRng) -> SimDuration {
    let u: f64 = rng.random();
    // u in [0, 1), so 1 - u in (0, 1] and the log is finite and <= 0.
    let nanos = -(mean.as_nanos() as f64) * (1.0 - u).ln();
    SimDuration::from_nanos(nanos.round() as u64)
}

/// Samples a geometric burst length with the given mean (>= 1).
fn geometric_burst(mean_len: f64, rng: &mut SmallRng) -> u64 {
    if mean_len <= 1.0 {
        return 1;
    }
    let continue_p = 1.0 - 1.0 / mean_len;
    let mut len = 1u64;
    while len < MAX_BURST_LEN && rng.random::<f64>() < continue_p {
        len += 1;
    }
    len
}

/// The infinite arrival-instant stream of an [`ArrivalProcess`]; see
/// [`ArrivalProcess::times`].
#[derive(Debug, Clone)]
pub struct ArrivalTimes {
    process: ArrivalProcess,
    rng: SmallRng,
    index: u64,
    next: SimTime,
    burst_left: u64,
}

impl ArrivalTimes {
    /// The next arrival instant (the stream never ends).
    pub fn next_time(&mut self) -> SimTime {
        match self.process {
            ArrivalProcess::Constant { interval } => {
                // Exact integer multiples: request i arrives at
                // i * interval, bit-identical to the legacy replay.
                let t = SimTime::ZERO + interval.mul(self.index);
                self.index += 1;
                t
            }
            ArrivalProcess::Poisson { mean_interval, .. } => {
                let t = self.next;
                self.next = t + exponential_gap(mean_interval, &mut self.rng);
                t
            }
            ArrivalProcess::Bursty {
                on_interval,
                off_gap,
                mean_burst_len,
                ..
            } => {
                let t = self.next;
                let gap = if self.burst_left > 0 {
                    self.burst_left -= 1;
                    on_interval
                } else {
                    self.burst_left = geometric_burst(mean_burst_len, &mut self.rng) - 1;
                    on_interval + off_gap
                };
                self.next = t + gap;
                t
            }
        }
    }
}

impl Iterator for ArrivalTimes {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        Some(self.next_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_types::Lpn;
    use zssd_types::ValueId;

    const MEAN: SimDuration = SimDuration::from_micros(1000);

    fn mean_gap_of(process: &ArrivalProcess, n: u64) -> f64 {
        let times: Vec<SimTime> = process.times().take(n as usize).collect();
        let span = times[times.len() - 1].saturating_since(times[0]);
        span.as_nanos() as f64 / (n - 1) as f64
    }

    #[test]
    fn constant_matches_integer_multiples() {
        let p = ArrivalProcess::constant(MEAN);
        for (i, t) in p.times().take(10).enumerate() {
            assert_eq!(t, SimTime::ZERO + MEAN.mul(i as u64));
        }
    }

    #[test]
    fn all_processes_start_at_zero_and_are_monotone() {
        for p in [
            ArrivalProcess::constant(MEAN),
            ArrivalProcess::poisson(MEAN, 7),
            ArrivalProcess::bursty(MEAN, 8.0, 7),
        ] {
            p.validate().expect("valid");
            let times: Vec<SimTime> = p.times().take(500).collect();
            assert_eq!(times[0], SimTime::ZERO, "{p}");
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "{p}: monotone");
        }
    }

    #[test]
    fn stochastic_processes_are_seed_deterministic() {
        for p in [
            ArrivalProcess::poisson(MEAN, 9),
            ArrivalProcess::bursty(MEAN, 4.0, 9),
        ] {
            let a: Vec<SimTime> = p.times().take(200).collect();
            let b: Vec<SimTime> = p.times().take(200).collect();
            assert_eq!(a, b, "{p}: same process, same stream");
        }
        let a: Vec<SimTime> = ArrivalProcess::poisson(MEAN, 1).times().take(50).collect();
        let b: Vec<SimTime> = ArrivalProcess::poisson(MEAN, 2).times().take(50).collect();
        assert_ne!(a, b, "different seeds differ");
    }

    #[test]
    fn empirical_means_match_the_target() {
        for p in [
            ArrivalProcess::poisson(MEAN, 11),
            ArrivalProcess::bursty(MEAN, 16.0, 11),
        ] {
            let got = mean_gap_of(&p, 20_000);
            let want = MEAN.as_nanos() as f64;
            assert!(
                (got - want).abs() / want < 0.1,
                "{p}: empirical mean {got} vs target {want}"
            );
        }
    }

    #[test]
    fn bursty_gaps_are_bimodal() {
        let p = ArrivalProcess::bursty(MEAN, 8.0, 3);
        let ArrivalProcess::Bursty {
            on_interval,
            off_gap,
            ..
        } = p
        else {
            unreachable!()
        };
        let times: Vec<SimTime> = p.times().take(1000).collect();
        let mut on = 0u64;
        let mut off = 0u64;
        for w in times.windows(2) {
            let gap = w[1].saturating_since(w[0]);
            if gap == on_interval {
                on += 1;
            } else if gap == on_interval + off_gap {
                off += 1;
            } else {
                panic!("unexpected gap {gap}");
            }
        }
        assert!(on > 0 && off > 0, "both burst phases must occur");
        assert!(on > off, "most gaps are intra-burst");
    }

    #[test]
    fn mean_interval_is_consistent() {
        assert_eq!(ArrivalProcess::constant(MEAN).mean_interval(), MEAN);
        assert_eq!(ArrivalProcess::poisson(MEAN, 0).mean_interval(), MEAN);
        let b = ArrivalProcess::bursty(MEAN, 16.0, 0).mean_interval();
        let err = (b.as_nanos() as f64 - MEAN.as_nanos() as f64).abs() / MEAN.as_nanos() as f64;
        assert!(err < 0.001, "bursty mean {b} vs {MEAN}");
    }

    #[test]
    fn stamp_fills_every_record() {
        let mut records = vec![
            TraceRecord::write(Lpn::new(0), ValueId::new(1)),
            TraceRecord::read(Lpn::new(0), ValueId::new(1)),
            TraceRecord::trim(Lpn::new(0)),
        ];
        ArrivalProcess::constant(MEAN).stamp(&mut records);
        assert_eq!(records[0].arrival, Some(SimTime::ZERO));
        assert_eq!(records[1].arrival, Some(SimTime::ZERO + MEAN));
        assert_eq!(records[2].arrival, Some(SimTime::ZERO + MEAN.mul(2)));
    }

    #[test]
    fn spec_parsing_round_trips() {
        let mean = MEAN;
        assert_eq!(
            ArrivalProcess::from_spec("constant", mean, 5).expect("ok"),
            ArrivalProcess::constant(mean)
        );
        assert_eq!(
            ArrivalProcess::from_spec("uniform", mean, 5).expect("ok"),
            ArrivalProcess::constant(mean)
        );
        assert_eq!(
            ArrivalProcess::from_spec("poisson", mean, 5).expect("ok"),
            ArrivalProcess::poisson(mean, 5)
        );
        assert_eq!(
            ArrivalProcess::from_spec("bursty", mean, 5).expect("ok"),
            ArrivalProcess::bursty(mean, DEFAULT_BURST_LEN, 5)
        );
        assert_eq!(
            ArrivalProcess::from_spec("bursty:4", mean, 5).expect("ok"),
            ArrivalProcess::bursty(mean, 4.0, 5)
        );
        assert!(ArrivalProcess::from_spec("bogus", mean, 5).is_err());
        assert!(ArrivalProcess::from_spec("bursty:0.5", mean, 5).is_err());
        assert!(ArrivalProcess::from_spec("bursty:x", mean, 5).is_err());
    }

    #[test]
    fn validation_catches_degenerate_parameters() {
        assert!(ArrivalProcess::constant(SimDuration::ZERO)
            .validate()
            .is_ok());
        assert!(ArrivalProcess::poisson(SimDuration::ZERO, 0)
            .validate()
            .is_err());
        let degenerate = ArrivalProcess::Bursty {
            on_interval: SimDuration::ZERO,
            off_gap: SimDuration::ZERO,
            mean_burst_len: 4.0,
            seed: 0,
        };
        assert!(degenerate.validate().is_err());
        let bad_len = ArrivalProcess::Bursty {
            on_interval: MEAN,
            off_gap: MEAN,
            mean_burst_len: 0.0,
            seed: 0,
        };
        assert!(bad_len.validate().is_err());
    }
}
