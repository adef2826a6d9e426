//! Deterministic, seeded NAND fault injection.
//!
//! Real NAND fails: programs abort, erases wear out blocks until they
//! stop erasing, reads come back with uncorrectable ECC errors. The
//! [`FaultPlan`] decides — deterministically, from a seed — whether
//! each NAND operation the array executes fails, so the FTL's recovery
//! machinery (program retry, block retirement, read scrubbing) can be
//! exercised and tested reproducibly.
//!
//! # Determinism contract
//!
//! Every decision is a pure hash of `(seed, operation kind, target
//! address, per-plan operation counter)` — no shared RNG stream. Two
//! drives built from the same [`FaultConfig`] and driven with the same
//! operation sequence make bit-identical decisions, regardless of how
//! many other drives run concurrently (each [`FlashArray`] owns its
//! plan), so the threaded experiment grid reproduces single-threaded
//! results exactly.
//!
//! With every probability at zero the plan never fails anything and
//! the array behaves byte-identically to a fault-free build.
//!
//! [`FlashArray`]: crate::FlashArray
//!
//! # Examples
//!
//! ```
//! use zssd_flash::{FaultConfig, FaultKind, FaultPlan};
//!
//! let config = FaultConfig::none().with_program_fail(1.0);
//! let mut plan = FaultPlan::new(config);
//! assert!(plan.decide(FaultKind::Program, 0));
//! assert!(!plan.decide(FaultKind::Erase, 0));
//!
//! // Same config, same op sequence -> same decisions.
//! let replay: Vec<bool> = {
//!     let mut p = FaultPlan::new(config);
//!     (0..8).map(|i| p.decide(FaultKind::Program, i)).collect()
//! };
//! let again: Vec<bool> = {
//!     let mut p = FaultPlan::new(config);
//!     (0..8).map(|i| p.decide(FaultKind::Program, i)).collect()
//! };
//! assert_eq!(replay, again);
//! ```

use core::fmt;

use zssd_types::splitmix64;

/// Which NAND operation a fault decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A page program (host write or GC/scrub relocation).
    Program,
    /// A block erase.
    Erase,
    /// A page read (an uncorrectable-ECC event forcing a retry).
    Read,
}

impl FaultKind {
    /// A fixed per-kind salt so the three decision streams are
    /// independent even for the same target address.
    fn salt(self) -> u64 {
        match self {
            FaultKind::Program => 0x9e37_79b9_7f4a_7c15,
            FaultKind::Erase => 0xc2b2_ae3d_27d4_eb4f,
            FaultKind::Read => 0x1656_67b1_9e37_79f9,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Program => "program",
            FaultKind::Erase => "erase",
            FaultKind::Read => "read",
        };
        f.write_str(s)
    }
}

/// Per-operation fault probabilities plus the seed that makes them
/// reproducible.
///
/// The default ([`FaultConfig::none`]) injects nothing; the array then
/// behaves byte-identically to a build without fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a page program fails (the page is marked bad).
    pub program_fail: f64,
    /// Probability that a block erase fails (repeated failures retire
    /// the block).
    pub erase_fail: f64,
    /// Probability that a page read raises an uncorrectable ECC error
    /// and must be retried.
    pub read_error: f64,
    /// Seed of the decision hash; the same seed reproduces the same
    /// fault pattern for the same operation sequence.
    pub seed: u64,
}

impl FaultConfig {
    /// No injected faults at all — the fault-free default.
    pub const fn none() -> Self {
        FaultConfig {
            program_fail: 0.0,
            erase_fail: 0.0,
            read_error: 0.0,
            seed: 0,
        }
    }

    /// Whether this configuration can ever inject a fault.
    pub fn is_none(&self) -> bool {
        self.program_fail <= 0.0 && self.erase_fail <= 0.0 && self.read_error <= 0.0
    }

    /// Returns a copy with the given program-failure probability.
    pub const fn with_program_fail(mut self, p: f64) -> Self {
        self.program_fail = p;
        self
    }

    /// Returns a copy with the given erase-failure probability.
    pub const fn with_erase_fail(mut self, p: f64) -> Self {
        self.erase_fail = p;
        self
    }

    /// Returns a copy with the given read-ECC-error probability.
    pub const fn with_read_error(mut self, p: f64) -> Self {
        self.read_error = p;
        self
    }

    /// Returns a copy with the given decision seed.
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses a fault spec string, as used by the `ZSSD_FAULTS`
    /// environment variable and the `--fault-rate` CLI flag:
    ///
    /// * a bare probability (`1e-3`) — applied to program, erase, and
    ///   read alike,
    /// * a comma-separated key list —
    ///   `program=1e-3,erase=5e-3,read=1e-3,seed=42`, any
    ///   subset, unnamed keys defaulting to zero.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for unknown keys, malformed
    /// numbers, or probabilities outside `[0, 1]`.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultConfig::none());
        }
        let mut config = FaultConfig::none();
        if !spec.contains('=') {
            let p = parse_probability("rate", spec)?;
            return Ok(config
                .with_program_fail(p)
                .with_erase_fail(p)
                .with_read_error(p));
        }
        for part in spec.split(',') {
            let part = part.trim();
            let Some((key, raw)) = part.split_once('=') else {
                return Err(format!("bad fault spec field {part:?}; expected key=value"));
            };
            let (key, raw) = (key.trim(), raw.trim());
            match key {
                "program" => config.program_fail = parse_probability(key, raw)?,
                "erase" => config.erase_fail = parse_probability(key, raw)?,
                "read" => config.read_error = parse_probability(key, raw)?,
                "seed" => {
                    config.seed = raw
                        .parse()
                        .map_err(|e| format!("bad fault seed {raw:?}: {e}"))?;
                }
                other => {
                    return Err(format!(
                        "unknown fault spec key {other:?}; expected \
                         program | erase | read | seed"
                    ));
                }
            }
        }
        Ok(config)
    }

    /// Reads the `ZSSD_FAULTS` environment knob; unset or empty means
    /// no injected faults.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec — a bad environment knob should stop
    /// an experiment loudly, not run it fault-free.
    pub fn from_env() -> Self {
        match std::env::var("ZSSD_FAULTS") {
            Ok(spec) => {
                FaultConfig::from_spec(&spec).unwrap_or_else(|e| panic!("invalid ZSSD_FAULTS: {e}"))
            }
            Err(_) => FaultConfig::none(),
        }
    }

    /// Validates the probabilities.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if any probability is
    /// outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("program_fail", self.program_fail),
            ("erase_fail", self.erase_fail),
            ("read_error", self.read_error),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {name}={p} must be in [0, 1]"));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program={} erase={} read={} seed={}",
            self.program_fail, self.erase_fail, self.read_error, self.seed
        )
    }
}

/// The per-array fault decider: a [`FaultConfig`] plus the operation
/// counter that individualizes otherwise-identical decisions.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    ops: u64,
}

impl FaultPlan {
    /// Creates a plan for the given configuration.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config, ops: 0 }
    }

    /// Decides whether the next operation of `kind` on `target` (a
    /// page or block index) fails. Each call consumes one slot of the
    /// decision stream.
    pub fn decide(&mut self, kind: FaultKind, target: u64) -> bool {
        let op = self.ops;
        self.ops = self.ops.wrapping_add(1);
        let p = match kind {
            FaultKind::Program => self.config.program_fail,
            FaultKind::Erase => self.config.erase_fail,
            FaultKind::Read => self.config.read_error,
        };
        if p <= 0.0 {
            return false;
        }
        unit_interval(splitmix64(
            self.config.seed ^ splitmix64(kind.salt() ^ target) ^ splitmix64(op),
        )) < p
    }
}

/// Maps a hash to a uniform float in `[0, 1)` from its top 53 bits.
fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Parses one probability field of a fault spec.
fn parse_probability(name: &str, raw: &str) -> Result<f64, String> {
    let p: f64 = raw
        .parse()
        .map_err(|e| format!("bad fault probability {name}={raw:?}: {e}"))?;
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(format!("fault probability {name}={p} must be in [0, 1]"));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let mut plan = FaultPlan::new(FaultConfig::none());
        assert!(FaultConfig::none().is_none());
        for i in 0..1000 {
            assert!(!plan.decide(FaultKind::Program, i));
            assert!(!plan.decide(FaultKind::Erase, i));
            assert!(!plan.decide(FaultKind::Read, i));
        }
    }

    #[test]
    fn certain_failure_always_fails() {
        let mut plan = FaultPlan::new(FaultConfig::none().with_program_fail(1.0));
        for i in 0..100 {
            assert!(plan.decide(FaultKind::Program, i));
        }
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let config = FaultConfig::none()
            .with_program_fail(0.3)
            .with_read_error(0.2)
            .with_seed(42);
        let run = |config| {
            let mut plan = FaultPlan::new(config);
            (0..500)
                .map(|i| {
                    plan.decide(
                        if i % 2 == 0 {
                            FaultKind::Program
                        } else {
                            FaultKind::Read
                        },
                        i,
                    )
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(config), run(config));
        assert_ne!(
            run(config),
            run(config.with_seed(43)),
            "different seeds differ"
        );
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let mut plan = FaultPlan::new(FaultConfig::none().with_program_fail(0.1).with_seed(7));
        let fails = (0..20_000)
            .filter(|&i| plan.decide(FaultKind::Program, i % 64))
            .count();
        let rate = fails as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "empirical rate {rate}");
    }

    #[test]
    fn spec_parsing_round_trips() {
        assert_eq!(FaultConfig::from_spec("").expect("ok"), FaultConfig::none());
        let uniform = FaultConfig::from_spec("1e-3").expect("ok");
        assert_eq!(uniform.program_fail, 1e-3);
        assert_eq!(uniform.erase_fail, 1e-3);
        assert_eq!(uniform.read_error, 1e-3);
        let full = FaultConfig::from_spec("program=1e-3,erase=5e-3,read=1e-3,seed=9").expect("ok");
        assert_eq!(full.program_fail, 1e-3);
        assert_eq!(full.erase_fail, 5e-3);
        assert_eq!(full.read_error, 1e-3);
        assert_eq!(full.seed, 9);
        assert_eq!(
            FaultConfig::from_spec(" program = 0.5 ")
                .expect("ok")
                .program_fail,
            0.5,
            "whitespace tolerated"
        );
        assert!(FaultConfig::from_spec("bogus=1").is_err());
        assert!(FaultConfig::from_spec("program=2.0").is_err());
        assert!(FaultConfig::from_spec("program=x").is_err());
        assert!(FaultConfig::from_spec("wear=2").is_err(), "no wear knob");
        assert!(FaultConfig::from_spec("seed=x").is_err());
        assert!(FaultConfig::from_spec("5").is_err(), "bare rate above 1");
    }

    #[test]
    fn validation_catches_bad_probabilities() {
        assert!(FaultConfig::none().validate().is_ok());
        assert!(FaultConfig::none()
            .with_program_fail(2.0)
            .validate()
            .is_err());
        assert!(FaultConfig::none()
            .with_erase_fail(-0.1)
            .validate()
            .is_err());
        assert!(FaultConfig::none()
            .with_read_error(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn kinds_display_and_salt_independently() {
        assert_eq!(FaultKind::Program.to_string(), "program");
        assert_eq!(FaultKind::Erase.to_string(), "erase");
        assert_eq!(FaultKind::Read.to_string(), "read");
        // The same op index decides differently per kind (independent
        // streams) for a rate that fails about half the time.
        let config = FaultConfig::none()
            .with_program_fail(0.5)
            .with_erase_fail(0.5)
            .with_read_error(0.5)
            .with_seed(3);
        let mut a = FaultPlan::new(config);
        let mut b = FaultPlan::new(config);
        let programs: Vec<bool> = (0..64).map(|i| a.decide(FaultKind::Program, i)).collect();
        let erases: Vec<bool> = (0..64).map(|i| b.decide(FaultKind::Erase, i)).collect();
        assert_ne!(programs, erases);
    }

    #[test]
    fn display_mentions_every_knob() {
        let text = FaultConfig::from_spec("program=0.1,seed=4")
            .expect("ok")
            .to_string();
        assert!(text.contains("program=0.1"));
        assert!(text.contains("seed=4"));
    }
}
