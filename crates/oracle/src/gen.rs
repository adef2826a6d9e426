//! Seeded adversarial command-sequence generator.
//!
//! Traces come out of a [`FuzzRng`] built on the workspace's one
//! splitmix64 finalizer ([`zssd_types::splitmix64`]) — pure functions of the seed, no
//! global state, so a seed printed by a failing CI run reproduces the
//! exact trace on any machine (DESIGN.md §12).
//!
//! The generator is phase-structured rather than uniformly random:
//! uniform traces almost never trigger revival, dedup sharing, or GC
//! emergencies on a small drive. Each phase is a short burst of one
//! adversarial pattern:
//!
//! * **hot overwrite** — a few values cycled over a small LPN window,
//!   creating kill/rebirth churn (the paper's zombie pattern),
//! * **sequential fill** — fresh never-seen values, pure GC pressure,
//! * **trim storm** — discards across the whole address space,
//! * **read sweep** — interleaved verification points,
//! * **dedup burst** — one value written to many LPNs, occasionally a
//!   page's *pre-trace* content (probing dedup against the
//!   preconditioned index),
//! * **revive probe** — write / kill / rewrite triples aimed squarely
//!   at the dead-value pool.
//!
//! Every read record carries the content the generator's own shadow
//! map expects at that point, so full (unshrunk) traces are
//! self-checking through `RunReport::read_mismatches` too.

use zssd_trace::{initial_value_of, TraceRecord};
use zssd_types::{splitmix64, Lpn, ValueId};

/// A tiny deterministic generator: a splitmix64 counter stream. Not a
/// statistical-quality PRNG — a reproducibility contract. The same
/// seed yields the same stream on every platform and thread count.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FuzzRng {
            state: splitmix64(seed),
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// A uniform draw in `0..n` (`n > 0`; the modulo bias is harmless
    /// at fuzzing's tiny ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `per_1024 / 1024`.
    pub fn chance(&mut self, per_1024: u64) -> bool {
        self.below(1024) < per_1024
    }
}

/// Shape parameters of a generated trace.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Logical address space the trace touches (must not exceed the
    /// replaying drive's `logical_pages`).
    pub logical_pages: u64,
    /// Number of commands to emit.
    pub ops: usize,
    /// Size of the recurring-value universe; small on purpose so
    /// content recurs and the pool and dedup index actually fire.
    pub value_space: u64,
    /// Number of hot values the overwrite phases cycle through.
    pub hot_values: u64,
}

impl GenConfig {
    /// The standard fuzzing shape: the `SsdConfig::small_test`
    /// footprint (192 logical pages) with a 512-value universe.
    pub fn standard(ops: usize) -> Self {
        GenConfig {
            logical_pages: crate::diff::FUZZ_LOGICAL_PAGES,
            ops,
            value_space: 512,
            hot_values: 16,
        }
    }
}

/// Generates a deterministic adversarial trace of `config.ops`
/// commands from `seed`.
pub fn generate(seed: u64, config: &GenConfig) -> Vec<TraceRecord> {
    let pages = config.logical_pages;
    assert!(pages > 0 && config.value_space > 0 && config.hot_values > 0);
    let mut rng = FuzzRng::new(seed);
    let hot: Vec<ValueId> = (0..config.hot_values)
        .map(|_| ValueId::new(rng.below(config.value_space)))
        .collect();
    // Shadow of the drive's logical state, used only to label read
    // records with their expected content.
    let mut live: Vec<Option<ValueId>> = vec![None; pages as usize];
    let mut fresh = config.value_space; // fresh values start above the recurring universe
    let mut out: Vec<TraceRecord> = Vec::with_capacity(config.ops);

    while out.len() < config.ops {
        let len = (8 + rng.below(41)) as usize;
        match rng.below(6) {
            // Hot overwrites: few values, narrow LPN window.
            0 => {
                let window = (pages / 4).max(1);
                let base = rng.below(pages);
                for _ in 0..len {
                    let lpn = Lpn::new((base + rng.below(window)) % pages);
                    let value = hot[rng.below(hot.len() as u64) as usize];
                    push_write(&mut out, &mut live, lpn, value);
                }
            }
            // Sequential fill with fresh content: GC pressure.
            1 => {
                let start = rng.below(pages);
                for i in 0..len as u64 {
                    let lpn = Lpn::new((start + i) % pages);
                    let value = ValueId::new(fresh);
                    fresh += 1;
                    push_write(&mut out, &mut live, lpn, value);
                }
            }
            // Trim storm.
            2 => {
                for _ in 0..len {
                    let lpn = Lpn::new(rng.below(pages));
                    live[lpn.index() as usize] = None;
                    out.push(TraceRecord::trim(lpn));
                }
            }
            // Read sweep: verification points.
            3 => {
                for _ in 0..len {
                    let lpn = Lpn::new(rng.below(pages));
                    let expected =
                        live[lpn.index() as usize].unwrap_or_else(|| initial_value_of(lpn));
                    out.push(TraceRecord::read(lpn, expected));
                }
            }
            // Dedup burst: one value sprayed across many LPNs;
            // sometimes a page's pre-trace content, probing dedup
            // against the preconditioned fingerprint index.
            4 => {
                let value = if rng.chance(256) {
                    initial_value_of(Lpn::new(rng.below(pages)))
                } else {
                    ValueId::new(rng.below(config.value_space))
                };
                for _ in 0..len {
                    let lpn = Lpn::new(rng.below(pages));
                    push_write(&mut out, &mut live, lpn, value);
                }
            }
            // Revive probes: write, kill, rewrite.
            _ => {
                for _ in 0..len / 3 + 1 {
                    let value = hot[rng.below(hot.len() as u64) as usize];
                    let a = Lpn::new(rng.below(pages));
                    let b = Lpn::new(rng.below(pages));
                    push_write(&mut out, &mut live, a, value);
                    if rng.chance(512) {
                        push_write(&mut out, &mut live, a, ValueId::new(fresh));
                        fresh += 1;
                    } else {
                        live[a.index() as usize] = None;
                        out.push(TraceRecord::trim(a));
                    }
                    push_write(&mut out, &mut live, b, value);
                }
            }
        }
    }
    out.truncate(config.ops);
    out
}

fn push_write(out: &mut Vec<TraceRecord>, live: &mut [Option<ValueId>], lpn: Lpn, value: ValueId) {
    live[lpn.index() as usize] = Some(value);
    out.push(TraceRecord::write(lpn, value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleDrive;

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::standard(1_000);
        assert_eq!(generate(7, &config), generate(7, &config));
        assert_ne!(generate(7, &config), generate(8, &config));
    }

    #[test]
    fn traces_have_the_requested_shape() {
        let config = GenConfig::standard(500);
        let records = generate(3, &config);
        assert_eq!(records.len(), 500);
        assert!(records.iter().all(|r| r.lpn.index() < config.logical_pages));
        let writes = records.iter().filter(|r| r.is_write()).count();
        let trims = records.iter().filter(|r| r.is_trim()).count();
        let reads = records.len() - writes - trims;
        assert!(writes > 0 && trims > 0 && reads > 0, "all op kinds present");
    }

    #[test]
    fn read_records_carry_oracle_expected_content() {
        let records = generate(11, &GenConfig::standard(2_000));
        let mut oracle = OracleDrive::new(crate::diff::FUZZ_LOGICAL_PAGES, true);
        for (i, record) in records.iter().enumerate() {
            if let Some(expected) = oracle.step(record).expect("in range") {
                assert_eq!(expected, record.value, "read at record {i}");
            }
        }
    }

    #[test]
    fn rng_streams_are_stable_across_clones() {
        let mut a = FuzzRng::new(42);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // chance() is a plain threshold over below().
        let mut c = FuzzRng::new(1);
        let hits = (0..10_000).filter(|_| c.chance(512)).count();
        assert!((4_000..6_000).contains(&hits), "~50% hit rate, got {hits}");
    }
}
