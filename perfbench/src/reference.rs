//! The host-speed reference: a fixed memory kernel, sampled between the
//! chunks of every replay, whose time tracks how fast the shared host's
//! memory system serves this process at that moment.
//!
//! On a shared host the simulator's speed swings by 20–40% within
//! minutes, mostly through co-tenants' use of the shared cache and memory
//! bandwidth; a pure compute kernel barely moves with it. The kernel
//! imitates the simulator's dominant cost, random read-modify-writes to
//! a table far larger than the private caches. Sampled briefly between
//! replay chunks, it sees the same contention as the replay around it
//! (its per-cell time correlated 0.86–0.89 with the replay's on the
//! 2-CPU host the benchmark was tuned on, where a kernel run once per
//! cell correlated about 0.5). End-to-end times are reported scaled to a
//! host on which one sample takes [`NOMINAL_SAMPLE_S`]. The kernel is
//! part of the benchmark, not of the simulator, so a change to the
//! simulator does not change its code.

use std::hint::black_box;
use std::time::Instant;

/// One sample's nominal wall-clock seconds: roughly its median on the
/// host the benchmark was tuned on. Scaling to it keeps normalised times
/// close to plain wall-clock seconds.
pub const NOMINAL_SAMPLE_S: f64 = 0.000_55;

/// Entries of the random-access table: 64 MiB of `u64`.
const TABLE_LEN: usize = 1 << 23;
/// Random read-modify-writes per sample.
const SAMPLE_STEPS: u64 = 20_000;

/// The kernel's table and its address stream. The table is allocated
/// and touched once, so that a sample measures memory access and not
/// page faults.
#[derive(Debug)]
pub struct Reference {
    table: Vec<u64>,
    state: u64,
    /// Seconds of every sample taken so far.
    spent_s: f64,
    /// Samples taken so far.
    samples: u32,
}

impl Reference {
    /// Allocates and touches the table.
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE_LEN as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            spent_s: 0.0,
            samples: 0,
        }
    }

    /// Runs one sample of the kernel and adds its time to the tally.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut state = self.state;
        for step in 0..SAMPLE_STEPS {
            // xorshift64: a fixed, cheap pseudo-random address stream.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let slot = &mut self.table[state as usize % TABLE_LEN];
            *slot = slot.wrapping_add(step ^ state);
        }
        black_box(&self.table);
        self.state = state;
        self.spent_s += start.elapsed().as_secs_f64();
        self.samples += 1;
    }

    /// Mean seconds per sample since the last call, and a fresh tally.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken since the last call.
    pub fn take_mean_s(&mut self) -> f64 {
        assert!(self.samples > 0, "no reference samples taken");
        let mean = self.spent_s / f64::from(self.samples);
        self.spent_s = 0.0;
        self.samples = 0;
        mean
    }
}
