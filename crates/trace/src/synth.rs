//! The synthetic content-trace generator.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use zssd_types::{Lpn, ValueId};

use crate::profile::WorkloadProfile;
use crate::record::{initial_value_of, IoOp, TraceRecord};
use crate::zipf::ZipfSampler;

/// The content of a slot whose address has not been written since the
/// trace began, or was trimmed: it reads as [`initial_value_of`].
const UNWRITTEN: u32 = u32::MAX;

/// Re-orders a multiset of value occurrences into a run-shuffled
/// sequence: each value's `count` occurrences are split into runs of
/// geometric length (mean `burst_len`), and the runs — not the
/// individual occurrences — are placed in random order. `burst_len <=
/// 1` degenerates to a plain uniform shuffle.
///
/// Values are dense ranks below `unique`, so their counts live in a
/// rank-indexed vector and are walked in rank order.
fn burstify<R: rand::Rng + ?Sized>(
    values: Vec<u64>,
    unique: usize,
    burst_len: f64,
    rng: &mut R,
) -> Vec<u64> {
    if burst_len <= 1.0 {
        let mut values = values;
        values.shuffle(rng);
        return values;
    }
    let mut counts = vec![0u32; unique];
    for &v in &values {
        counts[v as usize] += 1;
    }
    let continue_p = 1.0 - 1.0 / burst_len;
    let mut runs: Vec<(u64, u32)> = Vec::new();
    for (v, mut remaining) in (0u64..).zip(counts) {
        while remaining > 0 {
            let mut len = 1u32;
            while len < remaining && rng.random::<f64>() < continue_p {
                len += 1;
            }
            runs.push((v, len));
            remaining -= len;
        }
    }
    runs.shuffle(rng);
    let mut out = Vec::with_capacity(values.len());
    for (v, len) in runs {
        out.extend(std::iter::repeat_n(v, len as usize));
    }
    out
}

/// A generated multi-day content trace.
///
/// Generation (deterministic for a given profile + seed):
///
/// 1. The write/read interleaving is an exact-count random shuffle of
///    `write_ratio · total` writes and the remaining reads.
/// 2. Write **contents**: `unique_write_frac · writes` distinct values
///    are each written once (their *creations*); every remaining write
///    repeats an existing value drawn Zipf(`value_alpha`) by rank —
///    this single knob produces the paper's skewed popularity,
///    invalidation, and rebirth distributions (Figs 2–4).
/// 3. Write **addresses** are drawn Zipf(`lpn_alpha`) through a random
///    rank→LPN permutation, so hot addresses and hot values are
///    independent. Overwriting an address kills the value copy it held.
/// 4. Read addresses are drawn Zipf(`read_alpha`); the record carries
///    the content currently held there (pre-trace addresses hold
///    [`initial_value_of`] content).
///
///    Steps 3 and 4 share one slot table: slot `r` holds the LPN at
///    rank `r` and the value that LPN now holds (`u32::MAX` for initial
///    content). Every address is named by a rank — a value's home, a
///    write or trim draw, or a read draw — so a write sets a slot, a
///    trim resets it, and a read takes its LPN and content from one
///    8-byte slot. The table is built in LPN order and shuffled with
///    the same call a permutation of plain LPNs would use; Fisher–Yates
///    draws depend only on the length, so the permutation is the same.
///    Both halves are `u32`: [`ZipfSampler::new`] keeps the footprint
///    within `u32::MAX` pages, and generation asserts that the write
///    count, hence every value rank, stays below `u32::MAX`.
/// 5. When `trim_ratio > 0`, that fraction of requests are TRIMs
///    aimed at the write-hot region; a trimmed address reads as
///    initial content afterwards. At the default ratio of zero the
///    trace is bit-identical to pre-TRIM versions of the generator.
///
/// # Examples
///
/// ```
/// use zssd_trace::{SyntheticTrace, WorkloadProfile};
/// let trace = SyntheticTrace::generate(&WorkloadProfile::web().scaled(0.01), 1);
/// assert_eq!(trace.num_days(), 3);
/// assert_eq!(trace.records().len(), trace.day(0).len() * 3);
/// // Deterministic: same seed, same trace.
/// let again = SyntheticTrace::generate(&WorkloadProfile::web().scaled(0.01), 1);
/// assert_eq!(trace.records(), again.records());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTrace {
    name: String,
    records: Vec<TraceRecord>,
    requests_per_day: usize,
    days: u32,
}

impl SyntheticTrace {
    /// Generates a trace from a profile, deterministically in `seed`.
    pub fn generate(profile: &WorkloadProfile, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let total = profile.total_requests() as usize;
        let writes = ((total as f64) * profile.write_ratio).round() as usize;
        let writes = writes.min(total);
        let trims = (((total as f64) * profile.trim_ratio).round() as usize).min(total - writes);
        let reads = total - writes - trims;

        // 1. Exact-count op interleaving. Trims are appended after the
        // other ops so a `trim_ratio` of zero leaves the shuffle — and
        // therefore the whole trace — bit-identical to older versions
        // (Fisher–Yates consumes RNG draws based only on length).
        let mut ops: Vec<IoOp> = Vec::with_capacity(total);
        ops.extend(std::iter::repeat_n(IoOp::Write, writes));
        ops.extend(std::iter::repeat_n(IoOp::Read, reads));
        ops.extend(std::iter::repeat_n(IoOp::Trim, trims));
        ops.shuffle(&mut rng);

        // 2. Write contents: creations + Zipf-ranked repetitions.
        // The slot table and the burst counts hold value ranks and
        // per-value write counts as `u32`s, with `UNWRITTEN` kept free.
        assert!(
            writes < UNWRITTEN as usize,
            "{writes} writes: value ranks must stay below u32::MAX"
        );
        let unique = (((writes as f64) * profile.unique_write_frac).round() as usize)
            .clamp(1.min(writes), writes.max(1));
        let mut values: Vec<u64> = Vec::with_capacity(writes);
        values.extend(0..unique as u64);
        if writes > unique {
            let zipf = ZipfSampler::new(unique as u64, profile.value_alpha);
            values.extend((0..writes - unique).map(|_| zipf.sample(&mut rng)));
        }
        // Burstify: group each value's occurrences into geometric runs
        // and shuffle the *runs*, so a value's writes cluster in time
        // and the value fully dies between bursts.
        let values = burstify(values, unique, profile.burst_len, &mut rng);

        // 3/4. Address selection through the shuffled slot table. The
        // samplers bound `lpn_space` by `u32::MAX`.
        let write_addr = ZipfSampler::new(profile.lpn_space, profile.lpn_alpha);
        let read_addr = ZipfSampler::new(profile.lpn_space, profile.read_alpha);
        let mut slots: Vec<(u32, u32)> = (0..profile.lpn_space as u32)
            .map(|lpn| (lpn, UNWRITTEN))
            .collect();
        slots.shuffle(&mut rng);

        let mut records = Vec::with_capacity(total);
        // Each value's "home" address: a fixed pseudo-random spot in
        // the footprint. With probability `home_affinity`, a write of
        // a value lands there — modelling the real-trace correlation
        // between content and address (the same file block rewritten
        // with the same content).
        let home_region = ((profile.lpn_space as f64 * profile.home_region_frac).round() as u64)
            .clamp(1, profile.lpn_space);
        let home_of = |value: u64| -> usize {
            let mut h = value ^ 0x517c_c1b7_2722_0a95;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            // Homes cluster in a hot region at the front of the
            // (shuffled) slot table, so recurring values overwrite
            // each other and fully die between bursts.
            (h % home_region) as usize
        };
        let mut values = values.into_iter();
        for (seq, op) in (0u64..).zip(ops) {
            match op {
                IoOp::Write => {
                    let value = values.next().expect("one value per write");
                    let rank = if rng.random::<f64>() < profile.home_affinity {
                        home_of(value)
                    } else {
                        write_addr.sample(&mut rng) as usize
                    };
                    let slot = &mut slots[rank];
                    // Below `u32::MAX`: asserted with the write count.
                    slot.1 = value as u32;
                    let lpn = Lpn::new(u64::from(slot.0));
                    records.push(TraceRecord::write(seq, lpn, ValueId::new(value)));
                }
                IoOp::Read => {
                    let (lpn, value) = slots[read_addr.sample(&mut rng) as usize];
                    let lpn = Lpn::new(u64::from(lpn));
                    let value = if value == UNWRITTEN {
                        initial_value_of(lpn)
                    } else {
                        ValueId::new(u64::from(value))
                    };
                    records.push(TraceRecord::read(seq, lpn, value));
                }
                IoOp::Trim => {
                    // Trims target the write-hot region (hosts discard
                    // what they recently wrote), discarding whatever
                    // content is there.
                    let slot = &mut slots[write_addr.sample(&mut rng) as usize];
                    slot.1 = UNWRITTEN;
                    records.push(TraceRecord::trim(seq, Lpn::new(u64::from(slot.0))));
                }
            }
        }

        SyntheticTrace {
            name: profile.name.clone(),
            records,
            requests_per_day: profile.requests_per_day as usize,
            days: profile.days,
        }
    }

    /// Wraps externally produced records as a single-day trace (e.g.
    /// records parsed from a text file).
    pub fn from_records(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        let len = records.len().max(1);
        SyntheticTrace {
            name: name.into(),
            records,
            requests_per_day: len,
            days: 1,
        }
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All records, in issue order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the trace, returning its records without copying —
    /// for callers that share the buffer (e.g. `Arc<[TraceRecord]>`).
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Number of days.
    pub fn num_days(&self) -> u32 {
        self.days
    }

    /// The records of day `i` (0-based). The paper's `m2` is
    /// `mail.day(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_days()`.
    pub fn day(&self, i: u32) -> &[TraceRecord] {
        assert!(i < self.days, "day {i} out of range ({} days)", self.days);
        let start = self.requests_per_day * i as usize;
        let end = (start + self.requests_per_day).min(self.records.len());
        &self.records[start..end]
    }

    /// Records of days `0..=i` — a trace prefix ending at day `i`,
    /// matching how the paper's per-day points accumulate state.
    pub fn through_day(&self, i: u32) -> &[TraceRecord] {
        assert!(i < self.days, "day {i} out of range ({} days)", self.days);
        let end = (self.requests_per_day * (i as usize + 1)).min(self.records.len());
        &self.records[..end]
    }

    /// The day labels the paper uses in Figs 1 and 5: `m1`, `m2`, …
    pub fn day_labels(&self) -> Vec<String> {
        let initial = self.name.chars().next().unwrap_or('x');
        (1..=self.days).map(|d| format!("{initial}{d}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::IoOp;
    use crate::stats::TraceStats;
    use proptest::prelude::*;
    use zssd_types::FxHashMap;

    /// The generator as it was written before the slot table: a `u64`
    /// rank→LPN permutation, an LPN-keyed content map and hash-map
    /// burst counts sorted by value. The test oracle for `generate`.
    fn reference_generate(profile: &WorkloadProfile, seed: u64) -> Vec<TraceRecord> {
        fn burstify<R: Rng + ?Sized>(values: Vec<u64>, burst_len: f64, rng: &mut R) -> Vec<u64> {
            if burst_len <= 1.0 {
                let mut values = values;
                values.shuffle(rng);
                return values;
            }
            let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
            for &v in &values {
                *counts.entry(v).or_insert(0) += 1;
            }
            let mut counts: Vec<(u64, u64)> = counts.into_iter().collect();
            counts.sort_unstable();
            let continue_p = 1.0 - 1.0 / burst_len;
            let mut runs: Vec<(u64, u32)> = Vec::new();
            for (v, mut remaining) in counts {
                while remaining > 0 {
                    let mut len = 1u32;
                    while u64::from(len) < remaining && rng.random::<f64>() < continue_p {
                        len += 1;
                    }
                    runs.push((v, len));
                    remaining -= u64::from(len);
                }
            }
            runs.shuffle(rng);
            let mut out = Vec::with_capacity(values.len());
            for (v, len) in runs {
                out.extend(std::iter::repeat_n(v, len as usize));
            }
            out
        }

        let mut rng = SmallRng::seed_from_u64(seed);
        let total = profile.total_requests() as usize;
        let writes = (((total as f64) * profile.write_ratio).round() as usize).min(total);
        let trims = (((total as f64) * profile.trim_ratio).round() as usize).min(total - writes);
        let reads = total - writes - trims;
        let mut ops: Vec<IoOp> = Vec::with_capacity(total);
        ops.extend(std::iter::repeat_n(IoOp::Write, writes));
        ops.extend(std::iter::repeat_n(IoOp::Read, reads));
        ops.extend(std::iter::repeat_n(IoOp::Trim, trims));
        ops.shuffle(&mut rng);

        let unique = (((writes as f64) * profile.unique_write_frac).round() as usize)
            .clamp(1.min(writes), writes.max(1));
        let mut values: Vec<u64> = (0..unique as u64).collect();
        if writes > unique {
            let zipf = ZipfSampler::new(unique as u64, profile.value_alpha);
            values.extend((0..writes - unique).map(|_| zipf.sample(&mut rng)));
        }
        let values = burstify(values, profile.burst_len, &mut rng);

        let mut perm: Vec<u64> = (0..profile.lpn_space).collect();
        perm.shuffle(&mut rng);
        let write_addr = ZipfSampler::new(profile.lpn_space, profile.lpn_alpha);
        let read_addr = ZipfSampler::new(profile.lpn_space, profile.read_alpha);
        let home_region = ((profile.lpn_space as f64 * profile.home_region_frac).round() as u64)
            .clamp(1, profile.lpn_space);
        let home_of = |value: u64| -> u64 {
            let mut h = value ^ 0x517c_c1b7_2722_0a95;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            perm[(h % home_region) as usize]
        };
        let mut content: FxHashMap<Lpn, ValueId> = FxHashMap::default();
        let mut records = Vec::with_capacity(total);
        let mut next_value = 0;
        for (seq, op) in ops.into_iter().enumerate() {
            let seq = seq as u64;
            match op {
                IoOp::Write => {
                    let value = ValueId::new(values[next_value]);
                    next_value += 1;
                    let lpn = Lpn::new(if rng.random::<f64>() < profile.home_affinity {
                        home_of(value.raw())
                    } else {
                        perm[write_addr.sample(&mut rng) as usize]
                    });
                    content.insert(lpn, value);
                    records.push(TraceRecord::write(seq, lpn, value));
                }
                IoOp::Read => {
                    let lpn = Lpn::new(perm[read_addr.sample(&mut rng) as usize]);
                    let value = content
                        .get(&lpn)
                        .copied()
                        .unwrap_or_else(|| initial_value_of(lpn));
                    records.push(TraceRecord::read(seq, lpn, value));
                }
                IoOp::Trim => {
                    let lpn = Lpn::new(perm[write_addr.sample(&mut rng) as usize]);
                    content.remove(&lpn);
                    records.push(TraceRecord::trim(seq, lpn));
                }
            }
        }
        records
    }

    /// Small random profiles: every ratio and exponent across its
    /// range, with the edges drawn on purpose — no writes, no reads,
    /// all-unique and single-value contents, `burst_len ≤ 1` (the
    /// plain-shuffle path) and a home region that rounds to one slot.
    fn small_profiles() -> impl Strategy<Value = WorkloadProfile> {
        // `k / 1000` for `k` in `lo..hi`: the shim draws integers only.
        let milli = |lo: u32, hi: u32| (lo..hi).prop_map(|k| f64::from(k) / 1000.0);
        let ratio = || prop_oneof![Just(0.0), Just(1.0), milli(0, 1001)];
        let alpha = || prop_oneof![Just(0.0), milli(0, 3001)];
        (
            (
                10u64..400,
                1u32..4,
                ratio(),
                ratio(),
                prop_oneof![Just(0.0), milli(0, 500)],
            ),
            (alpha(), alpha(), alpha(), 1u64..300, ratio()),
            (
                prop_oneof![Just(1.0), milli(0, 1000), milli(1000, 8000)],
                // At most 0.3 of a slot rounds to the one-slot minimum.
                prop_oneof![
                    Just(0.0),
                    milli(0, 1001),
                    milli(0, 1000).prop_map(|f| f / 1000.0)
                ],
            ),
        )
            .prop_map(
                |(
                    (requests_per_day, days, write_ratio, unique_write_frac, trim_ratio),
                    (value_alpha, lpn_alpha, read_alpha, lpn_space, home_affinity),
                    (burst_len, home_region_frac),
                )| WorkloadProfile {
                    name: "random".into(),
                    requests_per_day,
                    days,
                    write_ratio,
                    unique_write_frac,
                    value_alpha,
                    lpn_alpha,
                    read_alpha,
                    lpn_space,
                    home_affinity,
                    burst_len,
                    home_region_frac,
                    trim_ratio,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn generate_matches_the_reference(profile in small_profiles(), seed in any::<u64>()) {
            let trace = SyntheticTrace::generate(&profile, seed);
            prop_assert_eq!(trace.records(), &reference_generate(&profile, seed)[..]);
        }
    }

    fn small(profile: WorkloadProfile) -> SyntheticTrace {
        SyntheticTrace::generate(&profile.scaled(0.02), 7)
    }

    #[test]
    fn request_counts_match_profile() {
        let p = WorkloadProfile::web().scaled(0.02);
        let t = SyntheticTrace::generate(&p, 3);
        assert_eq!(t.records().len() as u64, p.total_requests());
        let writes = t.records().iter().filter(|r| r.is_write()).count();
        let expect = (p.total_requests() as f64 * p.write_ratio).round() as usize;
        assert_eq!(writes, expect);
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let t = small(WorkloadProfile::trans());
        for (i, r) in t.records().iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn unique_write_fraction_is_exact() {
        let p = WorkloadProfile::mail().scaled(0.05);
        let t = SyntheticTrace::generate(&p, 11);
        let stats = TraceStats::measure(t.records());
        let expect = p.unique_write_frac;
        let got = stats.unique_write_frac();
        assert!(
            (got - expect).abs() < 0.01,
            "unique write fraction {got} far from target {expect}"
        );
    }

    #[test]
    fn reads_observe_last_written_content() {
        let t = small(WorkloadProfile::web());
        let mut content: FxHashMap<Lpn, ValueId> = FxHashMap::default();
        for r in t.records() {
            match r.op {
                IoOp::Write => {
                    content.insert(r.lpn, r.value);
                }
                IoOp::Read => {
                    let expect = content
                        .get(&r.lpn)
                        .copied()
                        .unwrap_or_else(|| initial_value_of(r.lpn));
                    assert_eq!(r.value, expect, "read at seq {}", r.seq);
                }
                IoOp::Trim => {
                    content.remove(&r.lpn);
                }
            }
        }
    }

    #[test]
    fn trim_ratio_emits_exact_trim_counts() {
        let p = WorkloadProfile::web().scaled(0.02).with_trim_ratio(0.1);
        let t = SyntheticTrace::generate(&p, 7);
        let trims = t.records().iter().filter(|r| r.is_trim()).count();
        let expect = (p.total_requests() as f64 * p.trim_ratio).round() as usize;
        assert_eq!(trims, expect);
        assert!(trims > 0);
        // Reads still observe the shadow content even across trims.
        let mut content: FxHashMap<Lpn, ValueId> = FxHashMap::default();
        for r in t.records() {
            match r.op {
                IoOp::Write => {
                    content.insert(r.lpn, r.value);
                }
                IoOp::Read => {
                    let expect = content
                        .get(&r.lpn)
                        .copied()
                        .unwrap_or_else(|| initial_value_of(r.lpn));
                    assert_eq!(r.value, expect, "read at seq {}", r.seq);
                }
                IoOp::Trim => {
                    content.remove(&r.lpn);
                }
            }
        }
    }

    #[test]
    fn zero_trim_ratio_is_bit_identical_to_default() {
        let p = WorkloadProfile::web().scaled(0.01);
        let a = SyntheticTrace::generate(&p, 3);
        let b = SyntheticTrace::generate(&p.clone().with_trim_ratio(0.0), 3);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn days_partition_the_trace() {
        let t = small(WorkloadProfile::home());
        let mut reassembled = Vec::new();
        for d in 0..t.num_days() {
            reassembled.extend_from_slice(t.day(d));
        }
        assert_eq!(reassembled, t.records());
        assert_eq!(t.through_day(1).len(), t.day(0).len() + t.day(1).len());
    }

    #[test]
    fn day_labels_match_paper_notation() {
        let t = small(WorkloadProfile::mail());
        assert_eq!(t.day_labels(), vec!["m1", "m2", "m3"]);
    }

    #[test]
    fn different_seeds_differ() {
        let p = WorkloadProfile::web().scaled(0.01);
        let a = SyntheticTrace::generate(&p, 1);
        let b = SyntheticTrace::generate(&p, 2);
        assert_ne!(a.records(), b.records());
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let p = WorkloadProfile::desktop().scaled(0.02);
        let t = SyntheticTrace::generate(&p, 5);
        assert!(t.records().iter().all(|r| r.lpn.index() < p.lpn_space));
    }

    #[test]
    fn from_records_wraps_single_day() {
        let recs = vec![TraceRecord::write(0, Lpn::new(1), ValueId::new(2))];
        let t = SyntheticTrace::from_records("custom", recs.clone());
        assert_eq!(t.name(), "custom");
        assert_eq!(t.num_days(), 1);
        assert_eq!(t.day(0), &recs[..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn day_out_of_range_panics() {
        let t = small(WorkloadProfile::web());
        let _ = t.day(99);
    }
}
