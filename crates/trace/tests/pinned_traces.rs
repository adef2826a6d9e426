//! Pins the synthetic trace generator: every record of the six paper
//! profiles plus trimmed web hashes to a recorded constant.
//!
//! Any change to the generator or to `ZipfSampler` that alters a
//! single record (sequence number, op, LPN, value or arrival) fails
//! these tests. The hash is a hand-written FNV-1a over little-endian
//! fields, so the constants do not depend on std's unspecified
//! `DefaultHasher`. Only a deliberate change to the traces may update
//! them.

use zssd_trace::{IoOp, SyntheticTrace, TraceRecord, WorkloadProfile};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn hash_records(records: &[TraceRecord]) -> u64 {
    (0u64..).zip(records).fold(FNV_OFFSET, |h, (index, r)| {
        let op: u8 = match r.op {
            IoOp::Read => 0,
            IoOp::Write => 1,
            IoOp::Trim => 2,
        };
        let h = fnv1a(h, &index.to_le_bytes());
        let h = fnv1a(h, &[op]);
        let h = fnv1a(h, &r.lpn.index().to_le_bytes());
        let h = fnv1a(h, &r.value.raw().to_le_bytes());
        match r.arrival {
            None => fnv1a(h, &[0]),
            Some(t) => fnv1a(fnv1a(h, &[1]), &t.as_nanos().to_le_bytes()),
        }
    })
}

/// The six paper profiles, then web with a tenth of its requests
/// issued as TRIMs.
fn profiles() -> Vec<WorkloadProfile> {
    let mut set = WorkloadProfile::paper_set();
    set.push(WorkloadProfile::web().with_trim_ratio(0.1));
    set
}

/// `(profile, seed, hash)` for every profile at `scale` and each seed.
fn hashes(scale: f64, seeds: &[u64]) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for profile in profiles() {
        let name = if profile.trim_ratio > 0.0 {
            format!("{}-trim", profile.name)
        } else {
            profile.name.clone()
        };
        let profile = if scale == 1.0 {
            profile
        } else {
            profile.scaled(scale)
        };
        for &seed in seeds {
            let trace = SyntheticTrace::generate(&profile, seed);
            out.push((name.clone(), seed, hash_records(trace.records())));
        }
    }
    out
}

fn check(got: &[(String, u64, u64)], expected: &[(&str, u64, u64)]) {
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, s, h)| (n.as_str(), *s, *h)).collect();
    assert_eq!(
        got, expected,
        "generated traces drifted from the pinned hashes"
    );
}

#[test]
fn small_scale_traces_are_pinned() {
    const EXPECTED: &[(&str, u64, u64)] = &[
        ("web", 7, 0x9508_c956_1bda_79ad),
        ("web", 42, 0x9ece_d9dc_5820_f90c),
        ("home", 7, 0x71a5_2128_b78d_cfdc),
        ("home", 42, 0x3577_55e4_902e_6a0b),
        ("mail", 7, 0xc730_268a_c14c_8147),
        ("mail", 42, 0x9c08_566f_f370_6ca6),
        ("hadoop", 7, 0x51b7_827c_c219_6040),
        ("hadoop", 42, 0x1289_f1a7_d8e1_0ebf),
        ("trans", 7, 0x0f86_dd0d_8b07_50ae),
        ("trans", 42, 0x2a53_7962_5e3b_7262),
        ("desktop", 7, 0x5403_485a_f5a2_e093),
        ("desktop", 42, 0x433d_e6d8_098c_f5d8),
        ("web-trim", 7, 0x70a9_7057_49fd_82ed),
        ("web-trim", 42, 0x81fd_ccff_8dfa_d267),
    ];
    check(&hashes(0.02, &[7, 42]), EXPECTED);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scale; CI runs it in release")]
fn full_scale_traces_are_pinned() {
    const EXPECTED: &[(&str, u64, u64)] = &[
        ("web", 7, 0x5c1f_b13b_f4ad_0014),
        ("web", 42, 0x5190_5de5_5576_c4f0),
        ("home", 7, 0xf44d_9357_da8e_657b),
        ("home", 42, 0x32d1_43a6_6a5d_3471),
        ("mail", 7, 0x5001_96a9_23a1_da62),
        ("mail", 42, 0xa535_a4bc_7859_2c20),
        ("hadoop", 7, 0x8ba5_9c89_bed1_0451),
        ("hadoop", 42, 0xe18d_7420_a8d7_b1c1),
        ("trans", 7, 0xb2cc_c2b8_fe76_1201),
        ("trans", 42, 0x9be3_73d9_0c6f_0972),
        ("desktop", 7, 0xff98_f08e_08bd_11bf),
        ("desktop", 42, 0xc602_c3c3_287a_4b80),
        ("web-trim", 7, 0x90ae_fe5d_6b34_4f8a),
        ("web-trim", 42, 0xec20_b922_ce2d_dfbe),
    ];
    check(&hashes(1.0, &[7, 42]), EXPECTED);
}
