//! A line-oriented text trace format, FIU-style.
//!
//! One request per line:
//! `<seq> <R|W|T> <lpn> <value> <fingerprint-hex> [@<arrival-nanos>]`.
//! The writer numbers the `seq` column with the record's index; the
//! reader checks that it is a number and otherwise ignores it, since a
//! record's order is its line order. Lines starting with `#` are
//! comments. The fingerprint column is redundant (derivable from the
//! value id) but kept because the real FIU traces ship digests, and it
//! makes files self-describing. The optional trailing `@<nanos>` token
//! records the request's arrival timestamp; unstamped lines parse to
//! records replayed under the drive's configured arrival process.

use core::fmt;
use std::error::Error;
use std::io::{self, Write};

use zssd_types::{splitmix64, Lpn, SimTime, ValueId};

use crate::record::{IoOp, TraceRecord};

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    line: usize,
    message: String,
}

impl TraceParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TraceParseError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending line.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for TraceParseError {}

/// The fingerprint column of `value`: a 128-bit stand-in for the MD5
/// a real trace carries, two independently salted SplitMix64 rounds of
/// the id, as 32 hex digits.
fn digest(value: ValueId) -> String {
    let half = |salt: u64| splitmix64(value.raw() ^ salt);
    format!(
        "{:016x}{:016x}",
        half(0xa076_1d64_78bd_642f),
        half(0xe703_7ed1_a0b4_28db)
    )
}

/// Writes records in the text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer. A `&mut Vec<u8>` or any
/// `&mut W` where `W: Write` may be passed.
pub fn write_text<W: Write>(records: &[TraceRecord], mut out: W) -> io::Result<()> {
    writeln!(
        out,
        "# zombie-ssd trace: seq op lpn value fingerprint [@arrival-ns]"
    )?;
    for (index, r) in records.iter().enumerate() {
        write!(
            out,
            "{} {} {} {} {}",
            index,
            r.op,
            r.lpn.index(),
            r.value.raw(),
            digest(r.value)
        )?;
        if let Some(at) = r.arrival {
            write!(out, " @{}", at.as_nanos())?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Writes records to a file in the text format.
///
/// # Errors
///
/// Propagates I/O errors (file creation, writes).
pub fn write_file<P: AsRef<std::path::Path>>(records: &[TraceRecord], path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = io::BufWriter::new(file);
    write_text(records, &mut writer)?;
    use std::io::Write as _;
    writer.flush()
}

/// Reads records from a text-format trace file.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, or a boxed
/// [`TraceParseError`] wrapped in [`io::Error`] for malformed content.
pub fn read_file<P: AsRef<std::path::Path>>(path: P) -> io::Result<Vec<TraceRecord>> {
    let text = std::fs::read_to_string(path)?;
    parse_text(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Parses the text format back into records.
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first malformed line,
/// including an LPN above [`Lpn::MAX`] and an arrival stamp past
/// [`SimTime::MAX`]; comment (`#`) and blank lines are skipped.
pub fn parse_text(input: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    let mut records = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        fields
            .next()
            .ok_or_else(|| TraceParseError::new(lineno, "missing seq"))?
            .parse::<u64>()
            .map_err(|e| TraceParseError::new(lineno, format!("bad seq: {e}")))?;
        let op = match fields.next() {
            Some("R") => IoOp::Read,
            Some("W") => IoOp::Write,
            Some("T") => IoOp::Trim,
            Some(other) => {
                return Err(TraceParseError::new(
                    lineno,
                    format!("bad op {other:?}, expected R, W, or T"),
                ))
            }
            None => return Err(TraceParseError::new(lineno, "missing op")),
        };
        let lpn: u64 = fields
            .next()
            .ok_or_else(|| TraceParseError::new(lineno, "missing lpn"))?
            .parse()
            .map_err(|e| TraceParseError::new(lineno, format!("bad lpn: {e}")))?;
        let lpn = u32::try_from(lpn).map(Lpn::from).map_err(|_| {
            TraceParseError::new(
                lineno,
                format!("lpn {lpn} out of range: at most {}", Lpn::MAX.index()),
            )
        })?;
        let value: u64 = fields
            .next()
            .ok_or_else(|| TraceParseError::new(lineno, "missing value"))?
            .parse()
            .map_err(|e| TraceParseError::new(lineno, format!("bad value: {e}")))?;
        // Remaining tokens: an optional fingerprint (must agree with
        // the value) and an optional `@<nanos>` arrival timestamp.
        let mut arrival = None;
        for token in fields {
            if let Some(ns) = token.strip_prefix('@') {
                let ns: u64 = ns
                    .parse()
                    .map_err(|e| TraceParseError::new(lineno, format!("bad arrival: {e}")))?;
                let last = SimTime::MAX.as_nanos();
                if ns > last {
                    return Err(TraceParseError::new(
                        lineno,
                        format!("arrival {ns} out of range: at most {last} ns"),
                    ));
                }
                arrival = Some(SimTime::from_nanos(ns));
            } else if token != digest(ValueId::new(value)) {
                return Err(TraceParseError::new(
                    lineno,
                    format!("fingerprint {token} does not match value {value}"),
                ));
            }
        }
        records.push(TraceRecord {
            op,
            lpn,
            value: ValueId::new(value),
            arrival,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;
    use crate::synth::SyntheticTrace;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_generated_trace() {
        let trace = SyntheticTrace::generate(&WorkloadProfile::web().scaled(0.003), 9);
        let mut buf = Vec::new();
        write_text(trace.records(), &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let parsed = parse_text(&text).expect("parse");
        assert_eq!(parsed, trace.records());
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let parsed = parse_text("# header\n\n0 W 5 7\n").expect("parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].lpn, Lpn::new(5));
        assert!(parsed[0].is_write());
    }

    #[test]
    fn trims_and_arrival_stamps_round_trip() {
        let records = vec![
            TraceRecord::write(Lpn::new(3), ValueId::new(7))
                .with_arrival(SimTime::from_nanos(1_000)),
            TraceRecord::trim(Lpn::new(3)).with_arrival(SimTime::from_nanos(2_500)),
            TraceRecord::read(Lpn::new(3), ValueId::new(7)),
        ];
        let mut buf = Vec::new();
        write_text(&records, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let parsed = parse_text(&text).expect("parse");
        assert_eq!(parsed, records);
        // Bare stamped line without a fingerprint also parses.
        let parsed = parse_text("0 T 5 0 @42").expect("parse");
        assert_eq!(
            parsed[0],
            TraceRecord::trim(Lpn::new(5)).with_arrival(SimTime::from_nanos(42))
        );
        assert!(parse_text("0 W 1 2 @nope")
            .unwrap_err()
            .to_string()
            .contains("arrival"));
    }

    #[test]
    fn an_lpn_beyond_32_bits_is_an_error_naming_its_line() {
        let last = format!("0 W {} 2", u32::MAX);
        assert_eq!(parse_text(&last).expect("parse")[0].lpn, Lpn::MAX);
        let err = parse_text("0 W 3 7\n1 W 4294967296 8\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(
            err.to_string(),
            "trace line 2: lpn 4294967296 out of range: at most 4294967295"
        );
        let err = parse_text("0 R 18446744073709551615 8").unwrap_err();
        assert!(err
            .to_string()
            .contains("lpn 18446744073709551615 out of range"));
    }

    #[test]
    fn a_stamp_past_the_last_instant_is_an_error_naming_its_line() {
        let last = format!("0 W 3 7 @{}", u64::MAX - 1);
        let parsed = parse_text(&last).expect("parse");
        assert_eq!(parsed[0].arrival, Some(SimTime::MAX));
        let err = parse_text("# header\n0 W 3 7 @18446744073709551615\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(
            err.to_string(),
            "trace line 2: arrival 18446744073709551615 out of range: at most 18446744073709551614 ns"
        );
    }

    #[test]
    fn digest_is_32_hex_digits() {
        let d = digest(ValueId::new(9));
        assert_eq!(d.len(), 32);
        assert!(d.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn distinct_ids_have_distinct_digests() {
        let digests: std::collections::HashSet<String> =
            (0..100_000u64).map(|v| digest(ValueId::new(v))).collect();
        assert_eq!(digests.len(), 100_000, "no collisions over 100k ids");
    }

    #[test]
    fn fingerprint_column_is_optional_but_checked() {
        assert!(parse_text("0 R 1 2").is_ok());
        let err = parse_text("0 R 1 2 deadbeef").unwrap_err();
        assert!(err.to_string().contains("fingerprint"));
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn file_round_trip() {
        let trace = SyntheticTrace::generate(&WorkloadProfile::trans().scaled(0.002), 4);
        let dir = std::env::temp_dir().join(format!("zssd-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("trans.trace");
        write_file(trace.records(), &path).expect("write file");
        let parsed = read_file(&path).expect("read file");
        assert_eq!(parsed, trace.records());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn read_file_surfaces_parse_errors() {
        let dir = std::env::temp_dir().join(format!("zssd-trace-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("bad.trace");
        std::fs::write(&path, "not a trace line\n").expect("write");
        let err = read_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn malformed_lines_name_the_problem() {
        assert!(parse_text("x W 1 2")
            .unwrap_err()
            .to_string()
            .contains("seq"));
        assert!(parse_text("0 Q 1 2")
            .unwrap_err()
            .to_string()
            .contains("op"));
        assert!(parse_text("0 W").unwrap_err().to_string().contains("lpn"));
        assert!(parse_text("0 W 1")
            .unwrap_err()
            .to_string()
            .contains("value"));
        assert_eq!(parse_text("# only comments").expect("ok").len(), 0);
    }

    #[test]
    fn the_first_column_is_checked_but_not_kept() {
        let parsed = parse_text("9 W 1 2\n3 R 1 2\n").expect("parse");
        assert_eq!(
            parsed,
            vec![
                TraceRecord::write(Lpn::new(1), ValueId::new(2)),
                TraceRecord::read(Lpn::new(1), ValueId::new(2)),
            ]
        );
        let mut buf = Vec::new();
        write_text(&parsed, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let seqs: Vec<&str> = text
            .lines()
            .skip(1)
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert_eq!(seqs, ["0", "1"], "written with each record's index");
    }

    /// Any record: all three ops, any value, any LPN and stamp the
    /// types hold, stamped or not.
    fn any_record() -> impl Strategy<Value = TraceRecord> {
        (
            0u8..3,
            any::<u32>(),
            any::<u64>(),
            any::<bool>(),
            0..SimTime::MAX.as_nanos() + 1,
        )
            .prop_map(|(op, lpn, value, stamped, at)| TraceRecord {
                op: [IoOp::Read, IoOp::Write, IoOp::Trim][usize::from(op)],
                lpn: Lpn::from(lpn),
                value: ValueId::new(value),
                arrival: stamped.then(|| SimTime::from_nanos(at)),
            })
    }

    /// 2^64, one past every column's `u64` range.
    const TOO_BIG: &str = "18446744073709551616";

    /// Breaks one whitespace-separated line of the text format: `kind`
    /// picks the fault, `pick` the token or length it uses.
    fn corrupt(line: &str, kind: u8, pick: usize) -> String {
        let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
        let bad_number = ["x1", TOO_BIG][pick % 2];
        match kind {
            // A missing field: keep 1 to 3 of the four required ones.
            0 => tokens.truncate(1 + pick % 3),
            1 => tokens[1] = ["Q", "w", "RW", "r", "WRITE"][pick % 5].to_string(),
            2 => {
                let value: u64 = tokens[3].parse().expect("written value");
                tokens[4] = digest(ValueId::new(value ^ 1));
            }
            // A non-numeric or out-of-range seq, LPN or value column.
            3 => tokens[[0, 2, 3][pick % 3]] = bad_number.to_string(),
            // An LPN that fits a `u64` but not an `Lpn`.
            4 => tokens[2] = (Lpn::MAX.index() + 1 + pick as u64 % 1_000).to_string(),
            // A stamp that fits a `u64` but is past `SimTime::MAX`.
            5 => {
                tokens.truncate(5);
                tokens.push(format!("@{}", u64::MAX));
            }
            _ => {
                tokens.truncate(5);
                tokens.push(format!("@{bad_number}"));
            }
        }
        tokens.join(" ")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn any_records_round_trip(records in prop::collection::vec(any_record(), 0..40)) {
            let mut buf = Vec::new();
            write_text(&records, &mut buf).expect("write");
            let text = String::from_utf8(buf).expect("utf8");
            prop_assert_eq!(parse_text(&text).expect("parse"), records);
        }

        #[test]
        fn a_malformed_line_is_an_error_naming_its_line(
            records in prop::collection::vec(any_record(), 1..20),
            at in any::<usize>(),
            kind in 0u8..7,
            pick in any::<usize>(),
        ) {
            let mut buf = Vec::new();
            write_text(&records, &mut buf).expect("write");
            let text = String::from_utf8(buf).expect("utf8");
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            // Line 1 is the header, so record `i` sits on line `i + 2`.
            let index = 1 + at % records.len();
            lines[index] = corrupt(&lines[index], kind, pick);
            let err = parse_text(&lines.join("\n")).expect_err("corrupt line rejected");
            prop_assert_eq!(err.line(), index + 1, "{}", err);
        }
    }
}
