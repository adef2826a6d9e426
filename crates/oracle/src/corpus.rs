//! The regression corpus: shrunk traces checked into `tests/corpus/`.
//!
//! Every corpus file is a standard text-format trace (see
//! `zssd_trace::text`) with `@<nanos>` arrival stamps plus `#` header
//! comments recording where it came from — the fuzz seed line that
//! regenerates the full failing input. The `corpus_replay` integration
//! test replays every file through the full differential grid with
//! per-command invariant checks, so a trace that once exposed a bug
//! keeps guarding against it forever.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use zssd_trace::{parse_text, write_text, ArrivalProcess, IoOp, TraceRecord};
use zssd_types::SimDuration;

use crate::spec::OracleDrive;

/// Arrival gap stamped onto corpus traces that lack timestamps.
const CORPUS_GAP: SimDuration = SimDuration::from_micros(25);

/// Rewrites `records` into corpus hygiene: every read's recorded value
/// replaced with the oracle's expectation at that point (shrinking
/// leaves stale read values behind), and missing arrival stamps filled
/// from a constant process.
/// `logical_pages`/`preconditioned` describe the drive the trace is
/// meant for (see [`crate::FUZZ_LOGICAL_PAGES`]).
pub fn normalize(
    records: &[TraceRecord],
    logical_pages: u64,
    preconditioned: bool,
) -> Vec<TraceRecord> {
    let mut oracle = OracleDrive::new(logical_pages, preconditioned);
    let mut out = Vec::with_capacity(records.len());
    for record in records {
        let mut record = *record;
        if record.op == IoOp::Write {
            // write_exact: normalization must stay correct even in
            // builds where the public write path is deliberately
            // sabotaged (`--cfg zssd_fuzz_selftest`).
            oracle
                .write_exact(record.lpn, record.value)
                .expect("corpus traces stay within the fuzz footprint");
        } else if record.op == IoOp::Read {
            record.value = oracle
                .read(record.lpn)
                .expect("corpus traces stay within the fuzz footprint");
        } else {
            oracle
                .trim(record.lpn)
                .expect("corpus traces stay within the fuzz footprint");
        }
        out.push(record);
    }
    if out.iter().any(|r| r.arrival.is_none()) {
        ArrivalProcess::constant(CORPUS_GAP).stamp(&mut out);
    }
    out
}

/// Writes a corpus trace to `dir/name.trace` with the given header
/// comment lines (the seed line etc.), creating `dir` if needed.
/// Returns the path written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_corpus(
    dir: impl AsRef<Path>,
    name: &str,
    header: &[String],
    records: &[TraceRecord],
) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.trace"));
    let mut buf = Vec::new();
    for line in header {
        writeln!(buf, "# {line}")?;
    }
    write_text(records, &mut buf)?;
    std::fs::write(&path, buf)?;
    Ok(path)
}

/// Loads every `*.trace` file of a corpus directory, sorted by file
/// name for deterministic replay order. A missing directory is an
/// empty corpus.
///
/// # Errors
///
/// Propagates I/O errors and malformed trace content.
pub fn load_corpus(dir: impl AsRef<Path>) -> io::Result<Vec<(String, Vec<TraceRecord>)>> {
    let dir = dir.as_ref();
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.ends_with(".trace").then_some(name)
        })
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name))?;
            let records = parse_text(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")))?;
            Ok((name, records))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::FUZZ_LOGICAL_PAGES;
    use zssd_types::ValueId;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zssd-corpus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn normalize_renumbers_stamps_and_fixes_reads() {
        // A hand-built shrunk-style fragment, numbered by its place in
        // the input it came from, with a stale read value.
        let records = parse_text("17 W 3 9\n403 R 3 777\n").expect("parse");
        let normal = normalize(&records, FUZZ_LOGICAL_PAGES, true);
        assert_eq!(normal[1].value, ValueId::new(9), "read expectation fixed");
        assert!(normal.iter().all(|r| r.arrival.is_some()), "stamped");
        // Written back, the fragment's lines are numbered from zero.
        let mut buf = Vec::new();
        write_text(&normal, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let seqs: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert_eq!(seqs, ["0", "1"]);
    }

    #[test]
    fn corpus_round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let records = normalize(
            &generate(4, &GenConfig::standard(120)),
            FUZZ_LOGICAL_PAGES,
            true,
        );
        let header = vec!["regenerate: zssd fuzz --seeds 1 --base-seed 4".to_owned()];
        let path = write_corpus(&dir, "roundtrip", &header, &records).expect("write");
        assert!(path.ends_with("roundtrip.trace"));
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(text.starts_with("# regenerate:"), "header preserved");
        let loaded = load_corpus(&dir).expect("load");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, "roundtrip.trace");
        assert_eq!(loaded[0].1, records);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_missing_corpus_directory_is_empty() {
        assert!(load_corpus(tmp_dir("missing")).expect("ok").is_empty());
    }
}
