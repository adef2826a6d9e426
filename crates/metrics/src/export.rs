//! Deterministic JSON/CSV export of metrics and events.
//!
//! The workspace is dependency-free, so this module carries a minimal
//! JSON value type with a renderer and a recursive-descent parser —
//! enough to write export files and to round-trip them in tests.
//! Object keys keep their insertion order (a `Vec` of pairs, not a
//! hash map), so rendering is a pure function of the value and the
//! same report always serializes to the same bytes.

use core::fmt;

use zssd_types::SimDuration;

use crate::events::TracedEvent;
use crate::timeline::WindowStat;

/// A JSON value with deterministic rendering.
///
/// # Examples
///
/// ```
/// use zssd_metrics::Json;
/// let value = Json::Obj(vec![
///     ("name".into(), Json::Str("mail".into())),
///     ("count".into(), Json::U64(3)),
/// ]);
/// let text = value.to_string();
/// assert_eq!(text, r#"{"name":"mail","count":3}"#);
/// assert_eq!(Json::parse(&text).unwrap(), value);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the simulator's counters and times).
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// Non-negative integers without fraction or exponent parse as
    /// [`Json::U64`]; every other number parses as [`Json::F64`].
    ///
    /// # Errors
    ///
    /// Returns a description and byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            // Rust's shortest-round-trip float formatting is itself
            // deterministic; normalize the non-finite values JSON
            // cannot carry.
            Json::F64(v) if v.is_finite() => write!(f, "{v}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A JSON syntax error with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the error in the input.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            core::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans are ASCII");
        if integral && !text.starts_with('-') {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("malformed number"))
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Serializes a windowed time series (the GC-episode view) with its
/// window length, every field an exact integer of nanoseconds or
/// requests.
pub fn windows_to_json(window: SimDuration, windows: &[WindowStat]) -> Json {
    Json::Obj(vec![
        ("window_ns".into(), Json::U64(window.as_nanos())),
        (
            "windows".into(),
            Json::Arr(
                windows
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("start_ns".into(), Json::U64(w.start.as_nanos())),
                            ("count".into(), Json::U64(w.count)),
                            ("mean_ns".into(), Json::U64(w.mean.as_nanos())),
                            ("max_ns".into(), Json::U64(w.max.as_nanos())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a windowed time series as CSV
/// (`start_ns,count,mean_ns,max_ns`).
pub fn windows_to_csv(windows: &[WindowStat]) -> String {
    let mut out = String::from("start_ns,count,mean_ns,max_ns\n");
    for w in windows {
        out.push_str(&format!(
            "{},{},{},{}\n",
            w.start.as_nanos(),
            w.count,
            w.mean.as_nanos(),
            w.max.as_nanos()
        ));
    }
    out
}

/// Serializes an event stream: one object per event with `seq`,
/// `at_ns`, `kind`, and the payload fields of
/// [`Event::fields`](crate::Event::fields).
pub fn events_to_json(events: &[TracedEvent]) -> Json {
    Json::Arr(
        events
            .iter()
            .map(|e| {
                let mut pairs = vec![
                    ("seq".into(), Json::U64(e.seq)),
                    ("at_ns".into(), Json::U64(e.at.as_nanos())),
                    ("kind".into(), Json::Str(e.event.kind().into())),
                ];
                if let crate::Event::Fault { kind, .. } = e.event {
                    pairs.push(("fault".into(), Json::Str(kind.name().into())));
                }
                for (name, value) in e.event.fields() {
                    pairs.push((name.into(), Json::U64(value)));
                }
                Json::Obj(pairs)
            })
            .collect(),
    )
}

/// Renders an event stream as CSV (`seq,at_ns,kind,fields`), packing
/// the per-kind payload into a `;`-joined `name=value` list so all
/// kinds share one header.
pub fn events_to_csv(events: &[TracedEvent]) -> String {
    let mut out = String::from("seq,at_ns,kind,fields\n");
    for e in events {
        let mut fields: Vec<String> = Vec::new();
        if let crate::Event::Fault { kind, .. } = e.event {
            fields.push(format!("fault={}", kind.name()));
        }
        fields.extend(
            e.event
                .fields()
                .into_iter()
                .map(|(name, value)| format!("{name}={value}")),
        );
        out.push_str(&format!(
            "{},{},{},{}\n",
            e.seq,
            e.at.as_nanos(),
            e.event.kind(),
            fields.join(";")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, FaultEvent};
    use zssd_types::{Lpn, SimTime};

    #[test]
    fn render_and_parse_round_trip() {
        let value = Json::Obj(vec![
            ("null".into(), Json::Null),
            ("flag".into(), Json::Bool(true)),
            ("int".into(), Json::U64(u64::MAX)),
            ("float".into(), Json::F64(0.125)),
            ("text".into(), Json::Str("a \"b\"\\\n\tc".into())),
            (
                "arr".into(),
                Json::Arr(vec![Json::U64(1), Json::Bool(false), Json::Obj(vec![])]),
            ),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).expect("parses"), value);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let value =
            Json::parse(" { \"a\" : [ 1 , -2.5 ] , \"b\" : \"\\u0041\\n\" } ").expect("parses");
        assert_eq!(value.get("a").unwrap().as_arr().unwrap()[0], Json::U64(1));
        assert_eq!(
            value.get("a").unwrap().as_arr().unwrap()[1],
            Json::F64(-2.5)
        );
        assert_eq!(value.get("b").unwrap().as_str(), Some("A\n"));
        assert_eq!(value.get("b").unwrap().as_f64(), None);
        assert_eq!(Json::U64(3).as_f64(), Some(3.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = Json::parse("[1,}").unwrap_err();
        assert!(err.to_string().contains("at byte"));
    }

    #[test]
    fn windows_round_trip_exactly() {
        let windows = vec![
            WindowStat {
                start: SimTime::ZERO,
                count: 2,
                mean: SimDuration::from_micros(10),
                max: SimDuration::from_micros(30),
            },
            WindowStat {
                start: SimTime::from_nanos(250_000_000),
                count: 0,
                mean: SimDuration::ZERO,
                max: SimDuration::ZERO,
            },
        ];
        let window = SimDuration::from_millis(250);
        let json = windows_to_json(window, &windows);
        let text = json.to_string();
        assert_eq!(Json::parse(&text).expect("parses"), json);
        assert_eq!(
            text,
            "{\"window_ns\":250000000,\"windows\":[\
             {\"start_ns\":0,\"count\":2,\"mean_ns\":10000,\"max_ns\":30000},\
             {\"start_ns\":250000000,\"count\":0,\"mean_ns\":0,\"max_ns\":0}]}"
        );
        let csv = windows_to_csv(&windows);
        assert!(csv.starts_with("start_ns,count,mean_ns,max_ns\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn events_export_includes_kind_and_fields() {
        let events = vec![
            TracedEvent {
                seq: 0,
                at: SimTime::from_nanos(10),
                event: Event::HostWrite {
                    lpn: Lpn::new(7),
                    latency: SimDuration::from_nanos(99),
                },
            },
            TracedEvent {
                seq: 1,
                at: SimTime::from_nanos(20),
                event: Event::Fault {
                    kind: FaultEvent::Erase,
                    unit: 3,
                },
            },
        ];
        let json = events_to_json(&events);
        let text = json.to_string();
        let parsed = Json::parse(&text).expect("parses");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr[0].get("kind").unwrap().as_str(), Some("host_write"));
        assert_eq!(arr[0].get("lpn").unwrap().as_u64(), Some(7));
        assert_eq!(arr[0].get("latency_ns").unwrap().as_u64(), Some(99));
        assert_eq!(arr[1].get("fault").unwrap().as_str(), Some("erase"));
        assert_eq!(arr[1].get("unit").unwrap().as_u64(), Some(3));

        let csv = events_to_csv(&events);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "seq,at_ns,kind,fields");
        assert_eq!(lines[1], "0,10,host_write,lpn=7;latency_ns=99");
        assert_eq!(lines[2], "1,20,fault,fault=erase;unit=3");
    }
}
