//! Reading the other side of the telemetry contract.
//!
//! [`EventStream`](crate::EventStream) and [`Json`] only ever *emit*;
//! this module parses those bytes back into typed structures so tools
//! (the `eco report` subsystem, tests, ad-hoc scripts) never have to
//! re-implement JSON scraping on top of [`field`](crate::field):
//!
//! * [`Json::parse`] — a strict, whitespace-tolerant parser for the
//!   JSON subset the workspace emits. Documents round-trip:
//!   `Json::parse(doc.render())` re-renders byte-identically, and a
//!   compact record line re-renders byte-identically through
//!   [`Json::render_compact`].
//! * [`Record`] — one parsed stream record (`span_open` /
//!   `span_close` / `event`) with its reserved header fields split out
//!   and the remaining attributes kept in emission order.
//! * [`read_records`] — a buffered streaming reader over a JSONL
//!   stream; the buffer size only affects I/O chunking, never the
//!   parse, which the report determinism tests rely on.

use crate::{escape_into, Json};
use std::fmt::Write as _;
use std::io::{self, Read};

// ---------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("expected boolean"))
                }
            }
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected null"))
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
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

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid float"))
        } else if let Some(neg) = text.strip_prefix('-') {
            // `-0` and friends stay signed; magnitudes beyond i64 fall
            // back to float (never emitted by this workspace).
            match neg.parse::<i64>() {
                Ok(v) => Ok(Json::Int(-v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid integer")),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) => Ok(Json::UInt(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid integer")),
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the subset this workspace emits:
    /// objects, arrays, strings, numbers, booleans, `null`).
    ///
    /// Number typing: a literal containing `.`/`e`/`E` parses as
    /// [`Json::Float`]; a leading `-` as [`Json::Int`]; anything else
    /// as [`Json::UInt`]. Because both builders render floats through
    /// Rust's shortest-roundtrip `Display`, `parse(render())`
    /// re-renders byte-identically even where a whole-valued float
    /// degrades to an integer variant.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first error,
    /// including trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(value)
    }

    /// Renders the document compactly (no whitespace), matching the
    /// record-line format [`EventStream`](crate::EventStream) emits:
    /// `{"k":v,"k2":v2}`.
    pub fn render_compact(&self) -> String {
        let mut out = String::with_capacity(96);
        self.compact_into(&mut out);
        out
    }

    fn compact_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.compact_into(out);
                }
                out.push('}');
            }
        }
    }

    /// The value at `key` if this is an object with that field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a `.`-separated path (`"engine_stats.requested"`).
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Stream records
// ---------------------------------------------------------------------

/// The record type discriminated by the `ev` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A `span_open` record.
    SpanOpen,
    /// A `span_close` record.
    SpanClose,
    /// An `event` record.
    Event,
}

/// One parsed stream record: the reserved header fields split out,
/// every remaining attribute kept in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Record type.
    pub kind: RecordKind,
    /// Dense emission sequence number.
    pub seq: u64,
    /// Microseconds since stream creation (diagnostic only).
    pub t_us: u64,
    /// The record's span id (0 = none).
    pub span: u64,
    /// Enclosing span at open time (`span_open` only).
    pub parent: Option<u64>,
    /// Span or event name (absent on `span_close`).
    pub name: Option<String>,
    /// Non-reserved attributes, in emission order.
    pub attrs: Vec<(String, Json)>,
}

impl Record {
    /// Parses one JSONL record line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown `ev`, or a
    /// missing/mistyped reserved header field.
    pub fn parse(line: &str) -> Result<Record, String> {
        let doc = Json::parse(line)?;
        let fields = match doc {
            Json::Obj(fields) => fields,
            _ => return Err("record is not a JSON object".to_string()),
        };
        let mut kind = None;
        let mut seq = None;
        let mut t_us = None;
        let mut span = None;
        let mut parent = None;
        let mut name = None;
        let mut attrs = Vec::new();
        for (key, value) in fields {
            match key.as_str() {
                "ev" => {
                    kind = Some(match value.as_str() {
                        Some("span_open") => RecordKind::SpanOpen,
                        Some("span_close") => RecordKind::SpanClose,
                        Some("event") => RecordKind::Event,
                        _ => return Err(format!("unknown record type {value:?}")),
                    })
                }
                "seq" => seq = value.as_u64(),
                "t_us" => t_us = value.as_u64(),
                "span" => span = value.as_u64(),
                "parent" => parent = value.as_u64(),
                "name" => name = value.as_str().map(str::to_string),
                _ => attrs.push((key, value)),
            }
        }
        let kind = kind.ok_or("missing ev")?;
        let record = Record {
            kind,
            seq: seq.ok_or("missing/mistyped seq")?,
            t_us: t_us.ok_or("missing/mistyped t_us")?,
            span: span.ok_or("missing/mistyped span")?,
            parent,
            name,
            attrs,
        };
        match kind {
            RecordKind::SpanOpen => {
                if record.parent.is_none() {
                    return Err("span_open missing parent".to_string());
                }
                if record.name.is_none() {
                    return Err("span_open missing name".to_string());
                }
            }
            RecordKind::Event => {
                if record.name.is_none() {
                    return Err("event missing name".to_string());
                }
            }
            RecordKind::SpanClose => {}
        }
        Ok(record)
    }

    /// The attribute value at `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&Json> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String attribute at `key`.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(Json::as_str)
    }

    /// `u64` attribute at `key`.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(Json::as_u64)
    }

    /// `f64` attribute at `key` (any numeric variant).
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        self.attr(key).and_then(Json::as_f64)
    }

    /// Boolean attribute at `key`.
    pub fn attr_bool(&self, key: &str) -> Option<bool> {
        self.attr(key).and_then(Json::as_bool)
    }
}

/// Reads a whole JSONL stream from `reader` into parsed records,
/// chunking I/O at `buf_size` bytes (clamped to ≥ 1). The chunk size
/// affects only how bytes are pulled, never line splitting or parsing —
/// outputs derived from the records are byte-identical at any
/// `buf_size`.
///
/// # Errors
///
/// Returns `io::Error` for read failures; parse errors surface as
/// [`io::ErrorKind::InvalidData`] naming the offending line.
pub fn read_records(mut reader: impl Read, buf_size: usize) -> io::Result<Vec<Record>> {
    let mut chunk = vec![0u8; buf_size.max(1)];
    let mut pending = Vec::new();
    let mut records = Vec::new();
    let mut lineno = 0usize;
    let parse = |line: &[u8], lineno: usize| -> io::Result<Record> {
        let text = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: invalid utf-8"),
            )
        })?;
        Record::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {e}")))
    };
    loop {
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        pending.extend_from_slice(&chunk[..n]);
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            lineno += 1;
            records.push(parse(&line[..line.len() - 1], lineno)?);
        }
    }
    if !pending.is_empty() {
        lineno += 1;
        records.push(parse(&pending, lineno)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_stream, Attrs, EventStream};
    use std::sync::{Arc, Mutex};

    fn sample_stream() -> String {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let s = EventStream::to_shared_buffer(Arc::clone(&buf));
        let root = s.span("optimize", None, Attrs::new().str("kernel", "mm"));
        let screen = s.span("screen", Some(root), Attrs::new().uint("variants", 6));
        s.event(
            "point",
            Some(screen),
            Attrs::new()
                .str("label", "v2/screen \"q\"")
                .int("delta", -7)
                .uint("cycles", 123456)
                .float("rate", 0.75)
                .bool("cache_hit", false),
        );
        s.close_span(screen, Attrs::new().uint("points", 1));
        s.close_span(root, Attrs::new().str("selected", "v2"));
        s.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text
    }

    #[test]
    fn record_lines_round_trip_byte_identically() {
        let text = sample_stream();
        check_stream(&text).expect("valid stream");
        for line in text.lines() {
            let doc = Json::parse(line).expect("parses");
            assert_eq!(doc.render_compact(), line, "compact round-trip");
        }
    }

    #[test]
    fn pretty_documents_round_trip_byte_identically() {
        let doc = Json::obj()
            .field("manifest_version", Json::UInt(1))
            .field("kernel", Json::str("mm"))
            .field("fingerprint", Json::fingerprint(0xdead_beef))
            .field("negative", Json::Int(-42))
            .field("rate", Json::Float(0.375))
            .field("whole", Json::Float(3.0))
            .field("sizes", Json::Arr(vec![Json::Int(24), Json::Int(32)]))
            .field("empty_list", Json::Arr(vec![]))
            .field("empty_obj", Json::obj())
            .field("flag", Json::Bool(true))
            .field("nothing", Json::Null);
        let rendered = doc.render();
        let reparsed = Json::parse(&rendered).expect("parses");
        assert_eq!(reparsed.render(), rendered, "pretty round-trip");
        // And the parse is structurally faithful where types are
        // preserved (whole floats degrade to UInt by design).
        assert_eq!(reparsed.get("kernel").and_then(Json::as_str), Some("mm"));
        assert_eq!(reparsed.get("negative").and_then(Json::as_i64), Some(-42));
        assert_eq!(reparsed.get("rate"), Some(&Json::Float(0.375)));
        assert_eq!(reparsed.get("whole"), Some(&Json::UInt(3)));
        assert_eq!(
            reparsed.get_path("empty_obj").cloned(),
            Some(Json::obj()),
            "get_path reaches nested fields"
        );
    }

    #[test]
    fn records_parse_with_typed_headers_and_attrs() {
        let text = sample_stream();
        let records = read_records(text.as_bytes(), 4096).expect("reads");
        assert_eq!(records.len(), 5);
        let open = &records[0];
        assert_eq!(open.kind, RecordKind::SpanOpen);
        assert_eq!(open.seq, 0);
        assert_eq!(open.parent, Some(0));
        assert_eq!(open.name.as_deref(), Some("optimize"));
        assert_eq!(open.attr_str("kernel"), Some("mm"));
        let point = &records[2];
        assert_eq!(point.kind, RecordKind::Event);
        assert_eq!(point.name.as_deref(), Some("point"));
        assert_eq!(point.attr_str("label"), Some("v2/screen \"q\""));
        assert_eq!(point.attr("delta"), Some(&Json::Int(-7)));
        assert_eq!(point.attr_u64("cycles"), Some(123456));
        assert_eq!(point.attr_f64("rate"), Some(0.75));
        assert_eq!(point.attr_bool("cache_hit"), Some(false));
        assert_eq!(point.attr("missing"), None);
        let close = &records[4];
        assert_eq!(close.kind, RecordKind::SpanClose);
        assert_eq!(close.name, None);
        assert_eq!(close.attr_str("selected"), Some("v2"));
    }

    #[test]
    fn buffer_size_never_changes_the_parse() {
        let text = sample_stream();
        let baseline = read_records(text.as_bytes(), 8192).expect("reads");
        for buf_size in [1, 2, 3, 7, 64, 1 << 20] {
            let records = read_records(text.as_bytes(), buf_size).expect("reads");
            assert_eq!(records, baseline, "buf_size={buf_size}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        assert!(Record::parse("not json").is_err());
        assert!(Record::parse(r#"{"ev":"bogus","seq":0,"t_us":0,"span":0}"#).is_err());
        assert!(Record::parse(r#"{"ev":"event","seq":0,"t_us":0,"span":0}"#)
            .unwrap_err()
            .contains("missing name"));
        assert!(
            Record::parse(r#"{"ev":"span_open","seq":0,"t_us":0,"span":1,"name":"x"}"#)
                .unwrap_err()
                .contains("missing parent")
        );
        let err = read_records("{\"ev\":\"event\"}\n".as_bytes(), 4)
            .expect_err("must fail")
            .to_string();
        assert!(err.contains("line 1"), "{err}");
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("[1,2,").is_err());
    }
}
