//! Structured observability primitives for the ECO pipeline.
//!
//! The search and the evaluation engine are staged empirical processes;
//! a final CSV says *where* they converged but not *why*. This crate is
//! the evidence-trail substrate the rest of the workspace builds on
//! (no external dependencies — the container is offline):
//!
//! * [`EventStream`] — an append-only JSONL stream of **spans** (one per
//!   search stage: screening, shape search, footprint halving,
//!   refinement, prefetch passes, …) and **events** (per-point
//!   measurements, memo hits, plan compilations, counter snapshots).
//!   Records carry a dense sequence number and a wall-clock offset;
//!   span open/close records are properly nested, which
//!   [`check_stream`] verifies.
//! * [`Scope`] — a cheap clonable handle around an optional stream, so
//!   instrumented code pays nothing when observability is off.
//! * [`Json`] — an order-preserving JSON document builder whose
//!   rendering is byte-deterministic, used for **run manifests**: two
//!   runs with the same inputs must produce identical manifest bytes,
//!   making drift diffable (and CI-gateable) at the byte level.
//! * [`Fnv64`] — the workspace's stable content-fingerprint hash
//!   (FNV-1a), shared by the engine's memo keys and the manifests'
//!   program/machine fingerprints.
//! * [`read`] — the consuming side: parse record lines back into
//!   typed [`read::Record`]s and whole documents back into [`Json`]
//!   (byte-identical round trips), so analysis tools never scrape
//!   JSONL by hand.
//!
//! # Record schema
//!
//! One JSON object per line; `ev` discriminates the record type:
//!
//! ```text
//! {"ev":"span_open","seq":0,"t_us":3,"span":1,"parent":0,"name":"optimize",...attrs}
//! {"ev":"event","seq":1,"t_us":9,"span":1,"name":"point",...attrs}
//! {"ev":"span_close","seq":2,"t_us":12,"span":1,...attrs}
//! ```
//!
//! `seq` is dense from 0 (total order of emission), `t_us` is
//! microseconds since the stream was created (diagnostic only — never
//! part of a manifest), `span` is the record's span id (0 = none),
//! `parent` is the enclosing span at open time. Attribute keys must not
//! collide with the reserved keys `ev`, `seq`, `t_us`, `span`,
//! `parent`, `name`.
//!
//! # Examples
//!
//! ```
//! use eco_events::{check_stream, Attrs, EventStream};
//! use std::sync::{Arc, Mutex};
//!
//! let buf = Arc::new(Mutex::new(Vec::new()));
//! let stream = EventStream::to_shared_buffer(Arc::clone(&buf));
//! let root = stream.span("optimize", None, Attrs::new().str("kernel", "mm"));
//! stream.event("point", Some(root), Attrs::new().int("cycles", 1234));
//! stream.close_span(root, Attrs::new().uint("points", 1));
//! stream.flush();
//! let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
//! let summary = check_stream(&text).unwrap();
//! assert_eq!(summary.span_names, vec!["optimize"]);
//! assert_eq!(summary.events, 1);
//! ```

pub mod read;

/// Well-known event names emitted across the workspace, so producers
/// (engine, search, service layer) and consumers (`eco report`, tests)
/// agree on spelling. New subsystems should add their names here rather
/// than inlining string literals at emission sites.
pub mod names {
    /// Engine construction: machine model, memoization.
    pub const ENGINE_INIT: &str = "engine_init";
    /// One evaluated (or cache-served) search point.
    pub const POINT: &str = "point";
    /// One `eval_batch` call: job/unique/hit totals, worker threads.
    pub const BATCH: &str = "batch";
    /// A running snapshot of the engine's counters.
    pub const ENGINE_STATS: &str = "engine_stats";
    /// One program lowered to an executable plan.
    pub const PLAN_COMPILE: &str = "plan_compile";
    /// A best-effort write to the persistent result store failed.
    pub const STORE_ERROR: &str = "store_error";
    /// `eco serve` accepted a request (op, client id).
    pub const SERVE_REQUEST: &str = "serve_request";
    /// `eco serve` finished a request (status, wall time; an `error`
    /// attribute carries the failure string on error paths).
    pub const SERVE_DONE: &str = "serve_done";
    /// `eco serve` handled a request slower than its `--slow-ms`
    /// threshold (op, wall time).
    pub const SERVE_SLOW: &str = "serve_slow";
    /// A sweep orchestrator started executing a plan (figure, shard
    /// totals, workers).
    pub const SWEEP_BEGIN: &str = "sweep_begin";
    /// One shard executed inside a worker (figure, family, kind) —
    /// the span enclosing the shard's engine records.
    pub const SHARD: &str = "shard";
    /// The orchestrator handed a shard to a worker.
    pub const SHARD_SPAWN: &str = "shard_spawn";
    /// The orchestrator observed a shard finish (status, wall time).
    pub const SHARD_DONE: &str = "shard_done";
    /// The orchestrator merged shard results back into figure outputs.
    pub const SWEEP_GATHER: &str = "sweep_gather";
}

use std::fmt::Write as _;
use std::fs::File;
use std::hash::Hasher;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------

/// FNV-1a, the workspace's stable content hash: usable both on raw
/// bytes and as a [`std::hash::Hasher`] so `#[derive(Hash)]` types can
/// feed it. Stable across runs and platforms within a build; values are
/// persisted only as opaque fingerprints.
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// The fingerprint of one byte string.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An attribute value: the scalar types event records and manifests
/// carry.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A JSON string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float, rendered with Rust's shortest-roundtrip `Display`.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    fn render_into(&self, out: &mut String) {
        match self {
            AttrValue::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            AttrValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// An ordered list of `key: value` attributes attached to a record.
/// Order is preserved verbatim in the output, so attribute emission is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attrs(Vec<(String, AttrValue)>);

impl Attrs {
    /// An empty attribute list.
    pub fn new() -> Self {
        Attrs(Vec::new())
    }

    /// Appends a string attribute (builder style).
    #[must_use]
    pub fn str(mut self, key: &str, value: impl AsRef<str>) -> Self {
        self.0
            .push((key.to_string(), AttrValue::Str(value.as_ref().to_string())));
        self
    }

    /// Appends a signed integer attribute (builder style).
    #[must_use]
    pub fn int(mut self, key: &str, value: i64) -> Self {
        self.0.push((key.to_string(), AttrValue::Int(value)));
        self
    }

    /// Appends an unsigned integer attribute (builder style).
    #[must_use]
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.0.push((key.to_string(), AttrValue::UInt(value)));
        self
    }

    /// Appends a float attribute (builder style).
    #[must_use]
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.0.push((key.to_string(), AttrValue::Float(value)));
        self
    }

    /// Appends a boolean attribute (builder style).
    #[must_use]
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.0.push((key.to_string(), AttrValue::Bool(value)));
        self
    }

    fn render_into(&self, out: &mut String) {
        for (k, v) in &self.0 {
            out.push_str(",\"");
            out.push_str(&json_escape(k));
            out.push_str("\":");
            v.render_into(out);
        }
    }
}

// ---------------------------------------------------------------------
// The event stream
// ---------------------------------------------------------------------

/// Identity of an open span within one [`EventStream`]. Ids start at 1;
/// 0 in the serialized form means "no span".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The serialized id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An append-only JSONL stream of spans and events.
///
/// Thread-safe: records from concurrent emitters interleave whole-line
/// at a time and the `seq` field gives the total emission order. Write
/// errors after creation are deliberately ignored (telemetry must never
/// fail a run); creation errors are surfaced so a misspelled path fails
/// fast.
pub struct EventStream {
    writer: Mutex<Box<dyn Write + Send>>,
    seq: AtomicU64,
    next_span: AtomicU64,
    t0: Instant,
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A shared in-memory sink for tests and tools.
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl EventStream {
    /// A stream writing to `sink`.
    pub fn to_writer(sink: Box<dyn Write + Send>) -> Self {
        EventStream {
            writer: Mutex::new(sink),
            seq: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            t0: Instant::now(),
        }
    }

    /// A stream writing (buffered) to a fresh file at `path`; the file
    /// is created (truncated) immediately so an unwritable path fails
    /// fast.
    ///
    /// # Errors
    ///
    /// Returns the `File::create` error.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(file))))
    }

    /// A stream appending to a shared byte buffer (tests, tools).
    pub fn to_shared_buffer(buf: Arc<Mutex<Vec<u8>>>) -> Self {
        Self::to_writer(Box::new(SharedBuffer(buf)))
    }

    fn emit_record(&self, head: &str, span: u64, tail: &str, attrs: &Attrs) {
        let mut rest = String::with_capacity(96);
        rest.push_str(tail);
        attrs.render_into(&mut rest);
        // `seq` is taken under the writer lock: taken before it, two
        // concurrent emitters could write their lines out of `seq`
        // order, which `check_stream` rejects.
        let mut w = self.writer.lock().expect("event writer lock");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t_us = self.t0.elapsed().as_micros() as u64;
        let _ = writeln!(
            w,
            "{{\"ev\":\"{head}\",\"seq\":{seq},\"t_us\":{t_us},\"span\":{span}{rest}}}"
        );
    }

    /// Opens a span and emits its `span_open` record. `parent` is the
    /// enclosing span (None at the root).
    pub fn span(&self, name: &str, parent: Option<SpanId>, attrs: Attrs) -> SpanId {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let tail = format!(
            ",\"parent\":{},\"name\":\"{}\"",
            parent.map_or(0, SpanId::raw),
            json_escape(name)
        );
        self.emit_record("span_open", id.0, &tail, &attrs);
        id
    }

    /// Emits the `span_close` record for `span`. Every opened span must
    /// be closed exactly once, in properly nested (LIFO) order —
    /// [`check_stream`] enforces this.
    pub fn close_span(&self, span: SpanId, attrs: Attrs) {
        self.emit_record("span_close", span.0, "", &attrs);
    }

    /// Emits a point event, attributed to `span` when given.
    pub fn event(&self, name: &str, span: Option<SpanId>, attrs: Attrs) {
        let tail = format!(",\"name\":\"{}\"", json_escape(name));
        self.emit_record("event", span.map_or(0, SpanId::raw), &tail, &attrs);
    }

    /// Flushes buffered records to the sink.
    pub fn flush(&self) {
        let _ = self.writer.lock().expect("event writer lock").flush();
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A cheap clonable handle over an optional [`EventStream`]: every
/// operation is a no-op when observability is off, so instrumented code
/// calls unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    stream: Option<Arc<EventStream>>,
}

impl Scope {
    /// A scope over `stream` (None = disabled).
    pub fn new(stream: Option<Arc<EventStream>>) -> Self {
        Scope { stream }
    }

    /// A disabled scope.
    pub fn off() -> Self {
        Scope { stream: None }
    }

    /// Whether events are actually recorded.
    pub fn enabled(&self) -> bool {
        self.stream.is_some()
    }

    /// The underlying stream, if any.
    pub fn stream(&self) -> Option<&Arc<EventStream>> {
        self.stream.as_ref()
    }

    /// Opens a span (no-op returning `None` when disabled).
    pub fn span(&self, name: &str, parent: Option<SpanId>, attrs: Attrs) -> Option<SpanId> {
        self.stream.as_ref().map(|s| s.span(name, parent, attrs))
    }

    /// Closes a span opened by [`Scope::span`].
    pub fn close(&self, span: Option<SpanId>, attrs: Attrs) {
        if let (Some(stream), Some(span)) = (&self.stream, span) {
            stream.close_span(span, attrs);
        }
    }

    /// Emits an event.
    pub fn event(&self, name: &str, span: Option<SpanId>, attrs: Attrs) {
        if let Some(stream) = &self.stream {
            stream.event(name, span, attrs);
        }
    }

    /// Flushes the stream, if any.
    pub fn flush(&self) {
        if let Some(stream) = &self.stream {
            stream.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Stream validation
// ---------------------------------------------------------------------

/// What [`check_stream`] learned about a well-formed stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total records.
    pub records: usize,
    /// `event` records.
    pub events: usize,
    /// Names of opened (and closed) spans, in open order.
    pub span_names: Vec<String>,
    /// Names of `event` records, in emission order.
    pub event_names: Vec<String>,
}

impl StreamSummary {
    /// How many spans with this name were opened.
    pub fn spans_named(&self, name: &str) -> usize {
        self.span_names.iter().filter(|n| *n == name).count()
    }

    /// How many events with this name were emitted.
    pub fn events_named(&self, name: &str) -> usize {
        self.event_names.iter().filter(|n| *n == name).count()
    }
}

/// Extracts the raw text of `"key":<value>` from a record line, where
/// the value is a number, boolean, or string (strings are returned
/// without the surrounding quotes but still escaped). Searches
/// whole-key matches only; sufficient for the machine-generated
/// records this crate emits, and exported so tests and tools can poke
/// at streams without a JSON parser.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let mut from = 0;
    while let Some(pos) = line[from..].find(&needle) {
        let at = from + pos;
        // A key match must be preceded by '{' or ','.
        if at > 0 && !matches!(line.as_bytes()[at - 1], b'{' | b',') {
            from = at + needle.len();
            continue;
        }
        let rest = &line[at + needle.len()..];
        return Some(if let Some(s) = rest.strip_prefix('"') {
            let mut end = 0;
            let b = s.as_bytes();
            while end < b.len() && b[end] != b'"' {
                if b[end] == b'\\' {
                    end += 1;
                }
                end += 1;
            }
            &s[..end.min(s.len())]
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            &rest[..end]
        });
    }
    None
}

/// Validates a serialized event stream: every line is a record of a
/// known type, `seq` is dense from 0, every `span_open` is closed
/// exactly once in properly nested (LIFO) order with its `parent` equal
/// to the span open at that moment, and events reference open spans
/// (or none).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_stream(text: &str) -> Result<StreamSummary, String> {
    let mut summary = StreamSummary::default();
    let mut stack: Vec<(u64, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(at("not a JSON object"));
        }
        let seq: u64 = field(line, "seq")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| at("missing seq"))?;
        if seq != lineno as u64 {
            return Err(at(&format!("seq {seq}, expected {lineno}")));
        }
        let span: u64 = field(line, "span")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| at("missing span"))?;
        match field(line, "ev") {
            Some("span_open") => {
                let parent: u64 = field(line, "parent")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| at("missing parent"))?;
                let open_parent = stack.last().map_or(0, |(id, _)| *id);
                if parent != open_parent {
                    return Err(at(&format!(
                        "parent {parent} is not the enclosing span {open_parent}"
                    )));
                }
                let name = field(line, "name").ok_or_else(|| at("missing name"))?;
                stack.push((span, name.to_string()));
                summary.span_names.push(name.to_string());
            }
            Some("span_close") => match stack.pop() {
                Some((open, _)) if open == span => {}
                Some((open, name)) => {
                    return Err(at(&format!(
                        "closes span {span} but innermost open span is {open} ({name})"
                    )))
                }
                None => return Err(at("close with no open span")),
            },
            Some("event") => {
                if span != 0 && !stack.iter().any(|(id, _)| *id == span) {
                    return Err(at(&format!("event references closed/unknown span {span}")));
                }
                let name = field(line, "name").ok_or_else(|| at("missing name"))?;
                summary.event_names.push(name.to_string());
                summary.events += 1;
            }
            Some(other) => return Err(at(&format!("unknown record type {other:?}"))),
            None => return Err(at("missing ev")),
        }
        summary.records += 1;
    }
    if let Some((id, name)) = stack.pop() {
        return Err(format!("span {id} ({name}) was never closed"));
    }
    Ok(summary)
}

// ---------------------------------------------------------------------
// Canonical JSON documents (run manifests)
// ---------------------------------------------------------------------

/// An order-preserving JSON document with byte-deterministic rendering.
///
/// Object keys render in insertion order; numbers render via Rust's
/// `Display` (shortest roundtrip for floats); there is no whitespace
/// variance. Manifests built from the same inputs are therefore
/// byte-identical — the property `repro check` gates on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A finite float (non-finite renders as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// A string value.
    pub fn str(s: impl AsRef<str>) -> Json {
        Json::Str(s.as_ref().to_string())
    }

    /// Appends a field to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// A `0x`-prefixed hexadecimal fingerprint string.
    pub fn fingerprint(fp: u64) -> Json {
        Json::Str(format!("{fp:#018x}"))
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
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
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&PAD.repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&PAD.repeat(indent + 1));
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push('}');
            }
        }
    }

    /// Renders the document as pretty-printed JSON with a trailing
    /// newline (byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(stream: &EventStream, buf: &Arc<Mutex<Vec<u8>>>) -> String {
        stream.flush();
        String::from_utf8(buf.lock().expect("buf").clone()).expect("utf8")
    }

    fn fresh() -> (EventStream, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (EventStream::to_shared_buffer(Arc::clone(&buf)), buf)
    }

    #[test]
    fn nested_spans_validate_and_summarize() {
        let (s, buf) = fresh();
        let root = s.span("optimize", None, Attrs::new().str("kernel", "mm"));
        let screen = s.span("screen", Some(root), Attrs::new());
        s.event("point", Some(screen), Attrs::new().uint("cycles", 42));
        s.close_span(screen, Attrs::new().uint("points", 1));
        let v = s.span("variant", Some(root), Attrs::new().str("name", "v2"));
        s.event("improved", Some(v), Attrs::new().uint("cycles", 40));
        s.close_span(v, Attrs::new());
        s.close_span(root, Attrs::new());
        let text = collect(&s, &buf);
        let summary = check_stream(&text).expect("valid stream");
        assert_eq!(summary.records, 8);
        assert_eq!(summary.events, 2);
        assert_eq!(summary.span_names, vec!["optimize", "screen", "variant"]);
        assert_eq!(summary.spans_named("variant"), 1);
        // seq is dense and in emission order
        for (i, line) in text.lines().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "{line}");
        }
    }

    #[test]
    fn unclosed_span_is_rejected() {
        let (s, buf) = fresh();
        let root = s.span("optimize", None, Attrs::new());
        let _leak = s.span("screen", Some(root), Attrs::new());
        s.close_span(root, Attrs::new());
        let text = collect(&s, &buf);
        let err = check_stream(&text).expect_err("must reject");
        assert!(err.contains("innermost open span"), "{err}");
    }

    #[test]
    fn out_of_order_close_and_bad_parent_are_rejected() {
        // Close references a span that is not the innermost open one.
        let (s, buf) = fresh();
        let a = s.span("a", None, Attrs::new());
        let _b = s.span("b", Some(a), Attrs::new());
        s.close_span(a, Attrs::new());
        let err = check_stream(&collect(&s, &buf)).expect_err("LIFO violated");
        assert!(err.contains("innermost"), "{err}");

        // A parent that is not the enclosing span.
        let (s, buf) = fresh();
        let a = s.span("a", None, Attrs::new());
        s.close_span(a, Attrs::new());
        let _b = s.span("b", Some(a), Attrs::new()); // a already closed
        let err = check_stream(&collect(&s, &buf)).expect_err("bad parent");
        assert!(err.contains("not the enclosing span"), "{err}");
    }

    #[test]
    fn events_must_reference_open_spans() {
        let (s, buf) = fresh();
        let a = s.span("a", None, Attrs::new());
        s.close_span(a, Attrs::new());
        s.event("late", Some(a), Attrs::new());
        let err = check_stream(&collect(&s, &buf)).expect_err("stale span ref");
        assert!(err.contains("closed/unknown span"), "{err}");
        // ...but span-less events are always fine.
        let (s, buf) = fresh();
        s.event("global", None, Attrs::new().bool("ok", true));
        let summary = check_stream(&collect(&s, &buf)).expect("valid");
        assert_eq!(summary.events, 1);
    }

    #[test]
    fn attrs_escape_and_render_all_types() {
        let (s, buf) = fresh();
        s.event(
            "kinds",
            None,
            Attrs::new()
                .str("label", "quote\" tab\t")
                .int("neg", -3)
                .uint("big", u64::MAX)
                .float("f", 1.5)
                .bool("flag", false),
        );
        let text = collect(&s, &buf);
        assert!(text.contains("\"label\":\"quote\\\" tab\\t\""), "{text}");
        assert!(text.contains("\"neg\":-3"), "{text}");
        assert!(text.contains(&format!("\"big\":{}", u64::MAX)), "{text}");
        assert!(text.contains("\"f\":1.5"), "{text}");
        assert!(text.contains("\"flag\":false"), "{text}");
        check_stream(&text).expect("valid");
    }

    #[test]
    fn disabled_scope_is_a_no_op() {
        let scope = Scope::off();
        assert!(!scope.enabled());
        let span = scope.span("x", None, Attrs::new());
        assert_eq!(span, None);
        scope.event("y", span, Attrs::new());
        scope.close(span, Attrs::new());
        scope.flush();
    }

    #[test]
    fn json_documents_render_deterministically() {
        let doc = || {
            Json::obj()
                .field("manifest_version", Json::UInt(1))
                .field("kernel", Json::str("mm"))
                .field("fingerprint", Json::fingerprint(0xdead_beef))
                .field("sizes", Json::Arr(vec![Json::Int(24), Json::Int(32)]))
                .field("empty_list", Json::Arr(vec![]))
                .field("empty_obj", Json::obj())
                .field("nested", Json::obj().field("hit_rate", Json::Float(0.75)))
        };
        let a = doc().render();
        let b = doc().render();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"fingerprint\": \"0x00000000deadbeef\""), "{a}");
        assert!(a.contains("\"empty_list\": []"), "{a}");
        assert!(a.contains("\"hit_rate\": 0.75"), "{a}");
        // Key order is insertion order, not alphabetical.
        assert!(a.find("manifest_version").unwrap() < a.find("kernel").unwrap());
    }

    #[test]
    fn fnv_is_stable() {
        // Reference FNV-1a vectors.
        assert_eq!(Fnv64::hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        std::hash::Hash::hash(&42u64, &mut h);
        let mut h2 = Fnv64::new();
        std::hash::Hash::hash(&42u64, &mut h2);
        assert_eq!(h.finish(), h2.finish());
    }

    #[test]
    fn field_extraction_ignores_value_text() {
        // A value containing something that looks like a key must not
        // shadow the real field.
        let line =
            r#"{"ev":"event","seq":0,"t_us":1,"span":0,"name":"x","label":"fake,\"seq\":9"}"#;
        assert_eq!(field(line, "seq"), Some("0"));
        assert_eq!(field(line, "name"), Some("x"));
        assert_eq!(field(line, "missing"), None);
    }
}
