//! The `eco serve` service layer: a local autotuning daemon.
//!
//! The server listens on a Unix-domain socket and speaks a
//! line-delimited JSON protocol: each request is one
//! [`Json`] object on one line, each response one object on one line
//! (the `watch` op is the one streaming exception, below). The payload
//! of a `tune` request is a serialized
//! [`TuneRequest`] — exactly the type the CLIs and the tests use — and
//! the response embeds the run's deterministic manifest
//! ([`run_manifest`]), so a served tune and a local `eco tune
//! --manifest` produce the same bytes for the same inputs.
//!
//! ```text
//! {"op":"ping"}
//! {"op":"tune","request":{...TuneRequest::to_json()...}}
//! {"op":"shard","shard":{...Shard::to_json()...}}
//! {"op":"stats"}          serve counters + per-engine work totals
//! {"op":"store-stats"}    persistent result-store counters
//! {"op":"metrics"}        Prometheus-text metrics snapshot
//! {"op":"watch","fingerprint":"0x..."}   tail a request's event stream
//! {"op":"trace","fingerprint":"0x..."}   a completed request's stream + response
//! {"op":"shutdown"}
//! ```
//!
//! Responses carry `"ok": true` plus op-specific fields, or
//! `"ok": false` with an `"error"` message.
//!
//! Concurrency: each connection is served by its own thread, and all
//! connections share one [`Engine`] per machine fingerprint — so
//! concurrent tunes share the memo cache, the persistent result store
//! and the engine's in-flight evaluation dedupe. On top of that the
//! server dedupes *whole requests*: two identical `tune` requests in
//! flight at once (same [`TuneRequest::fingerprint`]) run the search
//! once and both receive the same response bytes; the `stats` op
//! reports how often that happened (`deduped_requests`).
//!
//! The `shard` op is the remote half of the sharded sweep pipeline
//! (`crate::sweep`): the payload is one serialized
//! [`Shard`] manifest, executed on a *fresh* engine
//! built from the server's template (never the shared per-machine
//! engine — shard results must be byte-identical to a local worker's,
//! and that requires cold engine stats). Identical in-flight shards
//! are deduped like tunes. The response embeds the shard's result
//! document; the orchestrator records completion in its own store.
//!
//! **Observability.** Every request is counted and timed in a
//! per-server [`Registry`] (request counts and latency histograms by
//! op, an in-flight gauge, dedupe joins, slow requests); the
//! `metrics` op returns that registry plus the process-wide one
//! (engine / store / sweep counters) as one Prometheus text document.
//! The scrape itself is excluded from those counters and from the
//! in-flight gauge — observing the server must not perturb it.
//! The owner of every `tune`/`shard` request additionally writes its
//! search/engine event stream into an in-memory buffer keyed by the
//! request fingerprint: `watch` tails that buffer live over the
//! connection (header line, then raw JSONL event lines as they
//! happen, then a `"done"` trailer), and a small ring of completed
//! requests keeps the stream and response around afterwards for
//! `trace` (and for `watch` replays). None of this feeds back into
//! search decisions, manifests or goldens.
//!
//! The per-engine telemetry flags of a request's `engine` section
//! (trace/events paths, thread count) are ignored — engines are
//! configured by the server, requests only say *what* to tune. Pass
//! `--events FILE` to `eco serve` to capture a request-level stream
//! (`serve_request`/`serve_done` events) instead. Operational
//! messages go to stderr through a timestamped, leveled [`Logger`]
//! (`--log-level quiet|info|debug`), including a slow-request line
//! for any op above the `--slow-ms` threshold.

use eco_core::events::{names, Attrs, EventStream, Json};
use eco_core::{
    machine_fingerprint, run_manifest, Engine, EngineConfig, EngineStats, Evaluator, Shard,
    TuneRequest,
};
use eco_machine::MachineDesc;
use eco_metrics::{Counter, Gauge, Histogram, Registry};
use eco_sched::sync::atomic::{AtomicBool, Ordering};
use eco_sched::sync::{labeled_condvar, labeled_mutex, Arc, Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Protocol version answered by `ping` (bumped with
/// [`eco_core::API_VERSION`] changes that affect the wire format).
pub const PROTOCOL_VERSION: u64 = 1;

/// Completed tune/shard requests retained for `trace` / `watch`
/// replay, newest last.
const COMPLETED_RING: usize = 8;

/// Longest request line the daemon reads, in bytes (newline excluded).
/// The largest legitimate request, a sweep shard, is under 1 KiB; the
/// cap keeps one client from growing daemon memory without limit. An
/// oversize line gets an error reply and its connection is closed.
const MAX_REQUEST_LINE: usize = 1 << 20;

// ---------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------

/// Verbosity of the daemon's stderr log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// Nothing at all.
    Quiet,
    /// Lifecycle and anomalies: bind/shutdown, errors, slow requests.
    #[default]
    Info,
    /// Every request with its outcome and wall time.
    Debug,
}

impl LogLevel {
    /// Parses `quiet` / `info` / `debug`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(text: &str) -> Result<LogLevel, String> {
        match text {
            "quiet" => Ok(LogLevel::Quiet),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level '{other}' (expected quiet|info|debug)"
            )),
        }
    }
}

/// A timestamped, leveled stderr logger: `TIMESTAMP LEVEL eco-serve:
/// message`. Replaces ad-hoc `eprintln!` in the daemon path.
#[derive(Debug, Clone, Copy)]
pub struct Logger {
    level: LogLevel,
}

impl Logger {
    /// A logger filtering below `level`.
    pub fn new(level: LogLevel) -> Logger {
        Logger { level }
    }

    /// Logs at info level.
    pub fn info(&self, msg: &str) {
        self.log(LogLevel::Info, "INFO", msg);
    }

    /// Logs at debug level.
    pub fn debug(&self, msg: &str) {
        self.log(LogLevel::Debug, "DEBUG", msg);
    }

    fn log(&self, at: LogLevel, tag: &str, msg: &str) {
        if at <= self.level {
            eprintln!("{} {tag:5} eco-serve: {msg}", timestamp_utc());
        }
    }
}

/// The current wall-clock time as `YYYY-MM-DDTHH:MM:SS.mmmZ` (UTC).
fn timestamp_utc() -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    let secs = now.as_secs();
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let rem = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}.{:03}Z",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60,
        now.subsec_millis()
    )
}

/// Gregorian date from days since 1970-01-01 (proleptic civil
/// calendar).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// How the server is configured: socket path, the engine template
/// applied to every per-machine engine, an optional request-level
/// event stream, and the stderr log policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Engine template: threads, memoization and the shared result
    /// store. The events path is stripped (a single file cannot be
    /// shared by lazily-created engines); use `events` below.
    pub engine: EngineConfig,
    /// Request-level event stream (`serve_request`/`serve_done`).
    pub events: Option<String>,
    /// Stderr log verbosity (`--log-level`).
    pub log_level: LogLevel,
    /// Any op slower than this many milliseconds logs a slow-request
    /// line and counts in `eco_serve_slow_requests_total`
    /// (`--slow-ms`).
    pub slow_ms: u64,
}

impl ServeConfig {
    /// A config with default logging (info level, 1000 ms slow
    /// threshold).
    pub fn new(socket: impl Into<PathBuf>, engine: EngineConfig) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            engine,
            events: None,
            log_level: LogLevel::default(),
            slow_ms: 1000,
        }
    }
}

// ---------------------------------------------------------------------
// Per-server metrics
// ---------------------------------------------------------------------

/// The ops the daemon understands; anything else is labeled `other`
/// in metrics so label cardinality stays bounded.
const KNOWN_OPS: &[&str] = &[
    "ping",
    "tune",
    "shard",
    "stats",
    "store-stats",
    "metrics",
    "watch",
    "trace",
    "shutdown",
];

/// Every `op` label value: the known ops, then `other`.
fn op_labels() -> impl Iterator<Item = &'static str> {
    KNOWN_OPS.iter().copied().chain(["other"])
}

fn op_label(op: &str) -> &'static str {
    KNOWN_OPS
        .iter()
        .find(|&&k| k == op)
        .copied()
        .unwrap_or("other")
}

/// Handles into the per-server [`Registry`]: request counts and
/// latency by op, plus cross-op counters. A per-server registry (not
/// the global one) keeps concurrently running servers — and tests —
/// exactly countable.
struct ServeMetrics {
    registry: Registry,
    inflight: Arc<Gauge>,
    errors: Arc<Counter>,
    deduped: Arc<Counter>,
    slow: Arc<Counter>,
    connections: Arc<Counter>,
    threads: Arc<Gauge>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = Registry::new();
        // Pre-register every known op so a scrape is fully shaped
        // before the first request of each kind arrives.
        for op in op_labels() {
            let _ = Self::requests_in(&registry, op);
            let _ = Self::duration_in(&registry, op);
        }
        let inflight = registry.gauge(
            "eco_serve_inflight",
            "Requests currently being handled.",
            &[],
        );
        let errors = registry.counter(
            "eco_serve_errors_total",
            "Requests answered with ok=false.",
            &[],
        );
        let deduped = registry.counter(
            "eco_serve_deduped_requests_total",
            "Requests served by joining an identical in-flight request.",
            &[],
        );
        let slow = registry.counter(
            "eco_serve_slow_requests_total",
            "Requests slower than the --slow-ms threshold.",
            &[],
        );
        let connections =
            registry.counter("eco_serve_connections_total", "Connections accepted.", &[]);
        let threads = registry.gauge(
            "eco_serve_connection_threads",
            "Connection threads not yet joined (live, or ended since the last accept).",
            &[],
        );
        ServeMetrics {
            registry,
            inflight,
            errors,
            deduped,
            slow,
            connections,
            threads,
        }
    }

    fn requests_in(registry: &Registry, op: &str) -> Arc<Counter> {
        registry.counter(
            "eco_serve_requests_total",
            "Requests handled, by op.",
            &[("op", op)],
        )
    }

    fn duration_in(registry: &Registry, op: &str) -> Arc<Histogram> {
        registry.histogram(
            "eco_serve_request_duration_us",
            "Request handling wall time by op, microseconds.",
            &[("op", op)],
            eco_metrics::LATENCY_US_BOUNDS,
        )
    }

    fn requests(&self, op: &str) -> Arc<Counter> {
        Self::requests_in(&self.registry, op_label(op))
    }

    fn duration(&self, op: &str) -> Arc<Histogram> {
        Self::duration_in(&self.registry, op_label(op))
    }
}

// ---------------------------------------------------------------------
// In-flight dedupe and live event streams
// ---------------------------------------------------------------------

/// One in-flight `tune` request: followers with the same fingerprint
/// block on `wait` until the owner fills the response line.
struct InflightRequest {
    done: Mutex<Option<String>>,
    cv: Condvar,
}

impl InflightRequest {
    fn new() -> Self {
        InflightRequest {
            done: labeled_mutex("serve.inflight.cell", None),
            cv: labeled_condvar("serve.inflight.cv"),
        }
    }

    fn fill(&self, line: String) {
        *self.done.lock().expect("inflight lock") = Some(line);
        self.cv.notify_all();
    }

    fn wait(&self) -> String {
        let mut done = self.done.lock().expect("inflight lock");
        while done.is_none() {
            done = self.cv.wait(done).expect("inflight wait");
        }
        done.clone().expect("filled")
    }
}

#[derive(Default)]
struct LiveState {
    lines: Vec<String>,
    done: bool,
}

/// The event-line buffer of one in-flight request: the owner's event
/// stream appends lines, any number of `watch` connections tail them.
struct LiveBuf {
    state: Mutex<LiveState>,
    cv: Condvar,
}

impl Default for LiveBuf {
    fn default() -> Self {
        LiveBuf {
            state: labeled_mutex("serve.live.buf", LiveState::default()),
            cv: labeled_condvar("serve.live.cv"),
        }
    }
}

impl LiveBuf {
    fn push(&self, line: String) {
        self.state.lock().expect("live lock").lines.push(line);
        self.cv.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("live lock").done = true;
        self.cv.notify_all();
    }

    /// Lines from index `from` on, blocking until there are new lines
    /// or the buffer is closed. Returns the new lines and the done
    /// flag.
    fn next(&self, from: usize) -> (Vec<String>, bool) {
        let mut state = self.state.lock().expect("live lock");
        loop {
            if state.lines.len() > from || state.done {
                return (
                    state.lines[from.min(state.lines.len())..].to_vec(),
                    state.done,
                );
            }
            state = self.cv.wait(state).expect("live wait");
        }
    }

    /// The whole captured stream as JSONL text.
    fn text(&self) -> String {
        let state = self.state.lock().expect("live lock");
        let mut out = String::new();
        for line in &state.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// An `io::Write` sink feeding complete lines into a [`LiveBuf`] —
/// the bridge from [`EventStream::to_writer`] to `watch` connections.
struct LiveWriter {
    buf: Arc<LiveBuf>,
    pending: Vec<u8>,
}

impl Write for LiveWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(data);
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=pos).collect();
            self.buf
                .push(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Registers a request's live buffer for `watch` and guarantees it is
/// closed and deregistered on every exit path (including panics, so a
/// watcher can never hang on a dead owner).
struct LiveSession<'a> {
    inner: &'a ServerInner,
    fp: u64,
    buf: Arc<LiveBuf>,
}

impl<'a> LiveSession<'a> {
    fn open(inner: &'a ServerInner, fp: u64) -> LiveSession<'a> {
        let buf = Arc::new(LiveBuf::default());
        inner
            .live
            .lock()
            .expect("live map lock")
            .insert(fp, Arc::clone(&buf));
        LiveSession { inner, fp, buf }
    }

    /// A fresh event stream writing into this session's buffer.
    fn stream(&self) -> Arc<EventStream> {
        Arc::new(EventStream::to_writer(Box::new(LiveWriter {
            buf: Arc::clone(&self.buf),
            pending: Vec::new(),
        })))
    }
}

impl Drop for LiveSession<'_> {
    fn drop(&mut self) {
        self.inner
            .live
            .lock()
            .expect("live map lock")
            .remove(&self.fp);
        self.buf.close();
    }
}

/// A finished `tune`/`shard` request retained for `trace` and `watch`
/// replay.
struct Completed {
    fingerprint: u64,
    op: &'static str,
    events: String,
    response: Json,
}

/// Delegates evaluation to the shared per-machine engine but reports
/// a per-request event stream, so the search attaches its stage spans
/// to the stream a `watch` connection is tailing (engine-internal
/// point events still go to the engine's own stream, if any).
struct WatchedEngine {
    engine: Arc<Engine>,
    events: Arc<EventStream>,
}

impl Evaluator for WatchedEngine {
    fn machine(&self) -> &MachineDesc {
        self.engine.machine()
    }

    fn eval_batch(
        &self,
        jobs: &[eco_exec::EvalJob],
    ) -> Vec<Result<eco_exec::Counters, eco_exec::ExecError>> {
        self.engine.eval_batch(jobs)
    }

    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    fn events(&self) -> Option<&Arc<EventStream>> {
        Some(&self.events)
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

struct ServerInner {
    template: EngineConfig,
    engines: Mutex<HashMap<u64, Arc<Engine>>>,
    inflight: Mutex<HashMap<u64, Arc<InflightRequest>>>,
    events: Option<Arc<EventStream>>,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    /// Live event buffers of in-flight tune/shard requests, by
    /// request fingerprint.
    live: Mutex<HashMap<u64, Arc<LiveBuf>>>,
    /// Recently completed tune/shard requests, newest last.
    completed: Mutex<VecDeque<Completed>>,
    log: Logger,
    slow_ms: u64,
}

/// The autotuning daemon. Bind with [`Server::bind`], then either
/// [`Server::run`] (blocks until a `shutdown` request) or drive
/// connections from tests via [`request`].
pub struct Server {
    listener: UnixListener,
    socket: PathBuf,
    inner: Arc<ServerInner>,
}

impl Server {
    /// Binds the socket (replacing a stale socket file from a dead
    /// server) and prepares the shared state.
    ///
    /// # Errors
    ///
    /// Returns a message when the socket cannot be bound or the event
    /// stream file cannot be created.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let mut template = config.engine.clone();
        template.events_path = None;
        let events = match &config.events {
            Some(path) => {
                Some(Arc::new(EventStream::to_file(path).map_err(|e| {
                    format!("cannot create events file {path}: {e}")
                })?))
            }
            None => None,
        };
        let listener = match UnixListener::bind(&config.socket) {
            Ok(l) => l,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                // A previous server may have died without unlinking its
                // socket; only rebind if nothing answers there.
                if UnixStream::connect(&config.socket).is_ok() {
                    return Err(format!(
                        "socket {} already has a live server",
                        config.socket.display()
                    ));
                }
                std::fs::remove_file(&config.socket)
                    .map_err(|e| format!("cannot remove stale socket: {e}"))?;
                UnixListener::bind(&config.socket)
                    .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?
            }
            Err(e) => return Err(format!("cannot bind {}: {e}", config.socket.display())),
        };
        let log = Logger::new(config.log_level);
        log.info(&format!("listening on {}", config.socket.display()));
        Ok(Server {
            listener,
            socket: config.socket,
            inner: Arc::new(ServerInner {
                template,
                engines: labeled_mutex("serve.engines", HashMap::new()),
                inflight: labeled_mutex("serve.inflight", HashMap::new()),
                events,
                shutdown: AtomicBool::new(false),
                metrics: ServeMetrics::new(),
                live: labeled_mutex("serve.live", HashMap::new()),
                completed: labeled_mutex("serve.completed_ring", VecDeque::new()),
                log,
                slow_ms: config.slow_ms,
            }),
        })
    }

    /// The socket the server listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Accepts connections until a `shutdown` request arrives, serving
    /// each connection on its own thread.
    ///
    /// # Errors
    ///
    /// Returns a message when accepting fails for a reason other than
    /// shutdown.
    pub fn run(&self) -> Result<(), String> {
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) => {
                    if self.inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(format!("accept failed: {e}"));
                }
            };
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Join the connections that have ended, so a long-lived
            // daemon holds one handle per live connection, not one per
            // connection it ever accepted. Live ones are joined at
            // shutdown.
            let (ended, live) = handles.into_iter().partition(|h| h.is_finished());
            handles = live;
            for h in ended {
                let _ = h.join();
            }
            let inner = Arc::clone(&self.inner);
            let socket = self.socket.clone();
            inner.metrics.connections.inc();
            inner.log.debug("connection accepted");
            handles.push(std::thread::spawn(move || {
                serve_connection(&inner, stream, &socket);
            }));
            self.inner.metrics.threads.set(handles.len() as i64);
        }
        for h in handles {
            let _ = h.join();
        }
        if let Some(stream) = &self.inner.events {
            stream.flush();
        }
        self.inner.log.info("shut down");
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// How one request line answers: a single response line, or a header
/// line followed by a tailed event stream and a `"done"` trailer
/// (the `watch` op).
enum Reply {
    One(Json),
    /// Replay of an already-complete stream.
    Replay {
        header: Json,
        events: String,
    },
    /// Tail of a live stream until its owner finishes.
    Tail {
        header: Json,
        buf: Arc<LiveBuf>,
    },
}

fn watch_trailer(fp: u64) -> Json {
    Json::obj()
        .field("ok", Json::Bool(true))
        .field("done", Json::Bool(true))
        .field("fingerprint", Json::fingerprint(fp))
}

/// Serves one connection: a loop of request lines, one response (line
/// or stream) each, until the peer closes or the server shuts down.
fn serve_connection(inner: &ServerInner, stream: UnixStream, socket: &Path) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut write_line = move |doc: String| -> bool {
        let mut text = doc;
        text.push('\n');
        writer.write_all(text.as_bytes()).is_ok() && writer.flush().is_ok()
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            inner.metrics.requests("other").inc();
            inner.metrics.errors.inc();
            let msg = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            inner.log.info(&msg);
            let reply = Json::obj()
                .field("ok", Json::Bool(false))
                .field("error", Json::str(&msg));
            write_line(reply.render_compact());
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        let ok = match handle_line(inner, line, socket) {
            Reply::One(doc) => write_line(doc.render_compact()),
            Reply::Replay { header, events } => {
                let fp = fp_of(&header);
                write_line(header.render_compact())
                    && events.lines().all(|l| write_line(l.to_string()))
                    && write_line(watch_trailer(fp).render_compact())
            }
            Reply::Tail { header, buf } => {
                let fp = fp_of(&header);
                let mut alive = write_line(header.render_compact());
                let mut cursor = 0;
                while alive {
                    let (lines, done) = buf.next(cursor);
                    cursor += lines.len();
                    alive = lines.into_iter().all(&mut write_line);
                    if done {
                        break;
                    }
                }
                alive && write_line(watch_trailer(fp).render_compact())
            }
        };
        if !ok || inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    inner.log.debug("connection closed");
}

/// The fingerprint a watch header carries (0 when absent).
fn fp_of(header: &Json) -> u64 {
    header
        .get("fingerprint")
        .and_then(parse_fingerprint)
        .unwrap_or(0)
}

/// Parses and dispatches one request line, counting it in the metrics
/// (except `metrics` scrapes, which do not count themselves) and
/// emitting `serve_request`/`serve_done` events.
fn handle_line(inner: &ServerInner, line: &str, socket: &Path) -> Reply {
    let parsed = Json::parse(line).map_err(|e| format!("bad request line: {e}"));
    let op = parsed
        .as_ref()
        .ok()
        .and_then(|doc| doc.get("op").and_then(Json::as_str))
        .unwrap_or("?")
        .to_string();
    // A `metrics` scrape must not perturb what it reports: it stays out
    // of the request counters, the latency histograms and the in-flight
    // gauge, so two back-to-back scrapes with no traffic in between are
    // byte-identical and the gauge reads the *other* work in flight.
    let scrape = op == "metrics";
    if !scrape {
        inner.metrics.requests(&op).inc();
        inner.metrics.inflight.inc();
    }
    if let Some(stream) = &inner.events {
        stream.event(names::SERVE_REQUEST, None, Attrs::new().str("op", &op));
    }
    let started = Instant::now();
    let result = parsed.and_then(|doc| dispatch(inner, &doc, &op, socket));
    let wall_us = started.elapsed().as_micros() as u64;
    if !scrape {
        inner.metrics.duration(&op).observe(wall_us);
        inner.metrics.inflight.dec();
    }
    let reply = match result {
        Ok(reply) => reply,
        Err(msg) => {
            inner.metrics.errors.inc();
            Reply::One(
                Json::obj()
                    .field("ok", Json::Bool(false))
                    .field("error", Json::str(&msg)),
            )
        }
    };
    let (ok, error) = match &reply {
        Reply::One(doc) => (
            doc.get("ok").and_then(Json::as_bool).unwrap_or(false),
            doc.get("error")
                .and_then(Json::as_str)
                .map(ToString::to_string),
        ),
        Reply::Replay { .. } | Reply::Tail { .. } => (true, None),
    };
    let wall_ms = wall_us / 1000;
    if wall_ms >= inner.slow_ms {
        inner.metrics.slow.inc();
        inner
            .log
            .info(&format!("slow request: op={op} wall_ms={wall_ms}"));
        if let Some(stream) = &inner.events {
            stream.event(
                names::SERVE_SLOW,
                None,
                Attrs::new().str("op", &op).uint("wall_ms", wall_ms),
            );
        }
    }
    inner.log.debug(&format!(
        "op={op} ok={ok} wall_us={wall_us}{}",
        error
            .as_deref()
            .map(|e| format!(" error={e:?}"))
            .unwrap_or_default()
    ));
    if let Some(stream) = &inner.events {
        let mut attrs = Attrs::new().str("op", &op).uint("ok", u64::from(ok));
        // Error paths carry the failure string so failed requests are
        // attributable in streams and report timelines.
        if let Some(error) = &error {
            attrs = attrs.str("error", error);
        }
        stream.event(names::SERVE_DONE, None, attrs);
        stream.flush();
    }
    reply
}

fn dispatch(inner: &ServerInner, doc: &Json, op: &str, socket: &Path) -> Result<Reply, String> {
    match op {
        "ping" => Ok(Reply::One(
            Json::obj()
                .field("ok", Json::Bool(true))
                .field("protocol_version", Json::UInt(PROTOCOL_VERSION))
                .field("api_version", Json::UInt(eco_core::API_VERSION)),
        )),
        "tune" => handle_tune(inner, doc).map(Reply::One),
        "shard" => handle_shard(inner, doc).map(Reply::One),
        "stats" => Ok(Reply::One(stats_response(inner))),
        "store-stats" => Ok(Reply::One(store_stats_response(inner))),
        "metrics" => Ok(Reply::One(metrics_response(inner))),
        "watch" => handle_watch(inner, doc),
        "trace" => handle_trace(inner, doc).map(Reply::One),
        "shutdown" => {
            inner.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so `run` can observe the flag.
            let _ = UnixStream::connect(socket);
            Ok(Reply::One(
                Json::obj()
                    .field("ok", Json::Bool(true))
                    .field("shutting_down", Json::Bool(true)),
            ))
        }
        other => Err(format!("unknown op '{other}'")),
    }
}

/// The shared engine for a machine, created on first use from the
/// server's template.
fn engine_for(inner: &ServerInner, request: &TuneRequest) -> Result<Arc<Engine>, String> {
    let fp = machine_fingerprint(&request.machine);
    let mut engines = inner.engines.lock().expect("engines lock");
    if let Some(engine) = engines.get(&fp) {
        return Ok(Arc::clone(engine));
    }
    let engine = Engine::with_config(request.machine.clone(), inner.template.clone())
        .map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    engines.insert(fp, Arc::clone(&engine));
    Ok(engine)
}

/// Whole-request dedupe shared by `tune` and `shard`: the first thread
/// in under `key` owns the work, later identical requests wait and
/// reuse its response bytes. Returns the outcome and whether this call
/// was a deduped follower. The cell is filled on every path (also
/// errors), then the key is retired so later identical requests run
/// fresh.
fn with_inflight(
    inner: &ServerInner,
    key: u64,
    run: impl FnOnce() -> Result<Json, String>,
) -> (Result<Json, String>, bool) {
    with_inflight_map(&inner.inflight, key, run)
}

/// [`with_inflight`] against a bare dedupe table — the piece the
/// eco-sched checker model drives without a full daemon.
fn with_inflight_map(
    map: &Mutex<HashMap<u64, Arc<InflightRequest>>>,
    key: u64,
    run: impl FnOnce() -> Result<Json, String>,
) -> (Result<Json, String>, bool) {
    let (cell, owner) = {
        let mut inflight = map.lock().expect("inflight lock");
        match inflight.get(&key) {
            Some(cell) => (Arc::clone(cell), false),
            None => {
                let cell = Arc::new(InflightRequest::new());
                inflight.insert(key, Arc::clone(&cell));
                (cell, true)
            }
        }
    };
    if !owner {
        let line = cell.wait();
        let parsed = Json::parse(&line).map_err(|e| format!("inflight response corrupt: {e}"));
        return (parsed, true);
    }
    let outcome = run();
    let line = match &outcome {
        Ok(doc) => doc.render_compact(),
        Err(msg) => Json::obj()
            .field("ok", Json::Bool(false))
            .field("error", Json::str(msg))
            .render_compact(),
    };
    cell.fill(line);
    map.lock().expect("inflight lock").remove(&key);
    (outcome, false)
}

/// Retains a finished request's event stream and response for
/// `trace` / `watch` replay, evicting the oldest past the ring cap.
fn push_completed(inner: &ServerInner, fp: u64, op: &'static str, events: String, response: &Json) {
    push_completed_ring(&inner.completed, fp, op, events, response);
}

/// [`push_completed`] against a bare ring — the piece the eco-sched
/// checker model drives without a full daemon.
fn push_completed_ring(
    completed: &Mutex<VecDeque<Completed>>,
    fp: u64,
    op: &'static str,
    events: String,
    response: &Json,
) {
    let mut ring = completed.lock().expect("completed lock");
    ring.retain(|c| c.fingerprint != fp);
    ring.push_back(Completed {
        fingerprint: fp,
        op,
        events,
        response: response.clone(),
    });
    while ring.len() > COMPLETED_RING {
        ring.pop_front();
    }
}

fn handle_tune(inner: &ServerInner, doc: &Json) -> Result<Json, String> {
    let request =
        TuneRequest::from_json(doc.get("request").ok_or("tune: missing field 'request'")?)?;
    let fp = request.fingerprint();
    let (outcome, deduped) = with_inflight(inner, fp, || run_tune(inner, &request, fp));
    if deduped {
        inner.metrics.deduped.inc();
    }
    outcome
}

/// Salt mixed into shard fingerprints before they enter the in-flight
/// map shared with tunes, so a shard and a tune whose fingerprints
/// happen to be numerically equal never alias.
const SHARD_INFLIGHT_SALT: u64 = 0x7368_6172_645f_6f70; // "shard_op"

fn handle_shard(inner: &ServerInner, doc: &Json) -> Result<Json, String> {
    let shard = Shard::from_json(doc.get("shard").ok_or("shard: missing field 'shard'")?)?;
    let fp = shard.fingerprint();
    let (outcome, deduped) = with_inflight(inner, fp ^ SHARD_INFLIGHT_SALT, || {
        let live = LiveSession::open(inner, fp);
        let stream = live.stream();
        let result = crate::sweep::execute_shard_with_events(
            &shard,
            inner.template.clone(),
            Some(Arc::clone(&stream)),
        );
        stream.flush();
        drop(stream);
        let response = result.map(|result| {
            Json::obj()
                .field("ok", Json::Bool(true))
                .field("fingerprint", Json::fingerprint(fp))
                .field("result", result)
        });
        if let Ok(doc) = &response {
            push_completed(inner, fp, "shard", live.buf.text(), doc);
        }
        response
    });
    if deduped {
        inner.metrics.deduped.inc();
    }
    outcome
}

fn run_tune(inner: &ServerInner, request: &TuneRequest, fp: u64) -> Result<Json, String> {
    let engine = engine_for(inner, request)?;
    let live = LiveSession::open(inner, fp);
    let stream = live.stream();
    let watched = WatchedEngine {
        engine,
        events: Arc::clone(&stream),
    };
    let result = request.run_on(&watched).map_err(|e| e.to_string());
    stream.flush();
    drop(watched);
    drop(stream);
    let response = result?;
    // The manifest records the configuration the shared engine actually
    // ran with (memoize) — not the client's ignored template.
    let manifest = run_manifest(
        &request.kernel.name,
        &request.machine,
        &request.options,
        &inner.template,
        &response,
    );
    let s = &response.engine;
    let doc = Json::obj()
        .field("ok", Json::Bool(true))
        .field("fingerprint", Json::fingerprint(fp))
        .field(
            "engine_stats",
            Json::obj()
                .field("requested", Json::UInt(s.requested))
                .field("evaluated", Json::UInt(s.evaluated))
                .field("cache_hits", Json::UInt(s.cache_hits))
                .field("store_hits", Json::UInt(s.store_hits))
                .field("dedup_waits", Json::UInt(s.dedup_waits))
                .field("errors", Json::UInt(s.errors)),
        )
        .field("manifest", manifest);
    push_completed(inner, fp, "tune", live.buf.text(), &doc);
    Ok(doc)
}

/// Parses a request/response fingerprint field: `"0x..."` hex strings
/// (the [`Json::fingerprint`] rendering) or bare integers.
fn parse_fingerprint(doc: &Json) -> Option<u64> {
    match doc {
        Json::UInt(v) => Some(*v),
        Json::Str(s) => {
            let text = s.strip_prefix("0x").unwrap_or(s);
            u64::from_str_radix(text, 16).ok()
        }
        _ => None,
    }
}

fn handle_watch(inner: &ServerInner, doc: &Json) -> Result<Reply, String> {
    let fp = doc
        .get("fingerprint")
        .and_then(parse_fingerprint)
        .ok_or("watch: missing or malformed field 'fingerprint'")?;
    let header = |live: bool| {
        Json::obj()
            .field("ok", Json::Bool(true))
            .field("fingerprint", Json::fingerprint(fp))
            .field("live", Json::Bool(live))
    };
    if let Some(buf) = inner.live.lock().expect("live map lock").get(&fp) {
        return Ok(Reply::Tail {
            header: header(true),
            buf: Arc::clone(buf),
        });
    }
    let ring = inner.completed.lock().expect("completed lock");
    if let Some(done) = ring.iter().rev().find(|c| c.fingerprint == fp) {
        return Ok(Reply::Replay {
            header: header(false),
            events: done.events.clone(),
        });
    }
    Err(format!(
        "watch: no live or completed request with fingerprint {:#018x}",
        fp
    ))
}

fn handle_trace(inner: &ServerInner, doc: &Json) -> Result<Json, String> {
    let want = doc.get("fingerprint").and_then(parse_fingerprint);
    let ring = inner.completed.lock().expect("completed lock");
    let found = match want {
        Some(fp) => ring.iter().rev().find(|c| c.fingerprint == fp),
        None => ring.back(),
    };
    let Some(done) = found else {
        return Err(match want {
            Some(fp) => format!("trace: no completed request with fingerprint {fp:#018x}"),
            None => "trace: no completed requests yet".to_string(),
        });
    };
    Ok(Json::obj()
        .field("ok", Json::Bool(true))
        .field("fingerprint", Json::fingerprint(done.fingerprint))
        .field("op", Json::str(done.op))
        .field("events", Json::str(&done.events))
        .field("response", done.response.clone()))
}

fn metrics_response(inner: &ServerInner) -> Json {
    // Per-server serve counters first (the operator's first question),
    // then the process-wide engine/store/sweep registry. Family names
    // are disjoint, so the concatenation is a valid exposition.
    let text = format!(
        "{}{}",
        inner.metrics.registry.render(),
        Registry::global().render()
    );
    Json::obj()
        .field("ok", Json::Bool(true))
        .field("metrics", Json::str(&text))
}

/// The `stats` op: the serve counters, read from the per-server
/// metrics (so `metrics` scrapes are not among the `requests`), and
/// each engine's work totals.
fn stats_response(inner: &ServerInner) -> Json {
    let m = &inner.metrics;
    let requests: u64 = op_labels().map(|op| m.requests(op).get()).sum();
    let engines = inner.engines.lock().expect("engines lock");
    let mut per_engine = Json::obj();
    let mut fps: Vec<&u64> = engines.keys().collect();
    fps.sort();
    for fp in fps {
        let s = engines[fp].stats();
        per_engine = per_engine.field(
            &format!("{fp:#018x}"),
            Json::obj()
                .field("requested", Json::UInt(s.requested))
                .field("evaluated", Json::UInt(s.evaluated))
                .field("cache_hits", Json::UInt(s.cache_hits))
                .field("store_hits", Json::UInt(s.store_hits))
                .field("dedup_waits", Json::UInt(s.dedup_waits))
                .field("errors", Json::UInt(s.errors)),
        );
    }
    Json::obj()
        .field("ok", Json::Bool(true))
        .field("requests", Json::UInt(requests))
        .field("tunes", Json::UInt(m.requests("tune").get()))
        .field("shards", Json::UInt(m.requests("shard").get()))
        .field("deduped_requests", Json::UInt(m.deduped.get()))
        .field("errors", Json::UInt(m.errors.get()))
        .field("engines", per_engine)
}

fn store_stats_response(inner: &ServerInner) -> Json {
    let engines = inner.engines.lock().expect("engines lock");
    let (mut hits, mut misses, mut puts, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let mut configured = false;
    for engine in engines.values() {
        if let Some(s) = engine.store_stats() {
            configured = true;
            hits += s.hits;
            misses += s.misses;
            puts += s.puts;
            rejected += s.rejected;
        }
    }
    configured |= inner.template.store_path.is_some();
    Json::obj()
        .field("ok", Json::Bool(true))
        .field("configured", Json::Bool(configured))
        .field("hits", Json::UInt(hits))
        .field("misses", Json::UInt(misses))
        .field("puts", Json::UInt(puts))
        .field("rejected", Json::UInt(rejected))
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// One protocol round trip from a client: connects, sends `request` as
/// a line, reads the response line. Used by `eco client` and the serve
/// tests.
///
/// # Errors
///
/// Returns a message when the socket is unreachable, the line cannot
/// be written or read, or the response does not parse.
pub fn request(socket: &Path, request: &Json) -> Result<Json, String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;
    let mut text = request.render_compact();
    text.push('\n');
    writer
        .write_all(text.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection without a response".into());
    }
    Json::parse(line.trim_end()).map_err(|e| format!("bad response line: {e}"))
}

/// The `watch` client: connects, sends a `watch` request for
/// `fingerprint`, and feeds every streamed event line to `on_line`
/// until the `"done"` trailer. Returns the header document.
///
/// # Errors
///
/// Returns a message when the socket is unreachable, the server
/// answers `ok=false`, or the stream ends without a trailer.
pub fn watch(
    socket: &Path,
    fingerprint: u64,
    mut on_line: impl FnMut(&str),
) -> Result<Json, String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;
    let mut text = Json::obj()
        .field("op", Json::str("watch"))
        .field("fingerprint", Json::fingerprint(fingerprint))
        .render_compact();
    text.push('\n');
    writer
        .write_all(text.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut lines = BufReader::new(stream).lines();
    let header = lines
        .next()
        .ok_or("server closed the connection without a response")?
        .map_err(|e| format!("cannot read response: {e}"))?;
    let header = Json::parse(header.trim_end()).map_err(|e| format!("bad header line: {e}"))?;
    if header.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(header
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("watch refused")
            .to_string());
    }
    for line in lines {
        let line = line.map_err(|e| format!("cannot read stream: {e}"))?;
        if let Ok(doc) = Json::parse(line.trim_end()) {
            if doc.get("done").and_then(Json::as_bool) == Some(true) {
                return Ok(header);
            }
        }
        on_line(&line);
    }
    Err("stream ended without a done trailer".to_string())
}

// ---------------------------------------------------------------------
// eco-sched probe
// ---------------------------------------------------------------------

/// Hooks for the eco-sched checker (`--cfg eco_sched` builds only):
/// the daemon's in-flight dedupe and completed-ring protocols behind
/// the *same* code paths the daemon runs, but callable without a
/// socket, an engine or a store. The checker model in
/// `tests/sched_model.rs` drives these under the controlled scheduler.
#[cfg(eco_sched)]
pub mod model_probe {
    use super::*;

    /// The request-dedupe table exactly as [`ServerInner`] holds it.
    #[derive(Default)]
    pub struct InflightTable {
        map: Mutex<HashMap<u64, Arc<InflightRequest>>>,
    }

    impl InflightTable {
        #[must_use]
        pub fn new() -> Self {
            InflightTable {
                map: labeled_mutex("serve.inflight", HashMap::new()),
            }
        }

        /// Runs `run` deduped under `key` — the real [`with_inflight`]
        /// path. Returns the response text (owner's render or the
        /// follower's parsed copy re-rendered) and the deduped flag.
        pub fn run(
            &self,
            key: u64,
            run: impl FnOnce() -> Result<Json, String>,
        ) -> (Result<String, String>, bool) {
            let (outcome, deduped) = with_inflight_map(&self.map, key, run);
            (outcome.map(|doc| doc.render_compact()), deduped)
        }

        /// True when no request is currently in flight.
        #[must_use]
        pub fn is_idle(&self) -> bool {
            self.map.lock().expect("inflight lock").is_empty()
        }
    }

    /// The completed-request ring exactly as [`ServerInner`] holds it.
    #[derive(Default)]
    pub struct CompletedRing {
        ring: Mutex<VecDeque<Completed>>,
    }

    impl CompletedRing {
        #[must_use]
        pub fn new() -> Self {
            CompletedRing {
                ring: labeled_mutex("serve.completed_ring", VecDeque::new()),
            }
        }

        /// The real [`push_completed`] path.
        pub fn push(&self, fp: u64, events: String, response: &Json) {
            push_completed_ring(&self.ring, fp, "tune", events, response);
        }

        /// The ring cap every schedule must respect.
        #[must_use]
        pub fn cap() -> usize {
            COMPLETED_RING
        }

        /// Fingerprints currently retained, oldest first.
        #[must_use]
        pub fn fingerprints(&self) -> Vec<u64> {
            self.ring
                .lock()
                .expect("completed lock")
                .iter()
                .map(|c| c.fingerprint)
                .collect()
        }
    }
}
