//! The parallel, memoized evaluation engine.
//!
//! Phase 2 of the paper executes every search point "on the real
//! machine"; in this reproduction each point is a full trace-driven
//! cache simulation, which dominates wall-clock time. The [`Engine`]
//! makes those evaluations cheap without changing a single search
//! decision:
//!
//! * **batching** — callers submit independent points together as
//!   [`EvalJob`]s and get results back *in submission order*, so code
//!   that scans results with strict `<` ties behaves exactly like the
//!   serial loop it replaced;
//! * **memoization** — jobs are deduplicated through a content-addressed
//!   cache keyed by program text, parameter bindings, layout, and
//!   machine fingerprint ([`EvalKey`]), both within a batch and across
//!   the engine's lifetime (errors are memoized too: a point that failed
//!   once fails identically forever);
//! * **persistence** — an optional second memo tier
//!   ([`EngineConfig::store`]) backed by the disk store in `eco-store`:
//!   unique points are looked up on disk before simulating and written
//!   back after, so repeated runs warm-start across processes and a
//!   killed sweep resumes for free. Store hits count as `evaluated`
//!   work (the point was resolved, just not re-simulated), keeping
//!   run manifests byte-identical between cold and warm runs;
//! * **in-flight dedupe** — when several batches run concurrently on
//!   one engine (the `eco serve` daemon), at most one simulation per
//!   [`EvalKey`] is ever in flight: later requesters block on the
//!   owner's result instead of re-simulating, counted in
//!   [`EngineStats::dedup_waits`];
//! * **parallelism** — unique jobs run on a `std::thread::scope` pool;
//!   the thread count never influences results, only latency;
//! * **plan memoization** — jobs execute through the compiled
//!   [`ExecutablePlan`] pipeline, and the engine caches one lowered plan
//!   per program (keyed by the program component of [`EvalKey`]), so
//!   re-evaluating a variant at new parameter points skips lowering
//!   entirely;
//! * **telemetry** — an optional structured **event stream**
//!   ([`eco_events::EventStream`], `--events` in the CLIs) records one
//!   `point` event per submitted job (label, program, parameter
//!   bindings, counters, memo hit/miss, status, wall time),
//!   per-batch `batch` events (jobs, unique work, worker threads used),
//!   `plan_compile` events (lowering statistics and compile time per
//!   program), and running `engine_stats` counter snapshots. The search
//!   layers its stage spans on the same stream via
//!   [`Evaluator::events`].
//!
//! Consumers program against the [`Evaluator`] trait rather than the
//! concrete engine, so tests can substitute counting or failing
//! evaluators and future backends (real hardware, remote fleets) slot in
//! unchanged.
//!
//! # Examples
//!
//! ```
//! use eco_exec::{Engine, EvalJob, Evaluator, Params};
//! use eco_ir::{AffineExpr, ArrayRef, Loop, Program, ScalarExpr, Stmt};
//! use eco_machine::MachineDesc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = Program::new("stream");
//! let n = p.add_param("N");
//! let i = p.add_loop_var("I");
//! let a = p.add_array("A", vec![AffineExpr::var(n)]);
//! let r = ArrayRef::new(a, vec![AffineExpr::var(i)]);
//! p.body.push(Stmt::For(Loop {
//!     var: i,
//!     lo: 0.into(),
//!     hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
//!     step: 1,
//!     body: vec![Stmt::Store {
//!         target: r.clone(),
//!         value: ScalarExpr::add(ScalarExpr::Load(r), ScalarExpr::Const(1.0)),
//!     }],
//! }));
//! let engine = Engine::new(MachineDesc::sgi_r10000().scaled(32));
//! let jobs = vec![
//!     EvalJob::new(p.clone(), Params::new().with(n, 64)),
//!     EvalJob::new(p.clone(), Params::new().with(n, 64)), // duplicate
//! ];
//! let results = engine.eval_batch(&jobs);
//! assert_eq!(results[0], results[1]);
//! assert_eq!(engine.stats().evaluated, 1, "duplicate was deduplicated");
//! assert_eq!(engine.stats().cache_hits, 1);
//! # Ok(())
//! # }
//! ```

use eco_sched::sync::atomic::{AtomicUsize, Ordering};
use eco_sched::sync::{labeled_condvar, labeled_mutex, Arc, Condvar, Mutex};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher as _};
use std::path::PathBuf;
use std::time::Instant;

use crate::error::ExecError;
use crate::layout::{LayoutOptions, Params};
use crate::plan::ExecutablePlan;
use eco_cachesim::Counters;
use eco_events::{names, Attrs, EventStream, Fnv64, Json, SpanId};
use eco_ir::pretty::write_program;
use eco_ir::Program;
use eco_machine::MachineDesc;
use eco_metrics::{Counter, Histogram, Registry};
use eco_store::{ResultStore, StoreKey};

/// One search point: a generated program plus everything that affects
/// its measurement.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The program to simulate, shared: the jobs of one point (one per
    /// problem size) and the caller's cache hold the same copy.
    pub program: Arc<Program>,
    /// Parameter bindings (problem size, etc.).
    pub params: Params,
    /// Array placement options.
    pub layout: LayoutOptions,
    /// Free-form tag carried into the `point` event (e.g. variant name
    /// or search stage); not part of the memo key.
    pub label: String,
    /// Event-stream span this job's `point` event is attributed to
    /// (e.g. the search stage that proposed it); not part of the memo
    /// key.
    pub span: Option<SpanId>,
    /// Runs the simulation with per-array attribution: the resulting
    /// [`Counters::per_tag`] partition the aggregate counters by
    /// `ArrayId`, and the engine's `point` event carries the per-tag
    /// breakdown. Part of the memo key (attributed and plain results
    /// never alias, even though their aggregates are identical).
    pub attributed: bool,
}

impl EvalJob {
    /// A job with the default layout and an empty label.
    pub fn new(program: impl Into<Arc<Program>>, params: Params) -> Self {
        EvalJob {
            program: program.into(),
            params,
            layout: LayoutOptions::default(),
            label: String::new(),
            span: None,
            attributed: false,
        }
    }

    /// Requests per-array attribution (builder style).
    #[must_use]
    pub fn attributed(mut self, attributed: bool) -> Self {
        self.attributed = attributed;
        self
    }

    /// Sets the label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Attributes the job's `point` event to a span (builder style).
    #[must_use]
    pub fn in_span(mut self, span: Option<SpanId>) -> Self {
        self.span = span;
        self
    }

    /// Sets the layout options (builder style).
    #[must_use]
    pub fn with_layout(mut self, layout: LayoutOptions) -> Self {
        self.layout = layout;
        self
    }
}

/// Content-addressed identity of a measurement: two jobs with equal keys
/// are guaranteed to produce identical counters on the same engine.
///
/// The key folds together the program's full pretty-printed text, the
/// parameter bindings, the layout options, and the machine fingerprint,
/// using FNV-1a (stable across runs within a build). The two halves
/// also address records in the persistent result store
/// ([`EngineConfig::store`]); store records carry a version stamp, so a
/// key-scheme change invalidates old records instead of misreading
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey(u64, u64);

impl EvalKey {
    /// The program-text fingerprint half ([`program_fingerprint`]).
    pub fn program_fp(&self) -> u64 {
        self.0
    }

    /// The machine/layout/params point-hash half.
    pub fn point_fp(&self) -> u64 {
        self.1
    }
}

/// Running totals of an engine's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs submitted through `eval` / `eval_batch`.
    pub requested: u64,
    /// Unique points resolved by this engine: simulated, or loaded
    /// from the persistent result store (see
    /// [`store_hits`](Self::store_hits) for the split). Counting store
    /// hits here keeps cold- and warm-store runs' manifests
    /// byte-identical.
    pub evaluated: u64,
    /// Jobs served from the in-memory memo cache or batch
    /// deduplication.
    pub cache_hits: u64,
    /// Simulations that returned an error (errors are memoized too).
    pub errors: u64,
    /// Of `evaluated`, points loaded from the persistent store instead
    /// of being simulated. Never recorded in run manifests.
    pub store_hits: u64,
    /// Jobs that blocked on another batch's identical in-flight
    /// evaluation instead of re-simulating (the serve-daemon dedupe
    /// path). Never recorded in run manifests.
    pub dedup_waits: u64,
    /// Retired simulator telemetry (see [`SimStats`](crate::SimStats));
    /// always 0.
    pub ff_windows: u64,
    /// Retired simulator telemetry; always 0.
    pub ff_accesses: u64,
}

impl EngineStats {
    /// Fraction of requests served from the in-memory memo cache or
    /// batch deduplication ([`cache_hits`](Self::cache_hits)); store
    /// hits and in-flight dedupe waits are not counted.
    pub fn hit_rate(&self) -> f64 {
        if self.requested == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.requested as f64
    }
}

/// Configuration for [`Engine::with_config`].
///
/// Round-trips losslessly through the deterministic [`Json`] builder
/// ([`to_json`](Self::to_json) / [`from_json`](Self::from_json)), so a
/// request carrying a config can be fingerprinted, logged, and
/// replayed byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` means auto (the `ECO_EVAL_THREADS` environment
    /// variable if set, otherwise `std::thread::available_parallelism`).
    pub threads: usize,
    /// Disables the memo cache when `false` (every job re-simulates).
    pub memoize: bool,
    /// Writes the structured observability event stream (spans, point
    /// events, plan compilations, counter snapshots) to this file. The
    /// file is created (truncated) when the engine is built, so each
    /// engine produces a fresh stream, and an unwritable path fails
    /// fast.
    pub events_path: Option<PathBuf>,
    /// Root directory of the persistent result store (second memo
    /// tier); `None` disables persistence. Opened when the engine is
    /// built; an unusable root fails fast with [`ExecError::Store`].
    pub store_path: Option<PathBuf>,
}

impl EngineConfig {
    /// Auto thread count, memoization on, no events, no persistent
    /// store.
    pub fn new() -> Self {
        EngineConfig {
            threads: 0,
            memoize: true,
            events_path: None,
            store_path: None,
        }
    }

    /// Sets an explicit worker-thread count (builder style).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables memoization (builder style).
    #[must_use]
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Sets the JSONL event-stream path (builder style).
    #[must_use]
    pub fn events(mut self, path: impl Into<PathBuf>) -> Self {
        self.events_path = Some(path.into());
        self
    }

    /// Sets the persistent result-store root (builder style).
    #[must_use]
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// Renders the config as a deterministic [`Json`] object (stable
    /// field order). `Json::parse(render()).from_json` is the identity.
    pub fn to_json(&self) -> Json {
        let opt_path = |p: &Option<PathBuf>| match p {
            Some(p) => Json::str(p.display().to_string()),
            None => Json::Null,
        };
        Json::obj()
            .field("threads", Json::UInt(self.threads as u64))
            .field("memoize", Json::Bool(self.memoize))
            .field("events", opt_path(&self.events_path))
            .field("store", opt_path(&self.store_path))
    }

    /// Parses a config back out of [`to_json`](Self::to_json)'s
    /// encoding.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<EngineConfig, String> {
        let opt_path = |key: &str| -> Result<Option<PathBuf>, String> {
            match doc.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(PathBuf::from(s))),
                Some(other) => Err(format!("engine config field {key} mistyped: {other:?}")),
            }
        };
        let threads = doc
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or("engine config missing threads")? as usize;
        let memoize = doc
            .get("memoize")
            .and_then(Json::as_bool)
            .ok_or("engine config missing memoize")?;
        Ok(EngineConfig {
            threads,
            memoize,
            events_path: opt_path("events")?,
            store_path: opt_path("store")?,
        })
    }
}

/// Anything that can measure batches of search points on a machine.
///
/// The contract every implementation must honour, because the search
/// relies on it for reproducibility:
///
/// * results come back **in submission order**, one per job;
/// * equal jobs (same program text, params, layout) on the same
///   evaluator produce **identical** results;
/// * results do not depend on batch composition or thread count.
pub trait Evaluator {
    /// The machine being simulated.
    fn machine(&self) -> &MachineDesc;

    /// Measures every job, returning results in submission order.
    fn eval_batch(&self, jobs: &[EvalJob]) -> Vec<Result<Counters, ExecError>>;

    /// Measures a single job.
    ///
    /// # Errors
    ///
    /// Propagates the measurement error of the job.
    fn eval(&self, job: EvalJob) -> Result<Counters, ExecError> {
        self.eval_batch(std::slice::from_ref(&job))
            .pop()
            .expect("eval_batch returns one result per job")
    }

    /// Work totals so far (all zero for evaluators that do not track).
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// The observability event stream this evaluator writes to, if any.
    /// The search attaches its stage spans to the same stream, so one
    /// file tells the whole story of a run.
    fn events(&self) -> Option<&Arc<EventStream>> {
        None
    }
}

/// Process-wide metric handles, resolved once per engine so the hot
/// paths pay only relaxed atomic increments. Like
/// [`EngineStats::store_hits`], metrics are operational telemetry and
/// never enter run manifests or golden results.
#[derive(Debug)]
struct EngineMetrics {
    requested: Arc<Counter>,
    evaluated: Arc<Counter>,
    memo_hits: Arc<Counter>,
    store_hits: Arc<Counter>,
    dedup_waits: Arc<Counter>,
    errors: Arc<Counter>,
    plan_compiles: Arc<Counter>,
    eval_duration_us: Arc<Histogram>,
}

impl EngineMetrics {
    fn resolve() -> EngineMetrics {
        let r = Registry::global();
        let c = |name: &str, help: &str| r.counter(name, help, &[]);
        EngineMetrics {
            requested: c(
                "eco_engine_points_requested_total",
                "Points submitted to eval_batch.",
            ),
            evaluated: c(
                "eco_engine_points_evaluated_total",
                "Unique points resolved (simulated or store-read).",
            ),
            memo_hits: c(
                "eco_engine_memo_hits_total",
                "Points served from the in-process memo cache.",
            ),
            store_hits: c(
                "eco_engine_store_hits_total",
                "Unique points served from the persistent store.",
            ),
            dedup_waits: c(
                "eco_engine_dedup_waits_total",
                "Points that waited on a concurrent batch's in-flight result.",
            ),
            errors: c(
                "eco_engine_eval_errors_total",
                "Unique points that failed to evaluate.",
            ),
            plan_compiles: c(
                "eco_engine_plan_compiles_total",
                "Programs lowered to an executable plan.",
            ),
            eval_duration_us: r.histogram(
                "eco_engine_eval_duration_us",
                "Wall time per unique point (store read or simulation), microseconds.",
                &[],
                eco_metrics::LATENCY_US_BOUNDS,
            ),
        }
    }
}

/// The production [`Evaluator`]: a thread-pool simulator with a
/// content-addressed memo cache and an optional event stream.
#[derive(Debug)]
pub struct Engine {
    machine: MachineDesc,
    machine_fp: u64,
    threads: usize,
    memoize: bool,
    memo: Mutex<HashMap<EvalKey, Result<Counters, ExecError>>>,
    /// One lowered plan per program, keyed by the program component of
    /// [`EvalKey`]: re-evaluations at new parameter points skip lowering.
    plans: Mutex<HashMap<u64, Arc<ExecutablePlan>>>,
    stats: Mutex<EngineStats>,
    events: Option<Arc<EventStream>>,
    /// The persistent second memo tier, when configured.
    store: Option<ResultStore>,
    /// Keys currently being evaluated by some batch on this engine.
    /// Concurrent batches wanting the same key block on the owner's
    /// cell instead of re-simulating. Lock order: `memo` before
    /// `inflight` (both are only ever taken in that order).
    inflight: Mutex<HashMap<EvalKey, Arc<InflightCell>>>,
    /// Live service metrics (process-wide registry handles).
    metrics: EngineMetrics,
}

/// The rendezvous for one in-flight evaluation: the owning batch fills
/// `done` and notifies; waiting batches block on the condvar.
#[derive(Debug)]
struct InflightCell {
    done: Mutex<Option<Result<Counters, ExecError>>>,
    cv: Condvar,
}

impl Default for InflightCell {
    fn default() -> Self {
        InflightCell {
            done: labeled_mutex("engine.inflight.cell", None),
            cv: labeled_condvar("engine.inflight.cv"),
        }
    }
}

impl InflightCell {
    fn fill(&self, result: Result<Counters, ExecError>) {
        *self.done.lock().expect("cell lock") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Counters, ExecError> {
        let mut done = self.done.lock().expect("cell lock");
        while done.is_none() {
            done = self.cv.wait(done).expect("cell lock");
        }
        done.clone().expect("filled")
    }
}

/// Fills an in-flight cell with an error if the owner unwinds before
/// producing a result, so cross-batch waiters never hang on a panic.
struct CellGuard<'a> {
    cell: &'a InflightCell,
    armed: bool,
}

impl Drop for CellGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cell
                .fill(Err(ExecError::Invalid("evaluation abandoned".to_string())));
        }
    }
}

impl Engine {
    /// An engine with the default configuration (auto threads,
    /// memoization on, no events, no store).
    pub fn new(machine: MachineDesc) -> Self {
        Engine::with_config(machine, EngineConfig::new()).expect("no file to open")
    }

    /// An engine with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Fails only if a configured event-stream file cannot be created
    /// ([`ExecError::Telemetry`]) or a configured store root cannot be
    /// opened ([`ExecError::Store`]) — detected here, before any
    /// evaluation runs, so a bad path fails fast.
    pub fn with_config(machine: MachineDesc, config: EngineConfig) -> Result<Self, ExecError> {
        Engine::with_config_and_events(machine, config, None)
    }

    /// Like [`with_config`](Self::with_config), but writing events to
    /// a caller-supplied stream instead of opening
    /// `config.events_path`. The `eco serve` daemon uses this to tail
    /// a live request's engine events over a `watch` connection.
    ///
    /// # Errors
    ///
    /// Fails like [`with_config`](Self::with_config).
    pub fn with_config_and_events(
        machine: MachineDesc,
        config: EngineConfig,
        injected_events: Option<Arc<EventStream>>,
    ) -> Result<Self, ExecError> {
        let events = match (injected_events, &config.events_path) {
            (Some(stream), _) => Some(stream),
            (None, Some(path)) => Some(Arc::new(EventStream::to_file(path).map_err(|e| {
                ExecError::Telemetry {
                    path: path.display().to_string(),
                    msg: e.to_string(),
                }
            })?)),
            (None, None) => None,
        };
        let store = match &config.store_path {
            Some(path) => Some(ResultStore::open(path).map_err(|e| ExecError::Store {
                path: path.display().to_string(),
                msg: e.msg,
            })?),
            None => None,
        };
        let mut fp = Fnv64::new();
        machine.hash(&mut fp);
        let machine_fp = fp.finish();
        if let Some(events) = &events {
            // Self-describing stream: record which machine model this
            // engine simulates, so analysis tools (`eco report`) can
            // resolve the machine from the stream alone.
            events.event(
                names::ENGINE_INIT,
                None,
                Attrs::new()
                    .str("machine", &machine.name)
                    .str("machine_fingerprint", format!("{machine_fp:#018x}"))
                    .bool("memoize", config.memoize),
            );
        }
        Ok(Engine {
            machine_fp,
            threads: resolve_threads(config.threads),
            memoize: config.memoize,
            memo: labeled_mutex("engine.memo", HashMap::new()),
            plans: labeled_mutex("engine.plans", HashMap::new()),
            stats: labeled_mutex("engine.stats", EngineStats::default()),
            events,
            store,
            inflight: labeled_mutex("engine.inflight", HashMap::new()),
            metrics: EngineMetrics::resolve(),
            machine,
        })
    }

    /// The persistent store's session counters, when one is configured.
    pub fn store_stats(&self) -> Option<eco_store::StoreStats> {
        self.store.as_ref().map(ResultStore::stats)
    }

    /// The number of worker threads this engine uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The memoized plan for `program` (fingerprint `fp`), lowering it on
    /// first sight. Lowering runs outside the plan lock, so concurrent
    /// first sights may both compile; the first insertion wins and is
    /// returned by both. Only the winner counts in the `plan_compiles`
    /// metric and emits the `plan_compile` event carrying the lowering
    /// statistics, so both count each program exactly once.
    fn plan_for(&self, program: &Program, fp: u64) -> Result<Arc<ExecutablePlan>, ExecError> {
        if let Some(plan) = self.plans.lock().expect("plan lock").get(&fp) {
            return Ok(Arc::clone(plan));
        }
        let started = Instant::now();
        let plan = Arc::new(ExecutablePlan::compile(program)?);
        let wall_us = started.elapsed().as_micros() as u64;
        match self.plans.lock().expect("plan lock").entry(fp) {
            Entry::Occupied(e) => return Ok(Arc::clone(e.get())),
            Entry::Vacant(e) => {
                e.insert(Arc::clone(&plan));
            }
        }
        self.metrics.plan_compiles.inc();
        if let Some(events) = &self.events {
            let s = plan.lowering_stats();
            events.event(
                names::PLAN_COMPILE,
                None,
                Attrs::new()
                    .str("program", &program.name)
                    .str("fingerprint", format!("{fp:#018x}"))
                    .uint("wall_us", wall_us)
                    .uint("insts", s.insts as u64)
                    .uint("sites", s.sites as u64)
                    .uint("fused_loops", s.fused_loops as u64)
                    .uint("guarded_runs", s.guarded_runs as u64)
                    .uint("hoisted_guards", s.hoisted_guards as u64),
            );
        }
        Ok(plan)
    }

    /// The memo key of `job` on this engine.
    pub fn key(&self, job: &EvalJob) -> EvalKey {
        let mut h2 = Fnv64::new();
        h2.write_u64(self.machine_fp);
        h2.write_u64(job.layout.base_addr);
        h2.write_u64(job.layout.inter_array_pad_bytes);
        for &(v, val) in job.params.pairs() {
            h2.write_u32(v.index() as u32);
            h2.write_i64(val);
        }
        h2.write_u8(u8::from(job.attributed));
        EvalKey(program_fingerprint(&job.program), h2.finish())
    }

    /// The machine-description fingerprint folded into every memo key;
    /// recorded in run manifests.
    pub fn machine_fingerprint(&self) -> u64 {
        self.machine_fp
    }
}

/// The content fingerprint of a program: FNV-1a over its name and full
/// pretty-printed text. This is the program component of [`EvalKey`],
/// the plan-memoization key, and the `program_fingerprint` field of run
/// manifests. The printer writes straight into the hasher, so no text
/// is built.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = Fnv64::new();
    h.write(program.name.as_bytes());
    h.write(&[0]);
    write_program(&mut h, program).expect("hashing cannot fail");
    h.finish()
}

/// How an output slot of a batch gets its result.
enum Slot {
    /// Served from the cross-batch memo cache.
    Memo(Result<Counters, ExecError>),
    /// Runs as unique job `u` of this batch.
    Run(usize),
    /// Duplicate of unique job `u` within this batch.
    Dup(usize),
    /// Identical point already in flight in a *concurrent* batch;
    /// blocks on wait cell `w` instead of re-simulating.
    Wait(usize),
}

impl Evaluator for Engine {
    fn machine(&self) -> &MachineDesc {
        &self.machine
    }

    fn eval_batch(&self, jobs: &[EvalJob]) -> Vec<Result<Counters, ExecError>> {
        let batch_start = Instant::now();
        // Phase 1: classify each job against the memo cache, within
        // the batch, and against concurrent batches' in-flight work,
        // preserving submission order in `slots`. Both locks are held
        // across the loop so a key's state (memoized / in flight /
        // fresh) cannot change mid-classification.
        let keys: Vec<EvalKey> = jobs.iter().map(|j| self.key(j)).collect();
        let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
        let mut unique: Vec<usize> = Vec::new();
        let mut cells: Vec<Arc<InflightCell>> = Vec::new();
        let mut waits: Vec<Arc<InflightCell>> = Vec::new();
        if self.memoize {
            let memo = self.memo.lock().expect("memo lock");
            let mut inflight = self.inflight.lock().expect("inflight lock");
            let mut owner: HashMap<EvalKey, usize> = HashMap::new();
            for (i, k) in keys.iter().enumerate() {
                if let Some(hit) = memo.get(k) {
                    slots.push(Slot::Memo(hit.clone()));
                    continue;
                }
                match owner.entry(*k) {
                    Entry::Occupied(e) => slots.push(Slot::Dup(*e.get())),
                    Entry::Vacant(e) => {
                        if let Some(cell) = inflight.get(k) {
                            slots.push(Slot::Wait(waits.len()));
                            waits.push(Arc::clone(cell));
                            continue;
                        }
                        let cell = Arc::new(InflightCell::default());
                        inflight.insert(*k, Arc::clone(&cell));
                        e.insert(unique.len());
                        slots.push(Slot::Run(unique.len()));
                        unique.push(i);
                        cells.push(cell);
                    }
                }
            }
        } else {
            for i in 0..jobs.len() {
                slots.push(Slot::Run(unique.len()));
                unique.push(i);
            }
        }

        // Phase 2: run the unique jobs. Workers pull indices from a
        // shared cursor; each result lands in its own slot, so the
        // output is independent of scheduling. With a persistent store
        // configured, each unique point is looked up on disk first and
        // written back after simulating (the extra bool records a
        // store hit).
        // (result, wall_us, store_hit)
        type RunOutcome = (Result<Counters, ExecError>, u64, bool);
        type RunSlot = Mutex<Option<RunOutcome>>;
        let ran: Vec<RunSlot> = unique.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let run_one = |u: usize| {
            let job = &jobs[unique[u]];
            let key = keys[unique[u]];
            let guard = cells.get(u).map(|cell| CellGuard { cell, armed: true });
            let started = Instant::now();
            let store = self.store.as_ref().filter(|_| self.memoize);
            let stored = store.and_then(|s| s.get(StoreKey::new(key.0, key.1)));
            let store_hit = stored.is_some();
            let result = match stored {
                Some(counters) => Ok(counters),
                None => {
                    let result = self.plan_for(&job.program, key.0).and_then(|plan| {
                        if job.attributed {
                            plan.measure_attributed(&job.params, &self.machine, &job.layout)
                        } else {
                            plan.measure(&job.params, &self.machine, &job.layout)
                        }
                    });
                    // Persist successes only: errors are cheap to
                    // re-derive and need no on-disk encoding. A failed
                    // write degrades to a re-simulation next run, so
                    // it is reported (when events are on) but not
                    // fatal.
                    if let (Some(s), Ok(c)) = (store, &result) {
                        if let Err(e) = s.put(StoreKey::new(key.0, key.1), &job.program.name, c) {
                            if let Some(events) = &self.events {
                                events.event(
                                    names::STORE_ERROR,
                                    None,
                                    Attrs::new()
                                        .str("program", &job.program.name)
                                        .str("error", e.to_string()),
                                );
                            }
                        }
                    }
                    result
                }
            };
            let wall_us = started.elapsed().as_micros() as u64;
            self.metrics.eval_duration_us.observe(wall_us);
            if let Some(mut g) = guard {
                g.cell.fill(result.clone());
                g.armed = false;
            }
            *ran[u].lock().expect("slot lock") = Some((result, wall_us, store_hit));
        };
        let workers = self.threads.min(unique.len());
        if workers <= 1 {
            for u in 0..unique.len() {
                run_one(u);
            }
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let u = cursor.fetch_add(1, Ordering::Relaxed);
                        if u >= unique.len() {
                            break;
                        }
                        run_one(u);
                    });
                }
            });
        }
        let ran: Vec<RunOutcome> = ran
            .into_iter()
            .map(|m| m.into_inner().expect("slot lock").expect("slot filled"))
            .collect();
        // Collect results owed by concurrent batches. Owners never
        // wait (their own work is done above), so this cannot
        // deadlock; the owner's CellGuard fills abandoned cells, so a
        // panicking owner cannot strand us either.
        let waited: Vec<Result<Counters, ExecError>> =
            waits.iter().map(|cell| cell.wait()).collect();

        // Phase 3: publish to the memo cache, retire in-flight
        // registrations, update stats, emit point events, and
        // assemble results in submission order.
        if self.memoize {
            let mut memo = self.memo.lock().expect("memo lock");
            for (u, &i) in unique.iter().enumerate() {
                memo.insert(keys[i], ran[u].0.clone());
            }
            let mut inflight = self.inflight.lock().expect("inflight lock");
            for &i in &unique {
                inflight.remove(&keys[i]);
            }
        }
        {
            let errors = ran.iter().filter(|(r, _, _)| r.is_err()).count() as u64;
            let store_hits = ran.iter().filter(|(_, _, hit)| *hit).count() as u64;
            let mut stats = self.stats.lock().expect("stats lock");
            stats.requested += jobs.len() as u64;
            stats.evaluated += unique.len() as u64;
            stats.cache_hits += (jobs.len() - unique.len() - waits.len()) as u64;
            stats.errors += errors;
            stats.store_hits += store_hits;
            stats.dedup_waits += waits.len() as u64;
            drop(stats);
            let m = &self.metrics;
            m.requested.add(jobs.len() as u64);
            m.evaluated.add(unique.len() as u64);
            m.memo_hits
                .add((jobs.len() - unique.len() - waits.len()) as u64);
            m.errors.add(errors);
            m.store_hits.add(store_hits);
            m.dedup_waits.add(waits.len() as u64);
        }
        let mut out = Vec::with_capacity(jobs.len());
        for (i, slot) in slots.iter().enumerate() {
            let (result, cache_hit, wall_us, store_hit, dedup) = match slot {
                Slot::Memo(r) => (r.clone(), true, 0, false, false),
                Slot::Run(u) => (ran[*u].0.clone(), false, ran[*u].1, ran[*u].2, false),
                Slot::Dup(u) => (ran[*u].0.clone(), true, 0, false, false),
                Slot::Wait(w) => (waited[*w].clone(), true, 0, false, true),
            };
            if let Some(events) = &self.events {
                let job = &jobs[i];
                let mut attrs = Attrs::new()
                    .str("label", &job.label)
                    .str("program", &job.program.name);
                for &(v, val) in job.params.pairs() {
                    attrs = attrs.int(&format!("param_{}", job.program.var(v).name), val);
                }
                attrs = attrs.bool("cache_hit", cache_hit).uint("wall_us", wall_us);
                // Service-layer provenance, only when it applies, so
                // store-less runs emit streams shaped exactly as
                // before.
                if self.store.is_some() {
                    attrs = attrs.bool("store_hit", store_hit);
                }
                if dedup {
                    attrs = attrs.bool("dedup", true);
                }
                attrs = match &result {
                    Ok(c) => {
                        let mut a = attrs
                            .str("status", "ok")
                            .uint("cycles", c.cycles())
                            .uint("loads", c.loads)
                            .uint("stores", c.stores)
                            .uint("prefetches", c.prefetches)
                            .uint("flops", c.flops)
                            .uint("tlb_misses", c.tlb_misses);
                        for (ci, &m) in c.cache_misses.iter().enumerate() {
                            a = a.uint(&format!("miss_l{}", ci + 1), m);
                        }
                        // Per-array attribution, when the job asked for
                        // it: tag indices are `ArrayId` indices in the
                        // job's program.
                        for (ti, tag) in c.per_tag.iter().enumerate() {
                            a = a
                                .uint(&format!("tag{ti}_accesses"), tag.accesses)
                                .uint(&format!("tag{ti}_tlb_misses"), tag.tlb_misses);
                            for (ci, &m) in tag.misses.iter().enumerate() {
                                a = a.uint(&format!("tag{ti}_miss_l{}", ci + 1), m);
                            }
                        }
                        a
                    }
                    Err(e) => attrs.str("status", "error").str("error", e.to_string()),
                };
                events.event(names::POINT, job.span, attrs);
            }
            out.push(result);
        }
        if let Some(events) = &self.events {
            let mut attrs = Attrs::new()
                .uint("jobs", jobs.len() as u64)
                .uint("unique", unique.len() as u64)
                .uint(
                    "memo_hits",
                    (jobs.len() - unique.len() - waits.len()) as u64,
                )
                .uint(
                    "errors",
                    ran.iter().filter(|(r, _, _)| r.is_err()).count() as u64,
                )
                .uint("workers", workers as u64)
                .uint("wall_us", batch_start.elapsed().as_micros() as u64);
            if self.store.is_some() {
                attrs = attrs.uint(
                    "store_hits",
                    ran.iter().filter(|(_, _, hit)| *hit).count() as u64,
                );
            }
            if !waits.is_empty() {
                attrs = attrs.uint("dedup_waits", waits.len() as u64);
            }
            events.event(names::BATCH, None, attrs);
            let s = self.stats();
            events.event(
                names::ENGINE_STATS,
                None,
                Attrs::new()
                    .uint("requested", s.requested)
                    .uint("evaluated", s.evaluated)
                    .uint("cache_hits", s.cache_hits)
                    .uint("errors", s.errors)
                    .uint("store_hits", s.store_hits)
                    .uint("dedup_waits", s.dedup_waits),
            );
            events.flush();
        }
        out
    }

    fn stats(&self) -> EngineStats {
        *self.stats.lock().expect("stats lock")
    }

    fn events(&self) -> Option<&Arc<EventStream>> {
        self.events.as_ref()
    }
}

/// Resolves a configured thread count: explicit > env > hardware.
fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("ECO_EVAL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::measure_reference;
    use eco_ir::{AffineExpr, ArrayRef, Loop, Program, ScalarExpr, Stmt, VarId};

    /// `A[I] += 1` over `I in 0..N-1`.
    fn stream(name: &str) -> (Program, VarId) {
        let mut p = Program::new(name);
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::var(n)]);
        let r = ArrayRef::new(a, vec![AffineExpr::var(i)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
            step: 1,
            body: vec![Stmt::Store {
                target: r.clone(),
                value: ScalarExpr::add(ScalarExpr::Load(r), ScalarExpr::Const(1.0)),
            }],
        }));
        (p, n)
    }

    fn machine() -> MachineDesc {
        MachineDesc::sgi_r10000().scaled(32)
    }

    #[test]
    fn batch_results_match_serial_measure_in_order() {
        let (p, n) = stream("s");
        let engine = Engine::new(machine());
        let sizes = [16i64, 64, 32, 128];
        let jobs: Vec<EvalJob> = sizes
            .iter()
            .map(|&sz| EvalJob::new(p.clone(), Params::new().with(n, sz)))
            .collect();
        let got = engine.eval_batch(&jobs);
        for (&sz, r) in sizes.iter().zip(&got) {
            // The oracle walker: the compiled engine must match it exactly.
            let want = measure_reference(
                &p,
                &Params::new().with(n, sz),
                engine.machine(),
                &LayoutOptions::default(),
            );
            assert_eq!(r, &want, "size {sz}");
        }
        assert_eq!(engine.stats().evaluated, 4);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn plans_are_memoized_per_program() {
        let (p, n) = stream("s");
        let engine = Engine::new(machine());
        let jobs: Vec<EvalJob> = [8i64, 24, 48]
            .iter()
            .map(|&sz| EvalJob::new(p.clone(), Params::new().with(n, sz)))
            .collect();
        engine.eval_batch(&jobs);
        // One program at three parameter points: lowered exactly once.
        assert_eq!(engine.plans.lock().expect("plan lock").len(), 1);
    }

    #[test]
    fn duplicates_within_and_across_batches_hit_cache() {
        let (p, n) = stream("s");
        let engine = Engine::new(machine());
        let job = || EvalJob::new(p.clone(), Params::new().with(n, 32));
        let first = engine.eval_batch(&[job(), job(), job()]);
        assert_eq!(first[0], first[1]);
        assert_eq!(first[1], first[2]);
        assert_eq!(engine.stats().evaluated, 1);
        assert_eq!(engine.stats().cache_hits, 2);
        let second = engine.eval(job()).expect("ok");
        assert_eq!(Ok(second), first[0]);
        assert_eq!(engine.stats().evaluated, 1, "second batch fully memoized");
        assert_eq!(engine.stats().cache_hits, 3);
        assert!(engine.stats().hit_rate() > 0.7);
    }

    #[test]
    fn distinct_layouts_params_and_programs_do_not_collide() {
        let (p, n) = stream("s");
        let (q, m) = stream("s2");
        let engine = Engine::new(machine());
        let base = EvalJob::new(p.clone(), Params::new().with(n, 32));
        let padded =
            EvalJob::new(p.clone(), Params::new().with(n, 32)).with_layout(LayoutOptions {
                base_addr: 0,
                inter_array_pad_bytes: 64,
            });
        let other_size = EvalJob::new(p.clone(), Params::new().with(n, 64));
        let other_prog = EvalJob::new(q, Params::new().with(m, 32));
        let keys = [
            engine.key(&base),
            engine.key(&padded),
            engine.key(&other_size),
            engine.key(&other_prog),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
        // Label does not affect identity.
        assert_eq!(engine.key(&base), engine.key(&base.clone().with_label("x")));
    }

    #[test]
    fn errors_are_memoized() {
        let (p, _) = stream("s");
        let engine = Engine::new(machine());
        let job = || EvalJob::new(p.clone(), Params::new()); // N unbound
        assert!(engine.eval(job()).is_err());
        assert!(engine.eval(job()).is_err());
        let stats = engine.stats();
        assert_eq!(stats.evaluated, 1);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn memoize_off_reruns_everything() {
        let (p, n) = stream("s");
        let engine =
            Engine::with_config(machine(), EngineConfig::new().memoize(false)).expect("config");
        let job = || EvalJob::new(p.clone(), Params::new().with(n, 16));
        let r = engine.eval_batch(&[job(), job()]);
        assert_eq!(r[0], r[1]);
        assert_eq!(engine.stats().evaluated, 2);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn parallel_and_serial_engines_agree() {
        let (p, n) = stream("s");
        let serial =
            Engine::with_config(machine(), EngineConfig::new().threads(1)).expect("config");
        let parallel =
            Engine::with_config(machine(), EngineConfig::new().threads(4)).expect("config");
        let jobs: Vec<EvalJob> = (1..=24)
            .map(|k| EvalJob::new(p.clone(), Params::new().with(n, 8 * k)))
            .collect();
        assert_eq!(serial.eval_batch(&jobs), parallel.eval_batch(&jobs));
    }

    #[test]
    fn event_stream_records_points_batches_and_plan_compiles() {
        use eco_events::{check_stream, field};
        let (p, n) = stream("s");
        let dir = std::env::temp_dir().join(format!("eco-engine-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("events.jsonl");
        let engine =
            Engine::with_config(machine(), EngineConfig::new().events(&path)).expect("config");
        let job =
            |sz: i64| EvalJob::new(p.clone(), Params::new().with(n, sz)).with_label("unit\"test");
        engine.eval_batch(&[job(16), job(16), job(32)]);
        engine.eval_batch(&[job(32)]);
        let text = std::fs::read_to_string(&path).expect("events written");
        let summary = check_stream(&text).expect("valid stream");
        // One point event per submitted job, in submission order, each
        // carrying its parameter bindings, memo flag and counters.
        let points: Vec<&str> = text
            .lines()
            .filter(|l| field(l, "name") == Some("point"))
            .collect();
        let sizes: Vec<Option<&str>> = points.iter().map(|l| field(l, "param_N")).collect();
        assert_eq!(sizes, [Some("16"), Some("16"), Some("32"), Some("32")]);
        let hit_flags: Vec<Option<&str>> = points.iter().map(|l| field(l, "cache_hit")).collect();
        assert_eq!(
            hit_flags,
            [Some("false"), Some("true"), Some("false"), Some("true")]
        );
        assert!(
            points[0].contains("\"label\":\"unit\\\"test\""),
            "{}",
            points[0]
        );
        for l in &points {
            assert_eq!(field(l, "status"), Some("ok"), "{l}");
            assert!(field(l, "cycles").is_some(), "{l}");
            assert_eq!(field(l, "prefetches"), Some("0"), "{l}");
        }
        // 3 + 1 point events; one batch + engine_stats per eval_batch call;
        // one program lowered once => one plan_compile.
        assert_eq!(summary.events_named("point"), 4);
        assert_eq!(summary.events_named("batch"), 2);
        assert_eq!(summary.events_named("engine_stats"), 2);
        assert_eq!(summary.events_named("plan_compile"), 1);
        // Memo hits in point events must equal the engine's cache_hits.
        let hits = text
            .lines()
            .filter(|l| field(l, "name") == Some("point"))
            .filter(|l| field(l, "cache_hit") == Some("true"))
            .count() as u64;
        assert_eq!(hits, engine.stats().cache_hits);
        assert_eq!(engine.stats().cache_hits, 2);
        // The final engine_stats snapshot matches stats().
        let last = text
            .lines()
            .rfind(|l| field(l, "name") == Some("engine_stats"))
            .expect("snapshot");
        assert_eq!(field(last, "requested"), Some("4"));
        assert_eq!(field(last, "evaluated"), Some("2"));
        assert_eq!(field(last, "cache_hits"), Some("2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attributed_jobs_partition_counters_and_enrich_point_events() {
        use eco_events::field;
        let (p, n) = stream("s");
        let dir =
            std::env::temp_dir().join(format!("eco-engine-attributed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("events.jsonl");
        let engine =
            Engine::with_config(machine(), EngineConfig::new().events(&path)).expect("config");
        let plain = EvalJob::new(p.clone(), Params::new().with(n, 32));
        let tagged = plain.clone().attributed(true);
        assert_ne!(
            engine.key(&plain),
            engine.key(&tagged),
            "distinct memo keys"
        );
        let results = engine.eval_batch(&[plain, tagged]);
        let (plain, tagged) = (
            results[0].as_ref().expect("ok"),
            results[1].as_ref().expect("ok"),
        );
        assert!(plain.per_tag.is_empty());
        assert!(!tagged.per_tag.is_empty());
        // Attribution never changes the aggregates.
        assert_eq!(plain.loads, tagged.loads);
        assert_eq!(plain.cache_misses, tagged.cache_misses);
        assert_eq!(plain.cycles(), tagged.cycles());
        assert_eq!(engine.stats().evaluated, 2, "no memo aliasing");
        engine.events().expect("events on").flush();
        let text = std::fs::read_to_string(&path).expect("events written");
        let points: Vec<&str> = text
            .lines()
            .filter(|l| field(l, "name") == Some("point"))
            .collect();
        assert_eq!(points.len(), 2);
        // Every point now carries the aggregate counters...
        for l in &points {
            for key in [
                "loads",
                "stores",
                "flops",
                "tlb_misses",
                "miss_l1",
                "miss_l2",
            ] {
                assert!(field(l, key).is_some(), "missing {key}: {l}");
            }
        }
        // ...and only the attributed one carries per-tag counters.
        assert!(field(points[0], "tag0_accesses").is_none(), "{}", points[0]);
        assert!(field(points[1], "tag0_accesses").is_some(), "{}", points[1]);
        assert!(field(points[1], "tag0_miss_l1").is_some(), "{}", points[1]);
        // The stream self-describes its machine.
        let init = text
            .lines()
            .find(|l| field(l, "name") == Some("engine_init"))
            .expect("engine_init");
        assert_eq!(field(init, "machine"), Some(machine().name.as_str()));
        assert!(field(init, "machine_fingerprint").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_tier_warm_starts_a_fresh_engine() {
        let (p, n) = stream("s");
        let dir = std::env::temp_dir().join(format!("eco-engine-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs: Vec<EvalJob> = [16i64, 32, 64]
            .iter()
            .map(|&sz| EvalJob::new(p.clone(), Params::new().with(n, sz)))
            .collect();
        let cold = Engine::with_config(machine(), EngineConfig::new().store(&dir)).expect("cold");
        let first = cold.eval_batch(&jobs);
        assert_eq!(cold.stats().evaluated, 3);
        assert_eq!(cold.stats().store_hits, 0);
        assert_eq!(cold.store_stats().expect("store on").puts, 3);
        drop(cold);
        // A second engine (a second process, in the CLI workflows)
        // resolves every point from disk without simulating.
        let warm = Engine::with_config(machine(), EngineConfig::new().store(&dir)).expect("warm");
        let second = warm.eval_batch(&jobs);
        assert_eq!(first, second, "warm results byte-identical");
        let stats = warm.stats();
        assert_eq!(stats.evaluated, 3, "store hits still count as evaluated");
        assert_eq!(stats.store_hits, 3);
        assert_eq!(
            warm.plans.lock().expect("plan lock").len(),
            0,
            "no plan was ever lowered on the warm engine"
        );
        // memoize(false) bypasses the store entirely.
        let bypass = Engine::with_config(machine(), EngineConfig::new().store(&dir).memoize(false))
            .expect("bypass");
        bypass.eval_batch(&jobs);
        assert_eq!(bypass.stats().store_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_batches_dedupe_in_flight_points() {
        let (p, n) = stream("s");
        let engine = Arc::new(
            Engine::with_config(machine(), EngineConfig::new().threads(2)).expect("engine"),
        );
        // Four threads request the same (expensive enough) point at
        // once. Exactly one simulation may run; the rest either dedupe
        // against the in-flight owner or hit the memo cache, but the
        // sum of non-owner paths is exact.
        let job = || EvalJob::new(p.clone(), Params::new().with(n, 4096));
        let mut results = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let job = job();
                    s.spawn(move || engine.eval(job))
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("no panic"));
            }
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        let stats = engine.stats();
        assert_eq!(stats.requested, 4);
        assert_eq!(stats.evaluated, 1, "exactly one simulation ran");
        assert_eq!(
            stats.cache_hits + stats.dedup_waits,
            3,
            "everyone else was served without simulating: {stats:?}"
        );
    }

    #[test]
    fn engine_config_round_trips_through_json() {
        let configs = [
            EngineConfig::new(),
            EngineConfig::new()
                .threads(4)
                .memoize(false)
                .events("/tmp/e.jsonl")
                .store("/tmp/store"),
        ];
        for config in configs {
            let doc = config.to_json();
            // Deterministic rendering: build twice, identical bytes.
            assert_eq!(doc.render(), config.to_json().render());
            let reparsed = Json::parse(&doc.render()).expect("parses");
            assert_eq!(EngineConfig::from_json(&reparsed), Ok(config.clone()));
            // And the re-rendered document is byte-identical too.
            assert_eq!(
                EngineConfig::from_json(&reparsed)
                    .expect("round trip")
                    .to_json()
                    .render(),
                doc.render()
            );
        }
        assert!(EngineConfig::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn unusable_store_root_fails_fast() {
        let bad = PathBuf::from("/proc/nonexistent/store");
        let err =
            Engine::with_config(machine(), EngineConfig::new().store(&bad)).expect_err("must fail");
        match &err {
            ExecError::Store { path, .. } => {
                assert!(path.contains("/proc/nonexistent"), "{path}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("cannot open result store"));
    }

    #[test]
    fn unwritable_telemetry_paths_fail_fast_with_clear_errors() {
        let bad = PathBuf::from("/nonexistent-dir/eco-telemetry.jsonl");
        let err = Engine::with_config(machine(), EngineConfig::new().events(&bad))
            .expect_err("must fail");
        match &err {
            ExecError::Telemetry { path, .. } => assert_eq!(path, &bad.display().to_string()),
            other => panic!("unexpected error {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("cannot create events file"), "{msg}");
        assert!(!msg.contains("invalid program"), "{msg}");
    }
}
