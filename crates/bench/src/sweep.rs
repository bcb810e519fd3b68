//! Shard execution and gathering: the *execute* and *gather* layers of
//! the plan/execute/gather sweep pipeline (DESIGN.md §"Sharded
//! sweeps"). The *plan* layer is [`eco_core::SweepPlan`].
//!
//! [`execute_shard`] runs one [`Shard`] to completion on a fresh
//! engine and returns a self-describing result document;
//! [`run_sweep`] orchestrates a whole plan — a local pool of worker
//! processes (`repro shard` children) or an `eco serve` daemon
//! (`--remote SOCKET`) — against a shared result store; [`gather`]
//! joins the per-shard results back into the figure's [`Sweep`] and
//! run manifest in plan order.
//!
//! Byte-identity with the serial path rests on three properties:
//! every shard runs on a *fresh* engine (a warm in-process memo cache
//! would shift the manifest's cache-hit counts), counters cross the
//! shard boundary through `eco-store`'s exact u64 encoding (never
//! floats), and store hits count as evaluated work, so a manifest
//! built against a warm shared store matches a cold serial run.
//! `repro check --workers N` gates the result.
//!
//! Resume is free: a worker marks its own shard complete in the store
//! (`shards/<fp>.json`, exempt from gc), so a killed sweep re-run
//! skips every completed shard and a dead worker costs one shard, not
//! the sweep.

use crate::figures::{self, RunOpts};
use crate::Sweep;
use eco_core::events::{names, Attrs, EventStream, Fnv64, Json};
use eco_core::{Engine, EngineConfig, Evaluator, Shard, ShardKind, SweepPlan, SweepSpec};
use eco_exec::{EvalJob, Params};
use eco_metrics::{Counter, Gauge, Registry};
use eco_store::{counters_from_json, counters_to_json, ResultStore};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version stamped into every shard result document.
pub const RESULT_VERSION: u64 = 1;

fn hex(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// Process-wide sweep counters (see `eco-metrics`): shard lifecycle
/// totals and a points-per-second throughput gauge. Observability
/// only — never read back into sweep decisions, manifests or goldens.
struct SweepMetrics {
    started: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    resumed: Arc<Counter>,
    points_per_second: Arc<Gauge>,
}

impl SweepMetrics {
    fn resolve() -> SweepMetrics {
        let r = Registry::global();
        SweepMetrics {
            started: r.counter(
                "eco_sweep_shards_started_total",
                "Shard executions started in this process.",
                &[],
            ),
            completed: r.counter(
                "eco_sweep_shards_completed_total",
                "Shard executions that finished successfully.",
                &[],
            ),
            failed: r.counter(
                "eco_sweep_shards_failed_total",
                "Shard executions that returned an error.",
                &[],
            ),
            resumed: r.counter(
                "eco_sweep_shards_resumed_total",
                "Shards skipped because a completion record already existed.",
                &[],
            ),
            points_per_second: r.gauge(
                "eco_sweep_points_per_second",
                "Requested evaluation points per wall second of the most recent shard.",
                &[],
            ),
        }
    }
}

/// Executes one shard on a fresh engine built from `config`, wrapping
/// the work in a `shard` span on the engine's event stream.
///
/// Tune shards run the family's search (warming the shared store);
/// the ECO tune shard additionally embeds the figure's run manifest.
/// Measure shards evaluate the family's program at each shard size
/// and record the exact counters.
///
/// # Errors
///
/// Returns a message when the engine cannot be built, the family is
/// unknown, a search fails, or a measurement fails.
pub fn execute_shard(shard: &Shard, config: EngineConfig) -> Result<Json, String> {
    execute_shard_with_events(shard, config, None)
}

/// [`execute_shard`] with an injected event stream: the daemon routes
/// a shard's search/engine events into the in-memory buffer its
/// `watch` op tails. `None` falls back to the config's `events_path`.
///
/// # Errors
///
/// Same conditions as [`execute_shard`].
pub fn execute_shard_with_events(
    shard: &Shard,
    config: EngineConfig,
    injected_events: Option<Arc<EventStream>>,
) -> Result<Json, String> {
    let metrics = SweepMetrics::resolve();
    metrics.started.inc();
    let started = Instant::now();
    let engine = Engine::with_config_and_events(shard.machine.clone(), config, injected_events)
        .map_err(|e| format!("shard engine: {e}"))?;
    // Span-less bracketing events: the search and evaluation open
    // their own root spans on this stream, so a wrapping span here
    // would break the nesting invariant `check_stream` enforces.
    let scope = eco_core::events::Scope::new(engine.events().cloned());
    scope.event(
        names::SHARD,
        None,
        Attrs::new()
            .str("figure", &shard.figure)
            .str("family", &shard.family)
            .str("kind", shard.kind.as_str())
            .str("fingerprint", hex(shard.fingerprint())),
    );
    let result = execute_on(shard, &engine);
    let mut attrs = Attrs::new()
        .str("fingerprint", hex(shard.fingerprint()))
        .bool("ok", result.is_ok());
    if let Err(error) = &result {
        attrs = attrs.str("error", error);
    }
    scope.event(names::SHARD_DONE, None, attrs);
    scope.flush();
    match &result {
        Ok(_) => {
            metrics.completed.inc();
            let wall = started.elapsed().as_secs_f64();
            if wall > 0.0 {
                let pps = engine.stats().requested as f64 / wall;
                metrics.points_per_second.set(pps as i64);
            }
        }
        Err(_) => metrics.failed.inc(),
    }
    result
}

fn execute_on(shard: &Shard, engine: &Engine) -> Result<Json, String> {
    let (programs, tuned) =
        figures::family_programs(&shard.family, &shard.kernel, engine, shard.search_n, false)?;
    let mut doc = Json::obj()
        .field("result_version", Json::UInt(RESULT_VERSION))
        .field("shard", Json::fingerprint(shard.fingerprint()))
        .field("figure", Json::str(&shard.figure))
        .field("family", Json::str(&shard.family))
        .field("kind", Json::str(shard.kind.as_str()));
    match shard.kind {
        ShardKind::Tune => {
            if let Some(tuned) = &tuned {
                // Built immediately after the search, while the fresh
                // engine's stats describe the search alone — the same
                // window the serial runner uses.
                let manifest = figures::figure_manifest(
                    &shard.kernel,
                    engine,
                    &EngineConfig::new(),
                    shard.search_n,
                    tuned,
                );
                let parsed = Json::parse(&manifest)
                    .map_err(|e| format!("shard manifest does not parse: {e}"))?;
                doc = doc.field("manifest", parsed).field(
                    "manifest_fingerprint",
                    Json::fingerprint(Fnv64::hash_bytes(manifest.as_bytes())),
                );
            }
        }
        ShardKind::Measure => {
            let jobs: Vec<EvalJob> = shard
                .sizes
                .iter()
                .map(|&n| {
                    EvalJob::new(programs(n), Params::new().with(shard.kernel.size, n))
                        .with_label(format!("{}/N={n}", shard.family))
                })
                .collect();
            let results = engine.eval_batch(&jobs);
            let mut points = Vec::with_capacity(results.len());
            for (i, r) in results.into_iter().enumerate() {
                let n = shard.sizes[i];
                let c = r.map_err(|e| format!("{} at N={n}: {e}", shard.family))?;
                points.push(
                    Json::obj()
                        .field("n", Json::Int(n))
                        .field("counters", counters_to_json(&c)),
                );
            }
            doc = doc.field("points", Json::Arr(points));
        }
    }
    let s = engine.stats();
    Ok(doc.field(
        "engine_stats",
        Json::obj()
            .field("requested", Json::UInt(s.requested))
            .field("evaluated", Json::UInt(s.evaluated))
            .field("cache_hits", Json::UInt(s.cache_hits))
            .field("store_hits", Json::UInt(s.store_hits)),
    ))
}

fn check_envelope(doc: &Json, shard: &Shard) -> Result<(), String> {
    let fp = shard.fingerprint();
    if doc.get("result_version").and_then(Json::as_u64) != Some(RESULT_VERSION) {
        return Err(format!(
            "gather: shard {}: unsupported result_version",
            hex(fp)
        ));
    }
    if doc.get("shard").and_then(Json::as_str) != Some(hex(fp).as_str()) {
        return Err(format!(
            "gather: shard {}: result echoes a different shard",
            hex(fp)
        ));
    }
    let fields = [
        ("figure", shard.figure.as_str()),
        ("family", shard.family.as_str()),
        ("kind", shard.kind.as_str()),
    ];
    for (field, want) in fields {
        if doc.get(field).and_then(Json::as_str) != Some(want) {
            return Err(format!(
                "gather: shard {}: result field '{field}' is not '{want}'",
                hex(fp)
            ));
        }
    }
    Ok(())
}

/// Joins per-shard results back into the figure's [`Sweep`] and run
/// manifest, in plan order. `results` maps shard fingerprints to the
/// documents [`execute_shard`] produced.
///
/// The manifest comes from the first tune shard that embedded one (the
/// ECO family), re-rendered from its parsed form (render∘parse is the
/// identity on rendered documents) and checked against its recorded
/// fingerprint. Each family's MFLOPS series is the concatenation of
/// its measure shards' exact counters, converted with the spec
/// machine's clock — the same arithmetic the serial `mflops_sweep`
/// does, so the gathered CSV is byte-identical.
///
/// # Errors
///
/// Returns a message for a missing or mismatched result, a corrupt
/// manifest, or incomplete size coverage.
pub fn gather(
    spec: &SweepSpec,
    plan: &SweepPlan,
    results: &BTreeMap<u64, Json>,
) -> Result<(Sweep, String), String> {
    let mut manifest = String::new();
    for shard in plan.tune_shards() {
        let fp = shard.fingerprint();
        let doc = results
            .get(&fp)
            .ok_or_else(|| format!("gather: missing result for tune shard {}", hex(fp)))?;
        check_envelope(doc, shard)?;
        let Some(m) = doc.get("manifest") else {
            continue;
        };
        let text = m.render();
        let want = doc
            .get("manifest_fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("gather: shard {}: manifest without fingerprint", hex(fp)))?;
        let got = hex(Fnv64::hash_bytes(text.as_bytes()));
        if want != got {
            return Err(format!(
                "gather: shard {}: manifest fingerprint {got} does not match recorded {want}",
                hex(fp)
            ));
        }
        if manifest.is_empty() {
            manifest = text;
        }
    }
    if manifest.is_empty() {
        return Err("gather: no tune shard produced a manifest".into());
    }

    let mut sweep = Sweep {
        sizes: spec.sizes.clone(),
        series: Vec::with_capacity(spec.families.len()),
    };
    for family in &spec.families {
        let mut ys = Vec::with_capacity(spec.sizes.len());
        let mut covered = Vec::with_capacity(spec.sizes.len());
        for shard in plan.measure_shards().filter(|s| s.family == family.name) {
            let fp = shard.fingerprint();
            let doc = results.get(&fp).ok_or_else(|| {
                format!(
                    "gather: missing result for measure shard {} ({})",
                    hex(fp),
                    family.name
                )
            })?;
            check_envelope(doc, shard)?;
            let Some(Json::Arr(points)) = doc.get("points") else {
                return Err(format!("gather: shard {}: no points array", hex(fp)));
            };
            if points.len() != shard.sizes.len() {
                return Err(format!(
                    "gather: shard {}: {} points for {} sizes",
                    hex(fp),
                    points.len(),
                    shard.sizes.len()
                ));
            }
            for (i, point) in points.iter().enumerate() {
                let n = point
                    .get("n")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| format!("gather: shard {}: point without n", hex(fp)))?;
                if n != shard.sizes[i] {
                    return Err(format!(
                        "gather: shard {}: point {i} is N={n}, shard says N={}",
                        hex(fp),
                        shard.sizes[i]
                    ));
                }
                let c = point
                    .get("counters")
                    .and_then(counters_from_json)
                    .ok_or_else(|| {
                        format!("gather: shard {}: corrupt counters at N={n}", hex(fp))
                    })?;
                covered.push(n);
                ys.push(c.mflops(spec.machine.clock_mhz));
            }
        }
        if covered != spec.sizes {
            return Err(format!(
                "gather: family {} covered sizes {covered:?}, figure needs {:?}",
                family.name, spec.sizes
            ));
        }
        sweep.series.push((family.name.clone(), ys));
    }
    Ok((sweep, manifest))
}

/// How [`run_sweep`] executes a plan.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Engine flags and telemetry directories for the workers
    /// (`flags.store` is superseded by [`SweepConfig::store`]).
    pub opts: RunOpts,
    /// Parallel workers (processes locally, connections remotely);
    /// clamped to at least 1.
    pub workers: usize,
    /// Measure sizes per shard (the plan's chunking).
    pub sizes_per_shard: usize,
    /// Shared result store: point records, and the shard-completion
    /// records resume keys on.
    pub store: PathBuf,
    /// Where the plan artifact, shard manifests, worker logs and the
    /// orchestrator event stream go.
    pub sweep_dir: PathBuf,
    /// The binary spawned as `<exe> shard --shard FILE …` in local
    /// mode (the `repro` binary).
    pub worker_exe: PathBuf,
    /// Unix socket of an `eco serve` daemon: execute shards remotely
    /// over the serve protocol instead of spawning local workers.
    pub remote: Option<PathBuf>,
    /// Print per-shard progress lines.
    pub verbose: bool,
}

/// What a sweep run did.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The gathered figure data.
    pub sweep: Sweep,
    /// The gathered run manifest.
    pub manifest: String,
    /// Shards in the plan.
    pub planned: usize,
    /// Shards skipped because a completion record already existed.
    pub skipped: usize,
    /// Shards executed by this run.
    pub executed: usize,
    /// Wall time of the whole run.
    pub wall_secs: f64,
}

/// One spawned worker and the shard it owns.
struct Running {
    shard: Shard,
    child: Child,
    started: Instant,
    log: PathBuf,
}

/// Emits the orchestrator-side `shard_done` event. A non-empty
/// `error` (failed shards) is recorded as an `error` attribute so
/// `eco report` shard timelines can say *why* a shard failed.
fn shard_done_event(events: &EventStream, shard: &Shard, status: &str, wall_ms: u64, error: &str) {
    let mut attrs = Attrs::new()
        .str("fingerprint", hex(shard.fingerprint()))
        .str("figure", &shard.figure)
        .str("family", &shard.family)
        .str("kind", shard.kind.as_str())
        .str("status", status)
        .uint("wall_ms", wall_ms);
    if !error.is_empty() {
        attrs = attrs.str("error", error);
    }
    events.event(names::SHARD_DONE, None, attrs);
}

fn shard_spawn_event(events: &EventStream, shard: &Shard) {
    events.event(
        names::SHARD_SPAWN,
        None,
        Attrs::new()
            .str("fingerprint", hex(shard.fingerprint()))
            .str("figure", &shard.figure)
            .str("family", &shard.family)
            .str("kind", shard.kind.as_str()),
    );
}

/// Plans, executes and gathers one figure sweep.
///
/// Execution runs in two stages — tune shards, then measure shards —
/// so measure shards start against a store the searches have warmed.
/// Within a stage up to `workers` shards run at once. Shards whose
/// completion record is already in the store are skipped. A failed or
/// crashed worker fails its shard only; the error lists every failed
/// shard and the sweep can be re-run to resume.
///
/// # Errors
///
/// Returns a message when planning, orchestration I/O, any shard, or
/// gathering fails.
pub fn run_sweep(spec: &SweepSpec, config: &SweepConfig) -> Result<SweepOutcome, String> {
    let started = Instant::now();
    let plan = SweepPlan::plan(spec, config.sizes_per_shard)?;
    for sub in ["shards", "logs", "events"] {
        let dir = config.sweep_dir.join(sub);
        fs::create_dir_all(&dir)
            .map_err(|e| format!("sweep: cannot create {}: {e}", dir.display()))?;
    }
    let plan_path = config.sweep_dir.join("plan.json");
    fs::write(&plan_path, plan.to_json().render())
        .map_err(|e| format!("sweep: cannot write {}: {e}", plan_path.display()))?;
    let store = ResultStore::open(&config.store).map_err(|e| format!("sweep store: {e}"))?;
    let events_path = config.sweep_dir.join("sweep.events.jsonl");
    let events = Arc::new(
        EventStream::to_file(&events_path)
            .map_err(|e| format!("sweep: cannot create {}: {e}", events_path.display()))?,
    );
    events.event(
        names::SWEEP_BEGIN,
        None,
        Attrs::new()
            .str("figure", &spec.figure)
            .str("plan_fingerprint", hex(plan.fingerprint()))
            .uint("shards", plan.shards.len() as u64)
            .uint("workers", config.workers.max(1) as u64),
    );

    let mut executed = 0usize;
    let mut skipped = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for stage in [ShardKind::Tune, ShardKind::Measure] {
        let pending: Vec<&Shard> = plan.shards.iter().filter(|s| s.kind == stage).collect();
        let (ex, sk) = match &config.remote {
            Some(socket) => {
                run_stage_remote(&pending, socket, &store, config, &events, &mut failures)
            }
            None => run_stage_local(&pending, &store, config, &events, &mut failures)?,
        };
        executed += ex;
        skipped += sk;
    }
    events.event(
        names::SWEEP_GATHER,
        None,
        Attrs::new()
            .uint("executed", executed as u64)
            .uint("skipped", skipped as u64)
            .uint("failed", failures.len() as u64),
    );
    events.flush();
    if !failures.is_empty() {
        return Err(format!(
            "sweep {}: {} shard(s) failed; completed shards are recorded in {} — rerun to resume:\n  {}",
            spec.figure,
            failures.len(),
            config.store.display(),
            failures.join("\n  ")
        ));
    }

    let mut results = BTreeMap::new();
    for shard in &plan.shards {
        let fp = shard.fingerprint();
        let doc = store.shard_complete(fp).ok_or_else(|| {
            format!(
                "sweep {}: shard {} has no completion record",
                spec.figure,
                hex(fp)
            )
        })?;
        results.insert(fp, doc);
    }
    let (sweep, manifest) = gather(spec, &plan, &results)?;
    Ok(SweepOutcome {
        sweep,
        manifest,
        planned: plan.shards.len(),
        skipped,
        executed,
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

/// Splits `pending` into already-complete shards (skipped) and a work
/// queue, emitting a `shard_done status=skipped` event per skip.
fn partition_complete<'p>(
    pending: &[&'p Shard],
    store: &ResultStore,
    events: &EventStream,
    verbose: bool,
) -> (VecDeque<&'p Shard>, usize) {
    let mut queue = VecDeque::new();
    let mut skipped = 0usize;
    for &shard in pending {
        if store.shard_complete(shard.fingerprint()).is_some() {
            skipped += 1;
            SweepMetrics::resolve().resumed.inc();
            shard_done_event(events, shard, "skipped", 0, "");
            if verbose {
                println!(
                    "   skip    {} ({}/{} already complete)",
                    hex(shard.fingerprint()),
                    shard.family,
                    shard.kind.as_str()
                );
            }
        } else {
            queue.push_back(shard);
        }
    }
    (queue, skipped)
}

fn run_stage_local(
    pending: &[&Shard],
    store: &ResultStore,
    config: &SweepConfig,
    events: &EventStream,
    failures: &mut Vec<String>,
) -> Result<(usize, usize), String> {
    let (mut queue, skipped) = partition_complete(pending, store, events, config.verbose);
    let workers = config.workers.max(1);
    let mut executed = 0usize;
    let mut running: Vec<Running> = Vec::new();
    while !(queue.is_empty() && running.is_empty()) {
        while running.len() < workers {
            let Some(shard) = queue.pop_front() else {
                break;
            };
            running.push(spawn_shard(shard, config, events)?);
        }
        let mut still = Vec::with_capacity(running.len());
        for mut r in running {
            match r.child.try_wait() {
                Ok(None) => still.push(r),
                Ok(Some(status)) => {
                    let wall_ms = r.started.elapsed().as_millis() as u64;
                    // The worker marks its own completion, so the
                    // record survives even an orchestrator crash; a
                    // clean exit without a record is still a failure.
                    let ok =
                        status.success() && store.shard_complete(r.shard.fingerprint()).is_some();
                    if ok {
                        shard_done_event(events, &r.shard, "ok", wall_ms, "");
                        executed += 1;
                        if config.verbose {
                            println!(
                                "   ok      {} ({}/{} in {:.1}s)",
                                hex(r.shard.fingerprint()),
                                r.shard.family,
                                r.shard.kind.as_str(),
                                wall_ms as f64 / 1000.0
                            );
                        }
                    } else {
                        let error = format!("worker exited {status}; log: {}", r.log.display());
                        shard_done_event(events, &r.shard, "failed", wall_ms, &error);
                        failures.push(format!(
                            "{} ({}/{}): {error}",
                            hex(r.shard.fingerprint()),
                            r.shard.family,
                            r.shard.kind.as_str(),
                        ));
                    }
                }
                Err(e) => {
                    let error = format!("cannot wait on worker: {e}");
                    shard_done_event(events, &r.shard, "failed", 0, &error);
                    failures.push(format!(
                        "{} ({}/{}): {error}",
                        hex(r.shard.fingerprint()),
                        r.shard.family,
                        r.shard.kind.as_str()
                    ));
                }
            }
        }
        running = still;
        if !running.is_empty() {
            std::thread::sleep(Duration::from_millis(15));
        }
    }
    Ok((executed, skipped))
}

fn spawn_shard(
    shard: &Shard,
    config: &SweepConfig,
    events: &EventStream,
) -> Result<Running, String> {
    let fp = shard.fingerprint();
    let stem = format!("{fp:016x}");
    let file = config.sweep_dir.join("shards").join(format!("{stem}.json"));
    fs::write(&file, shard.to_json().render())
        .map_err(|e| format!("sweep: cannot write {}: {e}", file.display()))?;
    let log = config.sweep_dir.join("logs").join(format!("{stem}.log"));
    let logfile = fs::File::create(&log)
        .map_err(|e| format!("sweep: cannot create {}: {e}", log.display()))?;
    let logerr = logfile
        .try_clone()
        .map_err(|e| format!("sweep: cannot clone log handle: {e}"))?;
    // One worker process gets one engine; with N workers running, each
    // defaults to a single evaluation thread unless --threads was
    // explicit (results are thread-count independent either way).
    let threads = if config.opts.flags.threads == 0 {
        1
    } else {
        config.opts.flags.threads
    };
    let mut cmd = Command::new(&config.worker_exe);
    cmd.arg("shard")
        .arg("--shard")
        .arg(&file)
        .arg("--store")
        .arg(&config.store)
        .arg("--events")
        .arg(config.sweep_dir.join("events"))
        .arg("--threads")
        .arg(threads.to_string());
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::from(logfile))
        .stderr(Stdio::from(logerr))
        .spawn()
        .map_err(|e| format!("sweep: cannot spawn {}: {e}", config.worker_exe.display()))?;
    shard_spawn_event(events, shard);
    Ok(Running {
        shard: shard.clone(),
        child,
        started: Instant::now(),
        log,
    })
}

fn run_stage_remote(
    pending: &[&Shard],
    socket: &Path,
    store: &ResultStore,
    config: &SweepConfig,
    events: &EventStream,
    failures: &mut Vec<String>,
) -> (usize, usize) {
    let (queue, skipped) = partition_complete(pending, store, events, config.verbose);
    let queue = Mutex::new(queue);
    let executed = AtomicUsize::new(0);
    let fails: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| loop {
                let Some(shard) = queue.lock().expect("queue lock").pop_front() else {
                    break;
                };
                let fp = shard.fingerprint();
                shard_spawn_event(events, shard);
                let started = Instant::now();
                let request = Json::obj()
                    .field("op", Json::str("shard"))
                    .field("shard", shard.to_json());
                let outcome = crate::serve::request(socket, &request).and_then(|doc| {
                    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
                        doc.get("result")
                            .cloned()
                            .ok_or_else(|| "shard response without result".to_string())
                    } else {
                        Err(doc
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown server error")
                            .to_string())
                    }
                });
                let wall_ms = started.elapsed().as_millis() as u64;
                // The orchestrator writes the completion record for
                // remote shards: the daemon has no handle on our store.
                let outcome = outcome.and_then(|result| {
                    store
                        .mark_shard_complete(fp, &result)
                        .map_err(|e| format!("cannot record completion: {e}"))
                });
                match outcome {
                    Ok(()) => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        shard_done_event(events, shard, "ok", wall_ms, "");
                        if config.verbose {
                            println!(
                                "   ok      {} ({}/{} remote in {:.1}s)",
                                hex(fp),
                                shard.family,
                                shard.kind.as_str(),
                                wall_ms as f64 / 1000.0
                            );
                        }
                    }
                    Err(e) => {
                        shard_done_event(events, shard, "failed", wall_ms, &e);
                        fails.lock().expect("fails lock").push(format!(
                            "{} ({}/{}): {e}",
                            hex(fp),
                            shard.family,
                            shard.kind.as_str()
                        ));
                    }
                }
            });
        }
    });
    failures.extend(fails.into_inner().expect("fails lock"));
    (executed.into_inner(), skipped)
}
