//! The per-layer ledger, measured from outside the program.
//!
//! A traced round wraps the engine in [`Traced`], which times every
//! `eval_batch` call and, in the first traced round, keeps a copy of
//! each job and its counters. After the timed phase the captured points
//! are replayed one layer at a time through the layers' public
//! functions: plan lowering ([`ExecutablePlan::compile`]), simulation
//! ([`ExecutablePlan::measure_with_stats`]) and the result store
//! ([`ResultStore::put`] / [`ResultStore::get`]). Nothing in the
//! repository's crates is instrumented for this.

use crate::common::THREADS;
use crate::spec::Values;
use crate::stats::median;
use eco_cachesim::Counters;
use eco_exec::{
    Engine, EngineStats, EvalJob, EvalKey, Evaluator, ExecError, ExecutablePlan, SimStats,
};
use eco_machine::MachineDesc;
use eco_metrics::{parse_exposition, Registry};
use eco_store::{ResultStore, StoreKey};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Batches a traced evaluator has seen: time inside the engine, batch
/// count, and (when capturing) every job with its result.
#[derive(Default)]
struct TraceState {
    eval: Duration,
    batches: u64,
    jobs: Vec<(EvalJob, Result<Counters, ExecError>)>,
}

/// An [`Evaluator`] that delegates to an [`Engine`] and times it.
pub struct Traced<'e> {
    engine: &'e Engine,
    capture: bool,
    state: Mutex<TraceState>,
}

impl<'e> Traced<'e> {
    pub fn new(engine: &'e Engine, capture: bool) -> Self {
        Traced {
            engine,
            capture,
            state: Mutex::new(TraceState::default()),
        }
    }

    /// Time spent inside the engine so far, and the number of batches.
    pub fn eval(&self) -> (Duration, u64) {
        let s = self.state.lock().expect("trace state");
        (s.eval, s.batches)
    }

    /// The unique successfully evaluated points seen, as replayable
    /// [`Point`]s (empty unless capturing).
    pub fn into_points(self) -> Vec<Point> {
        let state = self.state.into_inner().expect("trace state");
        let mut seen = HashSet::new();
        let mut points = Vec::new();
        for (job, result) in state.jobs {
            let key = self.engine.key(&job);
            if let Ok(counters) = result {
                if seen.insert(key) {
                    points.push(Point { key, job, counters });
                }
            }
        }
        points
    }
}

impl Evaluator for Traced<'_> {
    fn machine(&self) -> &MachineDesc {
        self.engine.machine()
    }

    fn eval_batch(&self, jobs: &[EvalJob]) -> Vec<Result<Counters, ExecError>> {
        let started = Instant::now();
        let results = self.engine.eval_batch(jobs);
        let took = started.elapsed();
        let mut s = self.state.lock().expect("trace state");
        s.eval += took;
        s.batches += 1;
        if self.capture {
            s.jobs
                .extend(jobs.iter().cloned().zip(results.iter().cloned()));
        }
        results
    }

    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// One unique evaluated point: its memo key, job and the counters the
/// engine returned.
pub struct Point {
    pub key: EvalKey,
    pub job: EvalJob,
    pub counters: Counters,
}

/// Memory operations the simulator processed for one point.
pub fn accesses(c: &Counters) -> u64 {
    c.loads + c.stores + c.prefetches
}

/// What replaying the captured points layer by layer measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub compiles: u64,
    pub compile: Duration,
    pub insts: u64,
    pub sim: Duration,
    pub accesses: u64,
    pub sim_stats: SimStats,
    /// Accesses of the counters the engine returned for the same
    /// points — must equal `accesses`.
    pub engine_accesses: u64,
    pub mismatches: Vec<String>,
}

/// Lowers each distinct program once, serially, then simulates every
/// point on `machine`, checking the counters against the engine's.
/// Points are spread over [`THREADS`] threads, as the engine spreads
/// them, so each point's time includes the same contention for the
/// host's cores and caches; `sim` is the sum of the per-point times.
/// Call once per engine: plans are shared within a call, as an engine
/// shares them.
pub fn replay_sim(machine: &MachineDesc, points: &[Point], r: &mut Replay) {
    let mut plans: HashMap<u64, ExecutablePlan> = HashMap::new();
    let mut failed = HashSet::new();
    for p in points {
        let fp = p.key.program_fp();
        if plans.contains_key(&fp) || failed.contains(&fp) {
            continue;
        }
        let started = Instant::now();
        let plan = ExecutablePlan::compile(&p.job.program);
        r.compile += started.elapsed();
        match plan {
            Ok(plan) => {
                r.compiles += 1;
                r.insts += plan.lowering_stats().insts as u64;
                plans.insert(fp, plan);
            }
            Err(e) => {
                r.mismatches.push(format!(
                    "{}: replayed lowering failed: {e}",
                    p.job.program.name
                ));
                failed.insert(fp);
            }
        }
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Replay> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| simulate(machine, points, &plans, &next)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread"))
            .collect()
    });
    for part in parts {
        r.sim += part.sim;
        r.accesses += part.accesses;
        r.engine_accesses += part.engine_accesses;
        r.sim_stats.merge(&part.sim_stats);
        r.mismatches.extend(part.mismatches);
    }
}

/// One replay thread: simulates the points it claims from `next` until
/// none are left.
fn simulate(
    machine: &MachineDesc,
    points: &[Point],
    plans: &HashMap<u64, ExecutablePlan>,
    next: &AtomicUsize,
) -> Replay {
    let mut r = Replay::default();
    while let Some(p) = points.get(next.fetch_add(1, Ordering::Relaxed)) {
        // A program whose lowering failed is already a mismatch.
        let Some(plan) = plans.get(&p.key.program_fp()) else {
            continue;
        };
        let started = Instant::now();
        let measured = plan.measure_with_stats(&p.job.params, machine, &p.job.layout);
        r.sim += started.elapsed();
        r.engine_accesses += accesses(&p.counters);
        match measured {
            Ok((counters, stats)) => {
                r.accesses += accesses(&counters);
                r.sim_stats.merge(&stats);
                if counters != p.counters {
                    r.mismatches.push(format!(
                        "{}: replayed counters differ from the engine's",
                        p.job.program.name
                    ));
                }
            }
            Err(e) => r.mismatches.push(format!(
                "{}: replayed simulation failed: {e}",
                p.job.program.name
            )),
        }
    }
    r
}

/// Median put and get latency, in microseconds, of writing every point
/// to a scratch store at `dir` and reading it back. A read that does
/// not return the written counters is a mismatch.
pub fn replay_store(dir: &Path, points: &[&Point]) -> Result<(f64, f64, Vec<String>), String> {
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let key = |p: &Point| StoreKey::new(p.key.program_fp(), p.key.point_fp());
    let mut puts = Vec::with_capacity(points.len());
    for p in points {
        let started = Instant::now();
        store
            .put(key(p), &p.job.program.name, &p.counters)
            .map_err(|e| e.to_string())?;
        puts.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let mut gets = Vec::with_capacity(points.len());
    let mut mismatches = Vec::new();
    for p in points {
        let started = Instant::now();
        let got = store.get(key(p));
        gets.push(started.elapsed().as_secs_f64() * 1e6);
        if got.as_ref() != Some(&p.counters) {
            mismatches.push(format!(
                "{}: store replay read back other counters",
                p.job.program.name
            ));
        }
    }
    Ok((
        median(&puts).unwrap_or(0.0),
        median(&gets).unwrap_or(0.0),
        mismatches,
    ))
}

/// Records the replayed plan and simulation layers per round, and
/// checks the replay against the engine: the replayed access count must
/// equal the engine's, and so must the fast-forwarded accesses when
/// `engine_ff` (the engine's own total for the replayed points) is
/// known. `eval` is the engine time of the rounds replayed.
pub fn record_replay(
    v: &mut Values,
    r: &Replay,
    engine_ff: Option<u64>,
    eval: Duration,
    failures: &mut Vec<String>,
) {
    v.set("plan.compiles", r.compiles as f64);
    v.set("plan.compile_ms", ms(r.compile));
    v.set("plan.insts", r.insts as f64);
    v.set("sim.ms", ms(r.sim));
    v.set("sim.accesses", r.accesses as f64);
    v.set(
        "sim.ns_per_access",
        ratio(r.sim.as_secs_f64() * 1e9, r.accesses as f64),
    );
    v.set("sim.ff_windows", r.sim_stats.ff_windows as f64);
    v.set("sim.ff_accesses", r.sim_stats.ff_accesses as f64);
    v.set(
        "sim.ff_share",
        ratio(r.sim_stats.ff_accesses as f64, r.accesses as f64),
    );
    v.set(
        "engine.parallel_eff",
        ratio(r.sim.as_secs_f64(), eval.as_secs_f64() * THREADS as f64),
    );
    failures.extend(r.mismatches.iter().cloned());
    if r.accesses != r.engine_accesses {
        failures.push(format!(
            "ledger: replayed {} accesses, engine counters total {}",
            r.accesses, r.engine_accesses
        ));
    }
    if let Some(ff) = engine_ff {
        if ff != r.sim_stats.ff_accesses {
            failures.push(format!(
                "ledger: replayed {} fast-forwarded accesses, engine counted {ff}",
                r.sim_stats.ff_accesses
            ));
        }
    }
}

/// Checks the engine's accounting identity for one stats delta.
pub fn check_accounting(what: &str, s: &EngineStats, failures: &mut Vec<String>) {
    if s.evaluated + s.cache_hits + s.dedup_waits != s.requested {
        failures.push(format!(
            "ledger: {what}: evaluated {} + memo hits {} + dedup waits {} != requested {}",
            s.evaluated, s.cache_hits, s.dedup_waits, s.requested
        ));
    }
}

/// Records the engine counters of `s` (already per round).
pub fn record_engine(v: &mut Values, s: &EngineStats, rounds: f64) {
    v.set("engine.requested", s.requested as f64 / rounds);
    v.set("engine.evaluated", s.evaluated as f64 / rounds);
    v.set("engine.memo_hits", s.cache_hits as f64 / rounds);
    v.set("engine.store_hits", s.store_hits as f64 / rounds);
    v.set("engine.dedup_waits", s.dedup_waits as f64 / rounds);
    v.set(
        "engine.memo_hit_ratio",
        ratio(s.cache_hits as f64, s.requested as f64),
    );
}

/// Adds `b` into `a`, field by field.
pub fn add_stats(a: &mut EngineStats, b: &EngineStats) {
    a.requested += b.requested;
    a.evaluated += b.evaluated;
    a.cache_hits += b.cache_hits;
    a.errors += b.errors;
    a.store_hits += b.store_hits;
    a.dedup_waits += b.dedup_waits;
    a.ff_windows += b.ff_windows;
    a.ff_accesses += b.ff_accesses;
}

/// The traced spans must cover at least this share of traced wall time.
pub const MIN_COVERAGE: f64 = 0.95;

/// Records `trace.coverage` and fails the run when the spans leave more
/// than 5% of the traced wall time unaccounted for.
pub fn check_coverage(v: &mut Values, spans: Duration, wall: Duration, failures: &mut Vec<String>) {
    let coverage = ratio(spans.as_secs_f64(), wall.as_secs_f64());
    v.set("trace.coverage", coverage);
    if coverage < MIN_COVERAGE {
        failures.push(format!(
            "ledger: spans cover {:.1}% of traced wall time, need {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
}

/// `trace.overhead`: traced over untraced median round time, minus 1.
pub fn record_overhead(v: &mut Values, traced: &[f64], untraced: &[f64]) {
    let overhead = match (median(traced), median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    v.set("trace.overhead", overhead);
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The sum of every sample named `name` in this process's metrics
/// registry (0 before anything registered it).
pub fn global_total(name: &str) -> f64 {
    parse_exposition(&Registry::global().render()).map_or(0.0, |e| e.total(name))
}
