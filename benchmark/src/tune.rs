//! The `tune-cold` and `tune-warm` workloads: the same seven certified
//! tuning requests, each on a fresh engine, against an empty store
//! (every point simulated and written) or against the store set-up
//! filled (every point read back, none simulated).

use crate::common::{
    peak_rss_mb, remove_dir, secs, timed_setup, traced_round, Ctx, Outcome, Rng, Timings, THREADS,
};
use crate::layers::{
    add_stats, check_accounting, check_coverage, global_total, ms, record_engine, record_overhead,
    record_replay, replay_sim, replay_store, Point, Replay, Traced,
};
use eco_analysis::NestInfo;
use eco_core::{derive_variants, run_manifest, SearchOptions, TuneRequest, TuneResponse};
use eco_exec::{Engine, EngineConfig, EngineStats};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use std::path::Path;
use std::time::{Duration, Instant};

/// The seven requests. Sizes keep a round near 2.5 s on a 2-core host
/// while most of a cold round is still simulation; the kernels span
/// the library so that no single kernel's search dominates.
pub fn requests() -> Vec<TuneRequest> {
    let sgi = MachineDesc::sgi_r10000().scaled(32);
    let sun = MachineDesc::ultrasparc_iie().scaled(32);
    [
        (Kernel::matmul(), &sgi, 48),
        (Kernel::syrk(), &sgi, 48),
        (Kernel::matmul_transposed(), &sgi, 48),
        (Kernel::stencil5(), &sgi, 96),
        (Kernel::matvec(), &sgi, 96),
        (Kernel::matmul(), &sun, 48),
        (Kernel::jacobi3d(), &sgi, 16),
    ]
    .into_iter()
    .map(|(kernel, machine, n)| certified(kernel, machine, n))
    .collect()
}

/// A request with default search options at `search_n`, every
/// candidate statically certified (as the figures tune).
pub fn certified(kernel: Kernel, machine: &MachineDesc, search_n: i64) -> TuneRequest {
    let options = SearchOptions::builder()
        .search_n(search_n)
        .certify(true)
        .build()
        .expect("constant search options are valid");
    TuneRequest::new(kernel, machine.clone()).options(options)
}

/// The manifest a local run of `request` renders.
pub fn manifest(request: &TuneRequest, response: &TuneResponse) -> String {
    run_manifest(
        &request.kernel.name,
        &request.machine,
        &request.options,
        &EngineConfig::new(),
        response,
    )
    .render()
}

/// The store's own count of record bytes written, read from the
/// process-wide metrics registry.
const STORE_BYTES: &str = "eco_store_bytes_written_total";

fn engine_config(store: Option<&Path>) -> EngineConfig {
    let config = EngineConfig::new().threads(THREADS);
    match store {
        Some(dir) => config.store(dir),
        None => config,
    }
}

/// One tune as the workload times it: open a fresh engine over `store`,
/// then run the request on it (through a [`Traced`] wrapper when
/// `trace` says so).
struct Tune {
    open: Duration,
    run: Duration,
    eval: Duration,
    batches: u64,
    response: Result<TuneResponse, String>,
    points: Vec<Point>,
}

fn tune(request: &TuneRequest, store: Option<&Path>, trace: Option<bool>) -> Tune {
    let started = Instant::now();
    let engine = match Engine::with_config(request.machine.clone(), engine_config(store)) {
        Ok(engine) => engine,
        Err(e) => {
            return Tune {
                open: started.elapsed(),
                run: Duration::ZERO,
                eval: Duration::ZERO,
                batches: 0,
                response: Err(format!("engine: {e}")),
                points: Vec::new(),
            }
        }
    };
    let open = started.elapsed();
    let started = Instant::now();
    let (response, eval, batches, points) = match trace {
        None => (request.run_on(&engine), Duration::ZERO, 0, Vec::new()),
        Some(capture) => {
            let traced = Traced::new(&engine, capture);
            let response = request.run_on(&traced);
            let (eval, batches) = traced.eval();
            (response, eval, batches, traced.into_points())
        }
    };
    Tune {
        open,
        run: started.elapsed(),
        eval,
        batches,
        response: response.map_err(|e| e.to_string()),
        points,
    }
}

/// Runs every request cold, on fresh engines sharing the store at
/// `store` when given, and returns the manifests: the reference each
/// timed tune must reproduce.
fn reference_manifests(
    requests: &[TuneRequest],
    store: Option<&Path>,
) -> Result<Vec<String>, String> {
    requests
        .iter()
        .map(|r| {
            let t = tune(r, store, None);
            t.response.map(|resp| manifest(r, &resp))
        })
        .collect()
}

/// Totals of the traced rounds, for the per-layer metrics.
#[derive(Default)]
struct TraceTotals {
    rounds: u64,
    wall: Duration,
    open: Duration,
    run: Duration,
    eval: Duration,
    batches: u64,
    engine: EngineStats,
    points: u64,
    variants_derived: u64,
    certified: u64,
    rejected: u64,
    bytes_written: f64,
    /// Points captured in the first traced round, per request engine,
    /// and that round's engine totals.
    captured: Vec<(usize, Vec<Point>)>,
    captured_stats: EngineStats,
    captured_eval: Duration,
}

pub fn run(ctx: &Ctx, warm: bool) -> Outcome {
    let mut out = Outcome::default();
    let requests = requests();
    // tune-cold's reference runs without a store (the local path the
    // stored one must match); tune-warm's fills the store it reads.
    let (setup_s, setup) = timed_setup(|rep| {
        let store = ctx.work.join(format!("setup-{rep}"));
        let manifests = reference_manifests(&requests, warm.then_some(store.as_path()));
        (store, manifests)
    });
    let (setup_store, reference) = match setup {
        (store, Ok(manifests)) => (store, manifests),
        (_, Err(e)) => {
            out.op(vec![format!("setup: {e}")]);
            return out;
        }
    };
    // Only the last set-up's store is read.
    for entry in std::fs::read_dir(&ctx.work).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("setup-") && entry.path() != setup_store
        {
            remove_dir(&entry.path());
        }
    }

    let mut rng = Rng::new(ctx.seed, 1);
    let all: Vec<usize> = (0..requests.len()).collect();
    let mut timings = Timings::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut t = TraceTotals::default();
    let started = Instant::now();
    let mut round = 0;
    while !ctx.done(started, round) {
        let traced = traced_round(ctx, round);
        let capture = traced && t.rounds == 0;
        let order = rng.shuffled(&all);
        let bytes_before = global_total(STORE_BYTES);
        let round_started = Instant::now();
        let mut tunes = Vec::with_capacity(order.len());
        for &i in &order {
            let store = warm.then_some(setup_store.as_path());
            let result = tune(&requests[i], store, traced.then_some(capture));
            let problems = match &result.response {
                Ok(resp) if manifest(&requests[i], resp) == reference[i] => Vec::new(),
                Ok(_) => vec![format!(
                    "{} on {}: manifest differs from the reference run",
                    requests[i].kernel.name, requests[i].machine.name
                )],
                Err(e) => vec![format!("{}: {e}", requests[i].kernel.name)],
            };
            out.op(problems);
            tunes.push((i, result));
        }
        let wall = round_started.elapsed();
        if traced {
            t.bytes_written += global_total(STORE_BYTES) - bytes_before;
        }
        let mut requested = 0;
        for (i, result) in tunes {
            let Ok(resp) = &result.response else { continue };
            requested += resp.engine.requested;
            if !traced {
                timings.op(i, secs(result.open + result.run) * 1e3);
                continue;
            }
            if result.eval > result.run {
                out.failures.push(format!(
                    "ledger: engine time {:?} exceeds its tune's wall time {:?}",
                    result.eval, result.run
                ));
                out.failed += 1;
            }
            let mut problems = Vec::new();
            check_accounting(&requests[i].kernel.name, &resp.engine, &mut problems);
            out.failed += problems.len() as u64;
            out.failures.extend(problems);
            t.open += result.open;
            t.run += result.run;
            t.eval += result.eval;
            t.batches += result.batches;
            add_stats(&mut t.engine, &resp.engine);
            let s = &resp.tuned.stats;
            t.points += s.points as u64;
            t.variants_derived += s.variants_derived as u64;
            t.certified += s.points_certified as u64;
            t.rejected += s.points_rejected as u64;
            if capture {
                add_stats(&mut t.captured_stats, &resp.engine);
                t.captured_eval += result.eval;
                t.captured.push((i, result.points));
            }
        }
        if traced {
            t.rounds += 1;
            t.wall += wall;
            traced_walls.push(secs(wall));
        } else {
            untraced_walls.push(secs(wall));
            timings.round(secs(wall), requested as f64);
        }
        round += 1;
    }
    let timed = secs(started.elapsed());

    if !ctx.trace {
        let rss = peak_rss_mb("self").unwrap_or(0.0);
        timings.record(&mut out.values, setup_s, rss);
    } else {
        record_layers(ctx, &requests, warm, &t, &mut out);
        record_overhead(&mut out.values, &traced_walls, &untraced_walls);
    }
    eprintln!(
        "eco-benchmark: {} rounds in {timed:.1}s ({} traced)",
        round, t.rounds
    );
    remove_dir(&setup_store);
    out
}

/// Per-layer metrics of a traced tune run, per traced round.
fn record_layers(
    ctx: &Ctx,
    requests: &[TuneRequest],
    warm: bool,
    t: &TraceTotals,
    out: &mut Outcome,
) {
    let rounds = t.rounds.max(1) as f64;
    let mut failures = Vec::new();
    let v = &mut out.values;
    v.set("search.self_ms", ms(t.run.saturating_sub(t.eval)) / rounds);
    v.set("search.points", t.points as f64 / rounds);
    v.set(
        "search.variants_derived",
        t.variants_derived as f64 / rounds,
    );
    v.set("search.certified", t.certified as f64 / rounds);
    v.set("search.rejected", t.rejected as f64 / rounds);
    v.set("search.batches", t.batches as f64 / rounds);
    let mut derive = Duration::ZERO;
    for r in requests {
        let started = Instant::now();
        match NestInfo::from_program(&r.kernel.program) {
            Ok(nest) => {
                std::hint::black_box(derive_variants(&nest, &r.machine, &r.kernel.program));
            }
            Err(e) => failures.push(format!("{}: nest analysis failed: {e:?}", r.kernel.name)),
        }
        derive += started.elapsed();
    }
    v.set("search.derive_ms", ms(derive));
    v.set("engine.open_ms", ms(t.open) / rounds);
    v.set("engine.eval_ms", ms(t.eval) / rounds);
    record_engine(v, &t.engine, rounds);

    // Only a round whose every point was simulated replays the
    // simulator: on a warm store the sim layer did not run.
    let simulated = t.captured_stats.store_hits == 0;
    let mut replay = Replay::default();
    if simulated {
        for (i, points) in &t.captured {
            replay_sim(&requests[*i].machine, points, &mut replay);
        }
    }
    record_replay(
        v,
        &replay,
        simulated.then_some(t.captured_stats.ff_accesses),
        t.captured_eval,
        &mut failures,
    );

    // Only tune-warm's engines have a store: each unique point is looked
    // up there first and written back unless found.
    if warm {
        let puts = t.engine.evaluated - t.engine.store_hits - t.engine.errors;
        v.set("store.puts", puts as f64 / rounds);
        v.set("store.gets", t.engine.evaluated as f64 / rounds);
        v.set("store.bytes_written", t.bytes_written / rounds);
    }
    let captured: Vec<&Point> = t.captured.iter().flat_map(|(_, p)| p).collect();
    let scratch = ctx.work.join("replay-store");
    let replayed = replay_store(&scratch, &captured);
    remove_dir(&scratch);
    match replayed {
        Ok((put_us, get_us, mismatches)) => {
            v.set("store.put_us_p50", put_us);
            v.set("store.get_us_p50", get_us);
            failures.extend(mismatches);
        }
        Err(e) => failures.push(format!("store replay: {e}")),
    }
    check_coverage(v, t.open + t.run, t.wall, &mut failures);
    out.failed += failures.len() as u64;
    out.failures.extend(failures);
}
