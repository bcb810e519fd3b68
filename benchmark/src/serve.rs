//! The `serve-mix` workload: the `eco serve` daemon in a child process
//! (this binary's `serve-daemon` mode, which runs
//! `eco_bench::serve::Server`) answering two closed-loop clients, each
//! on its own connection, with a seeded mix of tune, metrics, stats and
//! ping requests.

use crate::common::{peak_rss_mb, secs, timed_setup, Ctx, Outcome, Rng, Timings, THREADS};
use crate::layers::ratio;
use crate::stats::{median, percentile};
use crate::tune::{certified, manifest};
use eco_bench::serve::{self, LogLevel, ServeConfig, Server};
use eco_core::events::Json;
use eco_core::TuneRequest;
use eco_exec::{Engine, EngineConfig};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_metrics::{parse_exposition, Exposition};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// The tune pool: cheap requests on both machines, so repeats are
/// search-bound memo hits on the daemon's shared engines.
fn pool() -> Vec<TuneRequest> {
    let sgi = MachineDesc::sgi_r10000().scaled(32);
    let sun = MachineDesc::ultrasparc_iie().scaled(32);
    let mut pool = Vec::new();
    for machine in [&sgi, &sun] {
        for (kernel, n) in [
            (Kernel::matvec(), 64),
            (Kernel::matvec(), 96),
            (Kernel::stencil5(), 64),
            (Kernel::stencil5(), 96),
            (Kernel::matmul(), 24),
            (Kernel::jacobi3d(), 12),
        ] {
            pool.push(certified(kernel, machine, n));
        }
    }
    pool.push(certified(Kernel::syrk(), &sgi, 24));
    pool
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Tune(usize),
    Metrics,
    Stats,
    Ping,
}

/// One client's block of requests: every pool request once, plus
/// control ops in the proportions 50% tune, ~12% metrics, ~12% stats,
/// ~27% ping, in seeded order. Exact counts per block keep every run's
/// mix the same; only the order depends on the seed.
fn block(rng: &mut Rng, pool: usize) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..pool).map(Op::Tune).collect();
    ops.extend([Op::Metrics; 3]);
    ops.extend([Op::Stats; 3]);
    ops.extend([Op::Ping; 7]);
    rng.shuffled(&ops)
}

/// Entry point of the `serve-daemon` mode: serve on `socket` with a
/// result store at `store` until a `shutdown` request, or until stdin
/// closes — the parent holds the other end of that pipe, so a daemon
/// never outlives a benchmark process that was killed.
pub fn daemon(socket: &Path, store: &Path) -> Result<(), String> {
    let config = ServeConfig {
        log_level: LogLevel::Quiet,
        ..ServeConfig::new(socket, EngineConfig::new().threads(THREADS).store(store))
    };
    let server = Server::bind(config)?;
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    server.run()
}

/// A daemon child process, shut down and waited for when dropped.
struct Daemon {
    child: Child,
    socket: PathBuf,
    /// The daemon's stdin: it exits when this closes.
    _lifeline: ChildStdin,
}

impl Daemon {
    fn spawn(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-daemon")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("store"))
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let lifeline = child.stdin.take().expect("stdin was piped");
        let daemon = Daemon {
            child,
            socket,
            _lifeline: lifeline,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let ping = serve::request(&daemon.socket, &Json::obj().field("op", Json::str("ping")));
            match ping {
                Ok(doc) if doc.get("ok").and_then(Json::as_bool) == Some(true) => {
                    return Ok(daemon)
                }
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                other => return Err(format!("daemon did not answer ping: {other:?}")),
            }
        }
    }

    fn call(&self, op: &str) -> Result<Json, String> {
        serve::request(&self.socket, &Json::obj().field("op", Json::str(op)))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.call("shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One persistent client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads its response line.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if response.is_empty() {
            return Err("daemon closed the connection".into());
        }
        Json::parse(response.trim_end()).map_err(|e| format!("bad response: {e}"))
    }
}

/// A served manifest without its `engine_stats`: the daemon reports
/// the shared engine's work between the start and end of the tune,
/// which includes memo hits from earlier tunes and points evaluated
/// for the other client meanwhile. Everything the search decided must
/// still match a fresh local run byte for byte.
fn comparable(manifest: &Json) -> String {
    match manifest {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "engine_stats")
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// The problems with one response: not ok, or (for a tune) a manifest
/// that differs from the local reference, or engine work that does not
/// add up.
fn check(op: Op, response: &Json, reference: &[String]) -> Vec<String> {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return vec![format!("{op:?}: not ok: {}", response.render_compact())];
    }
    match op {
        Op::Tune(i) => {
            let mut problems = Vec::new();
            match response.get("manifest") {
                Some(m) if comparable(m) == reference[i] => {}
                _ => problems.push(format!(
                    "tune {i}: served manifest differs from the local run"
                )),
            }
            let n = |f: &str| {
                response
                    .get_path(&format!("engine_stats.{f}"))
                    .and_then(Json::as_u64)
            };
            match (
                n("requested"),
                n("evaluated"),
                n("cache_hits"),
                n("dedup_waits"),
            ) {
                (Some(r), Some(e), Some(c), Some(d)) if e + c + d == r => {}
                _ => problems.push(format!("tune {i}: engine_stats do not add up")),
            }
            problems
        }
        Op::Metrics => match response
            .get("metrics")
            .and_then(Json::as_str)
            .map(parse_exposition)
        {
            Some(Ok(_)) => Vec::new(),
            _ => vec!["metrics: exposition does not parse".into()],
        },
        Op::Stats => match response.get("requests").and_then(Json::as_u64) {
            Some(_) => Vec::new(),
            None => vec!["stats: no request count".into()],
        },
        Op::Ping => Vec::new(),
    }
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    /// (op, latency ms) of every request sent.
    ops: Vec<(Op, f64)>,
    /// Wall time, in s, of every block.
    blocks: Vec<f64>,
    wall: f64,
    problems: Vec<Vec<String>>,
    search: [u64; 4],
}

fn client(
    ctx: &Ctx,
    id: u64,
    socket: &Path,
    lines: &[String],
    reference: &[String],
    pool: usize,
    started: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(socket) {
        Ok(c) => c,
        Err(e) => {
            log.problems.push(vec![format!("client {id}: {e}")]);
            return log;
        }
    };
    let mut rng = Rng::new(ctx.seed, 100 + id);
    let control = |op: Op| {
        format!(
            "{{\"op\":\"{}\"}}\n",
            match op {
                Op::Metrics => "metrics",
                Op::Stats => "stats",
                _ => "ping",
            }
        )
    };
    let client_started = Instant::now();
    while !ctx.done(started, log.blocks.len()) {
        let block_started = Instant::now();
        for op in block(&mut rng, pool) {
            let line = match op {
                Op::Tune(i) => lines[i].clone(),
                other => control(other),
            };
            let sent = Instant::now();
            let response = conn.call(&line);
            log.ops.push((op, secs(sent.elapsed()) * 1e3));
            let problems = match response {
                Ok(doc) => {
                    if let Op::Tune(_) = op {
                        let n = |f: &str| doc.get_path(f).and_then(Json::as_u64).unwrap_or(0);
                        for (slot, field) in log.search.iter_mut().zip([
                            "manifest.search.points",
                            "manifest.search.variants_derived",
                            "manifest.search.points_certified",
                            "manifest.search.points_rejected",
                        ]) {
                            *slot += n(field);
                        }
                    }
                    check(op, &doc, reference)
                }
                Err(e) => vec![format!("{op:?}: {e}")],
            };
            log.problems.push(problems);
        }
        log.blocks.push(secs(block_started.elapsed()));
    }
    log.wall = secs(client_started.elapsed());
    log
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool();
    let (setup_s, setup) = timed_setup(|rep| {
        let daemon = Daemon::spawn(&ctx.work.join(format!("daemon-{rep}")))?;
        let reference = pool
            .iter()
            .map(|r| {
                let engine =
                    Engine::with_config(r.machine.clone(), EngineConfig::new().threads(THREADS))
                        .map_err(|e| e.to_string())?;
                let response = r.run_on(&engine).map_err(|e| e.to_string())?;
                let manifest = Json::parse(&manifest(r, &response)).map(|m| comparable(&m))?;
                Ok((manifest, response.engine.requested))
            })
            .collect::<Result<Vec<(String, u64)>, String>>()?;
        Ok::<_, String>((daemon, reference))
    });
    let (daemon, (reference, requested)): (Daemon, (Vec<String>, Vec<u64>)) = match setup {
        Ok((daemon, reference)) => (daemon, reference.into_iter().unzip()),
        Err(e) => {
            out.op(vec![format!("setup: {e}")]);
            return out;
        }
    };
    let lines: Vec<String> = pool
        .iter()
        .map(|r| {
            let mut line = Json::obj()
                .field("op", Json::str("tune"))
                .field("request", r.to_json())
                .render_compact();
            line.push('\n');
            line
        })
        .collect();

    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|id| {
                let (socket, lines, reference, n) =
                    (&daemon.socket, &lines, &reference, pool.len());
                s.spawn(move || client(ctx, id, socket, lines, reference, n, started))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timed = secs(started.elapsed());

    let scrape = daemon.call("metrics").ok().and_then(|d| {
        d.get("metrics")
            .and_then(Json::as_str)
            .map(parse_exposition)
    });
    let rss = peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    drop(daemon);

    let latency = |want: fn(Op) -> bool| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| &l.ops)
            .filter(|(op, _)| want(*op))
            .map(|&(_, ms)| ms)
            .collect()
    };
    let tunes = latency(|op| matches!(op, Op::Tune(_)));
    let all = latency(|_| true);
    let pings = latency(|op| op == Op::Ping);
    let stats = latency(|op| op == Op::Stats);
    let metrics = latency(|op| op == Op::Metrics);
    for log in &logs {
        for problems in &log.problems {
            out.op(problems.clone());
        }
    }
    let blocks: Vec<f64> = logs.iter().flat_map(|l| l.blocks.iter().copied()).collect();
    let n_blocks = blocks.len().max(1) as f64;
    eprintln!(
        "eco-benchmark: {} requests ({} tunes) in {timed:.1}s, {} blocks",
        all.len(),
        tunes.len(),
        blocks.len()
    );

    let v = &mut out.values;
    if !ctx.trace {
        // Every block tunes each pool request once: its points are the
        // pool's, as a local run of each request counts them.
        let block_points: u64 = requested.iter().sum();
        let mut timings = Timings::default();
        for &wall in &blocks {
            timings.round(wall, block_points as f64);
        }
        for (op, ms) in logs.iter().flat_map(|l| &l.ops) {
            if let Op::Tune(i) = op {
                timings.op(*i, *ms);
            }
        }
        timings.record(v, setup_s, rss);
        return out;
    }
    v.set("serve.req_p90_ms", percentile(&all, 90.0).unwrap_or(0.0));
    v.set("serve.tune_p90_ms", percentile(&tunes, 90.0).unwrap_or(0.0));
    v.set("serve.ping_p50_ms", median(&pings).unwrap_or(0.0));
    v.set("serve.stats_p50_ms", median(&stats).unwrap_or(0.0));
    v.set("serve.metrics_p50_ms", median(&metrics).unwrap_or(0.0));
    for (i, name) in [
        "search.points",
        "search.variants_derived",
        "search.certified",
        "search.rejected",
    ]
    .into_iter()
    .enumerate()
    {
        let total: u64 = logs.iter().map(|l| l.search[i]).sum();
        v.set(name, total as f64 / n_blocks);
    }
    let mut failures = Vec::new();
    match scrape {
        Some(Ok(e)) => record_scrape(v, &e, n_blocks, tunes.len() as f64, &mut failures),
        _ => failures.push("serve: final metrics scrape failed".into()),
    }
    let spans: f64 = all.iter().sum::<f64>() / 1e3;
    let walls: f64 = logs.iter().map(|l| l.wall).sum();
    crate::layers::check_coverage(
        v,
        Duration::from_secs_f64(spans),
        Duration::from_secs_f64(walls),
        &mut failures,
    );
    // `trace.overhead` stays 0: a traced run sends the same requests and
    // only scrapes the daemon after the timed phase.
    out.failed += failures.len() as u64;
    out.failures.extend(failures);
    out
}

/// Daemon-side numbers from the final `metrics` scrape: the serve
/// registry plus the daemon's process-wide engine and store counters.
fn record_scrape(
    v: &mut crate::spec::Values,
    e: &Exposition,
    blocks: f64,
    tunes: f64,
    failures: &mut Vec<String>,
) {
    let total = |name: &str| e.total(name);
    if let Some(us) = e.quantile("eco_serve_request_duration_us", &[("op", "tune")], 0.5) {
        v.set("serve.server_tune_p50_ms", us / 1e3);
    }
    let deduped = total("eco_serve_deduped_requests_total");
    v.set("serve.deduped", deduped / blocks);
    v.set("serve.dedupe_ratio", ratio(deduped, tunes));
    v.set("serve.connections", total("eco_serve_connections_total"));
    let requested = total("eco_engine_points_requested_total");
    let evaluated = total("eco_engine_points_evaluated_total");
    let memo = total("eco_engine_memo_hits_total");
    let waits = total("eco_engine_dedup_waits_total");
    if evaluated + memo + waits != requested {
        failures.push(format!(
            "ledger: daemon engines: evaluated {evaluated} + memo hits {memo} + dedup waits {waits} != requested {requested}"
        ));
    }
    v.set("engine.requested", requested / blocks);
    v.set("engine.evaluated", evaluated / blocks);
    v.set("engine.memo_hits", memo / blocks);
    v.set("engine.memo_hit_ratio", ratio(memo, requested));
    v.set(
        "engine.store_hits",
        total("eco_engine_store_hits_total") / blocks,
    );
    v.set("engine.dedup_waits", waits / blocks);
    v.set(
        "engine.eval_ms",
        total("eco_engine_eval_duration_us_sum") / 1e3 / blocks,
    );
    v.set("store.puts", total("eco_store_puts_total") / blocks);
    v.set(
        "store.gets",
        (total("eco_store_hits_total") + total("eco_store_misses_total")) / blocks,
    );
    v.set(
        "store.bytes_written",
        total("eco_store_bytes_written_total") / blocks,
    );
}
