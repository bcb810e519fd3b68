//! `eco` — command-line front end to the optimizer.
//!
//! ```text
//! eco kernels                         list built-in kernels
//! eco show <kernel>                   print a kernel's source nest
//! eco variants <kernel> [opts]        Phase 1: derived variants (Table-4 style)
//! eco tune <kernel> [opts]            Phase 1 + 2: full optimization
//! eco lint <kernel> [opts]            statically certify every derived variant
//! eco lint --sched [--seed S] [--schedules N]
//!                                     concurrency lint: explore service-layer
//!                                     interleavings, fail on ECO-S diagnostics
//! eco measure <kernel> --n <N> [opts] simulate the untransformed kernel
//! eco report --events PATH [opts]     analyze an event stream (see below)
//! eco report --compare OLD NEW        benchmark-trajectory regression gate
//! eco serve [opts]                    autotuning daemon on a Unix socket
//! eco client <op> [opts]              one request against a running daemon
//! eco top [--socket S] [--once]       live metrics dashboard for a daemon
//! eco trace [FINGERPRINT] [opts]      span-tree report of a served request
//!
//! options:
//!   --machine sgi|sun    target machine model       (default sgi)
//!   --scale F            shrink the machine by F    (default 32; 1 = full size)
//!   --n N                problem size               (default 96)
//!   --search-n N         tuning size for `tune`     (default 96)
//!   --strategy S         guided|grid|random         (default guided)
//!   --threads N          evaluation threads         (default 0 = auto)
//!   --store DIR          persistent result store shared across processes;
//!                        a second run warm-starts from the first's results
//!   --certify            statically certify every candidate before it is
//!                        measured (tune; always on in debug builds)
//!   --events FILE        write the structured observability event stream to FILE
//!   --manifest FILE      write the deterministic run manifest to FILE (tune)
//!   --code               also print generated code  (tune)
//! ```
//!
//! serve options (see DESIGN.md "Service layer" for the protocol):
//!   --socket PATH        Unix socket to listen on   (default eco.sock)
//!   --threads/--store    engine configuration for every request
//!   --events FILE        request-level serve event stream
//!   --log-level L        stderr verbosity: quiet|info|debug (default info)
//!   --slow-ms N          slow-request log threshold in ms (default 1000)
//!
//! client ops: `ping`, `stats`, `store-stats`, `shutdown` print the
//! server's JSON response; `metrics` prints the daemon's Prometheus
//! text exposition; `watch <FINGERPRINT>` streams a live request's
//! event lines until it completes; `tune <kernel>` takes the tune
//! options above (machine, search size, strategy, certify, manifest)
//! and sends one serialized `TuneRequest` — the daemon answers with
//! the same deterministic manifest a local `eco tune --manifest`
//! writes.
//!
//! `eco top` polls the daemon's `metrics` op and renders a
//! serve/engine/store/sweep dashboard with rates and latency
//! quantiles (`--interval SECS`, default 2); `--once` prints a single
//! deterministic snapshot. `eco trace [FINGERPRINT]` fetches a
//! completed request's stored event stream from the daemon (latest
//! request when the fingerprint is omitted) and renders it through
//! the `eco report` span-tree profile.
//!
//! report options:
//!   --events PATH        event stream file, or a directory of `*.jsonl` streams
//!   --manifest FILE      run manifest; adds a `tuned` attribution table
//!   --out DIR            also write report.txt/report.html and per-stream CSVs
//!   --machine/--scale    machine override for attribution (default: resolved
//!                        from the stream's engine_init fingerprint)
//!   --threads N          re-measurement threads for attribution
//!   --buf-size N         stream read buffer (any value: same report bytes)
//!   --no-attribution     skip the attributed re-measurement pass
//!   --compare OLD NEW    compare two trajectory JSON files instead
//!   --threshold PCT      allowed regression in percent (default 25)
//!                        (with --compare, --out FILE writes the comparison
//!                        as a standalone HTML page — the CI artifact)
//!
//! `tune` and `measure` run on the parallel memoized evaluation engine;
//! `tune` reports the engine's work alongside the search statistics.
//! `--events` captures the span/event stream (search stages, plan
//! compilations, and one `point` event per evaluated point carrying its
//! label, parameters, memo-hit flag, wall-clock time and simulated
//! counters) and `--manifest` the byte-deterministic run manifest (see
//! DESIGN.md for both schemas). Both files are created up front, so an
//! unwritable path fails before the search starts.

use eco_analysis::NestInfo;
use eco_bench::cli::{flag_value, parse_machine, EngineFlags};
use eco_bench::serve::{self, LogLevel, ServeConfig, Server};
use eco_core::{
    derive_variants, describe_variant, run_manifest, EngineConfig, SearchOptions, SearchStrategy,
    TuneRequest,
};
use eco_exec::{Engine, EvalJob, Evaluator, Params};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;

struct Opts {
    machine: MachineDesc,
    n: i64,
    search_n: i64,
    strategy: SearchStrategy,
    engine: EngineFlags,
    certify: bool,
    events: Option<String>,
    manifest: Option<String>,
    code: bool,
}

impl Opts {
    fn engine_config(&self) -> EngineConfig {
        let mut cfg = self.engine.apply(EngineConfig::new());
        if let Some(path) = &self.events {
            cfg = cfg.events(path.clone());
        }
        cfg
    }

    /// The search options the tune command runs with: the command-line
    /// size/strategy/certify over the library defaults.
    fn search_options(&self) -> Result<SearchOptions, String> {
        SearchOptions::builder()
            .search_n(self.search_n)
            .strategy(self.strategy.clone())
            .certify(cfg!(debug_assertions) || self.certify)
            .build()
            .map_err(|e| e.to_string())
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut machine = "sgi".to_string();
    let mut scale = 32usize;
    let mut n = 96i64;
    let mut search_n = 96i64;
    let mut strategy = SearchStrategy::Guided;
    let mut engine = EngineFlags::new();
    let mut certify = false;
    let mut events = None;
    let mut manifest = None;
    let mut code = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => machine = flag_value("--machine", &mut it)?,
            "--scale" => {
                scale = flag_value("--scale", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--n" => {
                n = flag_value("--n", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --n: {e}"))?
            }
            "--search-n" => {
                search_n = flag_value("--search-n", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --search-n: {e}"))?
            }
            "--strategy" => {
                strategy = match flag_value("--strategy", &mut it)?.as_str() {
                    "guided" => SearchStrategy::Guided,
                    "grid" => SearchStrategy::Grid { max_points: 300 },
                    "random" => SearchStrategy::Random {
                        points: 60,
                        seed: 42,
                    },
                    other => return Err(format!("unknown strategy {other}")),
                }
            }
            "--certify" => certify = true,
            "--events" => events = Some(flag_value("--events", &mut it)?),
            "--manifest" => manifest = Some(flag_value("--manifest", &mut it)?),
            "--code" => code = true,
            other => {
                if !engine.accept(other, &mut it)? {
                    return Err(format!("unknown option {other}"));
                }
            }
        }
    }
    let machine = parse_machine(&machine, scale)?;
    Ok(Opts {
        machine,
        n,
        search_n,
        strategy,
        engine,
        certify,
        events,
        manifest,
        code,
    })
}

fn find_kernel(name: &str) -> Result<Kernel, String> {
    Kernel::all()
        .into_iter()
        .find(|k| k.name == name)
        .ok_or_else(|| {
            format!(
                "unknown kernel {name}; try one of: {}",
                Kernel::all()
                    .iter()
                    .map(|k| k.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => dispatch(cmd, rest),
        None => Err(
            "usage: eco <kernels|show|variants|tune|lint|measure|report|serve|client|top|trace> ..."
                .into(),
        ),
    };
    if let Err(e) = result {
        eprintln!("eco: {e}");
        std::process::exit(2);
    }
}

fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "kernels" => {
            for k in Kernel::all() {
                println!(
                    "{:10} ({} loops, {} arrays)",
                    k.name,
                    {
                        let nest = NestInfo::from_program(&k.program).map_err(|e| e.to_string())?;
                        nest.loops.len()
                    },
                    k.program.arrays.len()
                );
            }
            Ok(())
        }
        "show" => {
            let (name, _) = rest.split_first().ok_or("usage: eco show <kernel>")?;
            let k = find_kernel(name)?;
            print!("{}", k.program);
            Ok(())
        }
        "variants" => {
            let (name, opts) = rest
                .split_first()
                .ok_or("usage: eco variants <kernel> [opts]")?;
            let k = find_kernel(name)?;
            let opts = parse_opts(opts)?;
            let nest = NestInfo::from_program(&k.program).map_err(|e| e.to_string())?;
            let vs = derive_variants(&nest, &opts.machine, &k.program);
            println!(
                "{} variants for {} on {}:",
                vs.len(),
                k.name,
                opts.machine.name
            );
            for v in &vs {
                println!("{}:", v.name);
                print!("{}", describe_variant(v, &nest, &k.program));
            }
            Ok(())
        }
        "tune" => {
            let (name, optargs) = rest
                .split_first()
                .ok_or("usage: eco tune <kernel> [opts]")?;
            let k = find_kernel(name)?;
            let opts = parse_opts(optargs)?;
            // Like --events, an unwritable manifest path must
            // fail before the search runs, not after.
            if let Some(path) = &opts.manifest {
                std::fs::File::create(path)
                    .map_err(|e| format!("cannot create manifest file {path}: {e}"))?;
            }
            let sopts = opts.search_options()?;
            let config = opts.engine_config();
            let report = TuneRequest::new(k.clone(), opts.machine.clone())
                .options(sopts.clone())
                .engine(config.clone())
                .run()
                .map_err(|e| e.to_string())?;
            if let Some(path) = &opts.manifest {
                let doc = run_manifest(&k.name, &opts.machine, &sopts, &config, &report);
                std::fs::write(path, doc.render())
                    .map_err(|e| format!("cannot write manifest file {path}: {e}"))?;
            }
            let tuned = report.tuned;
            println!(
                "selected {} with {:?}, prefetches {:?}",
                tuned.variant.name, tuned.params, tuned.prefetches
            );
            println!(
                "search: {} points over {} variants ({} fully searched)",
                tuned.stats.points, tuned.stats.variants_derived, tuned.stats.variants_searched
            );
            if sopts.certify {
                println!(
                    "certify: {} candidates certified, {} rejected",
                    tuned.stats.points_certified, tuned.stats.points_rejected
                );
            }
            println!(
                "engine: {} points requested, {} evaluated, {} memo hits ({:.0}% hit rate)",
                report.engine.requested,
                report.engine.evaluated,
                report.engine.cache_hits,
                report.engine.hit_rate() * 100.0
            );
            if opts.engine.store.is_some() {
                println!(
                    "store: {} hits of {} evaluated",
                    report.engine.store_hits, report.engine.evaluated
                );
            }
            println!(
                "at N={}: {:.1} MFLOPS ({} cycles)",
                opts.search_n,
                tuned.counters.mflops(opts.machine.clock_mhz),
                tuned.counters.cycles()
            );
            if opts.code {
                print!("\n{}", tuned.program);
            }
            Ok(())
        }
        "lint" => {
            if rest.first().map(String::as_str) == Some("--sched") {
                return lint_sched(&rest[1..]);
            }
            let (name, optargs) = rest
                .split_first()
                .ok_or("usage: eco lint <kernel> [opts]")?;
            let k = find_kernel(name)?;
            let opts = parse_opts(optargs)?;
            let entries =
                eco_core::lint_kernel(&k, &opts.machine, opts.n, 8).map_err(|e| e.to_string())?;
            let mut bad = 0usize;
            for e in &entries {
                let c = &e.cert;
                if c.ok() {
                    println!(
                        "{:<16} {:<16} ok ({} subscripts, {} dependences checked)",
                        e.variant, e.artifact, c.checked_refs, c.checked_deps
                    );
                } else {
                    bad += 1;
                    println!("{:<16} {:<16} FAILED", e.variant, e.artifact);
                    print!("{}", c.render());
                }
            }
            println!(
                "{}: {} of {} artifacts certified at N={}",
                k.name,
                entries.len() - bad,
                entries.len(),
                opts.n
            );
            if bad > 0 {
                std::process::exit(1);
            }
            Ok(())
        }
        "measure" => {
            let (name, optargs) = rest
                .split_first()
                .ok_or("usage: eco measure <kernel> --n <N> [opts]")?;
            let k = find_kernel(name)?;
            let opts = parse_opts(optargs)?;
            let engine = Engine::with_config(opts.machine.clone(), opts.engine_config())
                .map_err(|e| e.to_string())?;
            let params = Params::new().with(k.size, opts.n);
            let job =
                EvalJob::new(k.program.clone(), params).with_label(format!("{}/measure", k.name));
            let c = engine.eval(job).map_err(|e| e.to_string())?;
            println!("{} at N={} on {}:", k.name, opts.n, opts.machine.name);
            println!(
                "  loads {}  stores {}  L1 misses {}  L2 misses {}  TLB {}  cycles {}  {:.1} MFLOPS",
                c.loads,
                c.stores,
                c.cache_misses[0],
                c.cache_misses.get(1).copied().unwrap_or(0),
                c.tlb_misses,
                c.cycles(),
                c.mflops(opts.machine.clock_mhz)
            );
            Ok(())
        }
        "report" => report_cmd(rest),
        "serve" => serve_cmd(rest),
        "client" => client_cmd(rest),
        "top" => top_cmd(rest),
        "trace" => trace_cmd(rest),
        other => Err(format!("unknown command {other}")),
    }
}

fn serve_cmd(rest: &[String]) -> Result<(), String> {
    let mut socket = "eco.sock".to_string();
    let mut engine = EngineFlags::new();
    let mut events = None;
    let mut log_level = LogLevel::default();
    let mut slow_ms = 1000u64;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = flag_value("--socket", &mut it)?,
            "--events" => events = Some(flag_value("--events", &mut it)?),
            "--log-level" => log_level = LogLevel::parse(&flag_value("--log-level", &mut it)?)?,
            "--slow-ms" => {
                slow_ms = flag_value("--slow-ms", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --slow-ms: {e}"))?
            }
            other => {
                if !engine.accept(other, &mut it)? {
                    return Err(format!("unknown serve option {other}"));
                }
            }
        }
    }
    let server = Server::bind(ServeConfig {
        socket: socket.into(),
        engine: engine.apply(EngineConfig::new()),
        events,
        log_level,
        slow_ms,
    })?;
    server.run()
}

/// `eco lint --sched`: the concurrency lint. Runs the built-in
/// eco-sched checker models over the service layer's shared-state
/// protocols and the lock-order analysis across every explored
/// schedule; prints one deterministic block per model and exits
/// nonzero on any ECO-S diagnostic.
fn lint_sched(rest: &[String]) -> Result<(), String> {
    let mut cfg = eco_sched::Config::from_env();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                cfg.seed = flag_value("--seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--schedules" => {
                cfg.max_schedules = flag_value("--schedules", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --schedules: {e}"))?
            }
            other => {
                return Err(format!(
                    "unknown lint --sched option {other} (expected --seed, --schedules)"
                ))
            }
        }
    }
    let reports = eco_core::lint_sched(&cfg);
    let mut schedules = 0u64;
    let mut findings = 0usize;
    for m in &reports {
        let r = &m.report;
        schedules += r.schedules;
        println!("{:<24} {}", m.name, m.covers);
        println!(
            "  schedules: {}{}  seed: {}",
            r.schedules,
            if r.truncated { " (cap reached)" } else { "" },
            r.seed
        );
        for (from, to) in &r.edges {
            println!("  lock order: {from} -> {to}");
        }
        if r.is_clean() {
            println!("  clean");
        }
        for d in &r.diags {
            findings += 1;
            println!("{}", d.render());
        }
    }
    println!(
        "sched lint: {} models, {} schedules explored, {} diagnostics",
        reports.len(),
        schedules,
        findings
    );
    if findings > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn top_cmd(rest: &[String]) -> Result<(), String> {
    let mut socket = "eco.sock".to_string();
    let mut once = false;
    let mut interval = 2.0f64;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = flag_value("--socket", &mut it)?,
            "--once" => once = true,
            "--interval" => {
                interval = flag_value("--interval", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --interval: {e}"))?
            }
            other => return Err(format!("unknown top option {other}")),
        }
    }
    eco_bench::top::run(std::path::Path::new(&socket), once, interval)
}

fn trace_cmd(rest: &[String]) -> Result<(), String> {
    use eco_core::events::Json;
    let mut socket = "eco.sock".to_string();
    let mut fingerprint: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = flag_value("--socket", &mut it)?,
            other if fingerprint.is_none() && !other.starts_with("--") => {
                fingerprint = Some(other.to_string());
            }
            other => return Err(format!("unknown trace option {other}")),
        }
    }
    let mut line = Json::obj().field("op", Json::str("trace"));
    if let Some(fp) = &fingerprint {
        line = line.field("fingerprint", Json::str(fp));
    }
    let response = serve::request(std::path::Path::new(&socket), &line)?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("trace request failed");
        return Err(format!("server: {msg}"));
    }
    let fp = response
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let op = response.get("op").and_then(Json::as_str).unwrap_or("?");
    let events = response
        .get("events")
        .and_then(Json::as_str)
        .ok_or("trace response has no 'events' field")?;
    println!("trace {fp} ({op} request)");
    if events.trim().is_empty() {
        println!("(no events captured for this request)");
    } else {
        // The stored stream renders through the same span-tree profile
        // as `eco report`; attribution needs a live engine, so skip it.
        let opts = eco_report::ReportOptions {
            attribute: false,
            ..Default::default()
        };
        let report = eco_report::analyze_stream(events, &format!("trace:{fp}"), &opts)?;
        print!("{}", eco_report::render_profile_ascii(&report));
    }
    if let Some(doc) = response.get("response") {
        if let Some(stats) = doc.get("engine_stats") {
            println!("engine: {}", stats.render_compact());
        }
        if let Some(variant) = doc
            .get_path("manifest.selected.variant")
            .and_then(Json::as_str)
        {
            let cycles = doc
                .get_path("manifest.selected.cycles")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            println!("selected {variant} ({cycles} cycles)");
        }
    }
    Ok(())
}

fn client_cmd(rest: &[String]) -> Result<(), String> {
    use eco_core::events::Json;
    let usage = "usage: eco client <ping|stats|store-stats|metrics|watch|shutdown|tune> \
                 [--socket PATH] [watch: <FINGERPRINT>] [tune: <kernel> --machine M --scale F \
                 --search-n N --strategy S --certify --manifest FILE]";
    let (op, rest) = rest.split_first().ok_or(usage)?;
    let mut socket = "eco.sock".to_string();
    let mut manifest = None;
    let mut tune_args = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = flag_value("--socket", &mut it)?,
            "--manifest" => manifest = Some(flag_value("--manifest", &mut it)?),
            other => tune_args.push(other.to_string()),
        }
    }
    if op == "watch" {
        let fp_text = tune_args
            .first()
            .ok_or("usage: eco client watch <FINGERPRINT> [--socket PATH]")?;
        let text = fp_text.strip_prefix("0x").unwrap_or(fp_text);
        let fp =
            u64::from_str_radix(text, 16).map_err(|e| format!("bad fingerprint {fp_text}: {e}"))?;
        // Raw JSONL to stdout: pipeable into a file for `eco report`.
        serve::watch(std::path::Path::new(&socket), fp, |line| println!("{line}"))?;
        return Ok(());
    }
    let line = match op.as_str() {
        "ping" | "stats" | "store-stats" | "metrics" | "shutdown" => {
            Json::obj().field("op", Json::str(op))
        }
        "tune" => {
            let (kernel, optargs) = tune_args
                .split_first()
                .ok_or("usage: eco client tune <kernel> [opts]")?;
            let k = find_kernel(kernel)?;
            let opts = parse_opts(optargs)?;
            // The daemon owns the engine configuration; the request only
            // says what to tune, so identical tunes from different
            // clients dedupe regardless of local flags.
            let request = TuneRequest::new(k, opts.machine.clone()).options(opts.search_options()?);
            Json::obj()
                .field("op", Json::str("tune"))
                .field("request", request.to_json())
        }
        other => return Err(format!("unknown client op {other}; {usage}")),
    };
    let response = serve::request(std::path::Path::new(&socket), &line)?;
    if !response.get("ok").and_then(Json::as_bool).unwrap_or(false) {
        let msg = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("request failed");
        return Err(format!("server: {msg}"));
    }
    if op == "metrics" {
        print!(
            "{}",
            response
                .get("metrics")
                .and_then(Json::as_str)
                .ok_or("metrics response has no 'metrics' field")?
        );
    } else if op == "tune" {
        let doc = response
            .get("manifest")
            .ok_or("server response has no manifest")?;
        if let Some(path) = &manifest {
            std::fs::write(path, doc.render())
                .map_err(|e| format!("cannot write manifest file {path}: {e}"))?;
        }
        let variant = doc
            .get_path("selected.variant")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let cycles = doc
            .get_path("selected.cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        println!("selected {variant} ({cycles} cycles)");
        if let Some(stats) = response.get("engine_stats") {
            println!("engine: {}", stats.render_compact());
        }
    } else {
        println!("{}", response.render_compact());
    }
    Ok(())
}

struct ReportArgs {
    events: Option<String>,
    manifest: Option<String>,
    out: Option<String>,
    machine: Option<MachineDesc>,
    threads: usize,
    buf_size: usize,
    attribute: bool,
    compare: Option<(String, String)>,
    threshold: f64,
}

fn parse_report_args(args: &[String]) -> Result<ReportArgs, String> {
    let mut events = None;
    let mut manifest = None;
    let mut out = None;
    let mut machine_name: Option<String> = None;
    let mut scale = 32usize;
    let mut threads = 0usize;
    let mut buf_size = 64 * 1024;
    let mut attribute = true;
    let mut compare = None;
    let mut threshold = 25.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--events" => events = Some(flag_value("--events", &mut it)?),
            "--manifest" => manifest = Some(flag_value("--manifest", &mut it)?),
            "--out" => out = Some(flag_value("--out", &mut it)?),
            "--machine" => machine_name = Some(flag_value("--machine", &mut it)?),
            "--scale" => {
                scale = flag_value("--scale", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--threads" => {
                threads = flag_value("--threads", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--buf-size" => {
                buf_size = flag_value("--buf-size", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --buf-size: {e}"))?
            }
            "--no-attribution" => attribute = false,
            "--compare" => {
                let old = flag_value("--compare", &mut it)?;
                let new = flag_value("--compare", &mut it)?;
                compare = Some((old, new));
            }
            "--threshold" => {
                threshold = flag_value("--threshold", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --threshold: {e}"))?
            }
            other => return Err(format!("unknown report option {other}")),
        }
    }
    let machine = match machine_name.as_deref() {
        None => None,
        Some(name) => Some(parse_machine(name, scale)?),
    };
    Ok(ReportArgs {
        events,
        manifest,
        out,
        machine,
        threads,
        buf_size,
        attribute,
        compare,
        threshold,
    })
}

/// The tuned point recorded in a run manifest: `(variant, params)`.
fn manifest_tuned(path: &str) -> Result<(String, Vec<(String, u64)>), String> {
    use eco_core::events::Json;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("manifest {path}: {e}"))?;
    let variant = doc
        .get_path("selected.variant")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("manifest {path}: no selected.variant"))?
        .to_string();
    let params = match doc.get_path("selected.params") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|u| (k.clone(), u)))
            .collect(),
        _ => Vec::new(),
    };
    Ok((variant, params))
}

/// Event stream files for `--events`: the path itself, or every
/// `*.jsonl` inside it (sorted, so reports are ordered
/// deterministically).
fn stream_files(path: &str) -> Result<Vec<std::path::PathBuf>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if meta.is_file() {
        return Ok(vec![path.into()]);
    }
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no *.jsonl event streams found"));
    }
    Ok(files)
}

fn report_cmd(rest: &[String]) -> Result<(), String> {
    use eco_core::events::Json;
    let args = parse_report_args(rest)?;

    if let Some((old_path, new_path)) = &args.compare {
        let old = Json::parse(
            &std::fs::read_to_string(old_path)
                .map_err(|e| format!("cannot read {old_path}: {e}"))?,
        )
        .map_err(|e| format!("{old_path}: {e}"))?;
        let new = Json::parse(
            &std::fs::read_to_string(new_path)
                .map_err(|e| format!("cannot read {new_path}: {e}"))?,
        )
        .map_err(|e| format!("{new_path}: {e}"))?;
        let cmp = eco_report::compare_trajectories(&old, &new, args.threshold);
        print!("{}", eco_report::render_comparison(&cmp));
        if let Some(out) = &args.out {
            // The HTML page is written before the pass/fail exit so CI
            // can upload it as an artifact even when the gate fails.
            std::fs::write(out, eco_report::render_comparison_html(&cmp))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
        }
        if !cmp.passed() {
            std::process::exit(1);
        }
        return Ok(());
    }

    let events = args
        .events
        .as_deref()
        .ok_or("usage: eco report --events PATH | --compare OLD NEW")?;
    let mut opts = eco_report::ReportOptions {
        buf_size: args.buf_size,
        attribute: args.attribute,
        ..Default::default()
    };
    opts.attribution.machine = args.machine.clone();
    opts.attribution.threads = args.threads;
    if let Some(path) = &args.manifest {
        opts.attribution.tuned = Some(manifest_tuned(path)?);
    }

    let mut reports = Vec::new();
    for file in stream_files(events)? {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let source = file.file_name().map_or_else(
            || file.display().to_string(),
            |n| n.to_string_lossy().into(),
        );
        reports.push((
            file.clone(),
            eco_report::analyze_stream(&text, &source, &opts)?,
        ));
    }

    for (_, report) in &reports {
        print!("{}", eco_report::render_profile_ascii(report));
        if !report.attribution.is_empty() {
            print!(
                "{}",
                eco_report::render_attribution_ascii(&report.attribution)
            );
        }
        if let Some(e) = &report.attribution_error {
            println!("\n(attribution skipped: {e})");
        }
        println!();
    }

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let mut text = String::new();
        for (file, report) in &reports {
            text.push_str(&eco_report::render_profile_ascii(report));
            text.push_str(&eco_report::render_attribution_ascii(&report.attribution));
            text.push('\n');
            let stem = file
                .file_stem()
                .map_or_else(|| "stream".to_string(), |s| s.to_string_lossy().into());
            std::fs::write(
                format!("{dir}/{stem}.profile.csv"),
                eco_report::render_profile_csv(&report.profile),
            )
            .map_err(|e| format!("cannot write profile CSV: {e}"))?;
            std::fs::write(
                format!("{dir}/{stem}.attribution.csv"),
                eco_report::render_attribution_csv(&report.attribution),
            )
            .map_err(|e| format!("cannot write attribution CSV: {e}"))?;
        }
        std::fs::write(format!("{dir}/report.txt"), text)
            .map_err(|e| format!("cannot write report.txt: {e}"))?;
        let only: Vec<eco_report::RunReport> = reports.iter().map(|(_, r)| r.clone()).collect();
        std::fs::write(format!("{dir}/report.html"), eco_report::render_html(&only))
            .map_err(|e| format!("cannot write report.html: {e}"))?;
        println!("wrote report.txt, report.html and per-stream CSVs to {dir}/");
    }
    Ok(())
}
