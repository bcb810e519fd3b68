//! `eco` — command-line front end to the optimizer.
//!
//! ```text
//! eco kernels                         list built-in kernels
//! eco show <kernel>                   print a kernel's source nest
//! eco variants <kernel> [opts]        Phase 1: derived variants (Table-4 style)
//! eco tune <kernel> [opts]            Phase 1 + 2: full optimization
//! eco lint <kernel> [opts]            statically certify every derived variant
//! eco measure <kernel> [opts]         simulate the untransformed kernel
//! eco report --events PATH [opts]     analyze an event stream (see below)
//! eco serve [opts]                    autotuning daemon on a Unix socket
//! eco client <op> [opts]              one request against a running daemon
//! eco top [--socket S] [--once]       live metrics dashboard for a daemon
//! eco trace [FINGERPRINT] [opts]      span-tree report of a served request
//!
//! options:
//!   --machine sgi|sun    target machine model       (default sgi)
//!   --scale F            shrink the machine by F    (default 32; 1 = full size)
//!                        (variants, lint, measure, tune)
//!   --n N                problem size (lint, measure; default 96)
//!   --search-n N         tuning size                (tune; default 96)
//!   --strategy S         guided|grid|random         (tune; default guided)
//!   --threads N          evaluation threads         (default 0 = auto)
//!   --store DIR          persistent result store shared across processes;
//!                        a second run warm-starts from the first's results
//!   --events FILE        write the structured observability event stream to FILE
//!                        (--threads/--store/--events: measure, tune)
//!   --certify            statically certify every candidate before it is
//!                        measured (tune; always on in debug builds)
//!   --manifest FILE      write the deterministic run manifest to FILE (tune)
//!   --code               also print generated code  (tune)
//! ```
//!
//! Every command accepts exactly the flags it reads, from one table
//! (`COMMANDS`) that also renders its usage line: any other flag fails
//! with `unknown option X` (exit 2) instead of being ignored.
//!
//! serve options (see DESIGN.md "Service layer" for the protocol):
//!   --socket PATH        Unix socket to listen on   (default eco.sock)
//!   --threads/--store    engine configuration for every request
//!   --events FILE        request-level serve event stream
//!   --log-level L        stderr verbosity: quiet|info|debug (default info)
//!   --slow-ms N          slow-request log threshold in ms (default 1000)
//!
//! client ops (each takes `--socket PATH`): `ping`, `stats`,
//! `store-stats`, `shutdown` print the server's JSON response;
//! `metrics` prints the daemon's Prometheus text exposition;
//! `watch <FINGERPRINT>` streams a live request's event lines until it
//! completes; `tune <kernel>` takes the machine and search options of
//! `tune` above plus `--manifest`, and sends one serialized
//! `TuneRequest` — the daemon answers with the same deterministic
//! manifest a local `eco tune --manifest` writes.
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
//!   --no-attribution     skip the attributed re-measurement pass
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
use eco_bench::cli::{self, Args, Command, EngineFlags, Flag, ENGINE, MACHINE, THREADS};
use eco_bench::serve::{self, LogLevel, ServeConfig, Server};
use eco_core::events::Json;
use eco_core::{
    derive_variants, describe_variant, run_manifest, EngineConfig, SearchOptions, SearchStrategy,
    TuneRequest,
};
use eco_exec::{Engine, EvalJob, Evaluator, Params};
use eco_kernels::Kernel;
use std::path::Path;

/// The search options, resolved by [`search_options`].
const SEARCH: &[Flag] = &["--search-n N", "--strategy guided|grid|random", "--certify"];
const SOCKET: &[Flag] = &["--socket PATH"];
const MANIFEST: Flag = "--manifest FILE";

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command::new("kernels", "", &[], kernels),
    Command::new("show", "<kernel>", &[], show),
    Command::new("variants", "<kernel>", &[MACHINE], variants),
    Command::new("tune", "<kernel>", &[MACHINE, SEARCH, ENGINE, &[MANIFEST, "--code"]], tune),
    Command::new("lint", "<kernel>", &[MACHINE, &["--n N"]], lint),
    Command::new("measure", "<kernel>", &[MACHINE, ENGINE, &["--n N"]], measure),
    Command::new("report", "", &[
        &["--events PATH", MANIFEST, "--out DIR"], MACHINE, &[THREADS, "--no-attribution"],
    ], report_cmd),
    Command::new("serve", "", &[SOCKET, ENGINE, &["--log-level L", "--slow-ms N"]], serve_cmd),
    Command::new("client ping", "", &[SOCKET], client_op),
    Command::new("client stats", "", &[SOCKET], client_op),
    Command::new("client store-stats", "", &[SOCKET], client_op),
    Command::new("client metrics", "", &[SOCKET], client_op),
    Command::new("client shutdown", "", &[SOCKET], client_op),
    Command::new("client watch", "<FINGERPRINT>", &[SOCKET], client_watch),
    Command::new("client tune", "<kernel>", &[SOCKET, MACHINE, SEARCH, &[MANIFEST]], client_tune),
    Command::new("top", "", &[SOCKET, &["--once", "--interval SECS"]], top_cmd),
    Command::new("trace", "[FINGERPRINT]", &[SOCKET], trace_cmd),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = cli::run("eco", COMMANDS, &argv) {
        eprintln!("eco: {e}");
        std::process::exit(2);
    }
}

/// The kernel named by the command's first positional.
fn kernel(a: &Args) -> Result<Kernel, String> {
    let name = &a.positionals[0];
    Kernel::all()
        .into_iter()
        .find(|k| &k.name == name)
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

/// The engine configuration [`ENGINE`] selects.
fn engine_config(a: &Args) -> Result<EngineConfig, String> {
    let mut cfg = EngineFlags::from_args(a)?.apply(EngineConfig::new());
    if let Some(path) = a.get("--events") {
        cfg = cfg.events(path);
    }
    Ok(cfg)
}

/// The search options [`SEARCH`] selects over the library defaults.
fn search_options(a: &Args) -> Result<SearchOptions, String> {
    let strategy = match a.get("--strategy").unwrap_or("guided") {
        "guided" => SearchStrategy::Guided,
        "grid" => SearchStrategy::Grid { max_points: 300 },
        "random" => SearchStrategy::Random {
            points: 60,
            seed: 42,
        },
        other => return Err(format!("unknown strategy {other}")),
    };
    SearchOptions::builder()
        .search_n(a.num("--search-n", 96)?)
        .strategy(strategy)
        .certify(cfg!(debug_assertions) || a.has("--certify"))
        .build()
        .map_err(|e| e.to_string())
}

fn socket(a: &Args) -> &Path {
    Path::new(a.get("--socket").unwrap_or("eco.sock"))
}

fn kernels(_: &Args) -> Result<(), String> {
    for k in Kernel::all() {
        let nest = NestInfo::from_program(&k.program).map_err(|e| e.to_string())?;
        println!(
            "{:10} ({} loops, {} arrays)",
            k.name,
            nest.loops.len(),
            k.program.arrays.len()
        );
    }
    Ok(())
}

fn show(a: &Args) -> Result<(), String> {
    print!("{}", kernel(a)?.program);
    Ok(())
}

fn variants(a: &Args) -> Result<(), String> {
    let k = kernel(a)?;
    let machine = cli::machine(a)?;
    let nest = NestInfo::from_program(&k.program).map_err(|e| e.to_string())?;
    let vs = derive_variants(&nest, &machine, &k.program);
    println!("{} variants for {} on {}:", vs.len(), k.name, machine.name);
    for v in &vs {
        println!("{}:", v.name);
        print!("{}", describe_variant(v, &nest, &k.program));
    }
    Ok(())
}

fn tune(a: &Args) -> Result<(), String> {
    let k = kernel(a)?;
    let machine = cli::machine(a)?;
    let sopts = search_options(a)?;
    let config = engine_config(a)?;
    let manifest = a.get("--manifest");
    // Like --events, an unwritable manifest path must fail before the
    // search runs, not after.
    if let Some(path) = manifest {
        std::fs::File::create(path)
            .map_err(|e| format!("cannot create manifest file {path}: {e}"))?;
    }
    let report = TuneRequest::new(k.clone(), machine.clone())
        .options(sopts.clone())
        .engine(config.clone())
        .run()
        .map_err(|e| e.to_string())?;
    if let Some(path) = manifest {
        let doc = run_manifest(&k.name, &machine, &sopts, &config, &report);
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
    if a.has("--store") {
        println!(
            "store: {} hits of {} evaluated",
            report.engine.store_hits, report.engine.evaluated
        );
    }
    println!(
        "at N={}: {:.1} MFLOPS ({} cycles)",
        sopts.search_n,
        tuned.counters.mflops(machine.clock_mhz),
        tuned.counters.cycles()
    );
    if a.has("--code") {
        print!("\n{}", tuned.program);
    }
    Ok(())
}

fn lint(a: &Args) -> Result<(), String> {
    let k = kernel(a)?;
    let machine = cli::machine(a)?;
    let n = a.num("--n", 96)?;
    let entries = eco_core::lint_kernel(&k, &machine, n, 8).map_err(|e| e.to_string())?;
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
        "{}: {} of {} artifacts certified at N={n}",
        k.name,
        entries.len() - bad,
        entries.len(),
    );
    if bad > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn measure(a: &Args) -> Result<(), String> {
    let k = kernel(a)?;
    let machine = cli::machine(a)?;
    let n = a.num("--n", 96)?;
    let engine =
        Engine::with_config(machine.clone(), engine_config(a)?).map_err(|e| e.to_string())?;
    let params = Params::new().with(k.size, n);
    let job = EvalJob::new(k.program.clone(), params).with_label(format!("{}/measure", k.name));
    let c = engine.eval(job).map_err(|e| e.to_string())?;
    println!("{} at N={n} on {}:", k.name, machine.name);
    println!(
        "  loads {}  stores {}  L1 misses {}  L2 misses {}  TLB {}  cycles {}  {:.1} MFLOPS",
        c.loads,
        c.stores,
        c.cache_misses[0],
        c.cache_misses.get(1).copied().unwrap_or(0),
        c.tlb_misses,
        c.cycles(),
        c.mflops(machine.clock_mhz)
    );
    Ok(())
}

fn serve_cmd(a: &Args) -> Result<(), String> {
    let server = Server::bind(ServeConfig {
        socket: socket(a).into(),
        engine: EngineFlags::from_args(a)?.apply(EngineConfig::new()),
        events: a.get("--events").map(String::from),
        log_level: match a.get("--log-level") {
            Some(level) => LogLevel::parse(level)?,
            None => LogLevel::default(),
        },
        slow_ms: a.num("--slow-ms", 1000)?,
    })?;
    server.run()
}

fn top_cmd(a: &Args) -> Result<(), String> {
    let interval = a.num("--interval", 2.0f64)?;
    if interval <= 0.0 || std::time::Duration::try_from_secs_f64(interval).is_err() {
        return Err(format!(
            "bad --interval: {interval} (a positive, finite number of seconds)"
        ));
    }
    eco_bench::top::run(socket(a), a.has("--once"), interval)
}

/// Sends one request line to the daemon; the response, when it says
/// `ok`.
fn call(a: &Args, line: &Json) -> Result<Json, String> {
    let response = serve::request(socket(a), line)?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("request failed");
        return Err(format!("server: {msg}"));
    }
    Ok(response)
}

fn trace_cmd(a: &Args) -> Result<(), String> {
    let mut line = Json::obj().field("op", Json::str("trace"));
    if let Some(fp) = a.positionals.first() {
        line = line.field("fingerprint", Json::str(fp));
    }
    let response = call(a, &line)?;
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

/// `eco client ping|stats|store-stats|metrics|shutdown`.
fn client_op(a: &Args) -> Result<(), String> {
    let op = a.command().trim_start_matches("client ");
    let response = call(a, &Json::obj().field("op", Json::str(op)))?;
    if op == "metrics" {
        print!(
            "{}",
            response
                .get("metrics")
                .and_then(Json::as_str)
                .ok_or("metrics response has no 'metrics' field")?
        );
    } else {
        println!("{}", response.render_compact());
    }
    Ok(())
}

fn client_watch(a: &Args) -> Result<(), String> {
    let fp_text = &a.positionals[0];
    let text = fp_text.strip_prefix("0x").unwrap_or(fp_text);
    let fp =
        u64::from_str_radix(text, 16).map_err(|e| format!("bad fingerprint {fp_text}: {e}"))?;
    // Raw JSONL to stdout: pipeable into a file for `eco report`.
    serve::watch(socket(a), fp, |line| println!("{line}"))?;
    Ok(())
}

fn client_tune(a: &Args) -> Result<(), String> {
    // The daemon owns the engine configuration; the request only says
    // what to tune, so identical tunes from different clients dedupe
    // regardless of local flags.
    let request = TuneRequest::new(kernel(a)?, cli::machine(a)?).options(search_options(a)?);
    let line = Json::obj()
        .field("op", Json::str("tune"))
        .field("request", request.to_json());
    let response = call(a, &line)?;
    let doc = response
        .get("manifest")
        .ok_or("server response has no manifest")?;
    if let Some(path) = a.get("--manifest") {
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
    Ok(())
}

/// The tuned point recorded in a run manifest: `(variant, params)`.
fn manifest_tuned(path: &str) -> Result<(String, Vec<(String, u64)>), String> {
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

fn report_cmd(a: &Args) -> Result<(), String> {
    if a.has("--scale") && !a.has("--machine") {
        return Err("--scale needs --machine".to_string());
    }
    let machine = a.has("--machine").then(|| cli::machine(a)).transpose()?;
    let threads = a.num("--threads", 0)?;
    let events = a.get("--events").ok_or("report needs --events PATH")?;
    let mut opts = eco_report::ReportOptions {
        attribute: !a.has("--no-attribution"),
        ..Default::default()
    };
    opts.attribution.machine = machine;
    opts.attribution.threads = threads;
    if let Some(path) = a.get("--manifest") {
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

    if let Some(dir) = a.get("--out") {
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
