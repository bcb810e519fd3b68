//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! repro table1       Table 1: counter variation across parameter sets
//! repro table2       Table 2: machine descriptions
//! repro table3       Table 3: compiler flags (substitution note)
//! repro table4       Table 4: Matrix Multiply variants on the SGI
//! repro fig4a        Figure 4(a): MM MFLOPS vs size, SGI (scaled)
//! repro fig4b        Figure 4(b): MM MFLOPS vs size, UltraSparc (scaled)
//! repro fig5a        Figure 5(a): Jacobi MFLOPS vs size, SGI (scaled)
//! repro fig5b        Figure 5(b): Jacobi MFLOPS vs size, Sun (scaled)
//! repro searchcost   §4.3: search points, ECO vs the ATLAS-like search
//! repro modelvsearch Ablation: model-only parameters vs guided search
//! repro prefetch     Ablation: prefetch on/off and distance sweep
//! repro copyablation Ablation: copy vs no-copy at pathological sizes
//! repro padding      Ablation: array padding stabilizes Jacobi (§4.2)
//! repro strategies   Ablation: guided vs grid vs random search
//! repro attribution  Analysis: per-array miss attribution (mm1 vs mm4)
//! repro modelrank    Analysis: static-model ranking vs measured ranking
//! repro plan FIG     Print the figure's deterministic shard plan
//!                    (`--plan-out FILE` writes it instead)
//! repro shard --shard FILE
//!                    Execute one shard manifest (the worker entry
//!                    point `repro sweep` spawns); with `--store DIR`
//!                    the completion record lands in the store,
//!                    otherwise the result document goes to stdout
//! repro sweep FIG    Plan, execute and gather one figure as a sharded
//!                    sweep: a local worker pool (`--workers N`) or an
//!                    `eco serve` daemon (`--remote SOCKET`) against a
//!                    shared result store; a killed sweep resumes on
//!                    re-run, skipping completed shards
//! repro all          Everything above the sweep commands, also written
//!                    to results/
//! repro check        Golden-results gate: regenerate every committed
//!                    figure CSV and run manifest in memory and diff
//!                    them byte-for-byte against results/; also
//!                    validates the event streams the regeneration just
//!                    emitted with the emitter's invariant checker;
//!                    exits nonzero on any drift. With `--workers N`
//!                    (N > 1) the figures regenerate through the
//!                    sharded sweep path instead — same bytes required
//! ```
//!
//! options (after the command). Each command accepts only the ones it
//! reads, from one table (`COMMANDS`) that also renders its usage line,
//! and fails with `unknown option X` (exit 2) on any other; table2-4
//! and attribution take none, plan only --shard-sizes and --plan-out.
//!   --threads N      evaluation threads (0 = auto, the default)
//!   --store DIR      persistent result store: a second run against the
//!                    same DIR warm-starts from the first one's results
//!                    (same bytes out, far fewer simulations)
//!   --events DIR     write a structured event stream per command to DIR
//!                    (not `sweep`: its workers always write theirs
//!                    under the sweep directory's events/)
//!   --workers N      figures/all/check/sweep: shard the figure
//!                    across N parallel worker processes (1 = serial)
//!   --shard-sizes K  measure sizes per shard in the plan (default 4)
//!   --sweep-dir DIR  figures/all/sweep: root for sweep artifacts
//!                    (default .eco-sweep); each figure works in DIR/FIG
//!   --remote SOCKET  figures/all/check/sweep: execute shards on an
//!                    eco serve daemon instead of spawning local workers
//!   --plan-out FILE  plan only: write the plan JSON to FILE
//!   --figure-scale K sweep only: machine scale factor (default 32, the
//!                    golden scale; 1 = the full-size machine — the
//!                    nightly CI budget run, never diffed vs results/)
//!
//! All measurements flow through one [`eco_core::Engine`] per command:
//! batches are evaluated in parallel, repeated points are served from
//! the memo cache, and results come back in submission order, so every
//! table, CSV and manifest is byte-identical whatever `--threads` says
//! — the property `repro check` (and the CI `golden` job) gates.
//! The sharded path extends the same property across process
//! boundaries: one fresh engine per shard plus the shared store
//! reproduces the serial bytes, which `repro check --workers N` gates.
//!
//! CSV and manifest output for each figure is written to `results/`
//! when it exists (created by `repro all`).

use eco_analysis::NestInfo;
use eco_baselines::{atlas_mm_with, model_only};
use eco_bench::cli::{self, Args, Command, EngineFlags, Flag, ENGINE, STORE, THREADS};
use eco_bench::figures::{self, FigureDef, RunOpts};
use eco_bench::sweep::{run_sweep, SweepConfig};
use eco_bench::{
    counters_at_with, jacobi_table_row, mflops_at_with, mm_copy_variant, mm_table_row, Sweep,
    FIGURE_SCALE,
};
use eco_core::events::Json;
use eco_core::{
    derive_variants, describe_variant, EngineConfig, Evaluator, Optimizer, SearchOptions, Shard,
};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_store::ResultStore;
use std::fs;
use std::path::PathBuf;

const WORKERS: Flag = "--workers N";
const REMOTE: Flag = "--remote SOCKET";
const SHARD_SIZES: Flag = "--shard-sizes K";
/// The sharded-sweep flags of the figure commands.
const SWEEP: &[Flag] = &[WORKERS, REMOTE, "--sweep-dir DIR", SHARD_SIZES];

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command::new("table1", "", &[ENGINE], |a| engine(a, table1)),
    Command::new("table2", "", &[], |_| plain(table2)),
    Command::new("table3", "", &[], |_| plain(table3)),
    Command::new("table4", "", &[], |_| plain(table4)),
    Command::new("fig4a", "", &[ENGINE, SWEEP], figure_cmd),
    Command::new("fig4b", "", &[ENGINE, SWEEP], figure_cmd),
    Command::new("fig5a", "", &[ENGINE, SWEEP], figure_cmd),
    Command::new("fig5b", "", &[ENGINE, SWEEP], figure_cmd),
    Command::new("searchcost", "", &[ENGINE], |a| engine(a, searchcost)),
    Command::new("modelvsearch", "", &[ENGINE], |a| engine(a, modelvsearch)),
    Command::new("prefetch", "", &[ENGINE], |a| engine(a, prefetch_ablation)),
    Command::new("copyablation", "", &[ENGINE], |a| engine(a, copy_ablation)),
    Command::new("padding", "", &[ENGINE], |a| engine(a, padding_ablation)),
    Command::new("strategies", "", &[ENGINE], |a| engine(a, strategies_ablation)),
    Command::new("attribution", "", &[], |_| plain(attribution)),
    Command::new("modelrank", "", &[ENGINE], |a| engine(a, model_rank)),
    Command::new("plan", "<FIG>", &[&[SHARD_SIZES, "--plan-out FILE"]], plan_cmd),
    Command::new("shard", "", &[ENGINE, &["--shard FILE"]], shard_cmd),
    Command::new("sweep", "<FIG>", &[&[THREADS, STORE], SWEEP, &["--figure-scale K"]], sweep_cmd),
    Command::new("all", "", &[ENGINE, SWEEP], all),
    Command::new("check", "", &[ENGINE, &[WORKERS, REMOTE, SHARD_SIZES]], check),
];

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        argv.push("all".to_string());
    }
    if let Err(e) = cli::run("repro", COMMANDS, &argv) {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
}

/// Runs a command that reads no flags.
fn plain(command: fn()) -> Result<(), String> {
    command();
    Ok(())
}

/// Runs a command that reads only the [`ENGINE`] flags.
fn engine(a: &Args, command: fn(&RunOpts)) -> Result<(), String> {
    command(&run_opts(a)?);
    Ok(())
}

/// The engine and telemetry options of an [`ENGINE`] command.
fn run_opts(a: &Args) -> Result<RunOpts, String> {
    Ok(RunOpts {
        flags: EngineFlags::from_args(a)?,
        events_dir: a.get("--events").map(String::from),
    })
}

/// A sweep of `workers` local processes against a cold store inside
/// `sweep_dir` (workers write their own event streams there).
fn sweep_config(
    a: &Args,
    sweep_dir: PathBuf,
    workers: usize,
    verbose: bool,
) -> Result<SweepConfig, String> {
    Ok(SweepConfig {
        opts: RunOpts {
            flags: EngineFlags::from_args(a)?,
            events_dir: None,
        },
        workers,
        sizes_per_shard: a.num("--shard-sizes", 4)?,
        store: sweep_dir.join("store"),
        sweep_dir,
        worker_exe: std::env::current_exe()
            .unwrap_or_else(|e| panic!("cannot locate the repro binary: {e}")),
        remote: None,
        verbose,
    })
}

/// The sweep a figure command's [`SWEEP`] flags select: the figure's
/// directory under `--sweep-dir`, against `--store` when given.
fn figure_sweep(a: &Args, name: &str) -> Result<SweepConfig, String> {
    let sweep_dir = PathBuf::from(a.get("--sweep-dir").unwrap_or(".eco-sweep")).join(name);
    let mut config = sweep_config(a, sweep_dir, a.num("--workers", 1)?, true)?;
    if let Some(store) = a.get("--store") {
        config.store = store.into();
    }
    config.remote = a.get("--remote").map(PathBuf::from);
    Ok(config)
}

fn figure_cmd(a: &Args) -> Result<(), String> {
    let def = figures::figure(a.command()).expect("every figure row names a figure");
    let sweep = figure_sweep(a, def.name)?;
    figure_output(def, &run_opts(a)?, &sweep).map(drop)
}

/// `repro all`: every table and figure, the figures also written to
/// `results/`.
fn all(a: &Args) -> Result<(), String> {
    let run = run_opts(a)?;
    let sweeps = figures::FIGURES
        .iter()
        .map(|def| figure_sweep(a, def.name))
        .collect::<Result<Vec<_>, _>>()?;
    let _ = fs::create_dir_all("results");
    table2();
    table3();
    table4();
    table1(&run);
    for (def, sweep) in figures::FIGURES.iter().zip(&sweeps) {
        save(def.name, figure_output(def, &run, sweep)?);
    }
    searchcost(&run);
    modelvsearch(&run);
    prefetch_ablation(&run);
    copy_ablation(&run);
    padding_ablation(&run);
    strategies_ablation(&run);
    attribution();
    model_rank(&run);
    Ok(())
}

fn save(name: &str, out: (Sweep, String)) {
    if fs::metadata("results").is_ok() {
        let _ = fs::write(format!("results/{name}.csv"), out.0.to_csv());
        let _ = fs::write(format!("results/{name}.manifest.json"), out.1);
    }
}

// ---------------------------------------------------------------- sweeps

/// One figure's outputs, by whichever path `sweep` selects: the serial
/// runner, or the sharded sweep (`--workers`/`--remote`).
fn figure_output(
    def: &'static FigureDef,
    run: &RunOpts,
    sweep: &SweepConfig,
) -> Result<(Sweep, String), String> {
    if sweep.workers <= 1 && sweep.remote.is_none() {
        return Ok(figures::run(def, run));
    }
    println!("{}", def.banner());
    let outcome = run_sweep(&def.spec(), sweep)?;
    print!("{}", outcome.sweep.to_table());
    println!(
        "   sweep: {} shard(s) planned, {} executed, {} skipped in {:.1}s ({} worker(s))",
        outcome.planned, outcome.executed, outcome.skipped, outcome.wall_secs, sweep.workers
    );
    println!();
    Ok((outcome.sweep, outcome.manifest))
}

/// `repro plan FIG`: print (or write) the figure's shard plan.
fn plan_cmd(a: &Args) -> Result<(), String> {
    let name = &a.positionals[0];
    let def = figures::figure(name).ok_or_else(|| format!("plan: unknown figure {name}"))?;
    let plan = eco_core::SweepPlan::plan(&def.spec(), a.num("--shard-sizes", 4)?)?;
    let text = plan.to_json().render();
    match a.get("--plan-out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "wrote plan for {name} to {path} ({} shards, fingerprint {:#018x})",
                plan.shards.len(),
                plan.fingerprint()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `repro shard --shard FILE`: the worker entry point. Executes one
/// shard manifest on a fresh engine; with `--store` the result becomes
/// the shard's completion record, otherwise it goes to stdout.
fn shard_cmd(a: &Args) -> Result<(), String> {
    let run = run_opts(a)?;
    let path = a.get("--shard").ok_or("shard: --shard FILE required")?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let shard = Shard::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
    let fp = shard.fingerprint();
    let label = format!("{fp:016x}");
    let mut cfg = run.flags.apply(EngineConfig::new());
    if let Some(dir) = &run.events_dir {
        let _ = fs::create_dir_all(dir);
        cfg = cfg.events(format!("{dir}/{label}.events.jsonl"));
    }
    let result =
        eco_bench::sweep::execute_shard(&shard, cfg).map_err(|e| format!("shard {label}: {e}"))?;
    match &run.flags.store {
        Some(dir) => {
            let store = ResultStore::open(dir).map_err(|e| format!("store {dir}: {e}"))?;
            store
                .mark_shard_complete(fp, &result)
                .map_err(|e| format!("cannot record completion: {e}"))?;
            println!(
                "shard {fp:#018x} complete ({} {}/{})",
                shard.figure,
                shard.family,
                shard.kind.as_str()
            );
        }
        None => print!("{}", result.render()),
    }
    Ok(())
}

/// `repro sweep FIG`: the full plan → execute → gather pipeline for one
/// figure, writing the gathered CSV and manifest under the sweep
/// directory.
fn sweep_cmd(a: &Args) -> Result<(), String> {
    let name = &a.positionals[0];
    let def = figures::figure(name).ok_or_else(|| format!("sweep: unknown figure {name}"))?;
    let figure_scale = a.num("--figure-scale", FIGURE_SCALE)?;
    if figure_scale == 0 {
        return Err("--figure-scale must be positive".to_string());
    }
    let config = figure_sweep(a, def.name)?;
    println!("{}", def.banner());
    if figure_scale != FIGURE_SCALE {
        println!(
            "   (machine scale 1/{figure_scale} — outputs will NOT match the committed goldens)"
        );
    }
    let outcome = run_sweep(&def.spec_with_scale(figure_scale), &config)?;
    print!("{}", outcome.sweep.to_table());
    println!(
        "   sweep: {} shard(s) planned, {} executed, {} skipped in {:.1}s ({} worker(s))",
        outcome.planned, outcome.executed, outcome.skipped, outcome.wall_secs, config.workers
    );
    let csv = config.sweep_dir.join(format!("{}.csv", def.name));
    let manifest = config.sweep_dir.join(format!("{}.manifest.json", def.name));
    fs::write(&csv, outcome.sweep.to_csv())
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    fs::write(&manifest, &outcome.manifest)
        .map_err(|e| format!("cannot write {}: {e}", manifest.display()))?;
    println!("   wrote {} and {}", csv.display(), manifest.display());
    Ok(())
}

/// Regenerates every committed figure CSV and run manifest in memory
/// and diffs them byte-for-byte against `results/`; exits nonzero on
/// any drift or missing file. This is the golden-results gate CI runs.
///
/// The regeneration always emits event streams, and every stream is
/// then run through [`eco_events::check_stream`], so the gate also
/// covers the emitter's structural invariants, not just the
/// CSV/manifest bytes. Serially that means one stream per figure (to
/// `--events DIR`, or a scratch directory); with `--workers N` the
/// figures regenerate through the sharded sweep path in scratch sweep
/// directories, and the orchestrator stream plus every worker stream
/// is validated instead.
fn check(a: &Args) -> Result<(), String> {
    let run = run_opts(a)?;
    let workers = a.num("--workers", 1)?;
    let remote = a.get("--remote").map(PathBuf::from);
    if workers > 1 || remote.is_some() {
        return check_sharded(a, workers, remote);
    }
    let scratch_events = run.events_dir.is_none();
    let events_dir = run.events_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("eco-check-events-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let run = RunOpts {
        flags: run.flags,
        events_dir: Some(events_dir.clone()),
    };
    println!("== check: regenerated outputs vs committed results/ ==");
    let mut drift = 0usize;
    for def in figures::FIGURES {
        let (sweep, manifest) = figures::run(def, &run);
        drift += diff_against_golden(def.name, &sweep, &manifest);
    }
    for def in figures::FIGURES {
        let path = format!("{events_dir}/{}.events.jsonl", def.name);
        drift += validate_stream(&path);
    }
    if scratch_events {
        let _ = fs::remove_dir_all(&events_dir);
    }
    finish_check(drift);
    Ok(())
}

/// The `--workers N` variant of [`check`]: every figure regenerates
/// through the sharded sweep path in a scratch directory (cold store —
/// resume must not leak into the gate) and must still reproduce the
/// committed bytes.
fn check_sharded(a: &Args, workers: usize, remote: Option<PathBuf>) -> Result<(), String> {
    let root = std::env::temp_dir().join(format!("eco-check-sweep-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    println!(
        "== check: sharded regeneration ({} workers) vs committed results/ ==",
        workers.max(1)
    );
    let mut drift = 0usize;
    for def in figures::FIGURES {
        let sweep_dir = root.join(def.name);
        let mut config = sweep_config(a, sweep_dir.clone(), workers, false)?;
        config.remote = remote.clone();
        match run_sweep(&def.spec(), &config) {
            Ok(outcome) => {
                drift += diff_against_golden(def.name, &outcome.sweep, &outcome.manifest);
            }
            Err(e) => {
                println!("   FAILED  {} ({e})", def.name);
                drift += 1;
                continue;
            }
        }
        drift += validate_stream(&sweep_dir.join("sweep.events.jsonl").to_string_lossy());
        let events = sweep_dir.join("events");
        let mut worker_streams = Vec::new();
        if let Ok(entries) = fs::read_dir(&events) {
            for entry in entries.flatten() {
                worker_streams.push(entry.path());
            }
        }
        worker_streams.sort();
        if worker_streams.is_empty() {
            println!("   MISSING {} (no worker event streams)", events.display());
            drift += 1;
        }
        for path in worker_streams {
            drift += validate_stream(&path.to_string_lossy());
        }
    }
    let _ = fs::remove_dir_all(&root);
    finish_check(drift);
    Ok(())
}

/// Diffs one figure's regenerated CSV and manifest against the
/// committed `results/` files, printing one line per file; returns the
/// number of drifting files.
fn diff_against_golden(name: &str, sweep: &Sweep, manifest: &str) -> usize {
    let mut drift = 0usize;
    let files = [
        (format!("results/{name}.csv"), sweep.to_csv()),
        (
            format!("results/{name}.manifest.json"),
            manifest.to_string(),
        ),
    ];
    for (path, fresh) in files {
        match fs::read_to_string(&path) {
            Ok(committed) if committed == fresh => println!("   OK      {path}"),
            Ok(_) => {
                println!("   DRIFT   {path}");
                drift += 1;
            }
            Err(e) => {
                println!("   MISSING {path} ({e})");
                drift += 1;
            }
        }
    }
    drift
}

/// Runs one event stream file through the emitter's invariant checker;
/// returns 1 on failure.
fn validate_stream(path: &str) -> usize {
    match fs::read_to_string(path) {
        Ok(text) => match eco_core::events::check_stream(&text) {
            Ok(summary) => {
                println!(
                    "   OK      {path} ({} records, stream invariants hold)",
                    summary.records
                );
                0
            }
            Err(e) => {
                println!("   INVALID {path} ({e})");
                1
            }
        },
        Err(e) => {
            println!("   MISSING {path} ({e})");
            1
        }
    }
}

fn finish_check(drift: usize) {
    if drift > 0 {
        eprintln!("repro check: {drift} file(s) drifted from the committed golden results");
        std::process::exit(1);
    }
    println!("   all golden results reproduced byte-for-byte");
}

// ---------------------------------------------------------------- T1

fn table1(run: &RunOpts) {
    println!("== Table 1: performance variation with optimization parameters ==");
    println!("   (1/32-scale SGI R10000 model; MM at N=200, Jacobi at N=48;");
    println!("    tile sizes scaled with the caches, see DESIGN.md)");
    println!(
        "{:6} {:>4} {:>4} {:>4} {:>5} {:>14} {:>12} {:>12} {:>12} {:>16}",
        "ver", "TI", "TJ", "TK", "Pref", "Loads", "L1 misses", "L2 misses", "TLB misses", "Cycles"
    );
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let engine = run.engine(&machine, "table1");
    let mm = Kernel::matmul();
    let rows: [(u64, u64, u64, bool); 5] = [
        (1, 4, 32, false),  // mm1: L1-focused, lowest L1 misses
        (2, 64, 64, false), // mm2: the TLB blow-up row
        (8, 32, 16, false), // mm3: all loops tiled, lowest L2 misses
        (4, 16, 16, false), // mm4: the balanced row
        (4, 16, 16, true),  // mm5: balanced + prefetch: lowest cycles
    ];
    for (i, &(ti, tj, tk, pf)) in rows.iter().enumerate() {
        let p = mm_table_row(ti, tj, tk, pf);
        let c = counters_at_with(&engine, &p, &mm, 200);
        println!(
            "mm{:<3} {:>5} {:>4} {:>4} {:>5} {:>14} {:>12} {:>12} {:>12} {:>16}",
            i + 1,
            ti,
            tj,
            tk,
            if pf { "yes" } else { "no" },
            c.loads_incl_prefetch(),
            c.cache_misses[0],
            c.cache_misses[1],
            c.tlb_misses,
            c.cycles()
        );
    }
    let jac = Kernel::jacobi3d();
    let jrows: [(u64, u64, u64, bool); 6] = [
        (1, 1, 1, false),  // j1: untiled
        (1, 1, 1, true),   // j2: untiled + prefetch (~20% gain)
        (1, 4, 4, false),  // j3: J and K tiled for L1
        (1, 4, 4, true),   // j4: j3 + prefetch
        (24, 4, 1, false), // j5: I and J tiled
        (24, 4, 1, true),  // j6: j5 + prefetch
    ];
    for (i, &(ti, tj, tk, pf)) in jrows.iter().enumerate() {
        let p = jacobi_table_row(ti, tj, tk, pf);
        let c = counters_at_with(&engine, &p, &jac, 48);
        println!(
            "j{:<4} {:>5} {:>4} {:>4} {:>5} {:>14} {:>12} {:>12} {:>12} {:>16}",
            i + 1,
            ti,
            tj,
            tk,
            if pf { "yes" } else { "no" },
            c.loads_incl_prefetch(),
            c.cache_misses[0],
            c.cache_misses[1],
            c.tlb_misses,
            c.cycles()
        );
    }
    println!();
}

// ---------------------------------------------------------------- T2

fn table2() {
    println!("== Table 2: machine descriptions ==");
    for m in [MachineDesc::sgi_r10000(), MachineDesc::ultrasparc_iie()] {
        println!("{m}");
        println!("  scaled for figures: {}", m.scaled(FIGURE_SCALE));
    }
    println!();
}

fn table3() {
    println!("== Table 3: compilers, optimization flags and BLAS versions ==");
    println!("Not applicable in this reproduction: there are no native");
    println!("compilers or vendor libraries. The stand-ins are:");
    println!("  ECO     -> eco-core two-phase optimizer (this repo)");
    println!("  Native  -> eco-baselines::native (model-driven, no copy/prefetch)");
    println!("  ATLAS   -> eco-baselines::atlas_mm (pure empirical, own code shape)");
    println!("  Vendor  -> eco-baselines::vendor_mm (hand-tuned fixed parameters)");
    println!("The paper's roundoff=3 reassociation licence corresponds to the");
    println!("is_reduction escape in eco-analysis::dependence.");
    println!();
}

// ---------------------------------------------------------------- T4

fn table4() {
    println!("== Table 4: Matrix Multiply variants on the SGI ==");
    let k = Kernel::matmul();
    let machine = MachineDesc::sgi_r10000();
    let nest = NestInfo::from_program(&k.program).expect("analyzable");
    let variants = derive_variants(&nest, &machine, &k.program);
    for v in &variants {
        println!("{}:", v.name);
        print!("{}", describe_variant(v, &nest, &k.program));
    }
    println!();
}

// ---------------------------------------------------------------- §4.3

fn searchcost(run: &RunOpts) {
    println!("== §4.3: cost of search (points executed) ==");
    for (machine_full, tag) in [
        (MachineDesc::sgi_r10000(), "searchcost-sgi"),
        (MachineDesc::ultrasparc_iie(), "searchcost-sun"),
    ] {
        let machine = machine_full.scaled(FIGURE_SCALE);
        let engine = run.engine(&machine, tag);
        let mm = figures::tune_eco(&Kernel::matmul(), &engine, 96);
        let jc = figures::tune_eco(&Kernel::jacobi3d(), &engine, 36);
        let atlas = atlas_mm_with(&engine, 96).expect("atlas");
        println!("{}:", machine_full.name);
        println!(
            "  ECO   MM: {:>4} points ({} variants derived, {} searched)",
            mm.stats.points, mm.stats.variants_derived, mm.stats.variants_searched
        );
        println!("  ECO   Jacobi: {:>4} points", jc.stats.points);
        println!(
            "  ATLAS MM: {:>4} points  (ECO is {:.1}x smaller)",
            atlas.points,
            atlas.points as f64 / mm.stats.points as f64
        );
        figures::print_engine_stats(&engine);
    }
    println!();
}

// ---------------------------------------------------------------- ablations

fn modelvsearch(run: &RunOpts) {
    println!("== Ablation: model-only parameters vs guided empirical search ==");
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let engine = run.engine(&machine, "modelvsearch");
    let kernel = Kernel::matmul();
    let eco = figures::tune_eco(&kernel, &engine, 120);
    let model = model_only(&kernel, &machine).expect("model");
    let sizes = [64, 128, 192, 256];
    println!("{:>6} {:>12} {:>12}", "N", "model-only", "ECO search");
    for n in sizes {
        println!(
            "{n:>6} {:>12.1} {:>12.1}",
            mflops_at_with(&engine, model.for_size(n), &kernel, n),
            mflops_at_with(&engine, &eco.program, &kernel, n)
        );
    }
    println!();
}

fn prefetch_ablation(run: &RunOpts) {
    println!("== Ablation: prefetch on/off and distance sensitivity ==");
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let engine = run.engine(&machine, "prefetch");
    let jac = Kernel::jacobi3d();
    println!("Jacobi N=48 (1/32-scale SGI), j3/j4-style (TJ=4, TK=4):");
    let base = jacobi_table_row(1, 4, 4, false);
    let cb = counters_at_with(&engine, &base, &jac, 48);
    println!("  no prefetch: {:>12} cycles", cb.cycles());
    let with = jacobi_table_row(1, 4, 4, true);
    let cw = counters_at_with(&engine, &with, &jac, 48);
    println!(
        "  prefetch d=2: {:>11} cycles ({:+.1}%)",
        cw.cycles(),
        (cw.cycles() as f64 / cb.cycles() as f64 - 1.0) * 100.0
    );
    let mm = Kernel::matmul();
    println!("MM N=200 (1/32-scale SGI), mm4/mm5-style (TI=4, TJ=16, TK=16):");
    let base = mm_table_row(4, 16, 16, false);
    let cb = counters_at_with(&engine, &base, &mm, 200);
    println!("  no prefetch: {:>12} cycles", cb.cycles());
    let with = mm_table_row(4, 16, 16, true);
    let cw = counters_at_with(&engine, &with, &mm, 200);
    println!(
        "  prefetch d=2: {:>11} cycles ({:+.1}%)",
        cw.cycles(),
        (cw.cycles() as f64 / cb.cycles() as f64 - 1.0) * 100.0
    );
    println!();
}

fn copy_ablation(run: &RunOpts) {
    println!("== Ablation: copy optimization at pathological sizes ==");
    println!("   (scaled SGI; power-of-two N puts columns in the same sets)");
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let engine = run.engine(&machine, "copyablation");
    let kernel = Kernel::matmul();
    println!("{:>6} {:>12} {:>12}", "N", "no copy", "copy");
    for n in [96, 128, 160, 256] {
        let nc = mm_copy_variant(8, 16, 16, false);
        let wc = mm_copy_variant(8, 16, 16, true);
        println!(
            "{n:>6} {:>12.1} {:>12.1}",
            mflops_at_with(&engine, &nc, &kernel, n),
            mflops_at_with(&engine, &wc, &kernel, n)
        );
    }
    println!();
}

fn padding_ablation(run: &RunOpts) {
    use eco_transform::pad_all_arrays;
    println!("== Ablation: array padding stabilizes Jacobi (§4.2) ==");
    println!("   (the paper: \"manual experiments show that array padding");
    println!("    can be used to stabilize this behavior\")");
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let engine = run.engine(&machine, "padding");
    let kernel = Kernel::jacobi3d();
    let base = jacobi_table_row(1, 4, 4, true);
    let padded = pad_all_arrays(&base, 3).expect("pad");
    println!("{:>6} {:>12} {:>12}", "N", "unpadded", "padded");
    for n in [24i64, 32, 40, 48, 64, 72] {
        println!(
            "{n:>6} {:>12.1} {:>12.1}",
            mflops_at_with(&engine, &base, &kernel, n),
            mflops_at_with(&engine, &padded, &kernel, n)
        );
    }
    println!();
}

fn strategies_ablation(run: &RunOpts) {
    use eco_core::SearchStrategy;
    println!("== Ablation: guided search vs heuristic alternatives ==");
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let engine = run.engine(&machine, "strategies");
    let kernel = Kernel::matmul();
    let eval_n = 96i64;
    println!(
        "{:>10} {:>8} {:>12}  (MM, measured at N={eval_n})",
        "strategy", "points", "MFLOPS"
    );
    for (name, strategy) in [
        ("guided", SearchStrategy::Guided),
        ("grid", SearchStrategy::Grid { max_points: 100 }),
        (
            "random",
            SearchStrategy::Random {
                points: 40,
                seed: 42,
            },
        ),
    ] {
        let opts = SearchOptions::builder()
            .search_n(120)
            .max_variants(2)
            .robustness_sizes(vec![128])
            .strategy(strategy)
            .build()
            .expect("search options");
        let mut opt = Optimizer::new(machine.clone());
        opt.opts = opts;
        let tuned = opt.run_with(&kernel, &engine).expect("optimize");
        println!(
            "{name:>10} {:>8} {:>12.1}",
            tuned.stats.points,
            mflops_at_with(&engine, &tuned.program, &kernel, eval_n)
        );
    }
    figures::print_engine_stats(&engine);
    println!();
}

fn attribution() {
    use eco_exec::{measure_attributed, LayoutOptions, Params};
    println!("== Analysis: per-array miss attribution (Table 1 rows) ==");
    println!("   (mm1 exploits B's reuse; the balanced mm4 spreads misses)");
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let kernel = Kernel::matmul();
    for (label, ti, tj, tk) in [("mm1", 1u64, 4u64, 32u64), ("mm4", 4, 16, 16)] {
        let p = mm_table_row(ti, tj, tk, false);
        let params = Params::new().with(kernel.size, 200);
        let c =
            measure_attributed(&p, &params, &machine, &LayoutOptions::default()).expect("measure");
        println!("{label} (TI={ti} TJ={tj} TK={tk}):");
        println!(
            "  {:>6} {:>12} {:>12} {:>12} {:>10}",
            "array", "accesses", "L1 misses", "L2 misses", "TLB"
        );
        for (i, t) in c.per_tag.iter().enumerate() {
            if t.accesses == 0 {
                continue;
            }
            println!(
                "  {:>6} {:>12} {:>12} {:>12} {:>10}",
                p.array(eco_ir::ArrayId(i as u32)).name,
                t.accesses,
                t.misses[0],
                t.misses[1],
                t.tlb_misses
            );
        }
    }
    println!();
}

fn model_rank(run: &RunOpts) {
    use eco_core::{generate, model};
    use eco_exec::{EvalJob, Params};
    println!("== Analysis: static cost model vs measurement (variant ranking) ==");
    println!("   (the paper: the space is \"difficult to model analytically\")");
    let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
    let engine = run.engine(&machine, "modelrank");
    let kernel = Kernel::matmul();
    let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
    let variants = derive_variants(&nest, &machine, &kernel.program);
    let opt = Optimizer::new(machine.clone());
    let n = 120u64;
    let mut rows: Vec<(String, f64, u64)> = Vec::new();
    for v in &variants {
        let params = opt.initial_params(v);
        let Ok(program) = generate(&kernel, &nest, v, &params, &machine) else {
            continue;
        };
        let est = model::estimate(&nest, v, &params, &machine, n);
        let exec = Params::new().with(kernel.size, n as i64);
        let job = EvalJob::new(program, exec).with_label(format!("{}/modelrank", v.name));
        let Ok(c) = engine.eval(job) else {
            continue;
        };
        rows.push((v.name.clone(), est.cycles, c.cycles()));
    }
    let mut by_model: Vec<usize> = (0..rows.len()).collect();
    by_model.sort_by(|&a, &b| rows[a].1.total_cmp(&rows[b].1));
    let mut by_meas: Vec<usize> = (0..rows.len()).collect();
    by_meas.sort_by_key(|&i| rows[i].2);
    println!(
        "{:>6} {:>16} {:>14} {:>11} {:>11}",
        "var", "model cycles", "meas cycles", "model rank", "meas rank"
    );
    for (i, (name, est, meas)) in rows.iter().enumerate() {
        println!(
            "{name:>6} {est:>16.0} {meas:>14} {:>11} {:>11}",
            by_model.iter().position(|&x| x == i).expect("rank") + 1,
            by_meas.iter().position(|&x| x == i).expect("rank") + 1
        );
    }
    let inversions: usize = (0..rows.len())
        .map(|i| {
            let mr = by_model.iter().position(|&x| x == i).expect("rank");
            let sr = by_meas.iter().position(|&x| x == i).expect("rank");
            mr.abs_diff(sr)
        })
        .sum();
    println!(
        "total rank displacement {inversions} over {} variants; model's #1 {} measured #1",
        rows.len(),
        if by_model.first() == by_meas.first() {
            "matches"
        } else {
            "is NOT the"
        },
    );
    println!();
}
