//! The ECO benchmark. Run from the repository root:
//!
//! ```text
//! eco-benchmark --workload W --seed N --seconds S --trace 0|1 [--results DIR]
//! eco-benchmark run --seed N --out DIR [--seconds S] [--trace] [--results DIR]
//! eco-benchmark compare A/ B/
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric, or with `--trace 1` every per-layer metric, each
//! with its unit). It exits 1 when any output was wrong. `run` runs
//! every workload in a child process of its own and writes their run
//! files to `DIR`; `compare` applies the metric bounds to two such
//! directories. See README.md.

mod common;
mod compare;
mod fig;
mod layers;
mod serve;
mod spec;
mod stats;
mod tune;

use common::{Ctx, Outcome, THREADS};
use eco_core::events::Json;
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Default measured seconds for `run` (BENCHMARK.json's `run_seconds`).
const RUN_SECONDS: f64 = 12.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: eco-benchmark --workload W --seed N --seconds S --trace 0|1 [--results DIR]\n\
         \x20      eco-benchmark run --seed N --out DIR [--seconds S] [--trace] [--results DIR]\n\
         \x20      eco-benchmark compare A/ B/\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--switch`es after a subcommand.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument '{a}'"));
            }
            if switches.contains(&a.as_str()) {
                out.push((a.clone(), None));
            } else {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                out.push((a.clone(), Some(v.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(k, _)| k == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("bad {name} '{v}'")))
            .transpose()
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag {k}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_dirs(&args[1..]),
        Some("serve-daemon") => serve_daemon(&args[1..]),
        Some(_) => run_one(&args),
        None => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("eco-benchmark: {e}");
        usage()
    })
}

/// Environment settings that change what the engine does: a run under
/// them would not measure the configuration the bounds were set for.
const REFUSED_ENV: &[&str] = &["ECO_NO_FF", "ECO_EVAL_THREADS"];

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    flags.only(&["--workload", "--seed", "--seconds", "--trace", "--results"])?;
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (0 or 1)")),
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("eco-benchmark: refusing to run with {var} set");
        return Ok(ExitCode::from(2));
    }
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root".into());
    }
    let ctx = Ctx {
        seed: flags.num("--seed")?.ok_or("--seed is required")?,
        seconds: flags.num("--seconds")?.unwrap_or(RUN_SECONDS),
        trace,
        results: PathBuf::from(flags.get("--results").unwrap_or("results")),
        work: PathBuf::from(format!("benchmark/.work/{workload}-{}", std::process::id())),
    };
    eprintln!(
        "eco-benchmark: {workload} seed {} {}s trace {} — available_parallelism {}, {THREADS} engine threads",
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    common::remove_dir(&ctx.work);
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let outcome = match workload {
        "tune-cold" => tune::run(&ctx, false),
        "tune-warm" => tune::run(&ctx, true),
        "serve-mix" => serve::run(&ctx),
        _ => fig::run(&ctx),
    };
    common::remove_dir(&ctx.work);
    // Gone once no other run is using it.
    let _ = std::fs::remove_dir("benchmark/.work");
    let (line, correct) = result_line(&outcome, trace);
    for f in outcome.failures.iter().take(20) {
        eprintln!("eco-benchmark: FAILED {f}");
    }
    println!("{}", line.render_compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The result line: every metric of the mode, in declaration order
/// (a layer the workload does not exercise reads 0).
fn result_line(outcome: &Outcome, trace: bool) -> (Json, bool) {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Json::obj();
    for m in table {
        metrics = metrics.field(
            m.name,
            Json::obj()
                .field("value", Json::Float(outcome.values.get(m.name)))
                .field("unit", Json::str(m.unit)),
        );
    }
    let correct = outcome.failed == 0 && outcome.failures.is_empty() && outcome.attempted > 0;
    let line = Json::obj()
        .field("correct", Json::Bool(correct))
        .field("attempted", Json::UInt(outcome.attempted.max(1)))
        .field(
            "failed",
            Json::UInt(outcome.failed.max(u64::from(!correct))),
        )
        .field("metrics", metrics);
    (line, correct)
}

/// `run`: every workload in its own child process (so peak memory and
/// the process-wide metrics registry are per workload), one run file
/// each, and a table of every metric with its unit.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--trace"])?;
    flags.only(&["--seed", "--out", "--seconds", "--trace", "--results"])?;
    let seed: u64 = flags.num("--seed")?.ok_or("--seed is required")?;
    let out = PathBuf::from(flags.get("--out").ok_or("--out is required")?);
    let seconds: f64 = flags.num("--seconds")?.unwrap_or(RUN_SECONDS);
    let trace = flags.has("--trace");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    println!("{:<10} {:<26} {:>16} unit", "workload", "metric", "value");
    for (workload, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
        if let Some(r) = flags.get("--results") {
            cmd.args(["--results", r]);
        }
        let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(result) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
            println!("{workload:<10} no result (exit {:?})", output.status.code());
            all_ok = false;
            continue;
        };
        // Repeated runs of one seed add files rather than replace them.
        let suffix = if trace { ".trace" } else { "" };
        let path = (1..)
            .map(|k| out.join(format!("{workload}.seed{seed}{suffix}.{k}.json")))
            .find(|p| !p.exists())
            .expect("an unused run file name");
        let file = compare::run_file(workload, seed, trace, &result);
        std::fs::write(&path, file.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        all_ok &= output.status.success();
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                println!(
                    "{workload:<10} {name:<26} {:>16} {}",
                    compare::num(m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)),
                    m.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
        }
        let n = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "{workload:<10} {:<26} {:>16.4} ratio  ({} of {} ops failed)",
            "error_rate",
            n("failed") as f64 / n("attempted").max(1) as f64,
            n("failed"),
            n("attempted")
        );
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_dirs(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two run directories".into());
    };
    let (base, new) = (
        compare::load_runs(Path::new(a))?,
        compare::load_runs(Path::new(b))?,
    );
    let (rows, failures) = compare::compare(&base, &new);
    Ok(if compare::print(&rows, &failures) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn serve_daemon(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    flags.only(&["--socket", "--store"])?;
    let socket = flags.get("--socket").ok_or("--socket is required")?;
    let store = flags.get("--store").ok_or("--store is required")?;
    serve::daemon(Path::new(socket), Path::new(store))?;
    Ok(ExitCode::SUCCESS)
}
