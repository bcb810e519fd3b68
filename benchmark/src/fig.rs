//! The `fig4a` workload: the paper's Figure 4(a) — ECO, Native, the
//! ATLAS-like search and the vendor stand-in on the scaled SGI R10000 —
//! regenerated at 2 threads and checked byte-for-byte against the
//! committed CSV and manifest.

use crate::common::{peak_rss_mb, secs, timed_setup, traced_round, Ctx, Outcome, Timings, THREADS};
use crate::layers::{
    check_accounting, check_coverage, global_total, ms, record_engine, record_overhead,
    record_replay, replay_sim, Point, Replay, Traced,
};
use eco_analysis::NestInfo;
use eco_baselines::{atlas_mm_with, native, vendor_mm_with};
use eco_bench::cli::EngineFlags;
use eco_bench::figures::{self, FigureDef, RunOpts, ATLAS_SEARCH_N, VENDOR_SEARCH_N};
use eco_bench::{mflops_sweep, Sweep};
use eco_core::events::Json;
use eco_core::{derive_variants, Engine, EngineConfig, Evaluator, Optimizer, SweepSpec};
use eco_exec::EngineStats;
use eco_ir::Program;
use std::path::Path;
use std::time::{Duration, Instant};

const FIGURE: &str = "fig4a";

/// The committed outputs a run must reproduce.
pub struct Goldens {
    pub csv: String,
    pub manifest: String,
}

/// Reads `<dir>/fig4a.csv` and `<dir>/fig4a.manifest.json`.
pub fn load_goldens(dir: &Path) -> Result<Goldens, String> {
    let read = |name: String| {
        let path = dir.join(&name);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    Ok(Goldens {
        csv: read(format!("{FIGURE}.csv"))?,
        manifest: read(format!("{FIGURE}.manifest.json"))?,
    })
}

/// Checks that the goldens describe the figure `spec` defines: the CSV
/// header names its families, every row is its size followed by one
/// number per family, and the manifest names its kernel, machine and
/// ECO search size. A results directory holding other outputs fails
/// here, in set-up, rather than after a whole figure run.
pub fn check_goldens(goldens: &Goldens, spec: &SweepSpec) -> Result<(), String> {
    let mut lines = goldens.csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
    let families: Vec<&str> = spec.families.iter().map(|f| f.name.as_str()).collect();
    if header.first() != Some(&"N") || header[1..] != families[..] {
        return Err(format!(
            "{FIGURE}: golden CSV header {header:?} does not name {families:?}"
        ));
    }
    let mut sizes = Vec::new();
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let numbers = cells.iter().all(|c| c.parse::<f64>().is_ok());
        match cells[0].parse::<i64>() {
            Ok(n) if numbers && cells.len() == header.len() => sizes.push(n),
            _ => return Err(format!("{FIGURE}: malformed golden CSV row '{line}'")),
        }
    }
    if sizes != spec.sizes {
        return Err(format!(
            "{FIGURE}: golden CSV sizes {sizes:?} differ from {:?}",
            spec.sizes
        ));
    }
    let manifest =
        Json::parse(&goldens.manifest).map_err(|e| format!("{FIGURE}: golden manifest: {e}"))?;
    let named = manifest.get("kernel").and_then(Json::as_str) == Some(spec.kernel.name.as_str())
        && manifest.get_path("machine.name").and_then(Json::as_str)
            == Some(spec.machine.name.as_str())
        && manifest.get_path("options.search_n").and_then(Json::as_i64) == Some(spec.search_n);
    if !named {
        return Err(format!(
            "{FIGURE}: golden manifest is not of {} on {} at search-n {}",
            spec.kernel.name, spec.machine.name, spec.search_n
        ));
    }
    Ok(())
}

/// The differences between a run's outputs and the goldens.
pub fn check_figure(sweep: &Sweep, manifest: &str, goldens: &Goldens) -> Vec<String> {
    let mut problems = Vec::new();
    if sweep.to_csv() != goldens.csv {
        problems.push(format!("{FIGURE}: CSV differs from the golden"));
    }
    if manifest != goldens.manifest {
        problems.push(format!("{FIGURE}: manifest differs from the golden"));
    }
    problems
}

fn run_opts() -> RunOpts {
    RunOpts {
        flags: EngineFlags {
            threads: THREADS,
            ..EngineFlags::default()
        },
        ..RunOpts::default()
    }
}

/// Timings and work of one traced figure run.
#[derive(Default)]
struct Phases {
    open: Duration,
    eco: Duration,
    native: Duration,
    atlas: Duration,
    vendor: Duration,
    measure: Duration,
    eco_eval: Duration,
    eco_batches: u64,
    eval: Duration,
    measure_points: u64,
    /// The ECO search's `SearchStats`: points, variants derived,
    /// points certified, points rejected.
    search: [u64; 4],
}

/// A traced figure run: its outputs, timings, engine totals, the
/// captured points replayed (when capturing) and ledger problems.
struct TracedRun {
    sweep: Sweep,
    manifest: String,
    ph: Phases,
    stats: EngineStats,
    /// The points captured for replay (empty unless capturing).
    points: Vec<Point>,
    problems: Vec<String>,
}

/// The figure runner's steps (`figures::run`) with every evaluation
/// going through a [`Traced`] wrapper and each family timed: the same
/// calls in the same order on one engine, so the outputs are the
/// golden bytes too.
fn traced_figure(def: &FigureDef, capture: bool) -> Result<TracedRun, String> {
    let spec = def.spec();
    let names: Vec<&str> = spec.families.iter().map(|f| f.name.as_str()).collect();
    if names != ["ECO", "Native", "ATLAS", "Vendor"] {
        return Err(format!("unexpected families {names:?}"));
    }
    let mut ph = Phases::default();
    let mut problems = Vec::new();
    let started = Instant::now();
    let engine = Engine::with_config(spec.machine.clone(), EngineConfig::new().threads(THREADS))
        .map_err(|e| format!("engine: {e}"))?;
    ph.open = started.elapsed();
    let traced = Traced::new(&engine, capture);
    // Engine time already attributed to earlier phases.
    let mut seen = Duration::ZERO;
    let mut phase_eval = |phase: &str, wall: Duration, traced: &Traced| {
        let (eval, _) = traced.eval();
        let spent = eval - seen;
        seen = eval;
        if spent > wall {
            problems.push(format!(
                "ledger: {FIGURE} {phase}: engine time {spent:?} exceeds the phase's wall time {wall:?}"
            ));
        }
        spent
    };

    let started = Instant::now();
    let mut optimizer = Optimizer::new(spec.machine.clone());
    optimizer.opts = figures::eco_search_opts(spec.search_n);
    let eco = optimizer
        .run_with(&spec.kernel, &traced)
        .map_err(|e| format!("ECO: {e}"))?;
    let manifest = figures::figure_manifest(
        &spec.kernel,
        &engine,
        &run_opts().manifest_config(),
        spec.search_n,
        &eco,
    );
    let eco_wall = started.elapsed();
    ph.eco_eval = phase_eval("ECO", eco_wall, &traced);
    ph.eco_batches = traced.eval().1;

    let started = Instant::now();
    let nat = native(&spec.kernel, engine.machine()).map_err(|e| format!("native: {e}"))?;
    let native_wall = started.elapsed();
    phase_eval("native", native_wall, &traced);

    let started = Instant::now();
    let atlas = atlas_mm_with(&traced, ATLAS_SEARCH_N).map_err(|e| format!("atlas: {e}"))?;
    let atlas_wall = started.elapsed();
    phase_eval("atlas", atlas_wall, &traced);

    let started = Instant::now();
    let vendor = vendor_mm_with(&traced, VENDOR_SEARCH_N).map_err(|e| format!("vendor: {e}"))?;
    let vendor_wall = started.elapsed();
    phase_eval("vendor", vendor_wall, &traced);

    let eco_program = eco.program.clone();
    let eco_for = move |_n: i64| eco_program.clone();
    let native_for = move |n: i64| nat.for_size(n).clone();
    let atlas_for = move |n: i64| atlas.program.for_size(n).clone();
    let vendor_for = move |n: i64| vendor.for_size(n).clone();
    let series: Vec<(&str, &dyn Fn(i64) -> Program)> = vec![
        ("ECO", &eco_for),
        ("Native", &native_for),
        ("ATLAS", &atlas_for),
        ("Vendor", &vendor_for),
    ];
    let started = Instant::now();
    let sweep = mflops_sweep(&traced, &spec.kernel, &spec.sizes, &series);
    let measure_wall = started.elapsed();
    phase_eval("measure", measure_wall, &traced);

    ph.eco = eco_wall;
    let st = &eco.stats;
    ph.search = [
        st.points as u64,
        st.variants_derived as u64,
        st.points_certified as u64,
        st.points_rejected as u64,
    ];
    ph.native = native_wall;
    ph.atlas = atlas_wall;
    ph.vendor = vendor_wall;
    ph.measure = measure_wall;
    ph.measure_points = (series.len() * spec.sizes.len()) as u64;
    ph.eval = traced.eval().0;
    let stats = engine.stats();
    check_accounting(FIGURE, &stats, &mut problems);
    Ok(TracedRun {
        sweep,
        manifest,
        ph,
        stats,
        points: traced.into_points(),
        problems,
    })
}

/// ECO search size of the set-up's warm-up tune.
const WARM_UP_SEARCH_N: i64 = 24;

/// The figure's ECO search at [`WARM_UP_SEARCH_N`] on a fresh engine:
/// the process's first-use costs are paid before the timed figure, and
/// set-up is real work (a few tenths of a second) rather than a reading
/// of tens of microseconds that swings by half between processes.
fn warm_up(spec: &SweepSpec) -> Result<(), String> {
    let engine = Engine::with_config(spec.machine.clone(), EngineConfig::new().threads(THREADS))
        .map_err(|e| format!("warm-up engine: {e}"))?;
    let mut optimizer = Optimizer::new(spec.machine.clone());
    optimizer.opts = figures::eco_search_opts(WARM_UP_SEARCH_N);
    optimizer
        .run_with(&spec.kernel, &engine)
        .map(|_| ())
        .map_err(|e| format!("warm-up: {e}"))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let def = figures::figure(FIGURE).expect("fig4a is a committed figure");
    let (setup_s, goldens) = timed_setup(|_| {
        let spec = def.spec();
        let goldens = load_goldens(&ctx.results)?;
        check_goldens(&goldens, &spec)?;
        warm_up(&spec)?;
        Ok::<_, String>(goldens)
    });
    let goldens = match goldens {
        Ok(g) => g,
        Err(e) => {
            out.op(vec![e]);
            return out;
        }
    };

    let mut timings = Timings::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_run = None;
    let started = Instant::now();
    let mut round = 0;
    while !ctx.done(started, round) {
        let round_started = Instant::now();
        if traced_round(ctx, round) {
            match traced_figure(def, traced_run.is_none()) {
                Ok(run) => {
                    let wall = round_started.elapsed();
                    let mut problems = run.problems.clone();
                    problems.extend(check_figure(&run.sweep, &run.manifest, &goldens));
                    out.op(problems);
                    traced_walls.push(secs(wall));
                    if traced_run.is_none() {
                        traced_run = Some((run, wall));
                    }
                }
                Err(e) => out.op(vec![format!("{FIGURE}: {e}")]),
            }
        } else {
            let before = global_total("eco_engine_points_requested_total");
            let (sweep, manifest) = figures::run(def, &run_opts());
            let wall = secs(round_started.elapsed());
            let points = global_total("eco_engine_points_requested_total") - before;
            untraced_walls.push(wall);
            timings.round(wall, points);
            timings.op(0, wall * 1e3);
            out.op(check_figure(&sweep, &manifest, &goldens));
        }
        round += 1;
    }

    if !ctx.trace {
        let rss = peak_rss_mb("self").unwrap_or(0.0);
        timings.record(&mut out.values, setup_s, rss);
        return out;
    }
    let mut failures = Vec::new();
    if let Some((run, wall)) = &traced_run {
        let spec = def.spec();
        let ph = &run.ph;
        let v = &mut out.values;
        v.set("search.self_ms", ms(ph.eco.saturating_sub(ph.eco_eval)));
        v.set("search.batches", ph.eco_batches as f64);
        for (name, n) in [
            "search.points",
            "search.variants_derived",
            "search.certified",
            "search.rejected",
        ]
        .into_iter()
        .zip(ph.search)
        {
            v.set(name, n as f64);
        }
        let started = Instant::now();
        if let Ok(nest) = NestInfo::from_program(&spec.kernel.program) {
            std::hint::black_box(derive_variants(&nest, &spec.machine, &spec.kernel.program));
        }
        v.set("search.derive_ms", ms(started.elapsed()));
        v.set("engine.open_ms", ms(ph.open));
        v.set("engine.eval_ms", ms(ph.eval));
        record_engine(v, &run.stats, 1.0);
        let mut replay = Replay::default();
        replay_sim(&spec.machine, &run.points, &mut replay);
        record_replay(
            v,
            &replay,
            Some(run.stats.ff_accesses),
            ph.eval,
            &mut failures,
        );
        v.set("baselines.native_ms", ms(ph.native));
        v.set("baselines.atlas_ms", ms(ph.atlas));
        v.set("baselines.vendor_ms", ms(ph.vendor));
        v.set("figure.eco_tune_ms", ms(ph.eco));
        v.set("figure.measure_ms", ms(ph.measure));
        v.set("figure.measure_points", ph.measure_points as f64);
        let spans = ph.open + ph.eco + ph.native + ph.atlas + ph.vendor + ph.measure;
        check_coverage(v, spans, *wall, &mut failures);
    }
    record_overhead(&mut out.values, &traced_walls, &untraced_walls);
    out.failed += failures.len() as u64;
    out.failures.extend(failures);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_from_csv(csv: &str) -> Sweep {
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().expect("header").split(',').collect();
        let mut sweep = Sweep {
            sizes: Vec::new(),
            series: header[1..]
                .iter()
                .map(|n| (n.to_string(), Vec::new()))
                .collect(),
        };
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            sweep.sizes.push(cells[0].parse().expect("size"));
            for (s, cell) in sweep.series.iter_mut().zip(&cells[1..]) {
                s.1.push(cell.parse().expect("mflops"));
            }
        }
        sweep
    }

    /// The oracle passes on the committed goldens and reports a
    /// failure for a tampered copy passed as the results directory.
    #[test]
    fn tampered_goldens_fail_the_oracle() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let goldens = load_goldens(&results).expect("committed goldens");
        let sweep = sweep_from_csv(&goldens.csv);
        assert_eq!(sweep.to_csv(), goldens.csv, "CSV round-trips through Sweep");
        assert!(check_figure(&sweep, &goldens.manifest, &goldens).is_empty());

        let tampered = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("tampered-{}", std::process::id()));
        std::fs::create_dir_all(&tampered).expect("scratch dir");
        std::fs::write(
            tampered.join("fig4a.csv"),
            goldens.csv.replacen("69.0", "69.1", 1),
        )
        .expect("write csv");
        std::fs::write(
            tampered.join("fig4a.manifest.json"),
            goldens.manifest.replacen("\"v8\"", "\"v9\"", 1),
        )
        .expect("write manifest");
        let bad = load_goldens(&tampered).expect("tampered goldens");
        let problems = check_figure(&sweep, &goldens.manifest, &bad);
        std::fs::remove_dir_all(&tampered).expect("remove scratch dir");
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("CSV") && problems[1].contains("manifest"));
        assert!(
            load_goldens(&tampered).is_err(),
            "a missing golden is an error"
        );
    }

    /// Set-up accepts the committed fig4a goldens and refuses another
    /// figure's outputs or a malformed CSV.
    #[test]
    fn set_up_refuses_goldens_of_another_figure() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let read = |name: &str| std::fs::read_to_string(results.join(name)).expect(name);
        let spec = figures::figure(FIGURE).expect("fig4a").spec();
        let goldens = load_goldens(&results).expect("committed goldens");
        assert_eq!(check_goldens(&goldens, &spec), Ok(()));

        let other = |csv: &str, manifest: &str| Goldens {
            csv: read(csv),
            manifest: read(manifest),
        };
        let fig4b = other("fig4b.csv", "fig4b.manifest.json");
        let err = check_goldens(&fig4b, &spec).expect_err("fig4b is on another machine");
        assert!(err.contains("manifest"), "{err}");
        let fig5a = other("fig5a.csv", "fig4a.manifest.json");
        let err = check_goldens(&fig5a, &spec).expect_err("fig5a has other series");
        assert!(err.contains("header"), "{err}");
        let malformed = Goldens {
            csv: goldens.csv.replacen("24,69.0,", "24,69.0.0,", 1),
            manifest: goldens.manifest.clone(),
        };
        let err = check_goldens(&malformed, &spec).expect_err("a cell is not a number");
        assert!(err.contains("malformed"), "{err}");
    }
}
