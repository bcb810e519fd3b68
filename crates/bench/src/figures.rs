//! The figure registry: one table describing every committed figure,
//! plus the serial runner and the tuning helpers the shard executor
//! shares with it.
//!
//! Before this table existed, the fig4a/fig4b/fig5a/fig5b dispatch was
//! repeated in every `repro` subcommand (run one, run all, check,
//! bench). Now [`FIGURES`] is the single source of truth: each entry
//! names the figure, its kernel family and its machine, and
//! [`FigureDef::spec`] turns it into the [`SweepSpec`] the sweep
//! planner ([`eco_core::SweepPlan`]) splits into shards. The serial
//! [`run`] here is the reference implementation the sharded path must
//! reproduce byte-for-byte (see `crate::sweep`).

use crate::cli::EngineFlags;
use crate::{jacobi_figure_sizes, mflops_sweep, mm_figure_sizes, Sweep, FIGURE_SCALE};
use eco_baselines::{atlas_mm_with, native, vendor_mm_with};
use eco_core::{
    run_manifest, Engine, EngineConfig, Evaluator, FamilySpec, Optimizer, SearchOptions, SweepSpec,
    TuneResponse, Tuned,
};
use eco_ir::Program;
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use std::fs;

/// Search budget of the ATLAS-like baseline on the MM figures.
pub const ATLAS_SEARCH_N: i64 = 96;

/// Tuning size of the vendor-library stand-in on the MM figures.
pub const VENDOR_SEARCH_N: i64 = 120;

/// Which paper figure family a [`FigureDef`] belongs to: Figure 4
/// (Matrix Multiply) or Figure 5 (Jacobi).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Figure 4: MM against Native, the ATLAS-like search and the
    /// vendor stand-in.
    Mm,
    /// Figure 5: Jacobi against Native.
    Jacobi,
}

/// One committed figure: its output name (`results/<name>.csv`), kind
/// and target machine.
#[derive(Debug, Clone, Copy)]
pub struct FigureDef {
    /// Figure label ("fig4a", …) — names the output files.
    pub name: &'static str,
    /// MM or Jacobi.
    pub kind: FigureKind,
    /// The unscaled machine (scaled by [`FIGURE_SCALE`] in [`FigureDef::spec`]).
    machine: fn() -> MachineDesc,
}

/// Every committed figure, in `results/` order.
pub const FIGURES: &[FigureDef] = &[
    FigureDef {
        name: "fig4a",
        kind: FigureKind::Mm,
        machine: MachineDesc::sgi_r10000,
    },
    FigureDef {
        name: "fig4b",
        kind: FigureKind::Mm,
        machine: MachineDesc::ultrasparc_iie,
    },
    FigureDef {
        name: "fig5a",
        kind: FigureKind::Jacobi,
        machine: MachineDesc::sgi_r10000,
    },
    FigureDef {
        name: "fig5b",
        kind: FigureKind::Jacobi,
        machine: MachineDesc::ultrasparc_iie,
    },
];

/// Looks a figure up by name.
pub fn figure(name: &str) -> Option<&'static FigureDef> {
    FIGURES.iter().find(|f| f.name == name)
}

impl FigureDef {
    /// The full-size machine the figure targets (for banners; the
    /// sweeps run on the scaled version from [`FigureDef::spec`]).
    pub fn machine_full(&self) -> MachineDesc {
        (self.machine)()
    }

    /// The figure's sweep specification: kernel, scaled machine, ECO
    /// search budget, series families in column order, and sizes.
    pub fn spec(&self) -> SweepSpec {
        self.spec_with_scale(FIGURE_SCALE)
    }

    /// Like [`FigureDef::spec`], but at an explicit machine scale
    /// factor (1 = the full-size machine). The committed goldens are
    /// produced at [`FIGURE_SCALE`]; other scales exist for the nightly
    /// full-size sweep, whose outputs are never diffed against
    /// `results/`.
    pub fn spec_with_scale(&self, scale: usize) -> SweepSpec {
        let machine = if scale == 1 {
            self.machine_full()
        } else {
            self.machine_full().scaled(scale)
        };
        match self.kind {
            FigureKind::Mm => SweepSpec {
                figure: self.name.to_string(),
                kernel: Kernel::matmul(),
                machine,
                search_n: 120,
                families: vec![
                    FamilySpec::new("ECO", true),
                    FamilySpec::new("Native", false),
                    FamilySpec::new("ATLAS", true),
                    FamilySpec::new("Vendor", true),
                ],
                sizes: mm_figure_sizes(),
            },
            FigureKind::Jacobi => SweepSpec {
                figure: self.name.to_string(),
                kernel: Kernel::jacobi3d(),
                machine,
                search_n: 40,
                families: vec![
                    FamilySpec::new("ECO", true),
                    FamilySpec::new("Native", false),
                ],
                sizes: jacobi_figure_sizes(),
            },
        }
    }

    /// The figure's stdout banner.
    pub fn banner(&self) -> String {
        let machine = self.machine_full();
        match self.kind {
            FigureKind::Mm => format!(
                "== Figure 4 ({}): Matrix Multiply MFLOPS vs size on {} ==",
                self.name, machine.name
            ),
            FigureKind::Jacobi => format!(
                "== Figure 5 ({}): Jacobi MFLOPS vs size on {} ==",
                self.name, machine.name
            ),
        }
    }
}

/// Engine settings shared by every figure path: the CLI engine flags
/// (threads, result store) and the optional event-stream directory
/// (one file per label).
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Threads and result store (`--threads`/`--store`).
    pub flags: EngineFlags,
    /// `--events DIR`: one structured event stream per label.
    pub events_dir: Option<String>,
}

impl RunOpts {
    /// Builds the engine for one labelled command.
    ///
    /// # Panics
    ///
    /// Panics when the engine cannot be constructed (bad store or
    /// events path).
    pub fn engine(&self, machine: &MachineDesc, label: &str) -> Engine {
        let mut cfg = self.flags.apply(EngineConfig::new());
        if let Some(dir) = &self.events_dir {
            let _ = fs::create_dir_all(dir);
            cfg = cfg.events(format!("{dir}/{label}.events.jsonl"));
        }
        Engine::with_config(machine.clone(), cfg)
            .unwrap_or_else(|e| panic!("engine for {label}: {e}"))
    }

    /// The deterministic subset of the engine configuration recorded in
    /// run manifests (memoization; never threads, paths or the store —
    /// a warm run must produce the same bytes as a cold one).
    pub fn manifest_config(&self) -> EngineConfig {
        EngineConfig::new()
    }
}

/// Prints the engine's work totals in the format every `repro` command
/// uses.
pub fn print_engine_stats(engine: &Engine) {
    let s = engine.stats();
    println!(
        "   engine: {} points requested, {} evaluated, {} memo hits ({:.0}% hit rate), {} thread(s)",
        s.requested,
        s.evaluated,
        s.cache_hits,
        s.hit_rate() * 100.0,
        engine.threads()
    );
    if let Some(store) = engine.store_stats() {
        println!(
            "   store: {} hits, {} misses, {} puts",
            store.hits, store.misses, store.puts
        );
    }
}

/// The search options ECO uses for the figures (also recorded in the
/// run manifests, so keep this the single source of truth).
///
/// # Panics
///
/// Panics when the options fail validation (they are constants).
pub fn eco_search_opts(search_n: i64) -> SearchOptions {
    SearchOptions::builder()
        .search_n(search_n)
        .max_variants(2)
        // tune on a conflict-prone (power-of-two) size too (see
        // SearchOptions docs)
        .robustness_sizes(vec![(search_n as u64).next_power_of_two() as i64])
        // statically certify every candidate, also in release builds:
        // the golden manifests record the flag, and CI's golden-results
        // job doubles as the "certification never rejects a real
        // search point" check
        .certify(true)
        .build()
        .unwrap_or_else(|e| panic!("search options: {e}"))
}

/// ECO, tuned once per machine and reused across sizes (the paper: "our
/// implementation selected variant v2 with UI=UJ=4, TI=16, TJ=512,
/// TK=128 for all array sizes"). The search runs against the shared
/// `engine`, so revisited points are memo hits.
///
/// # Panics
///
/// Panics when the tuning search fails.
pub fn tune_eco(kernel: &Kernel, engine: &Engine, search_n: i64) -> Tuned {
    let mut opt = Optimizer::new(engine.machine().clone());
    opt.opts = eco_search_opts(search_n);
    opt.run_with(kernel, engine)
        .unwrap_or_else(|e| panic!("ECO tuning failed: {e}"))
}

/// The figure's run manifest: built right after tuning, while the
/// engine stats still describe the search alone (deterministic at any
/// thread count because batching is, and identical against a warm
/// store because store hits count as evaluated work).
pub fn figure_manifest(
    kernel: &Kernel,
    engine: &Engine,
    manifest_config: &EngineConfig,
    search_n: i64,
    tuned: &Tuned,
) -> String {
    let report = TuneResponse {
        tuned: tuned.clone(),
        engine: engine.stats(),
    };
    run_manifest(
        &kernel.name,
        engine.machine(),
        &eco_search_opts(search_n),
        manifest_config,
        &report,
    )
    .render()
}

/// A family's size-parameterized measurement program, as returned by
/// [`family_programs`].
pub type ProgramFor = Box<dyn Fn(i64) -> Program>;

/// Runs `family`'s search (if it has one) against `engine` and returns
/// its program-for-size closure, plus the [`Tuned`] result when the
/// family is ECO (the figure manifest is built from it).
///
/// The family-specific search budgets ([`ATLAS_SEARCH_N`],
/// [`VENDOR_SEARCH_N`]) live here so the serial runner and the shard
/// executor cannot disagree on them. With `verbose` the "picked" lines
/// of the serial figure output are printed.
///
/// # Errors
///
/// Returns a message for an unknown family name or a failed baseline
/// search.
pub fn family_programs(
    family: &str,
    kernel: &Kernel,
    engine: &Engine,
    search_n: i64,
    verbose: bool,
) -> Result<(ProgramFor, Option<Tuned>), String> {
    match family {
        "ECO" => {
            let eco = tune_eco(kernel, engine, search_n);
            if verbose {
                println!(
                    "   ECO picked {} with {:?}, prefetches {:?} ({} search points)",
                    eco.variant.name, eco.params, eco.prefetches, eco.stats.points
                );
            }
            let program = eco.program.clone();
            Ok((Box::new(move |_n| program.clone()), Some(eco)))
        }
        "Native" => {
            let nat = native(kernel, engine.machine()).map_err(|e| format!("native: {e}"))?;
            Ok((Box::new(move |n| nat.for_size(n).clone()), None))
        }
        "ATLAS" => {
            let atlas = atlas_mm_with(engine, ATLAS_SEARCH_N).map_err(|e| format!("atlas: {e}"))?;
            if verbose {
                println!(
                    "   ATLAS-like picked NB={} {}x{} ({} search points)",
                    atlas.nb, atlas.mu_nu.0, atlas.mu_nu.1, atlas.points
                );
            }
            Ok((Box::new(move |n| atlas.program.for_size(n).clone()), None))
        }
        "Vendor" => {
            let vendor =
                vendor_mm_with(engine, VENDOR_SEARCH_N).map_err(|e| format!("vendor: {e}"))?;
            Ok((Box::new(move |n| vendor.for_size(n).clone()), None))
        }
        other => Err(format!("unknown series family '{other}'")),
    }
}

/// Runs one figure serially: every family's search and the whole
/// measurement batch on one engine. This is the reference
/// implementation the sharded path (`crate::sweep`) must reproduce
/// byte-for-byte. Returns the sweep and the figure's run manifest.
///
/// # Panics
///
/// Panics when tuning, a baseline search or a measurement fails
/// (committed figures are expected to run cleanly).
pub fn run(def: &FigureDef, opts: &RunOpts) -> (Sweep, String) {
    let spec = def.spec();
    println!("{}", def.banner());
    let engine = opts.engine(&spec.machine, def.name);
    let mut manifest = String::new();
    let mut families: Vec<(String, ProgramFor)> = Vec::new();
    for family in &spec.families {
        let (programs, tuned) =
            family_programs(&family.name, &spec.kernel, &engine, spec.search_n, true)
                .unwrap_or_else(|e| panic!("{}: {e}", def.name));
        if let Some(tuned) = tuned {
            // Built right after the ECO search, while the engine stats
            // still describe the search alone.
            manifest = figure_manifest(
                &spec.kernel,
                &engine,
                &opts.manifest_config(),
                spec.search_n,
                &tuned,
            );
        }
        families.push((family.name.clone(), programs));
    }
    let series: Vec<(&str, &dyn Fn(i64) -> Program)> = families
        .iter()
        .map(|(name, f)| (name.as_str(), f.as_ref() as &dyn Fn(i64) -> Program))
        .collect();
    let sweep = mflops_sweep(&engine, &spec.kernel, &spec.sizes, &series);
    print!("{}", sweep.to_table());
    print_engine_stats(&engine);
    println!();
    (sweep, manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_committed_figures_in_order() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names, ["fig4a", "fig4b", "fig5a", "fig5b"]);
        assert!(figure("fig5a").is_some());
        assert!(figure("fig6z").is_none());
    }

    #[test]
    fn specs_match_the_figure_definitions() {
        let mm = figure("fig4a").expect("fig4a").spec();
        assert_eq!(mm.kernel.name, Kernel::matmul().name);
        assert_eq!(mm.search_n, 120);
        let fams: Vec<&str> = mm.families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fams, ["ECO", "Native", "ATLAS", "Vendor"]);
        assert_eq!(mm.sizes, mm_figure_sizes());
        assert_eq!(mm.machine, MachineDesc::sgi_r10000().scaled(FIGURE_SCALE));

        let jac = figure("fig5b").expect("fig5b").spec();
        assert_eq!(jac.kernel.name, Kernel::jacobi3d().name);
        assert_eq!(jac.search_n, 40);
        assert_eq!(jac.families.len(), 2);
        assert_eq!(
            jac.machine,
            MachineDesc::ultrasparc_iie().scaled(FIGURE_SCALE)
        );
    }

    #[test]
    fn banners_name_the_full_machines() {
        assert!(figure("fig4b")
            .expect("fig4b")
            .banner()
            .contains("Matrix Multiply"));
        assert!(figure("fig5a").expect("fig5a").banner().contains("Jacobi"));
    }

    #[test]
    fn family_programs_rejects_unknown_families() {
        let def = figure("fig5a").expect("fig5a");
        let spec = def.spec();
        let engine = RunOpts::default().engine(&spec.machine, "figures-test");
        // (the Ok side holds a closure, which has no Debug impl, so no
        // expect_err here)
        let err = match family_programs("BLAS9", &spec.kernel, &engine, 8, false) {
            Ok(_) => panic!("unknown family accepted"),
            Err(e) => e,
        };
        assert!(err.contains("BLAS9"));
    }
}
