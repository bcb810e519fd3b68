//! ECO: combining compiler models and guided empirical search to
//! optimize for multiple levels of the memory hierarchy.
//!
//! This crate is the paper's primary contribution, reproduced:
//!
//! * **Phase 1** — [`derive_variants`] (Figure 3) uses reuse analysis,
//!   footprint models and profitability heuristics from `eco-analysis`
//!   to produce a *small* set of parameterized variants, each with
//!   symbolic constraints (`UI*UJ <= 32`) on its parameters;
//! * **Phase 2** — [`TuneRequest::run`] performs the model-guided
//!   empirical search of §3.2: staged tile-shape/footprint search,
//!   per-data-structure prefetch search, and post-prefetch tile
//!   adjustment, executing every candidate on the simulated machine and
//!   selecting by measured cycles. Candidates are submitted in batches
//!   to an [`Evaluator`] — by default the parallel memoized [`Engine`]
//!   from `eco-exec` — and every search decision is made from results
//!   in submission order, so the outcome is independent of thread count.
//!
//! One request/response pair — [`TuneRequest`]/[`TuneResponse`] — is
//! the API for a tuning run everywhere: tests, the `eco` and `repro`
//! CLIs, and the `eco serve` daemon all build the same type, and it
//! serializes through the deterministic [`events::Json`] builder for
//! logging, replay and fingerprinting.
//!
//! # Examples
//!
//! Tune Matrix Multiply for a scaled-down SGI R10000:
//!
//! ```
//! use eco_core::{SearchOptions, TuneRequest};
//! use eco_kernels::Kernel;
//! use eco_machine::MachineDesc;
//!
//! # fn main() -> Result<(), eco_core::EcoError> {
//! let machine = MachineDesc::sgi_r10000().scaled(32);
//! let options = SearchOptions::builder()
//!     .search_n(24) // keep the doctest fast
//!     .max_variants(1)
//!     .build()?;
//! let response = TuneRequest::new(Kernel::matmul(), machine)
//!     .options(options)
//!     .run()?;
//! assert!(response.tuned.stats.points > 0);
//! assert!(response.engine.evaluated > 0);
//! println!("{}", response.tuned.program);
//! # Ok(())
//! # }
//! ```

mod api;
mod codegen;
mod lint;
pub mod manifest;
pub mod model;
mod search;
pub mod sweep;
mod variant;

pub use api::{machine_from_json, machine_to_json, TuneRequest, TuneResponse, API_VERSION};
pub use codegen::generate;
pub use lint::{lint_kernel, LintEntry};
pub use manifest::{machine_fingerprint, run_manifest};
pub use search::{
    stages, strategy_name, LineageStep, Optimizer, SearchOptions, SearchOptionsBuilder,
    SearchStats, SearchStrategy, Tuned,
};
pub use sweep::{FamilySpec, Shard, ShardKind, SweepPlan, SweepSpec, PLAN_VERSION};
pub use variant::{
    derive_variants, describe_variant, Constraint, CopyPlan, LevelPlan, ParamValues, Variant,
};

/// Evaluation-engine surface re-exported for downstream crates: the
/// search, the baselines and the benches all consume the same
/// [`Evaluator`] API.
pub use eco_exec::{Engine, EngineConfig, EngineStats, EvalJob, Evaluator};

/// The structured observability layer (event streams, spans, the
/// deterministic JSON used by run manifests), re-exported from
/// `eco-exec` so callers address one crate.
pub use eco_exec::events;

use eco_analysis::NestError;
use eco_exec::ExecError;
use eco_transform::TransformError;
use std::error::Error;
use std::fmt;

/// Errors from the ECO optimizer.
#[derive(Debug)]
pub enum EcoError {
    /// A transformation pass failed.
    Transform(TransformError),
    /// Executing a candidate failed.
    Exec(ExecError),
    /// The kernel is not analyzable.
    Nest(NestError),
    /// Parameter values are missing or malformed.
    BadParams(String),
    /// Parameter values violate the variant's constraints.
    Infeasible,
    /// No variant could be derived or measured.
    NoVariants,
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::Transform(e) => write!(f, "transformation failed: {e}"),
            EcoError::Exec(e) => write!(f, "execution failed: {e}"),
            EcoError::Nest(e) => write!(f, "analysis failed: {e}"),
            EcoError::BadParams(m) => write!(f, "bad parameters: {m}"),
            EcoError::Infeasible => write!(f, "parameter values violate constraints"),
            EcoError::NoVariants => write!(f, "no feasible variant"),
        }
    }
}

impl Error for EcoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EcoError::Transform(e) => Some(e),
            EcoError::Exec(e) => Some(e),
            EcoError::Nest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransformError> for EcoError {
    fn from(e: TransformError) -> Self {
        EcoError::Transform(e)
    }
}

impl From<ExecError> for EcoError {
    fn from(e: ExecError) -> Self {
        EcoError::Exec(e)
    }
}

impl From<NestError> for EcoError {
    fn from(e: NestError) -> Self {
        EcoError::Nest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_analysis::NestInfo;
    use eco_exec::{interpret, measure, ArrayLayout, LayoutOptions, Params, Storage};
    use eco_kernels::Kernel;
    use eco_machine::{MachineDesc, MemoryLevel};

    fn mm_variants() -> (Kernel, NestInfo, Vec<Variant>, MachineDesc) {
        let k = Kernel::matmul();
        let nest = NestInfo::from_program(&k.program).expect("analyzable");
        let machine = MachineDesc::sgi_r10000();
        let vs = derive_variants(&nest, &machine, &k.program);
        (k, nest, vs, machine)
    }

    #[test]
    fn mm_variants_include_table4_v2_shape() {
        let (k, nest, vs, _) = mm_variants();
        assert!(!vs.is_empty());
        // Every variant has K as the register carrier with UI*UJ <= 32.
        let kv = k.program.var_by_name("K").expect("K");
        for v in &vs {
            assert_eq!(v.register_carrier(), kv, "{}", v.name);
            let reg = &v.levels[0];
            assert_eq!(reg.constraint.bound, 32);
            let mut fs = reg.constraint.factors.clone();
            fs.sort();
            assert_eq!(fs, vec!["UI".to_string(), "UJ".to_string()]);
        }
        // Some variant matches Table 4's v2: L1 carrier J retaining A
        // with copy, L2 carrier I retaining B with copy, TJ*TK bound at
        // the L2 level.
        let jv = k.program.var_by_name("J").expect("J");
        let iv = k.program.var_by_name("I").expect("I");
        let a = k.program.array_by_name("A").expect("A");
        let b = k.program.array_by_name("B").expect("B");
        let v2 = vs
            .iter()
            .find(|v| {
                v.levels.len() == 3
                    && v.levels[1].carrier == jv
                    && v.levels[2].carrier == iv
                    && v.levels[1].copy.as_ref().map(|c| c.array) == Some(a)
                    && v.levels[2].copy.as_ref().map(|c| c.array) == Some(b)
            })
            .unwrap_or_else(|| {
                panic!(
                    "no v2-shaped variant in {:?}",
                    vs.iter()
                        .map(|v| describe_variant(v, &nest, &k.program))
                        .collect::<Vec<_>>()
                )
            });
        // L1 tiles I and K, L2 tiles J (TK shared with L1).
        let l1_tiles: Vec<&str> = v2.levels[1].tiles.iter().map(|(_, n)| n.as_str()).collect();
        assert!(
            l1_tiles.contains(&"TI") && l1_tiles.contains(&"TK"),
            "{l1_tiles:?}"
        );
        let l2_factors = &v2.levels[2].constraint.factors;
        assert!(
            l2_factors.contains(&"TJ".to_string()) && l2_factors.contains(&"TK".to_string()),
            "{l2_factors:?}"
        );
        // Table 4 numbers: L1 2-way 32KB -> (n-1)/n * capacity = 2048
        // doubles; L2 2-way 1MB -> 65536 doubles.
        assert_eq!(v2.levels[1].constraint.bound, 2048);
        assert_eq!(v2.levels[2].constraint.bound, 65536);
    }

    #[test]
    fn mm_variant_v1_shape_exists() {
        let (k, _, vs, _) = mm_variants();
        let iv = k.program.var_by_name("I").expect("I");
        let b = k.program.array_by_name("B").expect("B");
        // v1: L1 carrier I retaining (and copying) B, TJ*TK <= 2048.
        let v1 = vs
            .iter()
            .find(|v| {
                v.levels[1].carrier == iv && v.levels[1].copy.as_ref().map(|c| c.array) == Some(b)
            })
            .expect("v1-shaped variant");
        let mut fs = v1.levels[1].constraint.factors.clone();
        fs.sort();
        assert_eq!(fs, vec!["TJ".to_string(), "TK".to_string()]);
    }

    #[test]
    fn jacobi_produces_multiple_register_carriers() {
        let k = Kernel::jacobi3d();
        let nest = NestInfo::from_program(&k.program).expect("analyzable");
        let machine = MachineDesc::sgi_r10000();
        let vs = derive_variants(&nest, &machine, &k.program);
        let mut carriers: Vec<_> = vs.iter().map(|v| v.register_carrier()).collect();
        carriers.sort();
        carriers.dedup();
        assert_eq!(carriers.len(), 3, "all three loops carry temporal reuse");
        // No copy plans: Jacobi regions are never fully tiled (the paper:
        // copying has too much overhead to be profitable).
        assert!(vs.iter().all(|v| v.levels.iter().all(|l| l.copy.is_none())));
    }

    #[test]
    fn describe_variant_mentions_transforms() {
        let (k, nest, vs, _) = mm_variants();
        let s = describe_variant(&vs[0], &nest, &k.program);
        assert!(s.contains("Unroll-and-jam"), "{s}");
        assert!(s.contains("Reg"), "{s}");
    }

    #[test]
    fn constraints_hold_and_fail() {
        let c = Constraint {
            factors: vec!["UI".into(), "UJ".into()],
            bound: 32,
        };
        let mut p = ParamValues::new();
        p.insert("UI".into(), 4);
        p.insert("UJ".into(), 8);
        assert!(c.holds(&p));
        p.insert("UJ".into(), 16);
        assert!(!c.holds(&p));
        assert_eq!(c.to_string(), "UI*UJ <= 32");
    }

    #[test]
    fn generated_code_is_equivalent_to_kernel() {
        let (k, nest, vs, machine) = mm_variants();
        // Use the optimizer's initial params for each variant; check
        // numeric equivalence at an edge-tile-heavy size.
        let opt = Optimizer::new(machine.clone());
        for v in vs.iter().take(6) {
            let params = opt.initial_params(v);
            let program = generate(&k, &nest, v, &params, &machine)
                .unwrap_or_else(|e| panic!("{}: {e}", v.name));
            program.validate().expect("valid");
            let n = 19;
            let run = |p: &eco_ir::Program| {
                let pr = Params::new().with(k.size, n);
                let layout = ArrayLayout::new(p, &pr, &LayoutOptions::default()).expect("layout");
                let mut st = Storage::seeded(&layout, 7);
                interpret(p, &pr, &layout, &mut st).expect("run");
                st
            };
            let want = run(&k.program);
            let got = run(&program);
            let c = k.program.array_by_name("C").expect("C");
            assert!(
                want.max_abs_diff(&got, c) < 1e-9,
                "{} differs:\n{program}",
                v.name
            );
        }
    }

    #[test]
    fn generate_rejects_infeasible_params() {
        let (k, nest, vs, machine) = mm_variants();
        let mut params = Optimizer::new(machine.clone()).initial_params(&vs[0]);
        params.insert("UI".into(), 16);
        params.insert("UJ".into(), 16); // 256 > 32 registers
        match generate(&k, &nest, &vs[0], &params, &machine) {
            Err(EcoError::Infeasible) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
        let mut missing = Optimizer::new(machine.clone()).initial_params(&vs[0]);
        missing.remove("UI");
        assert!(matches!(
            generate(&k, &nest, &vs[0], &missing, &machine),
            Err(EcoError::BadParams(_))
        ));
    }

    #[test]
    fn stages_group_shared_tile_params() {
        let (_, _, vs, _) = mm_variants();
        for v in &vs {
            let st = stages(v);
            assert!(!st.is_empty());
            // first stage is the register unrolls
            assert!(st[0].iter().all(|n| n.starts_with('U')));
            // TK appears in exactly one stage even when shared by levels
            let tk_stages = st.iter().filter(|s| s.contains(&"TK".to_string())).count();
            assert!(tk_stages <= 1, "{st:?}");
        }
    }

    #[test]
    fn optimize_matmul_beats_naive_on_scaled_machine() {
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let opts = SearchOptions {
            search_n: 40,
            max_variants: 3,
            ..SearchOptions::default()
        };
        let kernel = Kernel::matmul();
        let report = TuneRequest::new(kernel.clone(), machine.clone())
            .options(opts)
            .run()
            .expect("optimize");
        let tuned = report.tuned;
        // The staged search revisits points; the engine must serve them
        // from its memo cache instead of re-simulating.
        assert!(report.engine.cache_hits > 0, "{:?}", report.engine);
        assert!(report.engine.evaluated > 0);
        let naive = measure(
            &kernel.program,
            &Params::new().with(kernel.size, 40),
            &machine,
            &LayoutOptions::default(),
        )
        .expect("measure naive");
        assert!(
            tuned.counters.cycles() * 2 < naive.cycles(),
            "tuned {} vs naive {}",
            tuned.counters.cycles(),
            naive.cycles()
        );
        assert!(tuned.stats.points > 5);
        assert!(tuned.stats.points < 500, "{}", tuned.stats.points);
        assert!(tuned.stats.variants_derived >= tuned.stats.variants_searched);
        // The tuned program stays numerically correct.
        let n = 23;
        let run = |p: &eco_ir::Program| {
            let pr = Params::new().with(kernel.size, n);
            let layout = ArrayLayout::new(p, &pr, &LayoutOptions::default()).expect("layout");
            let mut st = Storage::seeded(&layout, 99);
            interpret(p, &pr, &layout, &mut st).expect("run");
            st
        };
        let want = run(&kernel.program);
        let got = run(&tuned.program);
        let c = kernel.program.array_by_name("C").expect("C");
        assert!(want.max_abs_diff(&got, c) < 1e-9);
    }

    #[test]
    fn optimize_jacobi_beats_naive_on_scaled_machine() {
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let opts = SearchOptions {
            search_n: 30,
            max_variants: 3,
            ..SearchOptions::default()
        };
        let kernel = Kernel::jacobi3d();
        let tuned = TuneRequest::new(kernel.clone(), machine.clone())
            .options(opts)
            .run()
            .expect("optimize")
            .tuned;
        let naive = measure(
            &kernel.program,
            &Params::new().with(kernel.size, 30),
            &machine,
            &LayoutOptions::default(),
        )
        .expect("measure naive");
        assert!(
            tuned.counters.cycles() < naive.cycles(),
            "tuned {} vs naive {}",
            tuned.counters.cycles(),
            naive.cycles()
        );
    }

    #[test]
    fn register_level_variant_levels_are_ordered() {
        let (_, _, vs, _) = mm_variants();
        for v in &vs {
            assert_eq!(v.levels[0].level, MemoryLevel::Register);
            for (i, l) in v.levels[1..].iter().enumerate() {
                assert_eq!(l.level, MemoryLevel::Cache(i));
            }
        }
    }

    #[test]
    fn grid_and_random_strategies_work_and_cost_more() {
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let kernel = Kernel::matmul();
        let mk = |strategy: SearchStrategy| {
            let opts = SearchOptions {
                search_n: 32,
                max_variants: 1,
                strategy,
                ..SearchOptions::default()
            };
            TuneRequest::new(kernel.clone(), machine.clone())
                .options(opts)
                .run()
                .expect("optimize")
                .tuned
        };
        let guided = mk(SearchStrategy::Guided);
        let grid = mk(SearchStrategy::Grid { max_points: 200 });
        let random = mk(SearchStrategy::Random {
            points: 40,
            seed: 7,
        });
        // All strategies find something correct and comparable; the
        // guided search uses model knowledge to stay cheap.
        assert!(guided.stats.points < grid.stats.points);
        let g = guided.counters.cycles() as f64;
        let b = grid.counters.cycles() as f64;
        let r = random.counters.cycles() as f64;
        assert!(g <= 1.25 * b, "guided {g} vs grid {b}");
        // Random sampling lands in the same ballpark (prefetch phases
        // make exact dominance between grid and random non-monotonic).
        assert!(r <= 1.5 * b, "random {r} vs grid {b}");
        // Determinism of the random strategy.
        let random2 = mk(SearchStrategy::Random {
            points: 40,
            seed: 7,
        });
        assert_eq!(random.params, random2.params);
    }

    #[test]
    fn tlb_pruning_rejects_oversized_tiles_and_keeps_search_working() {
        use eco_analysis::NestInfo;
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let kernel = Kernel::jacobi3d();
        let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
        let opt = {
            let mut o = Optimizer::new(machine.clone());
            o.opts.search_n = 36;
            o
        };
        let variants = derive_variants(&nest, &machine, &kernel.program);
        let n = 36u64;
        let feasible = variants
            .iter()
            .filter(|v| opt.tlb_feasible(&nest, v, n))
            .count();
        assert!(feasible > 0, "some variant must survive");
        assert!(
            feasible < variants.len(),
            "the TLB model must prune something for 3-D Jacobi ({feasible}/{})",
            variants.len()
        );
        // And optimization still works with pruning on.
        let opts = SearchOptions {
            search_n: 30,
            max_variants: 2,
            tlb_prune: true,
            ..SearchOptions::default()
        };
        let tuned = TuneRequest::new(kernel.clone(), machine.clone())
            .options(opts)
            .run()
            .expect("optimize with pruning")
            .tuned;
        assert!(tuned.stats.points > 0);
    }

    #[test]
    fn builder_validates_budgets_and_robustness_sizes() {
        let ok = SearchOptions::builder()
            .search_n(24)
            .max_variants(2)
            .robustness_sizes(vec![32])
            .build()
            .expect("valid options");
        assert_eq!(ok.search_n, 24);
        assert_eq!(ok.robustness_sizes, vec![32]);
        assert!(SearchOptions::builder().search_n(0).build().is_err());
        assert!(SearchOptions::builder().max_variants(0).build().is_err());
        assert!(SearchOptions::builder()
            .prefetch_distances(Vec::new())
            .build()
            .is_err());
        assert!(SearchOptions::builder()
            .prefetch_distances(vec![0])
            .build()
            .is_err());
        assert!(SearchOptions::builder()
            .robustness_sizes(Vec::new())
            .build()
            .is_err());
        assert!(SearchOptions::builder()
            .strategy(SearchStrategy::Grid { max_points: 0 })
            .build()
            .is_err());
        assert!(SearchOptions::builder()
            .strategy(SearchStrategy::Random { points: 0, seed: 1 })
            .build()
            .is_err());
        // run() re-validates hand-edited options.
        let opts = SearchOptions {
            search_n: -3,
            ..SearchOptions::default()
        };
        assert!(matches!(
            TuneRequest::new(Kernel::matmul(), MachineDesc::sgi_r10000().scaled(32))
                .options(opts)
                .run(),
            Err(EcoError::BadParams(_))
        ));
    }

    #[test]
    fn run_with_rejects_engine_for_a_different_machine() {
        let opt = Optimizer::new(MachineDesc::sgi_r10000().scaled(32));
        let wrong = Engine::new(MachineDesc::ultrasparc_iie().scaled(32));
        assert!(matches!(
            opt.run_with(&Kernel::matmul(), &wrong),
            Err(EcoError::BadParams(_))
        ));
    }

    #[test]
    fn shared_engine_turns_repeat_runs_into_cache_hits() {
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let mut opt = Optimizer::new(machine.clone());
        opt.opts.search_n = 24;
        opt.opts.max_variants = 1;
        let engine = Engine::new(machine);
        let kernel = Kernel::matmul();
        let first = opt.run_with(&kernel, &engine).expect("first run");
        let evaluated_after_first = engine.stats().evaluated;
        let second = opt.run_with(&kernel, &engine).expect("second run");
        assert_eq!(
            engine.stats().evaluated,
            evaluated_after_first,
            "second run must be served entirely from the memo cache"
        );
        assert_eq!(first.params, second.params);
        assert_eq!(first.counters, second.counters);
        assert_eq!(first.program.to_string(), second.program.to_string());
    }

    #[test]
    fn run_with_private_engine_matches_request_path() {
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let mut opt = Optimizer::new(machine.clone());
        opt.opts.search_n = 24;
        opt.opts.max_variants = 1;
        let engine = Engine::new(machine);
        let tuned = opt.run_with(&Kernel::matmul(), &engine).expect("tunes");
        assert!(tuned.stats.points > 0);
        assert_eq!(
            tuned.stats.lineage.first().map(|s| s.stage.as_str()),
            Some("screen")
        );
    }

    #[test]
    fn generated_v2_code_has_figure_1c_structure() {
        // Figure 1(c): DO KK; DO JJ; copy B; DO II; copy A; DO J; DO I;
        // DO K with C held in registers across K.
        let (k, nest, vs, machine) = mm_variants();
        let jv = k.program.var_by_name("J").expect("J");
        let a = k.program.array_by_name("A").expect("A");
        let v2 = vs
            .iter()
            .find(|v| {
                v.levels.len() == 3
                    && v.levels[1].carrier == jv
                    && v.levels[1].copy.as_ref().map(|c| c.array) == Some(a)
                    && v.levels[2].copy.is_some()
            })
            .expect("full-copy v2");
        let mut params = ParamValues::new();
        for (name, val) in [
            ("UI", 4u64),
            ("UJ", 4),
            ("TI", 16),
            ("TJ", 512),
            ("TK", 128),
        ] {
            params.insert(name.into(), val);
        }
        let program = generate(&k, &nest, v2, &params, &machine).expect("generate");
        let s = program.to_string();
        let pos = |needle: &str| {
            s.find(needle)
                .unwrap_or_else(|| panic!("missing {needle}:\n{s}"))
        };
        // control order KK, JJ, II; B's copy between JJ and II; A's copy
        // between II and the point loops; point order J, I, K.
        let kk = pos("DO KK = 0, N - 1, 128");
        let jj = pos("DO JJ = 0, N - 1, 512");
        let ii = pos("DO II = 0, N - 1, 16");
        let copy_b = pos("= B[KK + ");
        let copy_a = pos("= A[II + ");
        let j = pos("DO J = JJ, min(JJ + 511, N - 1), 4");
        let i = pos("DO I = II, min(II + 15, N - 1), 4");
        let kpt = pos("DO K = KK, min(KK + 127, N - 1)");
        assert!(kk < jj && jj < copy_b && copy_b < ii, "{s}");
        assert!(ii < copy_a && copy_a < j && j < i && i < kpt, "{s}");
        // C is register-tiled: stores of C happen via temporaries.
        assert!(s.contains("rc = "), "C accumulators hoisted:\n{s}");
    }
}
