//! Property-based tests (proptest) over the core data structures and
//! the transformation pipeline's semantic-preservation invariant.

use eco_analysis::NestInfo;
use eco_core::{derive_variants, generate, ParamValues};
use eco_exec::{
    interpret, measure, measure_attributed_reference, measure_reference, ArrayLayout,
    ExecutablePlan, LayoutOptions, Params, Storage,
};
use eco_ir::{AffineExpr, VarId};
use eco_kernels::Kernel;
use eco_machine::{CacheDesc, CostModel, MachineDesc, TlbDesc};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

fn small_expr() -> impl Strategy<Value = AffineExpr> {
    (-20i64..20, prop::collection::vec((0u32..6, -5i64..5), 0..4))
        .prop_map(|(c, terms)| AffineExpr::new(c, terms.into_iter().map(|(v, k)| (VarId(v), k))))
}

proptest! {
    /// Affine arithmetic agrees with pointwise evaluation.
    #[test]
    fn affine_add_mul_eval(a in small_expr(), b in small_expr(), k in -6i64..6,
                           env in prop::collection::vec(-50i64..50, 6)) {
        let lookup = |v: VarId| env[v.index()];
        let sum = a.clone() + b.clone();
        prop_assert_eq!(sum.eval(&lookup), a.eval(&lookup) + b.eval(&lookup));
        let prod = a.clone() * k;
        prop_assert_eq!(prod.eval(&lookup), a.eval(&lookup) * k);
        let diff = a.clone() - b.clone();
        prop_assert_eq!(diff.eval(&lookup), a.eval(&lookup) - b.eval(&lookup));
    }

    /// Substitution is evaluation composition.
    #[test]
    fn affine_subst_composes(a in small_expr(), r in small_expr(), v in 0u32..6,
                             env in prop::collection::vec(-50i64..50, 6)) {
        let lookup = |w: VarId| env[w.index()];
        let substituted = a.subst(VarId(v), &r);
        let mut env2 = env.clone();
        env2[v as usize] = r.eval(&lookup);
        let lookup2 = |w: VarId| env2[w.index()];
        prop_assert_eq!(substituted.eval(&lookup), a.eval(&lookup2));
    }

    /// Structural equality is semantic: normalized forms are canonical.
    #[test]
    fn affine_normalization_is_canonical(a in small_expr(), b in small_expr()) {
        let l = a.clone() + b.clone();
        let r = b + a;
        prop_assert_eq!(l, r);
    }
}

fn tiny_machine(l1_lines: usize, assoc: usize) -> MachineDesc {
    MachineDesc {
        name: "prop".into(),
        clock_mhz: 100,
        fp_registers: 32,
        caches: vec![CacheDesc {
            name: "L1".into(),
            capacity_bytes: l1_lines * 32,
            associativity: assoc,
            line_bytes: 32,
            miss_penalty_cycles: 10,
        }],
        tlb: TlbDesc {
            entries: 8,
            page_bytes: 256,
            miss_penalty_cycles: 30,
        },
        cost: CostModel::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulator sanity: per-level misses never exceed demand accesses.
    #[test]
    fn misses_bounded_by_accesses(addrs in prop::collection::vec(0u64..4096, 1..300)) {
        use eco_cachesim::{AccessKind, MemoryHierarchy};
        let mut h = MemoryHierarchy::new(&tiny_machine(8, 2));
        for &a in &addrs {
            h.access(a * 8, AccessKind::Load);
        }
        let c = h.into_counters();
        prop_assert!(c.cache_misses[0] <= c.loads);
        prop_assert!(c.tlb_misses <= c.loads);
        prop_assert!(c.cycles() > 0);
    }

    /// The genuine LRU *stack property*: a fully-associative LRU cache
    /// with more lines never misses more than a smaller one on the same
    /// trace. (Note it does NOT hold across different set mappings —
    /// direct-mapped can beat fully-associative LRU on adversarial
    /// traces, which an earlier version of this property learned from a
    /// proptest counterexample.)
    #[test]
    fn lru_stack_property(addrs in prop::collection::vec(0u64..2048, 1..200)) {
        use eco_cachesim::{AccessKind, MemoryHierarchy};
        let small = tiny_machine(8, 8);   // fully associative, 8 lines
        let large = tiny_machine(32, 32); // fully associative, 32 lines
        let mut hs = MemoryHierarchy::new(&small);
        let mut hl = MemoryHierarchy::new(&large);
        for &a in &addrs {
            hs.access(a * 8, AccessKind::Load);
            hl.access(a * 8, AccessKind::Load);
        }
        prop_assert!(
            hl.counters().cache_misses[0] <= hs.counters().cache_misses[0],
            "{} > {}", hl.counters().cache_misses[0], hs.counters().cache_misses[0]
        );
    }
}

/// Random tile/unroll parameters for a random Matrix Multiply variant
/// always generate code that computes the same product (the repo's
/// central invariant).
#[test]
fn random_variant_parameters_preserve_semantics() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
    let variants = derive_variants(&nest, &machine, &kernel.program);
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let strategy = (
        0..variants.len(),
        1u64..6,
        1u64..6,
        prop::collection::vec(1u64..40, 3),
        7i64..26,
    );
    for _ in 0..24 {
        let (vi, ui, uj, ts, n) = strategy.new_tree(&mut runner).expect("tree").current();
        let v = &variants[vi];
        let mut params = ParamValues::new();
        let names = v.param_names();
        let mut ti = ts.into_iter().cycle();
        for nm in &names {
            let val = if nm.starts_with('U') {
                if nm == "UI" {
                    ui
                } else {
                    uj
                }
            } else {
                ti.next().expect("cycle")
            };
            params.insert(nm.clone(), val);
        }
        let Ok(program) = generate(&kernel, &nest, v, &params, &machine) else {
            continue; // infeasible point: fine, the search skips these too
        };
        let run = |p: &eco_ir::Program| {
            let pr = Params::new().with(kernel.size, n);
            let layout = ArrayLayout::new(p, &pr, &LayoutOptions::default()).expect("layout");
            let mut st = Storage::seeded(&layout, 1234);
            interpret(p, &pr, &layout, &mut st)
                .unwrap_or_else(|e| panic!("{} {:?} N={n}: {e}\n{p}", v.name, params));
            st
        };
        let want = run(&kernel.program);
        let got = run(&program);
        let c = kernel.program.array_by_name("C").expect("C");
        assert!(
            want.max_abs_diff(&got, c) < 1e-9,
            "{} {:?} N={n} differs",
            v.name,
            params
        );
        // And the measured trace must execute without OOB accesses.
        let pr = Params::new().with(kernel.size, n);
        measure(&program, &pr, &machine, &LayoutOptions::default()).expect("trace ok");
    }
}

/// Differential property for the compiled execution pipeline
/// (DESIGN.md §4): across random kernels × derived variants × random
/// tile/unroll/size parameters, the lowered [`ExecutablePlan`] and the
/// tree-walking reference produce identical `Counters` (including
/// per-tag attribution).
#[test]
fn compiled_plan_matches_reference_on_random_variants() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = LayoutOptions::default();
    let kernels = Kernel::all();
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let strategy = (
        0..kernels.len(),
        0..16usize,
        1u64..6,
        1u64..6,
        prop::collection::vec(1u64..40, 3),
        7i64..26,
    );
    let mut checked = 0usize;
    for _ in 0..24 {
        let (ki, vi, ui, uj, ts, n) = strategy.new_tree(&mut runner).expect("tree").current();
        let kernel = &kernels[ki];
        let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
        let variants = derive_variants(&nest, &machine, &kernel.program);
        let v = &variants[vi % variants.len()];
        let mut params = ParamValues::new();
        let mut ti = ts.into_iter().cycle();
        for nm in &v.param_names() {
            let val = if nm.starts_with('U') {
                if nm == "UI" {
                    ui
                } else {
                    uj
                }
            } else {
                ti.next().expect("cycle")
            };
            params.insert(nm.clone(), val);
        }
        let Ok(program) = generate(kernel, &nest, v, &params, &machine) else {
            continue; // infeasible point: fine, the search skips these too
        };
        let pr = Params::new().with(kernel.size, n);
        let plan = ExecutablePlan::compile(&program).expect("compile");
        checked += 1;
        // Architectural parity: every counter, with and without per-tag
        // miss attribution.
        assert_eq!(
            plan.measure(&pr, &machine, &opts),
            measure_reference(&program, &pr, &machine, &opts),
            "{} {:?} N={n} measurement differs",
            v.name,
            params
        );
        assert_eq!(
            plan.measure_attributed(&pr, &machine, &opts),
            measure_attributed_reference(&program, &pr, &machine, &opts),
            "{} {:?} N={n} attributed measurement differs",
            v.name,
            params
        );
    }
    assert!(
        checked >= 8,
        "only {checked}/24 random points were feasible; the property is near-vacuous"
    );
}

/// On the full-size (unscaled) machine a tiled matmul's working set
/// stays L1-resident, so nearly every access is served by a lane's
/// remembered slots or the same-line shortcut — and the counters still
/// match the per-access reference exactly, with and without per-tag
/// attribution.
#[test]
fn stream_walker_matches_reference_on_full_size_machine() {
    use eco_bench::mm_table_row;
    let machine = MachineDesc::sgi_r10000();
    let opts = LayoutOptions::default();
    let kernel = Kernel::matmul();
    for (ti, tj, tk, n) in [(4u64, 16, 16, 128i64), (8, 32, 16, 96), (2, 8, 8, 64)] {
        let program = mm_table_row(ti, tj, tk, false);
        let pr = Params::new().with(kernel.size, n);
        let plan = ExecutablePlan::compile(&program).expect("compile");
        assert_eq!(
            plan.measure(&pr, &machine, &opts),
            measure_reference(&program, &pr, &machine, &opts),
            "tiles ({ti},{tj},{tk}) N={n}: walked counters differ from the reference"
        );
        assert_eq!(
            plan.measure_attributed(&pr, &machine, &opts),
            measure_attributed_reference(&program, &pr, &machine, &opts),
            "tiles ({ti},{tj},{tk}) N={n}: attributed counters differ"
        );
    }
}

/// The lowering shape — `(insts, sites, fused_loops, guarded_runs,
/// hoisted_guards)` — of two Table-1 matmul tilings (tiled, unrolled
/// and jammed, scalar-replaced; the second with prefetches). The
/// kernels' own shapes are pinned in `crates/exec/src/plan.rs`.
#[test]
fn mm_table_rows_keep_their_lowering_shape() {
    use eco_bench::mm_table_row;
    for (ti, tj, tk, prefetch, want) in [
        (16u64, 16, 16, false, (91, 64, 1, 16, 24)),
        (8, 32, 16, true, (91, 69, 1, 16, 24)),
    ] {
        let plan = ExecutablePlan::compile(&mm_table_row(ti, tj, tk, prefetch)).expect("compile");
        let s = plan.lowering_stats();
        assert_eq!(
            (
                s.insts,
                s.sites,
                s.fused_loops,
                s.guarded_runs,
                s.hoisted_guards
            ),
            want,
            "tiles ({ti},{tj},{tk}) prefetch={prefetch}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The memo cache is transparent and the engine deterministic: a
    /// warm-cache parallel re-run of the whole staged search returns a
    /// `Tuned` byte-identical to a cold single-threaded run, the warm
    /// run performs zero new simulations, and the search statistics
    /// don't depend on the thread count.
    #[test]
    fn warm_cache_parallel_tuning_matches_cold_serial_run(search_n in 24i64..48) {
        use eco_core::{Optimizer, SearchOptions};
        use eco_exec::{Engine, EngineConfig, Evaluator};
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let kernel = Kernel::matmul();
        let opts = SearchOptions::builder()
            .search_n(search_n)
            .max_variants(1)
            .build()
            .expect("valid options");

        let cold = Engine::with_config(machine.clone(), EngineConfig::new().threads(1))
            .expect("engine");
        let mut opt = Optimizer::new(machine.clone());
        opt.opts = opts;
        let a = opt.run_with(&kernel, &cold).expect("cold run");

        let warm = Engine::with_config(machine.clone(), EngineConfig::new().threads(4))
            .expect("engine");
        let _prime = opt.run_with(&kernel, &warm).expect("priming run");
        let evaluated_after_prime = warm.stats().evaluated;
        let b = opt.run_with(&kernel, &warm).expect("warm run");

        prop_assert_eq!(&a.variant.name, &b.variant.name);
        prop_assert_eq!(&a.params, &b.params);
        prop_assert_eq!(&a.prefetches, &b.prefetches);
        prop_assert_eq!(a.program.to_string(), b.program.to_string());
        prop_assert_eq!(a.counters.cycles(), b.counters.cycles());
        prop_assert_eq!(&a.stats, &b.stats);
        // the warm run was served entirely from the memo cache
        prop_assert_eq!(warm.stats().evaluated, evaluated_after_prime);
        prop_assert!(warm.stats().cache_hits > 0);
    }
}

/// Figure CSVs are byte-identical whether the sweep runs single-
/// threaded, multi-threaded, or entirely out of the memo cache.
#[test]
fn sweep_csv_identical_across_threads_and_cache_state() {
    use eco_bench::mflops_sweep;
    use eco_exec::{Engine, EngineConfig, Evaluator};
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let sizes = [16i64, 24, 32, 40];
    let ident = |_n: i64| kernel.program.clone();
    let series: [(&str, &dyn Fn(i64) -> eco_ir::Program); 1] = [("naive", &ident)];

    let serial =
        Engine::with_config(machine.clone(), EngineConfig::new().threads(1)).expect("engine");
    let parallel =
        Engine::with_config(machine.clone(), EngineConfig::new().threads(4)).expect("engine");
    let a = mflops_sweep(&serial, &kernel, &sizes, &series).to_csv();
    let b = mflops_sweep(&parallel, &kernel, &sizes, &series).to_csv();
    let warm = mflops_sweep(&parallel, &kernel, &sizes, &series).to_csv();
    assert_eq!(a, b, "parallel sweep must match the serial one");
    assert_eq!(a, warm, "memoized sweep must match the cold one");
    assert!(parallel.stats().cache_hits >= sizes.len() as u64);
}

/// §4.3 expectations on the search statistics: the guided search visits
/// a few dozen to a few hundred points, screens all derived variants
/// but fully searches only the shortlist, and executes every point it
/// counts (engine-side accounting agrees).
#[test]
fn search_stats_match_section_4_3_expectations() {
    use eco_core::{EngineConfig, SearchOptions, TuneRequest};
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = SearchOptions::builder()
        .search_n(48)
        .max_variants(2)
        .build()
        .expect("valid options");
    let report = TuneRequest::new(Kernel::matmul(), machine.clone())
        .options(opts)
        .engine(EngineConfig::new())
        .run()
        .expect("optimize");
    let stats = &report.tuned.stats;
    assert!(
        (10..=500).contains(&stats.points),
        "guided MM search should cost tens-to-hundreds of points, got {}",
        stats.points
    );
    assert!(stats.variants_derived > 0);
    assert!(
        stats.variants_searched <= 2,
        "max_variants bounds the fully-searched shortlist"
    );
    assert!(stats.variants_searched <= stats.variants_derived);
    // every counted point was executed through the engine (memoized or not)
    assert!(report.engine.requested >= stats.points as u64);
    assert!(report.engine.evaluated + report.engine.cache_hits == report.engine.requested);
}
