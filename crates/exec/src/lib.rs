//! Execution engines for ECO IR programs.
//!
//! Two execution modes share one layout model ([`ArrayLayout`]):
//!
//! * [`interpret`] runs a program numerically over [`Storage`] — the
//!   semantic oracle used to verify that every transformation preserves
//!   program meaning;
//! * [`measure`] runs a program *architecturally*: it generates the exact
//!   memory-access trace and drives the `eco-cachesim` hierarchy,
//!   returning PAPI-like [`Counters`]. This is
//!   the reproduction's substitute for executing candidate variants on
//!   real hardware during the paper's empirical search.
//!
//! [`measure`] runs on the production [`ExecutablePlan`] bytecode
//! pipeline (lower once per program, replay at every parameter point,
//! batch strided runs through the cache simulator); it compiles and
//! runs a plan, and the [`Engine`] additionally memoizes plans per
//! program so batch re-evaluations skip lowering. [`interpret`] and
//! [`measure_reference`] are the one tree-walking reference executor:
//! the numeric oracle of the transform tests, and the counters oracle
//! the plan is differentially tested against.
//!
//! # Examples
//!
//! Measure naive matrix multiply on the scaled SGI model:
//!
//! ```
//! use eco_exec::{measure, LayoutOptions, Params};
//! use eco_ir::{AffineExpr, ArrayRef, Loop, Program, ScalarExpr, Stmt};
//! use eco_machine::MachineDesc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = Program::new("stream");
//! let n = p.add_param("N");
//! let i = p.add_loop_var("I");
//! let a = p.add_array("A", vec![AffineExpr::var(n)]);
//! let r = ArrayRef::new(a, vec![AffineExpr::var(i)]);
//! p.body.push(Stmt::For(Loop {
//!     var: i,
//!     lo: 0.into(),
//!     hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
//!     step: 1,
//!     body: vec![Stmt::Store {
//!         target: r.clone(),
//!         value: ScalarExpr::add(ScalarExpr::Load(r), ScalarExpr::Const(1.0)),
//!     }],
//! }));
//! let params = Params::new().with_named(&p, "N", 1024)?;
//! let machine = MachineDesc::sgi_r10000().scaled(32);
//! let c = measure(&p, &params, &machine, &LayoutOptions::default())?;
//! assert_eq!(c.loads, 1024);
//! assert_eq!(c.stores, 1024);
//! assert_eq!(c.flops, 1024);
//! # Ok(())
//! # }
//! ```

mod engine;
mod error;
mod layout;
mod plan;
mod reference;

pub use engine::{
    program_fingerprint, Engine, EngineConfig, EngineStats, EvalJob, EvalKey, Evaluator,
};
pub use error::ExecError;
pub use layout::{ArrayLayout, LayoutOptions, Params, Storage};
pub use plan::{measure, measure_attributed, ExecutablePlan, LoweringStats, SimStats};
pub use reference::{interpret, measure_attributed_reference, measure_reference};

/// The structured observability layer (spans, events, deterministic JSON
/// manifests) the engine and search write through; re-exported so
/// downstream crates need no direct `eco-events` dependency.
pub use eco_events as events;

/// The persistent result store backing [`EngineConfig::store`];
/// re-exported so downstream crates (the service layer, store
/// maintenance commands) need no direct `eco-store` dependency.
pub use eco_store as store;

/// The one canonical counter type: `eco-cachesim` produces it, everything
/// downstream (search, baselines, benches) should import it from here so
/// call sites no longer juggle two counter structs.
pub use eco_cachesim::{AccessKind, Counters, TagCounters};

#[cfg(test)]
mod tests {
    use super::*;
    use eco_ir::{AffineExpr, ArrayRef, Bound, Cond, Loop, Program, ScalarExpr, Stmt};
    use eco_machine::MachineDesc;

    /// `C[I,J] += A[I,K] * B[K,J]` over the KJI order of Figure 1(a).
    fn naive_mm() -> Program {
        let mut p = Program::new("mm");
        let n = p.add_param("N");
        let (k, j, i) = (
            p.add_loop_var("K"),
            p.add_loop_var("J"),
            p.add_loop_var("I"),
        );
        let a = p.add_array("A", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let b = p.add_array("B", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let c = p.add_array("C", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let c_ref = ArrayRef::new(c, vec![AffineExpr::var(i), AffineExpr::var(j)]);
        let hi: Bound = (AffineExpr::var(n) - AffineExpr::constant(1)).into();
        let store = Stmt::Store {
            target: c_ref.clone(),
            value: ScalarExpr::add(
                ScalarExpr::Load(c_ref),
                ScalarExpr::mul(
                    ScalarExpr::Load(ArrayRef::new(
                        a,
                        vec![AffineExpr::var(i), AffineExpr::var(k)],
                    )),
                    ScalarExpr::Load(ArrayRef::new(
                        b,
                        vec![AffineExpr::var(k), AffineExpr::var(j)],
                    )),
                ),
            ),
        };
        let mk = |var, body| {
            Stmt::For(Loop {
                var,
                lo: 0.into(),
                hi: hi.clone(),
                step: 1,
                body,
            })
        };
        let nest = mk(k, vec![mk(j, vec![mk(i, vec![store])])]);
        p.body.push(nest);
        p
    }

    fn params_n(p: &Program, n: i64) -> Params {
        Params::new().with_named(p, "N", n).expect("N exists")
    }

    #[test]
    fn interpret_matches_direct_matmul() {
        let p = naive_mm();
        let n = 13usize;
        let params = params_n(&p, n as i64);
        let layout = ArrayLayout::new(&p, &params, &LayoutOptions::default()).expect("layout");
        let mut st = Storage::seeded(&layout, 42);
        let a_id = p.array_by_name("A").expect("A");
        let b_id = p.array_by_name("B").expect("B");
        let c_id = p.array_by_name("C").expect("C");
        // Direct column-major reference computation.
        let (a, b, c0) = (
            st.array(a_id).to_vec(),
            st.array(b_id).to_vec(),
            st.array(c_id).to_vec(),
        );
        let mut want = c0.clone();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    want[i + j * n] += a[i + k * n] * b[k + j * n];
                }
            }
        }
        interpret(&p, &params, &layout, &mut st).expect("interpret");
        let got = st.array(c_id);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    #[test]
    fn measure_counts_accesses_and_flops() {
        let p = naive_mm();
        let n = 16i64;
        let params = params_n(&p, n);
        let machine = MachineDesc::sgi_r10000();
        let c = measure(&p, &params, &machine, &LayoutOptions::default()).expect("measure");
        let n3 = (n * n * n) as u64;
        assert_eq!(c.loads, 3 * n3);
        assert_eq!(c.stores, n3);
        assert_eq!(c.flops, 2 * n3);
        // With N=16, everything fits in the full-size 32KB L1:
        // misses are compulsory only (3 arrays * 2KB / 32B line = 192 lines).
        assert_eq!(c.cache_misses[0], 3 * 16 * 16 * 8 / 32);
    }

    #[test]
    fn measure_larger_matrices_miss_more() {
        let p = naive_mm();
        let machine = MachineDesc::sgi_r10000().scaled(32); // 1KB L1, 32KB L2
        let small =
            measure(&p, &params_n(&p, 4), &machine, &LayoutOptions::default()).expect("small");
        let big = measure(&p, &params_n(&p, 64), &machine, &LayoutOptions::default()).expect("big");
        let small_rate = small.cache_misses[0] as f64 / small.loads as f64;
        let big_rate = big.cache_misses[0] as f64 / big.loads as f64;
        assert!(
            big_rate > 3.0 * small_rate,
            "{big_rate} should dwarf {small_rate}"
        );
        assert!(big.mflops(machine.clock_mhz) < small.mflops(machine.clock_mhz));
    }

    #[test]
    fn out_of_bounds_store_reported() {
        let mut p = Program::new("oob");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::constant(4)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: 4.into(), // one past the end
            step: 1,
            body: vec![Stmt::Store {
                target: ArrayRef::new(a, vec![AffineExpr::var(i)]),
                value: ScalarExpr::Const(1.0),
            }],
        }));
        let params = Params::new();
        let layout = ArrayLayout::new(&p, &params, &LayoutOptions::default()).expect("layout");
        let mut st = Storage::zeroed(&layout);
        let err = interpret(&p, &params, &layout, &mut st).expect_err("oob");
        match err {
            ExecError::OutOfBounds { array, indices, .. } => {
                assert_eq!(array, "A");
                assert_eq!(indices, vec![4]);
            }
            other => panic!("unexpected error {other}"),
        }
        let machine = MachineDesc::sgi_r10000();
        assert!(measure(&p, &params, &machine, &LayoutOptions::default()).is_err());
    }

    #[test]
    fn out_of_bounds_prefetch_ignored() {
        let mut p = Program::new("pf");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::constant(4)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: 3.into(),
            step: 1,
            body: vec![Stmt::Prefetch {
                target: ArrayRef::new(a, vec![AffineExpr::var(i) + AffineExpr::constant(2)]),
            }],
        }));
        let machine = MachineDesc::sgi_r10000();
        let c =
            measure(&p, &Params::new(), &machine, &LayoutOptions::default()).expect("prefetch ok");
        // i=0,1 prefetch in bounds; i=2,3 out of bounds and dropped.
        assert_eq!(c.prefetches, 2);
    }

    #[test]
    fn unbound_param_is_an_error() {
        let p = naive_mm();
        let err = measure(
            &p,
            &Params::new(),
            &MachineDesc::sgi_r10000(),
            &LayoutOptions::default(),
        )
        .expect_err("must fail");
        assert!(
            matches!(err, ExecError::UnboundParam(ref n) if n == "N"),
            "{err}"
        );
    }

    #[test]
    fn guard_limits_execution() {
        // DO I = 0,9: IF (I <= 4) A[I] = 1
        let mut p = Program::new("guard");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::constant(10)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: 9.into(),
            step: 1,
            body: vec![Stmt::If {
                cond: Cond::le(AffineExpr::var(i), AffineExpr::constant(4)),
                then: vec![Stmt::Store {
                    target: ArrayRef::new(a, vec![AffineExpr::var(i)]),
                    value: ScalarExpr::Const(1.0),
                }],
            }],
        }));
        let params = Params::new();
        let layout = ArrayLayout::new(&p, &params, &LayoutOptions::default()).expect("layout");
        let mut st = Storage::zeroed(&layout);
        interpret(&p, &params, &layout, &mut st).expect("ok");
        let a_id = p.array_by_name("A").expect("A");
        assert_eq!(st.array(a_id).iter().filter(|&&x| x == 1.0).count(), 5);
        let c = measure(
            &p,
            &params,
            &MachineDesc::sgi_r10000(),
            &LayoutOptions::default(),
        )
        .expect("measure");
        assert_eq!(c.stores, 5);
    }

    #[test]
    fn temps_model_registers_no_traffic() {
        // t = A[0]; DO I: B[I] = t  -- one load total.
        let mut p = Program::new("temps");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::constant(1)]);
        let b = p.add_array("B", vec![AffineExpr::constant(8)]);
        let t = p.add_temp("t");
        p.body.push(Stmt::SetTemp {
            temp: t,
            value: ScalarExpr::Load(ArrayRef::new(a, vec![AffineExpr::constant(0)])),
        });
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: 7.into(),
            step: 1,
            body: vec![Stmt::Store {
                target: ArrayRef::new(b, vec![AffineExpr::var(i)]),
                value: ScalarExpr::Temp(t),
            }],
        }));
        let c = measure(
            &p,
            &Params::new(),
            &MachineDesc::sgi_r10000(),
            &LayoutOptions::default(),
        )
        .expect("measure");
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 8);
    }

    #[test]
    fn layout_is_contiguous_column_major() {
        let p = naive_mm();
        let params = params_n(&p, 4);
        let layout = ArrayLayout::new(&p, &params, &LayoutOptions::default()).expect("layout");
        let a = p.array_by_name("A").expect("A");
        let b = p.array_by_name("B").expect("B");
        assert_eq!(layout.base(a), 0);
        assert_eq!(layout.base(b), 4 * 4 * 8);
        // A[1,2] => flat 1 + 2*4 = 9
        let r = ArrayRef::new(a, vec![AffineExpr::constant(1), AffineExpr::constant(2)]);
        assert_eq!(layout.address(&r, &[]), Some(9 * 8));
    }

    #[test]
    fn layout_padding_separates_arrays() {
        let p = naive_mm();
        let params = params_n(&p, 4);
        let opts = LayoutOptions {
            base_addr: 4096,
            inter_array_pad_bytes: 64,
        };
        let layout = ArrayLayout::new(&p, &params, &opts).expect("layout");
        let a = p.array_by_name("A").expect("A");
        let b = p.array_by_name("B").expect("B");
        assert_eq!(layout.base(a), 4096);
        assert_eq!(layout.base(b), 4096 + 128 + 64);
    }

    #[test]
    fn seeded_storage_is_deterministic_and_varied() {
        let p = naive_mm();
        let params = params_n(&p, 8);
        let layout = ArrayLayout::new(&p, &params, &LayoutOptions::default()).expect("layout");
        let s1 = Storage::seeded(&layout, 7);
        let s2 = Storage::seeded(&layout, 7);
        let s3 = Storage::seeded(&layout, 8);
        let a = p.array_by_name("A").expect("A");
        assert_eq!(s1.array(a), s2.array(a));
        assert_ne!(s1.array(a), s3.array(a));
        assert!(s1.array(a).iter().all(|x| x.abs() <= 1.0));
        assert_eq!(s1.max_abs_diff(&s2, a), 0.0);
    }
}
