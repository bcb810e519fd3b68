//! Shared harness for regenerating the paper's tables and figures.
//!
//! The `repro` binary (in `src/bin/repro.rs`) drives these helpers, and
//! the `benchmark/` package times some of them. See DESIGN.md §9 for the
//! experiment index and EXPERIMENTS.md for recorded results.

pub mod cli;
pub mod figures;
pub mod serve;
pub mod sweep;
pub mod top;

use eco_exec::{measure, Counters, EvalJob, Evaluator, LayoutOptions, Params};
use eco_ir::{AffineExpr, Program};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_transform::{
    copy_in, insert_prefetch, scalar_replace, tile_nest, unroll_and_jam, CopyDim, CopySpec,
    LoopSel, TileSpec,
};

/// Measures `program` at problem size `n` on `machine`.
///
/// # Panics
///
/// Panics if the program fails to execute (all harness programs are
/// verified by the test suite first).
pub fn counters_at(program: &Program, kernel: &Kernel, n: i64, machine: &MachineDesc) -> Counters {
    let params = Params::new().with(kernel.size, n);
    measure(program, &params, machine, &LayoutOptions::default())
        .unwrap_or_else(|e| panic!("{} at N={n}: {e}", program.name))
}

/// MFLOPS of `program` at problem size `n` on `machine`.
pub fn mflops_at(program: &Program, kernel: &Kernel, n: i64, machine: &MachineDesc) -> f64 {
    counters_at(program, kernel, n, machine).mflops(machine.clock_mhz)
}

/// Measures `program` at problem size `n` through an [`Evaluator`],
/// picking up memoization, parallelism and tracing from the engine.
///
/// # Panics
///
/// Panics if the program fails to execute, like [`counters_at`].
pub fn counters_at_with(
    engine: &dyn Evaluator,
    program: &Program,
    kernel: &Kernel,
    n: i64,
) -> Counters {
    let params = Params::new().with(kernel.size, n);
    let job = EvalJob::new(program.clone(), params).with_label(format!("{}/N={n}", program.name));
    engine
        .eval(job)
        .unwrap_or_else(|e| panic!("{} at N={n}: {e}", program.name))
}

/// MFLOPS of `program` at problem size `n` through an [`Evaluator`].
///
/// # Panics
///
/// Panics if the program fails to execute, like [`counters_at`].
pub fn mflops_at_with(engine: &dyn Evaluator, program: &Program, kernel: &Kernel, n: i64) -> f64 {
    counters_at_with(engine, program, kernel, n).mflops(engine.machine().clock_mhz)
}

/// Runs a whole figure sweep through an [`Evaluator`] as one batch: one
/// MFLOPS series per `(name, program-for-size)` entry over `sizes`.
///
/// All `series × sizes` points are submitted together so the engine can
/// evaluate them in parallel; results come back in submission order, so
/// the resulting [`Sweep`] (and its CSV) is identical whatever the
/// thread count.
///
/// # Panics
///
/// Panics if any point fails to execute, like [`counters_at`].
pub fn mflops_sweep(
    engine: &dyn Evaluator,
    kernel: &Kernel,
    sizes: &[i64],
    series: &[(&str, &dyn Fn(i64) -> Program)],
) -> Sweep {
    let mut jobs = Vec::with_capacity(series.len() * sizes.len());
    for (name, program_for) in series {
        for &n in sizes {
            let program = program_for(n);
            let params = Params::new().with(kernel.size, n);
            let label = format!("{name}/N={n}");
            jobs.push(EvalJob::new(program, params).with_label(label));
        }
    }
    let clock = engine.machine().clock_mhz;
    let results = engine.eval_batch(&jobs);
    let mut sweep = Sweep {
        sizes: sizes.to_vec(),
        series: Vec::with_capacity(series.len()),
    };
    for (si, (name, _)) in series.iter().enumerate() {
        let ys = (0..sizes.len())
            .map(|i| {
                let r = &results[si * sizes.len() + i];
                match r {
                    Ok(c) => c.mflops(clock),
                    Err(e) => panic!("{name} at N={}: {e}", sizes[i]),
                }
            })
            .collect();
        sweep.series.push((name.to_string(), ys));
    }
    sweep
}

/// Builds a Table-1-style Matrix Multiply version: optional tiling of
/// each loop (a size of 1 leaves the loop untiled, like the table's
/// `TI = 1` rows), a 4×4 register tile, and optional prefetching of
/// every array at distance 2.
///
/// # Panics
///
/// Panics on transformation failure (parameters in Table 1 are valid).
pub fn mm_table_row(ti: u64, tj: u64, tk: u64, prefetch: bool) -> Program {
    let kernel = Kernel::matmul();
    let p = &kernel.program;
    let (kv, jv, iv) = (
        p.var_by_name("K").expect("K"),
        p.var_by_name("J").expect("J"),
        p.var_by_name("I").expect("I"),
    );
    let mut tiles = Vec::new();
    let mut order = Vec::new();
    for (v, t) in [(kv, tk), (jv, tj), (iv, ti)] {
        if t > 1 {
            tiles.push(TileSpec { var: v, tile: t });
            order.push(LoopSel::Control(v));
        }
    }
    order.extend([LoopSel::Point(jv), LoopSel::Point(iv), LoopSel::Point(kv)]);
    let (mut program, _) = tile_nest(p, &tiles, &order).expect("tile");
    program = unroll_and_jam(&program, iv, 4).expect("uaj i");
    program = unroll_and_jam(&program, jv, 4).expect("uaj j");
    program = scalar_replace(&program, kv, Some(32)).expect("scalar");
    if prefetch {
        for name in ["A", "B"] {
            let a = program.array_by_name(name).expect("array");
            program = insert_prefetch(&program, kv, a, 2).expect("prefetch");
        }
    }
    program.name = format!("mm TI={ti} TJ={tj} TK={tk} pref={prefetch}");
    program
}

/// Builds a Table-1-style Jacobi version: optional tiling (size 1 =
/// untiled), a 2×2 register tile on the outer loops, rotating register
/// replacement along `I`, and optional prefetching at distance 2.
///
/// # Panics
///
/// Panics on transformation failure.
pub fn jacobi_table_row(ti: u64, tj: u64, tk: u64, prefetch: bool) -> Program {
    let kernel = Kernel::jacobi3d();
    let p = &kernel.program;
    let (kv, jv, iv) = (
        p.var_by_name("K").expect("K"),
        p.var_by_name("J").expect("J"),
        p.var_by_name("I").expect("I"),
    );
    let mut tiles = Vec::new();
    let mut order = Vec::new();
    for (v, t) in [(iv, ti), (jv, tj), (kv, tk)] {
        if t > 1 {
            tiles.push(TileSpec { var: v, tile: t });
            order.push(LoopSel::Control(v));
        }
    }
    order.extend([LoopSel::Point(kv), LoopSel::Point(jv), LoopSel::Point(iv)]);
    let (mut program, _) = tile_nest(p, &tiles, &order).expect("tile");
    program = unroll_and_jam(&program, kv, 2).expect("uaj k");
    program = unroll_and_jam(&program, jv, 2).expect("uaj j");
    program = scalar_replace(&program, iv, Some(32)).expect("scalar");
    if prefetch {
        for name in ["B", "A"] {
            let a = program.array_by_name(name).expect("array");
            program = insert_prefetch(&program, iv, a, 2).expect("prefetch");
        }
    }
    program.name = format!("jacobi TI={ti} TJ={tj} TK={tk} pref={prefetch}");
    program
}

/// Builds the paper's Figure 1(b)/(c)-style hand-parameterized copy
/// variant, used by the copy-vs-no-copy ablation.
///
/// # Panics
///
/// Panics on transformation failure.
pub fn mm_copy_variant(ti: u64, tj: u64, tk: u64, copy: bool) -> Program {
    let kernel = Kernel::matmul();
    let p = &kernel.program;
    let (kv, jv, iv) = (
        p.var_by_name("K").expect("K"),
        p.var_by_name("J").expect("J"),
        p.var_by_name("I").expect("I"),
    );
    let tiles = [
        TileSpec { var: kv, tile: tk },
        TileSpec { var: jv, tile: tj },
        TileSpec { var: iv, tile: ti },
    ];
    let order = [
        LoopSel::Control(kv),
        LoopSel::Control(jv),
        LoopSel::Control(iv),
        LoopSel::Point(jv),
        LoopSel::Point(iv),
        LoopSel::Point(kv),
    ];
    let (mut program, controls) = tile_nest(p, &tiles, &order).expect("tile");
    let (kk, jj, ii) = (controls[0], controls[1], controls[2]);
    program = unroll_and_jam(&program, iv, 4).expect("uaj i");
    program = unroll_and_jam(&program, jv, 4).expect("uaj j");
    program = scalar_replace(&program, kv, Some(32)).expect("scalar");
    if copy {
        let b = program.array_by_name("B").expect("B");
        program = copy_in(
            &program,
            &CopySpec {
                at: jj,
                array: b,
                region: vec![
                    CopyDim {
                        lo: AffineExpr::var(kk),
                        extent: tk,
                    },
                    CopyDim {
                        lo: AffineExpr::var(jj),
                        extent: tj,
                    },
                ],
                buffer_name: "P".into(),
            },
        )
        .expect("copy B");
        let a = program.array_by_name("A").expect("A");
        program = copy_in(
            &program,
            &CopySpec {
                at: ii,
                array: a,
                region: vec![
                    CopyDim {
                        lo: AffineExpr::var(ii),
                        extent: ti,
                    },
                    CopyDim {
                        lo: AffineExpr::var(kk),
                        extent: tk,
                    },
                ],
                buffer_name: "Q".into(),
            },
        )
        .expect("copy A");
    }
    program.name = format!("mm_copyvar copy={copy}");
    program
}

/// A figure's data: one MFLOPS series per implementation over a size
/// sweep.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// Problem sizes (x-axis).
    pub sizes: Vec<i64>,
    /// `(series name, MFLOPS per size)`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Sweep {
    /// Renders as CSV (`size,series1,series2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("N");
        for (name, _) in &self.series {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (i, n) in self.sizes.iter().enumerate() {
            out.push_str(&n.to_string());
            for (_, ys) in &self.series {
                out.push_str(&format!(",{:.1}", ys[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Renders as an aligned text table with min/avg/max per series,
    /// like the prose summaries in §4.
    pub fn to_table(&self) -> String {
        let mut out = format!("{:>6}", "N");
        for (name, _) in &self.series {
            out.push_str(&format!("{name:>12}"));
        }
        out.push('\n');
        for (i, n) in self.sizes.iter().enumerate() {
            out.push_str(&format!("{n:>6}"));
            for (_, ys) in &self.series {
                out.push_str(&format!("{:>12.1}", ys[i]));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:>6}", "stats"));
        for (_, ys) in &self.series {
            let (min, max) = ys
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &y| (a.min(y), b.max(y)));
            let avg = ys.iter().sum::<f64>() / ys.len() as f64;
            out.push_str(&format!("{:>12}", format!("{min:.0}/{avg:.0}/{max:.0}")));
        }
        out.push_str("  (min/avg/max)\n");
        out
    }

    /// The average of a named series.
    pub fn average(&self, name: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ys)| ys.iter().sum::<f64>() / ys.len() as f64)
    }
}

/// The problem sizes used for the Matrix Multiply figures on the scaled
/// machines: the paper's 100–3500 range maps to 24–320 at 1/32 scale
/// (capacity ∝ N² for 2-D data), with power-of-two sizes included to
/// expose conflict-miss pathologies.
pub fn mm_figure_sizes() -> Vec<i64> {
    vec![
        24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 288, 320,
    ]
}

/// The problem sizes for the Jacobi figures: the paper's 40–270 maps to
/// 13–85 at 1/32 scale (capacity ∝ N³ for 3-D data).
pub fn jacobi_figure_sizes() -> Vec<i64> {
    vec![12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 56, 64, 72, 80]
}

/// The scale factor applied to both machines for the figure sweeps.
pub const FIGURE_SCALE: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use eco_exec::{interpret, ArrayLayout, Storage};

    fn assert_correct(program: &Program, kernel: &Kernel, n: i64) {
        let run = |p: &Program| {
            let pr = Params::new().with(kernel.size, n);
            let layout = ArrayLayout::new(p, &pr, &LayoutOptions::default()).expect("layout");
            let mut st = Storage::seeded(&layout, 5);
            interpret(p, &pr, &layout, &mut st).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            st
        };
        let want = run(&kernel.program);
        let got = run(program);
        for &o in &kernel.outputs {
            assert!(
                want.max_abs_diff(&got, o) < 1e-9,
                "{} wrong at N={n}",
                program.name
            );
        }
    }

    #[test]
    fn table1_mm_rows_are_correct() {
        let kernel = Kernel::matmul();
        for (ti, tj, tk, pf) in [(1, 32, 64, false), (8, 32, 32, false), (16, 64, 16, true)] {
            assert_correct(&mm_table_row(ti, tj, tk, pf), &kernel, 37);
        }
    }

    #[test]
    fn table1_jacobi_rows_are_correct() {
        let kernel = Kernel::jacobi3d();
        for (ti, tj, tk, pf) in [
            (1, 1, 1, false),
            (1, 1, 1, true),
            (1, 16, 8, false),
            (30, 16, 1, true),
        ] {
            assert_correct(&jacobi_table_row(ti, tj, tk, pf), &kernel, 21);
        }
    }

    #[test]
    fn copy_variant_is_correct_both_ways() {
        let kernel = Kernel::matmul();
        for copy in [false, true] {
            assert_correct(&mm_copy_variant(8, 8, 8, copy), &kernel, 29);
        }
    }

    #[test]
    fn sweep_rendering() {
        let s = Sweep {
            sizes: vec![10, 20],
            series: vec![("ECO".into(), vec![100.0, 200.0])],
        };
        let csv = s.to_csv();
        assert!(csv.starts_with("N,ECO\n10,100.0\n20,200.0\n"), "{csv}");
        let t = s.to_table();
        assert!(t.contains("100/150/200"), "{t}");
        assert_eq!(s.average("ECO"), Some(150.0));
        assert_eq!(s.average("missing"), None);
    }

    #[test]
    fn mflops_helper_is_positive() {
        let kernel = Kernel::matmul();
        let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
        let m = mflops_at(&kernel.program, &kernel, 16, &machine);
        assert!(m > 0.0);
    }

    #[test]
    fn batched_sweep_matches_serial_measurement() {
        use eco_exec::Engine;
        let kernel = Kernel::matmul();
        let machine = MachineDesc::sgi_r10000().scaled(FIGURE_SCALE);
        let engine = Engine::new(machine.clone());
        let sizes = [12i64, 16, 20];
        let ident = |_n: i64| kernel.program.clone();
        let sweep = mflops_sweep(&engine, &kernel, &sizes, &[("base", &ident)]);
        assert_eq!(sweep.series.len(), 1);
        for (i, &n) in sizes.iter().enumerate() {
            let want = mflops_at(&kernel.program, &kernel, n, &machine);
            let got = sweep.series[0].1[i];
            assert!((want - got).abs() < 1e-12, "N={n}: {want} vs {got}");
        }
        assert!(engine.stats().evaluated > 0);
        // the same batch again is served entirely from the memo cache
        let again = mflops_sweep(&engine, &kernel, &sizes, &[("base", &ident)]);
        assert_eq!(sweep.to_csv(), again.to_csv());
        assert!(engine.stats().cache_hits >= sizes.len() as u64);
    }
}
