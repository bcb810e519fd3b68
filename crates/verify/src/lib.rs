//! Static variant certification: translation validation for the ECO
//! search (DESIGN.md "Static certification").
//!
//! The empirical search measures *generated* programs — compositions of
//! tiling, unroll-and-jam, scalar replacement, copying and prefetching.
//! Each pass is unit-tested dynamically, but the composed artifact was
//! only ever validated by executing it. This crate proves, without
//! executing anything, that an `(original, transformed, binding)` triple
//! is safe and semantics-preserving in four passes:
//!
//! 1. bounds — symbolic affine interval analysis over the loop
//!    context (bounds, `min`/`max` tile clamps, residue guards) proving
//!    every load/store subscript in bounds ([`DiagCode::OutOfBounds`])
//!    and every prefetch not *unconditionally* out of bounds
//!    ([`DiagCode::PrefetchNeverInBounds`]; partial overrun is legal —
//!    the engine drops those lines).
//! 2. dependence preservation — recomputes the original nest's distance
//!    vectors and checks them against the transformed loop structure
//!    (tile controls, unrolled steps), rejecting illegal interchange,
//!    tiling or unroll-and-jam ([`DiagCode::DependenceNotPreserved`]).
//! 3. scalar-replacement soundness — no aliasing store may intervene
//!    between a register's load and its uses/write-back
//!    ([`DiagCode::ScalarReplacementAliased`]).
//! 4. copy-in coherence — the filled region covers every buffer access
//!    and computed-into buffers are written back
//!    ([`DiagCode::CopyRegionNotCovered`],
//!    [`DiagCode::MissingWriteBack`]).
//!
//! The entry point is [`certify`]; the search calls it before measuring
//! any candidate point, and `eco lint` exposes it on the command line.

mod bounds;
mod copycheck;
mod depcheck;
mod scalarcheck;

pub use bounds::Ctx;

use eco_ir::Program;
use std::fmt;

/// Stable diagnostic codes (`ECO-E001` ...), one per certifier check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `ECO-E001`: a load or store subscript can leave its array.
    OutOfBounds,
    /// `ECO-E002`: a prefetch subscript is *never* in bounds (a partial
    /// overrun near the array edge is legal and silently dropped).
    PrefetchNeverInBounds,
    /// `ECO-E003`: the transformed loop structure reorders a data
    /// dependence of the original nest.
    DependenceNotPreserved,
    /// `ECO-E004`: a store may alias an array element cached in a
    /// register between its load and its uses.
    ScalarReplacementAliased,
    /// `ECO-E005`: a copy buffer is accessed outside the filled region.
    CopyRegionNotCovered,
    /// `ECO-E006`: a computed-into copy buffer has no write-back to its
    /// origin array.
    MissingWriteBack,
    /// `ECO-E007`: the triple cannot be analyzed (malformed program,
    /// unresolvable parameter, rank mismatch, non-positive extent).
    Malformed,
}

impl DiagCode {
    /// The stable rendered code.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::OutOfBounds => "ECO-E001",
            DiagCode::PrefetchNeverInBounds => "ECO-E002",
            DiagCode::DependenceNotPreserved => "ECO-E003",
            DiagCode::ScalarReplacementAliased => "ECO-E004",
            DiagCode::CopyRegionNotCovered => "ECO-E005",
            DiagCode::MissingWriteBack => "ECO-E006",
            DiagCode::Malformed => "ECO-E007",
        }
    }

    /// The severity the certifier assigns this code by default.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::OutOfBounds
            | DiagCode::PrefetchNeverInBounds
            | DiagCode::DependenceNotPreserved
            | DiagCode::ScalarReplacementAliased
            | DiagCode::CopyRegionNotCovered
            | DiagCode::MissingWriteBack
            | DiagCode::Malformed => Severity::Error,
        }
    }

    /// A short human title ("subscript out of bounds", ...).
    pub fn title(self) -> &'static str {
        match self {
            DiagCode::OutOfBounds => "subscript out of bounds",
            DiagCode::PrefetchNeverInBounds => "prefetch never in bounds",
            DiagCode::DependenceNotPreserved => "dependence not preserved",
            DiagCode::ScalarReplacementAliased => "scalar replacement aliased",
            DiagCode::CopyRegionNotCovered => "copy region not covered",
            DiagCode::MissingWriteBack => "missing copy write-back",
            DiagCode::Malformed => "unanalyzable program",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is. Only [`Severity::Error`] fails
/// certification (and `eco lint`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but not disqualifying.
    Warning,
    /// The variant must not be run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One certifier finding, with the loop context it occurred in
/// (rendered outermost-first, ready for indentation-style printing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (errors fail certification).
    pub severity: Severity,
    /// One-line description of the finding.
    pub message: String,
    /// Enclosing loops/guards, outermost first (`DO KK = 0, N - 1, 64`).
    pub context: Vec<String>,
}

impl Diagnostic {
    /// Renders the diagnostic with its loop context indented below it.
    pub fn render(&self) -> String {
        let mut out = format!("{} [{}]: {}\n", self.code, self.severity, self.message);
        for (depth, line) in self.context.iter().enumerate() {
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// The result of certifying one `(original, transformed, binding)`
/// triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Name of the certified (transformed) program.
    pub program: String,
    /// The parameter binding the proof holds under.
    pub binding: Vec<(String, i64)>,
    /// Load/store/prefetch references whose bounds were proven.
    pub checked_refs: usize,
    /// Non-reduction dependences checked against the transformed nest.
    pub checked_deps: usize,
    /// Findings, in discovery order (pass 1 through pass 4).
    pub diagnostics: Vec<Diagnostic>,
}

impl Certificate {
    /// True if no error-severity diagnostic was found: the variant is
    /// proven safe to execute under the binding.
    pub fn ok(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The first error-severity code, if any (what the search reports).
    pub fn first_error(&self) -> Option<DiagCode> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| d.code)
    }

    /// Renders the whole certificate (verdict line plus diagnostics).
    pub fn render(&self) -> String {
        let binding: Vec<String> = self
            .binding
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let mut out = format!(
            "{}: {} at {} ({} refs, {} deps checked)\n",
            self.program,
            if self.ok() { "certified" } else { "REJECTED" },
            binding.join(" "),
            self.checked_refs,
            self.checked_deps,
        );
        for d in &self.diagnostics {
            out.push_str(&d.render());
        }
        out
    }
}

/// Internal accumulator shared by the passes.
pub(crate) struct Sink {
    pub diagnostics: Vec<Diagnostic>,
    pub checked_refs: usize,
    pub checked_deps: usize,
}

impl Sink {
    pub(crate) fn push(&mut self, code: DiagCode, message: String, context: Vec<String>) {
        let d = Diagnostic {
            code,
            severity: code.severity(),
            message,
            context,
        };
        if !self.diagnostics.contains(&d) {
            self.diagnostics.push(d);
        }
    }
}

/// Certifies that `transformed` is a safe, dependence-preserving
/// compilation of `original` under the parameter `binding`
/// (name/value pairs; the problem size `N`, typically).
///
/// The proof is per-binding: bounds are resolved to integers through the
/// binding, exactly as the engine's layout would. A variant the search
/// wants to run at several sizes is certified once per size.
///
/// Never panics and never executes the programs; all trouble is
/// reported as [`Diagnostic`]s in the returned [`Certificate`].
pub fn certify(
    original: &Program,
    transformed: &Program,
    binding: &[(String, i64)],
) -> Certificate {
    let mut sink = Sink {
        diagnostics: Vec::new(),
        checked_refs: 0,
        checked_deps: 0,
    };
    match transformed.validate() {
        Ok(()) => {
            bounds::check(transformed, binding, &mut sink);
            depcheck::check(original, transformed, &mut sink);
            scalarcheck::check(transformed, binding, &mut sink);
            copycheck::check(transformed, binding, &mut sink);
        }
        Err(why) => {
            sink.push(
                DiagCode::Malformed,
                format!("program fails validation: {why}"),
                Vec::new(),
            );
        }
    }
    Certificate {
        program: transformed.name.clone(),
        binding: binding.to_vec(),
        checked_refs: sink.checked_refs,
        checked_deps: sink.checked_deps,
        diagnostics: sink.diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_ir::{AffineExpr, ArrayRef, Loop, Program, ScalarExpr, Stmt, TempId};
    use eco_kernels::Kernel;
    use eco_transform::{
        copy_in, insert_prefetch, scalar_replace, tile_nest, unroll_and_jam, CopyDim, CopySpec,
        LoopSel, TileSpec,
    };

    fn bind(n: i64) -> Vec<(String, i64)> {
        vec![("N".to_string(), n)]
    }

    /// The full Figure 1(c) construction (mirrors the transform crate's
    /// differential test): tile all three loops, unroll-and-jam J and I,
    /// scalar-replace C, copy B and A, prefetch the B buffer.
    fn mm_figure_1c() -> (Program, Program) {
        let kern = Kernel::matmul();
        let p = &kern.program;
        let (k, j, i) = (
            p.var_by_name("K").expect("K"),
            p.var_by_name("J").expect("J"),
            p.var_by_name("I").expect("I"),
        );
        let (tiled, controls) = tile_nest(
            p,
            &[
                TileSpec { var: k, tile: 8 },
                TileSpec { var: j, tile: 6 },
                TileSpec { var: i, tile: 4 },
            ],
            &[
                LoopSel::Control(k),
                LoopSel::Control(j),
                LoopSel::Control(i),
                LoopSel::Point(j),
                LoopSel::Point(i),
                LoopSel::Point(k),
            ],
        )
        .expect("tile");
        let (kk, jj, ii) = (controls[0], controls[1], controls[2]);
        let u = unroll_and_jam(&tiled, j, 2).expect("uaj j");
        let u = unroll_and_jam(&u, i, 2).expect("uaj i");
        let sr = scalar_replace(&u, k, Some(32)).expect("scalar");
        let b = sr.array_by_name("B").expect("B");
        let with_b = copy_in(
            &sr,
            &CopySpec {
                at: jj,
                array: b,
                region: vec![
                    CopyDim {
                        lo: AffineExpr::var(kk),
                        extent: 8,
                    },
                    CopyDim {
                        lo: AffineExpr::var(jj),
                        extent: 6,
                    },
                ],
                buffer_name: "P".into(),
            },
        )
        .expect("copy B");
        let a = with_b.array_by_name("A").expect("A");
        let with_a = copy_in(
            &with_b,
            &CopySpec {
                at: ii,
                array: a,
                region: vec![
                    CopyDim {
                        lo: AffineExpr::var(ii),
                        extent: 4,
                    },
                    CopyDim {
                        lo: AffineExpr::var(kk),
                        extent: 8,
                    },
                ],
                buffer_name: "Q".into(),
            },
        )
        .expect("copy A");
        let pbuf = with_a.array_by_name("P").expect("P");
        let transformed = insert_prefetch(&with_a, k, pbuf, 2).expect("prefetch");
        (p.clone(), transformed)
    }

    /// `A[I,J] = A[I-1,J+1] + 1` with the loops in the given order
    /// (outermost first). The flow dependence has distance
    /// `(I: +1, J: -1)`, so (I, J) is legal and (J, I) reverses it.
    fn skew(outer_i: bool) -> Program {
        let mut p = Program::new("skew");
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let j = p.add_loop_var("J");
        let a = p.add_array("A", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let hi = AffineExpr::var(n) - AffineExpr::constant(2);
        let store = Stmt::Store {
            target: ArrayRef::new(a, vec![AffineExpr::var(i), AffineExpr::var(j)]),
            value: ScalarExpr::add(
                ScalarExpr::Load(ArrayRef::new(
                    a,
                    vec![
                        AffineExpr::var(i) - AffineExpr::constant(1),
                        AffineExpr::var(j) + AffineExpr::constant(1),
                    ],
                )),
                ScalarExpr::Const(1.0),
            ),
        };
        let mk = |var, body| {
            Stmt::For(Loop {
                var,
                lo: 1.into(),
                hi: hi.clone().into(),
                step: 1,
                body,
            })
        };
        let (outer, inner) = if outer_i { (i, j) } else { (j, i) };
        p.body.push(mk(outer, vec![mk(inner, vec![store])]));
        p
    }

    #[test]
    fn figure_1c_pipeline_certifies_clean() {
        let (orig, tr) = mm_figure_1c();
        for n in [7, 13, 24] {
            let cert = certify(&orig, &tr, &bind(n));
            assert!(cert.ok(), "N={n}:\n{}", cert.render());
            assert!(cert.checked_refs > 0);
            assert!(cert.checked_deps > 0);
            assert!(cert.render().contains("certified"));
        }
    }

    #[test]
    fn jacobi_scalar_rotation_certifies_clean() {
        let kern = Kernel::jacobi3d();
        let i = kern.program.var_by_name("I").expect("I");
        let sr = scalar_replace(&kern.program, i, Some(32)).expect("rotate");
        let cert = certify(&kern.program, &sr, &bind(9));
        assert!(cert.ok(), "{}", cert.render());
    }

    #[test]
    fn unroll_residue_guards_bound_the_shifted_refs() {
        let kern = Kernel::matmul();
        let i = kern.program.var_by_name("I").expect("I");
        let u = unroll_and_jam(&kern.program, i, 3).expect("uaj");
        // N=7 leaves a residue: C[I+1,J], C[I+2,J] live only under
        // their guards, which the interval analysis must honour.
        let cert = certify(&kern.program, &u, &bind(7));
        assert!(cert.ok(), "{}", cert.render());
    }

    #[test]
    fn shrunk_array_is_flagged_out_of_bounds() {
        let kern = Kernel::matmul();
        let mut bad = kern.program.clone();
        let n = bad.var_by_name("N").expect("N");
        let c = bad.array_by_name("C").expect("C");
        bad.arrays[c.index()].dims = vec![
            AffineExpr::var(n) - AffineExpr::constant(1),
            AffineExpr::var(n) - AffineExpr::constant(1),
        ];
        let cert = certify(&kern.program, &bad, &bind(8));
        assert_eq!(cert.first_error(), Some(DiagCode::OutOfBounds));
        assert!(cert.render().contains("ECO-E001"), "{}", cert.render());
    }

    #[test]
    fn hopeless_prefetch_is_flagged_but_edge_overrun_is_not() {
        let kern = Kernel::matmul();
        let i = kern.program.var_by_name("I").expect("I");
        let a = kern.program.array_by_name("A").expect("A");
        let pf = insert_prefetch(&kern.program, i, a, 8).expect("prefetch");
        // At N=8 the prefetch A[I+8,K] can never land inside the array.
        let cert = certify(&kern.program, &pf, &bind(8));
        assert_eq!(cert.first_error(), Some(DiagCode::PrefetchNeverInBounds));
        // At N=16 it merely overruns near the edge, which the engine
        // drops silently: not a diagnostic.
        let cert = certify(&kern.program, &pf, &bind(16));
        assert!(cert.ok(), "{}", cert.render());
    }

    #[test]
    fn reversed_interchange_is_flagged() {
        let cert = certify(&skew(true), &skew(true), &bind(8));
        assert!(cert.ok(), "identity: {}", cert.render());
        let cert = certify(&skew(true), &skew(false), &bind(8));
        assert_eq!(cert.first_error(), Some(DiagCode::DependenceNotPreserved));
    }

    #[test]
    fn aliasing_store_between_load_and_use_is_flagged() {
        let mut p = Program::new("alias");
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::var(n)]);
        let b = p.add_array("B", vec![AffineExpr::var(n)]);
        let t = p.add_temp("t");
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
            step: 1,
            body: vec![
                Stmt::SetTemp {
                    temp: t,
                    value: ScalarExpr::Load(ArrayRef::new(a, vec![AffineExpr::constant(0)])),
                },
                Stmt::Store {
                    target: ArrayRef::new(a, vec![AffineExpr::constant(0)]),
                    value: ScalarExpr::Const(1.0),
                },
                Stmt::Store {
                    target: ArrayRef::new(b, vec![AffineExpr::var(i)]),
                    value: ScalarExpr::add(ScalarExpr::Temp(t), ScalarExpr::Const(0.0)),
                },
            ],
        }));
        let cert = certify(&p, &p, &bind(8));
        assert_eq!(
            cert.first_error(),
            Some(DiagCode::ScalarReplacementAliased),
            "{}",
            cert.render()
        );
    }

    #[test]
    fn double_write_back_is_flagged() {
        let mut p = Program::new("dwb");
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::var(n)]);
        let t0 = p.add_temp("t0");
        let t1 = p.add_temp("t1");
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
            step: 1,
            body: vec![
                Stmt::SetTemp {
                    temp: t0,
                    value: ScalarExpr::Load(ArrayRef::new(a, vec![AffineExpr::var(i)])),
                },
                Stmt::SetTemp {
                    temp: t1,
                    value: ScalarExpr::add(ScalarExpr::Temp(t0), ScalarExpr::Const(1.0)),
                },
                Stmt::Store {
                    target: ArrayRef::new(a, vec![AffineExpr::var(i)]),
                    value: ScalarExpr::Temp(t0),
                },
                Stmt::Store {
                    target: ArrayRef::new(a, vec![AffineExpr::var(i)]),
                    value: ScalarExpr::Temp(t1),
                },
            ],
        }));
        let cert = certify(&p, &p, &bind(8));
        assert_eq!(
            cert.first_error(),
            Some(DiagCode::ScalarReplacementAliased),
            "{}",
            cert.render()
        );
    }

    /// Validation checks only the temporaries a program writes; a read
    /// of an undeclared one must not make the certifier panic.
    #[test]
    fn undeclared_temporary_read_does_not_panic() {
        let mut p = Program::new("stray");
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::var(n)]);
        let t0 = p.add_temp("t0");
        let at = || ArrayRef::new(a, vec![AffineExpr::var(i)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
            step: 1,
            body: vec![
                Stmt::SetTemp {
                    temp: t0,
                    value: ScalarExpr::Load(at()),
                },
                Stmt::Store {
                    target: at(),
                    value: ScalarExpr::add(ScalarExpr::Temp(t0), ScalarExpr::Temp(TempId(7))),
                },
            ],
        }));
        let cert = certify(&p, &p, &bind(8));
        assert!(cert.ok(), "{}", cert.render());
    }

    /// A trivially analyzable original for the copy-corruption tests.
    fn copy_original() -> Program {
        let mut p = Program::new("copyorig");
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::var(n)]);
        let b = p.add_array("B", vec![AffineExpr::var(n)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
            step: 1,
            body: vec![Stmt::Store {
                target: ArrayRef::new(b, vec![AffineExpr::var(i)]),
                value: ScalarExpr::Load(ArrayRef::new(a, vec![AffineExpr::var(i)])),
            }],
        }));
        p
    }

    #[test]
    fn read_past_filled_region_is_flagged() {
        let orig = copy_original();
        let mut p = orig.clone();
        let a = p.array_by_name("A").expect("A");
        let b = p.array_by_name("B").expect("B");
        let f = p.add_loop_var("F");
        let buf = p.add_copy_buffer("P", vec![AffineExpr::constant(4)]);
        let i = p.var_by_name("I").expect("I");
        p.body = vec![
            // fill covers only [0, 2]
            Stmt::For(Loop {
                var: f,
                lo: 0.into(),
                hi: 2.into(),
                step: 1,
                body: vec![Stmt::Store {
                    target: ArrayRef::new(buf, vec![AffineExpr::var(f)]),
                    value: ScalarExpr::Load(ArrayRef::new(a, vec![AffineExpr::var(f)])),
                }],
            }),
            // read walks [0, 3]
            Stmt::For(Loop {
                var: i,
                lo: 0.into(),
                hi: 3.into(),
                step: 1,
                body: vec![Stmt::Store {
                    target: ArrayRef::new(b, vec![AffineExpr::var(i)]),
                    value: ScalarExpr::Load(ArrayRef::new(buf, vec![AffineExpr::var(i)])),
                }],
            }),
        ];
        let cert = certify(&orig, &p, &bind(8));
        assert_eq!(
            cert.first_error(),
            Some(DiagCode::CopyRegionNotCovered),
            "{}",
            cert.render()
        );
    }

    #[test]
    fn computed_buffer_without_write_back_is_flagged() {
        let orig = copy_original();
        let mut p = orig.clone();
        let buf = p.add_copy_buffer("P", vec![AffineExpr::constant(4)]);
        let g = p.add_loop_var("G");
        p.body.push(Stmt::For(Loop {
            var: g,
            lo: 0.into(),
            hi: 3.into(),
            step: 1,
            body: vec![Stmt::Store {
                target: ArrayRef::new(buf, vec![AffineExpr::var(g)]),
                value: ScalarExpr::Const(1.0),
            }],
        }));
        let cert = certify(&orig, &p, &bind(8));
        assert_eq!(
            cert.first_error(),
            Some(DiagCode::MissingWriteBack),
            "{}",
            cert.render()
        );
    }

    #[test]
    fn unresolved_binding_is_malformed() {
        let kern = Kernel::matmul();
        let cert = certify(&kern.program, &kern.program, &[]);
        assert_eq!(cert.first_error(), Some(DiagCode::Malformed));
    }

    #[test]
    fn diagnostic_codes_are_distinct_and_stable() {
        let codes = [
            DiagCode::OutOfBounds,
            DiagCode::PrefetchNeverInBounds,
            DiagCode::DependenceNotPreserved,
            DiagCode::ScalarReplacementAliased,
            DiagCode::CopyRegionNotCovered,
            DiagCode::MissingWriteBack,
            DiagCode::Malformed,
        ];
        for (i, c) in codes.iter().enumerate() {
            assert_eq!(c.as_str(), format!("ECO-E00{}", i + 1));
            assert_eq!(c.severity(), Severity::Error);
            assert!(!c.title().is_empty());
        }
    }
}
