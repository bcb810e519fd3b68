//! Differential tests for the static variant certifier (`eco-verify`):
//! across random kernels × derived variants × random parameters, a
//! certificate implies the engine executes the candidate without a
//! single out-of-bounds access, and injected corruptions — an illegal
//! interchange, a shrunk array, a hopeless prefetch, a deleted copy
//! write-back — are each caught statically with their distinct codes.

use eco_analysis::NestInfo;
use eco_core::{derive_variants, generate, ParamValues};
use eco_exec::{interpret, measure, ArrayLayout, LayoutOptions, Params, Storage};
use eco_ir::{AffineExpr, ArrayRef, Loop, Program, ScalarExpr, Stmt};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_transform::insert_prefetch;
use eco_verify::{certify, DiagCode};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

/// Random tile/unroll parameters for a random variant of a random
/// kernel, mirroring the semantic-preservation proptest in `props.rs`.
fn random_point(
    runner: &mut proptest::test_runner::TestRunner,
) -> (usize, usize, u64, u64, Vec<u64>, i64) {
    let strategy = (
        0..Kernel::all().len(),
        0..16usize,
        1u64..6,
        1u64..6,
        prop::collection::vec(1u64..40, 3),
        7i64..26,
    );
    strategy.new_tree(runner).expect("tree").current()
}

fn params_for(v: &eco_core::Variant, ui: u64, uj: u64, ts: &[u64]) -> ParamValues {
    let mut params = ParamValues::new();
    let mut ti = ts.iter().copied().cycle();
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
    params
}

/// Soundness, differentially: whenever the certifier passes a generated
/// candidate, the engine's bounds-checked interpreter and the simulated
/// measurement both execute it without a single out-of-bounds error.
#[test]
fn certified_variants_execute_without_oob() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernels = Kernel::all();
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let mut certified = 0usize;
    for _ in 0..48 {
        let (ki, vi, ui, uj, ts, n) = random_point(&mut runner);
        let kernel = &kernels[ki];
        let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
        let variants = derive_variants(&nest, &machine, &kernel.program);
        let v = &variants[vi % variants.len()];
        let params = params_for(v, ui, uj, &ts);
        let Ok(program) = generate(kernel, &nest, v, &params, &machine) else {
            continue; // infeasible point: the search skips these too
        };
        let size_name = kernel.program.var(kernel.size).name.clone();
        let cert = certify(&kernel.program, &program, &[(size_name, n)]);
        if !cert.ok() {
            continue; // conservative rejections are allowed to be wrong
        }
        certified += 1;
        let pr = Params::new().with(kernel.size, n);
        measure(&program, &pr, &machine, &LayoutOptions::default()).unwrap_or_else(|e| {
            panic!(
                "{} {:?} N={n} certified but measurement failed: {e}\n{program}",
                v.name, params
            )
        });
        let layout = ArrayLayout::new(&program, &pr, &LayoutOptions::default()).expect("layout");
        let mut st = Storage::seeded(&layout, 1234);
        interpret(&program, &pr, &layout, &mut st).unwrap_or_else(|e| {
            panic!(
                "{} {:?} N={n} certified but interpretation failed: {e}\n{program}",
                v.name, params
            )
        });
    }
    assert!(
        certified >= 8,
        "only {certified}/48 random points were certified; the property is near-vacuous"
    );
}

/// Shrinking a data array of an otherwise-valid generated candidate is
/// caught statically as ECO-E001 — across random variants, not just one
/// hand-picked program.
#[test]
fn shrunk_arrays_are_flagged_e001() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
    let variants = derive_variants(&nest, &machine, &kernel.program);
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let mut flagged = 0usize;
    for _ in 0..32 {
        let (_, vi, ui, uj, ts, n) = random_point(&mut runner);
        let v = &variants[vi % variants.len()];
        let params = params_for(v, ui, uj, &ts);
        let Ok(program) = generate(&kernel, &nest, v, &params, &machine) else {
            continue;
        };
        let mut bad = program.clone();
        let nv = bad.var_by_name("N").expect("N");
        let c = bad.array_by_name("C").expect("C");
        // C is read and written over [0, N-1]^2 by every variant.
        bad.arrays[c.index()].dims = vec![
            AffineExpr::var(nv) - AffineExpr::constant(1),
            AffineExpr::var(nv) - AffineExpr::constant(1),
        ];
        let cert = certify(&kernel.program, &bad, &[("N".to_string(), n)]);
        assert_eq!(
            cert.first_error(),
            Some(DiagCode::OutOfBounds),
            "{} {:?} N={n}:\n{}",
            v.name,
            params,
            cert.render()
        );
        flagged += 1;
    }
    assert!(flagged >= 8, "only {flagged}/32 corrupted points checked");
}

/// A prefetch no iteration can ever land inside the array is caught
/// statically as ECO-E002 on random generated candidates.
#[test]
fn hopeless_prefetches_are_flagged_e002() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
    let variants = derive_variants(&nest, &machine, &kernel.program);
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let mut flagged = 0usize;
    for _ in 0..32 {
        let (_, vi, ui, uj, ts, n) = random_point(&mut runner);
        let v = &variants[vi % variants.len()];
        let params = params_for(v, ui, uj, &ts);
        let Ok(program) = generate(&kernel, &nest, v, &params, &machine) else {
            continue;
        };
        // Distance 4096 puts the prefetched line past any N < 26 array
        // for every iteration.
        let b = program.array_by_name("B").expect("B");
        let Ok(pf) = insert_prefetch(&program, v.register_carrier(), b, 4096) else {
            continue; // copy variants read B only through a buffer
        };
        let cert = certify(&kernel.program, &pf, &[("N".to_string(), n)]);
        assert_eq!(
            cert.first_error(),
            Some(DiagCode::PrefetchNeverInBounds),
            "{} {:?} N={n}:\n{}",
            v.name,
            params,
            cert.render()
        );
        flagged += 1;
    }
    assert!(flagged >= 8, "only {flagged}/32 corrupted points checked");
}

/// `DO I: C[I] = C[I] + 1` staged through a copy buffer; with
/// `write_back` the buffer result is flushed to `C`, without it the
/// computation is silently dropped.
fn copy_roundtrip(write_back: bool) -> (Program, Program) {
    let mut orig = Program::new("inc");
    let n = orig.add_param("N");
    let i = orig.add_loop_var("I");
    let c = orig.add_array("C", vec![AffineExpr::var(n)]);
    let hi = AffineExpr::var(n) - AffineExpr::constant(1);
    let at = |v| ArrayRef::new(c, vec![AffineExpr::var(v)]);
    let mk = |var, body| {
        Stmt::For(Loop {
            var,
            lo: 0.into(),
            hi: hi.clone().into(),
            step: 1,
            body,
        })
    };
    orig.body.push(mk(
        i,
        vec![Stmt::Store {
            target: at(i),
            value: ScalarExpr::add(ScalarExpr::Load(at(i)), ScalarExpr::Const(1.0)),
        }],
    ));

    let mut tr = orig.clone();
    let p = tr.add_copy_buffer("P", vec![AffineExpr::var(n)]);
    let pat = |v| ArrayRef::new(p, vec![AffineExpr::var(v)]);
    let fill_v = tr.add_loop_var("F");
    let comp_v = tr.add_loop_var("G");
    let back_v = tr.add_loop_var("H");
    let mut body = vec![
        mk(
            fill_v,
            vec![Stmt::Store {
                target: pat(fill_v),
                value: ScalarExpr::Load(at(fill_v)),
            }],
        ),
        mk(
            comp_v,
            vec![Stmt::Store {
                target: pat(comp_v),
                value: ScalarExpr::add(ScalarExpr::Load(pat(comp_v)), ScalarExpr::Const(1.0)),
            }],
        ),
    ];
    if write_back {
        body.push(mk(
            back_v,
            vec![Stmt::Store {
                target: at(back_v),
                value: ScalarExpr::Load(pat(back_v)),
            }],
        ));
    }
    tr.body = body;
    (orig, tr)
}

/// Deleting the copy write-back loop is caught statically as ECO-E006;
/// the intact round trip certifies clean. Together with the E001/E002
/// properties and the interchange check this shows each injected
/// corruption lands on its own distinct diagnostic code.
#[test]
fn missing_write_back_is_flagged_e006() {
    let bind = vec![("N".to_string(), 12i64)];
    let (orig, good) = copy_roundtrip(true);
    let cert = certify(&orig, &good, &bind);
    assert!(cert.ok(), "intact round trip:\n{}", cert.render());

    let (orig, bad) = copy_roundtrip(false);
    let cert = certify(&orig, &bad, &bind);
    assert_eq!(
        cert.first_error(),
        Some(DiagCode::MissingWriteBack),
        "{}",
        cert.render()
    );
    assert!(cert.render().contains("ECO-E006"), "{}", cert.render());
}

/// An illegal interchange (reversing a flow dependence) is caught
/// statically as ECO-E003, distinct from every corruption above.
#[test]
fn reversed_interchange_is_flagged_e003() {
    // A[I,J] = A[I-1,J+1] + 1: distance (I: +1, J: -1); swapping the
    // loops executes the negative component first.
    let build = |outer_i: bool| {
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
    };
    let cert = certify(&build(true), &build(false), &[("N".to_string(), 9)]);
    assert_eq!(
        cert.first_error(),
        Some(DiagCode::DependenceNotPreserved),
        "{}",
        cert.render()
    );
    assert!(cert.render().contains("ECO-E003"), "{}", cert.render());
}

/// The generated-program corpus, pinned: every kernel's derived
/// variants at their screening parameters (the search's unroll backoff
/// included), plus one prefetch insertion per kernel data array at a
/// near and a hopeless distance. The printed text, the program
/// fingerprint and every certificate (codes, messages, contexts and
/// counts at two sizes) fold into one FNV value, so a change to the
/// transforms, the printer, the fingerprint or the certifier's output
/// fails here, not only in the `golden` CI job.
#[test]
fn generated_corpus_is_pinned() {
    use eco_core::events::Fnv64;
    use eco_core::Optimizer;
    use eco_exec::program_fingerprint;
    use eco_ir::pretty::program_to_string;
    use std::hash::Hasher;

    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opt = Optimizer::new(machine.clone());
    let mut h = Fnv64::new();
    let mut programs = 0usize;
    let mut diagnostics = 0usize;
    let mut fold = |kernel: &Kernel, p: &Program| {
        programs += 1;
        h.write(program_to_string(p).as_bytes());
        h.write_u64(program_fingerprint(p));
        let size = kernel.program.var(kernel.size).name.clone();
        for n in [9, 40] {
            let cert = certify(&kernel.program, p, &[(size.clone(), n)]);
            h.write_usize(cert.checked_refs);
            h.write_usize(cert.checked_deps);
            for d in &cert.diagnostics {
                diagnostics += 1;
                h.write(d.code.as_str().as_bytes());
                h.write(d.message.as_bytes());
                for line in &d.context {
                    h.write(line.as_bytes());
                }
            }
        }
    };
    for kernel in Kernel::all() {
        let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
        for v in derive_variants(&nest, &machine, &kernel.program) {
            let mut params = opt.initial_params(&v);
            let program = loop {
                match generate(&kernel, &nest, &v, &params, &machine) {
                    Ok(p) => break Some(p),
                    Err(_) => {
                        let Some((nm, val)) = params
                            .iter()
                            .filter(|(nm, _)| nm.starts_with('U'))
                            .max_by_key(|&(_, val)| *val)
                            .map(|(nm, &val)| (nm.clone(), val))
                        else {
                            break None;
                        };
                        if val < 2 {
                            break None;
                        }
                        params.insert(nm, val / 2);
                    }
                }
            };
            let Some(program) = program else { continue };
            fold(&kernel, &program);
            for a in 0..kernel.program.arrays.len() {
                for dist in [3, 4096] {
                    let array = eco_ir::ArrayId(a as u32);
                    if let Ok(pf) = insert_prefetch(&program, v.register_carrier(), array, dist) {
                        fold(&kernel, &pf);
                    }
                }
            }
        }
    }
    let got = h.finish();
    assert!(programs > 100, "only {programs} programs in the corpus");
    assert!(
        diagnostics > 0,
        "no certificate in the corpus has a finding"
    );
    assert_eq!(
        got, 0x79df_5bea_d957_9514,
        "the corpus of {programs} programs hashes to {got:#018x}: printed text, \
         fingerprints or certificates changed"
    );
}
