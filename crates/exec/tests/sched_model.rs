//! Checker model driving the *real* engine memo/in-flight dedupe under
//! the controlled scheduler (`--cfg eco_sched`): concurrent batches
//! racing the same evaluation key must agree byte-for-byte, account for
//! every job exactly once (`evaluated + cache_hits + dedup_waits ==
//! requested`), and never evaluate a key twice. Jobs run through the
//! production compiled-plan path, so the plan memo (`engine.plans`) is
//! raced too.
#![cfg(eco_sched)]

use eco_exec::{Engine, EngineConfig, EvalJob, Evaluator, Params};
use eco_ir::{AffineExpr, ArrayRef, Loop, Program, ScalarExpr, Stmt, VarId};
use eco_machine::MachineDesc;
use eco_sched::model::{self, check};
use eco_sched::{explore, Config, DiagCode};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

/// `A[I] += 1` over `I in 0..N-1` — the smallest real program the
/// engine measures, so every schedule pays one tiny lowering and
/// simulation, not a matmul.
fn stream() -> (Program, VarId) {
    let mut p = Program::new("sched-stream");
    let n = p.add_param("N");
    let i = p.add_loop_var("I");
    let a = p.add_array("A", vec![AffineExpr::var(n)]);
    let r = ArrayRef::new(a, vec![AffineExpr::var(i)]);
    p.body.push(Stmt::For(Loop {
        var: i,
        lo: 0.into(),
        hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
        step: 1,
        body: vec![Stmt::Store {
            target: r.clone(),
            value: ScalarExpr::add(ScalarExpr::Load(r), ScalarExpr::Const(1.0)),
        }],
    }));
    (p, n)
}

#[test]
fn memo_dedupe_accounting_holds_in_every_schedule() {
    let report = explore(
        Config {
            max_schedules: 1_000,
            ..Config::default()
        },
        || {
            let (p, n) = stream();
            let engine = Arc::new(
                Engine::with_config(
                    MachineDesc::sgi_r10000().scaled(32),
                    EngineConfig::new().threads(1),
                )
                .expect("engine"),
            );
            // Results land keyed by thread so the duplicate pair can be
            // compared at quiescence (plain std mutex: bookkeeping,
            // not part of the modeled protocol).
            let seen = Arc::new(StdMutex::new(Vec::new()));
            let threads: Vec<_> = [(0u64, 16i64), (1, 16), (2, 24)]
                .into_iter()
                .map(|(id, size)| {
                    let engine = Arc::clone(&engine);
                    let seen = Arc::clone(&seen);
                    let (p, n) = (p.clone(), n);
                    model::thread::spawn(&format!("batch-{id}"), move || {
                        let job = EvalJob::new(p, Params::new().with(n, size));
                        let result = engine.eval(job);
                        seen.lock().unwrap().push((size, result));
                    })
                })
                .collect();
            for t in threads {
                t.join();
            }
            let seen = seen.lock().unwrap();
            // The two batches that requested the same key must agree
            // byte-for-byte, whether the loser joined via the memo
            // cache or an in-flight cell.
            let same: Vec<_> = seen.iter().filter(|(s, _)| *s == 16).collect();
            check(DiagCode::DedupeByteMismatch, same.len() == 2, || {
                format!("{} of 2 duplicate batches returned", same.len())
            });
            check(DiagCode::DedupeByteMismatch, same[0].1 == same[1].1, || {
                "duplicate key evaluated to different counters".to_string()
            });
            let stats = engine.stats();
            check(DiagCode::DedupeByteMismatch, stats.errors == 0, || {
                format!("{} evaluation errors", stats.errors)
            });
            check(DiagCode::DedupeByteMismatch, stats.requested == 3, || {
                format!("requested {} of 3", stats.requested)
            });
            // Exactly one evaluation per distinct key: the duplicate is
            // a memo hit or a dedupe wait, never a recomputation.
            check(DiagCode::DedupeByteMismatch, stats.evaluated == 2, || {
                format!("evaluated {} times for 2 distinct keys", stats.evaluated)
            });
            check(
                DiagCode::DedupeByteMismatch,
                stats.evaluated + stats.cache_hits + stats.dedup_waits == stats.requested,
                || {
                    format!(
                        "accounting leak: evaluated {} + hits {} + waits {} != requested {}",
                        stats.evaluated, stats.cache_hits, stats.dedup_waits, stats.requested
                    )
                },
            );
        },
    );
    assert!(
        report.is_clean(),
        "engine memo dedupe reported: {:?}",
        report.diags
    );
    assert!(
        report.schedules >= 100,
        "only {} schedules",
        report.schedules
    );
    // The documented lock order (`memo` before `inflight`) is the only
    // nesting the protocol ever creates.
    for (from, to) in &report.edges {
        if from.starts_with("engine.") && to.starts_with("engine.") {
            assert_eq!(
                (from.as_str(), to.as_str()),
                ("engine.memo", "engine.inflight"),
                "undocumented engine lock nesting"
            );
        }
    }
}
