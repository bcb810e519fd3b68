//! Pass 4: copy-in coherence.
//!
//! Copy optimization stages a tile of an origin array in a contiguous
//! buffer. Reading the buffer outside the region the fill loops wrote
//! reads garbage ([`DiagCode::CopyRegionNotCovered`]); computing *into*
//! the buffer without ever flushing it back to the origin array drops
//! results ([`DiagCode::MissingWriteBack`]).
//!
//! Fills are recognized by the exact shape `copy_in` emits: a store to
//! the buffer whose value is a pure load of a data array. Coverage is
//! interval containment per dimension: every buffer read's symbolic
//! interval must lie inside the hull of the fill targets' intervals
//! (both resolved under the same parameter binding, so `min`-clamped
//! edge tiles compare exactly). Prefetches of buffers are pass 1's
//! business ([`DiagCode::PrefetchNeverInBounds`]) and are ignored here.

use crate::bounds::{interval, param_env, render_ctx, walk_ctx, Ctx};
use crate::{DiagCode, Sink};
use eco_ir::pretty::ref_to_string;
use eco_ir::{ArrayKind, ArrayRef, Program, ScalarExpr, Stmt};

/// Everything the pass needs to know about one copy buffer.
#[derive(Default)]
struct BufferUse<'p> {
    /// Fill targets: `P[..] = Load origin[..]`.
    fills: Vec<(&'p ArrayRef, Vec<Ctx<'p>>)>,
    /// Loads of the buffer (compute reads and write-back reads).
    reads: Vec<(&'p ArrayRef, Vec<Ctx<'p>>)>,
    /// Stores to the buffer that are not fills (computed-into).
    computed: Vec<(&'p ArrayRef, Vec<Ctx<'p>>)>,
    /// True if some data array receives `= Load P[..]`.
    written_back: bool,
}

fn loads_of<'p>(e: &'p ScalarExpr, out: &mut Vec<&'p ArrayRef>) {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Temp(_) => {}
        ScalarExpr::Load(r) => out.push(r),
        ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
            loads_of(a, out);
            loads_of(b, out);
        }
    }
}

/// Pass 4 entry point.
pub(crate) fn check(p: &Program, binding: &[(String, i64)], sink: &mut Sink) {
    let is_buffer = |r: &ArrayRef| p.array(r.array).kind == ArrayKind::CopyBuffer;
    let mut uses: Vec<BufferUse> = p.arrays.iter().map(|_| BufferUse::default()).collect();

    let mut ctx = Vec::new();
    walk_ctx(&p.body, &mut ctx, &mut |s, ctx| match s {
        Stmt::Store { target, value } => {
            let mut loads = Vec::new();
            loads_of(value, &mut loads);
            for r in &loads {
                if is_buffer(r) {
                    uses[r.array.index()].reads.push((*r, ctx.to_vec()));
                }
            }
            if is_buffer(target) {
                let fill = matches!(value, ScalarExpr::Load(r)
                    if p.array(r.array).kind == ArrayKind::Data);
                let entry = &mut uses[target.array.index()];
                if fill {
                    entry.fills.push((target, ctx.to_vec()));
                } else {
                    entry.computed.push((target, ctx.to_vec()));
                }
            } else if loads.iter().any(|r| is_buffer(r)) {
                if let ScalarExpr::Load(r) = value {
                    uses[r.array.index()].written_back = true;
                }
            }
        }
        Stmt::SetTemp { value, .. } => {
            let mut loads = Vec::new();
            loads_of(value, &mut loads);
            for r in loads {
                if is_buffer(r) {
                    uses[r.array.index()].reads.push((r, ctx.to_vec()));
                }
            }
        }
        _ => {}
    });

    let env = param_env(p, binding);
    for (a, used) in uses.iter().enumerate() {
        let decl = &p.arrays[a];
        if decl.kind != ArrayKind::CopyBuffer {
            continue;
        }
        if used.fills.is_empty() {
            if let Some((r, ctx)) = used.reads.first() {
                sink.push(
                    DiagCode::CopyRegionNotCovered,
                    format!(
                        "buffer {} is read (e.g. {}) but never filled from its origin array",
                        decl.name,
                        ref_to_string(p, r),
                    ),
                    render_ctx(p, ctx),
                );
            }
        } else {
            // Per-dimension hull of everything the fills wrote.
            let rank = decl.dims.len();
            let mut hull: Vec<Option<(i64, i64)>> = vec![None; rank];
            for (r, fctx) in &used.fills {
                for (h, idx) in hull.iter_mut().zip(&r.idx) {
                    if let Some((lo, hi)) = interval(idx, fctx, &env) {
                        *h = Some(match *h {
                            Some((a, b)) => (a.min(lo), b.max(hi)),
                            None => (lo, hi),
                        });
                    }
                }
            }
            'reads: for (r, rctx) in &used.reads {
                for (d, (&h, idx)) in hull.iter().zip(&r.idx).enumerate() {
                    let (Some((flo, fhi)), Some((lo, hi))) = (h, interval(idx, rctx, &env)) else {
                        continue; // unboundable: pass 1 reports it
                    };
                    if lo < flo || hi > fhi {
                        sink.push(
                            DiagCode::CopyRegionNotCovered,
                            format!(
                                "{} reads [{}, {}] in dimension {} but the copy fills only [{}, {}]",
                                ref_to_string(p, r),
                                lo,
                                hi,
                                d,
                                flo,
                                fhi,
                            ),
                            render_ctx(p, rctx),
                        );
                        continue 'reads;
                    }
                }
            }
        }
        if !used.computed.is_empty() && !used.written_back {
            let (r, ctx) = &used.computed[0];
            sink.push(
                DiagCode::MissingWriteBack,
                format!(
                    "buffer {} is computed into (e.g. {}) but never written back to its origin array",
                    decl.name,
                    ref_to_string(p, r),
                ),
                render_ctx(p, ctx),
            );
        }
    }
}
