//! Pass 1: symbolic affine interval analysis.
//!
//! The transformed programs the search generates correlate loop
//! variables tightly — a copy-buffer subscript like `K - KK` is bounded
//! precisely only because `K`'s upper bound mentions `KK`
//! (`min(KK + T - 1, N - 1)`). A naive per-variable interval analysis
//! loses that correlation and reports `[-(N-1), N-1]`. Instead the
//! extremum of a subscript is computed by *recursive bound
//! substitution*: walking the enclosing loops innermost-out, each
//! occurrence of a loop variable is replaced by the bound alternatives
//! that extremize it, and residue guards (`IF (I + 1 <= N - 1)`)
//! contribute additional upper-bound alternatives. What remains mentions
//! only parameters and evaluates to an integer through the binding; the
//! upper bound is the minimum over upper alternatives (and dually for
//! the lower bound).

use crate::{DiagCode, Sink};
use eco_ir::pretty::{affine_to_string, bound_to_string, ref_to_string};
use eco_ir::{AffineExpr, ArrayRef, Bound, Cond, Loop, Program, Stmt, VarId};

/// One entry of the loop context enclosing a statement, borrowed from
/// the program: a context is copied by value wherever a pass keeps one.
#[derive(Debug, Clone, Copy)]
pub enum Ctx<'p> {
    /// An enclosing counted loop.
    Loop {
        /// Loop variable.
        var: VarId,
        /// Lower bound.
        lo: &'p Bound,
        /// Upper bound (inclusive; `min` clamps for tile edges).
        hi: &'p Bound,
        /// Step.
        step: i64,
    },
    /// An enclosing guard `lhs <= rhs` (unroll residue cleanup).
    Guard(&'p Cond),
}

impl<'p> Ctx<'p> {
    /// The context a `For` loop opens for its body.
    pub(crate) fn of_loop(l: &'p Loop) -> Self {
        Ctx::Loop {
            var: l.var,
            lo: &l.lo,
            hi: &l.hi,
            step: l.step,
        }
    }
}

/// Walks every statement with its enclosing context, pre-order.
pub(crate) fn walk_ctx<'p>(
    stmts: &'p [Stmt],
    ctx: &mut Vec<Ctx<'p>>,
    f: &mut impl FnMut(&'p Stmt, &[Ctx<'p>]),
) {
    for s in stmts {
        f(s, ctx);
        match s {
            Stmt::For(l) => {
                ctx.push(Ctx::of_loop(l));
                walk_ctx(&l.body, ctx, f);
                ctx.pop();
            }
            Stmt::If { cond, then } => {
                ctx.push(Ctx::Guard(cond));
                walk_ctx(then, ctx, f);
                ctx.pop();
            }
            _ => {}
        }
    }
}

/// Renders the context as indented source-style lines, outermost first.
pub(crate) fn render_ctx(p: &Program, ctx: &[Ctx]) -> Vec<String> {
    ctx.iter()
        .map(|c| match *c {
            Ctx::Loop { var, lo, hi, step } => {
                let mut line = format!(
                    "DO {} = {}, {}",
                    p.var(var).name,
                    bound_to_string(p, lo),
                    bound_to_string(p, hi)
                );
                if step != 1 {
                    line.push_str(&format!(", {step}"));
                }
                line
            }
            Ctx::Guard(c) => format!(
                "IF ({} <= {})",
                affine_to_string(p, &c.lhs),
                bound_to_string(p, &c.rhs)
            ),
        })
        .collect()
}

/// Caps the alternative set: beyond this the analysis gives up (E007)
/// rather than blowing up. Real pipelines stay far below it.
const MAX_ALTS: usize = 256;

fn eval_params(e: &AffineExpr, env: &impl Fn(VarId) -> Option<i64>) -> Option<i64> {
    let mut acc = e.constant_part();
    for &(v, c) in e.terms() {
        acc += c * env(v)?;
    }
    Some(acc)
}

/// The provable extremum (max if `want_max`, else min) of `e` over the
/// iteration space described by `ctx`, resolved to an integer through
/// `env` (parameter values). `None` when the expression cannot be
/// bounded in terms of known parameters.
pub(crate) fn extreme(
    e: &AffineExpr,
    ctx: &[Ctx],
    env: &impl Fn(VarId) -> Option<i64>,
    want_max: bool,
) -> Option<i64> {
    // A set: kept sorted and duplicate-free, so `MAX_ALTS` counts
    // distinct alternatives.
    let mut alts = vec![e.clone()];
    for entry in ctx.iter().rev() {
        match *entry {
            Ctx::Guard(cond) if want_max => {
                // lhs <= rhs with a unit coefficient on v bounds v above
                // by rhs - (lhs - v): substitute it in as an extra upper
                // alternative (the original stays; min() picks tighter).
                let mut extra = Vec::new();
                for alt in &alts {
                    for &(v, c) in alt.terms() {
                        if c > 0 && cond.lhs.coeff(v) == 1 {
                            let rest = cond.lhs.clone() - AffineExpr::var(v);
                            for r in cond.rhs.alternatives() {
                                extra.push(alt.subst(v, &(r.clone() - rest.clone())));
                            }
                        }
                    }
                }
                if extra.is_empty() {
                    continue;
                }
                alts.extend(extra);
                dedupe(&mut alts);
            }
            Ctx::Guard(_) => {}
            Ctx::Loop { var, lo, hi, .. } => {
                if alts.iter().all(|alt| !alt.uses(var)) {
                    continue;
                }
                let mut next: Vec<AffineExpr> = Vec::with_capacity(alts.len());
                for alt in alts {
                    let c = alt.coeff(var);
                    if c == 0 {
                        next.push(alt);
                        continue;
                    }
                    // Positive coefficient maximized at the upper bound;
                    // substituting *each* min-alternative yields a valid
                    // upper bound (the final min recovers tightness), and
                    // dually for the other three sign/direction cases.
                    let b = if (c > 0) == want_max { hi } else { lo };
                    for repl in b.alternatives() {
                        next.push(alt.subst(var, repl));
                    }
                }
                dedupe(&mut next);
                alts = next;
            }
        }
        if alts.len() > MAX_ALTS {
            return None;
        }
    }
    let vals: Option<Vec<i64>> = alts.iter().map(|a| eval_params(a, env)).collect();
    let vals = vals?;
    if want_max {
        vals.into_iter().min()
    } else {
        vals.into_iter().max()
    }
}

/// Sorts `alts` and drops duplicates.
fn dedupe(alts: &mut Vec<AffineExpr>) {
    alts.sort_unstable();
    alts.dedup();
}

/// The provable `[lo, hi]` interval of `e` (None if unresolvable).
pub(crate) fn interval(
    e: &AffineExpr,
    ctx: &[Ctx],
    env: &impl Fn(VarId) -> Option<i64>,
) -> Option<(i64, i64)> {
    Some((extreme(e, ctx, env, false)?, extreme(e, ctx, env, true)?))
}

/// Builds the parameter environment of a program from a name/value
/// binding.
pub(crate) fn param_env<'a>(
    p: &'a Program,
    binding: &'a [(String, i64)],
) -> impl Fn(VarId) -> Option<i64> + 'a {
    move |v: VarId| {
        let name = &p.var(v).name;
        binding
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }
}

/// Pass 1 entry point: prove every reference in bounds.
pub(crate) fn check(p: &Program, binding: &[(String, i64)], sink: &mut Sink) {
    let env = param_env(p, binding);
    // Resolve every array extent once up front.
    let mut extents: Vec<Option<Vec<i64>>> = Vec::with_capacity(p.arrays.len());
    for decl in &p.arrays {
        let dims: Option<Vec<i64>> = decl.dims.iter().map(|d| eval_params(d, &env)).collect();
        match dims {
            Some(ds) if ds.iter().all(|&d| d > 0) => extents.push(Some(ds)),
            Some(ds) => {
                sink.push(
                    DiagCode::Malformed,
                    format!("array {} has non-positive extent {ds:?}", decl.name),
                    Vec::new(),
                );
                extents.push(None);
            }
            None => {
                sink.push(
                    DiagCode::Malformed,
                    format!(
                        "array {} extent cannot be resolved from the binding",
                        decl.name
                    ),
                    Vec::new(),
                );
                extents.push(None);
            }
        }
    }

    let check_ref = |r: &ArrayRef, prefetch: bool, ctx: &[Ctx], sink: &mut Sink| {
        sink.checked_refs += 1;
        let Some(dims) = &extents[r.array.index()] else {
            return; // already reported as E007
        };
        let mut disjoint: Option<(usize, i64, i64, i64)> = None;
        let mut oob_dims: Vec<(usize, i64, i64, i64)> = Vec::new();
        for (d, e) in r.idx.iter().enumerate() {
            let Some((lo, hi)) = interval(e, ctx, &env) else {
                sink.push(
                    DiagCode::Malformed,
                    format!("cannot bound subscript {} of {}", d, ref_to_string(p, r)),
                    render_ctx(p, ctx),
                );
                return;
            };
            let extent = dims[d];
            if lo < 0 || hi > extent - 1 {
                oob_dims.push((d, lo, hi, extent));
            }
            if (hi < 0 || lo > extent - 1) && disjoint.is_none() {
                disjoint = Some((d, lo, hi, extent));
            }
        }
        if prefetch {
            // Partial overruns are legal: the engine drops the line.
            if let Some((d, lo, hi, extent)) = disjoint {
                sink.push(
                    DiagCode::PrefetchNeverInBounds,
                    format!(
                        "prefetch {} subscript {} spans [{}, {}], entirely outside [0, {}]",
                        ref_to_string(p, r),
                        d,
                        lo,
                        hi,
                        extent - 1
                    ),
                    render_ctx(p, ctx),
                );
            }
        } else if let Some(&(d, lo, hi, extent)) = oob_dims.first() {
            sink.push(
                DiagCode::OutOfBounds,
                format!(
                    "{} subscript {} spans [{}, {}], outside [0, {}]",
                    ref_to_string(p, r),
                    d,
                    lo,
                    hi,
                    extent - 1
                ),
                render_ctx(p, ctx),
            );
        }
    };

    let mut ctx = Vec::new();
    walk_ctx(&p.body, &mut ctx, &mut |s, ctx| match s {
        Stmt::Store { target, value } => {
            value.for_each_load(&mut |r| check_ref(r, false, ctx, sink));
            check_ref(target, false, ctx, sink);
        }
        Stmt::SetTemp { value, .. } => {
            value.for_each_load(&mut |r| check_ref(r, false, ctx, sink));
        }
        Stmt::Prefetch { target } => check_ref(target, true, ctx, sink),
        Stmt::For(_) | Stmt::If { .. } => {}
    });
}
