//! Pass 3: scalar-replacement soundness.
//!
//! Scalar replacement caches array elements in temporaries across
//! iterations (invariant accumulators, rotating stencil registers). The
//! cached copy is sound only if no *other* store can write the cached
//! element between the temporary's definition and its uses: such a
//! store would be observed by the original program but not by the
//! register copy.
//!
//! For each temporary the pass collects its defining `SetTemp`
//! statements, the array elements those definitions load, and every
//! statement reading the temporary, then scans the statement span they
//! jointly occupy (the subtree range under their lowest common
//! ancestor). Any store in that span that is not itself part of the
//! temporary's def/use web, is not a register write-back (`X[..] = t`,
//! the pattern scalar replacement emits for sibling accumulators), and
//! whose target interval overlaps a loaded element in every dimension
//! is flagged as [`DiagCode::ScalarReplacementAliased`]. Two different
//! temporaries writing back to the identical element are flagged too
//! (double write-back: one of them must be stale).

use crate::bounds::{interval, param_env, render_ctx, Ctx};
use crate::{DiagCode, Sink};
use eco_ir::pretty::ref_to_string;
use eco_ir::{ArrayRef, Program, ScalarExpr, Stmt, TempId, VarId};
use std::rc::Rc;

/// Collects the array loads of an expression, keeping their addresses
/// alive with the program (`for_each_load` can't return borrows).
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

/// A statement with its tree position and enclosing loop context.
struct Site<'p> {
    stmt: &'p Stmt,
    path: Vec<usize>,
    /// Shared by every statement of the same list.
    ctx: Rc<[Ctx<'p>]>,
}

fn collect<'p>(p: &'p Program) -> Vec<Site<'p>> {
    fn go<'p>(
        stmts: &'p [Stmt],
        path: &mut Vec<usize>,
        ctx: &Rc<[Ctx<'p>]>,
        out: &mut Vec<Site<'p>>,
    ) {
        for (i, s) in stmts.iter().enumerate() {
            path.push(i);
            out.push(Site {
                stmt: s,
                path: path.clone(),
                ctx: Rc::clone(ctx),
            });
            let (inner, body) = match s {
                Stmt::For(l) => (Ctx::of_loop(l), &l.body),
                Stmt::If { cond, then } => (Ctx::Guard(cond), then),
                _ => {
                    path.pop();
                    continue;
                }
            };
            let nested: Rc<[Ctx<'p>]> = ctx.iter().copied().chain([inner]).collect();
            go(body, path, &nested, out);
            path.pop();
        }
    }
    let mut sites = Vec::new();
    go(&p.body, &mut Vec::new(), &Rc::from([]), &mut sites);
    sites
}

/// Every temporary a scalar expression reads, in first-read order.
fn temps_of(e: &ScalarExpr, out: &mut Vec<TempId>) {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Load(_) => {}
        ScalarExpr::Temp(t) => {
            if !out.contains(t) {
                out.push(*t);
            }
        }
        ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
            temps_of(a, out);
            temps_of(b, out);
        }
    }
}

/// Do the two references' value sets provably overlap (or fail to be
/// provably disjoint) in every dimension?
fn may_overlap(
    a: (&ArrayRef, &[Ctx]),
    b: (&ArrayRef, &[Ctx]),
    env: &impl Fn(VarId) -> Option<i64>,
) -> bool {
    for d in 0..a.0.idx.len().min(b.0.idx.len()) {
        let (Some(ia), Some(ib)) = (
            interval(&a.0.idx[d], a.1, env),
            interval(&b.0.idx[d], b.1, env),
        ) else {
            // Unboundable subscripts are reported by pass 1; stay quiet
            // here rather than duplicating.
            return false;
        };
        if ia.1 < ib.0 || ib.1 < ia.0 {
            return false;
        }
    }
    true
}

/// Pass 3 entry point.
pub(crate) fn check(p: &Program, binding: &[(String, i64)], sink: &mut Sink) {
    let env = param_env(p, binding);
    let sites = collect(p);

    // Per temporary: the sites defining it, and the sites involved in
    // its def/use web (defining or reading it), each in site order.
    let mut defs: Vec<Vec<usize>> = vec![Vec::new(); p.temps.len()];
    let mut involved: Vec<Vec<usize>> = vec![Vec::new(); p.temps.len()];
    let mut temps = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        temps.clear();
        match site.stmt {
            Stmt::SetTemp { temp, value } => {
                defs[temp.index()].push(i);
                temps.push(*temp);
                temps_of(value, &mut temps);
            }
            Stmt::Store { value, .. } => temps_of(value, &mut temps),
            _ => {}
        }
        // A read of an undeclared temporary joins no web (validation
        // checks only the temporaries that are written).
        for t in &temps {
            if let Some(web) = involved.get_mut(t.index()) {
                web.push(i);
            }
        }
    }

    for ti in 0..p.temps.len() {
        let (defs, involved) = (&defs[ti], &involved[ti]);
        if defs.is_empty() || involved.len() < 2 {
            continue;
        }

        // Elements the temporary caches: loads inside its definitions.
        let mut cached: Vec<(&ArrayRef, &[Ctx])> = Vec::new();
        for &d in defs {
            if let Stmt::SetTemp { value, .. } = sites[d].stmt {
                let mut loads = Vec::new();
                loads_of(value, &mut loads);
                for r in loads {
                    cached.push((r, &sites[d].ctx));
                }
            }
        }
        if cached.is_empty() {
            continue;
        }

        // The span jointly occupied by the def/use web: the child-index
        // range of the involved statements under their lowest common
        // ancestor.
        let mut prefix: &[usize] = &sites[involved[0]].path;
        for &i in &involved[1..] {
            let q = &sites[i].path;
            let common = prefix
                .iter()
                .zip(q.iter())
                .take_while(|(a, b)| a == b)
                .count();
            prefix = &prefix[..common];
        }
        let depth = prefix.len();
        let range = {
            let comps: Vec<usize> = involved.iter().map(|&i| sites[i].path[depth]).collect();
            (
                *comps.iter().min().expect("nonempty"),
                *comps.iter().max().expect("nonempty"),
            )
        };

        // The span's sites are contiguous in pre-order and contain the
        // first and last involved sites: widen from those.
        let in_span = |site: &Site| {
            site.path.len() > depth
                && site.path[..depth] == *prefix
                && (range.0..=range.1).contains(&site.path[depth])
        };
        let mut first = involved[0];
        while first > 0 && in_span(&sites[first - 1]) {
            first -= 1;
        }
        let mut last = involved[involved.len() - 1];
        while last + 1 < sites.len() && in_span(&sites[last + 1]) {
            last += 1;
        }
        for (i, site) in sites.iter().enumerate().take(last + 1).skip(first) {
            if involved.binary_search(&i).is_ok() {
                continue;
            }
            let Stmt::Store { target, value } = site.stmt else {
                continue;
            };
            // `X[..] = t'` is scalar replacement's own write-back shape
            // for a sibling register: exempt from aliasing (the
            // double-write-back check below catches corrupt overlaps).
            if matches!(value, ScalarExpr::Temp(_)) {
                continue;
            }
            for (r, rctx) in &cached {
                if target.array == r.array && may_overlap((target, &site.ctx), (r, rctx), &env) {
                    sink.push(
                        DiagCode::ScalarReplacementAliased,
                        format!(
                            "store to {} may alias {} cached in register {} between its load and use",
                            ref_to_string(p, target),
                            ref_to_string(p, r),
                            p.temps[ti],
                        ),
                        render_ctx(p, &site.ctx),
                    );
                    break;
                }
            }
        }
    }

    // Double write-back: two different registers flushed to the same
    // element — at least one value is stale.
    let mut writebacks: Vec<(&ArrayRef, TempId)> = Vec::new();
    for site in &sites {
        if let Stmt::Store {
            target,
            value: ScalarExpr::Temp(u),
        } = site.stmt
        {
            writebacks.push((target, *u));
        }
    }
    for (i, (ra, ta)) in writebacks.iter().enumerate() {
        for (rb, tb) in &writebacks[i + 1..] {
            if ta != tb && ra.array == rb.array && ra.idx == rb.idx {
                sink.push(
                    DiagCode::ScalarReplacementAliased,
                    format!(
                        "registers {} and {} both write back to {}",
                        p.temps[ta.index()],
                        p.temps[tb.index()],
                        ref_to_string(p, ra),
                    ),
                    Vec::new(),
                );
            }
        }
    }
}
