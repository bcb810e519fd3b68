//! Scalar replacement: mapping reused array elements to registers.
//!
//! Two flavours, both driven from the innermost loop (where the paper's
//! register-level reuse lives after unroll-and-jam):
//!
//! * **Invariant replacement** — a reference whose subscripts do not use
//!   the innermost variable (`C[I..I+UI-1, J..J+UJ-1]` inside the `K`
//!   loop of Figure 1(b)) is loaded into a scalar before the loop,
//!   used/updated in registers inside, and stored back after.
//! * **Rotating replacement** — a group of read-only references that
//!   differ only by constant offsets along the innermost direction
//!   (`B[I-1,…], B[I+1,…]` inside Jacobi's `I` loop, Figure 2(b)) shares
//!   a ring of scalars: one new element is loaded per iteration and the
//!   ring is shifted, reproducing Carr–Kennedy register pipelining.
//!
//! Both respect the residue guards introduced by unroll-and-jam:
//! hoisted loads/stores are wrapped in the same guard conditions their
//! uses live under.

use crate::error::TransformError;
use eco_ir::{AffineExpr, ArrayRef, Cond, Loop, Program, ScalarExpr, Stmt, TempId, VarId};

/// One distinct reference occurrence context inside the innermost body.
#[derive(Debug, Clone)]
struct Occ {
    guards: Vec<Cond>,
    r: ArrayRef,
    reads: u32,
    writes: u32,
    ambiguous: bool, // appears under more than one guard context
}

/// Applies scalar replacement inside the loop binding `innermost`.
///
/// `register_limit`, when given, bounds the number of scalar
/// temporaries introduced; exceeding it returns
/// [`TransformError::RegisterPressure`], which the empirical search
/// interprets as "this unroll factor spills" (the paper's §3.1.1 uses
/// the search to find the largest unroll factors that do not cause
/// register pressure).
///
/// # Errors
///
/// Fails if the loop is missing or contains nested loops, or on
/// register pressure.
pub fn scalar_replace(
    program: &Program,
    innermost: VarId,
    register_limit: Option<usize>,
) -> Result<Program, TransformError> {
    let l = program
        .find_loop(innermost)
        .ok_or_else(|| TransformError::LoopNotFound(program.var(innermost).name.clone()))?;
    let mut has_inner = false;
    for s in &l.body {
        s.for_each_stmt(&mut |st| has_inner |= matches!(st, Stmt::For(_)));
    }
    if has_inner {
        return Err(TransformError::Invalid(
            "scalar replacement expects the innermost loop".into(),
        ));
    }

    // ---- collect distinct references with their guard contexts ----
    let mut occs: Vec<Occ> = Vec::new();
    collect(&l.body, &mut Vec::new(), &mut occs);

    // ---- plan invariant replacements ----
    let invariant_occs: Vec<&Occ> = occs
        .iter()
        .filter(|o| {
            !o.ambiguous
                && !o.r.uses(innermost)
                && !o
                    .guards
                    .iter()
                    .any(|c| c.lhs.uses(innermost) || c.rhs.uses(innermost))
        })
        .collect();

    // ---- plan rotating replacements ----
    struct Ring {
        guards: Vec<Cond>,
        /// subscripts with the rotating dimension's constant zeroed
        base: ArrayRef,
        dim: usize,
        /// (offset, member ref) pairs present in the body
        members: Vec<(i64, ArrayRef)>,
        /// ring temps for offsets cmin..=cmax, in order
        temps: Vec<TempId>,
        cmin: i64,
        cmax: i64,
    }
    let mut rings: Vec<Ring> = Vec::new();
    if l.step == 1 {
        for o in &occs {
            if o.ambiguous || o.writes > 0 || !o.r.uses(innermost) {
                continue;
            }
            // innermost must appear in exactly one dim, with coefficient 1
            let dims: Vec<usize> = (0..o.r.idx.len())
                .filter(|&d| o.r.idx[d].uses(innermost))
                .collect();
            if dims.len() != 1 || o.r.idx[dims[0]].coeff(innermost) != 1 {
                continue;
            }
            let d = dims[0];
            let c = o.r.idx[d].constant_part();
            let mut base = o.r.clone();
            base.idx[d] = base.idx[d].shifted(-c);
            if let Some(ring) = rings
                .iter_mut()
                .find(|g| g.dim == d && g.base == base && g.guards == o.guards)
            {
                ring.members.push((c, o.r.clone()));
            } else {
                rings.push(Ring {
                    guards: o.guards.clone(),
                    base,
                    dim: d,
                    members: vec![(c, o.r.clone())],
                    temps: Vec::new(),
                    cmin: 0,
                    cmax: 0,
                });
            }
        }
    }
    // Keep only rings with real cross-iteration sharing.
    rings.retain(|g| g.members.len() > 1);
    // Rotating requires an affine lower bound for the preload addresses.
    let lo_affine = l.lo.as_affine();
    if lo_affine.is_none() {
        rings.clear();
    }
    for g in &mut rings {
        g.cmin = g.members.iter().map(|&(c, _)| c).min().expect("nonempty");
        g.cmax = g.members.iter().map(|&(c, _)| c).max().expect("nonempty");
    }

    // ---- register pressure ----
    let needed: usize = invariant_occs.len()
        + rings
            .iter()
            .map(|g| (g.cmax - g.cmin + 1) as usize)
            .sum::<usize>();
    if let Some(limit) = register_limit {
        if needed > limit {
            return Err(TransformError::RegisterPressure {
                needed,
                available: limit,
            });
        }
    }
    if invariant_occs.is_empty() && rings.is_empty() {
        return Ok(program.clone()); // nothing to do
    }

    // ---- allocate the temporaries ----
    let mut out = program.clone();
    struct Invariant<'o> {
        occ: &'o Occ,
        temp: TempId,
    }
    let invariants: Vec<Invariant> = invariant_occs
        .into_iter()
        .map(|occ| {
            let name = format!("r{}", out.array(occ.r.array).name.to_lowercase());
            let temp = out.add_temp(&name);
            Invariant { occ, temp }
        })
        .collect();
    for g in &mut rings {
        let arr = out.array(g.base.array).name.to_lowercase();
        for off in g.cmin..=g.cmax {
            let t = out.add_temp(&format!("s{arr}{}", off - g.cmin));
            g.temps.push(t);
        }
    }

    // ---- rewrite the loop body ----
    let member_at = |g: &Ring, off: i64| -> ArrayRef {
        let mut r = g.base.clone();
        r.idx[g.dim] = r.idx[g.dim].clone().shifted(off);
        r
    };
    let mut replace_load = |r: &ArrayRef| -> Option<ScalarExpr> {
        for inv in &invariants {
            if &inv.occ.r == r {
                return Some(ScalarExpr::Temp(inv.temp));
            }
        }
        for g in &rings {
            for &(c, ref m) in &g.members {
                if m == r {
                    return Some(ScalarExpr::Temp(g.temps[(c - g.cmin) as usize]));
                }
            }
        }
        None
    };
    let mut new_body = l.body.clone();
    rewrite_stmts(&mut new_body, &mut |s| match s {
        Stmt::Store { target, value } => {
            value.map_loads(&mut replace_load);
            if let Some(inv) = invariants.iter().find(|inv| inv.occ.r == *target) {
                let mut v = ScalarExpr::Const(0.0);
                std::mem::swap(&mut v, value);
                *s = Stmt::SetTemp {
                    temp: inv.temp,
                    value: v,
                };
            }
        }
        Stmt::SetTemp { value, .. } => value.map_loads(&mut replace_load),
        _ => {}
    });

    // Per guard context: prepend the ring's new-element load, append its
    // rotation.
    for g in &rings {
        let lead = member_at(g, g.cmax);
        let load = Stmt::SetTemp {
            temp: g.temps[(g.cmax - g.cmin) as usize],
            value: ScalarExpr::Load(lead),
        };
        let mut rotates = Vec::new();
        for off in g.cmin..g.cmax {
            rotates.push(Stmt::SetTemp {
                temp: g.temps[(off - g.cmin) as usize],
                value: ScalarExpr::Temp(g.temps[(off - g.cmin + 1) as usize]),
            });
        }
        insert_in_context(&mut new_body, &g.guards, load, rotates);
    }

    // ---- preheader and postbody ----
    let mut pre: Vec<Stmt> = Vec::new();
    let mut post: Vec<Stmt> = Vec::new();
    for inv in &invariants {
        pre.push(guard(
            &inv.occ.guards,
            vec![Stmt::SetTemp {
                temp: inv.temp,
                value: ScalarExpr::Load(inv.occ.r.clone()),
            }],
        ));
        if inv.occ.writes > 0 {
            post.push(guard(
                &inv.occ.guards,
                vec![Stmt::Store {
                    target: inv.occ.r.clone(),
                    value: ScalarExpr::Temp(inv.temp),
                }],
            ));
        }
    }
    let lo = lo_affine
        .cloned()
        .unwrap_or_else(|| AffineExpr::constant(0));
    for g in &rings {
        let mut loads = Vec::new();
        for off in g.cmin..g.cmax {
            let mut r = member_at(g, off);
            // at u = lo the body loads element lo + cmax; preload the rest
            for e in &mut r.idx {
                *e = e.subst(innermost, &lo);
            }
            loads.push(Stmt::SetTemp {
                temp: g.temps[(off - g.cmin) as usize],
                value: ScalarExpr::Load(r),
            });
        }
        // Only preload if the loop will run at all.
        pre.push(guard(
            &g.guards,
            vec![Stmt::If {
                cond: Cond::le(lo.clone(), l.hi.clone()),
                then: loads,
            }],
        ));
    }

    // ---- splice: pre; loop'; post  in place of the original loop ----
    let mut replacement = pre;
    replacement.push(Stmt::For(Loop {
        var: l.var,
        lo: l.lo.clone(),
        hi: l.hi.clone(),
        step: l.step,
        body: new_body,
    }));
    replacement.extend(post);
    let replaced = splice_loop(&mut out.body, innermost, &mut Some(replacement));
    debug_assert!(replaced);
    Ok(out)
}

fn collect(stmts: &[Stmt], guards: &mut Vec<Cond>, occs: &mut Vec<Occ>) {
    let note = |occs: &mut Vec<Occ>, guards: &[Cond], r: &ArrayRef, write: bool| {
        if let Some(o) = occs.iter_mut().find(|o| &o.r == r) {
            if o.guards != guards {
                o.ambiguous = true;
            }
            if write {
                o.writes += 1;
            } else {
                o.reads += 1;
            }
        } else {
            occs.push(Occ {
                guards: guards.to_vec(),
                r: r.clone(),
                reads: u32::from(!write),
                writes: u32::from(write),
                ambiguous: false,
            });
        }
    };
    for s in stmts {
        match s {
            Stmt::Store { target, value } => {
                value.for_each_load(&mut |r| note(occs, guards, r, false));
                note(occs, guards, target, true);
            }
            Stmt::SetTemp { value, .. } => {
                value.for_each_load(&mut |r| note(occs, guards, r, false));
            }
            Stmt::If { cond, then } => {
                guards.push(cond.clone());
                collect(then, guards, occs);
                guards.pop();
            }
            Stmt::Prefetch { .. } => {}
            Stmt::For(_) => {}
        }
    }
}

fn rewrite_stmts(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in stmts {
        if let Stmt::If { then, .. } = s {
            rewrite_stmts(then, f);
        } else {
            f(s);
        }
    }
}

/// Wraps `body` in the given guard conditions (innermost-last).
fn guard(guards: &[Cond], body: Vec<Stmt>) -> Stmt {
    let mut cur = body;
    for c in guards.iter().rev() {
        cur = vec![Stmt::If {
            cond: c.clone(),
            then: cur,
        }];
    }
    match cur.len() {
        1 => cur.pop().expect("one element"),
        _ => Stmt::If {
            cond: Cond::le(AffineExpr::constant(0), AffineExpr::constant(0)),
            then: cur,
        },
    }
}

/// Inserts `first` at the start and `last` at the end of the statement
/// list reached by following `guards` from `stmts`.
fn insert_in_context(stmts: &mut Vec<Stmt>, guards: &[Cond], first: Stmt, last: Vec<Stmt>) {
    if guards.is_empty() {
        stmts.insert(0, first);
        stmts.extend(last);
        return;
    }
    for s in stmts.iter_mut() {
        if let Stmt::If { cond, then } = s {
            if cond == &guards[0] {
                insert_in_context(then, &guards[1..], first, last);
                return;
            }
        }
    }
    // Context not found (should not happen): fall back to guarding anew.
    stmts.insert(0, guard(guards, vec![first]));
    let l = guard(guards, last);
    stmts.push(l);
}

/// Replaces the loop binding `target` with `replacement` statements.
// clippy suggests match guards here, but guards cannot borrow mutably
#[allow(clippy::collapsible_match)]
fn splice_loop(stmts: &mut Vec<Stmt>, target: VarId, replacement: &mut Option<Vec<Stmt>>) -> bool {
    for i in 0..stmts.len() {
        match &mut stmts[i] {
            Stmt::For(l) if l.var == target => {
                stmts.splice(i..=i, replacement.take().expect("spliced once"));
                return true;
            }
            Stmt::For(l) => {
                if splice_loop(&mut l.body, target, replacement) {
                    return true;
                }
            }
            Stmt::If { then, .. } => {
                if splice_loop(then, target, replacement) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}
