//! Pass 2: dependence preservation.
//!
//! The original kernel nest yields exact (or conservative
//! [`Dist::Any`]) distance vectors. The transformed program executes
//! those iterations in a different order — tiled, interchanged,
//! unrolled-and-jammed — and this pass proves that every non-reduction
//! dependence still flows forward in the new order.
//!
//! The transformed *spine* (the deepest chain of loops, skipping copy
//! fill loops and residue guards) is classified against the original
//! loop variables: a spine loop reusing an original variable is a point
//! loop (step > 1 after unrolling), a fresh variable is a tile control
//! for whichever deeper spine loop its value bounds. Each original
//! distance `d` then splits across that variable's axes — tile controls
//! (multiples of the tile), the point loop (multiples of the unroll
//! step), and an implicit innermost intra-unroll offset — and the pass
//! searches for any split of any dependence that is lexicographically
//! negative in the transformed axis order. Conservative `Any` distances
//! are enumerated by sign, constrained by causality (the original
//! vector must be lexicographically non-negative).

use crate::bounds::{render_ctx, Ctx};
use crate::{DiagCode, Sink};
use eco_analysis::dependence::{dependences, Dependence, Dist};
use eco_analysis::NestInfo;
use eco_ir::{Loop, Program, Stmt};

fn depth_of(s: &Stmt) -> usize {
    match s {
        Stmt::For(l) => 1 + l.body.iter().map(depth_of).max().unwrap_or(0),
        Stmt::If { then, .. } => then.iter().map(depth_of).max().unwrap_or(0),
        _ => 0,
    }
}

fn deepest_loop<'p>(stmts: &'p [Stmt], best: &mut Option<(&'p Loop, usize)>) {
    for s in stmts {
        match s {
            Stmt::For(l) => {
                let d = 1 + l.body.iter().map(depth_of).max().unwrap_or(0);
                // Ties go to the later statement: copy fills are
                // prepended before the compute nest they feed.
                if best.is_none_or(|(_, bd)| d >= bd) {
                    *best = Some((l, d));
                }
            }
            Stmt::If { then, .. } => deepest_loop(then, best),
            _ => {}
        }
    }
}

/// The compute spine: at each level, the deepest loop (descending
/// through residue guards), outermost first.
fn spine_of(p: &Program) -> Vec<&Loop> {
    let mut spine = Vec::new();
    let mut stmts: &[Stmt] = &p.body;
    loop {
        let mut best = None;
        deepest_loop(stmts, &mut best);
        match best {
            Some((l, _)) => {
                spine.push(l);
                stmts = &l.body;
            }
            None => return spine,
        }
    }
}

/// One axis of the transformed iteration order: a spine loop (tile
/// control or point loop) or an implicit intra-unroll offset.
struct Axis {
    /// Index of the original loop variable this axis subdivides.
    ov: usize,
    /// The axis quantum: values on the axis are multiples of it (tile
    /// size for controls, step for point loops, 1 for intra offsets).
    size: i64,
    /// True if this is the variable's final axis (the remaining
    /// distance must be consumed here).
    last: bool,
}

/// Per-variable split state during the violation search.
#[derive(Clone, Copy)]
enum St {
    /// Exact remaining distance still to distribute over the
    /// variable's remaining axes.
    Exact(i64),
    /// `Any` distance of known overall sign; no nonzero axis value
    /// emitted yet (the first nonzero must match the sign).
    Pending(i64),
    /// `Any` distance whose sign has been emitted; later axes free.
    Free,
}

/// Searches for an axis-value assignment consistent with `states` that
/// is lexicographically negative: a (possibly empty) all-zero prefix
/// followed by a negative value. Positive-leading assignments are
/// pruned (they preserve the dependence).
fn violation(axes: &[Axis], states: &[St]) -> bool {
    let Some(axis) = axes.first() else {
        // All spine axes zero: only intra-unroll offsets remain, whose
        // mutual order we do not model — sound iff none can be
        // negative (any negative offset is first in *some* order).
        return states
            .iter()
            .any(|s| matches!(s, St::Exact(r) if *r < 0) || matches!(s, St::Pending(-1)));
    };
    let mut options: Vec<(i64, St)> = Vec::new();
    match states[axis.ov] {
        St::Exact(rem) => {
            // rem = k*size + m with |m| <= size-1: at most two k's.
            let k0 = rem.div_euclid(axis.size);
            options.push((k0 * axis.size, St::Exact(rem - k0 * axis.size)));
            if rem.rem_euclid(axis.size) != 0 {
                let k1 = k0 + 1;
                options.push((k1 * axis.size, St::Exact(rem - k1 * axis.size)));
            }
        }
        St::Pending(0) => options.push((0, St::Pending(0))),
        St::Pending(sign) => {
            if !axis.last {
                options.push((0, St::Pending(sign)));
            }
            options.push((sign, St::Free));
        }
        St::Free => {
            options.push((-1, St::Free));
            options.push((0, St::Free));
            options.push((1, St::Free));
        }
    }
    for (value, next) in options {
        if value < 0 {
            return true;
        }
        if value == 0 {
            let mut states = states.to_vec();
            states[axis.ov] = next;
            if violation(&axes[1..], &states) {
                return true;
            }
        }
        // value > 0: lexicographically positive, dependence preserved.
    }
    false
}

fn dist_string(d: &[Dist]) -> String {
    let parts: Vec<String> = d
        .iter()
        .map(|c| match c {
            Dist::Exact(t) => t.to_string(),
            Dist::Any => "*".to_string(),
        })
        .collect();
    format!("({})", parts.join(", "))
}

/// True if `dep` (with `Any` components resolved to `signs`, the whole
/// vector negated if `negate`) can be executed out of order by the
/// transformed axis structure.
fn dep_violated(dep: &Dependence, axes: &[Axis], signs: &[i64], negate: bool) -> bool {
    let m = if negate { -1 } else { 1 };
    let mut si = 0;
    let states: Vec<St> = dep
        .distance
        .iter()
        .map(|c| match c {
            Dist::Exact(t) => St::Exact(m * t),
            Dist::Any => {
                si += 1;
                St::Pending(m * signs[si - 1])
            }
        })
        .collect();
    violation(axes, &states)
}

/// Pass 2 entry point.
pub(crate) fn check(original: &Program, transformed: &Program, sink: &mut Sink) {
    let nest = match NestInfo::from_program(original) {
        Ok(n) => n,
        Err(e) => {
            sink.push(
                DiagCode::Malformed,
                format!("original program not analyzable for dependences: {e}"),
                Vec::new(),
            );
            return;
        }
    };
    let deps = dependences(&nest);
    sink.checked_deps += deps.len();
    if deps.iter().all(|d| d.is_reduction) {
        return;
    }

    let spine = spine_of(transformed);
    let spine_ctx: Vec<Ctx> = spine.iter().map(|l| Ctx::of_loop(l)).collect();
    let context = render_ctx(transformed, &spine_ctx);

    let orig_names: Vec<&str> = nest
        .loops
        .iter()
        .map(|l| original.var(l.var).name.as_str())
        .collect();

    // Classify each spine loop: original variable -> point loop; fresh
    // variable -> tile control of whichever deeper loop it bounds.
    let mut resolved: Vec<Option<usize>> = spine
        .iter()
        .map(|l| {
            let name = transformed.var(l.var).name.as_str();
            orig_names.iter().position(|n| *n == name)
        })
        .collect();
    for p in 0..spine.len() {
        if resolved[p].is_some() {
            continue;
        }
        let mut cur = p;
        while resolved[p].is_none() {
            let v = spine[cur].var;
            let Some(next) = (cur + 1..spine.len()).find(|&q| spine[q].lo.uses(v)) else {
                break;
            };
            cur = next;
            resolved[p] = resolved[cur];
        }
        if resolved[p].is_none() {
            sink.push(
                DiagCode::Malformed,
                format!(
                    "cannot relate transformed loop {} to the original nest",
                    transformed.var(spine[p].var).name
                ),
                context.clone(),
            );
            return;
        }
    }

    // Every original variable needs a point loop in the spine.
    let mut point_pos = vec![None; orig_names.len()];
    for (p, l) in spine.iter().enumerate() {
        let name = transformed.var(l.var).name.as_str();
        if let Some(ov) = orig_names.iter().position(|n| *n == name) {
            point_pos[ov] = Some(p);
        }
    }
    let Some(point_pos) = point_pos.into_iter().collect::<Option<Vec<usize>>>() else {
        sink.push(
            DiagCode::Malformed,
            "an original loop is missing from the transformed nest".to_string(),
            context.clone(),
        );
        return;
    };

    // Execution-order axes: the spine loops, then an intra-unroll axis
    // (quantum 1) per unrolled variable, innermost.
    let mut axes: Vec<Axis> = spine
        .iter()
        .enumerate()
        .map(|(p, l)| Axis {
            ov: resolved[p].expect("resolved above"),
            size: l.step,
            last: false,
        })
        .collect();
    for (ov, &p) in point_pos.iter().enumerate() {
        if spine[p].step > 1 {
            axes.push(Axis {
                ov,
                size: 1,
                last: true,
            });
        } else {
            axes[p].last = true;
        }
    }

    for dep in &deps {
        if dep.is_reduction {
            continue;
        }
        let any_count = dep
            .distance
            .iter()
            .filter(|c| matches!(c, Dist::Any))
            .count();
        // Enumerate sign assignments for Any components. An assignment
        // making the original vector lexicographically negative is the
        // same dependence flowing the other way (leading-`Any` vectors
        // are not src/dst-normalized by the solver): check it negated.
        let mut flagged = false;
        let mut signs = vec![-1i64; any_count];
        'combos: loop {
            let mut si = 0;
            let mut lex = 0i64;
            for c in &dep.distance {
                let v = match c {
                    Dist::Exact(t) => *t,
                    Dist::Any => {
                        si += 1;
                        signs[si - 1]
                    }
                };
                if lex == 0 {
                    lex = v.signum();
                }
            }
            if dep_violated(dep, &axes, &signs, lex < 0) {
                flagged = true;
            }
            // Next combination in {-1, 0, 1}^any_count.
            let mut i = 0;
            loop {
                if i == any_count {
                    break 'combos;
                }
                if signs[i] < 1 {
                    signs[i] += 1;
                    break;
                }
                signs[i] = -1;
                i += 1;
            }
            if flagged {
                break;
            }
        }
        if flagged {
            let array = &original.array(nest.refs[dep.src].array).name;
            sink.push(
                DiagCode::DependenceNotPreserved,
                format!(
                    "{:?} dependence on {array} with distance {} can be reversed by the transformed loop order",
                    dep.kind,
                    dist_string(&dep.distance),
                ),
                context.clone(),
            );
        }
    }
}
