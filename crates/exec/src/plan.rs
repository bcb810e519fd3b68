//! Lowering IR programs to a compiled execution plan.
//!
//! The tree-walking [`measure_reference`](crate::measure_reference)
//! re-derives everything on every visit: each array reference
//! re-evaluates its affine subscripts through boxed-expression
//! recursion and recomputes its column-major flat index from scratch,
//! and each loop iteration re-dispatches on statement enums. For the
//! affine programs this workspace deals in, all of that structure is
//! static: the address of `A[f(i,j)]` is `base + Σ stride_v · v`, and
//! advancing the innermost loop moves every access site by a *constant*
//! byte stride.
//!
//! [`ExecutablePlan::compile`] exploits this by lowering a validated
//! [`Program`] once into a flat bytecode:
//!
//! * control flow becomes explicit [`Inst`]s driven by a program
//!   counter — no recursion, no `Box` chasing;
//! * every straight-line statement run becomes one block: its ordered
//!   list of access sites (trace order: each statement's loads in
//!   evaluation order, then its store) plus its flop count;
//! * an innermost loop whose whole body is straight-line becomes a
//!   *fused loop*: at entry, each site is bound to a [`StreamSpec`]
//!   (start byte address, per-iteration byte stride, valid-iteration
//!   window), and the whole batch of streams goes to
//!   [`MemoryHierarchy::access_streams`], whose exact per-lane stream
//!   walker is described in DESIGN.md §4.
//!
//! The plan is parameter-symbolic: compilation depends only on the
//! program, so the engine memoizes one plan per program and re-binds it
//! to every `(params, layout)` evaluation point for free. Its one
//! executor, [`ExecutablePlan::measure`], replays the *exact* access
//! sequence, counter arithmetic and out-of-bounds behaviour of the
//! reference walker; the differential tests in this module and in
//! `tests/props.rs` hold the two to bit-identical counters. Numeric
//! semantics are the reference [`interpret`](crate::interpret)'s job.

use crate::error::ExecError;
use crate::layout::{ArrayLayout, LayoutOptions, Params};
use eco_cachesim::{AccessKind, Counters, MemoryHierarchy, StreamSpec};
use eco_ir::{AffineExpr, ArrayId, ArrayRef, Bound, Cond, Program, Stmt, VarId};
use eco_machine::MachineDesc;

/// Retired simulator telemetry, kept so callers of
/// [`ExecutablePlan::measure_with_stats`] keep compiling. It counted
/// the accesses the simulator's old fast-forward windows accounted
/// arithmetically; the stream walker that replaced them walks every
/// access, so both fields always read 0.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Always 0 (retired).
    pub ff_windows: u64,
    /// Always 0 (retired).
    pub ff_accesses: u64,
}

impl SimStats {
    /// Adds `other` into `self`, field by field.
    pub fn merge(&mut self, other: &SimStats) {
        self.ff_windows += other.ff_windows;
        self.ff_accesses += other.ff_accesses;
    }
}

/// One static memory-access site: an array reference plus the kind of
/// access the program performs there. Sites are listed in trace order.
#[derive(Debug, Clone)]
struct Site {
    array: ArrayId,
    kind: AccessKind,
    idx: Vec<AffineExpr>,
}

/// One bytecode instruction. `exit`/`back` are instruction indices.
#[derive(Debug, Clone)]
enum Inst {
    /// Loop header: evaluate bounds, count iterations, enter or skip.
    Loop {
        var: usize,
        lo: Bound,
        hi: Bound,
        step: i64,
        slot: usize,
        exit: usize,
    },
    /// Loop latch: advance the induction variable or fall through.
    End {
        var: usize,
        step: i64,
        slot: usize,
        back: usize,
    },
    /// Guard: fall through when the condition holds, else jump.
    Guard { cond: Cond, exit: usize },
    /// A straight-line statement run: its site range (trace order) and
    /// its flop count per execution.
    Block { sites: (u32, u32), flops: u64 },
    /// An innermost loop whose body is straight-line code under guards
    /// that are invariant in the loop variable, executed natively over
    /// per-site strided address streams. `runs` indexes
    /// [`ExecutablePlan::gruns`]; each run's guard conjunction is
    /// evaluated once at loop entry (the body cannot change it), and
    /// the active runs execute as one fused stream.
    Fused {
        var: usize,
        lo: Bound,
        hi: Bound,
        step: i64,
        runs: (u32, u32),
    },
}

/// One guarded straight-line run inside a fused loop: the leaves of a
/// maximal leaf sequence sharing the same stack of enclosing `If`s.
/// `conds` is that stack (empty for unguarded code); every condition is
/// invariant in the fused loop variable, so one evaluation at loop
/// entry decides the whole loop.
#[derive(Debug, Clone)]
struct GuardedRun {
    conds: Vec<Cond>,
    sites: (u32, u32),
    flops: u64,
}

/// Static facts about one lowering, reported through the engine's
/// `plan_compile` observability event: how much of the program the
/// lowering managed to put on its fast paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoweringStats {
    /// Bytecode instructions.
    pub insts: usize,
    /// Static memory-access sites.
    pub sites: usize,
    /// Innermost loops fused into native strided-stream execution
    /// (`Inst::Fused`) — the lowering's main win.
    pub fused_loops: usize,
    /// Guarded straight-line runs inside fused loops.
    pub guarded_runs: usize,
    /// Guard conditions hoisted out of fused loops (each is evaluated
    /// once at loop entry instead of per iteration).
    pub hoisted_guards: usize,
}

/// A program lowered to flat bytecode, ready to measure at any
/// parameter point.
///
/// Compile once per program ([`ExecutablePlan::compile`]), then run
/// [`ExecutablePlan::measure`] — the cache simulation the search
/// consumes — at as many `(params, layout, machine)` points as needed.
/// Its counters match [`measure_reference`](crate::measure_reference)
/// bit for bit.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    program: Program,
    insts: Vec<Inst>,
    sites: Vec<Site>,
    gruns: Vec<GuardedRun>,
    loop_slots: usize,
}

impl ExecutablePlan {
    /// Validates and lowers `program`.
    ///
    /// # Errors
    ///
    /// Fails with the same [`ExecError::Invalid`] the reference
    /// executors produce for a malformed program.
    pub fn compile(program: &Program) -> Result<ExecutablePlan, ExecError> {
        program.validate().map_err(ExecError::Invalid)?;
        let mut c = Compiler::default();
        c.stmts(&program.body);
        Ok(ExecutablePlan {
            program: program.clone(),
            insts: c.insts,
            sites: c.sites,
            gruns: c.gruns,
            loop_slots: c.loop_slots,
        })
    }

    /// Static lowering statistics for this plan.
    pub fn lowering_stats(&self) -> LoweringStats {
        LoweringStats {
            insts: self.insts.len(),
            sites: self.sites.len(),
            fused_loops: self
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::Fused { .. }))
                .count(),
            guarded_runs: self.gruns.len(),
            hoisted_guards: self.gruns.iter().map(|g| g.conds.len()).sum(),
        }
    }

    /// Simulates the plan on `machine` and returns the measured
    /// counters — the compiled equivalent of
    /// [`measure_reference`](crate::measure_reference).
    ///
    /// # Errors
    ///
    /// Fails on unbound parameters, bad extents, or out-of-bounds
    /// demand accesses, with payloads identical to the reference.
    pub fn measure(
        &self,
        params: &Params,
        machine: &MachineDesc,
        layout_opts: &LayoutOptions,
    ) -> Result<Counters, ExecError> {
        self.run_measure(params, machine, layout_opts, false)
    }

    /// Like [`ExecutablePlan::measure`], but attributes demand misses
    /// per array (`counters.per_tag[i]` is array id `i`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutablePlan::measure`].
    pub fn measure_attributed(
        &self,
        params: &Params,
        machine: &MachineDesc,
        layout_opts: &LayoutOptions,
    ) -> Result<Counters, ExecError> {
        self.run_measure(params, machine, layout_opts, true)
    }

    /// Like [`ExecutablePlan::measure`], plus the retired simulator
    /// telemetry ([`SimStats`], always zero). The counters are
    /// bit-identical to [`ExecutablePlan::measure`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutablePlan::measure`].
    pub fn measure_with_stats(
        &self,
        params: &Params,
        machine: &MachineDesc,
        layout_opts: &LayoutOptions,
    ) -> Result<(Counters, SimStats), ExecError> {
        self.measure(params, machine, layout_opts)
            .map(|c| (c, SimStats::default()))
    }

    fn run_measure(
        &self,
        params: &Params,
        machine: &MachineDesc,
        layout_opts: &LayoutOptions,
        attribute: bool,
    ) -> Result<Counters, ExecError> {
        let layout = ArrayLayout::new(&self.program, params, layout_opts)?;
        let env = params.env_for(&self.program)?;
        let mut ctx = MeasureCtx {
            plan: self,
            dstrides: elem_strides(&layout),
            layout: &layout,
            env,
            hi_slots: vec![0; self.loop_slots],
            hier: MemoryHierarchy::new(machine),
            attribute,
            streams: Vec::new(),
            active_sites: Vec::new(),
        };
        ctx.run()?;
        Ok(ctx.hier.into_counters())
    }

    /// The out-of-bounds error for `site` under `env` — field-for-field
    /// identical to the reference walkers' payload.
    fn oob(&self, site: &Site, env: &[i64], layout: &ArrayLayout) -> ExecError {
        ExecError::OutOfBounds {
            array: self.program.array(site.array).name.clone(),
            indices: site.idx.iter().map(|e| e.eval_slice(env)).collect(),
            extents: layout.extents(site.array).to_vec(),
        }
    }
}

/// Measures `program` through a freshly compiled [`ExecutablePlan`].
///
/// This is the default measurement path: every engine, CLI, and
/// benchmark goes through the compiled plan. The tree-walking
/// [`measure_reference`](crate::measure_reference) remains available as
/// the differential oracle.
///
/// # Errors
///
/// Fails on validation errors, unbound parameters, bad extents, or
/// out-of-bounds demand accesses.
pub fn measure(
    program: &Program,
    params: &Params,
    machine: &MachineDesc,
    layout_opts: &LayoutOptions,
) -> Result<Counters, ExecError> {
    ExecutablePlan::compile(program)?.measure(params, machine, layout_opts)
}

/// Like [`measure`], but attributes demand misses per array.
///
/// # Errors
///
/// Same conditions as [`measure`].
pub fn measure_attributed(
    program: &Program,
    params: &Params,
    machine: &MachineDesc,
    layout_opts: &LayoutOptions,
) -> Result<Counters, ExecError> {
    ExecutablePlan::compile(program)?.measure_attributed(params, machine, layout_opts)
}

/// Per-array column-major element strides: `dstrides[a][d]` is the
/// distance in elements between neighbours along dimension `d`.
fn elem_strides(layout: &ArrayLayout) -> Vec<Vec<i64>> {
    (0..layout.num_arrays())
        .map(|a| {
            let exts = layout.extents(ArrayId(a as u32));
            let mut ds = Vec::with_capacity(exts.len());
            let mut s = 1i64;
            for &e in exts {
                ds.push(s);
                s *= e;
            }
            ds
        })
        .collect()
}

/// `floor(a / b)` for any sign of `a`, positive or negative `b`.
fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// `ceil(a / b)` for any sign of `a`, positive or negative `b`.
fn ceil_div(a: i64, b: i64) -> i64 {
    -floor_div(-a, b)
}

#[derive(Default)]
struct Compiler {
    insts: Vec<Inst>,
    sites: Vec<Site>,
    gruns: Vec<GuardedRun>,
    loop_slots: usize,
}

/// True for statements that generate no control flow.
fn is_leaf(s: &Stmt) -> bool {
    matches!(
        s,
        Stmt::Store { .. } | Stmt::SetTemp { .. } | Stmt::Prefetch { .. }
    )
}

/// True when a loop body over `var` can be fused: only leaves and `If`s
/// whose conditions never mention `var` (tile-tail guards in generated
/// code are invariant in the innermost loop). Leaves cannot change the
/// integer environment, so such conditions are constant across the
/// whole loop and can be evaluated once at entry.
fn fusible(var: VarId, stmts: &[Stmt]) -> bool {
    stmts.iter().all(|s| match s {
        Stmt::If { cond, then } => cond_free_of(cond, var) && fusible(var, then),
        s => is_leaf(s),
    })
}

/// True when `cond` does not involve `var`.
fn cond_free_of(cond: &Cond, var: VarId) -> bool {
    cond.lhs.coeff(var) == 0 && bound_free_of(&cond.rhs, var)
}

/// True when `bound` does not involve `var`.
fn bound_free_of(bound: &Bound, var: VarId) -> bool {
    match bound {
        Bound::Affine(e) => e.coeff(var) == 0,
        Bound::Min(es) | Bound::Max(es) => es.iter().all(|e| e.coeff(var) == 0),
    }
}

impl Compiler {
    fn stmts(&mut self, stmts: &[Stmt]) {
        let mut i = 0;
        while i < stmts.len() {
            if is_leaf(&stmts[i]) {
                // Take the maximal straight-line run and compile it to
                // one block.
                let start = i;
                while i < stmts.len() && is_leaf(&stmts[i]) {
                    i += 1;
                }
                let (sites, flops) = self.leaves(&stmts[start..i]);
                self.insts.push(Inst::Block { sites, flops });
                continue;
            }
            match &stmts[i] {
                Stmt::For(l) if fusible(l.var, &l.body) => {
                    let r0 = self.gruns.len() as u32;
                    let mut conds = Vec::new();
                    self.emit_runs(&l.body, &mut conds);
                    self.insts.push(Inst::Fused {
                        var: l.var.index(),
                        lo: l.lo.clone(),
                        hi: l.hi.clone(),
                        step: l.step,
                        runs: (r0, self.gruns.len() as u32),
                    });
                }
                Stmt::For(l) => {
                    let slot = self.loop_slots;
                    self.loop_slots += 1;
                    let header = self.insts.len();
                    self.insts.push(Inst::Loop {
                        var: l.var.index(),
                        lo: l.lo.clone(),
                        hi: l.hi.clone(),
                        step: l.step,
                        slot,
                        exit: usize::MAX, // patched below
                    });
                    self.stmts(&l.body);
                    self.insts.push(Inst::End {
                        var: l.var.index(),
                        step: l.step,
                        slot,
                        back: header + 1,
                    });
                    let exit = self.insts.len();
                    let Inst::Loop { exit: e, .. } = &mut self.insts[header] else {
                        unreachable!("header is a Loop");
                    };
                    *e = exit;
                }
                Stmt::If { cond, then } => {
                    let header = self.insts.len();
                    self.insts.push(Inst::Guard {
                        cond: cond.clone(),
                        exit: usize::MAX, // patched below
                    });
                    self.stmts(then);
                    let exit = self.insts.len();
                    let Inst::Guard { exit: e, .. } = &mut self.insts[header] else {
                        unreachable!("header is a Guard");
                    };
                    *e = exit;
                }
                _ => unreachable!("leaves handled above"),
            }
            i += 1;
        }
    }

    /// Compiles a fusible loop body into guarded runs, in statement
    /// order: maximal leaf sequences under the same `If` stack become
    /// one run each, carrying that stack as their guard conjunction.
    fn emit_runs(&mut self, stmts: &[Stmt], conds: &mut Vec<Cond>) {
        let mut i = 0;
        while i < stmts.len() {
            if is_leaf(&stmts[i]) {
                let start = i;
                while i < stmts.len() && is_leaf(&stmts[i]) {
                    i += 1;
                }
                let (sites, flops) = self.leaves(&stmts[start..i]);
                self.gruns.push(GuardedRun {
                    conds: conds.clone(),
                    sites,
                    flops,
                });
                continue;
            }
            let Stmt::If { cond, then } = &stmts[i] else {
                unreachable!("fusible bodies hold only leaves and Ifs");
            };
            conds.push(cond.clone());
            self.emit_runs(then, conds);
            conds.pop();
            i += 1;
        }
    }

    /// Compiles a straight-line statement run; returns its site range
    /// and its flop count per execution. Sites are registered in trace
    /// order — each statement's loads in evaluation order, then its
    /// store — which is the reference walker's access order.
    fn leaves(&mut self, stmts: &[Stmt]) -> ((u32, u32), u64) {
        let s0 = self.sites.len() as u32;
        let mut flops = 0u64;
        for s in stmts {
            match s {
                Stmt::Store { target, value } => {
                    value.for_each_load(&mut |r| self.site(r, AccessKind::Load));
                    self.site(target, AccessKind::Store);
                    flops += value.flops();
                }
                Stmt::SetTemp { value, .. } => {
                    value.for_each_load(&mut |r| self.site(r, AccessKind::Load));
                    flops += value.flops();
                }
                Stmt::Prefetch { target } => self.site(target, AccessKind::Prefetch),
                _ => unreachable!("caller passes only leaves"),
            }
        }
        ((s0, self.sites.len() as u32), flops)
    }

    fn site(&mut self, r: &ArrayRef, kind: AccessKind) {
        self.sites.push(Site {
            array: r.array,
            kind,
            idx: r.idx.clone(),
        });
    }
}

/// The first out-of-bounds demand access of a fused loop in trace
/// order, as `(iteration, stream position)`, or `None` if every demand
/// stream covers the whole trip count.
fn first_oob(streams: &[StreamSpec], trips: i64) -> Option<(i64, usize)> {
    let mut bad: Option<(i64, usize)> = None;
    for (pos, s) in streams.iter().enumerate() {
        if matches!(s.kind, AccessKind::Prefetch) {
            continue;
        }
        let t = if s.vlo > 0 {
            0
        } else if s.vhi < trips - 1 {
            s.vhi + 1
        } else {
            continue;
        };
        if bad.is_none_or(|(bt, bp)| (t, pos) < (bt, bp)) {
            bad = Some((t, pos));
        }
    }
    bad
}

/// Architectural (cache-simulation) executor state.
struct MeasureCtx<'a> {
    plan: &'a ExecutablePlan,
    layout: &'a ArrayLayout,
    dstrides: Vec<Vec<i64>>,
    env: Vec<i64>,
    hi_slots: Vec<i64>,
    hier: MemoryHierarchy,
    attribute: bool,
    /// Reusable fused-loop batch handed to the simulator.
    streams: Vec<StreamSpec>,
    /// Reusable scratch: site ids of the guard-active runs, in order.
    active_sites: Vec<u32>,
}

impl MeasureCtx<'_> {
    fn run(&mut self) -> Result<(), ExecError> {
        let insts = &self.plan.insts;
        let mut pc = 0;
        while pc < insts.len() {
            match &insts[pc] {
                Inst::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    slot,
                    exit,
                } => {
                    let l = lo.eval_slice(&self.env);
                    let h = hi.eval_slice(&self.env);
                    if h < l {
                        pc = *exit;
                        continue;
                    }
                    self.hier.add_loop_iterations(((h - l) / step + 1) as u64);
                    self.env[*var] = l;
                    self.hi_slots[*slot] = h;
                }
                Inst::End {
                    var,
                    step,
                    slot,
                    back,
                } => {
                    let next = self.env[*var] + step;
                    if next <= self.hi_slots[*slot] {
                        self.env[*var] = next;
                        pc = *back;
                        continue;
                    }
                }
                Inst::Guard { cond, exit } => {
                    if !cond.eval_slice(&self.env) {
                        pc = *exit;
                        continue;
                    }
                }
                Inst::Block { sites, flops } => {
                    for sid in sites.0..sites.1 {
                        self.access_site(sid)?;
                    }
                    if *flops > 0 {
                        self.hier.add_flops(*flops);
                    }
                }
                Inst::Fused {
                    var,
                    lo,
                    hi,
                    step,
                    runs,
                } => {
                    self.fused(*var, lo, hi, *step, *runs)?;
                }
            }
            pc += 1;
        }
        Ok(())
    }

    /// One access through the generic (non-fused) path: per-dimension
    /// bounds check plus Horner flat indexing, like the reference but
    /// over precompiled subscripts.
    fn access_site(&mut self, sid: u32) -> Result<(), ExecError> {
        let site = &self.plan.sites[sid as usize];
        let exts = self.layout.extents(site.array);
        let mut flat = 0i64;
        for d in (0..exts.len()).rev() {
            let v = site.idx[d].eval_slice(&self.env);
            if v < 0 || v >= exts[d] {
                // Out-of-bounds prefetches are legal no-ops (prefetch
                // code runs past tile edges); demand accesses are not.
                return if matches!(site.kind, AccessKind::Prefetch) {
                    Ok(())
                } else {
                    Err(self.plan.oob(site, &self.env, self.layout))
                };
            }
            flat = flat * exts[d] + v;
        }
        let addr = self.layout.base(site.array) + flat as u64 * 8;
        if self.attribute {
            self.hier.access_tagged(addr, site.kind, site.array.index());
        } else {
            self.hier.access(addr, site.kind);
        }
        Ok(())
    }

    fn fused(
        &mut self,
        var: usize,
        lo: &Bound,
        hi: &Bound,
        step: i64,
        rrange: (u32, u32),
    ) -> Result<(), ExecError> {
        let l = lo.eval_slice(&self.env);
        let h = hi.eval_slice(&self.env);
        if h < l {
            return Ok(());
        }
        let trips = (h - l) / step + 1;
        self.hier.add_loop_iterations(trips as u64);
        self.env[var] = l;
        // Guards are invariant in `var`: decide each run once at entry.
        let mut sids = std::mem::take(&mut self.active_sites);
        sids.clear();
        let mut flops = 0u64;
        for g in &self.plan.gruns[rrange.0 as usize..rrange.1 as usize] {
            if g.conds.iter().all(|c| c.eval_slice(&self.env)) {
                sids.extend(g.sites.0..g.sites.1);
                flops += g.flops;
            }
        }
        let mut streams = std::mem::take(&mut self.streams);
        self.bind_sites(var, step, trips, &sids, &mut streams);
        if let Some((t, pos)) = first_oob(&streams, trips) {
            self.env[var] = l + t * step;
            let site = &self.plan.sites[sids[pos] as usize];
            return Err(self.plan.oob(site, &self.env, self.layout));
        }
        self.active_sites = sids;
        if flops > 0 {
            self.hier.add_flops(flops * trips as u64);
        }
        // Hand the whole loop to the simulator as one batch of strided
        // streams: demand streams cover the full trip range (checked
        // above), prefetch streams may be valid only on a sub-interval
        // or none. The simulator's stream walker is bit-identical to
        // the per-access interleaved walk.
        streams.retain_mut(|s| {
            s.vlo = s.vlo.max(0);
            s.vhi = s.vhi.min(trips - 1);
            s.vlo <= s.vhi
        });
        self.hier.access_streams(&streams, trips, self.attribute);
        self.streams = streams;
        self.env[var] = l + (trips - 1) * step;
        Ok(())
    }

    /// Binds the listed sites of a fused loop at entry (`env[var]` must
    /// already hold the lower bound) to byte-address streams. Each
    /// stream's `[vlo, vhi]` is the iteration window in which every
    /// subscript is in bounds; it may reach outside `0..trips`, and is
    /// clamped only after the out-of-bounds check.
    fn bind_sites(
        &self,
        var: usize,
        step: i64,
        trips: i64,
        sids: &[u32],
        streams: &mut Vec<StreamSpec>,
    ) {
        streams.clear();
        for &sid in sids {
            let site = &self.plan.sites[sid as usize];
            let exts = self.layout.extents(site.array);
            let ds = &self.dstrides[site.array.index()];
            let mut flat = 0i64;
            let mut stride = 0i64;
            let mut vlo = 0i64;
            let mut vhi = trips - 1;
            for d in 0..exts.len() {
                let a = site.idx[d].eval_slice(&self.env);
                let b = site.idx[d].coeff(VarId(var as u32)) * step;
                flat += a * ds[d];
                stride += b * ds[d];
                let e = exts[d];
                if b == 0 {
                    if a < 0 || a >= e {
                        // never valid
                        vlo = 1;
                        vhi = 0;
                    }
                } else if b > 0 {
                    vlo = vlo.max(ceil_div(-a, b));
                    vhi = vhi.min(floor_div(e - 1 - a, b));
                } else {
                    vlo = vlo.max(ceil_div(e - 1 - a, b));
                    vhi = vhi.min(floor_div(-a, b));
                }
            }
            streams.push(StreamSpec {
                base: self.layout.base(site.array) as i64 + flat * 8,
                stride: stride * 8,
                vlo,
                vhi,
                kind: site.kind,
                tag: site.array.index() as u32,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{measure_attributed_reference, measure_reference};
    use eco_ir::{ArrayRef, Cond, Loop, ScalarExpr, Stmt};
    use eco_kernels::Kernel;

    fn opts() -> LayoutOptions {
        LayoutOptions::default()
    }

    fn machines() -> Vec<MachineDesc> {
        vec![
            MachineDesc::sgi_r10000().scaled(32),
            MachineDesc::ultrasparc_iie().scaled(32),
        ]
    }

    /// Compiled and reference measurement must agree exactly — counters,
    /// cycles, and per-tag attribution — on `program` at `params`.
    fn assert_measure_parity(program: &Program, params: &Params) {
        let plan = ExecutablePlan::compile(program).expect("compile");
        for m in machines() {
            assert_eq!(
                plan.measure(params, &m, &opts()),
                measure_reference(program, params, &m, &opts()),
                "{} on {}",
                program.name,
                m.name
            );
            assert_eq!(
                plan.measure_attributed(params, &m, &opts()),
                measure_attributed_reference(program, params, &m, &opts()),
                "{} attributed on {}",
                program.name,
                m.name
            );
        }
    }

    #[test]
    fn all_kernels_match_reference_measurement() {
        for k in Kernel::all() {
            for n in [5i64, 17] {
                let params = Params::new().with(k.size, n);
                assert_measure_parity(&k.program, &params);
            }
        }
    }

    /// The lowering's shape — `(insts, sites, fused_loops,
    /// guarded_runs, hoisted_guards)` — for every kernel and the
    /// hand-built variants below: a change to what the lowering fuses,
    /// hoists or registers as a site moves these numbers.
    #[test]
    fn lowering_shape_is_pinned() {
        let shape = |p: &Program| {
            let s = ExecutablePlan::compile(p)
                .expect("compile")
                .lowering_stats();
            (
                s.insts,
                s.sites,
                s.fused_loops,
                s.guarded_runs,
                s.hoisted_guards,
            )
        };
        let want = [
            ("mm", (5, 4, 1, 1, 0)),
            ("jacobi", (5, 7, 1, 1, 0)),
            ("mv", (3, 4, 1, 1, 0)),
            ("stencil5", (3, 5, 1, 1, 0)),
            ("syrk", (5, 4, 1, 1, 0)),
            ("tmm", (5, 4, 1, 1, 0)),
        ];
        let kernels = Kernel::all();
        assert_eq!(kernels.len(), want.len());
        for (k, (name, w)) in kernels.iter().zip(want) {
            assert_eq!((k.name.as_str(), shape(&k.program)), (name, w));
        }
        assert_eq!(shape(&tiled_guarded_mm(4)), (9, 5, 1, 1, 0));
        assert_eq!(shape(&guard_invariant_inner_mm()), (5, 6, 1, 2, 1));
    }

    /// A hand-tiled MM with `Min` tail bounds, a guard, a scalar
    /// temporary, and software prefetch — exercises `Loop`/`End`,
    /// `Guard`, generic `Block`s, and multi-site `Fused` loops at once.
    fn tiled_guarded_mm(tile: i64) -> Program {
        let mut p = Program::new("mm_tiled_guarded");
        let n = p.add_param("N");
        let jj = p.add_loop_var("JJ");
        let (k, j, i) = (
            p.add_loop_var("K"),
            p.add_loop_var("J"),
            p.add_loop_var("I"),
        );
        let a = p.add_array("A", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let b = p.add_array("B", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let c = p.add_array("C", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let t = p.add_temp("t");
        let n1: AffineExpr = AffineExpr::var(n) - AffineExpr::constant(1);
        let c_ref = ArrayRef::new(c, vec![AffineExpr::var(i), AffineExpr::var(j)]);
        let inner = vec![
            Stmt::Prefetch {
                target: ArrayRef::new(
                    a,
                    vec![
                        AffineExpr::var(i) + AffineExpr::constant(8),
                        AffineExpr::var(k),
                    ],
                ),
            },
            Stmt::Store {
                target: c_ref.clone(),
                value: ScalarExpr::add(
                    ScalarExpr::Load(c_ref),
                    ScalarExpr::mul(
                        ScalarExpr::Load(ArrayRef::new(
                            a,
                            vec![AffineExpr::var(i), AffineExpr::var(k)],
                        )),
                        ScalarExpr::Temp(t),
                    ),
                ),
            },
        ];
        let i_loop = Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: n1.clone().into(),
            step: 1,
            body: inner,
        });
        let j_body = vec![
            Stmt::SetTemp {
                temp: t,
                value: ScalarExpr::Load(ArrayRef::new(
                    b,
                    vec![AffineExpr::var(k), AffineExpr::var(j)],
                )),
            },
            Stmt::If {
                cond: Cond::le(AffineExpr::var(j), n1.clone()),
                then: vec![i_loop],
            },
        ];
        let j_loop = Stmt::For(Loop {
            var: j,
            lo: AffineExpr::var(jj).into(),
            hi: Bound::min_of(vec![
                AffineExpr::var(jj) + AffineExpr::constant(tile - 1),
                n1.clone(),
            ]),
            step: 1,
            body: j_body,
        });
        let k_loop = Stmt::For(Loop {
            var: k,
            lo: 0.into(),
            hi: n1.clone().into(),
            step: 1,
            body: vec![j_loop],
        });
        p.body.push(Stmt::For(Loop {
            var: jj,
            lo: 0.into(),
            hi: n1.into(),
            step: tile,
            body: vec![k_loop],
        }));
        p
    }

    #[test]
    fn tiled_guarded_variant_matches_reference() {
        // 13 % 4 != 0 exercises the Min tail bound; the prefetch runs
        // past the edge of A for the last 8 values of I.
        let p = tiled_guarded_mm(4);
        let params = Params::new().with_named(&p, "N", 13).expect("N");
        assert_measure_parity(&p, &params);
    }

    /// The shape unroll-and-jam code generation produces: the innermost
    /// K loop's body is straight-line code under `If`s whose conditions
    /// involve I and N but never K. Such a loop must fuse — guards
    /// decided once at entry — and still match the reference exactly.
    fn guard_invariant_inner_mm() -> Program {
        let mut p = Program::new("mm_guard_inner");
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let k = p.add_loop_var("K");
        let a = p.add_array("A", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let b = p.add_array("B", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let c = p.add_array("C", vec![AffineExpr::var(n), AffineExpr::var(n)]);
        let t0 = p.add_temp("t0");
        let t1 = p.add_temp("t1");
        let n1: AffineExpr = AffineExpr::var(n) - AffineExpr::constant(1);
        let load = |arr, r, c_| ScalarExpr::Load(ArrayRef::new(arr, vec![r, c_]));
        let k_body = vec![
            Stmt::SetTemp {
                temp: t0,
                value: ScalarExpr::add(
                    ScalarExpr::Temp(t0),
                    ScalarExpr::mul(
                        load(a, AffineExpr::var(i), AffineExpr::var(k)),
                        load(b, AffineExpr::var(k), AffineExpr::constant(0)),
                    ),
                ),
            },
            Stmt::If {
                // I-dependent, K-invariant: false on the unroll tail.
                cond: Cond::le(AffineExpr::var(i) + AffineExpr::constant(1), n1.clone()),
                then: vec![
                    Stmt::SetTemp {
                        temp: t1,
                        value: ScalarExpr::add(
                            ScalarExpr::Temp(t1),
                            ScalarExpr::mul(
                                load(
                                    a,
                                    AffineExpr::var(i) + AffineExpr::constant(1),
                                    AffineExpr::var(k),
                                ),
                                load(b, AffineExpr::var(k), AffineExpr::constant(0)),
                            ),
                        ),
                    },
                    Stmt::Store {
                        target: ArrayRef::new(
                            c,
                            vec![
                                AffineExpr::var(i) + AffineExpr::constant(1),
                                AffineExpr::var(k),
                            ],
                        ),
                        value: ScalarExpr::Temp(t1),
                    },
                ],
            },
        ];
        let k_loop = Stmt::For(Loop {
            var: k,
            lo: 0.into(),
            hi: n1.clone().into(),
            step: 1,
            body: k_body,
        });
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: n1.into(),
            step: 2,
            body: vec![
                Stmt::SetTemp {
                    temp: t0,
                    value: ScalarExpr::Const(0.0),
                },
                Stmt::SetTemp {
                    temp: t1,
                    value: ScalarExpr::Const(0.0),
                },
                k_loop,
                Stmt::Store {
                    target: ArrayRef::new(c, vec![AffineExpr::var(i), AffineExpr::constant(0)]),
                    value: ScalarExpr::Temp(t0),
                },
            ],
        }));
        p
    }

    #[test]
    fn guard_invariant_inner_loop_fuses_and_matches_reference() {
        let p = guard_invariant_inner_mm();
        let plan = ExecutablePlan::compile(&p).expect("compile");
        assert!(
            plan.insts
                .iter()
                .any(|i| matches!(i, Inst::Fused { runs, .. } if runs.1 - runs.0 == 2)),
            "the guarded K loop must lower to a two-run Fused inst"
        );
        // N = 13: the guard is false on the last I (unroll tail);
        // N = 8: the guard holds for every I.
        for n in [13i64, 8] {
            let params = Params::new().with_named(&p, "N", n).expect("N");
            assert_measure_parity(&p, &params);
        }
    }

    #[test]
    fn reverse_and_strided_loops_match_reference() {
        // B[N-1-I] = A[2*I] with I stepping by 3 from 1: negative byte
        // stride on the store stream, gaps on the load stream.
        let mut p = Program::new("rev");
        let n = p.add_param("N");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::var(n) * 2]);
        let b = p.add_array("B", vec![AffineExpr::var(n)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 1.into(),
            hi: (AffineExpr::var(n) - AffineExpr::constant(1)).into(),
            step: 3,
            body: vec![Stmt::Store {
                target: ArrayRef::new(
                    b,
                    vec![AffineExpr::var(n) - AffineExpr::constant(1) - AffineExpr::var(i)],
                ),
                value: ScalarExpr::Load(ArrayRef::new(a, vec![AffineExpr::var(i) * 2])),
            }],
        }));
        let params = Params::new().with(n, 50);
        assert_measure_parity(&p, &params);
    }

    #[test]
    fn loop_variable_values_persist_like_the_reference() {
        // After `DO I = 0,3 {}` (a fused loop) and `DO K = 0,3 { DO L =
        // 0,0 {} }` (a Loop/End pair) the reference leaves I and K at
        // their last executed value (3); a zero-trip loop leaves J
        // untouched (0). The stores pin all three: A[v] and A[v-3]
        // (extent 4) are both in bounds only for v = 3, and B[J]
        // (extent 1) only for J = 0, so any other value makes the
        // measurement fail out of bounds.
        let mut p = Program::new("env");
        let i = p.add_loop_var("I");
        let k = p.add_loop_var("K");
        let l = p.add_loop_var("L");
        let j = p.add_loop_var("J");
        let a = p.add_array("A", vec![AffineExpr::constant(4)]);
        let b = p.add_array("B", vec![AffineExpr::constant(1)]);
        let empty = |var, lo: i64, hi: i64| {
            Stmt::For(Loop {
                var,
                lo: lo.into(),
                hi: hi.into(),
                step: 1,
                body: vec![],
            })
        };
        p.body.push(empty(i, 0, 3));
        p.body.push(Stmt::For(Loop {
            var: k,
            lo: 0.into(),
            hi: 3.into(),
            step: 1,
            body: vec![empty(l, 0, 0)],
        }));
        p.body.push(empty(j, 5, 2));
        for (arr, idx) in [
            (a, AffineExpr::var(i)),
            (a, AffineExpr::var(i) - AffineExpr::constant(3)),
            (a, AffineExpr::var(k)),
            (a, AffineExpr::var(k) - AffineExpr::constant(3)),
            (b, AffineExpr::var(j)),
        ] {
            p.body.push(Stmt::Store {
                target: ArrayRef::new(arr, vec![idx]),
                value: ScalarExpr::Const(1.0),
            });
        }
        let params = Params::new();
        assert_measure_parity(&p, &params);
        let plan = ExecutablePlan::compile(&p).expect("compile");
        for m in machines() {
            let c = plan
                .measure(&params, &m, &opts())
                .expect("I=3, K=3, J=0 keep every store in bounds");
            assert_eq!(c.stores, 5);
        }
    }

    fn oob_err(r: Result<Counters, ExecError>) -> ExecError {
        r.expect_err("must be out of bounds")
    }

    #[test]
    fn oob_errors_match_reference_in_fused_single_site_loop() {
        let mut p = Program::new("oob1");
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
        let m = MachineDesc::sgi_r10000();
        let plan = ExecutablePlan::compile(&p).expect("compile");
        let got = oob_err(plan.measure(&params, &m, &opts()));
        let want = oob_err(measure_reference(&p, &params, &m, &opts()));
        assert_eq!(got, want);
        assert!(
            matches!(&got, ExecError::OutOfBounds { array, indices, extents }
                if array == "A" && indices == &vec![4] && extents == &vec![4]),
            "{got}"
        );
    }

    #[test]
    fn oob_errors_report_first_failure_in_trace_order() {
        // Site 1 (A[I+3], extent 5) fails first at I=2; site 2
        // (B[I+4], extent 5) fails first at I=1. The reference walker
        // hits B at I=1 before A at I=2; the fused executor must pick
        // the same (iteration, site) pair.
        let mut p = Program::new("oob2");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::constant(5)]);
        let b = p.add_array("B", vec![AffineExpr::constant(5)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: 9.into(),
            step: 1,
            body: vec![
                Stmt::Store {
                    target: ArrayRef::new(a, vec![AffineExpr::var(i) + AffineExpr::constant(3)]),
                    value: ScalarExpr::Const(1.0),
                },
                Stmt::Store {
                    target: ArrayRef::new(b, vec![AffineExpr::var(i) + AffineExpr::constant(4)]),
                    value: ScalarExpr::Const(2.0),
                },
            ],
        }));
        let params = Params::new();
        let m = MachineDesc::sgi_r10000();
        let plan = ExecutablePlan::compile(&p).expect("compile");
        let got = oob_err(plan.measure(&params, &m, &opts()));
        let want = oob_err(measure_reference(&p, &params, &m, &opts()));
        assert_eq!(got, want);
        assert!(
            matches!(&got, ExecError::OutOfBounds { array, indices, .. }
                if array == "B" && indices == &vec![5]),
            "{got}"
        );
    }

    #[test]
    fn oob_errors_match_reference_in_guarded_blocks() {
        // The guard keeps the body out of the fused path, so this
        // exercises the generic Block access machinery.
        let mut p = Program::new("oob3");
        let i = p.add_loop_var("I");
        let a = p.add_array("A", vec![AffineExpr::constant(4)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: 9.into(),
            step: 1,
            body: vec![Stmt::If {
                cond: Cond::le(AffineExpr::constant(0), AffineExpr::var(i)),
                then: vec![Stmt::Store {
                    target: ArrayRef::new(a, vec![AffineExpr::var(i)]),
                    value: ScalarExpr::Const(1.0),
                }],
            }],
        }));
        let params = Params::new();
        let m = MachineDesc::sgi_r10000();
        let plan = ExecutablePlan::compile(&p).expect("compile");
        assert_eq!(
            oob_err(plan.measure(&params, &m, &opts())),
            oob_err(measure_reference(&p, &params, &m, &opts()))
        );
    }

    #[test]
    fn a_plan_is_reusable_across_parameter_points() {
        let k = Kernel::matmul();
        let plan = ExecutablePlan::compile(&k.program).expect("compile");
        let m = MachineDesc::sgi_r10000().scaled(32);
        for n in [4i64, 9, 24] {
            let params = Params::new().with(k.size, n);
            assert_eq!(
                plan.measure(&params, &m, &opts()),
                measure_reference(&k.program, &params, &m, &opts()),
                "N={n}"
            );
        }
    }
}
