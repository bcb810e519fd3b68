//! Lowering IR programs to a compiled execution plan.
//!
//! The tree-walking [`interpret`](crate::interpret) /
//! [`measure_reference`](crate::measure_reference) pair re-derives
//! everything on every visit: each array reference re-evaluates its
//! affine subscripts through boxed-expression recursion and recomputes
//! its column-major flat index from scratch, and each loop iteration
//! re-dispatches on statement enums. For the affine programs this
//! workspace deals in, all of that structure is static: the address of
//! `A[f(i,j)]` is `base + Σ stride_v · v`, and advancing the innermost
//! loop moves every access site by a *constant* byte stride.
//!
//! [`ExecutablePlan::compile`] exploits this by lowering a validated
//! [`Program`] once into a flat bytecode:
//!
//! * control flow becomes explicit [`Inst`]s driven by a program
//!   counter — no recursion, no `Box` chasing;
//! * every straight-line statement run becomes one block of stack
//!   (register-slot) value micro-ops plus an ordered list of access
//!   sites;
//! * an innermost loop whose whole body is straight-line becomes a
//!   *fused loop*: at entry, each site is bound to `(start address,
//!   per-iteration byte stride, valid-iteration interval)`, after which
//!   iterating is pure pointer arithmetic. Every fused loop hands its
//!   whole batch of address streams to
//!   [`MemoryHierarchy::access_streams`], whose exact per-lane stream
//!   walker is described in DESIGN.md §4.
//!
//! The plan is parameter-symbolic: compilation depends only on the
//! program, so the engine memoizes one plan per program and re-binds it
//! to every `(params, layout)` evaluation point for free. Both
//! execution modes — architectural ([`ExecutablePlan::measure`]) and
//! numeric ([`ExecutablePlan::interpret`]) — replay the *exact* access
//! sequence, counter arithmetic, f64 evaluation order, and
//! out-of-bounds behaviour of the reference walkers; the differential
//! tests in this module and in `tests/props.rs` hold them to
//! bit-identical results.

use crate::error::ExecError;
use crate::layout::{ArrayLayout, LayoutOptions, Params, Storage};
use eco_cachesim::{AccessKind, Counters, MemoryHierarchy, StreamSpec};
use eco_ir::{AffineExpr, ArrayId, ArrayRef, Bound, Cond, Program, ScalarExpr, Stmt, VarId};
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

/// A value micro-op. Blocks are compiled to postfix form over a stack
/// of f64 slots (the "registers" of the bytecode); sites are referenced
/// by their absolute index in the plan's site table.
#[derive(Debug, Clone, Copy)]
enum VOp {
    /// Push a literal.
    Const(f64),
    /// Push a scalar temporary.
    Temp(u32),
    /// Push the element at site `0`'s bound address.
    Load(u32),
    /// Pop b, pop a, push a + b.
    Add,
    /// Pop b, pop a, push a - b.
    Sub,
    /// Pop b, pop a, push a * b.
    Mul,
    /// Pop a value into the site's bound address.
    Store(u32),
    /// Pop a value into a scalar temporary.
    SetTemp(u32),
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
    /// A straight-line statement run.
    Block {
        vops: (u32, u32),
        sites: (u32, u32),
        flops: u64,
    },
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
    vops: (u32, u32),
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
    /// Value micro-ops.
    pub vops: usize,
    /// Innermost loops fused into native strided-stream execution
    /// (`Inst::Fused`) — the lowering's main win.
    pub fused_loops: usize,
    /// Guarded straight-line runs inside fused loops.
    pub guarded_runs: usize,
    /// Guard conditions hoisted out of fused loops (each is evaluated
    /// once at loop entry instead of per iteration).
    pub hoisted_guards: usize,
}

/// A program lowered to flat bytecode, ready to execute at any
/// parameter point.
///
/// Compile once per program ([`ExecutablePlan::compile`]), then execute
/// at as many `(params, layout, machine)` points as needed:
/// [`ExecutablePlan::measure`] runs the cache simulation the search
/// consumes, [`ExecutablePlan::interpret`] runs the numeric semantics.
/// Both match the tree-walking reference implementations bit for bit.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    program: Program,
    insts: Vec<Inst>,
    sites: Vec<Site>,
    vops: Vec<VOp>,
    gruns: Vec<GuardedRun>,
    loop_slots: usize,
    max_stack: usize,
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
            vops: c.vops,
            gruns: c.gruns,
            loop_slots: c.loop_slots,
            max_stack: c.max_stack,
        })
    }

    /// The program this plan was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of memory-access sites in the bytecode.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Static lowering statistics for this plan.
    pub fn lowering_stats(&self) -> LoweringStats {
        LoweringStats {
            insts: self.insts.len(),
            sites: self.sites.len(),
            vops: self.vops.len(),
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

    /// Like [`ExecutablePlan::measure_attributed`], plus the retired
    /// simulator telemetry ([`SimStats`], always zero).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutablePlan::measure`].
    pub fn measure_attributed_with_stats(
        &self,
        params: &Params,
        machine: &MachineDesc,
        layout_opts: &LayoutOptions,
    ) -> Result<(Counters, SimStats), ExecError> {
        self.measure_attributed(params, machine, layout_opts)
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
            runs: Vec::new(),
            streams: Vec::new(),
            active_sites: Vec::new(),
        };
        ctx.run()?;
        Ok(ctx.hier.into_counters())
    }

    /// Numerically executes the plan over `storage` — the compiled
    /// equivalent of [`interpret`](crate::interpret). `storage` must
    /// have been created from an [`ArrayLayout`] for the same program
    /// and parameters.
    ///
    /// On an out-of-bounds error the partially-written contents of
    /// `storage` are unspecified (the reference walker stops mid-loop;
    /// the plan stops at the containing block boundary).
    ///
    /// # Errors
    ///
    /// Fails on unbound parameters or out-of-bounds demand accesses,
    /// with payloads identical to the reference interpreter.
    pub fn interpret(
        &self,
        params: &Params,
        layout: &ArrayLayout,
        storage: &mut Storage,
    ) -> Result<(), ExecError> {
        let env = params.env_for(&self.program)?;
        let mut ctx = NumericCtx {
            plan: self,
            dstrides: elem_strides(layout),
            layout,
            env,
            hi_slots: vec![0; self.loop_slots],
            temps: vec![0.0; self.program.temps.len()],
            stack: Vec::with_capacity(self.max_stack),
            storage,
            runs: Vec::new(),
            flats: Vec::new(),
            active_sites: Vec::new(),
            active_runs: Vec::new(),
        };
        ctx.run()
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
    vops: Vec<VOp>,
    gruns: Vec<GuardedRun>,
    loop_slots: usize,
    max_stack: usize,
    depth: usize,
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
                let (vops, sites, flops) = self.leaves(&stmts[start..i]);
                self.insts.push(Inst::Block { vops, sites, flops });
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
                let (vops, sites, flops) = self.leaves(&stmts[start..i]);
                self.gruns.push(GuardedRun {
                    conds: conds.clone(),
                    vops,
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

    /// Compiles a straight-line statement run; returns its vop range,
    /// site range (in trace order), and flop count per execution.
    fn leaves(&mut self, stmts: &[Stmt]) -> ((u32, u32), (u32, u32), u64) {
        let v0 = self.vops.len() as u32;
        let s0 = self.sites.len() as u32;
        let mut flops = 0u64;
        for s in stmts {
            match s {
                Stmt::Store { target, value } => {
                    self.value(value);
                    let sid = self.site(target, AccessKind::Store);
                    self.vops.push(VOp::Store(sid));
                    self.depth -= 1;
                    flops += value.flops();
                }
                Stmt::SetTemp { temp, value } => {
                    self.value(value);
                    self.vops.push(VOp::SetTemp(temp.index() as u32));
                    self.depth -= 1;
                    flops += value.flops();
                }
                Stmt::Prefetch { target } => {
                    self.site(target, AccessKind::Prefetch);
                }
                _ => unreachable!("caller passes only leaves"),
            }
        }
        debug_assert_eq!(self.depth, 0, "statements leave the stack empty");
        (
            (v0, self.vops.len() as u32),
            (s0, self.sites.len() as u32),
            flops,
        )
    }

    fn site(&mut self, r: &ArrayRef, kind: AccessKind) -> u32 {
        self.sites.push(Site {
            array: r.array,
            kind,
            idx: r.idx.clone(),
        });
        (self.sites.len() - 1) as u32
    }

    fn push(&mut self, op: VOp) {
        self.vops.push(op);
        self.depth += 1;
        self.max_stack = self.max_stack.max(self.depth);
    }

    /// Post-order value compilation: operand order is preserved, so the
    /// stack machine reproduces the reference interpreter's f64
    /// evaluation (and load) order exactly.
    fn value(&mut self, e: &ScalarExpr) {
        match e {
            ScalarExpr::Const(c) => self.push(VOp::Const(*c)),
            ScalarExpr::Temp(t) => self.push(VOp::Temp(t.index() as u32)),
            ScalarExpr::Load(r) => {
                let sid = self.site(r, AccessKind::Load);
                self.push(VOp::Load(sid));
            }
            ScalarExpr::Add(a, b) => {
                self.value(a);
                self.value(b);
                self.vops.push(VOp::Add);
                self.depth -= 1;
            }
            ScalarExpr::Sub(a, b) => {
                self.value(a);
                self.value(b);
                self.vops.push(VOp::Sub);
                self.depth -= 1;
            }
            ScalarExpr::Mul(a, b) => {
                self.value(a);
                self.value(b);
                self.vops.push(VOp::Mul);
                self.depth -= 1;
            }
        }
    }
}

/// One site of a fused loop, bound to concrete addresses for one loop
/// entry: `addr` advances by `stride` per iteration, and the access is
/// performed only for iterations `t` in `[vlo, vhi]` (demand sites are
/// pre-checked to cover the whole trip count).
#[derive(Debug, Clone, Copy)]
struct RunSite {
    /// Current address/flat-index (bytes for measurement, elements for
    /// numeric execution). May be out of range outside `[vlo, vhi]`.
    addr: i64,
    /// Per-iteration delta (bytes or elements).
    stride: i64,
    /// First valid 0-based iteration.
    vlo: i64,
    /// Last valid 0-based iteration.
    vhi: i64,
    kind: AccessKind,
    tag: usize,
}

/// Binds the listed sites of a fused loop at entry (`env[var]` must
/// already hold the lower bound). `unit` is 8 for byte addressing
/// (measurement) or 1 for element addressing (numeric execution); the
/// base address is included only for `unit == 8`.
#[allow(clippy::too_many_arguments)]
fn bind_sites(
    plan: &ExecutablePlan,
    layout: &ArrayLayout,
    dstrides: &[Vec<i64>],
    env: &[i64],
    var: usize,
    step: i64,
    trips: i64,
    site_ids: &[u32],
    unit: i64,
    runs: &mut Vec<RunSite>,
) {
    runs.clear();
    for &sid in site_ids {
        let site = &plan.sites[sid as usize];
        let exts = layout.extents(site.array);
        let ds = &dstrides[site.array.index()];
        let mut flat = 0i64;
        let mut stride = 0i64;
        let mut vlo = 0i64;
        let mut vhi = trips - 1;
        for d in 0..exts.len() {
            let a = site.idx[d].eval_slice(env);
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
        let base = if unit == 8 {
            layout.base(site.array) as i64
        } else {
            0
        };
        runs.push(RunSite {
            addr: base + flat * unit,
            stride: stride * unit,
            vlo,
            vhi,
            kind: site.kind,
            tag: site.array.index(),
        });
    }
}

/// The first out-of-bounds demand access of a fused loop in trace
/// order, as `(iteration, site position)`, or `None` if every demand
/// site covers the whole trip count.
fn first_oob(runs: &[RunSite], trips: i64) -> Option<(i64, usize)> {
    let mut bad: Option<(i64, usize)> = None;
    for (pos, r) in runs.iter().enumerate() {
        if matches!(r.kind, AccessKind::Prefetch) {
            continue;
        }
        let t = if r.vlo > 0 {
            0
        } else if r.vhi < trips - 1 {
            r.vhi + 1
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
    /// Reusable fused-loop binding scratch.
    runs: Vec<RunSite>,
    /// Reusable batch scratch handed to the simulator.
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
                Inst::Block { sites, flops, .. } => {
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
        let mut runs = std::mem::take(&mut self.runs);
        bind_sites(
            self.plan,
            self.layout,
            &self.dstrides,
            &self.env,
            var,
            step,
            trips,
            &sids,
            8,
            &mut runs,
        );
        if let Some((t, pos)) = first_oob(&runs, trips) {
            self.env[var] = l + t * step;
            let site = &self.plan.sites[sids[pos] as usize];
            self.active_sites = sids;
            return Err(self.plan.oob(site, &self.env, self.layout));
        }
        self.active_sites = sids;
        if flops > 0 {
            self.hier.add_flops(flops * trips as u64);
        }
        // Hand the whole loop to the simulator as one batch of strided
        // streams: demand sites cover the full trip range (checked
        // above), prefetch sites may be valid only on a sub-interval.
        // The simulator's stream walker is bit-identical to the
        // per-access interleaved walk.
        let mut streams = std::mem::take(&mut self.streams);
        streams.clear();
        streams.extend(
            runs.iter()
                .filter(|r| r.vlo.max(0) <= r.vhi.min(trips - 1))
                .map(|r| StreamSpec {
                    base: r.addr,
                    stride: r.stride,
                    vlo: r.vlo.max(0),
                    vhi: r.vhi.min(trips - 1),
                    kind: r.kind,
                    tag: r.tag as u32,
                }),
        );
        self.hier.access_streams(&streams, trips, self.attribute);
        self.streams = streams;
        self.runs = runs;
        self.env[var] = l + (trips - 1) * step;
        Ok(())
    }
}

/// Numeric executor state.
struct NumericCtx<'a> {
    plan: &'a ExecutablePlan,
    layout: &'a ArrayLayout,
    dstrides: Vec<Vec<i64>>,
    env: Vec<i64>,
    hi_slots: Vec<i64>,
    temps: Vec<f64>,
    stack: Vec<f64>,
    storage: &'a mut Storage,
    runs: Vec<RunSite>,
    /// Per-site flat element indices of the block being executed,
    /// indexed relative to the block's first site.
    flats: Vec<i64>,
    /// Reusable scratch: site ids of the guard-active runs, in order.
    active_sites: Vec<u32>,
    /// Reusable scratch: indices into `plan.gruns` of the active runs.
    active_runs: Vec<u32>,
}

impl NumericCtx<'_> {
    fn run(&mut self) -> Result<(), ExecError> {
        let insts = &self.plan.insts;
        let mut pc = 0;
        while pc < insts.len() {
            match &insts[pc] {
                Inst::Loop {
                    var,
                    lo,
                    hi,
                    step: _,
                    slot,
                    exit,
                } => {
                    let l = lo.eval_slice(&self.env);
                    let h = hi.eval_slice(&self.env);
                    if h < l {
                        pc = *exit;
                        continue;
                    }
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
                Inst::Block { vops, sites, .. } => {
                    self.block(*vops, *sites)?;
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

    fn block(&mut self, vops: (u32, u32), sites: (u32, u32)) -> Result<(), ExecError> {
        let mut flats = std::mem::take(&mut self.flats);
        flats.clear();
        for sid in sites.0..sites.1 {
            let site = &self.plan.sites[sid as usize];
            if matches!(site.kind, AccessKind::Prefetch) {
                // no numeric effect; never evaluated, never checked
                flats.push(0);
                continue;
            }
            let exts = self.layout.extents(site.array);
            let mut flat = 0i64;
            for d in (0..exts.len()).rev() {
                let v = site.idx[d].eval_slice(&self.env);
                if v < 0 || v >= exts[d] {
                    self.flats = flats;
                    return Err(self.plan.oob(site, &self.env, self.layout));
                }
                flat = flat * exts[d] + v;
            }
            flats.push(flat);
        }
        self.exec_vops(vops, &flats, sites.0);
        self.flats = flats;
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
        self.env[var] = l;
        // Guards are invariant in `var`: decide each run once at entry.
        let mut sids = std::mem::take(&mut self.active_sites);
        let mut active = std::mem::take(&mut self.active_runs);
        sids.clear();
        active.clear();
        for ri in rrange.0..rrange.1 {
            let g = &self.plan.gruns[ri as usize];
            if g.conds.iter().all(|c| c.eval_slice(&self.env)) {
                sids.extend(g.sites.0..g.sites.1);
                active.push(ri);
            }
        }
        let mut runs = std::mem::take(&mut self.runs);
        bind_sites(
            self.plan,
            self.layout,
            &self.dstrides,
            &self.env,
            var,
            step,
            trips,
            &sids,
            1,
            &mut runs,
        );
        if let Some((t, pos)) = first_oob(&runs, trips) {
            self.env[var] = l + t * step;
            let site = &self.plan.sites[sids[pos] as usize];
            let err = self.plan.oob(site, &self.env, self.layout);
            self.active_sites = sids;
            self.active_runs = active;
            self.runs = runs;
            return Err(err);
        }
        self.active_sites = sids;
        let mut flats = std::mem::take(&mut self.flats);
        flats.clear();
        flats.extend(runs.iter().map(|r| r.addr));
        let plan = self.plan;
        for _ in 0..trips {
            let mut off = 0usize;
            for &ri in &active {
                let g = &plan.gruns[ri as usize];
                let n = (g.sites.1 - g.sites.0) as usize;
                self.exec_vops(g.vops, &flats[off..off + n], g.sites.0);
                off += n;
            }
            for (f, r) in flats.iter_mut().zip(&runs) {
                *f += r.stride;
            }
        }
        self.flats = flats;
        self.runs = runs;
        self.active_runs = active;
        self.env[var] = l + (trips - 1) * step;
        Ok(())
    }

    /// Runs a block's value micro-ops; `flats[sid - base]` holds each
    /// site's flat element index. Pure IEEE f64 stack evaluation — the
    /// op order is the reference interpreter's evaluation order, so
    /// results are bit-identical.
    fn exec_vops(&mut self, vops: (u32, u32), flats: &[i64], base: u32) {
        for op in &self.plan.vops[vops.0 as usize..vops.1 as usize] {
            match *op {
                VOp::Const(c) => self.stack.push(c),
                VOp::Temp(t) => self.stack.push(self.temps[t as usize]),
                VOp::Load(sid) => {
                    let site = &self.plan.sites[sid as usize];
                    let flat = flats[(sid - base) as usize] as usize;
                    self.stack.push(self.storage.array(site.array)[flat]);
                }
                VOp::Add => {
                    let b = self.stack.pop().expect("operand");
                    let a = self.stack.pop().expect("operand");
                    self.stack.push(a + b);
                }
                VOp::Sub => {
                    let b = self.stack.pop().expect("operand");
                    let a = self.stack.pop().expect("operand");
                    self.stack.push(a - b);
                }
                VOp::Mul => {
                    let b = self.stack.pop().expect("operand");
                    let a = self.stack.pop().expect("operand");
                    self.stack.push(a * b);
                }
                VOp::Store(sid) => {
                    let v = self.stack.pop().expect("value");
                    let site = &self.plan.sites[sid as usize];
                    let flat = flats[(sid - base) as usize] as usize;
                    self.storage.array_mut(site.array)[flat] = v;
                }
                VOp::SetTemp(t) => {
                    let v = self.stack.pop().expect("value");
                    self.temps[t as usize] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{interpret, measure_attributed_reference, measure_reference};
    use eco_ir::{ArrayRef, Cond, Loop, Stmt};
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

    /// Compiled and reference numeric execution must agree bit for bit
    /// on every array.
    fn assert_numeric_parity(program: &Program, params: &Params) {
        let layout = ArrayLayout::new(program, params, &opts()).expect("layout");
        let mut ref_st = Storage::seeded(&layout, 99);
        let mut plan_st = Storage::seeded(&layout, 99);
        let r1 = interpret(program, params, &layout, &mut ref_st);
        let plan = ExecutablePlan::compile(program).expect("compile");
        let r2 = plan.interpret(params, &layout, &mut plan_st);
        assert_eq!(r1, r2, "{}", program.name);
        if r1.is_err() {
            return; // storage contents are unspecified after an error
        }
        for a in 0..layout.num_arrays() {
            let id = ArrayId(a as u32);
            let (x, y) = (ref_st.array(id), plan_st.array(id));
            assert_eq!(x.len(), y.len());
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{} array {a} elem {i}: {u} vs {v}",
                    program.name
                );
            }
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

    #[test]
    fn all_kernels_match_reference_numerics_bitwise() {
        for k in Kernel::all() {
            let params = Params::new().with(k.size, 13);
            assert_numeric_parity(&k.program, &params);
        }
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
        assert_numeric_parity(&p, &params);
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
            assert_numeric_parity(&p, &params);
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
        assert_numeric_parity(&p, &params);
    }

    #[test]
    fn loop_variable_values_persist_like_the_reference() {
        // After `DO I = 0,3 {}` the reference leaves I at its last
        // executed value (3); a zero-trip loop leaves J untouched (0).
        // Both are observable through the following stores.
        let mut p = Program::new("env");
        let i = p.add_loop_var("I");
        let j = p.add_loop_var("J");
        let a = p.add_array("A", vec![AffineExpr::constant(8)]);
        p.body.push(Stmt::For(Loop {
            var: i,
            lo: 0.into(),
            hi: 3.into(),
            step: 1,
            body: vec![],
        }));
        p.body.push(Stmt::For(Loop {
            var: j,
            lo: 5.into(),
            hi: 2.into(),
            step: 1,
            body: vec![],
        }));
        p.body.push(Stmt::Store {
            target: ArrayRef::new(a, vec![AffineExpr::var(i) + AffineExpr::var(j)]),
            value: ScalarExpr::Const(1.0),
        });
        let params = Params::new();
        assert_measure_parity(&p, &params);
        assert_numeric_parity(&p, &params);
        // And pin the absolute semantics: I=3, J=0 => A[3] was written.
        let layout = ArrayLayout::new(&p, &params, &opts()).expect("layout");
        let mut st = Storage::zeroed(&layout);
        let plan = ExecutablePlan::compile(&p).expect("compile");
        plan.interpret(&params, &layout, &mut st).expect("run");
        let a_id = p.array_by_name("A").expect("A");
        assert_eq!(st.array(a_id)[3], 1.0);
        assert_eq!(st.array(a_id).iter().filter(|&&x| x != 0.0).count(), 1);
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
        // The numeric executors agree on the error too.
        let layout = ArrayLayout::new(&p, &params, &opts()).expect("layout");
        let e1 = interpret(&p, &params, &layout, &mut Storage::zeroed(&layout)).expect_err("oob");
        let e2 = plan
            .interpret(&params, &layout, &mut Storage::zeroed(&layout))
            .expect_err("oob");
        assert_eq!(e1, e2);
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
