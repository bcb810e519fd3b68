//! The tree-walking reference executor.
//!
//! One walker executes a program straight off the IR tree, in either or
//! both of two roles:
//!
//! * **numeric** ([`interpret`]) — evaluates every expression over real
//!   `f64` [`Storage`]. Every transformation in `eco-transform` is
//!   checked by interpreting the original and the transformed program
//!   on identical inputs and comparing the outputs;
//! * **architectural** ([`measure_reference`]) — feeds every memory
//!   access to the cache simulator, producing the PAPI-like counters the
//!   paper's empirical search consumes. Scalar temporaries model
//!   registers and generate no memory traffic.
//!
//! Production runs the compiled [`ExecutablePlan`](crate::ExecutablePlan);
//! this walker is the semantic oracle the differential tests hold it
//! against, bit for bit.

use crate::error::ExecError;
use crate::layout::{ArrayLayout, LayoutOptions, Params, Storage};
use eco_cachesim::{AccessKind, Counters, MemoryHierarchy};
use eco_ir::{ArrayRef, Program, ScalarExpr, Stmt, VarId};
use eco_machine::MachineDesc;

/// Numeric state: scalar temporaries and array contents.
struct Numeric<'a> {
    temps: Vec<f64>,
    storage: &'a mut Storage,
}

struct Walker<'a> {
    program: &'a Program,
    layout: &'a ArrayLayout,
    env: Vec<i64>,
    /// Present when interpreting; expressions evaluate to `0.0` without it.
    numeric: Option<Numeric<'a>>,
    /// Present when measuring.
    hier: Option<MemoryHierarchy>,
    /// Attribute misses per array id (slower; used by the analysis
    /// tooling, not the search).
    attribute: bool,
}

impl Walker<'_> {
    fn simulate(&mut self, r: &ArrayRef, addr: u64, kind: AccessKind) {
        if let Some(hier) = &mut self.hier {
            if self.attribute {
                hier.access_tagged(addr, kind, r.array.index());
            } else {
                hier.access(addr, kind);
            }
        }
    }

    /// A demand load or store: simulates it and returns its flat index.
    fn demand(&mut self, r: &ArrayRef, kind: AccessKind) -> Result<usize, ExecError> {
        let flat = self
            .layout
            .flat_index(r, &self.env)
            .ok_or_else(|| self.oob(r))?;
        self.simulate(r, self.layout.base(r.array) + flat as u64 * 8, kind);
        Ok(flat)
    }

    fn oob(&self, r: &ArrayRef) -> ExecError {
        ExecError::OutOfBounds {
            array: self.program.array(r.array).name.clone(),
            indices: r
                .idx
                .iter()
                .map(|e| e.eval(&|v: VarId| self.env[v.index()]))
                .collect(),
            extents: self.layout.extents(r.array).to_vec(),
        }
    }

    fn eval(&mut self, e: &ScalarExpr) -> Result<f64, ExecError> {
        match e {
            ScalarExpr::Const(c) => Ok(*c),
            ScalarExpr::Temp(t) => Ok(self.numeric.as_ref().map_or(0.0, |n| n.temps[t.index()])),
            ScalarExpr::Load(r) => {
                let flat = self.demand(r, AccessKind::Load)?;
                Ok(self
                    .numeric
                    .as_ref()
                    .map_or(0.0, |n| n.storage.array(r.array)[flat]))
            }
            ScalarExpr::Add(a, b) => Ok(self.eval(a)? + self.eval(b)?),
            ScalarExpr::Sub(a, b) => Ok(self.eval(a)? - self.eval(b)?),
            ScalarExpr::Mul(a, b) => Ok(self.eval(a)? * self.eval(b)?),
        }
    }

    fn eval_counted(&mut self, e: &ScalarExpr) -> Result<f64, ExecError> {
        let val = self.eval(e)?;
        if let Some(hier) = &mut self.hier {
            hier.add_flops(e.flops());
        }
        Ok(val)
    }

    fn run(&mut self, stmts: &[Stmt]) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                Stmt::For(l) => {
                    let lookup = |v: VarId| self.env[v.index()];
                    let lo = l.lo.eval(&lookup);
                    let hi = l.hi.eval(&lookup);
                    if let Some(hier) = self.hier.as_mut().filter(|_| hi >= lo) {
                        hier.add_loop_iterations(((hi - lo) / l.step + 1) as u64);
                    }
                    let mut i = lo;
                    while i <= hi {
                        self.env[l.var.index()] = i;
                        self.run(&l.body)?;
                        i += l.step;
                    }
                }
                Stmt::If { cond, then } => {
                    if cond.eval(&|v: VarId| self.env[v.index()]) {
                        self.run(then)?;
                    }
                }
                Stmt::Store { target, value } => {
                    let val = self.eval_counted(value)?;
                    let flat = self.demand(target, AccessKind::Store)?;
                    if let Some(n) = &mut self.numeric {
                        n.storage.array_mut(target.array)[flat] = val;
                    }
                }
                Stmt::SetTemp { temp, value } => {
                    let val = self.eval_counted(value)?;
                    if let Some(n) = &mut self.numeric {
                        n.temps[temp.index()] = val;
                    }
                }
                // Out-of-bounds prefetches are legal no-ops (the paper's
                // prefetch code runs past tile edges); demand accesses
                // are not. Prefetches have no numeric effect.
                Stmt::Prefetch { target } => {
                    if let Some(addr) = self.layout.address(target, &self.env) {
                        self.simulate(target, addr, AccessKind::Prefetch);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs a validated `program` over `layout`, numerically when `storage`
/// is given and through a fresh cache model of `machine` when one is.
fn walk(
    program: &Program,
    params: &Params,
    layout: &ArrayLayout,
    storage: Option<&mut Storage>,
    machine: Option<&MachineDesc>,
    attribute: bool,
) -> Result<Option<Counters>, ExecError> {
    let mut walker = Walker {
        program,
        layout,
        env: params.env_for(program)?,
        numeric: storage.map(|storage| Numeric {
            temps: vec![0.0; program.temps.len()],
            storage,
        }),
        hier: machine.map(MemoryHierarchy::new),
        attribute,
    };
    walker.run(&program.body)?;
    Ok(walker.hier.map(MemoryHierarchy::into_counters))
}

/// Interprets `program` over `storage` with the given parameter values.
///
/// `storage` must have been created from an [`ArrayLayout`] for the same
/// program and parameters.
///
/// # Errors
///
/// Fails on unbound parameters, validation errors, or out-of-bounds
/// loads/stores (out-of-bounds prefetches are ignored).
pub fn interpret(
    program: &Program,
    params: &Params,
    layout: &ArrayLayout,
    storage: &mut Storage,
) -> Result<(), ExecError> {
    program.validate().map_err(ExecError::Invalid)?;
    walk(program, params, layout, Some(storage), None, false).map(drop)
}

/// Simulates `program` on `machine` with the tree-walking reference
/// executor and returns the measured counters.
///
/// The compiled [`measure`](crate::measure) is the production path;
/// this walker is the differential oracle it is tested against.
///
/// # Errors
///
/// Fails on unbound parameters, validation errors, or out-of-bounds
/// demand accesses.
pub fn measure_reference(
    program: &Program,
    params: &Params,
    machine: &MachineDesc,
    layout_opts: &LayoutOptions,
) -> Result<Counters, ExecError> {
    run_measurement(program, params, machine, layout_opts, false)
}

/// Like [`measure_reference`], but additionally attributes demand
/// misses to each array: `counters.per_tag[i]` corresponds to array id
/// `i`.
///
/// # Errors
///
/// Same conditions as [`measure_reference`].
pub fn measure_attributed_reference(
    program: &Program,
    params: &Params,
    machine: &MachineDesc,
    layout_opts: &LayoutOptions,
) -> Result<Counters, ExecError> {
    run_measurement(program, params, machine, layout_opts, true)
}

fn run_measurement(
    program: &Program,
    params: &Params,
    machine: &MachineDesc,
    layout_opts: &LayoutOptions,
    attribute: bool,
) -> Result<Counters, ExecError> {
    program.validate().map_err(ExecError::Invalid)?;
    let layout = ArrayLayout::new(program, params, layout_opts)?;
    let counters = walk(program, params, &layout, None, Some(machine), attribute)?;
    Ok(counters.expect("a machine was given"))
}
