//! Fortran-flavoured pretty-printing of IR programs.
//!
//! The output mirrors the style of the paper's Figures 1 and 2:
//!
//! ```text
//! PROGRAM mm
//!   PARAM N
//!   REAL A[N,N], B[N,N], C[N,N]
//!   DO K = 0, N-1
//!     DO J = 0, N-1
//!       DO I = 0, N-1
//!         C[I,J] = C[I,J] + A[I,K]*B[K,J]
//! ```

use crate::expr::{AffineExpr, Bound};
use crate::program::{ArrayKind, ArrayRef, Program, ScalarExpr, Stmt};
use std::fmt::{self, Write};

/// Renders an affine expression using the program's variable names.
pub fn affine_to_string(p: &Program, e: &AffineExpr) -> String {
    render(|out| write_affine(out, p, e))
}

/// Renders a bound, using `min(...)`/`max(...)` where needed.
pub fn bound_to_string(p: &Program, b: &Bound) -> String {
    render(|out| write_bound(out, p, b))
}

/// Renders an array reference `A[i,j]`.
pub fn ref_to_string(p: &Program, r: &ArrayRef) -> String {
    render(|out| write_ref(out, p, r))
}

/// Renders a whole program in the paper's pseudo-Fortran style.
pub fn program_to_string(p: &Program) -> String {
    render(|out| write_program(out, p))
}

/// Runs a writer against a fresh `String`.
fn render(f: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    f(&mut out).expect("writing to a String cannot fail");
    out
}

/// Writes an affine expression: `2*I + J - 1`.
fn write_affine(out: &mut dyn Write, p: &Program, e: &AffineExpr) -> fmt::Result {
    let mut first = true;
    for &(v, c) in e.terms() {
        let name = &p.var(v).name;
        if first {
            match c {
                1 => out.write_str(name)?,
                -1 => write!(out, "-{name}")?,
                _ => write!(out, "{c}*{name}")?,
            }
            first = false;
        } else {
            let (sign, mag) = if c < 0 { ('-', -c) } else { ('+', c) };
            if mag == 1 {
                write!(out, " {sign} {name}")?;
            } else {
                write!(out, " {sign} {mag}*{name}")?;
            }
        }
    }
    let c0 = e.constant_part();
    if first {
        write!(out, "{c0}")
    } else if c0 > 0 {
        write!(out, " + {c0}")
    } else if c0 < 0 {
        write!(out, " - {}", -c0)
    } else {
        Ok(())
    }
}

/// Writes `items` separated by `sep`.
fn write_list<T>(
    out: &mut dyn Write,
    items: &[T],
    sep: &str,
    mut item: impl FnMut(&mut dyn Write, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(sep)?;
        }
        item(out, x)?;
    }
    Ok(())
}

/// Writes a bound, using `min(...)`/`max(...)` where needed.
fn write_bound(out: &mut dyn Write, p: &Program, b: &Bound) -> fmt::Result {
    let (kw, es) = match b {
        Bound::Affine(e) => return write_affine(out, p, e),
        Bound::Min(es) => ("min(", es),
        Bound::Max(es) => ("max(", es),
    };
    out.write_str(kw)?;
    write_list(out, es, ", ", |out, e| write_affine(out, p, e))?;
    out.write_char(')')
}

/// Writes an array reference `A[i,j]`.
fn write_ref(out: &mut dyn Write, p: &Program, r: &ArrayRef) -> fmt::Result {
    out.write_str(&p.array(r.array).name)?;
    out.write_char('[')?;
    write_list(out, &r.idx, ",", |out, e| write_affine(out, p, e))?;
    out.write_char(']')
}

/// Writes a scalar expression, parenthesized if it binds more loosely
/// than its context (`parent_prec`).
fn write_scalar(out: &mut dyn Write, p: &Program, e: &ScalarExpr, parent_prec: u8) -> fmt::Result {
    let prec = match e {
        ScalarExpr::Const(_) | ScalarExpr::Load(_) | ScalarExpr::Temp(_) => 3,
        ScalarExpr::Add(..) | ScalarExpr::Sub(..) => 1,
        ScalarExpr::Mul(..) => 2,
    };
    let paren = prec < parent_prec;
    if paren {
        out.write_char('(')?;
    }
    match e {
        ScalarExpr::Const(c) => write!(out, "{c}")?,
        ScalarExpr::Load(r) => write_ref(out, p, r)?,
        ScalarExpr::Temp(t) => out.write_str(&p.temps[t.index()])?,
        ScalarExpr::Add(a, b) => {
            write_scalar(out, p, a, 1)?;
            out.write_str(" + ")?;
            write_scalar(out, p, b, 1)?;
        }
        ScalarExpr::Sub(a, b) => {
            write_scalar(out, p, a, 1)?;
            out.write_str(" - ")?;
            write_scalar(out, p, b, 2)?;
        }
        ScalarExpr::Mul(a, b) => {
            write_scalar(out, p, a, 2)?;
            out.write_char('*')?;
            write_scalar(out, p, b, 2)?;
        }
    }
    if paren {
        out.write_char(')')?;
    }
    Ok(())
}

fn write_stmts(out: &mut dyn Write, p: &Program, stmts: &[Stmt], indent: usize) -> fmt::Result {
    for s in stmts {
        for _ in 0..indent {
            out.write_str("  ")?;
        }
        match s {
            Stmt::For(l) => {
                write!(out, "DO {} = ", p.var(l.var).name)?;
                write_bound(out, p, &l.lo)?;
                out.write_str(", ")?;
                write_bound(out, p, &l.hi)?;
                if l.step != 1 {
                    write!(out, ", {}", l.step)?;
                }
                out.write_char('\n')?;
                write_stmts(out, p, &l.body, indent + 1)?;
            }
            Stmt::If { cond, then } => {
                out.write_str("IF (")?;
                write_affine(out, p, &cond.lhs)?;
                out.write_str(" <= ")?;
                write_bound(out, p, &cond.rhs)?;
                out.write_str(") THEN\n")?;
                write_stmts(out, p, then, indent + 1)?;
            }
            Stmt::Store { target, value } => {
                write_ref(out, p, target)?;
                out.write_str(" = ")?;
                write_scalar(out, p, value, 0)?;
                out.write_char('\n')?;
            }
            Stmt::SetTemp { temp, value } => {
                out.write_str(&p.temps[temp.index()])?;
                out.write_str(" = ")?;
                write_scalar(out, p, value, 0)?;
                out.write_char('\n')?;
            }
            Stmt::Prefetch { target } => {
                out.write_str("PREFETCH ")?;
                write_ref(out, p, target)?;
                out.write_char('\n')?;
            }
        }
    }
    Ok(())
}

/// Writes a whole program in the paper's pseudo-Fortran style: the
/// bytes of [`program_to_string`], into any [`fmt::Write`] sink (a
/// hasher, for instance, to fingerprint a program without building the
/// text).
pub fn write_program(out: &mut dyn Write, p: &Program) -> fmt::Result {
    writeln!(out, "PROGRAM {}", p.name)?;
    let mut params = p.params().peekable();
    if params.peek().is_some() {
        out.write_str("  PARAM ")?;
        for (i, v) in params.enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            out.write_str(&p.var(v).name)?;
        }
        out.write_char('\n')?;
    }
    for a in &p.arrays {
        let kw = match a.kind {
            ArrayKind::Data => "REAL",
            ArrayKind::CopyBuffer => "NEW",
        };
        write!(out, "  {kw} {}[", a.name)?;
        write_list(out, &a.dims, ",", |out, e| write_affine(out, p, e))?;
        out.write_str("]\n")?;
    }
    write_stmts(out, p, &p.body, 1)
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_program(f, self)
    }
}
