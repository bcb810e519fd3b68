//! Affine integer expressions over loop variables and symbolic parameters.
//!
//! Every subscript, loop bound and prefetch target in the IR is an
//! [`AffineExpr`]: an integer constant plus a sum of `coefficient * var`
//! terms. Loop upper bounds produced by tiling additionally need
//! `min(...)` forms, which [`Bound`] provides.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Identifier of an integer variable (loop index or symbolic parameter).
///
/// `VarId`s index into [`crate::Program::vars`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The index of this variable in its program's variable table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An affine integer expression: `c0 + sum(ci * vi)`.
///
/// Canonical form: terms are kept sorted by variable and free of zero
/// coefficients, so structural equality coincides with mathematical
/// equality. Every constructor and operator preserves it; `Eq`, `Ord`,
/// `Hash` and the printer rely on it.
///
/// # Examples
///
/// ```
/// use eco_ir::{AffineExpr, VarId};
/// let i = VarId(0);
/// let e = AffineExpr::var(i) * 2 + AffineExpr::constant(3);
/// assert_eq!(e.coeff(i), 2);
/// assert_eq!(e.eval(&|_| 5), 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AffineExpr {
    constant: i64,
    /// Sorted `(var, coeff)` pairs with nonzero coefficients.
    terms: Terms,
}

/// Up to this many terms are stored in place. The search builds and
/// clones expressions for every point, and in the benchmark's
/// tune-warm workload every term list has at most two terms, so they
/// skip the allocator.
const INLINE: usize = 2;

/// A term list: in place when it has at most [`INLINE`] terms, else an
/// exactly sized `Vec` (one representation per length). Comparison,
/// hashing and `Debug` see only the terms, as a slice, so they agree
/// with a plain `Vec` of the same terms.
#[derive(Clone)]
enum Terms {
    Inline(u8, [(VarId, i64); INLINE]),
    Heap(Vec<(VarId, i64)>),
}

impl Terms {
    /// The `len` terms `terms` yields.
    fn exact(len: usize, terms: impl Iterator<Item = (VarId, i64)>) -> Terms {
        if len > INLINE {
            let mut v = Vec::with_capacity(len);
            v.extend(terms);
            return Terms::Heap(v);
        }
        let mut buf = [(VarId(0), 0); INLINE];
        let mut n = 0;
        for t in terms {
            buf[n] = t;
            n += 1;
        }
        Terms::Inline(n as u8, buf)
    }

    fn as_slice(&self) -> &[(VarId, i64)] {
        match self {
            Terms::Inline(n, buf) => &buf[..usize::from(*n)],
            Terms::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(VarId, i64)] {
        match self {
            Terms::Inline(n, buf) => &mut buf[..usize::from(*n)],
            Terms::Heap(v) => v,
        }
    }
}

impl Default for Terms {
    fn default() -> Self {
        Terms::exact(0, std::iter::empty())
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Terms {}

impl PartialOrd for Terms {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Terms {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Terms {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            constant: c,
            terms: Terms::default(),
        }
    }

    /// The expression `v`.
    pub fn var(v: VarId) -> Self {
        AffineExpr {
            constant: 0,
            terms: Terms::exact(1, std::iter::once((v, 1))),
        }
    }

    /// Builds `c0 + sum(ci * vi)` from parts.
    pub fn new(constant: i64, terms: impl IntoIterator<Item = (VarId, i64)>) -> Self {
        let mut terms: Vec<(VarId, i64)> = terms.into_iter().collect();
        // A stable sort keeps a variable's coefficients in input order.
        terms.sort_by_key(|&(v, _)| v);
        terms.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        terms.retain(|&(_, c)| c != 0);
        AffineExpr {
            constant,
            terms: Terms::exact(terms.len(), terms.into_iter()),
        }
    }

    /// The constant part `c0`.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        let terms = self.terms();
        terms
            .binary_search_by_key(&v, |&(w, _)| w)
            .map(|i| terms[i].1)
            .unwrap_or(0)
    }

    /// The `(var, coeff)` terms, sorted by variable.
    pub fn terms(&self) -> &[(VarId, i64)] {
        self.terms.as_slice()
    }

    /// True if the expression has no variable terms.
    pub fn is_const(&self) -> bool {
        self.terms().is_empty()
    }

    /// Returns `Some(c)` if the expression is the constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        self.is_const().then_some(self.constant)
    }

    /// True if `v` appears with a nonzero coefficient.
    pub fn uses(&self, v: VarId) -> bool {
        self.coeff(v) != 0
    }

    /// The set of variables appearing in the expression.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms().iter().map(|&(v, _)| v)
    }

    /// Evaluates under an environment mapping variables to values.
    pub fn eval(&self, env: &impl Fn(VarId) -> i64) -> i64 {
        self.constant + self.terms().iter().map(|&(v, c)| c * env(v)).sum::<i64>()
    }

    /// Evaluates under a dense environment indexed by [`VarId::index`].
    /// Same result as [`AffineExpr::eval`] but without closure dispatch
    /// — this is the form the compiled execution plan uses on its hot
    /// paths.
    #[inline]
    pub fn eval_slice(&self, env: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(v, c) in self.terms() {
            acc += c * env[v.index()];
        }
        acc
    }

    /// Substitutes `replacement` for `v`, i.e. computes
    /// `self[v := replacement]`.
    ///
    /// ```
    /// use eco_ir::{AffineExpr, VarId};
    /// let (i, ii) = (VarId(0), VarId(1));
    /// // i + 1 with i := ii + 4  ==>  ii + 5
    /// let e = AffineExpr::var(i) + AffineExpr::constant(1);
    /// let r = e.subst(i, &(AffineExpr::var(ii) + AffineExpr::constant(4)));
    /// assert_eq!(r, AffineExpr::var(ii) + AffineExpr::constant(5));
    /// ```
    pub fn subst(&self, v: VarId, replacement: &AffineExpr) -> AffineExpr {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let rest = self.terms().iter().copied().filter(|&(w, _)| w != v);
        let scaled = replacement.terms().iter().map(|&(w, d)| (w, d * c));
        AffineExpr {
            constant: self.constant + replacement.constant * c,
            terms: merge(rest, scaled),
        }
    }

    /// Adds `delta` to the constant part.
    pub fn shifted(&self, delta: i64) -> AffineExpr {
        let mut e = self.clone();
        e.constant += delta;
        e
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(self, rhs: AffineExpr) -> AffineExpr {
        let constant = self.constant + rhs.constant;
        let terms = if rhs.is_const() {
            self.terms
        } else if self.is_const() {
            rhs.terms
        } else {
            merge(self.terms().iter().copied(), rhs.terms().iter().copied())
        };
        AffineExpr { constant, terms }
    }
}

/// Sums two sorted, zero-free term lists into one sorted, zero-free
/// list: a linear merge. A counting pass sizes the result exactly, so
/// expressions kept in long-lived programs carry no spare capacity.
fn merge(
    a: impl Iterator<Item = (VarId, i64)> + Clone,
    b: impl Iterator<Item = (VarId, i64)> + Clone,
) -> Terms {
    Terms::exact(merged(a.clone(), b.clone()).count(), merged(a, b))
}

/// The nonzero terms of the sum of two sorted term lists, in variable
/// order.
fn merged(
    a: impl Iterator<Item = (VarId, i64)>,
    b: impl Iterator<Item = (VarId, i64)>,
) -> impl Iterator<Item = (VarId, i64)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || loop {
        let (v, c) = match (a.peek(), b.peek()) {
            (Some(&(va, ca)), Some(&(vb, cb))) if va == vb => {
                a.next();
                b.next();
                (va, ca + cb)
            }
            (Some(&(va, _)), Some(&(vb, _))) if vb < va => b.next()?,
            (Some(_), _) => a.next()?,
            (None, Some(_)) => b.next()?,
            (None, None) => return None,
        };
        if c != 0 {
            return Some((v, c));
        }
    })
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(self) -> AffineExpr {
        self * -1
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(mut self, k: i64) -> AffineExpr {
        if k == 0 {
            return AffineExpr::constant(0);
        }
        self.constant *= k;
        for (_, c) in self.terms.as_mut_slice() {
            *c *= k;
        }
        self
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl From<VarId> for AffineExpr {
    fn from(v: VarId) -> Self {
        AffineExpr::var(v)
    }
}

/// A loop bound: a single affine expression, or the min/max of several
/// (tiled loops have `min(JJ + TJ - 1, N - 1)` upper bounds).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Bound {
    /// A plain affine bound.
    Affine(AffineExpr),
    /// `min` of the alternatives (used for upper bounds of tile tails).
    Min(Vec<AffineExpr>),
    /// `max` of the alternatives (used for lower bounds, if ever needed).
    Max(Vec<AffineExpr>),
}

impl Bound {
    /// A constant bound.
    pub fn constant(c: i64) -> Self {
        Bound::Affine(AffineExpr::constant(c))
    }

    /// A single-variable bound.
    pub fn var(v: VarId) -> Self {
        Bound::Affine(AffineExpr::var(v))
    }

    /// `min` of the given expressions; collapses to `Affine` for one.
    /// Duplicates are dropped; insertion order is otherwise preserved.
    pub fn min_of(exprs: Vec<AffineExpr>) -> Self {
        let mut seen: Vec<AffineExpr> = Vec::new();
        for e in exprs {
            if !seen.contains(&e) {
                seen.push(e);
            }
        }
        let mut exprs = seen;
        if exprs.len() == 1 {
            Bound::Affine(exprs.pop().expect("one element"))
        } else {
            Bound::Min(exprs)
        }
    }

    /// Evaluates the bound under `env`.
    ///
    /// # Panics
    ///
    /// Panics if a `Min`/`Max` bound has no alternatives.
    pub fn eval(&self, env: &impl Fn(VarId) -> i64) -> i64 {
        match self {
            Bound::Affine(e) => e.eval(env),
            Bound::Min(es) => es.iter().map(|e| e.eval(env)).min().expect("nonempty min"),
            Bound::Max(es) => es.iter().map(|e| e.eval(env)).max().expect("nonempty max"),
        }
    }

    /// Evaluates the bound under a dense environment indexed by
    /// [`VarId::index`] (see [`AffineExpr::eval_slice`]).
    ///
    /// # Panics
    ///
    /// Panics if a `Min`/`Max` bound has no alternatives.
    #[inline]
    pub fn eval_slice(&self, env: &[i64]) -> i64 {
        match self {
            Bound::Affine(e) => e.eval_slice(env),
            Bound::Min(es) => es
                .iter()
                .map(|e| e.eval_slice(env))
                .min()
                .expect("nonempty min"),
            Bound::Max(es) => es
                .iter()
                .map(|e| e.eval_slice(env))
                .max()
                .expect("nonempty max"),
        }
    }

    /// Substitutes `replacement` for `v` in every alternative.
    pub fn subst(&self, v: VarId, replacement: &AffineExpr) -> Bound {
        match self {
            Bound::Affine(e) => Bound::Affine(e.subst(v, replacement)),
            Bound::Min(es) => Bound::Min(es.iter().map(|e| e.subst(v, replacement)).collect()),
            Bound::Max(es) => Bound::Max(es.iter().map(|e| e.subst(v, replacement)).collect()),
        }
    }

    /// Adds `delta` to every alternative.
    pub fn shifted(&self, delta: i64) -> Bound {
        match self {
            Bound::Affine(e) => Bound::Affine(e.shifted(delta)),
            Bound::Min(es) => Bound::Min(es.iter().map(|e| e.shifted(delta)).collect()),
            Bound::Max(es) => Bound::Max(es.iter().map(|e| e.shifted(delta)).collect()),
        }
    }

    /// The affine expression if the bound is a plain one.
    pub fn as_affine(&self) -> Option<&AffineExpr> {
        match self {
            Bound::Affine(e) => Some(e),
            _ => None,
        }
    }

    /// All affine alternatives of the bound.
    pub fn alternatives(&self) -> &[AffineExpr] {
        match self {
            Bound::Affine(e) => std::slice::from_ref(e),
            Bound::Min(es) | Bound::Max(es) => es,
        }
    }

    /// True if `v` appears anywhere in the bound.
    pub fn uses(&self, v: VarId) -> bool {
        self.alternatives().iter().any(|e| e.uses(v))
    }
}

impl From<AffineExpr> for Bound {
    fn from(e: AffineExpr) -> Self {
        Bound::Affine(e)
    }
}

impl From<i64> for Bound {
    fn from(c: i64) -> Self {
        Bound::constant(c)
    }
}

impl From<VarId> for Bound {
    fn from(v: VarId) -> Self {
        Bound::var(v)
    }
}

/// A guard condition `lhs <= rhs` used by unroll cleanup code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Left-hand side.
    pub lhs: AffineExpr,
    /// Right-hand side (may be a `min`/`max` bound).
    pub rhs: Bound,
}

impl Cond {
    /// The condition `lhs <= rhs`.
    pub fn le(lhs: AffineExpr, rhs: impl Into<Bound>) -> Self {
        Cond {
            lhs,
            rhs: rhs.into(),
        }
    }

    /// Evaluates the condition under `env`.
    pub fn eval(&self, env: &impl Fn(VarId) -> i64) -> bool {
        self.lhs.eval(env) <= self.rhs.eval(env)
    }

    /// Evaluates the condition under a dense environment indexed by
    /// [`VarId::index`] (see [`AffineExpr::eval_slice`]).
    #[inline]
    pub fn eval_slice(&self, env: &[i64]) -> bool {
        self.lhs.eval_slice(env) <= self.rhs.eval_slice(env)
    }

    /// Substitutes `replacement` for `v` on both sides.
    pub fn subst(&self, v: VarId, replacement: &AffineExpr) -> Cond {
        Cond {
            lhs: self.lhs.subst(v, replacement),
            rhs: self.rhs.subst(v, replacement),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} <= {:?}", self.lhs, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn construction_normalizes() {
        let e = AffineExpr::new(1, vec![(v(1), 2), (v(0), 3), (v(1), -2)]);
        assert_eq!(e.coeff(v(1)), 0);
        assert_eq!(e.coeff(v(0)), 3);
        assert_eq!(e.constant_part(), 1);
        assert_eq!(e.terms().len(), 1);
    }

    #[test]
    fn arithmetic() {
        let a = AffineExpr::var(v(0)) * 2 + AffineExpr::constant(5);
        let b = AffineExpr::var(v(0)) - AffineExpr::constant(1);
        let s = a.clone() + b.clone();
        assert_eq!(s.coeff(v(0)), 3);
        assert_eq!(s.constant_part(), 4);
        let d = a - b;
        assert_eq!(d.coeff(v(0)), 1);
        assert_eq!(d.constant_part(), 6);
    }

    #[test]
    #[allow(clippy::erasing_op)] // multiplying by zero is the point
    fn mul_by_zero_clears() {
        let a = AffineExpr::var(v(0)) + AffineExpr::constant(7);
        assert_eq!(a * 0, AffineExpr::constant(0));
    }

    #[test]
    fn eval_and_subst() {
        // e = 2*i + 3*j + 1
        let e = AffineExpr::new(1, vec![(v(0), 2), (v(1), 3)]);
        assert_eq!(e.eval(&|x| if x == v(0) { 10 } else { 100 }), 321);
        // i := k + 4  =>  2k + 3j + 9
        let r = e.subst(v(0), &(AffineExpr::var(v(2)) + AffineExpr::constant(4)));
        assert_eq!(r.coeff(v(2)), 2);
        assert_eq!(r.coeff(v(1)), 3);
        assert_eq!(r.constant_part(), 9);
        // substituting an absent var is identity
        assert_eq!(e.subst(v(5), &AffineExpr::constant(9)), e);
    }

    #[test]
    fn subst_self_referential() {
        // i := i + 1 (loop shift)
        let e = AffineExpr::var(v(0)) * 3;
        let r = e.subst(v(0), &(AffineExpr::var(v(0)) + AffineExpr::constant(1)));
        assert_eq!(r.coeff(v(0)), 3);
        assert_eq!(r.constant_part(), 3);
    }

    #[test]
    fn bounds_eval() {
        let b = Bound::min_of(vec![
            AffineExpr::var(v(0)) + AffineExpr::constant(15),
            AffineExpr::var(v(1)),
        ]);
        let env = |x: VarId| if x == v(0) { 0 } else { 10 };
        assert_eq!(b.eval(&env), 10);
        let env2 = |x: VarId| if x == v(0) { 0 } else { 100 };
        assert_eq!(b.eval(&env2), 15);
    }

    #[test]
    fn min_of_one_collapses() {
        let b = Bound::min_of(vec![AffineExpr::constant(4)]);
        assert!(matches!(b, Bound::Affine(_)));
        let b2 = Bound::min_of(vec![AffineExpr::constant(4), AffineExpr::constant(4)]);
        assert!(matches!(b2, Bound::Affine(_)));
    }

    #[test]
    fn bound_uses_and_subst() {
        let b = Bound::min_of(vec![
            AffineExpr::var(v(0)) + AffineExpr::constant(15),
            AffineExpr::var(v(1)),
        ]);
        assert!(b.uses(v(0)));
        assert!(!b.uses(v(7)));
        let s = b.subst(v(0), &AffineExpr::constant(1));
        assert!(!s.uses(v(0)));
        assert_eq!(s.eval(&|_| 99), 16);
    }

    #[test]
    fn cond_eval() {
        let c = Cond::le(AffineExpr::var(v(0)), AffineExpr::constant(5));
        assert!(c.eval(&|_| 5));
        assert!(!c.eval(&|_| 6));
        let c2 = c.subst(v(0), &AffineExpr::constant(3));
        assert!(c2.eval(&|_| 1000));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The reference model: a constant and a map from variable to
        /// summed coefficient (zeros allowed).
        type Model = (i64, BTreeMap<VarId, i64>);

        fn model_of(constant: i64, terms: &[(VarId, i64)]) -> Model {
            let mut map = BTreeMap::new();
            for &(v, c) in terms {
                *map.entry(v).or_insert(0) += c;
            }
            (constant, map)
        }

        /// `a + k * b` in the model.
        fn axpy(a: &Model, k: i64, b: &Model) -> Model {
            let mut map = a.1.clone();
            for (&v, &c) in &b.1 {
                *map.entry(v).or_insert(0) += k * c;
            }
            (a.0 + k * b.0, map)
        }

        /// `a[v := r]` in the model.
        fn subst(a: &Model, v: VarId, r: &Model) -> Model {
            let k = a.1.get(&v).copied().unwrap_or(0);
            let mut rest = a.clone();
            rest.1.remove(&v);
            axpy(&rest, k, r)
        }

        /// `e` equals the model and is canonical: sorted by variable,
        /// no zero coefficient, stored in place exactly when short, and
        /// without spare capacity when spilled. Its hash and `Debug`
        /// text are those of the plain `(constant, terms)` pair.
        fn check(e: &AffineExpr, want: &Model) {
            let terms = e.terms();
            assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "unsorted {e:?}");
            assert!(terms.iter().all(|&(_, c)| c != 0), "zero term in {e:?}");
            let want_terms: Vec<(VarId, i64)> = want
                .1
                .iter()
                .filter(|&(_, &c)| c != 0)
                .map(|(&v, &c)| (v, c))
                .collect();
            assert_eq!((e.constant_part(), terms.to_vec()), (want.0, want_terms));
            assert_eq!(e, &AffineExpr::new(want.0, want.1.clone()));
            assert_eq!(hash_of(e), hash_of(&plain(e)));
            let (constant, terms) = plain(e);
            assert_eq!(
                format!("{e:?}"),
                format!("AffineExpr {{ constant: {constant}, terms: {terms:?} }}")
            );
            match &e.terms {
                Terms::Inline(..) => assert!(terms.len() <= INLINE, "{e:?}"),
                Terms::Heap(v) => assert!(v.len() > INLINE && v.capacity() == v.len(), "{e:?}"),
            }
        }

        fn plain(e: &AffineExpr) -> (i64, Vec<(VarId, i64)>) {
            (e.constant_part(), e.terms().to_vec())
        }

        fn hash_of(x: &impl std::hash::Hash) -> u64 {
            use std::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }

        /// Raw terms over five variables starting at `first`, with
        /// repeats and zero coefficients.
        fn raw_terms(first: u32) -> impl Strategy<Value = Vec<(VarId, i64)>> {
            prop::collection::vec((0u32..5, -3i64..4), 0..7)
                .prop_map(move |ts| ts.into_iter().map(|(v, c)| (VarId(first + v), c)).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// Every operation matches the map model and keeps the
            /// canonical form, over empty, cancelling, overlapping and
            /// disjoint term lists.
            #[test]
            fn affine_ops_match_a_map_reference(
                c in -9i64..10, ta in raw_terms(0),
                d in -9i64..10, tb in raw_terms(0),
                tc in raw_terms(3), td in raw_terms(8),
                k in -3i64..4, v in 0u32..9, delta in -5i64..6,
            ) {
                let a = AffineExpr::new(c, ta.clone());
                let ma = model_of(c, &ta);
                check(&a, &ma);
                let others = [
                    (AffineExpr::new(d, tb.clone()), model_of(d, &tb)),
                    (AffineExpr::new(d, tc.clone()), model_of(d, &tc)),
                    (AffineExpr::new(d, td.clone()), model_of(d, &td)),
                    (a.clone(), ma.clone()),
                    (AffineExpr::constant(d), model_of(d, &[])),
                ];
                for (b, mb) in &others {
                    // Ordering agrees with the plain (constant, terms)
                    // pair the type derived before terms were stored in
                    // place.
                    assert_eq!(a.cmp(b), plain(&a).cmp(&plain(b)));
                    check(&(a.clone() + b.clone()), &axpy(&ma, 1, mb));
                    check(&(b.clone() + a.clone()), &axpy(&ma, 1, mb));
                    check(&(a.clone() - b.clone()), &axpy(&ma, -1, mb));
                    check(&a.subst(VarId(v), b), &subst(&ma, VarId(v), mb));
                }
                let zero = model_of(0, &[]);
                check(&-a.clone(), &axpy(&zero, -1, &ma));
                check(&(a.clone() * k), &axpy(&zero, k, &ma));
                check(&a.shifted(delta), &(c + delta, ma.1.clone()));
            }
        }
    }

    #[test]
    fn conversions() {
        let _: AffineExpr = 4i64.into();
        let _: AffineExpr = v(3).into();
        let _: Bound = 4i64.into();
        let _: Bound = v(3).into();
        let b: Bound = AffineExpr::constant(2).into();
        assert_eq!(b.eval(&|_| 0), 2);
    }
}
