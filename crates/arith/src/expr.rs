//! The core arithmetic expression type and its smart constructors.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops;

use crate::simplify;

/// A symbolic arithmetic expression over natural numbers.
///
/// Expressions are kept in a normal form by the smart constructors (operators, [`ArithExpr::sum`],
/// [`ArithExpr::product`], …): sums and products are flattened and sorted, constants folded, like
/// terms collected, and the division/modulo simplification rules of the paper (Section 5.3) are
/// applied eagerly. Two expressions that the rules can prove equal therefore compare equal with
/// `==`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithExpr {
    /// An integer constant.
    Cst(i64),
    /// A named variable with an optional value range.
    Var(Var),
    /// A sum of at least two terms, flattened and canonically ordered.
    Sum(Vec<ArithExpr>),
    /// A product of at least two factors, flattened and canonically ordered.
    Prod(Vec<ArithExpr>),
    /// Integer (floor) division.
    IntDiv(Box<ArithExpr>, Box<ArithExpr>),
    /// Integer modulo.
    Mod(Box<ArithExpr>, Box<ArithExpr>),
    /// A power with a constant non-negative exponent.
    Pow(Box<ArithExpr>, u32),
    /// The smaller of two expressions (OpenCL's integer `min` builtin). Used by the `pad`
    /// boundary views to clamp indices into range.
    Min(Box<ArithExpr>, Box<ArithExpr>),
    /// The larger of two expressions (OpenCL's integer `max` builtin).
    Max(Box<ArithExpr>, Box<ArithExpr>),
}

/// The inclusive-lower / exclusive-upper value range of a [`Var`].
///
/// Ranges carry the domain knowledge that makes the simplification rules fire: for example a
/// `mapLcl` loop variable over an array of length `N` has range `[0, N)`, which is what allows
/// `l_id mod N` to simplify to `l_id`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Range {
    /// Inclusive lower bound, if known.
    pub min: Option<Box<ArithExpr>>,
    /// Exclusive upper bound, if known.
    pub max_excl: Option<Box<ArithExpr>>,
}

impl Range {
    /// An unbounded range (nothing is known about the variable).
    pub fn unknown() -> Self {
        Range {
            min: None,
            max_excl: None,
        }
    }

    /// The range `[min, max_excl)`.
    pub fn new(min: ArithExpr, max_excl: ArithExpr) -> Self {
        Range {
            min: Some(Box::new(min)),
            max_excl: Some(Box::new(max_excl)),
        }
    }

    /// The range of a size variable: `[1, ∞)`.
    pub fn positive() -> Self {
        Range {
            min: Some(Box::new(ArithExpr::Cst(1))),
            max_excl: None,
        }
    }
}

/// A named variable.
///
/// Variables are identified by name alone: equality, ordering and hashing ignore the range so
/// that the same variable mentioned with and without range information collapses to a single
/// term when collecting sums and products.
#[derive(Clone, Debug)]
pub struct Var {
    name: String,
    range: Range,
}

impl Var {
    /// Creates a variable with the given name and range.
    pub fn new(name: impl Into<String>, range: Range) -> Self {
        Var {
            name: name.into(),
            range,
        }
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable's value range.
    pub fn range(&self) -> &Range {
        &self.range
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}
impl Eq for Var {}
impl Hash for Var {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}
impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Var {
    fn cmp(&self, other: &Self) -> Ordering {
        self.name.cmp(&other.name)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[allow(clippy::should_implement_trait)] // `div` is the simplifying builder, not `Div`
impl ArithExpr {
    /// Creates a constant expression.
    pub fn cst(c: i64) -> Self {
        ArithExpr::Cst(c)
    }

    /// Creates an unconstrained variable.
    pub fn var(name: impl Into<String>) -> Self {
        ArithExpr::Var(Var::new(name, Range::unknown()))
    }

    /// Creates a *size* variable: an unknown natural number `≥ 1` (array lengths, matrix
    /// dimensions, …).
    pub fn size_var(name: impl Into<String>) -> Self {
        ArithExpr::Var(Var::new(name, Range::positive()))
    }

    /// Creates a variable known to lie in `[min, max_excl)`, such as a thread or loop index.
    pub fn var_in_range(name: impl Into<String>, min: i64, max_excl: ArithExpr) -> Self {
        ArithExpr::Var(Var::new(name, Range::new(ArithExpr::Cst(min), max_excl)))
    }

    /// Wraps an existing [`Var`].
    pub fn from_var(v: Var) -> Self {
        ArithExpr::Var(v)
    }

    /// Returns the constant value if this expression is a constant.
    pub fn as_cst(&self) -> Option<i64> {
        match self {
            ArithExpr::Cst(c) => Some(*c),
            _ => None,
        }
    }

    /// Returns `true` if this expression is the constant `c`.
    pub fn is_cst(&self, c: i64) -> bool {
        self.as_cst() == Some(c)
    }

    /// Builds a normalised sum of the given terms.
    pub fn sum(terms: impl IntoIterator<Item = ArithExpr>) -> Self {
        simplify::make_sum(terms.into_iter().collect())
    }

    /// Builds a normalised product of the given factors.
    pub fn product(factors: impl IntoIterator<Item = ArithExpr>) -> Self {
        simplify::make_prod(factors.into_iter().collect())
    }

    /// Builds `self ^ exp` (constant non-negative exponent).
    pub fn pow(self, exp: u32) -> Self {
        simplify::make_pow(self, exp)
    }

    /// Integer division, simplified using the rules of Section 5.3.
    pub fn div(self, den: ArithExpr) -> Self {
        simplify::make_div(self, den)
    }

    /// Integer modulo, simplified using the rules of Section 5.3.
    pub fn modulo(self, m: ArithExpr) -> Self {
        simplify::make_mod(self, m)
    }

    /// The smaller of `self` and `other`, folding constants and using the range analysis to
    /// drop the comparison when one side is provably no larger than the other.
    pub fn min_of(self, other: ArithExpr) -> Self {
        simplify::make_min(self, other)
    }

    /// The larger of `self` and `other`, folding constants and using the range analysis to
    /// drop the comparison when one side is provably no smaller than the other.
    pub fn max_of(self, other: ArithExpr) -> Self {
        simplify::make_max(self, other)
    }

    /// Collects all variables appearing in the expression.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            ArithExpr::Cst(_) => {}
            ArithExpr::Var(v) => out.push(v.clone()),
            ArithExpr::Sum(ts) | ArithExpr::Prod(ts) => {
                for t in ts {
                    t.collect_vars(out);
                }
            }
            ArithExpr::IntDiv(a, b)
            | ArithExpr::Mod(a, b)
            | ArithExpr::Min(a, b)
            | ArithExpr::Max(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            ArithExpr::Pow(b, _) => b.collect_vars(out),
        }
    }

    /// Number of nodes in the expression tree (used to measure index complexity in the
    /// evaluation).
    pub fn node_count(&self) -> usize {
        match self {
            ArithExpr::Cst(_) | ArithExpr::Var(_) => 1,
            ArithExpr::Sum(ts) | ArithExpr::Prod(ts) => {
                1 + ts.iter().map(|t| t.node_count()).sum::<usize>()
            }
            ArithExpr::IntDiv(a, b)
            | ArithExpr::Mod(a, b)
            | ArithExpr::Min(a, b)
            | ArithExpr::Max(a, b) => 1 + a.node_count() + b.node_count(),
            ArithExpr::Pow(b, _) => 1 + b.node_count(),
        }
    }

    /// Counts the arithmetic operations (additions, multiplications, divisions, modulos,
    /// power expansions) needed to evaluate the expression; used by the virtual GPU's cost
    /// model to charge for index computations.
    pub fn op_count(&self) -> usize {
        match self {
            ArithExpr::Cst(_) | ArithExpr::Var(_) => 0,
            ArithExpr::Sum(ts) | ArithExpr::Prod(ts) => {
                ts.len().saturating_sub(1) + ts.iter().map(|t| t.op_count()).sum::<usize>()
            }
            ArithExpr::IntDiv(a, b)
            | ArithExpr::Mod(a, b)
            | ArithExpr::Min(a, b)
            | ArithExpr::Max(a, b) => 1 + a.op_count() + b.op_count(),
            ArithExpr::Pow(b, e) => (*e as usize).saturating_sub(1) + b.op_count(),
        }
    }

    /// Counts the division and modulo operations in the expression; these are the costly
    /// operations the array-access simplification removes (Section 7.4).
    pub fn div_mod_count(&self) -> usize {
        match self {
            ArithExpr::Cst(_) | ArithExpr::Var(_) => 0,
            ArithExpr::Sum(ts) | ArithExpr::Prod(ts) => {
                ts.iter().map(|t| t.div_mod_count()).sum::<usize>()
            }
            ArithExpr::IntDiv(a, b) | ArithExpr::Mod(a, b) => {
                1 + a.div_mod_count() + b.div_mod_count()
            }
            ArithExpr::Min(a, b) | ArithExpr::Max(a, b) => a.div_mod_count() + b.div_mod_count(),
            ArithExpr::Pow(b, _) => b.div_mod_count(),
        }
    }
}

impl From<i64> for ArithExpr {
    fn from(c: i64) -> Self {
        ArithExpr::Cst(c)
    }
}

impl From<usize> for ArithExpr {
    fn from(c: usize) -> Self {
        ArithExpr::Cst(c as i64)
    }
}

impl From<Var> for ArithExpr {
    fn from(v: Var) -> Self {
        ArithExpr::Var(v)
    }
}

impl Default for ArithExpr {
    fn default() -> Self {
        ArithExpr::Cst(0)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $build:expr) => {
        impl ops::$trait for ArithExpr {
            type Output = ArithExpr;
            fn $method(self, rhs: ArithExpr) -> ArithExpr {
                let f: fn(ArithExpr, ArithExpr) -> ArithExpr = $build;
                f(self, rhs)
            }
        }
        impl ops::$trait<&ArithExpr> for ArithExpr {
            type Output = ArithExpr;
            fn $method(self, rhs: &ArithExpr) -> ArithExpr {
                let f: fn(ArithExpr, ArithExpr) -> ArithExpr = $build;
                f(self, rhs.clone())
            }
        }
        impl ops::$trait<ArithExpr> for &ArithExpr {
            type Output = ArithExpr;
            fn $method(self, rhs: ArithExpr) -> ArithExpr {
                let f: fn(ArithExpr, ArithExpr) -> ArithExpr = $build;
                f(self.clone(), rhs)
            }
        }
        impl ops::$trait<&ArithExpr> for &ArithExpr {
            type Output = ArithExpr;
            fn $method(self, rhs: &ArithExpr) -> ArithExpr {
                let f: fn(ArithExpr, ArithExpr) -> ArithExpr = $build;
                f(self.clone(), rhs.clone())
            }
        }
        impl ops::$trait<i64> for ArithExpr {
            type Output = ArithExpr;
            fn $method(self, rhs: i64) -> ArithExpr {
                let f: fn(ArithExpr, ArithExpr) -> ArithExpr = $build;
                f(self, ArithExpr::Cst(rhs))
            }
        }
        impl ops::$trait<i64> for &ArithExpr {
            type Output = ArithExpr;
            fn $method(self, rhs: i64) -> ArithExpr {
                let f: fn(ArithExpr, ArithExpr) -> ArithExpr = $build;
                f(self.clone(), ArithExpr::Cst(rhs))
            }
        }
    };
}

impl_binop!(Add, add, |a, b| simplify::make_sum(vec![a, b]));
impl_binop!(Sub, sub, |a, b| simplify::make_sum(vec![
    a,
    simplify::make_prod(vec![ArithExpr::Cst(-1), b])
]));
impl_binop!(Mul, mul, |a, b| simplify::make_prod(vec![a, b]));
impl_binop!(Div, div, |a, b| simplify::make_div(a, b));
impl_binop!(Rem, rem, |a, b| simplify::make_mod(a, b));

impl ops::Neg for ArithExpr {
    type Output = ArithExpr;
    fn neg(self) -> ArithExpr {
        simplify::make_prod(vec![ArithExpr::Cst(-1), self])
    }
}

impl fmt::Display for ArithExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::CPrinter.print(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_in_sums_and_products() {
        let e = ArithExpr::cst(2) + ArithExpr::cst(3);
        assert_eq!(e, ArithExpr::cst(5));
        let e = ArithExpr::cst(2) * ArithExpr::cst(3) * ArithExpr::cst(4);
        assert_eq!(e, ArithExpr::cst(24));
    }

    #[test]
    fn like_terms_collect() {
        let x = ArithExpr::size_var("x");
        let e = &x * 2 + &x * 3;
        assert_eq!(e, &x * 5);
    }

    #[test]
    fn subtraction_cancels() {
        let x = ArithExpr::size_var("x");
        let e = &x - &x;
        assert_eq!(e, ArithExpr::cst(0));
    }

    #[test]
    fn var_equality_ignores_range() {
        let a = Var::new("n", Range::positive());
        let b = Var::new("n", Range::unknown());
        assert_eq!(a, b);
    }

    #[test]
    fn neg_produces_minus_one_coefficient() {
        let x = ArithExpr::size_var("x");
        let e = -x.clone();
        assert_eq!(e, ArithExpr::cst(-1) * x);
    }

    #[test]
    fn vars_are_collected_and_deduplicated() {
        let n = ArithExpr::size_var("n");
        let m = ArithExpr::size_var("m");
        let e = &n * &m + &n * 2;
        let vars = e.vars();
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].name(), "m");
        assert_eq!(vars[1].name(), "n");
    }

    #[test]
    fn node_and_divmod_counts() {
        let n = ArithExpr::size_var("n");
        let x = ArithExpr::var("x");
        let e = ArithExpr::IntDiv(Box::new(x.clone()), Box::new(n.clone()));
        assert_eq!(e.div_mod_count(), 1);
        assert!(e.node_count() >= 3);
        assert_eq!((x + n).div_mod_count(), 0);
    }

    #[test]
    fn from_impls() {
        assert_eq!(ArithExpr::from(3i64), ArithExpr::cst(3));
        assert_eq!(ArithExpr::from(3usize), ArithExpr::cst(3));
        let v = Var::new("k", Range::unknown());
        assert_eq!(ArithExpr::from(v.clone()), ArithExpr::Var(v));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ArithExpr::default(), ArithExpr::cst(0));
    }
}
