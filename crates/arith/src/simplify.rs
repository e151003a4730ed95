//! Normalisation and the algebraic simplification rules of Section 5.3.
//!
//! The rules implemented here are exactly the ones listed in the paper:
//!
//! 1. `x / y = 0`                          if `x < y` and `y ≠ 0`
//! 2. `(x*y + z) / y = x + z/y`            if `y ≠ 0`
//! 3. `x mod y = x`                        if `x < y` and `y ≠ 0`
//! 4. `(x/y)*y + x mod y = x`              if `y ≠ 0`
//! 5. `(x*y) mod y = 0`                    if `y ≠ 0`
//! 6. `(x + y) mod z = (x mod z + y mod z) mod z` if `z ≠ 0`
//!
//! Together with constant folding, flattening and like-term collection they reduce the long
//! mechanical index expressions produced by the view system (Figure 6, line 1) to the compact
//! indices a human would write (line 3).

use std::collections::BTreeMap;

use crate::bounds;
use crate::expr::ArithExpr;

/// Builds a normalised sum.
pub(crate) fn make_sum(terms: Vec<ArithExpr>) -> ArithExpr {
    // Flatten nested sums.
    let mut flat = Vec::with_capacity(terms.len());
    for t in terms {
        match t {
            ArithExpr::Sum(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }

    // Collect like terms: map from the non-constant factor list to its integer coefficient.
    let mut constant: i64 = 0;
    let mut coeffs: BTreeMap<Vec<ArithExpr>, i64> = BTreeMap::new();
    for t in flat {
        let (c, factors) = split_coefficient(t);
        if factors.is_empty() {
            constant += c;
        } else {
            *coeffs.entry(factors).or_insert(0) += c;
        }
    }
    coeffs.retain(|_, c| *c != 0);

    let mut out: Vec<ArithExpr> = Vec::new();
    for (factors, c) in coeffs {
        out.push(rebuild_term(c, factors));
    }

    // Rule 4: (x/y)*y + (x mod y)  ==>  x.
    if let Some(recombined) = apply_div_mod_recombination(&out) {
        let mut terms = recombined;
        if constant != 0 {
            terms.push(ArithExpr::Cst(constant));
        }
        return make_sum(terms);
    }

    // Canonical order: non-constant terms sorted structurally, the folded constant last. The
    // order only needs to be deterministic for structural equality; putting the constant last
    // keeps printed expressions readable (`N - 1` rather than `-1 + N`).
    out.sort();
    if constant != 0 || out.is_empty() {
        out.push(ArithExpr::Cst(constant));
    }

    one_or(out, ArithExpr::Sum)
}

/// The only element of `items`, or `several(items)` when there is not exactly one.
fn one_or(items: Vec<ArithExpr>, several: impl FnOnce(Vec<ArithExpr>) -> ArithExpr) -> ArithExpr {
    match <[ArithExpr; 1]>::try_from(items) {
        Ok([only]) => only,
        Err(items) => several(items),
    }
}

/// A product of already-normalised factors, in canonical order.
fn sorted_prod(mut factors: Vec<ArithExpr>) -> ArithExpr {
    factors.sort();
    ArithExpr::Prod(factors)
}

/// Splits a term into `(integer coefficient, sorted non-constant factors)`.
fn split_coefficient(t: ArithExpr) -> (i64, Vec<ArithExpr>) {
    match t {
        ArithExpr::Cst(c) => (c, Vec::new()),
        ArithExpr::Prod(fs) => {
            let mut coeff = 1i64;
            let mut rest = Vec::new();
            for f in fs {
                match f {
                    ArithExpr::Cst(c) => coeff *= c,
                    other => rest.push(other),
                }
            }
            rest.sort();
            (coeff, rest)
        }
        other => (1, vec![other]),
    }
}

/// Rebuilds `coefficient * factors` without re-normalising (the factors are already sorted).
fn rebuild_term(coeff: i64, factors: Vec<ArithExpr>) -> ArithExpr {
    if factors.is_empty() {
        return ArithExpr::Cst(coeff);
    }
    let mut fs = Vec::with_capacity(factors.len() + 1);
    if coeff != 1 {
        fs.push(ArithExpr::Cst(coeff));
    }
    fs.extend(factors);
    one_or(fs, sorted_prod)
}

/// Rule 4: if the term list contains both `(x/y) * y` and `x mod y` (each with coefficient 1),
/// returns the term list with that pair replaced by `x`. Returns `None` when the rule does not
/// apply.
fn apply_div_mod_recombination(terms: &[ArithExpr]) -> Option<Vec<ArithExpr>> {
    for (i, t) in terms.iter().enumerate() {
        if let ArithExpr::Mod(x, y) = t {
            let div = ArithExpr::IntDiv(x.clone(), y.clone());
            let wanted = make_prod(vec![div, (**y).clone()]);
            for (j, u) in terms.iter().enumerate() {
                if j != i && *u == wanted {
                    let mut rest: Vec<ArithExpr> = terms
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != i && *k != j)
                        .map(|(_, e)| e.clone())
                        .collect();
                    rest.push((**x).clone());
                    return Some(rest);
                }
            }
        }
    }
    None
}

/// Builds a normalised product.
pub(crate) fn make_prod(factors: Vec<ArithExpr>) -> ArithExpr {
    // Flatten nested products and fold constants.
    let mut flat = Vec::with_capacity(factors.len());
    let mut coeff: i64 = 1;
    for f in factors {
        match f {
            ArithExpr::Prod(inner) => {
                for g in inner {
                    match g {
                        ArithExpr::Cst(c) => coeff *= c,
                        other => flat.push(other),
                    }
                }
            }
            ArithExpr::Cst(c) => coeff *= c,
            other => flat.push(other),
        }
    }
    if coeff == 0 {
        return ArithExpr::Cst(0);
    }

    // Distribute over sums to reach a sum-of-products normal form. This is what lets the
    // division and modulo rules see through expressions like `(a + b*N) * M`.
    if let Some(pos) = flat.iter().position(|f| matches!(f, ArithExpr::Sum(_))) {
        if let ArithExpr::Sum(terms) = flat.remove(pos) {
            let mut out_terms = Vec::with_capacity(terms.len());
            for t in terms {
                let mut fs = flat.clone();
                fs.push(t);
                fs.push(ArithExpr::Cst(coeff));
                out_terms.push(make_prod(fs));
            }
            return make_sum(out_terms);
        }
    }

    // Collect repeated factors into powers.
    let mut powers: BTreeMap<ArithExpr, u32> = BTreeMap::new();
    for f in flat {
        match f {
            ArithExpr::Pow(b, e) => *powers.entry(*b).or_insert(0) += e,
            other => *powers.entry(other).or_insert(0) += 1,
        }
    }

    let mut out: Vec<ArithExpr> = Vec::new();
    for (base, e) in powers {
        match e {
            0 => {}
            1 => out.push(base),
            _ => out.push(ArithExpr::Pow(Box::new(base), e)),
        }
    }

    if out.is_empty() {
        return ArithExpr::Cst(coeff);
    }
    if coeff != 1 {
        out.push(ArithExpr::Cst(coeff));
    }
    one_or(out, sorted_prod)
}

/// Builds a normalised power.
pub(crate) fn make_pow(base: ArithExpr, exp: u32) -> ArithExpr {
    match exp {
        0 => ArithExpr::Cst(1),
        1 => base,
        _ => match base {
            ArithExpr::Cst(c) => ArithExpr::Cst(c.pow(exp)),
            ArithExpr::Pow(b, e) => ArithExpr::Pow(b, e * exp),
            other => ArithExpr::Pow(Box::new(other), exp),
        },
    }
}

/// Tries to divide `t` exactly by `den`, returning the quotient when the division is exact by
/// construction (not merely numerically).
pub(crate) fn exact_div(t: &ArithExpr, den: &ArithExpr) -> Option<ArithExpr> {
    if t == den {
        return Some(ArithExpr::Cst(1));
    }
    match (t, den) {
        (ArithExpr::Cst(c), ArithExpr::Cst(d)) if *d != 0 && c % d == 0 => {
            Some(ArithExpr::Cst(c / d))
        }
        (ArithExpr::Pow(b, e), _) if &**b == den && *e >= 1 => Some(make_pow((**b).clone(), e - 1)),
        (ArithExpr::Prod(fs), _) => {
            // Try to cancel the denominator against one factor (or its constant coefficient).
            match den {
                ArithExpr::Prod(dfs) => {
                    // Divide by each factor of the denominator in turn.
                    let mut current = t.clone();
                    for d in dfs {
                        current = exact_div(&current, d)?;
                    }
                    Some(current)
                }
                _ => {
                    for (i, f) in fs.iter().enumerate() {
                        if let Some(q) = exact_div(f, den) {
                            let mut rest: Vec<ArithExpr> = fs
                                .iter()
                                .enumerate()
                                .filter(|(j, _)| *j != i)
                                .map(|(_, x)| x.clone())
                                .collect();
                            rest.push(q);
                            return Some(make_prod(rest));
                        }
                    }
                    None
                }
            }
        }
        (ArithExpr::Sum(ts), _) => {
            let mut quotients = Vec::with_capacity(ts.len());
            for term in ts {
                quotients.push(exact_div(term, den)?);
            }
            Some(make_sum(quotients))
        }
        _ => None,
    }
}

/// Returns `Some(true)`/`Some(false)` when `a < b` can be decided, `None` otherwise.
pub(crate) fn is_smaller(a: &ArithExpr, b: &ArithExpr) -> Option<bool> {
    if a == b {
        return Some(false);
    }
    // First try the syntactic difference: if `b - a` folds to a constant we are done.
    let diff = make_sum(vec![
        b.clone(),
        make_prod(vec![ArithExpr::Cst(-1), a.clone()]),
    ]);
    if let Some(c) = diff.as_cst() {
        return Some(c > 0);
    }
    // Otherwise use bounds: a <= ub(a), so a < b follows from ub(a) < b, and similarly from
    // a < lb(b) or ub(a) < lb(b). Each comparison is decided by checking whether the symbolic
    // difference folds to a positive constant.
    let positive = |e: ArithExpr| matches!(e.as_cst(), Some(c) if c > 0);
    let ub_a = bounds::upper_bound(a);
    let lb_b = bounds::lower_bound(b);
    if let Some(ub_a) = &ub_a {
        let gap = make_sum(vec![
            b.clone(),
            make_prod(vec![ArithExpr::Cst(-1), ub_a.clone()]),
        ]);
        if positive(gap) {
            return Some(true);
        }
    }
    if let Some(lb_b) = &lb_b {
        let gap = make_sum(vec![
            lb_b.clone(),
            make_prod(vec![ArithExpr::Cst(-1), a.clone()]),
        ]);
        if positive(gap) {
            return Some(true);
        }
    }
    if let (Some(ub_a), Some(lb_b)) = (&ub_a, &lb_b) {
        let gap = make_sum(vec![
            lb_b.clone(),
            make_prod(vec![ArithExpr::Cst(-1), ub_a.clone()]),
        ]);
        if positive(gap) {
            return Some(true);
        }
    }
    None
}

/// Builds a normalised integer division.
pub(crate) fn make_div(num: ArithExpr, den: ArithExpr) -> ArithExpr {
    if den.is_cst(1) {
        return num;
    }
    if num.is_cst(0) {
        return ArithExpr::Cst(0);
    }
    if num == den {
        return ArithExpr::Cst(1);
    }
    if let (Some(n), Some(d)) = (num.as_cst(), den.as_cst()) {
        if d != 0 {
            return ArithExpr::Cst(n.div_euclid(d));
        }
    }
    // Exact cancellation (covers `(x*y)/y = x` and friends).
    if let Some(q) = exact_div(&num, &den) {
        return q;
    }
    // Rule 1: x/y = 0 when 0 <= x < y.
    if bounds::is_non_negative(&num) && is_smaller(&num, &den) == Some(true) {
        return ArithExpr::Cst(0);
    }
    // Rule 2: (x*y + z)/y = x + z/y — peel off the exactly-divisible terms of a sum, provided
    // the remainder is non-negative (all our index expressions are).
    if let ArithExpr::Sum(terms) = &num {
        let mut divisible = Vec::new();
        let mut rest = Vec::new();
        for t in terms {
            match exact_div(t, &den) {
                Some(q) => divisible.push(q),
                None => rest.push(t.clone()),
            }
        }
        if !divisible.is_empty() && rest.iter().all(bounds::is_non_negative) {
            let rest_sum = make_sum(rest);
            let rest_div = if rest_sum.is_cst(0) {
                ArithExpr::Cst(0)
            } else {
                make_div(rest_sum, den)
            };
            divisible.push(rest_div);
            return make_sum(divisible);
        }
    }
    // Nested divisions: (x/a)/b = x/(a*b).
    if let ArithExpr::IntDiv(x, a) = &num {
        return ArithExpr::IntDiv(x.clone(), Box::new(make_prod(vec![(**a).clone(), den])));
    }
    ArithExpr::IntDiv(Box::new(num), Box::new(den))
}

/// Builds a normalised modulo.
pub(crate) fn make_mod(x: ArithExpr, m: ArithExpr) -> ArithExpr {
    if m.is_cst(1) {
        return ArithExpr::Cst(0);
    }
    if x.is_cst(0) {
        return ArithExpr::Cst(0);
    }
    if x == m {
        return ArithExpr::Cst(0);
    }
    if let (Some(a), Some(b)) = (x.as_cst(), m.as_cst()) {
        if b != 0 {
            return ArithExpr::Cst(a.rem_euclid(b));
        }
    }
    // Rule 5: exactly divisible expressions vanish.
    if exact_div(&x, &m).is_some() {
        return ArithExpr::Cst(0);
    }
    // Rule 3: x mod m = x when 0 <= x < m.
    if bounds::is_non_negative(&x) && is_smaller(&x, &m) == Some(true) {
        return x;
    }
    // Rules 6 + 5: drop the exactly-divisible terms of a sum, then retry.
    if let ArithExpr::Sum(terms) = &x {
        let rest: Vec<ArithExpr> = terms
            .iter()
            .filter(|t| exact_div(t, &m).is_none())
            .cloned()
            .collect();
        if rest.len() < terms.len() && rest.iter().all(bounds::is_non_negative) {
            return make_mod(make_sum(rest), m);
        }
    }
    // (x mod m) mod m = x mod m.
    if let ArithExpr::Mod(_, inner_m) = &x {
        if **inner_m == m {
            return x;
        }
    }
    ArithExpr::Mod(Box::new(x), Box::new(m))
}

/// Returns `true` when `a <= b` is provable: the difference folds to a non-negative
/// constant, or the bounds analysis closes the gap (`ub(a) <= b`, `a <= lb(b)` or
/// `ub(a) <= lb(b)`).
pub(crate) fn is_at_most(a: &ArithExpr, b: &ArithExpr) -> bool {
    if a == b {
        return true;
    }
    let non_negative = |e: ArithExpr| matches!(e.as_cst(), Some(c) if c >= 0);
    let gap = |lo: &ArithExpr, hi: &ArithExpr| {
        make_sum(vec![
            hi.clone(),
            make_prod(vec![ArithExpr::Cst(-1), lo.clone()]),
        ])
    };
    if non_negative(gap(a, b)) {
        return true;
    }
    let ub_a = bounds::upper_bound(a);
    let lb_b = bounds::lower_bound(b);
    if let Some(ub_a) = &ub_a {
        if non_negative(gap(ub_a, b)) {
            return true;
        }
    }
    if let Some(lb_b) = &lb_b {
        if non_negative(gap(a, lb_b)) {
            return true;
        }
    }
    if let (Some(ub_a), Some(lb_b)) = (&ub_a, &lb_b) {
        if non_negative(gap(ub_a, lb_b)) {
            return true;
        }
    }
    false
}

/// Builds a normalised `min`: constants fold, equal sides collapse, and a provable ordering
/// (via the range analysis) drops the comparison entirely. The remaining node keeps its
/// operands in canonical order so `min(a, b)` and `min(b, a)` compare equal.
pub(crate) fn make_min(a: ArithExpr, b: ArithExpr) -> ArithExpr {
    if let (Some(x), Some(y)) = (a.as_cst(), b.as_cst()) {
        return ArithExpr::Cst(x.min(y));
    }
    if is_at_most(&a, &b) {
        return a;
    }
    if is_at_most(&b, &a) {
        return b;
    }
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    ArithExpr::Min(Box::new(lo), Box::new(hi))
}

/// Builds a normalised `max` (the dual of [`make_min`]).
pub(crate) fn make_max(a: ArithExpr, b: ArithExpr) -> ArithExpr {
    if let (Some(x), Some(y)) = (a.as_cst(), b.as_cst()) {
        return ArithExpr::Cst(x.max(y));
    }
    if is_at_most(&a, &b) {
        return b;
    }
    if is_at_most(&b, &a) {
        return a;
    }
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    ArithExpr::Max(Box::new(lo), Box::new(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArithExpr as A;

    fn n() -> A {
        A::size_var("N")
    }
    fn m() -> A {
        A::size_var("M")
    }
    fn wg(max: A) -> A {
        A::var_in_range("wg_id", 0, max)
    }
    fn lid(max: A) -> A {
        A::var_in_range("l_id", 0, max)
    }

    #[test]
    fn rule1_division_of_smaller_value_is_zero() {
        // l_id in [0, N)  =>  l_id / N == 0
        let e = lid(n()) / n();
        assert_eq!(e, A::cst(0));
    }

    #[test]
    fn rule2_divisible_terms_are_peeled_off() {
        // (wg_id*M + l_id) / M == wg_id   (l_id in [0, M))
        let e = (wg(n()) * m() + lid(m())) / m();
        assert_eq!(e, wg(n()));
    }

    #[test]
    fn rule3_mod_of_smaller_value_is_identity() {
        let e = lid(n()) % n();
        assert_eq!(e, lid(n()));
    }

    #[test]
    fn rule4_div_mod_recombination() {
        let x = A::var("x");
        let y = n();
        let div = ArithExpr::IntDiv(Box::new(x.clone()), Box::new(y.clone()));
        let md = ArithExpr::Mod(Box::new(x.clone()), Box::new(y.clone()));
        let e = make_sum(vec![make_prod(vec![div, y]), md]);
        assert_eq!(e, x);
    }

    #[test]
    fn rule5_product_mod_factor_is_zero() {
        let e = (wg(n()) * m()) % m();
        assert_eq!(e, A::cst(0));
    }

    #[test]
    fn rule6_sum_mod_drops_divisible_terms() {
        // (wg_id*M + l_id) mod M == l_id
        let e = (wg(n()) * m() + lid(m())) % m();
        assert_eq!(e, lid(m()));
    }

    #[test]
    fn figure6_transpose_index_simplifies() {
        // Figure 6: the transpose read index simplifies from the long mechanical form to
        // l_id*N + wg_id.  Here wg_id ranges over [0, M) (the rows) and l_id over [0, N).
        let n = n();
        let m = m();
        let wg = A::var_in_range("wg_id", 0, n.clone());
        let l = A::var_in_range("l_id", 0, m.clone());
        let flat = &wg * &m + &l;
        let gathered = (&flat / &m) + (&flat % &m) * &n;
        let row = &gathered / &n;
        let col = &gathered % &n;
        let idx = &row * &n + &col;
        assert_eq!(idx, &l * &n + &wg);
        assert_eq!(idx.div_mod_count(), 0);
    }

    #[test]
    fn unprovable_relations_keep_div_and_mod() {
        let x = A::var("x"); // no range information
        let e = x.clone() / n();
        assert!(matches!(e, ArithExpr::IntDiv(_, _)));
        let e = x % n();
        assert!(matches!(e, ArithExpr::Mod(_, _)));
    }

    #[test]
    fn division_by_constant_folds() {
        assert_eq!(A::cst(7) / A::cst(2), A::cst(3));
        assert_eq!(A::cst(8) % A::cst(3), A::cst(2));
    }

    #[test]
    fn nested_division_merges_denominators() {
        let x = A::var("x");
        let e = (x.clone() / n()) / m();
        match e {
            ArithExpr::IntDiv(num, den) => {
                assert_eq!(*num, x);
                assert_eq!(*den, n() * m());
            }
            other => panic!("expected a division, got {other:?}"),
        }
    }

    #[test]
    fn distribution_over_sums() {
        let a = A::var("a");
        let b = A::var("b");
        let e = (a.clone() + b.clone()) * A::cst(2);
        assert_eq!(e, a * 2 + b * 2);
    }

    #[test]
    fn pow_collection() {
        let x = A::var("x");
        let e = x.clone() * x.clone();
        assert_eq!(e, ArithExpr::Pow(Box::new(x), 2));
    }

    #[test]
    fn pow_constants_and_identities() {
        let x = A::var("x");
        assert_eq!(make_pow(x.clone(), 0), A::cst(1));
        assert_eq!(make_pow(x.clone(), 1), x);
        assert_eq!(make_pow(A::cst(3), 2), A::cst(9));
    }

    #[test]
    fn mod_of_mod_collapses() {
        let x = A::var("x");
        let inner = ArithExpr::Mod(Box::new(x), Box::new(n()));
        let e = make_mod(inner.clone(), n());
        assert_eq!(e, inner);
    }

    #[test]
    fn exact_div_of_sum() {
        let e = n() * 2 + m() * n();
        assert_eq!(exact_div(&e, &n()), Some(A::cst(2) + m()));
    }

    #[test]
    fn min_max_fold_and_use_ranges() {
        let n = n();
        let l = lid(n.clone());
        // Constants fold.
        assert_eq!(make_min(A::cst(3), A::cst(5)), A::cst(3));
        assert_eq!(make_max(A::cst(3), A::cst(5)), A::cst(5));
        // Equal sides collapse.
        assert_eq!(make_min(n.clone(), n.clone()), n.clone());
        // l_id in [0, N): max(0, l_id) = l_id and min(l_id, N - 1) = l_id.
        assert_eq!(make_max(A::cst(0), l.clone()), l);
        assert_eq!(make_min(l.clone(), n.clone() - 1), l);
        // Unprovable comparisons keep a canonical node regardless of argument order.
        let x = A::var("x");
        let a = make_min(x.clone(), n.clone());
        let b = make_min(n.clone(), x.clone());
        assert_eq!(a, b);
        assert!(matches!(a, ArithExpr::Min(_, _)));
    }

    #[test]
    fn is_smaller_uses_ranges() {
        let l = lid(n());
        assert_eq!(is_smaller(&l, &n()), Some(true));
        assert_eq!(is_smaller(&n(), &n()), Some(false));
        assert_eq!(is_smaller(&A::cst(3), &A::cst(5)), Some(true));
        assert_eq!(is_smaller(&A::cst(5), &A::cst(3)), Some(false));
        assert_eq!(is_smaller(&A::var("x"), &n()), None);
    }
}
