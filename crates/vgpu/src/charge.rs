//! The counting rules: what each operation of a lowered kernel adds to the arithmetic
//! counters (`flops`, `int_ops`, `div_mod_ops`).
//!
//! The interpreter (`exec.rs`) and the bytecode tier (`bytecode.rs`) charge these as they
//! run an operation, and the static bound (`bound.rs`) charges them before anything runs,
//! once per lane that certainly runs it. A counting rule is stated here once; a caller only
//! says which operation ran and how many times.

use lift_ocl::{CBinOp, CUnOp};

use crate::cost::CostCounters;
use crate::exec::SIndex;

/// An arithmetic class of the cost counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    Flop,
    Int,
    DivMod,
}

/// What one evaluation of an operation adds: `n` events of one class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Charge {
    pub(crate) class: Class,
    pub(crate) n: u64,
}

const fn charge(class: Class, n: u64) -> Charge {
    Charge { class, n }
}

/// A condition decided by an `if`, a ternary or a loop round, and a loop variable's step.
pub(crate) const CONTROL: Charge = charge(Class::Int, 1);
/// A one-argument math builtin (`sqrt`, `exp`, …), priced like a special-function unit.
pub(crate) const MATH1: Charge = charge(Class::Flop, 4);
/// `fmin` / `fmax`.
pub(crate) const MATH2: Charge = charge(Class::Flop, 1);

/// A binary operation on two integers (`ints`) or on any other non-pointer operands: integer
/// `+ - *` are integer ops and `/` a div/mod op; otherwise `+ - * /` are flops. Comparisons
/// are integer ops either way. Pointer arithmetic and comparison charge nothing.
pub(crate) fn binary(op: CBinOp, ints: bool) -> Charge {
    match (op, ints) {
        (CBinOp::Add | CBinOp::Sub | CBinOp::Mul, true) => charge(Class::Int, 1),
        (CBinOp::Div, true) => charge(Class::DivMod, 1),
        (CBinOp::Add | CBinOp::Sub | CBinOp::Mul | CBinOp::Div, false) => charge(Class::Flop, 1),
        (CBinOp::Lt | CBinOp::Gt | CBinOp::Eq, _) => charge(Class::Int, 1),
    }
}

/// A unary operation: negation is a flop (on integers too).
pub(crate) fn unary(op: CUnOp) -> Charge {
    match op {
        CUnOp::Neg => charge(Class::Flop, 1),
    }
}

/// What an index-expression node costs itself, its operands aside (the counts of
/// `ArithExpr::op_count` and `div_mod_count`): a sum or product of `k` terms `k - 1` integer
/// ops, a division or modulo one div/mod op, `b^e` `e - 1` integer ops, `min` / `max` one.
pub(crate) fn index(a: &SIndex) -> Charge {
    match a {
        SIndex::Cst(_) | SIndex::Var(_) => charge(Class::Int, 0),
        SIndex::Sum(ts) | SIndex::Prod(ts) => charge(Class::Int, ts.len().saturating_sub(1) as u64),
        SIndex::IntDiv(..) | SIndex::Mod(..) => charge(Class::DivMod, 1),
        SIndex::Pow(_, e) => charge(Class::Int, u64::from(e.saturating_sub(1))),
        SIndex::Min(..) | SIndex::Max(..) => charge(Class::Int, 1),
    }
}

impl CostCounters {
    /// Adds `times` evaluations of an operation that charges `c` (saturating, so a huge
    /// static count cannot wrap).
    pub(crate) fn charge(&mut self, c: Charge, times: u64) {
        let counter = match c.class {
            Class::Flop => &mut self.flops,
            Class::Int => &mut self.int_ops,
            Class::DivMod => &mut self.div_mod_ops,
        };
        *counter = counter.saturating_add(c.n.saturating_mul(times));
    }
}
