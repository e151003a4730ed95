//! The operations of a lowered kernel: what each computes, and what it adds to the
//! arithmetic counters (`flops`, `int_ops`, `div_mod_ops`).
//!
//! The interpreter (`exec.rs`) and the bytecode tier (`bytecode.rs`) compute and charge an
//! operation through these functions as they run it. The static bound (`bound.rs`) lifts the
//! integer ones over its per-lane values and charges every operation before anything runs,
//! once per lane that certainly runs it. Each operation is stated here once; a caller only
//! says which operation ran, on what, and how many times.
//!
//! Integer arithmetic wraps on overflow in every build, and `/` and `%` are Euclidean: the
//! remainder is never negative, so `-7 / 2 == -4` and `-7 % 2 == 1`.

use lift_ocl::CBinOp;

use crate::cost::CostCounters;
use crate::exec::{SIndex, VgpuError};
use crate::memory::{Ptr, Scalar};

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
/// Negation: a flop, on integers too.
pub(crate) const NEG: Charge = charge(Class::Flop, 1);

/// An integer operation: of `int` kernel arithmetic, of an index term, of a loop step or of
/// pointer arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    /// `x` to the `y`-th power; `y` is an index term's exponent, never negative.
    Pow,
    Min,
    Max,
}

impl IntOp {
    /// Whether the operation divides: its right operand is checked by [`divisor`].
    pub(crate) fn divides(self) -> bool {
        matches!(self, IntOp::Div | IntOp::Mod)
    }

    /// The value over no terms: 1 for a product, 0 for a sum.
    pub(crate) fn unit(self) -> i64 {
        i64::from(self == IntOp::Mul)
    }
}

/// What an integer operation computes. Everything wraps on overflow; `/` and `%` are
/// Euclidean and fail on a zero divisor.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
#[inline]
pub(crate) fn int(op: IntOp, x: i64, y: i64) -> Result<i64, VgpuError> {
    Ok(match op {
        IntOp::Add => x.wrapping_add(y),
        IntOp::Sub => x.wrapping_sub(y),
        IntOp::Mul => x.wrapping_mul(y),
        IntOp::Div => x.wrapping_div_euclid(divisor(y)?),
        IntOp::Mod => x.wrapping_rem_euclid(divisor(y)?),
        IntOp::Pow => x.wrapping_pow(y as u32),
        IntOp::Min => x.min(y),
        IntOp::Max => x.max(y),
    })
}

/// The divisor of a `/` or `%`: zero fails with [`VgpuError::DivisionByZero`]. The engines
/// check an index term's divisor before they evaluate its dividend, so a launch that
/// divides by zero reports that even where the dividend would fail too.
#[inline]
pub(crate) fn divisor(y: i64) -> Result<i64, VgpuError> {
    match y {
        0 => Err(VgpuError::DivisionByZero),
        y => Ok(y),
    }
}

/// The integer operation a binary operator is on two `int` operands; `None` for a
/// comparison, which compares them as integers ([`compare`]).
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn int_op(op: CBinOp) -> Option<IntOp> {
    match op {
        CBinOp::Add => Some(IntOp::Add),
        CBinOp::Sub => Some(IntOp::Sub),
        CBinOp::Mul => Some(IntOp::Mul),
        CBinOp::Div => Some(IntOp::Div),
        CBinOp::Lt | CBinOp::Gt | CBinOp::Eq => None,
    }
}

/// What a binary operator computes on two floats: a float, or a boolean for a comparison.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn float(op: CBinOp, x: f64, y: f64) -> Scalar {
    match op {
        CBinOp::Add => Scalar::Float(x + y),
        CBinOp::Sub => Scalar::Float(x - y),
        CBinOp::Mul => Scalar::Float(x * y),
        CBinOp::Div => Scalar::Float(x / y),
        CBinOp::Lt | CBinOp::Gt | CBinOp::Eq => Scalar::Bool(compare(op, x, y)),
    }
}

/// What a comparison operator yields on two operands of one type, compared as that type
/// (two `int`s are never rounded to floats first); `false` for an arithmetic operator.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn compare<T: PartialOrd>(op: CBinOp, x: T, y: T) -> bool {
    match op {
        CBinOp::Lt => x < y,
        CBinOp::Gt => x > y,
        CBinOp::Eq => x == y,
        CBinOp::Add | CBinOp::Sub | CBinOp::Mul | CBinOp::Div => false,
    }
}

/// What a binary operation computes on two scalars. On a pointer `p`, `p + n` and `p - n`
/// move it by `n` elements, `p == q` compares, and any other operation fails. On two
/// integers it is [`int`] arithmetic, or an integer comparison; on anything else it is the
/// float operation on the operands read as floats. A comparison yields a boolean.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
#[inline]
pub(crate) fn value(op: CBinOp, a: Scalar, b: Scalar) -> Result<Scalar, VgpuError> {
    if let Scalar::Ptr(p) = a {
        let step = match op {
            CBinOp::Add => IntOp::Add,
            CBinOp::Sub => IntOp::Sub,
            CBinOp::Eq => return Ok(Scalar::Bool(Some(p) == b.as_ptr())),
            CBinOp::Mul | CBinOp::Div | CBinOp::Lt | CBinOp::Gt => {
                return Err(VgpuError::NotAPointer("invalid pointer operation".into()))
            }
        };
        let offset = int(step, p.offset, b.as_i64())?;
        return Ok(Scalar::Ptr(Ptr { offset, ..p }));
    }
    match (a, b) {
        (Scalar::Int(x), Scalar::Int(y)) => match int_op(op) {
            Some(op) => int(op, x, y).map(Scalar::Int),
            None => Ok(Scalar::Bool(compare(op, x, y))),
        },
        _ => Ok(float(op, a.as_f64(), b.as_f64())),
    }
}

/// A binary operation as the engines run it: [`value`], charged to `counters` by
/// [`binary_charge`] unless the left operand is a pointer.
#[inline]
pub(crate) fn binary(
    op: CBinOp,
    a: Scalar,
    b: Scalar,
    counters: &mut CostCounters,
) -> Result<Scalar, VgpuError> {
    if !matches!(a, Scalar::Ptr(_)) {
        let ints = matches!((a, b), (Scalar::Int(_), Scalar::Int(_)));
        counters.charge(binary_charge(op, ints), 1);
    }
    value(op, a, b)
}

/// Negation: an integer stays one (and wraps), anything else is negated as a float.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
#[inline]
pub(crate) fn neg(v: Scalar) -> Scalar {
    match v {
        Scalar::Int(x) => Scalar::Int(x.wrapping_neg()),
        Scalar::Float(_) | Scalar::Bool(_) | Scalar::Ptr(_) | Scalar::None => {
            Scalar::Float(-v.as_f64())
        }
    }
}

/// A loop variable's step, `var += by`: both read as integers, and the sum wraps.
#[inline]
pub(crate) fn step(var: Scalar, by: Scalar) -> Scalar {
    Scalar::Int(var.as_i64().wrapping_add(by.as_i64()))
}

/// Element `lane` of the `index`-th vector of `width` lanes (`vloadN` / `vstoreN`).
#[inline]
pub(crate) fn vector_lane(index: i64, width: usize, lane: usize) -> i64 {
    index.wrapping_mul(width as i64).wrapping_add(lane as i64)
}

/// What a binary operation charges, on two integers (`ints`) or on any other non-pointer
/// operands: integer `+ - *` are integer ops and `/` a div/mod op; otherwise `+ - * /` are
/// flops. Comparisons are integer ops either way. Pointer arithmetic and comparison charge
/// nothing.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn binary_charge(op: CBinOp, ints: bool) -> Charge {
    match (op, ints) {
        (CBinOp::Add | CBinOp::Sub | CBinOp::Mul, true) => charge(Class::Int, 1),
        (CBinOp::Div, true) => charge(Class::DivMod, 1),
        (CBinOp::Add | CBinOp::Sub | CBinOp::Mul | CBinOp::Div, false) => charge(Class::Flop, 1),
        (CBinOp::Lt | CBinOp::Gt | CBinOp::Eq, _) => charge(Class::Int, 1),
    }
}

/// What an index-expression node costs itself, its operands aside (the counts of
/// `ArithExpr::op_count` and `div_mod_count`): a sum or product of `k` terms `k - 1` integer
/// ops, a division or modulo one div/mod op, `b^e` `e - 1` integer ops, `min` / `max` one.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn index_charge(a: &SIndex) -> Charge {
    match a {
        SIndex::Cst(_) | SIndex::Var(_) => charge(Class::Int, 0),
        SIndex::Fold(_, ts) => charge(Class::Int, ts.len().saturating_sub(1) as u64),
        SIndex::Pair(op, ..) if op.divides() => charge(Class::DivMod, 1),
        SIndex::Pair(..) => charge(Class::Int, 1),
        SIndex::Pow(_, e) => charge(Class::Int, u64::from(e.saturating_sub(1))),
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

#[cfg(test)]
mod tests {
    use lift_arith::ArithExpr;
    use lift_ocl::{AddrSpace, CBinOp, CExpr, CStmt, CType, Kernel, KernelParam, Module};

    use crate::{
        EngineSelection, ExecutionRequest, KernelArg, KernelLaunchSpec, LaunchConfig, VgpuError,
    };

    /// `k(global float* out, int n, int z, int m)` running `body`, which stores `values[i]`
    /// to `out[i]` first.
    fn kernel(values: Vec<CExpr>, mut body: Vec<CStmt>) -> Module {
        let param = |name: &str, ty| KernelParam {
            name: name.into(),
            ty,
        };
        let stores = values
            .into_iter()
            .enumerate()
            .map(|(i, rhs)| CStmt::Assign {
                lhs: CExpr::var("out").at(CExpr::int(i as i64)),
                rhs,
            });
        body.splice(0..0, stores);
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "k".into(),
            params: vec![
                param("out", CType::pointer(CType::Float, AddrSpace::Global)),
                param("n", CType::Int),
                param("z", CType::Int),
                param("m", CType::Int),
            ],
            body,
        });
        m
    }

    /// Runs `k` on one work item, with `out` of 8 zeros, `n = 1`, `z = 0` and `m = -7`, on
    /// both engines, which must agree, and checks the static bound against the run.
    fn run(m: &Module) -> Result<Vec<f32>, VgpuError> {
        let plan = [KernelLaunchSpec {
            kernel: "k".into(),
            launch: LaunchConfig::d1(1, 1),
        }];
        let args = vec![
            KernelArg::zeros(8),
            KernelArg::Int(1),
            KernelArg::Int(0),
            KernelArg::Int(-7),
        ];
        let request = ExecutionRequest::new(m);
        let [interpreted, bytecode] = [EngineSelection::Interpreter, EngineSelection::Bytecode]
            .map(|engine| request.engine(engine).launch_sequence(&plan, args.clone()));
        assert_eq!(interpreted, bytecode);
        let mut run = interpreted?;
        // The static count is exact here, in every class.
        let counted = request.static_counters(&plan, &args)?;
        assert!(counted.exact);
        assert_eq!(counted.stages, [run.reports[0].counters]);
        Ok(run.buffers.swap_remove(0))
    }

    fn var(name: &str) -> Box<ArithExpr> {
        Box::new(ArithExpr::var(name))
    }

    #[test]
    fn a_zero_divisor_fails_the_launch_on_both_engines() {
        let index = CExpr::Index;
        for divides in [
            CExpr::var("n").div(CExpr::var("z")),
            index(ArithExpr::IntDiv(var("n"), var("z"))),
            index(ArithExpr::Mod(var("n"), var("z"))),
        ] {
            let m = kernel(vec![divides], Vec::new());
            assert_eq!(run(&m), Err(VgpuError::DivisionByZero));
        }
    }

    #[test]
    fn integer_arithmetic_is_euclidean_and_wraps_on_both_engines() {
        let (max, n) = (|| CExpr::int(i64::MAX), || CExpr::var("n"));
        let two = || Box::new(ArithExpr::cst(2));
        // for (int i = i64::MAX; i > 0; i += n) out[6] = 1.0f; runs once: the step wraps.
        let wrapping_loop = CStmt::For {
            var: "i".into(),
            init: max(),
            cond: CExpr::Bin(
                CBinOp::Gt,
                Box::new(CExpr::var("i")),
                Box::new(CExpr::int(0)),
            ),
            step: n(),
            body: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(CExpr::int(6)),
                rhs: CExpr::float(1.0),
            }],
        };
        let m = kernel(
            vec![
                max().add(n()),
                CExpr::Index(ArithExpr::Sum(vec![ArithExpr::cst(i64::MAX), *var("n")])),
                CExpr::Index(ArithExpr::IntDiv(var("m"), two())),
                CExpr::Index(ArithExpr::Mod(var("m"), two())),
                CExpr::Neg(Box::new(max().add(n()))),
                max().mul(n().add(n())),
            ],
            vec![wrapping_loop],
        );
        // `i64::MAX + 1` wraps to `i64::MIN` (so does its negation), `i64::MAX * 2` to -2;
        // `-7 / 2 == -4` and `-7 % 2 == 1`.
        let min = i64::MIN as f32;
        let out = run(&m).unwrap();
        assert_eq!(out, [min, min, -4.0, 1.0, min, -2.0, 1.0, 0.0]);
    }

    #[test]
    fn vectors_of_too_few_lanes_fail_the_launch_on_both_engines() {
        use lift_ocl::Builtin;
        let vload = |width| {
            CExpr::Builtin(
                Builtin::VLoad(width),
                vec![CExpr::int(0), CExpr::var("out")],
            )
        };
        let mismatch = VgpuError::LaneMismatch { left: 4, right: 2 };
        let m = kernel(vec![vload(4).add(vload(2))], Vec::new());
        assert_eq!(run(&m), Err(mismatch.clone()));
        // The bytecode tier takes the shape (nothing falls back to the interpreter), and a
        // right operand with lanes to spare is read up to the left one's width.
        let plan = [KernelLaunchSpec {
            kernel: "k".into(),
            launch: LaunchConfig::d1(1, 1),
        }];
        let args = vec![
            KernelArg::zeros(8),
            KernelArg::Int(1),
            KernelArg::Int(0),
            KernelArg::Int(-7),
        ];
        let collector = lift_telemetry::InMemory::new();
        let auto = ExecutionRequest::new(&m)
            .collector(&collector)
            .launch_sequence(&plan, args);
        assert_eq!(auto, Err(mismatch));
        let fallbacks = collector.events().into_iter();
        let mut fallbacks =
            fallbacks.filter(|t| matches!(t.event, lift_telemetry::Event::EngineFallback { .. }));
        assert!(fallbacks.next().is_none());
        let wider = kernel(vec![vload(2).add(vload(4))], Vec::new());
        assert!(run(&wider).is_err_and(|e| matches!(e, VgpuError::InvalidStore(_))));
    }

    #[test]
    fn integers_compare_as_integers_on_both_engines_and_in_the_static_bound() {
        // `i64::MAX` and `i64::MAX - 1` read as `f64` are the same float, so each comparison
        // here would come out the other way. The branch taken on one is what the static bound
        // counts, and `run` holds its count to the engines'.
        let (max, n) = (|| CExpr::int(i64::MAX), || CExpr::var("n"));
        let below = || max().sub(n());
        let store = |at: i64| CStmt::Assign {
            lhs: CExpr::var("out").at(CExpr::int(at)),
            rhs: CExpr::float(1.0),
        };
        let branch = CStmt::If {
            cond: max().eq(below()),
            then: vec![store(6), store(7)],
            otherwise: Some(vec![store(7)]),
        };
        let m = kernel(
            vec![
                max().eq(below()),
                below().lt(max()),
                CExpr::Bin(CBinOp::Gt, Box::new(max()), Box::new(below())),
                max().lt(below()),
                max().eq(max()),
            ],
            vec![branch],
        );
        assert_eq!(run(&m).unwrap(), [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
    }
}
