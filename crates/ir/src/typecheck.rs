//! Type inference for the Lift IR (Section 5.1).
//!
//! Types are inferred by traversing the expression graph following the data flow: the types of
//! the root lambda's parameters are given, and every pattern's typing rule determines the type
//! of its result from the types of its arguments. Array lengths are symbolic [`ArithExpr`]s, so
//! for example `split m : [T]_n -> [[T]_m]_{n/m}` introduces the quotient `n/m` which later
//! drives memory allocation and index generation.

use std::fmt;

use lift_arith::ArithExpr;

use crate::node::{ExprId, ExprKind, FunDecl, FunDeclId, PadMode, Pattern, Program};
use crate::scalar::UserFun;
use crate::types::Type;

/// Errors reported by type inference.
#[derive(Clone, Debug, PartialEq)]
pub enum TypeError {
    /// A function was applied to the wrong number of arguments.
    WrongArity {
        /// Name of the function or pattern.
        function: String,
        /// Number of arguments expected.
        expected: usize,
        /// Number of arguments found at the call site.
        found: usize,
    },
    /// An argument had an unexpected type.
    Mismatch {
        /// Description of the context in which the mismatch occurred.
        context: String,
        /// The type that was expected.
        expected: String,
        /// The type that was found.
        found: String,
    },
    /// A pattern that requires an array argument received a non-array value.
    NotAnArray {
        /// Name of the pattern.
        pattern: String,
        /// The offending type.
        found: String,
    },
    /// Zipped arrays have different lengths.
    ZipLengthMismatch {
        /// The first length.
        first: String,
        /// The mismatching length.
        other: String,
    },
    /// A tuple projection used an out-of-range component index.
    TupleIndexOutOfRange {
        /// The requested component.
        index: usize,
        /// The tuple arity.
        arity: usize,
    },
    /// A parameter was used before any call gave it a type.
    UntypedParam {
        /// The parameter name.
        name: String,
    },
    /// A mirror `pad` whose amounts are not provably within one array length. A single
    /// reflection only reaches `n` elements past either end; beyond that the emitted index
    /// formula would leave the buffer, so — like the slide side condition below — the
    /// obligation is discharged at the type level where every layer can rely on it.
    MirrorPadTooWide {
        /// The pad amounts.
        left: String,
        /// The pad amounts.
        right: String,
        /// The array length.
        len: String,
    },
    /// `slide(size, step)` over an array whose length does not satisfy
    /// `(len - size) mod step == 0` provably. The window-count type `(len - size)/step + 1`
    /// and the interpreter's greedy window enumeration only provably agree (and compose with
    /// the divisibility-based simplification rules) when the step divides the slack exactly,
    /// so anything else is rejected up front instead of mis-counting windows downstream.
    SlideIndivisible {
        /// The array length.
        len: String,
        /// The window size.
        size: String,
        /// The window step.
        step: String,
    },
    /// The program has no root lambda.
    MissingRoot,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::WrongArity {
                function,
                expected,
                found,
            } => {
                write!(
                    f,
                    "`{function}` expects {expected} argument(s) but received {found}"
                )
            }
            TypeError::Mismatch {
                context,
                expected,
                found,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            TypeError::NotAnArray { pattern, found } => {
                write!(f, "`{pattern}` requires an array argument, found {found}")
            }
            TypeError::ZipLengthMismatch { first, other } => {
                write!(f, "zip requires equal lengths, found {first} and {other}")
            }
            TypeError::TupleIndexOutOfRange { index, arity } => {
                write!(
                    f,
                    "tuple component {index} requested from a tuple of arity {arity}"
                )
            }
            TypeError::UntypedParam { name } => {
                write!(f, "parameter `{name}` was used before receiving a type")
            }
            TypeError::MirrorPadTooWide { left, right, len } => {
                write!(
                    f,
                    "padMirror({left},{right}) over an array of length {len}: a mirror \
                     reflection only reaches one array length past either end, and the pad \
                     amounts are not provably within it"
                )
            }
            TypeError::SlideIndivisible { len, size, step } => {
                write!(
                    f,
                    "slide({size},{step}) over an array of length {len}: the step must \
                     divide len - size exactly (`({len} - {size}) mod {step}` does not \
                     provably normalise to 0)"
                )
            }
            TypeError::MissingRoot => write!(f, "the program has no root lambda"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Runs type inference over the whole program, annotating every expression with its type.
///
/// # Errors
///
/// Returns a [`TypeError`] describing the first inconsistency found.
pub fn infer_types(program: &mut Program) -> Result<(), TypeError> {
    let root = program.root().ok_or(TypeError::MissingRoot)?;
    let params = program.root_params().to_vec();
    let mut arg_types = Vec::with_capacity(params.len());
    for p in &params {
        match &program.expr(*p).ty {
            Some(t) => arg_types.push(t.clone()),
            None => {
                let name = match &program.expr(*p).kind {
                    ExprKind::Param { name } => name.clone(),
                    _ => "<non-param>".to_string(),
                };
                return Err(TypeError::UntypedParam { name });
            }
        }
    }
    infer_call(program, root, &arg_types)?;
    Ok(())
}

/// Infers the type of the expression `id`, annotating it and all its children.
fn infer_expr(program: &mut Program, id: ExprId) -> Result<Type, TypeError> {
    let kind = program.expr(id).kind.clone();
    let ty = match kind {
        ExprKind::Literal(l) => l.ty(),
        ExprKind::Param { name } => match &program.expr(id).ty {
            Some(t) => t.clone(),
            None => return Err(TypeError::UntypedParam { name }),
        },
        ExprKind::FunCall { f, args } => {
            let mut arg_types = Vec::with_capacity(args.len());
            for a in &args {
                arg_types.push(infer_expr(program, *a)?);
            }
            infer_call(program, f, &arg_types)?
        }
    };
    program.expr_mut(id).ty = Some(ty.clone());
    Ok(ty)
}

/// Re-runs type inference for a call to `f` with arguments of the given types, re-annotating
/// every expression reachable from `f`'s body.
///
/// The code generator uses this when it instantiates a lambda at a different type than the
/// whole-program inference did (most prominently the body of `iterate`, which is generated
/// once for a symbolic length even though inference unrolled it).
///
/// # Errors
///
/// Returns a [`TypeError`] if the call is ill-typed.
pub fn infer_call_types(
    program: &mut Program,
    f: FunDeclId,
    arg_types: &[Type],
) -> Result<Type, TypeError> {
    infer_call(program, f, arg_types)
}

/// Infers the result type of calling `f` with arguments of the given types.
pub(crate) fn infer_call(
    program: &mut Program,
    f: FunDeclId,
    arg_types: &[Type],
) -> Result<Type, TypeError> {
    match program.decl(f).clone() {
        FunDecl::Lambda { params, body } => {
            if params.len() != arg_types.len() {
                return Err(TypeError::WrongArity {
                    function: "lambda".into(),
                    expected: params.len(),
                    found: arg_types.len(),
                });
            }
            for (p, t) in params.iter().zip(arg_types) {
                program.expr_mut(*p).ty = Some(t.clone());
            }
            infer_expr(program, body)
        }
        FunDecl::UserFun(uf) => user_fun_type(&uf, arg_types),
        FunDecl::Pattern(p) => pattern_type(&p, arg_types, |f, args| infer_call(program, *f, args)),
    }
}

/// The typing rule of a user-function call: the argument types must equal the declared
/// parameter types exactly.
///
/// # Errors
///
/// [`TypeError::WrongArity`] or [`TypeError::Mismatch`] when they do not.
pub fn user_fun_type(uf: &UserFun, arg_types: &[Type]) -> Result<Type, TypeError> {
    if uf.arity() != arg_types.len() {
        return Err(TypeError::WrongArity {
            function: uf.name().to_string(),
            expected: uf.arity(),
            found: arg_types.len(),
        });
    }
    for (expected, found) in uf.param_types().iter().zip(arg_types) {
        if expected != found {
            return Err(TypeError::Mismatch {
                context: format!("call to user function `{}`", uf.name()),
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
    }
    Ok(uf.return_type().clone())
}

/// The arith-checked `slide` side condition: `(len - size) mod step` must provably
/// normalise to the constant 0 (a step of 1 always passes because `x mod 1` folds to 0).
/// This is the same kind of proof obligation the split-join rewrite rule discharges for its
/// split factor, stated once at the type level so *both* the type-level window count
/// `(len - size)/step + 1` and the interpreter's greedy window walk describe the same set of
/// windows.
fn check_slide_divisibility(
    len: &ArithExpr,
    size: &ArithExpr,
    step: &ArithExpr,
) -> Result<(), TypeError> {
    let slack = len.clone() - size.clone();
    if (slack % step.clone()).is_cst(0) {
        Ok(())
    } else {
        Err(TypeError::SlideIndivisible {
            len: len.to_string(),
            size: size.to_string(),
            step: step.to_string(),
        })
    }
}

/// The mirror-`pad` side condition: a single reflection only reaches `len` elements past
/// either end, so both pad amounts must be provably `<= len` (clamp and wrap handle any
/// amount). Provability uses the `max` smart constructor: `max(amount, len)` collapsing to
/// `len` is exactly the range analysis proving `amount <= len`.
fn check_pad_width(
    left: &ArithExpr,
    right: &ArithExpr,
    mode: PadMode,
    len: &ArithExpr,
) -> Result<(), TypeError> {
    if mode != PadMode::Mirror {
        return Ok(());
    }
    let fits = |amount: &ArithExpr| amount.clone().max_of(len.clone()) == *len;
    if fits(left) && fits(right) {
        Ok(())
    } else {
        Err(TypeError::MirrorPadTooWide {
            left: left.to_string(),
            right: right.to_string(),
            len: len.to_string(),
        })
    }
}

/// The typing rules of the predefined patterns (Sections 3.2 and 5.1), stated once for every
/// program container: `call` types the pattern's nested function (an arena id, a boxed tree,
/// …) at the argument types the rule hands it, so each driver only supplies how *it* binds
/// lambda parameters and what it records on the way.
///
/// # Errors
///
/// The [`TypeError`] of the first violated rule, or whatever `call` returns.
pub fn pattern_type<'p, F>(
    pattern: &'p Pattern<F>,
    arg_types: &[Type],
    mut call: impl FnMut(&'p F, &[Type]) -> Result<Type, TypeError>,
) -> Result<Type, TypeError> {
    // The memory-placement wrappers are transparent: they accept whatever their nested
    // function accepts (e.g. `toPrivate(reduceSeq(f))` is called with two arguments), so
    // arity checking is deferred to the nested call.
    let transparent = matches!(
        pattern,
        Pattern::ToGlobal { .. } | Pattern::ToLocal { .. } | Pattern::ToPrivate { .. }
    );
    let expect_arity = pattern.arity();
    if !transparent && arg_types.len() != expect_arity {
        return Err(TypeError::WrongArity {
            function: pattern.name(),
            expected: expect_arity,
            found: arg_types.len(),
        });
    }
    let array_of = |t: &Type| -> Result<(Type, ArithExpr), TypeError> {
        match t.as_array() {
            Some((elem, len)) => Ok((elem.clone(), len.clone())),
            None => Err(TypeError::NotAnArray {
                pattern: pattern.name(),
                found: t.to_string(),
            }),
        }
    };

    match pattern {
        Pattern::Map { f }
        | Pattern::MapSeq { f }
        | Pattern::MapGlb { f, .. }
        | Pattern::MapWrg { f, .. }
        | Pattern::MapLcl { f, .. } => {
            let (elem, len) = array_of(&arg_types[0])?;
            let out_elem = call(f, &[elem])?;
            Ok(Type::array(out_elem, len))
        }
        Pattern::MapVec { f } => match &arg_types[0] {
            Type::Vector(kind, width) => {
                let out = call(f, &[Type::Scalar(*kind)])?;
                match out {
                    Type::Scalar(out_kind) => Ok(Type::Vector(out_kind, *width)),
                    other => Err(TypeError::Mismatch {
                        context: "mapVec function result".into(),
                        expected: "a scalar".into(),
                        found: other.to_string(),
                    }),
                }
            }
            other => Err(TypeError::Mismatch {
                context: "mapVec argument".into(),
                expected: "a vector".into(),
                found: other.to_string(),
            }),
        },
        Pattern::Reduce { f } | Pattern::ReduceSeq { f } => {
            let init = arg_types[0].clone();
            let (elem, _len) = array_of(&arg_types[1])?;
            let acc = call(f, &[init.clone(), elem])?;
            if acc != init {
                return Err(TypeError::Mismatch {
                    context: format!("{} accumulator", pattern.name()),
                    expected: init.to_string(),
                    found: acc.to_string(),
                });
            }
            Ok(Type::array(acc, 1usize))
        }
        Pattern::Id => Ok(arg_types[0].clone()),
        Pattern::Iterate { n, f } => {
            let mut current = arg_types[0].clone();
            for _ in 0..*n {
                current = call(f, &[current])?;
            }
            Ok(current)
        }
        Pattern::Split { chunk } => {
            let (elem, len) = array_of(&arg_types[0])?;
            let outer = len / chunk.clone();
            Ok(Type::array(Type::array(elem, chunk.clone()), outer))
        }
        Pattern::Join => {
            let (elem, outer) = array_of(&arg_types[0])?;
            let (inner_elem, inner) = array_of(&elem)?;
            Ok(Type::array(inner_elem, outer * inner))
        }
        Pattern::Gather { .. } | Pattern::Scatter { .. } => Ok(arg_types[0].clone()),
        Pattern::Transpose => {
            let (row, n) = array_of(&arg_types[0])?;
            let (elem, m) = array_of(&row)?;
            Ok(Type::array(Type::array(elem, n), m))
        }
        Pattern::Zip { .. } => {
            // `zip(0)` passes the arity check with no arguments but has no length to give
            // its result.
            let Some((first, rest)) = arg_types.split_first() else {
                return Err(TypeError::Mismatch {
                    context: "zip".into(),
                    expected: "at least one array".into(),
                    found: "no arguments".into(),
                });
            };
            let (elem, len) = array_of(first)?;
            let mut elems = Vec::with_capacity(arg_types.len());
            elems.push(elem);
            for t in rest {
                let (elem, l) = array_of(t)?;
                if len != l {
                    return Err(TypeError::ZipLengthMismatch {
                        first: len.to_string(),
                        other: l.to_string(),
                    });
                }
                elems.push(elem);
            }
            Ok(Type::array(Type::Tuple(elems), len))
        }
        Pattern::Get { index } => match &arg_types[0] {
            Type::Tuple(elems) => {
                elems
                    .get(*index)
                    .cloned()
                    .ok_or(TypeError::TupleIndexOutOfRange {
                        index: *index,
                        arity: elems.len(),
                    })
            }
            other => Err(TypeError::Mismatch {
                context: "get".into(),
                expected: "a tuple".into(),
                found: other.to_string(),
            }),
        },
        Pattern::Slide { size, step } => {
            let (elem, len) = array_of(&arg_types[0])?;
            check_slide_divisibility(&len, size, step)?;
            let windows = (len - size.clone()) / step.clone() + 1;
            Ok(Type::array(Type::array(elem, size.clone()), windows))
        }
        Pattern::Pad { left, right, mode } => {
            let (elem, len) = array_of(&arg_types[0])?;
            check_pad_width(left, right, *mode, &len)?;
            Ok(Type::array(elem, left.clone() + len + right.clone()))
        }
        Pattern::ToGlobal { f } | Pattern::ToLocal { f } | Pattern::ToPrivate { f } => {
            call(f, arg_types)
        }
        Pattern::AsVector { width } => {
            let (elem, len) = array_of(&arg_types[0])?;
            match elem {
                Type::Scalar(kind) => Ok(Type::array(
                    Type::Vector(kind, *width),
                    len / ArithExpr::cst(*width as i64),
                )),
                other => Err(TypeError::Mismatch {
                    context: "asVector".into(),
                    expected: "an array of scalars".into(),
                    found: other.to_string(),
                }),
            }
        }
        Pattern::AsScalar => {
            let (elem, len) = array_of(&arg_types[0])?;
            match elem {
                Type::Vector(kind, width) => Ok(Type::array(
                    Type::Scalar(kind),
                    len * ArithExpr::cst(width as i64),
                )),
                other => Err(TypeError::Mismatch {
                    context: "asScalar".into(),
                    expected: "an array of vectors".into(),
                    found: other.to_string(),
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::UserFun;

    fn float_array(len: impl Into<ArithExpr>) -> Type {
        Type::array(Type::float(), len)
    }

    #[test]
    fn high_level_map_and_reduce_type_like_their_lowered_forms() {
        let n = ArithExpr::size_var("N");
        let mut p = Program::new("t");
        let add = p.user_fun(UserFun::add());
        let red = p.reduce(add, 0.0);
        let idf = p.user_fun(UserFun::id_float());
        let m = p.map(idf);
        p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
            let mapped = p.apply1(m, params[0]);
            p.apply1(red, mapped)
        });
        infer_types(&mut p).expect("types");
        assert_eq!(*p.type_of(p.root_body()), float_array(1usize));
        assert_eq!(p.first_high_level_pattern(), Some("map".into()));
    }

    #[test]
    fn map_preserves_length() {
        let mut p = Program::new("t");
        let id = p.user_fun(UserFun::id_float());
        let m = p.map_glb(0, id);
        p.with_root(
            vec![("x", float_array(ArithExpr::size_var("N")))],
            |p, params| p.apply1(m, params[0]),
        );
        infer_types(&mut p).expect("types");
        let out = p.type_of(p.root_body());
        assert_eq!(*out, float_array(ArithExpr::size_var("N")));
    }

    #[test]
    fn split_then_join_restores_the_length() {
        // With a constant length the quotient folds and join restores the original length
        // exactly; with a symbolic length the type keeps the (n/m)*m form because the type
        // system does not assume divisibility.
        let mut p = Program::new("t");
        let s = p.split(32usize);
        let j = p.join();
        p.with_root(vec![("x", float_array(1024usize))], |p, params| {
            let split = p.apply1(s, params[0]);
            p.apply1(j, split)
        });
        infer_types(&mut p).expect("types");
        assert_eq!(*p.type_of(p.root_body()), float_array(1024usize));

        let mut p = Program::new("t2");
        let n = ArithExpr::size_var("N");
        let s = p.split(32usize);
        let j = p.join();
        p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
            let split = p.apply1(s, params[0]);
            p.apply1(j, split)
        });
        infer_types(&mut p).expect("types");
        assert_eq!(*p.type_of(p.root_body()), float_array((n / 32) * 32));
    }

    #[test]
    fn split_introduces_the_quotient_length() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let s = p.split(128usize);
        p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
            p.apply1(s, params[0])
        });
        infer_types(&mut p).expect("types");
        let t = p.type_of(p.root_body()).clone();
        let (inner, outer) = t.as_array().expect("outer array");
        assert_eq!(*outer, n / 128);
        assert_eq!(*inner, float_array(128usize));
    }

    #[test]
    fn zip_requires_equal_lengths() {
        let mut p = Program::new("t");
        let z = p.zip2();
        p.with_root(
            vec![
                ("x", float_array(ArithExpr::size_var("N"))),
                ("y", float_array(ArithExpr::size_var("M"))),
            ],
            |p, params| p.apply(z, [params[0], params[1]]),
        );
        let err = infer_types(&mut p).unwrap_err();
        assert!(matches!(err, TypeError::ZipLengthMismatch { .. }));

        // `zip(0)` applied to nothing passes the arity check (0 == 0) and has no length to
        // give its result: a typed error, where the checker used to panic.
        let mut p = Program::new("t0");
        let z = p.zip(0);
        p.with_root(vec![], |p, _| p.apply(z, []));
        let err = infer_types(&mut p).unwrap_err();
        assert!(matches!(err, TypeError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("zip"), "{err}");
    }

    #[test]
    fn zip_produces_an_array_of_pairs() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let z = p.zip2();
        p.with_root(
            vec![("x", float_array(n.clone())), ("y", float_array(n.clone()))],
            |p, params| p.apply(z, [params[0], params[1]]),
        );
        infer_types(&mut p).expect("types");
        let t = p.type_of(p.root_body()).clone();
        assert_eq!(t, Type::array(Type::pair(Type::float(), Type::float()), n));
    }

    #[test]
    fn reduce_produces_a_singleton_array() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let add = p.user_fun(UserFun::add());
        let red = p.reduce_seq(add, 0.0);
        p.with_root(vec![("x", float_array(n))], |p, params| {
            p.apply1(red, params[0])
        });
        infer_types(&mut p).expect("types");
        assert_eq!(*p.type_of(p.root_body()), float_array(1usize));
    }

    #[test]
    fn reduce_with_wrong_accumulator_type_fails() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        // `mult_pair` has the wrong shape for a reduction function.
        let bad = p.user_fun(UserFun::mult_pair());
        let pattern = p.reduce_seq_pattern(bad);
        p.with_root(vec![("x", float_array(n))], |p, params| {
            let init = p.literal_f32(0.0);
            p.apply(pattern, [init, params[0]])
        });
        assert!(infer_types(&mut p).is_err());
    }

    #[test]
    fn transpose_swaps_dimensions() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let m = ArithExpr::size_var("M");
        let t = p.transpose();
        p.with_root(
            vec![(
                "x",
                Type::array(Type::array(Type::float(), m.clone()), n.clone()),
            )],
            |p, params| p.apply1(t, params[0]),
        );
        infer_types(&mut p).expect("types");
        assert_eq!(
            *p.type_of(p.root_body()),
            Type::array(Type::array(Type::float(), n), m)
        );
    }

    #[test]
    fn slide_computes_window_count() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let s = p.slide(3usize, 1usize);
        p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
            p.apply1(s, params[0])
        });
        infer_types(&mut p).expect("types");
        let t = p.type_of(p.root_body()).clone();
        let (inner, windows) = t.as_array().expect("array");
        assert_eq!(*windows, (n - 3) / 1 + 1);
        assert_eq!(*inner, float_array(3usize));
    }

    #[test]
    fn slide_with_indivisible_step_is_a_typed_error() {
        // slide(3, 2) over [float]_6: (6 - 3) mod 2 = 1, so the type-level window count
        // (floor quotient) and the greedy window walk would describe different coverage of
        // the array; the checker rejects it. (The matching interpreter check is pinned in
        // `lift-interp`.)
        let mut p = Program::new("t");
        let s = p.slide(3usize, 2usize);
        p.with_root(vec![("x", float_array(6usize))], |p, params| {
            p.apply1(s, params[0])
        });
        let err = infer_types(&mut p).unwrap_err();
        assert!(matches!(err, TypeError::SlideIndivisible { .. }), "{err}");
        assert!(err.to_string().contains("mod 2"), "{err}");

        // A divisible step passes: slide(3, 2) over [float]_7 has (7-3) mod 2 = 0.
        let mut p = Program::new("t2");
        let s = p.slide(3usize, 2usize);
        p.with_root(vec![("x", float_array(7usize))], |p, params| {
            p.apply1(s, params[0])
        });
        infer_types(&mut p).expect("divisible slide types");
        let t = p.type_of(p.root_body()).clone();
        let (_, windows) = t.as_array().expect("array");
        assert_eq!(*windows, ArithExpr::cst(3));

        // A symbolic length with step 1 still passes ((N - 3) mod 1 folds to 0).
        let mut p = Program::new("t3");
        let s = p.slide(3usize, 1usize);
        p.with_root(
            vec![("x", float_array(ArithExpr::size_var("N")))],
            |p, params| p.apply1(s, params[0]),
        );
        infer_types(&mut p).expect("unit-step slide types");
    }

    #[test]
    fn pad_extends_the_length() {
        use crate::node::PadMode;
        // Clamp and wrap pad any symbolic length; mirror needs the amounts provably within
        // one array length, so it is checked on a concrete one.
        let n = ArithExpr::size_var("N");
        for mode in [PadMode::Clamp, PadMode::Wrap] {
            let mut p = Program::new("t");
            let pad = p.pad(2usize, 3usize, mode);
            p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
                p.apply1(pad, params[0])
            });
            infer_types(&mut p).expect("pad types");
            assert_eq!(*p.type_of(p.root_body()), float_array(n.clone() + 5));
        }
        let mut p = Program::new("t");
        let pad = p.pad(2usize, 3usize, PadMode::Mirror);
        p.with_root(vec![("x", float_array(8usize))], |p, params| {
            p.apply1(pad, params[0])
        });
        infer_types(&mut p).expect("mirror pad types");
        assert_eq!(*p.type_of(p.root_body()), float_array(13usize));
    }

    #[test]
    fn mirror_pad_wider_than_the_array_is_a_typed_error() {
        use crate::node::PadMode;
        // A single reflection only reaches one array length past either end; the checker
        // rejects pad amounts beyond it (the interpreter enforces the same bound), so the
        // out-of-range mirror index formula can never be emitted.
        let mut p = Program::new("t");
        let pad = p.pad(3usize, 0usize, PadMode::Mirror);
        p.with_root(vec![("x", float_array(2usize))], |p, params| {
            p.apply1(pad, params[0])
        });
        let err = infer_types(&mut p).unwrap_err();
        assert!(matches!(err, TypeError::MirrorPadTooWide { .. }), "{err}");

        // Clamp and wrap handle any amount.
        for mode in [PadMode::Clamp, PadMode::Wrap] {
            let mut p = Program::new("t2");
            let pad = p.pad(3usize, 5usize, mode);
            p.with_root(vec![("x", float_array(2usize))], |p, params| {
                p.apply1(pad, params[0])
            });
            infer_types(&mut p).expect("clamp/wrap pads of any width type");
        }

        // A symbolic length admits a provably-smaller constant amount (1 <= N for a size
        // variable) but rejects what cannot be proven.
        let n = ArithExpr::size_var("N");
        let mut p = Program::new("t3");
        let pad = p.pad(1usize, 1usize, PadMode::Mirror);
        p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
            p.apply1(pad, params[0])
        });
        infer_types(&mut p).expect("mirror pad of 1 over [float]_N types");
        let mut p = Program::new("t4");
        let pad = p.pad(2usize, 0usize, PadMode::Mirror);
        p.with_root(vec![("x", float_array(n))], |p, params| {
            p.apply1(pad, params[0])
        });
        assert!(matches!(
            infer_types(&mut p).unwrap_err(),
            TypeError::MirrorPadTooWide { .. }
        ));
    }

    #[test]
    fn pad_then_slide_covers_every_input_position() {
        // pad(1, 1) then slide(3, 1): [float]_N -> [float]_{N+2} -> N windows of 3 — the
        // canonical boundary-handled stencil shape.
        let n = ArithExpr::size_var("N");
        let mut p = Program::new("t");
        let pad = p.pad(1usize, 1usize, crate::node::PadMode::Clamp);
        let s = p.slide(3usize, 1usize);
        p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
            let padded = p.apply1(pad, params[0]);
            p.apply1(s, padded)
        });
        infer_types(&mut p).expect("types");
        let t = p.type_of(p.root_body()).clone();
        let (inner, windows) = t.as_array().expect("array");
        assert_eq!(*windows, n);
        assert_eq!(*inner, float_array(3usize));
    }

    #[test]
    fn slide2d_produces_square_neighbourhoods() {
        use crate::node::PadMode;
        // pad2d(1,1) then slide2d(3,1) over an 4×6 grid: one 3×3 window per grid point.
        let mut p = Program::new("t");
        let pad = p.pad2d(1usize, 1usize, PadMode::Clamp);
        let s2 = p.slide2d(3usize, 1usize);
        p.with_root(
            vec![("x", Type::array(float_array(6usize), 4usize))],
            |p, params| {
                let padded = p.apply1(pad, params[0]);
                p.apply1(s2, padded)
            },
        );
        infer_types(&mut p).expect("types");
        assert_eq!(
            *p.type_of(p.root_body()),
            Type::array(
                Type::array(Type::array(float_array(3usize), 3usize), 6usize),
                4usize
            )
        );
    }

    #[test]
    fn iterate_applies_the_length_change_repeatedly() {
        let mut p = Program::new("t");
        // iterate 3 (join . map(reduce(add, 0)) . split 2): halves the length each time.
        let add = p.user_fun(UserFun::add());
        let red = p.reduce_seq(add, 0.0);
        let m = p.map_seq(red);
        let s = p.split(2usize);
        let j = p.join();
        let body = p.compose(&[j, m, s]);
        let it = p.iterate(3, body);
        p.with_root(vec![("x", float_array(64usize))], |p, params| {
            p.apply1(it, params[0])
        });
        infer_types(&mut p).expect("types");
        assert_eq!(*p.type_of(p.root_body()), float_array(8usize));
    }

    #[test]
    fn vectorisation_round_trip() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let av = p.as_vector(4);
        let asc = p.as_scalar();
        p.with_root(vec![("x", float_array(n.clone()))], |p, params| {
            let v = p.apply1(av, params[0]);
            p.apply1(asc, v)
        });
        infer_types(&mut p).expect("types");
        assert_eq!(*p.type_of(p.root_body()), float_array((n / 4) * 4));
    }

    #[test]
    fn get_projects_tuple_components() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let z = p.zip2();
        let g0 = p.get(0);
        let lam = p.lambda(&["pair"], |p, params| p.apply1(g0, params[0]));
        let m = p.map_glb(0, lam);
        p.with_root(
            vec![("x", float_array(n.clone())), ("y", float_array(n.clone()))],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                p.apply1(m, zipped)
            },
        );
        infer_types(&mut p).expect("types");
        assert_eq!(*p.type_of(p.root_body()), float_array(n));
    }

    #[test]
    fn get_out_of_range_fails() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let z = p.zip2();
        let g9 = p.get(9);
        let lam = p.lambda(&["pair"], |p, params| p.apply1(g9, params[0]));
        let m = p.map_glb(0, lam);
        p.with_root(
            vec![("x", float_array(n.clone())), ("y", float_array(n))],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                p.apply1(m, zipped)
            },
        );
        let err = infer_types(&mut p).unwrap_err();
        assert!(matches!(
            err,
            TypeError::TupleIndexOutOfRange { index: 9, arity: 2 }
        ));
    }

    #[test]
    fn user_fun_argument_mismatch_is_reported() {
        let mut p = Program::new("t");
        let n = ArithExpr::size_var("N");
        let add = p.user_fun(UserFun::add());
        let m = p.map_glb(0, add); // add needs 2 args but map provides 1
        p.with_root(vec![("x", float_array(n))], |p, params| {
            p.apply1(m, params[0])
        });
        let err = infer_types(&mut p).unwrap_err();
        assert!(matches!(err, TypeError::WrongArity { .. }), "got {err:?}");
        assert!(err.to_string().contains("add"));
    }

    #[test]
    fn missing_root_is_an_error() {
        let mut p = Program::new("t");
        assert_eq!(infer_types(&mut p).unwrap_err(), TypeError::MissingRoot);
    }

    #[test]
    fn listing1_dot_product_types() {
        // The partial dot product of Listing 1 (work-group size 128, iterate 6).
        let n = ArithExpr::size_var("N");
        let mut p = Program::new("partialDot");
        let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
        let add = p.user_fun(UserFun::add());

        // Step 1 inside the work group: split2 . mapLcl(toLocal(mapSeq(id)) . reduceSeq(...)) . join
        let red1 = p.reduce_seq(mult_add, 0.0);
        let copy_l1 = p.copy_to_local();
        let step1_f = p.compose(&[copy_l1, red1]);
        let step1_map = p.map_lcl(0, step1_f);
        let s2a = p.split(2usize);
        let j1 = p.join();
        let step1 = p.compose(&[j1, step1_map, s2a]);

        // Step 2: iterate6(join . mapLcl(toLocal(mapSeq(id)) . reduceSeq(add, 0)) . split2)
        let red2 = p.reduce_seq(add, 0.0);
        let copy_l2 = p.copy_to_local();
        let step2_f = p.compose(&[copy_l2, red2]);
        let step2_map = p.map_lcl(0, step2_f);
        let s2b = p.split(2usize);
        let j2 = p.join();
        let iter_body = p.compose(&[j2, step2_map, s2b]);
        let step2 = p.iterate(6, iter_body);

        // Step 3: join . toGlobal(mapLcl(mapSeq(id))) . split1
        let idf = p.user_fun(UserFun::id_float());
        let mseq = p.map_seq(idf);
        let mlcl = p.map_lcl(0, mseq);
        let copy_g = p.to_global(mlcl);
        let s1 = p.split(1usize);
        let j3 = p.join();
        let step3 = p.compose(&[j3, copy_g, s1]);

        let wg_body = p.compose(&[step3, step2, step1]);
        let wg = p.map_wrg(0, wg_body);
        let s128 = p.split(128usize);
        let jout = p.join();
        let z = p.zip2();
        p.with_root(
            vec![("x", float_array(n.clone())), ("y", float_array(n.clone()))],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                let split = p.apply1(s128, zipped);
                let mapped = p.apply1(wg, split);
                p.apply1(jout, mapped)
            },
        );
        infer_types(&mut p).expect("dot product types");
        // One partial result per work group.
        assert_eq!(*p.type_of(p.root_body()), float_array(n / 128));
    }
}
