//! The reference interpreter.
//!
//! Every pattern of the Lift IL has a simple denotational semantics over host values (the
//! diagrams of Section 3.2). The interpreter implements exactly that semantics and serves as
//! the ground truth the generated OpenCL kernels are tested against: for every benchmark the
//! virtual-GPU execution of the compiled kernel must agree with the interpreter.

use std::collections::HashMap;
use std::fmt;

use lift_arith::{ArithExpr, Environment};
use lift_ir::{
    BinOp, ExprId, ExprKind, FunDecl, FunDeclId, Literal, Pattern, Program, Reorder, ScalarExpr,
    UnOp,
};

use crate::value::Value;

/// Errors raised during interpretation.
#[derive(Clone, Debug, PartialEq)]
pub enum InterpError {
    /// The program has no root lambda.
    MissingRoot,
    /// The number of provided inputs does not match the root lambda.
    WrongArgumentCount {
        /// Parameters expected by the root lambda.
        expected: usize,
        /// Inputs provided.
        found: usize,
    },
    /// A value had the wrong shape for the pattern consuming it.
    ShapeMismatch {
        /// Description of the context.
        context: String,
    },
    /// A symbolic size could not be evaluated to a concrete number.
    SymbolicSize(String),
    /// Division of an array into chunks that do not divide its length.
    NotDivisible {
        /// The array length.
        len: usize,
        /// The chunk size.
        chunk: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingRoot => write!(f, "the program has no root lambda"),
            InterpError::WrongArgumentCount { expected, found } => {
                write!(f, "expected {expected} inputs, found {found}")
            }
            InterpError::ShapeMismatch { context } => write!(f, "shape mismatch in {context}"),
            InterpError::SymbolicSize(e) => {
                write!(f, "could not evaluate symbolic size `{e}` to a constant")
            }
            InterpError::NotDivisible { len, chunk } => {
                write!(
                    f,
                    "cannot split an array of length {len} into chunks of {chunk}"
                )
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Evaluates a program whose sizes are all compile-time constants.
///
/// # Errors
///
/// See [`evaluate_with_sizes`].
pub fn evaluate(program: &Program, args: &[Value]) -> Result<Value, InterpError> {
    evaluate_with_sizes(program, args, &Environment::new())
}

/// Evaluates a program, resolving symbolic sizes (`N`, `M`, …) with the given environment.
///
/// # Errors
///
/// Returns an [`InterpError`] if the inputs do not match the program or a pattern receives a
/// value of the wrong shape.
pub fn evaluate_with_sizes(
    program: &Program,
    args: &[Value],
    sizes: &Environment,
) -> Result<Value, InterpError> {
    let root = program.root().ok_or(InterpError::MissingRoot)?;
    let params = program.root_params();
    if params.len() != args.len() {
        return Err(InterpError::WrongArgumentCount {
            expected: params.len(),
            found: args.len(),
        });
    }
    let mut interp = Interpreter {
        program,
        sizes,
        env: HashMap::new(),
    };
    interp.apply_fun(root, args.to_vec())
}

struct Interpreter<'a> {
    program: &'a Program,
    sizes: &'a Environment,
    env: HashMap<ExprId, Value>,
}

impl<'a> Interpreter<'a> {
    fn eval_size(&self, e: &ArithExpr) -> Result<usize, InterpError> {
        e.evaluate(self.sizes)
            .map_err(|_| InterpError::SymbolicSize(e.to_string()))
            .and_then(|v| usize::try_from(v).map_err(|_| InterpError::SymbolicSize(e.to_string())))
    }

    fn eval_expr(&mut self, id: ExprId) -> Result<Value, InterpError> {
        match &self.program.expr(id).kind {
            ExprKind::Literal(Literal::Float(v)) => Ok(Value::Float(*v)),
            ExprKind::Literal(Literal::Int(v)) => Ok(Value::Int(*v)),
            ExprKind::Param { name } => {
                self.env
                    .get(&id)
                    .cloned()
                    .ok_or_else(|| InterpError::ShapeMismatch {
                        context: format!("unbound parameter `{name}`"),
                    })
            }
            ExprKind::FunCall { f, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_expr(*a)?);
                }
                self.apply_fun(*f, vals)
            }
        }
    }

    fn apply_fun(&mut self, f: FunDeclId, args: Vec<Value>) -> Result<Value, InterpError> {
        match self.program.decl(f) {
            FunDecl::Lambda { params, body } => {
                if params.len() != args.len() {
                    return Err(InterpError::WrongArgumentCount {
                        expected: params.len(),
                        found: args.len(),
                    });
                }
                // Save and restore previous bindings so that recursive uses of the same lambda
                // (e.g. under `iterate`) do not clobber each other.
                let saved: Vec<Option<Value>> =
                    params.iter().map(|p| self.env.get(p).cloned()).collect();
                for (p, v) in params.iter().zip(args) {
                    self.env.insert(*p, v);
                }
                let result = self.eval_expr(*body);
                for (p, old) in params.iter().zip(saved) {
                    match old {
                        Some(v) => {
                            self.env.insert(*p, v);
                        }
                        None => {
                            self.env.remove(p);
                        }
                    }
                }
                result
            }
            FunDecl::UserFun(uf) => Ok(eval_scalar(uf.body(), &args)),
            FunDecl::Pattern(p) => self.apply_pattern(&p.clone(), args),
        }
    }

    fn expect_array(&self, v: Value, context: &str) -> Result<Vec<Value>, InterpError> {
        match v {
            Value::Array(vs) => Ok(vs),
            _ => Err(InterpError::ShapeMismatch {
                context: context.to_string(),
            }),
        }
    }

    fn apply_pattern(
        &mut self,
        pattern: &Pattern,
        mut args: Vec<Value>,
    ) -> Result<Value, InterpError> {
        match pattern {
            Pattern::Map { f }
            | Pattern::MapSeq { f }
            | Pattern::MapGlb { f, .. }
            | Pattern::MapWrg { f, .. }
            | Pattern::MapLcl { f, .. } => {
                let xs = self.expect_array(args.remove(0), "map input")?;
                let mut out = Vec::with_capacity(xs.len());
                for x in xs {
                    out.push(self.apply_fun(*f, vec![x])?);
                }
                Ok(Value::Array(out))
            }
            Pattern::MapVec { f } => match args.remove(0) {
                Value::Vector(lanes) => {
                    let mut out = Vec::with_capacity(lanes.len());
                    for lane in lanes {
                        out.push(self.apply_fun(*f, vec![lane])?);
                    }
                    Ok(Value::Vector(out))
                }
                _ => Err(InterpError::ShapeMismatch {
                    context: "mapVec input".into(),
                }),
            },
            Pattern::Reduce { f } | Pattern::ReduceSeq { f } => {
                let [mut acc, input] =
                    <[Value; 2]>::try_from(args).map_err(|_| InterpError::ShapeMismatch {
                        context: "reduce arguments".into(),
                    })?;
                let xs = self.expect_array(input, "reduce input")?;
                for x in xs {
                    acc = self.apply_fun(*f, vec![acc, x])?;
                }
                Ok(Value::Array(vec![acc]))
            }
            Pattern::Id => Ok(args.remove(0)),
            Pattern::Iterate { n, f } => {
                let mut v = args.remove(0);
                for _ in 0..*n {
                    v = self.apply_fun(*f, vec![v])?;
                }
                Ok(v)
            }
            Pattern::Split { chunk } => {
                let xs = self.expect_array(args.remove(0), "split input")?;
                let chunk = self.eval_size(chunk)?;
                if chunk == 0 || !xs.len().is_multiple_of(chunk) {
                    return Err(InterpError::NotDivisible {
                        len: xs.len(),
                        chunk,
                    });
                }
                Ok(Value::Array(
                    xs.chunks_exact(chunk)
                        .map(|c| Value::Array(c.to_vec()))
                        .collect(),
                ))
            }
            Pattern::Join => {
                let xs = self.expect_array(args.remove(0), "join input")?;
                let mut out = Vec::new();
                for x in xs {
                    out.extend(self.expect_array(x, "join inner input")?);
                }
                Ok(Value::Array(out))
            }
            Pattern::Gather { reorder } => {
                let xs = self.expect_array(args.remove(0), "gather input")?;
                let n = xs.len();
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(xs[self.reorder_index(reorder, i, n)?].clone());
                }
                Ok(Value::Array(out))
            }
            Pattern::Scatter { reorder } => {
                let xs = self.expect_array(args.remove(0), "scatter input")?;
                let n = xs.len();
                let mut out = vec![Value::Float(0.0); n];
                for (i, x) in xs.into_iter().enumerate() {
                    let j = self.reorder_index(reorder, i, n)?;
                    out[j] = x;
                }
                Ok(Value::Array(out))
            }
            Pattern::Transpose => {
                let rows = self.expect_array(args.remove(0), "transpose input")?;
                let row_vals: Vec<Vec<Value>> = rows
                    .into_iter()
                    .map(|r| self.expect_array(r, "transpose row"))
                    .collect::<Result<_, _>>()?;
                let n = row_vals.len();
                let m = row_vals.first().map_or(0, Vec::len);
                let mut out = vec![Vec::with_capacity(n); m];
                for row in &row_vals {
                    if row.len() != m {
                        return Err(InterpError::ShapeMismatch {
                            context: "ragged matrix in transpose".into(),
                        });
                    }
                    for (j, v) in row.iter().enumerate() {
                        out[j].push(v.clone());
                    }
                }
                Ok(Value::Array(out.into_iter().map(Value::Array).collect()))
            }
            Pattern::Zip { arity } => {
                let arrays: Vec<Vec<Value>> = args
                    .into_iter()
                    .map(|a| self.expect_array(a, "zip input"))
                    .collect::<Result<_, _>>()?;
                if arrays.len() != *arity {
                    return Err(InterpError::ShapeMismatch {
                        context: "zip arity".into(),
                    });
                }
                let len = arrays.first().map_or(0, Vec::len);
                if arrays.iter().any(|a| a.len() != len) {
                    return Err(InterpError::ShapeMismatch {
                        context: "zip lengths".into(),
                    });
                }
                let mut out = Vec::with_capacity(len);
                for i in 0..len {
                    out.push(Value::Tuple(arrays.iter().map(|a| a[i].clone()).collect()));
                }
                Ok(Value::Array(out))
            }
            Pattern::Get { index } => match args.remove(0) {
                Value::Tuple(vs) => vs.get(*index).cloned().ok_or(InterpError::ShapeMismatch {
                    context: format!("tuple projection {index}"),
                }),
                _ => Err(InterpError::ShapeMismatch {
                    context: "get input".into(),
                }),
            },
            Pattern::Slide { size, step } => {
                let xs = self.expect_array(args.remove(0), "slide input")?;
                let size = self.eval_size(size)?;
                let step = self.eval_size(step)?;
                if step == 0 || size == 0 || size > xs.len() {
                    return Err(InterpError::ShapeMismatch {
                        context: "slide window".into(),
                    });
                }
                // The same side condition the type checker enforces: the step must divide
                // the slack exactly, so the greedy window walk below and the type-level
                // window count `(len - size)/step + 1` agree. A regression test pins the
                // two layers against each other.
                if !(xs.len() - size).is_multiple_of(step) {
                    return Err(InterpError::NotDivisible {
                        len: xs.len() - size,
                        chunk: step,
                    });
                }
                let mut out = Vec::new();
                let mut start = 0;
                while start + size <= xs.len() {
                    out.push(Value::Array(xs[start..start + size].to_vec()));
                    start += step;
                }
                Ok(Value::Array(out))
            }
            Pattern::Pad { left, right, mode } => {
                let xs = self.expect_array(args.remove(0), "pad input")?;
                let left = self.eval_size(left)?;
                let right = self.eval_size(right)?;
                let n = xs.len() as i64;
                if n == 0 {
                    return Err(InterpError::ShapeMismatch {
                        context: "pad of an empty array".into(),
                    });
                }
                // Clamp and wrap handle any amount; a mirror reflection only reaches one
                // array length past either end.
                if *mode == lift_ir::PadMode::Mirror && (left as i64 > n || right as i64 > n) {
                    return Err(InterpError::ShapeMismatch {
                        context: "mirror pad wider than the array".into(),
                    });
                }
                let mut out = Vec::with_capacity(left + xs.len() + right);
                for j in 0..(left + xs.len() + right) as i64 {
                    let src = mode.source_index(j - left as i64, n);
                    out.push(xs[src as usize].clone());
                }
                Ok(Value::Array(out))
            }
            Pattern::ToGlobal { f } | Pattern::ToLocal { f } | Pattern::ToPrivate { f } => {
                self.apply_fun(*f, args)
            }
            Pattern::AsVector { width } => {
                let xs = self.expect_array(args.remove(0), "asVector input")?;
                if *width == 0 || !xs.len().is_multiple_of(*width) {
                    return Err(InterpError::NotDivisible {
                        len: xs.len(),
                        chunk: *width,
                    });
                }
                Ok(Value::Array(
                    xs.chunks_exact(*width)
                        .map(|c| Value::Vector(c.to_vec()))
                        .collect(),
                ))
            }
            Pattern::AsScalar => {
                let xs = self.expect_array(args.remove(0), "asScalar input")?;
                let mut out = Vec::new();
                for x in xs {
                    match x {
                        Value::Vector(lanes) => out.extend(lanes),
                        other => out.push(other),
                    }
                }
                Ok(Value::Array(out))
            }
        }
    }

    fn reorder_index(&self, reorder: &Reorder, i: usize, n: usize) -> Result<usize, InterpError> {
        Ok(match reorder {
            Reorder::Identity => i,
            Reorder::Reverse => n - 1 - i,
            Reorder::Stride(s) => {
                let s = self.eval_size(s)?;
                if s == 0 || !n.is_multiple_of(s) {
                    return Err(InterpError::NotDivisible { len: n, chunk: s });
                }
                (i % s) * (n / s) + i / s
            }
        })
    }
}

/// Evaluates a user-function body over already evaluated argument values.
pub fn eval_scalar(body: &ScalarExpr, args: &[Value]) -> Value {
    match body {
        ScalarExpr::Param(i) => args[*i].clone(),
        ScalarExpr::ConstFloat(v) => Value::Float(*v as f32),
        ScalarExpr::ConstInt(v) => Value::Int(*v),
        ScalarExpr::Get(e, i) => match eval_scalar(e, args) {
            Value::Tuple(vs) | Value::Vector(vs) => vs[*i].clone(),
            other => other,
        },
        ScalarExpr::Tuple(es) => Value::Tuple(es.iter().map(|e| eval_scalar(e, args)).collect()),
        ScalarExpr::Bin(op, a, b) => {
            let a = scalar_f32(&eval_scalar(a, args));
            let b = scalar_f32(&eval_scalar(b, args));
            Value::Float(apply_bin(*op, a, b))
        }
        ScalarExpr::Un(op, a) => {
            let a = scalar_f32(&eval_scalar(a, args));
            Value::Float(apply_un(*op, a))
        }
        ScalarExpr::Select(c, t, e) => {
            if scalar_f32(&eval_scalar(c, args)) != 0.0 {
                eval_scalar(t, args)
            } else {
                eval_scalar(e, args)
            }
        }
    }
}

fn scalar_f32(v: &Value) -> f32 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f32,
        Value::Bool(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        _ => f32::NAN,
    }
}

fn apply_bin(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::Lt => {
            if a < b {
                1.0
            } else {
                0.0
            }
        }
        BinOp::Gt => {
            if a > b {
                1.0
            } else {
                0.0
            }
        }
    }
}

fn apply_un(op: UnOp, a: f32) -> f32 {
    match op {
        UnOp::Neg => -a,
        UnOp::Sqrt => a.sqrt(),
        UnOp::Rsqrt => 1.0 / a.sqrt(),
        UnOp::Fabs => a.abs(),
        UnOp::Exp => a.exp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_ir::{Type, UserFun};

    fn float_array(n: impl Into<ArithExpr>) -> Type {
        Type::array(Type::float(), n)
    }

    #[test]
    fn map_applies_the_user_function() {
        let mut p = Program::new("t");
        let mult = p.user_fun(UserFun::mult_pair());
        let m = p.map_glb(0, mult);
        let z = p.zip2();
        p.with_root(
            vec![("x", float_array(4usize)), ("y", float_array(4usize))],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                p.apply1(m, zipped)
            },
        );
        let x = Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0]);
        let y = Value::from_f32_slice(&[10.0, 20.0, 30.0, 40.0]);
        let out = evaluate(&p, &[x, y]).expect("runs");
        assert_eq!(out.flatten_f32(), vec![10.0, 40.0, 90.0, 160.0]);
    }

    #[test]
    fn reduce_folds_sequentially() {
        let mut p = Program::new("t");
        let add = p.user_fun(UserFun::add());
        let r = p.reduce_seq(add, 0.0);
        p.with_root(vec![("x", float_array(5usize))], |p, params| {
            p.apply1(r, params[0])
        });
        let out = evaluate(&p, &[Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0, 5.0])]).unwrap();
        assert_eq!(out.flatten_f32(), vec![15.0]);
    }

    #[test]
    fn split_join_round_trip() {
        let mut p = Program::new("t");
        let s = p.split(2usize);
        let j = p.join();
        p.with_root(vec![("x", float_array(6usize))], |p, params| {
            let split = p.apply1(s, params[0]);
            p.apply1(j, split)
        });
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let out = evaluate(&p, &[Value::from_f32_slice(&data)]).unwrap();
        assert_eq!(out.flatten_f32(), data.to_vec());
    }

    #[test]
    fn split_of_non_divisible_length_fails() {
        let mut p = Program::new("t");
        let s = p.split(4usize);
        p.with_root(vec![("x", float_array(6usize))], |p, params| {
            p.apply1(s, params[0])
        });
        let err = evaluate(&p, &[Value::from_f32_slice(&[0.0; 6])]).unwrap_err();
        assert_eq!(err, InterpError::NotDivisible { len: 6, chunk: 4 });
    }

    #[test]
    fn gather_reverse_reverses() {
        let mut p = Program::new("t");
        let g = p.gather(Reorder::Reverse);
        p.with_root(vec![("x", float_array(4usize))], |p, params| {
            p.apply1(g, params[0])
        });
        let out = evaluate(&p, &[Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0])]).unwrap();
        assert_eq!(out.flatten_f32(), vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn scatter_is_the_inverse_of_gather_for_permutations() {
        let mut p = Program::new("t");
        let g = p.scatter(Reorder::Reverse);
        p.with_root(vec![("x", float_array(4usize))], |p, params| {
            p.apply1(g, params[0])
        });
        let out = evaluate(&p, &[Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0])]).unwrap();
        assert_eq!(out.flatten_f32(), vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn stride_gather_transposes_a_flattened_matrix() {
        // Reading a flattened 2x3 row-major matrix through gather(stride 2) yields its
        // column-major (transposed) order: the stride parameter is the number of rows.
        let mut p = Program::new("t");
        let g = p.gather(Reorder::Stride(ArithExpr::cst(2)));
        p.with_root(vec![("x", float_array(6usize))], |p, params| {
            p.apply1(g, params[0])
        });
        let out = evaluate(
            &p,
            &[Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])],
        )
        .unwrap();
        assert_eq!(out.flatten_f32(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let mut p = Program::new("t");
        let t = p.transpose();
        p.with_root(
            vec![("x", Type::array(float_array(3usize), 2usize))],
            |p, params| p.apply1(t, params[0]),
        );
        let m = Value::from_f32_matrix(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let out = evaluate(&p, &[m]).unwrap();
        assert_eq!(out.flatten_f32(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn slide_produces_overlapping_windows() {
        let mut p = Program::new("t");
        let s = p.slide(3usize, 1usize);
        p.with_root(vec![("x", float_array(5usize))], |p, params| {
            p.apply1(s, params[0])
        });
        let out = evaluate(&p, &[Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0, 5.0])]).unwrap();
        let windows = out.as_array().unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].flatten_f32(), vec![1.0, 2.0, 3.0]);
        assert_eq!(windows[2].flatten_f32(), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn slide_with_indivisible_step_fails_in_both_layers() {
        // Regression for the latent slide window-count disagreement: the type checker
        // computes `(n - size)/step + 1` windows while the interpreter slides greedily.
        // Both layers now reject a step that does not divide the slack, with the same
        // boundary: (6-3) % 2 != 0 fails, (7-3) % 2 == 0 passes.
        let mut p = Program::new("t");
        let s = p.slide(3usize, 2usize);
        p.with_root(vec![("x", float_array(6usize))], |p, params| {
            p.apply1(s, params[0])
        });
        let type_err = lift_ir::infer_types(&mut p.clone()).unwrap_err();
        assert!(
            matches!(type_err, lift_ir::TypeError::SlideIndivisible { .. }),
            "{type_err}"
        );
        let interp_err = evaluate(&p, &[Value::from_f32_slice(&[0.0; 6])]).unwrap_err();
        assert_eq!(interp_err, InterpError::NotDivisible { len: 3, chunk: 2 });

        let mut p = Program::new("t2");
        let s = p.slide(3usize, 2usize);
        p.with_root(vec![("x", float_array(7usize))], |p, params| {
            p.apply1(s, params[0])
        });
        lift_ir::infer_types(&mut p.clone()).expect("divisible slide types");
        let out = evaluate(
            &p,
            &[Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])],
        )
        .unwrap();
        let windows = out.as_array().unwrap();
        assert_eq!(windows.len(), 3); // matches the type-level (7-3)/2 + 1
        assert_eq!(windows[2].flatten_f32(), vec![5.0, 6.0, 7.0]);
    }

    #[test]
    fn pad_modes_replicate_boundary_elements() {
        use lift_ir::PadMode;
        let data = [1.0, 2.0, 3.0, 4.0];
        let run = |mode: PadMode, left: usize, right: usize| {
            let mut p = Program::new("t");
            let pad = p.pad(left, right, mode);
            p.with_root(vec![("x", float_array(data.len()))], |p, params| {
                p.apply1(pad, params[0])
            });
            evaluate(&p, &[Value::from_f32_slice(&data)])
                .unwrap()
                .flatten_f32()
        };
        assert_eq!(
            run(PadMode::Clamp, 2, 2),
            vec![1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0]
        );
        assert_eq!(
            run(PadMode::Mirror, 2, 2),
            vec![2.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 3.0]
        );
        assert_eq!(
            run(PadMode::Wrap, 2, 2),
            vec![3.0, 4.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0]
        );
        // Asymmetric amounts pad each side independently.
        assert_eq!(run(PadMode::Clamp, 1, 0), vec![1.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pad_then_slide_is_a_boundary_handled_stencil() {
        use lift_ir::PadMode;
        // pad(1,1,clamp) then slide(3,1) over [1,2,3]: windows centred on every element.
        let mut p = Program::new("t");
        let pad = p.pad(1usize, 1usize, PadMode::Clamp);
        let s = p.slide(3usize, 1usize);
        p.with_root(vec![("x", float_array(3usize))], |p, params| {
            let padded = p.apply1(pad, params[0]);
            p.apply1(s, padded)
        });
        let out = evaluate(&p, &[Value::from_f32_slice(&[1.0, 2.0, 3.0])]).unwrap();
        let windows = out.as_array().unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].flatten_f32(), vec![1.0, 1.0, 2.0]);
        assert_eq!(windows[1].flatten_f32(), vec![1.0, 2.0, 3.0]);
        assert_eq!(windows[2].flatten_f32(), vec![2.0, 3.0, 3.0]);
    }

    #[test]
    fn mirror_pad_wider_than_the_array_is_rejected() {
        use lift_ir::PadMode;
        let mut p = Program::new("t");
        let pad = p.pad(3usize, 0usize, PadMode::Mirror);
        p.with_root(vec![("x", float_array(2usize))], |p, params| {
            p.apply1(pad, params[0])
        });
        let err = evaluate(&p, &[Value::from_f32_slice(&[1.0, 2.0])]).unwrap_err();
        assert!(matches!(err, InterpError::ShapeMismatch { .. }));
    }

    #[test]
    fn iterate_reapplies_its_function() {
        let mut p = Program::new("t");
        let add = p.user_fun(UserFun::add());
        let red = p.reduce_seq(add, 0.0);
        let m = p.map_seq(red);
        let s = p.split(2usize);
        let j = p.join();
        let body = p.compose(&[j, m, s]);
        let it = p.iterate(3, body);
        p.with_root(vec![("x", float_array(8usize))], |p, params| {
            p.apply1(it, params[0])
        });
        let out = evaluate(&p, &[Value::from_f32_slice(&[1.0; 8])]).unwrap();
        assert_eq!(out.flatten_f32(), vec![8.0]);
    }

    #[test]
    fn vectorisation_round_trips() {
        let mut p = Program::new("t");
        let av = p.as_vector(4);
        let asc = p.as_scalar();
        p.with_root(vec![("x", float_array(8usize))], |p, params| {
            let v = p.apply1(av, params[0]);
            p.apply1(asc, v)
        });
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let out = evaluate(&p, &[Value::from_f32_slice(&data)]).unwrap();
        assert_eq!(out.flatten_f32(), data.to_vec());
    }

    #[test]
    fn map_vec_applies_per_lane() {
        let mut p = Program::new("t");
        let id = p.user_fun(UserFun::id_float());
        let mv = p.map_vec(id);
        let m = p.map_seq(mv);
        let av = p.as_vector(2);
        p.with_root(vec![("x", float_array(4usize))], |p, params| {
            let v = p.apply1(av, params[0]);
            p.apply1(m, v)
        });
        let out = evaluate(&p, &[Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0])]).unwrap();
        assert_eq!(out.flatten_f32(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn symbolic_sizes_are_resolved_from_the_environment() {
        let n = ArithExpr::size_var("N");
        let mut p = Program::new("t");
        let s = p.split(n.clone() / 2);
        p.with_root(vec![("x", float_array(n))], |p, params| {
            p.apply1(s, params[0])
        });
        let sizes = Environment::new().bind("N", 8);
        let out = evaluate_with_sizes(&p, &[Value::from_f32_slice(&[0.0; 8])], &sizes).unwrap();
        assert_eq!(out.len(), Some(2));
        // Without the environment the size stays symbolic and evaluation fails.
        let err = evaluate(&p, &[Value::from_f32_slice(&[0.0; 8])]).unwrap_err();
        assert!(matches!(err, InterpError::SymbolicSize(_)));
    }

    #[test]
    fn wrong_argument_count_is_reported() {
        let mut p = Program::new("t");
        let id = p.id_pattern();
        p.with_root(vec![("x", float_array(2usize))], |p, params| {
            p.apply1(id, params[0])
        });
        let err = evaluate(&p, &[]).unwrap_err();
        assert_eq!(
            err,
            InterpError::WrongArgumentCount {
                expected: 1,
                found: 0
            }
        );
        assert!(err.to_string().contains("expected 1"));
    }

    #[test]
    fn listing1_dot_product_matches_a_direct_computation() {
        // Build the Listing 1 partial dot product for N = 256 (2 work groups) and check the
        // per-work-group partial sums against a straightforward host computation.
        let n: usize = 256;
        let mut p = Program::new("partialDot");
        let mult_add = p.user_fun(UserFun::mult_and_sum_up_pair());
        let add = p.user_fun(UserFun::add());

        let red1 = p.reduce_seq(mult_add, 0.0);
        let copy_l1 = p.copy_to_local();
        let step1_f = p.compose(&[copy_l1, red1]);
        let step1_map = p.map_lcl(0, step1_f);
        let s2a = p.split(2usize);
        let j1 = p.join();
        let step1 = p.compose(&[j1, step1_map, s2a]);

        let red2 = p.reduce_seq(add, 0.0);
        let copy_l2 = p.copy_to_local();
        let step2_f = p.compose(&[copy_l2, red2]);
        let step2_map = p.map_lcl(0, step2_f);
        let s2b = p.split(2usize);
        let j2 = p.join();
        let iter_body = p.compose(&[j2, step2_map, s2b]);
        let step2 = p.iterate(6, iter_body);

        let copy_g = p.copy_to_global();
        let m_copy = p.map_lcl(0, copy_g);
        let s1 = p.split(1usize);
        let j3 = p.join();
        let step3 = p.compose(&[j3, m_copy, s1]);

        let wg_body = p.compose(&[step3, step2, step1]);
        let wg = p.map_wrg(0, wg_body);
        let s128 = p.split(128usize);
        let jout = p.join();
        let z = p.zip2();
        p.with_root(
            vec![("x", float_array(n)), ("y", float_array(n))],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                let split = p.apply1(s128, zipped);
                let mapped = p.apply1(wg, split);
                p.apply1(jout, mapped)
            },
        );

        let x: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * 0.5).collect();
        let out = evaluate(&p, &[Value::from_f32_slice(&x), Value::from_f32_slice(&y)]).unwrap();
        let partials = out.flatten_f32();
        assert_eq!(partials.len(), 2);
        for (wg_idx, partial) in partials.iter().enumerate() {
            let expected: f32 = (0..128)
                .map(|i| x[wg_idx * 128 + i] * y[wg_idx * 128 + i])
                .sum();
            assert!((partial - expected).abs() < 1e-3, "work group {wg_idx}");
        }
    }
}
