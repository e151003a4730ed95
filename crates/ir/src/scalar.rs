//! User functions.
//!
//! The Lift IL delegates the application-specific scalar computations to *user functions*
//! (Section 3.2), which the paper represents as strings of C code operating on non-array
//! values. This reproduction represents their bodies as a small expression AST instead, so
//! that the same definition can be type-checked, interpreted by the reference interpreter,
//! translated to OpenCL C by the code generator, and vectorised for `mapVec`.

use std::fmt;

use crate::types::Type;

/// Binary operators available in user-function bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
    /// Less-than comparison (produces 1.0 / 0.0).
    Lt,
    /// Greater-than comparison (produces 1.0 / 0.0).
    Gt,
}

/// Unary operators available in user-function bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Reciprocal square root.
    Rsqrt,
    /// Absolute value.
    Fabs,
    /// Exponential.
    Exp,
}

/// The body of a user function: an expression over the function's parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Reference to the `i`-th parameter of the user function.
    Param(usize),
    /// Projection of a tuple component.
    Get(Box<ScalarExpr>, usize),
    /// Construction of a tuple value (used by user functions returning several values).
    Tuple(Vec<ScalarExpr>),
    /// A floating-point literal.
    ConstFloat(f64),
    /// An integer literal.
    ConstInt(i64),
    /// A binary operation.
    Bin(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// A unary operation.
    Un(UnOp, Box<ScalarExpr>),
    /// `cond ? then : otherwise`, where `cond` is interpreted as non-zero = true.
    Select(Box<ScalarExpr>, Box<ScalarExpr>, Box<ScalarExpr>),
}

#[allow(clippy::should_implement_trait)] // builder methods, not operator impls
impl ScalarExpr {
    /// Reference to parameter `i`.
    pub fn param(i: usize) -> ScalarExpr {
        ScalarExpr::Param(i)
    }

    /// Floating-point constant.
    pub fn cf(v: f64) -> ScalarExpr {
        ScalarExpr::ConstFloat(v)
    }

    /// Tuple component access.
    pub fn get(self, i: usize) -> ScalarExpr {
        ScalarExpr::Get(Box::new(self), i)
    }

    /// Addition.
    pub fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// Subtraction.
    pub fn sub(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// Multiplication.
    pub fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// Division.
    pub fn div(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// Minimum.
    pub fn min(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Min, Box::new(self), Box::new(rhs))
    }

    /// Maximum.
    pub fn max(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// Square root.
    pub fn sqrt(self) -> ScalarExpr {
        ScalarExpr::Un(UnOp::Sqrt, Box::new(self))
    }

    /// Reciprocal square root.
    pub fn rsqrt(self) -> ScalarExpr {
        ScalarExpr::Un(UnOp::Rsqrt, Box::new(self))
    }

    /// Counts the arithmetic operations in the body (used by the cost model).
    pub fn op_count(&self) -> usize {
        match self {
            ScalarExpr::Param(_) | ScalarExpr::ConstFloat(_) | ScalarExpr::ConstInt(_) => 0,
            ScalarExpr::Get(e, _) => e.op_count(),
            ScalarExpr::Tuple(es) => es.iter().map(|e| e.op_count()).sum(),
            ScalarExpr::Bin(_, a, b) => 1 + a.op_count() + b.op_count(),
            ScalarExpr::Un(_, a) => 1 + a.op_count(),
            ScalarExpr::Select(c, a, b) => 1 + c.op_count() + a.op_count() + b.op_count(),
        }
    }

    /// The largest parameter index referenced by the expression, if any.
    pub fn max_param_index(&self) -> Option<usize> {
        match self {
            ScalarExpr::Param(i) => Some(*i),
            ScalarExpr::ConstFloat(_) | ScalarExpr::ConstInt(_) => None,
            ScalarExpr::Get(e, _) => e.max_param_index(),
            ScalarExpr::Tuple(es) => es.iter().filter_map(|e| e.max_param_index()).max(),
            ScalarExpr::Bin(_, a, b) => a.max_param_index().max(b.max_param_index()),
            ScalarExpr::Un(_, a) => a.max_param_index(),
            ScalarExpr::Select(c, a, b) => c
                .max_param_index()
                .max(a.max_param_index())
                .max(b.max_param_index()),
        }
    }
}

/// A user-defined scalar function (the `UserFun` node of Figure 2).
#[derive(Clone, Debug, PartialEq)]
pub struct UserFun {
    name: String,
    param_names: Vec<String>,
    param_types: Vec<Type>,
    return_type: Type,
    body: ScalarExpr,
    associative_commutative: bool,
}

/// Errors raised when constructing an ill-formed user function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UserFunError {
    /// The body references a parameter index that does not exist.
    ParamOutOfRange { index: usize, arity: usize },
    /// A parameter or return type is an array, which user functions may not manipulate.
    ArrayTypedParameter,
}

impl fmt::Display for UserFunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UserFunError::ParamOutOfRange { index, arity } => {
                write!(
                    f,
                    "user function body references parameter {index} but only {arity} exist"
                )
            }
            UserFunError::ArrayTypedParameter => {
                write!(f, "user functions operate on non-array values only")
            }
        }
    }
}

impl std::error::Error for UserFunError {}

impl UserFun {
    /// Creates a user function, validating that the body only references declared parameters
    /// and that no parameter or return type is an array.
    ///
    /// # Errors
    ///
    /// Returns a [`UserFunError`] if the definition is ill-formed.
    pub fn new(
        name: impl Into<String>,
        params: Vec<(&str, Type)>,
        return_type: Type,
        body: ScalarExpr,
    ) -> Result<Self, UserFunError> {
        let f = UserFun::unchecked(name, params, return_type, body);
        if f.param_types.iter().any(Type::is_array) || f.return_type.is_array() {
            return Err(UserFunError::ArrayTypedParameter);
        }
        if let Some(max) = f.body.max_param_index() {
            if max >= f.arity() {
                return Err(UserFunError::ParamOutOfRange {
                    index: max,
                    arity: f.arity(),
                });
            }
        }
        Ok(f)
    }

    /// Builds a user function without [`UserFun::new`]'s checks. The standard functions
    /// below use it: their definitions are fixed and well-formed, which
    /// `builtin_functions_pass_every_check_of_new` asserts for each of them.
    fn unchecked(
        name: impl Into<String>,
        params: Vec<(&str, Type)>,
        return_type: Type,
        body: ScalarExpr,
    ) -> UserFun {
        let (param_names, param_types) =
            params.into_iter().map(|(n, t)| (n.to_string(), t)).unzip();
        UserFun {
            name: name.into(),
            param_names,
            param_types,
            return_type,
            body,
            associative_commutative: false,
        }
    }

    /// Marks this binary function as associative and commutative over its domain.
    ///
    /// Rewrite rules that reorder reductions (e.g. partial reduction) require this marker as
    /// a side condition: the rules of the paper assume reduction operators are associative
    /// and commutative, and applying them to an arbitrary fold function (such as the fused
    /// `λ(acc, x). acc + x*x`) would change the program's result.
    #[must_use]
    pub fn assoc_commutative(mut self) -> Self {
        self.associative_commutative = true;
        self
    }

    /// Whether this function was declared associative and commutative.
    pub fn is_assoc_commutative(&self) -> bool {
        self.associative_commutative && self.arity() == 2
    }

    /// The function's name as it appears in generated OpenCL code.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter names.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// The parameter types.
    pub fn param_types(&self) -> &[Type] {
        &self.param_types
    }

    /// The return type.
    pub fn return_type(&self) -> &Type {
        &self.return_type
    }

    /// The function body.
    pub fn body(&self) -> &ScalarExpr {
        &self.body
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.param_types.len()
    }

    // ---- The standard user functions used throughout the paper and benchmarks. ----

    /// `id(x) = x` for `float` (the `id` user function of Listing 1).
    pub fn id_float() -> UserFun {
        UserFun::unchecked(
            "id",
            vec![("x", Type::float())],
            Type::float(),
            ScalarExpr::param(0),
        )
    }

    /// `add(a, b) = a + b`.
    pub fn add() -> UserFun {
        UserFun::unchecked(
            "add",
            vec![("a", Type::float()), ("b", Type::float())],
            Type::float(),
            ScalarExpr::param(0).add(ScalarExpr::param(1)),
        )
        .assoc_commutative()
    }

    /// `mult(a, b) = a * b`.
    pub fn mult() -> UserFun {
        UserFun::unchecked(
            "mult",
            vec![("a", Type::float()), ("b", Type::float())],
            Type::float(),
            ScalarExpr::param(0).mul(ScalarExpr::param(1)),
        )
        .assoc_commutative()
    }

    /// `multAndSumUp(acc, x, y) = acc + x * y`, the fused multiply-accumulate of Listing 1.
    pub fn mult_and_sum_up() -> UserFun {
        UserFun::unchecked(
            "multAndSumUp",
            vec![
                ("acc", Type::float()),
                ("x", Type::float()),
                ("y", Type::float()),
            ],
            Type::float(),
            ScalarExpr::param(0).add(ScalarExpr::param(1).mul(ScalarExpr::param(2))),
        )
    }

    /// `multAndSumUpPair(acc, xy) = acc + xy._0 * xy._1`, the reduction function applied to a
    /// zipped pair in Listing 1 (line 9).
    pub fn mult_and_sum_up_pair() -> UserFun {
        UserFun::unchecked(
            "multAndSumUp",
            vec![
                ("acc", Type::float()),
                ("xy", Type::pair(Type::float(), Type::float())),
            ],
            Type::float(),
            ScalarExpr::param(0).add(ScalarExpr::param(1).get(0).mul(ScalarExpr::param(1).get(1))),
        )
    }

    /// `multPair(p) = p._0 * p._1` operating on a zipped pair, used by dot-product variants.
    pub fn mult_pair() -> UserFun {
        UserFun::unchecked(
            "multPair",
            vec![("xy", Type::pair(Type::float(), Type::float()))],
            Type::float(),
            ScalarExpr::param(0)
                .clone()
                .get(0)
                .mul(ScalarExpr::param(0).get(1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_functions_are_well_formed() {
        assert_eq!(UserFun::id_float().arity(), 1);
        assert_eq!(UserFun::add().arity(), 2);
        assert_eq!(UserFun::mult_and_sum_up().arity(), 3);
        assert_eq!(UserFun::mult_pair().arity(), 1);
        assert_eq!(*UserFun::add().return_type(), Type::float());
    }

    #[test]
    fn builtin_functions_pass_every_check_of_new() {
        let builtins = [
            UserFun::id_float(),
            UserFun::add(),
            UserFun::mult(),
            UserFun::mult_and_sum_up(),
            UserFun::mult_and_sum_up_pair(),
            UserFun::mult_pair(),
        ];
        for f in builtins {
            let params = f
                .param_names()
                .iter()
                .map(String::as_str)
                .zip(f.param_types().iter().cloned())
                .collect();
            let checked = UserFun::new(f.name(), params, f.return_type().clone(), f.body().clone())
                .unwrap_or_else(|e| panic!("builtin `{}` is ill-formed: {e}", f.name()));
            let checked = if f.associative_commutative {
                checked.assoc_commutative()
            } else {
                checked
            };
            assert_eq!(checked, f);
        }
    }

    #[test]
    fn out_of_range_parameter_is_rejected() {
        let err = UserFun::new(
            "bad",
            vec![("a", Type::float())],
            Type::float(),
            ScalarExpr::param(3),
        )
        .unwrap_err();
        assert_eq!(err, UserFunError::ParamOutOfRange { index: 3, arity: 1 });
        assert!(err.to_string().contains("parameter 3"));
    }

    #[test]
    fn array_parameters_are_rejected() {
        let err = UserFun::new(
            "bad",
            vec![("a", Type::array(Type::float(), 4usize))],
            Type::float(),
            ScalarExpr::param(0),
        )
        .unwrap_err();
        assert_eq!(err, UserFunError::ArrayTypedParameter);
    }

    #[test]
    fn op_count_counts_operations() {
        let body = ScalarExpr::param(0).add(ScalarExpr::param(1).mul(ScalarExpr::param(2)));
        assert_eq!(body.op_count(), 2);
        assert_eq!(ScalarExpr::cf(1.0).op_count(), 0);
        let sel = ScalarExpr::Select(
            Box::new(ScalarExpr::param(0)),
            Box::new(ScalarExpr::cf(1.0)),
            Box::new(ScalarExpr::cf(0.0)),
        );
        assert_eq!(sel.op_count(), 1);
    }

    #[test]
    fn max_param_index_traverses_all_nodes() {
        let body = ScalarExpr::Tuple(vec![ScalarExpr::param(0), ScalarExpr::param(4).sqrt()]);
        assert_eq!(body.max_param_index(), Some(4));
        assert_eq!(ScalarExpr::cf(0.0).max_param_index(), None);
    }
}
