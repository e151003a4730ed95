//! The arena-based Lift IR (Section 4).
//!
//! Programs are graphs of [`ExprNode`]s (literals, parameters and function calls) and
//! [`FunDecl`]s (lambdas, predefined patterns and user functions), mirroring the class diagram
//! of Figure 2. Nodes live in two arenas owned by a [`Program`] and are referenced by the
//! copyable ids [`ExprId`] and [`FunDeclId`], which is the idiomatic Rust rendition of the
//! object graph used by the Scala implementation.

use std::fmt;

use lift_arith::ArithExpr;

use crate::scalar::UserFun;
use crate::types::Type;

/// Identifier of an expression node inside a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub(crate) usize);

/// Identifier of a function declaration inside a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunDeclId(pub(crate) usize);

impl ExprId {
    /// The raw index of this id (useful for building side tables in compiler passes).
    pub fn index(self) -> usize {
        self.0
    }
}

impl FunDeclId {
    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Compile-time known constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Literal {
    /// A `float` constant such as the `0.0f` initialiser of a reduction.
    Float(f32),
    /// An `int` constant.
    Int(i64),
}

impl Literal {
    /// The type of this literal.
    pub fn ty(&self) -> Type {
        match self {
            Literal::Float(_) => Type::float(),
            Literal::Int(_) => Type::int(),
        }
    }

    /// Renders the literal as OpenCL C source.
    pub fn c_source(&self) -> String {
        match self {
            Literal::Float(v) => {
                if v.fract() == 0.0 {
                    format!("{v:.1}f")
                } else {
                    format!("{v}f")
                }
            }
            Literal::Int(v) => v.to_string(),
        }
    }
}

/// The three kinds of expressions of the Lift IR (Figure 2).
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// A compile-time constant.
    Literal(Literal),
    /// A parameter of an enclosing lambda.
    Param {
        /// Name used for debugging and pretty printing.
        name: String,
    },
    /// Application of a function declaration to argument expressions.
    FunCall {
        /// The function being called.
        f: FunDeclId,
        /// The arguments of the call.
        args: Vec<ExprId>,
    },
}

/// An expression node together with the annotations computed by the compiler.
#[derive(Clone, Debug, PartialEq)]
pub struct ExprNode {
    /// What kind of expression this is.
    pub kind: ExprKind,
    /// The type of the expression, filled in by [`crate::typecheck::infer_types`].
    pub ty: Option<Type>,
}

/// The reordering functions accepted by `gather` and `scatter`.
///
/// The paper allows arbitrary index permutations; the reorderings below are the ones used by
/// its examples and evaluation (identity, reversal and the stride permutation that expresses
/// transposition and memory coalescing).
#[derive(Clone, Debug, PartialEq)]
pub enum Reorder {
    /// The identity permutation.
    Identity,
    /// `i -> n - 1 - i`.
    Reverse,
    /// `i -> (i mod s) * (n / s) + i / s`: the transposition-style permutation of Section 3.2,
    /// also used to produce coalesced accesses (Section 7.2).
    Stride(ArithExpr),
}

impl Reorder {
    /// Applies the permutation to index `i` of an array of length `n`.
    pub fn apply(&self, i: &ArithExpr, n: &ArithExpr) -> ArithExpr {
        match self {
            Reorder::Identity => i.clone(),
            Reorder::Reverse => n.clone() - 1 - i.clone(),
            Reorder::Stride(s) => {
                (i.clone() % s.clone()) * (n.clone() / s.clone()) + i.clone() / s.clone()
            }
        }
    }
}

/// How `pad` materialises the elements beyond the ends of its input array.
///
/// All three modes replicate *existing* elements (no new values are invented), which is what
/// makes `pad` commute with `map`: boundary handling for stencils reduces to reading an
/// interior element through a remapped index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PadMode {
    /// Repeat the nearest edge element: `x[-1] = x[0]`, `x[n] = x[n-1]`.
    Clamp,
    /// Reflect across the boundary (edge element included): `x[-1] = x[0]`, `x[-2] = x[1]`,
    /// `x[n] = x[n-1]`.
    Mirror,
    /// Wrap around periodically: `x[-1] = x[n-1]`, `x[n] = x[0]`.
    Wrap,
}

impl PadMode {
    /// A short name used in pretty printing (`padClamp`, …).
    pub fn name(self) -> &'static str {
        match self {
            PadMode::Clamp => "Clamp",
            PadMode::Mirror => "Mirror",
            PadMode::Wrap => "Wrap",
        }
    }

    /// The source index a padded read at `j - left` resolves to, over a host array of
    /// length `n` (the reference semantics shared by the interpreter and the tests).
    pub fn source_index(self, shifted: i64, n: i64) -> i64 {
        match self {
            PadMode::Clamp => shifted.clamp(0, n - 1),
            PadMode::Mirror => {
                let j = if shifted < 0 { -1 - shifted } else { shifted };
                if j >= n {
                    2 * n - 1 - j
                } else {
                    j
                }
            }
            PadMode::Wrap => shifted.rem_euclid(n),
        }
    }
}

/// The predefined patterns of the Lift IL (Section 3.2).
///
/// Generic over the handle `F` of the nested function, so the one vocabulary serves every
/// program container: the arena stores `Pattern<FunDeclId>` (the default), the rewrite
/// engine's tree form stores `Pattern<Box<TermFun>>`.
#[derive(Clone, Debug, PartialEq)]
pub enum Pattern<F = FunDeclId> {
    /// High-level, backend-agnostic map (Section 3.1). Programs are written with `map` and
    /// lowered to one of the OpenCL-specific map variants by the rewrite rules of
    /// `lift-rewrite`; the code generator only accepts the lowered forms.
    Map {
        /// Function applied to every element.
        f: F,
    },
    /// High-level, backend-agnostic reduction; called with two arguments: the initial value
    /// and the input array. Lowered to [`Pattern::ReduceSeq`] (possibly under a memory-space
    /// wrapper) by the rewrite rules.
    Reduce {
        /// Binary reduction function of type `(acc, elem) -> acc`.
        f: F,
    },
    /// Sequential map.
    MapSeq {
        /// Function applied to every element.
        f: F,
    },
    /// Map over global work items in dimension `dim`.
    MapGlb {
        /// OpenCL dimension (0, 1 or 2).
        dim: u8,
        /// Function applied to every element.
        f: F,
    },
    /// Map over work groups in dimension `dim`.
    MapWrg {
        /// OpenCL dimension (0, 1 or 2).
        dim: u8,
        /// Function applied to every element.
        f: F,
    },
    /// Map over local work items in dimension `dim`; must be nested inside a [`Pattern::MapWrg`].
    MapLcl {
        /// OpenCL dimension (0, 1 or 2).
        dim: u8,
        /// Function applied to every element.
        f: F,
    },
    /// Map a scalar function over the lanes of a vector value.
    MapVec {
        /// Scalar function applied per lane.
        f: F,
    },
    /// Sequential reduction; called with two arguments: the initial value and the input array.
    ReduceSeq {
        /// Binary reduction function of type `(acc, elem) -> acc`.
        f: F,
    },
    /// The identity function.
    Id,
    /// Apply `f` `n` times, re-injecting the output as the next input.
    Iterate {
        /// Number of iterations (a compile-time constant in all the paper's programs).
        n: u64,
        /// The iterated function.
        f: F,
    },
    /// Add a dimension: `[T]_n -> [[T]_chunk]_{n/chunk}`.
    Split {
        /// The chunk size.
        chunk: ArithExpr,
    },
    /// Remove a dimension: `[[T]_m]_n -> [T]_{n*m}`.
    Join,
    /// Permute the read order of an array.
    Gather {
        /// The index permutation.
        reorder: Reorder,
    },
    /// Permute the write order of an array.
    Scatter {
        /// The index permutation.
        reorder: Reorder,
    },
    /// Two-dimensional transposition `[[T]_m]_n -> [[T]_n]_m` (expressible with
    /// `split`/`gather`/`join`, provided directly because every benchmark uses it).
    Transpose,
    /// Combine `arity` arrays element-wise into an array of tuples.
    Zip {
        /// Number of zipped arrays.
        arity: usize,
    },
    /// Project component `index` out of a tuple.
    Get {
        /// The component index.
        index: usize,
    },
    /// Moving window over an array (stencils).
    Slide {
        /// Window size.
        size: ArithExpr,
        /// Window step.
        step: ArithExpr,
    },
    /// Extend an array at both ends with boundary elements: `[T]_n -> [T]_{l+n+r}` (stencil
    /// boundary handling). Like `slide`, it is a read-side pattern: no data is copied, reads
    /// through the pad remap their index into the underlying array.
    Pad {
        /// Number of elements prepended.
        left: ArithExpr,
        /// Number of elements appended.
        right: ArithExpr,
        /// How out-of-range indices map back into the array.
        mode: PadMode,
    },
    /// Write the result of `f` to global memory.
    ToGlobal {
        /// The wrapped function.
        f: F,
    },
    /// Write the result of `f` to local memory.
    ToLocal {
        /// The wrapped function.
        f: F,
    },
    /// Write the result of `f` to private memory.
    ToPrivate {
        /// The wrapped function.
        f: F,
    },
    /// Reinterpret `[scalar]_n` as `[vector_width]_{n/width}`.
    AsVector {
        /// The vector width.
        width: usize,
    },
    /// Reinterpret `[vector_w]_n` as `[scalar]_{n*w}`.
    AsScalar,
}

impl<F> Pattern<F> {
    /// The number of arguments a call to this pattern expects.
    pub fn arity(&self) -> usize {
        match self {
            Pattern::Reduce { .. } | Pattern::ReduceSeq { .. } => 2,
            Pattern::Zip { arity } => *arity,
            _ => 1,
        }
    }

    /// Whether this is a high-level (backend-agnostic) pattern that must be lowered by the
    /// rewrite rules before OpenCL code generation.
    pub fn is_high_level(&self) -> bool {
        matches!(self, Pattern::Map { .. } | Pattern::Reduce { .. })
    }

    /// The nested function of the pattern, if it has one.
    pub fn nested(&self) -> Option<&F> {
        match self {
            Pattern::Map { f }
            | Pattern::Reduce { f }
            | Pattern::MapSeq { f }
            | Pattern::MapGlb { f, .. }
            | Pattern::MapWrg { f, .. }
            | Pattern::MapLcl { f, .. }
            | Pattern::MapVec { f }
            | Pattern::ReduceSeq { f }
            | Pattern::Iterate { f, .. }
            | Pattern::ToGlobal { f }
            | Pattern::ToLocal { f }
            | Pattern::ToPrivate { f } => Some(f),
            _ => None,
        }
    }

    /// Mutable access to the nested function of the pattern.
    pub fn nested_mut(&mut self) -> Option<&mut F> {
        match self {
            Pattern::Map { f }
            | Pattern::Reduce { f }
            | Pattern::MapSeq { f }
            | Pattern::MapGlb { f, .. }
            | Pattern::MapWrg { f, .. }
            | Pattern::MapLcl { f, .. }
            | Pattern::MapVec { f }
            | Pattern::ReduceSeq { f }
            | Pattern::Iterate { f, .. }
            | Pattern::ToGlobal { f }
            | Pattern::ToLocal { f }
            | Pattern::ToPrivate { f } => Some(f),
            _ => None,
        }
    }

    /// The same pattern over another nested-function handle: `convert` translates the nested
    /// function (when there is one) and every knob is copied. This is the whole conversion
    /// between program containers, e.g. arena ids to boxed trees and back.
    pub fn map_nested<G>(&self, convert: impl FnOnce(&F) -> G) -> Pattern<G> {
        match self {
            Pattern::Map { f } => Pattern::Map { f: convert(f) },
            Pattern::Reduce { f } => Pattern::Reduce { f: convert(f) },
            Pattern::MapSeq { f } => Pattern::MapSeq { f: convert(f) },
            Pattern::MapGlb { dim, f } => Pattern::MapGlb {
                dim: *dim,
                f: convert(f),
            },
            Pattern::MapWrg { dim, f } => Pattern::MapWrg {
                dim: *dim,
                f: convert(f),
            },
            Pattern::MapLcl { dim, f } => Pattern::MapLcl {
                dim: *dim,
                f: convert(f),
            },
            Pattern::MapVec { f } => Pattern::MapVec { f: convert(f) },
            Pattern::ReduceSeq { f } => Pattern::ReduceSeq { f: convert(f) },
            Pattern::Id => Pattern::Id,
            Pattern::Iterate { n, f } => Pattern::Iterate {
                n: *n,
                f: convert(f),
            },
            Pattern::Split { chunk } => Pattern::Split {
                chunk: chunk.clone(),
            },
            Pattern::Join => Pattern::Join,
            Pattern::Gather { reorder } => Pattern::Gather {
                reorder: reorder.clone(),
            },
            Pattern::Scatter { reorder } => Pattern::Scatter {
                reorder: reorder.clone(),
            },
            Pattern::Transpose => Pattern::Transpose,
            Pattern::Zip { arity } => Pattern::Zip { arity: *arity },
            Pattern::Get { index } => Pattern::Get { index: *index },
            Pattern::Slide { size, step } => Pattern::Slide {
                size: size.clone(),
                step: step.clone(),
            },
            Pattern::Pad { left, right, mode } => Pattern::Pad {
                left: left.clone(),
                right: right.clone(),
                mode: *mode,
            },
            Pattern::ToGlobal { f } => Pattern::ToGlobal { f: convert(f) },
            Pattern::ToLocal { f } => Pattern::ToLocal { f: convert(f) },
            Pattern::ToPrivate { f } => Pattern::ToPrivate { f: convert(f) },
            Pattern::AsVector { width } => Pattern::AsVector { width: *width },
            Pattern::AsScalar => Pattern::AsScalar,
        }
    }

    /// A short name for pretty printing, matching the paper's notation.
    pub fn name(&self) -> String {
        match self {
            Pattern::Map { .. } => "map".into(),
            Pattern::Reduce { .. } => "reduce".into(),
            Pattern::MapSeq { .. } => "mapSeq".into(),
            Pattern::MapGlb { dim, .. } => format!("mapGlb{dim}"),
            Pattern::MapWrg { dim, .. } => format!("mapWrg{dim}"),
            Pattern::MapLcl { dim, .. } => format!("mapLcl{dim}"),
            Pattern::MapVec { .. } => "mapVec".into(),
            Pattern::ReduceSeq { .. } => "reduceSeq".into(),
            Pattern::Id => "id".into(),
            Pattern::Iterate { n, .. } => format!("iterate{n}"),
            Pattern::Split { chunk } => format!("split{chunk}"),
            Pattern::Join => "join".into(),
            Pattern::Gather { .. } => "gather".into(),
            Pattern::Scatter { .. } => "scatter".into(),
            Pattern::Transpose => "transpose".into(),
            Pattern::Zip { .. } => "zip".into(),
            Pattern::Get { index } => format!("get{index}"),
            Pattern::Slide { size, step } => format!("slide({size},{step})"),
            Pattern::Pad { left, right, mode } => {
                format!("pad{}({left},{right})", mode.name())
            }
            Pattern::ToGlobal { .. } => "toGlobal".into(),
            Pattern::ToLocal { .. } => "toLocal".into(),
            Pattern::ToPrivate { .. } => "toPrivate".into(),
            Pattern::AsVector { width } => format!("asVector{width}"),
            Pattern::AsScalar => "asScalar".into(),
        }
    }
}

impl Pattern {
    /// The nested function declaration of the pattern, if it has one.
    pub fn nested_fun(&self) -> Option<FunDeclId> {
        self.nested().copied()
    }
}

/// A function declaration: lambda, pattern or user function (Figure 2).
#[derive(Clone, Debug, PartialEq)]
pub enum FunDecl {
    /// An anonymous function with explicit parameters.
    Lambda {
        /// The parameter expressions (always [`ExprKind::Param`] nodes).
        params: Vec<ExprId>,
        /// The body evaluated when the lambda is called.
        body: ExprId,
    },
    /// A predefined pattern.
    Pattern(Pattern),
    /// A user-defined scalar function.
    UserFun(UserFun),
}

/// A whole Lift IL program: the node arenas plus a distinguished root lambda.
#[derive(Clone, Debug, Default)]
pub struct Program {
    name: String,
    exprs: Vec<ExprNode>,
    decls: Vec<FunDecl>,
    root: Option<FunDeclId>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            exprs: Vec::new(),
            decls: Vec::new(),
            root: None,
        }
    }

    /// The program name (used for the generated kernel name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an expression node and returns its id.
    pub fn add_expr(&mut self, kind: ExprKind) -> ExprId {
        let id = ExprId(self.exprs.len());
        self.exprs.push(ExprNode { kind, ty: None });
        id
    }

    /// Adds a function declaration and returns its id.
    pub fn add_decl(&mut self, decl: FunDecl) -> FunDeclId {
        let id = FunDeclId(self.decls.len());
        self.decls.push(decl);
        id
    }

    /// Returns the expression node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` comes from a different program.
    pub fn expr(&self, id: ExprId) -> &ExprNode {
        &self.exprs[id.0]
    }

    /// Returns a mutable reference to the expression node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` comes from a different program.
    pub fn expr_mut(&mut self, id: ExprId) -> &mut ExprNode {
        &mut self.exprs[id.0]
    }

    /// Returns the function declaration for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` comes from a different program.
    pub fn decl(&self, id: FunDeclId) -> &FunDecl {
        &self.decls[id.0]
    }

    /// Sets the root lambda of the program.
    ///
    /// # Panics
    ///
    /// Panics if `root` does not refer to a [`FunDecl::Lambda`].
    pub fn set_root(&mut self, root: FunDeclId) {
        assert!(
            matches!(self.decl(root), FunDecl::Lambda { .. }),
            "the root of a program must be a lambda"
        );
        self.root = Some(root);
    }

    /// The root lambda of the program, if one has been set.
    pub fn root(&self) -> Option<FunDeclId> {
        self.root
    }

    /// The parameters of the root lambda.
    ///
    /// # Panics
    ///
    /// Panics if no root has been set.
    pub fn root_params(&self) -> &[ExprId] {
        match self.decl(self.root.expect("program has a root")) {
            FunDecl::Lambda { params, .. } => params,
            _ => unreachable!("the root is always a lambda"),
        }
    }

    /// The body expression of the root lambda.
    ///
    /// # Panics
    ///
    /// Panics if no root has been set.
    pub fn root_body(&self) -> ExprId {
        match self.decl(self.root.expect("program has a root")) {
            FunDecl::Lambda { body, .. } => *body,
            _ => unreachable!("the root is always a lambda"),
        }
    }

    /// The inferred type of an expression.
    ///
    /// # Panics
    ///
    /// Panics if type inference has not run yet (the type is missing).
    pub fn type_of(&self, id: ExprId) -> &Type {
        self.expr(id)
            .ty
            .as_ref()
            .expect("type inference has assigned a type")
    }

    /// The function declarations reachable from the root lambda (in depth-first discovery
    /// order). Rewriting leaves orphan nodes in the arena, so passes that inspect "the
    /// program" should walk this set rather than every declaration in the arena.
    pub fn reachable_decls(&self) -> Vec<FunDeclId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let mut seen_decls = vec![false; self.decls.len()];
        let mut seen_exprs = vec![false; self.exprs.len()];
        let mut out = Vec::new();
        let mut decl_stack = vec![root];
        while let Some(d) = decl_stack.pop() {
            if std::mem::replace(&mut seen_decls[d.0], true) {
                continue;
            }
            out.push(d);
            let mut expr_stack = Vec::new();
            match self.decl(d) {
                FunDecl::Lambda { params, body } => {
                    expr_stack.extend(params.iter().copied());
                    expr_stack.push(*body);
                }
                FunDecl::Pattern(p) => {
                    if let Some(f) = p.nested_fun() {
                        decl_stack.push(f);
                    }
                }
                FunDecl::UserFun(_) => {}
            }
            while let Some(e) = expr_stack.pop() {
                if std::mem::replace(&mut seen_exprs[e.0], true) {
                    continue;
                }
                if let ExprKind::FunCall { f, args } = &self.expr(e).kind {
                    decl_stack.push(*f);
                    expr_stack.extend(args.iter().copied());
                }
            }
        }
        out
    }

    /// The name of the first reachable high-level pattern (`map` / `reduce`), if any.
    ///
    /// Code generation requires this to be `None`; the `lift-rewrite` lowering rules
    /// eliminate high-level patterns.
    pub fn first_high_level_pattern(&self) -> Option<String> {
        self.reachable_decls()
            .into_iter()
            .find_map(|d| match self.decl(d) {
                FunDecl::Pattern(p) if p.is_high_level() => Some(p.name()),
                _ => None,
            })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::pretty_program(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names the default handle where no nested function pins it.
    type ArenaPattern = Pattern;

    #[test]
    fn arena_hands_out_sequential_ids() {
        let mut p = Program::new("t");
        let a = p.add_expr(ExprKind::Literal(Literal::Float(1.0)));
        let b = p.add_expr(ExprKind::Literal(Literal::Float(2.0)));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn literals_know_their_type_and_source() {
        assert_eq!(Literal::Float(0.0).ty(), Type::float());
        assert_eq!(Literal::Float(0.0).c_source(), "0.0f");
        assert_eq!(Literal::Float(1.5).c_source(), "1.5f");
        assert_eq!(Literal::Int(3).ty(), Type::int());
        assert_eq!(Literal::Int(3).c_source(), "3");
    }

    #[test]
    fn pattern_arities() {
        let mut p = Program::new("t");
        let add = p.add_decl(FunDecl::UserFun(UserFun::add()));
        assert_eq!(Pattern::ReduceSeq { f: add }.arity(), 2);
        assert_eq!(ArenaPattern::Zip { arity: 3 }.arity(), 3);
        assert_eq!(ArenaPattern::Join.arity(), 1);
        assert_eq!(Pattern::MapSeq { f: add }.nested_fun(), Some(add));
        assert_eq!(Pattern::Join.nested_fun(), None);
    }

    #[test]
    fn high_level_patterns_are_flagged() {
        let mut p = Program::new("t");
        let f = p.add_decl(FunDecl::UserFun(UserFun::id_float()));
        assert!(Pattern::Map { f }.is_high_level());
        assert!(Pattern::Reduce { f }.is_high_level());
        assert!(!Pattern::MapGlb { dim: 0, f }.is_high_level());
        assert_eq!(Pattern::Map { f }.name(), "map");
        assert_eq!(Pattern::Reduce { f }.name(), "reduce");
        assert_eq!(Pattern::Reduce { f }.arity(), 2);
    }

    #[test]
    fn reachable_decls_ignores_orphans() {
        let mut p = Program::new("t");
        let id = p.user_fun(UserFun::id_float());
        let orphan = p.map(id);
        let m = p.map_seq(id);
        p.with_root(
            vec![("x", Type::array(Type::float(), 4usize))],
            |p, params| p.apply1(m, params[0]),
        );
        let reachable = p.reachable_decls();
        assert!(reachable.contains(&m));
        assert!(reachable.contains(&id));
        assert!(!reachable.contains(&orphan));
        // The orphaned high-level pattern does not block lowering checks.
        assert_eq!(p.first_high_level_pattern(), None);
    }

    #[test]
    fn pattern_names_match_the_paper() {
        let mut p = Program::new("t");
        let f = p.add_decl(FunDecl::UserFun(UserFun::id_float()));
        assert_eq!(Pattern::MapWrg { dim: 0, f }.name(), "mapWrg0");
        assert_eq!(
            ArenaPattern::Split {
                chunk: ArithExpr::cst(128)
            }
            .name(),
            "split128"
        );
        assert_eq!(Pattern::Iterate { n: 6, f }.name(), "iterate6");
        assert_eq!(ArenaPattern::AsVector { width: 4 }.name(), "asVector4");
    }

    #[test]
    #[should_panic(expected = "root of a program must be a lambda")]
    fn non_lambda_root_is_rejected() {
        let mut p = Program::new("t");
        let id = p.add_decl(FunDecl::Pattern(Pattern::Join));
        p.set_root(id);
    }

    #[test]
    fn reorder_identity_and_reverse() {
        let n = ArithExpr::size_var("N");
        let i = ArithExpr::var_in_range("i", 0, n.clone());
        assert_eq!(Reorder::Identity.apply(&i, &n), i);
        assert_eq!(Reorder::Reverse.apply(&i, &n), n.clone() - 1 - i.clone());
        // The stride reorder on a 2D array flattened from [rows][cols] transposes it.
        let rows = ArithExpr::size_var("R");
        let cols = ArithExpr::size_var("C");
        let total = rows.clone() * cols.clone();
        let idx = Reorder::Stride(cols.clone()).apply(&i, &total);
        assert_eq!(idx, (i.clone() % cols.clone()) * rows + i / cols);
    }
}
