//! The tree-shaped program container the rewrite rules work on.
//!
//! Rewrite rules are far easier to express over recursive trees than over arena ids: a rule
//! matches a subtree and returns a replacement subtree, and substitution is a purely
//! functional rebuild along a path. [`TermExpr`] / [`TermFun`] are that tree. They are a
//! second *container*, not a second vocabulary: a [`TermFun`] is a lambda, a user function
//! or a [`lift_ir::Pattern`] whose nested function is a boxed subtree where the arena's
//! [`FunDecl`] has a [`FunDeclId`] — so converting from and to [`lift_ir::Program`] is one
//! [`Pattern::map_nested`] per pattern, and the typing rules are shared (see
//! [`mod@crate::typecheck`]).
//!
//! Two normalisations happen during conversion:
//!
//! * **Eta-expansion** ([`TermFun::eta`]): a pattern nested directly inside another pattern
//!   (e.g. the inner `map` of `map(map f)`) is wrapped in a lambda, so every rewritable
//!   pattern application appears as a [`TermExpr::Apply`] node that the traversal of
//!   [`crate::traversal`] can reach.
//! * **Eta-contraction** (in [`Term::to_program`]): the inverse, so converting back produces
//!   the same compact nesting the seed programs use and the code generator is tested with.
//!
//! Parameter names are made globally unique during conversion (mangled with the originating
//! arena id) so the named tree representation cannot capture variables.

use std::collections::HashMap;

use lift_ir::{
    ExprId, ExprKind, FunDecl, FunDeclId, Literal, Pattern, Program, Reorder, Type, UserFun,
};

/// Errors raised while converting between the arena IR and the tree form.
#[derive(Clone, Debug, PartialEq)]
pub enum TermError {
    /// The program has no root lambda.
    MissingRoot,
    /// A root parameter has no declared type.
    UntypedRootParam(String),
    /// An expression referenced a parameter that is not in scope.
    UnboundParam(String),
}

impl std::fmt::Display for TermError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TermError::MissingRoot => write!(f, "the program has no root lambda"),
            TermError::UntypedRootParam(name) => {
                write!(f, "root parameter `{name}` has no declared type")
            }
            TermError::UnboundParam(name) => write!(f, "parameter `{name}` is not in scope"),
        }
    }
}

impl std::error::Error for TermError {}

/// A function in tree form — the shape of [`FunDecl`], with boxed subtrees where the arena
/// has ids: the pattern vocabulary is [`lift_ir::Pattern`] itself, not a copy of it.
#[derive(Clone, Debug, PartialEq)]
pub enum TermFun {
    /// An anonymous function.
    Lambda {
        /// Parameter names (globally unique after conversion).
        params: Vec<String>,
        /// The body.
        body: Box<TermExpr>,
    },
    /// A user-defined scalar function.
    UserFun(UserFun),
    /// A predefined pattern whose nested function (if any) is a subtree.
    Pattern(Pattern<Box<TermFun>>),
}

impl TermFun {
    /// The nested function of a pattern, if it has one.
    pub fn nested(&self) -> Option<&TermFun> {
        match self {
            TermFun::Pattern(p) => p.nested().map(|f| &**f),
            _ => None,
        }
    }

    /// Mutable access to the nested function of a pattern.
    pub fn nested_mut(&mut self) -> Option<&mut TermFun> {
        match self {
            TermFun::Pattern(p) => p.nested_mut().map(|f| &mut **f),
            _ => None,
        }
    }

    /// Eta-expands `self` into callable position: lambdas and user functions are returned
    /// unchanged; patterns are wrapped in `λx. pattern(x)` (or `λ(a, x). pattern(a, x)` for
    /// the binary reductions), so the pattern application becomes a rewritable expression.
    pub fn eta(self, fresh: &mut FreshNames) -> TermFun {
        let params = match &self {
            TermFun::Lambda { .. } | TermFun::UserFun(_) => return self,
            TermFun::Pattern(Pattern::Reduce { .. } | Pattern::ReduceSeq { .. }) => {
                vec![fresh.next("acc"), fresh.next("xs")]
            }
            TermFun::Pattern(_) => vec![fresh.next("x")],
        };
        eta_lambda(self, params)
    }
}

/// `λparams. f(params)`.
fn eta_lambda(f: TermFun, params: Vec<String>) -> TermFun {
    TermFun::Lambda {
        body: Box::new(TermExpr::Apply {
            f,
            args: params.iter().cloned().map(TermExpr::Param).collect(),
        }),
        params,
    }
}

/// An expression in tree form.
#[derive(Clone, Debug, PartialEq)]
pub enum TermExpr {
    /// A compile-time constant.
    Literal(Literal),
    /// A reference to an enclosing lambda (or root) parameter.
    Param(String),
    /// Application of a function to arguments.
    Apply {
        /// The applied function.
        f: TermFun,
        /// The argument expressions.
        args: Vec<TermExpr>,
    },
}

impl TermExpr {
    /// Convenience: apply a unary function.
    pub fn apply1(f: TermFun, arg: TermExpr) -> TermExpr {
        TermExpr::Apply { f, args: vec![arg] }
    }

    /// Number of nodes in this expression (used to curb exploding candidates).
    pub fn size(&self) -> usize {
        match self {
            TermExpr::Literal(_) | TermExpr::Param(_) => 1,
            TermExpr::Apply { f, args } => {
                1 + fun_size(f) + args.iter().map(TermExpr::size).sum::<usize>()
            }
        }
    }
}

fn fun_size(f: &TermFun) -> usize {
    match f {
        TermFun::Lambda { body, .. } => 1 + body.size(),
        other => match other.nested() {
            Some(inner) => 1 + fun_size(inner),
            None => 1,
        },
    }
}

/// A generator of fresh parameter names.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FreshNames {
    counter: usize,
}

impl FreshNames {
    /// Returns a new name with the given prefix; the `#` separator cannot occur in
    /// user-written names, so generated names never collide with converted ones.
    pub fn next(&mut self, prefix: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{prefix}#r{n}")
    }
}

/// A whole program in tree form: name, typed root parameters and the body.
#[derive(Clone, Debug, PartialEq)]
pub struct Term {
    /// Program name (becomes the kernel name after code generation).
    pub name: String,
    /// The root lambda's parameters with their declared types.
    pub params: Vec<(String, Type)>,
    /// The root lambda's body.
    pub body: TermExpr,
    /// Fresh-name state shared by all rewrites of this term.
    pub fresh: FreshNames,
}

impl Term {
    /// Converts an arena [`Program`] into tree form.
    ///
    /// # Errors
    ///
    /// Returns a [`TermError`] if the program has no root or a root parameter is untyped.
    pub fn from_program(program: &Program) -> Result<Term, TermError> {
        let root = program.root().ok_or(TermError::MissingRoot)?;
        let (param_ids, body_id) = match program.decl(root) {
            FunDecl::Lambda { params, body } => (params.clone(), *body),
            _ => return Err(TermError::MissingRoot),
        };
        let mut cx = FromProgram {
            program,
            names: HashMap::new(),
        };
        let mut params = Vec::with_capacity(param_ids.len());
        for id in &param_ids {
            let name = cx.bind(*id);
            match &program.expr(*id).ty {
                Some(t) => params.push((name, t.clone())),
                None => return Err(TermError::UntypedRootParam(name)),
            }
        }
        let body = beta_normalize(&cx.expr(body_id));
        Ok(Term {
            name: program.name().to_string(),
            params,
            body,
            fresh: FreshNames::default(),
        })
    }

    /// Converts the tree form back into an arena [`Program`] (with eta-redexes contracted so
    /// nested patterns regain their compact form).
    pub fn to_program(&self) -> Program {
        let mut program = Program::new(self.name.clone());
        let mut cx = ToProgram {
            program: &mut program,
            scope: Vec::new(),
        };
        let mut param_ids = Vec::with_capacity(self.params.len());
        for (name, ty) in &self.params {
            let id = cx.program.param(display_name(name), ty.clone());
            cx.scope.push((name.clone(), id));
            param_ids.push(id);
        }
        let body = cx.expr(&self.body);
        let root = program.add_decl(FunDecl::Lambda {
            params: param_ids,
            body,
        });
        program.set_root(root);
        program
    }

    /// Pretty-prints by round-tripping through the arena printer (the paper's notation).
    pub fn pretty(&self) -> String {
        self.to_program().to_string()
    }

    /// Renders the high-level pattern skeleton: the tree of pattern constructors with every
    /// numeric knob (split chunks, slide windows, iteration counts, vector widths, pad
    /// amounts), user-function identity and parameter name erased. Two programs share a
    /// skeleton exactly when they compose the same patterns in the same shape, so the
    /// derivation service uses it as the similarity key for warm-starting tuner searches
    /// from structurally related cached workloads (e.g. `matrix_multiply` at any size, or
    /// `dot_product` at any length, map to one skeleton each).
    pub fn skeleton(&self) -> String {
        let mut out = String::new();
        skeleton_expr(&self.body, &mut out);
        out
    }
}

fn skeleton_expr(e: &TermExpr, out: &mut String) {
    match e {
        TermExpr::Literal(_) => out.push_str("lit"),
        TermExpr::Param(_) => out.push_str("arg"),
        TermExpr::Apply { f, args } => {
            skeleton_fun(f, out);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                skeleton_expr(a, out);
            }
            out.push(')');
        }
    }
}

fn skeleton_fun(f: &TermFun, out: &mut String) {
    match f {
        TermFun::Lambda { body, .. } => {
            out.push_str("fn{");
            skeleton_expr(body, out);
            out.push('}');
        }
        TermFun::UserFun(_) => out.push_str("uf"),
        TermFun::Pattern(p) => {
            // `Pattern::name` renders the numeric knobs; the skeleton erases them. Map
            // dimensions and zip arities are shape, not knobs, and stay.
            match p {
                Pattern::Iterate { .. } => out.push_str("iterate"),
                Pattern::Split { .. } => out.push_str("split"),
                Pattern::Zip { arity } => out.push_str(&format!("zip{arity}")),
                Pattern::Get { .. } => out.push_str("get"),
                Pattern::Slide { .. } => out.push_str("slide"),
                Pattern::Pad { .. } => out.push_str("pad"),
                Pattern::AsVector { .. } => out.push_str("asVector"),
                knob_free => out.push_str(&knob_free.name()),
            }
            if let Some(g) = p.nested() {
                out.push('[');
                skeleton_fun(g, out);
                out.push(']');
            }
        }
    }
}

/// Beta-normalises an expression: inlines applications of lambdas (`(λx. b)(a)` → `b[x:=a]`)
/// whenever no work can be duplicated — every parameter is used at most once, or its argument
/// is a bare parameter or literal. Parameter names are globally unique, so substitution is
/// trivially capture-avoiding.
///
/// The builder DSL wraps patterns in lambdas (e.g. `reduce(f, init)` becomes
/// `λxs. reduce(f)(init, xs)` and `compose` chains become nested unary lambdas), which hides
/// pattern adjacency from rules like map fusion. Normalising makes `reduce ∘ map` and
/// `map ∘ map` adjacency structural.
pub fn beta_normalize(e: &TermExpr) -> TermExpr {
    match e {
        TermExpr::Literal(_) | TermExpr::Param(_) => e.clone(),
        TermExpr::Apply { f, args } => {
            let args: Vec<TermExpr> = args.iter().map(beta_normalize).collect();
            let f = normalize_fun(f);
            if let TermFun::Lambda { params, body } = &f {
                let cheap = |a: &TermExpr| matches!(a, TermExpr::Param(_) | TermExpr::Literal(_));
                let inlinable = params.len() == args.len()
                    && params.iter().zip(&args).all(|(p, a)| {
                        cheap(a) || (count_uses(body, p) <= 1 && uses_under_binder(body, p) == 0)
                    });
                if inlinable {
                    let mut inlined = (**body).clone();
                    let bindings: HashMap<&String, &TermExpr> = params.iter().zip(&args).collect();
                    substitute(&mut inlined, &bindings);
                    return beta_normalize(&inlined);
                }
            }
            TermExpr::Apply { f, args }
        }
    }
}

fn normalize_fun(f: &TermFun) -> TermFun {
    match f {
        TermFun::Lambda { params, body } => TermFun::Lambda {
            params: params.clone(),
            body: Box::new(beta_normalize(body)),
        },
        other => {
            let mut out = other.clone();
            if let Some(nested) = out.nested_mut() {
                *nested = normalize_fun(nested);
            }
            out
        }
    }
}

/// Uses of `name` that sit under a *multiplying* binder: the body of a lambda nested inside
/// a pattern function (`map(λy. …name…)`, `reduce(λacc x. …name…)`, …), which runs once per
/// element. Substituting an argument into such a position duplicates its work — and, worse,
/// moves any memory placement it carries (`toLocal` cooperative staging bound outside a
/// `mapLcl` nest) into a per-work-item context, turning a work-group-level copy into a data
/// race. A directly applied lambda (`(λx. …)(a)`) runs once, so its body is transparent.
fn uses_under_binder(e: &TermExpr, name: &str) -> usize {
    match e {
        TermExpr::Literal(_) | TermExpr::Param(_) => 0,
        TermExpr::Apply { f, args } => {
            let in_f = match f {
                TermFun::Lambda { body, .. } => uses_under_binder(body, name),
                other => other.nested().map_or(0, |_| count_uses_fun(other, name)),
            };
            in_f + args
                .iter()
                .map(|a| uses_under_binder(a, name))
                .sum::<usize>()
        }
    }
}

fn count_uses(e: &TermExpr, name: &str) -> usize {
    match e {
        TermExpr::Literal(_) => 0,
        TermExpr::Param(n) => usize::from(n == name),
        TermExpr::Apply { f, args } => {
            count_uses_fun(f, name) + args.iter().map(|a| count_uses(a, name)).sum::<usize>()
        }
    }
}

fn count_uses_fun(f: &TermFun, name: &str) -> usize {
    match f {
        TermFun::Lambda { body, .. } => count_uses(body, name),
        other => other.nested().map_or(0, |g| count_uses_fun(g, name)),
    }
}

fn substitute(e: &mut TermExpr, bindings: &HashMap<&String, &TermExpr>) {
    match e {
        TermExpr::Literal(_) => {}
        TermExpr::Param(n) => {
            if let Some(v) = bindings.get(n) {
                *e = (*v).clone();
            }
        }
        TermExpr::Apply { f, args } => {
            substitute_fun(f, bindings);
            for a in args {
                substitute(a, bindings);
            }
        }
    }
}

fn substitute_fun(f: &mut TermFun, bindings: &HashMap<&String, &TermExpr>) {
    match f {
        TermFun::Lambda { body, .. } => substitute(body, bindings),
        other => {
            if let Some(g) = other.nested_mut() {
                substitute_fun(g, bindings);
            }
        }
    }
}

/// Strips the uniqueness suffix for display.
fn display_name(name: &str) -> String {
    match name.split_once('#') {
        Some((base, _)) => base.to_string(),
        None => name.to_string(),
    }
}

/// The display prefix of a unique name, without allocating.
fn display_prefix(name: &str) -> &str {
    match name.split_once('#') {
        Some((base, _)) => base,
        None => name,
    }
}

// ------------------------------------------------------------------ structural hashing
//
// The exploration driver dedups candidates by a 64-bit *canonical* structural hash instead of
// retaining every candidate's full pretty-printed `Program` string. To keep the dedup
// semantics identical to the old string key, the hash walks the term applying exactly the two
// normalisations `to_program()` + pretty-printing apply:
//
// * parameter names are hashed by their *display* prefix (the `#id` uniqueness suffix is
//   stripped by `to_program`, so alpha-variants that print identically hash identically), and
// * eta-redexes in pattern-nested position (`λx. p(x)` where `p` is not a lambda and does not
//   capture `x`) are contracted on the fly ([`eta_contracted`], shared with the converter).
//
// Everything the printed form distinguishes, the hash distinguishes (plus a little more:
// reorder functions and zip arities, which the printer elides but no rewrite rule varies
// independently of the surrounding structure).

/// A deterministic 64-bit FNV-1a hasher. The dedup keys must be stable across runs, threads
/// and processes (they are compared against a baseline and merged deterministically from
/// worker threads), so the randomly-seeded std `RandomState` is not usable here.
#[derive(Clone, Debug)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl StableHasher {
    /// Creates a hasher with the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher::default()
    }
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl StableHasher {
    /// Hashes a string with a length prefix, so sequences of variable-length names are
    /// unambiguous (`["x", "xx"]` must not collide with `["xx", "x"]`).
    pub(crate) fn write_str(&mut self, s: &str) {
        use std::hash::Hasher;
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }
}

impl Term {
    /// The candidate-dedup key: a canonical structural hash combined with the term size.
    ///
    /// Two terms whose [`Term::to_program`] conversions pretty-print identically receive the
    /// same key, so deduping on this 8-byte key keeps exactly the candidate set the old
    /// `HashSet<String>` of full renderings kept — without materialising the arena program
    /// or the string.
    pub fn dedup_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        h.write_str(&self.name);
        for (name, ty) in &self.params {
            h.write_str(display_prefix(name));
            ty.hash(&mut h);
        }
        hash_expr_canon(&self.body, &mut h);
        h.write_usize(self.body.size());
        h.finish()
    }
}

fn hash_expr_canon(e: &TermExpr, h: &mut StableHasher) {
    use std::hash::Hasher;
    match e {
        TermExpr::Literal(Literal::Float(v)) => {
            h.write_u8(0);
            h.write_u32(v.to_bits());
        }
        TermExpr::Literal(Literal::Int(v)) => {
            h.write_u8(1);
            h.write_i64(*v);
        }
        TermExpr::Param(name) => {
            h.write_u8(2);
            h.write_str(display_prefix(name));
        }
        TermExpr::Apply { f, args } => {
            h.write_u8(3);
            hash_fun_canon(f, h);
            h.write_usize(args.len());
            for a in args {
                hash_expr_canon(a, h);
            }
        }
    }
}

/// The function a nested position denotes once eta-redexes are contracted: `λx. p(x)` is
/// `p`, everything else is itself. [`Term::to_program`] contracts this way so nested
/// patterns regain their compact form, and the canonical hash contracts the same way so
/// it equates exactly what the printed program equates.
///
/// Contraction requires that the parameters do not *also* occur free inside `p` itself
/// (e.g. `λx. mapSeq(λy. add(x, y))(x)` must keep its binder, or `x` becomes unbound).
fn eta_contracted(f: &TermFun) -> &TermFun {
    if let TermFun::Lambda { params, body } = f {
        if let TermExpr::Apply { f: inner, args } = body.as_ref() {
            let direct = params.len() == args.len()
                && params.iter().zip(args).all(|(p, a)| match a {
                    TermExpr::Param(n) => n == p,
                    _ => false,
                })
                && !matches!(inner, TermFun::Lambda { .. })
                && params.iter().all(|p| count_uses_fun(inner, p) == 0);
            if direct {
                return inner;
            }
        }
    }
    f
}

fn hash_fun_canon(f: &TermFun, h: &mut StableHasher) {
    use std::hash::Hasher;
    match f {
        TermFun::Lambda { params, body } => {
            h.write_u8(10);
            h.write_usize(params.len());
            for p in params {
                h.write_str(display_prefix(p));
            }
            hash_expr_canon(body, h);
        }
        TermFun::UserFun(uf) => {
            h.write_u8(11);
            h.write_str(uf.name());
            h.write_usize(uf.arity());
        }
        TermFun::Pattern(p) => {
            hash_pattern_head(p, h);
            if let Some(g) = p.nested() {
                hash_fun_canon(eta_contracted(g), h);
            }
        }
    }
}

/// Hashes a pattern's kind and knobs — everything but its nested function. The tag bytes
/// (12–35) are part of every stored dedup and cache key, so they never change.
fn hash_pattern_head<F>(p: &Pattern<F>, h: &mut StableHasher) {
    use std::hash::{Hash, Hasher};
    match p {
        Pattern::Map { .. } => h.write_u8(12),
        Pattern::Reduce { .. } => h.write_u8(13),
        Pattern::MapSeq { .. } => h.write_u8(14),
        Pattern::MapGlb { dim, .. } => {
            h.write_u8(15);
            h.write_u8(*dim);
        }
        Pattern::MapWrg { dim, .. } => {
            h.write_u8(16);
            h.write_u8(*dim);
        }
        Pattern::MapLcl { dim, .. } => {
            h.write_u8(17);
            h.write_u8(*dim);
        }
        Pattern::MapVec { .. } => h.write_u8(18),
        Pattern::ReduceSeq { .. } => h.write_u8(19),
        Pattern::Iterate { n, .. } => {
            h.write_u8(20);
            h.write_u64(*n);
        }
        Pattern::ToGlobal { .. } => h.write_u8(21),
        Pattern::ToLocal { .. } => h.write_u8(22),
        Pattern::ToPrivate { .. } => h.write_u8(23),
        Pattern::Id => h.write_u8(24),
        Pattern::Split { chunk } => {
            h.write_u8(25);
            chunk.hash(h);
        }
        Pattern::Join => h.write_u8(26),
        Pattern::Gather { reorder } => {
            h.write_u8(27);
            hash_reorder(reorder, h);
        }
        Pattern::Scatter { reorder } => {
            h.write_u8(28);
            hash_reorder(reorder, h);
        }
        Pattern::Transpose => h.write_u8(29),
        Pattern::Zip { arity } => {
            h.write_u8(30);
            h.write_usize(*arity);
        }
        Pattern::Get { index } => {
            h.write_u8(31);
            h.write_usize(*index);
        }
        Pattern::Slide { size, step } => {
            h.write_u8(32);
            size.hash(h);
            step.hash(h);
        }
        Pattern::Pad { left, right, mode } => {
            h.write_u8(35);
            left.hash(h);
            right.hash(h);
            h.write_u8(*mode as u8);
        }
        Pattern::AsVector { width } => {
            h.write_u8(33);
            h.write_usize(*width);
        }
        Pattern::AsScalar => h.write_u8(34),
    }
}

fn hash_reorder(r: &Reorder, h: &mut StableHasher) {
    use std::hash::{Hash, Hasher};
    match r {
        Reorder::Identity => h.write_u8(0),
        Reorder::Reverse => h.write_u8(1),
        Reorder::Stride(s) => {
            h.write_u8(2);
            s.hash(h);
        }
    }
}

struct FromProgram<'a> {
    program: &'a Program,
    names: HashMap<ExprId, String>,
}

impl FromProgram<'_> {
    /// Assigns (or retrieves) the unique name of a parameter expression.
    fn bind(&mut self, id: ExprId) -> String {
        if let Some(n) = self.names.get(&id) {
            return n.clone();
        }
        let base = match &self.program.expr(id).kind {
            ExprKind::Param { name } => name.clone(),
            _ => "p".to_string(),
        };
        let unique = format!("{base}#{}", id.index());
        self.names.insert(id, unique.clone());
        unique
    }

    fn expr(&mut self, id: ExprId) -> TermExpr {
        let program = self.program;
        match &program.expr(id).kind {
            ExprKind::Literal(l) => TermExpr::Literal(*l),
            ExprKind::Param { .. } => TermExpr::Param(self.bind(id)),
            ExprKind::FunCall { f, args } => TermExpr::Apply {
                f: self.fun(*f),
                args: args.iter().map(|a| self.expr(*a)).collect(),
            },
        }
    }

    /// Converts a nested function position, eta-expanding patterns nested in patterns.
    fn nested_fun(&mut self, id: FunDeclId) -> Box<TermFun> {
        let f = self.fun(id);
        let TermFun::Pattern(pattern) = &f else {
            return Box::new(f);
        };
        // Use the arena ids for the synthetic parameter names: decl ids are unique within
        // the source program, so `#e{id}` cannot collide with `#{expr_id}`.
        let mut params = vec![format!("x#e{}", id.index())];
        if matches!(pattern, Pattern::Reduce { .. } | Pattern::ReduceSeq { .. }) {
            params.insert(0, format!("acc#e{}", id.index()));
        }
        Box::new(eta_lambda(f, params))
    }

    fn fun(&mut self, id: FunDeclId) -> TermFun {
        let program = self.program;
        match program.decl(id) {
            FunDecl::Lambda { params, body } => TermFun::Lambda {
                params: params.iter().map(|p| self.bind(*p)).collect(),
                body: Box::new(self.expr(*body)),
            },
            FunDecl::UserFun(uf) => TermFun::UserFun(uf.clone()),
            FunDecl::Pattern(p) => TermFun::Pattern(p.map_nested(|f| self.nested_fun(*f))),
        }
    }
}

struct ToProgram<'a> {
    program: &'a mut Program,
    /// Lexical scope stack mapping unique names to arena param ids.
    scope: Vec<(String, ExprId)>,
}

impl ToProgram<'_> {
    fn lookup(&self, name: &str) -> ExprId {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
            .unwrap_or_else(|| panic!("parameter `{name}` is not in scope"))
    }

    fn expr(&mut self, e: &TermExpr) -> ExprId {
        match e {
            TermExpr::Literal(Literal::Float(v)) => self.program.literal_f32(*v),
            TermExpr::Literal(Literal::Int(v)) => self.program.literal_i64(*v),
            TermExpr::Param(name) => self.lookup(name),
            TermExpr::Apply { f, args } => {
                let f = self.fun(f);
                let args: Vec<ExprId> = args.iter().map(|a| self.expr(a)).collect();
                self.program.apply(f, args)
            }
        }
    }

    /// Converts a function in nested position, contracting eta-redexes (`λx. p(x)` → `p`).
    fn nested(&mut self, f: &TermFun) -> FunDeclId {
        self.fun(eta_contracted(f))
    }

    fn fun(&mut self, f: &TermFun) -> FunDeclId {
        match f {
            TermFun::Lambda { params, body } => {
                let mut ids = Vec::with_capacity(params.len());
                for name in params {
                    let id = self.program.untyped_param(display_name(name));
                    self.scope.push((name.clone(), id));
                    ids.push(id);
                }
                let body = self.expr(body);
                self.scope.truncate(self.scope.len() - params.len());
                self.program.add_decl(FunDecl::Lambda { params: ids, body })
            }
            TermFun::UserFun(uf) => self.program.user_fun(uf.clone()),
            TermFun::Pattern(p) => {
                let pattern = p.map_nested(|g| self.nested(g));
                self.program.add_decl(FunDecl::Pattern(pattern))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_interp::{evaluate, Value};

    fn high_level_dot(n: usize) -> Program {
        let mut p = Program::new("dot");
        let mult = p.user_fun(UserFun::mult_pair());
        let add = p.user_fun(UserFun::add());
        let m = p.map(mult);
        let red = p.reduce(add, 0.0);
        let z = p.zip2();
        p.with_root(
            vec![
                ("x", Type::array(Type::float(), n)),
                ("y", Type::array(Type::float(), n)),
            ],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                let mapped = p.apply1(m, zipped);
                p.apply1(red, mapped)
            },
        );
        p
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let p = high_level_dot(8);
        let term = Term::from_program(&p).expect("converts");
        let q = term.to_program();
        let x = Value::from_f32_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let y = Value::from_f32_slice(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        let a = evaluate(&p, &[x.clone(), y.clone()]).unwrap().flatten_f32();
        let b = evaluate(&q, &[x, y]).unwrap().flatten_f32();
        assert_eq!(a, b);
    }

    #[test]
    fn round_trip_contracts_eta_redexes() {
        // map(map f) converts to an eta-expanded tree and back to the compact nesting.
        let mut p = Program::new("t");
        let id = p.user_fun(UserFun::id_float());
        let inner = p.map_seq(id);
        let outer = p.map_seq(inner);
        p.with_root(
            vec![("x", Type::array(Type::array(Type::float(), 2usize), 3usize))],
            |p, params| p.apply1(outer, params[0]),
        );
        let term = Term::from_program(&p).expect("converts");
        // The eta-expanded tree exposes the inner pattern application…
        let TermExpr::Apply {
            f: TermFun::Pattern(Pattern::MapSeq { f: nested }),
            ..
        } = &term.body
        else {
            panic!("expected a mapSeq application, got {:?}", term.body);
        };
        assert!(matches!(nested.as_ref(), TermFun::Lambda { .. }));
        // …and the round trip restores the compact form.
        let q = term.to_program();
        assert_eq!(p.to_string(), q.to_string());
    }

    #[test]
    fn eta_contraction_keeps_binders_captured_inside_the_pattern() {
        // outer = mapSeq(λx. mapSeq(λy. add(x, y))(x)): the nested lambda's parameter is
        // captured inside the inner pattern's function, so `λx. P(x)` must NOT contract.
        let mut p = Program::new("capture");
        let add = p.user_fun(UserFun::add());
        let lam = p.lambda(&["x"], |p, params| {
            let x = params[0];
            let inner = p.lambda(&["y"], |p, ps| p.apply(add, [x, ps[0]]));
            let ms = p.map_seq(inner);
            p.apply1(ms, x)
        });
        let outer = p.map_seq(lam);
        p.with_root(
            vec![(
                "xs",
                Type::array(Type::array(Type::float(), 2usize), 3usize),
            )],
            |p, params| p.apply1(outer, params[0]),
        );
        let term = Term::from_program(&p).expect("converts");
        let q = term.to_program(); // must not panic on an unbound parameter
                                   // The capturing lambda must survive the round trip un-contracted.
        assert_eq!(p.to_string(), q.to_string());
        let FunDecl::Pattern(Pattern::MapSeq { f }) = q.decl(match q.decl(q.root().unwrap()) {
            FunDecl::Lambda { body, .. } => match &q.expr(*body).kind {
                ExprKind::FunCall { f, .. } => *f,
                other => panic!("expected a call, got {other:?}"),
            },
            _ => unreachable!(),
        }) else {
            panic!("expected the outer mapSeq");
        };
        assert!(
            matches!(q.decl(*f), FunDecl::Lambda { .. }),
            "the capturing lambda was eta-contracted away"
        );
    }

    #[test]
    fn listing1_round_trips_through_the_tree_form() {
        // The full Listing 1 program exercises compose lambdas, iterate, toLocal/toGlobal.
        let p = lift_benchmark_dot(256);
        let term = Term::from_program(&p).expect("converts");
        let q = term.to_program();
        let x: Vec<f32> = (0..256).map(|i| (i % 7) as f32).collect();
        let y: Vec<f32> = (0..256).map(|i| (i % 5) as f32 * 0.5).collect();
        let a = evaluate(&p, &[Value::from_f32_slice(&x), Value::from_f32_slice(&y)])
            .unwrap()
            .flatten_f32();
        let b = evaluate(&q, &[Value::from_f32_slice(&x), Value::from_f32_slice(&y)])
            .unwrap()
            .flatten_f32();
        assert_eq!(a, b);
    }

    /// A local copy of the Listing 1 builder (the benchmarks crate depends on this one's
    /// siblings, so the test rebuilds the program instead of importing it).
    fn lift_benchmark_dot(n: usize) -> Program {
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
            vec![
                ("x", Type::array(Type::float(), n)),
                ("y", Type::array(Type::float(), n)),
            ],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                let split = p.apply1(s128, zipped);
                let mapped = p.apply1(wg, split);
                p.apply1(jout, mapped)
            },
        );
        p
    }
}
