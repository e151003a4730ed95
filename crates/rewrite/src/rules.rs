//! The rewrite rules.
//!
//! Two families, following *Generating Performance Portable Code using Rewrite Rules*
//! (Steuwer et al., arXiv:1502.02389):
//!
//! * **Algorithmic rules** are provably semantics-preserving identities between high-level
//!   expressions: map fusion, the split-join decomposition (with arithmetically checked
//!   divisibility of the split factor), partial-reduction promotion, iterate decomposition
//!   and the data-layout identities (`transpose ∘ transpose = id`, `scatter f ∘ gather f =
//!   id`, `join ∘ split n = id`).
//! * **Lowering rules** map the backend-agnostic `map`/`reduce` onto the OpenCL-specific
//!   patterns: `mapGlb`, `mapWrg ∘ mapLcl` (with a work-group split), `mapSeq`,
//!   `mapVec`-based vectorisation via `asVector`/`asScalar`, `reduceSeq`, and the
//!   `toLocal`/`toGlobal`/`toPrivate` memory-placement wrappers. Lowering rules carry side
//!   conditions over the [`NestContext`] (e.g. `mapLcl` is only legal inside a `mapWrg`) so
//!   the exploration only produces structurally legal OpenCL nestings.
//!
//! Every rule is *local*: it matches one application site ([`crate::traversal::Site`]) and
//! returns zero or more replacement expressions. The exploration driver re-typechecks every
//! derived program, so rules may be liberal as long as they preserve semantics.

use lift_arith::ArithExpr;
use lift_interp::Value;
use lift_ir::{Pattern as P, Type};

use crate::term::TermFun::{self, Pattern as Pat};
use crate::term::{FreshNames, TermExpr};
use crate::traversal::{infer_type, NestContext, TypeEnv};

/// Which family a rule belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleKind {
    /// Semantics-preserving identity between high-level expressions.
    Algorithmic,
    /// Maps high-level patterns onto OpenCL-specific ones.
    Lowering,
}

/// A rectangular tile: `y` rows by `x` columns.
///
/// The 1D rules (overlapped stencil tiling) consume only the `x` extent and match only
/// tiles constructed with [`TileSize::d1`] (`y == 1`); the 2D matrix-tiling rule consumes
/// genuinely two-dimensional tiles (`y > 1 && x > 1`), pairing the row-tile height with the
/// column-tile width of one work group's output block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileSize {
    /// Rows per tile (the `dim == 1` extent).
    pub y: i64,
    /// Columns per tile (the `dim == 0` extent) — the whole tile for 1D rules.
    pub x: i64,
}

impl TileSize {
    /// A one-dimensional tile of `x` elements (stencil windows per work-group tile).
    pub const fn d1(x: i64) -> TileSize {
        TileSize { y: 1, x }
    }

    /// A two-dimensional tile of `y` rows by `x` columns.
    pub const fn d2(y: i64, x: i64) -> TileSize {
        TileSize { y, x }
    }

    /// Whether this tile is one-dimensional (a single row).
    pub const fn is_d1(&self) -> bool {
        self.y == 1
    }
}

impl std::fmt::Debug for TileSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_d1() {
            write!(f, "{}", self.x)
        } else {
            write!(f, "{}x{}", self.y, self.x)
        }
    }
}

impl std::fmt::Display for TileSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Numeric knobs the parameterised rules draw from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RuleOptions {
    /// Candidate `split` factors (checked for divisibility against the array length).
    pub split_sizes: Vec<i64>,
    /// Candidate vector widths for the vectorisation rule.
    pub vector_widths: Vec<usize>,
    /// Candidate tile shapes, a tuning dimension in both tiling rule families: 1D tiles
    /// ([`TileSize::d1`]) are windows per tile for the overlapped stencil tiling, 2D tiles
    /// ([`TileSize::d2`]) are the output row/column block one work group computes in the
    /// matrix tiling. Divisibility against the tiled extents is arithmetically checked,
    /// like `split_sizes`; the best tile balances local-memory footprint against the number
    /// of work groups.
    pub tile_sizes: Vec<TileSize>,
}

impl Default for RuleOptions {
    fn default() -> Self {
        RuleOptions {
            split_sizes: vec![2, 4, 8],
            vector_widths: vec![4],
            tile_sizes: vec![TileSize::d1(32), TileSize::d1(64)],
        }
    }
}

/// Everything a rule may consult at a site.
pub struct RuleCx<'a> {
    /// The enclosing parallel patterns.
    pub context: NestContext,
    /// Types of the site's arguments, where derivable.
    pub arg_types: &'a [Option<Type>],
    /// Parameter types in scope at the site (for typing arbitrary subexpressions).
    pub env: &'a TypeEnv,
    /// Numeric knobs.
    pub options: &'a RuleOptions,
    /// Fresh-name supply for synthesised lambdas.
    pub fresh: &'a mut FreshNames,
}

/// Which of the three [`RuleOptions`] lists one rule application read.
///
/// A rule's rewrites at a site are a function of the site and of the lists it read — of
/// nothing else in the options — so two option sets that agree on those lists get the same
/// rewrites there (what [`Search::enumerate`](crate::Search::enumerate) recalls by, and what
/// `tests/exploration_regression.rs` pins rule by rule).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct OptionAxes {
    /// [`RuleOptions::split_sizes`] was read.
    pub split_sizes: bool,
    /// [`RuleOptions::vector_widths`] was read.
    pub vector_widths: bool,
    /// [`RuleOptions::tile_sizes`] was read.
    pub tile_sizes: bool,
}

/// The view of a site the rule functions work on. Its own module, so that the option lists
/// are private to it: a rule gets at them through the accessors, which log the axis.
mod logged {
    use super::{
        FreshNames, NestContext, OptionAxes, RuleCx, RuleOptions, TileSize, Type, TypeEnv,
    };

    /// A [`RuleCx`] whose options are handed out list by list, each hand-out logged.
    pub(super) struct Cx<'c> {
        pub(super) context: NestContext,
        pub(super) arg_types: &'c [Option<Type>],
        pub(super) env: &'c TypeEnv,
        pub(super) fresh: &'c mut FreshNames,
        options: &'c RuleOptions,
        read: OptionAxes,
    }

    impl<'c> Cx<'c> {
        pub(super) fn new(cx: &'c mut RuleCx<'_>) -> Cx<'c> {
            Cx {
                context: cx.context,
                arg_types: cx.arg_types,
                env: cx.env,
                fresh: cx.fresh,
                options: cx.options,
                read: OptionAxes::default(),
            }
        }

        pub(super) fn split_sizes(&mut self) -> &'c [i64] {
            self.read.split_sizes = true;
            &self.options.split_sizes
        }

        pub(super) fn vector_widths(&mut self) -> &'c [usize] {
            self.read.vector_widths = true;
            &self.options.vector_widths
        }

        pub(super) fn tile_sizes(&mut self) -> &'c [TileSize] {
            self.read.tile_sizes = true;
            &self.options.tile_sizes
        }

        /// The lists handed out so far.
        pub(super) fn read(&self) -> OptionAxes {
            self.read
        }
    }
}
use logged::Cx;

impl Cx<'_> {
    /// The element type and length of the site's first argument, if it is an array.
    fn arg0_array(&self) -> Option<(Type, ArithExpr)> {
        self.arg_types
            .first()?
            .as_ref()?
            .as_array()
            .map(|(e, l)| (e.clone(), l.clone()))
    }

    /// Split factors that provably divide `len` (rule 1 of Section 5.3: `c` divides `len`
    /// exactly when the normalised remainder is the constant zero).
    fn dividing_splits(&mut self, len: &ArithExpr) -> Vec<i64> {
        self.split_sizes()
            .iter()
            .copied()
            .filter(|c| *c > 1 && divides(*c, len))
            .collect()
    }

    /// Stencil tile sizes (windows per tile) that provably divide the window count without
    /// degenerating into "one tile covers everything". Only 1D tiles participate — a 2D
    /// tile shape addresses the matrix-tiling rule, not the stencil family.
    fn dividing_tiles(&mut self, window_count: &ArithExpr) -> Vec<i64> {
        self.tile_sizes()
            .iter()
            .filter(|t| t.is_d1())
            .map(|t| t.x)
            .filter(|v| {
                *v > 1 && divides(*v, window_count) && window_count.as_cst().is_none_or(|w| *v < w)
            })
            .collect()
    }

    /// 2D tile shapes whose row extent provably divides `rows` and column extent provably
    /// divides `cols` (both extents must be genuine, i.e. greater than one).
    fn dividing_tile_pairs(&mut self, rows: &ArithExpr, cols: &ArithExpr) -> Vec<TileSize> {
        self.tile_sizes()
            .iter()
            .copied()
            .filter(|t| t.y > 1 && t.x > 1 && divides(t.y, rows) && divides(t.x, cols))
            .collect()
    }
}

/// Arithmetically checked divisibility: `c | len` iff `len mod c` normalises to 0.
pub fn divides(c: i64, len: &ArithExpr) -> bool {
    (len.clone() % ArithExpr::cst(c)).is_cst(0)
}

/// Checks that the literal initialiser is neutral for the binary operator by probing
/// `op(z, t) == t == op(t, z)` over a spread of values. Reordering rules such as partial
/// reduction apply the initialiser once per chunk, which is only sound when it is neutral
/// (`reduce(add, 1.0)` over `k` chunks would otherwise add `1.0` `k` extra times).
fn is_neutral_init(uf: &lift_ir::UserFun, init: &TermExpr) -> bool {
    let TermExpr::Literal(lift_ir::Literal::Float(z)) = init else {
        return false;
    };
    const PROBES: [f32; 6] = [-3.5, -1.0, 0.0, 0.25, 2.0, 7.5];
    PROBES.iter().all(|t| {
        let left = lift_interp::eval_scalar(uf.body(), &[Value::Float(*z), Value::Float(*t)]);
        let right = lift_interp::eval_scalar(uf.body(), &[Value::Float(*t), Value::Float(*z)]);
        left.as_f32() == Some(*t) && right.as_f32() == Some(*t)
    })
}

/// A named rewrite rule.
pub struct Rule {
    /// The rule name shown in derivation chains.
    pub name: &'static str,
    /// The rule family.
    pub kind: RuleKind,
    apply: fn(&TermExpr, &mut Cx) -> Vec<TermExpr>,
}

impl Rule {
    /// All rewrites this rule can perform at the given site.
    pub fn applications(&self, site: &TermExpr, cx: &mut RuleCx) -> Vec<TermExpr> {
        self.applications_logged(site, cx).0
    }

    /// [`Rule::applications`], together with the option lists the application read.
    pub fn applications_logged(
        &self,
        site: &TermExpr,
        cx: &mut RuleCx,
    ) -> (Vec<TermExpr>, OptionAxes) {
        let mut cx = Cx::new(cx);
        let rewrites = (self.apply)(site, &mut cx);
        (rewrites, cx.read())
    }
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

/// Version of the rule set, bumped whenever the behaviour of [`all_rules`] changes in a way
/// that invalidates recorded derivations: a rule added, removed, renamed or reordered, or a
/// parameterised rule changing how it enumerates alternatives. Recorded
/// [`DerivationStep`](crate::explore::DerivationStep) chains address rules by name and
/// rewrites by alternative index, so any such change silently re-targets old chains — the
/// derivation-service cache keys every entry by this constant and drops the whole
/// generation when it moves.
pub const RULE_SET_VERSION: u32 = 1;

/// The complete rule set.
pub fn all_rules() -> &'static [Rule] {
    const RULES: &[Rule] = &[
        // -------------------------------------------------------- algorithmic
        Rule {
            name: "map-fusion",
            kind: RuleKind::Algorithmic,
            apply: map_fusion,
        },
        Rule {
            name: "reduce-map-fusion",
            kind: RuleKind::Algorithmic,
            apply: reduce_map_fusion,
        },
        Rule {
            name: "split-join",
            kind: RuleKind::Algorithmic,
            apply: split_join,
        },
        Rule {
            name: "partial-reduce",
            kind: RuleKind::Algorithmic,
            apply: partial_reduce,
        },
        Rule {
            name: "iterate-decomposition",
            kind: RuleKind::Algorithmic,
            apply: iterate_decomposition,
        },
        Rule {
            name: "split-join-id",
            kind: RuleKind::Algorithmic,
            apply: split_join_id,
        },
        Rule {
            name: "transpose-transpose-id",
            kind: RuleKind::Algorithmic,
            apply: transpose_transpose_id,
        },
        Rule {
            name: "gather-scatter-id",
            kind: RuleKind::Algorithmic,
            apply: gather_scatter_id,
        },
        Rule {
            name: "map-join-promotion",
            kind: RuleKind::Algorithmic,
            apply: map_join_promotion,
        },
        Rule {
            name: "split-map-promotion",
            kind: RuleKind::Algorithmic,
            apply: split_map_promotion,
        },
        Rule {
            name: "reduceSeq-mapSeq-fusion",
            kind: RuleKind::Algorithmic,
            apply: reduce_seq_map_seq_fusion,
        },
        // ------------------------------------------------------------- stencil
        Rule {
            name: "slide-tiling",
            kind: RuleKind::Algorithmic,
            apply: slide_tiling,
        },
        Rule {
            name: "pad-map-commute",
            kind: RuleKind::Algorithmic,
            apply: pad_map_commute,
        },
        Rule {
            name: "pad-pad-merge",
            kind: RuleKind::Algorithmic,
            apply: pad_pad_merge,
        },
        Rule {
            name: "reduce-to-iterate",
            kind: RuleKind::Algorithmic,
            apply: reduce_to_iterate,
        },
        Rule {
            name: "stencil-wrg-tiling",
            kind: RuleKind::Lowering,
            apply: stencil_wrg_tiling,
        },
        Rule {
            name: "mm-tiled-2d",
            kind: RuleKind::Lowering,
            apply: mm_tiled_2d,
        },
        // ----------------------------------------------------------- lowering
        Rule {
            name: "map-to-mapSeq",
            kind: RuleKind::Lowering,
            apply: map_to_map_seq,
        },
        Rule {
            name: "map-to-mapGlb",
            kind: RuleKind::Lowering,
            apply: map_to_map_glb,
        },
        Rule {
            name: "map-to-mapWrg-mapLcl",
            kind: RuleKind::Lowering,
            apply: map_to_wrg_lcl,
        },
        Rule {
            name: "map-to-mapLcl",
            kind: RuleKind::Lowering,
            apply: map_to_map_lcl,
        },
        Rule {
            name: "map-vectorise",
            kind: RuleKind::Lowering,
            apply: map_vectorise,
        },
        Rule {
            name: "reduce-to-reduceSeq",
            kind: RuleKind::Lowering,
            apply: reduce_to_reduce_seq,
        },
        Rule {
            name: "wrap-toLocal",
            kind: RuleKind::Lowering,
            apply: wrap_to_local,
        },
        Rule {
            name: "wrap-toGlobal",
            kind: RuleKind::Lowering,
            apply: wrap_to_global,
        },
        Rule {
            name: "wrap-toPrivate",
            kind: RuleKind::Lowering,
            apply: wrap_to_private,
        },
    ];
    RULES
}

// ---------------------------------------------------------------------- helpers

/// Matches `map(f)(x)`, returning the mapped function and input.
fn as_map(site: &TermExpr) -> Option<(&TermFun, &TermExpr)> {
    match site {
        TermExpr::Apply {
            f: Pat(P::Map { f: g }),
            args,
        } if args.len() == 1 => Some((g, &args[0])),
        _ => None,
    }
}

/// The pattern `pattern(f)` in function position, with its nested function boxed:
/// `nest(|f| P::MapLcl { dim: 0, f }, g)` is `mapLcl⁰(g)`.
fn nest(pattern: impl FnOnce(Box<TermFun>) -> P<Box<TermFun>>, f: TermFun) -> TermFun {
    Pat(pattern(Box::new(f)))
}

/// `split c` for a constant chunk.
fn split_by(chunk: i64) -> TermFun {
    Pat(P::Split {
        chunk: ArithExpr::cst(chunk),
    })
}

/// `slide size step` for a constant window.
fn slide_by(size: i64, step: i64) -> TermFun {
    Pat(P::Slide {
        size: ArithExpr::cst(size),
        step: ArithExpr::cst(step),
    })
}

/// `λx. outer(inner(x))`.
fn composed(outer: &TermFun, inner: &TermFun, fresh: &mut FreshNames) -> TermFun {
    let x = fresh.next("x");
    TermFun::Lambda {
        params: vec![x.clone()],
        body: Box::new(TermExpr::apply1(
            outer.clone(),
            TermExpr::apply1(inner.clone(), TermExpr::Param(x)),
        )),
    }
}

/// `map(f)` with the nested function eta-wrapped when it is itself a pattern (keeping the
/// invariant that pattern applications stay visible to the traversal).
fn map_of(f: TermFun, fresh: &mut FreshNames) -> TermFun {
    nest(|f| P::Map { f }, f.eta(fresh))
}

/// Does the subtree introduce work-item/work-group parallelism already?
fn fun_contains_parallel(f: &TermFun) -> bool {
    match f {
        Pat(P::MapGlb { .. }) | Pat(P::MapWrg { .. }) | Pat(P::MapLcl { .. }) => true,
        TermFun::Lambda { body, .. } => expr_contains_parallel(body),
        other => other.nested().is_some_and(fun_contains_parallel),
    }
}

fn expr_contains_parallel(e: &TermExpr) -> bool {
    match e {
        TermExpr::Literal(_) | TermExpr::Param(_) => false,
        TermExpr::Apply { f, args } => {
            fun_contains_parallel(f) || args.iter().any(expr_contains_parallel)
        }
    }
}

/// Whether `name` occurs as a parameter reference anywhere in the expression. Conservative
/// about shadowing (an occurrence under a rebinding lambda still counts), which only makes
/// the rules using it decline more sites than strictly necessary.
fn expr_uses_param(e: &TermExpr, name: &str) -> bool {
    fn fun_uses(f: &TermFun, name: &str) -> bool {
        match f {
            TermFun::Lambda { body, .. } => expr_uses_param(body, name),
            other => other.nested().is_some_and(|g| fun_uses(g, name)),
        }
    }
    match e {
        TermExpr::Literal(_) => false,
        TermExpr::Param(p) => p == name,
        TermExpr::Apply { f, args } => {
            fun_uses(f, name) || args.iter().any(|a| expr_uses_param(a, name))
        }
    }
}

// ---------------------------------------------------------------- algorithmic rules

/// `map f ∘ map g` → `map (f ∘ g)`.
fn map_fusion(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, inner)) = as_map(site) else {
        return Vec::new();
    };
    let Some((g, x)) = as_map(inner) else {
        return Vec::new();
    };
    vec![TermExpr::apply1(
        nest(|f| P::Map { f }, composed(f, g, cx.fresh)),
        x.clone(),
    )]
}

/// `reduce(f, z) ∘ map(g)` → `reduce(λ(acc, x). f(acc, g(x)), z)` — and the same for the
/// lowered `reduceSeq`/`mapSeq` pair via [`reduce_seq_map_seq_fusion`].
fn reduce_map_fusion(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f: Pat(P::Reduce { f: op }),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [init, input] = args.as_slice() else {
        return Vec::new();
    };
    let Some((g, x)) = as_map(input) else {
        return Vec::new();
    };
    vec![TermExpr::Apply {
        f: nest(
            |f| P::Reduce { f },
            fused_reduction_operator(op, g, cx.fresh),
        ),
        args: vec![init.clone(), x.clone()],
    }]
}

/// `reduceSeq(f, z) ∘ mapSeq(g)` → `reduceSeq(λ(acc, x). f(acc, g(x)), z)` (Section 4.2 of
/// the rewrite paper: the fusion that avoids materialising the mapped array).
fn reduce_seq_map_seq_fusion(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f: Pat(P::ReduceSeq { f: op }),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [init, input] = args.as_slice() else {
        return Vec::new();
    };
    let TermExpr::Apply {
        f: Pat(P::MapSeq { f: g }),
        args: inner_args,
    } = input
    else {
        return Vec::new();
    };
    let [x] = inner_args.as_slice() else {
        return Vec::new();
    };
    vec![TermExpr::Apply {
        f: nest(
            |f| P::ReduceSeq { f },
            fused_reduction_operator(op, g, cx.fresh),
        ),
        args: vec![init.clone(), x.clone()],
    }]
}

/// `λ(acc, x). op(acc, g(x))`.
fn fused_reduction_operator(op: &TermFun, g: &TermFun, fresh: &mut FreshNames) -> TermFun {
    let acc = fresh.next("acc");
    let x = fresh.next("x");
    TermFun::Lambda {
        params: vec![acc.clone(), x.clone()],
        body: Box::new(TermExpr::Apply {
            f: op.clone(),
            args: vec![
                TermExpr::Param(acc),
                TermExpr::apply1(g.clone(), TermExpr::Param(x)),
            ],
        }),
    }
}

/// `map f` → `join ∘ map(map f) ∘ split n`, for every `n` that divides the input length.
fn split_join(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    if cx.context.inside_iterate {
        return Vec::new();
    }
    let Some((f, x)) = as_map(site) else {
        return Vec::new();
    };
    let Some((_, len)) = cx.arg0_array() else {
        return Vec::new();
    };
    cx.dividing_splits(&len)
        .into_iter()
        .map(|c| {
            let inner = map_of(nest(|f| P::Map { f }, f.clone()), cx.fresh);
            TermExpr::apply1(
                Pat(P::Join),
                TermExpr::apply1(inner, TermExpr::apply1(split_by(c), x.clone())),
            )
        })
        .collect()
}

/// `reduce(f, z)` → `reduce(f, z) ∘ join ∘ map(reduce(f, z)) ∘ split n` (partial reduction).
///
/// Side conditions: the operator must be a user function *declared* associative and
/// commutative ([`lift_ir::UserFun::is_assoc_commutative`]) and the literal initialiser must
/// be neutral for it ([`is_neutral_init`]). Both matter: fusion synthesises fold operators
/// like `λ(acc, x). acc + x*x` which have the right *type* but reorder incorrectly (partial
/// sums get squared again), and a non-neutral initialiser such as `reduce(add, 1.0)` would
/// be re-added once per chunk.
fn partial_reduce(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    if cx.context.inside_iterate {
        return Vec::new();
    }
    let TermExpr::Apply {
        f: Pat(P::Reduce { f: op }),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [init, x] = args.as_slice() else {
        return Vec::new();
    };
    match op.as_ref() {
        TermFun::UserFun(uf) if uf.is_assoc_commutative() && is_neutral_init(uf, init) => {}
        _ => return Vec::new(),
    }
    let Some((_, len)) = cx
        .arg_types
        .get(1)
        .and_then(|t| t.as_ref()?.as_array().map(|(e, l)| (e.clone(), l.clone())))
    else {
        return Vec::new();
    };
    cx.dividing_splits(&len)
        .into_iter()
        .map(|c| {
            let chunk = cx.fresh.next("chunk");
            let per_chunk = TermFun::Lambda {
                params: vec![chunk.clone()],
                body: Box::new(TermExpr::Apply {
                    f: Pat(P::Reduce { f: op.clone() }),
                    args: vec![init.clone(), TermExpr::Param(chunk)],
                }),
            };
            TermExpr::Apply {
                f: Pat(P::Reduce { f: op.clone() }),
                args: vec![
                    init.clone(),
                    TermExpr::apply1(
                        Pat(P::Join),
                        TermExpr::apply1(
                            nest(|f| P::Map { f }, per_chunk),
                            TermExpr::apply1(split_by(c), x.clone()),
                        ),
                    ),
                ],
            }
        })
        .collect()
}

/// `iterate n f` → `f ∘ iterate (n-1) f` (and `iterate 0 f` → `id`).
fn iterate_decomposition(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f: Pat(P::Iterate { n, f: g }),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [x] = args.as_slice() else {
        return Vec::new();
    };
    match n {
        0 => vec![x.clone()],
        1 => vec![TermExpr::apply1((**g).clone(), x.clone())],
        n => vec![TermExpr::apply1(
            (**g).clone(),
            TermExpr::apply1(
                Pat(P::Iterate {
                    n: n - 1,
                    f: g.clone(),
                }),
                x.clone(),
            ),
        )],
    }
}

/// `join ∘ split n` → `id` (requires `n` to divide the length, which holds by construction
/// when the inner type is derivable and the outer length matches).
fn split_join_id(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f: Pat(P::Join),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [TermExpr::Apply {
        f: Pat(P::Split { chunk: c }),
        args: inner,
    }] = args.as_slice()
    else {
        return Vec::new();
    };
    let [x] = inner.as_slice() else {
        return Vec::new();
    };
    // The split input's length must be provably divisible by the chunk, otherwise
    // `join(split_c(x))` drops the remainder and is not the identity.
    let Some(c) = c.as_cst() else {
        return Vec::new();
    };
    let x_len = infer_type(x, cx.env).and_then(|t| t.as_array().map(|(_, l)| l.clone()));
    match x_len {
        Some(len) if divides(c, &len) => vec![x.clone()],
        _ => Vec::new(),
    }
}

/// `transpose ∘ transpose` → `id`.
fn transpose_transpose_id(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f: Pat(P::Transpose),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [TermExpr::Apply {
        f: Pat(P::Transpose),
        args: inner,
    }] = args.as_slice()
    else {
        return Vec::new();
    };
    match inner.as_slice() {
        [x] => vec![x.clone()],
        _ => Vec::new(),
    }
}

/// `scatter f ∘ gather f` → `id` and `gather f ∘ scatter f` → `id`.
fn gather_scatter_id(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply { f: outer, args } = site else {
        return Vec::new();
    };
    let [TermExpr::Apply {
        f: inner,
        args: inner_args,
    }] = args.as_slice()
    else {
        return Vec::new();
    };
    let [x] = inner_args.as_slice() else {
        return Vec::new();
    };
    match (outer, inner) {
        (Pat(P::Scatter { reorder: a }), Pat(P::Gather { reorder: b }))
        | (Pat(P::Gather { reorder: a }), Pat(P::Scatter { reorder: b }))
            if a == b =>
        {
            vec![x.clone()]
        }
        _ => Vec::new(),
    }
}

/// `map f ∘ join` → `join ∘ map(map f)`.
fn map_join_promotion(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, input)) = as_map(site) else {
        return Vec::new();
    };
    let TermExpr::Apply {
        f: Pat(P::Join),
        args: inner,
    } = input
    else {
        return Vec::new();
    };
    let [x] = inner.as_slice() else {
        return Vec::new();
    };
    let mapped = map_of(nest(|f| P::Map { f }, f.clone()), cx.fresh);
    vec![TermExpr::apply1(
        Pat(P::Join),
        TermExpr::apply1(mapped, x.clone()),
    )]
}

/// `split n ∘ map f` → `map(map f) ∘ split n`.
fn split_map_promotion(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f: Pat(P::Split { chunk: c }),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [input] = args.as_slice() else {
        return Vec::new();
    };
    let Some((f, x)) = as_map(input) else {
        return Vec::new();
    };
    let mapped = map_of(nest(|f| P::Map { f }, f.clone()), cx.fresh);
    vec![TermExpr::apply1(
        mapped,
        TermExpr::apply1(Pat(P::Split { chunk: c.clone() }), x.clone()),
    )]
}

// ------------------------------------------------------------------- stencil rules

/// Matches `slide(size, 1)(x)` with a constant window size, returning `(size, x)`.
fn as_unit_step_slide(site: &TermExpr) -> Option<(i64, &TermExpr)> {
    let TermExpr::Apply {
        f: Pat(P::Slide { size, step }),
        args,
    } = site
    else {
        return None;
    };
    let [x] = args.as_slice() else {
        return None;
    };
    if !step.is_cst(1) {
        return None;
    }
    size.as_cst().map(|s| (s, x))
}

/// Overlapped tiling (the stencil analogue of split-join):
/// `slide n 1` → `join ∘ map(slide n 1) ∘ slide (n+v-1) v` for every tile size `v` that
/// divides the window count. The outer slide carves the input into tiles of `v` windows
/// (each `n+v-1` elements long, overlapping its neighbours by `n-1`), the mapped inner
/// slide re-creates the windows per tile, and `join` restores the original window order.
fn slide_tiling(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    if cx.context.inside_iterate {
        return Vec::new();
    }
    let Some((size, x)) = as_unit_step_slide(site) else {
        return Vec::new();
    };
    let Some((_, len)) = cx.arg0_array() else {
        return Vec::new();
    };
    let window_count = len - ArithExpr::cst(size) + 1;
    cx.dividing_tiles(&window_count)
        .into_iter()
        .map(|v| {
            let inner = map_of(slide_by(size, 1), cx.fresh);
            TermExpr::apply1(
                Pat(P::Join),
                TermExpr::apply1(
                    inner,
                    TermExpr::apply1(slide_by(size + v - 1, v), x.clone()),
                ),
            )
        })
        .collect()
}

/// `map f ∘ pad l r` → `pad l r ∘ map f`: every padded element is a copy of an input
/// element, so mapping before or after padding reads the same values — but mapping first
/// does the work once per *input* element instead of once per padded element, and moves the
/// pad next to a `slide` where the tiling rules can see it.
fn pad_map_commute(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, input)) = as_map(site) else {
        return Vec::new();
    };
    let TermExpr::Apply {
        f: Pat(P::Pad { left, right, mode }),
        args: inner,
    } = input
    else {
        return Vec::new();
    };
    let [x] = inner.as_slice() else {
        return Vec::new();
    };
    vec![TermExpr::apply1(
        Pat(P::Pad {
            left: left.clone(),
            right: right.clone(),
            mode: *mode,
        }),
        TermExpr::apply1(nest(|f| P::Map { f }, f.clone()), x.clone()),
    )]
}

/// `padClamp(a, b) ∘ padClamp(c, d)` → `padClamp(a+c, b+d)`. Clamp is the only mode where
/// re-padding keeps replicating the same edge element; mirror and wrap walk further into
/// the array on the second application, so the rule is restricted to clamp.
fn pad_pad_merge(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f:
            Pat(P::Pad {
                left: a,
                right: b,
                mode: lift_ir::PadMode::Clamp,
            }),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [TermExpr::Apply {
        f:
            Pat(P::Pad {
                left: c,
                right: d,
                mode: lift_ir::PadMode::Clamp,
            }),
        args: inner,
    }] = args.as_slice()
    else {
        return Vec::new();
    };
    let [x] = inner.as_slice() else {
        return Vec::new();
    };
    vec![TermExpr::apply1(
        Pat(P::Pad {
            left: a.clone() + c.clone(),
            right: b.clone() + d.clone(),
            mode: lift_ir::PadMode::Clamp,
        }),
        x.clone(),
    )]
}

/// The tree-reduction rule of Listing 1: `reduce(f, z)` over an array of constant length
/// `2^k` → `iterate^k (join ∘ map(reduce(f, z)) ∘ split 2)` — every iteration halves the
/// array by reducing adjacent pairs, which is the shape that lowers to the work-group
/// tree reduction (`mapLcl` over pairs) of the paper's dot-product kernel.
///
/// Side conditions as for partial reduction: the operator must be declared
/// associative-commutative and the initialiser neutral (it is re-applied once per pair per
/// level).
fn reduce_to_iterate(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    if cx.context.inside_iterate {
        return Vec::new();
    }
    let TermExpr::Apply {
        f: Pat(P::Reduce { f: op }),
        args,
    } = site
    else {
        return Vec::new();
    };
    let [init, x] = args.as_slice() else {
        return Vec::new();
    };
    match op.as_ref() {
        TermFun::UserFun(uf) if uf.is_assoc_commutative() && is_neutral_init(uf, init) => {}
        _ => return Vec::new(),
    }
    let Some(len) = cx
        .arg_types
        .get(1)
        .and_then(|t| t.as_ref()?.as_array().map(|(_, l)| l.clone()))
        .and_then(|l| l.as_cst())
    else {
        return Vec::new();
    };
    // Constant power of two, large enough to be worth a tree and small enough to unroll the
    // iterate's type computation.
    if !(4..=4096).contains(&len) || (len as u64).count_ones() != 1 {
        return Vec::new();
    }
    let k = u64::from(len.trailing_zeros());
    let pair = cx.fresh.next("pair");
    let halve_pairs = TermFun::Lambda {
        params: vec![pair.clone()],
        body: Box::new(TermExpr::Apply {
            f: Pat(P::Reduce { f: op.clone() }),
            args: vec![init.clone(), TermExpr::Param(pair)],
        }),
    };
    let level = cx.fresh.next("level");
    let halve = TermFun::Lambda {
        params: vec![level.clone()],
        body: Box::new(TermExpr::apply1(
            Pat(P::Join),
            TermExpr::apply1(
                nest(|f| P::Map { f }, halve_pairs),
                TermExpr::apply1(split_by(2), TermExpr::Param(level)),
            ),
        )),
    };
    vec![TermExpr::apply1(
        nest(|f| P::Iterate { n: k, f }, halve),
        x.clone(),
    )]
}

/// The work-group lowering of an overlapped-tiled stencil, in one step:
///
/// `map f ∘ slide n 1` → `join ∘ mapWrg⁰(mapLcl⁰ f ∘ slide n 1 ∘ toLocal(mapLcl⁰ id)) ∘
/// slide (n+v-1) v`
///
/// Each work group loads one overlapping tile of `n+v-1` input elements into local memory
/// (one cooperative `mapLcl` copy, so every element crosses the global-memory bus once per
/// tile instead of once per window), re-creates the tile's `v` windows with a local `slide`,
/// and computes one window per local work item. `v` comes from
/// [`RuleOptions::tile_sizes`], so the auto-tuner searches the tile size jointly with the
/// launch configuration.
fn stencil_wrg_tiling(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, input)) = as_map(site) else {
        return Vec::new();
    };
    if cx.context.inside_iterate || !cx.context.is_top_level() || fun_contains_parallel(f) {
        return Vec::new();
    }
    let Some((size, x)) = as_unit_step_slide(input) else {
        return Vec::new();
    };
    // The cooperative copy is a float copy: the slide input must be a float array.
    let Some((elem, _)) = cx.arg0_array() else {
        return Vec::new();
    };
    if !elem
        .as_array()
        .is_some_and(|(window_elem, _)| *window_elem == Type::float())
    {
        return Vec::new();
    }
    let Some(len) = infer_type(x, cx.env).and_then(|t| t.as_array().map(|(_, l)| l.clone())) else {
        return Vec::new();
    };
    let window_count = len - ArithExpr::cst(size) + 1;
    cx.dividing_tiles(&window_count)
        .into_iter()
        .map(|v| {
            let tile = cx.fresh.next("tile");
            let copy = TermExpr::apply1(
                nest(
                    |f| P::ToLocal { f },
                    nest(
                        |f| P::MapLcl { dim: 0, f },
                        TermFun::UserFun(lift_ir::UserFun::id_float()),
                    ),
                ),
                TermExpr::Param(tile.clone()),
            );
            let local_windows = TermExpr::apply1(slide_by(size, 1), copy);
            let per_window =
                TermExpr::apply1(nest(|f| P::MapLcl { dim: 0, f }, f.clone()), local_windows);
            let wrg_fun = TermFun::Lambda {
                params: vec![tile],
                body: Box::new(per_window),
            };
            TermExpr::apply1(
                Pat(P::Join),
                TermExpr::apply1(
                    nest(|f| P::MapWrg { dim: 0, f }, wrg_fun),
                    TermExpr::apply1(slide_by(size + v - 1, v), x.clone()),
                ),
            )
        })
        .collect()
}

/// The 2D tiled/register-blocked lowering of matrix multiplication, in one step — the
/// `split∘transpose∘split` tile formation of the paper's Table 1 kernel. It matches the
/// high-level shape
///
/// `map(λrow. join(map(g)(transpose(B))))(A)`
///
/// (each output row pairs one row of `A : [m][k]` against every column of `B : [k][n]`
/// through `g`) and rewrites it, per dividing 2D tile `(tm, tn)`, into
///
/// `join ∘ mapWrg¹(λatile. transpose ∘ join ∘ mapWrg⁰(λbtile. …) ∘ split tn ∘ transpose(B))
///  ∘ split tm(A)`
///
/// where each work group computes one `tm × tn` output block: both the `A`-row tile and the
/// `B`-column tile are staged cooperatively in `__local` memory (2D-distributed
/// `mapLcl⁰/mapLcl¹` copies, so every element crosses the global-memory bus once per tile
/// instead of once per output element), the compute nest distributes columns over `mapLcl⁰`
/// and rows over `mapLcl¹`, and each work item register-blocks its `A` row through a
/// `toPrivate` copy before running the original per-element computation `g` — kept intact
/// as a redex `(λrow. g(bcol))(arowp)`, so the remaining high-level `map`/`reduce` inside
/// lower through the ordinary rules afterwards.
fn mm_tiled_2d(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, a)) = as_map(site) else {
        return Vec::new();
    };
    if cx.context.inside_iterate || !cx.context.is_top_level() || fun_contains_parallel(f) {
        return Vec::new();
    }
    // f = λrow. join(map(g)(transpose(b))), with b independent of the row.
    let TermFun::Lambda { params, body } = f else {
        return Vec::new();
    };
    let [row] = params.as_slice() else {
        return Vec::new();
    };
    let TermExpr::Apply {
        f: Pat(P::Join),
        args,
    } = body.as_ref()
    else {
        return Vec::new();
    };
    let [inner] = args.as_slice() else {
        return Vec::new();
    };
    let Some((g, cols)) = as_map(inner) else {
        return Vec::new();
    };
    if !matches!(g, TermFun::Lambda { params, .. } if params.len() == 1) {
        return Vec::new();
    }
    let TermExpr::Apply {
        f: Pat(P::Transpose),
        args: t_args,
    } = cols
    else {
        return Vec::new();
    };
    let [b] = t_args.as_slice() else {
        return Vec::new();
    };
    if expr_uses_param(b, row) {
        return Vec::new();
    }
    // A : [m][k]float (the cooperative copies and the register blocking are float copies).
    let Some((a_row, m)) = cx.arg0_array() else {
        return Vec::new();
    };
    if !a_row
        .as_array()
        .is_some_and(|(elem, _)| *elem == Type::float())
    {
        return Vec::new();
    }
    // B : [k][n]float — the column count bounds the x tile extent.
    let Some(n) = infer_type(b, cx.env).and_then(|t| {
        let (b_row, _) = t.as_array()?;
        let (b_elem, n) = b_row.as_array()?;
        (*b_elem == Type::float()).then(|| n.clone())
    }) else {
        return Vec::new();
    };
    let id_copy = || TermFun::UserFun(lift_ir::UserFun::id_float());
    cx.dividing_tile_pairs(&m, &n)
        .into_iter()
        .map(|tile| {
            let atile = cx.fresh.next("atile");
            let btile = cx.fresh.next("btile");
            let atl = cx.fresh.next("atl");
            let btl = cx.fresh.next("btl");
            let bcol = cx.fresh.next("bcol");
            let arow = cx.fresh.next("arow");
            // Register blocking: each work item copies its A row to private memory once,
            // then runs the original per-element computation with `row` rebound to the
            // private copy and `g` applied to the work item's B column.
            let arow_private = TermExpr::apply1(
                nest(|f| P::ToPrivate { f }, nest(|f| P::MapSeq { f }, id_copy())),
                TermExpr::Param(arow.clone()),
            );
            let per_pair = TermExpr::apply1(
                TermFun::Lambda {
                    params: vec![row.clone()],
                    body: Box::new(TermExpr::apply1(g.clone(), TermExpr::Param(bcol.clone()))),
                },
                arow_private,
            );
            let per_arow = TermFun::Lambda {
                params: vec![arow],
                body: Box::new(per_pair),
            };
            // Compute nest over the staged tiles: columns on dim 0, rows on dim 1; the
            // join collapses the per-pair `[1]float` reduction results into the column.
            let column_block = TermExpr::apply1(
                Pat(P::Join),
                TermExpr::apply1(
                    nest(|f| P::MapLcl { dim: 1, f }, per_arow),
                    TermExpr::Param(atl.clone()),
                ),
            );
            let compute = TermExpr::apply1(
                nest(
                    |f| P::MapLcl { dim: 0, f },
                    TermFun::Lambda {
                        params: vec![bcol],
                        body: Box::new(column_block),
                    },
                ),
                TermExpr::Param(btl.clone()),
            );
            // Cooperative staging: both tiles land in local memory through 2D-distributed
            // work-item copies (each tile's copy loops over the dimensions in its own
            // natural order, so consecutive work items copy consecutive elements).
            let atile_staged = TermExpr::apply1(
                nest(
                    |f| P::ToLocal { f },
                    nest(
                        |f| P::MapLcl { dim: 1, f },
                        nest(|f| P::MapLcl { dim: 0, f }, id_copy()),
                    ),
                ),
                TermExpr::Param(atile.clone()),
            );
            let btile_staged = TermExpr::apply1(
                nest(
                    |f| P::ToLocal { f },
                    nest(
                        |f| P::MapLcl { dim: 0, f },
                        nest(|f| P::MapLcl { dim: 1, f }, id_copy()),
                    ),
                ),
                TermExpr::Param(btile.clone()),
            );
            let with_atl = TermExpr::apply1(
                TermFun::Lambda {
                    params: vec![atl],
                    body: Box::new(compute),
                },
                atile_staged,
            );
            let per_col_tile = TermFun::Lambda {
                params: vec![btile],
                body: Box::new(TermExpr::apply1(
                    TermFun::Lambda {
                        params: vec![btl],
                        body: Box::new(with_atl),
                    },
                    btile_staged,
                )),
            };
            // Tile formation: split tm over A's rows (dim 1 of the launch grid), split tn
            // over transpose(B)'s rows, i.e. B's columns (dim 0); the trailing
            // join/transpose/join un-tile the [m/tm][tm][n] blocks back to [m][n] purely
            // through views.
            let btiles = TermExpr::apply1(
                split_by(tile.x),
                TermExpr::apply1(Pat(P::Transpose), (*b).clone()),
            );
            let row_block = TermExpr::apply1(
                Pat(P::Transpose),
                TermExpr::apply1(
                    Pat(P::Join),
                    TermExpr::apply1(nest(|f| P::MapWrg { dim: 0, f }, per_col_tile), btiles),
                ),
            );
            TermExpr::apply1(
                Pat(P::Join),
                TermExpr::apply1(
                    nest(
                        |f| P::MapWrg { dim: 1, f },
                        TermFun::Lambda {
                            params: vec![atile],
                            body: Box::new(row_block),
                        },
                    ),
                    TermExpr::apply1(split_by(tile.y), a.clone()),
                ),
            )
        })
        .collect()
}

// ------------------------------------------------------------------ lowering rules

/// `map` → `mapSeq` (legal anywhere).
fn map_to_map_seq(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, x)) = as_map(site) else {
        return Vec::new();
    };
    vec![TermExpr::apply1(
        nest(|f| P::MapSeq { f }, f.clone()),
        x.clone(),
    )]
}

/// `map` → `mapGlb⁰`: only outside any other map, and only when the mapped function does not
/// already contain work-item parallelism.
fn map_to_map_glb(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, x)) = as_map(site) else {
        return Vec::new();
    };
    if !cx.context.is_top_level() || fun_contains_parallel(f) {
        return Vec::new();
    }
    vec![TermExpr::apply1(
        nest(|f| P::MapGlb { dim: 0, f }, f.clone()),
        x.clone(),
    )]
}

/// `map f` → `join ∘ mapWrg⁰(mapLcl⁰ f) ∘ split n`: the work-group lowering.
fn map_to_wrg_lcl(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, x)) = as_map(site) else {
        return Vec::new();
    };
    if cx.context.inside_iterate || !cx.context.is_top_level() || fun_contains_parallel(f) {
        return Vec::new();
    }
    let Some((_, len)) = cx.arg0_array() else {
        return Vec::new();
    };
    cx.dividing_splits(&len)
        .into_iter()
        .map(|c| {
            let t = cx.fresh.next("tile");
            let wrg_fun = TermFun::Lambda {
                params: vec![t.clone()],
                body: Box::new(TermExpr::apply1(
                    nest(|f| P::MapLcl { dim: 0, f }, f.clone()),
                    TermExpr::Param(t),
                )),
            };
            TermExpr::apply1(
                Pat(P::Join),
                TermExpr::apply1(
                    nest(|f| P::MapWrg { dim: 0, f }, wrg_fun),
                    TermExpr::apply1(split_by(c), x.clone()),
                ),
            )
        })
        .collect()
}

/// `map` → `mapLcl⁽ᵈ⁾`: only inside a `mapWrg`, and only along work-group dimensions `d`
/// that do not already carry a local loop at this site — distributing twice over the same
/// dimension would make distinct iterations share work items. Inside a 1D `mapWrg⁰` this
/// yields exactly the old `mapLcl⁰` lowering; inside a 2D nest each still-free dimension is
/// offered.
fn map_to_map_lcl(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    let Some((f, x)) = as_map(site) else {
        return Vec::new();
    };
    if !cx.context.inside_wrg || fun_contains_parallel(f) {
        return Vec::new();
    }
    let free = cx.context.wrg_dims & !cx.context.lcl_dims;
    (0u8..8)
        .filter(|d| free & (1 << d) != 0)
        .map(|d| TermExpr::apply1(nest(|f| P::MapLcl { dim: d, f }, f.clone()), x.clone()))
        .collect()
}

/// `map f` → `asScalar ∘ map(mapVec f) ∘ asVector w` for unary scalar user functions over
/// float arrays whose length the width divides.
fn map_vectorise(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    if cx.context.inside_iterate {
        return Vec::new();
    }
    let Some((f, x)) = as_map(site) else {
        return Vec::new();
    };
    let TermFun::UserFun(uf) = f else {
        return Vec::new();
    };
    if uf.arity() != 1 || uf.param_types() != [Type::float()] || *uf.return_type() != Type::float()
    {
        return Vec::new();
    }
    let Some((elem, len)) = cx.arg0_array() else {
        return Vec::new();
    };
    if !elem.is_scalar() {
        return Vec::new();
    }
    let widths: Vec<usize> = cx
        .vector_widths()
        .iter()
        .copied()
        .filter(|w| *w > 1 && divides(*w as i64, &len))
        .collect();
    widths
        .into_iter()
        .map(|w| {
            let lanes = map_of(nest(|f| P::MapVec { f }, f.clone()), cx.fresh);
            TermExpr::apply1(
                Pat(P::AsScalar),
                TermExpr::apply1(
                    lanes,
                    TermExpr::apply1(Pat(P::AsVector { width: w }), x.clone()),
                ),
            )
        })
        .collect()
}

/// `reduce` → `reduceSeq` (legal anywhere; the sequential reduction is the only reduction
/// primitive the backend provides, exactly as in the paper).
fn reduce_to_reduce_seq(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    let TermExpr::Apply {
        f: Pat(P::Reduce { f: op }),
        args,
    } = site
    else {
        return Vec::new();
    };
    vec![TermExpr::Apply {
        f: Pat(P::ReduceSeq { f: op.clone() }),
        args: args.clone(),
    }]
}

/// Wraps a lowered computation in a memory-placement pattern.
fn wrap_in(site: &TermExpr, wrap: fn(Box<TermFun>) -> TermFun) -> Vec<TermExpr> {
    let TermExpr::Apply { f, args } = site else {
        return Vec::new();
    };
    match f {
        Pat(P::MapSeq { .. }) | Pat(P::ReduceSeq { .. }) | Pat(P::MapVec { .. }) => {
            vec![TermExpr::Apply {
                f: wrap(Box::new(f.clone())),
                args: args.clone(),
            }]
        }
        _ => Vec::new(),
    }
}

/// `mapSeq/reduceSeq f` → `toLocal(…)`: stage the result in local memory (inside a work
/// group only).
fn wrap_to_local(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    if !cx.context.in_work_group() {
        return Vec::new();
    }
    wrap_in(site, |f| Pat(P::ToLocal { f }))
}

/// `mapSeq/reduceSeq f` → `toGlobal(…)`: write the result to global memory. Inside a work
/// group (where the default would be local), and inside a `mapGlb` — a work item publishing
/// its partial result to global memory is how a first kernel feeds a second, device-wide
/// stage (the kernel boundary is the device-wide synchronisation point).
fn wrap_to_global(site: &TermExpr, cx: &mut Cx) -> Vec<TermExpr> {
    if !cx.context.in_work_group() && !cx.context.inside_glb {
        return Vec::new();
    }
    wrap_in(site, |f| Pat(P::ToGlobal { f }))
}

/// `mapSeq/reduceSeq f` → `toPrivate(…)`: stage the result in private memory. Allowed in any
/// context — private staging is useful even in purely sequential single-work-item kernels.
fn wrap_to_private(site: &TermExpr, _cx: &mut Cx) -> Vec<TermExpr> {
    wrap_in(site, |f| Pat(P::ToPrivate { f }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::traversal::{get, replace, sites};
    use lift_interp::{evaluate, Value};
    use lift_ir::{Program, Type, UserFun};

    fn high_level_square_sum(n: usize) -> Program {
        let mut p = Program::new("square_sum");
        let mult = p.user_fun(UserFun::mult());
        let sq = p.lambda(&["v"], |p, params| p.apply(mult, [params[0], params[0]]));
        let add = p.user_fun(UserFun::add());
        let m = p.map(sq);
        let red = p.reduce(add, 0.0);
        p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
            let mapped = p.apply1(m, params[0]);
            p.apply1(red, mapped)
        });
        p
    }

    /// Applies `rule` at the first site it matches and checks semantics are preserved.
    fn check_preserves(program: &Program, rule_name: &str, input: &[f32]) -> bool {
        let term = Term::from_program(program).expect("converts");
        let rule = all_rules()
            .iter()
            .find(|r| r.name == rule_name)
            .expect("rule exists");
        let options = RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![2],
            tile_sizes: vec![TileSize::d1(2), TileSize::d1(4)],
        };
        let mut fresh = term.fresh;
        for site in sites(&term) {
            let Some(expr) = get(&term.body, &site.location) else {
                continue;
            };
            let mut cx = RuleCx {
                context: site.context,
                arg_types: &site.arg_types,
                env: &site.env,
                options: &options,
                fresh: &mut fresh,
            };
            let rewrites = rule.applications(expr, &mut cx);
            if rewrites.is_empty() {
                continue;
            }
            for replacement in rewrites {
                let new_body = replace(&term.body, &site.location, replacement).expect("replace");
                let derived = Term {
                    name: term.name.clone(),
                    params: term.params.clone(),
                    body: new_body,
                    fresh,
                }
                .to_program();
                let mut typed = derived.clone();
                lift_ir::infer_types(&mut typed).expect("derived program typechecks");
                let args = [Value::from_f32_slice(input)];
                let before = evaluate(program, &args)
                    .expect("original runs")
                    .flatten_f32();
                let after = evaluate(&derived, &args)
                    .expect("derived runs")
                    .flatten_f32();
                assert_eq!(before, after, "rule `{rule_name}` changed semantics");
            }
            return true;
        }
        false
    }

    #[test]
    fn lowering_rules_preserve_semantics_on_square_sum() {
        let p = high_level_square_sum(8);
        let input: Vec<f32> = (0..8).map(|i| i as f32 * 0.5).collect();
        for rule in ["map-to-mapSeq", "map-to-mapGlb", "reduce-to-reduceSeq"] {
            assert!(check_preserves(&p, rule, &input), "rule {rule} never fired");
        }
    }

    #[test]
    fn fusion_and_promotion_rules_preserve_semantics() {
        let p = high_level_square_sum(8);
        let input: Vec<f32> = (0..8).map(|i| i as f32 - 3.0).collect();
        for rule in ["reduce-map-fusion", "partial-reduce", "split-join"] {
            assert!(check_preserves(&p, rule, &input), "rule {rule} never fired");
        }
    }

    /// `map(λw. reduce(add, 0)(w)) ∘ slide(3, 1)`: a 3-point sum stencil over `n` inputs
    /// (`n - 2` windows), the canonical target of the stencil rule family.
    fn high_level_stencil(n: usize) -> Program {
        let mut p = Program::new("stencil_sum");
        let add = p.user_fun(UserFun::add());
        let red = p.reduce(add, 0.0);
        let m = p.map(red);
        let s = p.slide(3usize, 1usize);
        p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
            let windows = p.apply1(s, params[0]);
            p.apply1(m, windows)
        });
        p
    }

    fn padded_map(n: usize, mode: lift_ir::PadMode) -> Program {
        let mut p = Program::new("padded");
        let mult = p.user_fun(UserFun::mult());
        let sq = p.lambda(&["v"], |p, params| p.apply(mult, [params[0], params[0]]));
        let m = p.map(sq);
        let pad = p.pad(1usize, 2usize, mode);
        p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
            let padded = p.apply1(pad, params[0]);
            p.apply1(m, padded)
        });
        p
    }

    #[test]
    fn stencil_rules_preserve_semantics() {
        // 10 inputs -> 8 windows: tile sizes 2 and 4 both divide the window count.
        let p = high_level_stencil(10);
        let input: Vec<f32> = (0..10).map(|i| i as f32 * 0.5 - 2.0).collect();
        for rule in ["slide-tiling", "stencil-wrg-tiling"] {
            assert!(check_preserves(&p, rule, &input), "rule {rule} never fired");
        }
    }

    #[test]
    fn pad_rules_preserve_semantics_for_every_mode() {
        use lift_ir::PadMode;
        let input: Vec<f32> = (0..6).map(|i| i as f32 - 2.5).collect();
        for mode in [PadMode::Clamp, PadMode::Mirror, PadMode::Wrap] {
            assert!(
                check_preserves(&padded_map(6, mode), "pad-map-commute", &input),
                "pad-map-commute never fired for {mode:?}"
            );
        }
        // The merge rule needs two stacked clamp pads.
        let mut p = Program::new("stacked");
        let idf = p.user_fun(UserFun::id_float());
        let m = p.map(idf);
        let outer = p.pad(1usize, 1usize, PadMode::Clamp);
        let inner = p.pad(2usize, 1usize, PadMode::Clamp);
        p.with_root(
            vec![("x", Type::array(Type::float(), 5usize))],
            |p, params| {
                let once = p.apply1(inner, params[0]);
                let twice = p.apply1(outer, once);
                p.apply1(m, twice)
            },
        );
        assert!(
            check_preserves(&p, "pad-pad-merge", &[1.0, 2.0, 3.0, 4.0, 5.0]),
            "pad-pad-merge never fired"
        );
    }

    #[test]
    fn pad_pad_merge_is_restricted_to_clamp() {
        use lift_ir::PadMode;
        // Mirror pads do not merge: pad(1,1) ∘ pad(1,1) reflects deeper into the array
        // than pad(2,2) would. The rule must not fire.
        let mut p = Program::new("stacked_mirror");
        let idf = p.user_fun(UserFun::id_float());
        let m = p.map(idf);
        let outer = p.pad(1usize, 1usize, PadMode::Mirror);
        let inner = p.pad(1usize, 1usize, PadMode::Mirror);
        p.with_root(
            vec![("x", Type::array(Type::float(), 4usize))],
            |p, params| {
                let once = p.apply1(inner, params[0]);
                let twice = p.apply1(outer, once);
                p.apply1(m, twice)
            },
        );
        let term = Term::from_program(&p).expect("converts");
        let rule = all_rules()
            .iter()
            .find(|r| r.name == "pad-pad-merge")
            .expect("rule exists");
        let options = RuleOptions::default();
        let mut fresh = term.fresh;
        for site in sites(&term) {
            let Some(expr) = get(&term.body, &site.location) else {
                continue;
            };
            let mut cx = RuleCx {
                context: site.context,
                arg_types: &site.arg_types,
                env: &site.env,
                options: &options,
                fresh: &mut fresh,
            };
            assert!(
                rule.applications(expr, &mut cx).is_empty(),
                "pad-pad-merge fired for mirror pads"
            );
        }
    }

    #[test]
    fn reduce_to_iterate_builds_a_halving_tree() {
        let mut p = Program::new("tree_sum");
        let add = p.user_fun(UserFun::add());
        let red = p.reduce(add, 0.0);
        p.with_root(
            vec![("x", Type::array(Type::float(), 16usize))],
            |p, params| p.apply1(red, params[0]),
        );
        let input: Vec<f32> = (0..16).map(|i| i as f32 * 0.25).collect();
        assert!(
            check_preserves(&p, "reduce-to-iterate", &input),
            "reduce-to-iterate never fired"
        );
        // Non-power-of-two lengths do not admit the rule.
        let mut q = Program::new("tree_sum12");
        let add = q.user_fun(UserFun::add());
        let red = q.reduce(add, 0.0);
        q.with_root(
            vec![("x", Type::array(Type::float(), 12usize))],
            |q, params| q.apply1(red, params[0]),
        );
        assert!(!check_preserves(&q, "reduce-to-iterate", &[0.0; 12]));
    }

    #[test]
    fn stencil_tiling_fires_only_for_dividing_tiles() {
        // 9 inputs -> 7 windows: neither 2 nor 4 divides 7, so no tiling applies.
        assert!(!check_preserves(
            &high_level_stencil(9),
            "slide-tiling",
            &[0.0; 9]
        ));
    }

    #[test]
    fn divisibility_is_arith_checked() {
        assert!(divides(4, &ArithExpr::cst(16)));
        assert!(!divides(3, &ArithExpr::cst(16)));
        // A symbolic length cannot be proven divisible…
        assert!(!divides(4, &ArithExpr::size_var("N")));
        // …but a length constructed as a multiple can.
        assert!(divides(4, &(ArithExpr::size_var("N") * 4)));
    }

    #[test]
    fn partial_reduce_requires_a_neutral_initialiser() {
        // reduce(add, 1.0): associative operator but a non-neutral initialiser — the rule
        // must not fire (each chunk would re-add the 1.0).
        let n = 8usize;
        let mut p = Program::new("shifted_sum");
        let add = p.user_fun(UserFun::add());
        let red = p.reduce(add, 1.0);
        p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
            p.apply1(red, params[0])
        });
        let term = Term::from_program(&p).expect("converts");
        let rule = all_rules()
            .iter()
            .find(|r| r.name == "partial-reduce")
            .expect("rule exists");
        let options = RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: vec![TileSize::d1(2), TileSize::d1(4)],
        };
        let mut fresh = term.fresh;
        for site in sites(&term) {
            let Some(expr) = get(&term.body, &site.location) else {
                continue;
            };
            let mut cx = RuleCx {
                context: site.context,
                arg_types: &site.arg_types,
                env: &site.env,
                options: &options,
                fresh: &mut fresh,
            };
            assert!(
                rule.applications(expr, &mut cx).is_empty(),
                "partial reduction fired with a non-neutral initialiser"
            );
        }
        // Sanity: the same program with a neutral initialiser does admit the rule.
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        assert!(
            check_preserves(&high_level_square_sum(8), "partial-reduce", &input),
            "partial reduction should fire for reduce(add, 0.0)"
        );
    }

    #[test]
    fn map_to_map_lcl_requires_wrg_context() {
        let p = high_level_square_sum(8);
        let term = Term::from_program(&p).expect("converts");
        let rule = all_rules()
            .iter()
            .find(|r| r.name == "map-to-mapLcl")
            .expect("rule exists");
        let options = RuleOptions::default();
        let mut fresh = term.fresh;
        for site in sites(&term) {
            let Some(expr) = get(&term.body, &site.location) else {
                continue;
            };
            let mut cx = RuleCx {
                context: site.context,
                arg_types: &site.arg_types,
                env: &site.env,
                options: &options,
                fresh: &mut fresh,
            };
            assert!(
                rule.applications(expr, &mut cx).is_empty(),
                "mapLcl lowering fired outside a work group"
            );
        }
    }
}
