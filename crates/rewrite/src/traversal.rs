//! Location-based traversal over term trees.
//!
//! A [`Location`] addresses a subexpression of a [`Term`] body: a sequence of steps that
//! either descend into an argument of an application ([`Step::Arg`]) or into the body of the
//! lambda found in an application's function position after unwrapping a number of pattern
//! layers ([`Step::Body`]). [`sites`] enumerates every application together with the
//! [`NestContext`] of enclosing parallel patterns (which decides which lowering rules are
//! legal there) and the types of its arguments (used e.g. for arithmetically checked
//! divisibility of `split` factors).
//!
//! The walk that finds the sites is also what types them, and it types patterns with the
//! one rule statement, [`lift_ir::pattern_type`] — this module adds the per-pattern
//! [`NestContext`] updates and the bookkeeping of locations, nothing about types. The rule
//! is strict where a site enumerator would like to be lenient, and that is sound because of
//! what reaches it: [`sites`] and [`infer_type`] are only handed terms that already passed
//! [`crate::typecheck()`] — the seed after `infer_types`, and candidates the enumeration gate
//! admitted. (The one exception, replaying a stored derivation chain that no longer fits its
//! program, at worst finds no site to apply a step at; whatever it does produce is re-proven
//! in full before it is served.) On an ill-typed term the walk records the sites it reached
//! before the error and stops.

use std::collections::HashMap;
use std::sync::Arc;

use lift_ir::{pattern_type, user_fun_type, Pattern, Type, TypeError};

use crate::term::{Term, TermExpr, TermFun};

/// One step of a [`Location`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Descend into the i-th argument of an application.
    Arg(usize),
    /// Descend into the body of the lambda in the application's function position, after
    /// unwrapping `peel` pattern layers (`peel == 0` means the function is itself a lambda).
    Body {
        /// Number of pattern layers to unwrap before reaching the lambda.
        peel: usize,
    },
}

/// A path from the root body to a subexpression.
pub type Location = Vec<Step>;

/// Renders a location compactly, e.g. `.arg0.body.arg1`.
pub fn format_location(loc: &[Step]) -> String {
    if loc.is_empty() {
        return "@root".to_string();
    }
    let mut out = String::new();
    for step in loc {
        match step {
            Step::Arg(i) => out.push_str(&format!(".arg{i}")),
            Step::Body { peel: 0 } => out.push_str(".body"),
            Step::Body { peel } => out.push_str(&format!(".fun{peel}.body")),
        }
    }
    out
}

/// The parallel patterns enclosing a rewrite site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NestContext {
    /// Inside the function of a `mapGlb`.
    pub inside_glb: bool,
    /// Inside the function of a `mapWrg`.
    pub inside_wrg: bool,
    /// Inside the function of a `mapLcl`.
    pub inside_lcl: bool,
    /// Which `mapWrg` dimensions enclose the site, as a bitmask (bit `d` set ⇔ inside a
    /// `mapWrg(d)`). The boolean flags collapse dimensions; 2D rules need them apart — a
    /// `map` under `mapWrg(1)` may still lower to `mapLcl(1)` but must not nest a second
    /// dimension-1 work-group loop.
    pub wrg_dims: u8,
    /// Which `mapLcl` dimensions enclose the site (bit `d` set ⇔ inside a `mapLcl(d)`).
    pub lcl_dims: u8,
    /// Inside a sequential region (`mapSeq`, `mapVec` or a reduction operator).
    pub inside_seq: bool,
    /// Inside the function of a high-level `map`/`reduce` whose parallelism is undecided.
    pub inside_pending: bool,
    /// Inside the body of an `iterate` that runs more than once. The body executes at a
    /// *different array length* every iteration, but sites are recorded with the first
    /// iteration's types — so rules whose rewrite bakes in a constant derived from the
    /// argument length (split-join, partial reduction, tiling, vectorisation) must not fire
    /// here: a factor that divides the first length need not divide the later ones.
    pub inside_iterate: bool,
}

impl NestContext {
    /// No enclosing map at all: the only place where work-item/work-group parallelism may be
    /// introduced.
    pub fn is_top_level(&self) -> bool {
        !self.inside_glb
            && !self.inside_wrg
            && !self.inside_lcl
            && !self.inside_seq
            && !self.inside_pending
    }

    /// Inside a work group (where `toLocal` placement is meaningful).
    pub fn in_work_group(&self) -> bool {
        self.inside_wrg || self.inside_lcl
    }

    /// The context of the function nested in `pattern`, for a `pattern` applied in `self`.
    fn inside<F>(mut self, pattern: &Pattern<F>) -> NestContext {
        match pattern {
            Pattern::Map { .. } => self.inside_pending = true,
            Pattern::MapSeq { .. }
            | Pattern::MapVec { .. }
            | Pattern::Reduce { .. }
            | Pattern::ReduceSeq { .. } => self.inside_seq = true,
            Pattern::MapGlb { .. } => self.inside_glb = true,
            Pattern::MapWrg { dim, .. } => {
                self.inside_wrg = true;
                self.wrg_dims |= 1u8 << (*dim).min(7);
            }
            Pattern::MapLcl { dim, .. } => {
                self.inside_lcl = true;
                self.lcl_dims |= 1u8 << (*dim).min(7);
            }
            // The body runs at a different length every iteration, so length-specialising
            // rules are fenced off whenever it runs more than once.
            Pattern::Iterate { n, .. } if *n > 1 => self.inside_iterate = true,
            _ => {}
        }
        self
    }
}

/// Parameter-name → type environment at a site.
pub type TypeEnv = HashMap<String, Type>;

/// A rewritable application site.
#[derive(Clone, Debug)]
pub struct Site {
    /// Where the application lives.
    pub location: Location,
    /// The enclosing parallel patterns.
    pub context: NestContext,
    /// The types of the application's arguments, where derivable.
    pub arg_types: Vec<Option<Type>>,
    /// The parameter types in scope at the site (for [`infer_type`] queries by rules).
    /// Shared between all sites of the same lambda scope — enumerating sites does not clone
    /// the environment per site.
    pub env: Arc<TypeEnv>,
}

/// A scope: the environment shared by the sites of one lambda body.
type Scope = Arc<TypeEnv>;

/// A child scope with the lambda parameters bound — the only place environments change
/// during a walk.
fn bind(scope: &Scope, params: &[String], arg_types: &[Type]) -> Scope {
    let mut env = (**scope).clone();
    for (p, t) in params.iter().zip(arg_types) {
        env.insert(p.clone(), t.clone());
    }
    Arc::new(env)
}

/// Enumerates every application site of the term, pre-order.
pub fn sites(term: &Term) -> Vec<Site> {
    let scope: Scope = Arc::new(term.params.iter().cloned().collect());
    let mut out = Vec::new();
    let mut loc = Vec::new();
    // The sites recorded before a type error are still sites; the error itself belongs to
    // `typecheck`, which gates every term before it is enumerated.
    let _ = walk_expr(
        &term.body,
        &scope,
        &mut loc,
        NestContext::default(),
        Some(&mut out),
    );
    out
}

/// Infers the type of an expression under the given environment, or `None` where it is
/// ill-typed there.
pub fn infer_type(e: &TermExpr, env: &TypeEnv) -> Option<Type> {
    let scope: Scope = Arc::new(env.clone());
    let mut loc = Vec::new();
    walk_expr(e, &scope, &mut loc, NestContext::default(), None).ok()
}

/// Returns the subexpression at `loc`.
pub fn get<'a>(e: &'a TermExpr, loc: &[Step]) -> Option<&'a TermExpr> {
    let Some((step, rest)) = loc.split_first() else {
        return Some(e);
    };
    let TermExpr::Apply { f, args } = e else {
        return None;
    };
    match step {
        Step::Arg(i) => get(args.get(*i)?, rest),
        Step::Body { peel } => {
            let mut cur = f;
            for _ in 0..*peel {
                cur = cur.nested()?;
            }
            match cur {
                TermFun::Lambda { body, .. } => get(body, rest),
                _ => None,
            }
        }
    }
}

/// Returns a copy of `root` with the subexpression at `loc` replaced.
pub fn replace(root: &TermExpr, loc: &[Step], replacement: TermExpr) -> Option<TermExpr> {
    let mut out = root.clone();
    *get_mut(&mut out, loc)? = replacement;
    Some(out)
}

fn get_mut<'a>(e: &'a mut TermExpr, loc: &[Step]) -> Option<&'a mut TermExpr> {
    let Some((step, rest)) = loc.split_first() else {
        return Some(e);
    };
    let TermExpr::Apply { f, args } = e else {
        return None;
    };
    match step {
        Step::Arg(i) => get_mut(args.get_mut(*i)?, rest),
        Step::Body { peel } => {
            let mut cur = f;
            for _ in 0..*peel {
                cur = cur.nested_mut()?;
            }
            match cur {
                TermFun::Lambda { body, .. } => get_mut(body, rest),
                _ => None,
            }
        }
    }
}

/// Walks an expression, recording application sites and returning the expression's type.
/// `out == None` turns the walk into a pure type query.
fn walk_expr(
    e: &TermExpr,
    scope: &Scope,
    loc: &mut Location,
    ctx: NestContext,
    mut out: Option<&mut Vec<Site>>,
) -> Result<Type, TypeError> {
    match e {
        TermExpr::Literal(l) => Ok(l.ty()),
        TermExpr::Param(name) => scope
            .get(name)
            .cloned()
            .ok_or_else(|| TypeError::UntypedParam { name: name.clone() }),
        TermExpr::Apply { f, args } => {
            let mut arg_types = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                loc.push(Step::Arg(i));
                arg_types.push(walk_expr(a, scope, loc, ctx, out.as_deref_mut()));
                loc.pop();
            }
            if let Some(recorder) = out.as_deref_mut() {
                recorder.push(Site {
                    location: loc.clone(),
                    context: ctx,
                    arg_types: arg_types.iter().map(|t| t.as_ref().ok().cloned()).collect(),
                    env: Arc::clone(scope),
                });
            }
            let arg_types = arg_types.into_iter().collect::<Result<Vec<_>, _>>()?;
            walk_fun(f, &arg_types, scope, loc, ctx, out, 0)
        }
    }
}

/// Walks a function position applied to arguments of the given types. Patterns are typed by
/// the one rule statement, [`lift_ir::pattern_type`]; what this driver adds is where the
/// nested function's sites live (`peel`) and which patterns enclose them.
fn walk_fun(
    f: &TermFun,
    arg_types: &[Type],
    scope: &Scope,
    loc: &mut Location,
    ctx: NestContext,
    mut out: Option<&mut Vec<Site>>,
    peel: usize,
) -> Result<Type, TypeError> {
    match f {
        TermFun::Lambda { params, body } => {
            let inner = bind(scope, params, arg_types);
            loc.push(Step::Body { peel });
            let result = walk_expr(body, &inner, loc, ctx, out);
            loc.pop();
            result
        }
        TermFun::UserFun(uf) => user_fun_type(uf, arg_types),
        TermFun::Pattern(p) => {
            let inner = ctx.inside(p);
            // Only `iterate` types its function more than once. Its sites are recorded on
            // the first pass, with the first iteration's types; the later passes are pure
            // type queries.
            pattern_type(p, arg_types, |g, args| {
                walk_fun(g, args, scope, loc, inner, out.take(), peel + 1)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_ir::{Program, UserFun};

    fn sample() -> Term {
        // join(map(reduce(add,0))(split 4 (map(mult)(zip(x, y)))))
        let mut p = Program::new("t");
        let mult = p.user_fun(UserFun::mult_pair());
        let add = p.user_fun(UserFun::add());
        let m1 = p.map(mult);
        let red = p.reduce(add, 0.0);
        let m2 = p.map(red);
        let s = p.split(4usize);
        let j = p.join();
        let z = p.zip2();
        p.with_root(
            vec![
                ("x", Type::array(Type::float(), 16usize)),
                ("y", Type::array(Type::float(), 16usize)),
            ],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                let mapped = p.apply1(m1, zipped);
                let split = p.apply1(s, mapped);
                let outer = p.apply1(m2, split);
                p.apply1(j, outer)
            },
        );
        Term::from_program(&p).expect("converts")
    }

    #[test]
    fn sites_enumerate_nested_applications() {
        let term = sample();
        let all = sites(&term);
        // join, map(reduce), reduce-in-lambda (eta), split, map(mult), zip at least.
        assert!(all.len() >= 6, "found only {} sites", all.len());
        // Every location round-trips through get().
        for site in &all {
            assert!(
                get(&term.body, &site.location).is_some(),
                "dangling location {:?}",
                site.location
            );
        }
    }

    #[test]
    fn argument_types_are_derived() {
        let term = sample();
        let all = sites(&term);
        // The split site sees the 16 mapped floats; the inner map site sees 16 pairs.
        let split_site = all
            .iter()
            .find(|s| {
                matches!(
                    get(&term.body, &s.location),
                    Some(TermExpr::Apply {
                        f: TermFun::Pattern(Pattern::Split { .. }),
                        ..
                    })
                )
            })
            .expect("split site");
        let ty = split_site.arg_types[0].clone().expect("typed");
        let (elem, len) = ty.as_array().expect("array");
        assert_eq!(*len, lift_arith::ArithExpr::cst(16));
        assert_eq!(*elem, Type::float());
        let map_site = all
            .iter()
            .find(|s| {
                matches!(
                    get(&term.body, &s.location),
                    Some(TermExpr::Apply { f: TermFun::Pattern(Pattern::Map { f: g }), .. })
                        if matches!(g.as_ref(), TermFun::UserFun(_))
                )
            })
            .expect("map(mult) site");
        let ty = map_site.arg_types[0].clone().expect("typed");
        let (elem, _) = ty.as_array().expect("array");
        assert!(matches!(elem, Type::Tuple(_)));
    }

    #[test]
    fn contexts_mark_pending_high_level_maps() {
        let term = sample();
        let all = sites(&term);
        // The eta-expanded reduce application inside map(reduce) is in pending context.
        let pending: Vec<_> = all.iter().filter(|s| s.context.inside_pending).collect();
        assert!(!pending.is_empty(), "no pending-context sites found");
        assert!(all.iter().any(|s| s.context.is_top_level()));
    }

    #[test]
    fn replace_swaps_the_target_subtree() {
        let term = sample();
        let all = sites(&term);
        let target = &all[1];
        let replaced = replace(
            &term.body,
            &target.location,
            TermExpr::Param("swapped#0".into()),
        )
        .expect("replaces");
        let seen = get(&replaced, &target.location).expect("still addressable");
        assert_eq!(*seen, TermExpr::Param("swapped#0".into()));
    }
}
