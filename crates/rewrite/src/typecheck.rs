//! Type checking directly on the tree term representation.
//!
//! The exploration driver derives thousands of candidate terms per search; converting each
//! one to an arena [`lift_ir::Program`] just to run [`lift_ir::infer_types`] dominated the
//! enumeration cost. So candidates are checked *in place*: the arena round-trip happens only
//! for candidates that survive dedup, complete lowering, and reach the scoring stage (where
//! the arena form is needed for code generation anyway).
//!
//! The typing rules of Section 5.1 are not written here. They are
//! [`lift_ir::pattern_type`] and [`lift_ir::user_fun_type`], the same functions the arena
//! checker calls; this module is only the driver that walks a tree and scopes lambda
//! parameters — a stack of borrowed names, so checking a term allocates nothing beyond
//! the types themselves. `typecheck(term)` therefore returns what
//! `infer_types(&mut term.to_program())` returns, by construction for the rules and by a
//! differential test (`term_typechecker_agrees_with_arena_typechecker`) for the scoping.

use lift_ir::{pattern_type, user_fun_type, Type, TypeError};

use crate::term::{Term, TermExpr, TermFun};

/// Infers the result type of the term's body, or the first inconsistency found.
///
/// # Errors
///
/// Returns the same [`TypeError`] the arena checker reports for the converted program.
pub fn typecheck(term: &Term) -> Result<Type, TypeError> {
    let mut scope: Vec<(&str, Type)> = term
        .params
        .iter()
        .map(|(n, t)| (n.as_str(), t.clone()))
        .collect();
    check_expr(&term.body, &mut scope)
}

fn check_expr<'t>(e: &'t TermExpr, scope: &mut Vec<(&'t str, Type)>) -> Result<Type, TypeError> {
    match e {
        TermExpr::Literal(l) => Ok(l.ty()),
        TermExpr::Param(name) => scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t.clone())
            .ok_or_else(|| TypeError::UntypedParam { name: name.clone() }),
        TermExpr::Apply { f, args } => {
            let mut arg_types = Vec::with_capacity(args.len());
            for a in args {
                arg_types.push(check_expr(a, scope)?);
            }
            check_call(f, &arg_types, scope)
        }
    }
}

/// Types a call to `f`: lambdas bind their parameters on the scope stack for the duration of
/// the body, user functions and patterns are typed by the rule statements of `lift-ir`.
fn check_call<'t>(
    f: &'t TermFun,
    arg_types: &[Type],
    scope: &mut Vec<(&'t str, Type)>,
) -> Result<Type, TypeError> {
    match f {
        TermFun::Lambda { params, body } => {
            if params.len() != arg_types.len() {
                return Err(TypeError::WrongArity {
                    function: "lambda".into(),
                    expected: params.len(),
                    found: arg_types.len(),
                });
            }
            let base = scope.len();
            for (p, t) in params.iter().zip(arg_types) {
                scope.push((p.as_str(), t.clone()));
            }
            let result = check_expr(body, scope);
            scope.truncate(base);
            result
        }
        TermFun::UserFun(uf) => user_fun_type(uf, arg_types),
        TermFun::Pattern(p) => pattern_type(p, arg_types, |g, args| check_call(g, args, scope)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_ir::{infer_types, Program, UserFun};

    fn term_of(p: &Program) -> Term {
        let mut typed = p.clone();
        infer_types(&mut typed).expect("input types");
        Term::from_program(&typed).expect("converts")
    }

    #[test]
    fn term_checker_accepts_what_the_arena_checker_accepts() {
        let mut p = Program::new("dot");
        let mult = p.user_fun(UserFun::mult_pair());
        let add = p.user_fun(UserFun::add());
        let m = p.map(mult);
        let red = p.reduce(add, 0.0);
        let z = p.zip2();
        p.with_root(
            vec![
                ("x", Type::array(Type::float(), 16usize)),
                ("y", Type::array(Type::float(), 16usize)),
            ],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                let mapped = p.apply1(m, zipped);
                p.apply1(red, mapped)
            },
        );
        let term = term_of(&p);
        let ty = typecheck(&term).expect("term typechecks");
        // reduce produces a singleton array.
        assert_eq!(ty, Type::array(Type::float(), 1usize));
    }

    #[test]
    fn term_checker_rejects_zip_length_mismatch() {
        // The rule statement is shared, so the term driver must hand back the very error the
        // arena driver does — for a length mismatch and for `zip(0)` of nothing, which has
        // no length at all (and used to panic both checkers).
        let mut mismatch = Program::new("bad");
        let z = mismatch.zip2();
        mismatch.with_root(
            vec![
                ("x", Type::array(Type::float(), 8usize)),
                ("y", Type::array(Type::float(), 9usize)),
            ],
            |p, params| p.apply(z, [params[0], params[1]]),
        );
        let mut empty = Program::new("empty");
        let z = empty.zip(0);
        empty.with_root(vec![], |p, _| p.apply(z, []));
        for p in [mismatch, empty] {
            let term = Term::from_program(&p).expect("converts");
            let err = typecheck(&term).unwrap_err();
            assert_eq!(err, infer_types(&mut p.clone()).unwrap_err());
        }
    }

    #[test]
    fn transparent_wrappers_defer_arity() {
        // toPrivate(reduceSeq(add)) is called with two arguments.
        let mut p = Program::new("wrapped");
        let add = p.user_fun(UserFun::add());
        let red = p.reduce_seq_pattern(add);
        let wrapped = p.to_private(red);
        p.with_root(
            vec![("x", Type::array(Type::float(), 8usize))],
            |p, params| {
                let init = p.literal_f32(0.0);
                p.apply(wrapped, [init, params[0]])
            },
        );
        let term = term_of(&p);
        assert_eq!(
            typecheck(&term).expect("term typechecks"),
            Type::array(Type::float(), 1usize)
        );
    }
}
