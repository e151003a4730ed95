//! The read-only traversal of the AST.
//!
//! Every analysis that reads a kernel (which work-item functions it calls, which names it
//! declares or reads, which Table 1 characteristics it has, how many operations an expression
//! spells out) is a rule per node over [`walk`] or [`CExpr::walk`]. The iterator behind them is
//! the only read-only code that lists every statement and expression form to reach what lies
//! beneath it, and it has no catch-all arm, so a new form added to the AST fails to compile
//! here until its children are named.

use crate::ast::{CExpr, CStmt};

/// A statement or an expression of the AST.
#[derive(Clone, Copy, Debug)]
pub enum Node<'a> {
    /// A statement.
    Stmt(&'a CStmt),
    /// An expression.
    Expr(&'a CExpr),
}

/// A pre-order iterator over AST nodes: the nodes still to visit, the next on top.
struct Walk<'a> {
    stack: Vec<Node<'a>>,
}

/// Every statement of `block` and every expression beneath them, pre-order: a statement, then
/// its own expressions in source order (each followed by the expressions beneath it), then the
/// statements nested in it.
pub fn walk(block: &[CStmt]) -> impl Iterator<Item = Node<'_>> {
    let mut stack: Vec<Node<'_>> = block.iter().map(Node::Stmt).collect();
    stack.reverse();
    Walk { stack }
}

impl CExpr {
    /// This expression and every expression beneath it, pre-order.
    pub fn walk(&self) -> impl Iterator<Item = Node<'_>> {
        Walk {
            stack: vec![Node::Expr(self)],
        }
    }
}

impl<'a> Iterator for Walk<'a> {
    type Item = Node<'a>;

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn next(&mut self) -> Option<Node<'a>> {
        let node = self.stack.pop()?;
        let top = self.stack.len();
        let s = &mut self.stack;
        match node {
            Node::Stmt(stmt) => match stmt {
                CStmt::Decl { init, .. } => s.extend(init.iter().map(Node::Expr)),
                CStmt::Assign { lhs, rhs } => s.extend([lhs, rhs].map(Node::Expr)),
                CStmt::Expr(e) => s.push(Node::Expr(e)),
                CStmt::Block(body) => s.extend(body.iter().map(Node::Stmt)),
                CStmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    s.extend([init, cond, step].map(Node::Expr));
                    s.extend(body.iter().map(Node::Stmt));
                }
                CStmt::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    s.push(Node::Expr(cond));
                    s.extend(
                        then.iter()
                            .chain(otherwise.iter().flatten())
                            .map(Node::Stmt),
                    );
                }
                CStmt::Barrier(_) | CStmt::Comment(_) => {}
            },
            Node::Expr(expr) => match expr {
                CExpr::IntLit(_) | CExpr::FloatLit(_) | CExpr::Var(_) | CExpr::Index(_) => {}
                CExpr::Neg(a) | CExpr::Field(a, _) => s.push(Node::Expr(a)),
                CExpr::Bin(_, a, b) | CExpr::ArrayAccess(a, b) => {
                    s.extend([&**a, &**b].map(Node::Expr));
                }
                CExpr::Ternary(a, b, c) => s.extend([&**a, &**b, &**c].map(Node::Expr)),
                CExpr::Builtin(_, es) | CExpr::Call(_, es) | CExpr::StructLit(_, es) => {
                    s.extend(es.iter().map(Node::Expr));
                }
            },
        }
        s[top..].reverse();
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Builtin, CBinOp, CType, Fence, Kernel};
    use crate::printer::print_expr;
    use lift_arith::ArithExpr;

    fn b(e: CExpr) -> Box<CExpr> {
        Box::new(e)
    }

    /// A kernel body holding every statement and expression form, with `at(name)` in six
    /// named expression positions.
    fn every_form(at: &dyn Fn(&str) -> CExpr) -> Vec<CStmt> {
        let v = CExpr::var;
        vec![
            CStmt::Decl {
                ty: CType::Float,
                name: "w".into(),
                addr: None,
                array_len: None,
                init: Some(CExpr::Builtin(
                    Builtin::Fmin,
                    vec![at("builtin"), CExpr::float(2.5)],
                )),
            },
            CStmt::For {
                var: "i".into(),
                init: CExpr::int(0),
                cond: CExpr::Bin(CBinOp::Lt, b(v("i")), b(v("n"))),
                step: at("step"),
                body: vec![
                    CStmt::If {
                        cond: CExpr::Neg(b(at("neg"))),
                        then: vec![CStmt::Barrier(Fence::local())],
                        otherwise: Some(vec![CStmt::Expr(at("else"))]),
                    },
                    CStmt::Block(vec![
                        CStmt::Comment("c".into()),
                        CStmt::Expr(CExpr::Call(
                            "f".into(),
                            vec![CExpr::StructLit(
                                "T".into(),
                                vec![v("s").field("_0"), at("call")],
                            )],
                        )),
                    ]),
                ],
            },
            CStmt::Assign {
                lhs: v("out").at(CExpr::Index(ArithExpr::var("x"))),
                rhs: CExpr::Ternary(b(v("q")), b(at("ternary")), b(CExpr::float(0.0))),
            },
        ]
    }

    /// The node's variant.
    fn form(node: Node<'_>) -> String {
        let debug = match node {
            Node::Stmt(s) => format!("{s:?}"),
            Node::Expr(e) => format!("{e:?}"),
        };
        debug.split([' ', '(']).next().unwrap().to_string()
    }

    /// The statement's variant, or the expression as printed.
    fn label(node: Node<'_>) -> String {
        match node {
            Node::Stmt(_) => form(node),
            Node::Expr(e) => print_expr(e),
        }
    }

    #[test]
    fn the_walk_visits_every_node_once_in_pre_order() {
        let body = every_form(&|name| CExpr::var(name));
        let labels: Vec<String> = walk(&body).map(label).collect();
        let expected = [
            "Decl",
            "fmin(builtin, 2.5f)",
            "builtin",
            "2.5f",
            "For",
            "0",
            "i < n",
            "i",
            "n",
            "step",
            "If",
            "-neg",
            "neg",
            "Barrier",
            "Expr",
            "else",
            "Block",
            "Comment",
            "Expr",
            "f((T){s._0, call})",
            "(T){s._0, call}",
            "s._0",
            "s",
            "call",
            "Assign",
            "out[x]",
            "out",
            "x",
            "(q) ? (ternary) : (0.0f)",
            "q",
            "ternary",
            "0.0f",
        ];
        assert_eq!(labels, expected);

        // Every form is there: eight statement and twelve expression variants.
        let mut forms: Vec<String> = walk(&body).map(form).collect();
        forms.sort();
        forms.dedup();
        assert_eq!(forms.len(), 8 + 12, "{forms:?}");

        let CStmt::Assign { rhs, .. } = &body[2] else {
            unreachable!()
        };
        let sub: Vec<String> = rhs.walk().map(label).collect();
        assert_eq!(sub, ["(q) ? (ternary) : (0.0f)", "q", "ternary", "0.0f"]);
    }

    #[test]
    fn uses_work_items_looks_in_every_expression_position() {
        let kernel = |body| Kernel {
            name: "k".into(),
            params: vec![],
            body,
        };
        assert!(!kernel(every_form(&|name| CExpr::var(name))).uses_work_items());
        for at in ["step", "else", "ternary", "builtin", "neg", "call"] {
            let body = every_form(&|name| match name == at {
                true => CExpr::local_id(0),
                false => CExpr::var(name),
            });
            assert!(kernel(body).uses_work_items(), "get_local_id as {at}");
        }
    }
}
