//! Sharing in user functions: common-subexpression elimination at emission.
//!
//! A user function is one [`ScalarExpr`] tree, so a body written with shared terms (`d = pj -
//! pi` used seven times in N-Body's interaction) repeats them. [`user_fun_to_c`] emits the
//! body as a [`CFunction`](lift_ocl::CFunction) whose repeated subterms are bound to scalar
//! locals once, the way the paper's user functions are C functions with locals.
//!
//! The tree is hash-consed bottom-up into a DAG (linear in its size), so every distinct
//! subterm is one node and its *uses* are its parent edges. A node is bound to a local when
//! it is used at least twice, is non-trivial (not a parameter, a constant or a component of
//! a parameter), has a scalar or vector type, and is evaluated on every path: reachable from
//! the root without passing through an arm of a `Select`. Both vgpu tiers evaluate a
//! `Select` lazily, so a term used only inside an arm stays inline and binding never adds an
//! evaluation: no dynamic counter of any input rises, and since locals hold the same
//! unrounded values the inline terms did, every output stays bit-identical.

use std::collections::HashMap;

use lift_ir::{BinOp, ScalarExpr, Type, UnOp};
use lift_ocl::{CBinOp, CExpr, CType, CUnOp};

use crate::codegen::scalar_ctype;

/// One DAG node: the operator with its children as node ids.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Node {
    Param(usize),
    Float(u64),
    Int(i64),
    Get(usize, usize),
    Tuple(Vec<usize>),
    Bin(BinOp, usize, usize),
    Un(UnOp, usize),
    Select(usize, usize, usize),
}

impl Node {
    /// The children, with whether each one is an arm of a `Select` (evaluated lazily).
    fn children(&self) -> Vec<(usize, bool)> {
        match self {
            Node::Param(_) | Node::Float(_) | Node::Int(_) => Vec::new(),
            Node::Get(e, _) | Node::Un(_, e) => vec![(*e, false)],
            Node::Tuple(es) => es.iter().map(|e| (*e, false)).collect(),
            Node::Bin(_, a, b) => vec![(*a, false), (*b, false)],
            Node::Select(c, t, e) => vec![(*c, false), (*t, true), (*e, true)],
        }
    }
}

/// The hash-consed body: `nodes[id]`, children always before their parents.
#[derive(Default)]
struct Dag {
    nodes: Vec<Node>,
    ids: HashMap<Node, usize>,
}

impl Dag {
    fn intern(&mut self, e: &ScalarExpr) -> usize {
        let node = match e {
            ScalarExpr::Param(i) => Node::Param(*i),
            ScalarExpr::ConstFloat(v) => Node::Float(v.to_bits()),
            ScalarExpr::ConstInt(v) => Node::Int(*v),
            ScalarExpr::Get(e, i) => Node::Get(self.intern(e), *i),
            ScalarExpr::Tuple(es) => Node::Tuple(es.iter().map(|e| self.intern(e)).collect()),
            ScalarExpr::Bin(op, a, b) => Node::Bin(*op, self.intern(a), self.intern(b)),
            ScalarExpr::Un(op, a) => Node::Un(*op, self.intern(a)),
            ScalarExpr::Select(c, t, e) => {
                Node::Select(self.intern(c), self.intern(t), self.intern(e))
            }
        };
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        id
    }

    /// The IR type of every node where it is known: a scalar or vector operation takes its
    /// operands' common type; comparisons (whose C type differs from the operands') and
    /// mixed-type operations are left untyped, and so are never bound.
    fn types(&self, params: &[Type]) -> Vec<Option<Type>> {
        let mut tys: Vec<Option<Type>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let same = |a: usize, b: usize| tys[a].clone().filter(|t| Some(t) == tys[b].as_ref());
            let ty = match node {
                Node::Param(i) => params.get(*i).cloned(),
                Node::Float(_) => Some(Type::float()),
                Node::Int(_) => Some(Type::int()),
                Node::Get(e, i) => match &tys[*e] {
                    Some(Type::Tuple(elems)) => elems.get(*i).cloned(),
                    _ => None,
                },
                Node::Tuple(_) | Node::Bin(BinOp::Lt | BinOp::Gt, ..) => None,
                Node::Bin(_, a, b) | Node::Select(_, a, b) => same(*a, *b),
                Node::Un(_, a) => tys[*a].clone(),
            };
            tys.push(ty);
        }
        tys
    }
}

/// Translates a user-function body into C: the scalar locals that bind its shared subterms,
/// in evaluation order, and the returned expression.
///
/// Under `mapVec` (`vector_width` set) each scalar parameter is a vector of that width, so
/// the locals over parameters are vectors too; a subterm mixing a vector with a scalar
/// constant is left untyped and stays inline.
pub(crate) fn user_fun_to_c(
    body: &ScalarExpr,
    param_names: &[String],
    param_types: &[Type],
    vector_width: Option<usize>,
) -> (Vec<(String, CType, CExpr)>, CExpr) {
    let mut dag = Dag::default();
    let root = dag.intern(body);
    let n = dag.nodes.len();

    let mut uses = vec![0usize; n];
    let mut every_path = vec![false; n];
    every_path[root] = true;
    for id in (0..n).rev() {
        for (child, lazy) in dag.nodes[id].children() {
            uses[child] += 1;
            every_path[child] |= every_path[id] && !lazy;
        }
    }
    let param_types: Vec<Type> = param_types
        .iter()
        .map(|t| match (vector_width, t) {
            (Some(w), Type::Scalar(k)) => Type::Vector(*k, w),
            _ => t.clone(),
        })
        .collect();
    let types = dag.types(&param_types);
    let mut emitter = Emitter {
        dag: &dag,
        params: param_names,
        names: vec![None; n],
    };
    let mut locals = Vec::new();
    let mut next = 0usize;
    for (id, node) in dag.nodes.iter().enumerate() {
        let trivial = match node {
            Node::Param(_) | Node::Float(_) | Node::Int(_) => true,
            Node::Get(e, _) => matches!(dag.nodes[*e], Node::Param(_)),
            _ => false,
        };
        let Some(ty @ (Type::Scalar(_) | Type::Vector(..))) = types[id].clone() else {
            continue;
        };
        if trivial || uses[id] < 2 || !every_path[id] {
            continue;
        }
        let name = loop {
            let candidate = format!("t{next}");
            next += 1;
            if !param_names.contains(&candidate) {
                break candidate;
            }
        };
        locals.push((name.clone(), scalar_ctype(&ty), emitter.node(id)));
        emitter.names[id] = Some(name);
    }
    let body = emitter.expr(root);
    (locals, body)
}

/// Emits DAG nodes as C, reading a bound node through its local.
struct Emitter<'a> {
    dag: &'a Dag,
    params: &'a [String],
    names: Vec<Option<String>>,
}

impl Emitter<'_> {
    /// A use of node `id`: its local when bound, else the node itself.
    fn expr(&self, id: usize) -> CExpr {
        match &self.names[id] {
            Some(name) => CExpr::var(name),
            None => self.node(id),
        }
    }

    /// Node `id`'s own operation over uses of its children.
    fn node(&self, id: usize) -> CExpr {
        match &self.dag.nodes[id] {
            Node::Param(i) => CExpr::var(&self.params[*i]),
            Node::Float(bits) => CExpr::float(f64::from_bits(*bits)),
            Node::Int(v) => CExpr::int(*v),
            Node::Get(e, i) => self.expr(*e).field(format!("_{i}")),
            Node::Tuple(es) => {
                CExpr::StructLit("tuple".into(), es.iter().map(|e| self.expr(*e)).collect())
            }
            Node::Bin(op, a, b) => {
                let (a, b) = (self.expr(*a), self.expr(*b));
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Div => a.div(b),
                    BinOp::Min => CExpr::Call("fmin".into(), vec![a, b]),
                    BinOp::Max => CExpr::Call("fmax".into(), vec![a, b]),
                    BinOp::Lt => a.lt(b),
                    BinOp::Gt => CExpr::Bin(CBinOp::Gt, Box::new(a), Box::new(b)),
                }
            }
            Node::Un(op, a) => {
                let a = self.expr(*a);
                match op {
                    UnOp::Neg => CExpr::Un(CUnOp::Neg, Box::new(a)),
                    UnOp::Sqrt => CExpr::Call("sqrt".into(), vec![a]),
                    UnOp::Rsqrt => CExpr::Call("rsqrt".into(), vec![a]),
                    UnOp::Fabs => CExpr::Call("fabs".into(), vec![a]),
                    UnOp::Exp => CExpr::Call("exp".into(), vec![a]),
                }
            }
            Node::Select(c, t, e) => CExpr::Ternary(
                Box::new(self.expr(*c)),
                Box::new(self.expr(*t)),
                Box::new(self.expr(*e)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_ir::UserFun;
    use lift_ocl::{print_function, CFunction};

    fn emit(uf: &UserFun, vector_width: Option<usize>) -> CFunction {
        let (locals, body) =
            user_fun_to_c(uf.body(), uf.param_names(), uf.param_types(), vector_width);
        CFunction {
            name: uf.name().to_string(),
            ret: CType::Float,
            params: uf
                .param_names()
                .iter()
                .map(|n| (n.clone(), CType::Float))
                .collect(),
            locals,
            body,
        }
    }

    fn floats(names: &[&'static str]) -> Vec<(&'static str, Type)> {
        names.iter().map(|n| (*n, Type::float())).collect()
    }

    /// N-Body's interaction as its case builder writes it: every use of `d` and of
    /// `d² + ε` spelled out in full.
    fn nbody_interaction() -> UserFun {
        let d = || ScalarExpr::param(1).sub(ScalarExpr::param(2));
        let dist2 = || d().mul(d()).add(ScalarExpr::cf(0.01));
        let inv = dist2().mul(dist2()).mul(dist2()).rsqrt();
        UserFun::new(
            "nbodyInteraction",
            floats(&["acc", "pj", "pi"]),
            Type::float(),
            ScalarExpr::param(0).add(d().mul(inv)),
        )
        .unwrap()
    }

    #[test]
    fn nbody_interaction_binds_the_difference_and_the_softened_square_once() {
        let f = emit(&nbody_interaction(), None);
        let d = CExpr::var("pj").sub(CExpr::var("pi"));
        let dist2 = CExpr::var("t0")
            .mul(CExpr::var("t0"))
            .add(CExpr::float(0.01));
        assert_eq!(
            f.locals,
            vec![
                ("t0".to_string(), CType::Float, d),
                ("t1".to_string(), CType::Float, dist2),
            ]
        );
        let printed = print_function(&f);
        assert_eq!(printed.matches("pj - pi").count(), 1, "{printed}");
        assert!(
            printed.contains("return acc + t0 * rsqrt(t1 * t1 * t1);"),
            "{printed}"
        );
    }

    #[test]
    fn a_subterm_repeated_only_inside_a_select_arm_stays_inline() {
        // MD's cutoff: `d` and `r2` are evaluated on every path (`r2` in the condition),
        // `r6` only when the cutoff arm is taken.
        let d = || ScalarExpr::param(1).sub(ScalarExpr::param(2));
        let r2 = || d().mul(d()).add(ScalarExpr::cf(0.01));
        let r6 = || r2().mul(r2()).mul(r2());
        let force = ScalarExpr::cf(1.0)
            .div(r6())
            .sub(ScalarExpr::cf(1.0).div(r6().mul(r6())))
            .mul(d());
        let within = ScalarExpr::Bin(BinOp::Lt, Box::new(r2()), Box::new(ScalarExpr::cf(0.25)));
        let uf = UserFun::new(
            "ljInteraction",
            floats(&["acc", "pj", "pi"]),
            Type::float(),
            ScalarExpr::param(0).add(ScalarExpr::Select(
                Box::new(within),
                Box::new(force),
                Box::new(ScalarExpr::cf(0.0)),
            )),
        )
        .unwrap();
        let f = emit(&uf, None);
        let names: Vec<&str> = f.locals.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["t0", "t1"], "only `d` and `r2` are bound");
        let printed = print_function(&f);
        assert_eq!(printed.matches("t1 * t1 * t1").count(), 3, "{printed}");
    }

    #[test]
    fn a_function_without_repeats_prints_as_one_expression() {
        let f = emit(&UserFun::mult_and_sum_up(), None);
        assert!(f.locals.is_empty());
        assert_eq!(
            print_function(&f),
            "float multAndSumUp(float acc, float x, float y) {\n  return acc + x * y;\n}\n"
        );
        // Repeated parameters, constants and components of a parameter are never bound.
        let uf = UserFun::new(
            "sq",
            vec![("xy", Type::pair(Type::float(), Type::float()))],
            Type::float(),
            ScalarExpr::param(0)
                .get(0)
                .mul(ScalarExpr::param(0).get(0))
                .add(ScalarExpr::cf(2.0).mul(ScalarExpr::cf(2.0))),
        )
        .unwrap();
        assert!(emit(&uf, None).locals.is_empty());
    }

    #[test]
    fn vectorised_locals_take_the_vector_type() {
        let uf = UserFun::new(
            "sqdiff",
            floats(&["a", "b"]),
            Type::float(),
            ScalarExpr::param(0)
                .sub(ScalarExpr::param(1))
                .mul(ScalarExpr::param(0).sub(ScalarExpr::param(1))),
        )
        .unwrap();
        let f = emit(&uf, Some(4));
        assert_eq!(f.locals.len(), 1);
        assert_eq!(f.locals[0].1, CType::Vector(Box::new(CType::Float), 4));
    }
}
