//! The kernel optimiser: value numbering with loop-invariant binding over the OpenCL AST.
//!
//! The paper leaves shared and loop-invariant work to the vendor's OpenCL compiler; the
//! virtual GPU counts every operation a kernel spells out, so the generator removes it, in
//! one pass over every [`Kernel`] body and every [`CFunction`] (one scope):
//!
//! * **Pure expressions** (arithmetic, fields, `sqrt`, `rsqrt`, `fabs`, `exp`, `fmin`,
//!   `fmax`, index terms, reads of `const global restrict` parameters no statement writes)
//!   are hash-consed. Only nodes reading nothing but *stable* variables are bound: parameters,
//!   loop variables, and variables declared once, initialised and never assigned.
//! * **Sum splitting.** Integer addition is associative, so an index sum is numbered as its
//!   innermost terms plus the sub-sum of the others, recursively: `input[i_3 + l_id_1 + 64 *
//!   wg_id]` in a loop and `output[l_id_1 + 64 * wg_id]` after it share `l_id_1 + 64 * wg_id`.
//! * **Placement.** A use is evaluated at the outermost scope, below the innermost block,
//!   branch, loop body or ternary arm declaring a variable it reads, where it runs on every
//!   path: it leaves blocks and loops of constant init, bound and step and two trips or more,
//!   never an `if` branch or a ternary arm (both vgpu tiers evaluate them lazily). A binding
//!   also serves the later uses nested below it.
//! * **Binding.** A non-trivial node of a scalar or vector type gets a fresh local when it is
//!   evaluated there for two uses or more, or hoisted out of a loop. Variables, literals and
//!   their fields are trivial; untyped nodes (comparisons, vectors mixed with scalars) and
//!   nodes repeated only inside a ternary arm, which has no locals, stay inline.
//!
//! Nothing is evaluated more often and nothing of the launch is read, so a compile stays a
//! function of its [`LaunchTrace`](crate::LaunchTrace); outputs are bit-identical.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use lift_arith::ArithExpr;
use lift_ocl::{
    AddrSpace, Builtin, CBinOp, CExpr, CFunction, CStmt, CType, Kernel, Node, StructDef,
};

/// Optimises a generated kernel body (see the module docs).
pub(crate) fn optimise_kernel(kernel: &mut Kernel, structs: &[StructDef]) {
    let params = kernel.params.iter().map(|p| (&p.name, &p.ty));
    optimise(&mut kernel.body, params, structs);
}

/// Optimises a user function: its locals and its returned expression form one scope.
pub(crate) fn optimise_function(f: &mut CFunction, structs: &[StructDef]) {
    // Sharing needs a repeated operation and an operation over both: three at least.
    if f.locals.is_empty() && operations(&f.body) < 3 {
        return;
    }
    let ret = CStmt::Expr(std::mem::replace(&mut f.body, CExpr::IntLit(0)));
    let locals = f.locals.drain(..).map(|(n, t, e)| decl(t, n, e));
    let mut body: Vec<CStmt> = locals.chain([ret]).collect();
    optimise(&mut body, f.params.iter().map(|(n, t)| (n, t)), structs);
    for s in body {
        match s {
            CStmt::Decl { ty, name, init, .. } => f.locals.extend(init.map(|e| (name, ty, e))),
            CStmt::Expr(e) => f.body = e,
            _ => {}
        }
    }
}

fn decl(ty: CType, name: String, init: CExpr) -> CStmt {
    let (addr, array_len, init) = (None, None, Some(init));
    CStmt::Decl {
        ty,
        name,
        addr,
        array_len,
        init,
    }
}

/// Collects the uses of the pure expressions, decides the bindings, then replays the walk
/// to read the bindings and declare them.
fn optimise<'p>(
    body: &mut Vec<CStmt>,
    params: impl Iterator<Item = (&'p String, &'p CType)>,
    structs: &[StructDef],
) {
    let mut o = Optimiser {
        structs,
        ..Optimiser::default()
    };
    o.new_scope((0, 0), Kind::Fixed);
    for (name, ty) in params {
        o.declare(name, Some(ty), 0, false);
    }
    o.block(body, 0);
    o.decide();
    if !o.bound.is_empty() {
        (o.rewrite, o.next_scope) = (true, 1);
        o.trace.reverse();
        o.block(body, 0);
    }
}

/// How a use leaves a scope on its way to its binding: a `Block` freely, a `Loop` of two or
/// more constant trips by evaluating once; the root, an `if` branch or any other loop
/// (`Fixed`) never, nor a ternary `Arm`, which has no locals either.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Block,
    Loop,
    Fixed,
    Arm,
}

/// A scope: its parent, the index of the statement opening it there, and its kind. A scope
/// has a larger id than its ancestors.
type Scope = (usize, usize, Kind);

/// A scope and the index of a statement in it.
type Site = (usize, usize);

/// How an expression is kept as a binding's initialiser, and how it reads a local.
type Forms<T> = (fn(T) -> CExpr, fn(&str) -> T);

/// The operation of a pure expression over its operand nodes.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Op {
    /// A variable, by the order of its declaration.
    Var(usize),
    Int(i64),
    Float(u64),
    /// A sum of index terms, in source order.
    Sum,
    Prod,
    Div,
    Mod,
    Pow(u32),
    Min,
    Max,
    Bin(CBinOp),
    Neg,
    /// A math builtin.
    Call(Builtin),
    Field(String),
    /// `buffer[index]`, stable only where the buffer is a read-only input.
    Load,
}

struct Entry {
    op: Op,
    operands: Vec<usize>,
    /// A split sum's innermost terms and the sub-sum of the others; empty for any other
    /// node, whose children are its operands.
    children: Vec<usize>,
    /// The defining scope.
    scope: usize,
    ty: Option<CType>,
    /// The sites evaluating the node as a maximal pure expression.
    uses: Vec<Site>,
    /// Each binding: the site it is declared before, its name and its initialiser.
    binds: Vec<(Site, String, Option<CExpr>)>,
}

impl Entry {
    /// The nodes one evaluation of this one evaluates.
    fn kids(&self) -> &[usize] {
        match self.children.is_empty() {
            true => &self.operands,
            false => &self.children,
        }
    }
}

#[derive(Default)]
struct Optimiser<'a> {
    structs: &'a [StructDef],
    /// Declared variables and parameters: their node and declaring scope.
    vars: Map<String, (usize, usize)>,
    /// Variables assigned, declared twice or declared without an initialiser.
    assigned: HashSet<String, BuildHasherDefault<Fx>>,
    scopes: Vec<Scope>,
    next_scope: usize,
    entries: Vec<Entry>,
    ids: Map<(Op, Vec<usize>), usize>,
    /// The operand nodes of the expressions being visited.
    stack: Vec<usize>,
    /// The node of each operation the first pass visited, which the second pass replays.
    trace: Vec<usize>,
    /// The nodes with a binding.
    bound: Vec<usize>,
    /// Whether the walk reads the bindings (second pass) rather than collects uses.
    rewrite: bool,
}

impl Optimiser<'_> {
    /// Declares a variable, which is never stable if declared twice or `unset`; returns its
    /// node.
    fn declare(&mut self, name: &str, ty: Option<&CType>, scope: usize, unset: bool) -> usize {
        let n = self.intern(Op::Var(self.vars.len()), 0, scope, ty.cloned());
        if self.vars.insert(name.to_string(), (n, scope)).is_some() || unset {
            self.assigned.insert(name.to_string());
        }
        n
    }

    /// Opens the next scope; the second pass replays the first pass's ids.
    fn new_scope(&mut self, (parent, at): Site, kind: Kind) -> usize {
        if !self.rewrite {
            self.scopes.push((parent, at, kind));
        }
        self.next_scope += 1;
        self.next_scope - 1
    }

    fn block(&mut self, stmts: &mut Vec<CStmt>, scope: usize) {
        for (at, s) in stmts.iter_mut().enumerate() {
            self.stmt(s, (scope, at));
        }
        let mut here = Vec::new();
        for &n in &self.bound {
            let e = &mut self.entries[n];
            for (site, name, init) in e.binds.iter_mut().filter(|b| b.0 .0 == scope) {
                if let (Some(ty), Some(init)) = (&e.ty, init.take()) {
                    here.push((site.1, n, decl(ty.clone(), name.clone(), init)));
                }
            }
        }
        here.sort_by_key(|h| std::cmp::Reverse((h.0, h.1)));
        for (at, _, d) in here {
            stmts.insert(at, d);
        }
    }

    fn stmt(&mut self, s: &mut CStmt, site: Site) {
        match s {
            // An array has no initialiser, so it is never stable.
            CStmt::Decl { ty, name, init, .. } => {
                init.iter_mut().for_each(|e| self.expr(e, site));
                if !self.rewrite {
                    self.declare(name, Some(ty), site.0, init.is_none());
                }
            }
            CStmt::Assign { lhs, rhs } => {
                self.expr(rhs, site);
                self.place(lhs, site);
            }
            // A vector store writes no read-only input or stable variable.
            CStmt::Expr(e) => self.expr(e, site),
            CStmt::Block(body) => {
                let inner = self.new_scope(site, Kind::Block);
                self.block(body, inner);
            }
            CStmt::If {
                cond,
                then,
                otherwise,
            } => {
                self.expr(cond, site);
                for branch in std::iter::once(then).chain(otherwise) {
                    let inner = self.new_scope(site, Kind::Fixed);
                    self.block(branch, inner);
                }
            }
            CStmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let leaves = trip_count(var, init, cond, step) >= Some(2);
                let kind = if leaves { Kind::Loop } else { Kind::Fixed };
                let inner = self.new_scope(site, kind);
                if !self.rewrite {
                    self.declare(var, Some(&CType::Int), inner, false);
                }
                self.block(body, inner);
            }
            CStmt::Barrier(_) | CStmt::Comment(_) => {}
        }
    }

    /// An assignment target: its indices are evaluated, its variable is written.
    fn place(&mut self, lhs: &mut CExpr, site: Site) {
        match lhs {
            CExpr::ArrayAccess(base, idx) => {
                self.expr(idx, site);
                self.place(base, site);
            }
            CExpr::Field(base, _) => self.place(base, site),
            CExpr::Var(v) if !self.assigned.contains(v) => {
                self.assigned.insert(v.clone());
            }
            _ => {}
        }
    }

    /// Numbers the pure parts of `e`, recording a use of each maximal one.
    fn expr(&mut self, e: &mut CExpr, site: Site) {
        if let Some(n) = self.visit(e, site) {
            self.record(n, site);
        }
    }

    /// Records a use of a maximal pure expression in the first pass. A variable or a literal
    /// is never bound, so its uses are not kept.
    fn record(&mut self, n: usize, site: Site) {
        let leaf = matches!(self.entries[n].op, Op::Var(_) | Op::Int(_) | Op::Float(_));
        if !self.rewrite && !leaf {
            self.entries[n].uses.push(site);
        }
    }

    /// The node of `e` when it is pure; otherwise settles its pure parts and returns `None`.
    /// The second pass reads `e` and its parts through their bindings.
    fn visit(&mut self, e: &mut CExpr, site: Site) -> Option<usize> {
        let (op, k) = match e {
            CExpr::IntLit(v) => (Op::Int(*v), 0),
            CExpr::FloatLit(v) => (Op::Float(v.to_bits()), 0),
            CExpr::Var(v) => return Some(self.var(v)),
            CExpr::Index(a) => return Some(self.index(a, site)),
            CExpr::Bin(op, a, b) => (Op::Bin(*op), self.operands([&mut **a, &mut **b], site)?),
            CExpr::Neg(a) => (Op::Neg, self.operands([&mut **a], site)?),
            CExpr::Field(a, f) => (Op::Field(f.clone()), self.operands([&mut **a], site)?),
            CExpr::ArrayAccess(a, i) => (Op::Load, self.operands([&mut **a, &mut **i], site)?),
            CExpr::Builtin(
                f @ (Builtin::Sqrt
                | Builtin::Rsqrt
                | Builtin::Fabs
                | Builtin::Exp
                | Builtin::Fmin
                | Builtin::Fmax),
                args,
            ) => (Op::Call(*f), self.operands(args, site)?),
            CExpr::Ternary(c, t, f) => {
                self.expr(c, site);
                for arm in [t, f] {
                    let inner = self.new_scope(site, Kind::Arm);
                    self.expr(arm, (inner, site.1));
                }
                return None;
            }
            CExpr::Builtin(_, es) | CExpr::Call(_, es) | CExpr::StructLit(_, es) => {
                es.iter_mut().for_each(|e| self.expr(e, site));
                return None;
            }
        };
        let n = self.node(op, k);
        self.read(e, n, site, (|e| e, |v| CExpr::var(v)));
        Some(n)
    }

    /// Pushes the nodes of `es` and returns their count when all are pure; otherwise settles
    /// the pure ones.
    fn operands<'e>(
        &mut self,
        es: impl IntoIterator<Item = &'e mut CExpr>,
        site: Site,
    ) -> Option<usize> {
        let (base, mut pure) = (self.stack.len(), true);
        for e in es {
            match self.visit(e, site) {
                Some(n) => self.stack.push(n),
                None => pure = false,
            }
        }
        if !pure {
            for k in base..self.stack.len() {
                self.record(self.stack[k], site);
            }
            self.stack.truncate(base);
        }
        pure.then_some(self.stack.len() - base)
    }

    /// The node of an index term.
    fn index(&mut self, a: &mut ArithExpr, site: Site) -> usize {
        let (op, xs): (_, Vec<&mut ArithExpr>) = match a {
            ArithExpr::Cst(c) => (Op::Int(*c), Vec::new()),
            ArithExpr::Var(v) => return self.var(v.name()),
            ArithExpr::Sum(xs) => (Op::Sum, xs.iter_mut().collect()),
            ArithExpr::Prod(xs) => (Op::Prod, xs.iter_mut().collect()),
            ArithExpr::IntDiv(x, y) => (Op::Div, vec![x, y]),
            ArithExpr::Mod(x, y) => (Op::Mod, vec![x, y]),
            ArithExpr::Min(x, y) => (Op::Min, vec![x, y]),
            ArithExpr::Max(x, y) => (Op::Max, vec![x, y]),
            ArithExpr::Pow(x, e) => (Op::Pow(*e), vec![x]),
        };
        let k = xs.len();
        for x in xs {
            let n = self.index(x, site);
            self.stack.push(n);
        }
        let n = self.node(op, k);
        if let (ArithExpr::Sum(ts), true) = (&mut *a, self.rewrite) {
            self.fold(n, ts, site);
        }
        self.read(a, n, site, (CExpr::Index, |v| ArithExpr::var(v)));
        n
    }

    fn var(&mut self, name: &str) -> usize {
        match self.vars.get(name) {
            Some(&(n, _)) => n,
            None => self.declare(name, None, 0, true),
        }
    }

    /// The node of an operation the walk visits, over the top `k` nodes of the stack, which
    /// it pops: found or made in the first pass, replayed in the second.
    fn node(&mut self, op: Op, k: usize) -> usize {
        let n = if self.rewrite {
            self.trace.pop().unwrap_or_default()
        } else {
            let n = self.intern(op, k, 0, None);
            self.trace.push(n);
            n
        };
        self.stack.truncate(self.stack.len() - k);
        n
    }

    /// The node of `op` over the top `k` nodes of the stack. A new node's defining scope is
    /// `scope` or its children's, and its type `ty` or the one its operands determine.
    fn intern(&mut self, op: Op, k: usize, scope: usize, ty: Option<CType>) -> usize {
        let key = (op, self.stack[self.stack.len() - k..].to_vec());
        if let Some(&n) = self.ids.get(&key) {
            return n;
        }
        let (op, operands) = key.clone();
        let children = match op {
            Op::Sum => self.sum_children(&operands),
            _ => Vec::new(),
        };
        let kids = if children.is_empty() {
            &operands
        } else {
            &children
        };
        let scope = kids
            .iter()
            .fold(scope, |s, &c| s.max(self.entries[c].scope));
        let ty = ty.or_else(|| self.type_of(&op, &operands));
        self.ids.insert(key, self.entries.len());
        let (uses, binds) = (Vec::new(), Vec::new());
        self.entries.push(Entry {
            op,
            operands,
            children,
            scope,
            ty,
            uses,
            binds,
        });
        self.entries.len() - 1
    }

    /// A sum's innermost terms and the sub-sum of the others, where that has two terms or
    /// more; otherwise none, the children being the operands.
    fn sum_children(&mut self, terms: &[usize]) -> Vec<usize> {
        let (mut kids, outer) = self.split(terms);
        if outer.len() < 2 {
            return Vec::new();
        }
        self.stack.extend(&outer);
        kids.push(self.intern(Op::Sum, outer.len(), 0, None));
        self.stack.truncate(self.stack.len() - outer.len());
        kids
    }

    /// A sum's terms defined in its innermost scope, and the others.
    fn split(&self, terms: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let inner = terms.iter().map(|&t| self.entries[t].scope).max();
        let is_inner = |t: &&usize| Some(self.entries[**t].scope) == inner;
        terms.iter().partition(is_inner)
    }

    /// The C type of an operation's value, where its operand types determine it.
    fn type_of(&self, op: &Op, xs: &[usize]) -> Option<CType> {
        let ty = |i: usize| self.entries[*xs.get(i)?].ty.clone();
        let same = |t: CType| Some(t).filter(|t| xs.len() == 1 || ty(1).as_ref() == Some(t));
        let field = |s: &str, f: &String| {
            let fields = &self.structs.iter().find(|d| d.name == s)?.fields;
            fields.iter().find(|(n, _)| n == f).map(|(_, t)| t.clone())
        };
        use CBinOp::{Add, Div, Mul, Sub};
        match op {
            Op::Int(_) | Op::Sum | Op::Prod | Op::Div | Op::Mod | Op::Pow(_) => Some(CType::Int),
            Op::Min | Op::Max => Some(CType::Int),
            Op::Float(_) => Some(CType::Float),
            Op::Bin(Add | Sub | Mul | Div) | Op::Call(_) => same(ty(0)?),
            Op::Neg => ty(0),
            Op::Field(f) => match ty(0)? {
                CType::Struct(s) => field(&s, f),
                _ => None,
            },
            Op::Load => match ty(0)? {
                CType::Pointer { elem, .. } => Some(*elem),
                _ => None,
            },
            Op::Var(_) | Op::Bin(_) => None,
        }
    }

    /// Where a use of `n` at `site` is evaluated once it has left every scope it may, and
    /// whether it left a loop.
    fn target(&self, n: usize, (mut scope, mut at): Site) -> (Site, bool) {
        let mut hoisted = false;
        while scope > self.entries[n].scope {
            let (parent, opened_at, kind) = self.scopes[scope];
            match kind {
                Kind::Block => {}
                Kind::Loop => hoisted = true,
                Kind::Fixed | Kind::Arm => break,
            }
            (scope, at) = (parent, opened_at);
        }
        ((scope, at), hoisted)
    }

    /// The index in `outer`'s statement list of the statement holding `site`, when `site`
    /// lies within `outer`.
    fn index_in(&self, (mut scope, mut at): Site, outer: usize) -> Option<usize> {
        while scope > outer {
            (scope, at) = (self.scopes[scope].0, self.scopes[scope].1);
        }
        (scope == outer).then_some(at)
    }

    /// Decides the bindings, parents before children. A binding claims the uses its scope
    /// holds at or after its site, outermost binding first, and is one evaluation of its
    /// node's children there; an unclaimed use evaluates them where it stands.
    fn decide(&mut self) {
        let input = |t: &Option<CType>| match t {
            Some(t @ CType::Pointer { elem, .. }) => {
                *t == CType::const_restrict_pointer((**elem).clone(), AddrSpace::Global)
            }
            _ => false,
        };
        let mut stable = vec![false; self.entries.len()];
        for (name, &(n, _)) in &self.vars {
            stable[n] = !self.assigned.contains(name);
        }
        for (n, e) in self.entries.iter().enumerate() {
            let kids = e.kids().iter().all(|&c| stable[c]);
            let buffer = e.kids().first().map(|&b| &self.entries[b].ty);
            stable[n] = match &e.op {
                Op::Var(_) => stable[n],
                Op::Load => kids && buffer.is_some_and(input),
                _ => kids,
            };
        }
        for n in (0..self.entries.len()).rev() {
            let uses = std::mem::take(&mut self.entries[n].uses);
            let alone = |u: &[Site]| u.len() == 1 && !self.target(n, u[0]).1;
            let passed = if uses.is_empty() || !stable[n] || alone(&uses) || !self.bindable(n) {
                uses
            } else {
                self.bind(n, &uses)
            };
            for k in 0..self.entries[n].kids().len() {
                let c = self.entries[n].kids()[k];
                passed.iter().for_each(|&u| self.record(c, u));
            }
        }
        self.bound = (0..self.entries.len())
            .filter(|&n| !self.entries[n].binds.is_empty())
            .collect();
        let mut names = (0..).map(|k| format!("t{k}"));
        let fresh = |s: &String| !self.vars.contains_key(s) && !self.assigned.contains(s);
        for &n in &self.bound {
            for (_, name, _) in &mut self.entries[n].binds {
                *name = names.find(&fresh).unwrap_or_default();
            }
        }
    }

    /// Binds node `n` where its `uses` call for it, returning the evaluations of its
    /// children: one per binding, and each unclaimed use.
    fn bind(&mut self, n: usize, uses: &[Site]) -> Vec<Site> {
        let targets: Vec<_> = uses.iter().map(|&u| self.target(n, u)).collect();
        let mut scopes: Vec<usize> = (targets.iter().map(|t| t.0 .0))
            .filter(|&s| self.scopes[s].2 != Kind::Arm)
            .collect();
        scopes.sort();
        scopes.dedup();
        let (mut open, mut passed) = (vec![true; uses.len()], Vec::new());
        for scope in scopes {
            let anchored = (0..uses.len()).filter(|&i| open[i] && targets[i].0 .0 == scope);
            let Some(from) = anchored.map(|i| targets[i].0 .1).min() else {
                continue;
            };
            let within = |i: &usize| open[*i] && self.index_in(uses[*i], scope) >= Some(from);
            let members: Vec<usize> = (0..uses.len()).filter(within).collect();
            if members.len() >= 2 || members.iter().any(|&i| targets[i].1) {
                members.iter().for_each(|&i| open[i] = false);
                let site = (scope, from);
                self.entries[n].binds.push((site, String::new(), None));
                passed.push(site);
            }
        }
        passed.extend((0..uses.len()).filter(|&i| open[i]).map(|i| uses[i]));
        passed
    }

    /// Whether `n` is worth a local: non-trivial, of a scalar or vector type.
    fn bindable(&self, n: usize) -> bool {
        let e = &self.entries[n];
        let leaf = |c: &usize| matches!(self.entries[*c].op, Op::Var(_) | Op::Int(_));
        let trivial = match &e.op {
            Op::Var(_) | Op::Int(_) | Op::Float(_) => true,
            Op::Field(_) => e.kids().iter().all(leaf),
            _ => false,
        };
        let scalar = |t: &CType| !matches!(t, CType::Struct(_) | CType::Pointer { .. });
        !trivial && e.ty.as_ref().is_some_and(scalar)
    }

    /// In the second pass, reads node `n` at `site` through the binding visible there, if
    /// any; the first read keeps the expression as the binding's initialiser.
    fn read<T>(&mut self, e: &mut T, n: usize, site: Site, (keep, var): Forms<T>) {
        let binds = &self.entries[n].binds;
        let visible = |b: &(Site, _, _)| self.index_in(site, b.0 .0) >= Some(b.0 .1);
        let Some(b) = binds.iter().position(visible) else {
            return;
        };
        let (_, name, init) = &mut self.entries[n].binds[b];
        let old = std::mem::replace(e, var(name));
        init.get_or_insert_with(|| keep(old));
    }

    /// In the second pass, reads the largest bound sub-sum of sum `n`, whose terms are `ts`:
    /// its binding takes the place of the sub-sum's first term, and its other terms go.
    fn fold(&mut self, n: usize, ts: &mut Vec<ArithExpr>, site: Site) {
        let terms = self.entries[n].operands.clone();
        let (_, outer) = self.split(&terms);
        let (Some(&rest), 2..) = (self.entries[n].children.last(), outer.len()) else {
            return;
        };
        let keep: Vec<bool> = terms.iter().map(|t| !outer.contains(t)).collect();
        let (mut inner, mut sub) = (Vec::new(), Vec::new());
        for (t, &k) in std::mem::take(ts).into_iter().zip(&keep) {
            (if k { &mut inner } else { &mut sub }).push(t);
        }
        self.fold(rest, &mut sub, site);
        let mut sub = ArithExpr::Sum(sub);
        self.read(&mut sub, rest, site, (CExpr::Index, |v| ArithExpr::var(v)));
        let mut sub = match sub {
            ArithExpr::Sum(ts) => ts,
            other => vec![other],
        }
        .into_iter();
        let mut inner = inner.into_iter();
        let pick = |k: &bool| if *k { inner.next() } else { sub.next() };
        *ts = keep.iter().filter_map(pick).collect();
    }
}

/// The optimiser's maps: its keys are its own, so a fast hash (FxHash) is safe.
type Map<K, V> = HashMap<K, V, BuildHasherDefault<Fx>>;

#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// The operations in `e`: its nodes but literals, variables and fields.
fn operations(e: &CExpr) -> usize {
    use CExpr::{Field, FloatLit, IntLit, Var};
    let free = |node: &Node| {
        matches!(
            node,
            Node::Expr(IntLit(_) | FloatLit(_) | Var(_) | Field(..))
        )
    };
    e.walk().filter(|node| !free(node)).count()
}

/// The trip count of `for (var = a; var < n; var += s)` with integer constants `a`, `n` and
/// a positive `s`, or `None` for any other loop header.
fn trip_count(var: &str, init: &CExpr, cond: &CExpr, step: &CExpr) -> Option<i64> {
    let constant = |e: &CExpr| match e {
        CExpr::IntLit(v) => Some(*v),
        CExpr::Index(a) => a.as_cst(),
        _ => None,
    };
    let (a, s) = (constant(init)?, constant(step)?);
    let n = match cond {
        CExpr::Bin(CBinOp::Lt, v, n) if matches!(&**v, CExpr::Var(x) if x == var) => constant(n)?,
        _ => return None,
    };
    (s > 0).then(|| ((n - a).max(0) + s - 1) / s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::scalar_to_c;
    use lift_ir::{BinOp, ScalarExpr as S, Type, UserFun};
    use lift_ocl::{print_function, print_kernel, KernelParam};

    /// The user function with every parameter of C type `ty`, optimised.
    fn function(uf: &UserFun, ty: CType) -> CFunction {
        let names = uf.param_names();
        let params = names.iter().map(|n| (n.clone(), ty.clone())).collect();
        let (name, body) = (uf.name().into(), scalar_to_c(uf.body(), names));
        let (ret, locals) = (ty, Vec::new());
        let mut f = CFunction {
            name,
            ret,
            params,
            locals,
            body,
        };
        optimise_function(&mut f, &[]);
        f
    }

    fn floats(params: &[&'static str], body: S) -> CFunction {
        let params = params.iter().map(|n| (*n, Type::float())).collect();
        function(
            &UserFun::new("f", params, Type::float(), body).unwrap(),
            CType::Float,
        )
    }

    /// `pj - pi`, the difference of the N-Body and MD interactions.
    fn d() -> S {
        S::param(1).sub(S::param(2))
    }

    fn param(name: &str, read_only: bool) -> KernelParam {
        let (name, elem, global) = (name.to_string(), CType::Float, AddrSpace::Global);
        let ty = match read_only {
            true => CType::const_restrict_pointer(elem, global),
            false => CType::pointer(elem, global),
        };
        KernelParam { name, ty }
    }

    fn int(name: &str, init: CExpr) -> CStmt {
        decl(CType::Int, name.into(), init)
    }

    fn array(name: &str, addr: AddrSpace) -> CStmt {
        let mut array = decl(CType::Float, name.into(), CExpr::int(0));
        if let CStmt::Decl {
            addr: a,
            array_len,
            init,
            ..
        } = &mut array
        {
            (*a, *array_len, *init) = (Some(addr), Some(ArithExpr::cst(64)), None);
        }
        array
    }

    fn v(name: &str) -> ArithExpr {
        ArithExpr::var(name)
    }

    fn at(buffer: &str, index: ArithExpr) -> CExpr {
        CExpr::var(buffer).at(CExpr::Index(index))
    }

    fn set(lhs: CExpr, rhs: CExpr) -> CStmt {
        CStmt::Assign { lhs, rhs }
    }

    fn for_loop(var: &str, init: CExpr, n: CExpr, step: CExpr, body: Vec<CStmt>) -> CStmt {
        let (cond, var) = (CExpr::var(var).lt(n), var.to_string());
        CStmt::For {
            var,
            init,
            cond,
            step,
            body,
        }
    }

    fn counted(trips: i64, body: Vec<CStmt>) -> CStmt {
        for_loop("i", CExpr::int(0), CExpr::int(trips), CExpr::int(1), body)
    }

    fn kernel(params: Vec<KernelParam>, body: Vec<CStmt>) -> Kernel {
        let name = "k".to_string();
        Kernel { name, params, body }
    }

    /// `acc = f(acc, pos[i], x)`: the reduction statement of N-Body and MD.
    fn accumulate(x: CExpr) -> CStmt {
        let args = vec![CExpr::var("acc"), at("pos", v("i")), x];
        set(CExpr::var("acc"), CExpr::Call("f".into(), args))
    }

    /// `gl_id = get_global_id(0); acc = 0; <loop>; output[gl_id] = acc;` where `pos` is a
    /// read-only input unless `written`.
    fn reduction(written: bool, loop_stmt: CStmt) -> Kernel {
        let params = vec![param("pos", !written), param("output", false)];
        let acc = || CExpr::var("acc");
        let (gl_id, store) = (CExpr::global_id(0), set(at("output", v("gl_id")), acc()));
        let start = [int("gl_id", gl_id), set(acc(), CExpr::float(0.0))];
        kernel(params, [&start[..], &[loop_stmt, store]].concat())
    }

    /// The reduction over 256 trips of `acc = f(acc, pos[i], x)`.
    fn reduce(written: bool, x: CExpr) -> Kernel {
        reduction(written, counted(256, vec![accumulate(x)]))
    }

    fn own() -> CExpr {
        at("pos", v("gl_id"))
    }

    fn optimised(mut k: Kernel) -> Kernel {
        optimise_kernel(&mut k, &[]);
        k
    }

    fn unchanged(k: Kernel) -> bool {
        optimised(k.clone()) == k
    }

    #[test]
    fn nbody_interaction_binds_the_difference_and_the_softened_square_once() {
        let dist2 = || d().mul(d()).add(S::cf(0.01));
        let inv = dist2().mul(dist2()).mul(dist2()).rsqrt();
        let f = floats(&["acc", "pj", "pi"], S::param(0).add(d().mul(inv)));
        let (t0, d) = (CExpr::var("t0"), CExpr::var("pj").sub(CExpr::var("pi")));
        let dist2 = t0.clone().mul(t0).add(CExpr::float(0.01));
        let local = |n: &str, e| (n.to_string(), CType::Float, e);
        assert_eq!(f.locals, vec![local("t0", d), local("t1", dist2)]);
        let printed = print_function(&f);
        assert!(printed.contains("return acc + t0 * rsqrt(t1 * t1 * t1);"));
    }

    #[test]
    fn a_subterm_repeated_only_inside_a_select_arm_stays_inline() {
        // MD's cutoff: `d` and `r2` are evaluated on every path (`r2` in the condition),
        // `r6` only inside the arm, which cannot hold a local.
        let (r2, one) = (|| d().mul(d()).add(S::cf(0.01)), || S::cf(1.0));
        let r6 = || r2().mul(r2()).mul(r2());
        let force = Box::new(one().div(r6()).sub(one().div(r6().mul(r6()))).mul(d()));
        let near = Box::new(S::Bin(BinOp::Lt, Box::new(r2()), Box::new(S::cf(0.25))));
        let select = S::Select(near, force, Box::new(S::cf(0.0)));
        let f = floats(&["acc", "pj", "pi"], S::param(0).add(select));
        let names: Vec<&str> = f.locals.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["t0", "t1"], "only `d` and `r2` are bound");
        assert_eq!(print_function(&f).matches("t1 * t1 * t1").count(), 3);
    }

    #[test]
    fn a_function_without_repeats_prints_as_one_expression() {
        let f = function(&UserFun::mult_and_sum_up(), CType::Float);
        let expected =
            "float multAndSumUp(float acc, float x, float y) {\n  return acc + x * y;\n}\n";
        assert_eq!(print_function(&f), expected);
        // Repeated parameters, constants and fields of a parameter are never bound.
        let (x, two) = (|| S::param(0).get(0), || S::cf(2.0));
        let xy = vec![("xy", Type::pair(Type::float(), Type::float()))];
        let body = x().mul(x()).add(two().mul(two()));
        let uf = UserFun::new("sq", xy, Type::float(), body).unwrap();
        assert!(function(&uf, CType::Float).locals.is_empty());
    }

    #[test]
    fn vectorised_locals_take_the_vector_type() {
        let diff = || S::param(0).sub(S::param(1));
        let uf = UserFun::new(
            "sq",
            vec![("a", Type::float()), ("b", Type::float())],
            Type::float(),
            diff().mul(diff()),
        );
        let float4 = CType::Vector(Box::new(CType::Float), 4);
        let f = function(&uf.unwrap(), float4.clone());
        assert_eq!(f.locals.len(), 1);
        assert_eq!(f.locals[0].1, float4);
    }

    #[test]
    fn the_nbody_reduction_loads_its_own_body_once_before_the_loop() {
        let k = optimised(reduce(false, own()));
        let mut expected = reduce(false, CExpr::var("t0"));
        expected
            .body
            .insert(2, decl(CType::Float, "t0".into(), own()));
        assert_eq!(k, expected);
        // A second use of the same access shares the local.
        let k = optimised(reduction(false, counted(256, vec![accumulate(own()); 2])));
        assert_eq!(print_kernel(&k).matches("pos[gl_id]").count(), 1);
    }

    #[test]
    fn an_index_over_the_loop_or_its_assignments_stays_in_the_loop() {
        // Only `pos[i]`, which moves with the loop.
        assert!(unchanged(reduce(false, CExpr::float(1.0))));
        let j = set(CExpr::var("j"), CExpr::var("i"));
        let body = vec![int("j", CExpr::int(0)), j, accumulate(at("pos", v("j")))];
        assert!(unchanged(reduction(false, counted(256, body))));
    }

    #[test]
    fn a_written_buffer_or_a_temporary_is_never_hoisted() {
        let mut written = reduce(false, own());
        let store = set(at("pos", ArithExpr::cst(0)), CExpr::float(0.0));
        written.body.push(store);
        assert!(unchanged(written));
        // A multi-kernel temporary is a plain `global float *` parameter.
        assert!(unchanged(reduce(true, own())));
    }

    #[test]
    fn an_access_under_an_if_or_in_a_ternary_arm_stays_in_the_loop() {
        let near = || Box::new(CExpr::var("gl_id").lt(CExpr::int(4)));
        let (cond, then, otherwise) = (*near(), vec![accumulate(own())], None);
        let guarded = CStmt::If {
            cond,
            then,
            otherwise,
        };
        assert!(unchanged(reduction(false, counted(256, vec![guarded]))));
        let arm = CExpr::Ternary(near(), Box::new(own()), Box::new(CExpr::float(0.0)));
        assert!(unchanged(reduce(false, arm)));
    }

    #[test]
    fn a_loop_of_fewer_than_two_or_an_unknown_number_of_trips_is_left_alone() {
        let body = || vec![accumulate(own())];
        assert!(unchanged(reduction(false, counted(1, body()))));
        let (zero, one, n) = (CExpr::int(0), CExpr::int(1), CExpr::var("N"));
        assert!(unchanged(reduction(
            false,
            for_loop("i", zero, n, one, body())
        )));
        let (gid, size, n) = (CExpr::global_id(0), CExpr::global_size(0), CExpr::int(256));
        assert!(unchanged(reduction(
            false,
            for_loop("i", gid, n, size, body())
        )));
    }

    #[test]
    fn a_loop_over_the_work_items_of_a_group_is_left_alone() {
        // `for (l_id_4 = get_local_id(0); l_id_4 < 64; l_id_4 += get_local_size(0))`
        let (l_id, wg_id) = (v("l_id_4"), int("wg_id", CExpr::group_id(0)));
        let copy = set(at("tmp", l_id.clone()), at("pos", l_id + v("wg_id") * 2));
        let (lid, size, n) = (CExpr::local_id(0), CExpr::local_size(0), CExpr::int(64));
        let lids = for_loop("l_id_4", lid, n, size, vec![copy]);
        let body = vec![array("tmp", AddrSpace::Local), wg_id, lids];
        assert!(unchanged(kernel(vec![param("pos", true)], body)));
    }

    #[test]
    fn local_and_private_buffers_are_never_hoisted() {
        for addr in [AddrSpace::Local, AddrSpace::Private] {
            let mut k = reduce(false, at("tmp", v("gl_id")));
            k.body.insert(0, array("tmp", addr));
            assert!(unchanged(k));
        }
    }

    #[test]
    fn the_convolution_sub_sum_is_shared_with_the_output_index_after_the_loop() {
        let (acc, offset) = (CExpr::var("acc"), v("l_id_1") + v("wg_id") * 64);
        let window = at("input", v("i") + offset.clone());
        let args = vec![acc.clone(), window, at("weights", v("i"))];
        let step = set(acc.clone(), CExpr::Call("f".into(), args));
        let (l_id, store) = (CExpr::local_id(0), set(at("output", offset), acc));
        let items = vec![int("l_id_1", l_id), counted(17, vec![step]), store];
        let body = vec![int("wg_id", CExpr::group_id(0)), CStmt::Block(items)];
        // A fresh name skips a parameter called `t0`.
        let params = ["input", "weights", "t0"].map(|p| param(p, true)).to_vec();
        let k = optimised(kernel(
            [params, vec![param("output", false)]].concat(),
            body,
        ));
        let printed = print_kernel(&k);
        for line in [
            "int t1 = l_id_1 + 64 * wg_id;",
            "input[i + t1]",
            "output[t1] =",
        ] {
            assert!(printed.contains(line), "{line} in {printed}");
        }
    }

    #[test]
    fn an_assigned_accumulator_is_never_bound() {
        let twice = CExpr::var("x").mul(CExpr::float(2.0));
        let store = set(at("output", v("gl_id")), twice.clone().add(twice));
        let x = decl(CType::Float, "x".into(), own());
        let body = vec![int("gl_id", CExpr::global_id(0)), x, store];
        let params = || vec![param("pos", true), param("output", false)];
        let k = optimised(kernel(params(), body.clone()));
        assert!(print_kernel(&k).contains("float t0 = x * 2.0f;"));
        let mut assigned = body;
        assigned.insert(2, set(CExpr::var("x"), CExpr::float(1.0)));
        assert!(unchanged(kernel(params(), assigned)));
    }
}
