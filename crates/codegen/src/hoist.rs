//! Loop-invariant loads: a read of a read-only input that does not change across a loop's
//! iterations is loaded once, into a private scalar declared just before the loop.
//!
//! `acc = f(acc, pos[i], pos[gl_id])` reloads `pos[gl_id]` on every iteration of the
//! reduction; the paper's low-level programs avoid that with an explicit `toPrivate` copy,
//! and Loo.py calls the transform a loop-invariant precompute. [`hoist_invariant_loads`]
//! runs over every generated kernel body and moves an access `p[idx]` out of a `for` loop
//! when all of these hold:
//!
//! * `p` is a `const global … restrict` kernel parameter that no statement of the kernel
//!   writes, so the value cannot change (temporaries, the output, local and private
//!   buffers never qualify);
//! * `idx` is index arithmetic over variables that neither the loop header nor any
//!   statement of its body declares or assigns;
//! * the access sits in a statement directly in the loop body, outside every `if`, nested
//!   loop and ternary arm, so every iteration performs it;
//! * the loop's init, bound and step are integer constants with a trip count of at least
//!   two, and its body neither assigns the loop variable nor returns.
//!
//! The last rule makes the pass depend on nothing but the kernel text — never on the
//! launch — so a compile remains a function of what its [`LaunchTrace`] recorded. The load
//! then happens once per work item instead of once per iteration; the value read is the
//! same, so outputs are bit-identical.
//!
//! [`LaunchTrace`]: crate::LaunchTrace

use std::collections::{HashMap, HashSet};

use lift_ocl::{AddrSpace, CBinOp, CExpr, CStmt, CType, Kernel};

/// Hoists the loop-invariant loads of read-only inputs in `kernel` (see the module docs).
pub(crate) fn hoist_invariant_loads(kernel: &mut Kernel) {
    let mut defined = HashSet::new();
    let mut returns = false;
    for s in &kernel.body {
        collect_defined(s, &mut defined, &mut returns);
    }
    let read_only: HashMap<String, CType> = kernel
        .params
        .iter()
        .filter_map(|p| match &p.ty {
            CType::Pointer {
                elem,
                addr: AddrSpace::Global,
                is_const: true,
                restrict: true,
            } if !defined.contains(&p.name) => Some((p.name.clone(), (**elem).clone())),
            _ => None,
        })
        .collect();
    if read_only.is_empty() {
        return;
    }
    let mut names = defined;
    names.extend(kernel.params.iter().map(|p| p.name.clone()));
    Hoist { read_only, names }.block(&mut kernel.body);
}

struct Hoist {
    /// Read-only input buffers with their element types: the `const global restrict`
    /// parameters nothing in the kernel writes.
    read_only: HashMap<String, CType>,
    /// Every name the kernel declares, assigns or takes as a parameter, so a hoisted
    /// scalar's name is fresh.
    names: HashSet<String>,
}

impl Hoist {
    /// Hoists within every loop of `stmts`, innermost first, inserting each loop's hoisted
    /// declarations just before it.
    fn block(&mut self, stmts: &mut Vec<CStmt>) {
        let mut out = Vec::with_capacity(stmts.len());
        for mut s in stmts.drain(..) {
            match &mut s {
                CStmt::Block(body) => self.block(body),
                CStmt::If {
                    then, otherwise, ..
                } => {
                    self.block(then);
                    if let Some(o) = otherwise {
                        self.block(o);
                    }
                }
                CStmt::For {
                    var,
                    init,
                    cond,
                    step,
                    body,
                } => {
                    self.block(body);
                    if trip_count(var, init, cond, step).is_some_and(|n| n >= 2) {
                        self.hoist_from(var, body, &mut out);
                    }
                }
                _ => {}
            }
            out.push(s);
        }
        *stmts = out;
    }

    /// Replaces the invariant loads in the direct statements of a loop body by fresh
    /// private scalars whose declarations are pushed to `before`.
    fn hoist_from(&mut self, var: &str, body: &mut [CStmt], before: &mut Vec<CStmt>) {
        let mut variant = HashSet::new();
        let mut returns = false;
        for s in body.iter() {
            collect_defined(s, &mut variant, &mut returns);
        }
        // A body that exits early or moves the loop variable breaks the trip count.
        if returns || !variant.insert(var.to_string()) {
            return;
        }
        // One scalar per distinct access: `(buffer, index, scalar name)`.
        let mut hoisted: Vec<(String, CExpr, String)> = Vec::new();
        for s in body.iter_mut() {
            let e = match s {
                CStmt::Assign { rhs, .. } => rhs,
                CStmt::Decl { init: Some(e), .. } | CStmt::Expr(e) => e,
                _ => continue,
            };
            self.replace(e, &variant, &mut hoisted);
        }
        for (buffer, index, name) in hoisted {
            before.push(CStmt::Decl {
                ty: self.read_only[&buffer].clone(),
                name,
                addr: None,
                array_len: None,
                init: Some(CExpr::var(buffer).at(index)),
            });
        }
    }

    /// Rewrites every qualifying access in `e` (outside ternary arms) to its scalar.
    fn replace(
        &mut self,
        e: &mut CExpr,
        variant: &HashSet<String>,
        hoisted: &mut Vec<(String, CExpr, String)>,
    ) {
        match e {
            CExpr::ArrayAccess(arr, idx) => {
                let buffer = match &**arr {
                    CExpr::Var(p) if self.read_only.contains_key(p) => p.clone(),
                    _ => {
                        self.replace(arr, variant, hoisted);
                        self.replace(idx, variant, hoisted);
                        return;
                    }
                };
                if !invariant_index(idx, variant) {
                    return;
                }
                let name = match hoisted.iter().find(|(b, i, _)| *b == buffer && *i == **idx) {
                    Some((_, _, n)) => n.clone(),
                    None => {
                        let n = self.fresh(&buffer);
                        hoisted.push((buffer, (**idx).clone(), n.clone()));
                        n
                    }
                };
                *e = CExpr::Var(name);
            }
            CExpr::IntLit(_) | CExpr::FloatLit(_) | CExpr::Var(_) | CExpr::Index(_) => {}
            CExpr::Bin(_, a, b) => {
                self.replace(a, variant, hoisted);
                self.replace(b, variant, hoisted);
            }
            CExpr::Un(_, a) | CExpr::Field(a, _) | CExpr::Cast(_, a) => {
                self.replace(a, variant, hoisted);
            }
            CExpr::Call(_, args) | CExpr::StructLit(_, args) | CExpr::VectorLit(_, args) => {
                for a in args {
                    self.replace(a, variant, hoisted);
                }
            }
            // Only the condition is evaluated on every path.
            CExpr::Ternary(c, _, _) => self.replace(c, variant, hoisted),
        }
    }

    fn fresh(&mut self, buffer: &str) -> String {
        let mut k = 0usize;
        loop {
            let name = format!("{buffer}_{k}");
            if self.names.insert(name.clone()) {
                return name;
            }
            k += 1;
        }
    }
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
        CExpr::Bin(CBinOp::Lt, v, n) if matches!(&**v, CExpr::Var(name) if name == var) => {
            constant(n)?
        }
        _ => return None,
    };
    (s > 0).then(|| ((n - a).max(0) + s - 1) / s)
}

/// Whether `idx` is pure index arithmetic none of whose variables is in `variant`.
fn invariant_index(idx: &CExpr, variant: &HashSet<String>) -> bool {
    match idx {
        CExpr::IntLit(_) => true,
        CExpr::Var(v) => !variant.contains(v),
        CExpr::Index(a) => a.vars().iter().all(|v| !variant.contains(v.name())),
        CExpr::Bin(_, a, b) => invariant_index(a, variant) && invariant_index(b, variant),
        CExpr::Un(_, a) | CExpr::Cast(_, a) => invariant_index(a, variant),
        _ => false,
    }
}

/// Adds every variable `s` declares or assigns and every buffer it stores to (at any depth)
/// to `out`, and records whether it contains a `return`.
fn collect_defined(s: &CStmt, out: &mut HashSet<String>, returns: &mut bool) {
    match s {
        CStmt::Decl { name, .. } => {
            out.insert(name.clone());
        }
        CStmt::Assign { lhs, .. } => {
            if let Some(v) = root_var(lhs) {
                out.insert(v.to_string());
            }
        }
        CStmt::Block(body) => body.iter().for_each(|s| collect_defined(s, out, returns)),
        CStmt::For { var, body, .. } => {
            out.insert(var.clone());
            body.iter().for_each(|s| collect_defined(s, out, returns));
        }
        CStmt::If {
            then, otherwise, ..
        } => then
            .iter()
            .chain(otherwise.iter().flatten())
            .for_each(|s| collect_defined(s, out, returns)),
        CStmt::Return => *returns = true,
        // A vector store writes its pointer argument.
        CStmt::Expr(CExpr::Call(f, args)) if f.starts_with("vstore") => {
            if let Some(v) = args.get(2).and_then(root_var) {
                out.insert(v.to_string());
            }
        }
        CStmt::Expr(_) | CStmt::Barrier(_) | CStmt::Comment(_) => {}
    }
}

/// The variable an assignment target names: `x`, `x[i]` or `x.f`.
fn root_var(lhs: &CExpr) -> Option<&str> {
    match lhs {
        CExpr::Var(v) => Some(v),
        CExpr::ArrayAccess(a, _) | CExpr::Field(a, _) => root_var(a),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_arith::ArithExpr;
    use lift_ocl::KernelParam;

    fn param(name: &str, ty: CType) -> KernelParam {
        KernelParam {
            name: name.into(),
            ty,
        }
    }

    fn input(name: &str) -> KernelParam {
        param(
            name,
            CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
        )
    }

    fn decl(name: &str, init: CExpr) -> CStmt {
        CStmt::Decl {
            ty: CType::Int,
            name: name.into(),
            addr: None,
            array_len: None,
            init: Some(init),
        }
    }

    fn index(var: &str) -> CExpr {
        CExpr::Index(ArithExpr::var(var))
    }

    fn for_loop(var: &str, bound: i64, body: Vec<CStmt>) -> CStmt {
        CStmt::For {
            var: var.into(),
            init: CExpr::int(0),
            cond: CExpr::var(var).lt(CExpr::Index(ArithExpr::cst(bound))),
            step: CExpr::int(1),
            body,
        }
    }

    /// `acc = f(acc, pos[i], <invariant>)`: the reduction statement of N-Body and MD.
    fn accumulate(invariant: CExpr) -> CStmt {
        CStmt::Assign {
            lhs: CExpr::var("acc"),
            rhs: CExpr::Call(
                "f".into(),
                vec![
                    CExpr::var("acc"),
                    CExpr::var("pos").at(index("i")),
                    invariant,
                ],
            ),
        }
    }

    /// The N-Body shape with `loop_stmt` as the reduction loop:
    /// `gl_id = get_global_id(0); acc = 0; <loop>; output[gl_id] = acc;`
    fn kernel(params: Vec<KernelParam>, loop_stmt: CStmt) -> Kernel {
        Kernel {
            name: "k".into(),
            params,
            body: vec![
                decl("gl_id", CExpr::global_id(0)),
                CStmt::Assign {
                    lhs: CExpr::var("acc"),
                    rhs: CExpr::float(0.0),
                },
                loop_stmt,
                CStmt::Assign {
                    lhs: CExpr::var("output").at(index("gl_id")),
                    rhs: CExpr::var("acc"),
                },
            ],
        }
    }

    fn params() -> Vec<KernelParam> {
        vec![
            input("pos"),
            param("output", CType::pointer(CType::Float, AddrSpace::Global)),
        ]
    }

    fn own_body() -> CExpr {
        CExpr::var("pos").at(index("gl_id"))
    }

    /// Runs the pass and reports whether it changed the kernel.
    fn hoists(mut k: Kernel) -> bool {
        let before = k.clone();
        hoist_invariant_loads(&mut k);
        k != before
    }

    #[test]
    fn the_nbody_reduction_loads_its_own_body_once_before_the_loop() {
        let mut k = kernel(params(), for_loop("i", 256, vec![accumulate(own_body())]));
        hoist_invariant_loads(&mut k);
        let expected = kernel(
            params(),
            for_loop("i", 256, vec![accumulate(CExpr::var("pos_0"))]),
        );
        let mut expected_body = expected.body;
        expected_body.insert(
            2,
            CStmt::Decl {
                ty: CType::Float,
                name: "pos_0".into(),
                addr: None,
                array_len: None,
                init: Some(own_body()),
            },
        );
        assert_eq!(k.body, expected_body);
        // A second use of the same access shares the scalar.
        let mut twice = kernel(
            params(),
            for_loop(
                "i",
                256,
                vec![accumulate(own_body()), accumulate(own_body())],
            ),
        );
        hoist_invariant_loads(&mut twice);
        let decls = twice
            .body
            .iter()
            .filter(|s| matches!(s, CStmt::Decl { name, .. } if name.starts_with("pos_")))
            .count();
        assert_eq!(decls, 1);
    }

    #[test]
    fn an_index_over_the_loop_or_its_assignments_stays_in_the_loop() {
        // Only `pos[i]`, which moves with the loop.
        let k = kernel(
            params(),
            for_loop("i", 256, vec![accumulate(CExpr::float(1.0))]),
        );
        assert!(!hoists(k));
        // `j` is assigned in the body.
        let k = kernel(
            params(),
            for_loop(
                "i",
                256,
                vec![
                    CStmt::Assign {
                        lhs: CExpr::var("j"),
                        rhs: CExpr::var("i"),
                    },
                    accumulate(CExpr::var("pos").at(index("j"))),
                ],
            ),
        );
        assert!(!hoists(k));
    }

    #[test]
    fn a_written_buffer_or_a_temporary_is_never_hoisted() {
        let written = {
            let mut k = kernel(params(), for_loop("i", 256, vec![accumulate(own_body())]));
            k.body.push(CStmt::Assign {
                lhs: CExpr::var("pos").at(CExpr::int(0)),
                rhs: CExpr::float(0.0),
            });
            k
        };
        assert!(!hoists(written));
        // A multi-kernel temporary is a plain `global float *` parameter.
        let temporary = kernel(
            vec![
                param("pos", CType::pointer(CType::Float, AddrSpace::Global)),
                param("output", CType::pointer(CType::Float, AddrSpace::Global)),
            ],
            for_loop("i", 256, vec![accumulate(own_body())]),
        );
        assert!(!hoists(temporary));
    }

    #[test]
    fn an_access_under_an_if_or_in_a_ternary_arm_stays_in_the_loop() {
        let guarded = kernel(
            params(),
            for_loop(
                "i",
                256,
                vec![CStmt::If {
                    cond: CExpr::var("gl_id").lt(CExpr::int(4)),
                    then: vec![accumulate(own_body())],
                    otherwise: None,
                }],
            ),
        );
        assert!(!hoists(guarded));
        let arm = CExpr::Ternary(
            Box::new(CExpr::var("gl_id").lt(CExpr::int(4))),
            Box::new(own_body()),
            Box::new(CExpr::float(0.0)),
        );
        let ternary = kernel(params(), for_loop("i", 256, vec![accumulate(arm)]));
        assert!(!hoists(ternary));
    }

    #[test]
    fn a_loop_of_fewer_than_two_or_an_unknown_number_of_trips_is_left_alone() {
        let once = kernel(params(), for_loop("i", 1, vec![accumulate(own_body())]));
        assert!(!hoists(once));
        let symbolic = kernel(
            params(),
            CStmt::For {
                var: "i".into(),
                init: CExpr::int(0),
                cond: CExpr::var("i").lt(CExpr::var("N")),
                step: CExpr::int(1),
                body: vec![accumulate(own_body())],
            },
        );
        assert!(!hoists(symbolic));
        let strided = kernel(
            params(),
            CStmt::For {
                var: "i".into(),
                init: CExpr::global_id(0),
                cond: CExpr::var("i").lt(CExpr::int(256)),
                step: CExpr::global_size(0),
                body: vec![accumulate(own_body())],
            },
        );
        assert!(!hoists(strided));
    }

    #[test]
    fn local_and_private_buffers_are_never_hoisted() {
        for addr in [AddrSpace::Local, AddrSpace::Private] {
            let mut k = kernel(
                params(),
                for_loop(
                    "i",
                    256,
                    vec![accumulate(CExpr::var("tmp").at(index("gl_id")))],
                ),
            );
            k.body.insert(
                0,
                CStmt::Decl {
                    ty: CType::Float,
                    name: "tmp".into(),
                    addr: Some(addr),
                    array_len: Some(ArithExpr::cst(64)),
                    init: None,
                },
            );
            assert!(!hoists(k));
        }
    }
}
