//! Pretty printing of the OpenCL AST to OpenCL C source text.
//!
//! The output follows the formatting of the kernels shown in the paper (Figure 7): kernels are
//! declared `kernel void NAME(...)`, barriers use the `CLK_*_MEM_FENCE` flags, and parallel
//! loops appear as plain `for` loops over the OpenCL id functions.

use crate::ast::{
    AddrSpace, CBinOp, CExpr, CFunction, CStmt, CType, Fence, Kernel, Module, StructDef,
};

/// Renders a whole module (structs, helper functions, kernels) as OpenCL C source.
///
/// Multi-kernel modules start with a comment block documenting the host ABI: the global
/// temporaries the host must allocate and pass to every kernel of the sequence.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    if !module.temp_buffers.is_empty() {
        out.push_str("/* host ABI: allocate and pass to every kernel of the sequence:\n");
        for t in &module.temp_buffers {
            out.push_str(&format!(
                " *   global {} {}[{}];\n",
                t.elem.name(),
                t.name,
                t.len
            ));
        }
        out.push_str(" */\n");
    }
    for s in &module.structs {
        out.push_str(&print_struct(s));
        out.push('\n');
    }
    for f in &module.functions {
        out.push_str(&print_function(f));
        out.push('\n');
    }
    for k in &module.kernels {
        out.push_str(&print_kernel(k));
        out.push('\n');
    }
    out
}

/// Renders a struct definition.
pub fn print_struct(def: &StructDef) -> String {
    let mut out = String::from("typedef struct {\n");
    for (name, ty) in &def.fields {
        out.push_str(&format!("  {} {};\n", ty.name(), name));
    }
    out.push_str(&format!("}} {};\n", def.name));
    out
}

/// Renders a helper function (generated from a user function).
pub fn print_function(f: &CFunction) -> String {
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(name, ty)| format!("{} {}", ty.name(), name))
        .collect();
    let mut out = format!("{} {}({}) {{\n", f.ret.name(), f.name, params.join(", "));
    for (name, ty, init) in &f.locals {
        out.push_str(&format!(
            "  {} {} = {};\n",
            ty.name(),
            name,
            print_expr(init)
        ));
    }
    out.push_str(&format!("  return {};\n}}\n", print_expr(&f.body)));
    out
}

/// Renders a kernel definition.
pub fn print_kernel(kernel: &Kernel) -> String {
    let mut out = format!("kernel void {}(", kernel.name);
    let params: Vec<String> = kernel
        .params
        .iter()
        .map(|p| print_param(&p.ty, &p.name))
        .collect();
    out.push_str(&params.join(", "));
    out.push_str(") {\n");
    for stmt in &kernel.body {
        out.push_str(&print_stmt(stmt, 1));
    }
    out.push_str("}\n");
    out
}

fn print_param(ty: &CType, name: &str) -> String {
    match ty {
        CType::Pointer {
            elem,
            addr,
            restrict,
            is_const,
        } => {
            let mut s = String::new();
            if *is_const {
                s.push_str("const ");
            }
            s.push_str(addr.keyword());
            s.push(' ');
            s.push_str(&elem.name());
            s.push_str(" *");
            if *restrict {
                s.push_str("restrict ");
            }
            s.push_str(name);
            s
        }
        other => format!("{} {}", other.name(), name),
    }
}

/// Renders a statement at the given indentation level.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn print_stmt(stmt: &CStmt, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    match stmt {
        CStmt::Decl {
            ty,
            name,
            addr,
            array_len,
            init,
        } => {
            let mut s = pad.clone();
            if let Some(a) = addr {
                if *a != AddrSpace::Private {
                    s.push_str(a.keyword());
                    s.push(' ');
                }
            }
            s.push_str(&declarator(ty, name));
            if let Some(len) = array_len {
                s.push_str(&format!("[{len}]"));
            }
            if let Some(e) = init {
                s.push_str(&format!(" = {}", print_expr(e)));
            }
            s.push_str(";\n");
            s
        }
        CStmt::Assign { lhs, rhs } => {
            format!("{pad}{} = {};\n", print_expr(lhs), print_expr(rhs))
        }
        CStmt::Expr(e) => format!("{pad}{};\n", print_expr(e)),
        CStmt::Block(stmts) => {
            let mut s = format!("{pad}{{\n");
            for st in stmts {
                s.push_str(&print_stmt(st, indent + 1));
            }
            s.push_str(&format!("{pad}}}\n"));
            s
        }
        CStmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            let mut s = format!(
                "{pad}for (int {var} = {}; {}; {var} += {}) {{\n",
                print_expr(init),
                print_expr(cond),
                print_expr(step)
            );
            for st in body {
                s.push_str(&print_stmt(st, indent + 1));
            }
            s.push_str(&format!("{pad}}}\n"));
            s
        }
        CStmt::If {
            cond,
            then,
            otherwise,
        } => {
            let mut s = format!("{pad}if ({}) {{\n", print_expr(cond));
            for st in then {
                s.push_str(&print_stmt(st, indent + 1));
            }
            match otherwise {
                Some(stmts) => {
                    s.push_str(&format!("{pad}}} else {{\n"));
                    for st in stmts {
                        s.push_str(&print_stmt(st, indent + 1));
                    }
                    s.push_str(&format!("{pad}}}\n"));
                }
                None => s.push_str(&format!("{pad}}}\n")),
            }
            s
        }
        CStmt::Barrier(fence) => format!("{pad}barrier({});\n", fence_flags(*fence)),
        CStmt::Comment(text) => format!("{pad}// {text}\n"),
    }
}

/// `T name`, or `addr T *name` for a pointer.
fn declarator(ty: &CType, name: &str) -> String {
    match ty {
        CType::Pointer { elem, addr, .. } => format!("{} {} *{name}", addr.keyword(), elem.name()),
        other => format!("{} {name}", other.name()),
    }
}

fn fence_flags(fence: Fence) -> String {
    match (fence.local, fence.global) {
        (true, true) => "CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE".into(),
        (false, true) => "CLK_GLOBAL_MEM_FENCE".into(),
        _ => "CLK_LOCAL_MEM_FENCE".into(),
    }
}

/// Renders an expression.
pub fn print_expr(e: &CExpr) -> String {
    print_expr_prec(e, 0)
}

#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn print_expr_prec(e: &CExpr, parent_prec: u8) -> String {
    let (s, prec) = match e {
        CExpr::IntLit(v) => (v.to_string(), 10),
        CExpr::FloatLit(v) => {
            let s = if v.fract() == 0.0 {
                format!("{v:.1}f")
            } else {
                format!("{v}f")
            };
            (s, 10)
        }
        CExpr::Var(name) => (name.clone(), 10),
        CExpr::Index(a) => {
            let s = a.to_string();
            // Precedence of the rendered arithmetic expression is unknown; treat anything
            // containing an operator as additive so it gets parenthesised where needed.
            let prec = if s.chars().any(|c| matches!(c, '+' | '-' | '*' | '/' | '%')) {
                4
            } else {
                10
            };
            (s, prec)
        }
        CExpr::Bin(op, a, b) => {
            let prec = bin_prec(*op);
            let s = format!(
                "{} {} {}",
                print_expr_prec(a, prec),
                op.symbol(),
                print_expr_prec(b, prec + 1)
            );
            (s, prec)
        }
        CExpr::Neg(a) => (format!("-{}", print_expr_prec(a, 9)), 9),
        CExpr::Builtin(builtin, args) => (format!("{builtin}({})", print_args(args)), 10),
        CExpr::Call(name, args) => (format!("{name}({})", print_args(args)), 10),
        CExpr::ArrayAccess(arr, idx) => (
            format!("{}[{}]", print_expr_prec(arr, 10), print_expr(idx)),
            10,
        ),
        CExpr::Field(obj, field) => (format!("{}.{}", print_expr_prec(obj, 10), field), 10),
        CExpr::Ternary(c, t, other) => (
            format!(
                "({}) ? ({}) : ({})",
                print_expr(c),
                print_expr(t),
                print_expr(other)
            ),
            1,
        ),
        CExpr::StructLit(name, fields) => (format!("({name}){{{}}}", print_args(fields)), 10),
    };
    if prec < parent_prec {
        format!("({s})")
    } else {
        s
    }
}

/// Comma-separated arguments.
fn print_args(args: &[CExpr]) -> String {
    let rendered: Vec<String> = args.iter().map(print_expr).collect();
    rendered.join(", ")
}

fn bin_prec(op: CBinOp) -> u8 {
    match op {
        CBinOp::Eq => 4,
        CBinOp::Lt | CBinOp::Gt => 5,
        CBinOp::Add | CBinOp::Sub => 6,
        CBinOp::Mul | CBinOp::Div => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::KernelParam;
    use lift_arith::ArithExpr;

    #[test]
    fn expressions_render_with_precedence() {
        let e = CExpr::var("a").add(CExpr::var("b")).mul(CExpr::var("c"));
        assert_eq!(print_expr(&e), "(a + b) * c");
        let e = CExpr::var("a").mul(CExpr::var("b")).add(CExpr::var("c"));
        assert_eq!(print_expr(&e), "a * b + c");
    }

    #[test]
    fn float_literals_have_suffix() {
        assert_eq!(print_expr(&CExpr::float(0.0)), "0.0f");
        assert_eq!(print_expr(&CExpr::float(1.25)), "1.25f");
    }

    #[test]
    fn builtin_calls_render() {
        assert_eq!(print_expr(&CExpr::group_id(0)), "get_group_id(0)");
        assert_eq!(
            print_expr(&CExpr::var("x").at(CExpr::Index(ArithExpr::var("i")))),
            "x[i]"
        );
    }

    #[test]
    fn for_loop_matches_figure7_shape() {
        let body = vec![CStmt::Assign {
            lhs: CExpr::var("acc"),
            rhs: CExpr::var("acc").add(CExpr::int(1)),
        }];
        let f = CStmt::For {
            var: "wg_id".into(),
            init: CExpr::group_id(0),
            cond: CExpr::var("wg_id").lt(CExpr::var("N").div(CExpr::int(128))),
            step: CExpr::num_groups(0),
            body,
        };
        let s = print_stmt(&f, 0);
        assert!(
            s.contains(
                "for (int wg_id = get_group_id(0); wg_id < N / 128; wg_id += get_num_groups(0)) {"
            ),
            "{s}"
        );
        assert!(s.contains("acc = acc + 1;"), "{s}");
    }

    #[test]
    fn barrier_flags() {
        assert!(print_stmt(&CStmt::Barrier(Fence::local()), 0).contains("CLK_LOCAL_MEM_FENCE"));
        assert!(print_stmt(&CStmt::Barrier(Fence::global()), 0).contains("CLK_GLOBAL_MEM_FENCE"));
    }

    #[test]
    fn local_array_declaration() {
        let d = CStmt::Decl {
            ty: CType::Float,
            name: "tmp1".into(),
            addr: Some(AddrSpace::Local),
            array_len: Some(ArithExpr::cst(64)),
            init: None,
        };
        assert_eq!(print_stmt(&d, 1), "  local float tmp1[64];\n");
    }

    #[test]
    fn pointer_declaration_and_ternary_swap() {
        let d = CStmt::Decl {
            ty: CType::pointer(CType::Float, AddrSpace::Local),
            name: "in".into(),
            addr: None,
            array_len: None,
            init: Some(CExpr::var("tmp1")),
        };
        assert_eq!(print_stmt(&d, 1), "  local float *in = tmp1;\n");
        let swap = CStmt::Assign {
            lhs: CExpr::var("in"),
            rhs: CExpr::Ternary(
                Box::new(CExpr::var("out").eq(CExpr::var("tmp1"))),
                Box::new(CExpr::var("tmp1")),
                Box::new(CExpr::var("tmp3")),
            ),
        };
        assert_eq!(
            print_stmt(&swap, 1),
            "  in = (out == tmp1) ? (tmp1) : (tmp3);\n"
        );
    }

    #[test]
    fn kernel_header_matches_paper_style() {
        let k = Kernel {
            name: "KERNEL".into(),
            params: vec![
                KernelParam {
                    name: "x".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "N".into(),
                    ty: CType::Int,
                },
            ],
            body: vec![CStmt::Barrier(Fence::local())],
        };
        let s = print_kernel(&k);
        assert!(
            s.starts_with("kernel void KERNEL(const global float *restrict x, int N) {"),
            "{s}"
        );
        assert!(s.contains("barrier(CLK_LOCAL_MEM_FENCE);"));
    }

    #[test]
    fn struct_and_function_rendering() {
        let s = StructDef {
            name: "Tuple_float_float".into(),
            fields: vec![("_0".into(), CType::Float), ("_1".into(), CType::Float)],
        };
        let rendered = print_struct(&s);
        assert!(rendered.contains("typedef struct"));
        assert!(rendered.contains("float _0;"));
        let f = CFunction {
            name: "add".into(),
            ret: CType::Float,
            params: vec![("a".into(), CType::Float), ("b".into(), CType::Float)],
            locals: vec![],
            body: CExpr::var("a").add(CExpr::var("b")),
        };
        let rendered = print_function(&f);
        assert_eq!(
            rendered,
            "float add(float a, float b) {\n  return a + b;\n}\n"
        );
    }

    #[test]
    fn function_locals_print_before_the_return() {
        let f = CFunction {
            name: "sq".into(),
            ret: CType::Float,
            params: vec![("a".into(), CType::Float), ("b".into(), CType::Float)],
            locals: vec![(
                "t0".into(),
                CType::Float,
                CExpr::var("a").sub(CExpr::var("b")),
            )],
            body: CExpr::var("t0").mul(CExpr::var("t0")),
        };
        assert_eq!(
            print_function(&f),
            "float sq(float a, float b) {\n  float t0 = a - b;\n  return t0 * t0;\n}\n"
        );
    }

    #[test]
    fn module_concatenates_all_parts() {
        let mut m = Module::new();
        m.add_function(CFunction {
            name: "id".into(),
            ret: CType::Float,
            params: vec![("x".into(), CType::Float)],
            locals: vec![],
            body: CExpr::var("x"),
        });
        m.kernels.push(Kernel {
            name: "K".into(),
            params: vec![],
            body: vec![],
        });
        let s = print_module(&m);
        assert!(s.contains("float id(float x)"));
        assert!(s.contains("kernel void K()"));
    }
}
