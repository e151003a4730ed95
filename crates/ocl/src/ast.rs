//! An abstract syntax tree for the subset of OpenCL C emitted by the Lift compiler.
//!
//! The code generator of Section 5.5 produces kernels in this representation. The AST serves
//! two purposes: it is pretty-printed to OpenCL C source (Figure 7) for inspection, golden
//! tests and code-size measurements, and it is executed directly by the virtual GPU
//! (`lift-vgpu`), which is how this reproduction runs the generated kernels without physical
//! GPU hardware.

use std::fmt;

use lift_arith::ArithExpr;

use crate::walk::{walk, Node};

/// OpenCL address spaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AddrSpace {
    /// `global` memory.
    Global,
    /// `local` memory.
    Local,
    /// `private` memory (registers).
    Private,
}

impl AddrSpace {
    /// The OpenCL qualifier keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AddrSpace::Global => "global",
            AddrSpace::Local => "local",
            AddrSpace::Private => "private",
        }
    }
}

/// OpenCL C types.
#[derive(Clone, Debug, PartialEq)]
pub enum CType {
    /// `bool`
    Bool,
    /// `int`
    Int,
    /// `float`
    Float,
    /// `double`
    Double,
    /// A short vector such as `float4`.
    Vector(Box<CType>, usize),
    /// A named struct (used for tuple values).
    Struct(String),
    /// A pointer into one of the address spaces.
    Pointer {
        /// The pointee type.
        elem: Box<CType>,
        /// The address space the pointer refers to.
        addr: AddrSpace,
        /// Whether the pointer is declared `restrict`.
        restrict: bool,
        /// Whether the pointee is `const`.
        is_const: bool,
    },
}

impl CType {
    /// A non-const, non-restrict pointer to `elem` in `addr`.
    pub fn pointer(elem: CType, addr: AddrSpace) -> CType {
        CType::Pointer {
            elem: Box::new(elem),
            addr,
            restrict: false,
            is_const: false,
        }
    }

    /// A `const restrict` pointer, as used for kernel input parameters.
    pub fn const_restrict_pointer(elem: CType, addr: AddrSpace) -> CType {
        CType::Pointer {
            elem: Box::new(elem),
            addr,
            restrict: true,
            is_const: true,
        }
    }

    /// The C source name of this type.
    pub fn name(&self) -> String {
        match self {
            CType::Bool => "bool".into(),
            CType::Int => "int".into(),
            CType::Float => "float".into(),
            CType::Double => "double".into(),
            CType::Vector(elem, w) => format!("{}{}", elem.name(), w),
            CType::Struct(name) => name.clone(),
            CType::Pointer { elem, .. } => format!("{}*", elem.name()),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `==`
    Eq,
}

impl CBinOp {
    /// The C operator symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CBinOp::Add => "+",
            CBinOp::Sub => "-",
            CBinOp::Mul => "*",
            CBinOp::Div => "/",
            CBinOp::Lt => "<",
            CBinOp::Gt => ">",
            CBinOp::Eq => "==",
        }
    }
}

/// The OpenCL work-item functions: each takes a dimension and returns an id or a size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkItem {
    /// `get_global_id`
    GlobalId,
    /// `get_local_id`
    LocalId,
    /// `get_group_id`
    GroupId,
    /// `get_global_size`
    GlobalSize,
    /// `get_local_size`
    LocalSize,
    /// `get_num_groups`
    NumGroups,
}

/// The OpenCL builtin functions the code generator calls. Each one's name and arity are
/// stated here and nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// A work-item function `f(dim)`.
    WorkItem(WorkItem),
    /// `vloadN(index, pointer)`: the `index`-th vector of `N` lanes.
    VLoad(usize),
    /// `vstoreN(value, index, pointer)`.
    VStore(usize),
    /// `sqrt(x)`
    Sqrt,
    /// `rsqrt(x)`
    Rsqrt,
    /// `fabs(x)`
    Fabs,
    /// `exp(x)`
    Exp,
    /// `fmin(x, y)`
    Fmin,
    /// `fmax(x, y)`
    Fmax,
}

impl Builtin {
    /// The number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::WorkItem(_)
            | Builtin::Sqrt
            | Builtin::Rsqrt
            | Builtin::Fabs
            | Builtin::Exp => 1,
            Builtin::VLoad(_) | Builtin::Fmin | Builtin::Fmax => 2,
            Builtin::VStore(_) => 3,
        }
    }
}

impl fmt::Display for Builtin {
    /// The OpenCL C name of the builtin.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Builtin::WorkItem(WorkItem::GlobalId) => "get_global_id",
            Builtin::WorkItem(WorkItem::LocalId) => "get_local_id",
            Builtin::WorkItem(WorkItem::GroupId) => "get_group_id",
            Builtin::WorkItem(WorkItem::GlobalSize) => "get_global_size",
            Builtin::WorkItem(WorkItem::LocalSize) => "get_local_size",
            Builtin::WorkItem(WorkItem::NumGroups) => "get_num_groups",
            Builtin::VLoad(width) => return write!(f, "vload{width}"),
            Builtin::VStore(width) => return write!(f, "vstore{width}"),
            Builtin::Sqrt => "sqrt",
            Builtin::Rsqrt => "rsqrt",
            Builtin::Fabs => "fabs",
            Builtin::Exp => "exp",
            Builtin::Fmin => "fmin",
            Builtin::Fmax => "fmax",
        };
        f.write_str(name)
    }
}

/// OpenCL C expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum CExpr {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Reference to a named variable or parameter.
    Var(String),
    /// A symbolic index expression produced by the view system; printed through the
    /// arithmetic pretty-printer so that simplified indices appear verbatim in the source.
    Index(ArithExpr),
    /// Binary operation.
    Bin(CBinOp, Box<CExpr>, Box<CExpr>),
    /// Negation `-x`.
    Neg(Box<CExpr>),
    /// A call of a builtin (`get_global_id(0)`, `sqrt(x)`, …).
    Builtin(Builtin, Vec<CExpr>),
    /// A call of a function defined in the module (a user function).
    Call(String, Vec<CExpr>),
    /// Array subscript `array[index]`.
    ArrayAccess(Box<CExpr>, Box<CExpr>),
    /// Struct field access `value.field`.
    Field(Box<CExpr>, String),
    /// `cond ? then : otherwise`
    Ternary(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// A struct literal `(T){a, b}` used to build tuple values.
    StructLit(String, Vec<CExpr>),
}

#[allow(clippy::should_implement_trait)] // builder methods, not operator impls
impl CExpr {
    /// A variable reference.
    pub fn var(name: impl Into<String>) -> CExpr {
        CExpr::Var(name.into())
    }

    /// An integer literal.
    pub fn int(v: i64) -> CExpr {
        CExpr::IntLit(v)
    }

    /// A float literal.
    pub fn float(v: f64) -> CExpr {
        CExpr::FloatLit(v)
    }

    /// `f(dim)` for a work-item function `f`.
    fn work_item(f: WorkItem, dim: u8) -> CExpr {
        CExpr::Builtin(Builtin::WorkItem(f), vec![CExpr::int(i64::from(dim))])
    }

    /// `get_global_id(dim)`
    pub fn global_id(dim: u8) -> CExpr {
        CExpr::work_item(WorkItem::GlobalId, dim)
    }

    /// `get_local_id(dim)`
    pub fn local_id(dim: u8) -> CExpr {
        CExpr::work_item(WorkItem::LocalId, dim)
    }

    /// `get_group_id(dim)`
    pub fn group_id(dim: u8) -> CExpr {
        CExpr::work_item(WorkItem::GroupId, dim)
    }

    /// `get_global_size(dim)`
    pub fn global_size(dim: u8) -> CExpr {
        CExpr::work_item(WorkItem::GlobalSize, dim)
    }

    /// `get_local_size(dim)`
    pub fn local_size(dim: u8) -> CExpr {
        CExpr::work_item(WorkItem::LocalSize, dim)
    }

    /// `get_num_groups(dim)`
    pub fn num_groups(dim: u8) -> CExpr {
        CExpr::work_item(WorkItem::NumGroups, dim)
    }

    /// `self + rhs`
    pub fn add(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(CBinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`
    pub fn sub(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(CBinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`
    pub fn mul(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(CBinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`
    pub fn div(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(CBinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`
    pub fn lt(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(CBinOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self == rhs`
    pub fn eq(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(CBinOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self[index]`
    pub fn at(self, index: CExpr) -> CExpr {
        CExpr::ArrayAccess(Box::new(self), Box::new(index))
    }

    /// `self.field`
    pub fn field(self, name: impl Into<String>) -> CExpr {
        CExpr::Field(Box::new(self), name.into())
    }
}

/// The memory fence flags of an OpenCL `barrier` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fence {
    /// `CLK_LOCAL_MEM_FENCE`
    pub local: bool,
    /// `CLK_GLOBAL_MEM_FENCE`
    pub global: bool,
}

impl Fence {
    /// A local-memory fence.
    pub fn local() -> Fence {
        Fence {
            local: true,
            global: false,
        }
    }

    /// A global-memory fence.
    pub fn global() -> Fence {
        Fence {
            local: false,
            global: true,
        }
    }
}

/// OpenCL C statements.
#[derive(Clone, Debug, PartialEq)]
pub enum CStmt {
    /// A variable declaration, optionally with an address space, array size and initialiser.
    Decl {
        /// Declared type.
        ty: CType,
        /// Variable name.
        name: String,
        /// Address space qualifier (`local float tmp[64]`), if any.
        addr: Option<AddrSpace>,
        /// Array size for buffer declarations, if any.
        array_len: Option<ArithExpr>,
        /// Initialiser expression, if any.
        init: Option<CExpr>,
    },
    /// An assignment `lhs = rhs;`.
    Assign {
        /// The assigned place (variable, array element or field).
        lhs: CExpr,
        /// The value.
        rhs: CExpr,
    },
    /// An expression evaluated for its effect.
    Expr(CExpr),
    /// A nested block `{ ... }`.
    Block(Vec<CStmt>),
    /// `for (int var = init; cond; var += step) { body }`
    For {
        /// Loop variable name (declared `int`).
        var: String,
        /// Initial value.
        init: CExpr,
        /// Continuation condition.
        cond: CExpr,
        /// Per-iteration increment added to the loop variable.
        step: CExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// `if (cond) { then } else { otherwise }`
    If {
        /// Condition.
        cond: CExpr,
        /// Then branch.
        then: Vec<CStmt>,
        /// Optional else branch.
        otherwise: Option<Vec<CStmt>>,
    },
    /// `barrier(...)`
    Barrier(Fence),
    /// A comment line.
    Comment(String),
}

/// A kernel parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelParam {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: CType,
}

/// An OpenCL kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Kernel parameters (buffers and sizes).
    pub params: Vec<KernelParam>,
    /// Kernel body.
    pub body: Vec<CStmt>,
}

impl Kernel {
    /// Whether the kernel body reads any work-item function (`get_global_id`, …).
    ///
    /// A kernel that never consults the work-item ids computes the same result in every
    /// thread, so the host may launch it with a single work item; stages of a multi-kernel
    /// sequence use this to pick per-kernel launch dimensions. A barrier does not count: it
    /// only matters when more than one work item runs, and barriers are only emitted around
    /// work-item parallel code.
    pub fn uses_work_items(&self) -> bool {
        walk(&self.body)
            .any(|node| matches!(node, Node::Expr(CExpr::Builtin(Builtin::WorkItem(_), _))))
    }
}

/// A non-kernel function (generated from a user function).
///
/// The body is a straight-line sequence of scalar locals followed by one returned
/// expression: `T f(params) { T1 l1 = e1; …; return body; }`. Each local's initialiser may
/// read the parameters and the locals before it; the return expression may read all of
/// them. The code generator binds a user function's repeated subterms to locals so they are
/// evaluated once; a function without repeats has no locals.
#[derive(Clone, Debug, PartialEq)]
pub struct CFunction {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameters.
    pub params: Vec<(String, CType)>,
    /// Scalar locals `(name, type, initialiser)`, in evaluation order.
    pub locals: Vec<(String, CType, CExpr)>,
    /// The returned expression.
    pub body: CExpr,
}

/// A struct definition used for tuple values.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Field names and types.
    pub fields: Vec<(String, CType)>,
}

/// A host-allocated global buffer shared by the kernels of a multi-kernel module.
///
/// Multi-kernel modules (a program split at device-wide synchronisation points) communicate
/// through global temporaries that outlive any single kernel. OpenCL has no module-level
/// buffer declarations, so these are part of the host ABI: the host allocates one buffer of
/// `len` elements per entry and passes it to every kernel of the sequence under `name`. On
/// the virtual GPU this is what `ExecutionRequest::launch_sequence` (crate `lift-vgpu`) does
/// when handed the module's launch plan and bound arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct TempBufferDecl {
    /// The kernel-parameter name every kernel of the sequence binds the buffer to.
    pub name: String,
    /// Element type of the buffer.
    pub elem: CType,
    /// Number of elements (symbolic in the size variables).
    pub len: ArithExpr,
}

/// A whole OpenCL translation unit: struct definitions, helper functions and kernels.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// Tuple struct definitions.
    pub structs: Vec<StructDef>,
    /// Helper functions (user functions).
    pub functions: Vec<CFunction>,
    /// Kernels.
    pub kernels: Vec<Kernel>,
    /// Host-allocated global temporaries shared by multi-kernel sequences (empty for
    /// ordinary single-kernel modules).
    pub temp_buffers: Vec<TempBufferDecl>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&CFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Adds a struct definition if one with the same name is not already present.
    pub fn add_struct(&mut self, def: StructDef) {
        if !self.structs.iter().any(|s| s.name == def.name) {
            self.structs.push(def);
        }
    }

    /// Adds a helper function if one with the same name is not already present.
    pub fn add_function(&mut self, f: CFunction) {
        if !self
            .functions
            .iter()
            .any(|existing| existing.name == f.name)
        {
            self.functions.push(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_builders_compose() {
        let e = CExpr::var("x").add(CExpr::int(1)).mul(CExpr::var("y"));
        match e {
            CExpr::Bin(CBinOp::Mul, lhs, _) => {
                assert!(matches!(*lhs, CExpr::Bin(CBinOp::Add, _, _)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn builtin_id_helpers() {
        assert_eq!(
            CExpr::local_id(0),
            CExpr::Builtin(Builtin::WorkItem(WorkItem::LocalId), vec![CExpr::IntLit(0)])
        );
        assert_eq!(
            CExpr::num_groups(1),
            CExpr::Builtin(
                Builtin::WorkItem(WorkItem::NumGroups),
                vec![CExpr::IntLit(1)]
            )
        );
        assert_eq!(
            Builtin::WorkItem(WorkItem::NumGroups).to_string(),
            "get_num_groups"
        );
        assert_eq!(Builtin::VLoad(4).to_string(), "vload4");
        assert_eq!(Builtin::VStore(4).arity(), 3);
    }

    #[test]
    fn ctype_names() {
        assert_eq!(CType::Float.name(), "float");
        assert_eq!(CType::Vector(Box::new(CType::Float), 4).name(), "float4");
        assert_eq!(
            CType::pointer(CType::Float, AddrSpace::Local).name(),
            "float*"
        );
    }

    #[test]
    fn module_deduplicates_structs_and_functions() {
        let mut m = Module::new();
        let s = StructDef {
            name: "Tuple_float_float".into(),
            fields: vec![],
        };
        m.add_struct(s.clone());
        m.add_struct(s);
        assert_eq!(m.structs.len(), 1);
        let f = CFunction {
            name: "add".into(),
            ret: CType::Float,
            params: vec![],
            locals: vec![],
            body: CExpr::float(0.0),
        };
        m.add_function(f.clone());
        m.add_function(f);
        assert_eq!(m.functions.len(), 1);
        assert!(m.function("add").is_some());
        assert!(m.kernel("missing").is_none());
    }

    #[test]
    fn fence_constructors() {
        assert!(Fence::local().local);
        assert!(!Fence::local().global);
        assert!(Fence::global().global);
    }
}
