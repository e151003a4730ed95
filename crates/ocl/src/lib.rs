//! # OpenCL C abstract syntax tree
//!
//! The Lift compiler (Section 5.5 of the paper) generates OpenCL kernels. This crate provides
//! the kernel representation those kernels are generated into:
//!
//! * [`ast`] — types, expressions, statements, kernels and modules,
//! * [`printer`] — pretty printing to OpenCL C source text in the style of Figure 7,
//! * [`walk`](mod@walk) — the read-only pre-order traversal every analysis of a kernel runs on.
//!
//! The AST is also the executable artefact of this reproduction: `lift-vgpu` interprets it
//! directly on a simulated GPU, which replaces the physical GPUs used in the paper's
//! evaluation.
//!
//! ```
//! use lift_ocl::{CExpr, CStmt, Kernel, KernelParam, CType, AddrSpace, print_kernel};
//!
//! let kernel = Kernel {
//!     name: "copy".into(),
//!     params: vec![
//!         KernelParam {
//!             name: "in".into(),
//!             ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
//!         },
//!         KernelParam { name: "out".into(), ty: CType::pointer(CType::Float, AddrSpace::Global) },
//!     ],
//!     body: vec![CStmt::Assign {
//!         lhs: CExpr::var("out").at(CExpr::global_id(0)),
//!         rhs: CExpr::var("in").at(CExpr::global_id(0)),
//!     }],
//! };
//! assert!(print_kernel(&kernel).contains("kernel void copy"));
//! ```

pub mod ast;
pub mod printer;
pub mod walk;

pub use ast::{
    AddrSpace, Builtin, CBinOp, CExpr, CFunction, CStmt, CType, Fence, Kernel, KernelParam, Module,
    StructDef, TempBufferDecl, WorkItem,
};
pub use printer::{
    print_expr, print_function, print_kernel, print_module, print_stmt, print_struct,
};
pub use walk::{walk, Node};
