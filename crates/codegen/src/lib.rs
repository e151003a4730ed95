//! # The Lift compiler
//!
//! This crate implements the compilation flow of Section 5 of the paper:
//!
//! 1. type analysis (provided by `lift-ir`),
//! 2. [`address_space`] — address-space inference (Algorithm 1),
//! 3. memory allocation — performed while generating code, using the inferred address spaces,
//! 4. [`view`] — construction and consumption of views for multi-dimensional array accesses,
//!    with the symbolic index simplification of Section 5.3,
//! 5. barrier elimination and control-flow simplification,
//! 6. [`codegen`] — OpenCL code generation.
//!
//! The entry point is [`compile`], which turns a Lift [`Program`](lift_ir::Program) into a
//! [`CompiledKernel`] containing the OpenCL module, the kernel parameter list and metadata.
//! The [`CompilationOptions`] select which optimisations run, mirroring the three
//! configurations compared in Figure 8 of the paper.
//!
//! ```
//! use lift_codegen::{compile, CompilationOptions};
//! use lift_ir::prelude::*;
//! use lift_arith::ArithExpr;
//!
//! // map(id) over a vector, i.e. a parallel copy.
//! let n = ArithExpr::size_var("N");
//! let mut p = Program::new("copy");
//! let id = p.user_fun(UserFun::id_float());
//! let m = p.map_glb(0, id);
//! p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
//!     p.apply1(m, params[0])
//! });
//! let kernel = compile(&p, &CompilationOptions::all_optimisations()).unwrap();
//! assert!(kernel.source().contains("kernel void copy"));
//! ```

pub mod address_space;
pub mod codegen;
pub mod options;
pub mod view;

pub use address_space::{
    infer_address_spaces, infer_parallelism, AddressSpaces, ParallelismLevels,
};
pub use codegen::{
    compile, compile_program, compile_program_traced, CodegenError, CompiledKernel,
    CompiledProgram, KernelParamInfo, KernelStage, TempBufferInfo,
};
pub use options::{CompilationOptions, LaunchTrace};
pub use view::{resolve, AccessBuilder, Resolved, View, ViewError};
