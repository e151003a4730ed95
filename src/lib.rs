//! # Lift
//!
//! A Rust reproduction of *Lift: A Functional Data-Parallel IR for High-Performance GPU Code
//! Generation* (Steuwer, Remmelg, Dubach — CGO 2017).
//!
//! This facade crate re-exports the individual crates of the workspace under a single name:
//!
//! * [`arith`] — symbolic arithmetic with ranges and the simplification rules of Section 5.3,
//! * [`ir`] — the Lift intermediate representation: types, patterns and the builder DSL,
//! * [`interp`] — the reference interpreter giving the semantics of every pattern,
//! * [`ocl`] — the OpenCL C abstract syntax tree and pretty printer,
//! * [`vgpu`] — a virtual GPU that executes OpenCL ASTs and reports an analytical cost,
//! * [`codegen`] — the Lift compiler of Section 5 (views, memory allocation, barrier
//!   elimination, control-flow simplification, kernel generation),
//! * [`rewrite`] — the rewrite-rule engine deriving low-level OpenCL programs from
//!   high-level `map`/`reduce` expressions, with cost-guided exploration,
//! * [`tuner`] — auto-tuning over split factors, vector widths and launch configurations
//!   per device profile, on top of the rewrite exploration,
//! * [`service`] — the long-lived derivation service: persistent content-addressed caching
//!   of tuned derivations, batched/deduplicated request processing and warm-started
//!   searches,
//! * [`telemetry`] — the structured-event layer (spans, counters, typed events) the
//!   rewrite search, tuner and virtual GPU report through,
//! * [`benchmarks`] — the twelve evaluation programs of Table 1.
//!
//! # Quickstart
//!
//! ```
//! use lift::prelude::*;
//!
//! // Build the dot-product program of Listing 1, compile it and print the OpenCL kernel.
//! let program = lift::benchmarks::dot_product::lift_program(1024);
//! let kernel = lift::codegen::compile(&program, &CompilationOptions::all_optimisations())
//!     .expect("dot product compiles");
//! assert!(kernel.source().contains("kernel void"));
//! ```

pub use lift_arith as arith;
pub use lift_benchmarks as benchmarks;
pub use lift_codegen as codegen;
pub use lift_interp as interp;
pub use lift_ir as ir;
pub use lift_ocl as ocl;
pub use lift_rewrite as rewrite;
pub use lift_service as service;
pub use lift_telemetry as telemetry;
pub use lift_tuner as tuner;
pub use lift_vgpu as vgpu;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use lift_arith::ArithExpr;
    pub use lift_codegen::{compile, CompilationOptions};
    pub use lift_interp::Value;
    pub use lift_ir::prelude::*;
    pub use lift_vgpu::{DeviceProfile, EngineSelection, ExecutionRequest};
}
