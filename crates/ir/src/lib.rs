//! # The Lift intermediate representation
//!
//! This crate implements the Lift IL/IR of Sections 3 and 4 of *Lift: A Functional
//! Data-Parallel IR for High-Performance GPU Code Generation* (CGO 2017):
//!
//! * [`types`] — the dependent type system: scalars, vectors, tuples and arrays whose lengths
//!   are symbolic arithmetic expressions,
//! * [`scalar`] — user functions (application-specific scalar computations),
//! * [`node`] — the arena-based expression graph: literals, parameters, function calls,
//!   lambdas and the predefined patterns (`map*`, `reduceSeq`, `split`, `join`, `zip`,
//!   `gather`, `scatter`, `slide`, `toLocal`, `asVector`, …),
//! * [`builder`] — a builder DSL for writing programs in the compositional style of Listing 1,
//! * [`typecheck`] — type inference following the data flow (Section 5.1),
//! * [`pretty`] — pretty printing in the paper's notation.
//!
//! # Example
//!
//! A parallel vector scaling written with the builder DSL:
//!
//! ```
//! use lift_ir::prelude::*;
//! use lift_arith::ArithExpr;
//!
//! let n = ArithExpr::size_var("N");
//! let mut p = Program::new("scale");
//! let mult = p.user_fun(UserFun::mult_pair());
//! let map = p.map_glb(0, mult);
//! let zip = p.zip2();
//! p.with_root(
//!     vec![
//!         ("x", Type::array(Type::float(), n.clone())),
//!         ("y", Type::array(Type::float(), n)),
//!     ],
//!     |p, params| {
//!         let zipped = p.apply(zip, [params[0], params[1]]);
//!         p.apply1(map, zipped)
//!     },
//! );
//! infer_types(&mut p).unwrap();
//! assert!(p.type_of(p.root_body()).is_array());
//! ```

pub mod builder;
pub mod node;
pub mod pretty;
pub mod scalar;
pub mod typecheck;
pub mod types;

pub use node::{
    ExprId, ExprKind, ExprNode, FunDecl, FunDeclId, Literal, PadMode, Pattern, Program, Reorder,
};
pub use scalar::{BinOp, ScalarExpr, UnOp, UserFun, UserFunError};
pub use typecheck::{infer_call_types, infer_types, pattern_type, user_fun_type, TypeError};
pub use types::{AddressSpace, ParallelismLevel, ScalarKind, Type};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::node::{
        ExprId, ExprKind, FunDecl, FunDeclId, Literal, PadMode, Pattern, Program, Reorder,
    };
    pub use crate::scalar::{BinOp, ScalarExpr, UnOp, UserFun};
    pub use crate::typecheck::{infer_call_types, infer_types, TypeError};
    pub use crate::types::{AddressSpace, ParallelismLevel, ScalarKind, Type};
}
