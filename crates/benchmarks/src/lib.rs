//! # The evaluation benchmarks of the Lift paper (Table 1)
//!
//! This crate contains the twelve benchmark programs used in Section 7 of the paper, each
//! expressed three ways:
//!
//! 1. as a **low-level Lift IL program** (built with the `lift-ir` builder DSL) encoding the
//!    mapping and optimisation decisions the paper describes,
//! 2. as a **host reference** computation in plain Rust (the ground truth),
//! 3. as a **hand-written OpenCL reference kernel** built directly as a `lift-ocl` AST,
//!    standing in for the manually optimised kernels from the NVIDIA/AMD SDKs, SHOC, Rodinia,
//!    Parboil and CLBlast that the paper compares against.
//!
//! The [`runner`] module compiles the Lift programs with `lift-codegen`, executes both the
//! generated and the reference kernels on the virtual GPU (`lift-vgpu`), checks the results
//! against the host reference and reports the cost-model counters used to regenerate the
//! paper's Figure 8.
//!
//! ## Fidelity notes
//!
//! The benchmark *structures* (parallelisation strategy, memory spaces, data-layout patterns)
//! follow Table 1; the arithmetic inside some user functions is simplified (e.g. the N-Body
//! interaction uses one spatial dimension) because the point of the evaluation is code
//! generation quality, not physics. Problem sizes are scaled down from the paper so the
//! virtual GPU (a functional simulator) runs them in seconds; the relative comparisons of
//! Figure 8 are unaffected. Both simplifications are documented per benchmark.

pub mod blas;
pub mod convolution;
pub mod dot_product;
pub mod jacobi;
pub mod kmeans;
pub mod md;
pub mod mm;
pub mod mriq;
pub mod nbody;
pub mod nn;
pub(crate) mod refs;
pub mod runner;
pub mod workload;

use std::fmt;

use lift_arith::Environment;
use lift_ir::Program;
use lift_ocl::{AddrSpace, CExpr, CStmt, CType, Kernel, Module};
use lift_vgpu::{CostCounters, KernelArg, LaunchConfig};

/// The two input sizes evaluated in the paper (scaled down for the virtual GPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemSize {
    /// The "small" input of Table 1.
    Small,
    /// The "large" input of Table 1.
    Large,
}

impl ProblemSize {
    /// All problem sizes.
    pub fn all() -> [ProblemSize; 2] {
        [ProblemSize::Small, ProblemSize::Large]
    }

    /// A human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ProblemSize::Small => "small",
            ProblemSize::Large => "large",
        }
    }
}

/// Static description of a benchmark, mirroring the columns of Table 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Benchmark name as used in the paper.
    pub name: &'static str,
    /// The origin of the reference implementation (NVIDIA SDK, Rodinia, CLBlast, …).
    pub source: &'static str,
    /// Table 1's local / private / vec / coal / iter columns as the paper lists them, in the
    /// form [`Characteristics`] displays (`"local private - coal 1D"`).
    pub characteristics_paper: &'static str,
    /// Lines of OpenCL code of the original hand-written implementation, as reported in
    /// Table 1 of the paper.
    pub opencl_loc_paper: usize,
    /// Lines of the high-level (portable) Lift IL program, as reported in Table 1.
    pub high_level_loc_paper: usize,
    /// Lines of the low-level Lift IL program, as reported in Table 1.
    pub low_level_loc_paper: usize,
}

/// Table 1's optimisation columns of a reference kernel, read off its code and its run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Characteristics {
    /// The kernel declares a `local` buffer.
    pub local_memory: bool,
    /// The kernel declares a private array.
    pub private_memory: bool,
    /// The kernel uses a vector type or a vector load/store.
    pub vectorisation: bool,
    /// The kernel's run made no uncoalesced global access.
    pub coalescing: bool,
    /// The rank of the launch's iteration space (1, 2 or 3).
    pub iteration_space: usize,
}

/// Computes Table 1's columns for `kernel` launched over `launch`, whose run counted
/// `counters`.
pub fn characteristics(
    kernel: &Kernel,
    launch: &LaunchConfig,
    counters: &CostCounters,
) -> Characteristics {
    fn is_vector(ty: &CType) -> bool {
        match ty {
            CType::Vector(..) => true,
            CType::Pointer { elem, .. } => is_vector(elem),
            _ => false,
        }
    }
    let mut c = Characteristics {
        local_memory: false,
        private_memory: false,
        vectorisation: kernel.params.iter().any(|p| is_vector(&p.ty)),
        coalescing: counters.uncoalesced_accesses == 0,
        iteration_space: (1..3).rev().find(|&d| launch.global[d] > 1).unwrap_or(0) + 1,
    };
    let (mut stmts, mut exprs): (Vec<&CStmt>, Vec<&CExpr>) = (kernel.body.iter().collect(), vec![]);
    while let Some(stmt) = stmts.pop() {
        match stmt {
            CStmt::Decl {
                ty,
                addr,
                array_len,
                init,
                ..
            } => {
                c.local_memory |= *addr == Some(AddrSpace::Local);
                c.private_memory |=
                    array_len.is_some() && matches!(addr, None | Some(AddrSpace::Private));
                c.vectorisation |= is_vector(ty);
                exprs.extend(init);
            }
            CStmt::Assign { lhs, rhs } => exprs.extend([lhs, rhs]),
            CStmt::Expr(e) => exprs.push(e),
            CStmt::Block(body) => stmts.extend(body),
            CStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                exprs.extend([init, cond, step]);
                stmts.extend(body);
            }
            CStmt::If {
                cond,
                then,
                otherwise,
            } => {
                exprs.push(cond);
                stmts.extend(then.iter().chain(otherwise.iter().flatten()));
            }
            CStmt::Barrier(_) | CStmt::Return | CStmt::Comment(_) => {}
        }
    }
    while let Some(e) = exprs.pop() {
        match e {
            CExpr::IntLit(_) | CExpr::FloatLit(_) | CExpr::Var(_) | CExpr::Index(_) => {}
            CExpr::VectorLit(..) => c.vectorisation = true,
            CExpr::Call(name, args) => {
                c.vectorisation |= name.starts_with("vload") || name.starts_with("vstore");
                exprs.extend(args);
            }
            CExpr::Cast(ty, a) => {
                c.vectorisation |= is_vector(ty);
                exprs.push(a);
            }
            CExpr::Bin(_, a, b) | CExpr::ArrayAccess(a, b) => exprs.extend([&**a, &**b]),
            CExpr::Un(_, a) | CExpr::Field(a, _) => exprs.push(a),
            CExpr::Ternary(a, b, d) => exprs.extend([&**a, &**b, &**d]),
            CExpr::StructLit(_, args) => exprs.extend(args),
        }
    }
    c
}

impl fmt::Display for Characteristics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flag = |on: bool, name: &'static str| if on { name } else { "-" };
        write!(
            f,
            "{} {} {} {} {}D",
            flag(self.local_memory, "local"),
            flag(self.private_memory, "private"),
            flag(self.vectorisation, "vec"),
            flag(self.coalescing, "coal"),
            self.iteration_space
        )
    }
}

/// A fully instantiated benchmark: program, inputs, launch configuration, reference kernel and
/// expected output.
#[derive(Clone, Debug)]
pub struct BenchmarkCase {
    /// Static description (Table 1 row).
    pub info: BenchmarkInfo,
    /// The problem size this case was instantiated for.
    pub size: ProblemSize,
    /// The low-level Lift IL program.
    pub program: Program,
    /// Concrete input arrays, in root-parameter order.
    pub inputs: Vec<Vec<f32>>,
    /// Bindings for the symbolic size variables of the program.
    pub sizes: Environment,
    /// The launch configuration used for both the generated and the reference kernel.
    pub launch: LaunchConfig,
    /// The hand-written reference module.
    pub reference_module: Module,
    /// Name of the reference kernel inside the module.
    pub reference_kernel: String,
    /// Arguments for the reference kernel (including an output buffer).
    pub reference_args: Vec<KernelArg>,
    /// Index of the output buffer among the *buffer* arguments of the reference kernel.
    pub reference_output_buffer: usize,
    /// The expected output, computed on the host.
    pub expected: Vec<f32>,
}

/// Instantiates every benchmark of Table 1 for the given problem size.
pub fn all_benchmarks(size: ProblemSize) -> Vec<BenchmarkCase> {
    vec![
        nbody::nvidia_case(size),
        nbody::amd_case(size),
        md::case(size),
        kmeans::case(size),
        nn::case(size),
        mriq::case(size),
        convolution::case(size),
        blas::atax_case(size),
        blas::gemv_case(size),
        blas::gesummv_case(size),
        mm::amd_case(size),
        mm::nvidia_case(size),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_are_registered() {
        let cases = all_benchmarks(ProblemSize::Small);
        assert_eq!(cases.len(), 12);
        let names: Vec<&str> = cases.iter().map(|c| c.info.name).collect();
        assert!(names.contains(&"N-Body (NVIDIA)"));
        assert!(names.contains(&"MM (NVIDIA)"));
    }

    #[test]
    fn characteristics_are_read_off_the_kernel_and_its_run() {
        let kernel = |body: Vec<CStmt>| Kernel {
            name: "k".into(),
            params: vec![],
            body,
        };
        let decl = |ty: CType, addr: Option<AddrSpace>, len: Option<i64>| CStmt::Decl {
            ty,
            name: "a".into(),
            addr,
            array_len: len.map(lift_arith::ArithExpr::cst),
            init: None,
        };
        let store = |rhs: CExpr| CStmt::Assign {
            lhs: CExpr::var("out").at(CExpr::global_id(0)),
            rhs,
        };
        let float4 = CType::Vector(Box::new(CType::Float), 4);
        let vload = CExpr::Call("vload4".into(), vec![CExpr::global_id(0), CExpr::var("in")]);
        let d1 = LaunchConfig::d1(64, 16);
        let clean = CostCounters::default();
        let computed =
            |k: &Kernel, launch: &LaunchConfig| characteristics(k, launch, &clean).to_string();

        let plain = kernel(vec![store(CExpr::float(1.0))]);
        assert_eq!(computed(&plain, &d1), "- - - coal 1D");
        let local = kernel(vec![decl(CType::Float, Some(AddrSpace::Local), Some(64))]);
        assert_eq!(computed(&local, &d1), "local - - coal 1D");
        let private = kernel(vec![decl(CType::Float, None, Some(4))]);
        assert_eq!(computed(&private, &d1), "- private - coal 1D");
        // A scalar private variable is not a private array.
        let scalar = kernel(vec![decl(CType::Float, None, None)]);
        assert_eq!(computed(&scalar, &d1), "- - - coal 1D");
        let vector_var = kernel(vec![decl(float4, None, None)]);
        assert_eq!(computed(&vector_var, &d1), "- - vec coal 1D");
        // A vector load is found inside nested control flow.
        let vector_load = kernel(vec![CStmt::If {
            cond: CExpr::global_id(0).lt(CExpr::int(8)),
            then: vec![],
            otherwise: Some(vec![store(CExpr::Field(Box::new(vload), "x".into()))]),
        }]);
        assert_eq!(computed(&vector_load, &d1), "- - vec coal 1D");
        assert_eq!(
            computed(&plain, &LaunchConfig::d2((64, 8), (16, 1))),
            "- - - coal 2D"
        );
        let uncoalesced = CostCounters {
            uncoalesced_accesses: 1,
            ..CostCounters::default()
        };
        assert!(!characteristics(&plain, &d1, &uncoalesced).coalescing);
    }

    #[test]
    fn problem_sizes_have_labels() {
        assert_eq!(ProblemSize::Small.label(), "small");
        assert_eq!(ProblemSize::Large.label(), "large");
        assert_eq!(ProblemSize::all().len(), 2);
    }
}
