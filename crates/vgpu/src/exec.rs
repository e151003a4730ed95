//! SIMT execution of OpenCL kernels.
//!
//! The virtual GPU executes one work group at a time. Within a work group all work items run
//! in lock step, statement by statement, which gives barriers their OpenCL semantics for the
//! structured kernels the Lift compiler emits (barriers only ever appear at points reached
//! uniformly by the whole work group). Divergent control flow is handled with per-thread
//! activity masks, exactly like the execution masks of a real SIMT machine.
//!
//! While executing, the interpreter counts the dynamic events the cost model charges for:
//! arithmetic, index computations (with divisions/modulos counted separately), global/local
//! memory traffic with a coalescing analysis per SIMD group, barriers and loop overhead.
//!
//! # Execution strategy
//!
//! Launching first *lowers* the kernel into a slot-indexed form ([`SStmt`]/[`SExpr`]): every
//! identifier (parameter, declaration, loop variable, user-function parameter) is interned
//! to a dense slot, builtins become the operations they name, user-function calls are
//! resolved once, and comments disappear. The interpreter then runs the lowered form with
//! plain vector indexing for variable access — the innermost loop performs
//! no string hashing, no name-based dispatch and no AST cloning. Exploration executes
//! thousands of candidate kernels per search, which makes this path the throughput limit of
//! the whole rewrite engine.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use lift_arith::ArithExpr;
use lift_ocl::{AddrSpace, Builtin, CBinOp, CExpr, CStmt, Module, WorkItem};

use crate::cost::{Budget, CostCounters, ExecutionReport};
use crate::device::{DeviceProfile, LaunchConfig, LaunchError};
use crate::memory::{GpuValue, KernelArg, Ptr, Scalar};
use crate::ops::{self, IntOp};

/// Number of consecutive work items considered for memory-coalescing analysis.
pub(crate) const COALESCE_GROUP: usize = 32;
/// Number of consecutive `float` elements that form one memory transaction segment.
pub(crate) const SEGMENT_ELEMS: i64 = 32;

/// A fast word-at-a-time FxHash-style hasher for the few remaining string-keyed maps (name
/// interning during lowering, symbolic-length parameters). DoS resistance is pointless for
/// compiler-generated identifiers.
#[derive(Clone, Copy, Default)]
struct FastHash(u64);

impl Hasher for FastHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(buf))
                .rotate_left(5)
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

/// A string-keyed map with the fast hasher.
type VarMap<V> = HashMap<String, V, BuildHasherDefault<FastHash>>;

/// Errors raised while launching or executing a kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum VgpuError {
    /// The requested kernel does not exist in the module.
    UnknownKernel(String),
    /// A variable was referenced but never defined.
    UnknownVariable(String),
    /// A called function is not defined in the module.
    UnknownFunction(String),
    /// The number of kernel arguments does not match the kernel signature, or a call passes
    /// a function or builtin the wrong number of arguments.
    ArgumentMismatch {
        /// Parameters expected.
        expected: usize,
        /// Arguments provided.
        found: usize,
    },
    /// An expression that must be a pointer evaluated to something else.
    NotAPointer(String),
    /// An out-of-bounds memory access.
    OutOfBounds {
        /// The address space of the buffer.
        space: &'static str,
        /// The accessed index.
        index: i64,
        /// The buffer length.
        len: usize,
    },
    /// A symbolic length could not be resolved to a constant.
    SymbolicLength(String),
    /// A value that cannot be stored to memory (e.g. a struct) was stored.
    InvalidStore(String),
    /// Integer division or modulo by zero: an `int` `/`, or an index term's `/` or `%`.
    DivisionByZero,
    /// A binary operation on two vectors whose right operand has fewer lanes than the left
    /// (`vload4(..) + vload2(..)`): the operation is lane by lane over the left operand.
    LaneMismatch {
        /// Lanes of the left operand.
        left: usize,
        /// Lanes of the right operand.
        right: usize,
    },
    /// The launch configuration violates the target device's limits
    /// (see [`DeviceProfile::validate_launch`]).
    InvalidLaunch(LaunchError),
    /// A `barrier()` was reached by only part of a work group (it sits inside a
    /// lane-divergent branch or loop). OpenCL leaves this undefined; a real device would
    /// hang or corrupt memory, so the virtual GPU reports it instead of silently
    /// synchronising whichever subset happened to arrive.
    DivergentBarrier {
        /// The work-group id in which the divergent barrier executed.
        group: [usize; 3],
        /// Work items of the group that reached the barrier.
        arrived: usize,
        /// Work items of the group.
        expected: usize,
    },
    /// Two work items touched the same memory cell without a synchronising barrier between
    /// the accesses, and at least one access was a write of a differing value. Reported only
    /// under [`crate::ExecutionRequest::race_detection`] — the shadow-memory detector records the
    /// last writer and reader of every local and global cell together with the barrier
    /// epoch of the access, and flags write-write and read-write pairs from different work
    /// items in the same epoch (or, for global buffers, from different work groups, which
    /// no barrier can ever order within a launch).
    DataRace {
        /// Name of the racy buffer (the kernel parameter or `__local` declaration).
        buffer: String,
        /// The contested element index.
        index: i64,
        /// The two conflicting work items (global linear ids), earlier access first.
        writers: [usize; 2],
        /// The barrier epoch of the group in which the conflict surfaced (barriers executed
        /// since the group started).
        epoch: u64,
    },
    /// The launch was stopped early: its static bound or its partial counters prove an
    /// estimated time above the limit of [`crate::ExecutionRequest::budget`]. Its buffers
    /// are lost and it was neither completed nor validated.
    OverBudget {
        /// The proven lower bound on the launch's estimated time.
        lower_bound: f64,
        /// The lock-step row at which the bound crossed the limit, counted over the whole
        /// sequence (a finished stage counts all its rows). `0` means the launch was stopped
        /// before its first row: the static bound of its kernels already crossed it.
        row: u64,
    },
}

impl fmt::Display for VgpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VgpuError::UnknownKernel(k) => write!(f, "unknown kernel `{k}`"),
            VgpuError::UnknownVariable(v) => write!(f, "unknown variable `{v}`"),
            VgpuError::UnknownFunction(v) => write!(f, "unknown function `{v}`"),
            VgpuError::ArgumentMismatch { expected, found } => {
                write!(f, "kernel expects {expected} arguments, received {found}")
            }
            VgpuError::NotAPointer(e) => write!(f, "expression is not a pointer: {e}"),
            VgpuError::OutOfBounds { space, index, len } => {
                write!(
                    f,
                    "out-of-bounds {space} access at index {index} (length {len})"
                )
            }
            VgpuError::SymbolicLength(e) => write!(f, "cannot resolve symbolic length `{e}`"),
            VgpuError::InvalidStore(e) => write!(f, "cannot store value: {e}"),
            VgpuError::DivisionByZero => write!(f, "division by zero in index expression"),
            VgpuError::LaneMismatch { left, right } => write!(
                f,
                "binary operation on a {left}-lane vector and a {right}-lane vector"
            ),
            VgpuError::InvalidLaunch(e) => write!(f, "invalid launch configuration: {e}"),
            VgpuError::DivergentBarrier {
                group,
                arrived,
                expected,
            } => write!(
                f,
                "barrier reached by only {arrived} of {expected} work items of group \
                 {group:?} (undefined behaviour in OpenCL)"
            ),
            VgpuError::DataRace {
                buffer,
                index,
                writers,
                epoch,
            } => write!(
                f,
                "data race on `{buffer}[{index}]`: work items {} and {} accessed the cell \
                 without a barrier between them (barrier epoch {epoch})",
                writers[0], writers[1]
            ),
            VgpuError::OverBudget { lower_bound, row } => write!(
                f,
                "stopped at lock-step row {row}: the estimated time is at least \
                 {lower_bound:.1}, over budget"
            ),
        }
    }
}

impl std::error::Error for VgpuError {}

/// The result of one stage's launch: the (possibly modified) global buffers in argument order
/// and the execution report for the cost model.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LaunchResult {
    /// Global buffers after execution, in the order the buffer arguments were passed.
    pub(crate) buffers: Vec<Vec<f32>>,
    /// Dynamic execution counters.
    pub(crate) report: ExecutionReport,
}

/// One stage of a multi-kernel launch plan: which kernel to run and under which ND-range.
///
/// Multi-kernel programs (see `lift-codegen`'s `CompiledProgram`) share a single argument
/// list across every kernel of the sequence, so a stage needs no per-stage argument mapping —
/// only the kernel name and its launch dimensions (a sequential stage typically runs as a
/// single work item).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelLaunchSpec {
    /// Name of the kernel in the module.
    pub kernel: String,
    /// The ND-range this stage is launched with.
    pub launch: LaunchConfig,
}

/// The result of executing a kernel sequence: the final state of the shared buffer pool and
/// one execution report per stage.
#[derive(Clone, Debug, PartialEq)]
pub struct SequenceResult {
    /// Global buffers after the last stage, in the order the buffer arguments were passed.
    pub buffers: Vec<Vec<f32>>,
    /// Per-stage execution reports, in launch order.
    pub reports: Vec<ExecutionReport>,
}

impl SequenceResult {
    /// Per-stage cost counters, in launch order.
    pub fn stage_counters(&self) -> Vec<CostCounters> {
        self.reports.iter().map(|r| r.counters).collect()
    }

    /// Counters summed over all stages (for reporting; use [`SequenceResult::estimated_time`]
    /// for ranking — sequential spans add, they do not merge).
    pub fn merged_counters(&self) -> CostCounters {
        let mut total = CostCounters::default();
        let mut span = 0;
        for r in &self.reports {
            span += r.counters.group_span_rows;
            total.merge(&r.counters);
        }
        // Sequential stages cannot overlap: the critical path is the sum of the per-stage
        // critical paths, not their maximum.
        total.group_span_rows = span;
        total
    }

    /// Estimated execution time of the whole sequence on `device`: the per-stage work–span
    /// times summed, plus one [`DeviceProfile::launch_overhead`] per stage.
    pub fn estimated_time(&self, device: &DeviceProfile) -> f64 {
        crate::cost::estimated_sequence_time(&self.stage_counters(), device)
    }

    /// The structured per-stage profile of the execution: each stage's counters and time
    /// decomposition under `device`, labelled with the kernel names of the launch plan
    /// (`stages` should be the plan this result came from). The profile's total equals
    /// [`SequenceResult::estimated_time`] exactly.
    pub fn profile(
        &self,
        stages: &[KernelLaunchSpec],
        device: &DeviceProfile,
    ) -> crate::cost::ExecutionProfile {
        let names: Vec<String> = stages.iter().map(|s| s.kernel.clone()).collect();
        crate::cost::ExecutionProfile::from_stages(&names, &self.stage_counters(), device)
    }
}

/// A kernel launch lowered to the slot-indexed form with its arguments bound: everything an
/// execution engine needs to run the kernel body against live state.
pub(crate) struct Prepared {
    pub(crate) body: Vec<SStmt>,
    pub(crate) exec: Exec,
}

impl Prepared {
    /// Consumes the executed state into the launch result.
    pub(crate) fn finish(self) -> LaunchResult {
        LaunchResult {
            buffers: self.exec.global,
            report: ExecutionReport {
                counters: self.exec.counters,
            },
        }
    }
}

/// A kernel resolved and lowered once (names interned to slots, call targets resolved,
/// comments dropped), before any argument is bound: what the static bound counts and what
/// [`Lowered::bind`] turns into a runnable launch.
pub(crate) struct Lowered<'m> {
    kernel: &'m lift_ocl::Kernel,
    pub(crate) param_slots: Vec<usize>,
    pub(crate) body: Vec<SStmt>,
    pub(crate) functions: Vec<std::rc::Rc<SFunction>>,
    pub(crate) names: Vec<String>,
}

/// Resolves and lowers `kernel_name` for a launch with `arg_count` arguments — the
/// argument-independent half of every launch's prologue.
pub(crate) fn lower<'m>(
    module: &'m Module,
    kernel_name: &str,
    arg_count: usize,
) -> Result<Lowered<'m>, VgpuError> {
    let kernel = module
        .kernel(kernel_name)
        .ok_or_else(|| VgpuError::UnknownKernel(kernel_name.to_string()))?;
    if kernel.params.len() != arg_count {
        return Err(VgpuError::ArgumentMismatch {
            expected: kernel.params.len(),
            found: arg_count,
        });
    }
    let mut lowerer = Lowerer::new(module);
    let param_slots: Vec<usize> = kernel
        .params
        .iter()
        .map(|p| lowerer.slot(&p.name))
        .collect();
    let body = lowerer.lower_block(&kernel.body);
    let functions = lowerer
        .functions
        .into_iter()
        .map(std::rc::Rc::new)
        .collect();
    Ok(Lowered {
        kernel,
        param_slots,
        body,
        functions,
        names: lowerer.names,
    })
}

impl Lowered<'_> {
    /// Binds the launch arguments: everything an execution engine needs to run the kernel
    /// body against live state.
    pub(crate) fn bind(
        self,
        config: LaunchConfig,
        args: Vec<KernelArg>,
        detect_races: bool,
        budget: Option<Budget>,
    ) -> Prepared {
        let Lowered {
            kernel,
            param_slots,
            body,
            functions,
            names,
        } = self;
        let mut global: Vec<Vec<f32>> = Vec::new();
        let mut global_names: Vec<String> = Vec::new();
        let mut params = vec![Scalar::None; names.len()];
        let mut params_by_name: VarMap<Scalar> = VarMap::default();
        for ((param, slot), arg) in kernel.params.iter().zip(param_slots).zip(args) {
            let value = match arg {
                KernelArg::Buffer(data) => {
                    let idx = global.len();
                    global.push(data);
                    global_names.push(param.name.clone());
                    Scalar::Ptr(Ptr {
                        space: AddrSpace::Global,
                        buffer: idx,
                        offset: 0,
                    })
                }
                KernelArg::Int(v) => Scalar::Int(v),
                KernelArg::Float(v) => Scalar::Float(f64::from(v)),
            };
            params_by_name.insert(param.name.clone(), value);
            params[slot] = value;
        }

        // Shadow state lives for exactly one launch: each stage of a kernel sequence starts
        // with clean shadow memory, mirroring the device-wide sync of a kernel boundary.
        let shadow_global: Vec<Vec<ShadowCell>> = if detect_races {
            global
                .iter()
                .map(|b| vec![ShadowCell::default(); b.len()])
                .collect()
        } else {
            Vec::new()
        };

        let exec = Exec {
            config,
            global,
            params,
            params_by_name,
            functions,
            names,
            counters: CostCounters::default(),
            access_log: Vec::new(),
            seg_scratch: Vec::new(),
            simd_counts: Vec::new(),
            detect: detect_races,
            shadow_global,
            global_names,
            budget,
        };
        Prepared { body, exec }
    }
}

// --------------------------------------------------------------------- lowered kernel form

/// A one-argument math builtin on `f64` (charged 4 flops, like a special-function unit).
pub(crate) type Math1 = fn(f64) -> f64;
/// A two-argument math builtin on `f64` (charged 1 flop).
pub(crate) type Math2 = fn(f64, f64) -> f64;

/// A lowered index expression: [`ArithExpr`] with variables resolved to slots and each
/// operation named by the [`IntOp`] that computes it.
pub(crate) enum SIndex {
    Cst(i64),
    Var(usize),
    /// A sum or a product: `op` over the terms, left to right.
    Fold(IntOp, Vec<SIndex>),
    /// `/`, `%`, `min` or `max` of two terms.
    Pair(IntOp, Box<SIndex>, Box<SIndex>),
    Pow(Box<SIndex>, u32),
}

/// A lowered expression: variables are slots, call targets are resolved.
pub(crate) enum SExpr {
    Int(i64),
    Float(f64),
    Var(usize),
    Index(SIndex),
    Bin(CBinOp, Box<SExpr>, Box<SExpr>),
    Neg(Box<SExpr>),
    WorkItem(WorkItem, Box<SExpr>),
    VLoad(usize, Box<SExpr>, Box<SExpr>),
    VStore(usize, Box<SExpr>, Box<SExpr>, Box<SExpr>),
    Math1(Math1, Box<SExpr>),
    Math2(Math2, Box<SExpr>, Box<SExpr>),
    CallFun(usize, Vec<SExpr>),
    /// A call that cannot run (an unknown function, a builtin given the wrong number of
    /// arguments): the error is raised where the call is evaluated.
    Fail(Box<VgpuError>),
    ArrayAccess(Box<SExpr>, Box<SExpr>),
    Field(Box<SExpr>, usize, String),
    Ternary(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    StructLit(Vec<SExpr>),
}

/// A lowered assignment target.
pub(crate) enum SLhs {
    Var(usize),
    Array(SExpr, SExpr),
    FieldOfVar(usize, usize),
    Invalid(String),
}

/// A lowered statement. Comments are dropped during lowering.
pub(crate) enum SStmt {
    Barrier,
    Block(Vec<SStmt>),
    DeclLocalArray {
        slot: usize,
        len: ArithExpr,
    },
    DeclPrivateArray {
        slot: usize,
        len: ArithExpr,
    },
    DeclScalar {
        slot: usize,
        init: Option<SExpr>,
    },
    Assign {
        lhs: SLhs,
        rhs: SExpr,
    },
    Expr(SExpr),
    If {
        cond: SExpr,
        then: Vec<SStmt>,
        otherwise: Option<Vec<SStmt>>,
    },
    For {
        slot: usize,
        init: SExpr,
        cond: SExpr,
        step: SExpr,
        body: Vec<SStmt>,
    },
}

impl SStmt {
    /// Calls `f` on every statement of `stmts` and of the blocks nested in them, pre-order: a
    /// statement before those nested in it. This is the read-only walk of the lowered form; it
    /// allocates nothing, since the static bound runs it inside its own walk.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub(crate) fn walk<'a>(stmts: &'a [SStmt], f: &mut impl FnMut(&'a SStmt)) {
        for stmt in stmts {
            f(stmt);
            match stmt {
                SStmt::Block(body) | SStmt::For { body, .. } => SStmt::walk(body, f),
                SStmt::If {
                    then, otherwise, ..
                } => {
                    SStmt::walk(then, f);
                    SStmt::walk(otherwise.as_deref().unwrap_or_default(), f);
                }
                SStmt::Barrier
                | SStmt::DeclLocalArray { .. }
                | SStmt::DeclPrivateArray { .. }
                | SStmt::DeclScalar { .. }
                | SStmt::Assign { .. }
                | SStmt::Expr(_) => {}
            }
        }
    }

    /// The slot this statement itself assigns, if any: a declared private array or scalar, a
    /// loop variable, or an assigned variable or field of one.
    pub(crate) fn assigned(&self) -> Option<usize> {
        match self {
            SStmt::DeclPrivateArray { slot, .. }
            | SStmt::DeclScalar { slot, .. }
            | SStmt::For { slot, .. }
            | SStmt::Assign {
                lhs: SLhs::Var(slot) | SLhs::FieldOfVar(slot, _),
                ..
            } => Some(*slot),
            _ => None,
        }
    }
}

/// A lowered user function: its locals are bound in order after the parameters, then the
/// body is the returned value.
pub(crate) struct SFunction {
    pub(crate) params: Vec<usize>,
    pub(crate) locals: Vec<(usize, SExpr)>,
    pub(crate) body: SExpr,
}

pub(crate) struct Lowerer<'m> {
    module: &'m Module,
    slots: VarMap<usize>,
    names: Vec<String>,
    /// Lowered functions by index. A function's entry is a placeholder while its body is
    /// being lowered (recursion-safe); `lower_function` overwrites it before returning.
    functions: Vec<SFunction>,
    fn_slots: VarMap<usize>,
}

impl<'m> Lowerer<'m> {
    fn new(module: &'m Module) -> Lowerer<'m> {
        Lowerer {
            module,
            slots: VarMap::default(),
            names: Vec::new(),
            functions: Vec::new(),
            fn_slots: VarMap::default(),
        }
    }

    fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.names.len();
        self.names.push(name.to_string());
        self.slots.insert(name.to_string(), s);
        s
    }

    fn lower_block(&mut self, stmts: &[CStmt]) -> Vec<SStmt> {
        stmts.iter().filter_map(|s| self.lower_stmt(s)).collect()
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn lower_stmt(&mut self, stmt: &CStmt) -> Option<SStmt> {
        Some(match stmt {
            CStmt::Comment(_) => return None,
            CStmt::Barrier(_) => SStmt::Barrier,
            CStmt::Block(stmts) => SStmt::Block(self.lower_block(stmts)),
            CStmt::Decl {
                ty: _,
                name,
                addr,
                array_len,
                init,
            } => {
                let slot = self.slot(name);
                match array_len {
                    Some(len) => {
                        if matches!(addr, Some(AddrSpace::Local)) {
                            SStmt::DeclLocalArray {
                                slot,
                                len: len.clone(),
                            }
                        } else {
                            SStmt::DeclPrivateArray {
                                slot,
                                len: len.clone(),
                            }
                        }
                    }
                    None => SStmt::DeclScalar {
                        slot,
                        init: init.as_ref().map(|e| self.lower_expr(e)),
                    },
                }
            }
            CStmt::Assign { lhs, rhs } => SStmt::Assign {
                lhs: self.lower_lhs(lhs),
                rhs: self.lower_expr(rhs),
            },
            CStmt::Expr(e) => SStmt::Expr(self.lower_expr(e)),
            CStmt::If {
                cond,
                then,
                otherwise,
            } => SStmt::If {
                cond: self.lower_expr(cond),
                then: self.lower_block(then),
                otherwise: otherwise.as_ref().map(|b| self.lower_block(b)),
            },
            CStmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => SStmt::For {
                slot: self.slot(var),
                init: self.lower_expr(init),
                cond: self.lower_expr(cond),
                step: self.lower_expr(step),
                body: self.lower_block(body),
            },
        })
    }

    fn lower_lhs(&mut self, lhs: &CExpr) -> SLhs {
        match lhs {
            CExpr::Var(name) => SLhs::Var(self.slot(name)),
            CExpr::ArrayAccess(arr, idx) => SLhs::Array(self.lower_expr(arr), self.lower_expr(idx)),
            CExpr::Field(obj, field) => match &**obj {
                CExpr::Var(name) => SLhs::FieldOfVar(self.slot(name), field_index(field)),
                _ => SLhs::Invalid(lift_ocl::print_expr(lhs)),
            },
            other => SLhs::Invalid(lift_ocl::print_expr(other)),
        }
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn lower_index(&mut self, a: &ArithExpr) -> SIndex {
        let (op, x, y) = match a {
            ArithExpr::Cst(c) => return SIndex::Cst(*c),
            ArithExpr::Var(v) => return SIndex::Var(self.slot(v.name())),
            ArithExpr::Sum(ts) => return self.lower_fold(IntOp::Add, ts),
            ArithExpr::Prod(fs) => return self.lower_fold(IntOp::Mul, fs),
            ArithExpr::Pow(b, e) => return SIndex::Pow(Box::new(self.lower_index(b)), *e),
            ArithExpr::IntDiv(x, y) => (IntOp::Div, x, y),
            ArithExpr::Mod(x, y) => (IntOp::Mod, x, y),
            ArithExpr::Min(x, y) => (IntOp::Min, x, y),
            ArithExpr::Max(x, y) => (IntOp::Max, x, y),
        };
        SIndex::Pair(
            op,
            Box::new(self.lower_index(x)),
            Box::new(self.lower_index(y)),
        )
    }

    fn lower_fold(&mut self, op: IntOp, terms: &[ArithExpr]) -> SIndex {
        SIndex::Fold(op, terms.iter().map(|t| self.lower_index(t)).collect())
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn lower_expr(&mut self, e: &CExpr) -> SExpr {
        match e {
            CExpr::IntLit(v) => SExpr::Int(*v),
            CExpr::FloatLit(v) => SExpr::Float(*v),
            CExpr::Var(name) => SExpr::Var(self.slot(name)),
            CExpr::Index(a) => SExpr::Index(self.lower_index(a)),
            CExpr::Bin(op, a, b) => SExpr::Bin(
                *op,
                Box::new(self.lower_expr(a)),
                Box::new(self.lower_expr(b)),
            ),
            CExpr::Neg(a) => SExpr::Neg(Box::new(self.lower_expr(a))),
            CExpr::Builtin(builtin, args) => self.lower_builtin(*builtin, args),
            CExpr::Call(name, args) => match self.lower_function(name) {
                Some(idx) => SExpr::CallFun(idx, args.iter().map(|a| self.lower_expr(a)).collect()),
                None => SExpr::Fail(Box::new(VgpuError::UnknownFunction(name.clone()))),
            },
            CExpr::ArrayAccess(arr, idx) => SExpr::ArrayAccess(
                Box::new(self.lower_expr(arr)),
                Box::new(self.lower_expr(idx)),
            ),
            CExpr::Field(obj, field) => SExpr::Field(
                Box::new(self.lower_expr(obj)),
                field_index(field),
                field.clone(),
            ),
            CExpr::Ternary(c, t, o) => SExpr::Ternary(
                Box::new(self.lower_expr(c)),
                Box::new(self.lower_expr(t)),
                Box::new(self.lower_expr(o)),
            ),
            CExpr::StructLit(_, fields) => {
                SExpr::StructLit(fields.iter().map(|f| self.lower_expr(f)).collect())
            }
        }
    }

    /// Lowers a builtin call to the operation it names. A call with the wrong number of
    /// arguments fails where it is evaluated, as a user function's does.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn lower_builtin(&mut self, builtin: Builtin, args: &[CExpr]) -> SExpr {
        if args.len() != builtin.arity() {
            return SExpr::Fail(Box::new(VgpuError::ArgumentMismatch {
                expected: builtin.arity(),
                found: args.len(),
            }));
        }
        let mut arg = |i: usize| Box::new(self.lower_expr(&args[i]));
        match builtin {
            Builtin::WorkItem(f) => SExpr::WorkItem(f, arg(0)),
            Builtin::VLoad(width) => SExpr::VLoad(width, arg(0), arg(1)),
            Builtin::VStore(width) => SExpr::VStore(width, arg(0), arg(1), arg(2)),
            Builtin::Sqrt => SExpr::Math1(f64::sqrt, arg(0)),
            Builtin::Rsqrt => SExpr::Math1(|v| 1.0 / v.sqrt(), arg(0)),
            Builtin::Fabs => SExpr::Math1(f64::abs, arg(0)),
            Builtin::Exp => SExpr::Math1(f64::exp, arg(0)),
            Builtin::Fmin => SExpr::Math2(f64::min, arg(0), arg(1)),
            Builtin::Fmax => SExpr::Math2(f64::max, arg(0), arg(1)),
        }
    }

    /// Lowers a module function on demand (arity mismatches are reported when the call is
    /// executed, as before).
    fn lower_function(&mut self, name: &str) -> Option<usize> {
        if let Some(&idx) = self.fn_slots.get(name) {
            return Some(idx);
        }
        let fun = self.module.function(name)?;
        let idx = self.functions.len();
        self.functions.push(SFunction {
            params: Vec::new(),
            locals: Vec::new(),
            body: SExpr::Int(0),
        });
        self.fn_slots.insert(name.to_string(), idx);
        let params: Vec<usize> = fun.params.iter().map(|(n, _)| self.slot(n)).collect();
        let locals = fun
            .locals
            .iter()
            .map(|(n, _, init)| (self.slot(n), self.lower_expr(init)))
            .collect();
        let body = self.lower_expr(&fun.body);
        self.functions[idx] = SFunction {
            params,
            locals,
            body,
        };
        Some(idx)
    }
}

// --------------------------------------------------------------------------- execution

/// One recorded global-memory access, used for the coalescing analysis.
struct Access {
    thread: usize,
    buffer: usize,
    addr: i64,
    width: usize,
}

/// One shadow-memory cell of the data-race detector: the last work item that wrote and the
/// last that read the guarded element, each with the barrier epoch of the access. Work items
/// are stored as `1 + global linear id` so `0` means "untouched / written by the host".
#[derive(Clone, Copy, Default)]
pub(crate) struct ShadowCell {
    writer: usize,
    writer_group: usize,
    write_epoch: u64,
    reader: usize,
    reader_group: usize,
    read_epoch: u64,
}

/// Per-work-group shared state.
pub(crate) struct Group {
    pub(crate) id: [usize; 3],
    /// Linear group id (for the cross-group conflict rule on global buffers).
    pub(crate) linear: usize,
    pub(crate) local: Vec<Vec<f32>>,
    /// slot → local buffer index, for slots declared as local arrays.
    pub(crate) local_slots: Vec<Option<usize>>,
    /// Barrier epoch: number of barriers the group has executed. Two accesses in the same
    /// epoch have no barrier between them. Advanced only at *executed* `barrier()`
    /// statements — never at loop back-edges — so unsynchronised conflicts across loop
    /// iterations (e.g. the sweeps of a lowered `iterate`) stay in one epoch and are caught.
    pub(crate) epoch: u64,
    /// Shadow memory per local buffer (parallel to `local`; empty when detection is off).
    pub(crate) shadow_local: Vec<Vec<ShadowCell>>,
    /// Declared names of the local buffers, for race diagnostics (parallel to `local`;
    /// empty when detection is off).
    pub(crate) local_names: Vec<String>,
}

/// Per-work-item state.
pub(crate) struct Thread {
    pub(crate) lid: [usize; 3],
    pub(crate) gid: [usize; 3],
    pub(crate) linear: usize,
    /// slot → value; `None` falls through to local arrays, then kernel parameters.
    pub(crate) vals: Vec<Option<GpuValue>>,
    pub(crate) private: Vec<Vec<f32>>,
}

pub(crate) struct Exec {
    pub(crate) config: LaunchConfig,
    pub(crate) global: Vec<Vec<f32>>,
    /// slot → kernel-argument value (`None` for a slot that is no parameter).
    pub(crate) params: Vec<Scalar>,
    /// Name-keyed arguments, for resolving symbolic array lengths.
    params_by_name: VarMap<Scalar>,
    pub(crate) functions: Vec<std::rc::Rc<SFunction>>,
    /// slot → name, for error messages.
    pub(crate) names: Vec<String>,
    pub(crate) counters: CostCounters,
    access_log: Vec<Access>,
    /// Reused scratch for the coalescing analysis: `(simd group, buffer, segment)` triples.
    seg_scratch: Vec<(usize, usize, i64)>,
    /// Reused scratch: access counts per SIMD group.
    simd_counts: Vec<(usize, usize)>,
    /// Whether the shadow-memory data-race detector is on for this launch.
    pub(crate) detect: bool,
    /// Shadow memory per global buffer (parallel to `global`; empty when detection is off).
    shadow_global: Vec<Vec<ShadowCell>>,
    /// Kernel-parameter names of the global buffers, for race diagnostics.
    global_names: Vec<String>,
    /// The launch's budget, checked at every lock-step row ([`Exec::row`]).
    budget: Option<Budget>,
}

impl Exec {
    /// Starts a lock-step row: counts it and, under a budget, stops the launch with
    /// [`VgpuError::OverBudget`] once its counters prove it over the limit. Both engines
    /// start their rows at the same points with the same counters, so they stop alike.
    #[inline]
    pub(crate) fn row(&mut self) -> Result<(), VgpuError> {
        self.counters.lockstep_rows += 1;
        match self
            .budget
            .as_ref()
            .and_then(|b| b.exceeded(&self.counters))
        {
            Some(lower_bound) => Err(VgpuError::OverBudget {
                lower_bound,
                row: self.counters.lockstep_rows,
            }),
            None => Ok(()),
        }
    }

    pub(crate) fn run(&mut self, body: &[SStmt]) -> Result<(), VgpuError> {
        let groups = self.config.num_groups();
        let local = self.config.local;
        let nslots = self.names.len();
        for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    let mut group = Group {
                        id: [gx, gy, gz],
                        linear: gx + groups[0] * (gy + groups[1] * gz),
                        local: Vec::new(),
                        local_slots: vec![None; nslots],
                        epoch: 0,
                        shadow_local: Vec::new(),
                        local_names: Vec::new(),
                    };
                    let mut threads = Vec::with_capacity(local.iter().product());
                    for lz in 0..local[2] {
                        for ly in 0..local[1] {
                            for lx in 0..local[0] {
                                let linear = lx + local[0] * (ly + local[1] * lz);
                                threads.push(Thread {
                                    lid: [lx, ly, lz],
                                    gid: [
                                        gx * local[0] + lx,
                                        gy * local[1] + ly,
                                        gz * local[2] + lz,
                                    ],
                                    linear,
                                    vals: vec![None; nslots],
                                    private: Vec::new(),
                                });
                            }
                        }
                    }
                    self.counters.work_groups += 1;
                    self.counters.work_items += threads.len() as u64;
                    let mask = vec![true; threads.len()];
                    let rows_before = self.counters.lockstep_rows;
                    self.exec_block(body, &mut group, &mut threads, &mask)?;
                    // The group executed in lock step: its wall-clock is its row count, and
                    // the launch cannot finish before its busiest group.
                    let group_rows = self.counters.lockstep_rows - rows_before;
                    self.counters.group_span_rows = self.counters.group_span_rows.max(group_rows);
                }
            }
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        stmts: &[SStmt],
        group: &mut Group,
        threads: &mut Vec<Thread>,
        mask: &[bool],
    ) -> Result<(), VgpuError> {
        for stmt in stmts {
            self.exec_stmt(stmt, group, threads, mask)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &SStmt,
        group: &mut Group,
        threads: &mut Vec<Thread>,
        mask: &[bool],
    ) -> Result<(), VgpuError> {
        // Every statement is one lock-step row for the whole group (blocks only recurse and
        // loop iterations charge one row per round below).
        if !matches!(stmt, SStmt::Block(_)) {
            self.row()?;
        }
        match stmt {
            SStmt::Barrier => {
                // OpenCL requires a barrier to be reached by every work item of the group. A
                // barrier under a lane-divergent branch or loop is undefined behaviour on
                // real hardware — report it instead of silently synchronising the subset
                // that arrived.
                let arrived = mask.iter().filter(|&&m| m).count();
                let expected = threads.len();
                if arrived != expected {
                    return Err(VgpuError::DivergentBarrier {
                        group: group.id,
                        arrived,
                        expected,
                    });
                }
                self.counters.barriers += 1;
                // Executed barriers are the *only* place the epoch advances: accesses
                // separated by anything else (including loop back-edges) stay in the same
                // epoch and can still conflict.
                group.epoch += 1;
                Ok(())
            }
            SStmt::Block(stmts) => self.exec_block(stmts, group, threads, mask),
            SStmt::DeclLocalArray { slot, len } => {
                // One allocation shared by the work group.
                let len = self.resolve_len(len)?;
                let idx = group.local.len();
                group.local.push(vec![0.0; len]);
                group.local_slots[*slot] = Some(idx);
                if self.detect {
                    group.shadow_local.push(vec![ShadowCell::default(); len]);
                    group.local_names.push(self.names[*slot].clone());
                }
                Ok(())
            }
            SStmt::DeclPrivateArray { slot, len } => {
                // A private array per work item (register blocking).
                let len = self.resolve_len(len)?;
                for i in 0..threads.len() {
                    if !mask[i] {
                        continue;
                    }
                    let t = &mut threads[i];
                    let idx = t.private.len();
                    t.private.push(vec![0.0; len]);
                    t.vals[*slot] = Some(GpuValue::Ptr(Ptr {
                        space: AddrSpace::Private,
                        buffer: idx,
                        offset: 0,
                    }));
                }
                Ok(())
            }
            SStmt::DeclScalar { slot, init } => {
                for i in 0..threads.len() {
                    if !mask[i] {
                        continue;
                    }
                    let value = match init {
                        Some(e) => self.eval(e, group, &mut threads[i])?,
                        None => GpuValue::Float(0.0),
                    };
                    threads[i].vals[*slot] = Some(value);
                }
                self.flush_accesses();
                Ok(())
            }
            SStmt::Assign { lhs, rhs } => {
                for i in 0..threads.len() {
                    if !mask[i] {
                        continue;
                    }
                    let value = self.eval(rhs, group, &mut threads[i])?;
                    self.assign(lhs, value, group, &mut threads[i])?;
                }
                self.flush_accesses();
                Ok(())
            }
            SStmt::Expr(e) => {
                for i in 0..threads.len() {
                    if !mask[i] {
                        continue;
                    }
                    self.eval(e, group, &mut threads[i])?;
                }
                self.flush_accesses();
                Ok(())
            }
            SStmt::If {
                cond,
                then,
                otherwise,
            } => {
                let mut then_mask = vec![false; threads.len()];
                let mut else_mask = vec![false; threads.len()];
                for i in 0..threads.len() {
                    if !mask[i] {
                        continue;
                    }
                    let c = self.eval(cond, group, &mut threads[i])?.scalar().as_bool();
                    self.counters.charge(ops::CONTROL, 1);
                    then_mask[i] = c;
                    else_mask[i] = !c;
                }
                self.flush_accesses();
                if then_mask.iter().any(|b| *b) {
                    self.exec_block(then, group, threads, &then_mask)?;
                }
                if let Some(otherwise) = otherwise {
                    if else_mask.iter().any(|b| *b) {
                        self.exec_block(otherwise, group, threads, &else_mask)?;
                    }
                }
                Ok(())
            }
            SStmt::For {
                slot,
                init,
                cond,
                step,
                body,
            } => {
                for i in 0..threads.len() {
                    if !mask[i] {
                        continue;
                    }
                    let v = self.eval(init, group, &mut threads[i])?;
                    threads[i].vals[*slot] = Some(v);
                }
                self.flush_accesses();
                loop {
                    // One row per round: the group-wide condition check.
                    self.row()?;
                    let mut iter_mask = vec![false; threads.len()];
                    let mut any = false;
                    for i in 0..threads.len() {
                        if !mask[i] {
                            continue;
                        }
                        let c = self.eval(cond, group, &mut threads[i])?.scalar().as_bool();
                        self.counters.charge(ops::CONTROL, 1);
                        if c {
                            iter_mask[i] = true;
                            any = true;
                            self.counters.loop_iterations += 1;
                        }
                    }
                    self.flush_accesses();
                    if !any {
                        break;
                    }
                    self.exec_block(body, group, threads, &iter_mask)?;
                    for i in 0..threads.len() {
                        if !iter_mask[i] {
                            continue;
                        }
                        let s = self.eval(step, group, &mut threads[i])?;
                        let current = threads[i].vals[*slot]
                            .as_ref()
                            .ok_or_else(|| VgpuError::UnknownVariable(self.names[*slot].clone()))?;
                        let next = ops::step(current.scalar(), s.scalar());
                        self.counters.charge(ops::CONTROL, 1);
                        threads[i].vals[*slot] = Some(next.into());
                    }
                    self.flush_accesses();
                }
                Ok(())
            }
        }
    }

    pub(crate) fn resolve_len(&self, e: &ArithExpr) -> Result<usize, VgpuError> {
        let lookup = |name: &str| self.params_by_name.get(name).map(|v| v.as_i64());
        let v = e
            .evaluate_with(&lookup)
            .map_err(|_| VgpuError::SymbolicLength(e.to_string()))?;
        usize::try_from(v).map_err(|_| VgpuError::SymbolicLength(e.to_string()))
    }

    // ------------------------------------------------------------------ expression evaluation

    /// Resolves a variable slot: thread values shadow local arrays, which shadow kernel
    /// parameters (the same precedence the name-based environments had).
    fn lookup_var(
        &self,
        slot: usize,
        group: &Group,
        thread: &Thread,
    ) -> Result<GpuValue, VgpuError> {
        if let Some(v) = &thread.vals[slot] {
            return Ok(v.clone());
        }
        if let Some(idx) = group.local_slots[slot] {
            return Ok(GpuValue::Ptr(Ptr {
                space: AddrSpace::Local,
                buffer: idx,
                offset: 0,
            }));
        }
        match self.params[slot] {
            Scalar::None => Err(VgpuError::UnknownVariable(self.names[slot].clone())),
            v => Ok(v.into()),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval(
        &mut self,
        e: &SExpr,
        group: &mut Group,
        thread: &mut Thread,
    ) -> Result<GpuValue, VgpuError> {
        match e {
            SExpr::Int(v) => Ok(GpuValue::Int(*v)),
            SExpr::Float(v) => Ok(GpuValue::Float(*v)),
            SExpr::Var(slot) => self.lookup_var(*slot, group, thread),
            SExpr::Index(a) => Ok(GpuValue::Int(self.eval_index(a, thread)?)),
            SExpr::Bin(op, a, b) => {
                let a = self.eval(a, group, thread)?;
                let b = self.eval(b, group, thread)?;
                self.eval_bin(*op, a, b)
            }
            SExpr::Neg(a) => {
                let v = self.eval(a, group, thread)?;
                self.counters.charge(ops::NEG, 1);
                Ok(ops::neg(v.scalar()).into())
            }
            SExpr::WorkItem(kind, dim) => {
                let dim = self.eval(dim, group, thread)?.scalar();
                Ok(GpuValue::Int(self.work_item(*kind, dim, group, thread)))
            }
            SExpr::VLoad(width, idx, ptr) => {
                let idx = self.eval(idx, group, thread)?.scalar().as_i64();
                let ptr = self
                    .eval(ptr, group, thread)?
                    .scalar()
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer(Builtin::VLoad(*width).to_string()))?;
                let mut lanes = Vec::with_capacity(*width);
                for lane in 0..*width {
                    let at = ops::vector_lane(idx, *width, lane);
                    lanes.push(GpuValue::Float(self.load(ptr, at, group, thread, *width)?));
                }
                self.counters.vector_accesses += *width as u64;
                Ok(GpuValue::Vector(lanes))
            }
            SExpr::VStore(width, value, idx, ptr) => {
                let value = self.eval(value, group, thread)?;
                let idx = self.eval(idx, group, thread)?.scalar().as_i64();
                let ptr = self
                    .eval(ptr, group, thread)?
                    .scalar()
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer(Builtin::VStore(*width).to_string()))?;
                let lanes = match value {
                    GpuValue::Vector(lanes) => lanes,
                    other => vec![other; *width],
                };
                for (lane, v) in lanes.iter().enumerate() {
                    let at = ops::vector_lane(idx, *width, lane);
                    self.store(ptr, at, v.scalar().as_f64(), group, thread, *width)?;
                }
                self.counters.vector_accesses += *width as u64;
                Ok(GpuValue::Int(0))
            }
            SExpr::Math1(f, a) => {
                let v = self.eval(a, group, thread)?.scalar().as_f64();
                self.counters.charge(ops::MATH1, 1);
                Ok(GpuValue::Float(f(v)))
            }
            SExpr::Math2(f, a, b) => {
                let a = self.eval(a, group, thread)?.scalar().as_f64();
                let b = self.eval(b, group, thread)?.scalar().as_f64();
                self.counters.charge(ops::MATH2, 1);
                Ok(GpuValue::Float(f(a, b)))
            }
            SExpr::CallFun(idx, args) => {
                let fun = std::rc::Rc::clone(&self.functions[*idx]);
                if fun.params.len() != args.len() {
                    return Err(VgpuError::ArgumentMismatch {
                        expected: fun.params.len(),
                        found: args.len(),
                    });
                }
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, group, thread)?);
                }
                // Bind parameters, then each local in order, with save/restore so nested
                // calls and loop variables are preserved (moving shadowed values out instead
                // of cloning them). Restoring in reverse undoes a repeated slot correctly.
                let saved: Vec<Option<GpuValue>> = fun
                    .params
                    .iter()
                    .chain(fun.locals.iter().map(|(s, _)| s))
                    .map(|s| thread.vals[*s].take())
                    .collect();
                for (s, v) in fun.params.iter().zip(values) {
                    thread.vals[*s] = Some(v);
                }
                let result = self.eval_locals_and_body(&fun, group, thread);
                let n = fun.params.len();
                for (k, old) in saved.into_iter().enumerate().rev() {
                    let s = if k < n {
                        fun.params[k]
                    } else {
                        fun.locals[k - n].0
                    };
                    thread.vals[s] = old;
                }
                result
            }
            SExpr::Fail(e) => Err((**e).clone()),
            SExpr::ArrayAccess(arr, idx) => {
                let ptr = self
                    .eval(arr, group, thread)?
                    .scalar()
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer("array expression".to_string()))?;
                let idx = self.eval(idx, group, thread)?.scalar().as_i64();
                Ok(GpuValue::Float(self.load(ptr, idx, group, thread, 1)?))
            }
            SExpr::Field(obj, idx, field) => {
                // Fast path for `var._i`: project the field straight out of the thread
                // state instead of cloning the whole struct value first.
                if let SExpr::Var(slot) = &**obj {
                    if let Some(GpuValue::Struct(fields) | GpuValue::Vector(fields)) =
                        &thread.vals[*slot]
                    {
                        return fields
                            .get(*idx)
                            .cloned()
                            .ok_or_else(|| VgpuError::UnknownVariable(format!("field {field}")));
                    }
                }
                let v = self.eval(obj, group, thread)?;
                match v {
                    GpuValue::Struct(fields) | GpuValue::Vector(fields) => fields
                        .get(*idx)
                        .cloned()
                        .ok_or_else(|| VgpuError::UnknownVariable(format!("field {field}"))),
                    other => Ok(other),
                }
            }
            SExpr::Ternary(c, t, other) => {
                let c = self.eval(c, group, thread)?.scalar().as_bool();
                self.counters.charge(ops::CONTROL, 1);
                if c {
                    self.eval(t, group, thread)
                } else {
                    self.eval(other, group, thread)
                }
            }
            SExpr::StructLit(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for f in fields {
                    out.push(self.eval(f, group, thread)?);
                }
                Ok(GpuValue::Struct(out))
            }
        }
    }

    /// Binds a called function's locals in order (its parameters are already bound), then
    /// evaluates its returned body.
    fn eval_locals_and_body(
        &mut self,
        fun: &SFunction,
        group: &mut Group,
        thread: &mut Thread,
    ) -> Result<GpuValue, VgpuError> {
        for (slot, init) in &fun.locals {
            let v = self.eval(init, group, thread)?;
            thread.vals[*slot] = Some(v);
        }
        self.eval(&fun.body, group, thread)
    }

    /// Evaluates an index expression while charging the cost counters in the same walk
    /// (the counts match `ArithExpr::op_count`/`div_mod_count`, which a naive implementation
    /// would recompute with two extra tree walks per evaluation — this runs per memory
    /// access in the innermost interpretation loop).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn eval_index(&mut self, e: &SIndex, thread: &Thread) -> Result<i64, VgpuError> {
        self.counters.charge(ops::index_charge(e), 1);
        match e {
            SIndex::Cst(c) => Ok(*c),
            SIndex::Var(slot) => match (&thread.vals[*slot], self.params[*slot]) {
                (Some(v), _) => Ok(v.scalar().as_i64()),
                (None, Scalar::None) => Err(VgpuError::UnknownVariable(self.names[*slot].clone())),
                (None, param) => Ok(param.as_i64()),
            },
            SIndex::Fold(op, ts) => {
                let mut acc = op.unit();
                for t in ts {
                    acc = ops::int(*op, acc, self.eval_index(t, thread)?)?;
                }
                Ok(acc)
            }
            // The divisor is checked before the dividend is evaluated.
            SIndex::Pair(op, a, b) if op.divides() => {
                let y = ops::divisor(self.eval_index(b, thread)?)?;
                ops::int(*op, self.eval_index(a, thread)?, y)
            }
            SIndex::Pair(op, a, b) => {
                let x = self.eval_index(a, thread)?;
                ops::int(*op, x, self.eval_index(b, thread)?)
            }
            SIndex::Pow(b, power) => {
                ops::int(IntOp::Pow, self.eval_index(b, thread)?, i64::from(*power))
            }
        }
    }

    /// A binary operation: lane by lane on a vector left operand (a vector right operand
    /// needs as many lanes), otherwise on the scalar views of both operands.
    fn eval_bin(&mut self, op: CBinOp, a: GpuValue, b: GpuValue) -> Result<GpuValue, VgpuError> {
        if let GpuValue::Vector(lanes_a) = a {
            if let GpuValue::Vector(lanes_b) = &b {
                if lanes_b.len() < lanes_a.len() {
                    return Err(VgpuError::LaneMismatch {
                        left: lanes_a.len(),
                        right: lanes_b.len(),
                    });
                }
            }
            let out: Result<Vec<GpuValue>, VgpuError> = lanes_a
                .into_iter()
                .enumerate()
                .map(|(i, la)| {
                    let lb = match &b {
                        GpuValue::Vector(lanes_b) => lanes_b[i].clone(),
                        other => other.clone(),
                    };
                    self.eval_bin(op, la, lb)
                })
                .collect();
            return Ok(GpuValue::Vector(out?));
        }
        ops::binary(op, a.scalar(), b.scalar(), &mut self.counters).map(GpuValue::from)
    }

    /// A work-item function of `dim` in `thread` of `group`. A dimension outside `0..3`
    /// reads as OpenCL defines it: an id of 0 and a size of 1.
    pub(crate) fn work_item(
        &self,
        f: WorkItem,
        dim: Scalar,
        group: &Group,
        thread: &Thread,
    ) -> i64 {
        let Some(d) = usize::try_from(dim.as_i64()).ok().filter(|d| *d < 3) else {
            return i64::from(matches!(
                f,
                WorkItem::GlobalSize | WorkItem::LocalSize | WorkItem::NumGroups
            ));
        };
        let v = match f {
            WorkItem::GlobalId => thread.gid[d],
            WorkItem::LocalId => thread.lid[d],
            WorkItem::GroupId => group.id[d],
            WorkItem::GlobalSize => self.config.global[d],
            WorkItem::LocalSize => self.config.local[d],
            WorkItem::NumGroups => self.config.num_groups()[d],
        };
        v as i64
    }

    // ------------------------------------------------------------------ memory

    /// Shadow-memory work-item id: `1 + global linear id`, so `0` is free to mean
    /// "untouched / written by the host".
    fn thread_uid(&self, thread: &Thread) -> usize {
        1 + thread.gid[0]
            + self.config.global[0] * (thread.gid[1] + self.config.global[1] * thread.gid[2])
    }

    pub(crate) fn load(
        &mut self,
        ptr: Ptr,
        idx: i64,
        group: &mut Group,
        thread: &Thread,
        vector_width: usize,
    ) -> Result<f64, VgpuError> {
        let addr = ops::int(IntOp::Add, ptr.offset, idx)?;
        let value = match ptr.space {
            AddrSpace::Global => {
                let buf = &self.global[ptr.buffer];
                let slot = usize::try_from(addr)
                    .ok()
                    .filter(|a| *a < buf.len())
                    .ok_or(VgpuError::OutOfBounds {
                        space: "global",
                        index: addr,
                        len: buf.len(),
                    })?;
                self.counters.global_accesses += 1;
                self.access_log.push(Access {
                    thread: thread.linear,
                    buffer: ptr.buffer,
                    addr,
                    width: vector_width,
                });
                if self.detect {
                    let me = self.thread_uid(thread);
                    let cell = &mut self.shadow_global[ptr.buffer][slot];
                    if cell.writer != 0
                        && cell.writer != me
                        && (cell.writer_group != group.linear || cell.write_epoch == group.epoch)
                    {
                        return Err(data_race(
                            &self.global_names[ptr.buffer],
                            addr,
                            cell.writer,
                            me,
                            group.epoch,
                        ));
                    }
                    cell.reader = me;
                    cell.reader_group = group.linear;
                    cell.read_epoch = group.epoch;
                }
                self.global[ptr.buffer][slot]
            }
            AddrSpace::Local => {
                let buf = &group.local[ptr.buffer];
                let slot = usize::try_from(addr)
                    .ok()
                    .filter(|a| *a < buf.len())
                    .ok_or(VgpuError::OutOfBounds {
                        space: "local",
                        index: addr,
                        len: buf.len(),
                    })?;
                self.counters.local_accesses += 1;
                let value = buf[slot];
                if self.detect {
                    let me = self.thread_uid(thread);
                    let cell = &mut group.shadow_local[ptr.buffer][slot];
                    if cell.writer != 0 && cell.writer != me && cell.write_epoch == group.epoch {
                        return Err(data_race(
                            &group.local_names[ptr.buffer],
                            addr,
                            cell.writer,
                            me,
                            group.epoch,
                        ));
                    }
                    cell.reader = me;
                    cell.reader_group = group.linear;
                    cell.read_epoch = group.epoch;
                }
                return Ok(f64::from(value));
            }
            AddrSpace::Private => {
                let buf = &thread.private[ptr.buffer];
                let slot = usize::try_from(addr)
                    .ok()
                    .filter(|a| *a < buf.len())
                    .ok_or(VgpuError::OutOfBounds {
                        space: "private",
                        index: addr,
                        len: buf.len(),
                    })?;
                self.counters.private_accesses += 1;
                buf[slot]
            }
        };
        Ok(f64::from(value))
    }

    pub(crate) fn store(
        &mut self,
        ptr: Ptr,
        idx: i64,
        value: f64,
        group: &mut Group,
        thread: &mut Thread,
        vector_width: usize,
    ) -> Result<(), VgpuError> {
        let addr = ops::int(IntOp::Add, ptr.offset, idx)?;
        match ptr.space {
            AddrSpace::Global => {
                let buf = &mut self.global[ptr.buffer];
                let len = buf.len();
                let slot = usize::try_from(addr).ok().filter(|a| *a < len).ok_or(
                    VgpuError::OutOfBounds {
                        space: "global",
                        index: addr,
                        len,
                    },
                )?;
                // A store of a bitwise-identical value cannot change the outcome on any
                // interleaving: treat it as a no-op for race purposes (redundant
                // group-uniform writes are benign in lock-step execution).
                if self.detect && (value as f32).to_bits() != buf[slot].to_bits() {
                    let me = self.thread_uid(thread);
                    let cell = &mut self.shadow_global[ptr.buffer][slot];
                    let conflicting_writer = cell.writer != 0
                        && cell.writer != me
                        && (cell.writer_group != group.linear || cell.write_epoch == group.epoch);
                    let conflicting_reader = cell.reader != 0
                        && cell.reader != me
                        && (cell.reader_group != group.linear || cell.read_epoch == group.epoch);
                    if conflicting_writer || conflicting_reader {
                        let other = if conflicting_writer {
                            cell.writer
                        } else {
                            cell.reader
                        };
                        return Err(data_race(
                            &self.global_names[ptr.buffer],
                            addr,
                            other,
                            me,
                            group.epoch,
                        ));
                    }
                    cell.writer = me;
                    cell.writer_group = group.linear;
                    cell.write_epoch = group.epoch;
                }
                let buf = &mut self.global[ptr.buffer];
                buf[slot] = value as f32;
                self.counters.global_accesses += 1;
                self.access_log.push(Access {
                    thread: thread.linear,
                    buffer: ptr.buffer,
                    addr,
                    width: vector_width,
                });
            }
            AddrSpace::Local => {
                let buf = &mut group.local[ptr.buffer];
                let len = buf.len();
                let slot = usize::try_from(addr).ok().filter(|a| *a < len).ok_or(
                    VgpuError::OutOfBounds {
                        space: "local",
                        index: addr,
                        len,
                    },
                )?;
                if self.detect && (value as f32).to_bits() != buf[slot].to_bits() {
                    let me = self.thread_uid(thread);
                    let cell = &mut group.shadow_local[ptr.buffer][slot];
                    let conflicting_writer =
                        cell.writer != 0 && cell.writer != me && cell.write_epoch == group.epoch;
                    let conflicting_reader =
                        cell.reader != 0 && cell.reader != me && cell.read_epoch == group.epoch;
                    if conflicting_writer || conflicting_reader {
                        let other = if conflicting_writer {
                            cell.writer
                        } else {
                            cell.reader
                        };
                        return Err(data_race(
                            &group.local_names[ptr.buffer],
                            addr,
                            other,
                            me,
                            group.epoch,
                        ));
                    }
                    cell.writer = me;
                    cell.writer_group = group.linear;
                    cell.write_epoch = group.epoch;
                }
                group.local[ptr.buffer][slot] = value as f32;
                self.counters.local_accesses += 1;
            }
            AddrSpace::Private => {
                let buf = &mut thread.private[ptr.buffer];
                let len = buf.len();
                let slot = usize::try_from(addr).ok().filter(|a| *a < len).ok_or(
                    VgpuError::OutOfBounds {
                        space: "private",
                        index: addr,
                        len,
                    },
                )?;
                buf[slot] = value as f32;
                self.counters.private_accesses += 1;
            }
        }
        Ok(())
    }

    fn assign(
        &mut self,
        lhs: &SLhs,
        value: GpuValue,
        group: &mut Group,
        thread: &mut Thread,
    ) -> Result<(), VgpuError> {
        match lhs {
            SLhs::Var(slot) => {
                thread.vals[*slot] = Some(value);
                Ok(())
            }
            SLhs::Array(arr, idx) => {
                let ptr = self
                    .eval(arr, group, thread)?
                    .scalar()
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer("array expression".to_string()))?;
                let idx = self.eval(idx, group, thread)?.scalar().as_i64();
                let value = value.scalar();
                if !value.is_number() {
                    return Err(VgpuError::InvalidStore("array element".to_string()));
                }
                self.store(ptr, idx, value.as_f64(), group, thread, 1)
            }
            SLhs::FieldOfVar(slot, idx) => {
                let mut current = thread.vals[*slot]
                    .take()
                    .unwrap_or(GpuValue::Struct(vec![GpuValue::Float(0.0); idx + 1]));
                if let GpuValue::Struct(fields) | GpuValue::Vector(fields) = &mut current {
                    if fields.len() <= *idx {
                        fields.resize(idx + 1, GpuValue::Float(0.0));
                    }
                    fields[*idx] = value;
                }
                thread.vals[*slot] = Some(current);
                Ok(())
            }
            SLhs::Invalid(rendering) => Err(VgpuError::InvalidStore(rendering.clone())),
        }
    }

    /// Groups the global accesses of the last lock-step statement execution into memory
    /// transactions per SIMD group and charges uncoalesced accesses.
    ///
    /// Runs after every statement execution, so it reuses pre-allocated scratch vectors
    /// (linear dedup over a handful of distinct segments) instead of building hash
    /// containers.
    pub(crate) fn flush_accesses(&mut self) {
        if self.access_log.is_empty() {
            return;
        }
        self.seg_scratch.clear();
        self.simd_counts.clear();
        let log = std::mem::take(&mut self.access_log);
        for access in &log {
            let simd_group = access.thread / COALESCE_GROUP;
            // A vector access may straddle two segments; charge both.
            let first = access.addr.div_euclid(SEGMENT_ELEMS);
            let last = (access.addr + access.width.max(1) as i64 - 1).div_euclid(SEGMENT_ELEMS);
            let first_entry = (simd_group, access.buffer, first);
            if !self.seg_scratch.contains(&first_entry) {
                self.seg_scratch.push(first_entry);
            }
            let last_entry = (simd_group, access.buffer, last);
            if last != first && !self.seg_scratch.contains(&last_entry) {
                self.seg_scratch.push(last_entry);
            }
            match self.simd_counts.iter_mut().find(|(g, _)| *g == simd_group) {
                Some((_, c)) => *c += 1,
                None => self.simd_counts.push((simd_group, 1)),
            }
        }
        // Hand the (emptied) log buffer back so its capacity is reused.
        self.access_log = log;
        self.access_log.clear();
        let segments = &self.seg_scratch;
        for &(simd_group, accesses) in &self.simd_counts {
            let ideal = accesses.div_ceil(COALESCE_GROUP).max(1);
            let transactions = segments.iter().filter(|(g, _, _)| *g == simd_group).count();
            self.counters.global_transactions += transactions as u64;
            self.counters.uncoalesced_accesses += transactions.saturating_sub(ideal) as u64;
        }
    }
}

/// Builds a [`VgpuError::DataRace`] from two shadow-memory uids (`1 + global linear id`),
/// reporting the plain global linear work-item ids, earlier access first.
fn data_race(buffer: &str, index: i64, earlier: usize, current: usize, epoch: u64) -> VgpuError {
    VgpuError::DataRace {
        buffer: buffer.to_string(),
        index,
        writers: [earlier - 1, current - 1],
        epoch,
    }
}

fn field_index(field: &str) -> usize {
    field
        .trim_start_matches('_')
        .trim_start_matches('s')
        .parse::<usize>()
        .unwrap_or(match field {
            "x" => 0,
            "y" => 1,
            "z" => 2,
            "w" => 3,
            _ => 0,
        })
}

// The unit tests launch through `ExecutionRequest` with its default `EngineSelection::Auto`,
// so every one of these assertions doubles as differential coverage of the bytecode tier
// against the pinned expectations of the interpreter era.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineSelection, ExecutionRequest};
    use lift_ocl::{CFunction, CType, Fence, Kernel, KernelParam};

    #[test]
    fn the_walk_finds_every_slot_a_nested_block_assigns() {
        let assign = |lhs| SStmt::Assign {
            lhs,
            rhs: SExpr::Int(0),
        };
        let body = vec![
            SStmt::DeclLocalArray {
                slot: 0,
                len: ArithExpr::cst(4),
            },
            SStmt::DeclScalar {
                slot: 1,
                init: None,
            },
            SStmt::Block(vec![SStmt::If {
                cond: SExpr::Int(1),
                then: vec![assign(SLhs::Var(2)), SStmt::Barrier],
                otherwise: Some(vec![SStmt::For {
                    slot: 3,
                    init: SExpr::Int(0),
                    cond: SExpr::Int(0),
                    step: SExpr::Int(1),
                    body: vec![
                        SStmt::DeclPrivateArray {
                            slot: 4,
                            len: ArithExpr::cst(2),
                        },
                        assign(SLhs::FieldOfVar(5, 0)),
                        assign(SLhs::Array(SExpr::Var(0), SExpr::Int(0))),
                        SStmt::Expr(SExpr::Var(6)),
                    ],
                }]),
            }]),
            assign(SLhs::Var(7)),
        ];
        let (mut visited, mut assigned) = (0, Vec::new());
        SStmt::walk(&body, &mut |s| {
            visited += 1;
            assigned.extend(s.assigned());
        });
        assert_eq!(visited, 12);
        assert_eq!(assigned, [1, 2, 3, 4, 5, 7]);
    }

    /// The one-stage plan that launches `kernel` under `launch`.
    fn stage(kernel: &str, launch: LaunchConfig) -> [KernelLaunchSpec; 1] {
        [KernelLaunchSpec {
            kernel: kernel.to_string(),
            launch,
        }]
    }

    fn copy_kernel() -> Module {
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "copy".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(CExpr::global_id(0)),
                rhs: CExpr::var("in").at(CExpr::global_id(0)),
            }],
        });
        m
    }

    #[test]
    fn launch_inputs_and_results_are_send_and_sync() {
        // The exploration driver scores candidates from scoped worker threads: everything a
        // launch consumes or produces must cross (or be shared across) thread boundaries.
        // Execution-internal state (`Exec`, threads, lowered functions) is thread-local and
        // deliberately exempt.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionRequest<'static>>();
        assert_send_sync::<Module>();
        assert_send_sync::<KernelArg>();
        assert_send_sync::<SequenceResult>();
        assert_send_sync::<VgpuError>();
        assert_send_sync::<LaunchConfig>();
        assert_send_sync::<crate::DeviceProfile>();
        assert_send_sync::<crate::CostCounters>();
    }

    #[test]
    fn copy_kernel_copies() {
        let m = copy_kernel();
        let input: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let result = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("copy", LaunchConfig::d1(64, 16)),
                vec![KernelArg::Buffer(input.clone()), KernelArg::zeros(64)],
            )
            .expect("runs");
        assert_eq!(result.buffers[1], input);
        assert_eq!(result.reports[0].counters.work_items, 64);
        assert_eq!(result.reports[0].counters.work_groups, 4);
        assert!(result.reports[0].counters.global_accesses >= 128);
    }

    #[test]
    fn a_work_item_function_outside_three_dimensions_reads_as_opencl_defines_it() {
        // out[gid] = get_global_id(3) + 10 * get_global_size(-1): an id of 0, a size of 1.
        let f = |kind, dim| CExpr::Builtin(Builtin::WorkItem(kind), vec![CExpr::int(dim)]);
        let mut m = copy_kernel();
        m.kernels[0].body = vec![CStmt::Assign {
            lhs: CExpr::var("out").at(CExpr::global_id(0)),
            rhs: f(WorkItem::GlobalId, 3).add(CExpr::int(10).mul(f(WorkItem::GlobalSize, -1))),
        }];
        for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
            let run = ExecutionRequest::new(&m)
                .engine(engine)
                .launch_sequence(
                    &stage("copy", LaunchConfig::d1(4, 2)),
                    vec![KernelArg::zeros(4), KernelArg::zeros(4)],
                )
                .unwrap();
            assert_eq!(run.buffers[1], [10.0; 4], "{engine:?}");
        }
    }

    #[test]
    fn unknown_kernel_is_reported() {
        let m = copy_kernel();
        let err = ExecutionRequest::new(&m)
            .launch_sequence(&stage("missing", LaunchConfig::d1(1, 1)), vec![])
            .unwrap_err();
        assert_eq!(err, VgpuError::UnknownKernel("missing".into()));
    }

    #[test]
    fn argument_count_is_checked() {
        let m = copy_kernel();
        let err = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("copy", LaunchConfig::d1(16, 16)),
                vec![KernelArg::zeros(16)],
            )
            .unwrap_err();
        assert_eq!(
            err,
            VgpuError::ArgumentMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn a_call_with_the_wrong_number_of_arguments_is_a_typed_error() {
        let call = |builtin, args: Vec<CExpr>| {
            let mut m = copy_kernel();
            m.kernels[0]
                .body
                .push(CStmt::Expr(CExpr::Builtin(builtin, args)));
            m
        };
        let cases = [
            (call(Builtin::WorkItem(WorkItem::GlobalId), vec![]), 1, 0),
            (call(Builtin::VLoad(4), vec![CExpr::int(0)]), 2, 1),
            (call(Builtin::Fmin, vec![CExpr::float(1.0)]), 2, 1),
        ];
        // A function the module does not define is unknown, whatever OpenCL calls it.
        let mut unknown = copy_kernel();
        unknown.kernels[0].body.push(CStmt::Expr(CExpr::Call(
            "log".into(),
            vec![CExpr::float(1.0)],
        )));
        let launch = stage("copy", LaunchConfig::d1(16, 16));
        let args = || vec![KernelArg::zeros(16), KernelArg::zeros(16)];
        for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
            let request = |m| ExecutionRequest::new(m).engine(engine);
            for (m, expected, found) in &cases {
                let err = request(m).launch_sequence(&launch, args()).unwrap_err();
                let (expected, found) = (*expected, *found);
                assert_eq!(err, VgpuError::ArgumentMismatch { expected, found });
            }
            let err = request(&unknown).launch_sequence(&launch, args());
            assert_eq!(err, Err(VgpuError::UnknownFunction("log".into())));
        }
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let m = copy_kernel();
        let err = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("copy", LaunchConfig::d1(64, 16)),
                vec![KernelArg::Buffer(vec![0.0; 8]), KernelArg::zeros(64)],
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                VgpuError::OutOfBounds {
                    space: "global",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn for_loop_and_user_function() {
        // out[gid] = sum of in[gid*4 .. gid*4+4] via a user "add" function.
        let mut m = Module::new();
        m.add_function(CFunction {
            name: "add".into(),
            ret: CType::Float,
            params: vec![("a".into(), CType::Float), ("b".into(), CType::Float)],
            locals: vec![],
            body: CExpr::var("a").add(CExpr::var("b")),
        });
        m.kernels.push(Kernel {
            name: "sum4".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![
                CStmt::Decl {
                    ty: CType::Float,
                    name: "acc".into(),
                    addr: None,
                    array_len: None,
                    init: Some(CExpr::float(0.0)),
                },
                CStmt::For {
                    var: "i".into(),
                    init: CExpr::int(0),
                    cond: CExpr::var("i").lt(CExpr::int(4)),
                    step: CExpr::int(1),
                    body: vec![CStmt::Assign {
                        lhs: CExpr::var("acc"),
                        rhs: CExpr::Call(
                            "add".into(),
                            vec![
                                CExpr::var("acc"),
                                CExpr::var("in").at(CExpr::global_id(0)
                                    .mul(CExpr::int(4))
                                    .add(CExpr::var("i"))),
                            ],
                        ),
                    }],
                },
                CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::var("acc"),
                },
            ],
        });
        let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let result = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("sum4", LaunchConfig::d1(8, 8)),
                vec![KernelArg::Buffer(input), KernelArg::zeros(8)],
            )
            .expect("runs");
        let expected: Vec<f32> = (0..8)
            .map(|g| (0..4).map(|i| (g * 4 + i) as f32).sum())
            .collect();
        assert_eq!(result.buffers[1], expected);
        assert!(result.reports[0].counters.loop_iterations >= 32);
        assert!(result.reports[0].counters.flops >= 32);
    }

    #[test]
    fn local_memory_and_barrier() {
        // Reverse the elements of each work group through local memory.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "reverse".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![
                CStmt::Decl {
                    ty: CType::Float,
                    name: "tmp".into(),
                    addr: Some(AddrSpace::Local),
                    array_len: Some(ArithExpr::cst(8)),
                    init: None,
                },
                CStmt::Assign {
                    lhs: CExpr::var("tmp").at(CExpr::local_id(0)),
                    rhs: CExpr::var("in").at(CExpr::global_id(0)),
                },
                CStmt::Barrier(Fence::local()),
                CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::var("tmp").at(CExpr::int(7).sub(CExpr::local_id(0))),
                },
            ],
        });
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let result = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("reverse", LaunchConfig::d1(16, 8)),
                vec![KernelArg::Buffer(input), KernelArg::zeros(16)],
            )
            .expect("runs");
        let expected: Vec<f32> = vec![
            7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 15.0, 14.0, 13.0, 12.0, 11.0, 10.0, 9.0, 8.0,
        ];
        assert_eq!(result.buffers[1], expected);
        assert_eq!(result.reports[0].counters.barriers, 2);
        assert!(result.reports[0].counters.local_accesses >= 32);
    }

    #[test]
    fn divergent_if_uses_masks() {
        // Only the first half of each work group writes.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "half".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![CStmt::If {
                cond: CExpr::local_id(0).lt(CExpr::int(4)),
                then: vec![CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::float(1.0),
                }],
                otherwise: Some(vec![CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::float(2.0),
                }]),
            }],
        });
        let result = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("half", LaunchConfig::d1(8, 8)),
                vec![KernelArg::zeros(8)],
            )
            .expect("runs");
        assert_eq!(
            result.buffers[0],
            vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
        );
    }

    #[test]
    fn an_if_no_thread_enters_still_runs_its_else_under_the_enclosing_mask() {
        // The inner `if` is taken by no thread, so every thread of the outer then-branch runs
        // the inner `else`; the outer `else` and the statement after both `if`s must still
        // see their own masks.
        let out_at =
            |offset: i64| CExpr::var("out").at(CExpr::global_id(0).add(CExpr::int(offset)));
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "nested".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![
                CStmt::If {
                    cond: CExpr::local_id(0).lt(CExpr::int(4)),
                    then: vec![CStmt::If {
                        cond: CExpr::local_id(0).lt(CExpr::int(0)),
                        then: vec![CStmt::Assign {
                            lhs: out_at(0),
                            rhs: CExpr::float(1.0),
                        }],
                        otherwise: Some(vec![CStmt::Assign {
                            lhs: out_at(0),
                            rhs: CExpr::float(2.0),
                        }]),
                    }],
                    otherwise: Some(vec![CStmt::Assign {
                        lhs: out_at(0),
                        rhs: CExpr::float(3.0),
                    }]),
                },
                CStmt::Assign {
                    lhs: out_at(8),
                    rhs: CExpr::float(4.0),
                },
            ],
        });
        let mut expected = vec![2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0];
        expected.extend([4.0; 8]);
        for engine in [EngineSelection::Interpreter, EngineSelection::Bytecode] {
            let result = ExecutionRequest::new(&m)
                .engine(engine)
                .launch_sequence(
                    &stage("nested", LaunchConfig::d1(8, 8)),
                    vec![KernelArg::zeros(16)],
                )
                .expect("runs");
            assert_eq!(result.buffers[0], expected, "{engine:?}");
        }
    }

    #[test]
    fn vector_load_store_round_trip() {
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "vcopy".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![CStmt::Expr(CExpr::Builtin(
                Builtin::VStore(4),
                vec![
                    CExpr::Builtin(
                        Builtin::VLoad(4),
                        vec![CExpr::global_id(0), CExpr::var("in")],
                    ),
                    CExpr::global_id(0),
                    CExpr::var("out"),
                ],
            ))],
        });
        let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let result = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("vcopy", LaunchConfig::d1(8, 8)),
                vec![KernelArg::Buffer(input.clone()), KernelArg::zeros(32)],
            )
            .expect("runs");
        assert_eq!(result.buffers[1], input);
        assert!(result.reports[0].counters.vector_accesses >= 64);
    }

    #[test]
    fn coalesced_accesses_produce_fewer_transactions_than_strided() {
        // Coalesced: out[gid] = in[gid]. Strided: out[gid] = in[gid * 32].
        let make = |stride: i64| {
            let mut m = Module::new();
            m.kernels.push(Kernel {
                name: "k".into(),
                params: vec![
                    KernelParam {
                        name: "in".into(),
                        ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                    },
                    KernelParam {
                        name: "out".into(),
                        ty: CType::pointer(CType::Float, AddrSpace::Global),
                    },
                ],
                body: vec![CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::var("in").at(CExpr::global_id(0).mul(CExpr::int(stride))),
                }],
            });
            m
        };
        let coalesced = ExecutionRequest::new(&make(1))
            .launch_sequence(
                &stage("k", LaunchConfig::d1(64, 64)),
                vec![KernelArg::Buffer(vec![0.0; 64 * 32]), KernelArg::zeros(64)],
            )
            .unwrap();
        let strided = ExecutionRequest::new(&make(32))
            .launch_sequence(
                &stage("k", LaunchConfig::d1(64, 64)),
                vec![KernelArg::Buffer(vec![0.0; 64 * 32]), KernelArg::zeros(64)],
            )
            .unwrap();
        assert!(
            strided.reports[0].counters.global_transactions
                > 4 * coalesced.reports[0].counters.global_transactions,
            "strided {} vs coalesced {}",
            strided.reports[0].counters.global_transactions,
            coalesced.reports[0].counters.global_transactions
        );
        assert!(strided.reports[0].counters.uncoalesced_accesses > 0);
        assert_eq!(coalesced.reports[0].counters.uncoalesced_accesses, 0);
    }

    #[test]
    fn divergent_barrier_is_a_typed_error() {
        // barrier() inside a lane-dependent branch: undefined behaviour in OpenCL, a typed
        // error here.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "bad".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![CStmt::If {
                cond: CExpr::local_id(0).lt(CExpr::int(4)),
                then: vec![CStmt::Barrier(Fence::local())],
                otherwise: None,
            }],
        });
        let err = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("bad", LaunchConfig::d1(8, 8)),
                vec![KernelArg::zeros(8)],
            )
            .unwrap_err();
        assert_eq!(
            err,
            VgpuError::DivergentBarrier {
                group: [0, 0, 0],
                arrived: 4,
                expected: 8,
            }
        );
    }

    #[test]
    fn group_uniform_branch_barrier_is_fine() {
        // The same barrier guarded by a *group-uniform* condition is well-defined: every
        // work item of a group takes the same branch.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "ok".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![CStmt::If {
                cond: CExpr::group_id(0).lt(CExpr::int(1)),
                then: vec![CStmt::Barrier(Fence::local())],
                otherwise: None,
            }],
        });
        let result = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("ok", LaunchConfig::d1(16, 8)),
                vec![KernelArg::zeros(8)],
            )
            .expect("uniform barrier executes");
        assert_eq!(result.reports[0].counters.barriers, 1);
    }

    #[test]
    fn barrier_in_a_divergent_loop_is_a_typed_error() {
        // Threads loop a lane-dependent number of rounds; a barrier in the body is reached
        // by progressively fewer threads.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "loopy".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![CStmt::For {
                var: "i".into(),
                init: CExpr::int(0),
                cond: CExpr::var("i").lt(CExpr::local_id(0)),
                step: CExpr::int(1),
                body: vec![CStmt::Barrier(Fence::local())],
            }],
        });
        let err = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("loopy", LaunchConfig::d1(4, 4)),
                vec![KernelArg::zeros(4)],
            )
            .unwrap_err();
        assert!(matches!(err, VgpuError::DivergentBarrier { .. }), "{err:?}");
    }

    #[test]
    fn kernel_sequence_shares_buffers_across_stages() {
        // Stage 1 (parallel): tmp[gid] = in[gid] * 2. Stage 2 (single item): out[0] = sum(tmp).
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "scale".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "tmp".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![CStmt::Assign {
                lhs: CExpr::var("tmp").at(CExpr::global_id(0)),
                rhs: CExpr::var("in")
                    .at(CExpr::global_id(0))
                    .mul(CExpr::float(2.0)),
            }],
        });
        m.kernels.push(Kernel {
            name: "sum".into(),
            // Same signature: the shared-pool ABI passes every argument to every stage.
            params: m.kernels[0].params.clone(),
            body: vec![
                CStmt::Decl {
                    ty: CType::Float,
                    name: "acc".into(),
                    addr: None,
                    array_len: None,
                    init: Some(CExpr::float(0.0)),
                },
                CStmt::For {
                    var: "i".into(),
                    init: CExpr::int(0),
                    cond: CExpr::var("i").lt(CExpr::int(8)),
                    step: CExpr::int(1),
                    body: vec![CStmt::Assign {
                        lhs: CExpr::var("acc"),
                        rhs: CExpr::var("acc").add(CExpr::var("tmp").at(CExpr::var("i"))),
                    }],
                },
                CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::int(0)),
                    rhs: CExpr::var("acc"),
                },
            ],
        });
        assert!(m.kernels[0].uses_work_items());
        assert!(!m.kernels[1].uses_work_items());

        let input: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let pool = vec![
            KernelArg::Buffer(input),
            KernelArg::zeros(1),
            KernelArg::zeros(8),
        ];
        let stages = vec![
            KernelLaunchSpec {
                kernel: "scale".into(),
                launch: LaunchConfig::d1(8, 4),
            },
            KernelLaunchSpec {
                kernel: "sum".into(),
                launch: LaunchConfig::d1(1, 1),
            },
        ];
        let device = crate::DeviceProfile::nvidia();
        let result = ExecutionRequest::new(&m)
            .on_device(&device)
            .launch_sequence(&stages, pool)
            .expect("sequence runs");
        // 2 * (0 + 1 + ... + 7) = 56.
        assert_eq!(result.buffers[1], vec![56.0]);
        assert_eq!(result.reports.len(), 2);
        // Sequential composition: the sequence costs the stage times plus one launch
        // overhead per stage.
        let split: f64 = result
            .reports
            .iter()
            .map(|r| r.estimated_time(&device))
            .sum();
        let expected = split + 2.0 * device.launch_overhead;
        assert!((result.estimated_time(&device) - expected).abs() < 1e-9);
        // Merged counters sum the per-stage spans (sequential stages cannot overlap).
        assert_eq!(
            result.merged_counters().group_span_rows,
            result
                .reports
                .iter()
                .map(|r| r.counters.group_span_rows)
                .sum::<u64>()
        );
    }

    #[test]
    fn private_arrays_are_per_thread() {
        // Each thread fills a private array and sums it.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "priv".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![
                CStmt::Decl {
                    ty: CType::Float,
                    name: "regs".into(),
                    addr: Some(AddrSpace::Private),
                    array_len: Some(ArithExpr::cst(4)),
                    init: None,
                },
                CStmt::For {
                    var: "i".into(),
                    init: CExpr::int(0),
                    cond: CExpr::var("i").lt(CExpr::int(4)),
                    step: CExpr::int(1),
                    // An array store converts the `int` id to a `float`.
                    body: vec![CStmt::Assign {
                        lhs: CExpr::var("regs").at(CExpr::var("i")),
                        rhs: CExpr::global_id(0),
                    }],
                },
                CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::var("regs")
                        .at(CExpr::int(0))
                        .add(CExpr::var("regs").at(CExpr::int(3))),
                },
            ],
        });
        let result = ExecutionRequest::new(&m)
            .launch_sequence(
                &stage("priv", LaunchConfig::d1(4, 2)),
                vec![KernelArg::zeros(4)],
            )
            .expect("runs");
        assert_eq!(result.buffers[0], vec![0.0, 2.0, 4.0, 6.0]);
        assert!(result.reports[0].counters.private_accesses > 0);
    }

    // ------------------------------------------------------------- data-race detection

    /// The dynamic mirror of the PR 5 miscompile: every work item stages "its" values into
    /// the *whole* shared local buffer. With 8 threads per group each cell is written by all
    /// 8 with differing values.
    fn per_item_staging_kernel() -> Module {
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "racy".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![
                CStmt::Decl {
                    ty: CType::Float,
                    name: "tmp".into(),
                    addr: Some(AddrSpace::Local),
                    array_len: Some(ArithExpr::cst(4)),
                    init: None,
                },
                // for i in 0..4: tmp[i] = in[gid] + i  — per-thread values, shared cells.
                CStmt::For {
                    var: "i".into(),
                    init: CExpr::int(0),
                    cond: CExpr::var("i").lt(CExpr::int(4)),
                    step: CExpr::int(1),
                    body: vec![CStmt::Assign {
                        lhs: CExpr::var("tmp").at(CExpr::var("i")),
                        rhs: CExpr::var("in")
                            .at(CExpr::global_id(0))
                            .add(CExpr::var("i")),
                    }],
                },
                CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::var("tmp").at(CExpr::int(0)),
                },
            ],
        });
        m
    }

    #[test]
    fn race_detector_flags_per_item_local_staging() {
        let m = per_item_staging_kernel();
        let input: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let args = || vec![KernelArg::Buffer(input.clone()), KernelArg::zeros(8)];
        // Detector off: executes (with whichever lock-step interleaving the vgpu has) —
        // this is exactly the "filtered only by output luck" failure mode of PR 5.
        ExecutionRequest::new(&m)
            .launch_sequence(&stage("racy", LaunchConfig::d1(8, 8)), args())
            .expect("runs without detection");
        // Detector on: the write-write conflict is a typed error.
        let err = ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(&stage("racy", LaunchConfig::d1(8, 8)), args())
            .expect_err("per-item staging races");
        match &err {
            VgpuError::DataRace {
                buffer,
                index,
                writers,
                epoch,
            } => {
                assert_eq!(buffer, "tmp");
                assert_eq!(*index, 0);
                assert_ne!(writers[0], writers[1]);
                assert_eq!(*epoch, 0);
            }
            other => panic!("expected DataRace, got {other:?}"),
        }
        assert!(err.to_string().contains("data race on `tmp[0]`"), "{err}");
    }

    #[test]
    fn race_detector_distinguishes_work_item_dimensions() {
        // Two work items that differ ONLY in their dimension-1 id write different values
        // to the same local cell: `tmp[l0] = in[g0] + l1`. A detector that collapsed
        // the id space to dimension 0 would see one thread re-writing its own cell and stay
        // silent; distinguishing dimensions makes it a write-write race.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "dim1".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![
                CStmt::Decl {
                    ty: CType::Float,
                    name: "tmp".into(),
                    addr: Some(AddrSpace::Local),
                    array_len: Some(ArithExpr::cst(4)),
                    init: None,
                },
                CStmt::Assign {
                    lhs: CExpr::var("tmp").at(CExpr::local_id(0)),
                    rhs: CExpr::var("in")
                        .at(CExpr::global_id(0))
                        .add(CExpr::local_id(1)),
                },
                CStmt::Barrier(Fence::local()),
                CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::var("tmp").at(CExpr::local_id(0)),
                },
            ],
        });
        let input: Vec<f32> = (1..=4).map(|i| i as f32).collect();
        let args = || vec![KernelArg::Buffer(input.clone()), KernelArg::zeros(4)];
        // 1D launch: dimension 1 is a single work item, so every cell has one writer.
        ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(&stage("dim1", LaunchConfig::d1(4, 4)), args())
            .expect("1D launch has one writer per cell");
        // 2D launch: (l0, 0) and (l0, 1) both write tmp[l0], with values differing by one.
        let err = ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(&stage("dim1", LaunchConfig::d2((4, 2), (4, 2))), args())
            .expect_err("dimension-1 siblings write different values to the same cell");
        match &err {
            VgpuError::DataRace {
                buffer,
                writers,
                epoch,
                ..
            } => {
                assert_eq!(buffer, "tmp");
                assert_ne!(writers[0], writers[1]);
                assert_eq!(*epoch, 0);
            }
            other => panic!("expected DataRace, got {other:?}"),
        }
    }

    #[test]
    fn race_detector_accepts_cooperative_staging() {
        // The reverse-through-local-memory kernel of `local_memory_and_barrier`: each work
        // item writes only its own cell, a barrier orders the cross-thread reads. The
        // detector must stay silent and the result must be unchanged.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "reverse".into(),
            params: vec![
                KernelParam {
                    name: "in".into(),
                    ty: CType::const_restrict_pointer(CType::Float, AddrSpace::Global),
                },
                KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                },
            ],
            body: vec![
                CStmt::Decl {
                    ty: CType::Float,
                    name: "tmp".into(),
                    addr: Some(AddrSpace::Local),
                    array_len: Some(ArithExpr::cst(8)),
                    init: None,
                },
                CStmt::Assign {
                    lhs: CExpr::var("tmp").at(CExpr::local_id(0)),
                    rhs: CExpr::var("in").at(CExpr::global_id(0)),
                },
                CStmt::Barrier(Fence::local()),
                CStmt::Assign {
                    lhs: CExpr::var("out").at(CExpr::global_id(0)),
                    rhs: CExpr::var("tmp").at(CExpr::int(7).sub(CExpr::local_id(0))),
                },
            ],
        });
        let input: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        let result = ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(
                &stage("reverse", LaunchConfig::d1(16, 8)),
                vec![KernelArg::Buffer(input), KernelArg::zeros(16)],
            )
            .expect("barrier-synchronised staging is race-free");
        assert_eq!(
            result.buffers[1],
            vec![
                8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 16.0, 15.0, 14.0, 13.0, 12.0, 11.0, 10.0,
                9.0,
            ]
        );
        // Removing the barrier turns the cross-thread read into a read of an unsynchronised
        // write — a typed race, not a wrong answer.
        m.kernels[0].body.remove(2);
        let input: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        let err = ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(
                &stage("reverse", LaunchConfig::d1(16, 8)),
                vec![KernelArg::Buffer(input), KernelArg::zeros(16)],
            )
            .expect_err("unsynchronised read-after-write races");
        assert!(matches!(err, VgpuError::DataRace { .. }), "{err:?}");
    }

    #[test]
    fn race_on_second_loop_iteration_only_is_caught() {
        // Iteration 0 writes each thread's own cell; iteration 1 writes the neighbour's.
        // There is no barrier, so both iterations are in epoch 0 and the second write
        // conflicts with the first. A detector that (wrongly) advanced the epoch at the
        // loop back-edge would see different epochs and miss the race entirely — this is
        // the false-negative mode the barrier-epoch audit pins down.
        let loop_body = |with_barrier: bool| {
            // tmp[(l + i) % 8] = l + 1, with l = get_local_id(0).
            let wrapped = (ArithExpr::var("l") + ArithExpr::var("i")) % ArithExpr::cst(8);
            let mut body = vec![CStmt::Assign {
                lhs: CExpr::var("tmp").at(CExpr::Index(wrapped)),
                rhs: CExpr::var("l").add(CExpr::int(1)),
            }];
            if with_barrier {
                body.push(CStmt::Barrier(Fence::local()));
            }
            body
        };
        let make = |with_barrier: bool| {
            let mut m = Module::new();
            m.kernels.push(Kernel {
                name: "sweep".into(),
                params: vec![KernelParam {
                    name: "out".into(),
                    ty: CType::pointer(CType::Float, AddrSpace::Global),
                }],
                body: vec![
                    CStmt::Decl {
                        ty: CType::Float,
                        name: "tmp".into(),
                        addr: Some(AddrSpace::Local),
                        array_len: Some(ArithExpr::cst(8)),
                        init: None,
                    },
                    CStmt::Decl {
                        ty: CType::Int,
                        name: "l".into(),
                        addr: None,
                        array_len: None,
                        init: Some(CExpr::local_id(0)),
                    },
                    CStmt::For {
                        var: "i".into(),
                        init: CExpr::int(0),
                        cond: CExpr::var("i").lt(CExpr::int(2)),
                        step: CExpr::int(1),
                        body: loop_body(with_barrier),
                    },
                    CStmt::Assign {
                        lhs: CExpr::var("out").at(CExpr::global_id(0)),
                        rhs: CExpr::var("tmp").at(CExpr::local_id(0)),
                    },
                ],
            });
            m
        };
        let err = ExecutionRequest::new(&make(false))
            .race_detection(true)
            .launch_sequence(
                &stage("sweep", LaunchConfig::d1(8, 8)),
                vec![KernelArg::zeros(8)],
            )
            .expect_err("the second sweep races against the first without a barrier");
        assert!(
            matches!(err, VgpuError::DataRace { epoch: 0, .. }),
            "{err:?}"
        );
        // With a barrier per iteration (what lowered `iterate` sweeps emit) the epochs
        // advance per executed barrier and the same access pattern is race-free.
        ExecutionRequest::new(&make(true))
            .race_detection(true)
            .launch_sequence(
                &stage("sweep", LaunchConfig::d1(8, 8)),
                vec![KernelArg::zeros(8)],
            )
            .expect("barrier-separated sweeps are race-free");
    }

    #[test]
    fn redundant_uniform_writes_are_not_races() {
        // Every work item stores the same value to the same global cell: bitwise-identical
        // stores cannot change the outcome under any interleaving, so the detector treats
        // them as no-ops (this keeps group-uniform `toLocal(mapSeq …)` staging, which the
        // static ownership pass accepts, dynamically clean as well).
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "uniform".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(CExpr::int(0)),
                rhs: CExpr::float(3.0),
            }],
        });
        let result = ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(
                &stage("uniform", LaunchConfig::d1(8, 8)),
                vec![KernelArg::zeros(1)],
            )
            .expect("uniform redundant stores are benign");
        assert_eq!(result.buffers[0], vec![3.0]);
    }

    #[test]
    fn cross_group_global_write_conflict_is_flagged() {
        // Work groups write group-dependent values to the same global cell. No barrier can
        // order work items of *different* groups within a launch, so this conflicts in any
        // epoch.
        let mut m = Module::new();
        m.kernels.push(Kernel {
            name: "clash".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: CType::pointer(CType::Float, AddrSpace::Global),
            }],
            body: vec![CStmt::Assign {
                lhs: CExpr::var("out").at(CExpr::int(0)),
                rhs: CExpr::group_id(0).add(CExpr::int(1)),
            }],
        });
        let err = ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(
                &stage("clash", LaunchConfig::d1(8, 4)),
                vec![KernelArg::zeros(1)],
            )
            .expect_err("conflicting cross-group writes race");
        match &err {
            VgpuError::DataRace { buffer, index, .. } => {
                assert_eq!(buffer, "out");
                assert_eq!(*index, 0);
            }
            other => panic!("expected DataRace, got {other:?}"),
        }
    }

    #[test]
    fn race_detection_leaves_results_unchanged() {
        let m = copy_kernel();
        // Shadow state never leaks into results: a clean kernel produces identical buffers
        // and counters with and without detection.
        let input: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let args = || vec![KernelArg::Buffer(input.clone()), KernelArg::zeros(64)];
        let plain = ExecutionRequest::new(&m)
            .launch_sequence(&stage("copy", LaunchConfig::d1(64, 16)), args())
            .expect("runs");
        let detected = ExecutionRequest::new(&m)
            .race_detection(true)
            .launch_sequence(&stage("copy", LaunchConfig::d1(64, 16)), args())
            .expect("runs");
        assert_eq!(plain, detected);
    }
}
