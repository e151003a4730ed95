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
//! to a dense slot, call targets (work-item builtins, `vload`/`vstore`, math builtins, user
//! functions) are resolved once, and comments disappear. The interpreter then runs the
//! lowered form with plain vector indexing for variable access — the innermost loop performs
//! no string hashing, no name-based dispatch and no AST cloning. Exploration executes
//! thousands of candidate kernels per search, which makes this path the throughput limit of
//! the whole rewrite engine.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use lift_arith::ArithExpr;
use lift_ocl::{AddrSpace, CBinOp, CExpr, CStmt, CType, CUnOp, Module};

use crate::cost::{Budget, CostCounters, ExecutionReport};
use crate::device::{DeviceProfile, LaunchConfig, LaunchError};
use crate::memory::{GpuValue, KernelArg, Ptr};

/// Number of consecutive work items considered for memory-coalescing analysis.
const COALESCE_GROUP: usize = 32;
/// Number of consecutive `float` elements that form one memory transaction segment.
const SEGMENT_ELEMS: i64 = 32;

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
    /// A called function is neither a builtin nor defined in the module.
    UnknownFunction(String),
    /// The number of kernel arguments does not match the kernel signature.
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
    /// Integer division or modulo by zero while evaluating an index expression.
    DivisionByZero,
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
        /// Live (non-returned) work items of the group.
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
    /// The launch was stopped early: its partial counters prove an estimated time above the
    /// limit of [`crate::ExecutionRequest::budget`]. Its buffers are lost and it was
    /// neither completed nor validated.
    OverBudget {
        /// The proven lower bound on the launch's estimated time.
        lower_bound: f64,
        /// The stopped stage's lock-step row at which the bound crossed the limit.
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

/// Resolves the kernel, lowers it once (names interned to slots, call targets resolved,
/// comments dropped) and binds the launch arguments — the engine-independent prologue of
/// every launch.
pub(crate) fn prepare(
    module: &Module,
    kernel_name: &str,
    config: LaunchConfig,
    args: Vec<KernelArg>,
    detect_races: bool,
    budget: Option<Budget>,
) -> Result<Prepared, VgpuError> {
    let kernel = module
        .kernel(kernel_name)
        .ok_or_else(|| VgpuError::UnknownKernel(kernel_name.to_string()))?;
    if kernel.params.len() != args.len() {
        return Err(VgpuError::ArgumentMismatch {
            expected: kernel.params.len(),
            found: args.len(),
        });
    }

    // Lower once: intern names to slots, resolve call targets, drop comments.
    let mut lowerer = Lowerer::new(module);
    let param_slots: Vec<usize> = kernel
        .params
        .iter()
        .map(|p| lowerer.slot(&p.name))
        .collect();
    let body = lowerer.lower_block(&kernel.body);
    let functions: Vec<std::rc::Rc<SFunction>> = lowerer
        .functions
        .into_iter()
        .map(std::rc::Rc::new)
        .collect();
    let names = lowerer.names;

    let mut global: Vec<Vec<f32>> = Vec::new();
    let mut global_names: Vec<String> = Vec::new();
    let mut params: Vec<Option<GpuValue>> = vec![None; names.len()];
    let mut params_by_name: VarMap<GpuValue> = VarMap::default();
    for ((param, slot), arg) in kernel.params.iter().zip(param_slots).zip(args) {
        let value = match arg {
            KernelArg::Buffer(data) => {
                let idx = global.len();
                global.push(data);
                global_names.push(param.name.clone());
                GpuValue::Ptr(Ptr {
                    space: AddrSpace::Global,
                    buffer: idx,
                    offset: 0,
                })
            }
            KernelArg::Int(v) => GpuValue::Int(v),
            KernelArg::Float(v) => GpuValue::Float(f64::from(v)),
        };
        params_by_name.insert(param.name.clone(), value.clone());
        params[slot] = Some(value);
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
    Ok(Prepared { body, exec })
}

// --------------------------------------------------------------------- lowered kernel form

/// The work-item functions of OpenCL.
#[derive(Clone, Copy)]
pub(crate) enum WorkItemFn {
    GlobalId,
    LocalId,
    GroupId,
    GlobalSize,
    LocalSize,
    NumGroups,
}

/// Unary math builtins (charged 4 flops, like a special-function unit).
#[derive(Clone, Copy)]
pub(crate) enum Math1 {
    Sqrt,
    Rsqrt,
    Fabs,
    Exp,
    Log,
    Floor,
}

/// Binary math builtins (charged 1 flop).
#[derive(Clone, Copy)]
pub(crate) enum Math2 {
    Min,
    Max,
}

/// How a cast behaves at runtime.
#[derive(Clone, Copy)]
pub(crate) enum CastKind {
    Int,
    Float,
    Bool,
    Keep,
}

/// A lowered index expression: [`ArithExpr`] with variables resolved to slots.
pub(crate) enum SIndex {
    Cst(i64),
    Var(usize),
    Sum(Vec<SIndex>),
    Prod(Vec<SIndex>),
    IntDiv(Box<SIndex>, Box<SIndex>),
    Mod(Box<SIndex>, Box<SIndex>),
    Pow(Box<SIndex>, u32),
    Min(Box<SIndex>, Box<SIndex>),
    Max(Box<SIndex>, Box<SIndex>),
}

/// A lowered expression: variables are slots, call targets are resolved.
pub(crate) enum SExpr {
    Int(i64),
    Float(f64),
    Var(usize),
    Index(SIndex),
    Bin(CBinOp, Box<SExpr>, Box<SExpr>),
    Un(CUnOp, Box<SExpr>),
    WorkItem(WorkItemFn, Box<SExpr>),
    VLoad(usize, Box<SExpr>, Box<SExpr>),
    VStore(usize, Box<SExpr>, Box<SExpr>, Box<SExpr>),
    Math1(Math1, Box<SExpr>),
    Math2(Math2, Box<SExpr>, Box<SExpr>),
    Mad(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    CallFun(usize, Vec<SExpr>),
    UnknownCall(String),
    ArrayAccess(Box<SExpr>, Box<SExpr>),
    Field(Box<SExpr>, usize, String),
    Cast(CastKind, Box<SExpr>),
    Ternary(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    StructLit(Vec<SExpr>),
    VectorLit(Vec<SExpr>),
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
    Return,
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

/// A lowered user function.
pub(crate) struct SFunction {
    pub(crate) params: Vec<usize>,
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

    fn lower_stmt(&mut self, stmt: &CStmt) -> Option<SStmt> {
        Some(match stmt {
            CStmt::Comment(_) => return None,
            CStmt::Return => SStmt::Return,
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

    fn lower_index(&mut self, a: &ArithExpr) -> SIndex {
        match a {
            ArithExpr::Cst(c) => SIndex::Cst(*c),
            ArithExpr::Var(v) => SIndex::Var(self.slot(v.name())),
            ArithExpr::Sum(ts) => SIndex::Sum(ts.iter().map(|t| self.lower_index(t)).collect()),
            ArithExpr::Prod(fs) => SIndex::Prod(fs.iter().map(|f| self.lower_index(f)).collect()),
            ArithExpr::IntDiv(a, b) => {
                SIndex::IntDiv(Box::new(self.lower_index(a)), Box::new(self.lower_index(b)))
            }
            ArithExpr::Mod(a, b) => {
                SIndex::Mod(Box::new(self.lower_index(a)), Box::new(self.lower_index(b)))
            }
            ArithExpr::Pow(b, e) => SIndex::Pow(Box::new(self.lower_index(b)), *e),
            ArithExpr::Min(a, b) => {
                SIndex::Min(Box::new(self.lower_index(a)), Box::new(self.lower_index(b)))
            }
            ArithExpr::Max(a, b) => {
                SIndex::Max(Box::new(self.lower_index(a)), Box::new(self.lower_index(b)))
            }
        }
    }

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
            CExpr::Un(op, a) => SExpr::Un(*op, Box::new(self.lower_expr(a))),
            CExpr::Call(name, args) => self.lower_call(name, args),
            CExpr::ArrayAccess(arr, idx) => SExpr::ArrayAccess(
                Box::new(self.lower_expr(arr)),
                Box::new(self.lower_expr(idx)),
            ),
            CExpr::Field(obj, field) => SExpr::Field(
                Box::new(self.lower_expr(obj)),
                field_index(field),
                field.clone(),
            ),
            CExpr::Cast(ty, inner) => {
                let kind = match ty {
                    CType::Int => CastKind::Int,
                    CType::Float | CType::Double => CastKind::Float,
                    CType::Bool => CastKind::Bool,
                    _ => CastKind::Keep,
                };
                SExpr::Cast(kind, Box::new(self.lower_expr(inner)))
            }
            CExpr::Ternary(c, t, o) => SExpr::Ternary(
                Box::new(self.lower_expr(c)),
                Box::new(self.lower_expr(t)),
                Box::new(self.lower_expr(o)),
            ),
            CExpr::StructLit(_, fields) => {
                SExpr::StructLit(fields.iter().map(|f| self.lower_expr(f)).collect())
            }
            CExpr::VectorLit(_, elems) => {
                SExpr::VectorLit(elems.iter().map(|e| self.lower_expr(e)).collect())
            }
        }
    }

    /// Resolves a call target, in the same precedence order the string-dispatching
    /// interpreter used: work-item functions, vector loads/stores, math builtins, then
    /// user functions defined in the module.
    fn lower_call(&mut self, name: &str, args: &[CExpr]) -> SExpr {
        let wi = match name {
            "get_global_id" => Some(WorkItemFn::GlobalId),
            "get_local_id" => Some(WorkItemFn::LocalId),
            "get_group_id" => Some(WorkItemFn::GroupId),
            "get_global_size" => Some(WorkItemFn::GlobalSize),
            "get_local_size" => Some(WorkItemFn::LocalSize),
            "get_num_groups" => Some(WorkItemFn::NumGroups),
            _ => None,
        };
        if let Some(kind) = wi {
            return SExpr::WorkItem(kind, Box::new(self.lower_expr(&args[0])));
        }
        if let Some(width) = vector_width(name, "vload") {
            return SExpr::VLoad(
                width,
                Box::new(self.lower_expr(&args[0])),
                Box::new(self.lower_expr(&args[1])),
            );
        }
        if let Some(width) = vector_width(name, "vstore") {
            return SExpr::VStore(
                width,
                Box::new(self.lower_expr(&args[0])),
                Box::new(self.lower_expr(&args[1])),
                Box::new(self.lower_expr(&args[2])),
            );
        }
        let m1 = match name {
            "sqrt" | "native_sqrt" => Some(Math1::Sqrt),
            "rsqrt" => Some(Math1::Rsqrt),
            "fabs" => Some(Math1::Fabs),
            "exp" => Some(Math1::Exp),
            "log" => Some(Math1::Log),
            "floor" => Some(Math1::Floor),
            _ => None,
        };
        if let Some(kind) = m1 {
            return SExpr::Math1(kind, Box::new(self.lower_expr(&args[0])));
        }
        let m2 = match name {
            "fmin" | "min" => Some(Math2::Min),
            "fmax" | "max" => Some(Math2::Max),
            _ => None,
        };
        if let Some(kind) = m2 {
            return SExpr::Math2(
                kind,
                Box::new(self.lower_expr(&args[0])),
                Box::new(self.lower_expr(&args[1])),
            );
        }
        if name == "mad" || name == "fma" {
            return SExpr::Mad(
                Box::new(self.lower_expr(&args[0])),
                Box::new(self.lower_expr(&args[1])),
                Box::new(self.lower_expr(&args[2])),
            );
        }
        match self.lower_function(name) {
            Some(idx) => SExpr::CallFun(idx, args.iter().map(|a| self.lower_expr(a)).collect()),
            None => SExpr::UnknownCall(name.to_string()),
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
            body: SExpr::Int(0),
        });
        self.fn_slots.insert(name.to_string(), idx);
        let params: Vec<usize> = fun.params.iter().map(|(n, _)| self.slot(n)).collect();
        let body = self.lower_expr(&fun.body);
        self.functions[idx] = SFunction { params, body };
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
    pub(crate) returned: bool,
}

pub(crate) struct Exec {
    pub(crate) config: LaunchConfig,
    pub(crate) global: Vec<Vec<f32>>,
    /// slot → kernel-argument value.
    pub(crate) params: Vec<Option<GpuValue>>,
    /// Name-keyed arguments, for resolving symbolic array lengths.
    params_by_name: VarMap<GpuValue>,
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
                                    returned: false,
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

    fn active(&self, threads: &[Thread], mask: &[bool], i: usize) -> bool {
        mask[i] && !threads[i].returned
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
            SStmt::Return => {
                for i in 0..threads.len() {
                    if mask[i] {
                        threads[i].returned = true;
                    }
                }
                Ok(())
            }
            SStmt::Barrier => {
                // OpenCL requires a barrier to be reached by every live work item of the
                // group. A barrier under a lane-divergent branch or loop is undefined
                // behaviour on real hardware — report it instead of silently synchronising
                // the subset that arrived.
                let arrived = (0..threads.len())
                    .filter(|&i| self.active(threads, mask, i))
                    .count();
                let expected = threads.iter().filter(|t| !t.returned).count();
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
                    if !self.active(threads, mask, i) {
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
                    if !self.active(threads, mask, i) {
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
                    if !self.active(threads, mask, i) {
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
                    if !self.active(threads, mask, i) {
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
                    if !self.active(threads, mask, i) {
                        continue;
                    }
                    let c = self.eval(cond, group, &mut threads[i])?.as_bool();
                    self.counters.int_ops += 1;
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
                    if !self.active(threads, mask, i) {
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
                        if !self.active(threads, mask, i) {
                            continue;
                        }
                        let c = self.eval(cond, group, &mut threads[i])?.as_bool();
                        self.counters.int_ops += 1;
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
                        if !iter_mask[i] || threads[i].returned {
                            continue;
                        }
                        let s = self.eval(step, group, &mut threads[i])?;
                        let current = threads[i].vals[*slot]
                            .as_ref()
                            .ok_or_else(|| VgpuError::UnknownVariable(self.names[*slot].clone()))?;
                        let next = GpuValue::Int(current.as_i64() + s.as_i64());
                        self.counters.int_ops += 1;
                        threads[i].vals[*slot] = Some(next);
                    }
                    self.flush_accesses();
                }
                Ok(())
            }
        }
    }

    pub(crate) fn resolve_len(&self, e: &ArithExpr) -> Result<usize, VgpuError> {
        let lookup = |name: &str| self.params_by_name.get(name).map(GpuValue::as_i64);
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
        if let Some(v) = &self.params[slot] {
            return Ok(v.clone());
        }
        Err(VgpuError::UnknownVariable(self.names[slot].clone()))
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
            SExpr::Index(a) => {
                let v = self.eval_index_counting(a, thread)?;
                Ok(GpuValue::Int(v))
            }
            SExpr::Bin(op, a, b) => {
                let a = self.eval(a, group, thread)?;
                let b = self.eval(b, group, thread)?;
                self.eval_bin(*op, a, b)
            }
            SExpr::Un(op, a) => {
                let v = self.eval(a, group, thread)?;
                Ok(match op {
                    CUnOp::Neg => {
                        self.counters.flops += 1;
                        match v {
                            GpuValue::Int(i) => GpuValue::Int(-i),
                            other => GpuValue::Float(-other.as_f64()),
                        }
                    }
                    CUnOp::Not => {
                        self.counters.int_ops += 1;
                        GpuValue::Bool(!v.as_bool())
                    }
                })
            }
            SExpr::WorkItem(kind, dim) => {
                let dim = self.eval(dim, group, thread)?.as_i64() as usize;
                let groups = self.config.num_groups();
                let v = match kind {
                    WorkItemFn::GlobalId => thread.gid[dim],
                    WorkItemFn::LocalId => thread.lid[dim],
                    WorkItemFn::GroupId => group.id[dim],
                    WorkItemFn::GlobalSize => self.config.global[dim],
                    WorkItemFn::LocalSize => self.config.local[dim],
                    WorkItemFn::NumGroups => groups[dim],
                };
                Ok(GpuValue::Int(v as i64))
            }
            SExpr::VLoad(width, idx, ptr) => {
                let idx = self.eval(idx, group, thread)?.as_i64();
                let ptr = self
                    .eval(ptr, group, thread)?
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer(format!("vload{width}")))?;
                let mut lanes = Vec::with_capacity(*width);
                for lane in 0..*width {
                    lanes.push(self.load(
                        ptr,
                        idx * *width as i64 + lane as i64,
                        group,
                        thread,
                        *width,
                    )?);
                }
                self.counters.vector_accesses += *width as u64;
                Ok(GpuValue::Vector(lanes))
            }
            SExpr::VStore(width, value, idx, ptr) => {
                let value = self.eval(value, group, thread)?;
                let idx = self.eval(idx, group, thread)?.as_i64();
                let ptr = self
                    .eval(ptr, group, thread)?
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer(format!("vstore{width}")))?;
                let lanes = match value {
                    GpuValue::Vector(lanes) => lanes,
                    other => vec![other; *width],
                };
                for (lane, v) in lanes.iter().enumerate() {
                    self.store(
                        ptr,
                        idx * *width as i64 + lane as i64,
                        v.as_f64(),
                        group,
                        thread,
                        *width,
                    )?;
                }
                self.counters.vector_accesses += *width as u64;
                Ok(GpuValue::Int(0))
            }
            SExpr::Math1(kind, a) => {
                let v = self.eval(a, group, thread)?.as_f64();
                self.counters.flops += 4;
                let out = match kind {
                    Math1::Sqrt => v.sqrt(),
                    Math1::Rsqrt => 1.0 / v.sqrt(),
                    Math1::Fabs => v.abs(),
                    Math1::Exp => v.exp(),
                    Math1::Log => v.ln(),
                    Math1::Floor => v.floor(),
                };
                Ok(GpuValue::Float(out))
            }
            SExpr::Math2(kind, a, b) => {
                let a = self.eval(a, group, thread)?.as_f64();
                let b = self.eval(b, group, thread)?.as_f64();
                self.counters.flops += 1;
                let out = match kind {
                    Math2::Min => a.min(b),
                    Math2::Max => a.max(b),
                };
                Ok(GpuValue::Float(out))
            }
            SExpr::Mad(a, b, c) => {
                let a = self.eval(a, group, thread)?.as_f64();
                let b = self.eval(b, group, thread)?.as_f64();
                let c = self.eval(c, group, thread)?.as_f64();
                self.counters.flops += 2;
                Ok(GpuValue::Float(a * b + c))
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
                // Bind parameters with save/restore so nested calls and loop variables are
                // preserved (moving shadowed values out instead of cloning them).
                let saved: Vec<Option<GpuValue>> =
                    fun.params.iter().map(|s| thread.vals[*s].take()).collect();
                for (s, v) in fun.params.iter().zip(values) {
                    thread.vals[*s] = Some(v);
                }
                let result = self.eval(&fun.body, group, thread);
                for (s, old) in fun.params.iter().zip(saved) {
                    thread.vals[*s] = old;
                }
                result
            }
            SExpr::UnknownCall(name) => Err(VgpuError::UnknownFunction(name.clone())),
            SExpr::ArrayAccess(arr, idx) => {
                let ptr = self
                    .eval(arr, group, thread)?
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer("array expression".to_string()))?;
                let idx = self.eval(idx, group, thread)?.as_i64();
                self.load(ptr, idx, group, thread, 1)
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
            SExpr::Cast(kind, inner) => {
                let v = self.eval(inner, group, thread)?;
                Ok(match kind {
                    CastKind::Int => GpuValue::Int(v.as_i64()),
                    CastKind::Float => GpuValue::Float(v.as_f64()),
                    CastKind::Bool => GpuValue::Bool(v.as_bool()),
                    CastKind::Keep => v,
                })
            }
            SExpr::Ternary(c, t, other) => {
                let c = self.eval(c, group, thread)?.as_bool();
                self.counters.int_ops += 1;
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
            SExpr::VectorLit(elems) => {
                let mut out = Vec::with_capacity(elems.len());
                for e in elems {
                    out.push(self.eval(e, group, thread)?);
                }
                Ok(GpuValue::Vector(out))
            }
        }
    }

    /// Evaluates an index expression while charging the cost counters in the same walk
    /// (the counts match `ArithExpr::op_count`/`div_mod_count`, which a naive implementation
    /// would recompute with two extra tree walks per evaluation — this runs per memory
    /// access in the innermost interpretation loop).
    fn eval_index_counting(&mut self, a: &SIndex, thread: &Thread) -> Result<i64, VgpuError> {
        match a {
            SIndex::Cst(c) => Ok(*c),
            SIndex::Var(slot) => thread.vals[*slot]
                .as_ref()
                .map(GpuValue::as_i64)
                .or_else(|| self.params[*slot].as_ref().map(GpuValue::as_i64))
                .ok_or_else(|| VgpuError::UnknownVariable(self.names[*slot].clone())),
            SIndex::Sum(ts) => {
                self.counters.int_ops += ts.len().saturating_sub(1) as u64;
                let mut acc = 0i64;
                for t in ts {
                    acc += self.eval_index_counting(t, thread)?;
                }
                Ok(acc)
            }
            SIndex::Prod(fs) => {
                self.counters.int_ops += fs.len().saturating_sub(1) as u64;
                let mut acc = 1i64;
                for f in fs {
                    acc *= self.eval_index_counting(f, thread)?;
                }
                Ok(acc)
            }
            SIndex::IntDiv(a, b) => {
                self.counters.div_mod_ops += 1;
                let b = self.eval_index_counting(b, thread)?;
                if b == 0 {
                    return Err(VgpuError::DivisionByZero);
                }
                Ok(self.eval_index_counting(a, thread)?.div_euclid(b))
            }
            SIndex::Mod(a, b) => {
                self.counters.div_mod_ops += 1;
                let b = self.eval_index_counting(b, thread)?;
                if b == 0 {
                    return Err(VgpuError::DivisionByZero);
                }
                Ok(self.eval_index_counting(a, thread)?.rem_euclid(b))
            }
            SIndex::Pow(b, e) => {
                self.counters.int_ops += u64::from(e.saturating_sub(1));
                Ok(self.eval_index_counting(b, thread)?.pow(*e))
            }
            SIndex::Min(a, b) => {
                self.counters.int_ops += 1;
                Ok(self
                    .eval_index_counting(a, thread)?
                    .min(self.eval_index_counting(b, thread)?))
            }
            SIndex::Max(a, b) => {
                self.counters.int_ops += 1;
                Ok(self
                    .eval_index_counting(a, thread)?
                    .max(self.eval_index_counting(b, thread)?))
            }
        }
    }

    fn eval_bin(&mut self, op: CBinOp, a: GpuValue, b: GpuValue) -> Result<GpuValue, VgpuError> {
        // Pointer arithmetic and comparison.
        if let Some(p) = a.as_ptr() {
            return Ok(match op {
                CBinOp::Add => GpuValue::Ptr(Ptr {
                    offset: p.offset + b.as_i64(),
                    ..p
                }),
                CBinOp::Sub => GpuValue::Ptr(Ptr {
                    offset: p.offset - b.as_i64(),
                    ..p
                }),
                CBinOp::Eq => GpuValue::Bool(Some(p) == b.as_ptr()),
                CBinOp::Ne => GpuValue::Bool(Some(p) != b.as_ptr()),
                _ => return Err(VgpuError::NotAPointer("invalid pointer operation".into())),
            });
        }
        // Lane-wise vector arithmetic.
        if let GpuValue::Vector(lanes_a) = &a {
            let out: Result<Vec<GpuValue>, VgpuError> = lanes_a
                .iter()
                .enumerate()
                .map(|(i, la)| {
                    let lb = match &b {
                        GpuValue::Vector(lanes_b) => lanes_b[i].clone(),
                        other => other.clone(),
                    };
                    self.eval_bin(op, la.clone(), lb)
                })
                .collect();
            return Ok(GpuValue::Vector(out?));
        }
        if let (GpuValue::Int(x), GpuValue::Int(y)) = (&a, &b) {
            let (x, y) = (*x, *y);
            return Ok(match op {
                CBinOp::Add | CBinOp::Sub | CBinOp::Mul => {
                    self.counters.int_ops += 1;
                    GpuValue::Int(match op {
                        CBinOp::Add => x + y,
                        CBinOp::Sub => x - y,
                        _ => x * y,
                    })
                }
                CBinOp::Div | CBinOp::Mod => {
                    self.counters.div_mod_ops += 1;
                    if y == 0 {
                        return Err(VgpuError::DivisionByZero);
                    }
                    GpuValue::Int(if op == CBinOp::Div {
                        x.div_euclid(y)
                    } else {
                        x.rem_euclid(y)
                    })
                }
                _ => {
                    self.counters.int_ops += 1;
                    GpuValue::Bool(compare(op, x as f64, y as f64))
                }
            });
        }
        // Mixed / floating point.
        let (x, y) = (a.as_f64(), b.as_f64());
        Ok(match op {
            CBinOp::Add | CBinOp::Sub | CBinOp::Mul | CBinOp::Div => {
                self.counters.flops += 1;
                GpuValue::Float(match op {
                    CBinOp::Add => x + y,
                    CBinOp::Sub => x - y,
                    CBinOp::Mul => x * y,
                    _ => x / y,
                })
            }
            CBinOp::Mod => {
                self.counters.div_mod_ops += 1;
                GpuValue::Float(x % y)
            }
            _ => {
                self.counters.int_ops += 1;
                GpuValue::Bool(compare(op, x, y))
            }
        })
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
    ) -> Result<GpuValue, VgpuError> {
        let addr = ptr.offset + idx;
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
                return Ok(GpuValue::Float(f64::from(value)));
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
        Ok(GpuValue::Float(f64::from(value)))
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
        let addr = ptr.offset + idx;
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
                    .as_ptr()
                    .ok_or_else(|| VgpuError::NotAPointer("array expression".to_string()))?;
                let idx = self.eval(idx, group, thread)?.as_i64();
                if !value.is_scalar() {
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

pub(crate) fn compare(op: CBinOp, x: f64, y: f64) -> bool {
    match op {
        CBinOp::Lt => x < y,
        CBinOp::Le => x <= y,
        CBinOp::Gt => x > y,
        CBinOp::Ge => x >= y,
        CBinOp::Eq => x == y,
        CBinOp::Ne => x != y,
        CBinOp::And => x != 0.0 && y != 0.0,
        CBinOp::Or => x != 0.0 || y != 0.0,
        _ => false,
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

fn vector_width(name: &str, prefix: &str) -> Option<usize> {
    name.strip_prefix(prefix)
        .and_then(|rest| rest.parse::<usize>().ok())
        .filter(|w| matches!(w, 2 | 4 | 8 | 16))
}

// The unit tests launch through `ExecutionRequest` with its default `EngineSelection::Auto`,
// so every one of these assertions doubles as differential coverage of the bytecode tier
// against the pinned expectations of the interpreter era.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineSelection, ExecutionRequest};
    use lift_ocl::{CFunction, CType, Fence, Kernel, KernelParam};

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
            body: vec![CStmt::Expr(CExpr::Call(
                "vstore4".into(),
                vec![
                    CExpr::Call("vload4".into(), vec![CExpr::global_id(0), CExpr::var("in")]),
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
                    body: vec![CStmt::Assign {
                        lhs: CExpr::var("regs").at(CExpr::var("i")),
                        rhs: CExpr::Cast(CType::Float, Box::new(CExpr::global_id(0))),
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
                            .add(CExpr::Cast(CType::Float, Box::new(CExpr::var("i")))),
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
        // to the same local cell: `tmp[l0] = in[g0] + (float)l1`. A detector that collapsed
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
                        .add(CExpr::Cast(CType::Float, Box::new(CExpr::local_id(1)))),
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
            let mut body = vec![CStmt::Assign {
                lhs: CExpr::var("tmp")
                    .at(CExpr::local_id(0).add(CExpr::var("i")).rem(CExpr::int(8))),
                rhs: CExpr::Cast(
                    CType::Float,
                    Box::new(CExpr::local_id(0).add(CExpr::int(1))),
                ),
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
                rhs: CExpr::Cast(
                    CType::Float,
                    Box::new(CExpr::group_id(0).add(CExpr::int(1))),
                ),
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
    fn race_detection_flag_is_visible() {
        let m = copy_kernel();
        assert!(!ExecutionRequest::new(&m).race_detection_enabled());
        assert!(ExecutionRequest::new(&m)
            .race_detection(true)
            .race_detection_enabled());
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
