//! The bytecode execution tier of the virtual GPU.
//!
//! [`compile`] translates a lowered slot-indexed kernel ([`SStmt`]/[`SExpr`], see
//! [`crate::exec`]) once per launch into a flat, register-file program; [`run`] executes it
//! over the ND-range with exactly the slotted interpreter's observable semantics — the same
//! [`crate::CostCounters`], the same coalescing analysis, the same bounds checks and the
//! same shadow-memory race/divergence detection, producing byte-identical buffers, counters
//! and [`VgpuError`] results.
//!
//! # Program shape
//!
//! A program is two instruction streams:
//!
//! * **Row ops** ([`RowOp`]) mirror the lock-step statement rows of the SIMT interpreter:
//!   each op loops over the work items of the group under the current activity mask, starts
//!   one lock-step row per statement (one per round for loop heads; the row is where a
//!   budget is checked) and flushes the coalescing window exactly where the interpreter
//!   does. Structured control flow becomes
//!   dense jumps over the row stream with an explicit mask stack (`If`/`Else`/`EndIf`,
//!   `ForInit`/`ForHead`/`ForStep`).
//! * **Expression ops** ([`EOp`]) are a register-file bytecode executed per work item. Index
//!   evaluation is fused into dedicated ops (`RAdd`/`RDivE`/…) that charge the interpreter's
//!   `int_ops`/`div_mod_ops` exactly; cost counters, pointer checks and memory instrumentation
//!   are explicit instructions (`Charge`, `PtrChk`, `Load`, `StoreChk`, …), so
//!   instrumentation is part of the ISA rather than a property of a tree walk.
//!
//! Registers are `u32` operands: bit 31 selects the per-thread *cell file* (persistent
//! variable slots, reset to a per-launch prototype at each work group), otherwise the operand
//! indexes the *scratch file* of the current row program. Work items run sequentially within
//! a row, and every scratch register is written before it is read within a program, so one
//! shared scratch file serves all threads. Aggregates (OpenCL short vectors and tuple
//! structs) are scalarised into consecutive registers at compile time.
//!
//! # Fallback
//!
//! [`compile`] is deliberately partial: constructs whose cell-file mapping cannot be proven
//! equivalent to the interpreter's name-resolution order (assignment to a field of a
//! variable, slots that are both `__local` arrays and scalar assignees, shape-changing
//! variables, recursive user functions, …) return an error string and the engine falls back
//! to the slotted interpreter for that launch. The Lift code generator never emits these
//! shapes; the fallback keeps the tier sound for hand-written modules.

use std::rc::Rc;

use lift_ocl::{AddrSpace, Builtin, CBinOp, CUnOp, WorkItem};

use crate::charge::{self, Charge};
use crate::exec::{
    compare, Exec, Group, Math1, Math2, SExpr, SFunction, SIndex, SLhs, SStmt, ShadowCell, Thread,
    VgpuError,
};
use crate::memory::{GpuValue, Ptr};

/// Register operand bit selecting the per-thread cell file over the scratch file.
const CELL_BIT: u32 = 1 << 31;
/// "Discard the result" destination marker for [`RowOp::Eval`].
const NO_DST: u32 = u32::MAX;

/// A runtime value of the bytecode tier: the scalar subset of [`GpuValue`] plus `None` for
/// cells that hold no value yet (the interpreter's unset `thread.vals` entry). Aggregates
/// never exist at runtime — they are scalarised into consecutive registers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum V {
    /// No value: reading this as a variable is [`VgpuError::UnknownVariable`].
    None,
    Float(f64),
    Int(i64),
    Bool(bool),
    Ptr(Ptr),
}

impl V {
    /// Mirrors [`GpuValue::as_f64`] (`None` converts like an aggregate).
    fn as_f64(self) -> f64 {
        match self {
            V::Float(v) => v,
            V::Int(v) => v as f64,
            V::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            V::Ptr(_) | V::None => f64::NAN,
        }
    }

    /// Mirrors [`GpuValue::as_i64`].
    fn as_i64(self) -> i64 {
        match self {
            V::Int(v) => v,
            V::Float(v) => v as i64,
            V::Bool(b) => i64::from(b),
            V::Ptr(_) | V::None => 0,
        }
    }

    /// Mirrors [`GpuValue::as_bool`].
    fn as_bool(self) -> bool {
        match self {
            V::Bool(b) => b,
            V::Int(v) => v != 0,
            V::Float(v) => v != 0.0,
            V::Ptr(_) | V::None => false,
        }
    }

    /// Mirrors [`GpuValue::as_ptr`].
    fn as_ptr(self) -> Option<Ptr> {
        match self {
            V::Ptr(p) => Some(p),
            _ => None,
        }
    }
}

/// The compile-time shape of an expression value: a single register or `n` consecutive
/// registers for a scalarised aggregate. Vectors and structs are tracked separately because
/// the interpreter's binary operations are lane-wise over vectors only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Scalar,
    Vector(u32),
    Struct(u32),
}

impl Shape {
    fn lanes(self) -> u32 {
        match self {
            Shape::Scalar => 1,
            Shape::Vector(n) | Shape::Struct(n) => n,
        }
    }

    fn is_scalar(self) -> bool {
        self == Shape::Scalar
    }
}

/// A compiled expression value: base register plus shape (aggregates occupy
/// `base..base + lanes`).
#[derive(Clone, Copy)]
struct Val {
    base: u32,
    shape: Shape,
}

impl Val {
    fn scalar(base: u32) -> Val {
        Val {
            base,
            shape: Shape::Scalar,
        }
    }
}

/// Expression bytecode, executed per work item within a row. Destinations are always scratch
/// registers; sources may carry [`CELL_BIT`]. Jump targets are relative to the row program.
#[derive(Clone, Copy)]
enum EOp {
    IntC {
        dst: u32,
        v: i64,
    },
    FloatC {
        dst: u32,
        v: f64,
    },
    BoolC {
        dst: u32,
        v: bool,
    },
    Mov {
        dst: u32,
        src: u32,
    },
    /// Errors with [`VgpuError::UnknownVariable`] if the cell holds no value.
    SlotChk {
        cell: u32,
        slot: u32,
    },
    /// `dst = Int(src.as_i64())` — a variable read in index position.
    IdxOf {
        dst: u32,
        src: u32,
    },
    /// The interpreter's `eval_bin` on two scalar values, charging by the runtime path.
    Bin {
        op: CBinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Neg {
        dst: u32,
        src: u32,
    },
    WorkItem {
        kind: WorkItem,
        dst: u32,
        dim: u32,
    },
    Math1 {
        f: Math1,
        dst: u32,
        src: u32,
    },
    Math2 {
        f: Math2,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// An index-expression node's or a ternary condition's [`Charge`]; a division's is
    /// charged before the divisor evaluates (interpreter order).
    Charge {
        charge: Charge,
    },
    /// `vector_accesses += width` after a `vload`/`vstore`.
    ChargeVec {
        width: u64,
    },
    /// Errors with [`VgpuError::DivisionByZero`] if the register is integer zero.
    ZChk {
        src: u32,
    },
    /// Fused index ops over `i64` (`Int` registers).
    RAdd {
        dst: u32,
        a: u32,
        b: u32,
    },
    RMul {
        dst: u32,
        a: u32,
        b: u32,
    },
    RDivE {
        dst: u32,
        a: u32,
        b: u32,
    },
    RRemE {
        dst: u32,
        a: u32,
        b: u32,
    },
    RPow {
        dst: u32,
        src: u32,
        e: u32,
    },
    RMin {
        dst: u32,
        a: u32,
        b: u32,
    },
    RMax {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Errors with the table entry if the register does not hold a pointer.
    PtrChk {
        src: u32,
        err: u32,
    },
    /// Width-1 load through [`Exec::load`] (bounds, counters, coalescing log, race checks).
    Load {
        dst: u32,
        ptr: u32,
        idx: u32,
    },
    /// One lane of a `vload{width}`: loads `idx * width + lane` at the vector width.
    LoadLane {
        dst: u32,
        ptr: u32,
        idx: u32,
        width: u32,
        lane: u32,
    },
    /// Width-1 store; errors with the table entry if the value is not scalar.
    StoreChk {
        ptr: u32,
        idx: u32,
        val: u32,
        err: u32,
    },
    /// One lane of a `vstore{width}`.
    StoreLane {
        ptr: u32,
        idx: u32,
        val: u32,
        width: u32,
        lane: u32,
    },
    /// Jump if the condition register is false (`as_bool`).
    Jz {
        cond: u32,
        target: u32,
    },
    Jmp {
        target: u32,
    },
    /// Unconditional error from the table (unknown function, invalid store, …).
    Fail {
        err: u32,
    },
}

/// Row-level ops: each handles the per-thread loop of one lock-step statement row.
#[derive(Clone, Copy)]
enum RowOp {
    Barrier,
    /// Group-wide `__local` allocation; writes the pointer into every thread's cell.
    DeclLocal {
        cell: u32,
        len: usize,
        slot: u32,
    },
    /// Per-active-thread private allocation.
    DeclPrivate {
        cell: u32,
        len: usize,
    },
    /// `DeclScalar` without initialiser: cell = `Float(0.0)` per active thread.
    ZeroCell {
        cell: u32,
    },
    /// Run a row program per active thread; copy `lanes` registers from `src` into the cell
    /// file at `dst` ([`NO_DST`] discards). Flushes the coalescing window afterwards.
    Eval {
        start: u32,
        len: u32,
        src: u32,
        dst: u32,
        lanes: u32,
    },
    /// Evaluate the condition per active thread (charging `int_ops`) and push the then-mask
    /// if any thread took it or the `if` has an `else` (whose row pops it); jump to
    /// `else_pc` if no thread took it.
    If {
        start: u32,
        len: u32,
        cond: u32,
        else_pc: usize,
        has_else: bool,
    },
    /// Pop the then-mask, push the saved else-mask if any thread holds it, else jump to
    /// `end_pc`.
    Else {
        end_pc: usize,
    },
    /// Pop the branch mask.
    EndIf,
    /// Evaluate the loop initialiser into the loop-variable cell.
    ForInit {
        start: u32,
        len: u32,
        src: u32,
        cell: u32,
    },
    /// One loop round: charge a row, evaluate the condition per active thread, push the
    /// iteration mask or exit to `end_pc`.
    ForHead {
        start: u32,
        len: u32,
        cond: u32,
        end_pc: usize,
    },
    /// Advance the loop variable per iterating thread, pop the iteration mask, jump back.
    ForStep {
        start: u32,
        len: u32,
        src: u32,
        cell: u32,
        slot: u32,
        head_pc: usize,
    },
    /// Charge the statement row, then raise the table error (e.g. an unresolvable
    /// `__local` length, raised at execution position like the interpreter).
    Fail {
        err: u32,
    },
}

/// A compiled kernel body: row stream, expression code, error table, the per-thread cell
/// prototype (kernel parameters pre-merged) and the scratch-file size.
pub(crate) struct Program {
    rows: Vec<RowOp>,
    code: Vec<EOp>,
    errors: Vec<VgpuError>,
    proto: Vec<V>,
    n_scratch: u32,
}

// ----------------------------------------------------------------------------- compilation

/// Per-slot cell-file mapping.
#[derive(Clone, Copy)]
struct CellInfo {
    base: u32,
    shape: Shape,
    /// The cell can never hold `None` at runtime (a kernel parameter is merged into the
    /// prototype), so reads skip the [`EOp::SlotChk`].
    nonnull: bool,
}

struct Compiler<'a> {
    exec: &'a Exec,
    rows: Vec<RowOp>,
    code: Vec<EOp>,
    errors: Vec<VgpuError>,
    cells: Vec<Option<CellInfo>>,
    n_cell_regs: u32,
    proto: Vec<V>,
    /// Start of the current row program in `code` (jump targets are relative to it).
    prog_start: usize,
    scratch_top: u32,
    max_scratch: u32,
    /// Slots declared as `__local` arrays (their reads in index position are unsupported).
    local_decl: Vec<bool>,
    /// Inlining stack of user-function indices (recursion is unsupported).
    fn_stack: Vec<usize>,
    /// Substitution stack for inlined user-function parameters (innermost binding last).
    subst: Vec<(usize, Val)>,
}

/// Compiles a lowered kernel body against its prepared launch state. Returns a reason string
/// for constructs the bytecode tier does not support (the engine falls back to the
/// interpreter).
pub(crate) fn compile(body: &[SStmt], exec: &Exec) -> Result<Program, String> {
    let nslots = exec.names.len();
    let local_decl = prescan(body, nslots, exec)?;
    let mut c = Compiler {
        exec,
        rows: Vec::new(),
        code: Vec::new(),
        errors: Vec::new(),
        cells: vec![None; nslots],
        n_cell_regs: 0,
        proto: Vec::new(),
        prog_start: 0,
        scratch_top: 0,
        max_scratch: 0,
        local_decl,
        fn_stack: Vec::new(),
        subst: Vec::new(),
    };
    c.block(body)?;
    Ok(Program {
        rows: c.rows,
        code: c.code,
        errors: c.errors,
        proto: c.proto,
        n_scratch: c.max_scratch,
    })
}

/// Collects `__local`-declared slots and rejects bodies whose slot usage cannot be mapped to
/// a single cell per slot: a slot that is both a `__local` array and a scalar assignee would
/// need the interpreter's two-level name resolution, and field assignment mutates only part
/// of a value.
fn prescan(body: &[SStmt], nslots: usize, exec: &Exec) -> Result<Vec<bool>, String> {
    let (mut local, mut assigned, mut field) = (vec![false; nslots], vec![false; nslots], false);
    SStmt::walk(body, &mut |s| {
        if let SStmt::DeclLocalArray { slot, .. } = s {
            local[*slot] = true;
        }
        field |= matches!(
            s,
            SStmt::Assign {
                lhs: SLhs::FieldOfVar(..),
                ..
            }
        );
        if let Some(slot) = s.assigned() {
            assigned[slot] = true;
        }
    });
    if field {
        return Err("assignment to a field of a variable".to_string());
    }
    for slot in 0..nslots {
        if local[slot] && assigned[slot] {
            return Err(format!(
                "slot `{}` is both a __local array and an assigned variable",
                exec.names[slot]
            ));
        }
    }
    Ok(local)
}

impl Compiler<'_> {
    fn emit(&mut self, op: EOp) {
        self.code.push(op);
    }

    /// Allocates `n` consecutive scratch registers of the current row program.
    fn sn(&mut self, n: u32) -> u32 {
        let base = self.scratch_top;
        self.scratch_top += n;
        self.max_scratch = self.max_scratch.max(self.scratch_top);
        base
    }

    fn s1(&mut self) -> u32 {
        self.sn(1)
    }

    fn intc(&mut self, v: i64) -> u32 {
        let dst = self.s1();
        self.emit(EOp::IntC { dst, v });
        dst
    }

    fn floatc(&mut self, v: f64) -> u32 {
        let dst = self.s1();
        self.emit(EOp::FloatC { dst, v });
        dst
    }

    fn boolc(&mut self, v: bool) -> u32 {
        let dst = self.s1();
        self.emit(EOp::BoolC { dst, v });
        dst
    }

    fn errid(&mut self, e: VgpuError) -> u32 {
        if let Some(i) = self.errors.iter().position(|x| *x == e) {
            return i as u32;
        }
        self.errors.push(e);
        (self.errors.len() - 1) as u32
    }

    fn fail(&mut self, e: VgpuError) {
        let err = self.errid(e);
        self.emit(EOp::Fail { err });
    }

    /// Registers for a value that is never produced at runtime (code after an
    /// unconditional [`EOp::Fail`]).
    fn dummy(&mut self, shape: Shape) -> Val {
        Val {
            base: self.sn(shape.lanes()),
            shape,
        }
    }

    /// A register usable in `as_f64`/`as_i64`/`as_ptr` position: aggregates convert exactly
    /// like a `Float(NaN)` placeholder (`NaN`, `0`, `None` respectively).
    fn num(&mut self, v: Val) -> u32 {
        if v.shape.is_scalar() {
            v.base
        } else {
            self.floatc(f64::NAN)
        }
    }

    /// A register usable in `as_bool` position: aggregates read as `false`.
    fn cond(&mut self, v: Val) -> u32 {
        if v.shape.is_scalar() {
            v.base
        } else {
            self.boolc(false)
        }
    }

    fn movn(&mut self, dst: u32, src: u32, n: u32) {
        for k in 0..n {
            self.emit(EOp::Mov {
                dst: dst + k,
                src: src + k,
            });
        }
    }

    /// Begins a row program: resets the scratch allocator and records the start for
    /// relative jump targets; returns `(start, len, result)`.
    fn row_prog<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<(u32, u32, T), String> {
        let start = self.code.len();
        self.prog_start = start;
        self.scratch_top = 0;
        let out = f(self)?;
        Ok((start as u32, (self.code.len() - start) as u32, out))
    }

    /// The cell of `slot`, allocating on first touch. `want` enforces a shape (assignments,
    /// declarations); reads pass `None` and default to scalar. Kernel parameters are merged
    /// into the prototype, making the cell provably non-`None`.
    fn cell(&mut self, slot: usize, want: Option<Shape>) -> Result<CellInfo, String> {
        if let Some(info) = self.cells[slot] {
            if let Some(w) = want {
                if w != info.shape {
                    return Err(format!(
                        "slot `{}` changes shape during execution",
                        self.exec.names[slot]
                    ));
                }
            }
            return Ok(info);
        }
        let shape = want.unwrap_or(Shape::Scalar);
        let base = self.n_cell_regs;
        let lanes = shape.lanes();
        self.n_cell_regs += lanes;
        let param = self.exec.params[slot].as_ref();
        let nonnull = if shape.is_scalar() {
            match param {
                Some(p) => {
                    let v = match p {
                        GpuValue::Float(v) => V::Float(*v),
                        GpuValue::Int(v) => V::Int(*v),
                        GpuValue::Bool(b) => V::Bool(*b),
                        GpuValue::Ptr(p) => V::Ptr(*p),
                        GpuValue::Vector(_) | GpuValue::Struct(_) => {
                            return Err(format!(
                                "aggregate kernel parameter `{}`",
                                self.exec.names[slot]
                            ))
                        }
                    };
                    self.proto.push(v);
                    true
                }
                None => {
                    self.proto.push(V::None);
                    false
                }
            }
        } else {
            if param.is_some() {
                return Err(format!(
                    "slot `{}` shadows a kernel parameter with an aggregate",
                    self.exec.names[slot]
                ));
            }
            for _ in 0..lanes {
                self.proto.push(V::None);
            }
            false
        };
        let info = CellInfo {
            base,
            shape,
            nonnull,
        };
        self.cells[slot] = Some(info);
        Ok(info)
    }

    fn lookup_subst(&self, slot: usize) -> Option<Val> {
        self.subst
            .iter()
            .rev()
            .find(|(s, _)| *s == slot)
            .map(|(_, v)| *v)
    }

    /// A variable read in value position: inlined function parameters first, then the cell
    /// file (checked against `None` unless a parameter guarantees a value). The cell merges
    /// the interpreter's `thread.vals` → `__local` pointer → kernel parameter resolution
    /// order, which is sound because every defining construct writes the cell.
    fn read_var(&mut self, slot: usize) -> Result<Val, String> {
        if let Some(v) = self.lookup_subst(slot) {
            return Ok(v);
        }
        let info = self.cell(slot, None)?;
        if !info.nonnull {
            self.emit(EOp::SlotChk {
                cell: info.base,
                slot: slot as u32,
            });
        }
        Ok(Val {
            base: info.base | CELL_BIT,
            shape: info.shape,
        })
    }

    /// A variable read in index position. The interpreter resolves `thread.vals` then kernel
    /// parameters — skipping `__local` arrays — so local-array slots are unsupported here.
    fn read_idx_var(&mut self, slot: usize) -> Result<u32, String> {
        if let Some(v) = self.lookup_subst(slot) {
            if !v.shape.is_scalar() {
                // An aggregate value reads as integer 0, like `GpuValue::as_i64`.
                return Ok(self.intc(0));
            }
            let dst = self.s1();
            self.emit(EOp::IdxOf { dst, src: v.base });
            return Ok(dst);
        }
        if self.local_decl[slot] {
            return Err(format!(
                "__local array `{}` read in index position",
                self.exec.names[slot]
            ));
        }
        let info = self.cell(slot, None)?;
        if !info.nonnull {
            self.emit(EOp::SlotChk {
                cell: info.base,
                slot: slot as u32,
            });
        }
        if !info.shape.is_scalar() {
            return Ok(self.intc(0));
        }
        let dst = self.s1();
        self.emit(EOp::IdxOf {
            dst,
            src: info.base | CELL_BIT,
        });
        Ok(dst)
    }

    /// Compiles an inlined function's locals in order, each substituted by the registers
    /// of its initialiser, then its returned body (the parameters are already substituted).
    fn inline_locals_and_body(&mut self, fun: &SFunction) -> Result<Val, String> {
        for (slot, init) in &fun.locals {
            let v = self.expr(init)?;
            self.subst.push((*slot, v));
        }
        self.expr(&fun.body)
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &SExpr) -> Result<Val, String> {
        match e {
            SExpr::Int(v) => Ok(Val::scalar(self.intc(*v))),
            SExpr::Float(v) => Ok(Val::scalar(self.floatc(*v))),
            SExpr::Var(slot) => self.read_var(*slot),
            SExpr::Index(a) => Ok(Val::scalar(self.index(a)?)),
            SExpr::Bin(op, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                match (va.shape, vb.shape) {
                    // Lane-wise only when the left operand is a vector (interpreter rule).
                    (Shape::Vector(n), Shape::Vector(m)) => {
                        if m < n {
                            return Err("vector operands of mismatched width".to_string());
                        }
                        let dst = self.sn(n);
                        for i in 0..n {
                            self.emit(EOp::Bin {
                                op: *op,
                                dst: dst + i,
                                a: va.base + i,
                                b: vb.base + i,
                            });
                        }
                        Ok(Val {
                            base: dst,
                            shape: Shape::Vector(n),
                        })
                    }
                    (Shape::Vector(n), _) => {
                        let rb = self.num(vb);
                        let dst = self.sn(n);
                        for i in 0..n {
                            self.emit(EOp::Bin {
                                op: *op,
                                dst: dst + i,
                                a: va.base + i,
                                b: rb,
                            });
                        }
                        Ok(Val {
                            base: dst,
                            shape: Shape::Vector(n),
                        })
                    }
                    _ => {
                        let ra = self.num(va);
                        let rb = self.num(vb);
                        let dst = self.s1();
                        self.emit(EOp::Bin {
                            op: *op,
                            dst,
                            a: ra,
                            b: rb,
                        });
                        Ok(Val::scalar(dst))
                    }
                }
            }
            SExpr::Un(CUnOp::Neg, a) => {
                let va = self.expr(a)?;
                let dst = self.s1();
                let src = self.num(va);
                self.emit(EOp::Neg { dst, src });
                Ok(Val::scalar(dst))
            }
            SExpr::WorkItem(kind, dim) => {
                let vd = self.expr(dim)?;
                let dim = self.num(vd);
                let dst = self.s1();
                self.emit(EOp::WorkItem {
                    kind: *kind,
                    dst,
                    dim,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::VLoad(width, idx, ptr) => {
                let w = *width as u32;
                let vi = self.expr(idx)?;
                let ri = self.num(vi);
                let vp = self.expr(ptr)?;
                let not_a_pointer = VgpuError::NotAPointer(Builtin::VLoad(*width).to_string());
                if !vp.shape.is_scalar() {
                    self.fail(not_a_pointer);
                    return Ok(self.dummy(Shape::Vector(w)));
                }
                let err = self.errid(not_a_pointer);
                self.emit(EOp::PtrChk { src: vp.base, err });
                let dst = self.sn(w);
                for lane in 0..w {
                    self.emit(EOp::LoadLane {
                        dst: dst + lane,
                        ptr: vp.base,
                        idx: ri,
                        width: w,
                        lane,
                    });
                }
                self.emit(EOp::ChargeVec {
                    width: *width as u64,
                });
                Ok(Val {
                    base: dst,
                    shape: Shape::Vector(w),
                })
            }
            SExpr::VStore(width, value, idx, ptr) => {
                let w = *width as u32;
                let vv = self.expr(value)?;
                // A vector value stores its own lanes; anything else is broadcast `width`
                // times (a struct converts to NaN, like the interpreter's `as_f64`).
                let (lane_base, nlanes, broadcast) = match vv.shape {
                    Shape::Vector(n) => (vv.base, n, false),
                    Shape::Struct(_) => (self.floatc(f64::NAN), w, true),
                    Shape::Scalar => (vv.base, w, true),
                };
                let vi = self.expr(idx)?;
                let ri = self.num(vi);
                let vp = self.expr(ptr)?;
                let not_a_pointer = VgpuError::NotAPointer(Builtin::VStore(*width).to_string());
                if !vp.shape.is_scalar() {
                    self.fail(not_a_pointer);
                    return Ok(self.dummy(Shape::Scalar));
                }
                let err = self.errid(not_a_pointer);
                self.emit(EOp::PtrChk { src: vp.base, err });
                for lane in 0..nlanes {
                    self.emit(EOp::StoreLane {
                        ptr: vp.base,
                        idx: ri,
                        val: if broadcast {
                            lane_base
                        } else {
                            lane_base + lane
                        },
                        width: w,
                        lane,
                    });
                }
                self.emit(EOp::ChargeVec {
                    width: *width as u64,
                });
                Ok(Val::scalar(self.intc(0)))
            }
            SExpr::Math1(f, a) => {
                let va = self.expr(a)?;
                let src = self.num(va);
                let dst = self.s1();
                self.emit(EOp::Math1 { f: *f, dst, src });
                Ok(Val::scalar(dst))
            }
            SExpr::Math2(f, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                let ra = self.num(va);
                let rb = self.num(vb);
                let dst = self.s1();
                self.emit(EOp::Math2 {
                    f: *f,
                    dst,
                    a: ra,
                    b: rb,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::CallFun(fidx, args) => {
                let fun = Rc::clone(&self.exec.functions[*fidx]);
                if fun.params.len() != args.len() {
                    self.fail(VgpuError::ArgumentMismatch {
                        expected: fun.params.len(),
                        found: args.len(),
                    });
                    return Ok(self.dummy(Shape::Scalar));
                }
                if self.fn_stack.contains(fidx) {
                    return Err("recursive user function".to_string());
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a)?);
                }
                // Inline the body with parameters substituted by the argument registers and
                // each local by the registers of its initialiser, in order — the
                // compile-time image of the interpreter's save/bind/restore.
                let mark = self.subst.len();
                for (s, v) in fun.params.iter().zip(vals) {
                    self.subst.push((*s, v));
                }
                self.fn_stack.push(*fidx);
                let out = self.inline_locals_and_body(&fun);
                self.fn_stack.pop();
                self.subst.truncate(mark);
                out
            }
            SExpr::Fail(e) => {
                self.fail((**e).clone());
                Ok(self.dummy(Shape::Scalar))
            }
            SExpr::ArrayAccess(arr, idx) => {
                let va = self.expr(arr)?;
                if !va.shape.is_scalar() {
                    self.fail(array_not_a_pointer());
                    return Ok(self.dummy(Shape::Scalar));
                }
                let err = self.errid(array_not_a_pointer());
                self.emit(EOp::PtrChk { src: va.base, err });
                let vi = self.expr(idx)?;
                let ri = self.num(vi);
                let dst = self.s1();
                self.emit(EOp::Load {
                    dst,
                    ptr: va.base,
                    idx: ri,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::Field(obj, idx, field) => {
                let vo = self.expr(obj)?;
                match vo.shape {
                    Shape::Struct(n) | Shape::Vector(n) => {
                        if (*idx as u32) < n {
                            Ok(Val::scalar(vo.base + *idx as u32))
                        } else {
                            self.fail(VgpuError::UnknownVariable(format!("field {field}")));
                            Ok(self.dummy(Shape::Scalar))
                        }
                    }
                    // Projecting a field out of a scalar passes the value through.
                    Shape::Scalar => Ok(vo),
                }
            }
            SExpr::Ternary(c, t, other) => {
                let vc = self.expr(c)?;
                let rc = self.cond(vc);
                self.emit(EOp::Charge {
                    charge: charge::CONTROL,
                });
                let jz_at = self.code.len();
                self.emit(EOp::Jz {
                    cond: rc,
                    target: 0,
                });
                let vt = self.expr(t)?;
                let lanes = vt.shape.lanes();
                let res = self.sn(lanes);
                self.movn(res, vt.base, lanes);
                let jmp_at = self.code.len();
                self.emit(EOp::Jmp { target: 0 });
                let else_target = (self.code.len() - self.prog_start) as u32;
                if let EOp::Jz { target, .. } = &mut self.code[jz_at] {
                    *target = else_target;
                }
                let ve = self.expr(other)?;
                if ve.shape != vt.shape {
                    return Err("ternary branches of different shapes".to_string());
                }
                self.movn(res, ve.base, lanes);
                let end_target = (self.code.len() - self.prog_start) as u32;
                if let EOp::Jmp { target } = &mut self.code[jmp_at] {
                    *target = end_target;
                }
                Ok(Val {
                    base: res,
                    shape: vt.shape,
                })
            }
            SExpr::StructLit(fields) => {
                let parts = self.scalar_parts(fields)?;
                let n = parts.len() as u32;
                let dst = self.sn(n);
                for (k, r) in parts.into_iter().enumerate() {
                    self.emit(EOp::Mov {
                        dst: dst + k as u32,
                        src: r,
                    });
                }
                Ok(Val {
                    base: dst,
                    shape: Shape::Struct(n),
                })
            }
        }
    }

    /// Evaluates literal aggregate elements left to right; nested aggregates are
    /// unsupported.
    fn scalar_parts(&mut self, elems: &[SExpr]) -> Result<Vec<u32>, String> {
        let mut parts = Vec::with_capacity(elems.len());
        for e in elems {
            let v = self.expr(e)?;
            if !v.shape.is_scalar() {
                return Err("nested aggregate literal".to_string());
            }
            parts.push(v.base);
        }
        Ok(parts)
    }

    /// Compiles an index expression, charging `int_ops`/`div_mod_ops` exactly where the
    /// interpreter's counting walk does.
    fn index(&mut self, a: &SIndex) -> Result<u32, String> {
        let charge = charge::index(a);
        if charge.n > 0 {
            self.emit(EOp::Charge { charge });
        }
        match a {
            SIndex::Cst(c) => Ok(self.intc(*c)),
            SIndex::Var(slot) => self.read_idx_var(*slot),
            SIndex::Sum(ts) => {
                if ts.is_empty() {
                    return Ok(self.intc(0));
                }
                let mut acc = self.index(&ts[0])?;
                for t in &ts[1..] {
                    let r = self.index(t)?;
                    let dst = self.s1();
                    self.emit(EOp::RAdd { dst, a: acc, b: r });
                    acc = dst;
                }
                Ok(acc)
            }
            SIndex::Prod(fs) => {
                if fs.is_empty() {
                    return Ok(self.intc(1));
                }
                let mut acc = self.index(&fs[0])?;
                for f in &fs[1..] {
                    let r = self.index(f)?;
                    let dst = self.s1();
                    self.emit(EOp::RMul { dst, a: acc, b: r });
                    acc = dst;
                }
                Ok(acc)
            }
            SIndex::IntDiv(a, b) => {
                let rb = self.index(b)?;
                self.emit(EOp::ZChk { src: rb });
                let ra = self.index(a)?;
                let dst = self.s1();
                self.emit(EOp::RDivE { dst, a: ra, b: rb });
                Ok(dst)
            }
            SIndex::Mod(a, b) => {
                let rb = self.index(b)?;
                self.emit(EOp::ZChk { src: rb });
                let ra = self.index(a)?;
                let dst = self.s1();
                self.emit(EOp::RRemE { dst, a: ra, b: rb });
                Ok(dst)
            }
            SIndex::Pow(b, e) => {
                let src = self.index(b)?;
                let dst = self.s1();
                self.emit(EOp::RPow { dst, src, e: *e });
                Ok(dst)
            }
            SIndex::Min(a, b) => {
                let ra = self.index(a)?;
                let rb = self.index(b)?;
                let dst = self.s1();
                self.emit(EOp::RMin { dst, a: ra, b: rb });
                Ok(dst)
            }
            SIndex::Max(a, b) => {
                let ra = self.index(a)?;
                let rb = self.index(b)?;
                let dst = self.s1();
                self.emit(EOp::RMax { dst, a: ra, b: rb });
                Ok(dst)
            }
        }
    }

    fn block(&mut self, stmts: &[SStmt]) -> Result<(), String> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &SStmt) -> Result<(), String> {
        match s {
            SStmt::Block(ss) => self.block(ss),
            SStmt::Barrier => {
                self.rows.push(RowOp::Barrier);
                Ok(())
            }
            SStmt::DeclLocalArray { slot, len } => {
                // Lengths are launch-invariant (they resolve against kernel arguments
                // only), so resolve once here; failures are raised at execution position.
                match self.exec.resolve_len(len) {
                    Ok(l) => {
                        let info = self.cell(*slot, Some(Shape::Scalar))?;
                        self.rows.push(RowOp::DeclLocal {
                            cell: info.base,
                            len: l,
                            slot: *slot as u32,
                        });
                    }
                    Err(e) => {
                        let err = self.errid(e);
                        self.rows.push(RowOp::Fail { err });
                    }
                }
                Ok(())
            }
            SStmt::DeclPrivateArray { slot, len } => {
                match self.exec.resolve_len(len) {
                    Ok(l) => {
                        let info = self.cell(*slot, Some(Shape::Scalar))?;
                        self.rows.push(RowOp::DeclPrivate {
                            cell: info.base,
                            len: l,
                        });
                    }
                    Err(e) => {
                        let err = self.errid(e);
                        self.rows.push(RowOp::Fail { err });
                    }
                }
                Ok(())
            }
            SStmt::DeclScalar { slot, init } => {
                match init {
                    None => {
                        let info = self.cell(*slot, Some(Shape::Scalar))?;
                        self.rows.push(RowOp::ZeroCell { cell: info.base });
                    }
                    Some(e) => {
                        let (start, len, v) = self.row_prog(|c| c.expr(e))?;
                        let info = self.cell(*slot, Some(v.shape))?;
                        self.rows.push(RowOp::Eval {
                            start,
                            len,
                            src: v.base,
                            dst: info.base,
                            lanes: v.shape.lanes(),
                        });
                    }
                }
                Ok(())
            }
            SStmt::Assign { lhs, rhs } => match lhs {
                SLhs::Var(slot) => {
                    let (start, len, v) = self.row_prog(|c| c.expr(rhs))?;
                    let info = self.cell(*slot, Some(v.shape))?;
                    self.rows.push(RowOp::Eval {
                        start,
                        len,
                        src: v.base,
                        dst: info.base,
                        lanes: v.shape.lanes(),
                    });
                    Ok(())
                }
                SLhs::Array(arr, idx) => {
                    let (start, len, ()) = self.row_prog(|c| {
                        let vr = c.expr(rhs)?;
                        let va = c.expr(arr)?;
                        if !va.shape.is_scalar() {
                            c.fail(array_not_a_pointer());
                            return Ok(());
                        }
                        let err = c.errid(array_not_a_pointer());
                        c.emit(EOp::PtrChk { src: va.base, err });
                        let vi = c.expr(idx)?;
                        let ri = c.num(vi);
                        if vr.shape.is_scalar() {
                            let err = c.errid(VgpuError::InvalidStore("array element".to_string()));
                            c.emit(EOp::StoreChk {
                                ptr: va.base,
                                idx: ri,
                                val: vr.base,
                                err,
                            });
                        } else {
                            // Aggregates are never scalar stores.
                            c.fail(VgpuError::InvalidStore("array element".to_string()));
                        }
                        Ok(())
                    })?;
                    self.rows.push(RowOp::Eval {
                        start,
                        len,
                        src: 0,
                        dst: NO_DST,
                        lanes: 0,
                    });
                    Ok(())
                }
                SLhs::FieldOfVar(..) => Err("assignment to a field of a variable".to_string()),
                SLhs::Invalid(rendering) => {
                    let (start, len, ()) = self.row_prog(|c| {
                        c.expr(rhs)?;
                        c.fail(VgpuError::InvalidStore(rendering.clone()));
                        Ok(())
                    })?;
                    self.rows.push(RowOp::Eval {
                        start,
                        len,
                        src: 0,
                        dst: NO_DST,
                        lanes: 0,
                    });
                    Ok(())
                }
            },
            SStmt::Expr(e) => {
                let (start, len, _) = self.row_prog(|c| c.expr(e))?;
                self.rows.push(RowOp::Eval {
                    start,
                    len,
                    src: 0,
                    dst: NO_DST,
                    lanes: 0,
                });
                Ok(())
            }
            SStmt::If {
                cond,
                then,
                otherwise,
            } => {
                let (start, len, rc) = self.row_prog(|c| {
                    let v = c.expr(cond)?;
                    Ok(c.cond(v))
                })?;
                let if_at = self.rows.len();
                self.rows.push(RowOp::If {
                    start,
                    len,
                    cond: rc,
                    else_pc: 0,
                    has_else: otherwise.is_some(),
                });
                self.block(then)?;
                if let Some(ow) = otherwise {
                    let else_at = self.rows.len();
                    self.rows.push(RowOp::Else { end_pc: 0 });
                    self.block(ow)?;
                    let endif_at = self.rows.len();
                    self.rows.push(RowOp::EndIf);
                    if let RowOp::If { else_pc, .. } = &mut self.rows[if_at] {
                        *else_pc = else_at;
                    }
                    if let RowOp::Else { end_pc } = &mut self.rows[else_at] {
                        *end_pc = endif_at + 1;
                    }
                } else {
                    let endif_at = self.rows.len();
                    self.rows.push(RowOp::EndIf);
                    if let RowOp::If { else_pc, .. } = &mut self.rows[if_at] {
                        *else_pc = endif_at + 1;
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
                let (istart, ilen, vi) = self.row_prog(|c| c.expr(init))?;
                if !vi.shape.is_scalar() {
                    return Err("aggregate loop variable".to_string());
                }
                let info = self.cell(*slot, Some(Shape::Scalar))?;
                self.rows.push(RowOp::ForInit {
                    start: istart,
                    len: ilen,
                    src: vi.base,
                    cell: info.base,
                });
                let head_at = self.rows.len();
                let (cstart, clen, rc) = self.row_prog(|c| {
                    let v = c.expr(cond)?;
                    Ok(c.cond(v))
                })?;
                self.rows.push(RowOp::ForHead {
                    start: cstart,
                    len: clen,
                    cond: rc,
                    end_pc: 0,
                });
                self.block(body)?;
                let (sstart, slen, rs) = self.row_prog(|c| {
                    let v = c.expr(step)?;
                    Ok(c.num(v))
                })?;
                self.rows.push(RowOp::ForStep {
                    start: sstart,
                    len: slen,
                    src: rs,
                    cell: info.base,
                    slot: *slot as u32,
                    head_pc: head_at,
                });
                let after = self.rows.len();
                if let RowOp::ForHead { end_pc, .. } = &mut self.rows[head_at] {
                    *end_pc = after;
                }
                Ok(())
            }
        }
    }
}

// ------------------------------------------------------------------------------- execution

#[inline(always)]
fn rd(r: u32, cells: &[V], scratch: &[V]) -> V {
    if r & CELL_BIT != 0 {
        cells[(r ^ CELL_BIT) as usize]
    } else {
        scratch[r as usize]
    }
}

/// Reads the pointer operand of a memory op. The `PtrChk` compiled before every memory op
/// has already raised `error` for an operand that holds no pointer, so the error arm only
/// restates that check.
#[inline(always)]
fn rd_ptr(
    r: u32,
    cells: &[V],
    scratch: &[V],
    error: impl FnOnce() -> VgpuError,
) -> Result<Ptr, VgpuError> {
    rd(r, cells, scratch).as_ptr().ok_or_else(error)
}

/// The error of an array access or array-element store through a non-pointer.
fn array_not_a_pointer() -> VgpuError {
    VgpuError::NotAPointer("array expression".to_string())
}

/// Executes a compiled program against prepared launch state, mirroring the interpreter's
/// group/thread iteration order, mask discipline and counter placement exactly.
pub(crate) fn run(exec: &mut Exec, prog: &Program) -> Result<(), VgpuError> {
    let groups = exec.config.num_groups();
    let local = exec.config.local;
    let n: usize = local.iter().product();
    let ncells = prog.proto.len();

    let mut threads: Vec<Thread> = Vec::with_capacity(n);
    for lz in 0..local[2] {
        for ly in 0..local[1] {
            for lx in 0..local[0] {
                threads.push(Thread {
                    lid: [lx, ly, lz],
                    gid: [0, 0, 0],
                    linear: lx + local[0] * (ly + local[1] * lz),
                    vals: Vec::new(),
                    private: Vec::new(),
                });
            }
        }
    }

    let mut vm = Vm {
        prog,
        n,
        ncells,
        cells: vec![V::None; ncells * n],
        scratch: vec![V::None; prog.n_scratch as usize],
        masks: Vec::with_capacity(n * 4),
        else_masks: Vec::new(),
        tm: vec![false; n],
        em: vec![false; n],
        threads,
    };

    for gz in 0..groups[2] {
        for gy in 0..groups[1] {
            for gx in 0..groups[0] {
                let mut group = Group {
                    id: [gx, gy, gz],
                    linear: gx + groups[0] * (gy + groups[1] * gz),
                    local: Vec::new(),
                    local_slots: Vec::new(),
                    epoch: 0,
                    shadow_local: Vec::new(),
                    local_names: Vec::new(),
                };
                for t in vm.threads.iter_mut() {
                    t.gid = [
                        gx * local[0] + t.lid[0],
                        gy * local[1] + t.lid[1],
                        gz * local[2] + t.lid[2],
                    ];
                    t.private.clear();
                }
                for t in 0..n {
                    vm.cells[t * ncells..(t + 1) * ncells].copy_from_slice(&prog.proto);
                }
                vm.masks.clear();
                vm.masks.resize(n, true);
                vm.else_masks.clear();
                exec.counters.work_groups += 1;
                exec.counters.work_items += n as u64;
                let rows_before = exec.counters.lockstep_rows;
                vm.run_group(exec, &mut group)?;
                let group_rows = exec.counters.lockstep_rows - rows_before;
                exec.counters.group_span_rows = exec.counters.group_span_rows.max(group_rows);
            }
        }
    }
    Ok(())
}

/// Per-launch VM state, reused across work groups: cell/scratch register files, the mask
/// stack arena (frames of `n` booleans; the top frame is the current activity mask) and the
/// pending else-mask arena of open `if` rows.
struct Vm<'p> {
    prog: &'p Program,
    n: usize,
    ncells: usize,
    cells: Vec<V>,
    scratch: Vec<V>,
    masks: Vec<bool>,
    else_masks: Vec<bool>,
    /// Transient then-/iteration-mask buffer.
    tm: Vec<bool>,
    /// Transient else-mask buffer.
    em: Vec<bool>,
    threads: Vec<Thread>,
}

impl Vm<'_> {
    #[allow(clippy::too_many_lines)]
    fn run_group(&mut self, exec: &mut Exec, group: &mut Group) -> Result<(), VgpuError> {
        let n = self.n;
        let ncells = self.ncells;
        let mut pc = 0usize;
        while pc < self.prog.rows.len() {
            match self.prog.rows[pc] {
                RowOp::Barrier => {
                    exec.row()?;
                    let top = self.masks.len() - n;
                    let arrived = self.masks[top..].iter().filter(|&&m| m).count();
                    if arrived != n {
                        return Err(VgpuError::DivergentBarrier {
                            group: group.id,
                            arrived,
                            expected: n,
                        });
                    }
                    exec.counters.barriers += 1;
                    group.epoch += 1;
                    pc += 1;
                }
                RowOp::DeclLocal { cell, len, slot } => {
                    exec.row()?;
                    let idx = group.local.len();
                    group.local.push(vec![0.0; len]);
                    if exec.detect {
                        group.shadow_local.push(vec![ShadowCell::default(); len]);
                        group.local_names.push(exec.names[slot as usize].clone());
                    }
                    let p = V::Ptr(Ptr {
                        space: AddrSpace::Local,
                        buffer: idx,
                        offset: 0,
                    });
                    // The allocation is group-wide: every thread resolves the slot to it,
                    // regardless of the current mask (interpreter semantics).
                    for t in 0..n {
                        self.cells[t * ncells + cell as usize] = p;
                    }
                    pc += 1;
                }
                RowOp::DeclPrivate { cell, len } => {
                    exec.row()?;
                    let top = self.masks.len() - n;
                    for i in 0..n {
                        if !self.masks[top + i] {
                            continue;
                        }
                        let t = &mut self.threads[i];
                        let idx = t.private.len();
                        t.private.push(vec![0.0; len]);
                        self.cells[i * ncells + cell as usize] = V::Ptr(Ptr {
                            space: AddrSpace::Private,
                            buffer: idx,
                            offset: 0,
                        });
                    }
                    pc += 1;
                }
                RowOp::ZeroCell { cell } => {
                    exec.row()?;
                    let top = self.masks.len() - n;
                    for i in 0..n {
                        if self.masks[top + i] {
                            self.cells[i * ncells + cell as usize] = V::Float(0.0);
                        }
                    }
                    pc += 1;
                }
                RowOp::Eval {
                    start,
                    len,
                    src,
                    dst,
                    lanes,
                } => {
                    exec.row()?;
                    let code = &self.prog.code[start as usize..(start + len) as usize];
                    let top = self.masks.len() - n;
                    for i in 0..n {
                        if !self.masks[top + i] {
                            continue;
                        }
                        let tc = &mut self.cells[i * ncells..(i + 1) * ncells];
                        run_prog(
                            code,
                            &self.prog.errors,
                            exec,
                            group,
                            &mut self.threads[i],
                            tc,
                            &mut self.scratch,
                        )?;
                        if dst != NO_DST {
                            for k in 0..lanes {
                                let v = rd(src + k, tc, &self.scratch);
                                tc[(dst + k) as usize] = v;
                            }
                        }
                    }
                    exec.flush_accesses();
                    pc += 1;
                }
                RowOp::If {
                    start,
                    len,
                    cond,
                    else_pc,
                    has_else,
                } => {
                    exec.row()?;
                    let code = &self.prog.code[start as usize..(start + len) as usize];
                    let top = self.masks.len() - n;
                    self.tm.fill(false);
                    self.em.fill(false);
                    let mut any_then = false;
                    for i in 0..n {
                        if !self.masks[top + i] {
                            continue;
                        }
                        let tc = &mut self.cells[i * ncells..(i + 1) * ncells];
                        run_prog(
                            code,
                            &self.prog.errors,
                            exec,
                            group,
                            &mut self.threads[i],
                            tc,
                            &mut self.scratch,
                        )?;
                        let c = rd(cond, tc, &self.scratch).as_bool();
                        exec.counters.charge(charge::CONTROL, 1);
                        if c {
                            self.tm[i] = true;
                            any_then = true;
                        } else {
                            self.em[i] = true;
                        }
                    }
                    exec.flush_accesses();
                    if has_else {
                        self.else_masks.extend_from_slice(&self.em);
                    }
                    // With an `else`, an all-false then-mask is pushed too, so the `Else`
                    // row always has one to pop.
                    if any_then || has_else {
                        self.masks.extend_from_slice(&self.tm);
                    }
                    pc = if any_then { pc + 1 } else { else_pc };
                }
                RowOp::Else { end_pc } => {
                    self.masks.truncate(self.masks.len() - n);
                    let off = self.else_masks.len() - n;
                    let any = self.else_masks[off..].iter().any(|b| *b);
                    if any {
                        for i in 0..n {
                            let b = self.else_masks[off + i];
                            self.masks.push(b);
                        }
                    }
                    self.else_masks.truncate(off);
                    pc = if any { pc + 1 } else { end_pc };
                }
                RowOp::EndIf => {
                    self.masks.truncate(self.masks.len() - n);
                    pc += 1;
                }
                RowOp::ForInit {
                    start,
                    len,
                    src,
                    cell,
                } => {
                    exec.row()?;
                    let code = &self.prog.code[start as usize..(start + len) as usize];
                    let top = self.masks.len() - n;
                    for i in 0..n {
                        if !self.masks[top + i] {
                            continue;
                        }
                        let tc = &mut self.cells[i * ncells..(i + 1) * ncells];
                        run_prog(
                            code,
                            &self.prog.errors,
                            exec,
                            group,
                            &mut self.threads[i],
                            tc,
                            &mut self.scratch,
                        )?;
                        let v = rd(src, tc, &self.scratch);
                        tc[cell as usize] = v;
                    }
                    exec.flush_accesses();
                    pc += 1;
                }
                RowOp::ForHead {
                    start,
                    len,
                    cond,
                    end_pc,
                } => {
                    // One row per round: the group-wide condition check.
                    exec.row()?;
                    let code = &self.prog.code[start as usize..(start + len) as usize];
                    let top = self.masks.len() - n;
                    self.tm.fill(false);
                    let mut any = false;
                    for i in 0..n {
                        if !self.masks[top + i] {
                            continue;
                        }
                        let tc = &mut self.cells[i * ncells..(i + 1) * ncells];
                        run_prog(
                            code,
                            &self.prog.errors,
                            exec,
                            group,
                            &mut self.threads[i],
                            tc,
                            &mut self.scratch,
                        )?;
                        let c = rd(cond, tc, &self.scratch).as_bool();
                        exec.counters.charge(charge::CONTROL, 1);
                        if c {
                            self.tm[i] = true;
                            any = true;
                            exec.counters.loop_iterations += 1;
                        }
                    }
                    exec.flush_accesses();
                    if any {
                        self.masks.extend_from_slice(&self.tm);
                        pc += 1;
                    } else {
                        pc = end_pc;
                    }
                }
                RowOp::ForStep {
                    start,
                    len,
                    src,
                    cell,
                    slot,
                    head_pc,
                } => {
                    let code = &self.prog.code[start as usize..(start + len) as usize];
                    let top = self.masks.len() - n;
                    for i in 0..n {
                        if !self.masks[top + i] {
                            continue;
                        }
                        let tc = &mut self.cells[i * ncells..(i + 1) * ncells];
                        run_prog(
                            code,
                            &self.prog.errors,
                            exec,
                            group,
                            &mut self.threads[i],
                            tc,
                            &mut self.scratch,
                        )?;
                        let cur = tc[cell as usize];
                        if matches!(cur, V::None) {
                            return Err(VgpuError::UnknownVariable(
                                exec.names[slot as usize].clone(),
                            ));
                        }
                        let next = V::Int(cur.as_i64() + rd(src, tc, &self.scratch).as_i64());
                        exec.counters.charge(charge::CONTROL, 1);
                        tc[cell as usize] = next;
                    }
                    self.masks.truncate(self.masks.len() - n);
                    exec.flush_accesses();
                    pc = head_pc;
                }
                RowOp::Fail { err } => {
                    exec.row()?;
                    return Err(self.prog.errors[err as usize].clone());
                }
            }
        }
        Ok(())
    }
}

/// Executes one row program for one work item.
#[allow(clippy::too_many_lines)]
fn run_prog(
    code: &[EOp],
    errors: &[VgpuError],
    exec: &mut Exec,
    group: &mut Group,
    thread: &mut Thread,
    cells: &mut [V],
    scratch: &mut [V],
) -> Result<(), VgpuError> {
    let mut pc = 0usize;
    while pc < code.len() {
        match code[pc] {
            EOp::IntC { dst, v } => scratch[dst as usize] = V::Int(v),
            EOp::FloatC { dst, v } => scratch[dst as usize] = V::Float(v),
            EOp::BoolC { dst, v } => scratch[dst as usize] = V::Bool(v),
            EOp::Mov { dst, src } => scratch[dst as usize] = rd(src, cells, scratch),
            EOp::SlotChk { cell, slot } => {
                if matches!(cells[cell as usize], V::None) {
                    return Err(VgpuError::UnknownVariable(
                        exec.names[slot as usize].clone(),
                    ));
                }
            }
            EOp::IdxOf { dst, src } => {
                scratch[dst as usize] = V::Int(rd(src, cells, scratch).as_i64());
            }
            EOp::Bin { op, dst, a, b } => {
                let va = rd(a, cells, scratch);
                let vb = rd(b, cells, scratch);
                scratch[dst as usize] = bin(exec, op, va, vb)?;
            }
            EOp::Neg { dst, src } => {
                exec.counters.charge(charge::unary(CUnOp::Neg), 1);
                scratch[dst as usize] = match rd(src, cells, scratch) {
                    V::Int(i) => V::Int(-i),
                    other => V::Float(-other.as_f64()),
                };
            }
            EOp::WorkItem { kind, dst, dim } => {
                let d = rd(dim, cells, scratch).as_i64() as usize;
                let v = match kind {
                    WorkItem::GlobalId => thread.gid[d],
                    WorkItem::LocalId => thread.lid[d],
                    WorkItem::GroupId => group.id[d],
                    WorkItem::GlobalSize => exec.config.global[d],
                    WorkItem::LocalSize => exec.config.local[d],
                    WorkItem::NumGroups => exec.config.num_groups()[d],
                };
                scratch[dst as usize] = V::Int(v as i64);
            }
            EOp::Math1 { f, dst, src } => {
                let v = rd(src, cells, scratch).as_f64();
                exec.counters.charge(charge::MATH1, 1);
                scratch[dst as usize] = V::Float(f(v));
            }
            EOp::Math2 { f, dst, a, b } => {
                let x = rd(a, cells, scratch).as_f64();
                let y = rd(b, cells, scratch).as_f64();
                exec.counters.charge(charge::MATH2, 1);
                scratch[dst as usize] = V::Float(f(x, y));
            }
            EOp::Charge { charge } => exec.counters.charge(charge, 1),
            EOp::ChargeVec { width } => exec.counters.vector_accesses += width,
            EOp::ZChk { src } => {
                if rd(src, cells, scratch).as_i64() == 0 {
                    return Err(VgpuError::DivisionByZero);
                }
            }
            EOp::RAdd { dst, a, b } => {
                scratch[dst as usize] =
                    V::Int(rd(a, cells, scratch).as_i64() + rd(b, cells, scratch).as_i64());
            }
            EOp::RMul { dst, a, b } => {
                scratch[dst as usize] =
                    V::Int(rd(a, cells, scratch).as_i64() * rd(b, cells, scratch).as_i64());
            }
            EOp::RDivE { dst, a, b } => {
                scratch[dst as usize] = V::Int(
                    rd(a, cells, scratch)
                        .as_i64()
                        .div_euclid(rd(b, cells, scratch).as_i64()),
                );
            }
            EOp::RRemE { dst, a, b } => {
                scratch[dst as usize] = V::Int(
                    rd(a, cells, scratch)
                        .as_i64()
                        .rem_euclid(rd(b, cells, scratch).as_i64()),
                );
            }
            EOp::RPow { dst, src, e } => {
                scratch[dst as usize] = V::Int(rd(src, cells, scratch).as_i64().pow(e));
            }
            EOp::RMin { dst, a, b } => {
                scratch[dst as usize] = V::Int(
                    rd(a, cells, scratch)
                        .as_i64()
                        .min(rd(b, cells, scratch).as_i64()),
                );
            }
            EOp::RMax { dst, a, b } => {
                scratch[dst as usize] = V::Int(
                    rd(a, cells, scratch)
                        .as_i64()
                        .max(rd(b, cells, scratch).as_i64()),
                );
            }
            EOp::PtrChk { src, err } => {
                if rd(src, cells, scratch).as_ptr().is_none() {
                    return Err(errors[err as usize].clone());
                }
            }
            EOp::Load { dst, ptr, idx } => {
                let p = rd_ptr(ptr, cells, scratch, array_not_a_pointer)?;
                let i = rd(idx, cells, scratch).as_i64();
                let v = exec.load(p, i, group, thread, 1)?;
                scratch[dst as usize] = V::Float(v.as_f64());
            }
            EOp::LoadLane {
                dst,
                ptr,
                idx,
                width,
                lane,
            } => {
                let p = rd_ptr(ptr, cells, scratch, || {
                    VgpuError::NotAPointer(Builtin::VLoad(width as usize).to_string())
                })?;
                let i = rd(idx, cells, scratch).as_i64();
                let v = exec.load(
                    p,
                    i * i64::from(width) + i64::from(lane),
                    group,
                    thread,
                    width as usize,
                )?;
                scratch[dst as usize] = V::Float(v.as_f64());
            }
            EOp::StoreChk { ptr, idx, val, err } => {
                let v = rd(val, cells, scratch);
                if !matches!(v, V::Float(_) | V::Int(_) | V::Bool(_)) {
                    return Err(errors[err as usize].clone());
                }
                let p = rd_ptr(ptr, cells, scratch, array_not_a_pointer)?;
                let i = rd(idx, cells, scratch).as_i64();
                exec.store(p, i, v.as_f64(), group, thread, 1)?;
            }
            EOp::StoreLane {
                ptr,
                idx,
                val,
                width,
                lane,
            } => {
                let p = rd_ptr(ptr, cells, scratch, || {
                    VgpuError::NotAPointer(Builtin::VStore(width as usize).to_string())
                })?;
                let i = rd(idx, cells, scratch).as_i64();
                let v = rd(val, cells, scratch).as_f64();
                exec.store(
                    p,
                    i * i64::from(width) + i64::from(lane),
                    v,
                    group,
                    thread,
                    width as usize,
                )?;
            }
            EOp::Jz { cond, target } => {
                if !rd(cond, cells, scratch).as_bool() {
                    pc = target as usize;
                    continue;
                }
            }
            EOp::Jmp { target } => {
                pc = target as usize;
                continue;
            }
            EOp::Fail { err } => return Err(errors[err as usize].clone()),
        }
        pc += 1;
    }
    Ok(())
}

/// The interpreter's `eval_bin` over scalar runtime values, charging by the dynamic path:
/// pointer arithmetic/comparison, integer ops, then mixed/floating point.
fn bin(exec: &mut Exec, op: CBinOp, a: V, b: V) -> Result<V, VgpuError> {
    if let V::Ptr(p) = a {
        return Ok(match op {
            CBinOp::Add => V::Ptr(Ptr {
                offset: p.offset + b.as_i64(),
                ..p
            }),
            CBinOp::Sub => V::Ptr(Ptr {
                offset: p.offset - b.as_i64(),
                ..p
            }),
            CBinOp::Eq => V::Bool(Some(p) == b.as_ptr()),
            _ => return Err(VgpuError::NotAPointer("invalid pointer operation".into())),
        });
    }
    if let (V::Int(x), V::Int(y)) = (a, b) {
        exec.counters.charge(charge::binary(op, true), 1);
        return Ok(match op {
            CBinOp::Add => V::Int(x + y),
            CBinOp::Sub => V::Int(x - y),
            CBinOp::Mul => V::Int(x * y),
            CBinOp::Div => {
                if y == 0 {
                    return Err(VgpuError::DivisionByZero);
                }
                V::Int(x.div_euclid(y))
            }
            _ => V::Bool(compare(op, x as f64, y as f64)),
        });
    }
    let (x, y) = (a.as_f64(), b.as_f64());
    exec.counters.charge(charge::binary(op, false), 1);
    Ok(match op {
        CBinOp::Add => V::Float(x + y),
        CBinOp::Sub => V::Float(x - y),
        CBinOp::Mul => V::Float(x * y),
        CBinOp::Div => V::Float(x / y),
        _ => V::Bool(compare(op, x, y)),
    })
}
