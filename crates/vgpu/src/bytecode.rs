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
//!   operations are `Int` ops over [`ops::int`], charged by the same per-node `Charge` the
//!   interpreter charges; cost counters, pointer checks and memory instrumentation
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

use lift_ocl::{AddrSpace, Builtin, CBinOp, WorkItem};

use crate::exec::{
    Exec, Group, Math1, Math2, SExpr, SFunction, SIndex, SLhs, SStmt, ShadowCell, Thread, VgpuError,
};
use crate::memory::{Ptr, Scalar};
use crate::ops::{self, Charge, IntOp};

/// Register operand bit selecting the per-thread cell file over the scratch file.
const CELL_BIT: u32 = 1 << 31;
/// "Discard the result" destination marker for [`RowOp::Eval`].
const NO_DST: u32 = u32::MAX;

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
    /// `dst = None`: an aggregate read in scalar position.
    NoneC {
        dst: u32,
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
    /// [`ops::binary`] on two scalar values, charging by the runtime path.
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
    /// Errors with [`VgpuError::DivisionByZero`] if the register, read as an integer, is
    /// zero ([`ops::divisor`]).
    ZChk {
        src: u32,
    },
    /// An index operation, [`ops::int`] on two `Int` registers.
    Int {
        op: IntOp,
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
    proto: Vec<Scalar>,
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
    proto: Vec<Scalar>,
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

    /// A register holding `v` in scalar position: an aggregate reads as `Scalar::None`, as
    /// the interpreter reads it through `GpuValue::scalar`.
    fn scalar(&mut self, v: Val) -> u32 {
        if v.shape.is_scalar() {
            return v.base;
        }
        let dst = self.s1();
        self.emit(EOp::NoneC { dst });
        dst
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
        let param = self.exec.params[slot];
        let nonnull = if shape.is_scalar() {
            self.proto.push(param);
            param != Scalar::None
        } else {
            if param != Scalar::None {
                return Err(format!(
                    "slot `{}` shadows a kernel parameter with an aggregate",
                    self.exec.names[slot]
                ));
            }
            for _ in 0..lanes {
                self.proto.push(Scalar::None);
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
                // An aggregate value reads as integer 0, like `Scalar::None`.
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
                            self.fail(VgpuError::LaneMismatch {
                                left: n as usize,
                                right: m as usize,
                            });
                            return Ok(self.dummy(Shape::Vector(n)));
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
                        let rb = self.scalar(vb);
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
                        let ra = self.scalar(va);
                        let rb = self.scalar(vb);
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
            SExpr::Neg(a) => {
                let va = self.expr(a)?;
                let dst = self.s1();
                let src = self.scalar(va);
                self.emit(EOp::Neg { dst, src });
                Ok(Val::scalar(dst))
            }
            SExpr::WorkItem(kind, dim) => {
                let vd = self.expr(dim)?;
                let dim = self.scalar(vd);
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
                let ri = self.scalar(vi);
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
                // times (a struct reads as `Scalar::None`, like the interpreter's).
                let (lane_base, nlanes, broadcast) = match vv.shape {
                    Shape::Vector(n) => (vv.base, n, false),
                    Shape::Struct(_) | Shape::Scalar => (self.scalar(vv), w, true),
                };
                let vi = self.expr(idx)?;
                let ri = self.scalar(vi);
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
                let src = self.scalar(va);
                let dst = self.s1();
                self.emit(EOp::Math1 { f: *f, dst, src });
                Ok(Val::scalar(dst))
            }
            SExpr::Math2(f, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                let ra = self.scalar(va);
                let rb = self.scalar(vb);
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
                let ri = self.scalar(vi);
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
                let rc = self.scalar(vc);
                self.emit(EOp::Charge {
                    charge: ops::CONTROL,
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
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn index(&mut self, a: &SIndex) -> Result<u32, String> {
        let charge = ops::index_charge(a);
        if charge.n > 0 {
            self.emit(EOp::Charge { charge });
        }
        match a {
            SIndex::Cst(c) => Ok(self.intc(*c)),
            SIndex::Var(slot) => self.read_idx_var(*slot),
            SIndex::Fold(op, ts) => {
                let Some((first, rest)) = ts.split_first() else {
                    return Ok(self.intc(op.unit()));
                };
                let mut acc = self.index(first)?;
                for t in rest {
                    let r = self.index(t)?;
                    acc = self.int(*op, acc, r);
                }
                Ok(acc)
            }
            // The divisor is checked before the dividend is evaluated, as the interpreter does.
            SIndex::Pair(op, a, b) if op.divides() => {
                let rb = self.index(b)?;
                self.emit(EOp::ZChk { src: rb });
                let ra = self.index(a)?;
                Ok(self.int(*op, ra, rb))
            }
            SIndex::Pair(op, a, b) => {
                let ra = self.index(a)?;
                let rb = self.index(b)?;
                Ok(self.int(*op, ra, rb))
            }
            SIndex::Pow(b, e) => {
                let rb = self.index(b)?;
                let re = self.intc(i64::from(*e));
                Ok(self.int(IntOp::Pow, rb, re))
            }
        }
    }

    /// Emits `op` on two index registers into a new one.
    fn int(&mut self, op: IntOp, a: u32, b: u32) -> u32 {
        let dst = self.s1();
        self.emit(EOp::Int { op, dst, a, b });
        dst
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
                        let ri = c.scalar(vi);
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
                    Ok(c.scalar(v))
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
                    Ok(c.scalar(v))
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
                    Ok(c.scalar(v))
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
fn rd(r: u32, cells: &[Scalar], scratch: &[Scalar]) -> Scalar {
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
    cells: &[Scalar],
    scratch: &[Scalar],
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
        cells: vec![Scalar::None; ncells * n],
        scratch: vec![Scalar::None; prog.n_scratch as usize],
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
    cells: Vec<Scalar>,
    scratch: Vec<Scalar>,
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
                    let p = Scalar::Ptr(Ptr {
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
                        self.cells[i * ncells + cell as usize] = Scalar::Ptr(Ptr {
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
                            self.cells[i * ncells + cell as usize] = Scalar::Float(0.0);
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
                        exec.counters.charge(ops::CONTROL, 1);
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
                        exec.counters.charge(ops::CONTROL, 1);
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
                        if matches!(cur, Scalar::None) {
                            return Err(VgpuError::UnknownVariable(
                                exec.names[slot as usize].clone(),
                            ));
                        }
                        let next = ops::step(cur, rd(src, tc, &self.scratch));
                        exec.counters.charge(ops::CONTROL, 1);
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
    cells: &mut [Scalar],
    scratch: &mut [Scalar],
) -> Result<(), VgpuError> {
    let mut pc = 0usize;
    while pc < code.len() {
        match code[pc] {
            EOp::IntC { dst, v } => scratch[dst as usize] = Scalar::Int(v),
            EOp::FloatC { dst, v } => scratch[dst as usize] = Scalar::Float(v),
            EOp::NoneC { dst } => scratch[dst as usize] = Scalar::None,
            EOp::Mov { dst, src } => scratch[dst as usize] = rd(src, cells, scratch),
            EOp::SlotChk { cell, slot } => {
                if matches!(cells[cell as usize], Scalar::None) {
                    return Err(VgpuError::UnknownVariable(
                        exec.names[slot as usize].clone(),
                    ));
                }
            }
            EOp::IdxOf { dst, src } => {
                scratch[dst as usize] = Scalar::Int(rd(src, cells, scratch).as_i64());
            }
            EOp::Bin { op, dst, a, b } => {
                let va = rd(a, cells, scratch);
                let vb = rd(b, cells, scratch);
                scratch[dst as usize] = ops::binary(op, va, vb, &mut exec.counters)?;
            }
            EOp::Neg { dst, src } => {
                exec.counters.charge(ops::NEG, 1);
                scratch[dst as usize] = ops::neg(rd(src, cells, scratch));
            }
            EOp::WorkItem { kind, dst, dim } => {
                let dim = rd(dim, cells, scratch);
                scratch[dst as usize] = Scalar::Int(exec.work_item(kind, dim, group, thread));
            }
            EOp::Math1 { f, dst, src } => {
                let v = rd(src, cells, scratch).as_f64();
                exec.counters.charge(ops::MATH1, 1);
                scratch[dst as usize] = Scalar::Float(f(v));
            }
            EOp::Math2 { f, dst, a, b } => {
                let x = rd(a, cells, scratch).as_f64();
                let y = rd(b, cells, scratch).as_f64();
                exec.counters.charge(ops::MATH2, 1);
                scratch[dst as usize] = Scalar::Float(f(x, y));
            }
            EOp::Charge { charge } => exec.counters.charge(charge, 1),
            EOp::ChargeVec { width } => exec.counters.vector_accesses += width,
            EOp::ZChk { src } => {
                ops::divisor(rd(src, cells, scratch).as_i64())?;
            }
            EOp::Int { op, dst, a, b } => {
                let (x, y) = (
                    rd(a, cells, scratch).as_i64(),
                    rd(b, cells, scratch).as_i64(),
                );
                scratch[dst as usize] = Scalar::Int(ops::int(op, x, y)?);
            }
            EOp::PtrChk { src, err } => {
                if rd(src, cells, scratch).as_ptr().is_none() {
                    return Err(errors[err as usize].clone());
                }
            }
            EOp::Load { dst, ptr, idx } => {
                let p = rd_ptr(ptr, cells, scratch, array_not_a_pointer)?;
                let i = rd(idx, cells, scratch).as_i64();
                scratch[dst as usize] = Scalar::Float(exec.load(p, i, group, thread, 1)?);
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
                let (width, lane) = (width as usize, lane as usize);
                let at = ops::vector_lane(rd(idx, cells, scratch).as_i64(), width, lane);
                scratch[dst as usize] = Scalar::Float(exec.load(p, at, group, thread, width)?);
            }
            EOp::StoreChk { ptr, idx, val, err } => {
                let v = rd(val, cells, scratch);
                if !v.is_number() {
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
                let (width, lane) = (width as usize, lane as usize);
                let at = ops::vector_lane(rd(idx, cells, scratch).as_i64(), width, lane);
                let v = rd(val, cells, scratch).as_f64();
                exec.store(p, at, v, group, thread, width)?;
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
