//! OpenCL code generation (Section 5.5).
//!
//! The generator walks the typed Lift IR from the result backwards: every expression is asked
//! to produce its value into a *destination view*. Data-layout patterns transform the
//! destination (writing through `join` is reading through `split`), parallel and sequential
//! maps emit loops over the OpenCL work-item functions, reductions emit accumulation loops,
//! `iterate` emits the double-buffered loop of Figure 7, and user functions finally emit the
//! assignment `out[write-index] = f(in[read-index], …)` whose indices come from consuming the
//! read and write views.
//!
//! The three optimisations evaluated in the paper are applied here: array-access
//! simplification (through the [`AccessBuilder`]), control-flow simplification (loops whose
//! trip count is statically one collapse to a block or an `if`), and barrier elimination.

use std::cmp::Ordering;
use std::collections::HashMap;

use lift_arith::ArithExpr;
use lift_ir::{
    AddressSpace, ExprId, ExprKind, FunDecl, FunDeclId, Literal, ParallelismLevel, Pattern,
    Program, Reorder, ScalarExpr, ScalarKind, Type, TypeError, UserFun,
};
use lift_ocl::{
    AddrSpace, CExpr, CFunction, CStmt, CType, Fence, Kernel, KernelParam, Module, StructDef,
};

use crate::address_space::{
    infer_address_spaces, infer_parallelism, AddressSpaces, ParallelismLevels,
};
use crate::options::{CompilationOptions, LaunchExtent, LaunchTrace};
use crate::view::{resolve, AccessBuilder, LayoutOp, Resolved, View, ViewError};

/// Errors produced by the compiler.
#[derive(Clone, Debug, PartialEq)]
pub enum CodegenError {
    /// Type inference failed.
    Type(TypeError),
    /// A view could not be consumed into an array access.
    View(ViewError),
    /// The program uses a combination of patterns the generator does not support.
    Unsupported(String),
    /// The program has no root lambda.
    MissingRoot,
    /// Address-space inference produced no space for an intermediate that must be
    /// materialised. Before this variant existed the generator silently fell back to
    /// private memory, which can place a large array intermediate in per-thread registers
    /// without any diagnosis.
    MissingAddressSpace(String),
    /// The parallelism-ownership pass rejected a write that aliases across work items: a
    /// buffer owned at `owner_level` (e.g. a group-shared `__local` array) would be
    /// written wholesale by code executing at the finer `writer_level` (e.g. a `toLocal`
    /// staging buffer produced *inside* a `mapLcl` body, where every work item writes the
    /// whole array with work-item-varying data). Emitting such a kernel would compile a
    /// data race; it is a typed compile-time rejection instead.
    OwnershipViolation {
        /// Description of the buffer whose ownership was violated.
        buffer: String,
        /// Parallelism level of the offending write.
        writer_level: ParallelismLevel,
        /// Parallelism level that owns the buffer.
        owner_level: ParallelismLevel,
        /// Rendered producer expression (the write site).
        site: String,
    },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::Type(e) => write!(f, "type error: {e}"),
            CodegenError::View(e) => write!(f, "view error: {e}"),
            CodegenError::Unsupported(what) => write!(f, "unsupported program shape: {what}"),
            CodegenError::MissingRoot => write!(f, "the program has no root lambda"),
            CodegenError::MissingAddressSpace(what) => {
                write!(f, "no address space inferred for an intermediate: {what}")
            }
            CodegenError::OwnershipViolation {
                buffer,
                writer_level,
                owner_level,
                site,
            } => write!(
                f,
                "parallelism-ownership violation: {buffer} is owned at {owner_level} level \
                 but written at {writer_level} level (every work item would write the whole \
                 shared buffer — a data race) at {site}"
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<TypeError> for CodegenError {
    fn from(e: TypeError) -> Self {
        CodegenError::Type(e)
    }
}

impl From<ViewError> for CodegenError {
    fn from(e: ViewError) -> Self {
        CodegenError::View(e)
    }
}

/// Describes one parameter of the generated kernel so callers know what to pass at launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelParamInfo {
    /// The buffer for the `index`-th input of the Lift program.
    Input {
        /// Kernel parameter name.
        name: String,
        /// Index of the corresponding root-lambda parameter.
        index: usize,
    },
    /// A scalar input of the Lift program.
    ScalarInput {
        /// Kernel parameter name.
        name: String,
        /// Index of the corresponding root-lambda parameter.
        index: usize,
    },
    /// The output buffer.
    Output {
        /// Kernel parameter name.
        name: String,
    },
    /// A global temporary buffer carrying an intermediate across the kernels of a
    /// multi-kernel sequence. The host allocates it (see
    /// [`CompiledProgram::temp_buffers`]) and passes it to *every* kernel of the sequence.
    Temp {
        /// Kernel parameter name.
        name: String,
        /// Index of the corresponding entry in [`CompiledProgram::temp_buffers`].
        index: usize,
    },
    /// A size variable (array length) passed as an `int`.
    Size {
        /// Kernel parameter name (the variable name, e.g. `N`).
        name: String,
    },
}

/// One kernel of a compiled multi-kernel program, in launch order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelStage {
    /// The kernel name within the module.
    pub name: String,
    /// Whether the kernel body reads work-item ids. A sequential stage computes the same
    /// result in every thread, so the host launches it with a single work item.
    pub parallel: bool,
}

impl KernelStage {
    /// The ND-range the stage runs with when the program is executed under `launch`: the
    /// requested one for a parallel stage, a single work item for a sequential one.
    pub fn launch(&self, launch: lift_vgpu::LaunchConfig) -> lift_vgpu::LaunchConfig {
        if self.parallel {
            launch
        } else {
            lift_vgpu::LaunchConfig::d1(1, 1)
        }
    }
}

/// A global temporary buffer the host must allocate for a multi-kernel program.
#[derive(Clone, Debug, PartialEq)]
pub struct TempBufferInfo {
    /// The kernel parameter name every kernel binds the buffer to.
    pub name: String,
    /// Number of elements (symbolic in the size variables).
    pub elem_count: ArithExpr,
}

/// The result of compiling a Lift program: one kernel, or a sequence of them.
///
/// Programs whose intermediates live in global memory are split at each device-wide
/// synchronisation point into a *sequence* of kernels: the producer stage writes the
/// intermediate to a host-allocated global temporary, the kernel boundary provides the
/// device-wide barrier OpenCL lacks, and the consumer stage reads it back. All kernels share
/// one parameter list ([`CompiledProgram::params`]: inputs, output, temporaries, sizes), so
/// the host passes the same arguments to every stage.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledProgram {
    /// The generated OpenCL module (structs, user functions, one kernel per stage).
    pub module: Module,
    /// The kernels in launch order.
    pub kernels: Vec<KernelStage>,
    /// Global temporaries shared by the stages (empty for single-kernel programs).
    pub temp_buffers: Vec<TempBufferInfo>,
    /// The shared kernel parameters, in order.
    pub params: Vec<KernelParamInfo>,
    /// The number of elements of the output buffer (symbolic in the size variables).
    pub output_len: ArithExpr,
}

impl CompiledProgram {
    /// The OpenCL C source of the whole module.
    pub fn source(&self) -> String {
        lift_ocl::print_module(&self.module)
    }

    /// Number of non-empty, non-comment source lines (the code-size metric of Table 1).
    ///
    /// Comment lines (the host-ABI block of multi-kernel modules, `//` annotations) are not
    /// code and must not inflate the code size relative to single-kernel programs.
    pub fn line_count(&self) -> usize {
        self.source()
            .lines()
            .map(str::trim)
            .filter(|l| {
                !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*')
            })
            .count()
    }

    /// Marshals launch arguments for the shared parameter list of the kernel sequence: input
    /// buffers are cloned from `inputs` (indexed by root parameter), the output and every
    /// temporary are zero-filled to their evaluated lengths, and size parameters are bound
    /// from `sizes`. Returns the arguments (pass the same vector to every stage via
    /// [`lift_vgpu::ExecutionRequest::launch_sequence`]) and the index of the output among
    /// the *buffer* arguments (the index into [`lift_vgpu::SequenceResult::buffers`]).
    ///
    /// # Errors
    ///
    /// Returns a message when an input is missing or a length cannot be evaluated.
    pub fn bind_args(
        &self,
        inputs: &[Vec<f32>],
        sizes: &lift_arith::Environment,
    ) -> Result<(Vec<lift_vgpu::KernelArg>, usize), String> {
        use lift_vgpu::KernelArg;
        let as_len = |e: &ArithExpr, what: &str| -> Result<usize, String> {
            let v = e
                .evaluate(sizes)
                .map_err(|err| format!("cannot evaluate {what}: {err}"))?;
            usize::try_from(v).map_err(|_| format!("negative {what}: {v}"))
        };
        let out_len = as_len(&self.output_len, "output length")?;
        let mut args = Vec::with_capacity(self.params.len());
        let mut output_index = None;
        let mut buffers = 0usize;
        for p in &self.params {
            match p {
                KernelParamInfo::Input { index, name } => {
                    let data = inputs
                        .get(*index)
                        .ok_or_else(|| format!("missing input {index} for `{name}`"))?;
                    args.push(KernelArg::Buffer(data.clone()));
                    buffers += 1;
                }
                KernelParamInfo::ScalarInput { index, name } => {
                    let v = inputs
                        .get(*index)
                        .and_then(|d| d.first())
                        .ok_or_else(|| format!("missing scalar input {index} for `{name}`"))?;
                    args.push(KernelArg::Float(*v));
                }
                KernelParamInfo::Output { .. } => {
                    output_index = Some(buffers);
                    args.push(KernelArg::zeros(out_len));
                    buffers += 1;
                }
                KernelParamInfo::Temp { index, name } => {
                    let temp = self
                        .temp_buffers
                        .get(*index)
                        .ok_or_else(|| format!("missing temp buffer {index} for `{name}`"))?;
                    let len = as_len(&temp.elem_count, "temp buffer length")?;
                    args.push(KernelArg::zeros(len));
                    buffers += 1;
                }
                KernelParamInfo::Size { name } => {
                    let v = sizes
                        .get(name)
                        .ok_or_else(|| format!("unbound size `{name}`"))?;
                    args.push(KernelArg::Int(v));
                }
            }
        }
        let output_index = output_index.ok_or_else(|| "no output parameter".to_string())?;
        Ok((args, output_index))
    }

    /// The per-stage launch plan for an execution under `launch`: parallel stages use the
    /// requested ND-range, sequential stages run as a single work item. Feed the plan to
    /// [`lift_vgpu::ExecutionRequest::launch_sequence`], which pools the shared buffers
    /// across stages and picks the execution engine.
    pub fn launch_plan(&self, launch: lift_vgpu::LaunchConfig) -> Vec<lift_vgpu::KernelLaunchSpec> {
        self.kernels
            .iter()
            .map(|k| lift_vgpu::KernelLaunchSpec {
                kernel: k.name.clone(),
                launch: k.launch(launch),
            })
            .collect()
    }
}

/// Compiles a Lift program into a sequence of one or more OpenCL kernels.
///
/// Intermediates placed in global memory (via `toGlobal` or address-space inference) are
/// materialised into host-allocated temporaries, and the program is split after each such
/// producer: the kernel boundary is the device-wide synchronisation point. A program
/// without such intermediates compiles to a single kernel, a one-stage plan.
///
/// # Errors
///
/// Returns a [`CodegenError`] if the program is ill-typed or uses an unsupported combination
/// of patterns (e.g. a global intermediate nested inside a pattern, where no device-wide
/// synchronisation is possible).
pub fn compile_program(
    program: &Program,
    options: &CompilationOptions,
) -> Result<CompiledProgram, CodegenError> {
    compile_program_traced(program, options).0
}

/// [`compile_program`], together with what the compilation asked of the launch in
/// `options`: the result — module or error — is the same under every launch the returned
/// trace [holds for](LaunchTrace::holds_for).
pub fn compile_program_traced(
    program: &Program,
    options: &CompilationOptions,
) -> (Result<CompiledProgram, CodegenError>, LaunchTrace) {
    // Nothing before generation looks at the launch.
    let untraced = |e| (Err(e), LaunchTrace::default());
    if let Some(name) = program.first_high_level_pattern() {
        return untraced(CodegenError::Unsupported(format!(
            "high-level pattern `{name}` must be lowered to an OpenCL-specific pattern \
             (e.g. with the `lift-rewrite` exploration) before code generation"
        )));
    }
    let mut program = program.clone();
    if let Err(e) = lift_ir::infer_types(&mut program) {
        return untraced(e.into());
    }
    let spaces = infer_address_spaces(&program);
    let levels = infer_parallelism(&program);
    let mut generator = Generator {
        program,
        spaces,
        levels,
        options: options.clone(),
        builder: AccessBuilder::new(options.array_access_simplification),
        module: Module::new(),
        decls: Vec::new(),
        views: HashMap::new(),
        counter: 0,
        nesting: 0,
        active_parallel: Vec::new(),
        temp_buffers: Vec::new(),
        segment_decls: Vec::new(),
        trace: LaunchTrace::default(),
    };
    (generator.generate(), generator.trace)
}

/// Marker statement separating two kernels in the top-level statement stream. It is emitted
/// only at nesting depth zero and consumed by [`Generator::generate`]'s segment split, so it
/// never appears in a finished kernel.
const KERNEL_SPLIT_MARKER: &str = "__lift_kernel_split__";

struct Generator {
    program: Program,
    spaces: AddressSpaces,
    /// Parallelism level of each expression's evaluation site (the ownership pass); the
    /// generator consults it wherever it allocates group-shared storage.
    levels: ParallelismLevels,
    options: CompilationOptions,
    builder: AccessBuilder,
    module: Module,
    decls: Vec<CStmt>,
    views: HashMap<ExprId, View>,
    counter: usize,
    /// Depth of enclosing pattern bodies (map/reduce/iterate loops). Kernel splits are only
    /// legal at depth zero: a split inside a loop body would need a device-wide barrier
    /// *within* a kernel, which OpenCL does not have.
    nesting: usize,
    /// The parallel map loops currently open around the statement being generated, as
    /// `(pattern name, dimension)`. Two nested loops over the *same* kind and dimension
    /// both stride the same work-item id, so index pairs off the diagonal are computed by
    /// no work item at all — a silent coverage miscompile rejected in [`Generator::gen_map_loop`].
    active_parallel: Vec<(&'static str, u8)>,
    /// Global temporaries allocated so far: `(parameter name, value type)`.
    temp_buffers: Vec<(String, Type)>,
    /// Per-finished-segment declaration groups (one entry is pushed at every kernel split;
    /// the declarations of the final segment are taken from `decls` at the end).
    segment_decls: Vec<Vec<CStmt>>,
    /// What has been asked of the launch so far (see [`Generator::gen_map_loop`]).
    trace: LaunchTrace,
}

impl Generator {
    fn fresh(&mut self, base: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        if n == 0 {
            base.to_string()
        } else {
            format!("{base}_{n}")
        }
    }

    fn generate(&mut self) -> Result<CompiledProgram, CodegenError> {
        if self.program.root().is_none() {
            return Err(CodegenError::MissingRoot);
        }
        let root_params = self.program.root_params().to_vec();
        let body = self.program.root_body();
        let body_type = self.program.type_of(body).clone();

        // Kernel parameters: inputs, output, temporaries (discovered during generation),
        // then the size variables.
        let mut params = Vec::new();
        let mut kernel_params = Vec::new();
        let mut size_vars: Vec<String> = Vec::new();
        for (i, p) in root_params.iter().enumerate() {
            let ty = self.program.type_of(*p).clone();
            let name = match &self.program.expr(*p).kind {
                ExprKind::Param { name } => name.clone(),
                _ => format!("arg{i}"),
            };
            collect_size_vars(&ty, &mut size_vars);
            if ty.is_array() {
                kernel_params.push(KernelParam {
                    name: name.clone(),
                    ty: CType::const_restrict_pointer(
                        scalar_ctype(ty.innermost()),
                        AddrSpace::Global,
                    ),
                });
                params.push(KernelParamInfo::Input {
                    name: name.clone(),
                    index: i,
                });
                let dims = array_dims(&ty);
                self.views
                    .insert(*p, View::memory(name, AddressSpace::Global, dims));
            } else {
                kernel_params.push(KernelParam {
                    name: name.clone(),
                    ty: scalar_ctype(&ty),
                });
                params.push(KernelParamInfo::ScalarInput {
                    name: name.clone(),
                    index: i,
                });
                self.views
                    .insert(*p, View::scalar_var(name, AddressSpace::Private));
            }
        }
        collect_size_vars(&body_type, &mut size_vars);

        let out_name = "output".to_string();
        kernel_params.push(KernelParam {
            name: out_name.clone(),
            ty: CType::pointer(scalar_ctype(body_type.innermost()), AddrSpace::Global),
        });
        params.push(KernelParamInfo::Output {
            name: out_name.clone(),
        });
        let output_len = body_type.element_count();

        let out_view = View::memory(out_name, AddressSpace::Global, array_dims(&body_type));
        let body_stmts = self.gen_expr(body, &out_view)?;
        self.segment_decls.push(std::mem::take(&mut self.decls));

        // Temporary-buffer parameters (shared by every kernel of the sequence).
        let mut temp_buffers = Vec::new();
        for (index, (name, ty)) in self.temp_buffers.iter().enumerate() {
            let elem_count = ty.element_count();
            collect_size_vars(ty, &mut size_vars);
            kernel_params.push(KernelParam {
                name: name.clone(),
                ty: CType::pointer(scalar_ctype(ty.innermost()), AddrSpace::Global),
            });
            params.push(KernelParamInfo::Temp {
                name: name.clone(),
                index,
            });
            self.module.temp_buffers.push(lift_ocl::TempBufferDecl {
                name: name.clone(),
                elem: scalar_ctype(ty.innermost()),
                len: elem_count.clone(),
            });
            temp_buffers.push(TempBufferInfo {
                name: name.clone(),
                elem_count,
            });
        }

        size_vars.sort();
        size_vars.dedup();
        for s in &size_vars {
            kernel_params.push(KernelParam {
                name: s.clone(),
                ty: CType::Int,
            });
            params.push(KernelParamInfo::Size { name: s.clone() });
        }

        // Split the top-level statement stream into kernel bodies at the split markers
        // (one marker was emitted after each global-temporary producer).
        let mut segments: Vec<Vec<CStmt>> = vec![Vec::new()];
        for stmt in body_stmts {
            if matches!(&stmt, CStmt::Comment(c) if c == KERNEL_SPLIT_MARKER) {
                segments.push(Vec::new());
            } else {
                segments
                    .last_mut()
                    .expect("segments is non-empty")
                    .push(stmt);
            }
        }
        // Every marker snapshots one declaration group; a mismatch means a marker was
        // buried below the top level (which the nesting guard forbids) and zipping the two
        // lists would silently drop a kernel body — make it a hard error, not a debug
        // assertion.
        if segments.len() != self.segment_decls.len() {
            return Err(CodegenError::Unsupported(format!(
                "internal error: {} kernel segments but {} declaration groups — a kernel \
                 split marker escaped the top-level statement stream",
                segments.len(),
                self.segment_decls.len()
            )));
        }

        // A value in private or local memory does not survive a kernel boundary: reject any
        // derivation whose later stage reads a declaration of an earlier one.
        let mut earlier_decls: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (i, segment) in segments.iter().enumerate() {
            let decls = &self.segment_decls[i];
            if i > 0 {
                if let Some(name) = segment
                    .iter()
                    .chain(decls.iter())
                    .find_map(|s| stmt_reference_in(s, &earlier_decls))
                {
                    return Err(CodegenError::Unsupported(format!(
                        "intermediate `{name}` lives in private or local memory but is \
                         consumed after a device-wide synchronisation point; it must be \
                         staged in global memory (toGlobal) to cross the kernel boundary"
                    )));
                }
            }
            for s in decls.iter().chain(segment.iter()) {
                collect_decl_names(s, &mut earlier_decls);
            }
        }

        let base_name = self.program.name().to_string();
        let multi = segments.len() > 1;
        let mut kernels = Vec::new();
        for (i, (decls, segment)) in self.segment_decls.drain(..).zip(segments).enumerate() {
            let mut kernel_body = decls;
            kernel_body.extend(segment);
            let name = if multi {
                format!("{base_name}_k{i}")
            } else {
                base_name.clone()
            };
            let kernel = Kernel {
                name: name.clone(),
                params: kernel_params.clone(),
                body: kernel_body,
            };
            let parallel = kernel.uses_work_items();
            self.module.kernels.push(kernel);
            kernels.push(KernelStage { name, parallel });
        }

        Ok(CompiledProgram {
            module: std::mem::take(&mut self.module),
            kernels,
            temp_buffers,
            params,
            output_len,
        })
    }

    // -------------------------------------------------------------------- expressions

    /// Generates code that writes the value of `expr` through the destination view.
    fn gen_expr(&mut self, expr: ExprId, dest: &View) -> Result<Vec<CStmt>, CodegenError> {
        match self.program.expr(expr).kind.clone() {
            ExprKind::Literal(lit) => {
                let target = resolve(dest, &self.builder)?;
                Ok(vec![store_stmt(&target, literal_expr(lit), &self.builder)?])
            }
            ExprKind::Param { name } => Err(CodegenError::Unsupported(format!(
                "program result is the unmodified parameter `{name}`; wrap it in map(id)"
            ))),
            ExprKind::FunCall { f, args } => self.gen_call(expr, f, &args, dest),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn gen_call(
        &mut self,
        expr: ExprId,
        f: FunDeclId,
        args: &[ExprId],
        dest: &View,
    ) -> Result<Vec<CStmt>, CodegenError> {
        let decl = self.program.decl(f).clone();
        match decl {
            FunDecl::Lambda { .. } | FunDecl::UserFun(_) => {
                let mut stmts = Vec::new();
                let mut views = Vec::new();
                let mut types = Vec::new();
                for a in args {
                    let (v, t) = self.read_view(*a, &mut stmts)?;
                    views.push(v);
                    types.push(t);
                }
                stmts.extend(self.gen_apply(f, &views, &types, dest)?);
                Ok(stmts)
            }
            FunDecl::Pattern(pattern) => match pattern {
                // Data-layout patterns transform the destination and recurse into the argument.
                Pattern::Join => {
                    let arg_ty = self.program.type_of(args[0]).clone();
                    let inner = inner_len(&arg_ty)?;
                    let new_dest = View::Split { base: Box::new(dest.clone()), chunk: inner };
                    self.gen_expr(args[0], &new_dest)
                }
                Pattern::Split { chunk } => {
                    let new_dest = View::Join { base: Box::new(dest.clone()), inner: chunk };
                    self.gen_expr(args[0], &new_dest)
                }
                Pattern::Scatter { reorder } => {
                    let arg_ty = self.program.type_of(args[0]).clone();
                    let len = outer_len(&arg_ty)?;
                    let new_dest =
                        View::Reorder { base: Box::new(dest.clone()), reorder, len };
                    self.gen_expr(args[0], &new_dest)
                }
                Pattern::Gather { reorder } => match reorder {
                    Reorder::Identity => self.gen_expr(args[0], dest),
                    _ => Err(CodegenError::Unsupported(
                        "gather directly on the write path (use it on the read side)".into(),
                    )),
                },
                Pattern::Transpose => {
                    let new_dest = View::Transpose { base: Box::new(dest.clone()) };
                    self.gen_expr(args[0], &new_dest)
                }
                Pattern::AsScalar => {
                    let arg_ty = self.program.type_of(args[0]).clone();
                    let width = vector_width_of(&arg_ty)?;
                    let new_dest = View::AsVector { base: Box::new(dest.clone()), width };
                    self.gen_expr(args[0], &new_dest)
                }
                Pattern::AsVector { width } => {
                    let new_dest = View::AsScalar { base: Box::new(dest.clone()), width };
                    self.gen_expr(args[0], &new_dest)
                }
                Pattern::Id => self.gen_expr(args[0], dest),
                Pattern::ToGlobal { f } | Pattern::ToLocal { f } | Pattern::ToPrivate { f } => {
                    self.gen_call(expr, f, args, dest)
                }
                Pattern::Slide { .. }
                | Pattern::Pad { .. }
                | Pattern::Zip { .. }
                | Pattern::Get { .. } => {
                    Err(CodegenError::Unsupported(format!(
                        "`{}` cannot appear as the final producer of a value; it is a read-side pattern",
                        pattern.name()
                    )))
                }
                // Computational patterns: build read views for the arguments and apply.
                _ => {
                    let mut stmts = Vec::new();
                    let mut views = Vec::new();
                    let mut types = Vec::new();
                    for a in args {
                        let (v, t) = self.read_view(*a, &mut stmts)?;
                        views.push(v);
                        types.push(t);
                    }
                    stmts.extend(self.gen_pattern(expr, &pattern, &views, &types, dest)?);
                    Ok(stmts)
                }
            },
        }
    }

    /// Computes a readable view of `expr`, generating code into `stmts` if the expression is a
    /// computation that must be materialised first.
    fn read_view(
        &mut self,
        expr: ExprId,
        stmts: &mut Vec<CStmt>,
    ) -> Result<(View, Type), CodegenError> {
        let ty = self.program.type_of(expr).clone();
        if let Some(v) = self.views.get(&expr) {
            return Ok((v.clone(), ty));
        }
        let view = match self.program.expr(expr).kind.clone() {
            ExprKind::Literal(lit) => View::Constant(lit),
            ExprKind::Param { name } => {
                return Err(CodegenError::Unsupported(format!(
                    "parameter `{name}` used before it was bound to a view"
                )))
            }
            ExprKind::FunCall { f, args } => match self.program.decl(f).clone() {
                FunDecl::Pattern(pattern) => match pattern {
                    Pattern::Split { chunk } => {
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::Split {
                            base: Box::new(base),
                            chunk,
                        }
                    }
                    Pattern::Join => {
                        let arg_ty = self.program.type_of(args[0]).clone();
                        let inner = inner_len(&arg_ty)?;
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::Join {
                            base: Box::new(base),
                            inner,
                        }
                    }
                    Pattern::Gather { reorder } => {
                        let arg_ty = self.program.type_of(args[0]).clone();
                        let len = outer_len(&arg_ty)?;
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::Reorder {
                            base: Box::new(base),
                            reorder,
                            len,
                        }
                    }
                    Pattern::Scatter { reorder } => {
                        let arg_ty = self.program.type_of(args[0]).clone();
                        let len = outer_len(&arg_ty)?;
                        let inverse = invert_reorder(&reorder, &len)?;
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::Reorder {
                            base: Box::new(base),
                            reorder: inverse,
                            len,
                        }
                    }
                    Pattern::Transpose => {
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::Transpose {
                            base: Box::new(base),
                        }
                    }
                    Pattern::Slide { step, .. } => {
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::Slide {
                            base: Box::new(base),
                            step,
                        }
                    }
                    Pattern::Pad { left, mode, .. } => {
                        let arg_ty = self.program.type_of(args[0]).clone();
                        let len = outer_len(&arg_ty)?;
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::Layout {
                            base: Box::new(base),
                            skip: 0,
                            ops: vec![LayoutOp::Pad { left, len, mode }],
                        }
                    }
                    Pattern::Zip { .. } => {
                        let mut bases = Vec::with_capacity(args.len());
                        for a in args {
                            bases.push(self.read_view(a, stmts)?.0);
                        }
                        View::Zip { bases }
                    }
                    Pattern::Get { index } => {
                        let (base, _) = self.read_view(args[0], stmts)?;
                        base.component(index)
                    }
                    Pattern::AsVector { width } => {
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::AsVector {
                            base: Box::new(base),
                            width,
                        }
                    }
                    Pattern::AsScalar => {
                        let arg_ty = self.program.type_of(args[0]).clone();
                        let width = vector_width_of(&arg_ty)?;
                        let (base, _) = self.read_view(args[0], stmts)?;
                        View::AsScalar {
                            base: Box::new(base),
                            width,
                        }
                    }
                    Pattern::Id => self.read_view(args[0], stmts)?.0,
                    Pattern::Iterate { .. } => {
                        let (result_view, code) = self.gen_iterate(expr, f, &args)?;
                        stmts.extend(code);
                        result_view
                    }
                    // A map (of any flavour) whose function is purely a layout chain moves
                    // no data: it becomes a view transformation of the dimensions below the
                    // mapped ones instead of a loop-and-materialise. This is what makes 2D
                    // stencil compositions (`slide2d` = map(transpose) ∘ slide ∘ map(slide),
                    // `pad2d` = map(pad) ∘ pad) — and their map-fused forms such as
                    // `mapSeq(λx. slide(pad(x)))` — compile without intermediate buffers.
                    pattern => {
                        let nested = match &pattern {
                            Pattern::MapSeq { f }
                            | Pattern::MapGlb { f, .. }
                            | Pattern::MapWrg { f, .. }
                            | Pattern::MapLcl { f, .. } => Some(*f),
                            _ => None,
                        };
                        let mapped = nested.and_then(|f| {
                            let elem_ty = self.program.type_of(args[0]).as_array()?.0.clone();
                            let (base, _) = self.read_view(args[0], stmts).ok()?;
                            self.layout_fun_view(f, &elem_ty, 1, base)
                        });
                        match mapped {
                            Some(view) => view,
                            None => self.materialise(expr, stmts)?,
                        }
                    }
                },
                _ => self.materialise(expr, stmts)?,
            },
        };
        self.views.insert(expr, view.clone());
        Ok((view, ty))
    }

    /// The [`LayoutOp`] of a pure layout pattern applied to a value of type `arg_ty`, or
    /// `None` when the pattern is not a layout transformation.
    fn layout_op(&self, p: &Pattern, arg_ty: &Type) -> Option<LayoutOp> {
        match p {
            Pattern::Slide { step, .. } => Some(LayoutOp::Slide { step: step.clone() }),
            Pattern::Split { chunk } => Some(LayoutOp::Split {
                chunk: chunk.clone(),
            }),
            Pattern::Join => {
                let inner = inner_len(arg_ty).ok()?;
                Some(LayoutOp::Join { inner })
            }
            Pattern::Transpose => Some(LayoutOp::Transpose),
            Pattern::Gather { reorder } => {
                let len = outer_len(arg_ty).ok()?;
                Some(LayoutOp::Reorder {
                    reorder: reorder.clone(),
                    len,
                })
            }
            Pattern::Scatter { reorder } => {
                // Reading through a scatter is reading through the inverse permutation.
                let len = outer_len(arg_ty).ok()?;
                let inverse = invert_reorder(reorder, &len).ok()?;
                Some(LayoutOp::Reorder {
                    reorder: inverse,
                    len,
                })
            }
            Pattern::Pad { left, mode, .. } => {
                let len = outer_len(arg_ty).ok()?;
                Some(LayoutOp::Pad {
                    left: left.clone(),
                    len,
                    mode: *mode,
                })
            }
            _ => None,
        }
    }

    /// Builds the view of applying function `f` (element-wise, `skip` mapped dimensions
    /// below the surface) to the data viewed by `base`, **iff** `f` is a pure layout
    /// function: a layout pattern, a further map of one, or a lambda whose body is a chain
    /// of layout applications of its parameter (the shape map fusion produces, e.g.
    /// `λx. slide(pad(x))`).
    ///
    /// `elem_ty` is the type of the values `f` is applied to, which supplies the dimension
    /// extents some ops need (`join`'s inner length, `pad`'s un-padded length, …).
    fn layout_fun_view(
        &self,
        f: FunDeclId,
        elem_ty: &Type,
        skip: usize,
        base: View,
    ) -> Option<View> {
        match self.program.decl(f) {
            FunDecl::Pattern(p) => match p {
                Pattern::MapSeq { f }
                | Pattern::MapGlb { f, .. }
                | Pattern::MapWrg { f, .. }
                | Pattern::MapLcl { f, .. } => {
                    let (inner_elem, _) = elem_ty.as_array()?;
                    self.layout_fun_view(*f, inner_elem, skip + 1, base)
                }
                Pattern::Id => Some(base),
                p => {
                    let op = self.layout_op(p, elem_ty)?;
                    Some(View::Layout {
                        base: Box::new(base),
                        skip,
                        ops: vec![op],
                    })
                }
            },
            FunDecl::Lambda { params, body } => {
                let [param] = params.as_slice() else {
                    return None;
                };
                self.layout_expr_view(*body, *param, skip, base)
            }
            FunDecl::UserFun(_) => None,
        }
    }

    /// The lambda-body recursion of [`Generator::layout_fun_view`]: a chain of unary layout
    /// applications terminating at `param`. Views wrap from the inside out, so the
    /// outermost application ends up as the outermost [`View::Layout`] node — the order the
    /// view walk consumes them in.
    fn layout_expr_view(&self, e: ExprId, param: ExprId, skip: usize, base: View) -> Option<View> {
        match &self.program.expr(e).kind {
            ExprKind::Param { .. } if e == param => Some(base),
            ExprKind::FunCall { f, args } => {
                let [arg] = args.as_slice() else {
                    return None;
                };
                let (f, arg) = (*f, *arg);
                let arg_ty = self.program.expr(arg).ty.clone()?;
                let inner = self.layout_expr_view(arg, param, skip, base)?;
                match self.program.decl(f) {
                    FunDecl::Pattern(p) => match p {
                        Pattern::MapSeq { f }
                        | Pattern::MapGlb { f, .. }
                        | Pattern::MapWrg { f, .. }
                        | Pattern::MapLcl { f, .. } => {
                            let (inner_elem, _) = arg_ty.as_array()?;
                            self.layout_fun_view(*f, inner_elem, skip + 1, inner)
                        }
                        Pattern::Id => Some(inner),
                        p => {
                            let op = self.layout_op(p, &arg_ty)?;
                            Some(View::Layout {
                                base: Box::new(inner),
                                skip,
                                ops: vec![op],
                            })
                        }
                    },
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Allocates a buffer (or scalar variable) for the value of `expr`, generates the code
    /// producing it, and returns a view of the new storage.
    ///
    /// A global-memory intermediate becomes a host-allocated temporary shared by a kernel
    /// *sequence*: the producing code ends the current kernel (the kernel boundary is the
    /// device-wide synchronisation point) and the consumer reads the temporary in the next
    /// one.
    fn materialise(&mut self, expr: ExprId, stmts: &mut Vec<CStmt>) -> Result<View, CodegenError> {
        let ty = self.program.type_of(expr).clone();
        let space = match self.spaces.get(&expr) {
            Some(space) => *space,
            // A scalar always fits a register; anything larger without an inferred space
            // is a compiler bug upstream — refuse instead of silently spilling a large
            // array into per-thread private memory.
            None if ty.is_scalar() => AddressSpace::Private,
            None => {
                return Err(CodegenError::MissingAddressSpace(format!(
                    "an intermediate of type `{ty}` must be materialised, but address-space \
                     inference did not visit it"
                )))
            }
        };
        if space == AddressSpace::Global {
            return self.materialise_global(expr, &ty, stmts);
        }
        self.check_ownership(expr, &ty, space)?;
        let view = self.allocate(&ty, space)?;
        let code = self.gen_expr(expr, &view)?;
        // A group-shared `__local` array is fenced where it finishes materialising: the
        // ownership check above guarantees the producing code runs at work-group level,
        // where control flow is uniform — unlike the bodies of nested `mapLcl` loops,
        // whose own trailing barriers (the pre-refactor placement) become divergent as
        // soon as an outer map guards or strides them (2D tiling does both). Inside a
        // loop (`nesting > 0`) the buffer is re-staged every iteration, so a *leading*
        // fence also closes the previous iteration's reads before they are overwritten.
        let cooperative =
            space == AddressSpace::Local && !matches!(&view, View::Memory { scalar: true, .. });
        if cooperative && self.options.barrier_elimination {
            if self.nesting > 0 {
                stmts.push(CStmt::Barrier(Fence::local()));
            }
            stmts.extend(code);
            stmts.push(CStmt::Barrier(Fence::local()));
        } else {
            stmts.extend(code);
        }
        Ok(view)
    }

    /// The parallelism-ownership check: refuses to allocate a group-shared `__local` array
    /// whose producing code executes at work-item level. The array is allocated once per
    /// work group, but the producer would run per work item with work-item-varying data —
    /// every work item writing the whole buffer is a write-write data race. (Local
    /// *scalars* compile to per-thread registers and private memory is per-work-item by
    /// construction, so neither can alias across work items.)
    fn check_ownership(
        &self,
        expr: ExprId,
        ty: &Type,
        space: AddressSpace,
    ) -> Result<(), CodegenError> {
        if space != AddressSpace::Local {
            return Ok(());
        }
        let scalar = ty.element_count().as_cst() == Some(1) && ty.array_depth() <= 1;
        if scalar {
            return Ok(());
        }
        let writer_level = self
            .levels
            .get(&expr)
            .copied()
            .unwrap_or(ParallelismLevel::WorkGroup);
        if writer_level.is_work_item() {
            return Err(CodegenError::OwnershipViolation {
                buffer: format!("a __local intermediate of type `{ty}`"),
                writer_level,
                owner_level: ParallelismLevel::owner_of(space),
                site: render_site(&self.program, expr),
            });
        }
        Ok(())
    }

    /// Materialises `expr` into a global temporary and splits the program: the producing
    /// code ends the current kernel, and everything generated afterwards belongs to the
    /// next kernel of the sequence.
    fn materialise_global(
        &mut self,
        expr: ExprId,
        ty: &Type,
        stmts: &mut Vec<CStmt>,
    ) -> Result<View, CodegenError> {
        if self.nesting > 0 {
            return Err(CodegenError::Unsupported(
                "a global-memory intermediate inside a nested pattern would need a \
                 device-wide barrier within a kernel, which OpenCL does not have; only \
                 top-level pipeline stages can be split into separate kernels"
                    .into(),
            ));
        }
        if !ty.is_array() {
            return Err(CodegenError::Unsupported(format!(
                "a non-array intermediate of type `{ty}` cannot be staged in global memory"
            )));
        }
        let name = self.fresh("tmp_g");
        self.temp_buffers.push((name.clone(), ty.clone()));
        let view = View::memory(name, AddressSpace::Global, array_dims(ty));
        let code = self.gen_expr(expr, &view)?;
        stmts.extend(code);
        // Device-wide synchronisation point: end the current kernel here.
        stmts.push(CStmt::Comment(KERNEL_SPLIT_MARKER.into()));
        self.segment_decls.push(std::mem::take(&mut self.decls));
        Ok(view)
    }

    /// Allocates storage of the given type in local or private memory and returns its view
    /// (global intermediates go through [`Generator::materialise_global`] instead).
    fn allocate(&mut self, ty: &Type, space: AddressSpace) -> Result<View, CodegenError> {
        let elem_count = ty.element_count();
        let scalar = elem_count.as_cst() == Some(1) && ty.array_depth() <= 1;
        debug_assert_ne!(space, AddressSpace::Global, "handled by materialise_global");
        let ctype = scalar_ctype(ty.innermost());
        if scalar {
            let name = self.fresh("acc");
            self.decls.push(CStmt::Decl {
                ty: ctype,
                name: name.clone(),
                addr: None,
                array_len: None,
                init: None,
            });
            Ok(View::scalar_var(name, space))
        } else {
            let name = self.fresh("tmp");
            self.decls.push(CStmt::Decl {
                ty: ctype,
                name: name.clone(),
                addr: Some(addr_of(space)),
                array_len: Some(elem_count),
                init: None,
            });
            Ok(View::memory(name, space, array_dims(ty)))
        }
    }

    // -------------------------------------------------------------------- function application

    /// Generates code applying function `f` to data described by `views` (with the given
    /// types), writing the result through `dest`.
    fn gen_apply(
        &mut self,
        f: FunDeclId,
        views: &[View],
        types: &[Type],
        dest: &View,
    ) -> Result<Vec<CStmt>, CodegenError> {
        match self.program.decl(f).clone() {
            FunDecl::Lambda { params, body } => {
                if params.len() != views.len() {
                    return Err(CodegenError::Unsupported(
                        "lambda applied to the wrong number of arguments".into(),
                    ));
                }
                for (p, v) in params.iter().zip(views) {
                    self.views.insert(*p, v.clone());
                }
                // Re-annotate the lambda body for these argument types: the whole-program
                // inference may have typed it at a different (e.g. unrolled) instantiation.
                lift_ir::infer_call_types(&mut self.program, f, types)?;
                self.gen_expr(body, dest)
            }
            FunDecl::UserFun(uf) => {
                let call = self.user_fun_call(&uf, views, types, None)?;
                let target = resolve(dest, &self.builder)?;
                Ok(vec![store_stmt(&target, call, &self.builder)?])
            }
            FunDecl::Pattern(pattern) => self.gen_pattern_from_views(&pattern, views, types, dest),
        }
    }

    /// Dispatch for computational patterns reached through [`Generator::gen_call`].
    fn gen_pattern(
        &mut self,
        expr: ExprId,
        pattern: &Pattern,
        views: &[View],
        types: &[Type],
        dest: &View,
    ) -> Result<Vec<CStmt>, CodegenError> {
        match pattern {
            Pattern::Iterate { .. } => {
                // Iterate reached with an explicit destination: generate it, then copy.
                let f = match &self.program.expr(expr).kind {
                    ExprKind::FunCall { f, .. } => *f,
                    _ => unreachable!("gen_pattern is only called on calls"),
                };
                let args: Vec<ExprId> = match &self.program.expr(expr).kind {
                    ExprKind::FunCall { args, .. } => args.clone(),
                    _ => unreachable!("gen_pattern is only called on calls"),
                };
                let (result_view, mut stmts) = self.gen_iterate(expr, f, &args)?;
                let out_ty = self.program.type_of(expr).clone();
                stmts.extend(self.copy_loop(&result_view, dest, &out_ty)?);
                Ok(stmts)
            }
            _ => self.gen_pattern_from_views(pattern, views, types, dest),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn gen_pattern_from_views(
        &mut self,
        pattern: &Pattern,
        views: &[View],
        types: &[Type],
        dest: &View,
    ) -> Result<Vec<CStmt>, CodegenError> {
        match pattern {
            Pattern::MapSeq { f } => {
                self.gen_map_loop(MapKind::Seq, *f, &views[0], &types[0], dest)
            }
            Pattern::MapGlb { dim, f } => {
                self.gen_map_loop(MapKind::Global(*dim), *f, &views[0], &types[0], dest)
            }
            Pattern::MapWrg { dim, f } => {
                self.gen_map_loop(MapKind::WorkGroup(*dim), *f, &views[0], &types[0], dest)
            }
            Pattern::MapLcl { dim, f } => {
                self.gen_map_loop(MapKind::Local(*dim), *f, &views[0], &types[0], dest)
            }
            Pattern::MapVec { f } => self.gen_map_vec(*f, &views[0], &types[0], dest),
            Pattern::ReduceSeq { f } => {
                self.gen_reduce(*f, &views[0], &types[0], &views[1], &types[1], dest)
            }
            Pattern::Id => {
                // Identity over a scalar value: a single copy.
                let value = self.load_value(&views[0], &types[0])?;
                let target = resolve(dest, &self.builder)?;
                Ok(vec![store_stmt(&target, value, &self.builder)?])
            }
            Pattern::ToGlobal { f } | Pattern::ToLocal { f } | Pattern::ToPrivate { f } => {
                self.gen_apply(*f, views, types, dest)
            }
            other => Err(CodegenError::Unsupported(format!(
                "pattern `{}` cannot be generated in this position",
                other.name()
            ))),
        }
    }

    /// The distributed-write half of the parallelism-ownership pass (the dual of
    /// [`Generator::check_ownership`]): a parallel map writes one result cell per work
    /// item (`mapGlb`/`mapLcl`) or per work group (`mapWrg`), so its destination must be
    /// shared at least as widely as the map distributes. Writing into narrower memory —
    /// a `mapGlb` result landing in a per-thread `__private` array, or a `mapWrg` result
    /// in a per-group `__local` one — leaves every owner holding only its own slice: a
    /// consumer reading the whole array sees the other cells uninitialised on a real GPU,
    /// even though the in-order virtual GPU masks it (the dynamic race detector catches
    /// it as conflicting writes to whatever the garbage feeds).
    fn check_distribution(
        &self,
        kind: MapKind,
        input_ty: &Type,
        dest: &View,
    ) -> Result<(), CodegenError> {
        let dest_space = view_space(dest);
        let (name, writer_level, violation) = match kind {
            MapKind::Seq => return Ok(()),
            MapKind::Global(_) => (
                "mapGlb",
                ParallelismLevel::WorkItem,
                dest_space != AddressSpace::Global,
            ),
            MapKind::WorkGroup(_) => (
                "mapWrg",
                ParallelismLevel::WorkGroup,
                dest_space != AddressSpace::Global,
            ),
            MapKind::Local(_) => (
                "mapLcl",
                ParallelismLevel::WorkItem,
                dest_space == AddressSpace::Private,
            ),
        };
        if !violation {
            return Ok(());
        }
        let space = match dest_space {
            AddressSpace::Local => "__local",
            _ => "__private",
        };
        Err(CodegenError::OwnershipViolation {
            buffer: format!("the {space} destination of a distributed `{name}`"),
            writer_level,
            owner_level: ParallelismLevel::owner_of(dest_space),
            site: format!("{name} over `{input_ty}`"),
        })
    }

    fn gen_map_loop(
        &mut self,
        kind: MapKind,
        f: FunDeclId,
        input: &View,
        input_ty: &Type,
        dest: &View,
    ) -> Result<Vec<CStmt>, CodegenError> {
        let (elem_ty, len) = input_ty
            .as_array()
            .map(|(e, l)| (e.clone(), l.clone()))
            .ok_or_else(|| CodegenError::Unsupported("map over a non-array value".into()))?;
        self.check_distribution(kind, input_ty, dest)?;
        // The dimension-aware half of the distribution check: nesting two parallel loops
        // of the same kind over the same dimension makes both stride the same work-item
        // id, so only the "diagonal" index pairs are ever computed — the off-diagonal
        // cells are written by no work item. This is a silent miscompile (the in-order
        // virtual GPU masks it for some launches), rejected statically instead.
        let parallel_tag = match kind {
            MapKind::Seq => None,
            MapKind::Global(d) => Some(("mapGlb", d)),
            MapKind::WorkGroup(d) => Some(("mapWrg", d)),
            MapKind::Local(d) => Some(("mapLcl", d)),
        };
        if let Some(tag) = parallel_tag {
            if self.active_parallel.contains(&tag) {
                return Err(CodegenError::Unsupported(format!(
                    "nested `{}` loops over dimension {}: both stride the same work-item \
                     id, so off-diagonal index pairs are computed by no work item; \
                     distribute the inner map over a different dimension (e.g. `{}` with \
                     dim 1) or lower it sequentially",
                    tag.0, tag.1, tag.0
                )));
            }
        }

        let (var_base, init, step, extent) = match kind {
            MapKind::Seq => ("i", CExpr::int(0), CExpr::int(1), None),
            MapKind::Global(d) => (
                "gl_id",
                CExpr::global_id(d),
                CExpr::global_size(d),
                Some((LaunchExtent::Global, d)),
            ),
            MapKind::WorkGroup(d) => (
                "wg_id",
                CExpr::group_id(d),
                CExpr::num_groups(d),
                Some((LaunchExtent::WorkGroup, d)),
            ),
            MapKind::Local(d) => (
                "l_id",
                CExpr::local_id(d),
                CExpr::local_size(d),
                Some((LaunchExtent::Local, d)),
            ),
        };
        let var = self.fresh(var_base);
        let simplify_cf = self.options.control_flow_simplification;
        // A sequential map over a single element needs neither a loop nor a loop variable:
        // index the element directly with 0 (control-flow simplification, Section 5.5).
        let collapse_seq = simplify_cf && matches!(kind, MapKind::Seq) && len.as_cst() == Some(1);
        let loop_var = if collapse_seq {
            ArithExpr::cst(0)
        } else {
            ArithExpr::var_in_range(&var, 0, len.clone())
        };

        let elem_view = input.clone().access(loop_var.clone());
        let elem_dest = dest.clone().access(loop_var.clone());
        self.nesting += 1;
        if let Some(tag) = parallel_tag {
            self.active_parallel.push(tag);
        }
        let body = self.gen_apply(f, &[elem_view], &[elem_ty], &elem_dest);
        if parallel_tag.is_some() {
            self.active_parallel.pop();
        }
        self.nesting -= 1;
        let body = body?;

        // The one place the launch enters code generation: how a constant length compares
        // with the extent the map is distributed over. Asked only where the answer is used.
        let elements_vs_threads = match (extent, len.as_cst()) {
            (Some((extent, d)), Some(n)) if simplify_cf => {
                Some(self.trace.ask(&self.options, extent, d, n))
            }
            _ => None,
        };
        let mut stmts = Vec::new();
        match elements_vs_threads {
            // Sequential map over a single element: no loop at all.
            None if collapse_seq => {
                stmts.extend(body);
            }
            // Parallel map with exactly as many threads as elements: a block with the id bound.
            Some(Ordering::Equal) => {
                let mut block = vec![CStmt::Decl {
                    ty: CType::Int,
                    name: var.clone(),
                    addr: None,
                    array_len: None,
                    init: Some(init),
                }];
                block.extend(body);
                stmts.push(CStmt::Block(block));
            }
            // Fewer elements than threads: guard with an `if`.
            Some(Ordering::Less) => {
                let mut block = vec![CStmt::Decl {
                    ty: CType::Int,
                    name: var.clone(),
                    addr: None,
                    array_len: None,
                    init: Some(init),
                }];
                block.push(CStmt::If {
                    cond: CExpr::var(&var).lt(CExpr::Index(len.clone())),
                    then: body,
                    otherwise: None,
                });
                stmts.push(CStmt::Block(block));
            }
            _ => {
                stmts.push(CStmt::For {
                    var: var.clone(),
                    init,
                    cond: CExpr::var(&var).lt(CExpr::Index(len.clone())),
                    step,
                    body,
                });
            }
        }

        // Synchronisation after parallel local maps (Section 5.4). With barrier
        // elimination enabled no per-loop barrier is emitted at all: `__local` buffers are
        // fenced once where they finish materialising (see [`Generator::materialise`],
        // always at uniform work-group-level control flow), and a write to global memory
        // is never read back within the same kernel (global intermediates split the kernel
        // sequence, whose boundary is the device-wide barrier), so its fence is dead.
        // Without elimination every local map keeps its naive trailing barrier — the
        // unoptimised configuration Figure 8 measures.
        let dest_space = view_space(dest);
        let barrier = match kind {
            MapKind::Local(_) if !self.options.barrier_elimination => match dest_space {
                AddressSpace::Local | AddressSpace::Private => Some(Fence::local()),
                AddressSpace::Global => Some(Fence::global()),
            },
            _ => None,
        };
        if let Some(fence) = barrier {
            stmts.push(CStmt::Barrier(fence));
        }
        Ok(stmts)
    }

    fn gen_map_vec(
        &mut self,
        f: FunDeclId,
        input: &View,
        input_ty: &Type,
        dest: &View,
    ) -> Result<Vec<CStmt>, CodegenError> {
        let uf = match self.program.decl(f).clone() {
            FunDecl::UserFun(uf) => uf,
            _ => {
                return Err(CodegenError::Unsupported(
                    "mapVec expects a user function".into(),
                ))
            }
        };
        let width = match input_ty {
            Type::Vector(_, w) => *w,
            _ => {
                return Err(CodegenError::Unsupported(
                    "mapVec over a non-vector value".into(),
                ))
            }
        };
        let call = self.user_fun_call(
            &uf,
            std::slice::from_ref(input),
            std::slice::from_ref(input_ty),
            Some(width),
        )?;
        let target = resolve(dest, &self.builder)?;
        Ok(vec![store_stmt(&target, call, &self.builder)?])
    }

    fn gen_reduce(
        &mut self,
        f: FunDeclId,
        init_view: &View,
        init_ty: &Type,
        input_view: &View,
        input_ty: &Type,
        dest: &View,
    ) -> Result<Vec<CStmt>, CodegenError> {
        let (elem_ty, len) = input_ty
            .as_array()
            .map(|(e, l)| (e.clone(), l.clone()))
            .ok_or_else(|| CodegenError::Unsupported("reduce over a non-array value".into()))?;

        // Accumulate either directly in the destination (when it is a private scalar) or in a
        // fresh private accumulator written back once at the end, like `acc1` in Figure 7.
        let dest_resolved = resolve(&dest.clone().access(ArithExpr::cst(0)), &self.builder)?;
        let (acc_view, needs_writeback) = match &dest_resolved {
            Resolved::MemoryAccess {
                scalar: true,
                memory,
                ..
            } => (
                View::scalar_var(memory.clone(), AddressSpace::Private),
                false,
            ),
            _ => {
                let name = self.fresh("acc");
                self.decls.push(CStmt::Decl {
                    ty: scalar_ctype(init_ty.innermost()),
                    name: name.clone(),
                    addr: None,
                    array_len: None,
                    init: None,
                });
                (View::scalar_var(name, AddressSpace::Private), true)
            }
        };

        let mut stmts = Vec::new();
        // acc = init
        let init_value = self.load_value(init_view, init_ty)?;
        let acc_target = resolve(&acc_view, &self.builder)?;
        stmts.push(store_stmt(&acc_target, init_value, &self.builder)?);

        // Accumulation loop. A reduction over a single element needs no loop or loop variable.
        let collapse = self.options.control_flow_simplification && len.as_cst() == Some(1);
        let var = self.fresh("i");
        let loop_var = if collapse {
            ArithExpr::cst(0)
        } else {
            ArithExpr::var_in_range(&var, 0, len.clone())
        };
        let elem_view = input_view.clone().access(loop_var.clone());
        self.nesting += 1;
        let body = self.gen_apply(
            f,
            &[acc_view.clone(), elem_view],
            &[init_ty.clone(), elem_ty],
            &acc_view,
        );
        self.nesting -= 1;
        let body = body?;
        if collapse {
            stmts.extend(body);
        } else {
            stmts.push(CStmt::For {
                var: var.clone(),
                init: CExpr::int(0),
                cond: CExpr::var(&var).lt(CExpr::Index(len)),
                step: CExpr::int(1),
                body,
            });
        }

        if needs_writeback {
            let acc_value = self.load_value(&acc_view, init_ty)?;
            stmts.push(store_stmt(&dest_resolved, acc_value, &self.builder)?);
        }
        Ok(stmts)
    }

    /// Generates the double-buffered loop for `iterate` (Figure 7, lines 17–29) and returns
    /// the view of the buffer holding the final result.
    fn gen_iterate(
        &mut self,
        expr: ExprId,
        f: FunDeclId,
        args: &[ExprId],
    ) -> Result<(View, Vec<CStmt>), CodegenError> {
        let (n, body_fun) = match self.program.decl(f).clone() {
            FunDecl::Pattern(Pattern::Iterate { n, f }) => (n, f),
            _ => {
                return Err(CodegenError::Unsupported(
                    "gen_iterate on a non-iterate".into(),
                ))
            }
        };
        let mut stmts = Vec::new();
        let (input_view, input_ty) = self.read_view(args[0], &mut stmts)?;
        let out_ty = self.program.type_of(expr).clone();

        let (elem_ty, in_len) = input_ty
            .as_array()
            .map(|(e, l)| (e.clone(), l.clone()))
            .ok_or_else(|| CodegenError::Unsupported("iterate over a non-array".into()))?;
        let out_len = outer_len(&out_ty)?;
        let (in_c, out_c) = match (in_len.as_cst(), out_len.as_cst()) {
            (Some(a), Some(b)) if a > 0 && b > 0 => (a, b),
            _ => {
                return Err(CodegenError::Unsupported(
                    "iterate requires statically known lengths".into(),
                ))
            }
        };
        // Per-iteration shrink factor k with k^n == in/out.
        let factor = if n == 0 || in_c == out_c {
            1
        } else {
            let mut k = 1i64;
            for candidate in 2..=in_c {
                if candidate.checked_pow(n as u32) == Some(in_c / out_c) {
                    k = candidate;
                    break;
                }
            }
            k
        };

        let space = match &input_view {
            View::Memory { space, .. } => *space,
            _ => {
                return Err(CodegenError::Unsupported(
                    "iterate input must be materialised in a buffer".into(),
                ))
            }
        };
        if space == AddressSpace::Global {
            // The double-buffered loop would have to declare its second buffer in global
            // memory, which a kernel cannot allocate (and its barriers would only
            // synchronise one work group). This silently produced an invalid kernel-local
            // `global` array before; it is a typed error now.
            return Err(CodegenError::Unsupported(
                "`iterate` over a global-memory buffer is not supported; stage the data in \
                 local or private memory first (e.g. with toLocal)"
                    .into(),
            ));
        }
        let input_name = match &input_view {
            View::Memory { name, .. } => name.clone(),
            _ => unreachable!("checked above"),
        };
        // The double-buffered loop writes the whole ping/pong pair each sweep, so a local
        // iterate is only sound where the group executes it uniformly or its body
        // partitions writes across work items — same ownership rule as `materialise`.
        self.check_ownership(expr, &Type::array(elem_ty.clone(), in_len.clone()), space)?;

        // Second buffer for double buffering.
        let pong = self.fresh("tmp");
        self.decls.push(CStmt::Decl {
            ty: scalar_ctype(elem_ty.innermost()),
            name: pong.clone(),
            addr: Some(addr_of(space)),
            array_len: Some(ArithExpr::cst(in_c)),
            init: None,
        });

        let in_ptr = self.fresh("iter_in");
        let out_ptr = self.fresh("iter_out");
        let size_name = self.fresh("size");
        let ptr_ty = CType::pointer(scalar_ctype(elem_ty.innermost()), addr_of(space));
        stmts.push(CStmt::Decl {
            ty: ptr_ty.clone(),
            name: in_ptr.clone(),
            addr: None,
            array_len: None,
            init: Some(CExpr::var(&input_name)),
        });
        stmts.push(CStmt::Decl {
            ty: ptr_ty,
            name: out_ptr.clone(),
            addr: None,
            array_len: None,
            init: Some(CExpr::var(&pong)),
        });
        stmts.push(CStmt::Decl {
            ty: CType::Int,
            name: size_name.clone(),
            addr: None,
            array_len: None,
            init: Some(CExpr::int(in_c)),
        });

        // Body: apply the iterated function from `in` (length `size`) to `out`.
        let size_var = ArithExpr::var_in_range(&size_name, 1, ArithExpr::cst(in_c + 1));
        let body_in_ty = Type::array(elem_ty.clone(), size_var.clone());
        let body_in_view = View::memory(in_ptr.clone(), space, vec![size_var.clone()]);
        let body_out_view = View::memory(
            out_ptr.clone(),
            space,
            vec![size_var.clone() / ArithExpr::cst(factor)],
        );
        self.nesting += 1;
        let body = self.gen_apply(body_fun, &[body_in_view], &[body_in_ty], &body_out_view);
        self.nesting -= 1;
        let mut body = body?;
        body.push(CStmt::Barrier(Fence::local()));
        body.push(CStmt::Assign {
            lhs: CExpr::var(&size_name),
            rhs: CExpr::var(&size_name).div(CExpr::int(factor)),
        });
        // Swap the buffers: `in` becomes the buffer just written.
        body.push(CStmt::Assign {
            lhs: CExpr::var(&in_ptr),
            rhs: CExpr::Ternary(
                Box::new(CExpr::var(&out_ptr).eq(CExpr::var(&input_name))),
                Box::new(CExpr::var(&input_name)),
                Box::new(CExpr::var(&pong)),
            ),
        });
        body.push(CStmt::Assign {
            lhs: CExpr::var(&out_ptr),
            rhs: CExpr::Ternary(
                Box::new(CExpr::var(&in_ptr).eq(CExpr::var(&input_name))),
                Box::new(CExpr::var(&pong)),
                Box::new(CExpr::var(&input_name)),
            ),
        });

        let iter_var = self.fresh("iter");
        stmts.push(CStmt::For {
            var: iter_var.clone(),
            init: CExpr::int(0),
            cond: CExpr::var(&iter_var).lt(CExpr::int(n as i64)),
            step: CExpr::int(1),
            body,
        });

        let result_view = View::memory(in_ptr, space, vec![out_len]);
        Ok((result_view, stmts))
    }

    /// Emits a sequential element-by-element copy from `src` to `dest` (used when an `iterate`
    /// result must land in a caller-provided destination).
    fn copy_loop(
        &mut self,
        src: &View,
        dest: &View,
        ty: &Type,
    ) -> Result<Vec<CStmt>, CodegenError> {
        let (_, len) = ty
            .as_array()
            .map(|(e, l)| (e.clone(), l.clone()))
            .ok_or_else(|| CodegenError::Unsupported("copy of a non-array".into()))?;
        let var = self.fresh("c");
        let loop_var = ArithExpr::var_in_range(&var, 0, len.clone());
        let from = resolve(&src.clone().access(loop_var.clone()), &self.builder)?;
        let to = resolve(&dest.clone().access(loop_var), &self.builder)?;
        let body = vec![store_stmt(
            &to,
            load_expr(&from, &self.builder),
            &self.builder,
        )?];
        Ok(vec![CStmt::For {
            var: var.clone(),
            init: CExpr::int(0),
            cond: CExpr::var(&var).lt(CExpr::Index(len)),
            step: CExpr::int(1),
            body,
        }])
    }

    // -------------------------------------------------------------------- user functions

    /// Builds the call expression for a user function applied to the given argument views,
    /// registering the function (and any tuple structs) in the module.
    fn user_fun_call(
        &mut self,
        uf: &UserFun,
        views: &[View],
        types: &[Type],
        vector_width: Option<usize>,
    ) -> Result<CExpr, CodegenError> {
        let mut args = Vec::with_capacity(views.len());
        for (v, t) in views.iter().zip(types) {
            args.push(self.load_typed(v, t)?);
        }
        let fname = self.register_user_fun(uf, vector_width);
        Ok(CExpr::Call(fname, args))
    }

    /// Loads a value of the given type through a view: scalars load directly, tuples load each
    /// component into a struct literal, vectors use vector loads.
    fn load_typed(&mut self, view: &View, ty: &Type) -> Result<CExpr, CodegenError> {
        match ty {
            Type::Tuple(elems) => {
                let struct_name = ty.c_element_name();
                self.register_tuple_struct(ty);
                let mut fields = Vec::with_capacity(elems.len());
                for (i, elem_ty) in elems.iter().enumerate() {
                    let component = view.clone().component(i);
                    fields.push(self.load_typed(&component, elem_ty)?);
                }
                Ok(CExpr::StructLit(struct_name, fields))
            }
            _ => self.load_value(view, ty),
        }
    }

    fn load_value(&mut self, view: &View, _ty: &Type) -> Result<CExpr, CodegenError> {
        let resolved = resolve(view, &self.builder)?;
        Ok(load_expr(&resolved, &self.builder))
    }

    /// Registers the OpenCL function generated from a user function, returning its name.
    fn register_user_fun(&mut self, uf: &UserFun, vector_width: Option<usize>) -> String {
        let name = match vector_width {
            Some(w) => format!("{}_v{w}", uf.name()),
            None => uf.name().to_string(),
        };
        if self.module.function(&name).is_some() {
            return name;
        }
        let mut params = Vec::with_capacity(uf.arity());
        for (pname, pty) in uf.param_names().iter().zip(uf.param_types()) {
            let base = self.ctype_of(pty);
            let cty = match vector_width {
                Some(w) => CType::Vector(Box::new(base), w),
                None => base,
            };
            params.push((pname.clone(), cty));
        }
        let ret = match vector_width {
            Some(w) => CType::Vector(Box::new(self.ctype_of(uf.return_type())), w),
            None => self.ctype_of(uf.return_type()),
        };
        let body = scalar_to_cexpr(uf.body(), uf.param_names());
        self.module.add_function(CFunction {
            name: name.clone(),
            ret,
            params,
            body,
        });
        name
    }

    fn ctype_of(&mut self, ty: &Type) -> CType {
        match ty {
            Type::Tuple(_) => {
                self.register_tuple_struct(ty);
                CType::Struct(ty.c_element_name())
            }
            Type::Vector(k, w) => CType::Vector(Box::new(scalar_ctype(&Type::Scalar(*k))), *w),
            other => scalar_ctype(other),
        }
    }

    fn register_tuple_struct(&mut self, ty: &Type) {
        if let Type::Tuple(elems) = ty {
            let name = ty.c_element_name();
            let fields = elems
                .iter()
                .enumerate()
                .map(|(i, t)| (format!("_{i}"), scalar_ctype(t.innermost())))
                .collect();
            self.module.add_struct(StructDef { name, fields });
        }
    }
}

/// The flavours of map loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MapKind {
    Seq,
    Global(u8),
    WorkGroup(u8),
    Local(u8),
}

// ------------------------------------------------------------------------- helpers

/// Renders the producer expression of an ownership violation as one flattened line
/// (bounded length), so the typed error carries a readable site without a full listing.
fn render_site(program: &Program, expr: ExprId) -> String {
    let rendered = lift_ir::pretty::pretty_expr(program, expr, 0);
    let flat = rendered.split_whitespace().collect::<Vec<_>>().join(" ");
    if flat.chars().count() > 120 {
        let mut cut: String = flat.chars().take(120).collect();
        cut.push('…');
        cut
    } else {
        flat
    }
}

fn addr_of(space: AddressSpace) -> AddrSpace {
    match space {
        AddressSpace::Global => AddrSpace::Global,
        AddressSpace::Local => AddrSpace::Local,
        AddressSpace::Private => AddrSpace::Private,
    }
}

fn scalar_ctype(ty: &Type) -> CType {
    match ty {
        Type::Scalar(ScalarKind::Float) => CType::Float,
        Type::Scalar(ScalarKind::Double) => CType::Double,
        Type::Scalar(ScalarKind::Int) => CType::Int,
        Type::Scalar(ScalarKind::Bool) => CType::Bool,
        Type::Vector(k, w) => CType::Vector(Box::new(scalar_ctype(&Type::Scalar(*k))), *w),
        Type::Tuple(_) => CType::Struct(ty.c_element_name()),
        Type::Array(elem, _) => scalar_ctype(elem.innermost()),
    }
}

/// The array dimensions of a type, outermost first (tuples and scalars have none).
fn array_dims(ty: &Type) -> Vec<ArithExpr> {
    let mut dims = Vec::new();
    let mut current = ty;
    while let Type::Array(elem, len) = current {
        dims.push(len.clone());
        current = elem;
    }
    dims
}

fn outer_len(ty: &Type) -> Result<ArithExpr, CodegenError> {
    ty.as_array()
        .map(|(_, l)| l.clone())
        .ok_or_else(|| CodegenError::Unsupported("expected an array type".into()))
}

fn inner_len(ty: &Type) -> Result<ArithExpr, CodegenError> {
    let (elem, _) = ty
        .as_array()
        .ok_or_else(|| CodegenError::Unsupported("expected a nested array type".into()))?;
    outer_len(elem)
}

fn vector_width_of(ty: &Type) -> Result<usize, CodegenError> {
    match ty.as_array().map(|(e, _)| e) {
        Some(Type::Vector(_, w)) => Ok(*w),
        _ => Err(CodegenError::Unsupported(
            "expected an array of vectors".into(),
        )),
    }
}

fn invert_reorder(reorder: &Reorder, len: &ArithExpr) -> Result<Reorder, CodegenError> {
    match reorder {
        Reorder::Identity => Ok(Reorder::Identity),
        Reorder::Reverse => Ok(Reorder::Reverse),
        Reorder::Stride(s) => Ok(Reorder::Stride(len.clone() / s.clone())),
    }
}

fn view_space(view: &View) -> AddressSpace {
    match view {
        View::Memory { space, .. } => *space,
        View::Constant(_) => AddressSpace::Private,
        View::Access { base, .. }
        | View::Split { base, .. }
        | View::Join { base, .. }
        | View::Reorder { base, .. }
        | View::Transpose { base }
        | View::Slide { base, .. }
        | View::Layout { base, .. }
        | View::TupleComponent { base, .. }
        | View::AsVector { base, .. }
        | View::AsScalar { base, .. } => view_space(base),
        View::Zip { bases } => bases.first().map_or(AddressSpace::Private, view_space),
    }
}

fn literal_expr(lit: Literal) -> CExpr {
    match lit {
        Literal::Float(v) => CExpr::float(f64::from(v)),
        Literal::Int(v) => CExpr::int(v),
    }
}

fn load_expr(resolved: &Resolved, builder: &AccessBuilder) -> CExpr {
    match resolved {
        Resolved::Literal(lit) => literal_expr(*lit),
        Resolved::MemoryAccess {
            memory,
            scalar: true,
            ..
        } => CExpr::var(memory),
        Resolved::MemoryAccess {
            memory,
            index,
            vector_width: Some(w),
            ..
        } => {
            let vec_index = if builder.simplify {
                index.clone() / ArithExpr::cst(*w as i64)
            } else {
                ArithExpr::IntDiv(Box::new(index.clone()), Box::new(ArithExpr::cst(*w as i64)))
            };
            CExpr::Call(
                format!("vload{w}"),
                vec![CExpr::Index(vec_index), CExpr::var(memory)],
            )
        }
        Resolved::MemoryAccess { memory, index, .. } => {
            CExpr::var(memory).at(CExpr::Index(index.clone()))
        }
    }
}

fn store_stmt(
    resolved: &Resolved,
    value: CExpr,
    builder: &AccessBuilder,
) -> Result<CStmt, CodegenError> {
    match resolved {
        Resolved::Literal(_) => Err(CodegenError::Unsupported(
            "cannot write into a constant view".into(),
        )),
        Resolved::MemoryAccess {
            memory,
            scalar: true,
            ..
        } => Ok(CStmt::Assign {
            lhs: CExpr::var(memory),
            rhs: value,
        }),
        Resolved::MemoryAccess {
            memory,
            index,
            vector_width: Some(w),
            ..
        } => {
            let vec_index = if builder.simplify {
                index.clone() / ArithExpr::cst(*w as i64)
            } else {
                ArithExpr::IntDiv(Box::new(index.clone()), Box::new(ArithExpr::cst(*w as i64)))
            };
            Ok(CStmt::Expr(CExpr::Call(
                format!("vstore{w}"),
                vec![value, CExpr::Index(vec_index), CExpr::var(memory)],
            )))
        }
        Resolved::MemoryAccess { memory, index, .. } => Ok(CStmt::Assign {
            lhs: CExpr::var(memory).at(CExpr::Index(index.clone())),
            rhs: value,
        }),
    }
}

/// Translates a user-function body into a C expression over the parameter names.
fn scalar_to_cexpr(body: &ScalarExpr, params: &[String]) -> CExpr {
    match body {
        ScalarExpr::Param(i) => CExpr::var(&params[*i]),
        ScalarExpr::ConstFloat(v) => CExpr::float(*v),
        ScalarExpr::ConstInt(v) => CExpr::int(*v),
        ScalarExpr::Get(e, i) => scalar_to_cexpr(e, params).field(format!("_{i}")),
        ScalarExpr::Tuple(es) => CExpr::StructLit(
            "tuple".into(),
            es.iter().map(|e| scalar_to_cexpr(e, params)).collect(),
        ),
        ScalarExpr::Bin(op, a, b) => {
            let a = scalar_to_cexpr(a, params);
            let b = scalar_to_cexpr(b, params);
            use lift_ir::BinOp::*;
            match op {
                Add => a.add(b),
                Sub => a.sub(b),
                Mul => a.mul(b),
                Div => a.div(b),
                Min => CExpr::Call("fmin".into(), vec![a, b]),
                Max => CExpr::Call("fmax".into(), vec![a, b]),
                Lt => a.lt(b),
                Gt => CExpr::Bin(lift_ocl::CBinOp::Gt, Box::new(a), Box::new(b)),
            }
        }
        ScalarExpr::Un(op, a) => {
            let a = scalar_to_cexpr(a, params);
            use lift_ir::UnOp::*;
            match op {
                Neg => CExpr::Un(lift_ocl::CUnOp::Neg, Box::new(a)),
                Sqrt => CExpr::Call("sqrt".into(), vec![a]),
                Rsqrt => CExpr::Call("rsqrt".into(), vec![a]),
                Fabs => CExpr::Call("fabs".into(), vec![a]),
                Exp => CExpr::Call("exp".into(), vec![a]),
            }
        }
        ScalarExpr::Select(c, t, e) => CExpr::Ternary(
            Box::new(scalar_to_cexpr(c, params)),
            Box::new(scalar_to_cexpr(t, params)),
            Box::new(scalar_to_cexpr(e, params)),
        ),
    }
}

/// Collects every name declared by the statement (top-level declarations, block-scoped
/// declarations and loop variables) into `out`.
fn collect_decl_names(stmt: &CStmt, out: &mut std::collections::HashSet<String>) {
    match stmt {
        CStmt::Decl { name, .. } => {
            out.insert(name.clone());
        }
        CStmt::Block(body) => {
            for s in body {
                collect_decl_names(s, out);
            }
        }
        CStmt::For { var, body, .. } => {
            out.insert(var.clone());
            for s in body {
                collect_decl_names(s, out);
            }
        }
        CStmt::If {
            then, otherwise, ..
        } => {
            for s in then.iter().chain(otherwise.iter().flatten()) {
                collect_decl_names(s, out);
            }
        }
        _ => {}
    }
}

/// Returns the first variable referenced by the statement that is contained in `names`
/// (used to detect a kernel reading a declaration of an earlier kernel).
fn stmt_reference_in(stmt: &CStmt, names: &std::collections::HashSet<String>) -> Option<String> {
    let in_expr = |e: &CExpr| expr_reference_in(e, names);
    match stmt {
        CStmt::Comment(_) | CStmt::Return | CStmt::Barrier(_) => None,
        CStmt::Decl { init, .. } => init.as_ref().and_then(in_expr),
        CStmt::Assign { lhs, rhs } => in_expr(lhs).or_else(|| in_expr(rhs)),
        CStmt::Expr(e) => in_expr(e),
        CStmt::Block(body) => body.iter().find_map(|s| stmt_reference_in(s, names)),
        CStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => in_expr(init)
            .or_else(|| in_expr(cond))
            .or_else(|| in_expr(step))
            .or_else(|| body.iter().find_map(|s| stmt_reference_in(s, names))),
        CStmt::If {
            cond,
            then,
            otherwise,
        } => in_expr(cond).or_else(|| {
            then.iter()
                .chain(otherwise.iter().flatten())
                .find_map(|s| stmt_reference_in(s, names))
        }),
    }
}

fn expr_reference_in(e: &CExpr, names: &std::collections::HashSet<String>) -> Option<String> {
    match e {
        CExpr::IntLit(_) | CExpr::FloatLit(_) => None,
        CExpr::Var(n) => names.contains(n).then(|| n.clone()),
        CExpr::Index(a) => a
            .vars()
            .into_iter()
            .find(|v| names.contains(v.name()))
            .map(|v| v.name().to_string()),
        CExpr::Bin(_, a, b) | CExpr::ArrayAccess(a, b) => {
            expr_reference_in(a, names).or_else(|| expr_reference_in(b, names))
        }
        CExpr::Un(_, a) | CExpr::Field(a, _) | CExpr::Cast(_, a) => expr_reference_in(a, names),
        CExpr::Call(_, args) | CExpr::StructLit(_, args) | CExpr::VectorLit(_, args) => {
            args.iter().find_map(|a| expr_reference_in(a, names))
        }
        CExpr::Ternary(c, t, o) => expr_reference_in(c, names)
            .or_else(|| expr_reference_in(t, names))
            .or_else(|| expr_reference_in(o, names)),
    }
}

fn collect_size_vars(ty: &Type, out: &mut Vec<String>) {
    match ty {
        Type::Array(elem, len) => {
            for v in len.vars() {
                out.push(v.name().to_string());
            }
            collect_size_vars(elem, out);
        }
        Type::Tuple(elems) => {
            for e in elems {
                collect_size_vars(e, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_ir::UserFun;

    /// `reduceSeq(add, 0)(mapSeq(id)(x))` — the mapped array must be materialised before
    /// the reduction reads it.
    fn reduce_of_map(n: usize) -> Program {
        let mut p = Program::new("t");
        let id = p.user_fun(UserFun::id_float());
        let add = p.user_fun(UserFun::add());
        let m = p.map_seq(id);
        let red = p.reduce_seq(add, 0.0);
        p.with_root(vec![("x", Type::array(Type::float(), n))], |p, params| {
            let mapped = p.apply1(m, params[0]);
            p.apply1(red, mapped)
        });
        p
    }

    #[test]
    fn missing_address_space_is_an_explicit_error() {
        // Regression: `materialise` used to fall back to private memory silently when
        // address-space inference had not visited the expression, which could place a large
        // array intermediate in per-thread registers. Driving the generator with an *empty*
        // space map pins the typed error.
        let mut program = reduce_of_map(16);
        lift_ir::infer_types(&mut program).expect("typechecks");
        let options = CompilationOptions::all_optimisations();
        let mut generator = Generator {
            program,
            spaces: AddressSpaces::new(), // deliberately empty: no inference results
            levels: ParallelismLevels::new(),
            options: options.clone(),
            builder: AccessBuilder::new(options.array_access_simplification),
            module: Module::new(),
            decls: Vec::new(),
            views: HashMap::new(),
            counter: 0,
            nesting: 0,
            active_parallel: Vec::new(),
            temp_buffers: Vec::new(),
            segment_decls: Vec::new(),
            trace: LaunchTrace::default(),
        };
        let err = generator
            .generate()
            .expect_err("must not fall back to private");
        assert!(
            matches!(err, CodegenError::MissingAddressSpace(_)),
            "{err:?}"
        );
        // The same program compiles fine with real address-space inference (as a two-stage
        // sequence: the mapped array is inferred global, so the reduction becomes a second
        // kernel).
        let compiled =
            compile_program(&reduce_of_map(16), &CompilationOptions::all_optimisations())
                .expect("compiles with real inference");
        assert_eq!(compiled.kernels.len(), 2);
    }

    #[test]
    fn nested_global_intermediate_is_a_typed_error() {
        // toGlobal(mapSeq(id)) *inside* a mapGlb element: the consumer sits in the same
        // nested scope, so no device-wide synchronisation point exists between producer and
        // consumer — splitting is impossible and the error says so.
        let mut p = Program::new("t");
        let id = p.user_fun(UserFun::id_float());
        let add = p.user_fun(UserFun::add());
        let copy = p.map_seq(id);
        let copy_global = p.to_global(copy);
        let red = p.reduce_seq(add, 0.0);
        let per_chunk = p.compose(&[red, copy_global]);
        let glb = p.map_glb(0, per_chunk);
        let s = p.split(16usize);
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                p.apply1(glb, split)
            },
        );
        let err = compile_program(&p, &CompilationOptions::all_optimisations())
            .expect_err("nested global intermediates cannot be split");
        assert!(
            matches!(&err, CodegenError::Unsupported(m) if m.contains("device-wide barrier")),
            "{err:?}"
        );
    }

    #[test]
    fn iterate_over_a_global_buffer_is_a_typed_error() {
        // Regression: this used to emit a kernel-local `global` array declaration for the
        // iterate's second buffer — invalid OpenCL, silently mis-executed by the virtual
        // GPU as private memory.
        let mut p = Program::new("t");
        let id = p.user_fun(UserFun::id_float());
        let m = p.map_seq(id);
        let it = p.iterate(2, m);
        p.with_root(
            vec![("x", Type::array(Type::float(), 8usize))],
            |p, params| p.apply1(it, params[0]),
        );
        let err = compile_program(&p, &CompilationOptions::all_optimisations())
            .expect_err("iterate over a global buffer");
        assert!(
            matches!(&err, CodegenError::Unsupported(m) if m.contains("iterate")),
            "{err:?}"
        );
    }

    #[test]
    fn top_level_global_intermediate_splits_into_two_kernels() {
        // mapGlb(toGlobal(reduceSeq)) feeding a kernel-level reduceSeq: the canonical
        // two-stage shape. (The full pipeline version lives in tests/multi_kernel.rs; this
        // pins the codegen-level contract.)
        let mut p = Program::new("two_stage");
        let add = p.user_fun(UserFun::add());
        let red1 = p.reduce_seq(add, 0.0);
        let red1_global = p.to_global(red1);
        let glb = p.map_glb(0, red1_global);
        let red2 = p.reduce_seq(add, 0.0);
        let s = p.split(16usize);
        let j = p.join();
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                let partials = p.apply1(glb, split);
                let joined = p.apply1(j, partials);
                p.apply1(red2, joined)
            },
        );
        let compiled = compile_program(&p, &CompilationOptions::all_optimisations())
            .expect("two-stage program compiles");
        assert_eq!(compiled.kernels.len(), 2);
        assert_eq!(compiled.temp_buffers.len(), 1);
        assert!(compiled.kernels[0].parallel);
        assert!(!compiled.kernels[1].parallel);
        // Both kernels share the parameter list, including the temporary.
        let tmp = &compiled.temp_buffers[0].name;
        for kernel in &compiled.module.kernels {
            assert!(kernel.params.iter().any(|param| &param.name == tmp));
        }
        // No split marker leaks into the printed source.
        assert!(!compiled.source().contains(KERNEL_SPLIT_MARKER));
    }

    /// The PR 5 miscompile: per-work-item `toLocal` staging inside a `mapLcl` body. Every
    /// work item materialises its own tile into a `__local` buffer that is allocated once
    /// per group, so the work items race on the shared array. This must now be rejected
    /// statically by the ownership pass, not just filtered by vgpu validation.
    fn racy_per_item_staging() -> Program {
        let mut p = Program::new("racy_stage");
        let id = p.user_fun(UserFun::id_float());
        let add = p.user_fun(UserFun::add());
        let copy_lcl = {
            let m = p.map_seq(id);
            p.to_local(m)
        };
        let red = p.reduce_seq(add, 0.0);
        let stage_and_reduce = p.lambda(&["t"], |p, params| {
            let staged = p.apply1(copy_lcl, params[0]);
            p.apply1(red, staged)
        });
        let lcl = p.map_lcl(0, stage_and_reduce);
        let inner_split = p.split(4usize);
        let group_body = p.compose(&[lcl, inner_split]);
        let wrg = p.map_wrg(0, group_body);
        let s = p.split(16usize);
        let j = p.join();
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                let mapped = p.apply1(wrg, split);
                p.apply1(j, mapped)
            },
        );
        p
    }

    #[test]
    fn per_work_item_local_staging_is_an_ownership_violation() {
        let p = racy_per_item_staging();
        let err = compile_program(&p, &CompilationOptions::all_optimisations())
            .expect_err("per-work-item local staging must be rejected");
        match &err {
            CodegenError::OwnershipViolation {
                buffer,
                writer_level,
                owner_level,
                site,
            } => {
                assert!(buffer.contains("__local"), "{buffer}");
                assert!(writer_level.is_work_item(), "{writer_level}");
                assert_eq!(*owner_level, ParallelismLevel::WorkGroup);
                assert!(site.contains("toLocal"), "{site}");
            }
            other => panic!("expected OwnershipViolation, got {other:?}"),
        }
        // The rendered message names both levels so rejection telemetry is self-describing.
        let msg = err.to_string();
        assert!(msg.contains("work-group"), "{msg}");
        assert!(msg.contains("data race"), "{msg}");
    }

    #[test]
    fn cooperative_local_staging_still_compiles() {
        // The stencil-wrg-tiling shape: `toLocal(mapLcl id)` applied to the whole tile in
        // the mapWrg body. The copy is cooperative — each work item writes its own slice of
        // the shared buffer — so the ownership pass must accept it.
        let mut p = Program::new("coop_stage");
        let id = p.user_fun(UserFun::id_float());
        let copy_coop = {
            let m = p.map_lcl(0, id);
            p.to_local(m)
        };
        let consume = {
            let id2 = p.user_fun(UserFun::id_float());
            p.map_lcl(0, id2)
        };
        let group_body = p.compose(&[consume, copy_coop]);
        let wrg = p.map_wrg(0, group_body);
        let s = p.split(16usize);
        let j = p.join();
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                let mapped = p.apply1(wrg, split);
                p.apply1(j, mapped)
            },
        );
        let compiled = compile_program(&p, &CompilationOptions::all_optimisations())
            .expect("cooperative staging is sound and must compile");
        let source = compiled.source();
        assert!(source.contains("local float"), "{source}");
        assert!(source.contains("barrier(CLK_LOCAL_MEM_FENCE)"), "{source}");
    }

    #[test]
    fn distributed_partials_in_private_memory_are_an_ownership_violation() {
        // The two-stage shape *without* `toGlobal` on the partials: `mapGlb(reduceSeq)`
        // feeding a kernel-level reduceSeq. The per-item partial sums inherit the
        // reduction initialiser's private space, so the distributed map would write one
        // cell of each thread's own `__private` copy — the consuming reduction then reads
        // 7 uninitialised cells on a real GPU. The in-order virtual GPU masks the bug
        // (the last thread sees every partial), which is exactly why it must die at
        // compile time.
        let mut p = Program::new("two_stage_private");
        let add = p.user_fun(UserFun::add());
        let red1 = p.reduce_seq(add, 0.0);
        let glb = p.map_glb(0, red1);
        let red2 = p.reduce_seq(add, 0.0);
        let s = p.split(16usize);
        let j = p.join();
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                let partials = p.apply1(glb, split);
                let joined = p.apply1(j, partials);
                p.apply1(red2, joined)
            },
        );
        let err = compile_program(&p, &CompilationOptions::all_optimisations())
            .expect_err("distributed partials in private memory must be rejected");
        match &err {
            CodegenError::OwnershipViolation {
                buffer,
                writer_level,
                owner_level,
                site,
            } => {
                assert!(buffer.contains("__private"), "{buffer}");
                assert!(buffer.contains("mapGlb"), "{buffer}");
                assert_eq!(*writer_level, ParallelismLevel::WorkItem);
                assert_eq!(*owner_level, ParallelismLevel::WorkItem);
                assert!(site.contains("mapGlb"), "{site}");
            }
            other => panic!("expected OwnershipViolation, got {other:?}"),
        }
    }

    #[test]
    fn group_distributed_result_in_local_memory_is_an_ownership_violation() {
        // mapWrg(mapLcl(reduceSeq)) whose per-group results land in `__local` memory via
        // `toLocal`, consumed by a kernel-level reduction: each group's copy of the buffer
        // holds only that group's cells, so the cross-group read is garbage everywhere but
        // group 0's slice.
        let mut p = Program::new("wrg_local");
        let add = p.user_fun(UserFun::add());
        let red1 = p.reduce_seq(add, 0.0);
        let lcl = p.map_lcl(0, red1);
        let group_body = {
            let inner_split = p.split(4usize);
            let joined = p.compose(&[lcl, inner_split]);
            p.to_local(joined)
        };
        let wrg = p.map_wrg(0, group_body);
        let red2 = p.reduce_seq(add, 0.0);
        let s = p.split(16usize);
        let j = p.join();
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                let partials = p.apply1(wrg, split);
                let joined = p.apply1(j, partials);
                let flat = p.apply1(j, joined);
                p.apply1(red2, flat)
            },
        );
        let err = compile_program(&p, &CompilationOptions::all_optimisations())
            .expect_err("group-distributed result in local memory must be rejected");
        match &err {
            CodegenError::OwnershipViolation { buffer, .. } => {
                assert!(buffer.contains("__local"), "{buffer}");
                assert!(buffer.contains("mapWrg"), "{buffer}");
            }
            other => panic!("expected OwnershipViolation, got {other:?}"),
        }
    }

    #[test]
    fn group_uniform_sequential_staging_still_compiles() {
        // `toLocal(mapSeq id)` directly in the mapWrg body (not under mapLcl): every work
        // item writes the same values to the shared buffer — redundant, group-uniform, and
        // race-free in lock-step execution. The pass keys on the *parallelism level* of the
        // materialisation site (work-group here), so this stays accepted.
        let mut p = Program::new("uniform_stage");
        let add = p.user_fun(UserFun::add());
        let copy_lcl = p.copy_to_local();
        let red = p.reduce_seq(add, 0.0);
        let red_global = p.to_global(red);
        let group_body = p.lambda(&["tile"], |p, params| {
            let staged = p.apply1(copy_lcl, params[0]);
            p.apply1(red_global, staged)
        });
        let wrg = p.map_wrg(0, group_body);
        let s = p.split(16usize);
        p.with_root(
            vec![("x", Type::array(Type::float(), 64usize))],
            |p, params| {
                let split = p.apply1(s, params[0]);
                p.apply1(wrg, split)
            },
        );
        compile_program(&p, &CompilationOptions::all_optimisations())
            .expect("group-uniform staging is race-free and must compile");
    }
}
