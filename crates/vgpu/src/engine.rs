//! The launch API.
//!
//! A virtual-GPU launch has two halves: the engine-independent prologue (resolve the kernel,
//! lower it to the slot-indexed form — [`crate::exec::lower`] — and bind the arguments) and
//! the execution of the lowered body on one of two tiers ([`EngineSelection`]):
//!
//! * the interpreter — the slotted SIMT tree-walker of `exec.rs`, complete and the semantic
//!   reference;
//! * the bytecode tier — compiles the lowered body once per launch into the flat register
//!   bytecode of `bytecode.rs` and runs that; counters, buffers and errors are byte-identical
//!   to the interpreter. Constructs the compiler does not support fall back to the
//!   interpreter, optionally reporting a telemetry [`Event::EngineFallback`].
//!
//! [`ExecutionRequest`] is the builder every caller goes through: it owns the cross-cutting
//! launch options — device validation, engine selection, race detection, a time budget,
//! telemetry — so call sites configure a request once. A single kernel is a one-stage plan:
//!
//! ```
//! # use lift_ocl::*;
//! # use lift_vgpu::*;
//! # fn demo(module: &Module, config: LaunchConfig, args: Vec<KernelArg>)
//! #     -> Result<SequenceResult, VgpuError> {
//! let stage = KernelLaunchSpec { kernel: "kernel_0".to_string(), launch: config };
//! ExecutionRequest::new(module)
//!     .engine(EngineSelection::Auto)
//!     .race_detection(true)
//!     .launch_sequence(&[stage], args)
//! # }
//! ```

use lift_ocl::Module;
use lift_telemetry::{Collector, Event};

use crate::bound::static_counters;
use crate::bytecode;
use crate::cost::{self, Budget, CostCounters};
use crate::device::{DeviceProfile, LaunchConfig};
use crate::exec::{
    lower, KernelLaunchSpec, LaunchResult, Lowered, Prepared, SequenceResult, VgpuError,
};
use crate::memory::KernelArg;

/// Which execution tier an [`ExecutionRequest`] (or an exploration / tuning run) uses.
///
/// Both tiers run the same lowered kernel form against the same state and must produce
/// byte-identical buffers, [`crate::CostCounters`] and [`VgpuError`]s — the differential test
/// suite holds them to that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineSelection {
    /// Always the reference interpreter.
    Interpreter,
    /// The bytecode tier (which itself falls back to the interpreter per launch on
    /// unsupported constructs).
    Bytecode,
    /// Let the virtual GPU choose. Currently the bytecode tier — the fastest tier whose
    /// results are pinned byte-identical to the reference — but callers must not rely on
    /// which tier runs, only on the results.
    #[default]
    Auto,
}

impl EngineSelection {
    /// Stable lower-snake-case label (used in benchmark JSON).
    pub fn label(self) -> &'static str {
        match self {
            EngineSelection::Interpreter => "interpreter",
            EngineSelection::Bytecode => "bytecode",
            EngineSelection::Auto => "auto",
        }
    }
}

/// What the static walk counts for a launch sequence before anything runs
/// ([`ExecutionRequest::static_counters`]).
#[derive(Clone, Debug, PartialEq)]
pub struct StaticCount {
    /// Per stage, in launch order: at most what a completed run of the stage counts, in
    /// every class.
    pub stages: Vec<CostCounters>,
    /// Whether every stage's count equals what a completed run counts, in every class: no
    /// control and no global address of any stage reads data, and no cap of the walk was
    /// hit.
    pub exact: bool,
}

/// A configured virtual-GPU launch: module, engine, device limits, race detection, budget
/// and telemetry in one builder, executed with [`ExecutionRequest::launch_sequence`] (a plan
/// of one or more kernels over a shared argument pool).
#[derive(Clone, Copy)]
pub struct ExecutionRequest<'a> {
    module: &'a Module,
    device: Option<&'a DeviceProfile>,
    engine: EngineSelection,
    race_detection: bool,
    budget: f64,
    counted: Option<&'a StaticCount>,
    collector: Option<&'a dyn Collector>,
}

impl<'a> ExecutionRequest<'a> {
    /// A request against `module` with the defaults: no device validation, engine
    /// [`EngineSelection::Auto`], race detection off, no budget, no telemetry.
    pub fn new(module: &'a Module) -> ExecutionRequest<'a> {
        ExecutionRequest {
            module,
            device: None,
            engine: EngineSelection::default(),
            race_detection: false,
            budget: f64::INFINITY,
            counted: None,
            collector: None,
        }
    }

    /// Validates every launch configuration against the limits of `device` (work-group
    /// size, per-dimension local sizes, divisibility) before executing, rejecting with
    /// [`VgpuError::InvalidLaunch`] what a real driver would refuse.
    pub fn on_device(mut self, device: &'a DeviceProfile) -> ExecutionRequest<'a> {
        self.device = Some(device);
        self
    }

    /// Selects the execution tier (default [`EngineSelection::Auto`]).
    pub fn engine(mut self, engine: EngineSelection) -> ExecutionRequest<'a> {
        self.engine = engine;
        self
    }

    /// Turns the shadow-memory data-race detector on or off (default off). When on, every
    /// launch tracks the last writer and reader of each local and global cell per barrier
    /// epoch and fails with [`VgpuError::DataRace`] on unsynchronised conflicting accesses;
    /// stores of a bitwise-identical value are treated as no-ops.
    pub fn race_detection(mut self, on: bool) -> ExecutionRequest<'a> {
        self.race_detection = on;
        self
    }

    /// Lets a launch stop as soon as it provably cannot finish within `limit` on the device
    /// of [`ExecutionRequest::on_device`], with [`VgpuError::OverBudget`]. A lower bound on
    /// the estimated time of the sequence ([`crate::estimated_sequence_time`]) is checked
    /// twice over:
    ///
    /// * before the first stage starts, from a static count of every stage's lowered kernel
    ///   under its launch and the `int` arguments ([`ExecutionRequest::static_counters`],
    ///   priced by [`ExecutionRequest::static_bound`]); a sequence stopped there runs no row
    ///   (`row: 0`). An exact count prices the sequence at its estimated time, so an exactly
    ///   counted launch over `limit` never runs;
    /// * at every lock-step row, from the counters so far.
    ///
    /// A launch that is not stopped runs exactly as without a budget; one whose time exceeds
    /// `limit` may still complete where its static count is not exact, because the bound is
    /// not tight.
    ///
    /// No budget applies without a device, to an infinite or NaN `limit`, or under a device
    /// profile whose weights do not make the bound sound (a negative weight, or a
    /// vector-access discount larger than the cheapest access).
    pub fn budget(mut self, limit: f64) -> ExecutionRequest<'a> {
        self.budget = limit;
        self
    }

    /// Hands [`ExecutionRequest::launch_sequence`] the static count of the sequence it is
    /// about to launch, so its check before the first row prices `count` instead of walking
    /// the stages again. `count` must be what [`ExecutionRequest::static_counters`] returns
    /// for the same stages and arguments: a count of another launch would stop this one
    /// wrongly.
    pub fn counted(mut self, count: &'a StaticCount) -> ExecutionRequest<'a> {
        self.counted = Some(count);
        self
    }

    /// Attaches a telemetry sink: engine fallbacks are reported as
    /// [`Event::EngineFallback`].
    pub fn collector(mut self, collector: &'a dyn Collector) -> ExecutionRequest<'a> {
        self.collector = Some(collector);
        self
    }

    fn validate(&self, config: &LaunchConfig) -> Result<(), VgpuError> {
        if let Some(device) = self.device {
            device
                .validate_launch(config)
                .map_err(VgpuError::InvalidLaunch)?;
        }
        Ok(())
    }

    /// The budget of a stage launched under `config` (validated against the device, which
    /// a budget needs) once the launch has `spent` for sure.
    fn stage_budget(&self, spent: f64, config: &LaunchConfig) -> Option<Budget> {
        Budget::new(self.device?, self.budget, spent, groups(config))
    }

    /// Resolves and lowers every stage, after validating its launch.
    fn lower_stages(
        &self,
        stages: &[KernelLaunchSpec],
        arg_count: usize,
    ) -> Result<Vec<Lowered<'a>>, VgpuError> {
        for stage in stages {
            self.validate(&stage.launch)?;
        }
        stages
            .iter()
            .map(|stage| lower(self.module, &stage.kernel, arg_count))
            .collect()
    }

    /// Each stage's counters, counted from its lowered kernel before anything runs: the
    /// work-item ids, the launch sizes and the `int` arguments are known, the contents of
    /// the buffers are not. Work under a condition or loop bound that reads data counts
    /// zero, and so do the transactions of an access whose address reads data; every class,
    /// the transactions, uncoalesced accesses and lock-step rows included, is at most what a
    /// completed run of the sequence counts, and equal to it where the count says it is
    /// [`StaticCount::exact`]. The walk reads no buffer, so what earlier stages write does
    /// not change a later stage's count.
    ///
    /// # Errors
    ///
    /// The errors of [`ExecutionRequest::launch_sequence`] that come before any stage runs:
    /// an invalid launch, an unknown kernel or an argument-count mismatch.
    pub fn static_counters(
        &self,
        stages: &[KernelLaunchSpec],
        args: &[KernelArg],
    ) -> Result<StaticCount, VgpuError> {
        let lowered = self.lower_stages(stages, args.len())?;
        Ok(count_stages(stages, &lowered, args))
    }

    /// The lower bound on the sequence's estimated time that its check before the first
    /// row compares with the budget, from its static count: the estimated time itself
    /// ([`crate::estimated_sequence_time`]) when `count` is exact; otherwise the launch
    /// overheads plus each stage's device-weighted counters at the scale of its work
    /// groups (see the cost model's budget). 0 without a device, and under a device whose
    /// weights the bound does not hold for.
    pub fn static_bound(&self, stages: &[KernelLaunchSpec], count: &StaticCount) -> f64 {
        let sized: Vec<(CostCounters, usize)> = count
            .stages
            .iter()
            .zip(stages)
            .map(|(counters, stage)| (*counters, groups(&stage.launch)))
            .collect();
        self.device
            .and_then(|device| cost::static_bound(device, &sized, count.exact))
            .unwrap_or(0.0)
    }

    /// The budget's check before the first row: `OverBudget` with `row: 0` once the static
    /// bound of the sequence ([`ExecutionRequest::static_bound`]) clears the limit. Counts
    /// nothing without a device, a finite limit or sound weights, and counts nothing again
    /// when the request was handed the count ([`ExecutionRequest::counted`]).
    fn check_before_running(
        &self,
        stages: &[KernelLaunchSpec],
        lowered: &[Lowered],
        args: &[KernelArg],
    ) -> Result<(), VgpuError> {
        let Some(device) = self.device else {
            return Ok(());
        };
        if !self.budget.is_finite() || !Budget::sound_for(device) {
            return Ok(());
        }
        let walked;
        let count = match self.counted {
            Some(count) => count,
            None => {
                walked = count_stages(stages, lowered, args);
                &walked
            }
        };
        let lower_bound = cost::shaved(self.static_bound(stages, count));
        if lower_bound > self.budget {
            return Err(VgpuError::OverBudget {
                lower_bound,
                row: 0,
            });
        }
        Ok(())
    }

    /// Runs a prepared launch on the selected tier, reporting a bytecode → interpreter
    /// fallback to the collector.
    fn run_prepared(
        &self,
        kernel_name: &str,
        mut prepared: Prepared,
    ) -> Result<LaunchResult, VgpuError> {
        let Prepared { body, exec } = &mut prepared;
        match self.engine {
            EngineSelection::Interpreter => exec.run(body)?,
            EngineSelection::Bytecode | EngineSelection::Auto => {
                match bytecode::compile(body, exec) {
                    Ok(program) => bytecode::run(exec, &program)?,
                    Err(reason) => {
                        exec.run(body)?;
                        if let Some(collector) = self.collector.filter(|c| c.enabled()) {
                            collector.record(Event::EngineFallback {
                                kernel: kernel_name.to_string(),
                                reason,
                            });
                        }
                    }
                }
            }
        }
        Ok(prepared.finish())
    }

    /// Executes a sequence of kernels against a persistent pool of arguments.
    ///
    /// Every stage receives the *whole* pool in order (the shared-signature ABI of
    /// multi-kernel programs: unused parameters are harmless), and the buffers a stage
    /// modifies are visible to the following stages — this is how global-memory
    /// intermediates flow across the device-wide synchronisation points a kernel boundary
    /// represents. When a device is configured, every stage's launch is validated up front,
    /// and every stage's kernel is resolved and lowered before any stage executes; under a
    /// [`ExecutionRequest::budget`], the static bound is checked then too.
    ///
    /// # Errors
    ///
    /// Returns [`VgpuError::InvalidLaunch`] if any stage's launch violates the configured
    /// device, [`VgpuError::UnknownKernel`] or [`VgpuError::ArgumentMismatch`] if any stage's
    /// kernel cannot be launched with the pool, and the first executing stage's
    /// [`VgpuError`] otherwise; an [`VgpuError::OverBudget`] counts its `row` over the whole
    /// sequence.
    pub fn launch_sequence(
        &self,
        stages: &[KernelLaunchSpec],
        mut pool: Vec<KernelArg>,
    ) -> Result<SequenceResult, VgpuError> {
        let lowered = self.lower_stages(stages, pool.len())?;
        // What the sequence has certainly spent: every stage's launch overhead, then each
        // finished stage's time.
        let mut spent = self
            .device
            .map_or(0.0, |d| stages.len() as f64 * d.launch_overhead);
        self.check_before_running(stages, &lowered, &pool)?;
        let mut reports = Vec::with_capacity(stages.len());
        let mut rows = 0;
        for (stage, lowered) in stages.iter().zip(lowered) {
            // Move the buffers into the stage's arguments (the launch returns every global
            // buffer), so a sequence never copies buffer contents between stages.
            let args: Vec<KernelArg> = pool
                .iter_mut()
                .map(|a| match a {
                    KernelArg::Buffer(b) => KernelArg::Buffer(std::mem::take(b)),
                    KernelArg::Int(v) => KernelArg::Int(*v),
                    KernelArg::Float(v) => KernelArg::Float(*v),
                })
                .collect();
            let prepared = lowered.bind(
                stage.launch,
                args,
                self.race_detection,
                self.stage_budget(spent, &stage.launch),
            );
            let result = self
                .run_prepared(&stage.kernel, prepared)
                .map_err(|e| match e {
                    VgpuError::OverBudget { lower_bound, row } => VgpuError::OverBudget {
                        lower_bound,
                        row: rows + row,
                    },
                    other => other,
                })?;
            rows += result.report.counters.lockstep_rows;
            // The launch hands back its global buffers in argument order.
            let slots = pool.iter_mut().filter_map(|a| match a {
                KernelArg::Buffer(b) => Some(b),
                _ => None,
            });
            for (slot, buffer) in slots.zip(result.buffers) {
                *slot = buffer;
            }
            if let Some(device) = self.device {
                spent += result.report.estimated_time(device);
            }
            reports.push(result.report);
        }
        let buffers = pool
            .into_iter()
            .filter_map(|a| match a {
                KernelArg::Buffer(b) => Some(b),
                _ => None,
            })
            .collect();
        Ok(SequenceResult { buffers, reports })
    }
}

/// The work groups of a launch.
fn groups(config: &LaunchConfig) -> usize {
    config.num_groups().iter().product()
}

/// The static count of `stages`, lowered as `lowered`, with `args`.
fn count_stages(
    stages: &[KernelLaunchSpec],
    lowered: &[Lowered],
    args: &[KernelArg],
) -> StaticCount {
    let mut exact = true;
    let stages = stages
        .iter()
        .zip(lowered)
        .map(|(stage, lowered)| {
            let (counters, stage_exact) = static_counters(lowered, args, stage.launch);
            exact &= stage_exact;
            counters
        })
        .collect();
    StaticCount { stages, exact }
}
