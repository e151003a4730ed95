//! The launch API.
//!
//! A virtual-GPU launch has two halves: the engine-independent prologue (resolve the kernel,
//! lower it to the slot-indexed form, bind the arguments — [`crate::exec::prepare`]) and the
//! execution of the lowered body on one of two tiers ([`EngineSelection`]):
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

use crate::bytecode;
use crate::cost::Budget;
use crate::device::{DeviceProfile, LaunchConfig};
use crate::exec::{prepare, KernelLaunchSpec, LaunchResult, Prepared, SequenceResult, VgpuError};
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
    /// of [`ExecutionRequest::on_device`]: at every lock-step row, a lower bound on the
    /// estimated time of the sequence ([`crate::estimated_sequence_time`]) is computed from
    /// the counters so far, and once it exceeds `limit` the launch fails with
    /// [`VgpuError::OverBudget`]. A launch that is not stopped runs exactly as without
    /// a budget; one whose time exceeds `limit` may still complete, because the bound is
    /// not tight.
    ///
    /// No budget applies without a device, to an infinite or NaN `limit`, or under a device
    /// profile whose weights do not make the bound sound (a negative weight, or a
    /// vector-access discount larger than the cheapest access).
    pub fn budget(mut self, limit: f64) -> ExecutionRequest<'a> {
        self.budget = limit;
        self
    }

    /// Attaches a telemetry sink: engine fallbacks are reported as
    /// [`Event::EngineFallback`].
    pub fn collector(mut self, collector: &'a dyn Collector) -> ExecutionRequest<'a> {
        self.collector = Some(collector);
        self
    }

    /// Whether launches of this request run the data-race detector.
    pub fn race_detection_enabled(&self) -> bool {
        self.race_detection
    }

    /// The engine selection of this request.
    pub fn engine_selection(&self) -> EngineSelection {
        self.engine
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
        let groups = config.num_groups().iter().product();
        Budget::new(self.device?, self.budget, spent, groups)
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
    /// before any stage executes.
    ///
    /// # Errors
    ///
    /// Returns [`VgpuError::InvalidLaunch`] if any stage's launch violates the configured
    /// device, and the first executing stage's [`VgpuError`] otherwise.
    pub fn launch_sequence(
        &self,
        stages: &[KernelLaunchSpec],
        mut pool: Vec<KernelArg>,
    ) -> Result<SequenceResult, VgpuError> {
        for stage in stages {
            self.validate(&stage.launch)?;
        }
        // What the sequence has certainly spent: every stage's launch overhead, then each
        // finished stage's time.
        let mut spent = self
            .device
            .map_or(0.0, |d| stages.len() as f64 * d.launch_overhead);
        let mut reports = Vec::with_capacity(stages.len());
        for stage in stages {
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
            let prepared = prepare(
                self.module,
                &stage.kernel,
                stage.launch,
                args,
                self.race_detection,
                self.stage_budget(spent, &stage.launch),
            )?;
            let result = self.run_prepared(&stage.kernel, prepared)?;
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
