//! # Virtual GPU
//!
//! The paper evaluates generated kernels on two physical GPUs. This crate replaces that
//! hardware with a *virtual GPU*: a SIMT interpreter for the OpenCL AST of `lift-ocl` plus an
//! analytical cost model.
//!
//! * [`ExecutionRequest::launch_sequence`] executes a plan of one or more kernels over
//!   ND-ranges with global buffers, work-group local memory, private memory, barriers and
//!   divergent control flow (execution masks), on the engine the request selects
//!   ([`EngineSelection`]).
//! * The execution produces [`CostCounters`]: dynamic counts of floating-point work, integer
//!   index arithmetic (divisions/modulos counted separately), global-memory transactions with
//!   a per-SIMD-group coalescing analysis, local/private traffic, barriers and loop overhead.
//! * A [`DeviceProfile`] (modelled on the paper's AMD and NVIDIA cards) converts the counters
//!   into an estimated execution time, so experiments can compare *relative* performance the
//!   way Figure 8 does.
//!
//! The functional result of a launch is exact — kernels really execute — so the same run both
//! validates correctness against the reference interpreter and feeds the performance model.

mod bytecode;
mod cost;
mod device;
mod engine;
mod exec;
mod memory;

pub use cost::{
    estimated_sequence_time, CostCounters, ExecutionProfile, ExecutionReport, StageProfile,
    TimeBreakdown, COST_MODEL_VERSION,
};
pub use device::{DeviceProfile, LaunchConfig, LaunchError};
pub use engine::{EngineSelection, ExecutionRequest};
pub use exec::{KernelLaunchSpec, SequenceResult, VgpuError};
pub use memory::{GpuValue, KernelArg, Ptr};

/// The workspace-wide tolerance policy for comparing a kernel's output buffer against a
/// reference: element-wise `|a - e| <= 2e-3 * (1 + |e|)` and equal lengths. Shared by the
/// benchmark runner, the rewrite exploration's correctness gate and the integration tests so
/// the acceptance threshold cannot drift between them.
pub fn outputs_match(actual: &[f32], expected: &[f32]) -> bool {
    actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| (a - e).abs() <= 2e-3 * (1.0 + e.abs()))
}
