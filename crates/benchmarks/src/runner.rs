//! Compiling, executing and measuring benchmarks.
//!
//! This module is the experimental harness of the reproduction: it compiles a benchmark's
//! Lift program at a given optimisation level, runs both the generated kernel and the
//! hand-written reference kernel on the virtual GPU, verifies both against the host-computed
//! expected output and returns the cost-model counters from which Figure 8's relative
//! performance is computed.

use lift_codegen::{compile_program, CodegenError, CompilationOptions, CompiledProgram};
use lift_vgpu::{CostCounters, DeviceProfile, ExecutionRequest, KernelLaunchSpec, VgpuError};

use crate::BenchmarkCase;

/// The outcome of executing one kernel (generated or reference) for a benchmark.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The produced output buffer.
    pub output: Vec<f32>,
    /// The dynamic cost counters of the execution (summed over the stages of a multi-kernel
    /// program).
    pub counters: CostCounters,
    /// Whether the output matched the host reference within tolerance.
    pub correct: bool,
    /// Number of non-empty OpenCL source lines (generated kernels only; 0 for references).
    pub source_lines: usize,
}

impl RunOutcome {
    /// Estimated execution time under the given device profile.
    pub fn estimated_time(&self, device: &DeviceProfile) -> f64 {
        self.counters.estimated_time(device)
    }
}

/// Errors from the benchmark runner.
#[derive(Clone, Debug, PartialEq)]
pub enum RunnerError {
    /// Compiling the Lift program failed.
    Codegen(CodegenError),
    /// Executing a kernel on the virtual GPU failed.
    Execution(VgpuError),
    /// The output length could not be computed.
    OutputLength(String),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Codegen(e) => write!(f, "code generation failed: {e}"),
            RunnerError::Execution(e) => write!(f, "kernel execution failed: {e}"),
            RunnerError::OutputLength(e) => write!(f, "cannot compute output length: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<CodegenError> for RunnerError {
    fn from(e: CodegenError) -> Self {
        RunnerError::Codegen(e)
    }
}

impl From<VgpuError> for RunnerError {
    fn from(e: VgpuError) -> Self {
        RunnerError::Execution(e)
    }
}

/// Relative tolerance used when comparing kernel outputs against the host reference.
pub fn outputs_match(actual: &[f32], expected: &[f32]) -> bool {
    lift_vgpu::outputs_match(actual, expected)
}

/// Compiles the benchmark's Lift program with the given options.
pub fn compile_case(
    case: &BenchmarkCase,
    options: &CompilationOptions,
) -> Result<CompiledProgram, RunnerError> {
    let options = options
        .clone()
        .with_launch(case.launch.global, case.launch.local);
    Ok(compile_program(&case.program, &options)?)
}

/// Compiles and executes the benchmark's Lift program at the given optimisation level.
pub fn run_lift(
    case: &BenchmarkCase,
    options: &CompilationOptions,
) -> Result<RunOutcome, RunnerError> {
    let compiled = compile_case(case, options)?;
    let (args, output_buffer_index) = compiled
        .bind_args(&case.inputs, &case.sizes)
        .map_err(RunnerError::OutputLength)?;

    let result = ExecutionRequest::new(&compiled.module)
        .launch_sequence(&compiled.launch_plan(case.launch), args)?;
    let output = result.buffers[output_buffer_index].clone();
    let correct = outputs_match(&output, &case.expected);
    Ok(RunOutcome {
        output,
        counters: result.merged_counters(),
        correct,
        source_lines: compiled.line_count(),
    })
}

/// Executes the benchmark's hand-written reference kernel.
pub fn run_reference(case: &BenchmarkCase) -> Result<RunOutcome, RunnerError> {
    let stage = KernelLaunchSpec {
        kernel: case.reference_kernel.clone(),
        launch: case.launch,
    };
    let result = ExecutionRequest::new(&case.reference_module)
        .launch_sequence(&[stage], case.reference_args.clone())?;
    let output = result.buffers[case.reference_output_buffer].clone();
    let correct = outputs_match(&output, &case.expected);
    Ok(RunOutcome {
        output,
        counters: result.merged_counters(),
        correct,
        source_lines: 0,
    })
}

/// Relative performance of the generated code versus the reference (\>1 means the generated
/// kernel is estimated to be faster), as plotted in Figure 8.
pub fn relative_performance(
    generated: &RunOutcome,
    reference: &RunOutcome,
    device: &DeviceProfile,
) -> f64 {
    let g = generated.estimated_time(device);
    let r = reference.estimated_time(device);
    if g <= 0.0 {
        return 1.0;
    }
    r / g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_match_uses_relative_tolerance() {
        assert!(outputs_match(&[1.0, 2.0], &[1.0005, 2.0]));
        assert!(!outputs_match(&[1.0, 2.0], &[1.5, 2.0]));
        assert!(!outputs_match(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn relative_performance_compares_estimated_times() {
        let fast = RunOutcome {
            output: vec![],
            counters: CostCounters {
                flops: 100,
                ..Default::default()
            },
            correct: true,
            source_lines: 0,
        };
        let slow = RunOutcome {
            output: vec![],
            counters: CostCounters {
                flops: 1000,
                ..Default::default()
            },
            correct: true,
            source_lines: 0,
        };
        let device = DeviceProfile::nvidia();
        assert!(relative_performance(&fast, &slow, &device) > 1.0);
        assert!(relative_performance(&slow, &fast, &device) < 1.0);
    }
}
