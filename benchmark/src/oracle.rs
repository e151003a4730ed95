//! The held-out output oracle.
//!
//! The explorer validates candidates on inputs it generates itself, always the same ones. The
//! oracle checks what the service *served* on inputs the program under test never saw: it
//! replays the returned chain, compiles it at the returned launch, runs it on the virtual GPU
//! with inputs drawn from `--seed`, and compares against `lift_interp::evaluate` of the
//! original high-level program. The interpreter result is itself cross-checked against the
//! plain-Rust host reference of the program's family when the oracle is built.

use lift_arith::Environment;
use lift_benchmarks::{convolution, dot_product, jacobi, mm, nbody};
use lift_codegen::{compile_program, CompiledProgram};
use lift_interp::Value;
use lift_ir::{infer_types, Program, Type};
use lift_service::{Request, Response};
use lift_vgpu::{outputs_match, ExecutionRequest, KernelArg};

use crate::config::{DETECT_RACES, ENGINE};
use crate::stats::Rng;

/// Which plain-Rust host reference a program is checked against.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    PartialDot,
    FullDot,
    Mm { m: usize, k: usize, n: usize },
    Nbody,
    Convolution,
    Jacobi { rows: usize, cols: usize },
}

/// Held-out inputs of one program and the expected output for them.
pub struct Oracle {
    /// The type-annotated high-level program (what `evaluate` takes).
    pub typed: Program,
    pub values: Vec<Value>,
    pub buffers: Vec<Vec<f32>>,
    pub reference: Vec<f32>,
}

/// Values on the quarter-step grid in `[-2, 2)`, like the explorer's own inputs: sums and
/// products stay exact in `f32`, so the comparison tolerance only has to absorb `rsqrt`.
fn grid_value(rng: &mut Rng) -> f32 {
    rng.below(16) as f32 * 0.25 - 2.0
}

fn value_of_type(ty: &Type, rng: &mut Rng) -> Result<Value, String> {
    match ty {
        Type::Scalar(_) => Ok(Value::Float(grid_value(rng))),
        Type::Vector(_, width) => Ok(Value::Vector(
            (0..*width).map(|_| Value::Float(grid_value(rng))).collect(),
        )),
        Type::Tuple(elems) => Ok(Value::Tuple(
            elems
                .iter()
                .map(|e| value_of_type(e, rng))
                .collect::<Result<_, _>>()?,
        )),
        Type::Array(elem, len) => {
            let n = len
                .evaluate(&Environment::new())
                .ok()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("array length {len} is not a constant"))?;
            Ok(Value::Array(
                (0..n)
                    .map(|_| value_of_type(elem, rng))
                    .collect::<Result<_, _>>()?,
            ))
        }
    }
}

fn host_reference(family: Family, inputs: &[Vec<f32>]) -> Vec<f32> {
    match family {
        Family::PartialDot => dot_product::host_reference(&inputs[0], &inputs[1]),
        Family::FullDot => dot_product::host_full_reference(&inputs[0], &inputs[1]),
        Family::Mm { m, k, n } => mm::host_reference(&inputs[0], &inputs[1], m, k, n),
        Family::Nbody => nbody::host_reference(&inputs[0]),
        Family::Convolution => convolution::host_reference(&inputs[0], &inputs[1]),
        Family::Jacobi { rows, cols } => jacobi::host_reference(&inputs[0], rows, cols),
    }
}

impl Oracle {
    /// Draws inputs for `program` from `rng`, evaluates the interpreter on them and checks
    /// the result against the family's host reference.
    pub fn build(program: &Program, family: Family, rng: &mut Rng) -> Result<Oracle, String> {
        let mut typed = program.clone();
        infer_types(&mut typed).map_err(|e| format!("{}: {e}", program.name()))?;
        let mut values = Vec::new();
        for (i, param) in typed.root_params().iter().enumerate() {
            let ty = typed
                .expr(*param)
                .ty
                .clone()
                .ok_or_else(|| format!("root parameter {i} is untyped"))?;
            values.push(value_of_type(&ty, rng)?);
        }
        if let Family::Jacobi { .. } = family {
            // The host reference hard-codes the 5-point weights.
            values[1] = Value::from_f32_slice(&jacobi::WEIGHTS);
        }
        let buffers: Vec<Vec<f32>> = values.iter().map(Value::flatten_f32).collect();
        let reference = lift_interp::evaluate(&typed, &values)
            .map_err(|e| format!("{}: reference evaluation failed: {e}", program.name()))?
            .flatten_f32();
        if !outputs_match(&reference, &host_reference(family, &buffers)) {
            return Err(format!(
                "{}: the interpreter disagrees with the host reference",
                program.name()
            ));
        }
        Ok(Oracle {
            typed,
            values,
            buffers,
            reference,
        })
    }

    /// Replays and compiles what the service served, and binds the held-out inputs:
    /// `(compiled, arguments, index of the output among the buffer arguments)`.
    pub fn compile_served(
        &self,
        request: &Request,
        response: &Response,
    ) -> Result<(CompiledProgram, Vec<KernelArg>, usize), String> {
        let term = lift_rewrite::replay(
            &request.program,
            &response.variant.steps,
            &response.rule_options,
        )
        .map_err(|e| format!("served chain does not replay: {e}"))?;
        let mut program = term.to_program();
        infer_types(&mut program).map_err(|e| format!("served program is ill-typed: {e}"))?;
        let options = request
            .config
            .base
            .compile_options
            .clone()
            .with_launch(response.launch.global, response.launch.local);
        let compiled = compile_program(&program, &options)
            .map_err(|e| format!("served program does not compile: {e}"))?;
        let (args, output) = compiled.bind_args(&self.buffers, &Environment::new())?;
        Ok((compiled, args, output))
    }

    /// Checks one served response. `Err` names the first thing that is wrong with it.
    pub fn verify(&self, request: &Request, response: &Response) -> Result<(), String> {
        let (compiled, args, output) = self.compile_served(request, response)?;
        if compiled.source() != response.variant.kernel_source {
            return Err("served kernel source differs from the re-compiled chain".to_string());
        }
        let result = ExecutionRequest::new(&compiled.module)
            .on_device(&request.config.device)
            .engine(ENGINE)
            .race_detection(DETECT_RACES)
            .launch_sequence(&compiled.launch_plan(response.launch), args)
            .map_err(|e| format!("served kernel fails on held-out inputs: {e}"))?;
        if outputs_match(&result.buffers[output], &self.reference) {
            Ok(())
        } else {
            Err("served kernel output differs from the reference on held-out inputs".to_string())
        }
    }
}
