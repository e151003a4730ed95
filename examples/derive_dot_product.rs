//! Automatic derivation of the dot product: from a high-level `map`/`reduce` expression to
//! OpenCL kernels, via the rewrite rules of `lift-rewrite`.
//!
//! The starting point is the algorithmic expression the paper begins Section 3 with —
//! `join ∘ map(reduce(+, 0)) ∘ split 128 ∘ map(×) ∘ zip` — containing no OpenCL-specific
//! pattern at all. The exploration driver applies semantics-preserving rewrite rules under a
//! budget, re-typechecks every derived expression, validates each fully lowered candidate
//! against the reference interpreter on the virtual GPU and ranks the survivors with the
//! analytical cost model. The winner's derivation chain and generated kernel are printed.
//!
//! Run with `cargo run --release --example derive_dot_product`.

use lift::ir::prelude::*;
use lift::rewrite::{explore, ExplorationConfig, RuleOptions};
use lift::vgpu::{DeviceProfile, EngineSelection, LaunchConfig};

/// The high-level partial dot product of length `n` (chunks of 128, like Listing 1).
fn high_level_dot_product(n: usize) -> Program {
    let mut p = Program::new("dot");
    let mult = p.user_fun(UserFun::mult_pair());
    let add = p.user_fun(UserFun::add());
    let multiply = p.map(mult);
    let sum = p.reduce(add, 0.0);
    let per_chunk = p.map(sum);
    let s128 = p.split(128usize);
    let j = p.join();
    let z = p.zip2();
    p.with_root(
        vec![
            ("x", Type::array(Type::float(), n)),
            ("y", Type::array(Type::float(), n)),
        ],
        |p, params| {
            let zipped = p.apply(z, [params[0], params[1]]);
            let products = p.apply1(multiply, zipped);
            let chunks = p.apply1(s128, products);
            let partials = p.apply1(per_chunk, chunks);
            p.apply1(j, partials)
        },
    );
    p
}

fn main() {
    let n = 1024;
    let program = high_level_dot_product(n);
    println!("== High-level program (no OpenCL-specific patterns) ==\n{program}");

    let config = ExplorationConfig {
        max_depth: 5,
        beam_width: 64,
        rule_options: RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: vec![],
        },
        launch: LaunchConfig::d1(32, 8),
        device: DeviceProfile::nvidia(),
        best_n: 3,
        // Candidates are validated on the bytecode execution tier, which runs every kernel
        // the code generator emits (its interpreter fallback is for hand-written modules).
        engine: EngineSelection::Bytecode,
        ..ExplorationConfig::default()
    };
    let result = explore(&program, &config).expect("exploration runs");

    let validated = result.lowered - result.rejected_compile - result.rejected_incorrect;
    println!(
        "explored {} rewrites: {} typecheck-rejected, {} lowered candidates, {} failed to \
         compile, {} disagreed with the interpreter, {} validated ({} best returned)\n",
        result.explored,
        result.rejected_typecheck,
        result.lowered,
        result.rejected_compile,
        result.rejected_incorrect,
        validated,
        result.variants.len(),
    );

    assert!(
        result.variants.len() >= 2,
        "the exploration should find at least two distinct lowered variants"
    );

    for (i, variant) in result.variants.iter().enumerate() {
        println!(
            "== Variant {} (estimated time {:.1} units) ==",
            i + 1,
            variant.estimated_time
        );
        println!("derivation:");
        for (step_no, step) in variant.derivation.iter().enumerate() {
            println!(
                "  {:>2}. [{:?}] {:<24} at {}",
                step_no + 1,
                step.kind,
                step.rule,
                step.location
            );
        }
        println!("lowered Lift IL:\n{}", variant.program);
    }

    let best = &result.variants[0];
    println!(
        "== Generated OpenCL kernel of the best variant ==\n{}",
        best.kernel_source
    );
}
