//! Derives the convolution stencil from its high-level program and prints the best
//! variants — the stencil analogue of `derive_dot_product`.
//!
//! Run with `cargo run --release --example derive_convolution`.

use lift::benchmarks::convolution;
use lift::rewrite::{explore, ExplorationConfig, RuleOptions};
use lift::vgpu::{DeviceProfile, EngineSelection, LaunchConfig};

fn main() {
    let n_out = 128;
    let program = convolution::high_level_program(n_out, convolution::FILTER);
    println!("high-level input:\n{program}");

    let config = ExplorationConfig {
        max_depth: 5,
        beam_width: 64,
        max_candidates: 4000,
        rule_options: RuleOptions {
            split_sizes: vec![32, 64],
            vector_widths: vec![4],
            tile_sizes: vec![
                lift::rewrite::TileSize::d1(32),
                lift::rewrite::TileSize::d1(64),
            ],
        },
        launch: LaunchConfig::d1(128, 32),
        best_n: 6,
        device: DeviceProfile::nvidia(),
        // `Auto` (the default) runs the bytecode tier; no generated kernel falls back to the
        // interpreter.
        engine: EngineSelection::Auto,
        ..ExplorationConfig::default()
    };
    let result = explore(&program, &config).expect("exploration runs");
    println!(
        "explored {} candidates, {} lowered, {} compile-rejected, {} incorrect, {} kernels run",
        result.explored,
        result.lowered,
        result.rejected_compile,
        result.rejected_incorrect,
        result.executed_kernels
    );
    for (i, v) in result.variants.iter().enumerate() {
        println!("--- variant {i}: estimated time {:.1}", v.estimated_time);
        for step in &v.derivation {
            println!("    {:?} @ {}", step.rule, step.location);
        }
        println!("{}", v.program);
    }
}
