//! The auto-tuning trajectory probe: tunes the three high-level workloads (dot product,
//! matrix multiplication, N-Body) on both device profiles and writes the machine-readable
//! `BENCH_autotune.json` (override the path with `--json-out <path>`).
//!
//! For every workload × device pair the binary first runs the *default-configuration*
//! exploration (`ExplorationConfig::default()` — the fixed `[64]/[16]` launch and default
//! rule options every caller got before the tuner existed), then lets `lift-tuner` search
//! the joint `(RuleOptions, launch)` space with the canonical seeded strategy. The report
//! records both numbers; the `improvement` field is the ratio, and the CI perf gate
//! (`perf_gate`) fails the build when a committed tuned best-time regresses by more than
//! the threshold. Each entry also records how many kernel launches the run executed on the
//! virtual GPU and how many it recalled from its score memo (`kernels_executed`,
//! `kernels_reused`); both are deterministic and the gate compares them exactly.

use std::time::Instant;

use lift_bench::report::{autotune_entry, autotune_report};
use lift_bench::schema::{json_out_arg, write_json};
use lift_bench::{autotune_config, autotune_strategy};
use lift_rewrite::{explore, ExplorationConfig};
use lift_tuner::{tune, Workload};
use lift_vgpu::DeviceProfile;

fn main() {
    let out_path = json_out_arg("BENCH_autotune.json");
    let mut entries = Vec::new();

    for workload in Workload::all() {
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            let default_best = explore(
                &workload.program,
                &ExplorationConfig {
                    device: device.clone(),
                    ..ExplorationConfig::default()
                },
            )
            .expect("default exploration runs")
            .variants
            .first()
            .map(|v| v.estimated_time);

            let config = autotune_config(&workload, &device);
            let start = Instant::now();
            let result = tune(&workload.program, &config).expect("tuning runs");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;

            let tuned = result.best_variant.as_ref().map(|b| b.estimated_time);
            println!(
                "{:16} on {:18}: default {} -> tuned {} ({} points, {} rule searches, \
                 {} cache hits, {} kernels executed, {} recalled, {:.1} ms)",
                workload.name,
                device.name,
                default_best.map_or("-".to_string(), |t| format!("{t:10.1}")),
                tuned.map_or("-".to_string(), |t| format!("{t:10.1}")),
                result.points_evaluated,
                result.enumerations,
                result.enumeration_cache_hits,
                result.kernels_executed,
                result.kernels_reused,
                wall_ms,
            );
            if let (Some(point), Some(best)) = (&result.best_point, &result.best_variant) {
                println!(
                    "    best: splits {:?}, widths {:?}, launch {:?}/{:?}",
                    point.rule_options.split_sizes,
                    point.rule_options.vector_widths,
                    point.launch.global,
                    point.launch.local,
                );
                for step in &best.derivation {
                    println!("      {step}");
                }
            }
            entries.push(autotune_entry(
                workload.name,
                &autotune_strategy(&workload),
                default_best,
                &result,
                wall_ms,
            ));
        }
    }

    write_json(&out_path, &autotune_report(entries).render());
    println!("wrote {}", out_path.display());
}
