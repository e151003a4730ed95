//! The auto-tuning report: tunes the seven tracked workloads on both device profiles and
//! writes the machine-readable `BENCH_autotune.json` (override the path with
//! `--json-out <path>`).
//!
//! For every workload × device pair the binary first runs the *default-configuration*
//! exploration (`ExplorationConfig::default()` — the fixed `[64]/[16]` launch and default
//! rule options every caller got before the tuner existed), then lets `lift-tuner` search
//! the joint `(RuleOptions, launch)` space with the canonical seeded strategy. The report
//! records both numbers, their ratio (`improvement`), the winning point and chain, the
//! trajectory, and how many kernel launches the run started on the virtual GPU, how many
//! of those it stopped early as unable to win and how many it recalled from its score memo
//! (`kernels_executed`, `kernels_pruned`, `kernels_reused`), and the same
//! pair for the rewrites its rule searches judged and the candidates its points compiled
//! (`rewrites_judged`/`rewrites_recalled`, `candidates_compiled`/`compiles_recalled`).
//!
//! Every field is deterministic, so the committed file is its own gate: CI runs this binary
//! and fails when `git diff --exit-code -- BENCH_autotune.json` is not clean. A PR that
//! changes a number on purpose commits the regenerated file.
//!
//! After the file is written, the process's peak resident set (`VmHWM` of
//! `/proc/self/status`) is printed to stdout, never into the file: the peak memory of the
//! whole canonical sweep. Where `/proc` is absent the line is skipped.

use std::path::PathBuf;

use lift_bench::report::{autotune_entry, autotune_report};
use lift_bench::{autotune_config, autotune_strategy};
use lift_rewrite::{explore, ExplorationConfig};
use lift_tuner::{tune, Workload};
use lift_vgpu::DeviceProfile;

/// The value of `--json-out <path>` (or `--json-out=<path>`), `BENCH_autotune.json` in the
/// working directory when absent.
fn json_out_arg() -> PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json-out" {
            if let Some(path) = args.next() {
                return path.into();
            }
        } else if let Some(path) = arg.strip_prefix("--json-out=") {
            return path.into();
        }
    }
    "BENCH_autotune.json".into()
}

fn main() {
    let out_path = json_out_arg();
    let mut entries = Vec::new();

    for workload in Workload::all() {
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            let default_config = ExplorationConfig {
                device: device.clone(),
                ..ExplorationConfig::default()
            };
            let default =
                explore(&workload.program, &default_config).expect("default exploration runs");
            let default_best = default.variants.first().map(|v| v.estimated_time);

            let config = autotune_config(&workload, &device);
            let result = tune(&workload.program, &config).expect("tuning runs");

            let tuned = result.best_variant.as_ref().map(|b| b.estimated_time);
            println!(
                "{:16} on {:18}: default {} -> tuned {} ({} points, {} rule searches, \
                 {} cache hits, {} kernels executed ({} pruned), {} recalled; {} rewrites judged, \
                 {} recalled; {} candidates compiled, {} recalled)",
                workload.name,
                device.name,
                default_best.map_or("-".to_string(), |t| format!("{t:10.1}")),
                tuned.map_or("-".to_string(), |t| format!("{t:10.1}")),
                result.points_evaluated,
                result.enumerations,
                result.enumeration_cache_hits,
                result.kernels_executed,
                result.kernels_pruned,
                result.kernels_reused,
                result.rewrites_judged,
                result.rewrites_recalled,
                result.candidates_compiled,
                result.compiles_recalled,
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
                &default_config,
                &default,
                &result,
            ));
        }
    }

    // CI may point `--json-out` into a directory that does not exist on a fresh checkout.
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("create {}: {e}", parent.display()));
    }
    std::fs::write(&out_path, autotune_report(entries).render())
        .unwrap_or_else(|e| panic!("write {}: {e}", out_path.display()));
    println!("wrote {}", out_path.display());
    if let Some(peak) = peak_resident_set() {
        println!("peak resident set (VmHWM): {peak}");
    }
}

/// The `VmHWM` value of `/proc/self/status` (e.g. `16712 kB`), if the file exists and has it.
fn peak_resident_set() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}
