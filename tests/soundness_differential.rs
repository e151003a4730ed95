//! Differential soundness properties tying the two race-robustness layers together:
//!
//! 1. **Static accept ⇒ dynamically race-free.** For every candidate the rewrite
//!    exploration derives from the six tuned workloads, passing the compile-time
//!    parallelism-ownership pass implies the virtual GPU's shadow-memory race detector
//!    observes no conflict — scoring with the detector on rejects nothing the plain run
//!    accepts, and produces byte-identical variants.
//!
//! 2. **The committed tuned-best derivations are sound.** Every `best` entry of the
//!    committed `BENCH_autotune.json` replays to a variant that the ownership pass accepts
//!    and the race detector leaves untouched, with the committed estimated time. On every
//!    device the tiled matrix multiply is at least as fast as the plain one.

use std::collections::HashMap;

use lift::rewrite::{enumerate, ExplorationConfig, RuleOptions};
use lift::telemetry::json::{parse, Json};
use lift::tuner::Workload;
use lift::vgpu::{DeviceProfile, EngineSelection, LaunchConfig};
use lift_bench::autotune_config;

/// A launch every workload's lowered candidates execute correctly under (the virtual GPU
/// masks surplus work items, so a fixed grid works across problem sizes).
const LAUNCH: LaunchConfig = LaunchConfig {
    global: [64, 1, 1],
    local: [16, 1, 1],
};

/// The workload's canonical search configuration at one representative point: the shared
/// autotune budgets (depth, beam, candidate cap) with a fixed launch and rule options.
fn workload_config(workload: &Workload, device: &DeviceProfile) -> ExplorationConfig {
    ExplorationConfig {
        rule_options: RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: workload.tile_sets.first().cloned().unwrap_or_default(),
        },
        launch: LAUNCH,
        ..autotune_config(workload, device).base
    }
}

#[test]
fn static_accept_implies_dynamically_race_free_across_all_workloads() {
    let device = DeviceProfile::nvidia();
    for workload in Workload::all() {
        let config = workload_config(&workload, &device);
        let enumerated = enumerate(&workload.program, &config)
            .unwrap_or_else(|e| panic!("{}: enumeration fails: {e}", workload.name));
        assert!(
            enumerated.lowered() > 0,
            "{}: the search lowered no candidates",
            workload.name
        );
        let detected = enumerated
            .score(&config)
            .unwrap_or_else(|e| panic!("{}: scoring fails: {e}", workload.name));
        let plain = enumerated
            .score(&ExplorationConfig {
                detect_races: false,
                ..config
            })
            .unwrap_or_else(|e| panic!("{}: scoring fails: {e}", workload.name));

        // The property: no statically accepted candidate races dynamically.
        assert_eq!(
            detected.rejected_race, 0,
            "{}: a statically accepted candidate raced: {:?}",
            workload.name, detected.soundness.dynamic_rejections
        );
        assert_eq!(
            detected.rejected_divergence, 0,
            "{}: a statically accepted candidate diverged at a barrier: {:?}",
            workload.name, detected.soundness.dynamic_rejections
        );
        assert!(detected.soundness.dynamic_rejections.is_empty());

        // The detector changes nothing else: same static verdicts, same execution
        // verdicts, byte-identical winners.
        assert_eq!(detected.rejected_unsound, plain.rejected_unsound);
        assert_eq!(detected.rejected_compile, plain.rejected_compile);
        assert_eq!(detected.rejected_incorrect, plain.rejected_incorrect);
        assert_eq!(detected.executed_kernels, plain.executed_kernels);
        assert_eq!(
            detected.variants.len(),
            plain.variants.len(),
            "{}: detector changed the variant count",
            workload.name
        );
        assert!(!detected.variants.is_empty(), "{}", workload.name);
        for (a, b) in detected.variants.iter().zip(&plain.variants) {
            assert_eq!(a.kernel_source, b.kernel_source, "{}", workload.name);
            assert_eq!(a.estimated_time, b.estimated_time, "{}", workload.name);
            assert_eq!(a.counters, b.counters, "{}", workload.name);
        }
    }
}

fn f64s(json: &Json) -> Vec<f64> {
    json.as_arr()
        .expect("numeric array")
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn launch_dims(json: &Json) -> [usize; 3] {
    let dims = f64s(json);
    assert_eq!(dims.len(), 3);
    [dims[0] as usize, dims[1] as usize, dims[2] as usize]
}

#[test]
fn committed_tuned_best_derivations_are_statically_accepted_and_race_free() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_autotune.json");
    let doc = parse(&std::fs::read_to_string(path).expect("read BENCH_autotune.json"))
        .expect("parse BENCH_autotune.json");
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .expect("results[]");
    assert!(!results.is_empty());
    let workloads = Workload::all();
    let mut tuned_times: HashMap<(&str, &str), f64> = HashMap::new();

    for entry in results {
        let name = entry
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload name");
        let device_name = entry
            .get("device")
            .and_then(Json::as_str)
            .expect("device name");
        let device = match device_name {
            "nvidia-titan-black" => DeviceProfile::nvidia(),
            "amd-r9-295x2" => DeviceProfile::amd(),
            other => panic!("{name}: unknown device {other}"),
        };
        let Some(best) = entry.get("best").filter(|b| !matches!(b, Json::Null)) else {
            panic!("{name}: committed entry without a tuned best");
        };
        let workload = workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"));

        // Rebuild the exact exploration the tuner ran at its best point.
        let config = ExplorationConfig {
            rule_options: RuleOptions {
                split_sizes: f64s(best.get("split_sizes").expect("split_sizes"))
                    .iter()
                    .map(|v| *v as i64)
                    .collect(),
                vector_widths: f64s(best.get("vector_widths").expect("vector_widths"))
                    .iter()
                    .map(|v| *v as usize)
                    .collect(),
                // Each committed tile is a `[rows, cols]` pair (1D stencil tiles are
                // `[1, x]`).
                tile_sizes: best
                    .get("tile_sizes")
                    .and_then(Json::as_arr)
                    .expect("tile_sizes")
                    .iter()
                    .map(|pair| {
                        let pair = f64s(pair);
                        assert_eq!(pair.len(), 2, "tile_sizes entries are [rows, cols]");
                        lift::rewrite::TileSize::d2(pair[0] as i64, pair[1] as i64)
                    })
                    .collect(),
            },
            launch: LaunchConfig {
                global: launch_dims(best.get("global").expect("global")),
                local: launch_dims(best.get("local").expect("local")),
            },
            ..autotune_config(workload, &device).base
        };
        let expected: Vec<&str> = best
            .get("derivation")
            .and_then(Json::as_arr)
            .expect("derivation")
            .iter()
            .map(|s| s.as_str().expect("derivation step"))
            .collect();
        let tuned_best_time = entry
            .get("tuned_best_time")
            .and_then(Json::as_f64)
            .expect("tuned_best_time");
        tuned_times.insert((name, device_name), tuned_best_time);

        // Score with the race detector on (the default): the committed winner must
        // survive as the point's best variant with the committed estimated time.
        let enumerated = enumerate(&workload.program, &config)
            .unwrap_or_else(|e| panic!("{name}/{}: enumeration fails: {e}", device.name));
        let scored = enumerated
            .score(&config)
            .unwrap_or_else(|e| panic!("{name}/{}: scoring fails: {e}", device.name));
        assert_eq!(scored.rejected_race, 0, "{name}/{}", device.name);
        assert_eq!(scored.rejected_divergence, 0, "{name}/{}", device.name);
        let winner = scored
            .variants
            .first()
            .unwrap_or_else(|| panic!("{name}/{}: no variant survived", device.name));
        let derivation: Vec<String> = winner
            .derivation
            .iter()
            .map(|s| format!("{} @ {}", s.rule, s.location))
            .collect();
        assert_eq!(
            derivation, expected,
            "{name}/{}: tuned-best derivation changed",
            device.name
        );
        assert!(
            (winner.estimated_time - tuned_best_time).abs() <= 1e-3 * tuned_best_time,
            "{name}/{}: tuned-best time drifted: {} vs committed {tuned_best_time}",
            device.name,
            winner.estimated_time
        );

        // …and the detector did not perturb the result: the plain scoring yields a
        // byte-identical winner.
        let plain = enumerated
            .score(&ExplorationConfig {
                detect_races: false,
                ..config.clone()
            })
            .unwrap_or_else(|e| panic!("{name}/{}: scoring fails: {e}", device.name));
        let plain_winner = plain.variants.first().expect("plain winner");
        assert_eq!(winner.kernel_source, plain_winner.kernel_source);
        assert_eq!(winner.estimated_time, plain_winner.estimated_time);

        // The bytecode tier replays the committed tuned-best to the bit: same derivation,
        // same counters, same estimated time as the interpreter-backed scoring above.
        let bytecode = enumerated
            .score(&ExplorationConfig {
                engine: EngineSelection::Bytecode,
                ..config
            })
            .unwrap_or_else(|e| panic!("{name}/{}: bytecode scoring fails: {e}", device.name));
        assert_eq!(bytecode.rejected_race, 0, "{name}/{}", device.name);
        assert_eq!(bytecode.rejected_divergence, 0, "{name}/{}", device.name);
        let bytecode_winner = bytecode
            .variants
            .first()
            .unwrap_or_else(|| panic!("{name}/{}: no bytecode variant", device.name));
        assert_eq!(winner.kernel_source, bytecode_winner.kernel_source);
        assert_eq!(winner.counters, bytecode_winner.counters);
        assert_eq!(
            winner.estimated_time.to_bits(),
            bytecode_winner.estimated_time.to_bits(),
            "{name}/{}: bytecode tuned-best time drifted",
            device.name
        );
    }

    // Register and local blocking is the point of the tiled derivation: on every device
    // that carries both, tuned `mm_tiled` is no slower than tuned `matrix_multiply`. A tie
    // is the worst acceptable outcome, so there is no tolerance.
    let mut devices_compared = 0;
    for (&(name, device), &tiled) in &tuned_times {
        if name != "mm_tiled" {
            continue;
        }
        if let Some(&plain) = tuned_times.get(&("matrix_multiply", device)) {
            assert!(
                tiled <= plain,
                "{device}: tuned mm_tiled {tiled} is slower than tuned matrix_multiply {plain}"
            );
            devices_compared += 1;
        }
    }
    assert!(devices_compared > 0, "no device carries both workloads");
}
