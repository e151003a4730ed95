//! Determinism of the autotune report: the same seed must produce a byte-identical
//! `BENCH_autotune.json` entry. The report carries no clock reading, which is what lets CI
//! gate the committed file with a plain `git diff`.

use lift_bench::report::{autotune_entry, autotune_report};
use lift_rewrite::{Exploration, ExplorationConfig};
use lift_telemetry::json::{parse, Json};
use lift_tuner::{tune, Strategy, TuningConfig, TuningSpace, Workload};
use lift_vgpu::DeviceProfile;

fn small_run(seed: u64) -> lift_tuner::TuningResult {
    let workload = Workload::dot_product();
    let device = DeviceProfile::amd();
    let mut launches = TuningSpace::d1_for_device(&device, 256).launches;
    launches.retain(|l| l.total_work_items() <= 64);
    let space = TuningSpace {
        split_sets: vec![vec![2, 4], vec![4, 8]],
        width_sets: vec![vec![4]],
        tile_sets: vec![vec![]],
        launches,
    };
    let strategy = Strategy::RandomHillClimb {
        seed,
        samples: 3,
        max_steps: 1,
    };
    let mut config = TuningConfig::new(device, space, strategy);
    config.base.max_candidates = 800;
    config.base.beam_width = 24;
    tune(&workload.program, &config).expect("tuning runs")
}

#[test]
fn same_seed_renders_byte_identical_reports() {
    let strategy = Strategy::RandomHillClimb {
        seed: 99,
        samples: 3,
        max_steps: 1,
    };
    // Two full runs: every byte must match.
    let render = |result: &lift_tuner::TuningResult| {
        autotune_report(vec![autotune_entry(
            "dot_product",
            &strategy,
            &ExplorationConfig::default(),
            &Exploration::default(),
            result,
        )])
        .render()
    };
    let a = render(&small_run(99));
    let b = render(&small_run(99));
    assert_eq!(a, b, "same seed must render byte-identical reports");
    // And the parsed report has the tracked fields, and no timing field.
    let parsed = parse(&a).expect("report parses");
    let entry = &parsed
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results")[0];
    assert!(entry
        .get("tuned_best_time")
        .and_then(Json::as_f64)
        .is_some());
    assert!(entry.get("wall_ms").is_none() && entry.get("points_per_sec").is_none());

    // A different seed walks a different trajectory (the sample prefix differs with
    // overwhelming probability on this space).
    let c = small_run(100);
    let d = small_run(99);
    assert_ne!(
        render(&c),
        render(&d),
        "different seeds should explore differently"
    );
}
