//! Determinism of the paper report: one case's `BENCH_paper.json` entries, run and rendered
//! twice, are byte-identical. The report carries no clock reading, which is what lets CI gate
//! the committed file with a plain `git diff`.

use lift_bench::paper::CaseRuns;
use lift_benchmarks::{nn, ProblemSize};
use lift_telemetry::json::{parse, Json};
use lift_vgpu::DeviceProfile;

/// Every object key in `doc`, depth first.
fn keys(doc: &Json, out: &mut Vec<String>) {
    match doc {
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                out.push(key.clone());
                keys(value, out);
            }
        }
        Json::Arr(values) => values.iter().for_each(|v| keys(v, out)),
        _ => {}
    }
}

#[test]
fn a_case_renders_byte_identical_entries() {
    let case = nn::case(ProblemSize::Small);
    let devices = [DeviceProfile::amd(), DeviceProfile::nvidia()];
    let render = || {
        let runs = CaseRuns::run(&case);
        Json::Arr(vec![runs.table1_row(), runs.cell(&devices)]).render()
    };
    let a = render();
    assert_eq!(a, render(), "two runs must render byte-identical entries");

    let parsed = parse(&a).expect("the entries parse");
    let entries = parsed.as_arr().expect("an array");
    assert_eq!(
        entries[0].get("characteristics").and_then(Json::as_str),
        Some("- - - coal 1D")
    );
    let cell = &entries[1];
    assert_eq!(cell.get("correct"), Some(&Json::Bool(true)));
    let levels = cell.get("levels").and_then(Json::as_arr).expect("levels");
    assert_eq!(levels.len(), 3);
    for level in levels {
        for device in &devices {
            let ratio = level.get("ratio").and_then(|r| r.get(&device.name));
            assert!(ratio.and_then(Json::as_f64).is_some_and(|r| r > 0.0));
        }
    }
    let mut names = Vec::new();
    keys(&parsed, &mut names);
    assert!(
        names
            .iter()
            .all(|k| !["time", "_ms", "_us", "wall", "elapsed"]
                .iter()
                .any(|t| k.contains(t))),
        "no timing field: {names:?}"
    );
}
