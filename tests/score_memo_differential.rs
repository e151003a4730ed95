//! Differential pins for the two memos of a `lift::rewrite::Search` (which rewrites were
//! judged, what every candidate compiled to and every launch did): recalling a judgement or
//! a verdict must be indistinguishable from working it out again.
//!
//! 1. **A tuning run through one search equals the same walk done point by point through
//!    throwaway ones** — trajectory, winner, every enumeration's lowered candidates (terms
//!    compared name for name, and chains) and every point's `Exploration` (search statistics,
//!    variants, rejection counts, soundness report), for all seven workloads on both device
//!    profiles, sequentially and with two workers. A corner of each tuning space in the
//!    tier-1 build; the whole canonical walk as an `#[ignore]`d test for release builds. The
//!    run evaluates the reference once, and enumerates once per rule-option coordinate.
//! 2. **A memo never answers for another context**: handed a different device or
//!    race-detection setting a search's score memo recalls nothing and returns what a fresh
//!    memo returns, and other size bindings are a typed error; handed another size cap its
//!    rewrite memo starts over.
//! 3. **A replayed derivation is re-proven on every call**: `from_derivation(..).score(..)`
//!    compiles, executes and validates its candidate each time.
//! 4. **Pruning is exact**: a point scored through a search, where a launch is stopped once
//!    its cost bound proves it cannot make the `best_n`, returns the point's unpruned variants
//!    (`best_n = usize::MAX`) cut to `best_n` — and what is pruned does not depend on the
//!    number of workers.

use std::collections::HashMap;

use lift::arith::Environment;
use lift::rewrite::{
    enumerate, Enumerated, Exploration, ExplorationConfig, ExploreError, RuleOptions, Search,
};
use lift::telemetry::{Event, InMemory, Null};
use lift::tuner::{tune, tune_with, PointIndex, Strategy, TuningConfig, TuningPoint, Workload};
use lift::vgpu::{DeviceProfile, LaunchConfig};
use lift_bench::autotune_config;

/// Asserts that two explorations of the same candidates agree on everything a caller can
/// observe except how much was recalled.
fn assert_same_exploration(shared: &Exploration, fresh: &Exploration, at: &str) {
    assert_eq!(shared.explored, fresh.explored, "{at}");
    assert_eq!(shared.rejected_typecheck, fresh.rejected_typecheck, "{at}");
    assert_eq!(shared.dedup_hits, fresh.dedup_hits, "{at}");
    assert_eq!(shared.lowered, fresh.lowered, "{at}");
    assert_eq!(shared.rejected_compile, fresh.rejected_compile, "{at}");
    assert_eq!(shared.rejected_incorrect, fresh.rejected_incorrect, "{at}");
    assert_eq!(shared.rejected_unsound, fresh.rejected_unsound, "{at}");
    assert_eq!(shared.rejected_race, fresh.rejected_race, "{at}");
    assert_eq!(
        shared.rejected_divergence, fresh.rejected_divergence,
        "{at}"
    );
    assert_eq!(shared.soundness, fresh.soundness, "{at}");
    assert_eq!(shared.executed_kernels, fresh.executed_kernels, "{at}");
    assert_eq!(shared.variants.len(), fresh.variants.len(), "{at}");
    for (a, b) in shared.variants.iter().zip(&fresh.variants) {
        assert_eq!(a.program.to_string(), b.program.to_string(), "{at}");
        assert_eq!(a.derivation, b.derivation, "{at}");
        assert_eq!(a.kernel_source, b.kernel_source, "{at}");
        assert_eq!(a.kernel_count, b.kernel_count, "{at}");
        assert_eq!(a.counters, b.counters, "{at}");
        assert_eq!(a.stage_counters, b.stage_counters, "{at}");
        assert_eq!(a.stage_names, b.stage_names, "{at}");
        assert_eq!(
            a.estimated_time.to_bits(),
            b.estimated_time.to_bits(),
            "{at}"
        );
    }
}

/// Asserts that two enumerations found the same lowered candidates in the same order: equal
/// terms (fresh names included) and equal derivation chains.
fn assert_same_candidates(shared: &Enumerated, fresh: &Enumerated, at: &str) {
    assert_eq!(shared.lowered(), fresh.lowered(), "{at}");
    for (a, b) in shared.lowered_candidates().zip(fresh.lowered_candidates()) {
        assert_eq!(a.0, b.0, "{at}");
        assert_eq!(a.1, b.1, "{at}");
    }
}

/// The workload's canonical search budgets over a corner of its tuning space, walked
/// exhaustively: two nested split sets, two width sets and (where the workload has them) two
/// tile sets at two launches. Points that differ only in one option list re-read exactly
/// that list, which is what the rewrite memo keys by; points that share rule options derive
/// the same candidates at another launch, which is what the compile level recalls across.
/// The corner keeps an unoptimised test build quick.
fn corner_walk(workload: &Workload, device: &DeviceProfile, threads: usize) -> TuningConfig {
    let mut config = autotune_config(workload, device);
    let space = &mut config.space;
    space.split_sets = vec![vec![2, 4], vec![2, 4, 8]];
    space.width_sets.truncate(2);
    space.tile_sets.truncate(2);
    space.launches = vec![space.launches[0], space.launches[space.launches.len() - 1]];
    config.strategy = Strategy::Exhaustive;
    config.base.threads = threads;
    config
}

/// The canonical `autotune_stats` run of the workload, with the given worker count.
fn canonical_walk(workload: &Workload, device: &DeviceProfile, threads: usize) -> TuningConfig {
    let mut config = autotune_config(workload, device);
    config.base.threads = threads;
    config
}

/// The differential property for one workload on one device: the tuner's run through one
/// search — sequential and with two workers — against the same walk enumerated and scored
/// point by point through throwaway searches.
fn shared_memo_run_equals_fresh_memo_walk(
    workload: &Workload,
    device: &DeviceProfile,
    walk: fn(&Workload, &DeviceProfile, usize) -> TuningConfig,
) {
    let at = format!("{}/{}", workload.name, device.name);
    let config = walk(workload, device, 1);
    let tuned = tune(&workload.program, &config).expect("tuning runs");
    assert!(tuned.best_variant.is_some(), "{at}: nothing survived");
    let two_workers = tune(&workload.program, &walk(workload, device, 2));
    assert_eq!(two_workers.expect("tuning runs"), tuned, "{at}");

    // Re-walk the tuned trajectory: every rule search run and every point scored through
    // throwaway searches (the reference), and through one search per worker count shared by
    // the whole walk.
    struct Shared {
        threads: usize,
        search: Search,
        enumerations: HashMap<(usize, usize, usize), Enumerated>,
    }
    let mut shared = [1, 2].map(|threads| Shared {
        threads,
        search: Search::new(&workload.program, &config.base.sizes, &Null).expect("input types"),
        enumerations: HashMap::new(),
    });
    let mut enumerations: HashMap<(usize, usize, usize), Enumerated> = HashMap::new();
    let mut best: Option<(usize, f64)> = None;
    let (mut needed, mut executed, mut reused) = (0, 0, 0);
    let (mut compiled, mut compiles_recalled) = (0, 0);
    for (i, entry) in tuned.trajectory.iter().enumerate() {
        let at = format!("{at}/point {i}");
        let index = entry.point.index;
        let coordinate = (index.split_set, index.width_set, index.tile_set);
        let point = ExplorationConfig {
            rule_options: entry.point.rule_options.clone(),
            launch: entry.point.launch,
            device: device.clone(),
            ..config.base.clone()
        };
        let enumerated = enumerations
            .entry(coordinate)
            .or_insert_with(|| enumerate(&workload.program, &point).expect("enumeration runs"));
        let fresh = enumerated.score(&point);
        for walk in &mut shared {
            let at = format!("{at}/threads={}", walk.threads);
            let point = ExplorationConfig {
                threads: walk.threads,
                ..point.clone()
            };
            let search = &mut walk.search;
            let recalled = walk.enumerations.entry(coordinate).or_insert_with(|| {
                search
                    .enumerate(&point, &Null)
                    .expect("shared-memo enumeration runs")
            });
            assert_same_candidates(recalled, enumerated, &at);
            let (Ok(fresh), recalled) = (&fresh, search.score(recalled, &point, &Null)) else {
                assert!(matches!(fresh, Err(ExploreError::Launch(_))), "{at}");
                continue;
            };
            let recalled = recalled.expect("shared-memo scoring runs");
            assert_same_exploration(&recalled, fresh, &at);
            if walk.threads == 1 {
                executed += recalled.executed_kernels - recalled.reused_kernels;
                reused += recalled.reused_kernels;
                compiled += recalled.lowered - recalled.reused_compiles;
                compiles_recalled += recalled.reused_compiles;
            }
        }
        let fresh = match fresh {
            Ok(fresh) => fresh,
            Err(ExploreError::Launch(_)) => {
                assert_eq!(entry.best_time, None, "{at}");
                continue;
            }
            Err(e) => panic!("{at}: {e}"),
        };
        assert_eq!((fresh.reused_kernels, fresh.reused_compiles), (0, 0));
        needed += fresh.executed_kernels;

        // The tuner saw exactly what the fresh enumeration and scoring see.
        let best_time = fresh.variants.first().map(|v| v.estimated_time);
        assert_eq!(entry.best_time, best_time, "{at}");
        assert_eq!(entry.lowered, fresh.lowered, "{at}");
        assert_eq!(entry.variants, fresh.variants.len(), "{at}");
        let improved = best_time.is_some_and(|t| best.is_none_or(|(_, b)| t < b));
        assert_eq!(entry.improved, improved, "{at}");
        if improved {
            best = best_time.map(|t| (i, t));
            if tuned.best_point.as_ref() == Some(&entry.point) {
                let winner = &fresh.variants[0];
                let served = tuned.best_variant.as_ref().expect("a winner");
                assert_eq!(served.steps, winner.derivation, "{at}");
                assert_eq!(served.kernel_source, winner.kernel_source, "{at}");
            }
        }
    }
    let (best_index, best_time) = best.expect("a point improved");
    assert_eq!(
        tuned.best_point.as_ref(),
        Some(&tuned.trajectory[best_index].point),
        "{at}"
    );
    assert_eq!(
        tuned.best_variant.as_ref().map(|v| v.estimated_time),
        Some(best_time),
        "{at}"
    );
    // The run's own counts are those of the shared-memo walk, and together they cover
    // everything the fresh-memo walk worked out.
    let [sequential, _] = &shared;
    assert_eq!(
        (tuned.kernels_executed, tuned.kernels_reused),
        (executed, reused),
        "{at}"
    );
    assert_eq!(executed + reused, needed, "{at}");
    assert_eq!(
        (tuned.candidates_compiled, tuned.compiles_recalled),
        (compiled, compiles_recalled),
        "{at}"
    );
    assert_eq!(
        (tuned.rewrites_judged, tuned.rewrites_recalled),
        (
            sequential.search.rewrites_judged(),
            sequential.search.rewrites_recalled()
        ),
        "{at}"
    );
    assert_eq!(tuned.enumerations, enumerations.len(), "{at}");
    assert!(reused > 0, "{at}: the walk recalled no launch");
    assert!(compiles_recalled > 0, "{at}: the walk recalled no compile");
    assert!(
        tuned.rewrites_recalled > 0,
        "{at}: the walk recalled no rewrite"
    );
}

#[test]
fn a_shared_memo_run_equals_a_fresh_memo_per_point_run_on_nvidia() {
    for workload in Workload::all() {
        shared_memo_run_equals_fresh_memo_walk(&workload, &DeviceProfile::nvidia(), corner_walk);
    }
}

#[test]
fn a_shared_memo_run_equals_a_fresh_memo_per_point_run_on_amd() {
    for workload in Workload::all() {
        shared_memo_run_equals_fresh_memo_walk(&workload, &DeviceProfile::amd(), corner_walk);
    }
}

#[test]
fn a_tuning_run_evaluates_the_reference_once_and_enumerates_once_per_coordinate() {
    let workload = Workload::jacobi_2d();
    let config = corner_walk(&workload, &DeviceProfile::nvidia(), 1);
    let collector = InMemory::new();
    let tuned = tune_with(&workload.program, &config, &collector).expect("tuning runs");
    let events = collector.into_events();
    let spans = |name| {
        let begin = Event::SpanBegin { name };
        events.iter().filter(|e| e.event == begin).count()
    };
    assert_eq!(spans("interp.reference"), 1);
    assert_eq!(spans("enumerate"), tuned.enumerations);
    assert!(tuned.enumerations > 1 && tuned.enumeration_cache_hits > 0);
}

/// The same property over the whole canonical walk of every workload on both devices — the
/// runs `BENCH_autotune.json` records. Minutes in a release build, far longer without
/// optimisation, so CI's `perf` job runs it with `--release -- --ignored`.
#[test]
#[ignore = "the full canonical walk: run with --release"]
fn the_canonical_runs_equal_their_fresh_memo_per_point_walks() {
    for workload in Workload::all() {
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            shared_memo_run_equals_fresh_memo_walk(&workload, &device, canonical_walk);
        }
    }
}

/// A small dot-product search at one launch, which has scored it on NVIDIA.
fn scored_dot_product() -> (Search, Enumerated, ExplorationConfig) {
    let config = ExplorationConfig {
        max_depth: 5,
        beam_width: 32,
        max_candidates: 1500,
        rule_options: RuleOptions {
            split_sizes: vec![2, 4],
            vector_widths: vec![4],
            tile_sizes: vec![],
        },
        launch: LaunchConfig::d1(16, 4),
        threads: 1,
        ..ExplorationConfig::default()
    };
    let program = Workload::dot_product().program;
    let mut search = Search::new(&program, &config.sizes, &Null).expect("input types");
    let enumerated = search.enumerate(&config, &Null).expect("enumeration runs");
    let first = search
        .score(&enumerated, &config, &Null)
        .expect("scoring runs");
    assert!(first.executed_kernels > 0 && !first.variants.is_empty());
    assert_eq!((first.reused_kernels, first.reused_compiles), (0, 0));
    (search, enumerated, config)
}

#[test]
fn a_memo_recalls_only_under_the_context_it_recorded() {
    let (mut search, enumerated, config) = scored_dot_product();

    // Same context: everything is recalled, nothing is executed, the result is the same.
    let again = search
        .score(&enumerated, &config, &Null)
        .expect("scoring runs");
    assert_eq!(again.reused_kernels, again.executed_kernels);
    assert_eq!(again.reused_compiles, again.lowered);
    assert_same_exploration(&again, &enumerated.score(&config).unwrap(), "same context");

    // Any other context misses: the memo behaves like a fresh one.
    let other_contexts = [
        (
            "device",
            ExplorationConfig {
                device: DeviceProfile::amd(),
                ..config.clone()
            },
        ),
        (
            "detect_races",
            ExplorationConfig {
                detect_races: false,
                ..config.clone()
            },
        ),
    ];
    for (what, other) in other_contexts {
        let scored = search
            .score(&enumerated, &other, &Null)
            .expect("scoring runs");
        assert_eq!(
            (scored.reused_kernels, scored.reused_compiles),
            (0, 0),
            "a memo recorded under another {what} must miss"
        );
        assert_same_exploration(&scored, &enumerated.score(&other).unwrap(), what);
    }
    // Other size bindings than the search generated its inputs under cannot be scored at all.
    let resized = ExplorationConfig {
        sizes: Environment::new().bind("N", 512),
        ..config.clone()
    };
    assert!(matches!(
        search.score(&enumerated, &resized, &Null),
        Err(ExploreError::Sizes)
    ));
    // The AMD cost model ranks by different times, so a leaked NVIDIA verdict would show.
    let nvidia = enumerated.score(&config).unwrap();
    let amd = enumerated
        .score(&ExplorationConfig {
            device: DeviceProfile::amd(),
            ..config
        })
        .unwrap();
    assert_ne!(
        nvidia.variants[0].estimated_time,
        amd.variants[0].estimated_time
    );
}

#[test]
fn a_rewrite_memo_recalls_only_for_the_program_and_size_cap_it_recorded() {
    let (_, _, config) = scored_dot_product();
    let program = Workload::dot_product().program;
    let mut search = Search::new(&program, &config.sizes, &Null).expect("input types");
    let first = search.enumerate(&config, &Null).expect("enumeration runs");
    let judged = search.rewrites_judged();
    assert!(judged > 0);
    assert_eq!(search.rewrites_recalled(), 0);

    // The same search again judges nothing.
    let again = search.enumerate(&config, &Null).expect("enumeration runs");
    assert_same_candidates(&again, &first, "same search");
    assert_eq!(search.rewrites_judged(), judged);
    assert!(search.rewrites_recalled() > 0);

    // Another size cap changes what is oversize: the memo starts over, and finds what a
    // fresh one finds. (A search is of one program by construction.)
    let tighter = ExplorationConfig {
        max_term_size: 40,
        ..config.clone()
    };
    let (judged, recalled) = (search.rewrites_judged(), search.rewrites_recalled());
    let shared = search.enumerate(&tighter, &Null).expect("enumeration runs");
    assert!(search.rewrites_judged() > judged);
    assert_eq!(
        search.rewrites_recalled(),
        recalled,
        "a memo recorded for another size cap must miss"
    );
    let fresh = enumerate(&program, &tighter).expect("enumeration runs");
    assert_same_candidates(&shared, &fresh, "size cap");
}

#[test]
fn a_replayed_derivation_is_executed_and_validated_on_every_score() {
    let (_, enumerated, config) = scored_dot_product();
    let winner = &enumerated.score(&config).unwrap().variants[0];
    let program = Workload::dot_product().program;
    let replayed = Enumerated::from_derivation(&program, &winner.derivation, &config)
        .expect("the chain replays");
    for _ in 0..2 {
        let scored = replayed.score(&config).expect("scoring runs");
        assert_eq!(scored.lowered, 1);
        assert_eq!(scored.executed_kernels, 1);
        assert_eq!((scored.reused_kernels, scored.reused_compiles), (0, 0));
        assert_eq!(scored.variants[0].kernel_source, winner.kernel_source);
        assert_eq!(scored.variants[0].estimated_time, winner.estimated_time);
    }
}

/// Scores `points` of the workload's canonical tuning run through one search and asserts
/// that each returns its unpruned variants cut to `best_n`: the same kernels, chains and
/// times, in the same order. Returns the launches pruned on the way.
fn pruned_scoring_equals_truncated_unpruned_scoring(
    workload: &Workload,
    device: &DeviceProfile,
    points: &[TuningPoint],
) -> usize {
    let base = autotune_config(workload, device).base;
    let mut search = Search::new(&workload.program, &base.sizes, &Null).expect("input types");
    let mut enumerations: HashMap<(usize, usize, usize), Enumerated> = HashMap::new();
    let mut pruned = 0;
    for point in points {
        let at = format!("{}/{} at {:?}", workload.name, device.name, point.index);
        let index = point.index;
        let config = ExplorationConfig {
            rule_options: point.rule_options.clone(),
            launch: point.launch,
            device: device.clone(),
            ..base.clone()
        };
        let enumerated = enumerations
            .entry((index.split_set, index.width_set, index.tile_set))
            .or_insert_with(|| search.enumerate(&config, &Null).expect("enumeration runs"));
        let scored = match search.score(enumerated, &config, &Null) {
            Ok(scored) => scored,
            Err(ExploreError::Launch(_)) => continue,
            Err(e) => panic!("{at}: {e}"),
        };
        let unpruned = enumerated
            .score(&ExplorationConfig {
                best_n: usize::MAX,
                ..config.clone()
            })
            .expect("scoring runs");
        assert_eq!(unpruned.pruned_kernels, 0, "{at}");
        let expected = &unpruned.variants[..unpruned.variants.len().min(config.best_n)];
        assert_eq!(scored.variants.len(), expected.len(), "{at}");
        for (a, b) in scored.variants.iter().zip(expected) {
            assert_eq!(a.kernel_source, b.kernel_source, "{at}");
            assert_eq!(a.derivation, b.derivation, "{at}");
            assert_eq!(
                a.estimated_time.to_bits(),
                b.estimated_time.to_bits(),
                "{at}"
            );
        }
        pruned += scored.pruned_kernels;
    }
    pruned
}

#[test]
fn pruned_scoring_returns_the_unpruned_best_n() {
    let workloads = [
        Workload::dot_product(),
        Workload::jacobi_2d(),
        Workload::mm_tiled(),
        Workload::convolution_1d(),
    ];
    for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
        for workload in &workloads {
            // The first rule-option coordinate at the first, a middle and the last launch.
            let space = autotune_config(workload, &device).space;
            let last = space.launches.len() - 1;
            let points: Vec<TuningPoint> = [0, last / 2, last]
                .map(|launch| {
                    space.point(PointIndex {
                        split_set: 0,
                        width_set: 0,
                        tile_set: 0,
                        launch,
                    })
                })
                .into();
            let pruned =
                pruned_scoring_equals_truncated_unpruned_scoring(workload, &device, &points);
            if workload.name == "dot_product" {
                assert!(pruned > 0, "{}: nothing was pruned", device.name);
            }
        }
    }
}

/// The same property at every point of every canonical run: the points `BENCH_autotune.json`
/// records, in their order, through one search per run.
#[test]
#[ignore = "the full canonical walk: run with --release"]
fn the_canonical_runs_prune_exactly() {
    for workload in Workload::all() {
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            let tuned = tune(&workload.program, &canonical_walk(&workload, &device, 1))
                .expect("tuning runs");
            let points: Vec<TuningPoint> = tuned
                .trajectory
                .into_iter()
                .map(|entry| entry.point)
                .collect();
            pruned_scoring_equals_truncated_unpruned_scoring(&workload, &device, &points);
        }
    }
}

#[test]
fn what_is_pruned_does_not_depend_on_the_worker_count() {
    let workload = Workload::jacobi_2d();
    let [one, two] = [1, 2].map(|threads| {
        let config = corner_walk(&workload, &DeviceProfile::nvidia(), threads);
        let collector = InMemory::new();
        let tuned = tune_with(&workload.program, &config, &collector).expect("tuning runs");
        let per_point: usize = collector
            .into_events()
            .iter()
            .map(|e| match e.event {
                Event::TunerPoint { kernels_pruned, .. } => kernels_pruned as usize,
                _ => 0,
            })
            .sum();
        assert_eq!(per_point, tuned.kernels_pruned);
        tuned
    });
    assert!(one.kernels_pruned > 0 && one.kernels_executed > one.kernels_pruned);
    assert_eq!(one, two);
}
