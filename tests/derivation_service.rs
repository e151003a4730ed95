//! Workspace-level integration tests for the derivation service (`lift-service`): the
//! differential warm-vs-cold guarantee, request batching/deduplication pinned by
//! telemetry, warm-started misses, persistence across reopen, which store files a warm hit
//! writes, whole-generation invalidation on a rule-set version bump, and the search a hit
//! reuses from its entry's previous hit: its reference output, and the verdict of the
//! launch it proved.

use lift::arith::{ArithExpr, Environment};
use lift::ir::prelude::*;
use lift::rewrite::RuleOptions;
use lift::service::{DerivationService, Request, Response, Served, ServiceConfig};
use lift::telemetry::{counts_by_kind, Event, InMemory, Null};
use lift::tuner::{Strategy, TuningConfig, TuningSpace, Workload};
use lift::vgpu::{DeviceProfile, EngineSelection, LaunchConfig};
use lift_bench::autotune_config;

/// A deliberately small but real tuning request: the full pipeline runs (enumerate,
/// compile with the ownership pass, execute, validate), just over a reduced budget.
fn small_request(workload: &Workload) -> Request {
    let device = DeviceProfile::nvidia();
    let mut config = TuningConfig::new(
        device.clone(),
        workload.space_for(&device),
        Strategy::RandomHillClimb {
            seed: 1,
            samples: 2,
            max_steps: 2,
        },
    );
    // The dot product lowers within a few hundred candidates; MM needs the full budget to
    // reach a complete derivation.
    config.base.max_candidates = if workload.name == "dot_product" {
        400
    } else {
        3000
    };
    Request {
        name: workload.name.to_string(),
        program: workload.program.clone(),
        config,
    }
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("lift-service-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn warm_hits_replay_byte_identical_to_cold_derivations() {
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    for workload in [Workload::dot_product(), Workload::matrix_multiply()] {
        let request = small_request(&workload);
        let cold = service
            .request_with(request.clone(), &Null)
            .expect("cold derivation succeeds");
        assert_eq!(cold.served, Served::ColdMiss, "{}", workload.name);

        // The cold path must serve exactly what the tuner alone would have found.
        let direct = lift::tuner::tune(&request.program, &request.config)
            .expect("direct tuning succeeds")
            .best_variant
            .expect("direct tuning finds a variant");
        assert_eq!(
            cold.variant.kernel_source, direct.kernel_source,
            "{}",
            workload.name
        );

        // The warm hit replays the recorded chain through provenance and re-validates it;
        // the served variant must be byte-identical to the cold one.
        let warm = service
            .request_with(request, &Null)
            .expect("warm hit succeeds");
        assert_eq!(warm.served, Served::WarmHit, "{}", workload.name);
        assert_eq!(warm.variant.steps, cold.variant.steps, "{}", workload.name);
        assert_eq!(
            warm.variant.kernel_source, cold.variant.kernel_source,
            "{}: warm and cold kernels must be byte-identical",
            workload.name
        );
        assert_eq!(
            warm.variant.estimated_time, cold.variant.estimated_time,
            "{}: the deterministic cost model must re-score identically",
            workload.name
        );
        assert_eq!(warm.rule_options, cold.rule_options, "{}", workload.name);
        assert_eq!(warm.launch, cold.launch, "{}", workload.name);
    }
    let stats = service.stats();
    assert_eq!(stats.replay_failures, 0);
    assert_eq!((stats.hits, stats.misses), (2, 2));
}

#[test]
fn a_batch_of_identical_requests_costs_exactly_one_derivation() {
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    let collector = InMemory::default();
    let request = small_request(&Workload::dot_product());
    for _ in 0..5 {
        service.submit(request.clone());
    }
    let responses = service
        .drain_with(&collector)
        .expect("batched drain succeeds");

    assert_eq!(responses.len(), 5);
    assert_eq!(responses[0].served, Served::ColdMiss);
    for response in &responses[1..] {
        assert_eq!(response.served, Served::Coalesced);
        assert_eq!(
            response.variant.kernel_source,
            responses[0].variant.kernel_source
        );
        assert_eq!(response.variant.steps, responses[0].variant.steps);
    }

    let stats = service.stats();
    assert_eq!(stats.requests, 5);
    assert_eq!(
        stats.derivations, 1,
        "five identical requests cost one derivation"
    );
    assert_eq!(stats.coalesced, 4);

    // Telemetry pins the deduplication independently of the service's own counters:
    // exactly one cache_miss event for the whole batch, and no hits.
    let events = collector.events();
    let counts = counts_by_kind(&events);
    let count = |kind: &str| {
        counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    };
    assert_eq!(count("cache_miss"), 1);
    assert_eq!(count("cache_hit"), 0);
}

#[test]
fn a_miss_warm_starts_from_a_cached_entry_sharing_its_skeleton() {
    // The partial dot product at two sizes: different programs, hence different cache
    // keys, but one pattern skeleton, so the second search is seeded with the first's
    // tuned point.
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    let first = small_request(&Workload::dot_product());
    let second = small_request(&Workload {
        program: lift::benchmarks::dot_product::high_level_program(256),
        ..Workload::dot_product()
    });

    let cold = service
        .request_with(first, &Null)
        .expect("cold derivation succeeds");
    assert_eq!((cold.served, cold.warm_seeds), (Served::ColdMiss, 0));

    let seeded = service
        .request_with(second.clone(), &Null)
        .expect("warm-started derivation succeeds");
    assert_eq!(seeded.served, Served::ColdMiss);
    assert!(
        seeded.warm_seeds >= 1,
        "the cached sibling seeds the search"
    );
    assert_eq!(service.stats().warm_started, 1);

    // The warm-started winner is cached like any other and survives the full re-proof
    // (`validate_hit`: replay, typecheck, compile, execute, validate) when requested again.
    let again = service
        .request_with(second, &Null)
        .expect("warm hit succeeds");
    assert_eq!(again.served, Served::WarmHit);
    assert_eq!(again.variant.kernel_source, seeded.variant.kernel_source);
    let stats = service.stats();
    assert_eq!((stats.hits, stats.misses, stats.replay_failures), (1, 2, 0));
}

#[test]
fn the_cache_persists_across_service_reopen() {
    let root = temp_root("persist");
    let config = ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    };
    let request = small_request(&Workload::dot_product());

    let mut service = DerivationService::open(config.clone()).expect("first open");
    let cold = service
        .request_with(request.clone(), &Null)
        .expect("cold derivation succeeds");
    assert_eq!(cold.served, Served::ColdMiss);
    drop(service);

    // A brand-new process-equivalent: same directory, fresh service. The entry must come
    // back from disk and serve a re-validated warm hit.
    let mut reopened = DerivationService::open(config).expect("reopen");
    assert_eq!(reopened.store().len(), 1, "the entry survived the reopen");
    let warm = reopened
        .request_with(request, &Null)
        .expect("warm hit succeeds");
    assert_eq!(warm.served, Served::WarmHit);
    assert_eq!(warm.variant.kernel_source, cold.variant.kernel_source);
    assert_eq!(
        reopened.stats().derivations,
        0,
        "no re-derivation after reopen"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[cfg(unix)]
#[test]
fn a_warm_hit_rewrites_only_the_index_and_a_repeated_hit_writes_nothing() {
    use std::os::unix::fs::MetadataExt;

    let root = temp_root("hit-writes");
    let mut service = DerivationService::open(ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    })
    .expect("service opens");
    let first = small_request(&Workload::dot_product());
    let second = small_request(&Workload {
        program: lift::benchmarks::dot_product::high_level_program(256),
        ..Workload::dot_product()
    });
    for request in [first.clone(), second] {
        let cold = service
            .request_with(request, &Null)
            .expect("cold derivation");
        assert_eq!(cold.served, Served::ColdMiss);
    }
    // A file's bytes and inode: a rewrite renames a new file into place, so the inode
    // changes even when the bytes do not.
    let file = |name: &str| {
        let path = root.join(name);
        let inode = std::fs::metadata(&path).expect("the file exists").ino();
        (std::fs::read(&path).expect("the file reads"), inode)
    };
    let (store_before, index_before) = (file("store.jsonl"), file("index.json"));

    // `first` is least recently used: its hit moves it, and only the order is rewritten.
    let warm = service
        .request_with(first.clone(), &Null)
        .expect("warm hit");
    assert_eq!(warm.served, Served::WarmHit);
    assert_eq!(
        file("store.jsonl"),
        store_before,
        "store.jsonl is untouched"
    );
    let index_after = file("index.json");
    assert_ne!(index_after.0, index_before.0, "the LRU order moved");

    // Now most recently used: the same hit moves nothing and writes neither file.
    let again = service.request_with(first, &Null).expect("warm hit");
    assert_eq!(again.served, Served::WarmHit);
    assert_eq!(file("store.jsonl"), store_before);
    assert_eq!(file("index.json"), index_after);

    // What the drains left is exactly what a full write produces.
    service.persist().expect("persists");
    assert_eq!(file("store.jsonl").0, store_before.0);
    assert_eq!(file("index.json").0, index_after.0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bumping_the_rule_set_version_invalidates_prior_entries() {
    let root = temp_root("invalidate");
    let request = small_request(&Workload::dot_product());

    let mut service = DerivationService::open(ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    })
    .expect("first open");
    service
        .request_with(request.clone(), &Null)
        .expect("cold derivation succeeds");
    assert_eq!(service.store().len(), 1);
    drop(service);

    // The same directory under a bumped rule-set version: the persisted generation is
    // stale — every prior entry is dropped at open (reported, not served) and the request
    // is a miss again, re-derived from scratch.
    let collector = InMemory::default();
    let mut bumped = DerivationService::open_with(
        ServiceConfig {
            root: Some(root.clone()),
            rule_set_version: lift::rewrite::RULE_SET_VERSION + 1,
            ..ServiceConfig::default()
        },
        &collector,
    )
    .expect("reopen under the bumped version");
    assert_eq!(
        bumped.store().len(),
        0,
        "the stale generation was dropped at open"
    );
    assert_eq!(bumped.store().invalidated(), 1);

    let response = bumped
        .request_with(request.clone(), &collector)
        .expect("re-derivation succeeds");
    assert_eq!(
        response.served,
        Served::ColdMiss,
        "the stale entry was never served"
    );
    assert_eq!(bumped.stats().derivations, 1);

    let events = collector.events();
    let counts = counts_by_kind(&events);
    assert!(
        counts
            .iter()
            .any(|(k, n)| *k == "cache_invalidate" && *n == 1),
        "invalidation is reported: {counts:?}"
    );
    assert!(counts.iter().any(|(k, n)| *k == "cache_miss" && *n == 1));
    assert!(!counts.iter().any(|(k, _)| *k == "cache_hit"));

    // Reopening under the *original* version after the bumped generation persisted also
    // invalidates — generations never mix.
    drop(bumped);
    let original = DerivationService::open(ServiceConfig {
        root: Some(root.clone()),
        ..ServiceConfig::default()
    })
    .expect("reopen under the original version");
    assert_eq!(original.store().len(), 0);

    let _ = std::fs::remove_dir_all(&root);
}

/// Serves `request` and counts what it was spared: the `interp.reference` spans it emitted
/// (reference outputs the interpreter evaluated) and the `reused_kernels` counters it
/// reported (launch verdicts a score memo recalled instead of executing them).
fn serve_counting(service: &mut DerivationService, request: &Request) -> (Response, usize, usize) {
    let collector = InMemory::default();
    let response = service
        .request_with(request.clone(), &collector)
        .expect("request succeeds");
    let reference = Event::SpanBegin {
        name: "interp.reference",
    };
    let events = collector.events();
    let evaluated = events.iter().filter(|e| e.event == reference).count();
    let reused: f64 = events
        .iter()
        .filter_map(|e| match e.event {
            Event::Counter {
                name: "reused_kernels",
                value,
            } => Some(value),
            _ => None,
        })
        .sum();
    (response, evaluated, reused as usize)
}

fn served_and_references(service: &mut DerivationService, request: &Request) -> (Served, usize) {
    let (response, evaluated, _) = serve_counting(service, request);
    (response.served, evaluated)
}

/// Serves a hit; returns the response, the reference outputs evaluated and the kernels
/// reused.
fn hit(service: &mut DerivationService, request: &Request) -> (Response, usize, usize) {
    let (response, evaluated, reused) = serve_counting(service, request);
    assert_eq!(response.served, Served::WarmHit, "{}", request.name);
    (response, evaluated, reused)
}

/// Field-for-field equality of two responses, the estimated time's bits included.
fn assert_same_response(a: &Response, b: &Response) {
    let name = &a.name;
    assert_eq!(a.name, b.name);
    assert_eq!(a.served, b.served, "{name}");
    // `BestVariant` equality covers the kernel source, the chain and the estimated time
    // (the cost model's price of the run's counters); the bits pin the time exactly.
    assert_eq!(
        a.variant.estimated_time.to_bits(),
        b.variant.estimated_time.to_bits(),
        "{name}"
    );
    assert_eq!(a.variant, b.variant, "{name}");
    assert_eq!(a.rule_options, b.rule_options, "{name}");
    assert_eq!(a.launch, b.launch, "{name}");
    assert_eq!(a.warm_seeds, b.warm_seeds, "{name}");
}

#[test]
fn a_hit_reuses_the_reference_of_its_entry_until_the_entry_is_evicted() {
    let mut service = DerivationService::open(ServiceConfig {
        capacity: 1,
        ..ServiceConfig::default()
    })
    .expect("service opens");
    let first = small_request(&Workload::dot_product());
    let second = small_request(&Workload {
        program: lift::benchmarks::dot_product::high_level_program(256),
        ..Workload::dot_product()
    });
    let mut serve = |request: &Request| served_and_references(&mut service, request);

    // The miss evaluates its reference inside the tuner, the first hit once more, and every
    // later hit reuses what the first one kept.
    assert_eq!(serve(&first), (Served::ColdMiss, 1));
    assert_eq!(serve(&first), (Served::WarmHit, 1));
    assert_eq!(serve(&first), (Served::WarmHit, 0));
    assert_eq!(serve(&first), (Served::WarmHit, 0));

    // At capacity 1 `second` evicts `first`, and its kept reference goes with it: the
    // re-inserted entry's first hit evaluates again.
    assert_eq!(serve(&second), (Served::ColdMiss, 1));
    assert_eq!(serve(&first), (Served::ColdMiss, 1));
    assert_eq!(serve(&first), (Served::WarmHit, 1));
    assert_eq!(serve(&first), (Served::WarmHit, 0));
    assert_eq!(service.stats().replay_failures, 0);
}

/// The crate-doc `square` over a symbolic length `N`, as a one-point tuning request at `n`.
fn square_request(n: i64) -> Request {
    let mut p = Program::new("square");
    let mult = p.user_fun(UserFun::mult());
    let sq = p.lambda(&["v"], |p, params| p.apply(mult, [params[0], params[0]]));
    let m = p.map(sq);
    p.with_root(
        vec![("x", Type::array(Type::float(), ArithExpr::size_var("N")))],
        |p, params| p.apply1(m, params[0]),
    );
    let options = RuleOptions::default();
    let space = TuningSpace {
        split_sets: vec![options.split_sizes],
        width_sets: vec![options.vector_widths],
        tile_sets: vec![options.tile_sizes],
        launches: vec![LaunchConfig::d1(16, 4)],
    };
    let mut config = TuningConfig::new(DeviceProfile::nvidia(), space, Strategy::Exhaustive);
    config.base.sizes = Environment::new().bind("N", n);
    Request {
        name: format!("square_{n}"),
        program: p,
        config,
    }
}

#[test]
fn a_program_over_symbolic_sizes_is_cached_per_binding() {
    let mut service = DerivationService::open(ServiceConfig::default()).expect("service opens");
    let (small, large) = (square_request(64), square_request(128));
    let mut serve = |request: &Request| served_and_references(&mut service, request);
    assert_eq!(serve(&small), (Served::ColdMiss, 1));
    assert_eq!(
        serve(&large),
        (Served::ColdMiss, 1),
        "another binding is another entry"
    );
    // Each binding's entry keeps the reference of its own sizes.
    for request in [&small, &large] {
        assert_eq!(serve(request), (Served::WarmHit, 1));
        assert_eq!(serve(request), (Served::WarmHit, 0));
    }
    assert_eq!(service.store().len(), 2);
    let stats = service.stats();
    assert_eq!((stats.misses, stats.hits, stats.replay_failures), (2, 4, 0));
}

/// Every tracked workload at one point of its canonical budgets, so the cold derivations
/// stay cheap; the hits re-prove whatever they found.
fn one_point_requests() -> Vec<Request> {
    let device = DeviceProfile::nvidia();
    Workload::all()
        .iter()
        .map(|workload| {
            let mut config = autotune_config(workload, &device);
            config.space = TuningSpace {
                split_sets: vec![vec![2, 4]],
                width_sets: vec![vec![4]],
                tile_sets: vec![workload.tile_sets.first().cloned().unwrap_or_default()],
                launches: vec![LaunchConfig::d1(64, 16)],
            };
            config.strategy = Strategy::Exhaustive;
            Request {
                name: workload.name.to_string(),
                program: workload.program.clone(),
                config,
            }
        })
        .collect()
}

#[test]
fn hits_that_reuse_a_reference_serve_what_a_fresh_service_serves() {
    let requests = one_point_requests();
    assert_eq!(requests.len(), 7);
    let root = temp_root("reuse");
    // Room for the seven entries and no more, so one extra request evicts.
    let config = ServiceConfig {
        root: Some(root.clone()),
        capacity: 7,
        ..ServiceConfig::default()
    };
    let mut kept = DerivationService::open(config.clone()).expect("service opens");
    for request in &requests {
        assert_eq!(
            served_and_references(&mut kept, request),
            (Served::ColdMiss, 1),
            "{}",
            request.name
        );
        // The first hit proves everything: it evaluates the reference and runs its launch.
        let (_, evaluated, reused) = hit(&mut kept, request);
        assert_eq!((evaluated, reused), (1, 0), "{}", request.name);
    }
    // A re-opened service keeps no search: its hits evaluate and execute every one afresh.
    // Every later hit on the keeping service recalls both the reference and the verdict.
    let mut fresh = DerivationService::open(config.clone()).expect("service re-opens");
    for request in &requests {
        let (recalled, evaluated, reused) = hit(&mut kept, request);
        assert_eq!(
            (evaluated, reused),
            (0, 1),
            "{}: the hit reused its search",
            request.name
        );
        let (proven, evaluated, reused) = hit(&mut fresh, request);
        assert_eq!((evaluated, reused), (1, 0), "{}", request.name);
        assert_same_response(&recalled, &proven);
    }

    // An eviction takes the kept search with the entry. The extra request evicts the least
    // recently used entry, the first; the other six are touched so the extra is next out.
    let extra = Request {
        name: "dot_product_256".to_string(),
        program: lift::benchmarks::dot_product::high_level_program(256),
        ..requests[0].clone()
    };
    assert_eq!(
        served_and_references(&mut kept, &extra),
        (Served::ColdMiss, 1)
    );
    for request in &requests[1..] {
        let (_, evaluated, reused) = hit(&mut kept, request);
        assert_eq!((evaluated, reused), (0, 1), "{}", request.name);
    }
    let evicted = &requests[0];
    assert_eq!(
        served_and_references(&mut kept, evicted),
        (Served::ColdMiss, 1)
    );
    let (_, evaluated, reused) = hit(&mut kept, evicted);
    assert_eq!(
        (evaluated, reused),
        (1, 0),
        "the re-inserted entry proves again"
    );
    let (recalled, evaluated, reused) = hit(&mut kept, evicted);
    assert_eq!((evaluated, reused), (0, 1));
    assert_same_response(&recalled, &hit(&mut fresh, evicted).0);
    assert_eq!(kept.stats().replay_failures, 0);
    assert_eq!(kept.store().len(), 7);

    // A verdict is recalled only under the context it was proven in. Under another engine,
    // without race detection, or on a profile of the same name (so the same entry) with
    // other weights, a hit on a kept search executes its launch again, and serves what a
    // freshly opened service serves under that setting; the reference is still reused.
    type Setting = (&'static str, fn(&mut TuningConfig));
    let settings: [Setting; 3] = [
        ("interpreter engine", |c| {
            c.base.engine = EngineSelection::Interpreter
        }),
        ("no race detection", |c| c.base.detect_races = false),
        ("reweighted profile", |c| {
            c.device.global_transaction_cost *= 2.0;
            c.device.flop_cost *= 3.0;
        }),
    ];
    for (setting, change) in settings {
        let mut reopened = DerivationService::open(config.clone()).expect("service re-opens");
        for request in &requests {
            let mut changed = request.clone();
            change(&mut changed.config);
            let (recalled, evaluated, reused) = hit(&mut kept, &changed);
            assert_eq!(
                (evaluated, reused),
                (0, 0),
                "{} under {setting}: the launch runs again",
                request.name
            );
            let (proven, evaluated, reused) = hit(&mut reopened, &changed);
            assert_eq!((evaluated, reused), (1, 0), "{}", request.name);
            assert_same_response(&recalled, &proven);
            // Both verdicts are on record now.
            for request in [&changed, request] {
                let (_, evaluated, reused) = hit(&mut kept, request);
                assert_eq!(
                    (evaluated, reused),
                    (0, 1),
                    "{} under {setting}",
                    request.name
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
