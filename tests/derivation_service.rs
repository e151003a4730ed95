//! Workspace-level integration tests for the derivation service (`lift-service`): the
//! differential warm-vs-cold guarantee, request batching/deduplication pinned by
//! telemetry, warm-started misses, persistence across reopen, and whole-generation
//! invalidation on a rule-set version bump.

use lift::service::{DerivationService, Request, Served, ServiceConfig};
use lift::telemetry::{counts_by_kind, InMemory, Null};
use lift::tuner::{Strategy, TuningConfig, Workload};
use lift::vgpu::DeviceProfile;

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
