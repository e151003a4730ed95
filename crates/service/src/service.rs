//! The long-lived derivation service: request queue, batching/deduplication, warm starts.
//!
//! # Request lifecycle
//!
//! [`DerivationService::submit`] enqueues requests; [`DerivationService::drain_with`]
//! processes the queue as one batch:
//!
//! 1. **Key** — every request is content-addressed ([`crate::key::cache_key`]) and requests
//!    with the same address are grouped: N identical in-flight requests become one unit of
//!    work. Exactly one [`Event::CacheHit`] or [`Event::CacheMiss`] is emitted per group,
//!    so telemetry pins the deduplication factor.
//! 2. **Lookup** (serial) — each group probes the [`CacheStore`] under the collision guard;
//!    a hit also takes out the [`Search`] kept for its entry, if one was made under the
//!    request's sizes. For misses, the warm-start seeds are collected from structurally
//!    similar entries (shared [`lift_rewrite::Term::skeleton`], same device).
//! 3. **Derive/validate** (parallel) — groups fan out over a bounded deterministic worker
//!    pool (`ServiceConfig::threads`, the same chunked in-order pattern as
//!    `ExplorationConfig::threads`), each taking its plan by value. A *hit* replays its
//!    recorded chain ([`Search::replay`], provenance) and scores it — type inference,
//!    compilation with the static ownership pass, execution and output validation — so a
//!    stale cache can never serve an unsound kernel; a replay failure demotes the group to
//!    a cold derivation and evicts the entry. A hit whose entry has a kept search replays
//!    and scores on it: the search's score memo recalls the verdict of every launch it
//!    already proved under the same device profile, engine, race detection, compiler
//!    options, sizes and data, so neither the interpreter nor the virtual GPU runs; the
//!    candidate is still typed and compiled, and the served kernel source regenerated. A
//!    *miss* runs the full tuner, hill-climbing from the warm-start seeds when any exist.
//! 4. **Merge** (serial) — a hit's search goes back to its entry, in memory only;
//!    cold results are inserted (LRU eviction applies), a directory-backed store writes the
//!    files the batch changed (only `index.json` when hits merely reordered the LRU,
//!    nothing when they did not), and responses are assembled in submission order. A
//!    replay failure drops the search, and so does a drain that fails before its group is
//!    merged: the next hit proves its launch again.
//!
//! Wall-clock cost: a warm hit scores exactly one candidate. The first hit on an entry
//! evaluates the reference output and executes that candidate's launch once; later hits in
//! the same process do neither, and only replay, type and compile it. A cold miss runs a
//! full enumerate+tune search — the orders-of-magnitude gap between `request_ms_p50` on the
//! benchmark's `warm_replay` and `cold_*` workloads.

use lift_ir::Program;
use lift_rewrite::{ExplorationConfig, ExploreError, RuleOptions, Search};
use lift_telemetry::{Collector, Event, Null};
use lift_tuner::{tune_with, BestVariant, PointIndex, Strategy, TuningConfig};
use lift_vgpu::{LaunchConfig, COST_MODEL_VERSION};

use crate::key::{cache_key_at, CacheKey};
use crate::store::CacheStore;
use crate::wire::{CachedDerivation, StoredEntry};
use crate::ServiceError;

/// How the service answered a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// The derivation was replayed from the cache and re-validated.
    WarmHit,
    /// A full cold derivation ran for this request.
    ColdMiss,
    /// The request was deduplicated onto another in-flight request's cold derivation.
    Coalesced,
}

/// One derivation request: a named program plus the tuning configuration to search under
/// on a miss (device, space, strategy and exploration budgets).
#[derive(Clone, Debug)]
pub struct Request {
    /// Label used in telemetry and error messages.
    pub name: String,
    /// The high-level program to derive.
    pub program: Program,
    /// Device, tuning space, cold-search strategy and exploration budgets.
    pub config: TuningConfig,
}

/// The served derivation.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's label.
    pub name: String,
    /// How this response was produced.
    pub served: Served,
    /// The tuned, validated variant (estimated time, derivation chain, kernel source).
    pub variant: BestVariant,
    /// The tuned rule options behind the variant.
    pub rule_options: RuleOptions,
    /// The tuned launch configuration behind the variant.
    pub launch: LaunchConfig,
    /// Number of warm-start seeds the cold search climbed from (0 for hits and unseeded
    /// searches).
    pub warm_seeds: usize,
}

/// Counters over the lifetime of a [`DerivationService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests drained.
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Unique keys that required a cold derivation.
    pub misses: u64,
    /// Requests deduplicated onto another request's derivation.
    pub coalesced: u64,
    /// Cold derivations actually run (including replay-failure fallbacks).
    pub derivations: u64,
    /// Cold derivations that hill-climbed from warm-start seeds.
    pub warm_started: u64,
    /// Cache hits whose replay failed validation (evicted and re-derived).
    pub replay_failures: u64,
}

/// Configuration of a [`DerivationService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory for the persistent store; `None` keeps the cache in memory only.
    pub root: Option<std::path::PathBuf>,
    /// Maximum cached entries before LRU eviction.
    pub capacity: usize,
    /// Worker threads for the parallel derive/validate phase: `0` uses the machine's
    /// available parallelism, `1` runs sequentially. Results are identical either way.
    pub threads: usize,
    /// Whether cache-miss searches are seeded from structurally similar cached workloads.
    pub warm_start: bool,
    /// Rule-set version the cache is keyed under (defaults to
    /// [`lift_rewrite::RULE_SET_VERSION`]; tests override it to simulate a bump).
    pub rule_set_version: u32,
    /// Cost-model version the cache is keyed under (defaults to
    /// [`lift_vgpu::COST_MODEL_VERSION`]).
    pub cost_model_version: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            root: None,
            capacity: 256,
            threads: 0,
            warm_start: true,
            rule_set_version: lift_rewrite::RULE_SET_VERSION,
            cost_model_version: COST_MODEL_VERSION,
        }
    }
}

/// The long-lived derivation server. See the module docs for the request lifecycle.
#[derive(Debug)]
pub struct DerivationService {
    config: ServiceConfig,
    store: CacheStore,
    queue: Vec<Request>,
    stats: ServiceStats,
}

/// What the lookup phase decided for one deduplicated group.
enum Plan {
    Hit {
        payload: CachedDerivation,
        /// The entry's kept search, made under the request's sizes.
        search: Option<Box<Search>>,
    },
    Miss {
        seeds: Vec<PointIndex>,
    },
}

/// What the derive/validate phase produced for one group.
struct Outcome {
    variant: BestVariant,
    rule_options: RuleOptions,
    launch: LaunchConfig,
    served_hit: bool,
    replay_failed: bool,
    warm_seeds: usize,
    estimated_time: f64,
    /// The search a hit was proven with, to keep for its entry.
    search: Option<Box<Search>>,
}

impl DerivationService {
    /// Opens the service: loads (and version-checks) the persistent store when
    /// `config.root` is set, otherwise starts with an empty in-memory cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when the store directory cannot be read or created.
    pub fn open(config: ServiceConfig) -> Result<DerivationService, ServiceError> {
        DerivationService::open_with(config, &Null)
    }

    /// Like [`DerivationService::open`], but reports invalidation of a stale persisted
    /// generation ([`Event::CacheInvalidate`]) to `collector`.
    ///
    /// # Errors
    ///
    /// See [`DerivationService::open`].
    pub fn open_with(
        config: ServiceConfig,
        collector: &dyn Collector,
    ) -> Result<DerivationService, ServiceError> {
        let store = match &config.root {
            Some(root) => CacheStore::open(
                root,
                config.capacity,
                config.rule_set_version,
                config.cost_model_version,
                collector,
            )?,
            None => CacheStore::in_memory(
                config.capacity,
                config.rule_set_version,
                config.cost_model_version,
            ),
        };
        Ok(DerivationService {
            config,
            store,
            queue: Vec::new(),
            stats: ServiceStats::default(),
        })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The cache behind the service (entry count, eviction/invalidation counters).
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// Number of submitted, not yet drained requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request for the next [`DerivationService::drain_with`].
    pub fn submit(&mut self, request: Request) {
        self.queue.push(request);
    }

    /// Convenience for a single synchronous request: submit, drain, return its response.
    ///
    /// # Errors
    ///
    /// See [`DerivationService::drain_with`].
    pub fn request_with(
        &mut self,
        request: Request,
        collector: &dyn Collector,
    ) -> Result<Response, ServiceError> {
        let name = request.name.clone();
        self.submit(request);
        // A drain answers every request in submission order, so the last one is this one.
        self.drain_with(collector)?
            .pop()
            .ok_or(ServiceError::NoVariant(name))
    }

    /// Processes every queued request as one batch and returns the responses in submission
    /// order. See the module docs for the four phases.
    ///
    /// # Errors
    ///
    /// Returns the first keying, tuning or persistence error; the queue is consumed either
    /// way. An *individual infeasible point* inside a search is not an error — only an
    /// invalid input program or an exhausted search
    /// ([`ServiceError::NoVariant`]) is.
    pub fn drain_with(&mut self, collector: &dyn Collector) -> Result<Vec<Response>, ServiceError> {
        let requests = std::mem::take(&mut self.queue);
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.requests += requests.len() as u64;

        // Phase 1: key and deduplicate. Groups keep first-submission order.
        let mut keys: Vec<CacheKey> = Vec::with_capacity(requests.len());
        for request in &requests {
            keys.push(
                cache_key_at(
                    &request.program,
                    &request.config.device.name,
                    &request.config.space,
                    &request.config.base.sizes,
                    self.config.rule_set_version,
                    self.config.cost_model_version,
                )
                .map_err(ServiceError::Explore)?,
            );
        }
        // `firsts[g]` is group `g`'s first request, `group_of[i]` is request `i`'s group.
        let mut firsts: Vec<usize> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(requests.len());
        for (i, key) in keys.iter().enumerate() {
            let group = match firsts.iter().position(|&first| keys[first].id == key.id) {
                Some(group) => group,
                None => {
                    firsts.push(i);
                    firsts.len() - 1
                }
            };
            group_of.push(group);
        }

        // Phase 2: serial cache lookup + warm-start seed collection.
        let telemetry = collector.enabled();
        let mut plans: Vec<Plan> = Vec::with_capacity(firsts.len());
        for &first in &firsts {
            let key = &keys[first];
            let request = &requests[first];
            match self.store.lookup(key, collector) {
                Some(payload) => {
                    if telemetry {
                        collector.record(Event::CacheHit {
                            key: key.id.clone(),
                            program: request.name.clone(),
                        });
                    }
                    // Looked up only now that the full rendering matched the entry's.
                    let search = self
                        .store
                        .take_search(&key.id)
                        .filter(|kept| *kept.sizes() == request.config.base.sizes);
                    plans.push(Plan::Hit { payload, search });
                }
                None => {
                    if telemetry {
                        collector.record(Event::CacheMiss {
                            key: key.id.clone(),
                            program: request.name.clone(),
                        });
                    }
                    let seeds = if self.config.warm_start {
                        self.store
                            .similar(&key.skeleton, &key.device, &key.id)
                            .into_iter()
                            .filter_map(|(options, launch)| {
                                request.config.space.seed_for_options(&options, &launch)
                            })
                            .take(4)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    plans.push(Plan::Miss { seeds });
                }
            }
        }

        // Phase 3: derive/validate groups on the bounded deterministic worker pool.
        let work: Vec<(usize, Plan)> = firsts.iter().copied().zip(plans).collect();
        let workers = worker_count(self.config.threads).min(work.len().max(1));
        let outcomes: Vec<Result<Outcome, ServiceError>> = if workers <= 1 {
            work.into_iter()
                .map(|(first, plan)| run_group(&requests[first], plan, collector))
                .collect()
        } else {
            let chunk = work.len().div_ceil(workers);
            let mut work = work.into_iter();
            let chunks: Vec<Vec<(usize, Plan)>> = std::iter::from_fn(|| {
                let next: Vec<_> = work.by_ref().take(chunk).collect();
                (!next.is_empty()).then_some(next)
            })
            .collect();
            // Every worker is joined before any panic is reported, so the scope never
            // re-raises one.
            let joined: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|chunk| {
                        let requests = &requests;
                        scope.spawn(move || {
                            chunk
                                .into_iter()
                                .map(|(first, plan)| run_group(&requests[first], plan, collector))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            let mut outcomes = Vec::with_capacity(work.len());
            for chunk in joined {
                outcomes.extend(chunk.map_err(|_| ServiceError::WorkerPanicked)?);
            }
            outcomes
        };

        // Phase 4: serial merge — store updates and stats, then responses in submission
        // order.
        let mut merged: Vec<Outcome> = Vec::with_capacity(firsts.len());
        for (group, (&first, outcome)) in firsts.iter().zip(outcomes).enumerate() {
            let mut outcome = outcome?;
            let key = &keys[first];
            let members = group_of.iter().filter(|&&of| of == group).count() as u64;
            if outcome.replay_failed {
                self.stats.replay_failures += 1;
                self.store.remove(&key.id, "replay_failed", collector);
            }
            if outcome.served_hit {
                self.stats.hits += members;
                if let Some(search) = outcome.search.take() {
                    self.store.keep_search(&key.id, search);
                }
            } else {
                self.stats.misses += 1;
                self.stats.coalesced += members - 1;
                self.stats.derivations += 1;
                if outcome.warm_seeds > 0 {
                    self.stats.warm_started += 1;
                }
                self.store.insert(
                    StoredEntry {
                        key: key.clone(),
                        payload: CachedDerivation {
                            estimated_time: outcome.estimated_time,
                            steps: outcome.variant.steps.clone(),
                            rule_options: outcome.rule_options.clone(),
                            launch: outcome.launch,
                            kernel_source: outcome.variant.kernel_source.clone(),
                        },
                    },
                    collector,
                );
            }
            merged.push(outcome);
        }
        self.store.write_changes()?;
        Ok(requests
            .into_iter()
            .zip(group_of)
            .enumerate()
            .map(|(i, (request, group))| {
                let outcome = &merged[group];
                let served = if outcome.served_hit {
                    Served::WarmHit
                } else if firsts[group] == i {
                    Served::ColdMiss
                } else {
                    Served::Coalesced
                };
                Response {
                    name: request.name,
                    served,
                    variant: outcome.variant.clone(),
                    rule_options: outcome.rule_options.clone(),
                    launch: outcome.launch,
                    warm_seeds: outcome.warm_seeds,
                }
            })
            .collect())
    }

    /// Rewrites both store files, whatever changed (no-op for in-memory services). Every
    /// drain already leaves the directory in this state, so this only forces the write.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when the store cannot be written.
    pub fn persist(&self) -> Result<(), ServiceError> {
        self.store.persist()
    }
}

fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Replays a cached chain and proves it end to end (typecheck, compile + ownership pass,
/// execute, validate against the reference). Any failure is a stale entry, not a served
/// result. The search is the entry's `kept` one when there is one: its score memo recalls
/// the verdict of a launch it already proved, so only the replay, typing and compilation
/// repeat. Otherwise a fresh search evaluates the reference output here (`interp.reference`
/// span). Either way the search is returned for the entry to keep. It is never persisted,
/// so the first hit after a miss or a re-open proves everything.
fn validate_hit(
    request: &Request,
    payload: &CachedDerivation,
    kept: Option<Box<Search>>,
    collector: &dyn Collector,
) -> Result<(BestVariant, Box<Search>), ExploreError> {
    let config = ExplorationConfig {
        rule_options: payload.rule_options.clone(),
        launch: payload.launch,
        device: request.config.device.clone(),
        ..request.config.base.clone()
    };
    let mut search = match kept {
        Some(search) => search,
        None => Box::new(Search::new(&request.program, &config.sizes, collector)?),
    };
    let replayed = search.replay(&payload.steps, &config.rule_options)?;
    let scored = search.score(&replayed, &config, collector)?;
    let v = scored.variants.first().ok_or_else(|| {
        ExploreError::Reference("cached derivation no longer passes validation".to_string())
    })?;
    Ok((BestVariant::from(v), search))
}

/// Seeds a cold-search strategy with warm-start points (no-op for exhaustive walks and
/// empty seed lists).
fn seeded(strategy: &Strategy, seeds: Vec<PointIndex>) -> Strategy {
    if seeds.is_empty() {
        return strategy.clone();
    }
    match strategy {
        Strategy::Exhaustive => Strategy::Exhaustive,
        Strategy::RandomHillClimb {
            seed,
            samples,
            max_steps,
        } => Strategy::SeededHillClimb {
            seeds,
            seed: *seed,
            samples: *samples,
            max_steps: *max_steps,
        },
        Strategy::SeededHillClimb {
            seeds: existing,
            seed,
            samples,
            max_steps,
        } => {
            let mut merged = existing.clone();
            merged.extend(seeds);
            Strategy::SeededHillClimb {
                seeds: merged,
                seed: *seed,
                samples: *samples,
                max_steps: *max_steps,
            }
        }
    }
}

/// Runs one deduplicated group: validate a hit (falling back to a cold derivation when the
/// replay fails) or cold-derive a miss from its warm-start seeds.
fn run_group(
    request: &Request,
    plan: Plan,
    collector: &dyn Collector,
) -> Result<Outcome, ServiceError> {
    let (seeds, replay_failed) = match plan {
        Plan::Hit { payload, search } => match validate_hit(request, &payload, search, collector) {
            Ok((variant, search)) => {
                return Ok(Outcome {
                    estimated_time: variant.estimated_time,
                    variant,
                    rule_options: payload.rule_options,
                    launch: payload.launch,
                    served_hit: true,
                    replay_failed: false,
                    warm_seeds: 0,
                    search: Some(search),
                })
            }
            Err(_) => (Vec::new(), true),
        },
        Plan::Miss { seeds } => (seeds, false),
    };
    let mut config = request.config.clone();
    let warm_seeds = seeds.len();
    config.strategy = seeded(&config.strategy, seeds);
    let result = tune_with(&request.program, &config, collector).map_err(ServiceError::Tune)?;
    let (Some(point), Some(variant)) = (result.best_point, result.best_variant) else {
        return Err(ServiceError::NoVariant(request.name.clone()));
    };
    Ok(Outcome {
        estimated_time: variant.estimated_time,
        variant,
        rule_options: point.rule_options,
        launch: point.launch,
        served_hit: false,
        replay_failed,
        warm_seeds,
        search: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_arith::{ArithExpr, Environment};
    use lift_ir::{Type, UserFun};
    use lift_telemetry::InMemory;
    use lift_tuner::{TuningSpace, Workload};
    use lift_vgpu::DeviceProfile;

    fn dot_product_request() -> Request {
        let device = DeviceProfile::nvidia();
        let workload = Workload::dot_product();
        let mut config = TuningConfig::new(
            device.clone(),
            workload.space_for(&device),
            Strategy::RandomHillClimb {
                seed: 1,
                samples: 2,
                max_steps: 2,
            },
        );
        config.base.max_candidates = 400;
        Request {
            name: workload.name.to_string(),
            program: workload.program,
            config,
        }
    }

    /// `square` over a symbolic length `N`, as a one-point request at `N = 64`.
    fn square_request() -> Request {
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
        config.base.sizes = Environment::new().bind("N", 64);
        Request {
            name: "square".to_string(),
            program: p,
            config,
        }
    }

    fn key_of(service: &DerivationService, request: &Request) -> CacheKey {
        cache_key_at(
            &request.program,
            &request.config.device.name,
            &request.config.space,
            &request.config.base.sizes,
            service.config.rule_set_version,
            service.config.cost_model_version,
        )
        .unwrap()
    }

    /// Serves `request`; returns how it was served, how many reference outputs the
    /// interpreter evaluated for it and how many launches the virtual GPU started for it.
    fn serve(service: &mut DerivationService, request: &Request) -> (Served, usize, usize) {
        let collector = InMemory::default();
        let response = service.request_with(request.clone(), &collector).unwrap();
        let events = collector.events();
        let evaluated = events
            .iter()
            .filter(|e| {
                e.event
                    == Event::SpanBegin {
                        name: "interp.reference",
                    }
            })
            .count();
        let counted = |counter: &str| -> f64 {
            events
                .iter()
                .filter_map(|e| match e.event {
                    Event::Counter { name, value } if name == counter => Some(value),
                    _ => None,
                })
                .sum()
        };
        let started = counted("executed_kernels") - counted("reused_kernels");
        (response.served, evaluated, started as usize)
    }

    #[test]
    fn a_kept_reference_fingerprints_like_a_fresh_search() {
        let mut service = DerivationService::open(ServiceConfig::default()).unwrap();
        let request = dot_product_request();
        let key = key_of(&service, &request);
        serve(&mut service, &request);
        assert!(
            service.store.take_search(&key.id).is_none(),
            "a miss keeps none"
        );
        assert_eq!(serve(&mut service, &request), (Served::WarmHit, 1, 1));
        let kept = service.store.take_search(&key.id).unwrap();
        let fresh = Search::new(&request.program, &request.config.base.sizes, &Null).unwrap();
        assert_eq!(kept.fingerprint(), fresh.fingerprint());
        assert_eq!(*kept.sizes(), request.config.base.sizes);
        let fingerprint = kept.fingerprint();
        service.store.keep_search(&key.id, kept);
        // The reusing hit validates against, and keeps, the very same data, and recalls
        // its launch's verdict instead of executing it.
        assert_eq!(serve(&mut service, &request), (Served::WarmHit, 0, 0));
        let again = service.store.take_search(&key.id).unwrap();
        assert_eq!(again.fingerprint(), fingerprint);
    }

    #[test]
    fn a_failed_replay_drops_the_kept_reference() {
        let mut service = DerivationService::open(ServiceConfig::default()).unwrap();
        let request = dot_product_request();
        let key = key_of(&service, &request);
        serve(&mut service, &request);
        assert_eq!(serve(&mut service, &request), (Served::WarmHit, 1, 1));

        // Make the entry stale under its kept search: a chain cut short leaves a candidate
        // that cannot compile, so its replay fails.
        let kept = service.store.take_search(&key.id).unwrap();
        let mut payload = service.store.lookup(&key, &Null).unwrap();
        payload.steps.truncate(1);
        service.store.insert(
            StoredEntry {
                key: key.clone(),
                payload,
            },
            &Null,
        );
        service.store.keep_search(&key.id, kept);

        // The failed replay re-derives; the re-inserted entry's first hit proves again.
        let (served, evaluated, started) = serve(&mut service, &request);
        assert_eq!((served, evaluated), (Served::ColdMiss, 1));
        assert!(started > 0);
        assert_eq!(service.stats().replay_failures, 1);
        assert!(service.store.take_search(&key.id).is_none());
        assert_eq!(serve(&mut service, &request), (Served::WarmHit, 1, 1));
        assert_eq!(serve(&mut service, &request), (Served::WarmHit, 0, 0));
    }

    #[test]
    fn a_kept_reference_of_other_sizes_is_not_reused() {
        let mut service = DerivationService::open(ServiceConfig::default()).unwrap();
        let request = square_request();
        let key = key_of(&service, &request);
        let (served, evaluated, _) = serve(&mut service, &request);
        assert_eq!((served, evaluated), (Served::ColdMiss, 1));
        let other_sizes = Environment::new().bind("N", 128);
        let other = Search::new(&request.program, &other_sizes, &Null).unwrap();
        service.store.keep_search(&key.id, Box::new(other));

        // Validating under the wrong binding would fail the replay; the hit evaluates the
        // reference for its own sizes instead and keeps that search.
        assert_eq!(serve(&mut service, &request), (Served::WarmHit, 1, 1));
        assert_eq!(service.stats().replay_failures, 0);
        let kept = service.store.take_search(&key.id).unwrap();
        assert_eq!(*kept.sizes(), request.config.base.sizes);
        service.store.keep_search(&key.id, kept);
        assert_eq!(serve(&mut service, &request), (Served::WarmHit, 0, 0));
    }
}
