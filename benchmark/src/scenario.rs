//! The four workloads. Each is a closed loop with one client: the benchmark thread makes an
//! in-process, synchronous `DerivationService::request_with` call and sends the next request
//! only when the previous one has returned — that is the service's whole interface.
//!
//! A scenario owns the service(s) it drives and hands out one timed request per `step`.
//! Everything a scenario does before its first `step` is set-up and is billed to `setup_s`.

use std::path::{Path, PathBuf};

use lift_service::{DerivationService, Response, ServiceConfig, ServiceError};
use lift_telemetry::{Collector, Null};
use lift_tuner::Workload;

use crate::cases::{canonical, churn_keys, Case};
use crate::config::{service_config, CHURN_CAPACITY, CHURN_REOPEN_EVERY};
use crate::stats::{timed, Rng};

pub const WORKLOADS: [&str; 4] = [
    "cold_exec_bound",
    "cold_search_bound",
    "warm_replay",
    "store_churn",
];

/// One timed request.
pub struct Step {
    /// Index into [`Scenario::cases`].
    pub key: usize,
    pub request_ms: f64,
    /// Time the client waited before the request could be sent (a store re-open).
    pub wait_ms: f64,
    pub result: Result<Response, ServiceError>,
}

/// The service counters the metrics use, summed over every service a scenario has opened.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub warm_started: u64,
    pub replay_failures: u64,
    pub evictions: u64,
}

impl std::ops::Sub for Totals {
    type Output = Totals;

    fn sub(self, before: Totals) -> Totals {
        Totals {
            requests: self.requests - before.requests,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            warm_started: self.warm_started - before.warm_started,
            replay_failures: self.replay_failures - before.replay_failures,
            evictions: self.evictions - before.evictions,
        }
    }
}

impl Totals {
    fn add(&mut self, service: &DerivationService) {
        let stats = service.stats();
        self.requests += stats.requests;
        self.hits += stats.hits;
        self.misses += stats.misses;
        self.warm_started += stats.warm_started;
        self.replay_failures += stats.replay_failures;
        self.evictions += service.store().evictions();
    }
}

pub trait Scenario {
    fn cases(&self) -> &[Case];
    /// Sends the next request of the stream.
    fn step(&mut self, collector: &dyn Collector) -> Step;
    /// Counters of every service opened so far, set-up traffic included; a phase reports the
    /// difference between its end and its start.
    fn totals(&self) -> Totals;
    /// The configuration the scenario opens its services with.
    fn service_config(&self) -> ServiceConfig;
    /// Durations of the store re-opens so far, in milliseconds.
    fn open_ms(&self) -> &[f64] {
        &[]
    }
    /// The live service, for scenarios that keep one.
    fn service(&self) -> Option<&DerivationService> {
        None
    }
}

fn open(config: ServiceConfig) -> Result<DerivationService, String> {
    DerivationService::open(config).map_err(|e| e.to_string())
}

/// `cold_exec_bound` / `cold_search_bound`: every request meets a fresh in-memory service, so
/// every request is a full search.
struct Cold {
    cases: Vec<Case>,
    totals: Totals,
}

impl Cold {
    fn set_up(workload: &Workload, rng: &mut Rng) -> Result<Cold, String> {
        let mut cold = Cold {
            cases: vec![canonical(workload, rng)?],
            totals: Totals::default(),
        };
        // One discarded request: lazy statics, allocator growth and page faults are paid
        // here, not by the first timed request.
        cold.step(&Null).result.map_err(|e| e.to_string())?;
        Ok(cold)
    }
}

impl Scenario for Cold {
    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn step(&mut self, collector: &dyn Collector) -> Step {
        let mut service = DerivationService::open(self.service_config())
            .expect("an in-memory service always opens");
        let request = self.cases[0].request.clone();
        let (result, request_ms) = timed(|| service.request_with(request, collector));
        self.totals.add(&service);
        Step {
            key: 0,
            request_ms,
            wait_ms: 0.0,
            result,
        }
    }

    fn totals(&self) -> Totals {
        self.totals
    }

    fn service_config(&self) -> ServiceConfig {
        service_config(None, 256)
    }
}

/// `warm_replay`: all seven tracked programs are derived once during set-up; every measured
/// request is a hit that replays and re-proves one cached derivation.
struct WarmReplay {
    cases: Vec<Case>,
    service: DerivationService,
    rng: Rng,
    round: Vec<usize>,
}

impl WarmReplay {
    fn set_up(rng: &mut Rng) -> Result<WarmReplay, String> {
        let cases = Workload::all()
            .iter()
            .map(|w| canonical(w, rng))
            .collect::<Result<Vec<_>, _>>()?;
        let mut service = open(service_config(None, 256))?;
        for case in &cases {
            service
                .request_with(case.request.clone(), &Null)
                .map_err(|e| format!("{}: {e}", case.request.name))?;
        }
        Ok(WarmReplay {
            cases,
            service,
            rng: Rng::new(rng.next_u64()),
            round: Vec::new(),
        })
    }
}

impl Scenario for WarmReplay {
    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn step(&mut self, collector: &dyn Collector) -> Step {
        if self.round.is_empty() {
            // Round-robin in a freshly shuffled order: every key is asked equally often.
            self.round = (0..self.cases.len()).collect();
            self.rng.shuffle(&mut self.round);
        }
        let key = self.round.pop().expect("a round is never empty here");
        let request = self.cases[key].request.clone();
        let service = &mut self.service;
        let (result, request_ms) = timed(|| service.request_with(request, collector));
        Step {
            key,
            request_ms,
            wait_ms: 0.0,
            result,
        }
    }

    fn totals(&self) -> Totals {
        let mut totals = Totals::default();
        totals.add(&self.service);
        totals
    }

    fn service_config(&self) -> ServiceConfig {
        service_config(None, 256)
    }

    fn service(&self) -> Option<&DerivationService> {
        Some(&self.service)
    }
}

/// Removes the store directory when the scenario ends, on success, error and panic alike.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `store_churn`: a disk-backed store smaller than the key set, a skewed request stream, and
/// a service that is dropped and re-opened from disk at a fixed interval.
struct StoreChurn {
    cases: Vec<Case>,
    dir: StoreDir,
    service: DerivationService,
    /// Counters of the services already dropped.
    totals: Totals,
    open_ms: Vec<f64>,
    cycle: Vec<usize>,
    /// Position in `cycle` of the next request.
    next: usize,
    since_open: usize,
}

/// One cycle of the stream: key of rank `r` appears about `200 / (r · H)` times, at least
/// once, in an order shuffled once with a constant. The stream repeats this cycle and
/// `--seed` only picks where in the cycle it starts. Shuffling per seed was tried first: the
/// number of LRU misses then swings by ±15 % with the order, and since a miss costs fifty
/// times a hit, so does every number of the workload.
fn cycle(keys: usize) -> Vec<usize> {
    const CYCLE: f64 = 200.0;
    let harmonic: f64 = (1..=keys).map(|r| 1.0 / r as f64).sum();
    let mut cycle = Vec::new();
    for rank in 1..=keys {
        let count = ((CYCLE / rank as f64 / harmonic).round() as usize).max(1);
        cycle.extend(std::iter::repeat_n(rank - 1, count));
    }
    Rng::new(0x5eed).shuffle(&mut cycle);
    cycle
}

impl StoreChurn {
    fn set_up(rng: &mut Rng, out_dir: &Path) -> Result<StoreChurn, String> {
        let cases = churn_keys(rng)?;
        let dir = StoreDir(out_dir.join(format!("store-{}", std::process::id())));
        let _ = std::fs::remove_dir_all(&dir.0);
        let mut service = open(service_config(Some(dir.0.clone()), CHURN_CAPACITY))?;
        // Fill the store least popular key first, so it starts out holding the popular
        // keys in popularity order — the state the stream keeps it near.
        for case in cases.iter().rev() {
            service
                .request_with(case.request.clone(), &Null)
                .map_err(|e| format!("{}: {e}", case.request.name))?;
        }
        let cycle = cycle(cases.len());
        let next = rng.below(cycle.len());
        Ok(StoreChurn {
            cases,
            dir,
            service,
            totals: Totals::default(),
            open_ms: Vec::new(),
            cycle,
            next,
            since_open: 0,
        })
    }
}

impl Scenario for StoreChurn {
    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn step(&mut self, collector: &dyn Collector) -> Step {
        let mut wait_ms = 0.0;
        if self.since_open == CHURN_REOPEN_EVERY {
            // Every drain has persisted the store, so the old service has nothing left to
            // write; it is dropped when the one loaded from disk replaces it.
            self.totals.add(&self.service);
            let config = self.service_config();
            let (service, ms) = timed(|| DerivationService::open(config));
            self.service = service.expect("the store directory stays readable");
            self.open_ms.push(ms);
            self.since_open = 0;
            wait_ms = ms;
        }
        let key = self.cycle[self.next];
        self.next = (self.next + 1) % self.cycle.len();
        let request = self.cases[key].request.clone();
        let service = &mut self.service;
        let (result, request_ms) = timed(|| service.request_with(request, collector));
        self.since_open += 1;
        Step {
            key,
            request_ms,
            wait_ms,
            result,
        }
    }

    fn totals(&self) -> Totals {
        let mut totals = self.totals;
        totals.add(&self.service);
        totals
    }

    fn service_config(&self) -> ServiceConfig {
        service_config(Some(self.dir.0.clone()), CHURN_CAPACITY)
    }

    fn open_ms(&self) -> &[f64] {
        &self.open_ms
    }

    fn service(&self) -> Option<&DerivationService> {
        Some(&self.service)
    }
}

/// Sets up the scenario called `name`. `out_dir` is where `store_churn` keeps its store.
pub fn set_up(name: &str, rng: &mut Rng, out_dir: &Path) -> Result<Box<dyn Scenario>, String> {
    match name {
        "cold_exec_bound" => Ok(Box::new(Cold::set_up(&Workload::dot_product(), rng)?)),
        "cold_search_bound" => Ok(Box::new(Cold::set_up(&Workload::jacobi_2d(), rng)?)),
        "warm_replay" => Ok(Box::new(WarmReplay::set_up(rng)?)),
        "store_churn" => Ok(Box::new(StoreChurn::set_up(rng, out_dir)?)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}
