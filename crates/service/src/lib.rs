//! # Derivation-as-a-service
//!
//! The ROADMAP's production north star is a long-lived compiler service absorbing millions
//! of `(program, device)` requests. This crate supplies that serving layer on top of the
//! existing pipeline (`rewrite` → `codegen` → `vgpu` → `tuner`):
//!
//! * [`CacheStore`] — a persistent, versioned, content-addressed cache of tuned
//!   derivations: deterministic JSON-lines format, atomic writes of only the files a
//!   request changed (a hit usually rewrites just the LRU index), LRU/size-bounded
//!   eviction, and whole-generation invalidation when the rule set
//!   ([`lift_rewrite::RULE_SET_VERSION`]) or cost model ([`lift_vgpu::COST_MODEL_VERSION`])
//!   moves,
//! * [`cache_key`] — the content address: the PR 2 structural dedup hash of the canonical
//!   program plus the device, the searched tuning grid and both versions; the full
//!   canonical rendering is stored alongside the 8-byte hash as a collision guard,
//! * [`DerivationService`] — the request queue: concurrent requests for the same key are
//!   batched and deduplicated (N identical in-flight requests cost one derivation), groups
//!   run on a bounded deterministic worker pool, and cache-miss searches warm-start their
//!   hill climb from the tuned points of structurally similar cached workloads (shared
//!   high-level pattern skeleton, [`lift_rewrite::Term::skeleton`]).
//!
//! A warm hit is not trusted blindly: the recorded chain replays through the provenance
//! machinery ([`lift_rewrite::Search::replay`]) and re-runs compilation (with
//! the static parallelism-ownership pass), virtual-GPU execution and output validation, so
//! a stale cache can never serve an unsound kernel — it can only cost a re-derivation.
//!
//! ```
//! use lift_service::{DerivationService, Request, Served, ServiceConfig};
//! use lift_tuner::{Strategy, TuningConfig, Workload};
//! use lift_vgpu::DeviceProfile;
//!
//! let mut service = DerivationService::open(ServiceConfig::default()).expect("opens");
//! let workload = Workload::dot_product();
//! let device = DeviceProfile::nvidia();
//! let mut config = TuningConfig::new(
//!     device.clone(),
//!     workload.space_for(&device),
//!     Strategy::RandomHillClimb { seed: 1, samples: 2, max_steps: 2 },
//! );
//! config.base.max_candidates = 400; // keep the doctest fast
//! let request = Request {
//!     name: workload.name.to_string(),
//!     program: workload.program.clone(),
//!     config,
//! };
//! let cold = service
//!     .request_with(request.clone(), &lift_telemetry::Null)
//!     .expect("cold derivation succeeds");
//! assert_eq!(cold.served, Served::ColdMiss);
//! let warm = service
//!     .request_with(request, &lift_telemetry::Null)
//!     .expect("warm hit succeeds");
//! assert_eq!(warm.served, Served::WarmHit);
//! assert_eq!(warm.variant.kernel_source, cold.variant.kernel_source);
//! ```

pub mod key;
pub mod service;
pub mod store;
pub mod wire;

pub use key::{cache_key, space_fingerprint, CacheKey};
pub use service::{DerivationService, Request, Response, Served, ServiceConfig, ServiceStats};
pub use store::{CacheStore, STORE_SCHEMA};
pub use wire::{CachedDerivation, StoredEntry};

/// Errors from the derivation service.
#[derive(Debug)]
pub enum ServiceError {
    /// Keying or replaying a request failed (invalid program, stale chain).
    Explore(lift_rewrite::ExploreError),
    /// The cold-path tuner rejected the request.
    Tune(lift_tuner::TuneError),
    /// A search finished without a single validated variant.
    NoVariant(String),
    /// The persistent store could not be read or written.
    Io(String),
    /// A derive/validate worker thread panicked; the batch it belonged to is not answered.
    WorkerPanicked,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Explore(e) => write!(f, "exploration failed: {e}"),
            ServiceError::Tune(e) => write!(f, "tuning failed: {e}"),
            ServiceError::NoVariant(name) => {
                write!(f, "no validated variant found for request `{name}`")
            }
            ServiceError::Io(e) => write!(f, "cache store I/O failed: {e}"),
            ServiceError::WorkerPanicked => write!(f, "a service worker thread panicked"),
        }
    }
}

impl std::error::Error for ServiceError {}
