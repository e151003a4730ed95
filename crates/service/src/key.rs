//! Cache-key anatomy: how a derivation request is content-addressed.
//!
//! The address of a cache entry is built from everything that changes *which tuned
//! derivation is correct to serve*:
//!
//! * the canonical structural hash of the program ([`lift_rewrite::Term::dedup_key`], via
//!   [`lift_rewrite::canonical_key`]) — the PR 2 dedup hash, computed after type inference
//!   and tree normalisation so a program hashes identically whether it is keyed or
//!   enumerated,
//! * the device profile name — the cost model that ranked the variants,
//! * a fingerprint of the searched [`TuningSpace`] grid (candidate rule-option sets and
//!   launches) — two requests searching different grids may legitimately tune to different
//!   points,
//! * the rule-set version ([`lift_rewrite::RULE_SET_VERSION`]) and cost-model version
//!   ([`lift_vgpu::COST_MODEL_VERSION`]) — recorded chains and scores are meaningless
//!   across either bump,
//! * the symbolic-size bindings ([`ExplorationConfig::sizes`](lift_rewrite::ExplorationConfig)),
//!   sorted by name and only when there are any — a program over symbolic sizes is
//!   derived and validated separately at every binding.
//!
//! The search *strategy* (budgets, seeds) is deliberately excluded: the cache stores
//! derivations, not searches, so a request is happy to receive a tuned point found under a
//! different budget.
//!
//! The 8-byte structural hash is only the *address*; the entry stores the full canonical
//! rendering and [`CacheStore`](crate::CacheStore) lookups compare it against the
//! request's, so a 64-bit collision degrades to a cache miss instead of serving a wrong
//! derivation.

use std::hash::{Hash, Hasher};

use lift_arith::Environment;
use lift_ir::Program;
use lift_rewrite::{canonical_key, ExploreError, StableHasher};
use lift_tuner::TuningSpace;

/// The full identity of a cache entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// The 16-hex-digit entry address: a stable hash over the program's structural hash,
    /// the device name, the space fingerprint, both versions and any size bindings.
    pub id: String,
    /// The canonical structural hash of the program ([`lift_rewrite::Term::dedup_key`]).
    pub hash: u64,
    /// The full canonical rendering guarding [`CacheKey::hash`] against collisions.
    pub rendering: String,
    /// The high-level pattern skeleton ([`lift_rewrite::Term::skeleton`]) — the similarity
    /// key for warm-starting searches from structurally related cached workloads.
    pub skeleton: String,
    /// Name of the device profile the entry was tuned for.
    pub device: String,
}

/// A stable fingerprint of a tuning grid: candidate split/width/tile sets and launches in
/// order. Points of the key because a request searching a different grid may tune elsewhere.
pub fn space_fingerprint(space: &TuningSpace) -> u64 {
    let mut h = StableHasher::new();
    space.split_sets.hash(&mut h);
    space.width_sets.hash(&mut h);
    space.tile_sets.hash(&mut h);
    for launch in &space.launches {
        launch.hash(&mut h);
    }
    h.finish()
}

/// Builds the [`CacheKey`] for a derivation request that binds no symbolic size.
///
/// # Errors
///
/// Returns the underlying [`ExploreError`] when the program does not typecheck or cannot be
/// converted to tree form (the same failures [`lift_rewrite::enumerate`] would report).
pub fn cache_key(
    program: &Program,
    device: &str,
    space: &TuningSpace,
    rule_set_version: u32,
    cost_model_version: u32,
) -> Result<CacheKey, ExploreError> {
    cache_key_at(
        program,
        device,
        space,
        &Environment::new(),
        rule_set_version,
        cost_model_version,
    )
}

/// Builds the [`CacheKey`] for a derivation request under the size bindings `sizes`. The
/// bindings are hashed, sorted by name, after everything [`cache_key`] hashes, and only
/// when there are any, so an empty binding gives [`cache_key`]'s address.
///
/// # Errors
///
/// See [`cache_key`].
pub fn cache_key_at(
    program: &Program,
    device: &str,
    space: &TuningSpace,
    sizes: &Environment,
    rule_set_version: u32,
    cost_model_version: u32,
) -> Result<CacheKey, ExploreError> {
    let canonical = canonical_key(program)?;
    let mut h = StableHasher::new();
    h.write_u64(canonical.hash);
    device.hash(&mut h);
    h.write_u64(space_fingerprint(space));
    h.write_u32(rule_set_version);
    h.write_u32(cost_model_version);
    let mut bindings: Vec<(&str, i64)> = sizes.iter().collect();
    if !bindings.is_empty() {
        bindings.sort_unstable();
        bindings.hash(&mut h);
    }
    Ok(CacheKey {
        id: format!("{:016x}", h.finish()),
        hash: canonical.hash,
        rendering: canonical.rendering,
        skeleton: canonical.skeleton,
        device: device.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_tuner::Workload;
    use lift_vgpu::DeviceProfile;

    #[test]
    fn keys_are_deterministic_and_separate_devices_and_versions() {
        let w = Workload::dot_product();
        let device = DeviceProfile::nvidia();
        let space = w.space_for(&device);
        let a = cache_key(&w.program, &device.name, &space, 1, 1).unwrap();
        let b = cache_key(&w.program, &device.name, &space, 1, 1).unwrap();
        assert_eq!(a, b, "keying is a pure function of the request");
        let amd = DeviceProfile::amd();
        let c = cache_key(&w.program, &amd.name, &w.space_for(&amd), 1, 1).unwrap();
        assert_ne!(a.id, c.id, "devices are separate cache generations");
        let d = cache_key(&w.program, &device.name, &space, 2, 1).unwrap();
        assert_ne!(a.id, d.id, "a rule-set bump changes every address");
        assert_eq!(
            a.hash, d.hash,
            "the structural hash itself is version-independent"
        );
    }

    #[test]
    fn a_request_binding_no_size_keeps_its_address() {
        let w = Workload::dot_product();
        let device = DeviceProfile::nvidia();
        let space = w.space_for(&device);
        let key = cache_key(&w.program, &device.name, &space, 1, 1).unwrap();
        assert_eq!(key.id, "ee6bd51e58ca9313");
        let unbound = cache_key_at(&w.program, &device.name, &space, &Environment::new(), 1, 1);
        assert_eq!(unbound.unwrap(), key);
    }

    #[test]
    fn size_bindings_are_part_of_the_address_in_any_order() {
        let w = Workload::dot_product();
        let device = DeviceProfile::nvidia();
        let space = w.space_for(&device);
        let at = |sizes: &Environment| {
            cache_key_at(&w.program, &device.name, &space, sizes, 1, 1)
                .unwrap()
                .id
        };
        let unbound = at(&Environment::new());
        let n64 = at(&Environment::new().bind("N", 64).bind("M", 8));
        assert_eq!(n64, at(&Environment::new().bind("M", 8).bind("N", 64)));
        assert_ne!(n64, unbound);
        assert_ne!(n64, at(&Environment::new().bind("N", 128).bind("M", 8)));
        assert_ne!(n64, at(&Environment::new().bind("N", 8).bind("M", 64)));
    }

    #[test]
    fn structurally_similar_workloads_share_a_skeleton_but_not_an_id() {
        let mm = Workload::matrix_multiply();
        let tiled = Workload::mm_tiled();
        let device = DeviceProfile::nvidia();
        let a = cache_key(&mm.program, &device.name, &mm.space_for(&device), 1, 1).unwrap();
        let b = cache_key(
            &tiled.program,
            &device.name,
            &tiled.space_for(&device),
            1,
            1,
        )
        .unwrap();
        assert_eq!(
            a.skeleton, b.skeleton,
            "same high-level program, same skeleton"
        );
        assert_ne!(a.id, b.id, "different search grids are different entries");
    }
}
