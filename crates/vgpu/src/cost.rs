//! The analytical cost model.
//!
//! During execution the virtual GPU counts dynamic events per work item and per SIMD group:
//! floating-point operations, integer operations, integer divisions/modulos, global and local
//! memory accesses, coalesced memory transactions, barriers and loop iterations. A
//! [`DeviceProfile`](crate::DeviceProfile) turns these counters into an estimated execution
//! time. The model is deliberately simple — it captures exactly the effects the paper's
//! optimisations target (index arithmetic, memory coalescing, barriers and control flow), so
//! that the *relative* performance trends of Figure 8 can be reproduced without GPU hardware.
//!
//! A [`Budget`] turns the same weights into a proven lower bound on a launch's estimated
//! time, in two halves: before the launch starts, from a static count of its lowered
//! kernels (`bound.rs`; the estimated time itself where that count is exact), and at every
//! lock-step row, from the counters so far.

use crate::device::DeviceProfile;

/// Version of the analytical cost model. Bump whenever the counters a given derivation
/// chain produces change, or their weighting or the device profiles alter estimated times
/// — including through code generation (a generator that emits less work for the same
/// chain moves its counters just as a new weight would). Scores recorded under a different
/// version are not comparable, so the derivation-service cache keys its entries by this
/// constant (alongside the rule-set version) and drops the whole generation when it moves,
/// instead of ranking chains by stale times.
pub const COST_MODEL_VERSION: u32 = 3;

/// Dynamic event counters accumulated while executing a kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostCounters {
    /// Floating-point operations.
    pub flops: u64,
    /// Simple integer operations (index additions, comparisons, …).
    pub int_ops: u64,
    /// Integer divisions and modulos.
    pub div_mod_ops: u64,
    /// Individual global-memory accesses (loads + stores).
    pub global_accesses: u64,
    /// Global accesses performed through vector loads/stores.
    pub vector_accesses: u64,
    /// Coalesced global-memory transactions (segments touched per SIMD group).
    pub global_transactions: u64,
    /// Global accesses that fell outside a coalesced transaction pattern.
    pub uncoalesced_accesses: u64,
    /// Local-memory accesses.
    pub local_accesses: u64,
    /// Private-memory (register) accesses.
    pub private_accesses: u64,
    /// Work-group barriers executed (counted once per work group).
    pub barriers: u64,
    /// Executed loop iterations (for loop-overhead accounting).
    pub loop_iterations: u64,
    /// Work items that executed the kernel.
    pub work_items: u64,
    /// Work groups that executed the kernel.
    pub work_groups: u64,
    /// Lock-step statement rows executed, summed over all work groups. In SIMT execution a
    /// row costs the same wall-clock whether one thread or the whole group is active, so row
    /// counts measure *time*, where the event counters above measure *work*.
    pub lockstep_rows: u64,
    /// Lock-step rows of the busiest single work group — the critical path of the launch.
    pub group_span_rows: u64,
}

impl CostCounters {
    /// Merges the counters of work executed *concurrently* with this one (the work groups
    /// of a single launch): event counts add, and the critical path is the busiest group of
    /// either side (`group_span_rows` takes the max). Summing *sequential* launches needs
    /// spans added, not maxed — aggregate those at the `estimated_time` level instead.
    pub fn merge(&mut self, other: &CostCounters) {
        self.flops += other.flops;
        self.int_ops += other.int_ops;
        self.div_mod_ops += other.div_mod_ops;
        self.global_accesses += other.global_accesses;
        self.vector_accesses += other.vector_accesses;
        self.global_transactions += other.global_transactions;
        self.uncoalesced_accesses += other.uncoalesced_accesses;
        self.local_accesses += other.local_accesses;
        self.private_accesses += other.private_accesses;
        self.barriers += other.barriers;
        self.loop_iterations += other.loop_iterations;
        self.work_items += other.work_items;
        self.work_groups += other.work_groups;
        self.lockstep_rows += other.lockstep_rows;
        self.group_span_rows = self.group_span_rows.max(other.group_span_rows);
    }

    /// Estimates the execution time (in arbitrary "cycle" units) on the given device using a
    /// work–span (Brent's law) model: `T ≈ W/P + S`.
    ///
    /// `W` is the device-weighted sum of all counted events, spread over the device's lanes
    /// (`compute_units × simd_width`). `S` is the critical path: work groups execute rows in
    /// lock step, so a group's wall-clock is its row count regardless of how many threads
    /// are active per row, and the launch cannot finish before its busiest group (or before
    /// `rows / compute_units` when there are more groups than compute units). The span is
    /// priced at the launch's average device-cost per row.
    ///
    /// The span term is what makes launch configurations a meaningful auto-tuning dimension:
    /// a launch with too few busy work items concentrates rows in one group and is charged
    /// for the serialisation, while padding a launch with idle work items shortens nothing
    /// because idle threads do not reduce the busiest group's row count. Comparisons between
    /// kernels executed under the same launch are unaffected in spirit: both terms derive
    /// from the same counters, and the constant factor is irrelevant because experiments
    /// report performance *relative* to a baseline under the same model.
    pub fn estimated_time(&self, device: &DeviceProfile) -> f64 {
        self.time_breakdown(device).time
    }

    /// The full decomposition behind [`CostCounters::estimated_time`]: the device-weighted
    /// cost of each event class (compute, memory net of the vector-access discount,
    /// synchronisation) and the two terms of the work–span model. `estimated_time` *is*
    /// `time_breakdown(device).time` — one computation, two presentations — so a profile
    /// never disagrees with the ranking.
    pub fn time_breakdown(&self, device: &DeviceProfile) -> TimeBreakdown {
        let (compute, memory, sync) = self.weighted(device);
        let total = (compute + memory + sync).max(0.0);
        let lanes = (device.compute_units * device.simd_width) as f64;
        let work_term = total / lanes;
        let span_term = if self.lockstep_rows > 0 {
            // Critical path in rows: the busiest group, or the group-level queue when more
            // groups exist than compute units — priced at the average cost per row.
            let span_rows = (self.group_span_rows as f64)
                .max(self.lockstep_rows as f64 / device.compute_units as f64);
            total * span_rows / self.lockstep_rows as f64
        } else {
            0.0
        };
        TimeBreakdown {
            compute,
            memory,
            sync,
            work_term,
            span_term,
            time: work_term + span_term,
        }
    }

    /// The device-weighted cost of the event classes: compute, memory (net of the
    /// vector-access discount) and synchronisation.
    fn weighted(&self, device: &DeviceProfile) -> (f64, f64, f64) {
        let compute = self.flops as f64 * device.flop_cost
            + self.int_ops as f64 * device.int_op_cost
            + self.div_mod_ops as f64 * device.div_mod_cost
            + self.loop_iterations as f64 * device.loop_overhead;
        let vector_discount = self.vector_accesses as f64
            * device.global_transaction_cost
            * (1.0 - device.vector_access_discount)
            / device.simd_width as f64;
        let memory = self.global_accesses as f64 * device.global_access_cost
            + self.global_transactions as f64 * device.global_transaction_cost
            + self.uncoalesced_accesses as f64 * device.uncoalesced_penalty
            + self.local_accesses as f64 * device.local_access_cost
            + self.private_accesses as f64 * device.private_access_cost
            - vector_discount;
        let sync = self.barriers as f64 * device.barrier_cost;
        (compute, memory, sync)
    }
}

/// A limit on the estimated time of a launch, checked against a proven lower bound while the
/// launch runs (see [`crate::ExecutionRequest::budget`]).
///
/// For a running stage with partial counters `c` over `G` work groups, the stage's final
/// time is at least `W(c) · (1/(CU·simd) + max(1/G, 1/CU))`, where
/// `W(c) = max(0, compute + memory + sync)`:
///
/// * the final `W` is at least `W(c)`: every counter only grows, every weight is
///   non-negative, and the one negative term — the vector discount — is outweighed per
///   access, because every vector lane is also counted as a global, local or private access
///   and the cheapest of those costs more per lane than the discount takes off
///   ([`Budget::sound_for`]);
/// * the span term prices `max(group_span_rows, lockstep_rows / CU)` rows at the average
///   cost per row, and the busiest group has at least the average `lockstep_rows / G` rows.
///
/// A sequence adds the exact times of its finished stages and one launch overhead per stage
/// (unstarted stages cost at least nothing).
///
/// The same bound is also taken before a launch starts, from counters that are not partial
/// but static: `bound.rs` counts each stage's final counters from its lowered body (trip
/// counts, conditions and global addresses evaluated under the launch's ids and `int`
/// arguments), every class of them, transactions and lock-step rows included. Where control
/// or an address reads data it leaves that work out and says the count is not exact; every
/// counter it reports is at most the executed one, and it counts vector accesses with the
/// accesses they are made of, so the argument above holds for it unchanged. An exact count
/// is priced at the sequence's [`estimated_sequence_time`] itself (shaved as above), an
/// inexact one at the launch overheads plus each stage's `W(c) · scale`; a sequence priced
/// above the limit is stopped before its first row ([`static_bound`]).
#[derive(Clone, Debug)]
pub(crate) struct Budget {
    device: DeviceProfile,
    limit: f64,
    /// What the launch has certainly spent outside the running stage: the finished stages'
    /// times plus the launch overheads of the whole sequence.
    spent: f64,
    /// `1/(CU·simd) + max(1/G, 1/CU)` for the running stage's `G` work groups.
    scale: f64,
}

impl Budget {
    /// A budget of `limit` for a stage of `groups` work groups after `spent`, or `None` when
    /// `limit` is infinite or NaN (no budget) or the bound does not hold on `device`.
    pub(crate) fn new(
        device: &DeviceProfile,
        limit: f64,
        spent: f64,
        groups: usize,
    ) -> Option<Budget> {
        if !limit.is_finite() || !Budget::sound_for(device) {
            return None;
        }
        Some(Budget {
            device: device.clone(),
            limit,
            spent,
            scale: stage_scale(device, groups),
        })
    }

    /// Whether the lower bound holds under `device`'s weights: none is negative, and a
    /// vector lane's discount never exceeds the cheapest access it is also counted as,
    /// `min(global, local, private access cost) · simd_width ≥ global_transaction_cost ·
    /// (1 − vector_access_discount)`.
    pub(crate) fn sound_for(device: &DeviceProfile) -> bool {
        let weights = [
            device.flop_cost,
            device.int_op_cost,
            device.div_mod_cost,
            device.global_access_cost,
            device.global_transaction_cost,
            device.uncoalesced_penalty,
            device.local_access_cost,
            device.private_access_cost,
            device.barrier_cost,
            device.loop_overhead,
            device.launch_overhead,
        ];
        let cheapest_access = device
            .global_access_cost
            .min(device.local_access_cost)
            .min(device.private_access_cost);
        device.simd_width > 0
            && device.compute_units > 0
            && weights.iter().all(|w| *w >= 0.0)
            && cheapest_access * device.simd_width as f64
                >= device.global_transaction_cost * (1.0 - device.vector_access_discount)
    }

    /// The proven lower bound on the launch's final estimated time if it exceeds the limit.
    /// The bound is shaved by a relative `1e-9`, so floating-point rounding can never put it
    /// above the exactly computed time.
    pub(crate) fn exceeded(&self, counters: &CostCounters) -> Option<f64> {
        let bound = shaved(self.spent_with(counters));
        (bound > self.limit).then_some(bound)
    }

    /// What the launch has certainly spent once the running stage's counters reach
    /// `counters`: the unshaved bound that [`Budget::exceeded`] compares with the limit.
    pub(crate) fn spent_with(&self, counters: &CostCounters) -> f64 {
        self.spent + relaxed(&self.device, counters, self.scale)
    }
}

/// `1/(CU·simd) + max(1/G, 1/CU)` for a stage of `groups` work groups.
fn stage_scale(device: &DeviceProfile, groups: usize) -> f64 {
    let cu = device.compute_units as f64;
    1.0 / (cu * device.simd_width as f64) + (1.0 / groups.max(1) as f64).max(1.0 / cu)
}

/// `W(c) · scale`: the budget's lower bound on the time of a stage whose counters are at
/// least `counters`.
fn relaxed(device: &DeviceProfile, counters: &CostCounters, scale: f64) -> f64 {
    let (compute, memory, sync) = counters.weighted(device);
    (compute + memory + sync).max(0.0) * scale
}

/// A bound shaved by a relative `1e-9`, so floating-point rounding can never put it above
/// the exactly computed time.
pub(crate) fn shaved(bound: f64) -> f64 {
    bound * (1.0 - 1e-9)
}

/// The unshaved lower bound on the estimated time of a sequence whose stages, each of
/// `groups` work groups, count at least `counters`: with `exact` counters their
/// [`estimated_sequence_time`]; otherwise one launch overhead per stage plus each stage's
/// `W(c) · (1/(CU·simd) + max(1/G, 1/CU))`, which holds for any counters at least these
/// ([`Budget`]). `None` under weights the bound does not hold for.
pub(crate) fn static_bound(
    device: &DeviceProfile,
    stages: &[(CostCounters, usize)],
    exact: bool,
) -> Option<f64> {
    if !Budget::sound_for(device) {
        return None;
    }
    if exact {
        let counters: Vec<CostCounters> = stages.iter().map(|(c, _)| *c).collect();
        return Some(estimated_sequence_time(&counters, device));
    }
    Some(
        stages
            .iter()
            .map(|(c, groups)| relaxed(device, c, stage_scale(device, *groups)))
            .sum::<f64>()
            + stages.len() as f64 * device.launch_overhead,
    )
}

/// The decomposition of one kernel's estimated time (see [`CostCounters::time_breakdown`]).
/// All values are in the model's arbitrary "cycle" units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Device-weighted arithmetic cost (flops, integer ops, divisions, loop overhead).
    pub compute: f64,
    /// Device-weighted memory cost (global accesses + transactions + uncoalesced penalty +
    /// local + private traffic, net of the vector-access discount).
    pub memory: f64,
    /// Device-weighted synchronisation cost (barriers).
    pub sync: f64,
    /// `W/P`: total weighted events spread over the device's lanes.
    pub work_term: f64,
    /// `S`: the critical path — the busiest work group's rows (or the group-level queue),
    /// priced at the launch's average cost per row.
    pub span_term: f64,
    /// The estimated time, `work_term + span_term` (equal to
    /// [`CostCounters::estimated_time`]).
    pub time: f64,
}

/// The result of running a kernel on the virtual GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionReport {
    /// The dynamic event counters.
    pub counters: CostCounters,
}

impl ExecutionReport {
    /// Estimated execution time on `device` (arbitrary units, comparable across runs).
    pub fn estimated_time(&self, device: &DeviceProfile) -> f64 {
        self.counters.estimated_time(device)
    }
}

/// Estimated execution time of a *sequence* of kernel launches (a multi-kernel program).
///
/// Sequential launches compose by addition — each stage's work–span time is summed, not
/// merged (merging would take the max of the per-stage critical paths, which models
/// *concurrent* work groups, see [`CostCounters::merge`]) — plus the device's fixed
/// [`DeviceProfile::launch_overhead`] once per stage. A single-stage sequence therefore
/// costs its kernel time plus one launch overhead, so single- and multi-kernel programs
/// are compared under the same model.
pub fn estimated_sequence_time(stages: &[CostCounters], device: &DeviceProfile) -> f64 {
    stages.iter().map(|c| c.estimated_time(device)).sum::<f64>()
        + stages.len() as f64 * device.launch_overhead
}

/// One kernel stage of an [`ExecutionProfile`]: its raw counters plus their decomposed
/// estimated time.
#[derive(Clone, Debug, PartialEq)]
pub struct StageProfile {
    /// The kernel's name.
    pub kernel: String,
    /// The stage's dynamic event counters.
    pub counters: CostCounters,
    /// The decomposition of the stage's estimated time.
    pub breakdown: TimeBreakdown,
}

/// A structured profile of a (possibly multi-kernel) virtual-GPU execution: per-stage
/// counters and time decompositions instead of one opaque total. The totals agree exactly
/// with [`estimated_sequence_time`] over the same counters, so a profile can always be
/// cross-checked against the number the exploration or tuner ranked by.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionProfile {
    /// The kernel stages, in launch order.
    pub stages: Vec<StageProfile>,
    /// Total fixed launch overhead charged (one [`DeviceProfile::launch_overhead`] per
    /// stage).
    pub launch_overhead: f64,
    /// The sequence's estimated time: per-stage times summed plus `launch_overhead`
    /// (equal to [`estimated_sequence_time`]).
    pub estimated_time: f64,
}

impl ExecutionProfile {
    /// Builds a profile from per-stage kernel names and counters. A missing name (shorter
    /// `names` slice) falls back to `stage<i>`.
    pub fn from_stages(
        names: &[String],
        stages: &[CostCounters],
        device: &DeviceProfile,
    ) -> ExecutionProfile {
        let profiles: Vec<StageProfile> = stages
            .iter()
            .enumerate()
            .map(|(i, counters)| StageProfile {
                kernel: names.get(i).cloned().unwrap_or_else(|| format!("stage{i}")),
                counters: *counters,
                breakdown: counters.time_breakdown(device),
            })
            .collect();
        ExecutionProfile {
            launch_overhead: stages.len() as f64 * device.launch_overhead,
            estimated_time: estimated_sequence_time(stages, device),
            stages: profiles,
        }
    }
}

impl std::fmt::Display for ExecutionProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "execution profile: {} stage(s), estimated time {:.1} (launch overhead {:.1})",
            self.stages.len(),
            self.estimated_time,
            self.launch_overhead
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  {}: time {:.1} = work {:.1} + span {:.1} (compute {:.1}, memory {:.1}, \
                 sync {:.1})",
                s.kernel,
                s.breakdown.time,
                s.breakdown.work_term,
                s.breakdown.span_term,
                s.breakdown.compute,
                s.breakdown.memory,
                s.breakdown.sync
            )?;
            writeln!(
                f,
                "    {} work items in {} group(s): {} flops, {} global accesses in {} \
                 transactions ({} uncoalesced), {} local, {} barriers",
                s.counters.work_items,
                s.counters.work_groups,
                s.counters.flops,
                s.counters.global_accesses,
                s.counters.global_transactions,
                s.counters.uncoalesced_accesses,
                s.counters.local_accesses,
                s.counters.barriers
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_fields() {
        let mut a = CostCounters {
            flops: 1,
            barriers: 2,
            ..Default::default()
        };
        let b = CostCounters {
            flops: 3,
            global_accesses: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, 4);
        assert_eq!(a.barriers, 2);
        assert_eq!(a.global_accesses, 5);
    }

    #[test]
    fn div_mod_heavy_kernels_cost_more() {
        let device = DeviceProfile::nvidia();
        let cheap = CostCounters {
            int_ops: 1000,
            ..Default::default()
        };
        let pricey = CostCounters {
            int_ops: 1000,
            div_mod_ops: 1000,
            ..Default::default()
        };
        assert!(pricey.estimated_time(&device) > 5.0 * cheap.estimated_time(&device));
    }

    #[test]
    fn coalescing_reduces_estimated_time() {
        let device = DeviceProfile::nvidia();
        let coalesced = CostCounters {
            global_accesses: 1024,
            global_transactions: 32,
            ..Default::default()
        };
        let scattered = CostCounters {
            global_accesses: 1024,
            global_transactions: 1024,
            uncoalesced_accesses: 992,
            ..Default::default()
        };
        assert!(scattered.estimated_time(&device) > 5.0 * coalesced.estimated_time(&device));
    }

    #[test]
    fn serialised_launches_are_charged_for_their_critical_path() {
        let device = DeviceProfile::nvidia();
        // The same total work: once concentrated in a single work group (one group executes
        // every row), once spread over many groups in parallel.
        let serialised = CostCounters {
            flops: 10_000,
            lockstep_rows: 10_000,
            group_span_rows: 10_000,
            ..Default::default()
        };
        let parallel = CostCounters {
            flops: 10_000,
            lockstep_rows: 10_000,
            group_span_rows: 1_000,
            ..Default::default()
        };
        assert!(serialised.estimated_time(&device) > 5.0 * parallel.estimated_time(&device));
        // With more groups than compute units, the queueing term takes over: shrinking the
        // busiest group below rows/compute_units changes nothing.
        let queued = CostCounters {
            flops: 10_000,
            lockstep_rows: 10_000,
            group_span_rows: 10_000 / device.compute_units as u64 / 2,
            ..Default::default()
        };
        let queued_smaller_span = CostCounters {
            group_span_rows: 1,
            ..queued
        };
        assert_eq!(
            queued.estimated_time(&device),
            queued_smaller_span.estimated_time(&device)
        );
    }

    #[test]
    fn merge_takes_the_max_group_span() {
        let mut a = CostCounters {
            lockstep_rows: 10,
            group_span_rows: 8,
            ..Default::default()
        };
        let b = CostCounters {
            lockstep_rows: 20,
            group_span_rows: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lockstep_rows, 30);
        assert_eq!(a.group_span_rows, 8);
    }

    #[test]
    fn breakdown_time_equals_estimated_time() {
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            let counters = CostCounters {
                flops: 1234,
                int_ops: 567,
                div_mod_ops: 89,
                global_accesses: 4096,
                vector_accesses: 128,
                global_transactions: 130,
                uncoalesced_accesses: 17,
                local_accesses: 256,
                private_accesses: 512,
                barriers: 8,
                loop_iterations: 64,
                work_items: 256,
                work_groups: 4,
                lockstep_rows: 400,
                group_span_rows: 120,
            };
            let b = counters.time_breakdown(&device);
            // Bit-for-bit: the profile presents the same computation the ranking uses.
            assert_eq!(b.time, counters.estimated_time(&device));
            assert_eq!(b.time, b.work_term + b.span_term);
        }
    }

    #[test]
    fn execution_profile_totals_match_the_sequence_model() {
        let device = DeviceProfile::nvidia();
        let stages = [
            CostCounters {
                flops: 1000,
                lockstep_rows: 100,
                group_span_rows: 20,
                ..Default::default()
            },
            CostCounters {
                global_accesses: 2048,
                global_transactions: 64,
                lockstep_rows: 50,
                group_span_rows: 50,
                ..Default::default()
            },
        ];
        let names = vec!["k0".to_string()];
        let profile = ExecutionProfile::from_stages(&names, &stages, &device);
        assert_eq!(profile.stages.len(), 2);
        assert_eq!(profile.stages[0].kernel, "k0");
        // Missing names fall back to a positional label.
        assert_eq!(profile.stages[1].kernel, "stage1");
        assert_eq!(
            profile.estimated_time,
            estimated_sequence_time(&stages, &device)
        );
        assert_eq!(profile.launch_overhead, 2.0 * device.launch_overhead);
        let rendered = profile.to_string();
        assert!(rendered.contains("execution profile: 2 stage(s)"));
        assert!(rendered.contains("k0:"));
        assert!(rendered.contains("stage1:"));
    }

    #[test]
    fn the_budget_bound_holds_for_both_profiles_and_only_sound_ones() {
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            assert!(Budget::sound_for(&device), "{}", device.name);
            assert!(Budget::new(&device, 1.0, 0.0, 4).is_some());
            // An infinite or NaN limit is no budget.
            assert!(Budget::new(&device, f64::INFINITY, 0.0, 4).is_none());
            assert!(Budget::new(&device, f64::NAN, 0.0, 4).is_none());
            // A discount larger than the cheapest access could make the time shrink.
            let discounted = DeviceProfile {
                private_access_cost: 0.01,
                ..device.clone()
            };
            assert!(!Budget::sound_for(&discounted));
            assert!(Budget::new(&discounted, 1.0, 0.0, 4).is_none());
            let negative = DeviceProfile {
                flop_cost: -1.0,
                ..device
            };
            assert!(!Budget::sound_for(&negative));
        }
    }

    #[test]
    fn the_budget_bound_never_exceeds_the_final_time() {
        // Partial counters of a launch (vector accesses included) and the counters it ends
        // with: the bound from the prefix, for any group count, stays below the final time.
        let partial = CostCounters {
            flops: 900,
            int_ops: 300,
            div_mod_ops: 12,
            global_accesses: 512,
            vector_accesses: 512,
            global_transactions: 16,
            private_accesses: 64,
            loop_iterations: 40,
            lockstep_rows: 80,
            ..Default::default()
        };
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            for groups in [1u64, 4, 15, 44, 64] {
                // The tightest ending: no further event, every group equally busy.
                let rows = 80 * groups;
                let last = CostCounters {
                    work_groups: groups,
                    lockstep_rows: rows,
                    group_span_rows: rows / groups,
                    ..partial
                };
                let more_vectors = CostCounters {
                    global_accesses: last.global_accesses + 256,
                    vector_accesses: last.vector_accesses + 256,
                    ..last
                };
                for end in [last, more_vectors] {
                    let time = end.estimated_time(&device);
                    let spent = 2.0 * device.launch_overhead;
                    let budget = Budget::new(&device, 0.0, spent, groups as usize).unwrap();
                    let bound = budget.exceeded(&partial).expect("over a zero limit");
                    assert!(bound <= spent + time, "{}: {bound} > {time}", device.name);
                    // No bound exceeds a limit of the exact time.
                    let exact = Budget::new(&device, spent + time, spent, groups as usize);
                    assert_eq!(exact.unwrap().exceeded(&partial), None);
                }
            }
        }
    }

    #[test]
    fn estimated_time_is_never_negative() {
        let device = DeviceProfile::amd();
        let counters = CostCounters {
            vector_accesses: 1_000_000,
            ..Default::default()
        };
        assert!(counters.estimated_time(&device) >= 0.0);
    }
}
