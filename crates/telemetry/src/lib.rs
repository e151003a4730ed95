//! # Derivation telemetry
//!
//! A lightweight, zero-dependency structured event layer for the Lift pipeline: spans,
//! counters and typed events behind the [`Collector`] trait. Every layer of the engine
//! (rewrite exploration, auto-tuner, virtual GPU, benchmark harness) emits [`Event`]s
//! describing what it is doing *from the inside* — per-round beam statistics, per-rule
//! fire/reject counts with typed rejection reasons, tuning-search trajectories, executed
//! kernel stages — so a search that misses the expected kernel or a tuned point that
//! regresses can be diagnosed from its transcript instead of from a single final number.
//!
//! ## Design constraints
//!
//! Instrumentation lives on the exploration hot path (~30k candidates/sec), so the layer is
//! built around two rules:
//!
//! * **Disabled means free.** The default sink is [`Null`], whose [`Collector::enabled`]
//!   returns `false`. Instrumented code guards every aggregation and every event payload
//!   construction behind one `enabled()` check per phase — the disabled path costs a branch,
//!   never an allocation.
//! * **Events are typed and allocation-light.** Hot-path events ([`Event::BeamRound`],
//!   [`Event::RuleRound`]) carry only integers and `&'static str` names. Events that carry
//!   owned strings ([`Event::Rejection`], [`Event::TunerPoint`], …) are emitted off the hot
//!   path or behind explicit opt-in flags (`trace_rejections`).
//!
//! ## Sinks
//!
//! * [`Null`] — drops everything; the default everywhere.
//! * [`InMemory`] — timestamps and buffers events behind a mutex, for tests and in-process
//!   analysis ([`phase_durations`], [`counts_by_kind`]).

pub mod json;

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Why a derived candidate was rejected by the exploration driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The rewritten subtree could not be spliced back into the candidate.
    ReplaceFailed,
    /// The derived term exceeded the configured maximum term size.
    Oversize,
    /// The derived term failed the term-level typecheck.
    IllTyped,
    /// The derived term is a structural duplicate of an earlier candidate.
    Duplicate,
    /// The static parallelism-ownership pass found a write aliasing across work items
    /// (a buffer written at a finer parallelism level than the level that owns it).
    OwnershipViolation,
    /// The dynamic shadow-memory detector observed a write-write or unsynchronised
    /// read-write conflict between two work items.
    DataRace,
    /// A barrier was reached by only part of a work group (divergent control flow).
    DivergentBarrier,
}

impl RejectReason {
    /// Stable lower-snake-case label used in serialized events.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::ReplaceFailed => "replace_failed",
            RejectReason::Oversize => "oversize",
            RejectReason::IllTyped => "ill_typed",
            RejectReason::Duplicate => "duplicate",
            RejectReason::OwnershipViolation => "ownership_violation",
            RejectReason::DataRace => "data_race",
            RejectReason::DivergentBarrier => "divergent_barrier",
        }
    }

    /// The soundness-rejection reasons, in report order (the taxonomy the
    /// [`SoundnessReport`] and the bench soundness summary count by).
    pub const SOUNDNESS: [RejectReason; 3] = [
        RejectReason::OwnershipViolation,
        RejectReason::DataRace,
        RejectReason::DivergentBarrier,
    ];

    /// Every rejection reason, in serialization order: the rewrite-level reasons first,
    /// then [`RejectReason::SOUNDNESS`]. Fixed-shape summaries (the bench reports count
    /// rejections per label) iterate this so their keys never depend on which rejections
    /// actually occurred.
    pub const ALL: [RejectReason; 7] = [
        RejectReason::ReplaceFailed,
        RejectReason::Oversize,
        RejectReason::IllTyped,
        RejectReason::Duplicate,
        RejectReason::OwnershipViolation,
        RejectReason::DataRace,
        RejectReason::DivergentBarrier,
    ];
}

/// One structured soundness incident: either a static ownership violation found at
/// compile time or a dynamic conflict observed by the virtual GPU. Fields mirror the
/// typed errors of the layers that detect them (`CodegenError::OwnershipViolation`,
/// `VgpuError::DataRace`, `VgpuError::DivergentBarrier`) so a rejection stays
/// machine-readable end to end instead of collapsing into a rendered string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SoundnessIncident {
    /// A buffer owned by one parallelism level is written from a finer one.
    OwnershipViolation {
        /// The buffer (address space and description) whose ownership was violated.
        buffer: String,
        /// Parallelism level of the offending write.
        writer_level: &'static str,
        /// Parallelism level that owns the buffer.
        owner_level: &'static str,
        /// Rendered location of the write site.
        site: String,
    },
    /// Two work items touched the same cell without a barrier between them.
    DataRace {
        /// Name of the racy buffer.
        buffer: String,
        /// Element index of the conflicting cell.
        index: i64,
        /// The two conflicting work items (flat global ids; earlier access first).
        writers: [usize; 2],
        /// Barrier epoch in which the conflict was observed.
        epoch: u64,
    },
    /// A barrier reached by only part of a work group.
    DivergentBarrier {
        /// The diverging work group.
        group: [usize; 3],
        /// Work items that reached the barrier.
        arrived: usize,
        /// Work items the group contains.
        expected: usize,
    },
}

impl SoundnessIncident {
    /// The rejection reason this incident maps to in [`Event::Rejection`] telemetry.
    pub fn reason(&self) -> RejectReason {
        match self {
            SoundnessIncident::OwnershipViolation { .. } => RejectReason::OwnershipViolation,
            SoundnessIncident::DataRace { .. } => RejectReason::DataRace,
            SoundnessIncident::DivergentBarrier { .. } => RejectReason::DivergentBarrier,
        }
    }

    /// Whether the incident was found statically (at compile time) rather than observed
    /// during execution.
    pub fn is_static(&self) -> bool {
        matches!(self, SoundnessIncident::OwnershipViolation { .. })
    }

    /// One-line human-readable rendering (used as the `site` of the emitted
    /// [`Event::Rejection`]; the structured fields stay available on the report).
    pub fn describe(&self) -> String {
        match self {
            SoundnessIncident::OwnershipViolation {
                buffer,
                writer_level,
                owner_level,
                site,
            } => {
                format!("{buffer} owned by {owner_level} written at {writer_level} level ({site})")
            }
            SoundnessIncident::DataRace {
                buffer,
                index,
                writers,
                epoch,
            } => format!(
                "{buffer}[{index}] touched by work items {} and {} in epoch {epoch}",
                writers[0], writers[1]
            ),
            SoundnessIncident::DivergentBarrier {
                group,
                arrived,
                expected,
            } => format!(
                "barrier in group ({},{},{}) reached by {arrived} of {expected} work items",
                group[0], group[1], group[2]
            ),
        }
    }
}

/// The structured soundness summary of one exploration (or one scored candidate set):
/// every statically rejected candidate's ownership violation and every dynamically
/// observed conflict, kept as typed incidents so the explorer, the bench harness and CI
/// can count and serialize them uniformly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SoundnessReport {
    /// Compile-time rejections (the parallelism-ownership pass).
    pub static_rejections: Vec<SoundnessIncident>,
    /// Execution-time rejections (the shadow-memory detector and barrier divergence).
    pub dynamic_rejections: Vec<SoundnessIncident>,
}

impl SoundnessReport {
    /// Records one incident on the side ([`SoundnessIncident::is_static`]) it belongs to.
    pub fn record(&mut self, incident: SoundnessIncident) {
        if incident.is_static() {
            self.static_rejections.push(incident);
        } else {
            self.dynamic_rejections.push(incident);
        }
    }

    /// Whether no incident of any kind was recorded.
    pub fn is_clean(&self) -> bool {
        self.static_rejections.is_empty() && self.dynamic_rejections.is_empty()
    }

    /// Total incidents recorded.
    pub fn total(&self) -> usize {
        self.static_rejections.len() + self.dynamic_rejections.len()
    }

    /// Incident counts per rejection-reason label, in [`RejectReason::SOUNDNESS`] order
    /// (reasons with zero incidents included, so serialized summaries have a fixed shape).
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        RejectReason::SOUNDNESS
            .iter()
            .map(|reason| {
                let n = self
                    .static_rejections
                    .iter()
                    .chain(&self.dynamic_rejections)
                    .filter(|i| i.reason() == *reason)
                    .count();
                (reason.label(), n)
            })
            .collect()
    }

    /// Appends every incident of `other`.
    pub fn merge(&mut self, other: SoundnessReport) {
        self.static_rejections.extend(other.static_rejections);
        self.dynamic_rejections.extend(other.dynamic_rejections);
    }
}

/// A typed telemetry event. Variants mirror the pipeline layers that emit them; every
/// variant is self-describing (no out-of-band schema) so sinks can serialize uniformly.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A named phase begins (`enumerate`, `typecheck`, `compile`, `execute`, `score`, …).
    /// Spans nest; match with the [`Event::SpanEnd`] of the same name.
    SpanBegin {
        /// Phase name.
        name: &'static str,
    },
    /// The innermost open span of this name ends.
    SpanEnd {
        /// Phase name.
        name: &'static str,
    },
    /// A named scalar measurement (e.g. `executed_kernels`).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Measured value.
        value: f64,
    },
    /// One depth level of the beam search: how many rewrites were enumerated, what became
    /// of them, and how hard the beam pruned.
    BeamRound {
        /// Depth level (0-based).
        depth: u32,
        /// Candidates in the frontier entering this round.
        frontier: u32,
        /// Outcomes consumed by the merge this round (counts against the budget).
        expanded: u32,
        /// Well-typed, novel candidates that survived into the next frontier.
        derived: u32,
        /// Candidates discarded as structural duplicates.
        dedup_hits: u32,
        /// Candidates rejected (ill-typed, oversize or failed replacements).
        rejected: u32,
        /// Fully lowered candidates collected this round.
        completed: u32,
        /// Candidates kept by beam selection.
        kept: u32,
        /// Candidates pruned by beam selection (`derived - kept`).
        pruned: u32,
    },
    /// Per-rule outcome counts within one beam round (only rules with activity are
    /// reported).
    RuleRound {
        /// Rule name.
        rule: &'static str,
        /// Depth level the counts belong to.
        depth: u32,
        /// Rewrites the rule enumerated at matching sites (including ones later rejected —
        /// the `ill_typed`/`oversize`/`failed`/`duplicates` fields break the total down).
        fired: u32,
        /// Rewrites rejected by the term-level typecheck.
        ill_typed: u32,
        /// Rewrites rejected for exceeding the maximum term size.
        oversize: u32,
        /// Rewrites whose replacement failed to apply.
        failed: u32,
        /// Rewrites discarded as structural duplicates.
        duplicates: u32,
    },
    /// One rejected rewrite with its site (only emitted under `trace_rejections`).
    Rejection {
        /// The rule whose rewrite was rejected.
        rule: &'static str,
        /// Rendered location of the rewrite site.
        site: String,
        /// Why it was rejected.
        reason: RejectReason,
    },
    /// A validated variant in the final ranking.
    Variant {
        /// Rank (0 = best).
        rank: u32,
        /// Estimated execution time under the configured device profile.
        estimated_time: f64,
        /// Kernels the variant compiled to.
        kernels: u32,
        /// Length of its derivation chain.
        steps: u32,
    },
    /// One evaluated point of a tuning search.
    TunerPoint {
        /// Evaluation order (0-based).
        index: u32,
        /// Rendered point (rule options and launch).
        point: String,
        /// Best validated estimated time at the point (`None`: infeasible / no variant).
        best_time: Option<f64>,
        /// Fully lowered candidates at the point.
        lowered: u32,
        /// Validated variants at the point.
        variants: u32,
        /// Whether the point improved on every earlier point (accepted as new best).
        improved: bool,
        /// Whether the point re-used a cached rule search.
        cache_hit: bool,
        /// Kernel launches the point started on the virtual GPU, pruned ones included.
        kernels_executed: u32,
        /// Kernel launches the point needed whose verdict an earlier point had measured.
        kernels_reused: u32,
        /// Of the launches started, those stopped early because their cost bound proved
        /// they could not make the point's best variants.
        kernels_pruned: u32,
    },
    /// An accepted hill-climb move of a tuning search.
    TunerMove {
        /// Move number (0-based).
        step: u32,
        /// Rendered point moved to.
        to: String,
        /// Objective after the move.
        best_time: f64,
    },
    /// One executed kernel stage of a virtual-GPU launch.
    ExecStage {
        /// Kernel name.
        kernel: String,
        /// Estimated stage time under the configured device profile.
        estimated_time: f64,
    },
    /// A virtual-GPU execution engine declined a launch and delegated to the interpreter
    /// (e.g. the bytecode tier met a construct it does not compile). The launch still
    /// succeeds with identical results; the event records why the faster tier was skipped.
    EngineFallback {
        /// Kernel name of the affected launch.
        kernel: String,
        /// The construct or condition the engine could not handle.
        reason: String,
    },
    /// A derivation-service cache lookup found a valid entry (the derivation is then
    /// replayed and re-validated rather than re-searched).
    CacheHit {
        /// The content-address id of the looked-up key.
        key: String,
        /// Name of the requested program.
        program: String,
    },
    /// A derivation-service cache lookup found nothing (a cold derivation follows). Batched
    /// duplicate requests coalesce onto one lookup, so counting these events counts actual
    /// derivations.
    CacheMiss {
        /// The content-address id of the looked-up key.
        key: String,
        /// Name of the requested program.
        program: String,
    },
    /// A derivation-service cache entry was removed.
    CacheEvict {
        /// The content-address id of the evicted entry.
        key: String,
        /// Why it was evicted (`lru`, `collision`, `replay_failed`, `stale`).
        reason: &'static str,
    },
    /// A whole generation of derivation-service cache entries was dropped at once
    /// (rule-set or cost-model version change).
    CacheInvalidate {
        /// Number of entries dropped.
        evicted: u32,
        /// What changed (e.g. `rule-set version 2 -> 3`).
        reason: String,
    },
}

impl Event {
    /// Stable lower-snake-case kind label (used by [`counts_by_kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::Counter { .. } => "counter",
            Event::BeamRound { .. } => "beam_round",
            Event::RuleRound { .. } => "rule_round",
            Event::Rejection { .. } => "rejection",
            Event::Variant { .. } => "variant",
            Event::TunerPoint { .. } => "tuner_point",
            Event::TunerMove { .. } => "tuner_move",
            Event::ExecStage { .. } => "exec_stage",
            Event::EngineFallback { .. } => "engine_fallback",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
            Event::CacheEvict { .. } => "cache_evict",
            Event::CacheInvalidate { .. } => "cache_invalidate",
        }
    }
}

/// An [`Event`] stamped with the microseconds elapsed since its sink was created.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Microseconds since the sink's epoch.
    pub t_us: u64,
    /// The event.
    pub event: Event,
}

/// A telemetry sink.
///
/// Instrumented code MUST guard any work done purely to *construct* an event payload
/// (aggregation, rendering, allocation) behind [`Collector::enabled`]; [`Collector::record`]
/// may then assume the caller checked. The provided `span_*` helpers perform the check
/// themselves, so phase markers can be dropped into any code path unconditionally.
pub trait Collector: Sync {
    /// Whether this sink wants events at all. `false` (the [`Null`] sink) makes every
    /// instrumentation site a predictable branch.
    fn enabled(&self) -> bool;

    /// Records one event. Called only when [`Collector::enabled`] returned `true`.
    fn record(&self, event: Event);

    /// Records a [`Event::SpanBegin`] if enabled.
    fn span_begin(&self, name: &'static str) {
        if self.enabled() {
            self.record(Event::SpanBegin { name });
        }
    }

    /// Records a [`Event::SpanEnd`] if enabled.
    fn span_end(&self, name: &'static str) {
        if self.enabled() {
            self.record(Event::SpanEnd { name });
        }
    }

    /// Records a [`Event::Counter`] if enabled.
    fn counter(&self, name: &'static str, value: f64) {
        if self.enabled() {
            self.record(Event::Counter { name, value });
        }
    }
}

/// The default sink: drops everything at near-zero cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Null;

impl Collector for Null {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// Buffers timestamped events in memory (behind a mutex), for tests and in-process
/// analysis.
#[derive(Debug)]
pub struct InMemory {
    epoch: Instant,
    events: Mutex<Vec<TimedEvent>>,
}

impl InMemory {
    /// An empty buffer whose epoch is now.
    pub fn new() -> InMemory {
        InMemory {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the recorded events, in record order. A thread that panicked while
    /// holding the buffer lock does not make the buffer unreadable: every push is whole.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Consumes the sink and returns the recorded events, in record order (whether or not
    /// a thread panicked while holding the buffer lock, as for [`InMemory::events`]).
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.events
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for InMemory {
    fn default() -> Self {
        InMemory::new()
    }
}

impl Collector for InMemory {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let t_us = self.epoch.elapsed().as_micros() as u64;
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(TimedEvent { t_us, event });
    }
}

/// Total time spent inside each span name, in first-appearance order.
///
/// Spans may nest (time inside a nested span counts toward both); an unmatched
/// [`Event::SpanEnd`] is ignored and an unclosed [`Event::SpanBegin`] contributes nothing.
pub fn phase_durations(events: &[TimedEvent]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    let mut open: Vec<(&'static str, u64)> = Vec::new();
    for e in events {
        match e.event {
            Event::SpanBegin { name } => open.push((name, e.t_us)),
            Event::SpanEnd { name } => {
                if let Some(pos) = open.iter().rposition(|(n, _)| *n == name) {
                    let (_, begin) = open.remove(pos);
                    let elapsed = e.t_us.saturating_sub(begin);
                    match totals.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, total)) => *total += elapsed,
                        None => totals.push((name, elapsed)),
                    }
                }
            }
            _ => {}
        }
    }
    totals
}

/// Event counts per [`Event::kind`], in first-appearance order.
pub fn counts_by_kind(events: &[TimedEvent]) -> Vec<(&'static str, usize)> {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for e in events {
        let kind = e.event.kind();
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind, 1)),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_disabled_and_silent() {
        let null = Null;
        assert!(!null.enabled());
        null.record(Event::SpanBegin { name: "x" }); // must not panic
        null.span_begin("x");
        null.counter("n", 1.0);
    }

    #[test]
    fn in_memory_buffers_events_in_order_with_monotonic_stamps() {
        let sink = InMemory::new();
        sink.span_begin("enumerate");
        sink.record(Event::Counter {
            name: "executed_kernels",
            value: 4.0,
        });
        sink.span_end("enumerate");
        let events = sink.into_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].event, Event::SpanBegin { name: "enumerate" });
        assert_eq!(events[2].event, Event::SpanEnd { name: "enumerate" });
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn a_panic_while_the_buffer_is_locked_leaves_the_events_readable() {
        let sink = InMemory::new();
        sink.span_begin("before");
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = sink.events.lock();
                    panic!("a recorder fails while holding the buffer");
                })
                .join()
                .is_err()
        });
        assert!(panicked && sink.events.is_poisoned());
        sink.span_end("before");
        assert_eq!(sink.events().len(), 2);
        let events = sink.into_events();
        assert_eq!(events[0].event, Event::SpanBegin { name: "before" });
        assert_eq!(events[1].event, Event::SpanEnd { name: "before" });
    }

    fn at(t_us: u64, event: Event) -> TimedEvent {
        TimedEvent { t_us, event }
    }

    #[test]
    fn phase_durations_handle_nesting_and_repeats() {
        let events = vec![
            at(0, Event::SpanBegin { name: "outer" }),
            at(10, Event::SpanBegin { name: "inner" }),
            at(30, Event::SpanEnd { name: "inner" }),
            at(50, Event::SpanEnd { name: "outer" }),
            at(60, Event::SpanBegin { name: "inner" }),
            at(100, Event::SpanEnd { name: "inner" }),
            // Unmatched end is ignored; unclosed begin contributes nothing.
            at(110, Event::SpanEnd { name: "stray" }),
            at(120, Event::SpanBegin { name: "open" }),
        ];
        let phases = phase_durations(&events);
        assert_eq!(phases, vec![("inner", 60), ("outer", 50)]);
    }

    #[test]
    fn counts_by_kind_preserves_first_appearance_order() {
        let events = vec![
            at(0, Event::SpanBegin { name: "a" }),
            at(
                1,
                Event::Counter {
                    name: "n",
                    value: 1.0,
                },
            ),
            at(2, Event::SpanEnd { name: "a" }),
            at(
                3,
                Event::Counter {
                    name: "m",
                    value: 2.0,
                },
            ),
        ];
        assert_eq!(
            counts_by_kind(&events),
            vec![("span_begin", 1), ("counter", 2), ("span_end", 1)]
        );
    }
}
