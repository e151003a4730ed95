//! The rewrite memo of a [`Search`](crate::Search): which rewrites its enumerations have
//! already judged.
//!
//! An auto-tuner enumerates the same program once per rule-option coordinate, and the
//! searches overlap almost everywhere: a rule application is a function of the term, the
//! site and the [`RuleOptions`] lists the rule *reads* — most rules read none, and each
//! parameterised one reads exactly one — so under two option sets that agree on that list it
//! offers the same rewrites. [`RewriteMemo`] keys what the search works out by what the
//! computation consulted, and [`Search::enumerate`](crate::Search::enumerate) runs the
//! unchanged beam search over recalled and freshly judged outcomes alike.
//!
//! What the memo holds is the search *graph*, not the terms: a node per term any
//! enumeration reached, identified by its derivation, with the outcomes of the rule
//! applications at the nodes that were expanded. A term is held only while a search is
//! expanding it or its children, or when scoring has a use for it: a fully lowered one is
//! held, with its derivation chain, from the moment a search finds it, and both are shared
//! with every [`Enumerated`](crate::Enumerated) that contains the node. Any other term is one
//! rule application away from its parent's ([`crate::provenance`]), and is rebuilt from it
//! when a search comes to expand the node.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use lift_telemetry::RejectReason;

use crate::explore::{Candidate, DedupKey, DerivationStep, ExplorationConfig, ExploreError};
use crate::provenance::{apply_rule, ReplayError};
use crate::rules::{all_rules, OptionAxes, Rule, RuleCx, RuleOptions};
use crate::term::{beta_normalize, Term, TermExpr, TermFun};
use crate::traversal::{format_location, get, replace, sites, Location, Site};
use crate::typecheck::typecheck;

/// One enumerated rewrite, in deterministic enumeration order. The per-rewrite work (replace,
/// normalise, typecheck, hash) happens in the judging workers or not at all (a recalled
/// rewrite); the budget, statistics and dedup decisions happen in the sequential merge, so
/// the parallel run is byte-identical to the sequential one.
pub(crate) struct Outcome {
    pub(crate) rule: &'static str,
    /// The rendered rewrite location, only under [`ExplorationConfig::trace_rejections`]
    /// with an enabled collector — the hot path never renders it.
    pub(crate) site: Option<Box<str>>,
    pub(crate) kind: OutcomeKind,
}

pub(crate) enum OutcomeKind {
    /// The rewrite was enumerated but rejected: the replacement failed to apply, the term
    /// outgrew `max_term_size`, or the derived term failed the (term-level) typecheck.
    /// Counted against the candidate budget, like always.
    Rejected(RejectReason),
    /// A well-typed derived candidate: its memo node, and its term if it is fully lowered
    /// and was derived just now. Any other term is rebuilt from its parent's only if a search
    /// comes to expand the node.
    Derived {
        node: NodeId,
        term: Option<Arc<Term>>,
    },
}

/// Index of a [`Node`] in its [`RewriteMemo`].
pub(crate) type NodeId = usize;

/// The node of the term every enumeration starts from.
pub(crate) const ROOT: NodeId = 0;

/// One term the search reached, identified by how it was derived — which by induction from
/// the shared root fixes the term itself, fresh names included.
#[derive(Debug)]
pub(crate) struct Node {
    /// The rewrite that derives the term from its parent's; `None` for the root.
    origin: Option<Origin>,
    pub(crate) key: DedupKey,
    /// `term.body.size()` (the beam's tie-breaker).
    pub(crate) size: usize,
    pub(crate) high_level_left: usize,
    /// Held while a search works at the node (it is in the beam being expanded or in the
    /// one before) and, if it is fully lowered, from the moment a search finds it. At any
    /// other time the node is its origin only, and the term is rebuilt from that when a
    /// search has to judge at it.
    term: Option<Arc<Term>>,
    /// What the rules did at the term's sites: one entry per `(site, rule)` that produced a
    /// rewrite or read an option list, in site-major, rule-minor order. Every other pair
    /// produced nothing whatever the options. `None` until the node is first expanded.
    entries: Option<Vec<Entry>>,
}

#[derive(Clone, Copy, Debug)]
struct Origin {
    parent: NodeId,
    /// Index into the parent's entries: the site and the rule.
    entry: usize,
    /// Index into [`RewriteMemo::options`]: the options the rule was applied under.
    under: usize,
    /// Index of the rewrite among those the rule offered.
    alternative: usize,
}

#[derive(Debug)]
struct Entry {
    location: Location,
    rule: &'static Rule,
    /// One judgement per distinct content of the option lists the rule read here.
    judgements: Vec<Judgement>,
}

/// What one rule application produced, and what it depended on.
#[derive(Debug)]
struct Judgement {
    /// The option lists the application read,
    axes: OptionAxes,
    /// of these options (index into [`RewriteMemo::options`]).
    under: usize,
    /// One per rewrite the rule offered, in the rule's order.
    outcomes: Vec<Judged<NodeId>>,
}

/// The verdict on one rewrite; `T` is what stands for a derived term.
#[derive(Debug)]
enum Judged<T> {
    Rejected(RejectReason),
    Derived(T),
}

/// A freshly derived, well-typed term with what the search ranks and dedups it by. Only a
/// fully lowered term is kept; any other is dropped as soon as it is judged, and rebuilt
/// from its parent's if a search comes to expand its node.
struct Derived {
    term: Option<Term>,
    key: DedupKey,
    size: usize,
    high_level_left: usize,
}

/// The rule applications one frontier node still needs judged under the current options.
struct Work {
    term: Arc<Term>,
    /// `None`: every rule at every site (the node was never expanded). Otherwise the
    /// indices of the entries none of whose judgements holds.
    entries: Option<Vec<(usize, Location, &'static Rule)>>,
}

/// One judged `(site, rule)`: [`Work`]'s result, not yet recorded.
struct Application {
    location: Location,
    rule: &'static Rule,
    axes: OptionAxes,
    outcomes: Vec<Judged<Derived>>,
}

/// The rewrites of one [`Search`](crate::Search): every term any of its enumerations reached,
/// and what every rule did at every site of the ones it expanded.
///
/// [`Search::enumerate`](crate::Search::enumerate) consults the memo before it applies a rule
/// and records what it had to work out. A rule application is a function of the term, the
/// site and the [`RuleOptions`] lists the rule *read* ([`Rule::applications_logged`]); the
/// memo records the outcome together with those lists, and a later enumeration under other
/// options applies the rule again only if one of them differs. An outcome is a node, not a
/// term: the term of a node is held only while a search expands it or its children, or, for
/// a fully lowered node, for scoring.
///
/// Recalling is exact. A node is identified by its derivation (parent node, site, rule,
/// lists read, alternative); the root is shared, and a rule application draws its fresh
/// names from its input term, so equal derivations give equal terms, name for name, and
/// the outcomes recorded for a node are those a fresh search would compute at it. The
/// search itself — outcome order, budget, dedup, beam selection, telemetry — runs as always
/// on top of the recalled and the judged outcomes alike.
///
/// A memo serves the one program its root is and one `max_term_size` at a time (handed
/// another size cap it starts over); nothing in it is persisted.
#[derive(Debug, Default)]
pub(crate) struct RewriteMemo {
    /// `nodes[ROOT]` is the root.
    nodes: Vec<Node>,
    max_term_size: usize,
    /// Every distinct `RuleOptions` an enumeration ran under.
    options: Vec<RuleOptions>,
    /// Index of the running enumeration's options.
    current: usize,
    /// Per entry of `options`: the lists on which it agrees with the current options.
    agreeing: Vec<OptionAxes>,
    /// The derivation chain of every fully lowered node a search found, built the first time
    /// and shared by every [`Candidate`] of the node from then on.
    chains: HashMap<NodeId, Arc<[DerivationStep]>>,
    /// Rewrites judged so far: a rule applied, the result spliced in, normalised and
    /// type-checked.
    pub(crate) judged: usize,
    /// Rewrites whose outcome was recalled instead.
    pub(crate) recalled: usize,
}

impl RewriteMemo {
    /// A memo of searches from `root` that has judged nothing yet.
    pub(crate) fn new(root: Term) -> RewriteMemo {
        let node = Node {
            origin: None,
            key: root.dedup_key(),
            size: root.body.size(),
            high_level_left: high_level_count(&root.body),
            term: Some(Arc::new(root)),
            entries: None,
        };
        RewriteMemo {
            nodes: vec![node],
            ..RewriteMemo::default()
        }
    }

    /// What the search ranks and dedups a node by.
    pub(crate) fn node(&self, node: NodeId) -> &Node {
        &self.nodes[node]
    }

    /// Readies the memo for an enumeration under `config`. Another size cap changes what is
    /// oversize, so everything but the root is forgotten.
    pub(crate) fn bind(&mut self, config: &ExplorationConfig) {
        if self.max_term_size != config.max_term_size {
            self.nodes.truncate(1);
            self.nodes[ROOT].entries = None;
            self.chains.clear();
            self.max_term_size = config.max_term_size;
            self.options.clear();
        }
        let options = &config.rule_options;
        let known = self.options.iter().position(|o| o == options);
        self.current = known.unwrap_or_else(|| {
            self.options.push(options.clone());
            self.options.len() - 1
        });
        self.agreeing = self
            .options
            .iter()
            .map(|o| OptionAxes {
                split_sizes: o.split_sizes == options.split_sizes,
                vector_widths: o.vector_widths == options.vector_widths,
                tile_sizes: o.tile_sizes == options.tile_sizes,
            })
            .collect();
    }

    /// Whether a judgement is the one a rule application under the current options gives:
    /// every list it read has the content it had then.
    fn holds(&self, judgement: &Judgement) -> bool {
        let (read, agree) = (judgement.axes, self.agreeing[judgement.under]);
        (!read.split_sizes || agree.split_sizes)
            && (!read.vector_widths || agree.vector_widths)
            && (!read.tile_sizes || agree.tile_sizes)
    }

    /// The term of a node — from here on held.
    fn term(&mut self, node: NodeId) -> Result<Arc<Term>, ExploreError> {
        let term = self.rebuild(node)?;
        self.nodes[node].term = Some(Arc::clone(&term));
        Ok(term)
    }

    /// The term of a node: the one it holds, or else its origin applied to its parent's.
    pub(crate) fn rebuild(&self, node: NodeId) -> Result<Arc<Term>, ExploreError> {
        if let Some(term) = &self.nodes[node].term {
            return Ok(Arc::clone(term));
        }
        let (origin, entry) = self.origin(node).ok_or(ExploreError::Memo(
            "a node holds neither its term nor the rewrite that derives it",
        ))?;
        let term = apply_rule(
            &*self.rebuild(origin.parent)?,
            self.depth(origin.parent),
            entry.rule,
            &entry.location,
            origin.alternative,
            &self.options[origin.under],
        )?;
        debug_assert_eq!(term.dedup_key(), self.nodes[node].key);
        Ok(Arc::new(term))
    }

    /// The rewrite that derives a node from its parent, with the parent's entry it was
    /// recorded under (a node is created by recording that entry); `None` for the root.
    fn origin(&self, node: NodeId) -> Option<(Origin, &Entry)> {
        let origin = self.nodes[node].origin?;
        let entries = self.nodes[origin.parent].entries.as_ref()?;
        Some((origin, entries.get(origin.entry)?))
    }

    /// Number of rewrites between the root and the node.
    fn depth(&self, node: NodeId) -> usize {
        std::iter::successors(Some(node), |n| self.nodes[*n].origin.map(|o| o.parent)).count() - 1
    }

    /// The derivation chain of a node: the rewrites of its ancestors' origins, root first.
    fn steps(&self, mut node: NodeId) -> Vec<DerivationStep> {
        let mut steps = Vec::new();
        while let Some((origin, entry)) = self.origin(node) {
            steps.push(DerivationStep {
                rule: entry.rule.name,
                kind: entry.rule.kind,
                location: format_location(&entry.location),
                path: entry.location.clone(),
                alternative: origin.alternative,
            });
            node = origin.parent;
        }
        steps.reverse();
        steps
    }

    /// Holds `term` as the fully lowered node's from here on, if the node holds none yet.
    pub(crate) fn hold(&mut self, node: NodeId, term: Option<&Arc<Term>>) {
        if let (slot @ None, Some(term)) = (&mut self.nodes[node].term, term) {
            *slot = Some(Arc::clone(term));
        }
    }

    /// Lets go of the terms of beam nodes whose children have all been planned for: of a
    /// search's terms only the root and the fully lowered ones (which its
    /// [`Enumerated`](crate::Enumerated) shares) outlive it, the others are rebuilt when a
    /// search has to judge at them.
    pub(crate) fn release(&mut self, beam: &[NodeId]) {
        for node in beam {
            let node = &mut self.nodes[*node];
            if node.origin.is_some() && node.high_level_left != 0 {
                node.term = None;
            }
        }
    }

    /// The fully lowered candidate a node is, as scoring takes it: the node's term and chain,
    /// shared with every other candidate of the node.
    pub(crate) fn candidate(&mut self, node: NodeId) -> Result<Candidate, ExploreError> {
        let steps = match self.chains.get(&node) {
            Some(steps) => Arc::clone(steps),
            None => {
                let steps: Arc<[DerivationStep]> = self.steps(node).into();
                self.chains.insert(node, Arc::clone(&steps));
                steps
            }
        };
        Ok(Candidate {
            term: self.term(node)?,
            steps,
            key: self.nodes[node].key,
        })
    }

    /// The outcomes of every frontier node under the current options, judging what the memo
    /// does not hold over `workers` scoped threads. The result vector is in frontier order
    /// regardless of scheduling, and planning, recording and recalling all happen on the
    /// calling thread, in that order — workers only ever judge.
    ///
    /// `remaining` is the number of outcomes the merge can still consume before the
    /// candidate budget trips; the sequential path stops expanding further nodes once
    /// earlier ones have filled it (their outcomes are consumed first, in frontier order).
    pub(crate) fn expand_frontier(
        &mut self,
        frontier: &[NodeId],
        depth: usize,
        config: &ExplorationConfig,
        workers: usize,
        remaining: usize,
        trace: bool,
    ) -> Result<Vec<Vec<Outcome>>, ExploreError> {
        let run = |work: &Work| judge(work, depth, &config.rule_options, config.max_term_size);
        let mut out = Vec::with_capacity(frontier.len());
        if workers <= 1 || frontier.len() <= 1 {
            let mut produced = 0usize;
            for node in frontier {
                if produced >= remaining {
                    break;
                }
                let judged = match self.plan(*node)? {
                    Some(work) => {
                        let applications = run(&work)?;
                        Some((work, applications))
                    }
                    None => None,
                };
                let outcomes = self.outcomes(*node, judged, trace);
                produced += outcomes.len();
                out.push(outcomes);
            }
            return Ok(out);
        }
        let plans: Vec<Option<Work>> = frontier
            .iter()
            .map(|node| self.plan(*node))
            .collect::<Result<_, _>>()?;
        let chunk = plans.len().div_ceil(workers);
        // Every worker is joined before a panic is reported, so the scope never re-raises one.
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|plan| plan.as_ref().map(run))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut judged: Vec<Option<Result<Vec<Application>, ExploreError>>> = Vec::new();
        for part in joined {
            judged.extend(part.map_err(|_| ExploreError::WorkerPanicked)?);
        }
        for ((node, work), judged) in frontier.iter().zip(plans).zip(judged) {
            let judged = match (work, judged) {
                (Some(work), Some(applications)) => Some((work, applications?)),
                _ => None,
            };
            out.push(self.outcomes(*node, judged, trace));
        }
        Ok(out)
    }

    /// What has to be judged before the node's outcomes under the current options can be
    /// read off the memo; `None` if nothing.
    fn plan(&mut self, node: NodeId) -> Result<Option<Work>, ExploreError> {
        let entries = match &self.nodes[node].entries {
            None => None,
            Some(entries) => {
                let missing: Vec<_> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| !e.judgements.iter().any(|j| self.holds(j)))
                    .map(|(i, e)| (i, e.location.clone(), e.rule))
                    .collect();
                if missing.is_empty() {
                    return Ok(None);
                }
                Some(missing)
            }
        };
        Ok(Some(Work {
            term: self.term(node)?,
            entries,
        }))
    }

    /// The node's outcomes under the current options, in the deterministic site-major,
    /// rule-minor enumeration order: `judged` (what [`RewriteMemo::plan`] asked for, if
    /// anything) is recorded first, the rest is recalled.
    fn outcomes(
        &mut self,
        node: NodeId,
        judged: Option<(Work, Vec<Application>)>,
        trace: bool,
    ) -> Vec<Outcome> {
        let judged_before = self.judged;
        let mut fresh = match judged {
            Some((work, applications)) => self.record(node, &work, applications),
            None => VecDeque::new(),
        };
        let mut out = Vec::new();
        let entries = self.nodes[node].entries.as_deref().unwrap_or(&[]);
        for entry in entries {
            let Some(judgement) = entry.judgements.iter().find(|j| self.holds(j)) else {
                debug_assert!(
                    false,
                    "an entry without a judgement that holds was planned for"
                );
                continue;
            };
            for outcome in &judgement.outcomes {
                let kind = match outcome {
                    Judged::Rejected(reason) => OutcomeKind::Rejected(*reason),
                    Judged::Derived(child) => OutcomeKind::Derived {
                        node: *child,
                        term: match fresh.front() {
                            Some((id, _)) if id == child => fresh.pop_front().map(|f| f.1),
                            _ => None,
                        },
                    },
                };
                out.push(Outcome {
                    rule: entry.rule.name,
                    site: trace.then(|| format_location(&entry.location).into_boxed_str()),
                    kind,
                });
            }
        }
        debug_assert!(
            fresh.is_empty(),
            "every derived term belongs to a replayed outcome"
        );
        self.recalled += out.len() - (self.judged - judged_before);
        out
    }

    /// Records what `work` came to. Returns the derived terms of fully lowered nodes, in the
    /// order [`RewriteMemo::outcomes`] meets their nodes.
    fn record(
        &mut self,
        node: NodeId,
        work: &Work,
        applications: Vec<Application>,
    ) -> VecDeque<(NodeId, Arc<Term>)> {
        let mut terms = VecDeque::new();
        match &work.entries {
            None => {
                let entries = applications
                    .into_iter()
                    .enumerate()
                    .map(|(entry, a)| Entry {
                        judgements: vec![
                            self.judgement(node, entry, a.axes, a.outcomes, &mut terms)
                        ],
                        location: a.location,
                        rule: a.rule,
                    })
                    .collect();
                self.nodes[node].entries = Some(entries);
            }
            Some(listed) => {
                for ((entry, ..), a) in listed.iter().zip(applications) {
                    let judgement = self.judgement(node, *entry, a.axes, a.outcomes, &mut terms);
                    let entries = self.nodes[node].entries.as_mut();
                    if let Some(e) = entries.and_then(|entries| entries.get_mut(*entry)) {
                        e.judgements.push(judgement);
                    }
                }
            }
        }
        terms
    }

    /// One application's judgement under the current options, with a node created for every
    /// term it derived (and the term appended to `terms` if it is fully lowered).
    fn judgement(
        &mut self,
        parent: NodeId,
        entry: usize,
        axes: OptionAxes,
        outcomes: Vec<Judged<Derived>>,
        terms: &mut VecDeque<(NodeId, Arc<Term>)>,
    ) -> Judgement {
        self.judged += outcomes.len();
        let outcomes = outcomes
            .into_iter()
            .enumerate()
            .map(|(alternative, outcome)| match outcome {
                Judged::Rejected(reason) => Judged::Rejected(reason),
                Judged::Derived(derived) => {
                    let child = self.nodes.len();
                    self.nodes.push(Node {
                        origin: Some(Origin {
                            parent,
                            entry,
                            under: self.current,
                            alternative,
                        }),
                        key: derived.key,
                        size: derived.size,
                        high_level_left: derived.high_level_left,
                        term: None,
                        entries: None,
                    });
                    if let Some(term) = derived.term {
                        terms.push_back((child, Arc::new(term)));
                    }
                    Judged::Derived(child)
                }
            })
            .collect();
        Judgement {
            axes,
            under: self.current,
            outcomes,
        }
    }
}

/// Judges the rule applications `work` lists — all of them, or the listed entries — under
/// `options`: each rule applied at its site, every rewrite spliced in, normalised, sized
/// and type-checked. Pure in its arguments, so workers run it side by side. Of a whole
/// expansion only the applications that produced a rewrite or read an option list are
/// returned (the others are the same under any options).
fn judge(
    work: &Work,
    depth: usize,
    options: &RuleOptions,
    max_term_size: usize,
) -> Result<Vec<Application>, ExploreError> {
    let term = &*work.term;
    let all_sites = sites(term);
    let apply = |site: &Site, site_expr: &TermExpr, rule: &'static Rule| {
        let mut fresh = term.fresh;
        let (rewrites, axes) = {
            let mut cx = RuleCx {
                context: site.context,
                arg_types: &site.arg_types,
                env: &site.env,
                options,
                fresh: &mut fresh,
            };
            rule.applications_logged(site_expr, &mut cx)
        };
        let outcomes = rewrites
            .into_iter()
            .map(|replacement| {
                let Some(body) = replace(&term.body, &site.location, replacement) else {
                    return Judged::Rejected(RejectReason::ReplaceFailed);
                };
                let term = Term {
                    name: term.name.clone(),
                    params: term.params.clone(),
                    body: beta_normalize(&body),
                    fresh,
                };
                let size = term.body.size();
                if size > max_term_size {
                    return Judged::Rejected(RejectReason::Oversize);
                }
                if typecheck(&term).is_err() {
                    return Judged::Rejected(RejectReason::IllTyped);
                }
                let high_level_left = high_level_count(&term.body);
                Judged::Derived(Derived {
                    key: term.dedup_key(),
                    size,
                    high_level_left,
                    term: (high_level_left == 0).then_some(term),
                })
            })
            .collect();
        Application {
            location: site.location.clone(),
            rule,
            axes,
            outcomes,
        }
    };
    match &work.entries {
        None => Ok(all_sites
            .iter()
            .filter_map(|site| Some((site, get(&term.body, &site.location)?)))
            .flat_map(|(site, site_expr)| {
                all_rules()
                    .iter()
                    .map(move |rule| apply(site, site_expr, rule))
            })
            .filter(|a| !a.outcomes.is_empty() || a.axes != OptionAxes::default())
            .collect()),
        Some(listed) => listed
            .iter()
            .map(|(_, location, rule)| {
                let site = all_sites.iter().find(|s| s.location == *location);
                let found = site.and_then(|s| Some((s, get(&term.body, &s.location)?)));
                let (site, site_expr) = found.ok_or_else(|| ReplayError::NoSuchSite {
                    step: depth,
                    location: format_location(location),
                })?;
                Ok(apply(site, site_expr, rule))
            })
            .collect(),
    }
}

/// Counts the high-level (`map`/`reduce`) pattern occurrences in a term body — the tree-form
/// equivalent of counting reachable high-level `FunDecl::Pattern`s in the arena program.
pub(crate) fn high_level_count(e: &TermExpr) -> usize {
    fn count_fun(f: &TermFun) -> usize {
        match f {
            TermFun::Lambda { body, .. } => high_level_count(body),
            TermFun::Pattern(p) => {
                usize::from(p.is_high_level()) + p.nested().map_or(0, |g| count_fun(g))
            }
            TermFun::UserFun(_) => 0,
        }
    }
    match e {
        TermExpr::Literal(_) | TermExpr::Param(_) => 0,
        TermExpr::Apply { f, args } => {
            count_fun(f) + args.iter().map(high_level_count).sum::<usize>()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lift_benchmarks::dot_product::high_level_program;
    use lift_telemetry::Null;

    use super::ROOT;
    use crate::explore::{ExplorationConfig, Search};
    use crate::rules::RuleOptions;

    fn config(split_sizes: Vec<i64>) -> ExplorationConfig {
        ExplorationConfig {
            max_depth: 5,
            beam_width: 32,
            max_candidates: 1500,
            rule_options: RuleOptions {
                split_sizes,
                vector_widths: vec![4],
                tile_sizes: vec![],
            },
            ..ExplorationConfig::default()
        }
    }

    #[test]
    fn enumerations_that_reach_a_lowered_node_share_its_term_and_chain() {
        let program = high_level_program(512);
        let (small, large) = (config(vec![2, 4]), config(vec![8, 16]));
        let mut search = Search::new(&program, &small.sizes, &Null).expect("input types");
        let first = search.enumerate(&small, &Null).expect("enumeration runs");
        let second = search.enumerate(&large, &Null).expect("enumeration runs");
        // Under other split sizes a chain that splits derives another term, so equal chains
        // with equal keys are the same node, reached by both enumerations.
        let (mut shared, mut apart) = (0, 0);
        for a in &first.complete {
            let same = second
                .complete
                .iter()
                .find(|b| b.key == a.key && b.steps == a.steps);
            match same {
                Some(b) => {
                    assert!(Arc::ptr_eq(&a.term, &b.term));
                    assert!(Arc::ptr_eq(&a.steps, &b.steps));
                    shared += 1;
                }
                None => apart += 1,
            }
        }
        assert!(shared > 0 && apart > 0, "shared {shared}, apart {apart}");
    }

    #[test]
    fn only_the_root_and_the_lowered_nodes_hold_a_term_after_an_enumeration() {
        let program = high_level_program(512);
        let mut search = Search::new(&program, &config(vec![2]).sizes, &Null).expect("types");
        for splits in [vec![2, 4], vec![8, 16], vec![2, 4]] {
            let enumerated = search.enumerate(&config(splits), &Null).expect("runs");
            let nodes = &search.rewrites.nodes;
            assert!(nodes.len() > enumerated.complete.len() + 1);
            for (id, node) in nodes.iter().enumerate() {
                assert!(
                    node.term.is_none() || id == ROOT || node.high_level_left == 0,
                    "node {id} with {} high-level patterns left holds its term",
                    node.high_level_left
                );
            }
            for candidate in &enumerated.complete {
                let held = nodes.iter().filter_map(|n| n.term.as_ref());
                assert!(held.into_iter().any(|t| Arc::ptr_eq(t, &candidate.term)));
            }
        }
    }
}
