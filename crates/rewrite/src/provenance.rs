//! Derivation provenance: replaying and explaining recorded rule chains.
//!
//! Every [`DerivationStep`] the exploration driver records carries full provenance — the
//! rule name, the structured [`Location`](crate::traversal::Location) of the rewrite site,
//! and the index of the chosen rewrite among everything the rule offered there. That makes a
//! derivation chain a *program*, not just a log:
//!
//! * [`replay`] runs a recorded chain back through the rewrite engine and reproduces the
//!   exact derived term (structurally hash-equal to the original — the regression suite
//!   pins this for every derived workload), and
//! * [`explain`] does the same walk while rendering the program after every step, producing
//!   a human-readable rule-by-rule transcript (see `examples/explain_dot_product.rs`).
//!
//! Both take the [`RuleOptions`] the original search used: parameterised rules (split
//! factors, vector widths, tile sizes) enumerate one rewrite per option, and the recorded
//! `alternative` index is only meaningful against the same option set.

use lift_ir::{Program, TypeError};

use crate::explore::{typed_root, DerivationStep};
use crate::rules::{all_rules, Rule, RuleCx, RuleOptions};
use crate::term::{beta_normalize, Term, TermError};
use crate::traversal::{format_location, get, replace, sites, Step};

/// Why a recorded derivation chain could not be replayed.
#[derive(Clone, Debug)]
pub enum ReplayError {
    /// Converting the input program to tree form failed.
    Term(TermError),
    /// The input program does not typecheck.
    Type(TypeError),
    /// A step names a rule the engine does not have.
    UnknownRule {
        /// 0-based step index.
        step: usize,
        /// The unknown rule name.
        rule: String,
    },
    /// A step's site does not exist in the term the preceding steps produced.
    NoSuchSite {
        /// 0-based step index.
        step: usize,
        /// The rendered missing location.
        location: String,
    },
    /// The rule offered fewer rewrites at the site than the recorded alternative index —
    /// typically a [`RuleOptions`] mismatch with the recording search.
    NoSuchAlternative {
        /// 0-based step index.
        step: usize,
        /// The rule name.
        rule: &'static str,
        /// The recorded alternative index.
        alternative: usize,
        /// How many rewrites the rule offered.
        available: usize,
    },
    /// The chosen rewrite could not be spliced back into the term.
    ReplaceFailed {
        /// 0-based step index.
        step: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Term(e) => write!(f, "cannot build rewrite term: {e}"),
            ReplayError::Type(e) => write!(f, "input program does not typecheck: {e}"),
            ReplayError::UnknownRule { step, rule } => {
                write!(f, "step {step}: unknown rule {rule:?}")
            }
            ReplayError::NoSuchSite { step, location } => {
                write!(f, "step {step}: no rewrite site at {location}")
            }
            ReplayError::NoSuchAlternative {
                step,
                rule,
                alternative,
                available,
            } => write!(
                f,
                "step {step}: rule {rule} offered {available} rewrite(s) at the site, but \
                 alternative {alternative} was recorded (RuleOptions mismatch?)"
            ),
            ReplayError::ReplaceFailed { step } => {
                write!(
                    f,
                    "step {step}: the chosen rewrite could not be spliced back"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TermError> for ReplayError {
    fn from(e: TermError) -> Self {
        ReplayError::Term(e)
    }
}

impl From<TypeError> for ReplayError {
    fn from(e: TypeError) -> Self {
        ReplayError::Type(e)
    }
}

fn rule_by_name(step: usize, name: &str) -> Result<&'static Rule, ReplayError> {
    all_rules()
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| ReplayError::UnknownRule {
            step,
            rule: name.to_string(),
        })
}

/// Applies one recorded step (see [`apply_rule`]).
fn apply_step(
    term: &Term,
    step_index: usize,
    step: &DerivationStep,
    options: &RuleOptions,
) -> Result<Term, ReplayError> {
    let rule = rule_by_name(step_index, step.rule)?;
    apply_rule(
        term,
        step_index,
        rule,
        &step.path,
        step.alternative,
        options,
    )
}

/// Applies `rule` at `path` and takes its rewrite number `alternative`, exactly as the
/// exploration driver derives a candidate: same site enumeration, same fresh-name reset per
/// rule invocation, same `replace` + `beta_normalize` — so the produced term is bit-for-bit
/// the one the search derived.
pub(crate) fn apply_rule(
    term: &Term,
    step_index: usize,
    rule: &'static Rule,
    path: &[Step],
    alternative: usize,
    options: &RuleOptions,
) -> Result<Term, ReplayError> {
    let no_such_site = || ReplayError::NoSuchSite {
        step: step_index,
        location: format_location(path),
    };
    let site = sites(term)
        .into_iter()
        .find(|s| s.location == path)
        .ok_or_else(no_such_site)?;
    let site_expr = get(&term.body, &site.location).ok_or_else(no_such_site)?;
    let mut fresh = term.fresh;
    let rewrites = {
        let mut cx = RuleCx {
            context: site.context,
            arg_types: &site.arg_types,
            env: &site.env,
            options,
            fresh: &mut fresh,
        };
        rule.applications(site_expr, &mut cx)
    };
    let available = rewrites.len();
    let replacement = rewrites.into_iter().nth(alternative).ok_or({
        ReplayError::NoSuchAlternative {
            step: step_index,
            rule: rule.name,
            alternative,
            available,
        }
    })?;
    let body = replace(&term.body, &site.location, replacement)
        .ok_or(ReplayError::ReplaceFailed { step: step_index })?;
    Ok(Term {
        name: term.name.clone(),
        params: term.params.clone(),
        body: beta_normalize(&body),
        fresh,
    })
}

/// Replays a recorded derivation chain against `program` and returns the derived term.
///
/// `options` must be the [`RuleOptions`] of the recording search: the recorded
/// `alternative` indices select among the rewrites those options generate.
///
/// # Errors
///
/// Returns a [`ReplayError`] if the input program is invalid or any step does not apply the
/// way it was recorded (unknown rule, missing site, out-of-range alternative).
pub fn replay(
    program: &Program,
    steps: &[DerivationStep],
    options: &RuleOptions,
) -> Result<Term, ReplayError> {
    let (_, root) = typed_root::<ReplayError>(program)?;
    replay_from(root, steps, options)
}

/// Replays a recorded derivation chain from the typed root term of its program.
pub(crate) fn replay_from(
    root: Term,
    steps: &[DerivationStep],
    options: &RuleOptions,
) -> Result<Term, ReplayError> {
    steps
        .iter()
        .enumerate()
        .try_fold(root, |term, (i, step)| apply_step(&term, i, step, options))
}

/// One rendered step of an [`Explanation`].
#[derive(Clone, Debug)]
pub struct ExplainedStep {
    /// The applied rule's name.
    pub rule: &'static str,
    /// The applied rule's family.
    pub kind: crate::rules::RuleKind,
    /// The rendered rewrite site.
    pub location: String,
    /// The chosen alternative index at the site.
    pub alternative: usize,
    /// The whole program after this step, pretty-printed.
    pub after: String,
}

/// A rendered rule-by-rule derivation transcript (see [`explain`]). Its [`std::fmt::Display`]
/// implementation prints the full walkthrough: the initial program, then every applied rule
/// with its site and the program it produced.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The program name.
    pub name: String,
    /// The initial (high-level) program, pretty-printed.
    pub initial: String,
    /// The applied steps, in order.
    pub steps: Vec<ExplainedStep>,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "derivation of `{}` in {} steps",
            self.name,
            self.steps.len()
        )?;
        writeln!(f, "\ninitial program:")?;
        for line in self.initial.lines() {
            writeln!(f, "    {line}")?;
        }
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "\nstep {}: apply {} [{:?}] at {} (alternative {})",
                i + 1,
                step.rule,
                step.kind,
                step.location,
                step.alternative
            )?;
            for line in step.after.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Replays a recorded derivation chain while rendering the program after every step,
/// producing a human-readable transcript of how the final variant was derived.
///
/// # Errors
///
/// See [`replay`].
pub fn explain(
    program: &Program,
    steps: &[DerivationStep],
    options: &RuleOptions,
) -> Result<Explanation, ReplayError> {
    let (_, mut term) = typed_root::<ReplayError>(program)?;
    let initial = term.pretty();
    let mut explained = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        term = apply_step(&term, i, step, options)?;
        explained.push(ExplainedStep {
            rule: step.rule,
            kind: step.kind,
            location: step.location.clone(),
            alternative: step.alternative,
            after: term.pretty(),
        });
    }
    Ok(Explanation {
        name: term.name.clone(),
        initial,
        steps: explained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{enumerate, ExplorationConfig};
    use lift_ir::{Type, UserFun};
    use lift_vgpu::LaunchConfig;

    fn dot(n: usize) -> Program {
        let mut p = Program::new("dot");
        let mult = p.user_fun(UserFun::mult_pair());
        let add = p.user_fun(UserFun::add());
        let m1 = p.map(mult);
        let red = p.reduce(add, 0.0);
        let m2 = p.map(red);
        let s = p.split(32usize);
        let j = p.join();
        let z = p.zip2();
        p.with_root(
            vec![
                ("x", Type::array(Type::float(), n)),
                ("y", Type::array(Type::float(), n)),
            ],
            |p, params| {
                let zipped = p.apply(z, [params[0], params[1]]);
                let mapped = p.apply1(m1, zipped);
                let split = p.apply1(s, mapped);
                let outer = p.apply1(m2, split);
                p.apply1(j, outer)
            },
        );
        p
    }

    fn search_config() -> ExplorationConfig {
        ExplorationConfig {
            max_depth: 4,
            beam_width: 24,
            max_candidates: 800,
            launch: LaunchConfig::d1(16, 4),
            ..ExplorationConfig::default()
        }
    }

    #[test]
    fn replay_reproduces_every_lowered_candidate() {
        let program = dot(128);
        let config = search_config();
        let enumerated = enumerate(&program, &config).expect("enumeration runs");
        let mut checked = 0;
        for (term, steps) in enumerated.lowered_candidates() {
            let replayed = replay(&program, steps, &config.rule_options).expect("chain replays");
            assert_eq!(
                replayed.dedup_key(),
                term.dedup_key(),
                "replayed term differs for chain {:?}",
                steps.iter().map(|s| s.rule).collect::<Vec<_>>()
            );
            assert_eq!(replayed.body, term.body);
            checked += 1;
        }
        assert!(checked > 0, "the search lowered no candidates to replay");
    }

    #[test]
    fn explain_renders_one_section_per_step() {
        let program = dot(128);
        let config = search_config();
        let enumerated = enumerate(&program, &config).expect("enumeration runs");
        let (_, steps) = enumerated
            .lowered_candidates()
            .next()
            .expect("a lowered candidate");
        let explanation = explain(&program, steps, &config.rule_options).expect("chain explains");
        assert_eq!(explanation.steps.len(), steps.len());
        let rendered = explanation.to_string();
        assert!(rendered.contains("initial program:"));
        for (i, step) in steps.iter().enumerate() {
            assert!(rendered.contains(&format!("step {}: apply {}", i + 1, step.rule)));
        }
    }

    #[test]
    fn replay_rejects_mismatched_options() {
        let program = dot(128);
        let config = search_config();
        let enumerated = enumerate(&program, &config).expect("enumeration runs");
        // Find a chain that actually used a parameterised alternative > 0 (a split size).
        let chain = enumerated
            .lowered_candidates()
            .map(|(_, steps)| steps)
            .find(|steps| steps.iter().any(|s| s.alternative > 0));
        if let Some(steps) = chain {
            let narrowed = RuleOptions {
                split_sizes: vec![2],
                ..config.rule_options.clone()
            };
            assert!(
                replay(&program, steps, &narrowed).is_err(),
                "replay should fail when the recorded alternative is out of range"
            );
        }
    }

    #[test]
    fn replay_rejects_unknown_rules_and_missing_sites() {
        let program = dot(128);
        let bogus = DerivationStep {
            rule: "no-such-rule",
            kind: crate::rules::RuleKind::Algorithmic,
            location: "@root".to_string(),
            path: Vec::new(),
            alternative: 0,
        };
        assert!(matches!(
            replay(
                &program,
                std::slice::from_ref(&bogus),
                &RuleOptions::default()
            ),
            Err(ReplayError::UnknownRule { .. })
        ));
        let missing = DerivationStep {
            rule: "map-fusion",
            kind: crate::rules::RuleKind::Algorithmic,
            location: ".arg9".to_string(),
            path: vec![crate::traversal::Step::Arg(9)],
            alternative: 0,
        };
        assert!(matches!(
            replay(
                &program,
                std::slice::from_ref(&missing),
                &RuleOptions::default()
            ),
            Err(ReplayError::NoSuchSite { .. })
        ));
    }
}
