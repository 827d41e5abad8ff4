//! Bounded exhaustive exploration of the scheduler model.
//!
//! A plain depth-first search over [`Model::enabled`] /
//! [`Model::apply`], with three standard moves to keep small configs
//! tractable without giving up soundness for the state-local properties
//! we check:
//!
//! * **State hashing** — every generated [`ModelState`] lands in a
//!   visited table; a state is re-explored only when it can now be
//!   entered with *fewer* sleeping actions than any earlier visit (see
//!   below), so the search is linear in distinct states, not in paths.
//! * **Sleep sets** (Godefroid) — after exploring action `a` from a
//!   state, every sibling branch puts `a` to sleep for as long as only
//!   actions independent of `a` execute; the interleaving `b·a` is then
//!   pruned because `a·b` already covered its destination. Sleep sets
//!   prune *transitions*, never states, so every reachable state is
//!   still generated and checked.
//! * **Invisible-action priority** — `Exit` only flips a private done
//!   flag and `Merge` is only enabled once all workers are done; both
//!   commute with every concurrently enabled action and stay enabled
//!   until taken, so exploring them alone (a singleton ample set) is
//!   sound and collapses the factorial tail of exit orders.
//!
//! Soundness caveat for sleep sets + state caching: skipping a visited
//! state is only safe when the earlier visit explored at least as much,
//! i.e. its sleep set was a subset of the current one. The visited table
//! therefore stores the sleep sets each state was entered with.
//!
//! Every generated state is checked against [`Model::check_invariants`]
//! the moment it is created; a violation aborts the search and carries
//! the full DFS path — the schedule plus a deque-state summary per step
//! — as a counterexample trace.

use std::collections::{BTreeSet, HashMap};

use crate::model::{Action, Fault, Model, ModelConfig, ModelState, Property};

/// Exploration bounds and switches.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Maximum schedule length (DFS depth). Deeper paths mark the
    /// outcome truncated instead of being followed.
    pub max_depth: usize,
    /// Maximum number of distinct states to store before giving up.
    pub max_states: u64,
    /// Enable the sleep-set + invisible-action reduction. Turn off to
    /// force the checker through every raw interleaving — the mutant
    /// tests do, so a reduction bug cannot mask a protocol bug.
    pub reduction: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { max_depth: 256, max_states: 2_000_000, reduction: true }
    }
}

/// One step of a counterexample: the action taken and a one-line
/// summary of the state it produced.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The scheduled action.
    pub action: Action,
    /// `ModelState::summary()` of the successor.
    pub state: String,
}

/// A checked property that failed, with the schedule that falsifies it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which property broke.
    pub property: Property,
    /// Human-readable description of the broken invariant.
    pub message: String,
    /// The DFS path from the initial state to the violating state.
    pub trace: Vec<TraceStep>,
}

impl Violation {
    /// Render the violation with its full counterexample trace.
    pub fn render(&self) -> String {
        let mut out = format!("violation of {}: {}\n", self.property, self.message);
        out.push_str(&format!("counterexample schedule ({} steps):\n", self.trace.len()));
        for (i, step) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {:>3}. {:<16} {}\n", i + 1, step.action.to_string(), step.state));
        }
        out
    }
}

/// What a bounded exploration found.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Distinct states generated (including the initial state).
    pub states: u64,
    /// Transitions applied.
    pub transitions: u64,
    /// Longest schedule explored.
    pub deepest: usize,
    /// True when a bound (`max_depth` / `max_states`) cut exploration
    /// short: the verdict is then only valid up to the bound.
    pub truncated: bool,
    /// Every distinct merge result reached on some complete schedule.
    pub outcomes: BTreeSet<Vec<u128>>,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
}

impl CheckOutcome {
    /// True when the exploration completed with no violation.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

struct Search<'m> {
    model: &'m Model,
    opts: CheckOptions,
    /// Visited states, each with the sleep sets it was explored under.
    visited: HashMap<ModelState, Vec<Vec<Action>>>,
    states: u64,
    transitions: u64,
    deepest: usize,
    truncated: bool,
    outcomes: BTreeSet<Vec<u128>>,
    trace: Vec<TraceStep>,
    violation: Option<Violation>,
}

impl Search<'_> {
    fn fault(&mut self, (property, message): Fault) {
        if self.violation.is_none() {
            self.violation =
                Some(Violation { property, message, trace: self.trace.clone() });
        }
    }

    fn dfs(&mut self, s: &ModelState, sleep: Vec<Action>, depth: usize) {
        if self.violation.is_some() {
            return;
        }
        self.deepest = self.deepest.max(depth);
        if let Some(m) = s.merged() {
            self.outcomes.insert(m.to_vec());
            return;
        }
        let enabled = self.model.enabled(s);
        if enabled.is_empty() {
            return;
        }
        if depth >= self.opts.max_depth {
            self.truncated = true;
            return;
        }
        // Invisible-action priority: explore a pending Exit/Merge alone.
        let candidates: Vec<Action> = if self.opts.reduction {
            match enabled
                .iter()
                .copied()
                .find(|a| matches!(a, Action::Exit { .. } | Action::Merge))
            {
                Some(a) => vec![a],
                None => enabled,
            }
        } else {
            enabled
        };
        let mut sleep_acc = sleep;
        for a in candidates {
            if self.opts.reduction && sleep_acc.binary_search(&a).is_ok() {
                continue;
            }
            let next = match self.model.apply(s, a) {
                Ok(next) => next,
                Err(fault) => {
                    self.trace.push(TraceStep { action: a, state: "<fault>".into() });
                    self.fault(fault);
                    self.trace.pop();
                    return;
                }
            };
            self.transitions += 1;
            self.trace.push(TraceStep { action: a, state: next.summary() });
            if let Err(fault) = self.model.check_invariants(&next) {
                self.fault(fault);
                self.trace.pop();
                return;
            }
            // The sibling sleep set survives into the child only where
            // independent of the action just taken.
            let child_sleep: Vec<Action> = sleep_acc
                .iter()
                .copied()
                .filter(|b| self.model.independent(s, a, *b))
                .collect();
            let explore = match self.visited.get(&next) {
                None => true,
                Some(prior) if self.opts.reduction => {
                    // Re-explore unless some earlier visit slept on a
                    // subset of what we would sleep on now.
                    !prior.iter().any(|p| {
                        p.iter().all(|x| child_sleep.binary_search(x).is_ok())
                    })
                }
                Some(_) => false,
            };
            if explore {
                if self.states >= self.opts.max_states {
                    self.truncated = true;
                    self.trace.pop();
                    return;
                }
                let entry = self.visited.entry(next.clone()).or_default();
                if entry.is_empty() {
                    self.states += 1;
                }
                entry.push(child_sleep.clone());
                self.dfs(&next, child_sleep, depth + 1);
            }
            self.trace.pop();
            if self.violation.is_some() {
                return;
            }
            if let Err(pos) = sleep_acc.binary_search(&a) {
                sleep_acc.insert(pos, a);
            }
        }
    }
}

/// Exhaustively explore every interleaving of `cfg` up to `opts`'
/// bounds, checking all four protocol properties at every generated
/// state.
pub fn check(cfg: ModelConfig, opts: CheckOptions) -> CheckOutcome {
    let first_hit = cfg.first_hit;
    let model = Model::new(cfg);
    let initial = model.initial();
    let mut search = Search {
        model: &model,
        opts,
        visited: HashMap::new(),
        states: 1,
        transitions: 0,
        deepest: 0,
        truncated: false,
        outcomes: BTreeSet::new(),
        trace: Vec::new(),
        violation: None,
    };
    if let Err(fault) = model.check_invariants(&initial) {
        search.fault(fault);
    } else {
        search.visited.insert(initial.clone(), vec![Vec::new()]);
        search.dfs(&initial, Vec::new(), 0);
    }
    let mut outcome = CheckOutcome {
        states: search.states,
        transitions: search.transitions,
        deepest: search.deepest,
        truncated: search.truncated,
        outcomes: search.outcomes,
        violation: search.violation,
    };
    // Exhaustive mode must be schedule-deterministic: every complete
    // interleaving reaches the same merge result. (First-hit outcomes
    // legitimately depend on the race — there the per-state merge rule
    // is what check_invariants pins.)
    if outcome.violation.is_none() && !first_hit && outcome.outcomes.len() > 1 {
        let rendered: Vec<String> =
            outcome.outcomes.iter().map(|o| format!("{o:?}")).collect();
        outcome.violation = Some(Violation {
            property: Property::MergeDeterminism,
            message: format!(
                "exhaustive merge is schedule-dependent: saw outcomes {}",
                rendered.join(" vs ")
            ),
            trace: Vec::new(),
        });
    }
    outcome
}

/// A named model-checking configuration, as surfaced by `eks verify`.
#[derive(Debug, Clone)]
pub struct NamedCheck {
    /// Stable check name (`scheduler/<shape>`).
    pub name: &'static str,
    /// What the check claims when green.
    pub claim: &'static str,
    /// The configuration to explore.
    pub config: ModelConfig,
}

/// The standard scheduler-protocol check suite for a given worker
/// count and number of two-key work intervals: exhaustive + first-hit
/// stealing, guided chunk sizing, the cancellation-bound prober, and a
/// no-steal static baseline.
pub fn standard_checks(workers: usize, intervals: u128) -> Vec<NamedCheck> {
    use eks_engine::ChunkPolicy;
    let keys = intervals.max(1) * 2;
    vec![
        NamedCheck {
            name: "scheduler/exhaustive-steal",
            claim: "exactly-once coverage and schedule-independent merge under steal-half",
            config: ModelConfig::steal_intervals(workers, intervals.max(1)),
        },
        NamedCheck {
            name: "scheduler/exhaustive-guided",
            claim: "guided chunk sizing preserves the lease partition",
            config: ModelConfig {
                chunk: ChunkPolicy::Guided { min: 1 },
                quantum: 2,
                ..ModelConfig::exhaustive(workers, keys)
            },
        },
        NamedCheck {
            name: "scheduler/first-hit",
            claim: "lowest-id merge rule holds on every racing schedule",
            config: ModelConfig::first_hit(workers, keys),
        },
        NamedCheck {
            name: "scheduler/cancel-bound",
            claim: "post-cancel overshoot stays within K + workers x quantum",
            config: ModelConfig::cancel_bound(workers, keys),
        },
        NamedCheck {
            name: "scheduler/static-no-steal",
            claim: "the static scatter needs no steals to cover the keyspace",
            config: ModelConfig {
                steal: false,
                ..ModelConfig::exhaustive(workers, keys)
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mutation;

    #[test]
    fn exhaustive_two_workers_eight_intervals_is_clean_and_nontrivial() {
        // The acceptance config: 2 workers, 8 two-key work intervals.
        let out = check(ModelConfig::steal_intervals(2, 8), CheckOptions::default());
        assert!(out.clean(), "{}", out.violation.unwrap().render());
        assert!(!out.truncated);
        assert!(out.states > 1_000, "only {} states explored", out.states);
        assert_eq!(out.outcomes.len(), 1, "exhaustive merge must be deterministic");
        assert_eq!(out.outcomes.iter().next().unwrap(), &vec![1, 15]);
    }

    #[test]
    fn reduction_preserves_the_verdict_and_outcomes() {
        let full = check(
            ModelConfig::exhaustive(2, 4),
            CheckOptions { reduction: false, ..CheckOptions::default() },
        );
        let reduced = check(ModelConfig::exhaustive(2, 4), CheckOptions::default());
        assert!(full.clean() && reduced.clean());
        assert_eq!(full.outcomes, reduced.outcomes);
        assert!(
            reduced.transitions <= full.transitions,
            "reduction explored more transitions ({} > {})",
            reduced.transitions,
            full.transitions
        );
    }

    #[test]
    fn first_hit_merges_lowest_on_every_schedule() {
        let out = check(ModelConfig::first_hit(2, 6), CheckOptions::default());
        assert!(out.clean(), "{}", out.violation.unwrap().render());
        // Racing schedules may report either planted hit, but every
        // outcome is a single lowest-of-reported identifier.
        for o in &out.outcomes {
            assert_eq!(o.len(), 1);
            assert!(o == &vec![1] || o == &vec![5], "unexpected outcome {o:?}");
        }
    }

    #[test]
    fn cancel_bound_holds_for_the_big_chunk_prober() {
        let out = check(ModelConfig::cancel_bound(2, 8), CheckOptions::default());
        assert!(out.clean(), "{}", out.violation.unwrap().render());
    }

    #[test]
    fn standard_suite_is_clean_for_small_configs() {
        for workers in 1..=2 {
            for c in standard_checks(workers, 6) {
                let out = check(c.config, CheckOptions::default());
                assert!(
                    out.clean(),
                    "{} violated:\n{}",
                    c.name,
                    out.violation.unwrap().render()
                );
                assert!(!out.truncated, "{} truncated", c.name);
            }
        }
    }

    #[test]
    fn dropped_lease_mutant_is_flagged_with_a_trace() {
        let out = check(
            ModelConfig::exhaustive(2, 8).with_mutation(Mutation::DropStolenLease),
            CheckOptions { reduction: false, ..CheckOptions::default() },
        );
        let v = out.violation.expect("mutant must be flagged");
        assert_eq!(v.property, Property::NoLostLease);
        assert!(!v.trace.is_empty(), "counterexample must carry a schedule");
        assert!(v.render().contains("steal("), "trace must show the faulty steal");
    }

    #[test]
    fn double_count_mutant_breaks_exactly_once() {
        let out = check(
            ModelConfig::exhaustive(2, 8).with_mutation(Mutation::DoubleCountSteal),
            CheckOptions::default(),
        );
        let v = out.violation.expect("mutant must be flagged");
        assert_eq!(v.property, Property::ExactlyOnce);
    }

    #[test]
    fn merge_highest_mutant_breaks_the_merge_rule() {
        let out = check(
            ModelConfig::first_hit(2, 6).with_mutation(Mutation::MergeHighestFirst),
            CheckOptions::default(),
        );
        let v = out.violation.expect("mutant must be flagged");
        assert_eq!(v.property, Property::MergeDeterminism);
        assert!(v.trace.iter().any(|s| s.action == Action::Merge));
    }

    #[test]
    fn ignore_cancel_mutant_breaks_the_cancellation_bound() {
        let out = check(
            ModelConfig::cancel_bound(2, 8).with_mutation(Mutation::IgnoreCancelPoll),
            CheckOptions::default(),
        );
        let v = out.violation.expect("mutant must be flagged");
        assert_eq!(v.property, Property::CancellationBound);
    }

    #[test]
    fn depth_bound_marks_truncation() {
        let out = check(
            ModelConfig::exhaustive(2, 8),
            CheckOptions { max_depth: 4, ..CheckOptions::default() },
        );
        assert!(out.truncated);
        assert!(out.clean(), "a truncated run without violations is still clean");
    }
}
