//! Dynamic reconfiguration (Section III): "The proposed pattern can be
//! extended to a dynamic network that can be configured at runtime, by
//! executing the above mentioned steps each time the number of depending
//! nodes or their actual performance metrics vary."
//!
//! A round-driven master: each dispatch round it takes the next slice of
//! the identifier interval, splits it proportionally to the *current*
//! member rates, and advances virtual time by the slowest member's chain.
//! Between rounds it applies membership events — joins, leaves, re-tuned
//! rates — and recomputes the balanced assignment. Interval accounting is
//! exact (`u128`), so tests can assert that every identifier is assigned
//! exactly once regardless of the membership churn.
//!
//! [`run_dynamic`] advances *virtual* time from declared rates: it is the
//! planning model. Real searches under churn run through the job
//! service: [`crate::multijob::run_dynamic_jobs`] applies join/leave
//! events between its fair-share rounds.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_keyspace::Interval;

/// A membership change the master observes between rounds.
#[derive(Debug, Clone, PartialEq)]
pub enum MembershipEvent {
    /// A node joins with a tuned throughput (MKey/s).
    Join {
        /// Node name.
        name: String,
        /// Tuned throughput, MKey/s.
        mkeys: f64,
    },
    /// A node leaves (gracefully or detected dead at the gather).
    Leave {
        /// Node name.
        name: String,
    },
    /// The periodic re-tuning observed a new rate for a node.
    Retune {
        /// Node name.
        name: String,
        /// New throughput, MKey/s.
        mkeys: f64,
    },
}

/// An event scheduled before a given round.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    /// The event fires before this round index (0-based).
    pub before_round: u32,
    /// What happens.
    pub event: MembershipEvent,
}

/// Configuration of the dynamic master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Keys dispatched per round.
    pub round_keys: u128,
    /// Fixed per-round overhead, seconds (scatter + gather + launches).
    pub round_overhead_s: f64,
}

/// Result of a dynamic run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicReport {
    /// Rounds executed.
    pub rounds: u32,
    /// Times the assignment was recomputed due to membership changes.
    pub rebalances: u32,
    /// Virtual completion time, seconds.
    pub makespan_s: f64,
    /// Keys assigned per member, by name (members that ever participated).
    pub per_member: Vec<(String, u128)>,
    /// Total keys assigned (must equal the interval length).
    pub covered: u128,
}

struct Member {
    name: String,
    mkeys: f64,
    assigned: u128,
    active: bool,
}

/// Run a search over `interval` with a dynamic membership.
///
/// # Panics
/// Panics when the initial membership is empty, when an event references
/// an unknown node (except `Join`), when a join duplicates a live name,
/// or when at some round no member remains active.
pub fn run_dynamic(
    initial: &[(&str, f64)],
    interval: Interval,
    config: DynamicConfig,
    events: &[ScheduledEvent],
) -> DynamicReport {
    assert!(!initial.is_empty(), "need at least one initial member");
    assert!(config.round_keys > 0);
    let mut members: Vec<Member> = initial
        .iter()
        .map(|(name, mkeys)| {
            assert!(*mkeys > 0.0);
            Member { name: name.to_string(), mkeys: *mkeys, assigned: 0, active: true }
        })
        .collect();

    let mut remaining = interval;
    let mut round: u32 = 0;
    let mut rebalances: u32 = 0;
    let mut makespan = 0.0f64;

    while !remaining.is_empty() {
        // Apply events scheduled before this round.
        let mut changed = false;
        for ev in events.iter().filter(|e| e.before_round == round) {
            apply(&mut members, &ev.event);
            changed = true;
        }
        if changed {
            rebalances += 1;
        }
        let active: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.active)
            .map(|(i, _)| i)
            .collect();
        assert!(!active.is_empty(), "no active members at round {round}");

        // Take this round's slice and split it by current rates.
        let slice = remaining.take_front(config.round_keys);
        let weights: Vec<f64> = active.iter().map(|&i| members[i].mkeys).collect();
        let parts = slice.split_weighted(&weights);
        let mut round_time = 0.0f64;
        for (&i, part) in active.iter().zip(&parts) {
            members[i].assigned += part.len;
            let t = part.len as f64 / (members[i].mkeys * 1e6);
            round_time = round_time.max(t);
        }
        makespan += round_time + config.round_overhead_s;
        round += 1;
    }

    let covered: u128 = members.iter().map(|m| m.assigned).sum();
    DynamicReport {
        rounds: round,
        rebalances,
        makespan_s: makespan,
        per_member: members.into_iter().map(|m| (m.name, m.assigned)).collect(),
        covered,
    }
}

fn apply(members: &mut Vec<Member>, event: &MembershipEvent) {
    match event {
        MembershipEvent::Join { name, mkeys } => {
            assert!(*mkeys > 0.0, "joined node needs a positive rate");
            assert!(
                !members.iter().any(|m| m.active && m.name == *name),
                "duplicate live member {name}"
            );
            // Re-joining a previously-left name resumes its accounting.
            if let Some(m) = members.iter_mut().find(|m| m.name == *name) {
                m.active = true;
                m.mkeys = *mkeys;
            } else {
                members.push(Member { name: name.clone(), mkeys: *mkeys, assigned: 0, active: true });
            }
        }
        MembershipEvent::Leave { name } => {
            let m = members
                .iter_mut()
                .find(|m| m.active && m.name == *name)
                .unwrap_or_else(|| panic!("unknown or inactive member {name}"));
            m.active = false;
        }
        MembershipEvent::Retune { name, mkeys } => {
            assert!(*mkeys > 0.0);
            let m = members
                .iter_mut()
                .find(|m| m.active && m.name == *name)
                .unwrap_or_else(|| panic!("unknown or inactive member {name}"));
            m.mkeys = *mkeys;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DynamicConfig {
        DynamicConfig { round_keys: 1_000_000, round_overhead_s: 0.001 }
    }

    #[test]
    fn static_membership_covers_exactly() {
        let iv = Interval::new(0, 10_500_000);
        let r = run_dynamic(&[("a", 100.0), ("b", 300.0)], iv, config(), &[]);
        assert_eq!(r.covered, 10_500_000);
        assert_eq!(r.rounds, 11, "10 full rounds + 1 partial");
        assert_eq!(r.rebalances, 0);
        // Work split ≈ 1:3.
        let a = r.per_member[0].1 as f64;
        let b = r.per_member[1].1 as f64;
        assert!((b / a - 3.0).abs() < 0.01, "split {a} vs {b}");
    }

    #[test]
    fn join_speeds_up_completion() {
        let iv = Interval::new(0, 50_000_000);
        let alone = run_dynamic(&[("a", 100.0)], iv, config(), &[]);
        let helped = run_dynamic(
            &[("a", 100.0)],
            iv,
            config(),
            &[ScheduledEvent {
                before_round: 10,
                event: MembershipEvent::Join { name: "b".into(), mkeys: 400.0 },
            }],
        );
        assert!(helped.makespan_s < alone.makespan_s * 0.5);
        assert_eq!(helped.covered, 50_000_000);
        assert_eq!(helped.rebalances, 1);
    }

    #[test]
    fn leave_slows_but_still_covers() {
        let iv = Interval::new(0, 50_000_000);
        let full = run_dynamic(&[("a", 100.0), ("b", 400.0)], iv, config(), &[]);
        let crippled = run_dynamic(
            &[("a", 100.0), ("b", 400.0)],
            iv,
            config(),
            &[ScheduledEvent { before_round: 5, event: MembershipEvent::Leave { name: "b".into() } }],
        );
        assert!(crippled.makespan_s > full.makespan_s);
        assert_eq!(crippled.covered, 50_000_000, "nothing lost");
        // b only worked 5 rounds.
        let b_share = crippled.per_member.iter().find(|(n, _)| n == "b").unwrap().1;
        assert_eq!(b_share, 5 * 800_000, "4/5 of five rounds");
    }

    #[test]
    fn retune_shifts_the_split() {
        let iv = Interval::new(0, 20_000_000);
        let r = run_dynamic(
            &[("a", 100.0), ("b", 100.0)],
            iv,
            config(),
            &[ScheduledEvent {
                before_round: 10,
                event: MembershipEvent::Retune { name: "b".into(), mkeys: 300.0 },
            }],
        );
        assert_eq!(r.covered, 20_000_000);
        let a = r.per_member[0].1;
        let b = r.per_member[1].1;
        // First 10 rounds 50/50, last 10 rounds 25/75.
        assert_eq!(a, 10 * 500_000 + 10 * 250_000);
        assert_eq!(b, 10 * 500_000 + 10 * 750_000);
    }

    #[test]
    fn rejoin_resumes_accounting() {
        let iv = Interval::new(0, 4_000_000);
        let r = run_dynamic(
            &[("a", 100.0), ("b", 100.0)],
            iv,
            config(),
            &[
                ScheduledEvent { before_round: 1, event: MembershipEvent::Leave { name: "b".into() } },
                ScheduledEvent {
                    before_round: 3,
                    event: MembershipEvent::Join { name: "b".into(), mkeys: 100.0 },
                },
            ],
        );
        assert_eq!(r.covered, 4_000_000);
        assert_eq!(r.per_member.len(), 2, "b is one member, not two");
        assert_eq!(r.rebalances, 2);
    }

    #[test]
    #[should_panic]
    fn leaving_unknown_member_panics() {
        run_dynamic(
            &[("a", 100.0)],
            Interval::new(0, 10),
            config(),
            &[ScheduledEvent { before_round: 0, event: MembershipEvent::Leave { name: "zz".into() } }],
        );
    }

    #[test]
    #[should_panic]
    fn all_members_leaving_panics() {
        run_dynamic(
            &[("a", 100.0)],
            Interval::new(0, 10_000_000),
            config(),
            &[ScheduledEvent { before_round: 1, event: MembershipEvent::Leave { name: "a".into() } }],
        );
    }
}
