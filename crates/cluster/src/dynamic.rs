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
//! Two masters live here: [`run_dynamic`] advances *virtual* time from
//! declared rates (the planning model), while [`run_dynamic_search`]
//! actually cracks keys — its members are [`eks_engine::Backend`] leaves
//! (CPU lanes or simulated GPUs) whose rates come from their own tuning
//! step, and every scan runs through one [`Dispatcher`].

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_cracker::target::TargetSet;
use eks_engine::{
    Backend, DequeLeaf, Dispatcher, IntervalDeques, ScanMode, SchedOptions, SchedPolicy,
    WorkerId, WorkerStats,
};
use eks_keyspace::{Interval, Key, KeySpace};
use eks_telemetry::{names, Telemetry};

use crate::runtime::cluster_efficiency_pct;

/// Guided chunk floor inside a dynamic round: one poll quantum.
const DYNAMIC_CHUNK: u128 = eks_engine::POLL_CHUNK;

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

/// A membership change during a real dynamic search. Unlike
/// [`MembershipEvent`], a join carries the node's executor — its rate is
/// whatever the backend's own tuning step reports, not a declared number.
pub enum SearchEvent {
    /// A node joins with its backend.
    Join {
        /// Node name.
        name: String,
        /// The executor the node contributes.
        backend: Box<dyn Backend>,
    },
    /// A node leaves (gracefully or detected dead at the gather).
    Leave {
        /// Node name.
        name: String,
    },
}

/// A [`SearchEvent`] scheduled before a given round.
pub struct ScheduledSearchEvent {
    /// The event fires before this round index (0-based).
    pub before_round: u32,
    /// What happens.
    pub event: SearchEvent,
}

/// Configuration of the real dynamic master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicSearchConfig {
    /// Keys dispatched per round.
    pub round_keys: u128,
    /// Stop the search at the first hit.
    pub first_hit_only: bool,
    /// How members are scheduled within a round:
    /// [`SchedPolicy::Static`] keeps every member on exactly its
    /// rate-proportional share, the stealing policies let drained
    /// members rebalance the round's tail.
    pub sched: SchedPolicy,
}

/// Result of a real dynamic search.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSearchReport {
    /// Hits in identifier order.
    pub hits: Vec<(u128, Key, usize)>,
    /// Candidates tested.
    pub tested: u128,
    /// Rounds executed.
    pub rounds: u32,
    /// Times the assignment was recomputed due to membership changes.
    pub rebalances: u32,
    /// Per-member `(name [backend], tested)`, join order.
    pub per_member: Vec<(String, u128)>,
    /// Full per-member scheduler stats, same order as `per_member`.
    pub stats: Vec<WorkerStats>,
}

struct SearchMember {
    name: String,
    backend: Box<dyn Backend>,
    worker: WorkerId,
    active: bool,
}

/// Run a real search over `interval` with a dynamic membership: each
/// round re-splits the next slice by the *current* members' tuned rates,
/// so a join immediately takes its proportional share and a leave stops
/// receiving work; hits, cancellation and accounting all flow through
/// the one dispatch core.
///
/// # Panics
/// Panics when the initial membership is empty, when a leave references
/// an unknown node, when a join duplicates a live name, or when at some
/// round no member remains active.
pub fn run_dynamic_search(
    initial: Vec<(String, Box<dyn Backend>)>,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    config: DynamicSearchConfig,
    events: Vec<ScheduledSearchEvent>,
) -> DynamicSearchReport {
    run_dynamic_search_observed(
        initial,
        space,
        targets,
        interval,
        config,
        events,
        &Telemetry::disabled(),
    )
}

/// [`run_dynamic_search`] with telemetry attached: joins and leaves
/// become [`names::EVENT_JOIN`] / [`names::EVENT_LEAVE`] trace events,
/// every rebalance bumps [`names::REBALANCES`], rounds run under
/// [`names::SPAN_ROUND`] spans, and the final whole-network efficiency
/// lands in the [`names::CLUSTER_EFFICIENCY_PCT`] gauge.
///
/// # Panics
/// Same contract as [`run_dynamic_search`].
pub fn run_dynamic_search_observed(
    initial: Vec<(String, Box<dyn Backend>)>,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    config: DynamicSearchConfig,
    events: Vec<ScheduledSearchEvent>,
    telemetry: &Telemetry,
) -> DynamicSearchReport {
    assert!(!initial.is_empty(), "need at least one initial member");
    assert!(config.round_keys > 0);
    let algo = targets.algo();
    let rounds_counter = telemetry.counter(names::ROUNDS, &[]);
    let rebalance_counter = telemetry.counter(names::REBALANCES, &[]);
    let dispatcher = Dispatcher::new(space, targets, ScanMode::from_first_hit(config.first_hit_only))
        .with_telemetry(telemetry.clone());
    let mut members: Vec<SearchMember> = initial
        .into_iter()
        .map(|(name, backend)| {
            let worker = dispatcher.register(format!("{name} [{}]", backend.name()));
            SearchMember { name, backend, worker, active: true }
        })
        .collect();
    let mut events: Vec<ScheduledSearchEvent> = events.into_iter().collect();

    let mut remaining = interval.intersect(&space.interval());
    let mut round: u32 = 0;
    let mut rebalances: u32 = 0;

    while !remaining.is_empty() {
        // Apply events scheduled before this round.
        let mut changed = false;
        let mut due = Vec::new();
        events.retain_mut(|e| {
            if e.before_round == round {
                due.push(std::mem::replace(
                    &mut e.event,
                    SearchEvent::Leave { name: String::new() },
                ));
                false
            } else {
                true
            }
        });
        for event in due {
            apply_search(&mut members, event, &dispatcher, telemetry);
            changed = true;
        }
        if changed {
            rebalances += 1;
            rebalance_counter.inc();
        }
        let active: Vec<usize> =
            members.iter().enumerate().filter(|(_, m)| m.active).map(|(i, _)| i).collect();
        assert!(!active.is_empty(), "no active members at round {round}");

        // Take this round's slice and split it by the current members'
        // tuned rates.
        let slice = remaining.take_front(config.round_keys);
        let weights: Vec<f64> =
            active.iter().map(|&i| members[i].backend.tuned_rate(algo)).collect();
        if telemetry.is_enabled() && (changed || round == 0) {
            for (&i, &w) in active.iter().zip(&weights) {
                let m = &members[i];
                telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &m.name)]).set(w);
            }
        }
        rounds_counter.inc();
        // Dropped at the end of this iteration, covering scatter, scan
        // and the stop check.
        let _round_span = telemetry
            .span(names::SPAN_ROUND)
            .field("round", round)
            .field("members", active.len())
            .field("keys", slice.len);
        let parts = slice.split_weighted(&weights);
        // Every member owns a deque holding its proportional share; under
        // the static policy this is exactly one scan per member, under
        // the stealing policies drained members take the back half of the
        // largest remaining share.
        let deques = IntervalDeques::assign(parts);
        let leaves: Vec<DequeLeaf<'_>> = active
            .iter()
            .map(|&i| DequeLeaf { worker: members[i].worker, backend: members[i].backend.as_ref() })
            .collect();
        dispatcher.run_deques(&leaves, &deques, SchedOptions::for_policy(config.sched, DYNAMIC_CHUNK));
        round += 1;

        if config.first_hit_only && dispatcher.any_hits() {
            break;
        }
    }

    let merge = telemetry.span(names::SPAN_MERGE);
    let report = dispatcher.finish();
    merge.field("hits", report.hits.len()).finish();
    if telemetry.is_enabled() {
        telemetry
            .gauge(names::CLUSTER_EFFICIENCY_PCT, &[])
            .set(cluster_efficiency_pct(&report.stats));
    }
    DynamicSearchReport {
        hits: report.hits,
        tested: report.tested,
        rounds: round,
        rebalances,
        per_member: report.per_worker,
        stats: report.stats,
    }
}

fn apply_search(
    members: &mut Vec<SearchMember>,
    event: SearchEvent,
    dispatcher: &Dispatcher<'_>,
    telemetry: &Telemetry,
) {
    match event {
        SearchEvent::Join { name, backend } => {
            assert!(
                !members.iter().any(|m| m.active && m.name == name),
                "duplicate live member {name}"
            );
            telemetry.event(names::EVENT_JOIN).field("member", &name).finish();
            // Re-joining a previously-left name resumes its accounting
            // with the new executor.
            if let Some(m) = members.iter_mut().find(|m| m.name == name) {
                m.active = true;
                m.backend = backend;
            } else {
                let worker = dispatcher.register(format!("{name} [{}]", backend.name()));
                members.push(SearchMember { name, backend, worker, active: true });
            }
        }
        SearchEvent::Leave { name } => {
            let m = members
                .iter_mut()
                .find(|m| m.active && m.name == name)
                .unwrap_or_else(|| panic!("unknown or inactive member {name}"));
            m.active = false;
            telemetry.event(names::EVENT_LEAVE).field("member", &name).finish();
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

    mod search {
        use super::*;
        use crate::simgpu::SimKernelBackend;
        use eks_cracker::LaneBackend;
        use eks_gpusim::device::Device;
        use eks_hashes::HashAlgo;
        use eks_keyspace::{Charset, KeySpace, Order};

        fn space() -> KeySpace {
            KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
        }

        fn targets(words: &[&[u8]]) -> TargetSet {
            let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
            TargetSet::new(HashAlgo::Md5, &ds)
        }

        fn cpu(name: &str) -> (String, Box<dyn Backend>) {
            (name.to_string(), Box::new(LaneBackend::default()))
        }

        fn gpu(name: &str) -> (String, Box<dyn Backend>) {
            (name.to_string(), Box::new(SimKernelBackend::new(Device::geforce_gtx_660())))
        }

        #[test]
        fn heterogeneous_join_mid_search_takes_a_share() {
            let s = space();
            let t = targets(&[b"zzzz"]);
            let r = run_dynamic_search(
                vec![cpu("host-cpu")],
                &s,
                &t,
                s.interval(),
                DynamicSearchConfig { round_keys: 60_000, first_hit_only: false, sched: SchedPolicy::Static },
                vec![ScheduledSearchEvent {
                    before_round: 2,
                    event: SearchEvent::Join { name: "gpu-box".into(), backend: gpu("x").1 },
                }],
            );
            assert_eq!(r.tested, s.size(), "every key tested exactly once");
            assert_eq!(r.hits.len(), 1);
            assert_eq!(r.rebalances, 1);
            let cpu_row =
                r.per_member.iter().find(|(n, _)| n.contains("[lanes")).expect("cpu member");
            let gpu_row =
                r.per_member.iter().find(|(n, _)| n.contains("[simgpu]")).expect("gpu member");
            assert!(cpu_row.1 > 0 && gpu_row.1 > 0, "both backend kinds tested");
            // The tuned GPU rate dwarfs the CPU's, so once joined it
            // takes nearly everything that is left.
            assert!(gpu_row.1 > cpu_row.1, "{:?}", r.per_member);
        }

        #[test]
        fn leave_mid_search_still_covers_everything() {
            let s = space();
            let t = targets(&[b"zzzz"]);
            let r = run_dynamic_search(
                vec![cpu("a"), cpu("b")],
                &s,
                &t,
                s.interval(),
                DynamicSearchConfig { round_keys: 60_000, first_hit_only: false, sched: SchedPolicy::Static },
                vec![ScheduledSearchEvent {
                    before_round: 2,
                    event: SearchEvent::Leave { name: "b".into() },
                }],
            );
            assert_eq!(r.tested, s.size(), "nothing lost on a graceful leave");
            assert_eq!(r.hits.len(), 1);
            // b only worked two rounds: roughly two half-rounds of keys.
            let b = r.per_member.iter().find(|(n, _)| n.starts_with("b ")).unwrap().1;
            assert_eq!(b, 60_000, "two 30k half-rounds before leaving");
        }

        #[test]
        fn first_hit_stops_the_dynamic_search_early() {
            let s = space();
            let t = targets(&[b"bcd"]);
            let r = run_dynamic_search(
                vec![cpu("a"), cpu("b")],
                &s,
                &t,
                s.interval(),
                DynamicSearchConfig { round_keys: 50_000, first_hit_only: true, sched: SchedPolicy::Static },
                vec![],
            );
            assert_eq!(r.hits.len(), 1);
            assert_eq!(r.hits[0].1.as_bytes(), b"bcd");
            assert!(r.tested < s.size(), "stopped before sweeping everything");
        }

        #[test]
        fn observed_dynamic_search_traces_membership() {
            let telemetry = Telemetry::enabled();
            let s = space();
            let t = targets(&[b"zzzz"]);
            let r = run_dynamic_search_observed(
                vec![cpu("a"), cpu("b")],
                &s,
                &t,
                s.interval(),
                DynamicSearchConfig {
                    round_keys: 60_000,
                    first_hit_only: false,
                    sched: SchedPolicy::Static,
                },
                vec![
                    ScheduledSearchEvent {
                        before_round: 1,
                        event: SearchEvent::Leave { name: "b".into() },
                    },
                    ScheduledSearchEvent {
                        before_round: 3,
                        event: SearchEvent::Join { name: "gpu-box".into(), backend: gpu("x").1 },
                    },
                ],
                &telemetry,
            );
            assert_eq!(r.tested, s.size());
            assert_eq!(r.rebalances, 2);
            let jsonl = telemetry.trace_jsonl();
            assert!(jsonl.contains(&format!("\"{}\"", names::EVENT_JOIN)), "{jsonl}");
            assert!(jsonl.contains(&format!("\"{}\"", names::EVENT_LEAVE)), "{jsonl}");
            let text = telemetry.render_prometheus();
            assert!(text.contains(names::REBALANCES), "{text}");
            let line = text
                .lines()
                .find(|l| l.starts_with(names::REBALANCES) && !l.starts_with('#'))
                .expect("rebalance sample");
            let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(value as u32, r.rebalances, "counter reconciles with the report");
        }

        #[test]
        fn stealing_rounds_cover_exactly_once() {
            let s = space();
            let t = targets(&[b"zzzz"]);
            let r = run_dynamic_search(
                vec![cpu("a"), cpu("b")],
                &s,
                &t,
                s.interval(),
                DynamicSearchConfig {
                    round_keys: 60_000,
                    first_hit_only: false,
                    sched: SchedPolicy::Steal,
                },
                vec![],
            );
            assert_eq!(r.tested, s.size(), "stealing neither drops nor doubles keys");
            assert_eq!(r.hits.len(), 1);
            assert_eq!(r.stats.len(), r.per_member.len());
            let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
            let splits: u64 = r.stats.iter().map(|w| w.splits).sum();
            assert_eq!(steals, splits, "every steal splits exactly one victim");
        }
    }
}
