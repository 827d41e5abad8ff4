//! A round-based threaded runtime: the paper's periodic scatter/gather
//! loop executed for real.
//!
//! Unlike [`crate::runtime`], which splits the whole interval once, this
//! master dispatches bounded rounds, gathers after each one, checks the
//! stop condition (first hit), and — when a worker is marked lost — leaves
//! its round assignment pending so a later round re-covers it. This is
//! the executable counterpart of the DES round model and of the fault
//! path; every identifier is still tested exactly once.
//!
//! Workers are [`eks_engine::Backend`] leaves (a [`SimKernelBackend`] per
//! device, a [`LaneBackend`] per CPU worker) and every scan runs through
//! the one [`Dispatcher`] core, which owns the stop flag, the hit merge
//! and the per-device accounting; this module only keeps the round
//! bookkeeping the dispatcher does not know about: the [`Checkpoint`] of
//! un-covered intervals, the rotation, and the requeue counters.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use eks_cracker::resume::Checkpoint;
use eks_cracker::target::TargetSet;
use eks_cracker::{LaneBackend, ObservedLaneBackend};
use eks_engine::{
    Backend, DequeLeaf, Dispatcher, IntervalDeques, ScanMode, ScanReport, SchedOptions,
    SchedPolicy, WorkerId, WorkerStats,
};
use eks_keyspace::{Interval, Key, KeySpace};
use eks_telemetry::{names, Telemetry};

use crate::runtime::cluster_efficiency_pct;
use crate::simgpu::SimKernelBackend;
use crate::spec::ClusterNode;
use crate::tuning::tune_cpu;

/// Guided chunk floor inside a stealing round: one poll quantum.
const ROUND_CHUNK: u128 = eks_engine::POLL_CHUNK;

/// Configuration of the round-based master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConfig {
    /// Keys per dispatch round (across the whole cluster).
    pub round_keys: u128,
    /// Stop the search at the first hit.
    pub first_hit_only: bool,
    /// Drop (do not scan) the assignment of the named worker index every
    /// round — fault injection for tests; `None` in normal operation.
    pub lose_worker: Option<usize>,
    /// How workers are scheduled *within* a round:
    /// [`SchedPolicy::Static`] keeps the classic one-scan-per-assignment
    /// shape, the stealing policies let drained workers rebalance the
    /// round's remaining intervals.
    pub sched: SchedPolicy,
}

/// Result of a round-based search.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Hits in identifier order.
    pub hits: Vec<(u128, Key, usize)>,
    /// Candidates tested.
    pub tested: u128,
    /// Dispatch rounds executed.
    pub rounds: u32,
    /// Keys requeued after lost workers.
    pub requeued: u128,
    /// Per-device `(label, tested)`.
    pub per_device: Vec<(String, u128)>,
    /// Full per-device scheduler stats, same order as `per_device`.
    pub stats: Vec<WorkerStats>,
}

/// A flattened cluster worker: its display label, tuned weight, and the
/// backend that executes its assignments.
struct Member {
    label: String,
    weight: f64,
    backend: Box<dyn Backend>,
}

/// Flatten the tree into weighted workers (the round master treats the
/// tree as its leaf multiset; hierarchy only matters for latency, which
/// real threads on one host do not exhibit).
fn members(root: &ClusterNode, algo: eks_hashes::HashAlgo, telemetry: &Telemetry) -> Vec<Member> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        for slot in &n.devices {
            let backend = SimKernelBackend::new(slot.device.clone());
            out.push(Member {
                label: format!("{}/{} [{}]", n.name, slot.device.name, backend.name()),
                weight: backend.tuned_rate(algo),
                backend: Box::new(backend),
            });
        }
        for cpu in &n.cpus {
            let lanes = LaneBackend::default();
            // The observed batch path routes fill/hash timing and
            // prefilter counters into the shared registry.
            let backend: Box<dyn Backend> = if telemetry.is_enabled() {
                Box::new(ObservedLaneBackend::new(lanes.lanes, telemetry.clone()))
            } else {
                Box::new(lanes)
            };
            out.push(Member {
                label: format!("{}/{} [{}]", n.name, cpu.name, lanes.name()),
                weight: tune_cpu(cpu, algo).achieved_mkeys,
                backend,
            });
        }
        stack.extend(n.children.iter());
    }
    out
}

/// Run a round-based search over `interval`.
///
/// # Panics
/// Panics when the cluster has no workers or `round_keys == 0`.
pub fn run_rounds(
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    config: RoundConfig,
) -> RoundReport {
    run_rounds_observed(root, space, targets, interval, config, &Telemetry::disabled())
}

/// [`run_rounds`] with telemetry attached: every dispatch round runs
/// under a [`names::SPAN_ROUND`] span and bumps the
/// [`names::ROUNDS`] counter, every member publishes its tuned rate,
/// and the final whole-network efficiency lands in the
/// [`names::CLUSTER_EFFICIENCY_PCT`] gauge.
///
/// # Panics
/// Panics when the cluster has no workers or `round_keys == 0`.
pub fn run_rounds_observed(
    root: &ClusterNode,
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    config: RoundConfig,
    telemetry: &Telemetry,
) -> RoundReport {
    assert!(config.round_keys > 0);
    let members = members(root, targets.algo(), telemetry);
    assert!(!members.is_empty(), "cluster has no workers");
    let weights: Vec<f64> = members.iter().map(|m| m.weight).collect();
    if telemetry.is_enabled() {
        for m in &members {
            telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &m.label)]).set(m.weight);
        }
    }
    let rounds_counter = telemetry.counter(names::ROUNDS, &[]);

    let dispatcher = Dispatcher::new(space, targets, ScanMode::from_first_hit(config.first_hit_only))
        .with_telemetry(telemetry.clone());
    let ids: Vec<WorkerId> = members.iter().map(|m| dispatcher.register(&m.label)).collect();

    let mut checkpoint = Checkpoint::new(interval.intersect(&space.interval()));
    let mut requeued: u128 = 0;
    let mut rounds: u32 = 0;

    while let Some(round_iv) = checkpoint.take_work(config.round_keys) {
        rounds += 1;
        rounds_counter.inc();
        // Dropped at the end of this iteration (also on `continue` and
        // `break`), so the span covers scatter, scan, and gather.
        let _round_span =
            telemetry.span(names::SPAN_ROUND).field("round", rounds).field("keys", round_iv.len);
        // Rotate the part→worker mapping every round so a persistently
        // silent worker cannot pin the same leading interval forever
        // (requeued work lands at the front of the next round); the split
        // weights rotate with it so each slice matches its worker's speed.
        let worker_of = |i: usize| (i + rounds as usize) % members.len();
        let rotated: Vec<f64> = (0..members.len()).map(|i| weights[worker_of(i)]).collect();
        let parts = round_iv.split_weighted(&rotated);

        // A lost worker's assignment goes straight back to the
        // checkpoint: it stays pending and is re-dispatched next round.
        let mut live: Vec<usize> = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            if Some(worker_of(i)) == config.lose_worker {
                requeued += part.len;
                checkpoint.requeue(*part);
            } else {
                live.push(i);
            }
        }

        if config.sched.steals() {
            // Stealing round: every live assignment becomes an interval
            // deque its worker owns; drained workers rebalance the
            // round's tail instead of idling at the gather barrier.
            if !live.is_empty() {
                let deques =
                    IntervalDeques::assign(live.iter().map(|&i| parts[i]).collect());
                let leaves: Vec<DequeLeaf<'_>> = live
                    .iter()
                    .map(|&i| DequeLeaf {
                        worker: ids[worker_of(i)],
                        backend: members[worker_of(i)].backend.as_ref(),
                    })
                    .collect();
                dispatcher.run_deques(
                    &leaves,
                    &deques,
                    SchedOptions::for_policy(config.sched, ROUND_CHUNK),
                );
                if config.first_hit_only && dispatcher.any_hits() {
                    break; // the search ends here; no completion bookkeeping needed
                }
                // An uncancelled round drains every deque: the live
                // assignments are fully covered (moves never duplicate).
                for &i in &live {
                    checkpoint.complete(parts[i]);
                }
            }
            // Round boundary: let an attached live plane close a window
            // and run its anomaly pass over this round's deltas.
            telemetry.observe_plane();
            continue;
        }

        // Static round: one scan per assignment; the dispatcher gathers
        // hits and accounting as each scan merges, the scope gathers the
        // reports the checkpoint needs.
        let mut results: Vec<(usize, ScanReport)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &i in &live {
                let part = parts[i];
                let member = &members[worker_of(i)];
                let id = ids[worker_of(i)];
                let dispatcher = &dispatcher;
                handles.push(scope.spawn(move || {
                    // Tested counts stay a contiguous prefix of the part,
                    // which checkpoint completion below relies on.
                    (i, dispatcher.scan_as(id, member.backend.as_ref(), part))
                }));
            }
            results =
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();
        });

        // Gather: account completed intervals.
        for (i, out) in &results {
            let part = &parts[*i];
            // With first-hit cancellation a worker may stop early; only
            // the scanned prefix counts as complete.
            let scanned = Interval::new(part.start, out.tested.min(part.len));
            checkpoint.complete(scanned);
            // A cancelled worker (another thread hit first) leaves an
            // unscanned suffix; with first-hit we stop anyway, but
            // requeue keeps the accounting exact.
            let rest = Interval::new(part.start + scanned.len, part.len - scanned.len);
            checkpoint.requeue(rest);
        }
        // Round boundary: let an attached live plane close a window and
        // run its anomaly pass over this round's deltas.
        telemetry.observe_plane();

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
    RoundReport {
        hits: report.hits,
        tested: report.tested,
        rounds,
        requeued,
        per_device: report.per_worker,
        stats: report.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::paper_network;
    use eks_hashes::HashAlgo;
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn rounds_crack_and_stop_early() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"bcd"]);
        let r = run_rounds(
            &net,
            &s,
            &t,
            s.interval(),
            RoundConfig { round_keys: 50_000, first_hit_only: true, lose_worker: None, sched: SchedPolicy::Static },
        );
        assert_eq!(r.hits[0].1.as_bytes(), b"bcd");
        assert!(r.tested < s.size(), "stopped before sweeping everything");
    }

    #[test]
    fn full_sweep_in_rounds_covers_exactly_once() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_rounds(
            &net,
            &s,
            &t,
            s.interval(),
            RoundConfig { round_keys: 60_000, first_hit_only: false, lose_worker: None, sched: SchedPolicy::Static },
        );
        assert_eq!(r.tested, s.size());
        assert_eq!(r.hits.len(), 1);
        assert!(r.rounds >= (s.size() / 60_000) as u32);
    }

    #[test]
    fn lost_worker_assignments_are_requeued_and_recovered() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        // Worker 0 never reports; the split is positional, so position 0
        // of every round is lost — the requeued intervals land at the
        // front of the next round, are re-split across all positions, and
        // drain through the rotation.
        let r = run_rounds(
            &net,
            &s,
            &t,
            s.interval(),
            RoundConfig { round_keys: 60_000, first_hit_only: false, lose_worker: Some(0), sched: SchedPolicy::Static },
        );
        assert_eq!(r.tested, s.size(), "lost work is eventually covered");
        assert!(r.requeued > 0);
        assert_eq!(r.hits.len(), 1, "the key in a once-lost interval is still found");
    }

    #[test]
    fn work_split_tracks_throughput() {
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_rounds(
            &net,
            &s,
            &t,
            s.interval(),
            RoundConfig { round_keys: 100_000, first_hit_only: false, lose_worker: None, sched: SchedPolicy::Static },
        );
        let share = |pat: &str| {
            r.per_device
                .iter()
                .find(|(n, _)| n.contains(pat))
                .map(|(_, c)| *c)
                .expect("device present")
        };
        assert!(share("660") > 5 * share("8600M"));
    }

    #[test]
    fn observed_rounds_count_rounds_and_publish_efficiency() {
        let telemetry = Telemetry::enabled();
        let net = paper_network(1e-3);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_rounds_observed(
            &net,
            &s,
            &t,
            s.interval(),
            RoundConfig {
                round_keys: 100_000,
                first_hit_only: false,
                lose_worker: None,
                sched: SchedPolicy::Static,
            },
            &telemetry,
        );
        assert_eq!(r.tested, s.size());
        let text = telemetry.render_prometheus();
        assert!(text.contains(names::ROUNDS), "{text}");
        assert!(text.contains(names::CLUSTER_EFFICIENCY_PCT), "{text}");
        // The ROUNDS counter reconciles exactly with the report.
        let line = text
            .lines()
            .find(|l| l.starts_with(names::ROUNDS) && !l.starts_with('#'))
            .expect("rounds sample");
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(value as u32, r.rounds);
        assert!(telemetry.trace_jsonl().contains("\"round\""), "round spans recorded");
    }

    #[test]
    fn round_workers_run_backend_labelled_leaves() {
        let net = paper_network(1e-3).with_cpu("host-cpu", 2);
        let s = space();
        let t = targets(&[b"zzzz"]);
        let r = run_rounds(
            &net,
            &s,
            &t,
            s.interval(),
            RoundConfig { round_keys: 80_000, first_hit_only: false, lose_worker: None, sched: SchedPolicy::Static },
        );
        assert_eq!(r.tested, s.size());
        assert!(r.per_device.iter().any(|(n, _)| n.contains("[simgpu]")));
        assert!(r.per_device.iter().any(|(n, _)| n.contains("[lanes")));
    }
}
