//! Multi-tenant cluster entry points: a whole spool of jobs over one
//! dispatch tree, driven by the one real round loop,
//! [`JobService::round`].
//!
//! [`plan_job_fleet`] walks the cluster exactly as the runtime's scatter
//! planning does — one leaf executor per simulated GPU and per CPU
//! worker thread, weighted by tuned throughput (`N_j = N_max · X_j /
//! X_max`) — but instead of pre-assigning one search's interval it
//! yields a persistent [`Fleet`] the job service leases keyspace onto,
//! round after round ([`JobService::run_until_idle`] drains a spool over
//! it). [`run_dynamic_jobs`] is the paper's dynamic network: it
//! interleaves membership events between fair-share rounds, so a node
//! joining or leaving interacts correctly with lease reassignment:
//! membership only changes *between* leases, every lease re-scatters
//! over the then-current members, and coverage accounting lives in the
//! job records — a leaver never takes assigned-but-unscanned keys with
//! it.

use eks_cracker::AutoBackend;
use eks_engine::Backend;
use eks_hashes::HashAlgo;
use eks_jobs::{Fleet, FleetMember, JobError, JobId, JobService};
use eks_telemetry::{names, Telemetry};

use crate::simgpu::SimKernelBackend;
use crate::spec::ClusterNode;
use crate::tuning::tune_cpu;

/// Build the shared job fleet from a cluster description: one member
/// per simulated GPU (label `node/device [simgpu]`) and one per CPU
/// worker thread (all threads of a worker share the `node/cpu
/// [auto:choice]` label, so their credits accumulate per device exactly
/// as in the single-search runtime). Weights are tuned rates for
/// `algo`, the fleet's *reference* algorithm — jobs hashing something
/// else still scan correctly, and stealing absorbs the rate skew.
pub fn plan_job_fleet(root: &ClusterNode, algo: HashAlgo, telemetry: &Telemetry) -> Fleet {
    let mut members = Vec::new();
    collect_members(root, algo, telemetry, &mut members);
    Fleet::new(members)
}

fn collect_members(
    node: &ClusterNode,
    algo: HashAlgo,
    telemetry: &Telemetry,
    out: &mut Vec<FleetMember>,
) {
    for slot in &node.devices {
        let backend = SimKernelBackend::new(slot.device.clone());
        let weight = backend.tuned_rate(algo);
        let label = format!("{}/{} [{}]", node.name, slot.device.name, backend.name());
        if telemetry.is_enabled() {
            telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &label)]).set(weight);
        }
        out.push(FleetMember { label, weight, backend: Box::new(backend) });
    }
    for cpu in &node.cpus {
        let rate = tune_cpu(cpu, algo).achieved_mkeys;
        let backend = AutoBackend::new(telemetry.clone());
        let choice = backend.choice_name(algo);
        let label = format!("{}/{} [auto:{}]", node.name, cpu.name, choice);
        if telemetry.is_enabled() {
            telemetry.gauge(names::DEVICE_RATE_MKEYS, &[("device", &label)]).set(rate);
        }
        // Each thread is its own fleet member (its own deque slot) with
        // an equal slice of the worker's tuned rate; the shared label
        // keeps accounting per device rather than per thread.
        let per_thread = rate / cpu.threads.max(1) as f64;
        let mut backends: Vec<Box<dyn Backend>> = vec![Box::new(backend)];
        for _ in 1..cpu.threads {
            backends.push(Box::new(AutoBackend::new(telemetry.clone())));
        }
        for b in backends {
            out.push(FleetMember { label: label.clone(), weight: per_thread, backend: b });
        }
    }
    for child in &node.children {
        collect_members(child, algo, telemetry, out);
    }
}

/// A fleet membership change during a multi-job run.
pub enum FleetEvent {
    /// A device (or remote node's executor) joins the fleet.
    Join {
        /// The joining member.
        member: FleetMember,
    },
    /// The member carrying this label leaves the fleet.
    Leave {
        /// Label of the leaver.
        label: String,
    },
}

/// A [`FleetEvent`] scheduled before a given fair-share round.
pub struct ScheduledFleetEvent {
    /// The event fires before this round index (0-based).
    pub before_round: u64,
    /// What happens.
    pub event: FleetEvent,
}

/// What a multi-job run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiJobReport {
    /// Fair-share rounds that dispatched at least one lease.
    pub rounds: u64,
    /// Rounds preceded by at least one applied membership change.
    pub rebalances: u64,
    /// Keys scanned across all jobs and rounds.
    pub scanned: u128,
    /// Jobs that reached `Completed`, in completion order.
    pub completed: Vec<JobId>,
}

/// Drive fair-share rounds over a mutable fleet, applying scheduled
/// join/leave events between rounds, until no runnable job has work
/// left.
///
/// Lease reassignment across jobs is automatic: a lease taken after the
/// event re-scatters over the then-current members, and a leaver's
/// unfinished coverage never existed — the job frontier only retires
/// intervals whose dispatch actually completed. A leave that would
/// empty the fleet is refused (the remaining member keeps scanning);
/// re-joining a label simply adds a member back.
pub fn run_dynamic_jobs(
    mut fleet: Fleet,
    service: &JobService,
    events: Vec<ScheduledFleetEvent>,
) -> Result<MultiJobReport, JobError> {
    let telemetry = service.telemetry().clone();
    let rebalance_counter = telemetry.counter(names::REBALANCES, &[]);
    let mut events = events;
    let mut report =
        MultiJobReport { rounds: 0, rebalances: 0, scanned: 0, completed: Vec::new() };
    loop {
        let round = report.rounds;
        let mut changed = false;
        let mut rest = Vec::with_capacity(events.len());
        for scheduled in events {
            if scheduled.before_round != round {
                rest.push(scheduled);
                continue;
            }
            match scheduled.event {
                FleetEvent::Join { member } => {
                    telemetry.event(names::EVENT_JOIN).field("member", &member.label).finish();
                    fleet.join(member);
                    changed = true;
                }
                FleetEvent::Leave { label } => {
                    if fleet.leave(&label) {
                        telemetry.event(names::EVENT_LEAVE).field("member", &label).finish();
                        changed = true;
                    }
                }
            }
        }
        events = rest;
        if changed {
            report.rebalances += 1;
            rebalance_counter.inc();
        }

        let r = service.round(&fleet)?;
        let idle = r.is_idle();
        report.scanned += r.scanned;
        report.completed.extend(r.completed);
        if idle {
            return Ok(report);
        }
        report.rounds += 1;
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use eks_engine::SchedPolicy;
    use eks_gpusim::device::Device;
    use eks_jobs::{JobSpec, JobState, JobStore, ServiceConfig};
    use eks_keyspace::Order;
    use eks_telemetry::parse_prometheus;
    use std::path::PathBuf;

    fn small_net() -> ClusterNode {
        ClusterNode::device_node("A", vec![Device::geforce_gtx_660()], 1e-3).with_cpu("cpu0", 2)
    }

    fn spec(name: &str, word: &[u8], priority: u32) -> JobSpec {
        JobSpec {
            name: name.into(),
            algo: HashAlgo::Md5,
            digest: HashAlgo::Md5.hash(word),
            charset: (b'a'..=b'z').collect(),
            min_len: 1,
            max_len: 3,
            order: Order::FirstCharFastest,
            priority,
            first_hit_only: false,
        }
    }

    /// |lowercase|^1 + ^2 + ^3.
    const SPACE: u128 = 26 + 26 * 26 + 26 * 26 * 26;

    fn tmp_spool(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eks-multijob-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn two_jobs_drain_over_the_cluster_fleet() {
        let dir = tmp_spool("static");
        let store = JobStore::open(&dir).unwrap();
        let a = store.submit(spec("a", b"cat", 1)).unwrap();
        let b = store.submit(spec("b", b"zzz", 1)).unwrap();
        let service = JobService::new(
            store,
            ServiceConfig { round_keys: 8192, ..ServiceConfig::default() },
        );
        let fleet = plan_job_fleet(&small_net(), HashAlgo::Md5, service.telemetry());
        let rounds = service.run_until_idle(&fleet).unwrap();
        assert!(rounds >= 2, "two jobs over {SPACE} keys need several rounds, got {rounds}");
        for (id, word) in [(a.id, &b"cat"[..]), (b.id, b"zzz")] {
            let rec = service.store().load(id).unwrap();
            assert_eq!(rec.state, JobState::Completed);
            assert_eq!(rec.tested, SPACE, "exactly-once coverage for {id}");
            assert!(rec.hits.iter().any(|h| h.key == word), "{id} found its key");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn membership_churn_between_rounds_loses_nothing() {
        for sched in [SchedPolicy::Steal, SchedPolicy::Static] {
            let dir = tmp_spool(&format!("dynamic-{sched:?}"));
            let store = JobStore::open(&dir).unwrap();
            let a = store.submit(spec("a", b"dog", 1)).unwrap();
            let b = store.submit(spec("b", b"zzz", 2)).unwrap();
            let telemetry = Telemetry::enabled();
            let config = ServiceConfig { round_keys: 8192, sched, ..ServiceConfig::default() };
            let service = JobService::new(store, config).with_telemetry(telemetry.clone());
            let fleet = plan_job_fleet(&small_net(), HashAlgo::Md5, &telemetry);
            let joiner = || {
                let backend = SimKernelBackend::new(Device::geforce_gtx_550_ti());
                let weight = backend.tuned_rate(HashAlgo::Md5);
                FleetMember {
                    label: "B/gtx550ti [simgpu]".into(),
                    weight,
                    backend: Box::new(backend),
                }
            };
            let events = vec![
                ScheduledFleetEvent {
                    before_round: 1,
                    event: FleetEvent::Join { member: joiner() },
                },
                ScheduledFleetEvent {
                    before_round: 3,
                    event: FleetEvent::Leave { label: "B/gtx550ti [simgpu]".into() },
                },
            ];
            let report = run_dynamic_jobs(fleet, &service, events).unwrap();
            assert_eq!(report.rebalances, 2, "{sched:?}: join and leave each rebalance");
            assert_eq!(report.scanned, 2 * SPACE, "{sched:?}: both keyspaces scanned once");
            assert_eq!(report.completed.len(), 2);
            for id in [a.id, b.id] {
                let rec = service.store().load(id).unwrap();
                assert_eq!(rec.state, JobState::Completed);
                assert_eq!(rec.tested, SPACE, "{sched:?}: exactly-once coverage for {id}");
            }

            // Membership churn is traced and counted.
            let jsonl = telemetry.trace_jsonl();
            for event in [names::EVENT_JOIN, names::EVENT_LEAVE] {
                assert!(jsonl.contains(&format!("\"{event}\"")), "{event} missing: {jsonl}");
            }
            let samples = parse_prometheus(&telemetry.render_prometheus()).unwrap();
            let rebalances: f64 =
                samples.iter().filter(|s| s.name == names::REBALANCES).map(|s| s.value).sum();
            assert_eq!(rebalances as u64, report.rebalances);
            // Static leases give the joiner its own share; under stealing
            // a starved joiner thread can see that share stolen, so its
            // key count would depend on the OS scheduler.
            if sched == SchedPolicy::Static {
                let joiner: f64 = samples
                    .iter()
                    .filter(|s| s.name == names::KEYS_TESTED)
                    .filter(|s| s.label("worker") == Some("B/gtx550ti [simgpu]"))
                    .map(|s| s.value)
                    .sum();
                assert!(joiner > 0.0, "the joiner took a share");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn leave_that_would_empty_the_fleet_is_refused() {
        let telemetry = Telemetry::disabled();
        let net = ClusterNode::device_node("A", vec![Device::geforce_gtx_660()], 1e-3);
        let mut fleet = plan_job_fleet(&net, HashAlgo::Md5, &telemetry);
        assert_eq!(fleet.len(), 1);
        let label = fleet.labels()[0].to_string();
        assert!(!fleet.leave(&label), "last member must stay");
        assert_eq!(fleet.len(), 1);
    }
}
