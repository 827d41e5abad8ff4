//! The job service: fair-share rounds of checkpointed leases over one
//! dispatcher fleet.
//!
//! Each scheduling **round** carves a key budget across the runnable
//! jobs by priority ([`crate::sched::carve_budget`] — the paper's
//! scatter proportions at the inter-job level), then dispatches each
//! job's **lease** over the whole fleet with the usual per-worker
//! scatter + steal machinery. After every lease the job's record is
//! persisted atomically, *then* the next lease starts — so a SIGKILL at
//! any instant loses at most the in-flight lease's scan time and never
//! its coverage accounting: the frontier only ever advances together
//! with the credit derived from it (exactly-once crediting; at-most-one
//! lease of rescan).
//!
//! Telemetry gains the `job` label dimension here: per-lease the service
//! flushes `eks_job_keys_tested_total{job=...}` from the same
//! `DispatchReport` whose per-worker totals the dispatcher flushed, so
//! the per-job carve-out always reconciles exactly against the shared
//! worker counters.

use eks_engine::{Backend, DequeLeaf, Dispatcher, IntervalDeques, SchedOptions, SchedPolicy};
use eks_keyspace::Interval;
use eks_telemetry::{names, Telemetry};

use crate::job::{JobError, JobHit, JobId, JobRecord, JobState};
use crate::sched::carve_budget;
use crate::store::JobStore;

/// One worker of the shared fleet: a label (stable across leases and
/// jobs, so worker counters accumulate coherently), a scatter weight
/// (tuned throughput, as in the paper's §VI tuning step), and the
/// backend that scans.
pub struct FleetMember {
    /// Telemetry/worker label.
    pub label: String,
    /// Relative tuned rate for the per-worker scatter.
    pub weight: f64,
    /// The leaf executor.
    pub backend: Box<dyn Backend>,
}

/// The device fleet every job's leases are dispatched onto.
pub struct Fleet {
    members: Vec<FleetMember>,
}

impl Fleet {
    /// A fleet over the given members.
    ///
    /// # Panics
    /// Panics when `members` is empty — a fleet must be able to scan.
    pub fn new(members: Vec<FleetMember>) -> Self {
        assert!(!members.is_empty(), "a fleet needs at least one member");
        Self { members }
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Never true: construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member labels, in slot order.
    pub fn labels(&self) -> Vec<&str> {
        self.members.iter().map(|m| m.label.as_str()).collect()
    }

    /// Scatter weights, in slot order.
    pub fn weights(&self) -> Vec<f64> {
        self.members.iter().map(|m| m.weight).collect()
    }

    /// A device joins the fleet (cluster dynamic membership). Takes
    /// effect at the next lease — in-flight leases keep their partition.
    pub fn join(&mut self, member: FleetMember) {
        self.members.push(member);
    }

    /// A device leaves the fleet. Returns false when no member carries
    /// the label. Leases already dispatched are unaffected; the member
    /// simply receives no further work.
    pub fn leave(&mut self, label: &str) -> bool {
        let before = self.members.len();
        if before == 1 && self.members.iter().any(|m| m.label == label) {
            // Refuse to shrink to an empty fleet; the caller decides
            // whether to stop the service instead.
            return false;
        }
        self.members.retain(|m| m.label != label);
        self.members.len() != before
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Keys leased per round across all jobs (the checkpoint
    /// granularity: smaller rounds persist more often).
    pub round_keys: u128,
    /// Intra-lease scheduling policy.
    pub sched: SchedPolicy,
    /// Chunk size for the policy (fixed size or guided floor).
    pub chunk: u128,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { round_keys: 1 << 16, sched: SchedPolicy::Steal, chunk: 4096 }
    }
}

/// What one scheduling round did.
#[derive(Debug, Default)]
pub struct RoundReport {
    /// Leases dispatched, in dispatch order.
    pub leases: Vec<(JobId, Interval)>,
    /// Keys scanned this round (sum of dispatch reports).
    pub scanned: u128,
    /// Jobs that reached `Completed` this round.
    pub completed: Vec<JobId>,
}

impl RoundReport {
    /// True when no runnable job had work: the service may sleep.
    pub fn is_idle(&self) -> bool {
        self.leases.is_empty()
    }
}

/// The multi-tenant scheduler over one spool and one fleet.
pub struct JobService {
    store: JobStore,
    config: ServiceConfig,
    telemetry: Telemetry,
}

impl JobService {
    /// A service over an open store.
    pub fn new(store: JobStore, config: ServiceConfig) -> Self {
        Self { store, config, telemetry: Telemetry::disabled() }
    }

    /// Attach telemetry (per-job counters + lease events).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// The telemetry handle leases flush through (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Run one fair-share round: carve the budget across runnable jobs,
    /// dispatch one lease per job, checkpoint after each. A non-idle
    /// round runs under a [`names::SPAN_ROUND`] span and bumps the
    /// [`names::ROUNDS`] counter.
    pub fn round(&self, fleet: &Fleet) -> Result<RoundReport, JobError> {
        let mut report = RoundReport::default();
        let mut jobs: Vec<JobRecord> = self
            .store
            .list()?
            .into_iter()
            .filter(|r| r.state.is_runnable() && !r.frontier.is_complete())
            .collect();
        if jobs.is_empty() {
            return Ok(report);
        }
        let span = self.telemetry.span(names::SPAN_ROUND).field("jobs", jobs.len());
        let shares = carve_budget(
            self.config.round_keys,
            &jobs.iter().map(|j| (j.spec.priority, j.remaining())).collect::<Vec<_>>(),
        );
        for (job, share) in jobs.iter_mut().zip(shares) {
            if share == 0 {
                continue;
            }
            self.run_leases(job, share, fleet, &mut report)?;
            if job.state == JobState::Completed {
                report.completed.push(job.id);
            }
        }
        if !report.is_idle() {
            self.telemetry.counter(names::ROUNDS, &[]).inc();
        }
        span.field("keys", report.scanned).finish();
        Ok(report)
    }

    /// Drive rounds until no runnable job has work left. Returns the
    /// number of non-idle rounds.
    pub fn run_until_idle(&self, fleet: &Fleet) -> Result<u64, JobError> {
        let mut rounds = 0;
        loop {
            let report = self.round(fleet)?;
            if report.is_idle() {
                return Ok(rounds);
            }
            rounds += 1;
        }
    }

    /// Dispatch up to `share` keys of one job as leases over the fleet,
    /// persisting the record after every lease (the checkpoint barrier).
    fn run_leases(
        &self,
        job: &mut JobRecord,
        share: u128,
        fleet: &Fleet,
        report: &mut RoundReport,
    ) -> Result<(), JobError> {
        let space = job.spec.space()?;
        let targets = job.spec.targets();
        let mode = job.spec.mode();
        let job_label = job.id.to_string();
        let mut left = share;
        while left > 0 {
            // One lease per contiguous pending run: a fragmented
            // frontier (paused mid-gap) simply yields several leases.
            let Some(lease) = job.frontier.take_work(left) else { break };
            left -= lease.len;

            let dispatcher = Dispatcher::new(&space, &targets, mode)
                .with_telemetry(self.telemetry.clone());
            let leaves: Vec<DequeLeaf<'_>> = fleet
                .members
                .iter()
                .map(|m| DequeLeaf {
                    worker: dispatcher.register(m.label.clone()),
                    backend: m.backend.as_ref(),
                })
                .collect();
            let deques = IntervalDeques::scatter(lease, &fleet.weights());
            dispatcher.run_deques(
                &leaves,
                &deques,
                SchedOptions::for_policy(self.config.sched, self.config.chunk),
            );
            let out = dispatcher.finish();

            let new_hits = out.hits.len() as u64;
            for (id, key, _target) in &out.hits {
                job.hits.push(JobHit { id: *id, key: key.as_bytes().to_vec() });
            }
            if mode.first_hit_only() && !out.hits.is_empty() {
                // The job ends at its lowest-identifier hit: leases are
                // taken front-to-back, so this lease's merged hit is the
                // global first. Credit the exact scanned count; the
                // uncovered tail of the lease is moot.
                job.tested = job.tested.saturating_add(out.tested);
                job.state = JobState::Completed;
            } else {
                // Exhaustive (or hitless) lease: the whole interval was
                // scanned. Coverage advances first; the credit is
                // *derived* from it, so a crash can never double-count.
                job.frontier.complete(lease);
                job.tested = job.frontier.consumed();
                job.state = if job.frontier.is_complete() {
                    JobState::Completed
                } else {
                    JobState::Running
                };
            }

            if self.telemetry.is_enabled() {
                let labels = [("job", job_label.as_str())];
                let tested64 = u64::try_from(out.tested).unwrap_or(u64::MAX);
                self.telemetry.counter(names::JOB_KEYS_TESTED, &labels).add(tested64);
                self.telemetry.counter(names::JOB_LEASES, &labels).inc();
                self.telemetry.counter(names::JOB_HITS, &labels).add(new_hits);
                self.telemetry
                    .gauge(names::JOB_REMAINING_KEYS, &labels)
                    .set(job.remaining() as f64);
                self.telemetry
                    .event(names::EVENT_LEASE)
                    .device(&job_label)
                    .field("start", lease.start)
                    .field("keys", lease.len)
                    .finish();
            }

            // The durability barrier: coverage + credit + hits land
            // atomically before the next lease is taken.
            self.store.save(job)?;
            // Lease boundary: let an attached live plane close a window
            // and run its anomaly pass over this lease's deltas.
            self.telemetry.observe_plane();
            report.leases.push((job.id, lease));
            report.scanned += out.tested;
            if job.state.is_terminal() {
                break;
            }
        }
        Ok(())
    }
}
