//! The four workloads as closed loops with one caller, each driving the
//! library entry point the `eks` CLI calls, with the CLI's defaults and
//! `nproc` worker threads. Every search is exhaustive (`--all`) and every
//! result is checked against the planted keys.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use eks_cluster::{parse_topology, run_cluster_search_retuned, ClusterNode, ClusterSearchResult};
use eks_cracker::{
    cpu_backend, crack_parallel_backend, crack_space_parallel, AutoBackend, Lanes, ParallelConfig,
    TargetSet,
};
use eks_engine::{Backend, SchedPolicy};
use eks_hashes::HashAlgo;
use eks_jobs::{Fleet, FleetMember, JobId, JobService, JobSpec, JobState, JobStore, ServiceConfig};
use eks_keyspace::{Charset, Interval, Key, KeySpace, MaskSpace, Order};
use eks_telemetry::Telemetry;

use crate::host::process_cpu_ns;
use crate::inputs::{self, Workload};
use crate::trace::{maybe_time, Kind, SpanLog, Traced};

/// Correctness tally behind `miss_frac`: planted keys and jobs attempted,
/// and every failure (a missing or misreported planted key, a spurious
/// hit, an unfinished job, a coverage mismatch).
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Planted keys plus jobs.
    pub attempted: u64,
    /// Failures of any kind.
    pub failed: u64,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("CHECK FAILED: {what}");
    }

    /// Every planted identifier must be reported once with its own key
    /// and a target whose digest that key produces; nothing else may hit.
    fn hits(
        &mut self,
        label: &str,
        hits: &[(u128, Key, usize)],
        planted: &[u128],
        key_at: impl Fn(u128) -> Key,
        targets: &TargetSet,
    ) {
        self.attempted += planted.len() as u64;
        for id in planted {
            if !hits.iter().any(|h| h.0 == *id) {
                self.fail(format!("{label}: planted identifier {id} not reported"));
            }
        }
        for (id, key, t) in hits {
            if !planted.contains(id) {
                self.fail(format!("{label}: spurious hit {key} at identifier {id}"));
            } else if *key != key_at(*id)
                || targets.digest(*t) != targets.algo().hash_long(key.as_bytes()).as_slice()
            {
                self.fail(format!(
                    "{label}: identifier {id} reported with the wrong key or target"
                ));
            }
        }
    }

    /// Coverage: an exhaustive search tests exactly its interval.
    fn tested(&mut self, label: &str, got: u128, want: u128) {
        if got != want {
            self.fail(format!("{label}: tested {got} keys, expected {want}"));
        }
    }

    /// Fold another tally in.
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Wall and CPU nanoseconds of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_nanos() as u64;
    (out, wall, process_cpu_ns() - cpu0)
}

/// One unit of a closed loop: a search, or a whole job-service pass.
#[derive(Debug, Default, Clone)]
pub struct Unit {
    /// Keys tested.
    pub keys: u128,
    /// Wall nanoseconds.
    pub wall_ns: u64,
    /// Process CPU nanoseconds.
    pub cpu_ns: u64,
    /// Wall time of each round, in milliseconds: the search itself, or
    /// each `JobService::round` call.
    pub rounds_ms: Vec<f64>,
}

/// What one job-service round did.
#[derive(Debug, Clone)]
pub struct RoundRec {
    /// Index of the fleet that ran it.
    pub fleet: usize,
    /// Wall nanoseconds.
    pub wall_ns: u64,
    /// Keys scanned.
    pub keys: u128,
    /// Leases, in dispatch order.
    pub leases: Vec<(JobId, Interval)>,
    /// True when a job completed in this round.
    pub completed: bool,
}

/// One whole jobs-mixed pass.
#[derive(Debug, Clone)]
pub struct JobsPass {
    /// Totals.
    pub unit: Unit,
    /// Every non-idle round.
    pub rounds: Vec<RoundRec>,
    /// Priority of each job.
    pub priorities: Vec<(JobId, u32)>,
    /// Median `JobStore::list` and `JobStore::save` milliseconds, when
    /// probed.
    pub store_ms: Option<(f64, f64)>,
}

/// The shared state of a workload's loop.
pub struct Runner {
    /// The workload.
    pub w: Workload,
    seed: u64,
    threads: usize,
    space7: KeySpace,
    mask: MaskSpace,
    tenant_space: KeySpace,
    net: ClusterNode,
    tmp: PathBuf,
    /// Correctness tally over everything run so far.
    pub checks: Checks,
}

/// Keys per cluster CPU-leaf sample when it runs alone.
const CLUSTER_CPU_LEAF_KEYS: u128 = inputs::CLUSTER_ROUND_KEYS;
/// Keys per cluster simulated-GPU-leaf sample when it runs alone.
const CLUSTER_GPU_LEAF_KEYS: u128 = inputs::CLUSTER_ROUND_KEYS / 4;

/// The `eks job run` default fleet: `threads` lanes8 workers with equal
/// weights, each wrapped for tracing when a log is given.
pub fn host_fleet(threads: usize, log: Option<&Arc<SpanLog>>) -> Fleet {
    let members = (0..threads)
        .map(|i| {
            let backend = cpu_backend(Lanes::L8);
            let backend: Box<dyn Backend> = match log {
                Some(log) => Box::new(Traced::new(backend, i, log.clone())),
                None => backend,
            };
            FleetMember {
                label: format!("host/cpu{i} [lanes8]"),
                weight: 1.0,
                backend,
            }
        })
        .collect();
    Fleet::new(members)
}

/// The auto-tuned backend, wrapped for tracing when a log is given.
pub fn auto_backend(log: Option<&Arc<SpanLog>>) -> Box<dyn Backend> {
    let auto = Box::new(AutoBackend::new(Telemetry::disabled()));
    match log {
        Some(log) => Box::new(Traced::new(auto, 0, log.clone())),
        None => auto,
    }
}

fn md5_target(key: &Key) -> TargetSet {
    TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash_long(key.as_bytes())])
}

fn tenant_spec(t: &inputs::Tenant, space: &KeySpace) -> JobSpec {
    JobSpec {
        name: t.name.into(),
        algo: t.algo,
        digest: t.algo.hash_long(space.key_at(t.planted).as_bytes()),
        charset: Charset::lowercase().symbols().to_vec(),
        min_len: 1,
        max_len: inputs::TENANT_MAX_LEN,
        order: Order::FirstCharFastest,
        priority: t.priority,
        first_hit_only: false,
    }
}

impl Runner {
    /// State for `w` with `threads` workers; job spools go under `tmp`.
    pub fn new(w: Workload, seed: u64, threads: usize, tmp: &Path) -> Self {
        Self {
            w,
            seed,
            threads,
            space7: inputs::lower7(),
            mask: inputs::mask_space(),
            tenant_space: inputs::tenant_space(),
            net: parse_topology(inputs::TOPOLOGY, 0.0).expect("valid topology"),
            tmp: tmp.to_path_buf(),
            checks: Checks::default(),
        }
    }

    /// Run round/pass `r` of the workload. With a log, the backends the
    /// benchmark builds are wrapped and the call is recorded as a span.
    pub fn unit(&mut self, r: u64, log: Option<&Arc<SpanLog>>) -> Unit {
        match self.w {
            Workload::CrackMd5 => self.crack_md5(r, log),
            Workload::CrackMask => self.crack_mask(r, log),
            Workload::JobsMixed => {
                let fleet = host_fleet(self.threads, log);
                self.jobs_pass(r, &[&fleet], log, false).unit
            }
            Workload::ClusterHetero => self.cluster(r, log).1,
        }
    }

    /// `eks crack --backend auto --all`: `crack_parallel_backend`.
    pub fn crack_md5(&mut self, r: u64, log: Option<&Arc<SpanLog>>) -> Unit {
        let s = inputs::planted_search(self.w, self.seed, r, inputs::MD5_ROUND_KEYS);
        let targets = md5_target(&self.space7.key_at(s.planted));
        let backend = auto_backend(log);
        let config = ParallelConfig {
            first_hit_only: false,
            ..ParallelConfig::for_threads(self.threads)
        };
        let (report, wall_ns, cpu_ns) = timed(|| {
            maybe_time(log, Kind::Call, || {
                crack_parallel_backend(&self.space7, &targets, s.interval, backend.as_ref(), config)
            })
        });
        let label = format!("crack-md5 round {r}");
        self.checks.hits(
            &label,
            &report.hits,
            &[s.planted],
            |id| self.space7.key_at(id),
            &targets,
        );
        self.checks.tested(&label, report.tested, s.interval.len);
        Unit {
            keys: report.tested,
            wall_ns,
            cpu_ns,
            rounds_ms: vec![wall_ns as f64 / 1e6],
        }
    }

    /// `eks crack --mask ?u?l?d?d?d --all`: `crack_space_parallel`.
    pub fn crack_mask(&mut self, r: u64, log: Option<&Arc<SpanLog>>) -> Unit {
        let planted = inputs::mask_planted(self.seed, r);
        let targets = md5_target(&self.mask.key_at(planted));
        let config = ParallelConfig {
            threads: self.threads,
            chunk: 1 << 12,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let (report, wall_ns, cpu_ns) = timed(|| {
            maybe_time(log, Kind::Call, || {
                crack_space_parallel(&self.mask, &targets, config)
            })
        });
        let label = format!("crack-mask round {r}");
        self.checks.hits(
            &label,
            &report.hits,
            &[planted],
            |id| self.mask.key_at(id),
            &targets,
        );
        self.checks.tested(&label, report.tested, self.mask.size());
        Unit {
            keys: report.tested,
            wall_ns,
            cpu_ns,
            rounds_ms: vec![wall_ns as f64 / 1e6],
        }
    }

    /// `eks cluster --topology "A(cpu:1, 660)" --all` (static schedule):
    /// `run_cluster_search_retuned`.
    pub fn cluster(&mut self, r: u64, log: Option<&Arc<SpanLog>>) -> (ClusterSearchResult, Unit) {
        let s = inputs::planted_search(self.w, self.seed, r, inputs::CLUSTER_ROUND_KEYS);
        let targets = md5_target(&self.space7.key_at(s.planted));
        let (result, wall_ns, cpu_ns) = timed(|| {
            maybe_time(log, Kind::Call, || {
                run_cluster_search_retuned(
                    &self.net,
                    &self.space7,
                    &targets,
                    s.interval,
                    false,
                    SchedPolicy::Static,
                    None,
                    &Telemetry::disabled(),
                )
            })
        });
        let label = format!("cluster-hetero round {r}");
        self.checks.hits(
            &label,
            &result.hits,
            &[s.planted],
            |id| self.space7.key_at(id),
            &targets,
        );
        self.checks.tested(&label, result.tested, s.interval.len);
        let per_device: u128 = result.per_device.iter().map(|(_, n)| n).sum();
        self.checks.tested(
            &format!("{label} per_device sum"),
            per_device,
            s.interval.len,
        );
        let unit = Unit {
            keys: result.tested,
            wall_ns,
            cpu_ns,
            rounds_ms: vec![wall_ns as f64 / 1e6],
        };
        (result, unit)
    }

    /// `eks job run` over a fresh spool: submit the three tenants of pass
    /// `pass`, then call `JobService::round` until a round is idle, the
    /// way `run_until_idle` loops. Round `i` runs on `fleets[i % len]`.
    pub fn jobs_pass(
        &mut self,
        pass: u64,
        fleets: &[&Fleet],
        log: Option<&Arc<SpanLog>>,
        probe_store: bool,
    ) -> JobsPass {
        let dir = self.tmp.join(format!("spool-{pass}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).expect("spool directory can be created");
        let tenants = inputs::tenants(self.seed, pass);
        let mut priorities = Vec::new();
        for t in &tenants {
            let rec = store
                .submit(tenant_spec(t, &self.tenant_space))
                .expect("submit");
            priorities.push((rec.id, t.priority));
        }
        let service = JobService::new(store, ServiceConfig::default());
        let mut rounds: Vec<RoundRec> = Vec::new();
        let (_, wall_ns, cpu_ns) = timed(|| loop {
            let fleet = rounds.len() % fleets.len();
            let t0 = Instant::now();
            let report = maybe_time(log, Kind::Round, || {
                service.round(fleets[fleet]).expect("job round")
            });
            let wall_ns = t0.elapsed().as_nanos() as u64;
            if report.is_idle() {
                break;
            }
            rounds.push(RoundRec {
                fleet,
                wall_ns,
                keys: report.scanned,
                leases: report.leases,
                completed: !report.completed.is_empty(),
            });
        });
        let records = service.store().list().expect("list spool");
        let size = self.tenant_space.size();
        for t in &tenants {
            let label = format!("jobs-mixed pass {pass} job {}", t.name);
            let Some(rec) = records.iter().find(|r| r.spec.name == t.name) else {
                self.checks.attempted += 2;
                self.checks.fail(format!("{label}: record missing"));
                self.checks
                    .fail(format!("{label}: planted key not reported"));
                continue;
            };
            self.checks.attempted += 1;
            if rec.state != JobState::Completed || rec.tested != size {
                self.checks.fail(format!(
                    "{label}: {} with {} of {size} keys tested",
                    rec.state.name(),
                    rec.tested
                ));
            }
            let hits: Vec<(u128, Key, usize)> = rec
                .hits
                .iter()
                .map(|h| (h.id, Key::from_bytes(&h.key), 0))
                .collect();
            let targets = rec.spec.targets();
            self.checks.hits(
                &label,
                &hits,
                &[t.planted],
                |id| self.tenant_space.key_at(id),
                &targets,
            );
        }
        let store_ms = probe_store.then(|| store_probe(service.store()));
        let _ = std::fs::remove_dir_all(&dir);
        let keys = rounds.iter().map(|r| r.keys).sum();
        let rounds_ms = rounds.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
        JobsPass {
            unit: Unit {
                keys,
                wall_ns,
                cpu_ns,
                rounds_ms,
            },
            rounds,
            priorities,
            store_ms,
        }
    }

    /// Each cluster-hetero leaf alone, in a one-leaf topology, on a slice
    /// of round `r`'s interval: `(keys, wall ns)` for the CPU leaf and for
    /// the simulated GTX 660.
    pub fn cluster_leaves(&self, r: u64) -> [(u128, u64); 2] {
        let s = inputs::planted_search(self.w, self.seed, r, inputs::CLUSTER_ROUND_KEYS);
        let targets = md5_target(&self.space7.key_at(s.planted));
        [
            ("A(cpu:1)", CLUSTER_CPU_LEAF_KEYS),
            ("A(660)", CLUSTER_GPU_LEAF_KEYS),
        ]
        .map(|(topology, keys)| {
            let net = parse_topology(topology, 0.0).expect("valid topology");
            let slice = Interval::new(s.interval.start, keys);
            let (out, wall, _) = timed(|| {
                run_cluster_search_retuned(
                    &net,
                    &self.space7,
                    &targets,
                    slice,
                    false,
                    SchedPolicy::Static,
                    None,
                    &Telemetry::disabled(),
                )
            });
            (out.tested, wall)
        })
    }
}

/// Median milliseconds of `JobStore::list` and of `JobStore::save` (of
/// the first record) on a finished spool.
fn store_probe(store: &JobStore) -> (f64, f64) {
    const REPS: usize = 21;
    let time_ms = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        crate::stats::median(&samples).expect("samples")
    };
    let first = store.list().expect("list spool").remove(0);
    let list = time_ms(&mut || {
        black_box(store.list().expect("list spool"));
    });
    let save = time_ms(&mut || store.save(&first).expect("save record"));
    (list, save)
}

/// Cold set-up timings of one workload, measured in a fresh process.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Start to the first scanned key (see [`setup_child`]).
    pub setup_s: f64,
    /// The first `AutoBackend::choice_name(Md5)` (crack-md5 only).
    pub auto_tune_s: f64,
    /// `run_cluster_search_retuned` on an empty interval (cluster only).
    pub plan_s: f64,
}

/// Set a workload up from nothing, as a fresh `eks` process would, and
/// time it up to the first scanned key:
/// * crack-md5: build the space and target, construct the auto backend
///   and run its tuning race, start the dispatcher — up to the first
///   `scan` entry, seen through a [`Traced`] wrapper;
/// * crack-mask: parse the mask and build the target set (the generic
///   path has no tuning step and no backend to wrap);
/// * jobs-mixed: create the spool, submit the three jobs, build the
///   fleet and run the first round — up to its first `scan` entry;
/// * cluster-hetero: build the space and target and plan the cluster
///   (device tuning, CPU tuning, the scatter) by running the search on
///   an empty interval.
///
/// Must run in a process of its own: the tuning results are cached in
/// process-wide statics.
pub fn setup_child(w: Workload, seed: u64, threads: usize, tmp: &Path) -> SetupTimes {
    let log = SpanLog::new();
    let first_scan = |log: &SpanLog| {
        let spans = log.take();
        let start = spans
            .iter()
            .filter(|s| s.kind == Kind::Scan)
            .map(|s| s.start_ns)
            .min();
        start.expect("the set-up run scanned") as f64 / 1e9
    };
    let mut times = SetupTimes::default();
    match w {
        Workload::CrackMd5 => {
            let space = inputs::lower7();
            let s = inputs::planted_search(w, seed, 0, inputs::MD5_ROUND_KEYS);
            let targets = md5_target(&space.key_at(s.planted));
            let auto = AutoBackend::new(Telemetry::disabled());
            let t0 = log.now_ns();
            black_box(auto.choice_name(HashAlgo::Md5));
            times.auto_tune_s = (log.now_ns() - t0) as f64 / 1e9;
            let traced = Traced::new(Box::new(auto), 0, log.clone());
            let config = ParallelConfig {
                first_hit_only: false,
                ..ParallelConfig::for_threads(threads)
            };
            let first = Interval::new(s.interval.start, 1 << 16);
            crack_parallel_backend(&space, &targets, first, &traced, config);
            times.setup_s = first_scan(&log);
        }
        Workload::CrackMask => {
            let mask = inputs::mask_space();
            black_box(md5_target(&mask.key_at(inputs::mask_planted(seed, 0))));
            times.setup_s = log.now_ns() as f64 / 1e9;
        }
        Workload::JobsMixed => {
            let space = inputs::tenant_space();
            let dir = tmp.join("setup-spool");
            let store = JobStore::open(&dir).expect("spool directory can be created");
            for t in &inputs::tenants(seed, 0) {
                store.submit(tenant_spec(t, &space)).expect("submit");
            }
            let fleet = host_fleet(threads, Some(&log));
            let service = JobService::new(store, ServiceConfig::default());
            service.round(&fleet).expect("job round");
            times.setup_s = first_scan(&log);
            let _ = std::fs::remove_dir_all(&dir);
        }
        Workload::ClusterHetero => {
            let space = inputs::lower7();
            let s = inputs::planted_search(w, seed, 0, inputs::CLUSTER_ROUND_KEYS);
            let targets = md5_target(&space.key_at(s.planted));
            let net = parse_topology(inputs::TOPOLOGY, 0.0).expect("valid topology");
            let t0 = log.now_ns();
            run_cluster_search_retuned(
                &net,
                &space,
                &targets,
                Interval::new(s.interval.start, 0),
                false,
                SchedPolicy::Static,
                None,
                &Telemetry::disabled(),
            );
            let t1 = log.now_ns();
            times.plan_s = (t1 - t0) as f64 / 1e9;
            times.setup_s = t1 as f64 / 1e9;
        }
    }
    times
}
