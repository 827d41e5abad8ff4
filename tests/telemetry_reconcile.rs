//! Property: telemetry totals reconcile *exactly* with the dispatcher's
//! accounting. The per-worker `eks_keys_tested_total` counters flow
//! live — `Dispatcher::scan_as` credits each merged chunk into its
//! worker's labelled counter the moment it lands — so for any
//! interleaving, including work stealing, where which worker tests
//! which chunk is nondeterministic, the registry total, the sum of
//! per-worker stats, and the report's `tested` must all be the same
//! number at every instant the run is quiescent. The sliding-window
//! plane diffs that same registry, so its per-window deltas must
//! telescope back to the identical totals even when a flusher thread
//! races the workers. The manual clock keeps every trace timestamp
//! deterministic while real threads race.

// Indexing/slicing below is over fixed-size state arrays or lengths
// established by construction; the workspace `clippy::indexing_slicing`
// escalation guards new code, not these proven accesses.
#![allow(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eks::cluster::{plan_job_fleet, ClusterNode};
use eks::core::prop::{forall, Rng};
use eks::cracker::{
    crack_parallel_backend_observed, LaneBackend, Lanes, ParallelConfig, ParallelReport,
    TargetSet,
};
use eks::engine::SchedPolicy;
use eks::gpusim::device::Device;
use eks::hashes::HashAlgo;
use eks::jobs::{JobService, JobSpec, JobStore, ServiceConfig};
use eks::keyspace::{Charset, Interval, KeySpace, Order};
use eks::telemetry::{names, parse_prometheus, ManualClock, Telemetry, WindowBook};

/// Sum of every `eks_keys_tested_total` sample (one per worker label),
/// read back through the exposition parser so the whole pipeline —
/// counter, render, parse — is under test.
fn keys_tested_total(telemetry: &Telemetry) -> u128 {
    let samples = parse_prometheus(&telemetry.render_prometheus()).expect("valid exposition");
    samples.iter().filter(|s| s.name == names::KEYS_TESTED).map(|s| s.value as u128).sum()
}

/// An MD5 digest that sometimes hits (a real key's digest) and
/// sometimes sweeps the whole space (an impossible digest).
fn random_digest(rng: &mut Rng) -> Vec<u8> {
    let words: [&[u8]; 5] = [b"cat", b"zz", b"qqq", b"abc", b"not-in-this-space"];
    HashAlgo::Md5.hash_long(words[rng.index(words.len())])
}

fn random_targets(rng: &mut Rng) -> TargetSet {
    TargetSet::new(HashAlgo::Md5, &[random_digest(rng)])
}

/// The CLI's default crack path: a telemetry-carrying default-width
/// lane backend under the instrumented dispatcher.
fn crack(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    config: ParallelConfig,
    telemetry: &Telemetry,
) -> ParallelReport {
    let backend = LaneBackend::new(Lanes::default()).with_telemetry(telemetry.clone());
    crack_parallel_backend_observed(space, targets, interval, &backend, config, telemetry, |_| {})
}

#[test]
fn parallel_steal_metrics_reconcile_exactly() {
    let space = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
    forall("telemetry-reconcile-steal", 12, |rng| {
        let targets = random_targets(rng);
        let telemetry = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let threads = rng.range(1, 4) as usize;
        let config = ParallelConfig {
            chunk: rng.range(64, 2048),
            first_hit_only: rng.u64() % 2 == 0,
            sched: SchedPolicy::Steal,
            ..ParallelConfig::for_threads(threads)
        };
        let report = crack(&space, &targets, space.interval(), config, &telemetry);
        let per_worker: u128 = report.stats.iter().map(|w| w.tested).sum();
        assert_eq!(per_worker, report.tested, "stats sum to the report total");
        assert_eq!(
            keys_tested_total(&telemetry),
            report.tested,
            "registry total equals the dispatcher total"
        );
    });
}

/// The observability satellite: window deltas telescope. A flusher
/// thread races the steal-mode workers, snapshotting the registry at
/// arbitrary instants — mid-chunk, mid-steal, whenever the scheduler
/// happens to be between merges — and every flushed [`WindowBook`]
/// window holds the diff since the previous snapshot. No matter where
/// the cuts land, the per-window `eks_keys_tested_total` deltas summed
/// over all windows (plus one final flush for the tail) must equal the
/// registry total, the report total, and each worker's own stat. A
/// tiny ring capacity on purpose: dropped-from-the-ring windows are
/// collected from `flush`'s return value, proving the bounding never
/// corrupts the diffs.
#[test]
fn window_deltas_telescope_to_registry_totals_under_steal() {
    let space = KeySpace::new(Charset::lowercase(), 1, 3, Order::FirstCharFastest).unwrap();
    forall("telemetry-window-telescope", 8, |rng| {
        let targets = random_targets(rng);
        let clock = Arc::new(ManualClock::new());
        let telemetry = Telemetry::with_clock(clock.clone());
        let book = WindowBook::new(1_000_000, 4);
        let threads = rng.range(2, 4) as usize;
        let config = ParallelConfig {
            chunk: rng.range(64, 1024),
            first_hit_only: rng.u64() % 2 == 0,
            sched: SchedPolicy::Steal,
            ..ParallelConfig::for_threads(threads)
        };
        let done = AtomicBool::new(false);
        let (report, mut windows) = std::thread::scope(|s| {
            let flusher = s.spawn(|| {
                let mut flushed = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    clock.advance(1_000_000);
                    flushed.push(book.flush(&telemetry));
                    std::thread::yield_now();
                }
                flushed
            });
            let report = crack(&space, &targets, space.interval(), config, &telemetry);
            done.store(true, Ordering::Relaxed);
            (report, flusher.join().expect("flusher thread"))
        });
        // One final flush catches whatever landed after the last cut.
        windows.push(book.flush(&telemetry));

        let windowed: u128 =
            windows.iter().map(|w| u128::from(w.counter_total(names::KEYS_TESTED))).sum();
        assert_eq!(windowed, report.tested, "window deltas telescope to the report total");
        assert_eq!(
            windowed,
            keys_tested_total(&telemetry),
            "window deltas telescope to the registry total"
        );
        for stat in &report.stats {
            let per_worker: u128 = windows
                .iter()
                .map(|w| u128::from(w.counter_delta(names::KEYS_TESTED, "worker", &stat.label)))
                .sum();
            assert_eq!(per_worker, stat.tested, "worker {} telescopes", stat.label);
        }
    });
}

/// The one real round loop, `JobService::round`, over a planned
/// cluster fleet: the per-worker registry total equals the keys the
/// job records were credited (exactly once, or up to the first hit),
/// and the rounds counter equals the non-idle rounds the driver saw.
#[test]
fn cluster_round_metrics_reconcile_exactly() {
    let net = ClusterNode::device_node("box", vec![Device::geforce_gtx_660()], 0.0)
        .with_cpu("host-cpu", 2);
    let mut case = 0;
    forall("telemetry-reconcile-rounds", 4, |rng| {
        case += 1;
        let digest = random_digest(rng);
        let round_keys = rng.range(3_000, 12_000) as u128;
        let first_hit_only = rng.u64() % 2 == 0;
        let telemetry = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let dir = std::env::temp_dir()
            .join(format!("eks-reconcile-rounds-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).expect("spool");
        let spec = JobSpec {
            name: "rounds".into(),
            algo: HashAlgo::Md5,
            digest,
            charset: Charset::lowercase().symbols().to_vec(),
            min_len: 1,
            max_len: 3,
            order: Order::FirstCharFastest,
            priority: 1,
            first_hit_only,
        };
        store.submit(spec).expect("submit");
        let config = ServiceConfig { round_keys, ..ServiceConfig::default() };
        let service = JobService::new(store, config).with_telemetry(telemetry.clone());
        let fleet = plan_job_fleet(&net, HashAlgo::Md5, &telemetry);
        let rounds = service.run_until_idle(&fleet).expect("rounds");

        let tested: u128 = service.store().list().expect("list").iter().map(|r| r.tested).sum();
        assert_eq!(
            keys_tested_total(&telemetry),
            tested,
            "registry total equals the keys charged across rounds"
        );
        let samples = parse_prometheus(&telemetry.render_prometheus()).expect("valid exposition");
        let counted: f64 =
            samples.iter().filter(|s| s.name == names::ROUNDS).map(|s| s.value).sum();
        assert_eq!(counted as u64, rounds, "one rounds tick per non-idle round");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
