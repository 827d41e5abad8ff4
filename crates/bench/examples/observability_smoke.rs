//! CI smoke gate for the live observability plane.
//!
//! A two-worker fleet is deliberately skewed — both workers scan with
//! the real 8-lane MD5 backend, but worker `host/slow` is charged
//! [`SLOW_FACTOR`]× the virtual nanoseconds per key — and the whole run
//! goes through the real `Dispatcher::run_deques` on a
//! [`ManualClock`]. Each worker's backend holds a turn gate: only the
//! worker whose virtual clock is furthest behind may scan next, so the
//! two threads advance in the same deterministic virtual-core order as
//! `adaptive_smoke`. The telemetry handle carries an attached
//! [`LivePlane`] with 1-second windows, so every `Dispatcher::scan_as`
//! merge runs the real `Telemetry::observe_plane` hook: windows flush
//! when the virtual clock crosses a boundary, and the anomaly detector
//! compares each worker's keys-tested rate in the window against the
//! tuned rate the dispatcher published for it. Nothing here sets a
//! rate gauge by hand.
//!
//! The gate asserts end to end:
//!
//! 1. the detector flags `host/slow` as a straggler within two
//!    windows of the run starting;
//! 2. a live `/metrics` scrape taken mid-run (work still queued) shows
//!    `eks_anomaly_total{kind="straggler"}` and the
//!    `eks_worker_flagged` gauge for the slow worker;
//! 3. a flight dump rendered from the same telemetry names the slow
//!    worker, and round-trips through the flight parser — `ci.sh`
//!    replays the written file with `eks postmortem`.
//!
//! Pass an argument to choose where the flight dump lands (CI does);
//! the default is a per-process file under the temp dir. Exits
//! non-zero when any bound is missed.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use eks_cracker::{cpu_backend, Lanes, TargetSet};
use eks_engine::{
    Backend, ChunkPolicy, DequeLeaf, Dispatcher, IntervalDeques, ScanMode, ScanReport,
    SchedOptions,
};
use eks_hashes::HashAlgo;
use eks_keyspace::{Charset, Interval, KeySpace, Order};
use eks_telemetry::{
    http_get, names, parse_flight, parse_prometheus, render_flight, render_postmortem,
    AnomalyConfig, AnomalyKind, LivePlane, ManualClock, MetricsServer, Telemetry,
};

/// Keys in the run — enough virtual work for three-plus windows.
const KEYS: u128 = 400_000;
/// Virtual cost charged per key on the healthy worker.
const FAST_NS_PER_KEY: u64 = 10_000;
/// The straggler's handicap: 4× the per-key cost, a 75 % rate deficit
/// against the tuned book — far past the 40 % straggler line.
const SLOW_FACTOR: u64 = 4;
/// Window width on the live plane (virtual nanoseconds).
const WINDOW_NS: u64 = 1_000_000_000;
/// The acceptance bound: flagged in window index ≤ this.
const MAX_FLAG_WINDOW: u64 = 2;
/// Both workers' stale tuned claim, in MKeys/s: exactly the healthy
/// worker's true virtual rate (1 key per 10 µs = 0.1 MKey/s).
const TUNED_MKEYS: f64 = 0.1;
/// Fixed pop size — ~100 chunks across the run.
const CHUNK: u128 = 1 << 12;

const WORKERS: usize = 2;
const LABELS: [&str; WORKERS] = ["host/fast", "host/slow"];

/// The fleet's virtual time: per-worker clocks, which workers wait at
/// the turn gate, and the mid-run scrape taken once the straggler is
/// flagged.
struct VirtualFleet<'a> {
    clock: Arc<ManualClock>,
    deques: &'a IntervalDeques,
    plane: Arc<LivePlane>,
    addr: String,
    state: Mutex<([u64; WORKERS], [bool; WORKERS])>,
    turn: Condvar,
    mid_run_scrape: Mutex<Option<(String, u128)>>,
}

impl VirtualFleet<'_> {
    /// Block until `worker` is the furthest-behind worker that may still
    /// scan: one waiting at the gate, or any worker while keys are still
    /// queued (it will come back for them).
    fn wait_turn(&self, worker: usize) {
        let mut state = self.state.lock().expect("fleet state");
        state.1[worker] = true;
        loop {
            let (vclock, waiting) = *state;
            let queued = self.deques.total_remaining() > 0;
            let behind = (0..WORKERS).any(|u| {
                u != worker
                    && (vclock[u], u) < (vclock[worker], worker)
                    && (waiting[u] || queued)
            });
            if !behind {
                break;
            }
            // A worker that exits never comes back; the timeout re-reads
            // the queue so its departure cannot strand this one.
            state = self
                .turn
                .wait_timeout(state, Duration::from_millis(1))
                .expect("fleet state")
                .0;
        }
        state.1[worker] = false;
    }

    /// Charge `worker` its virtual cost and move the fleet's clock to
    /// the slowest worker's frontier.
    fn advance(&self, worker: usize, cost_ns: u64) {
        let mut state = self.state.lock().expect("fleet state");
        state.0[worker] += cost_ns;
        // Per-worker clocks only grow, so their minimum is monotone.
        self.clock.set(state.0.iter().copied().min().unwrap_or(0));
        drop(state);
        self.turn.notify_all();
    }

    /// The first time the plane flags the straggler with work still
    /// queued, take the mid-run `/metrics` scrape the gate asserts on.
    fn maybe_scrape(&self) {
        let mut scrape = self.mid_run_scrape.lock().expect("scrape slot");
        if scrape.is_none() && self.plane.is_flagged(LABELS[1]) {
            let remaining = self.deques.total_remaining();
            if let Ok(body) = http_get(&self.addr, "/metrics") {
                *scrape = Some((body, remaining));
            }
        }
    }
}

/// One worker's backend: the real lanes8 scan, taken in virtual-time
/// order and charged `ns_per_key` virtual nanoseconds per key. Its
/// tuned rate is the stale equal claim the scatter trusted.
struct VirtualBackend<'a> {
    inner: Box<dyn Backend>,
    worker: usize,
    ns_per_key: u64,
    fleet: &'a VirtualFleet<'a>,
}

impl Backend for VirtualBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        self.fleet.wait_turn(self.worker);
        self.fleet.maybe_scrape();
        let report = self.inner.scan(space, targets, interval, stop, mode);
        let cost = u64::try_from(report.tested).unwrap_or(u64::MAX) * self.ns_per_key;
        self.fleet.advance(self.worker, cost);
        report
    }

    fn tuned_rate(&self, _algo: HashAlgo) -> f64 {
        TUNED_MKEYS
    }
}

fn check(ok: bool, what: &str) -> bool {
    println!("  [{}] {what}", if ok { "ok" } else { "FAIL" });
    ok
}

fn main() -> ExitCode {
    let flight_path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::temp_dir().join(format!("eks-observability-{}.json", std::process::id())),
    };

    // Virtual time: the telemetry clock only moves when the driver
    // advances it, so window boundaries are deterministic.
    let clock = Arc::new(ManualClock::new());
    let telemetry = Telemetry::with_clock(clock.clone());
    let plane = Arc::new(LivePlane::new(WINDOW_NS, 16, AnomalyConfig::default()));
    telemetry.attach_plane(plane.clone());
    let server = match MetricsServer::spawn("127.0.0.1:0", telemetry.clone(), None) {
        Ok(s) => s,
        Err(e) => {
            println!("  [FAIL] metrics server bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().to_string();
    println!("observability smoke: 2 workers, {SLOW_FACTOR}x skew, scraping http://{addr}");

    let space = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest)
        .expect("keyspace");
    let digest = vec![0u8; 16]; // impossible target: pure sweep
    let targets = TargetSet::new(HashAlgo::Md5, &[digest]);
    let dispatcher = Dispatcher::new(&space, &targets, ScanMode::Exhaustive)
        .with_telemetry(telemetry.clone());

    // The scatter trusts the stale equal book, so the slow worker owns
    // half the keys; stealing hands its tail to the fast worker.
    let deques = IntervalDeques::scatter(Interval::new(0, KEYS), &[1.0; WORKERS]);
    let fleet = VirtualFleet {
        clock: clock.clone(),
        deques: &deques,
        plane: plane.clone(),
        addr: addr.clone(),
        state: Mutex::new(([0; WORKERS], [false; WORKERS])),
        turn: Condvar::new(),
        mid_run_scrape: Mutex::new(None),
    };
    let cost_ns_per_key: [u64; WORKERS] = [FAST_NS_PER_KEY, FAST_NS_PER_KEY * SLOW_FACTOR];
    let backends: Vec<VirtualBackend<'_>> = (0..WORKERS)
        .map(|worker| VirtualBackend {
            inner: cpu_backend(Lanes::L8),
            worker,
            ns_per_key: cost_ns_per_key[worker],
            fleet: &fleet,
        })
        .collect();
    let leaves: Vec<DequeLeaf<'_>> = backends
        .iter()
        .zip(LABELS)
        .map(|(backend, label)| DequeLeaf { worker: dispatcher.register(label), backend })
        .collect();
    dispatcher.run_deques(
        &leaves,
        &deques,
        SchedOptions { chunk: ChunkPolicy::Fixed(CHUNK), steal: true },
    );
    let mid_run_scrape = fleet.mid_run_scrape.lock().expect("scrape slot").take();
    let report = dispatcher.finish();
    server.shutdown();

    let mut ok = true;
    ok &= check(report.tested == KEYS, &format!("swept all {KEYS} keys ({})", report.tested));

    // 1. The straggler verdict, and how early it landed.
    let straggler_window = plane
        .recent_anomalies()
        .iter()
        .filter(|a| a.kind == AnomalyKind::Straggler && a.worker == LABELS[1])
        .map(|a| a.window)
        .min();
    ok &= check(
        straggler_window.is_some_and(|w| w <= MAX_FLAG_WINDOW),
        &format!(
            "{} flagged straggler within {MAX_FLAG_WINDOW} windows (window {:?})",
            LABELS[1], straggler_window
        ),
    );
    ok &= check(
        !plane.is_flagged(LABELS[0]) || plane.is_flagged(LABELS[1]),
        "healthy worker is never the only flagged one",
    );

    // 2. The mid-run scrape saw the verdict while keys were queued.
    match &mid_run_scrape {
        Some((body, remaining)) => {
            let samples = parse_prometheus(body).unwrap_or_default();
            let straggler_total: f64 = samples
                .iter()
                .filter(|s| s.name == names::ANOMALIES && s.label("kind") == Some("straggler"))
                .map(|s| s.value)
                .sum();
            let flagged = samples.iter().any(|s| {
                s.name == names::WORKER_FLAGGED
                    && s.label("worker") == Some(LABELS[1])
                    && s.value > 0.0
            });
            ok &= check(*remaining > 0, &format!("scrape was mid-run ({remaining} keys queued)"));
            ok &= check(straggler_total >= 1.0, "/metrics showed eks_anomaly_total{kind=straggler}");
            ok &= check(flagged, "/metrics showed the slow worker's flagged gauge");
        }
        None => {
            ok = check(false, "a mid-run /metrics scrape was taken after flagging");
        }
    }

    // 3. The flight dump replays and names the straggler.
    let dump = render_flight(
        &telemetry,
        Some(&plane),
        u64::MAX,
        "observability smoke snapshot",
        "observability_smoke.rs",
    );
    if let Err(e) = std::fs::write(&flight_path, &dump) {
        ok = check(false, &format!("write {}: {e}", flight_path.display()));
    } else {
        println!("  flight dump: {}", flight_path.display());
    }
    match parse_flight(&dump) {
        Ok(flight) => {
            let postmortem = render_postmortem(&flight);
            ok &= check(
                postmortem.contains(LABELS[1]),
                "postmortem timeline names the slow worker",
            );
        }
        Err(e) => ok = check(false, &format!("flight dump round-trips: {e}")),
    }

    if ok {
        println!("observability smoke: PASS");
        ExitCode::SUCCESS
    } else {
        println!("observability smoke: FAIL");
        ExitCode::FAILURE
    }
}
