//! The bench-trajectory artifact: cracking throughput (MKey/s) per
//! algorithm per thread count per [`Backend`] — scalar, the 8/16-lane
//! autovectorized widths, the explicit-SIMD kernels (when the host's
//! CPU reports an ISA), the auto-tuned winner, and the simulated-GPU
//! kernel backend — all driven through the one `Dispatcher` core via
//! `crack_parallel_backend`. The JSON artifact (schema 5) records the
//! detected CPU features and selected ISA so committed numbers carry
//! their hardware context, plus the steal-vs-static skewed-fleet
//! scenario (`--min-adaptive-ratio` gates its efficiency ratio): a
//! deliberately misweighted two-backend fleet under the iterated-MD5
//! KDF where work stealing must recover the idle time the stale static
//! split leaves on the table.
//!
//! Run directly for a human-readable table, or with `--json <path>` to
//! also write a machine-readable artifact (the committed
//! `BENCH_cracker.json`); `ci.sh` runs the JSON mode and this binary
//! exits non-zero if any batched backend is slower than scalar at one
//! thread, or if the MD5 speedup falls below `--min-md5-speedup` — the
//! perf gate for the batched pipeline and the engine refactor. A third
//! gate, `--max-telemetry-overhead-pct`, bounds how much an enabled
//! telemetry registry may slow the batched MD5 hot path versus the
//! null handle (the observability layer samples at chunk granularity,
//! so the cost must stay in the noise).
//!
//! The sweeps use an impossible target (no hit, no early exit), so every
//! number is a pure full-scan throughput, best of three short runs.
//!
//! ## Thread scaling on a core-starved host
//!
//! The wall-clock rows measure real threads, which on a single-core CI
//! host cannot scale no matter how good the scheduler is. The `scaling`
//! rows therefore drive the steal scheduler through a deterministic
//! *virtual-core* loop (same methodology as the simulated GPU devices):
//! each worker keeps a virtual clock, the driver always advances the
//! worker whose clock is smallest, every popped chunk is scanned for
//! real and its measured nanoseconds added to that worker's clock, and
//! a steal charges a fixed cost. The makespan is the largest clock —
//! the schedule's critical path as if every worker had a dedicated
//! core — so `scaling = vt(2 workers) / vt(1 worker)` measures the
//! scheduler (scatter balance, steal latency, tail effects), not the
//! host's core count. `parallel_efficiency = scaling / workers` is the
//! paper's §VI efficiency figure for the simulated 2-worker cluster.

use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks_cluster::SimKernelBackend;
use eks_cracker::batch::Lanes;
use eks_cracker::{
    cpu_backend, crack_parallel_backend, crack_parallel_backend_observed, AutoBackend,
    ParallelConfig, SimdBackend, TargetSet,
};
use eks_telemetry::Telemetry;
use eks_engine::{Backend, BackendKind, ChunkPolicy, IntervalDeques, ScanMode};
use eks_gpusim::device::Device;
use eks_hashes::{cpu_features, HashAlgo, SimdIsa};
use eks_keyspace::{Charset, Interval, KeySpace, Order};

/// Keys per timed sweep — small enough for CI, large enough to swamp
/// thread startup at the thread counts measured here.
const KEYS: u64 = 300_000;
/// Timed sweeps per configuration; the best is reported.
const BEST_OF: usize = 3;
const ALGOS: [HashAlgo; 3] = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm];
const THREADS: [usize; 2] = [1, 2];

fn algo_name(algo: HashAlgo) -> &'static str {
    match algo {
        HashAlgo::Md5 => "md5",
        HashAlgo::Sha1 => "sha1",
        HashAlgo::Ntlm => "ntlm",
        // The KDF rows carry their iteration count; the sweep tables
        // here only cover the base algorithms.
        HashAlgo::Md5Iter { .. } => "md5-iterated",
    }
}

/// One concrete engine per [`BackendKind`]; the simulated GPU models the
/// paper's GTX 660 compute node.
fn backend_for(kind: BackendKind) -> Box<dyn Backend> {
    match kind {
        BackendKind::Scalar => cpu_backend(Lanes::Scalar),
        BackendKind::Lanes8 => cpu_backend(Lanes::L8),
        BackendKind::Lanes16 => cpu_backend(Lanes::L16),
        BackendKind::Simd => {
            Box::new(SimdBackend::best().expect("simd rows run only on detected-ISA hosts"))
        }
        BackendKind::Auto => Box::new(AutoBackend::new(Telemetry::disabled())),
        BackendKind::SimGpu => Box::new(SimKernelBackend::new(Device::geforce_gtx_660())),
    }
}

/// The kinds this host can run: everything except `simd` on CPUs with no
/// explicit-SIMD ISA (the skip is reported, not silent).
fn host_kinds() -> Vec<BackendKind> {
    BackendKind::ALL.into_iter().filter(|k| k.is_available()).collect()
}

/// Best-of-N full-sweep throughput for one configuration.
fn measure(algo: HashAlgo, threads: usize, kind: BackendKind) -> f64 {
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let backend = backend_for(kind);
    let config =
        ParallelConfig { threads, first_hit_only: false, ..ParallelConfig::for_threads(threads) };
    let mut best = 0.0f64;
    // One extra untimed sweep warms caches and thread pools.
    for i in 0..=BEST_OF {
        let report = crack_parallel_backend(
            &space,
            &impossible,
            Interval::new(0, KEYS as u128),
            backend.as_ref(),
            config,
        );
        assert!(report.hits.is_empty(), "impossible target must not hit");
        if i > 0 {
            best = best.max(report.mkeys_per_s);
        }
    }
    best
}

struct Row {
    algo: &'static str,
    threads: usize,
    backend: &'static str,
    mkeys: f64,
}

/// Virtual cost of one steal (lock the largest victim, halve it,
/// install the half) — a generous bound for an uncontended mutex pair.
const STEAL_NS: u64 = 2_000;
/// Timed sweeps per scaling configuration.
const SCALING_BEST_OF: usize = 2;
/// Workers simulated for the scaling rows.
const SCALING_WORKERS: usize = 2;

/// Virtual-core throughput of the steal scheduler at `workers` workers
/// (see the module doc): real-timed guided chunks advance per-worker
/// virtual clocks, and the makespan is the largest clock.
fn virtual_throughput(algo: HashAlgo, kind: BackendKind, workers: usize) -> f64 {
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let backend = backend_for(kind);
    let stop = AtomicBool::new(false);
    let policy = ChunkPolicy::Guided { min: 1 << 12 };
    let mut best = 0.0f64;
    // Sweep 0 is an untimed warm-up: it touches the same keys through
    // the same backend so caches, page tables and any lazily-initialized
    // kernel state are hot before the first timed makespan. (The
    // wall-clock rows warm a *different* backend instance, so without
    // this the first timed sweep could carry a cold-start penalty.)
    for i in 0..=SCALING_BEST_OF {
        let deques =
            IntervalDeques::scatter(Interval::new(0, KEYS as u128), &vec![1.0; workers]);
        let mut clock = vec![0u64; workers];
        let mut done = vec![false; workers];
        // Always advance the worker whose virtual clock is furthest
        // behind — the order a real multi-core run would interleave in.
        while let Some(w) =
            (0..workers).filter(|&w| !done[w]).min_by_key(|&w| clock[w])
        {
            // A drained worker steals and scans the loot in the same
            // turn, as a real worker does: yielding the turn after the
            // steal could bounce a one-key remainder between two drained
            // slots forever.
            let chunk = deques.pop(w, policy).or_else(|| {
                clock[w] += STEAL_NS;
                deques.steal_into(w)?;
                deques.pop(w, policy)
            });
            let Some(chunk) = chunk else {
                done[w] = true;
                continue;
            };
            let t0 = Instant::now();
            let out = backend.scan(&space, &impossible, chunk, &stop, ScanMode::Exhaustive);
            clock[w] += t0.elapsed().as_nanos() as u64;
            assert!(out.hits.is_empty(), "impossible target must not hit");
        }
        let makespan_ns = clock.iter().copied().max().unwrap_or(0).max(1);
        if i > 0 {
            best = best.max(KEYS as f64 / (makespan_ns as f64 / 1e9) / 1e6);
        }
    }
    best
}

/// Keys for the steal-vs-static scenario: smaller than [`KEYS`]
/// because the iterated-MD5 KDF multiplies per-key cost, and the
/// scenario runs the sweep four times (warm-up + timed, two arms).
const ADAPTIVE_KEYS: u64 = 60_000;
/// KDF work factor: 2 + (key-byte-sum % 8) MD5 rounds per candidate, so
/// per-key cost varies with the key itself — the workload the paper's
/// frozen one-shot tuning cannot see.
const ADAPTIVE_ITERS: u16 = 8;
/// Guided floor for the scenario: fine enough that the slow worker's
/// share is many chunks, so there is queued work left to steal.
const ADAPTIVE_CHUNK_MIN: u128 = 1 << 9;

/// How many times the handicapped worker re-scans each chunk: the
/// bench's stand-in for a fleet member severalfold weaker than the
/// stale tuned book claims.
const ADAPTIVE_SLOW_FACTOR: u32 = 4;

/// A deliberately slowed backend: scans each chunk
/// [`ADAPTIVE_SLOW_FACTOR`] times and reports it once, so its true
/// rate is a known fraction of the inner backend's while the stale
/// book still lists them as equals.
struct SlowedBackend {
    inner: Box<dyn Backend>,
    factor: u32,
}

impl Backend for SlowedBackend {
    fn name(&self) -> String {
        format!("{}-slow{}", self.inner.name(), self.factor)
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> eks_engine::ScanReport {
        let out = self.inner.scan(space, targets, interval, stop, mode);
        for _ in 1..self.factor {
            let extra = self.inner.scan(space, targets, interval, stop, mode);
            assert!(extra.hits.is_empty(), "impossible target must not hit");
        }
        out
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        self.inner.tuned_rate(algo) / f64::from(self.factor.max(1))
    }
}

/// One arm of the skewed-fleet scenario.
struct FleetArm {
    /// Parallel efficiency: `Σ busy / (workers × makespan)`.
    efficiency: f64,
    /// Virtual makespan, milliseconds.
    makespan_ms: f64,
    /// Successful steals (always 0 in the static arm).
    steals: u64,
}

/// The load-balancing scenario: a two-worker fleet where worker 0 runs
/// the batched backend at full speed and worker 1 the same backend
/// handicapped [`ADAPTIVE_SLOW_FACTOR`]-fold, under the iterated-MD5
/// KDF, but the scatter trusts a *stale* tuned book that claims the
/// workers are equal.
///
/// The static arm drains exactly its planned share — the fast worker
/// idles while the slow one grinds through the misassigned half. The
/// steal arm lets the drained fast worker take the back half of the
/// slow worker's deque, the `--sched steal` default, driven
/// deterministically through the virtual-core clock so the measured
/// ratio is scheduler quality, not host core count.
fn skewed_fleet_arm(steal: bool) -> FleetArm {
    let algo = HashAlgo::Md5Iter { iters: ADAPTIVE_ITERS };
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let backends: Vec<Box<dyn Backend>> = vec![
        cpu_backend(Lanes::L8),
        Box::new(SlowedBackend { inner: cpu_backend(Lanes::L8), factor: ADAPTIVE_SLOW_FACTOR }),
    ];
    let workers = backends.len();
    let stop = AtomicBool::new(false);
    let policy = ChunkPolicy::Guided { min: ADAPTIVE_CHUNK_MIN };
    let mut result = FleetArm { efficiency: 0.0, makespan_ms: 0.0, steals: 0 };
    // Sweep 0 warms both backends untimed, as in `virtual_throughput`.
    for sweep in 0..2 {
        // The stale book: equal weights although the fleet is skewed.
        let deques =
            IntervalDeques::scatter(Interval::new(0, ADAPTIVE_KEYS as u128), &vec![1.0; workers]);
        let mut clock = vec![0u64; workers];
        let mut busy = vec![0u64; workers];
        let mut done = vec![false; workers];
        let mut steals = 0u64;
        while let Some(w) = (0..workers).filter(|&w| !done[w]).min_by_key(|&w| clock[w]) {
            // A thief scans its loot in the same turn, as in
            // `virtual_throughput`.
            let chunk = match deques.pop(w, policy) {
                Some(chunk) => Some(chunk),
                None if steal => {
                    clock[w] += STEAL_NS;
                    deques.steal_into(w).and_then(|_| {
                        steals += 1;
                        deques.pop(w, policy)
                    })
                }
                None => None,
            };
            let Some(chunk) = chunk else {
                done[w] = true;
                continue;
            };
            let t0 = Instant::now();
            let out = backends[w].scan(&space, &impossible, chunk, &stop, ScanMode::Exhaustive);
            let ns = t0.elapsed().as_nanos() as u64;
            clock[w] += ns;
            busy[w] += ns;
            assert!(out.hits.is_empty(), "impossible target must not hit");
        }
        let makespan_ns = clock.iter().copied().max().unwrap_or(0).max(1);
        let total_busy: u64 = busy.iter().sum();
        let efficiency =
            total_busy as f64 / (workers as f64 * makespan_ns as f64);
        if sweep > 0 {
            result = FleetArm { efficiency, makespan_ms: makespan_ns as f64 / 1e6, steals };
        }
    }
    result
}

/// Timed sweeps per telemetry-overhead arm; more than the wall-clock
/// rows because the gate compares two nearly-equal numbers.
const OVERHEAD_BEST_OF: usize = 5;

/// Best-of-N batched MD5 single-thread throughput with telemetry either
/// off (the null handle) or on (a live registry plus trace sink) — the
/// same impossible-target sweep as [`measure`], driven through the
/// observed entry point so the chunk-granularity instrumentation is on
/// the measured path.
fn telemetry_throughput(enabled: bool) -> f64 {
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let algo = HashAlgo::Md5;
    let impossible = TargetSet::new(algo, &[vec![0u8; algo.digest_len()]]);
    let backend = backend_for(BackendKind::Lanes8);
    let config = ParallelConfig { first_hit_only: false, ..ParallelConfig::for_threads(1) };
    let mut best = 0.0f64;
    // One extra untimed sweep warms caches, as in `measure`.
    for i in 0..=OVERHEAD_BEST_OF {
        // A fresh handle per sweep so the trace ring and counters never
        // accumulate across iterations.
        let telemetry = if enabled { Telemetry::enabled() } else { Telemetry::disabled() };
        let report = crack_parallel_backend_observed(
            &space,
            &impossible,
            Interval::new(0, KEYS as u128),
            backend.as_ref(),
            config,
            &telemetry,
            |_| {},
        );
        assert!(report.hits.is_empty(), "impossible target must not hit");
        if i > 0 {
            best = best.max(report.mkeys_per_s);
        }
    }
    best
}

struct ScalingRow {
    algo: &'static str,
    backend: &'static str,
    workers: usize,
    scaling: f64,
    parallel_efficiency: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<String> = None;
    let mut min_md5_speedup = 1.0f64;
    let mut min_scaling = 0.0f64;
    let mut min_adaptive_ratio = 0.0f64;
    let mut max_telemetry_overhead_pct = f64::INFINITY;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                json_path =
                    Some(args.next().unwrap_or_else(|| "BENCH_cracker.json".to_string()));
            }
            "--min-md5-speedup" => {
                min_md5_speedup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-md5-speedup takes a number");
            }
            "--min-scaling" => {
                min_scaling = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-scaling takes a number");
            }
            "--min-adaptive-ratio" => {
                min_adaptive_ratio = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-adaptive-ratio takes a number");
            }
            "--max-telemetry-overhead-pct" => {
                max_telemetry_overhead_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-telemetry-overhead-pct takes a number");
            }
            // `cargo bench` passes `--bench`; ignore it and any filters.
            _ => {}
        }
    }

    let features = cpu_features();
    println!(
        "cpu features: {}   selected isa: {}",
        features
            .iter()
            .map(|(name, on)| format!("{name}={}", if *on { "yes" } else { "no" }))
            .collect::<Vec<_>>()
            .join("  "),
        SimdIsa::detect().map_or("none", |isa| isa.name())
    );
    if !BackendKind::Simd.is_available() {
        println!("note: no explicit-SIMD ISA detected; simd rows are skipped");
    }

    let mut rows: Vec<Row> = Vec::new();
    println!("{:<6} {:>7} {:>8} {:>10}", "algo", "threads", "backend", "MKey/s");
    for algo in ALGOS {
        for threads in THREADS {
            for kind in host_kinds() {
                let mkeys = measure(algo, threads, kind);
                println!(
                    "{:<6} {:>7} {:>8} {:>10.3}",
                    algo_name(algo),
                    threads,
                    kind.name(),
                    mkeys
                );
                rows.push(Row { algo: algo_name(algo), threads, backend: kind.name(), mkeys });
            }
        }
    }

    // Virtual-core thread scaling of the steal scheduler, per
    // (algo, backend) pair — see the module doc for the methodology.
    let mut scaling_rows: Vec<ScalingRow> = Vec::new();
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>11}",
        "algo", "backend", "workers", "scaling", "efficiency"
    );
    for algo in ALGOS {
        for kind in host_kinds() {
            let vt1 = virtual_throughput(algo, kind, 1);
            let vtn = virtual_throughput(algo, kind, SCALING_WORKERS);
            let scaling = vtn / vt1;
            let parallel_efficiency = scaling / SCALING_WORKERS as f64;
            println!(
                "{:<6} {:>8} {:>8} {:>7.2}x {:>10.0}%",
                algo_name(algo),
                kind.name(),
                SCALING_WORKERS,
                scaling,
                parallel_efficiency * 100.0
            );
            scaling_rows.push(ScalingRow {
                algo: algo_name(algo),
                backend: kind.name(),
                workers: SCALING_WORKERS,
                scaling,
                parallel_efficiency,
            });
        }
    }

    // The gate: at one thread, the best batched backend must beat scalar
    // for every algorithm, and MD5 by at least `--min-md5-speedup`.
    let one_thread = |algo: &str, backend: &str| {
        rows.iter()
            .find(|r| r.algo == algo && r.threads == 1 && r.backend == backend)
            .map(|r| r.mkeys)
            .expect("measured above")
    };
    let mut gates = String::new();
    let mut failed = false;
    for algo in ALGOS.map(algo_name) {
        let scalar = one_thread(algo, "scalar");
        let batched = host_kinds()
            .iter()
            .filter(|k| !matches!(k, BackendKind::Scalar))
            .map(|k| one_thread(algo, k.name()))
            .fold(0.0f64, f64::max);
        let speedup = batched / scalar;
        println!("{algo}: best batched {batched:.3} vs scalar {scalar:.3} → {speedup:.2}x");
        let _ = write!(gates, "{}\"{algo}_1t_speedup\": {speedup:.3}", if gates.is_empty() { "" } else { ", " });
        let floor = if algo == "md5" { min_md5_speedup } else { 1.0 };
        if speedup < floor {
            eprintln!("GATE FAILED: {algo} speedup {speedup:.2}x is below the {floor:.2}x floor");
            failed = true;
        }
    }

    // The scaling gate: the steal scheduler's virtual 2-worker scaling
    // on md5/lanes8 must clear `--min-scaling`.
    let md5_lanes8_scaling = scaling_rows
        .iter()
        .find(|r| r.algo == "md5" && r.backend == "lanes8")
        .map(|r| r.scaling)
        .expect("measured above");
    let _ = write!(gates, ", \"md5_lanes8_2w_scaling\": {md5_lanes8_scaling:.3}");
    println!(
        "md5/lanes8: virtual {SCALING_WORKERS}-worker scaling {md5_lanes8_scaling:.2}x (floor {min_scaling:.2}x)"
    );
    if md5_lanes8_scaling < min_scaling {
        eprintln!(
            "GATE FAILED: md5/lanes8 scaling {md5_lanes8_scaling:.2}x is below the {min_scaling:.2}x floor"
        );
        failed = true;
    }

    // The load-balancing gate: on the skewed fleet under stale equal
    // tuned weights, stealing must recover at least
    // `--min-adaptive-ratio` times the static arm's parallel efficiency.
    let static_arm = skewed_fleet_arm(false);
    let steal_arm = skewed_fleet_arm(true);
    let steal_ratio = if static_arm.efficiency > 0.0 {
        steal_arm.efficiency / static_arm.efficiency
    } else {
        0.0
    };
    println!(
        "skewed fleet (md5x{ADAPTIVE_ITERS}, lanes8 + {ADAPTIVE_SLOW_FACTOR}x-slowed lanes8, stale equal weights): \
         static eff {:.1}% ({:.1} ms), steal eff {:.1}% ({:.1} ms, {} steal(s)) \
         → {steal_ratio:.2}x (floor {min_adaptive_ratio:.2}x)",
        static_arm.efficiency * 100.0,
        static_arm.makespan_ms,
        steal_arm.efficiency * 100.0,
        steal_arm.makespan_ms,
        steal_arm.steals,
    );
    let _ = write!(gates, ", \"steal_efficiency_ratio\": {steal_ratio:.3}");
    if steal_ratio < min_adaptive_ratio {
        eprintln!(
            "GATE FAILED: steal/static efficiency ratio {steal_ratio:.2}x is below the {min_adaptive_ratio:.2}x floor"
        );
        failed = true;
    }

    // The telemetry gate: chunk-granularity instrumentation on the
    // batched MD5 hot path must cost at most
    // `--max-telemetry-overhead-pct` of throughput vs the null handle.
    let t_off = telemetry_throughput(false);
    let t_on = telemetry_throughput(true);
    let telemetry_overhead_pct = (t_off / t_on - 1.0) * 100.0;
    let _ = write!(gates, ", \"md5_lanes8_telemetry_overhead_pct\": {telemetry_overhead_pct:.3}");
    println!(
        "md5/lanes8: telemetry on {t_on:.3} vs off {t_off:.3} MKey/s → {telemetry_overhead_pct:.1}% overhead (cap {max_telemetry_overhead_pct:.1}%)"
    );
    if telemetry_overhead_pct > max_telemetry_overhead_pct {
        eprintln!(
            "GATE FAILED: telemetry overhead {telemetry_overhead_pct:.1}% exceeds the {max_telemetry_overhead_pct:.1}% cap"
        );
        failed = true;
    }

    if let Some(path) = json_path {
        let mut body = String::new();
        for r in &rows {
            let _ = write!(
                body,
                "{}    {{\"algo\": \"{}\", \"threads\": {}, \"backend\": \"{}\", \"mkeys_per_s\": {:.3}}}",
                if body.is_empty() { "" } else { ",\n" },
                r.algo,
                r.threads,
                r.backend,
                r.mkeys
            );
        }
        let mut scaling_body = String::new();
        for r in &scaling_rows {
            let _ = write!(
                scaling_body,
                "{}    {{\"algo\": \"{}\", \"backend\": \"{}\", \"workers\": {}, \"scaling\": {:.3}, \"parallel_efficiency\": {:.3}}}",
                if scaling_body.is_empty() { "" } else { ",\n" },
                r.algo,
                r.backend,
                r.workers,
                r.scaling,
                r.parallel_efficiency
            );
        }
        let features_body = features
            .iter()
            .map(|(name, on)| format!("\"{name}\": {on}"))
            .collect::<Vec<_>>()
            .join(", ");
        let isa_body =
            SimdIsa::detect().map_or("null".to_string(), |isa| format!("\"{isa}\""));
        let adaptive_body = format!(
            "{{\"algo\": \"md5x{ADAPTIVE_ITERS}\", \"workers\": 2, \"backends\": [\"lanes8\", \"lanes8-slow{ADAPTIVE_SLOW_FACTOR}\"], \
             \"static_efficiency\": {:.3}, \"steal_efficiency\": {:.3}, \
             \"efficiency_ratio\": {steal_ratio:.3}, \"steals\": {}}}",
            static_arm.efficiency, steal_arm.efficiency, steal_arm.steals
        );
        let json = format!(
            "{{\n  \"bench\": \"cracker_backends_vs_scalar\",\n  \"schema\": 5,\n  \"keys_per_sweep\": {KEYS},\n  \"best_of\": {BEST_OF},\n  \"min_md5_speedup\": {min_md5_speedup},\n  \"min_scaling\": {min_scaling},\n  \"min_adaptive_ratio\": {min_adaptive_ratio},\n  \"cpu_features\": {{{features_body}}},\n  \"simd_isa\": {isa_body},\n  \"results\": [\n{body}\n  ],\n  \"scaling\": [\n{scaling_body}\n  ],\n  \"adaptive\": {adaptive_body},\n  \"gates\": {{{gates}}}\n}}\n"
        );
        std::fs::write(&path, json).expect("write json artifact");
        println!("wrote {path}");
    }

    if failed {
        std::process::exit(1);
    }
}
