//! The traced run: single-thread probes of each layer's public
//! functions, one traced pass of each workload that exercises a layer's
//! dispatch (spans from [`Traced`](crate::trace::Traced) wrappers and
//! around every call), and interleaved A/B arms for the telemetry and
//! tracing overheads.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use eks_cracker::{
    crack_parallel_backend_observed, crack_space_interval, AutoBackend, ParallelConfig, TargetSet,
};
use eks_engine::{Backend, ScanMode};
use eks_hashes::{AutoVec, HashAlgo, LaneHasher, SimdHasher};
use eks_kernels::{build_md5, words_for_key_len, Md5Variant};
use eks_keyspace::{BlockBatch, BlockLayout, Interval, KeySpace};
use eks_telemetry::Telemetry;

use crate::host::nproc;
use crate::inputs::{self, Workload};
use crate::stats::{self, self_ns};
use crate::trace::{EngineStats, Group, Kind, SpanLog};
use crate::workloads::{host_fleet, timed, Checks, Runner};
use crate::{cold_setups, Metric};

/// Fresh processes timed for the cold tuning and planning probes.
const COLD_PROCESSES: usize = 5;
/// Repetitions of each single-thread probe; the median rate is kept.
const REPS: usize = 5;
/// Keys per fill and core probe repetition.
const PROBE_KEYS: u128 = 1 << 23;
/// Batches pre-filled for the core probes (they stay in cache).
const CORE_BATCHES: usize = 1024;
/// Keys per single-thread scan probe.
const SCAN_KEYS: u128 = 1 << 24;
/// Keys per generic-path probe (the crack-mask mask has 676,000).
const MASK_KEYS: u128 = 1 << 18;
/// `MaskSpace::advance_key` calls per mask probe (wrapping past the last
/// candidate restarts at the first).
const ADVANCES: u128 = 1 << 23;
/// Interleaved pairs of the telemetry A/B.
const TELEMETRY_PAIRS: usize = 8;
/// Keys per telemetry A/B arm.
const TELEMETRY_KEYS: u128 = 1 << 24;

/// Median MKey/s of `REPS` runs of `f`, which returns the keys it did.
fn rate(mut f: impl FnMut() -> u128) -> f64 {
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let keys = f();
            keys as f64 / t0.elapsed().as_nanos() as f64 * 1e3
        })
        .collect();
    stats::median(&rates).expect("repetitions")
}

/// The hash core the auto backend tuned in for MD5.
#[derive(Clone, Copy)]
enum Core {
    Auto8,
    Auto16,
    Simd(SimdHasher),
}

impl Core {
    fn chosen() -> (Core, String) {
        let name = AutoBackend::new(Telemetry::disabled()).choice_name(HashAlgo::Md5);
        let simd = eks_hashes::SimdIsa::ALL
            .into_iter()
            .find(|isa| name == format!("simd-{isa}"))
            .and_then(SimdHasher::new);
        let core = match (simd, name.as_str()) {
            (Some(h), _) => Core::Simd(h),
            (None, "lanes16") => Core::Auto16,
            _ => Core::Auto8,
        };
        (core, name)
    }
}

/// Calls `$body` with `$h: impl LaneHasher<$L>` and the const width
/// `$L` bound for the chosen core.
macro_rules! with_core {
    ($core:expr, |$h:ident, $L:ident| $body:expr) => {
        match $core {
            Core::Auto8 => {
                const $L: usize = 8;
                let $h = AutoVec;
                $body
            }
            Core::Auto16 => {
                const $L: usize = 16;
                let $h = AutoVec;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            Core::Simd(SimdHasher::Avx2($h)) => {
                const $L: usize = 16;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            Core::Simd(SimdHasher::Avx512($h)) => {
                const $L: usize = 32;
                $body
            }
            #[cfg(target_arch = "aarch64")]
            Core::Simd(SimdHasher::Neon($h)) => {
                const $L: usize = 8;
                $body
            }
        }
    };
}

fn fill_w0s<const L: usize>(space: &KeySpace, slice: Interval) -> u128 {
    let mut b = BlockBatch::new(space, BlockLayout::Md5Le, slice);
    let mut w0s = [0u32; L];
    let mut n = 0;
    while b.remaining() >= L as u128 {
        black_box(b.fill_w0s(&mut w0s));
        black_box(&w0s);
        n += L as u128;
    }
    n
}

fn fill_block<const L: usize>(space: &KeySpace, layout: BlockLayout, slice: Interval) -> u128 {
    let mut b = BlockBatch::new(space, layout, slice);
    let mut blocks = [[0u32; 16]; L];
    let mut n = 0;
    while b.remaining() >= L as u128 {
        black_box(b.fill(&mut blocks));
        black_box(&blocks);
        n += L as u128;
    }
    n
}

/// Pre-filled `w[0]` batches and the shared template of the first one.
fn w0_batches<const L: usize>(space: &KeySpace, start: u128) -> (Vec<[u32; L]>, [u32; 16]) {
    let mut b = BlockBatch::new(
        space,
        BlockLayout::Md5Le,
        Interval::new(start, (CORE_BATCHES * L) as u128),
    );
    let mut template = [0u32; 16];
    let batches = (0..CORE_BATCHES)
        .map(|i| {
            let mut w0s = [0u32; L];
            let (_, t) = b.fill_w0s(&mut w0s);
            if i == 0 {
                template = t;
            }
            w0s
        })
        .collect();
    (batches, template)
}

fn block_batches<const L: usize>(
    space: &KeySpace,
    layout: BlockLayout,
    start: u128,
) -> Vec<[[u32; 16]; L]> {
    let mut b = BlockBatch::new(
        space,
        layout,
        Interval::new(start, (CORE_BATCHES * L) as u128),
    );
    (0..CORE_BATCHES)
        .map(|_| {
            let mut blocks = [[0u32; 16]; L];
            b.fill(&mut blocks);
            blocks
        })
        .collect()
}

/// Sweep pre-filled batches with `hash` until [`PROBE_KEYS`] keys.
fn core_rate<B, const L: usize>(batches: &[B], mut hash: impl FnMut(&B)) -> f64 {
    rate(|| {
        let mut n = 0;
        while n < PROBE_KEYS {
            for b in batches {
                hash(black_box(b));
            }
            n += (batches.len() * L) as u128;
        }
        n
    })
}

fn md5_forward49_rate<const L: usize, H: LaneHasher<L>>(
    h: H,
    space: &KeySpace,
    start: u128,
) -> f64 {
    let (batches, template) = w0_batches::<L>(space, start);
    core_rate::<_, L>(&batches, |w0s| {
        black_box(h.md5_forward49_batch(&template, w0s));
    })
}

/// Probes of the keyspace, hashes and cracker layers.
fn probes(seed: u64, cold_tune_s: f64, out: &mut Vec<Metric>) {
    let space7 = inputs::lower7();
    let md5 = inputs::planted_search(Workload::CrackMd5, seed, 0, inputs::MD5_ROUND_KEYS);
    let slice = Interval::new(md5.interval.start, PROBE_KEYS);
    let (core, choice) = Core::chosen();
    println!("md5 core       : {choice}");

    let (w0s, block, md5_core) = with_core!(core, |h, L| (
        rate(|| fill_w0s::<L>(&space7, slice)),
        rate(|| fill_block::<L>(&space7, BlockLayout::ShaBe, slice)),
        md5_forward49_rate::<L, _>(h, &space7, slice.start),
    ));

    let mask = inputs::mask_space();
    let mask_planted = inputs::mask_planted(seed, 0);
    let mask_start = mask_planted.min(mask.size() - MASK_KEYS);
    let advance = rate(|| {
        let mut key = mask.key_at(mask_start);
        for _ in 0..ADVANCES {
            mask.advance_key(&mut key);
            black_box(&key);
        }
        ADVANCES
    });

    let tenant_space = inputs::tenant_space();
    let five = tenant_space.size() - 26u128.pow(5);
    let lanes8_md5 = md5_forward49_rate::<8, _>(AutoVec, &tenant_space, five);
    let sha1_blocks = block_batches::<8>(&tenant_space, BlockLayout::ShaBe, five);
    let lanes8_sha1 = core_rate::<_, 8>(&sha1_blocks, |b| {
        black_box(LaneHasher::<8>::sha1_a75_batch(&AutoVec, b));
    });
    let ntlm_blocks = block_batches::<8>(&tenant_space, BlockLayout::NtlmUtf16Le, five);
    let lanes8_ntlm = core_rate::<_, 8>(&ntlm_blocks, |b| {
        black_box(LaneHasher::<8>::md4_batch(&AutoVec, b));
    });
    let keys: Vec<_> = (0..4096).map(|i| mask.key_at(mask_start + i)).collect();
    let scalar_md5 = rate(|| {
        for key in &keys {
            black_box(HashAlgo::Md5.hash(black_box(key.as_bytes())));
        }
        keys.len() as u128
    });

    let kernel = build_md5(Md5Variant::Reversed, &words_for_key_len(7)).ir;
    let ops = kernel.ops.iter().filter(|op| !op.is_load()).count() as f64
        / f64::from(kernel.keys_per_iteration);

    let targets = TargetSet::new(
        HashAlgo::Md5,
        &[HashAlgo::Md5.hash_long(space7.key_at(md5.planted).as_bytes())],
    );
    let auto = AutoBackend::new(Telemetry::disabled());
    let stop = AtomicBool::new(false);
    let scan_slice = Interval::new(md5.interval.start, SCAN_KEYS);
    let scan = rate(|| {
        auto.scan(&space7, &targets, scan_slice, &stop, ScanMode::Exhaustive)
            .tested
    });
    let mask_targets = TargetSet::new(
        HashAlgo::Md5,
        &[HashAlgo::Md5.hash_long(mask.key_at(mask_planted).as_bytes())],
    );
    let generic = rate(|| {
        crack_space_interval(&mask, &mask_targets, mask_start, MASK_KEYS, &stop, false).tested
    });

    out.extend([
        Metric::new("keyspace.fill_w0s_mkeys_per_s", w0s, "MKey/s"),
        Metric::new("keyspace.fill_block_mkeys_per_s", block, "MKey/s"),
        Metric::new("keyspace.mask_advance_mkeys_per_s", advance, "MKey/s"),
        Metric::new("hashes.md5_core_mkeys_per_s", md5_core, "MKey/s"),
        Metric::new("hashes.md5_ops_per_key", ops, "op/key"),
        Metric::new("hashes.md5_core_gops", ops * md5_core / 1e3, "Gop/s"),
        Metric::new("hashes.lanes8_md5_core_mkeys_per_s", lanes8_md5, "MKey/s"),
        Metric::new("hashes.lanes8_sha1_core_mkeys_per_s", lanes8_sha1, "MKey/s"),
        Metric::new("hashes.lanes8_ntlm_core_mkeys_per_s", lanes8_ntlm, "MKey/s"),
        Metric::new("hashes.scalar_md5_mkeys_per_s", scalar_md5, "MKey/s"),
        Metric::new("cracker.scan_mkeys_per_s", scan, "MKey/s"),
        Metric::new("cracker.pipeline_efficiency", scan / md5_core, "fraction"),
        Metric::new("cracker.generic_scan_mkeys_per_s", generic, "MKey/s"),
        Metric::new("cracker.auto_tune_s", cold_tune_s, "s"),
    ]);
}

/// Dispatcher metrics of one traced run, under `prefix`.
fn engine_metrics(prefix: &str, e: &EngineStats, out: &mut Vec<Metric>) {
    let t = &e.timeline;
    let tail = stats::tail(&e.scan_ms).expect("the run scanned");
    println!("{prefix}scan_ms_p99 taken as {}", tail.describe());
    out.extend([
        Metric::new(format!("{prefix}scans"), e.scans as f64, "count"),
        Metric::new(
            format!("{prefix}keys_per_scan"),
            e.keys as f64 / e.scans as f64,
            "key",
        ),
        Metric::new(
            format!("{prefix}scan_busy_frac"),
            t.frac(t.busy_ns),
            "fraction",
        ),
        Metric::new(format!("{prefix}head_frac"), t.frac(t.head_ns), "fraction"),
        Metric::new(format!("{prefix}gap_frac"), t.frac(t.gap_ns), "fraction"),
        Metric::new(
            format!("{prefix}tail_idle_frac"),
            t.frac(t.tail_ns),
            "fraction",
        ),
        Metric::new(
            format!("{prefix}scan_ms_p50"),
            stats::median(&e.scan_ms).expect("scans"),
            "ms",
        ),
        Metric::new(format!("{prefix}scan_ms_p99"), tail.value, "ms"),
    ]);
}

/// Largest gap, over rounds where every leasing job still had work after
/// the round, between a job's share of the round's leased keys and its
/// share of the leasing jobs' priorities.
fn share_error(pass: &crate::workloads::JobsPass) -> f64 {
    let mut worst: f64 = 0.0;
    for round in pass.rounds.iter().filter(|r| !r.completed) {
        let mut per_job: Vec<(eks_jobs::JobId, u128)> = Vec::new();
        for (job, lease) in &round.leases {
            match per_job.iter_mut().find(|(j, _)| j == job) {
                Some((_, n)) => *n += lease.len,
                None => per_job.push((*job, lease.len)),
            }
        }
        if per_job.len() < 2 {
            continue;
        }
        let prio = |job| {
            pass.priorities
                .iter()
                .find(|(j, _)| *j == job)
                .map_or(0, |p| p.1)
        };
        let keys: u128 = per_job.iter().map(|(_, n)| n).sum();
        let weight: u32 = per_job.iter().map(|(j, _)| prio(*j)).sum();
        for (job, n) in &per_job {
            let got = *n as f64 / keys as f64;
            let want = f64::from(prio(*job)) / f64::from(weight);
            worst = worst.max((got - want).abs());
        }
    }
    worst
}

/// One traced jobs-mixed pass: the jobs layer and its dispatcher.
fn jobs_layer(runner: &mut Runner, threads: usize, out: &mut Vec<Metric>) {
    let log = SpanLog::new();
    let fleet = host_fleet(threads, Some(&log));
    let pass = runner.jobs_pass(0, &[&fleet], Some(&log), true);
    let spans = log.take();
    let rounds: Vec<_> = spans.iter().filter(|s| s.kind == Kind::Round).collect();
    let scans: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == Kind::Scan)
        .map(|s| s.interval())
        .collect();
    let run = (
        rounds.iter().map(|r| r.start_ns).min().expect("rounds"),
        rounds.iter().map(|r| r.end_ns).max().expect("rounds"),
    );
    engine_metrics(
        "engine.jobs.",
        &EngineStats::from_spans(&spans, run, threads, Group::Member),
        out,
    );
    let round_ns: u64 = rounds.iter().map(|r| r.end_ns - r.start_ns).sum();
    let self_total: u64 = rounds.iter().map(|r| self_ns(r.interval(), &scans)).sum();
    let (list_ms, save_ms) = pass.store_ms.expect("store probed");
    let tail = stats::tail(&pass.unit.rounds_ms).expect("rounds");
    println!("jobs.round_ms_p99 taken as {}", tail.describe());
    out.extend([
        Metric::new("jobs.rounds", pass.rounds.len() as f64, "count"),
        Metric::new(
            "jobs.leases",
            pass.rounds.iter().map(|r| r.leases.len()).sum::<usize>() as f64,
            "count",
        ),
        Metric::new(
            "jobs.round_self_frac",
            self_total as f64 / round_ns as f64,
            "fraction",
        ),
        Metric::new("jobs.round_ms_p99", tail.value, "ms"),
        Metric::new("jobs.store_list_ms", list_ms, "ms"),
        Metric::new("jobs.store_save_ms", save_ms, "ms"),
        Metric::new("jobs.share_error", share_error(&pass), "fraction"),
    ]);
}

/// One cluster-hetero search plus each leaf alone: the cluster layer.
fn cluster_layer(runner: &mut Runner, cold_plan_s: f64, out: &mut Vec<Metric>) {
    let (result, unit) = runner.cluster(0, None);
    let [cpu, gpu] = runner
        .cluster_leaves(0)
        .map(|(keys, ns)| keys as f64 / ns as f64 * 1e3);
    let total: u128 = result.per_device.iter().map(|(_, n)| n).sum();
    let mut share_error = 0.0;
    let mut idle = 0.0;
    println!("cluster leaf                         keys  key share  rate share  busy ms  idle ms");
    for ((label, tested), st) in result.per_device.iter().zip(&result.stats) {
        let rate = if label.contains("[simgpu]") { gpu } else { cpu };
        let key_share = *tested as f64 / total as f64;
        let rate_share = rate / (cpu + gpu);
        share_error += (key_share - rate_share).abs() / 2.0;
        idle += unit.wall_ns.saturating_sub(st.busy_ns) as f64 / unit.wall_ns as f64;
        println!(
            "{label:<30} {tested:>10} {key_share:>10.4} {rate_share:>11.4} {:>8.1} {:>8.1}",
            st.busy_ns as f64 / 1e6,
            st.idle_ns as f64 / 1e6
        );
    }
    let achieved = unit.keys as f64 / unit.wall_ns as f64 * 1e3;
    out.extend([
        Metric::new("cluster.plan_s", cold_plan_s, "s"),
        Metric::new(
            "cluster.network_efficiency",
            achieved / (cpu + gpu),
            "fraction",
        ),
        Metric::new("cluster.leaf_rate_mkeys_per_s.cpu", cpu, "MKey/s"),
        Metric::new("cluster.leaf_rate_mkeys_per_s.gpu660", gpu, "MKey/s"),
        Metric::new("cluster.static_share_error", share_error, "fraction"),
        Metric::new(
            "cluster.tail_idle_frac",
            idle / result.stats.len() as f64,
            "fraction",
        ),
        Metric::new(
            "cluster.reported_efficiency_pct",
            result.parallel_efficiency(),
            "%",
        ),
    ]);
}

/// Median and quartiles of `1 − b/a` over interleaved pairs.
fn overhead(name: &str, pairs: &[(f64, f64)], out: &mut Vec<Metric>) {
    let fracs: Vec<f64> = pairs.iter().map(|(a, b)| 1.0 - b / a).collect();
    let (q1, q3) = stats::quartiles(&fracs).unwrap_or((fracs[0], fracs[0]));
    println!("{name}: {} interleaved pairs", fracs.len());
    out.extend([
        Metric::new(name, stats::median(&fracs).expect("pairs"), "fraction"),
        Metric::new(format!("{name}.q1"), q1, "fraction"),
        Metric::new(format!("{name}.q3"), q3, "fraction"),
    ]);
}

/// crack-md5 with a disabled against an enabled `Telemetry` handle (the
/// `--metrics-out` path), in interleaved pairs.
fn telemetry_overhead(seed: u64, threads: usize, out: &mut Vec<Metric>) {
    let space = inputs::lower7();
    let s = inputs::planted_search(Workload::CrackMd5, seed, 0, inputs::MD5_ROUND_KEYS);
    let slice = Interval::new(s.interval.start, TELEMETRY_KEYS);
    let targets = TargetSet::new(
        HashAlgo::Md5,
        &[HashAlgo::Md5.hash_long(space.key_at(s.planted).as_bytes())],
    );
    let config = ParallelConfig {
        first_hit_only: false,
        ..ParallelConfig::for_threads(threads)
    };
    let arm = |enabled: bool| {
        let telemetry = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let auto = AutoBackend::new(telemetry.clone());
        let (r, wall, _) = timed(|| {
            crack_parallel_backend_observed(
                &space,
                &targets,
                slice,
                &auto,
                config,
                &telemetry,
                |_| {},
            )
        });
        r.tested as f64 / wall as f64
    };
    let pairs: Vec<(f64, f64)> = (0..TELEMETRY_PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let off = arm(false);
                (off, arm(true))
            } else {
                let on = arm(true);
                (arm(false), on)
            }
        })
        .collect();
    overhead("telemetry.overhead_frac", &pairs, out);
}

/// The workload's own closed loop, untraced against traced, in
/// interleaved pairs for `seconds`: `(untraced, traced)` rates.
fn trace_overhead(runner: &mut Runner, threads: usize, seconds: u64) -> Vec<(f64, f64)> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let log = SpanLog::new();
    let mut pairs = Vec::new();
    if runner.w == Workload::JobsMixed {
        // Alternate fleets round by round inside each pass, in the order
        // plain, traced, traced, plain, so each pair swaps which goes first.
        let plain = host_fleet(threads, None);
        let traced = host_fleet(threads, Some(&log));
        let mut pass = 0;
        while pass == 0 || Instant::now() < deadline {
            let p = runner.jobs_pass(pass, &[&plain, &traced, &traced, &plain], None, false);
            log.take();
            for pair in p.rounds.chunks_exact(2) {
                let rate = |i: usize| pair[i].keys as f64 / pair[i].wall_ns as f64;
                let traced_first = pair[0].fleet == 1 || pair[0].fleet == 2;
                pairs.push(if traced_first {
                    (rate(1), rate(0))
                } else {
                    (rate(0), rate(1))
                });
            }
            pass += 1;
        }
        return pairs;
    }
    let mut r = 0;
    while pairs.len() < 2 || Instant::now() < deadline {
        let mut arm = |traced: bool| {
            let unit = runner.unit(r, traced.then_some(&log));
            log.take();
            unit.keys as f64 / unit.wall_ns as f64
        };
        pairs.push(if r % 2 == 0 {
            let plain = arm(false);
            (plain, arm(true))
        } else {
            let traced = arm(true);
            (arm(false), traced)
        });
        r += 1;
    }
    pairs
}

/// The traced run of workload `w`: every per-layer metric, plus the
/// tracing overhead on `w` itself.
pub fn traced(w: Workload, seed: u64, seconds: u64, tmp: &Path) -> (Checks, Vec<Metric>) {
    let threads = nproc();
    let mut out = Vec::new();
    let md5_cold = cold_setups(Workload::CrackMd5, seed, COLD_PROCESSES);
    let cluster_cold = cold_setups(Workload::ClusterHetero, seed, COLD_PROCESSES);
    let median = |v: Vec<f64>| stats::median(&v).expect("cold samples");
    probes(
        seed,
        median(md5_cold.iter().map(|t| t.auto_tune_s).collect()),
        &mut out,
    );

    let mut checks = Checks::default();
    let mut md5 = Runner::new(Workload::CrackMd5, seed, threads, tmp);
    let log = SpanLog::new();
    md5.crack_md5(0, Some(&log));
    let spans = log.take();
    let call = spans
        .iter()
        .find(|s| s.kind == Kind::Call)
        .expect("call span")
        .interval();
    engine_metrics(
        "engine.",
        &EngineStats::from_spans(&spans, call, threads, Group::Thread),
        &mut out,
    );
    checks.add(md5.checks);

    let mut jobs = Runner::new(Workload::JobsMixed, seed, threads, tmp);
    jobs_layer(&mut jobs, threads, &mut out);
    checks.add(jobs.checks);

    let mut cluster = Runner::new(Workload::ClusterHetero, seed, threads, tmp);
    cluster_layer(
        &mut cluster,
        median(cluster_cold.iter().map(|t| t.plan_s).collect()),
        &mut out,
    );
    checks.add(cluster.checks);

    telemetry_overhead(seed, threads, &mut out);

    let mut own = Runner::new(w, seed, threads, tmp);
    let pairs = trace_overhead(&mut own, threads, seconds);
    overhead("trace.overhead_frac", &pairs, &mut out);
    checks.add(own.checks);
    (checks, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{JobsPass, RoundRec, Unit};
    use eks_jobs::JobId;

    fn round(leases: &[(u64, u128)], completed: bool) -> RoundRec {
        RoundRec {
            fleet: 0,
            wall_ns: 1,
            keys: leases.iter().map(|l| l.1).sum(),
            leases: leases
                .iter()
                .map(|&(j, n)| (JobId(j), Interval::new(0, n)))
                .collect(),
            completed,
        }
    }

    #[test]
    fn share_error_compares_leased_share_with_priority_share() {
        let pass = JobsPass {
            unit: Unit::default(),
            rounds: vec![
                // Exact 1:1:2 split: no error.
                round(&[(1, 25), (2, 25), (3, 50)], false),
                // Job 3 got 40 % against a 50 % priority share.
                round(&[(1, 30), (2, 30), (3, 40)], false),
                // Rounds where a job completed, or only one job leased,
                // are not contended and are skipped.
                round(&[(1, 90), (3, 10)], true),
                round(&[(1, 100)], false),
            ],
            priorities: vec![(JobId(1), 1), (JobId(2), 1), (JobId(3), 2)],
            store_ms: None,
        };
        assert!((share_error(&pass) - 0.1).abs() < 1e-12);
    }
}
