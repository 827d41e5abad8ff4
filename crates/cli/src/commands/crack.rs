//! `eks crack` — the flagship search command — and its flag grammar.

use crate::args::Args;
use eks_cluster::SimKernelBackend;
use eks_cracker::{
    crack_parallel_backend_observed, render_worker_stats, AutoBackend, HashTarget, LaneBackend,
    Lanes, ParallelConfig, ScalarBackend, SimdBackend, TargetSet,
};
use eks_engine::{Backend, BackendKind, ProgressEvent, SchedPolicy};
use eks_gpusim::device::DeviceCatalog;
use eks_hashes::{from_hex, SimdIsa};
use eks_telemetry::{names, Telemetry};
use eks_keyspace::{KeySpace, Order};

use super::{
    arm_flight_recorder, parse_algo, parse_charset, parse_chunk, parse_sched, parse_telemetry,
    parse_threads, spawn_metrics_server, write_artifacts, NOT_FOUND,
};

/// `--batch` opts into the lane-batched path explicitly (it is already the
/// default); `--lanes scalar|8|16` picks the width. The combination
/// `--batch --lanes scalar` is contradictory and rejected.
fn parse_lanes(args: &Args) -> Result<Lanes, String> {
    let lanes = match args.get("lanes") {
        Some(s) => {
            Lanes::parse(s).ok_or(format!("unsupported --lanes {s:?} (scalar, 8 or 16)"))?
        }
        None => Lanes::default(),
    };
    if args.has("batch") && lanes == Lanes::Scalar {
        return Err("--batch contradicts --lanes scalar".into());
    }
    Ok(lanes)
}

/// `--backend scalar|lanes8|lanes16|simd|auto|simgpu` names an engine
/// backend explicitly. It subsumes the older `--lanes`/`--batch` pair,
/// so combining them is contradictory and rejected; `simgpu` drives the
/// kernel of the device picked by `--device` (default: the GTX 660);
/// `simd` runs the explicit AVX2/AVX-512/NEON kernels (widest detected
/// ISA, or the one forced by `--isa`); `auto` tunes every CPU
/// implementation per algorithm and runs the winner. An unavailable
/// forced ISA is a CLI error naming what the CPU actually supports.
/// Without `--backend` the lane backend of width `lanes` runs.
fn parse_backend(
    args: &Args,
    lanes: Lanes,
    telemetry: &Telemetry,
) -> Result<Box<dyn Backend>, String> {
    let lane_backend = |lanes| -> Box<dyn Backend> {
        Box::new(LaneBackend::new(lanes).with_telemetry(telemetry.clone()))
    };
    let Some(s) = args.get("backend") else {
        if args.has("isa") {
            return Err("--isa applies only to --backend simd".into());
        }
        return Ok(lane_backend(lanes));
    };
    if args.has("lanes") || args.has("batch") {
        return Err("--backend conflicts with --lanes/--batch".into());
    }
    let kind = BackendKind::parse(s).ok_or(format!(
        "unsupported --backend {s:?} (scalar, lanes8, lanes16, simd, auto or simgpu)"
    ))?;
    if args.has("isa") && kind != BackendKind::Simd {
        return Err("--isa applies only to --backend simd".into());
    }
    Ok(match kind {
        BackendKind::Scalar => Box::new(ScalarBackend),
        BackendKind::Lanes8 => lane_backend(Lanes::L8),
        BackendKind::Lanes16 => lane_backend(Lanes::L16),
        BackendKind::Simd => {
            let backend = match args.get("isa") {
                Some(name) => {
                    let isa = SimdIsa::parse(name)
                        .ok_or(format!("unsupported --isa {name:?} (avx2, avx512 or neon)"))?;
                    SimdBackend::new(isa)?
                }
                None => SimdBackend::best().ok_or_else(|| {
                    "no explicit-SIMD ISA detected on this CPU; \
                     use --backend auto for the autovectorized fallback"
                        .to_string()
                })?,
            };
            Box::new(backend.with_telemetry(telemetry.clone()))
        }
        BackendKind::Auto => Box::new(AutoBackend::new(telemetry.clone())),
        BackendKind::SimGpu => {
            let device =
                DeviceCatalog::find(args.get_or("device", "660")).ok_or("unknown --device")?;
            Box::new(SimKernelBackend::new(device))
        }
    })
}

/// How often the periodic progress line refreshes (telemetry-clock ns).
const PROGRESS_EVERY_NS: u64 = 500_000_000;

/// Format one progress line from a merged-scan observation: percent of
/// the keyspace, aggregate rate, and the ETA at that rate. All three
/// derive from the guarded [`ProgressEvent`] helpers, so a
/// zero-duration run prints zeros instead of NaN.
fn progress_line(e: &ProgressEvent, total: u128, elapsed_secs: f64) -> String {
    let eta = match e.eta_secs(total, elapsed_secs) {
        Some(s) => format!("{s:.0} s"),
        None => "unknown".into(),
    };
    format!(
        "progress: {:.1}% of keyspace, {:.2} MKey/s, eta {eta}",
        e.percent_of(total),
        e.keys_per_sec(elapsed_secs) / 1e6,
    )
}

pub(super) fn cmd_crack(args: &Args) -> Result<(), String> {
    let algo = parse_algo(args)?;
    let digest_hex = args
        .get("digest")
        .ok_or("crack requires --digest <hex>")?;
    let digest = from_hex(digest_hex).ok_or("digest is not valid hex")?;
    if digest.len() != algo.digest_len() {
        return Err(format!(
            "digest length {} does not match {} ({} bytes)",
            digest.len(),
            algo.name(),
            algo.digest_len()
        ));
    }
    let threads = parse_threads(args, 8)?;
    let lanes = parse_lanes(args)?;
    let (telemetry, log) = parse_telemetry(args)?;
    let _metrics_server = spawn_metrics_server(args, &telemetry, None)?;
    arm_flight_recorder(args, &telemetry);
    let backend = parse_backend(args, lanes, &telemetry)?;
    let chunk = parse_chunk(args)?;
    let sched = parse_sched(args, SchedPolicy::Steal)?;
    let structured = args.get("mask").is_some()
        || args.get("words").is_some()
        || args.get("salt-prefix").is_some()
        || args.get("salt-suffix").is_some();
    if args.has("backend") && structured {
        return Err("--backend applies only to plain charset searches".into());
    }
    if args.get("sched").is_some() && structured {
        return Err("--sched applies only to plain charset searches".into());
    }

    // Mask attack: --mask "?u?l?l?d?d".
    if let Some(mask) = args.get("mask") {
        let space = eks_keyspace::MaskSpace::parse(mask).map_err(|e| e.to_string())?;
        log.info(format!("mask {mask}: {} candidates, {threads} threads", space.size()));
        let targets = TargetSet::new(algo, &[digest]);
        let config = ParallelConfig {
            threads,
            chunk: chunk.unwrap_or(1 << 12),
            first_hit_only: !args.has("all"),
            ..ParallelConfig::default()
        };
        let report = eks_cracker::crack_space_parallel(&space, &targets, config);
        write_artifacts(args, &telemetry, &log)?;
        return finish_report(report);
    }

    // Hybrid attack: --words w1,w2,... [--suffix-digits N].
    if let Some(words) = args.get("words") {
        let list: Vec<&[u8]> = words.split(',').map(|w| w.as_bytes()).collect();
        let digits: u32 = args.get_parse_or("suffix-digits", 2)?;
        let space = eks_keyspace::HybridSpace::with_digit_suffixes(&list, digits)
            .map_err(|e| format!("{e:?}"))?;
        log.info(format!(
            "hybrid: {} words x digit suffixes 0..={digits} = {} candidates",
            space.word_count(),
            space.size()
        ));
        let targets = TargetSet::new(algo, &[digest]);
        let config = ParallelConfig {
            threads,
            chunk: chunk.unwrap_or(256),
            first_hit_only: !args.has("all"),
            ..ParallelConfig::default()
        };
        let report = eks_cracker::crack_space_parallel(&space, &targets, config);
        write_artifacts(args, &telemetry, &log)?;
        return finish_report(report);
    }

    let charset = parse_charset(args)?;
    let min: u32 = args.get_parse_or("min", 1)?;
    let max: u32 = args.get_parse_or("max", 5)?;
    let space = KeySpace::new(charset, min, max, Order::FirstCharFastest)
        .map_err(|e| e.to_string())?;
    log.info(format!(
        "searching {} candidates ({} lengths {min}..={max}) with {threads} threads",
        space.size(),
        algo.name()
    ));

    let salted = args.get("salt-prefix").is_some() || args.get("salt-suffix").is_some();
    if salted {
        // Salted targets go through the streaming path, one at a time.
        let prefix = args.get_or("salt-prefix", "").as_bytes().to_vec();
        let suffix = args.get_or("salt-suffix", "").as_bytes().to_vec();
        let target = HashTarget::salted(algo, &digest, &prefix, &suffix);
        let mut found = None;
        space.iter(space.interval()).for_each_key(|id, key| {
            if target.matches(key) {
                found = Some((id, key.clone()));
                false
            } else {
                true
            }
        });
        return match found {
            Some((id, key)) => {
                println!("FOUND: \"{key}\" (identifier {id})");
                Ok(())
            }
            None => Err(format!("{NOT_FOUND} in this keyspace")),
        };
    }

    let targets = TargetSet::new(algo, &[digest]);
    let mut config = ParallelConfig {
        first_hit_only: !args.has("all"),
        sched,
        ..ParallelConfig::for_threads(threads)
    };
    if let Some(c) = chunk {
        config.chunk = c;
    }
    // Periodic progress line: throttled to one refresh per
    // PROGRESS_EVERY_NS on the telemetry clock (an injected ManualClock
    // therefore controls exactly which refreshes print), derived from
    // the merged-scan observations the dispatcher already emits (no
    // extra hot-path work).
    let total = space.size();
    let start_ns = telemetry.now_ns();
    let throttle = eks_telemetry::Throttle::new(start_ns, PROGRESS_EVERY_NS);
    let want_progress = args.has("progress");
    // Hidden test hook for the CI flight-recorder gate: panic after the
    // N-th merged chunk, mid-search, so the armed --flight hook dumps a
    // black box that `eks postmortem` must replay.
    let panic_after: Option<u64> = match args.get("panic-after-chunks") {
        Some(s) => Some(s.parse().map_err(|_| format!("invalid --panic-after-chunks {s:?}"))?),
        None => None,
    };
    let chunks_seen = std::sync::atomic::AtomicU64::new(0);
    let progress = |e: &ProgressEvent| {
        if let Some(n) = panic_after {
            let seen = chunks_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            assert!(seen < n, "forced panic after {n} chunks (--panic-after-chunks)");
        }
        if !want_progress {
            return;
        }
        let now_ns = telemetry.now_ns();
        if !throttle.ready(now_ns) {
            return;
        }
        log.progress(progress_line(e, total, now_ns.saturating_sub(start_ns) as f64 / 1e9));
    };
    // Record which kernel specialization the backend selected (the §V
    // per-architecture choice) and its tuned rate, so `eks report` can
    // show them next to the cost-model terms. Guarded on the enabled
    // handle because the tuned rate runs a short timed sweep.
    if args.has("backend") && telemetry.is_enabled() {
        let name = backend.name();
        if let Some(isa) = backend.isa(algo) {
            telemetry.gauge(names::BACKEND_ISA, &[("backend", &name), ("isa", &isa)]).set(1.0);
        }
        telemetry
            .gauge(names::BACKEND_RATE_MKEYS, &[("backend", &name)])
            .set(backend.tuned_rate(algo));
    }
    let report = crack_parallel_backend_observed(
        &space,
        &targets,
        space.interval(),
        backend.as_ref(),
        config,
        &telemetry,
        progress,
    );
    if args.has("stats") {
        print!("{}", render_worker_stats(&report.stats));
    }
    write_artifacts(args, &telemetry, &log)?;
    finish_report(report)
}

fn finish_report(report: eks_cracker::ParallelReport) -> Result<(), String> {
    if report.hits.is_empty() {
        return Err(format!(
            "{NOT_FOUND}; tested {} keys at {:.2} MKey/s",
            report.tested, report.mkeys_per_s
        ));
    }
    for (id, key, _) in &report.hits {
        println!("FOUND: \"{key}\" (identifier {id})");
    }
    println!(
        "tested {} keys in {:.3} s ({:.2} MKey/s)",
        report.tested, report.elapsed_s, report.mkeys_per_s
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::{run, wants_usage_hint};
    use eks_engine::BackendKind;
    use eks_hashes::{to_hex, HashAlgo, SimdIsa};
    use eks_telemetry::{names, parse_prometheus};

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn crack_round_trip() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&["crack", "--algo", "md5", "--digest", &digest, "--max", "3", "--threads", "2"]);
        assert!(run("crack", &a).is_ok());
    }

    #[test]
    fn crack_lanes_flags() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        for lanes in ["scalar", "8", "16"] {
            let a = args(&[
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--lanes", lanes,
            ]);
            assert!(run("crack", &a).is_ok(), "--lanes {lanes}");
        }
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--batch"]);
        assert!(run("crack", &a).is_ok(), "--batch is the default made explicit");
        let bad = args(&["crack", "--digest", &digest, "--lanes", "32"]);
        assert!(run("crack", &bad).is_err(), "unsupported width");
        let contradiction =
            args(&["crack", "--digest", &digest, "--batch", "--lanes", "scalar"]);
        assert!(run("crack", &contradiction).is_err());
    }

    #[test]
    fn crack_backend_flag() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let mut backends = vec!["scalar", "lanes8", "lanes16", "auto", "simgpu"];
        if BackendKind::Simd.is_available() {
            backends.push("simd");
        }
        for backend in backends {
            let a = args(&[
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--backend", backend,
            ]);
            assert!(run("crack", &a).is_ok(), "--backend {backend}");
        }
        let bad = args(&["crack", "--digest", &digest, "--backend", "cuda"]);
        assert!(run("crack", &bad).is_err(), "unknown backend");
        let bad_isa = args(&[
            "crack", "--digest", &digest, "--backend", "simd", "--isa", "mmx",
        ]);
        assert!(run("crack", &bad_isa).is_err(), "unknown --isa");
        let stray_isa = args(&["crack", "--digest", &digest, "--isa", "avx2"]);
        assert!(run("crack", &stray_isa).is_err(), "--isa without --backend simd");
        // Forcing an ISA the CPU lacks must be a friendly error, not a
        // panic; at most one of the ISAs can be the detected one.
        for isa in ["avx2", "avx512", "neon"] {
            if SimdIsa::parse(isa).is_some_and(|i| i.is_available()) {
                continue;
            }
            let forced = args(&[
                "crack", "--digest", &digest, "--max", "3", "--backend", "simd", "--isa", isa,
            ]);
            assert!(run("crack", &forced).is_err(), "unavailable --isa {isa}");
        }
        let conflict =
            args(&["crack", "--digest", &digest, "--backend", "scalar", "--lanes", "8"]);
        assert!(run("crack", &conflict).is_err(), "--backend conflicts with --lanes");
        let masked = args(&[
            "crack", "--digest", &digest, "--backend", "scalar", "--mask", "?l?l?l",
        ]);
        assert!(run("crack", &masked).is_err(), "--backend is plain-search only");
        let nodev =
            args(&["crack", "--digest", &digest, "--backend", "simgpu", "--device", "voodoo2"]);
        assert!(run("crack", &nodev).is_err(), "unknown simgpu device");
    }

    #[test]
    fn crack_sched_and_chunk_flags() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        for sched in ["static", "queue", "steal"] {
            let a = args(&[
                "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--sched", sched,
            ]);
            assert!(run("crack", &a).is_ok(), "--sched {sched}");
        }
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--chunk", "1024", "--stats"]);
        assert!(run("crack", &a).is_ok(), "--chunk override with stats table");
        let bad = args(&["crack", "--digest", &digest, "--sched", "fifo"]);
        assert!(run("crack", &bad).is_err(), "unknown policy");
        let masked =
            args(&["crack", "--digest", &digest, "--sched", "steal", "--mask", "?l?l?l"]);
        assert!(run("crack", &masked).is_err(), "--sched is plain-search only");
    }

    #[test]
    fn retired_unknown_and_bare_value_flags_fail_by_name() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let retired = args(&["crack", "--digest", &digest, "--max", "3", "--retune"]);
        let err = run("crack", &retired).expect_err("--retune is gone");
        assert!(err.contains("--retune"), "{err}");
        let typo = args(&["crack", "--digest", &digest, "--max-len", "6"]);
        let err = run("crack", &typo).expect_err("--max-len is not a crack flag");
        assert!(err.contains("--max-len"), "{err}");
        let bare = args(&["bench", "--json"]);
        let err = run("bench", &bare).expect_err("--json needs a file name");
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn crack_chunk_zero_is_a_usage_error_not_a_panic() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--chunk", "0"]);
        let err = run("crack", &a).expect_err("chunk 0 must be rejected");
        assert!(err.contains("--chunk"), "{err}");
        let a = args(&["crack", "--digest", &digest, "--chunk", "lots"]);
        assert!(run("crack", &a).is_err(), "non-numeric chunk");
        let a = args(&["crack", "--digest", &digest, "--threads", "0"]);
        let err = run("crack", &a).expect_err("threads 0 must be rejected");
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn crack_with_auto_backend_records_isa_and_tuned_rate_gauges() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("eks-cli-isa-{}.prom", std::process::id()));
        let digest = to_hex(&HashAlgo::Md5.hash(b"zzz"));
        let a = args(&[
            "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--all",
            "--backend", "auto", "--metrics-out", metrics.to_str().unwrap(),
        ]);
        assert!(run("crack", &a).is_ok());
        let samples = parse_prometheus(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(
            samples.iter().any(|s| s.name == names::BACKEND_ISA
                && s.label("backend") == Some("auto")
                && s.value == 1.0),
            "{samples:?}"
        );
        assert!(
            samples
                .iter()
                .any(|s| s.name == names::BACKEND_RATE_MKEYS && s.value > 0.0),
            "{samples:?}"
        );
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn crack_with_lanes8_backend_records_batch_path_metrics() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("eks-cli-lanes8-{}.prom", std::process::id()));
        let digest = to_hex(&HashAlgo::Md5.hash(b"zzz"));
        let a = args(&[
            "crack", "--digest", &digest, "--max", "3", "--threads", "2", "--all",
            "--backend", "lanes8", "--metrics-out", metrics.to_str().unwrap(),
        ]);
        assert!(run("crack", &a).is_ok());
        let samples = parse_prometheus(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let value = |name: &str| samples.iter().filter(|s| s.name == name).map(|s| s.value).sum();
        let fill: f64 = value(&format!("{}_count", names::BATCH_FILL_NS));
        let hash: f64 = value(&format!("{}_count", names::BATCH_HASH_NS));
        let misses: f64 = value(names::PREFILTER_MISSES);
        assert!(fill > 0.0 && hash > 0.0 && misses > 0.0, "{samples:?}");
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn quiet_and_verbose_conflict_is_a_usage_error() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cab"));
        let a = args(&["crack", "--digest", &digest, "--max", "3", "--quiet", "--verbose"]);
        let err = run("crack", &a).expect_err("contradictory levels");
        assert!(err.contains("--quiet"), "{err}");
        // Each alone is fine, as is the progress flag.
        let q = args(&["crack", "--digest", &digest, "--max", "3", "--quiet"]);
        assert!(run("crack", &q).is_ok());
        let p = args(&["crack", "--digest", &digest, "--max", "3", "--progress", "--verbose"]);
        assert!(run("crack", &p).is_ok());
    }

    #[test]
    fn crack_salted_round_trip() {
        let digest = to_hex(&HashAlgo::Sha1.hash_long(b"s-ab"));
        let a = args(&[
            "crack", "--algo", "sha1", "--digest", &digest, "--max", "2", "--salt-prefix", "s-",
        ]);
        assert!(run("crack", &a).is_ok());
    }

    #[test]
    fn crack_rejects_bad_digest() {
        let a = args(&["crack", "--digest", "zz"]);
        assert!(run("crack", &a).is_err());
        let a = args(&["crack", "--digest", "aabb"]);
        assert!(run("crack", &a).is_err(), "wrong length");
    }

    #[test]
    fn crack_reports_not_found() {
        // An impossible digest over a tiny space: a non-zero outcome,
        // not a usage error.
        let a = args(&["crack", "--digest", &"00".repeat(16), "--max", "2", "--threads", "1"]);
        let err = run("crack", &a).expect_err("nothing to find");
        assert!(!wants_usage_hint(&err), "{err}");
        let a = args(&["crack", "--digest", &"00".repeat(16), "--max", "2", "--salt-prefix", "s"]);
        let err = run("crack", &a).expect_err("nothing to find");
        assert!(!wants_usage_hint(&err), "{err}");
        let usage = args(&["crack", "--digest", &"00".repeat(16), "--max-len", "2"]);
        let err = run("crack", &usage).expect_err("unknown flag");
        assert!(wants_usage_hint(&err), "{err}");
    }

    #[test]
    fn mask_attack_via_cli() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"Ab1"));
        let a = args(&["crack", "--digest", &digest, "--mask", "?u?l?d", "--threads", "2"]);
        assert!(run("crack", &a).is_ok());
        let bad = args(&["crack", "--digest", &digest, "--mask", "?z"]);
        assert!(run("crack", &bad).is_err());
    }

    #[test]
    fn hybrid_attack_via_cli() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cat7"));
        let a = args(&["crack", "--digest", &digest, "--words", "dog,cat", "--suffix-digits", "1"]);
        assert!(run("crack", &a).is_ok());
    }

    #[test]
    fn ntlm_crack_via_cli() {
        let digest = to_hex(&HashAlgo::Ntlm.hash(b"cab"));
        let a = args(&["crack", "--algo", "ntlm", "--digest", &digest, "--max", "3", "--threads", "2"]);
        assert!(run("crack", &a).is_ok());
    }

    #[test]
    fn custom_charset() {
        let digest = to_hex(&HashAlgo::Md5.hash(b"cb"));
        let a = args(&["crack", "--digest", &digest, "--charset", "abc", "--max", "2"]);
        assert!(run("crack", &a).is_ok());
    }
}
