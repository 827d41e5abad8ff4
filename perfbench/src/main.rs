//! The repository benchmark: four closed-loop workloads over the library
//! entry points the `eks` CLI calls, an untraced run for the end-to-end
//! metrics and a traced run for the per-layer ones. See `NOTES.md`.
//!
//! ```text
//! eks-perfbench --workload <crack-md5|crack-mask|jobs-mixed|cluster-hetero>
//!               --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Human-readable lines go first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is non-zero when any correctness check failed.

mod host;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use eks_cracker::AutoBackend;
use eks_hashes::{to_hex, HashAlgo};
use eks_telemetry::Telemetry;
use inputs::Workload;
use workloads::{Checks, Runner, SetupTimes};

/// Fresh processes whose cold set-up is timed per run; the median is
/// reported.
const SETUP_PROCESSES: usize = 21;
/// Fresh processes the untraced loop is split across. Throughput of the
/// allocation-heavy paths differs from one process to the next by up to
/// a third (memory layout, allocator arenas), far more than within one
/// process, so a run pools several.
const MEASURE_PROCESSES: u64 = 5;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric by name, value and unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What this process does: a whole run, or one child's share of it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Run,
    /// Time a cold set-up ([`workloads::setup_child`]).
    SetupChild,
    /// Run the closed loop from this round on ([`closed_loop`]).
    MeasureChild(u64),
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut role) =
        (None, 1u64, 10u64, false, Role::Run);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--setup-child" => role = Role::SetupChild,
            "--measure-child" => {
                let first = value()?
                    .parse()
                    .map_err(|e| format!("--measure-child: {e}"))?;
                role = Role::MeasureChild(first);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
        role,
    })
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = Path::new(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("scratch directory can be created");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run of the benchmark uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Run this program as a child with `args` and return its standard
/// output once it has exited successfully. Its standard error (failed
/// checks) passes through.
fn child(args: &[&str]) -> String {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .expect("child process starts");
    assert!(
        out.status.success(),
        "child process {args:?} failed: {out:?}"
    );
    String::from_utf8(out.stdout).expect("child output is UTF-8")
}

/// Time the workload's set-up in `n` fresh processes of this program.
pub fn cold_setups(w: Workload, seed: u64, n: usize) -> Vec<SetupTimes> {
    (0..n)
        .map(|_| {
            let text = child(&[
                "--setup-child",
                "--workload",
                w.name(),
                "--seed",
                &seed.to_string(),
            ]);
            let field = |name: &str| -> f64 {
                text.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("set-up process printed no {name}: {text}"))
            };
            SetupTimes {
                setup_s: field("setup_s"),
                auto_tune_s: field("auto_tune_s"),
                plan_s: field("plan_s"),
            }
        })
        .collect()
}

/// One process's share of an untraced run.
#[derive(Default)]
struct Loop {
    keys: u128,
    wall_ns: u64,
    cpu_ns: u64,
    rounds_ms: Vec<f64>,
    checks: Checks,
}

/// The workload's closed loop from round `first` on: at least one unit,
/// and no unit that the last one's duration says would end past
/// `seconds`.
fn closed_loop(args: &Args, first: u64, scratch: &Path) -> Loop {
    let mut runner = Runner::new(args.workload, args.seed, host::nproc(), scratch);
    // Tuning is set-up, measured on its own: keep it out of the loop.
    AutoBackend::new(Telemetry::disabled()).choice_name(HashAlgo::Md5);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut out = Loop::default();
    let mut r = first;
    let mut last = Duration::ZERO;
    while r == first || Instant::now() + last < deadline {
        let unit = runner.unit(r, None);
        last = Duration::from_nanos(unit.wall_ns);
        out.keys += unit.keys;
        out.wall_ns += unit.wall_ns;
        out.cpu_ns += unit.cpu_ns;
        out.rounds_ms.extend(unit.rounds_ms);
        r += 1;
    }
    out.checks = runner.checks;
    out
}

/// The untraced run: cold set-ups, then the closed loop split across
/// [`MEASURE_PROCESSES`] fresh processes, pooled.
fn untraced(args: &Args) -> (Checks, Vec<Metric>) {
    let setups = cold_setups(args.workload, args.seed, SETUP_PROCESSES);
    let setup: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
    let seconds = (args.seconds / MEASURE_PROCESSES).max(1).to_string();
    let mut total = Loop::default();
    let mut rates = Vec::new();
    for k in 0..MEASURE_PROCESSES {
        // Each child starts a million rounds further on: distinct inputs.
        let first = (k * 1_000_000).to_string();
        let seed = args.seed.to_string();
        let text = child(&[
            "--measure-child",
            &first,
            "--workload",
            args.workload.name(),
            "--seed",
            &seed,
            "--seconds",
            &seconds,
        ]);
        let nums: Vec<f64> = text
            .split_whitespace()
            .map(|v| v.parse().expect("numeric child output"))
            .collect();
        let [keys, wall_ns, cpu_ns, attempted, failed] = nums[..5] else {
            panic!("short child output: {text}")
        };
        rates.push(keys / wall_ns * 1e3);
        total.keys += keys as u128;
        total.wall_ns += wall_ns as u64;
        total.cpu_ns += cpu_ns as u64;
        total.checks.attempted += attempted as u64;
        total.checks.failed += failed as u64;
        total.rounds_ms.extend(&nums[5..]);
    }
    let tail = stats::tail(&total.rounds_ms).expect("at least one round");
    let rates_text: Vec<String> = rates.iter().map(|x| format!("{x:.2}")).collect();
    println!("process MKey/s : {}", rates_text.join(" "));
    // The round tail is reported but not gated: on a shared VM it follows
    // host preemption more than the program.
    println!("round_ms_p99   : {} ms ({})", tail.value, tail.describe());
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup).expect("set-ups"), "s"),
        Metric::new(
            "mkeys_per_s",
            total.keys as f64 / total.wall_ns as f64 * 1e3,
            "MKey/s",
        ),
        Metric::new(
            "cpu_ns_per_key",
            total.cpu_ns as f64 / total.keys as f64,
            "ns",
        ),
        Metric::new(
            "round_ms_p50",
            stats::median(&total.rounds_ms).expect("rounds"),
            "ms",
        ),
    ];
    (total.checks, metrics)
}

fn report(checks: Checks, metrics: &[Metric]) -> ExitCode {
    let miss_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<40} = {miss_frac} fraction ({} failed of {} attempted)",
        "miss_frac", checks.failed, checks.attempted
    );
    for m in metrics {
        println!("{:<40} = {} {}", m.name, m.value, m.unit);
    }
    let mut ok = checks.failed == 0 && checks.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                eprintln!("metric {} is not a finite number", m.name);
                ok = false;
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            // Names and units are fixed identifiers: nothing to escape.
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eks-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch::new();
    match args.role {
        Role::SetupChild => {
            let t = workloads::setup_child(args.workload, args.seed, host::nproc(), &scratch.0);
            println!(
                "setup_s={} auto_tune_s={} plan_s={}",
                t.setup_s, t.auto_tune_s, t.plan_s
            );
            return ExitCode::SUCCESS;
        }
        Role::MeasureChild(first) => {
            // One line of numbers: keys, wall ns, CPU ns, attempted,
            // failed, then every round's milliseconds.
            let l = closed_loop(&args, first, &scratch.0);
            let rounds: Vec<String> = l.rounds_ms.iter().map(f64::to_string).collect();
            println!(
                "{} {} {} {} {} {}",
                l.keys,
                l.wall_ns,
                l.cpu_ns,
                l.checks.attempted,
                l.checks.failed,
                rounds.join(" ")
            );
            return ExitCode::SUCCESS;
        }
        Role::Run => {}
    }
    println!(
        "stamp {}",
        host::stamp(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let inputs = inputs::fingerprint(args.workload, args.seed, 4);
    println!(
        "inputs md5 {} (first 4 rounds)",
        to_hex(&HashAlgo::Md5.hash_long(&inputs))
    );
    let (checks, metrics) = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds, &scratch.0)
    } else {
        untraced(&args)
    };
    report(checks, &metrics)
}
