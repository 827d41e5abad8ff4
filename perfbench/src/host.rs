//! Host facts: process CPU time and the stamp every result carries.

use eks_cracker::AutoBackend;
use eks_hashes::{cpu_features, HashAlgo, SimdIsa};
use eks_telemetry::Telemetry;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 per
/// second by the kernel's user-space ABI.
const NS_PER_TICK: u64 = 10_000_000;

/// CPU time (user + system) of the whole process so far — every thread,
/// including ones that have already exited — from `/proc/self/stat`.
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12th and 13th after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> u64 { fields[i].parse().expect("numeric stat field") };
    (ticks(11) + ticks(12)) * NS_PER_TICK
}

/// Worker threads for every workload: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].into())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line describing where a number came from: commit, compiler,
/// thread count, CPU features, SIMD ISA and the auto backend's tuned
/// pick per algorithm.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let features: Vec<String> = cpu_features()
        .iter()
        .map(|(name, on)| format!("\"{name}\":{on}"))
        .collect();
    let auto = AutoBackend::new(Telemetry::disabled());
    let choices: Vec<String> = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm]
        .iter()
        .map(|&a| format!("\"{}\":\"{}\"", a.name(), auto.choice_name(a)))
        .collect();
    let isa = SimdIsa::detect().map_or("none", |i| i.name());
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"cpu_features\":{{{}}},\
         \"simd_isa\":\"{isa}\",\"auto_choice\":{{{}}}}}",
        commit(),
        env!("PERFBENCH_RUSTC"),
        nproc(),
        features.join(","),
        choices.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(
            process_cpu_ns() > before,
            "60 ms of spinning must tick at least once"
        );
    }
}
