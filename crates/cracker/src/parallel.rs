//! Multi-threaded cracking: the fine-grain parallelization of Section III
//! mapped onto CPU threads.
//!
//! Each thread owns a contiguous share of the interval (no shared
//! cursor in the common case), pops guided-size chunks off its own
//! deque, and steals the back half of the largest remote deque when it
//! drains — the engine layer's [`SchedPolicy::Steal`] default. The
//! legacy shared-queue and purely static splits remain selectable via
//! [`ParallelConfig::sched`]. A shared stop flag ends the search at the
//! first hit when only one preimage is wanted.

use std::time::Instant;

use eks_engine::{Backend, Dispatcher, ProgressEvent, ScanMode, SchedPolicy, WorkerStats};
use eks_keyspace::{Interval, Key, KeySpace};
use eks_telemetry::{names, Telemetry};

use crate::backend::cpu_backend;
use crate::batch::Lanes;
use crate::target::TargetSet;

/// Parallel search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// Keys per work chunk: the fixed pop size under
    /// [`SchedPolicy::Queue`], the guided floor otherwise.
    pub chunk: u64,
    /// Stop the whole search at the first hit.
    pub first_hit_only: bool,
    /// Scheduling policy across threads (adaptive stealing by default).
    pub sched: SchedPolicy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::for_threads(4)
    }
}

impl ParallelConfig {
    /// A configuration whose chunk size is derived from the thread count
    /// via [`ParallelConfig::default_chunk`], first-hit semantics, default
    /// lane width.
    pub fn for_threads(threads: usize) -> Self {
        Self {
            threads,
            chunk: Self::default_chunk(threads),
            first_hit_only: true,
            sched: SchedPolicy::Steal,
        }
    }

    /// Chunk size for a thread count: a fixed per-sweep work budget
    /// (2¹⁸ keys) divided across threads, so more workers pull finer
    /// chunks (better load balance and first-hit latency) while few
    /// workers amortize cursor traffic over bigger ones. Clamped to
    /// `[16, 2¹⁶]` and kept a multiple of 16 so chunks compose with every
    /// lane width.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn default_chunk(threads: usize) -> u64 {
        assert!(threads >= 1, "need at least one thread");
        ((1u64 << 18) / threads as u64)
            .clamp(16, 1 << 16)
            .next_multiple_of(16)
    }
}

/// Outcome of a parallel search.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// All hits found, in identifier order.
    pub hits: Vec<(u128, Key, usize)>,
    /// Total candidates tested across threads.
    pub tested: u128,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Throughput in million key tests per second (the paper's MKey/s).
    pub mkeys_per_s: f64,
    /// Per-thread scheduler stats (tested, steals, splits, idle/busy
    /// time) in registration order.
    pub stats: Vec<WorkerStats>,
}

/// Crack `interval` of `space` against `targets` with `config.threads`
/// workers on the default-width batched CPU backend.
///
/// # Panics
/// Panics when `config.threads == 0` or `config.chunk == 0`.
pub fn crack_parallel(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    config: ParallelConfig,
) -> ParallelReport {
    crack_parallel_backend(
        space,
        targets,
        interval,
        &*cpu_backend(Lanes::default()),
        config,
    )
}

/// Like [`crack_parallel`] but over any engine-layer [`Backend`]: the
/// worker scheduling is the [`Dispatcher`]'s, so this path and the
/// cluster runtimes share one chunk/poll/cancel/merge implementation.
///
/// # Panics
/// Panics when `config.threads == 0` or `config.chunk == 0`.
pub fn crack_parallel_backend(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    backend: &dyn Backend,
    config: ParallelConfig,
) -> ParallelReport {
    crack_parallel_backend_observed(
        space,
        targets,
        interval,
        backend,
        config,
        &Telemetry::disabled(),
        |_| {},
    )
}

/// [`crack_parallel_backend`] with telemetry and a progress hook: the
/// dispatcher reports chunk spans and per-worker accounting, and
/// `progress` fires after every merged chunk scan. Batch-path timing
/// and prefilter counters come from the backend's own handle (e.g.
/// [`crate::LaneBackend::with_telemetry`]). A disabled handle and an
/// empty hook make this identical to [`crack_parallel_backend`].
///
/// # Panics
/// Panics when `config.threads == 0` or `config.chunk == 0`.
pub fn crack_parallel_backend_observed(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    backend: &dyn Backend,
    config: ParallelConfig,
    telemetry: &Telemetry,
    progress: impl Fn(&ProgressEvent) + Sync,
) -> ParallelReport {
    let start = Instant::now();
    let run_span = telemetry
        .span(names::SPAN_RUN)
        .device(&backend.name())
        .field("threads", config.threads)
        .field("sched", config.sched)
        .field("chunk", config.chunk);
    let dispatcher = Dispatcher::new(
        space,
        targets,
        ScanMode::from_first_hit(config.first_hit_only),
    )
    .with_telemetry(telemetry.clone())
    .on_progress(progress);
    dispatcher.run_workers(backend, interval, config.threads, config.chunk, config.sched);
    let report = dispatcher.finish();
    run_span.finish();
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    ParallelReport {
        hits: report.hits,
        tested: report.tested,
        elapsed_s,
        mkeys_per_s: report.tested as f64 / elapsed_s / 1e6,
        stats: report.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_hashes::HashAlgo;
    use eks_keyspace::{Charset, Order};

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn parallel_finds_planted_key() {
        let s = space();
        let t = targets(&[b"mule"]);
        let cfg = ParallelConfig {
            threads: 4,
            chunk: 1 << 12,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].1.as_bytes(), b"mule");
        assert!(r.mkeys_per_s > 0.0);
    }

    #[test]
    fn parallel_finds_every_target_in_full_sweep() {
        let s = space();
        let words: Vec<&[u8]> = vec![b"a", b"zz", b"cat", b"mnop"];
        let t = targets(&words);
        let cfg = ParallelConfig {
            threads: 3,
            chunk: 1 << 10,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        assert_eq!(r.hits.len(), 4);
        assert_eq!(r.tested, s.size(), "full sweep tests everything");
        // Identifier order.
        let ids: Vec<u128> = r.hits.iter().map(|(id, _, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn single_thread_matches_multi_thread_results() {
        let s = space();
        let t = targets(&[b"dog", b"pig"]);
        let base = ParallelConfig {
            threads: 1,
            chunk: 1 << 10,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let multi = ParallelConfig { threads: 4, ..base };
        let r1 = crack_parallel(&s, &t, s.interval(), base);
        let r4 = crack_parallel(&s, &t, s.interval(), multi);
        assert_eq!(r1.hits, r4.hits);
    }

    #[test]
    fn batched_lanes_find_the_same_hits_as_scalar() {
        let s = space();
        let t = targets(&[b"dog", b"pig", b"mnop"]);
        let base = ParallelConfig {
            threads: 2,
            chunk: 1 << 10,
            first_hit_only: false,
            ..ParallelConfig::for_threads(2)
        };
        let run = |lanes| crack_parallel_backend(&s, &t, s.interval(), &*cpu_backend(lanes), base);
        let scalar = run(Lanes::Scalar);
        for lanes in [Lanes::L8, Lanes::L16] {
            let batched = run(lanes);
            assert_eq!(batched.hits, scalar.hits, "{lanes}");
            assert_eq!(batched.tested, scalar.tested, "{lanes}");
        }
    }

    #[test]
    fn huge_interval_does_not_overflow_chunk_dispatch() {
        // Σ_{i=1}^{20} 62^i ≈ 7.2·10³⁵ candidates: an early dispatch
        // tracked chunks on a u64 cursor and panicked here with chunk = 1.
        // The interval deques are u128-native, so no widening is needed.
        let s = KeySpace::new(Charset::alphanumeric(), 1, 20, Order::FirstCharFastest).unwrap();
        let t = targets(&[b"a"]); // identifier 0: found immediately
        let cfg = ParallelConfig {
            threads: 2,
            chunk: 1,
            first_hit_only: true,
            ..ParallelConfig::for_threads(2)
        };
        let r = crack_parallel_backend(&s, &t, s.interval(), &*cpu_backend(Lanes::L8), cfg);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].1.as_bytes(), b"a");
    }

    #[test]
    fn default_chunk_scales_with_threads_and_composes_with_lanes() {
        assert_eq!(ParallelConfig::default_chunk(1), 1 << 16);
        assert_eq!(ParallelConfig::default_chunk(4), 1 << 16);
        assert_eq!(ParallelConfig::default_chunk(8), 1 << 15);
        assert_eq!(ParallelConfig::default_chunk(1 << 20), 16);
        for threads in 1..=64 {
            let chunk = ParallelConfig::default_chunk(threads);
            assert_eq!(chunk % 16, 0, "chunk must compose with every lane width");
            assert!(chunk >= 16);
        }
    }

    #[test]
    fn every_sched_policy_finds_the_same_hits() {
        let s = space();
        let t = targets(&[b"dog", b"pig", b"mnop"]);
        let mut reference: Option<Vec<(u128, Key, usize)>> = None;
        for sched in SchedPolicy::ALL {
            let cfg = ParallelConfig {
                threads: 3,
                first_hit_only: false,
                sched,
                ..ParallelConfig::for_threads(3)
            };
            let r = crack_parallel(&s, &t, s.interval(), cfg);
            assert_eq!(r.tested, s.size(), "{sched}: full sweep");
            assert_eq!(r.stats.len(), 3, "{sched}: one stats row per thread");
            assert_eq!(
                r.stats.iter().map(|w| w.tested).sum::<u128>(),
                r.tested,
                "{sched}: stats account for every test"
            );
            match &reference {
                None => reference = Some(r.hits),
                Some(hits) => assert_eq!(&r.hits, hits, "{sched}"),
            }
        }
    }

    #[test]
    fn steal_and_split_counters_balance() {
        let s = space();
        let t = targets(&[b"zzzz"]);
        let cfg = ParallelConfig {
            threads: 4,
            first_hit_only: false,
            ..ParallelConfig::for_threads(4)
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        let steals: u64 = r.stats.iter().map(|w| w.steals).sum();
        let splits: u64 = r.stats.iter().map(|w| w.splits).sum();
        assert_eq!(steals, splits, "every steal splits exactly one victim");
    }

    #[test]
    fn empty_interval_reports_zero() {
        let s = space();
        let t = targets(&[b"dog"]);
        let r = crack_parallel(&s, &t, Interval::new(0, 0), ParallelConfig::default());
        assert!(r.hits.is_empty());
        assert_eq!(r.tested, 0);
    }

    #[test]
    fn first_hit_stops_early_on_full_space() {
        let s = space();
        // "a" is identifier 0: the search should terminate almost
        // immediately even over the full space.
        let t = targets(&[b"a"]);
        let cfg = ParallelConfig {
            threads: 4,
            chunk: 1 << 10,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, s.interval(), cfg);
        assert_eq!(r.hits[0].1.as_bytes(), b"a");
        assert!(
            r.tested < s.size() / 2,
            "tested {} of {}",
            r.tested,
            s.size()
        );
    }

    #[test]
    fn more_threads_do_not_lose_hits_near_chunk_boundaries() {
        let s = space();
        // Plant keys adjacent to chunk edges.
        let k1 = s.key_at(1023);
        let k2 = s.key_at(1024);
        let ds = vec![
            HashAlgo::Md5.hash_long(k1.as_bytes()),
            HashAlgo::Md5.hash_long(k2.as_bytes()),
        ];
        let t = TargetSet::new(HashAlgo::Md5, &ds);
        let cfg = ParallelConfig {
            threads: 8,
            chunk: 1024,
            first_hit_only: false,
            ..ParallelConfig::default()
        };
        let r = crack_parallel(&s, &t, Interval::new(0, 4096), cfg);
        assert_eq!(r.hits.len(), 2);
    }
}
