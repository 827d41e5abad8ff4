//! Lane-batched interval scanning: the CPU mirror of the paper's
//! one-thread-per-candidate GPU kernels.
//!
//! Where [`crate::engine::crack_interval`] tests one candidate at a time
//! (generate, hash, compare — with a heap-allocated digest per test), this
//! module tests `L` candidates in lockstep, exactly as `L` threads of a
//! warp would: a [`BlockBatch`] writes `L` consecutive candidates'
//! pre-padded blocks in place (no allocation), a structure-of-arrays
//! compression core from `eks-hashes::lanes` hashes all lanes together
//! (autovectorized), and the [`TargetSet`] prefilter reduces the common
//! miss to one `u32` compare per lane.
//!
//! The MD5 step-reversal optimization (Section V-B) composes with
//! batching: when a batch's candidates share every block word except
//! `w[0]` — reported by [`BatchInfo::uniform_suffix`] — and a single MD5
//! target is sought, the 49-step reversed path runs instead of the full
//! 64 steps, with the reversed reference memoized per suffix epoch.
//!
//! The scalar engine remains the correctness oracle: tails shorter than
//! `L` fall back to it, and the property tests assert batched and scalar
//! sweeps produce identical hits.
//!
//! [`BatchInfo::uniform_suffix`]: eks_keyspace::BatchInfo

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eks_engine::PollCursor;
use eks_hashes::{sha1, AutoVec, HashAlgo, LaneHasher, Md5PrefixSearch, SimdHasher};
use eks_keyspace::{BlockBatch, BlockLayout, Interval, Key, KeySpace, Order};
use eks_telemetry::{names, Counter, Histogram, Telemetry};

use crate::engine::{crack_interval, CrackOutcome};
#[cfg(test)]
use crate::engine::POLL_CHUNK;
use crate::target::TargetSet;

/// Lane width of the batched test path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Lanes {
    /// The scalar reference path: one candidate at a time.
    Scalar,
    /// 8 lanes — one AVX2 register of `u32`s per state word.
    #[default]
    L8,
    /// 16 lanes — two AVX2 registers (or one AVX-512 register) per word.
    L16,
}

impl Lanes {
    /// Candidates per batch; 0 for the scalar path.
    pub fn width(self) -> usize {
        match self {
            Lanes::Scalar => 0,
            Lanes::L8 => 8,
            Lanes::L16 => 16,
        }
    }

    /// Parse a CLI argument: `scalar`/`1`, `8`, or `16`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" | "1" => Some(Lanes::Scalar),
            "8" => Some(Lanes::L8),
            "16" => Some(Lanes::L16),
            _ => None,
        }
    }

    /// Human-readable name (mirrors [`Lanes::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Lanes::Scalar => "scalar",
            Lanes::L8 => "8",
            Lanes::L16 => "16",
        }
    }
}

impl std::fmt::Display for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The block layout a hash algorithm expects its candidates in.
pub fn layout_for(algo: HashAlgo) -> BlockLayout {
    match algo {
        HashAlgo::Md5 | HashAlgo::Md5Iter { .. } => BlockLayout::Md5Le,
        HashAlgo::Ntlm => BlockLayout::NtlmUtf16Le,
        HashAlgo::Sha1 => BlockLayout::ShaBe,
    }
}

/// True when the batched lane kernels cannot run `algo` directly: the
/// iterated KDF re-hashes each digest a data-dependent number of times,
/// which has no lockstep formulation, so the batched entry points drop
/// to the scalar cracker (which hashes through [`TargetSet::matches`]
/// and is therefore correct for every algorithm).
fn needs_scalar_fallback(algo: HashAlgo) -> bool {
    algo.base() != algo
}

/// Every `SAMPLE_MASK + 1`-th batch gets its fill and hash phases wall-
/// timed when telemetry is on; all other batches run untimed, so the
/// instrumented loop stays within the bench's overhead gate.
const SAMPLE_MASK: u64 = 63;

/// Pre-registered batch-path instruments. Prefilter outcomes are tallied
/// in thread-local integers and flushed once per scan; fill/hash timing
/// is sampled per [`SAMPLE_MASK`].
struct BatchInstruments {
    enabled: bool,
    fill_ns: Histogram,
    hash_ns: Histogram,
    prefilter_hits: Counter,
    prefilter_misses: Counter,
}

impl BatchInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            enabled: telemetry.is_enabled(),
            fill_ns: telemetry.histogram(names::BATCH_FILL_NS, &[]),
            hash_ns: telemetry.histogram(names::BATCH_HASH_NS, &[]),
            prefilter_hits: telemetry.counter(names::PREFILTER_HITS, &[]),
            prefilter_misses: telemetry.counter(names::PREFILTER_MISSES, &[]),
        }
    }
}

/// Like [`crack_interval`] but testing `lanes` candidates in lockstep.
/// Produces the same hits as the scalar engine over the same interval;
/// `tested` counts whole batches, so a first-hit stop may report up to
/// `L - 1` more candidates than the scalar path (the other lanes really
/// were tested — in lockstep).
///
/// `telemetry` receives sampled batch-fill vs. lane-hash wall time and
/// `TargetSet` prefilter hit/miss counters (flushed once per scan, never
/// per key); a disabled handle records nothing.
pub fn crack_interval_batched(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    stop: &AtomicBool,
    first_hit_only: bool,
    lanes: Lanes,
    telemetry: &Telemetry,
) -> CrackOutcome {
    if needs_scalar_fallback(targets.algo()) {
        return crack_interval(space, targets, interval, stop, first_hit_only);
    }
    let instruments = BatchInstruments::new(telemetry);
    match lanes {
        Lanes::Scalar => crack_interval(space, targets, interval, stop, first_hit_only),
        Lanes::L8 => {
            crack_lanes::<8, _>(space, targets, interval, stop, first_hit_only, &instruments, AutoVec)
        }
        Lanes::L16 => {
            crack_lanes::<16, _>(space, targets, interval, stop, first_hit_only, &instruments, AutoVec)
        }
    }
}

/// Like [`crack_interval_batched`] but running the explicit-SIMD kernels
/// of a detected ISA (AVX2 = 16 keys per batch, AVX-512F = 32, NEON = 8)
/// instead of the autovectorized lanes, with the same batch-path
/// telemetry. The [`SimdHasher`] is the proof of availability: it can
/// only be built by runtime feature detection.
pub fn crack_interval_simd(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    stop: &AtomicBool,
    first_hit_only: bool,
    hasher: SimdHasher,
    telemetry: &Telemetry,
) -> CrackOutcome {
    if needs_scalar_fallback(targets.algo()) {
        return crack_interval(space, targets, interval, stop, first_hit_only);
    }
    let instruments = BatchInstruments::new(telemetry);
    match hasher {
        #[cfg(target_arch = "x86_64")]
        SimdHasher::Avx2(h) => {
            crack_lanes::<16, _>(space, targets, interval, stop, first_hit_only, &instruments, h)
        }
        #[cfg(target_arch = "x86_64")]
        SimdHasher::Avx512(h) => {
            crack_lanes::<32, _>(space, targets, interval, stop, first_hit_only, &instruments, h)
        }
        #[cfg(target_arch = "aarch64")]
        SimdHasher::Neon(h) => {
            crack_lanes::<8, _>(space, targets, interval, stop, first_hit_only, &instruments, h)
        }
    }
}

fn crack_lanes<const L: usize, H: LaneHasher<L>>(
    space: &KeySpace,
    targets: &TargetSet,
    interval: Interval,
    stop: &AtomicBool,
    first_hit_only: bool,
    instruments: &BatchInstruments,
    hasher: H,
) -> CrackOutcome {
    let clamped = interval.intersect(&space.interval());
    let algo = targets.algo();
    let mut writer = BlockBatch::new(space, layout_for(algo), clamped);
    let mut blocks = [[0u32; 16]; L];
    let mut hits: Vec<(u128, Key, usize)> = Vec::new();
    let mut tested: u128 = 0;
    // The shared poll loop, with chunks rounded up to the lane count so
    // batches never straddle a stop check.
    let mut cursor = PollCursor::with_stride(clamped, stop, L as u128);
    let mut found_first = false;
    // The reversed 49-step path needs a single MD5 target (the reversal is
    // per-target) and a batch whose lanes share all words but w[0].
    let single_md5: Option<[u8; 16]> = (algo == HashAlgo::Md5 && targets.len() == 1).then(|| {
        targets
            .digest(0)
            .try_into()
            .expect("MD5 digests are 16 bytes")
    });
    // The w0-only fast fill: a single-target MD5 search in first-char-
    // fastest order varies only the leading key bytes, so the steady
    // state writes one word per candidate instead of sixteen and the
    // reversed kernel reads the shared suffix from the epoch template.
    // (Under last-char-fastest nearly every batch would need the full-
    // block reconstruction below, so the plain fill is kept there.)
    let w0_fast = single_md5.is_some() && space.order() == Order::FirstCharFastest;
    let mut w0s = [0u32; L];
    let mut reversed: Option<(u64, Md5PrefixSearch)> = None;
    let mut batch_index: u64 = 0;
    let mut pf_checked: u64 = 0;
    let mut pf_hits: u64 = 0;

    'outer: while let Some(chunk) = cursor.next_chunk() {
        debug_assert_eq!(chunk.start, writer.next_id(), "writer tracks the cursor");
        let mut batches = chunk.len / L as u128;
        while batches > 0 {
            batches -= 1;
            let sample = instruments.enabled && batch_index & SAMPLE_MASK == 0;
            batch_index += 1;
            let t_fill = sample.then(Instant::now);
            let (info, template0) = if w0_fast {
                writer.fill_w0s(&mut w0s)
            } else {
                let info = writer.fill(&mut blocks);
                (info, blocks[0])
            };
            if let Some(t0) = t_fill {
                instruments.fill_ns.observe(t0.elapsed().as_nanos() as u64);
            }
            tested += L as u128;

            let t_hash = sample.then(Instant::now);
            let mut lane_hit: [Option<usize>; L] = [None; L];
            if let Some(target) = single_md5.as_ref().filter(|_| info.uniform_suffix) {
                // The reversed reference depends only on the target and the
                // suffix words: rebuild it when the suffix epoch moves,
                // reuse it otherwise (the overwhelmingly common case).
                if reversed.as_ref().map(|(e, _)| *e) != Some(info.epoch) {
                    reversed = Some((info.epoch, Md5PrefixSearch::new(target, template0)));
                }
                let (_, search) = reversed.as_ref().expect("just built");
                if !w0_fast {
                    for (w0, block) in w0s.iter_mut().zip(&blocks) {
                        *w0 = block[0];
                    }
                }
                let states = hasher.md5_forward49_batch(search.template(), &w0s);
                let r = search.reference();
                for (slot, s) in lane_hit.iter_mut().zip(&states) {
                    // `&` instead of `&&`: no per-lane branches in the
                    // common all-miss case.
                    if (s[0] == r[0]) & (s[1] == r[1]) & (s[2] == r[2]) & (s[3] == r[3]) {
                        *slot = Some(0); // single target: digest index 0
                    }
                }
            } else {
                if w0_fast {
                    // A suffix word moved mid-batch under the w0-only
                    // fill (once per w[0] rollover): reconstruct the full
                    // blocks for these identifiers and hash forward.
                    let mut rebuild =
                        BlockBatch::new(space, layout_for(algo), Interval::new(info.start_id, L as u128));
                    rebuild.fill(&mut blocks);
                }
                match algo {
                    HashAlgo::Md5 | HashAlgo::Ntlm => {
                        let states = if algo == HashAlgo::Md5 {
                            hasher.md5_batch(&blocks)
                        } else {
                            hasher.md4_batch(&blocks)
                        };
                        pf_checked += L as u64;
                        for (slot, state) in lane_hit.iter_mut().zip(&states) {
                            if targets.prefilter_match(state[0]) {
                                pf_hits += 1;
                                // MD4 shares MD5's little-endian serialization.
                                let digest = eks_hashes::md5::state_to_digest(*state);
                                *slot = targets.match_digest(&digest);
                            }
                        }
                    }
                    HashAlgo::Sha1 => {
                        let a75s = hasher.sha1_a75_batch(&blocks);
                        pf_checked += L as u64;
                        for ((slot, &a75), block) in lane_hit.iter_mut().zip(&a75s).zip(&blocks) {
                            if targets.prefilter_match(a75) {
                                pf_hits += 1;
                                // Rare survivor (≈ len·2⁻³² of candidates): confirm
                                // with the full compression.
                                let state = sha1::sha1_compress(sha1::IV, block);
                                *slot = targets.match_digest(&sha1::state_to_digest(state));
                            }
                        }
                    }
                    HashAlgo::Md5Iter { .. } => {
                        unreachable!("iterated algos fall back to the scalar cracker")
                    }
                }
            }
            if let Some(t0) = t_hash {
                instruments.hash_ns.observe(t0.elapsed().as_nanos() as u64);
            }
            for (l, hit) in lane_hit.iter().enumerate() {
                if let Some(t) = *hit {
                    let id = info.start_id + l as u128;
                    hits.push((id, space.key_at(id), t));
                    if first_hit_only {
                        found_first = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    if instruments.enabled {
        instruments.prefilter_hits.add(pf_hits);
        instruments.prefilter_misses.add(pf_checked - pf_hits);
    }

    // Tail shorter than a batch: hand the remainder to the scalar oracle,
    // unless the batched loop already terminated the search.
    let mut cancelled = cursor.cancelled();
    if !cancelled && !found_first && writer.remaining() > 0 {
        let tail = Interval::new(writer.next_id(), writer.remaining());
        let out = crack_interval(space, targets, tail, stop, first_hit_only);
        hits.extend(out.hits);
        tested += out.tested;
        cancelled = out.cancelled;
    }
    CrackOutcome {
        hits,
        tested,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_keyspace::{Charset, Order};

    fn space(order: Order) -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, order).unwrap()
    }

    fn targets(algo: HashAlgo, words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| algo.hash_long(w)).collect();
        TargetSet::new(algo, &ds)
    }

    #[test]
    fn poll_boundary_is_a_multiple_of_every_lane_width() {
        for lanes in [Lanes::L8, Lanes::L16] {
            assert_eq!(POLL_CHUNK % lanes.width() as u128, 0, "{lanes}");
        }
    }

    #[test]
    fn poll_boundary_is_a_multiple_of_every_simd_width() {
        for isa in eks_hashes::SimdIsa::ALL {
            assert_eq!(POLL_CHUNK % isa.batch_width() as u128, 0, "{isa}");
        }
    }

    #[test]
    fn simd_full_sweep_matches_scalar_all_algos() {
        let Some(hasher) = SimdHasher::best() else {
            eprintln!("skipped: no explicit-SIMD ISA on this host");
            return;
        };
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            for order in [Order::FirstCharFastest, Order::LastCharFastest] {
                let s = space(order);
                let t = targets(algo, &[b"a", b"zz", b"cat", b"mnop"]);
                let stop = AtomicBool::new(false);
                let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
                let simd = crack_interval_simd(
                    &s, &t, s.interval(), &stop, false, hasher, &Telemetry::disabled(),
                );
                assert_eq!(simd.hits, scalar.hits, "{algo:?} {order:?} {hasher:?}");
                assert_eq!(simd.tested, scalar.tested, "{algo:?} {order:?} {hasher:?}");
            }
        }
    }

    #[test]
    fn simd_reversed_md5_sweep_matches_scalar_across_growth_epochs() {
        // A single MD5 target in first-char-fastest order turns on the
        // w0-only fast fill; lengths 1..4 cross growth boundaries, so
        // non-uniform batches exercise the full-block reconstruction.
        let Some(hasher) = SimdHasher::best() else {
            eprintln!("skipped: no explicit-SIMD ISA on this host");
            return;
        };
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(false);
        let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
        let simd = crack_interval_simd(
            &s, &t, s.interval(), &stop, false, hasher, &Telemetry::disabled(),
        );
        assert_eq!(simd.hits, scalar.hits);
        assert_eq!(simd.tested, scalar.tested);
    }

    #[test]
    fn w0_fast_fill_sweep_matches_scalar_on_autovec_lanes() {
        // Same single-target setup on the autovectorized path: the fast
        // fill is independent of the hasher, so L8/L16 take it too.
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"mnop"]);
        let stop = AtomicBool::new(false);
        let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
        for lanes in [Lanes::L8, Lanes::L16] {
            let batched = crack_interval_batched(
                &s, &t, s.interval(), &stop, false, lanes, &Telemetry::disabled(),
            );
            assert_eq!(batched.hits, scalar.hits, "{lanes}");
            assert_eq!(batched.tested, scalar.tested, "{lanes}");
        }
    }

    #[test]
    fn batched_full_sweep_matches_scalar_all_algos() {
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            for order in [Order::FirstCharFastest, Order::LastCharFastest] {
                let s = space(order);
                let t = targets(algo, &[b"a", b"zz", b"cat", b"mnop"]);
                let stop = AtomicBool::new(false);
                let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
                for lanes in [Lanes::L8, Lanes::L16] {
                    let batched = crack_interval_batched(
                        &s, &t, s.interval(), &stop, false, lanes, &Telemetry::disabled(),
                    );
                    assert_eq!(batched.hits, scalar.hits, "{algo:?} {order:?} {lanes}");
                    assert_eq!(batched.tested, scalar.tested, "{algo:?} {order:?} {lanes}");
                }
            }
        }
    }

    #[test]
    fn reversed_md5_path_finds_single_target() {
        // Single MD5 target + uniform batches: the 49-step path runs.
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval_batched(
            &s, &t, s.interval(), &stop, true, Lanes::L8, &Telemetry::disabled(),
        );
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].1.as_bytes(), b"dog");
    }

    #[test]
    fn reversed_md5_survives_epoch_changes() {
        // Last-char-fastest on a length-5..6 space: suffix words change
        // constantly, forcing reversed-reference rebuilds (or the forward
        // fallback on non-uniform batches). Either way hits must match.
        let s = KeySpace::new(
            Charset::from_bytes(b"abcd").unwrap(),
            5,
            6,
            Order::LastCharFastest,
        )
        .unwrap();
        let t = targets(HashAlgo::Md5, &[b"bacad"]);
        let stop = AtomicBool::new(false);
        let scalar = crack_interval(&s, &t, s.interval(), &stop, false);
        let batched = crack_interval_batched(
            &s, &t, s.interval(), &stop, false, Lanes::L16, &Telemetry::disabled(),
        );
        assert_eq!(batched.hits, scalar.hits);
    }

    #[test]
    fn tail_shorter_than_a_batch_is_scanned() {
        let s = space(Order::FirstCharFastest);
        // 26 + 3 candidates: one L16 batch + 13-candidate tail.
        let iv = Interval::new(0, 29);
        let tail_key = s.key_at(27);
        let t = TargetSet::new(
            HashAlgo::Md5,
            &[HashAlgo::Md5.hash_long(tail_key.as_bytes())],
        );
        let stop = AtomicBool::new(false);
        let out = crack_interval_batched(
            &s, &t, iv, &stop, false, Lanes::L16, &Telemetry::disabled(),
        );
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].0, 27);
        assert_eq!(out.tested, 29);
    }

    #[test]
    fn interval_smaller_than_a_batch_is_all_tail() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"c"]);
        let stop = AtomicBool::new(false);
        let out = crack_interval_batched(
            &s, &t, Interval::new(0, 5), &stop, false, Lanes::L8, &Telemetry::disabled(),
        );
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.tested, 5);
    }

    #[test]
    fn pre_raised_stop_tests_nothing() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(true);
        let out = crack_interval_batched(
            &s, &t, s.interval(), &stop, true, Lanes::L8, &Telemetry::disabled(),
        );
        assert!(out.cancelled);
        assert_eq!(out.tested, 0);
    }

    #[test]
    fn first_hit_stops_the_batched_scan() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"b"]); // identifier 1
        let stop = AtomicBool::new(false);
        let out = crack_interval_batched(
            &s, &t, s.interval(), &stop, true, Lanes::L8, &Telemetry::disabled(),
        );
        assert_eq!(out.hits.len(), 1);
        assert!(out.tested <= 8, "stopped within the first batch");
    }

    #[test]
    fn scalar_lanes_delegate_to_the_engine() {
        let s = space(Order::FirstCharFastest);
        let t = targets(HashAlgo::Md5, &[b"dog"]);
        let stop = AtomicBool::new(false);
        let a = crack_interval_batched(
            &s, &t, s.interval(), &stop, true, Lanes::Scalar, &Telemetry::disabled(),
        );
        let b = crack_interval(&s, &t, s.interval(), &stop, true);
        assert_eq!(a, b);
    }

    #[test]
    fn lanes_parse_round_trips() {
        for lanes in [Lanes::Scalar, Lanes::L8, Lanes::L16] {
            assert_eq!(Lanes::parse(lanes.name()), Some(lanes));
        }
        assert_eq!(Lanes::parse("1"), Some(Lanes::Scalar));
        assert_eq!(Lanes::parse("32"), None);
    }
}
