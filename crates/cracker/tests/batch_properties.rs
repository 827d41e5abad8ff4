//! Seeded property tests for the batched cracking pipeline: the
//! zero-allocation [`BlockBatch`] writer must emit exactly the blocks the
//! reference padders would, and batched sweeps — single-threaded and
//! through `crack_parallel_backend` — must find exactly the hits the scalar
//! engine finds, on random spaces, charsets, orders, and algorithms.

use std::sync::atomic::AtomicBool;

use eks_core::prop::{forall, Rng};
use eks_cracker::batch::{crack_interval_batched, Lanes};
use eks_cracker::{cpu_backend, crack_interval, crack_parallel_backend, ParallelConfig, TargetSet};
use eks_hashes::padding::{pad_md5_block, pad_sha_block};
use eks_hashes::HashAlgo;
use eks_keyspace::{BlockBatch, BlockLayout, Charset, Interval, KeySpace, Order};
use eks_telemetry::Telemetry;

/// A random charset of 2..=6 distinct printable symbols.
fn random_charset(rng: &mut Rng) -> Charset {
    let pool = b"abcdefghjkmnpqrstuvwxyz0123456789";
    let n = rng.range(2, 6) as usize;
    let mut picked: Vec<u8> = Vec::new();
    while picked.len() < n {
        let c = pool[rng.index(pool.len())];
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    Charset::from_bytes(&picked).expect("distinct non-empty symbols")
}

/// A random small space: ≤ ~1.5k candidates so a case stays fast.
fn random_space(rng: &mut Rng) -> KeySpace {
    let charset = random_charset(rng);
    let order =
        if rng.below(2) == 0 { Order::FirstCharFastest } else { Order::LastCharFastest };
    let max_len = rng.range(2, 4) as u32;
    let min_len = rng.range(1, max_len as u64) as u32;
    let space = KeySpace::new(charset, min_len, max_len, order).expect("valid space");
    if space.size() > 1500 {
        // Shrink by dropping a length: recurse is overkill, just clamp.
        KeySpace::new(space.charset().clone(), min_len, max_len - 1, order)
            .expect("valid smaller space")
    } else {
        space
    }
}

/// Reference block for a key under a layout, via the scalar padders.
fn reference_block(layout: BlockLayout, key: &[u8]) -> [u32; 16] {
    match layout {
        BlockLayout::Md5Le => pad_md5_block(key),
        BlockLayout::ShaBe => pad_sha_block(key),
        BlockLayout::NtlmUtf16Le => {
            let utf16: Vec<u8> = key.iter().flat_map(|&c| [c, 0]).collect();
            pad_md5_block(&utf16)
        }
    }
}

#[test]
fn block_batch_blocks_equal_reference_padding() {
    forall("block_batch_blocks_equal_reference_padding", 48, |rng| {
        let space = random_space(rng);
        let layout = [BlockLayout::Md5Le, BlockLayout::ShaBe, BlockLayout::NtlmUtf16Le]
            [rng.index(3)];
        // A random sub-interval, not always the whole space.
        let size = space.size();
        let start = rng.range_u128(0, size - 1);
        let len = rng.range_u128(1, size - start);
        let mut writer = BlockBatch::new(&space, layout, Interval::new(start, len));
        let mut blocks = [[0u32; 16]; 8];
        while writer.remaining() >= 8 {
            let info = writer.fill(&mut blocks);
            for (l, block) in blocks.iter().enumerate() {
                let id = info.start_id + l as u128;
                let key = space.key_at(id);
                assert_eq!(
                    *block,
                    reference_block(layout, key.as_bytes()),
                    "id {id} ({layout:?}, order {:?})",
                    space.order()
                );
            }
        }
    });
}

#[test]
fn batched_sweep_finds_exactly_the_scalar_hits() {
    forall("batched_sweep_finds_exactly_the_scalar_hits", 32, |rng| {
        let space = random_space(rng);
        let algo = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm][rng.index(3)];
        // Plant 1..=3 random keys; duplicates collapse in the TargetSet.
        let n_targets = rng.range(1, 3) as usize;
        let digests: Vec<Vec<u8>> = (0..n_targets)
            .map(|_| {
                let id = rng.range_u128(0, space.size() - 1);
                algo.hash(space.key_at(id).as_bytes())
            })
            .collect();
        let targets = TargetSet::new(algo, &digests);
        let interval = space.interval();
        let stop = AtomicBool::new(false);
        let scalar = crack_interval(&space, &targets, interval, &stop, false);
        for lanes in [Lanes::L8, Lanes::L16] {
            let stop = AtomicBool::new(false);
            let batched = crack_interval_batched(
                &space, &targets, interval, &stop, false, lanes, &Telemetry::disabled(),
            );
            assert_eq!(batched.hits, scalar.hits, "lanes {lanes} ({algo:?})");
            assert_eq!(batched.tested, scalar.tested, "lanes {lanes} ({algo:?})");
        }
    });
}

#[test]
fn crack_parallel_batched_finds_the_scalar_hits() {
    forall("crack_parallel_batched_finds_the_scalar_hits", 12, |rng| {
        let space = random_space(rng);
        let algo = [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm][rng.index(3)];
        let id = rng.range_u128(0, space.size() - 1);
        let digests = vec![algo.hash(space.key_at(id).as_bytes())];
        let targets = TargetSet::new(algo, &digests);
        let chunk = rng.range(16, 64).next_multiple_of(16);
        let run = |lanes| {
            crack_parallel_backend(
                &space,
                &targets,
                space.interval(),
                &*cpu_backend(lanes),
                ParallelConfig { threads: 2, chunk, first_hit_only: false, ..ParallelConfig::for_threads(2) },
            )
        };
        let scalar = run(Lanes::Scalar);
        for lanes in [Lanes::L8, Lanes::L16] {
            let batched = run(lanes);
            assert_eq!(batched.hits, scalar.hits, "lanes {lanes} ({algo:?})");
            assert_eq!(batched.tested, scalar.tested, "lanes {lanes} ({algo:?})");
        }
    });
}
