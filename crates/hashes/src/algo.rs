//! Algorithm selector shared by crackers and kernels.

use crate::md4::ntlm;
use crate::md5::md5_single_block;
use crate::sha1::sha1_single_block;
use crate::{md5, sha1};

/// Which hash a search targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlgo {
    /// MD5 (16-byte digests).
    Md5,
    /// SHA-1 (20-byte digests).
    Sha1,
    /// NTLM — MD4 over the UTF-16LE password (16-byte digests).
    Ntlm,
    /// Iterated MD5 — a toy KDF whose per-key cost *varies*: the key is
    /// MD5-hashed, then re-hashed `1 + (sum(key bytes) mod iters)` more
    /// times. Variable per-key cost is exactly the shape (salted/
    /// iterated KDFs, RAR-style recovery) that breaks the one-shot §VI
    /// tuning assumption, so this is the workload the skewed-fleet
    /// load-balancing benches run.
    Md5Iter {
        /// Upper bound on the extra compression count (clamped ≥ 1).
        iters: u16,
    },
}

impl HashAlgo {
    /// The per-key iteration count for `key` under this algorithm:
    /// `1` for the plain hashes, `2 ..= 1 + iters` for [`Md5Iter`]
    /// (data-dependent, so a fleet's effective rate drifts with the
    /// region of keyspace it is scanning).
    ///
    /// [`Md5Iter`]: HashAlgo::Md5Iter
    pub fn rounds_for(self, key: &[u8]) -> u32 {
        match self {
            HashAlgo::Md5 | HashAlgo::Sha1 | HashAlgo::Ntlm => 1,
            HashAlgo::Md5Iter { iters } => {
                let sum: u32 = key.iter().map(|&b| u32::from(b)).sum();
                2 + sum % u32::from(iters.max(1))
            }
        }
    }

    /// The plain hash this algorithm is built on (`self` when not
    /// iterated). Kernel builders and lane crackers that only know the
    /// three base primitives normalize through this.
    pub fn base(self) -> HashAlgo {
        match self {
            HashAlgo::Md5Iter { .. } => HashAlgo::Md5,
            other => other,
        }
    }

    /// The *average* compressions per key relative to the base hash —
    /// the §VI tuning step divides a measured base rate by this to
    /// predict the iterated rate. `1.0` for plain hashes; for
    /// [`Md5Iter`] the modulus is uniform over key-byte sums, so the
    /// mean round count is `2 + (iters - 1) / 2`.
    ///
    /// [`Md5Iter`]: HashAlgo::Md5Iter
    pub fn cost_factor(self) -> f64 {
        match self {
            HashAlgo::Md5 | HashAlgo::Sha1 | HashAlgo::Ntlm => 1.0,
            HashAlgo::Md5Iter { iters } => 2.0 + f64::from(iters.max(1) - 1) / 2.0,
        }
    }

    /// Digest length in bytes.
    pub fn digest_len(self) -> usize {
        match self {
            HashAlgo::Md5 | HashAlgo::Ntlm | HashAlgo::Md5Iter { .. } => 16,
            HashAlgo::Sha1 => 20,
        }
    }

    /// Hash a short key (single-block fast path, ≤ 55 bytes).
    pub fn hash(self, key: &[u8]) -> Vec<u8> {
        match self {
            HashAlgo::Md5 => md5_single_block(key).to_vec(),
            HashAlgo::Sha1 => sha1_single_block(key).to_vec(),
            HashAlgo::Ntlm => ntlm(key).to_vec(),
            HashAlgo::Md5Iter { .. } => {
                let mut digest = md5_single_block(key);
                for _ in 1..self.rounds_for(key) {
                    digest = md5_single_block(&digest);
                }
                digest.to_vec()
            }
        }
    }

    /// Hash arbitrary-length input (streaming path).
    pub fn hash_long(self, data: &[u8]) -> Vec<u8> {
        match self {
            HashAlgo::Md5 => md5::md5(data).to_vec(),
            HashAlgo::Sha1 => sha1::sha1(data).to_vec(),
            HashAlgo::Ntlm => ntlm(data).to_vec(),
            HashAlgo::Md5Iter { .. } => {
                let mut digest = md5::md5(data);
                for _ in 1..self.rounds_for(data) {
                    digest = md5::md5(&digest);
                }
                digest.to_vec()
            }
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            HashAlgo::Md5 => "MD5",
            HashAlgo::Sha1 => "SHA1",
            HashAlgo::Ntlm => "NTLM",
            HashAlgo::Md5Iter { .. } => "MD5-iter",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lengths() {
        assert_eq!(HashAlgo::Md5.digest_len(), 16);
        assert_eq!(HashAlgo::Sha1.digest_len(), 20);
    }

    #[test]
    fn fast_and_streaming_paths_agree() {
        let algos =
            [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm, HashAlgo::Md5Iter { iters: 7 }];
        for algo in algos {
            assert_eq!(algo.hash(b"abc"), algo.hash_long(b"abc"), "{}", algo.name());
        }
    }

    #[test]
    fn iterated_md5_is_a_chained_md5() {
        let algo = HashAlgo::Md5Iter { iters: 7 };
        // "abc" sums to 294; 2 + 294 % 7 = 2 + 0 = 2 rounds.
        assert_eq!(algo.rounds_for(b"abc"), 2);
        let once = HashAlgo::Md5.hash(b"abc");
        assert_eq!(algo.hash(b"abc"), HashAlgo::Md5.hash(&once));
        // A different key lands on a different round count: the cost
        // really is data-dependent.
        assert_eq!(algo.rounds_for(b"abd"), 3);
        assert_ne!(algo.hash(b"abc"), once);
    }

    #[test]
    fn iterated_md5_normalizers() {
        let algo = HashAlgo::Md5Iter { iters: 9 };
        assert_eq!(algo.base(), HashAlgo::Md5);
        assert_eq!(HashAlgo::Sha1.base(), HashAlgo::Sha1);
        // Mean of 2 + uniform(0..9) extra rounds.
        assert!((algo.cost_factor() - 6.0).abs() < 1e-12);
        assert_eq!(HashAlgo::Ntlm.cost_factor(), 1.0);
        assert_eq!(algo.digest_len(), 16);
        // A zero bound is clamped rather than dividing by zero.
        assert_eq!(HashAlgo::Md5Iter { iters: 0 }.rounds_for(b"abc"), 2);
    }

    #[test]
    fn ntlm_algo_matches_known_value() {
        let d = HashAlgo::Ntlm.hash(b"password");
        assert_eq!(crate::to_hex(&d), "8846f7eaee8fb117ad06bdd830b7586c");
    }
}
