//! Seeded workload inputs. Every input a run feeds the program — search
//! intervals, planted keys, decoy digests, tenant keys — comes from
//! [`Rng`] streams keyed by `(seed, workload, round)`, so one seed always
//! yields byte-identical inputs, whatever the machine or the run length.

use eks_hashes::HashAlgo;
use eks_keyspace::{Charset, Interval, KeySpace, MaskSpace, Order};

/// SplitMix64: tiny, std-only and good enough to pick test inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough value in `0..n` (`n > 0`; the modulo bias is below
    /// 2⁻⁶⁴ for the sizes used here).
    pub fn below(&mut self, n: u128) -> u128 {
        assert!(n > 0, "empty range");
        let wide = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        wide % n
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `eks crack --backend auto --all` over lowercase 1..=7, MD5.
    CrackMd5,
    /// `eks crack --mask ?u?l?d?d?d --all`, MD5: the generic path.
    CrackMask,
    /// `eks job run` over three tenants (MD5, SHA-1, NTLM).
    JobsMixed,
    /// `eks cluster --topology "A(cpu:1, 660)" --all`, MD5.
    ClusterHetero,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CrackMd5,
        Workload::CrackMask,
        Workload::JobsMixed,
        Workload::ClusterHetero,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrackMd5 => "crack-md5",
            Workload::CrackMask => "crack-mask",
            Workload::JobsMixed => "jobs-mixed",
            Workload::ClusterHetero => "cluster-hetero",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn stream(self, round: u64) -> u64 {
        (self as u64 + 1) << 48 | round
    }
}

/// Keys per crack-md5 search (one round of its closed loop).
pub const MD5_ROUND_KEYS: u128 = 1 << 24;
/// Keys per cluster-hetero search.
pub const CLUSTER_ROUND_KEYS: u128 = 1 << 21;
/// The crack-mask mask (676,000 candidates).
pub const MASK: &str = "?u?l?d?d?d";
/// The cluster-hetero topology: one simulated GTX 660 and one CPU thread.
pub const TOPOLOGY: &str = "A(cpu:1, 660)";
/// Longest tenant key (lowercase 1..=5: 12,356,630 keys per tenant).
pub const TENANT_MAX_LEN: u32 = 5;

/// Lowercase 1..=7 in first-char-fastest order (the `eks crack`
/// default order).
pub fn lower7() -> KeySpace {
    KeySpace::new(Charset::lowercase(), 1, 7, Order::FirstCharFastest).expect("valid space")
}

/// The crack-mask space.
pub fn mask_space() -> MaskSpace {
    MaskSpace::parse(MASK).expect("valid mask")
}

/// One exhaustive search with a single planted key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedSearch {
    /// The identifier interval swept.
    pub interval: Interval,
    /// The identifier whose digest is the target.
    pub planted: u128,
}

/// Round `round` of crack-md5 (`len` = [`MD5_ROUND_KEYS`]) or
/// cluster-hetero (`len` = [`CLUSTER_ROUND_KEYS`]): an interval of
/// 7-character keys, so every batch shares one key length, with one
/// planted identifier inside it.
pub fn planted_search(w: Workload, seed: u64, round: u64, len: u128) -> PlantedSearch {
    let mut rng = Rng::new(seed, w.stream(round));
    let space = lower7();
    let first7 = space.size() - 26u128.pow(7);
    let start = first7 + rng.below(26u128.pow(7) - len);
    let planted = start + rng.below(len);
    PlantedSearch {
        interval: Interval::new(start, len),
        planted,
    }
}

/// Round `round` of crack-mask: the identifier of the one planted key
/// (`eks crack --mask` takes a single digest).
pub fn mask_planted(seed: u64, round: u64) -> u128 {
    Rng::new(seed, Workload::CrackMask.stream(round)).below(mask_space().size())
}

/// One tenant of jobs-mixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenant {
    /// Job name.
    pub name: &'static str,
    /// Hash algorithm.
    pub algo: HashAlgo,
    /// Fair-share priority.
    pub priority: u32,
    /// Identifier of the planted key in lowercase 1..=5.
    pub planted: u128,
}

/// Lowercase 1..=[`TENANT_MAX_LEN`], the tenants' keyspace.
pub fn tenant_space() -> KeySpace {
    KeySpace::new(
        Charset::lowercase(),
        1,
        TENANT_MAX_LEN,
        Order::FirstCharFastest,
    )
    .expect("valid space")
}

/// The three tenants of pass `pass` of jobs-mixed.
pub fn tenants(seed: u64, pass: u64) -> [Tenant; 3] {
    let mut rng = Rng::new(seed, Workload::JobsMixed.stream(pass));
    let size = tenant_space().size();
    let mut tenant = |name, algo, priority| Tenant {
        name,
        algo,
        priority,
        planted: rng.below(size),
    };
    [
        tenant("md5", HashAlgo::Md5, 1),
        tenant("sha1", HashAlgo::Sha1, 1),
        tenant("ntlm", HashAlgo::Ntlm, 2),
    ]
}

/// The inputs of the first `rounds` rounds of a workload as bytes: equal
/// seeds must give equal bytes.
pub fn fingerprint(w: Workload, seed: u64, rounds: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for r in 0..rounds {
        match w {
            Workload::CrackMd5 | Workload::ClusterHetero => {
                let len = if w == Workload::CrackMd5 {
                    MD5_ROUND_KEYS
                } else {
                    CLUSTER_ROUND_KEYS
                };
                let s = planted_search(w, seed, r, len);
                for v in [s.interval.start, s.interval.len, s.planted] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Workload::CrackMask => out.extend_from_slice(&mask_planted(seed, r).to_le_bytes()),
            Workload::JobsMixed => {
                for t in tenants(seed, r) {
                    out.extend_from_slice(t.name.as_bytes());
                    out.extend_from_slice(&t.priority.to_le_bytes());
                    out.extend_from_slice(&t.planted.to_le_bytes());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            let a = fingerprint(w, 42, 8);
            assert!(!a.is_empty());
            assert_eq!(a, fingerprint(w, 42, 8), "{}", w.name());
            assert_ne!(a, fingerprint(w, 43, 8), "{}: seeds must differ", w.name());
            // A longer run only appends rounds: the prefix is stable.
            assert!(fingerprint(w, 42, 9).starts_with(&a), "{}", w.name());
        }
    }

    #[test]
    fn generated_inputs_lie_inside_their_spaces() {
        for seed in 0..50 {
            for (w, len) in [
                (Workload::CrackMd5, MD5_ROUND_KEYS),
                (Workload::ClusterHetero, CLUSTER_ROUND_KEYS),
            ] {
                let s = planted_search(w, seed, 3, len);
                assert!(s.interval.contains(s.planted));
                assert!(s.interval.end() <= lower7().size());
                assert_eq!(
                    lower7().key_at(s.interval.start).len(),
                    7,
                    "7-char keys only"
                );
            }
            assert!(mask_planted(seed, 1) < mask_space().size());
            for t in tenants(seed, 2) {
                assert!(t.planted < tenant_space().size());
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
