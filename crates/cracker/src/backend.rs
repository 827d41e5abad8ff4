//! CPU implementations of the engine-layer [`Backend`] trait.
//!
//! * [`ScalarBackend`] — the one-candidate-at-a-time reference path
//!   ([`crate::engine::crack_interval`]);
//! * [`LaneBackend`] — the autovectorized lane-batched path
//!   ([`crate::batch::crack_interval_batched`]), the CPU stand-in for a
//!   warp of GPU threads;
//! * [`SimdBackend`] — the explicit AVX2/AVX-512/NEON kernels
//!   ([`crate::batch::crack_interval_simd`]), built only when runtime
//!   detection proves the ISA;
//! * [`AutoBackend`] — the paper's tuning step as a backend: times every
//!   candidate implementation per algorithm once and dispatches each
//!   scan to the winner (widths are *not* monotonic — lanes16 loses to
//!   lanes8 on MD5 here — so the choice is per-algorithm, not global).
//!
//! `tuned_rate` is a *measured* throughput (the paper's tuning step run
//! on the host): a short timed sweep per `(implementation, algo)`,
//! cached for the process lifetime so the balancing step stays cheap.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use eks_engine::{Backend, ScanMode, ScanReport};
use eks_hashes::{HashAlgo, SimdHasher, SimdIsa};
use eks_keyspace::{Charset, Interval, KeySpace, Order};
use eks_telemetry::Telemetry;

use crate::batch::{crack_interval_batched, crack_interval_simd, Lanes};
use crate::engine::crack_interval;
use crate::target::TargetSet;

/// The scalar reference backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> String {
        "scalar".into()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        crack_interval(space, targets, interval, stop, mode.first_hit_only())
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(TuneKey::Lanes(Lanes::Scalar), algo)
    }

    fn isa(&self, _algo: HashAlgo) -> Option<String> {
        Some("scalar".into())
    }
}

/// The lane-batched SIMD backend.
#[derive(Debug, Clone, Default)]
pub struct LaneBackend {
    /// Lane width of the batched test path.
    pub lanes: Lanes,
    telemetry: Telemetry,
}

impl LaneBackend {
    /// A backend with the given lane width (telemetry disabled).
    pub fn new(lanes: Lanes) -> Self {
        Self { lanes, telemetry: Telemetry::disabled() }
    }

    /// Attach a telemetry handle: sampled batch fill/hash timing and
    /// prefilter hit/miss counters flow into the shared registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl Backend for LaneBackend {
    fn name(&self) -> String {
        match self.lanes {
            Lanes::Scalar => "scalar".into(),
            lanes => format!("lanes{}", lanes.width()),
        }
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        crack_interval_batched(
            space,
            targets,
            interval,
            stop,
            mode.first_hit_only(),
            self.lanes,
            &self.telemetry,
        )
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(TuneKey::Lanes(self.lanes), algo)
    }

    fn isa(&self, _algo: HashAlgo) -> Option<String> {
        Some(lanes_isa(self.lanes).into())
    }
}

/// The ISA label of an autovectorized lane width.
fn lanes_isa(lanes: Lanes) -> &'static str {
    match lanes {
        Lanes::Scalar => "scalar",
        _ => "autovec",
    }
}

/// The CPU backend for a lane width, boxed for heterogeneous dispatch.
pub fn cpu_backend(lanes: Lanes) -> Box<dyn Backend> {
    match lanes {
        Lanes::Scalar => Box::new(ScalarBackend),
        lanes => Box::new(LaneBackend::new(lanes)),
    }
}

/// The explicit-SIMD backend: a [`SimdHasher`] (whose construction
/// proved the ISA at runtime) driving [`crack_interval_simd`].
#[derive(Debug, Clone)]
pub struct SimdBackend {
    hasher: SimdHasher,
    telemetry: Telemetry,
}

impl SimdBackend {
    /// A backend for `isa`, or a user-facing error naming what the CPU
    /// actually supports when the ISA is unavailable (the CLI surfaces
    /// this verbatim instead of panicking).
    pub fn new(isa: SimdIsa) -> Result<Self, String> {
        match SimdHasher::new(isa) {
            Some(hasher) => Ok(Self {
                hasher,
                telemetry: Telemetry::disabled(),
            }),
            None => {
                let available: Vec<&str> = SimdIsa::ALL
                    .into_iter()
                    .filter(|i| i.is_available())
                    .map(|i| i.name())
                    .collect();
                let detected = if available.is_empty() {
                    "none".to_string()
                } else {
                    available.join(", ")
                };
                Err(format!(
                    "SIMD ISA '{isa}' is not available on this CPU (detected: {detected}); \
                     drop --isa to auto-detect or pick a listed one"
                ))
            }
        }
    }

    /// The widest available ISA's backend, if any explicit kernel runs
    /// on this CPU.
    pub fn best() -> Option<Self> {
        SimdHasher::best().map(|hasher| Self {
            hasher,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attach a telemetry handle (batch fill/hash timing, prefilter
    /// counters), like [`LaneBackend::with_telemetry`] for the lane path.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The ISA this backend's kernels run on.
    pub fn isa(&self) -> SimdIsa {
        self.hasher.isa()
    }
}

impl Backend for SimdBackend {
    fn name(&self) -> String {
        format!("simd-{}", self.hasher.isa())
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        crack_interval_simd(
            space,
            targets,
            interval,
            stop,
            mode.first_hit_only(),
            self.hasher,
            &self.telemetry,
        )
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(TuneKey::Simd(self.hasher.isa()), algo)
    }

    fn isa(&self, _algo: HashAlgo) -> Option<String> {
        Some(self.hasher.isa().name().into())
    }
}

/// One candidate implementation of the auto-tuned backend.
#[derive(Debug, Clone, Copy)]
enum AutoChoice {
    /// An autovectorized lane width.
    Lanes(Lanes),
    /// An explicit-SIMD implementation.
    Simd(SimdHasher),
}

impl AutoChoice {
    fn tune_key(self) -> TuneKey {
        match self {
            AutoChoice::Lanes(lanes) => TuneKey::Lanes(lanes),
            AutoChoice::Simd(hasher) => TuneKey::Simd(hasher.isa()),
        }
    }

    fn name(self) -> String {
        match self {
            AutoChoice::Lanes(lanes) => format!("lanes{}", lanes.width()),
            AutoChoice::Simd(hasher) => format!("simd-{}", hasher.isa()),
        }
    }
}

/// The auto-tuned backend: the paper's "tune, then run" rule applied to
/// backend selection. For each algorithm the first scan (or tuned-rate
/// query) times every candidate — the autovectorized widths plus every
/// explicit ISA the CPU supports — and the winner handles all subsequent
/// scans of that algorithm.
///
/// Selection is deliberately per-algorithm: measured rates are not
/// monotonic in width (on the reference host, MD5 runs faster at lanes8
/// than lanes16 because the 16-wide autovectorized MD5 spills registers)
/// and the explicit kernels shift the ranking again per algorithm.
pub struct AutoBackend {
    telemetry: Telemetry,
    choices: Mutex<HashMap<HashAlgo, AutoChoice>>,
}

impl AutoBackend {
    /// An auto-tuned backend; `telemetry` flows into whichever
    /// implementation wins each algorithm's tuning race.
    pub fn new(telemetry: Telemetry) -> Self {
        Self {
            telemetry,
            choices: Mutex::new(HashMap::new()),
        }
    }

    /// Every implementation the running CPU can try.
    fn candidates() -> Vec<AutoChoice> {
        let mut c = vec![
            AutoChoice::Lanes(Lanes::L8),
            AutoChoice::Lanes(Lanes::L16),
        ];
        for isa in SimdIsa::ALL {
            if let Some(hasher) = SimdHasher::new(isa) {
                c.push(AutoChoice::Simd(hasher));
            }
        }
        c
    }

    /// The tuned winner for `algo`, racing the candidates on first use.
    fn choice(&self, algo: HashAlgo) -> AutoChoice {
        if let Some(choice) = self.choices.lock().expect("auto choices").get(&algo) {
            return *choice;
        }
        // Tune outside the lock: measured_rate has its own cache and
        // concurrent tuners of different algorithms shouldn't serialize.
        let winner = Self::candidates()
            .into_iter()
            .map(|c| (c, measured_rate(c.tune_key(), algo)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .expect("candidate list is never empty");
        *self
            .choices
            .lock()
            .expect("auto choices")
            .entry(algo)
            .or_insert(winner)
    }

    /// The name of the implementation tuned in for `algo` (e.g.
    /// `lanes8`, `simd-avx512`) — for reports and telemetry labels.
    pub fn choice_name(&self, algo: HashAlgo) -> String {
        self.choice(algo).name()
    }
}

impl Backend for AutoBackend {
    fn name(&self) -> String {
        "auto".into()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        let first_hit_only = mode.first_hit_only();
        match self.choice(targets.algo()) {
            AutoChoice::Lanes(lanes) => crack_interval_batched(
                space,
                targets,
                interval,
                stop,
                first_hit_only,
                lanes,
                &self.telemetry,
            ),
            AutoChoice::Simd(hasher) => crack_interval_simd(
                space,
                targets,
                interval,
                stop,
                first_hit_only,
                hasher,
                &self.telemetry,
            ),
        }
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        measured_rate(self.choice(algo).tune_key(), algo)
    }

    fn isa(&self, algo: HashAlgo) -> Option<String> {
        Some(match self.choice(algo) {
            AutoChoice::Lanes(lanes) => lanes_isa(lanes).into(),
            AutoChoice::Simd(hasher) => hasher.isa().name().to_string(),
        })
    }
}

/// Keys swept per tuning measurement — enough to amortize startup,
/// small enough to stay well under a second even on the scalar path.
const TUNE_KEYS: u128 = 96_000;

/// A cacheable identity of one tunable implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TuneKey {
    /// The scalar or autovectorized path at a lane width.
    Lanes(Lanes),
    /// An explicit-SIMD ISA (the hasher is re-derived when sweeping).
    Simd(SimdIsa),
}

/// Measured single-thread throughput (MKey/s) of one implementation on
/// one algorithm, cached per process.
fn measured_rate(key: TuneKey, algo: HashAlgo) -> f64 {
    static CACHE: OnceLock<Mutex<HashMap<(TuneKey, HashAlgo), f64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(rate) = cache.lock().expect("tune cache").get(&(key, algo)) {
        return *rate;
    }
    // Compute OUTSIDE the lock so concurrent tuners of different keys
    // don't serialize on each other's sweeps.
    let space =
        KeySpace::new(Charset::lowercase(), 1, 5, Order::FirstCharFastest).expect("valid space");
    // A digest no 1..=5-char lowercase key can produce: nothing matches,
    // so the sweep measures the pure test-function cost.
    let impossible = TargetSet::new(algo, &[algo.hash_long(b"not-in-this-space")]);
    let stop = AtomicBool::new(false);
    let interval = Interval::new(0, TUNE_KEYS);
    let off = Telemetry::disabled();
    let t0 = Instant::now();
    let out = match key {
        TuneKey::Lanes(lanes) => {
            crack_interval_batched(&space, &impossible, interval, &stop, false, lanes, &off)
        }
        TuneKey::Simd(isa) => {
            let hasher = SimdHasher::new(isa).expect("tuning requires an available ISA");
            crack_interval_simd(&space, &impossible, interval, &stop, false, hasher, &off)
        }
    };
    let rate = out.tested as f64 / t0.elapsed().as_secs_f64().max(1e-9) / 1e6;
    *cache
        .lock()
        .expect("tune cache")
        .entry((key, algo))
        .or_insert(rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_keyspace::Key;

    fn space() -> KeySpace {
        KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap()
    }

    fn targets(words: &[&[u8]]) -> TargetSet {
        let ds: Vec<Vec<u8>> = words.iter().map(|w| HashAlgo::Md5.hash_long(w)).collect();
        TargetSet::new(HashAlgo::Md5, &ds)
    }

    #[test]
    fn scalar_and_lane_backends_agree() {
        let s = space();
        let t = targets(&[b"cat", b"mnop"]);
        let stop = AtomicBool::new(false);
        let reference = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        for lanes in [Lanes::L8, Lanes::L16] {
            let got =
                LaneBackend::new(lanes).scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
            assert_eq!(got.hits, reference.hits, "{lanes}");
            assert_eq!(got.tested, reference.tested, "{lanes}");
        }
    }

    #[test]
    fn backend_names_match_the_cli_vocabulary() {
        assert_eq!(ScalarBackend.name(), "scalar");
        assert_eq!(LaneBackend::new(Lanes::L8).name(), "lanes8");
        assert_eq!(LaneBackend::new(Lanes::L16).name(), "lanes16");
        assert_eq!(LaneBackend::new(Lanes::Scalar).name(), "scalar");
    }

    #[test]
    fn isa_labels_name_the_implementation_class() {
        let md5 = HashAlgo::Md5;
        assert_eq!(ScalarBackend.isa(md5).as_deref(), Some("scalar"));
        assert_eq!(LaneBackend::new(Lanes::L8).isa(md5).as_deref(), Some("autovec"));
        assert_eq!(LaneBackend::new(Lanes::Scalar).isa(md5).as_deref(), Some("scalar"));
        if let Some(b) = SimdBackend::best() {
            // `Backend::isa` is shadowed by the inherent `SimdBackend::isa`.
            assert_eq!(Backend::isa(&b, md5).as_deref(), Some(b.isa().name()));
        }
        let auto = AutoBackend::new(Telemetry::disabled());
        let label = Backend::isa(&auto, md5).expect("auto always has a winner");
        assert!(
            ["autovec", "avx2", "avx512", "neon"].contains(&label.as_str()),
            "{label}"
        );
    }

    #[test]
    fn cpu_backend_picks_the_right_implementation() {
        let s = space();
        let t = targets(&[b"dog"]);
        let stop = AtomicBool::new(false);
        for lanes in [Lanes::Scalar, Lanes::L8, Lanes::L16] {
            let b = cpu_backend(lanes);
            let out = b.scan(&s, &t, s.interval(), &stop, ScanMode::FirstHit);
            assert_eq!(out.hits[0].1.as_bytes(), b"dog", "{lanes}");
        }
    }

    #[test]
    fn tuned_rate_is_positive_and_cached() {
        let first = LaneBackend::default().tuned_rate(HashAlgo::Md5);
        assert!(first > 0.0);
        // Second call must hit the cache and return the identical value.
        let second = LaneBackend::default().tuned_rate(HashAlgo::Md5);
        assert_eq!(first, second);
    }

    #[test]
    fn simd_backend_construction_mirrors_detection_and_errors_kindly() {
        for isa in SimdIsa::ALL {
            match SimdBackend::new(isa) {
                Ok(b) => {
                    assert!(isa.is_available());
                    assert_eq!(b.isa(), isa);
                    assert_eq!(b.name(), format!("simd-{isa}"));
                }
                Err(msg) => {
                    assert!(!isa.is_available());
                    assert!(msg.contains(isa.name()), "error names the ISA: {msg}");
                    assert!(msg.contains("detected"), "error lists detection: {msg}");
                }
            }
        }
    }

    #[test]
    fn simd_backend_agrees_with_scalar() {
        let Some(b) = SimdBackend::best() else {
            eprintln!("skipped: no explicit-SIMD ISA on this host");
            return;
        };
        let s = space();
        let t = targets(&[b"cat", b"mnop"]);
        let stop = AtomicBool::new(false);
        let reference = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        let got = b.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        assert_eq!(got.hits, reference.hits);
        assert_eq!(got.tested, reference.tested);
    }

    #[test]
    fn auto_backend_picks_a_winner_and_agrees_with_scalar() {
        let auto = AutoBackend::new(Telemetry::disabled());
        let s = space();
        let t = targets(&[b"cat", b"mnop"]);
        let stop = AtomicBool::new(false);
        let reference = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        let got = auto.scan(&s, &t, s.interval(), &stop, ScanMode::Exhaustive);
        assert_eq!(got.hits, reference.hits);
        assert_eq!(got.tested, reference.tested);
        assert_eq!(auto.name(), "auto");
        // The winner is a real implementation with a cached positive rate.
        let name = auto.choice_name(HashAlgo::Md5);
        assert!(
            name.starts_with("lanes") || name.starts_with("simd-"),
            "{name}"
        );
        assert!(auto.tuned_rate(HashAlgo::Md5) > 0.0);
        // Choices are per algorithm and stable across calls.
        assert_eq!(name, auto.choice_name(HashAlgo::Md5));
    }

    #[test]
    fn auto_backend_tunes_at_least_as_fast_as_every_lane_width() {
        let auto = AutoBackend::new(Telemetry::disabled());
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Ntlm] {
            let best = auto.tuned_rate(algo);
            for lanes in [Lanes::L8, Lanes::L16] {
                assert!(
                    best >= LaneBackend::new(lanes).tuned_rate(algo),
                    "{algo:?}: auto ({best}) slower than {lanes}"
                );
            }
        }
    }

    #[test]
    fn first_hit_mode_maps_through() {
        let s = space();
        let key = Key::from_bytes(b"b"); // identifier 1
        let t = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash_long(key.as_bytes())]);
        let stop = AtomicBool::new(false);
        let out = ScalarBackend.scan(&s, &t, s.interval(), &stop, ScanMode::FirstHit);
        assert_eq!(out.tested, 2, "scalar first-hit stops at the match");
    }
}
