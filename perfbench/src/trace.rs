//! In-memory spans recorded from the benchmark's own code: around every
//! call it makes into a layer, and — through [`Traced`], a wrapper that
//! implements the public [`Backend`] trait — around every `scan` the
//! dispatcher makes on a backend the benchmark built.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use eks_engine::{Backend, ScanMode, ScanReport, TargetSet};
use eks_hashes::HashAlgo;
use eks_keyspace::{Interval, KeySpace};

use crate::stats::{self, Timeline};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `Backend::scan` (recorded by [`Traced`]).
    Scan,
    /// One `JobService::round` call.
    Round,
    /// One whole search call (crack, mask or cluster entry point).
    Call,
}

/// One recorded span, in nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// What it covers.
    pub kind: Kind,
    /// Fleet member (wrapper instance) that recorded it; 0 otherwise.
    pub member: usize,
    /// Thread it ran on.
    pub thread: ThreadId,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Keys the span scanned (scans only).
    pub keys: u128,
}

impl Span {
    /// `(start, end)`.
    pub fn interval(&self) -> stats::Interval {
        (self.start_ns, self.end_ns)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span store: appended under a mutex (one lock per scan, which is
/// milliseconds of work), read once a pass ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A fresh log whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Append a span.
    pub fn record(&self, kind: Kind, member: usize, start_ns: u64, keys: u128) {
        let end_ns = self.now_ns();
        let thread = std::thread::current().id();
        let span = Span {
            kind,
            member,
            thread,
            start_ns,
            end_ns,
            keys,
        };
        self.spans
            .lock()
            .expect("span log poisoned by a panicking worker")
            .push(span);
    }

    /// Time `f` as one span of `kind`.
    pub fn time<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        self.record(kind, 0, start, 0);
        out
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span log poisoned by a panicking worker"),
        )
    }
}

/// Times `f` as a span when a log is attached, runs it bare otherwise.
pub fn maybe_time<R>(log: Option<&Arc<SpanLog>>, kind: Kind, f: impl FnOnce() -> R) -> R {
    match log {
        Some(log) => log.time(kind, f),
        None => f(),
    }
}

/// A [`Backend`] that records a [`Kind::Scan`] span around every scan
/// of the backend it wraps and delegates everything else.
pub struct Traced {
    inner: Box<dyn Backend>,
    member: usize,
    log: Arc<SpanLog>,
}

impl Traced {
    /// Wrap `inner`, attributing its scans to `member`.
    pub fn new(inner: Box<dyn Backend>, member: usize, log: Arc<SpanLog>) -> Self {
        Self { inner, member, log }
    }
}

impl Backend for Traced {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn scan(
        &self,
        space: &KeySpace,
        targets: &TargetSet,
        interval: Interval,
        stop: &AtomicBool,
        mode: ScanMode,
    ) -> ScanReport {
        let start = self.log.now_ns();
        let out = self.inner.scan(space, targets, interval, stop, mode);
        self.log.record(Kind::Scan, self.member, start, out.tested);
        out
    }

    fn tuned_rate(&self, algo: HashAlgo) -> f64 {
        self.inner.tuned_rate(algo)
    }

    fn isa(&self, algo: HashAlgo) -> Option<String> {
        self.inner.isa(algo)
    }
}

/// How scan spans map to dispatcher workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// One worker per thread (the crack path: one dispatcher, its own
    /// threads).
    Thread,
    /// One worker per fleet member (the job service spawns fresh threads
    /// for every lease; the member is the stable identity).
    Member,
}

/// Dispatcher-level figures of one run, derived from its scan spans.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Scans recorded.
    pub scans: usize,
    /// Keys scanned.
    pub keys: u128,
    /// Where the workers' time went.
    pub timeline: Timeline,
    /// Scan durations in milliseconds.
    pub scan_ms: Vec<f64>,
}

impl EngineStats {
    /// Analyse the scan spans in `spans` over the run `[run.0, run.1]`
    /// with `workers` workers (workers that never scanned still count).
    pub fn from_spans(spans: &[Span], run: stats::Interval, workers: usize, group: Group) -> Self {
        let scans: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Scan).collect();
        let mut threads: Vec<ThreadId> = Vec::new();
        let mut per_worker: Vec<Vec<stats::Interval>> = vec![Vec::new(); workers];
        for s in &scans {
            let slot = match group {
                Group::Member => s.member,
                Group::Thread => threads
                    .iter()
                    .position(|t| *t == s.thread)
                    .unwrap_or_else(|| {
                        threads.push(s.thread);
                        threads.len() - 1
                    }),
            };
            if slot >= per_worker.len() {
                per_worker.resize(slot + 1, Vec::new());
            }
            per_worker[slot].push(s.interval());
        }
        Self {
            scans: scans.len(),
            keys: scans.iter().map(|s| s.keys).sum(),
            timeline: Timeline::split(run, &per_worker),
            scan_ms: scans.iter().map(|s| s.ms()).collect(),
        }
    }
}
