//! An explicit-state model of the work-stealing scheduler protocol.
//!
//! The live scheduler (`eks_engine::steal::IntervalDeques` driven by
//! `Dispatcher::run_deques`) is a handful of per-worker loops over
//! shared state: pop a chunk off your own deque, scan it one poll
//! quantum at a time, steal the back half of a remote deque when
//! drained, exit when the stop flag is up or everything is empty, merge
//! at the end. This module restates those transitions over a cloneable,
//! hashable [`ModelState`] so the checker in [`crate::checker`] can
//! enumerate *every* interleaving instead of sampling a few.
//!
//! ## Fidelity
//!
//! The model does not re-implement the arithmetic it verifies — it calls
//! the same [`ChunkPolicy::next_len`], [`Interval::take_front`] and
//! [`steal_split`] the live deques use, so the verified transition
//! relation cannot drift from the shipped code. The scan loop is split
//! into two atomic actions ([`Action::ScanBegin`] / [`Action::ScanEnd`])
//! so a stop flag raised *between* them reproduces the real
//! one-quantum-per-worker cancellation overshoot, and the
//! [`Action::Steal`] transition permits *any* nonempty remote victim —
//! the stale-snapshot nondeterminism `IntervalDeques::largest_remote`
//! documents is therefore inside the verified state space, not abstracted
//! away.
//!
//! ## Mutations
//!
//! [`Mutation`] seeds deliberate protocol bugs (lost lease, double
//! count, highest-id merge, ignored cancel poll) used by the
//! negative-path tests: a checker that does not flag every mutant is
//! vacuous.

use std::fmt;

use eks_engine::{steal_split, ChunkPolicy};
use eks_keyspace::Interval;

/// A deliberately broken transition relation, for negative-path tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// A steal removes the back half from the victim but never hands it
    /// to the thief: the lease is lost mid-flight.
    DropStolenLease,
    /// A steal hands the back half to the thief while the victim keeps
    /// its full interval: the range is now leased twice.
    DoubleCountSteal,
    /// The merge keeps the *highest*-identifier hit under first-hit
    /// instead of the lowest.
    MergeHighestFirst,
    /// The scan loop never polls the stop flag between quanta, so a
    /// cancelled worker drains its whole popped chunk.
    IgnoreCancelPoll,
}

/// One scheduler configuration to check: the scatter shape, the chunk
/// and poll arithmetic, the planted hits and the optional seeded bug.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Number of workers (deque slots).
    pub workers: usize,
    /// Keyspace size; identifiers are `0..keys`.
    pub keys: u128,
    /// How owners size their pops — the live [`ChunkPolicy`].
    pub chunk: ChunkPolicy,
    /// Whether drained workers steal (false models `SchedPolicy::Static`).
    pub steal: bool,
    /// First-hit mode: a reported hit raises the stop flag.
    pub first_hit: bool,
    /// Identifiers that test positive (the planted keys).
    pub hits: Vec<u128>,
    /// Keys per poll quantum: the model's `poll_quantum`, scaled down so
    /// bounded exploration stays tractable.
    pub quantum: u128,
    /// Seeded protocol bug, if any.
    pub mutation: Option<Mutation>,
}

impl ModelConfig {
    /// An exhaustive-mode stealing config with two planted hits.
    pub fn exhaustive(workers: usize, keys: u128) -> Self {
        let hits = if keys >= 2 { vec![1, keys - 1] } else { vec![0] };
        ModelConfig {
            workers,
            keys,
            chunk: ChunkPolicy::Fixed(1),
            steal: true,
            first_hit: false,
            hits,
            quantum: 1,
            mutation: None,
        }
    }

    /// An exhaustive-mode stealing config whose keyspace is popped as
    /// `intervals` two-key work intervals — the shape the acceptance
    /// bar fixes ("2 workers / 8 intervals"), with enough interleaving
    /// surface that the checker demonstrably explores a nontrivial
    /// state space.
    pub fn steal_intervals(workers: usize, intervals: u128) -> Self {
        ModelConfig {
            chunk: ChunkPolicy::Fixed(2),
            ..Self::exhaustive(workers, intervals * 2)
        }
    }

    /// A first-hit stealing config with hits planted at both ends, so
    /// different interleavings race to report different keys and the
    /// lowest-id merge rule actually has work to do.
    pub fn first_hit(workers: usize, keys: u128) -> Self {
        ModelConfig { first_hit: true, ..Self::exhaustive(workers, keys) }
    }

    /// The cancellation-bound prober: one big pop per worker (the chunk
    /// spans the whole share) scanned one key per quantum, with a hit at
    /// identifier 0 — the worst case for post-cancel overshoot.
    pub fn cancel_bound(workers: usize, keys: u128) -> Self {
        ModelConfig {
            workers,
            keys,
            chunk: ChunkPolicy::Fixed(keys.max(1)),
            steal: true,
            first_hit: true,
            hits: vec![0],
            quantum: 1,
            mutation: None,
        }
    }

    /// Attach a seeded bug.
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = Some(mutation);
        self
    }
}

/// One atomic step of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// `worker` pops the next chunk off the front of its own deque.
    Pop {
        /// The popping worker.
        worker: usize,
    },
    /// `worker` starts the next poll quantum of its popped chunk —
    /// checking the stop flag first, exactly like `PollCursor`.
    ScanBegin {
        /// The scanning worker.
        worker: usize,
    },
    /// `worker` finishes the quantum: keys are counted and covered,
    /// hits reported, and (first-hit mode) the stop flag raised.
    ScanEnd {
        /// The scanning worker.
        worker: usize,
    },
    /// Drained `worker` steals the back half of `victim`'s deque.
    Steal {
        /// The thief.
        worker: usize,
        /// The victim slot (any nonempty remote slot — the model keeps
        /// the live victim-selection race nondeterministic).
        victim: usize,
    },
    /// `worker` leaves the run loop (stop flag up, or nothing left).
    Exit {
        /// The exiting worker.
        worker: usize,
    },
    /// The gather/merge step, once every worker has exited.
    Merge,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Pop { worker } => write!(f, "pop(w{worker})"),
            Action::ScanBegin { worker } => write!(f, "scan-begin(w{worker})"),
            Action::ScanEnd { worker } => write!(f, "scan-end(w{worker})"),
            Action::Steal { worker, victim } => write!(f, "steal(w{worker}<-w{victim})"),
            Action::Exit { worker } => write!(f, "exit(w{worker})"),
            Action::Merge => write!(f, "merge"),
        }
    }
}

/// The property a violation is charged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Some identifier was scanned (or leased) more than once.
    ExactlyOnce,
    /// Some identifier fell out of every lease: the union of deques,
    /// in-flight chunks, scanned and abandoned coverage no longer tiles
    /// the keyspace.
    NoLostLease,
    /// The merge broke its contract: not the lowest reported identifier
    /// under first-hit, or exhaustive outcomes differ across
    /// interleavings.
    MergeDeterminism,
    /// Post-cancel work exceeded `K + workers x quantum`.
    CancellationBound,
}

impl Property {
    /// Stable kebab-case identifier.
    pub fn name(self) -> &'static str {
        match self {
            Property::ExactlyOnce => "exactly-once",
            Property::NoLostLease => "no-lost-lease",
            Property::MergeDeterminism => "merge-determinism",
            Property::CancellationBound => "cancellation-bound",
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A property violation, raised while applying an action or checking a
/// freshly generated state.
pub type Fault = (Property, String);

/// The empty interval, normalized so hashing/equality cannot tell two
/// drained slots apart by their stale start offsets.
const EMPTY: Interval = Interval { start: 0, len: 0 };

fn norm(iv: Interval) -> Interval {
    if iv.len == 0 {
        EMPTY
    } else {
        iv
    }
}

/// A complete snapshot of the protocol: cloneable, hashable, and small
/// enough that millions fit in a visited set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Per-worker deque slots (the stealable leases).
    slots: Vec<Interval>,
    /// Per-worker popped-but-unscanned chunk remainders.
    in_flight: Vec<Interval>,
    /// Per-worker quantum currently being scanned.
    scanning: Vec<Interval>,
    /// Which workers have left their run loop.
    done: Vec<bool>,
    /// The shared stop flag.
    stop: bool,
    /// Per-worker tested-key counters (the live `WorkerStats.keys`
    /// accounting: part of the observable protocol state because the
    /// dispatch report and utilization figures are computed from it).
    tested: Vec<u128>,
    /// Total keys counted (scanned) so far.
    counted: u128,
    /// `counted` at the moment the stop flag was first raised.
    stop_at: Option<u128>,
    /// Hit identifiers reported so far, sorted.
    reported: Vec<u128>,
    /// Scanned coverage: disjoint, sorted, coalesced intervals.
    scanned: Vec<Interval>,
    /// Coverage abandoned by cancellation: disjoint, sorted, coalesced.
    abandoned: Vec<Interval>,
    /// The merge result, once [`Action::Merge`] ran.
    merged: Option<Vec<u128>>,
}

impl ModelState {
    fn get(v: &[Interval], w: usize) -> Interval {
        *v.get(w).expect("worker index in range")
    }

    fn get_mut(v: &mut [Interval], w: usize) -> &mut Interval {
        v.get_mut(w).expect("worker index in range")
    }

    /// The merge result, if the protocol has reached it.
    pub fn merged(&self) -> Option<&[u128]> {
        self.merged.as_deref()
    }

    /// Total keys counted (scanned) so far.
    pub fn counted(&self) -> u128 {
        self.counted
    }

    /// `worker`'s deque slot.
    pub fn slot(&self, worker: usize) -> Interval {
        Self::get(&self.slots, worker)
    }

    /// Insert `iv` into a normalized coverage list, keeping it sorted
    /// and coalesced. Returns the identifier of the first overlapping
    /// key when `iv` intersects existing coverage.
    fn insert_coverage(list: &mut Vec<Interval>, iv: Interval) -> Result<(), u128> {
        if iv.is_empty() {
            return Ok(());
        }
        let pos = list.partition_point(|c| c.start < iv.start);
        if let Some(prev) = pos.checked_sub(1).and_then(|p| list.get(p)) {
            if prev.end() > iv.start {
                return Err(iv.start);
            }
        }
        if let Some(next) = list.get(pos) {
            if iv.end() > next.start {
                return Err(next.start);
            }
        }
        list.insert(pos, iv);
        // Coalesce around the insertion point so equal coverage always
        // has equal representation (state dedup depends on it).
        let mut i = pos.saturating_sub(1);
        while i + 1 < list.len() {
            let (a, b) = (
                *list.get(i).expect("coalesce index"),
                *list.get(i + 1).expect("coalesce index"),
            );
            if a.end() == b.start {
                *list.get_mut(i).expect("coalesce index") =
                    Interval { start: a.start, len: a.len + b.len };
                list.remove(i + 1);
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// One-line rendering for counterexample traces.
    pub fn summary(&self) -> String {
        fn ivs(list: &[Interval]) -> String {
            let parts: Vec<String> = list
                .iter()
                .map(|iv| {
                    if iv.is_empty() {
                        "-".to_string()
                    } else {
                        format!("{}+{}", iv.start, iv.len)
                    }
                })
                .collect();
            parts.join("|")
        }
        let done: String =
            self.done.iter().map(|d| if *d { 'x' } else { '.' }).collect();
        let stop = match (self.stop, self.stop_at) {
            (true, Some(k)) => format!(" stop@{k}"),
            (true, None) => " stop".to_string(),
            _ => String::new(),
        };
        let merged = match &self.merged {
            Some(m) => format!(" merged={m:?}"),
            None => String::new(),
        };
        let tested: Vec<String> = self.tested.iter().map(|t| t.to_string()).collect();
        format!(
            "deques=[{}] popped=[{}] scanning=[{}] done=[{done}] tested=[{}] counted={}{stop} hits={:?}{merged}",
            ivs(&self.slots),
            ivs(&self.in_flight),
            ivs(&self.scanning),
            tested.join("|"),
            self.counted,
            self.reported,
        )
    }
}

/// The transition relation for one [`ModelConfig`].
#[derive(Debug, Clone)]
pub struct Model {
    cfg: ModelConfig,
}

impl Model {
    /// A model over `cfg`.
    ///
    /// # Panics
    /// Panics when the config has no workers or an empty keyspace —
    /// there is no protocol to check.
    pub fn new(cfg: ModelConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.keys >= 1, "need a nonempty keyspace");
        assert!(cfg.hits.iter().all(|h| *h < cfg.keys), "hits must be inside the keyspace");
        Model { cfg }
    }

    /// The checked configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The initial state: the even scatter the dispatcher performs
    /// (`IntervalDeques::scatter` with equal weights reduces to
    /// `split_even`).
    pub fn initial(&self) -> ModelState {
        let slots: Vec<Interval> = Interval::new(0, self.cfg.keys)
            .split_even(self.cfg.workers)
            .into_iter()
            .map(norm)
            .collect();
        ModelState {
            slots,
            in_flight: vec![EMPTY; self.cfg.workers],
            scanning: vec![EMPTY; self.cfg.workers],
            done: vec![false; self.cfg.workers],
            stop: false,
            tested: vec![0; self.cfg.workers],
            counted: 0,
            stop_at: None,
            reported: Vec::new(),
            scanned: Vec::new(),
            abandoned: Vec::new(),
            merged: None,
        }
    }

    /// Every action enabled in `s`. Per-worker control flow is
    /// deterministic (it mirrors `Dispatcher::drive_leaf` exactly);
    /// nondeterminism comes from worker interleaving and victim choice.
    pub fn enabled(&self, s: &ModelState) -> Vec<Action> {
        if s.merged.is_some() {
            return Vec::new();
        }
        if s.done.iter().all(|d| *d) {
            return vec![Action::Merge];
        }
        let mut out = Vec::new();
        for worker in 0..self.cfg.workers {
            if *s.done.get(worker).expect("worker index") {
                continue;
            }
            if !ModelState::get(&s.scanning, worker).is_empty() {
                out.push(Action::ScanEnd { worker });
                continue;
            }
            if !ModelState::get(&s.in_flight, worker).is_empty() {
                out.push(Action::ScanBegin { worker });
                continue;
            }
            // The run-loop head: check the stop flag before popping,
            // like `drive_leaf`.
            if s.stop {
                out.push(Action::Exit { worker });
                continue;
            }
            if !ModelState::get(&s.slots, worker).is_empty() {
                out.push(Action::Pop { worker });
                continue;
            }
            let mut victims = false;
            if self.cfg.steal {
                for victim in 0..self.cfg.workers {
                    if victim != worker && !ModelState::get(&s.slots, victim).is_empty() {
                        out.push(Action::Steal { worker, victim });
                        victims = true;
                    }
                }
            }
            if !victims {
                out.push(Action::Exit { worker });
            }
        }
        out
    }

    /// Apply `a` to `s`. Returns the successor state, or the fault when
    /// the transition itself exposes a violation (an overlapping scan).
    /// The caller must only pass enabled actions.
    pub fn apply(&self, s: &ModelState, a: Action) -> Result<ModelState, Fault> {
        let mut n = s.clone();
        match a {
            Action::Pop { worker } => {
                let slot = ModelState::get_mut(&mut n.slots, worker);
                let len = self.cfg.chunk.next_len(slot.len);
                let chunk = slot.take_front(len);
                *slot = norm(*slot);
                *ModelState::get_mut(&mut n.in_flight, worker) = norm(chunk);
            }
            Action::ScanBegin { worker } => {
                let ignore_cancel =
                    self.cfg.mutation == Some(Mutation::IgnoreCancelPoll);
                let fly = ModelState::get_mut(&mut n.in_flight, worker);
                if n.stop && !ignore_cancel {
                    // PollCursor sees the flag: the chunk remainder is
                    // abandoned, not scanned.
                    let rest = std::mem::replace(fly, EMPTY);
                    ModelState::insert_coverage(&mut n.abandoned, rest).map_err(|id| {
                        (
                            Property::ExactlyOnce,
                            format!("abandoned chunk re-covers identifier {id}"),
                        )
                    })?;
                } else {
                    let q = fly.take_front(self.cfg.quantum.max(1));
                    *fly = norm(*fly);
                    *ModelState::get_mut(&mut n.scanning, worker) = norm(q);
                }
            }
            Action::ScanEnd { worker } => {
                let q = std::mem::replace(
                    ModelState::get_mut(&mut n.scanning, worker),
                    EMPTY,
                );
                *n.tested.get_mut(worker).expect("worker index") += q.len;
                n.counted += q.len;
                ModelState::insert_coverage(&mut n.scanned, q).map_err(|id| {
                    (
                        Property::ExactlyOnce,
                        format!(
                            "quantum [{}, {}) scans identifier {id} a second time",
                            q.start,
                            q.end()
                        ),
                    )
                })?;
                let mut hit_here = false;
                for &h in &self.cfg.hits {
                    if q.contains(h) {
                        hit_here = true;
                        if let Err(pos) = n.reported.binary_search(&h) {
                            n.reported.insert(pos, h);
                        }
                    }
                }
                if self.cfg.first_hit && hit_here && !n.stop {
                    n.stop = true;
                    n.stop_at = Some(n.counted);
                }
            }
            Action::Steal { worker, victim } => {
                let v = ModelState::get(&n.slots, victim);
                let (keep, stolen) = steal_split(v);
                match self.cfg.mutation {
                    Some(Mutation::DropStolenLease) => {
                        // The bug: the victim is trimmed but the thief
                        // never receives the back half.
                        *ModelState::get_mut(&mut n.slots, victim) = norm(keep);
                    }
                    Some(Mutation::DoubleCountSteal) => {
                        // The bug: the victim keeps everything while the
                        // thief also takes the back half.
                        *ModelState::get_mut(&mut n.slots, worker) = norm(stolen);
                    }
                    _ => {
                        *ModelState::get_mut(&mut n.slots, victim) = norm(keep);
                        *ModelState::get_mut(&mut n.slots, worker) = norm(stolen);
                    }
                }
            }
            Action::Exit { worker } => {
                *n.done.get_mut(worker).expect("worker index") = true;
            }
            Action::Merge => {
                let merged = if self.cfg.first_hit {
                    let pick = if self.cfg.mutation == Some(Mutation::MergeHighestFirst) {
                        n.reported.last()
                    } else {
                        n.reported.first()
                    };
                    pick.copied().into_iter().collect()
                } else {
                    n.reported.clone()
                };
                n.merged = Some(merged);
            }
        }
        Ok(n)
    }

    /// Check every state-local property on `s`: the lease partition
    /// (exactly-once + no-lost-lease), the cancellation bound, and the
    /// merge contract once merged.
    pub fn check_invariants(&self, s: &ModelState) -> Result<(), Fault> {
        // The partition invariant: deque slots, in-flight chunks,
        // scanning quanta, scanned coverage and abandoned coverage must
        // tile [0, keys) exactly — at *every* state, not just the end.
        let mut pieces: Vec<Interval> = Vec::new();
        for list in [&s.slots, &s.in_flight, &s.scanning, &s.scanned, &s.abandoned] {
            pieces.extend(list.iter().copied().filter(|iv| !iv.is_empty()));
        }
        pieces.sort_by_key(|iv| (iv.start, iv.len));
        let mut cursor = 0u128;
        for p in &pieces {
            if p.start < cursor {
                return Err((
                    Property::ExactlyOnce,
                    format!("identifier {} is leased twice", p.start),
                ));
            }
            if p.start > cursor {
                return Err((
                    Property::NoLostLease,
                    format!("identifiers [{cursor}, {}) fell out of every lease", p.start),
                ));
            }
            cursor = p.end();
        }
        if cursor != self.cfg.keys {
            return Err((
                Property::NoLostLease,
                format!(
                    "identifiers [{cursor}, {}) fell out of every lease",
                    self.cfg.keys
                ),
            ));
        }
        // The cancellation bound: after the flag went up at count K, the
        // total can grow by at most one quantum per worker.
        if let Some(k) = s.stop_at {
            let bound = k + self.cfg.workers as u128 * self.cfg.quantum.max(1);
            if s.counted > bound {
                return Err((
                    Property::CancellationBound,
                    format!(
                        "counted {} keys after stop at {k}: exceeds K + workers x quantum = {bound}",
                        s.counted
                    ),
                ));
            }
        }
        // The merge contract.
        if let Some(m) = &s.merged {
            if self.cfg.first_hit {
                let want: Vec<u128> = s.reported.first().copied().into_iter().collect();
                if *m != want {
                    return Err((
                        Property::MergeDeterminism,
                        format!(
                            "first-hit merge kept {m:?}, not the lowest reported of {:?}",
                            s.reported
                        ),
                    ));
                }
            } else {
                // Exhaustive: the stop flag never rises, so termination
                // means full coverage and the merge must report every
                // planted hit.
                let mut want = self.cfg.hits.clone();
                want.sort_unstable();
                want.dedup();
                if *m != want {
                    return Err((
                        Property::MergeDeterminism,
                        format!("exhaustive merge reported {m:?}, expected {want:?}"),
                    ));
                }
                if s.scanned != vec![Interval::new(0, self.cfg.keys)] {
                    return Err((
                        Property::ExactlyOnce,
                        format!(
                            "exhaustive run terminated with partial coverage {:?}",
                            s.scanned
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether `ScanEnd {worker}` would raise the stop flag from `s` —
    /// the one transition that is dependent with every stop-flag reader.
    fn raises_stop(&self, s: &ModelState, worker: usize) -> bool {
        if !self.cfg.first_hit || s.stop {
            return false;
        }
        let q = ModelState::get(&s.scanning, worker);
        self.cfg.hits.iter().any(|h| q.contains(*h))
    }

    /// Conservative independence relation for the sleep-set reduction:
    /// two actions are independent when, from `s`, they touch disjoint
    /// workers/slots and neither can write state the other reads.
    /// Dependent-by-default keeps the reduction sound.
    pub fn independent(&self, s: &ModelState, a: Action, b: Action) -> bool {
        fn touched(a: Action) -> (usize, Option<usize>) {
            match a {
                Action::Pop { worker }
                | Action::ScanBegin { worker }
                | Action::ScanEnd { worker }
                | Action::Exit { worker } => (worker, None),
                Action::Steal { worker, victim } => (worker, Some(victim)),
                Action::Merge => (usize::MAX, None),
            }
        }
        if a == Action::Merge || b == Action::Merge {
            return false;
        }
        let (aw, av) = touched(a);
        let (bw, bv) = touched(b);
        if aw == bw || Some(aw) == bv || Some(bw) == av || (av.is_some() && av == bv) {
            return false;
        }
        // A stop-raising scan end invalidates every other worker's
        // stop-flag read (pop/steal/exit enabledness, scan-begin's
        // abandon decision): treat it as globally dependent.
        for (x, other) in [(a, b), (b, a)] {
            if let Action::ScanEnd { worker } = x {
                if self.raises_stop(s, worker) {
                    let _ = other;
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_engine::IntervalDeques;

    #[test]
    fn initial_state_partitions_the_keyspace() {
        let m = Model::new(ModelConfig::exhaustive(3, 10));
        let s = m.initial();
        assert!(m.check_invariants(&s).is_ok());
        let total: u128 = (0..3).map(|w| s.slot(w).len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn pop_scan_sequence_counts_and_covers() {
        let m = Model::new(ModelConfig::exhaustive(1, 3));
        let mut s = m.initial();
        for _ in 0..3 {
            s = m.apply(&s, Action::Pop { worker: 0 }).unwrap();
            s = m.apply(&s, Action::ScanBegin { worker: 0 }).unwrap();
            s = m.apply(&s, Action::ScanEnd { worker: 0 }).unwrap();
            m.check_invariants(&s).unwrap();
        }
        assert_eq!(s.counted(), 3);
        s = m.apply(&s, Action::Exit { worker: 0 }).unwrap();
        s = m.apply(&s, Action::Merge).unwrap();
        m.check_invariants(&s).unwrap();
        assert_eq!(s.merged(), Some(&[1, 2][..]));
    }

    /// The model's pop and steal transitions replay the *live*
    /// `IntervalDeques` arithmetic step for step: same chunk sizes, same
    /// split points. This pins the model to the shipped code — if the
    /// engine's arithmetic changes, this test drifts red before the
    /// checker silently verifies the wrong protocol.
    #[test]
    fn model_transitions_mirror_live_interval_deques() {
        let cfg = ModelConfig {
            workers: 2,
            keys: 12,
            chunk: ChunkPolicy::Guided { min: 1 },
            steal: true,
            first_hit: false,
            hits: vec![],
            quantum: 4,
            mutation: None,
        };
        let m = Model::new(cfg.clone());
        let mut s = m.initial();
        let live = IntervalDeques::scatter(Interval::new(0, 12), &[1.0, 1.0]);

        // Worker 0 pops twice, then worker 1 drains and steals from 0;
        // with two workers the victim choice is forced, so the live
        // scheduler and the model must agree exactly.
        for _ in 0..2 {
            let chunk = live.pop(0, cfg.chunk).unwrap();
            s = m.apply(&s, Action::Pop { worker: 0 }).unwrap();
            let fly = ModelState::get(&s.in_flight, 0);
            assert_eq!((fly.start, fly.len), (chunk.start, chunk.len));
            // Drain the chunk through scan quanta so the next pop sees
            // the same deque shape the live side does.
            while !ModelState::get(&s.in_flight, 0).is_empty() {
                s = m.apply(&s, Action::ScanBegin { worker: 0 }).unwrap();
                s = m.apply(&s, Action::ScanEnd { worker: 0 }).unwrap();
            }
            assert_eq!(s.slot(0).len, live.remaining(0));
        }
        while live.pop(1, cfg.chunk).is_some() {}
        while !s.slot(1).is_empty() {
            s = m.apply(&s, Action::Pop { worker: 1 }).unwrap();
            while !ModelState::get(&s.in_flight, 1).is_empty() {
                s = m.apply(&s, Action::ScanBegin { worker: 1 }).unwrap();
                s = m.apply(&s, Action::ScanEnd { worker: 1 }).unwrap();
            }
        }
        assert_eq!(live.steal_into(1), Some(0));
        s = m.apply(&s, Action::Steal { worker: 1, victim: 0 }).unwrap();
        assert_eq!(s.slot(0).len, live.remaining(0), "victim keeps the same front half");
        assert_eq!(s.slot(1).len, live.remaining(1), "thief holds the same back half");
        m.check_invariants(&s).unwrap();
    }

    #[test]
    fn drop_stolen_lease_breaks_the_partition() {
        let m = Model::new(
            ModelConfig::exhaustive(2, 8).with_mutation(Mutation::DropStolenLease),
        );
        let mut s = m.initial();
        // Drain worker 1's share so it becomes a thief.
        while !s.slot(1).is_empty() {
            s = m.apply(&s, Action::Pop { worker: 1 }).unwrap();
            s = m.apply(&s, Action::ScanBegin { worker: 1 }).unwrap();
            s = m.apply(&s, Action::ScanEnd { worker: 1 }).unwrap();
        }
        s = m.apply(&s, Action::Steal { worker: 1, victim: 0 }).unwrap();
        let (prop, _) = m.check_invariants(&s).unwrap_err();
        assert_eq!(prop, Property::NoLostLease);
    }

    #[test]
    fn summary_renders_compactly() {
        let m = Model::new(ModelConfig::exhaustive(2, 8));
        let s = m.initial();
        let line = s.summary();
        assert!(line.contains("deques=[0+4|4+4]"), "{line}");
        assert!(line.contains("done=[..]"), "{line}");
    }
}
