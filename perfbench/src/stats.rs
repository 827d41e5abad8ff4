//! The benchmark's own arithmetic: medians, quartiles, the tail
//! percentile rule, span coverage and the per-worker timeline split.
//! Everything here is pure so the unit tests can pin it down.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    // The same integer arithmetic as CPython, including its clamp of
    // the rank to 1..=n-1 (which extrapolates for tiny samples).
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// A tail latency picked by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 down to 50), or 100 for the maximum.
    pub percentile: u32,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

impl Tail {
    /// `p99 of 1532` or `max of 7`, for the human-readable report.
    pub fn describe(&self) -> String {
        if self.percentile == 100 {
            format!("max of {}", self.samples)
        } else {
            format!("p{} of {}", self.percentile, self.samples)
        }
    }
}

/// The percentile rule: the highest whole percentile from 99 down to 50
/// that still has at least ten samples beyond its nearest-rank position.
/// Below twenty samples no percentile at or above the median qualifies,
/// and the slowest sample stands in. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    let max = *s.last()?;
    for p in (50..=99u32).rev() {
        // Nearest rank: the smallest k with k/n ≥ p/100 (1-based).
        let k = (p as usize * n).div_ceil(100).max(1);
        if n - k >= 10 {
            return Some(Tail {
                percentile: p,
                value: s[k - 1],
                samples: n,
            });
        }
    }
    Some(Tail {
        percentile: 100,
        value: max,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A closed time interval `[start, end]` in nanoseconds.
pub type Interval = (u64, u64);

/// Nanoseconds of `parent` covered by the union of `children` (clipped
/// to the parent; overlapping children count once).
pub fn covered_ns(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_ns(parent: Interval, children: &[Interval]) -> u64 {
    parent.1.saturating_sub(parent.0) - covered_ns(parent, children)
}

/// Where each worker's share of a run's wall time went. The four parts
/// add up to `workers × wall` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Inside scan spans.
    pub busy_ns: u64,
    /// Run start to a worker's first scan (a worker that never scanned
    /// counts its whole wall here).
    pub head_ns: u64,
    /// Between consecutive scans of one worker: pop, steal, poll, merge,
    /// and on the job service the per-lease start-up and persist.
    pub gap_ns: u64,
    /// A worker's last scan end to the run end.
    pub tail_ns: u64,
    /// Workers the run had.
    pub workers: usize,
    /// Run wall time.
    pub wall_ns: u64,
}

impl Timeline {
    /// Split `[run.0, run.1]` for every worker; `per_worker[w]` holds
    /// worker `w`'s scan spans in any order (clipped to the run).
    pub fn split(run: Interval, per_worker: &[Vec<Interval>]) -> Self {
        let wall = run.1.saturating_sub(run.0);
        let mut t = Timeline {
            workers: per_worker.len(),
            wall_ns: wall,
            ..Self::default()
        };
        for spans in per_worker {
            let mut spans: Vec<Interval> = spans
                .iter()
                .map(|&(s, e)| (s.clamp(run.0, run.1), e.clamp(run.0, run.1)))
                .collect();
            spans.sort_unstable();
            let (Some(first), Some(last_end)) = (spans.first(), spans.iter().map(|s| s.1).max())
            else {
                t.head_ns += wall;
                continue;
            };
            let busy = covered_ns(run, &spans);
            t.busy_ns += busy;
            t.head_ns += first.0 - run.0;
            t.tail_ns += run.1 - last_end;
            t.gap_ns += (last_end - first.0) - busy;
        }
        t
    }

    /// `part / (workers × wall)`, 0 for an empty run.
    pub fn frac(&self, part: u64) -> f64 {
        let denom = self.workers as f64 * self.wall_ns as f64;
        if denom > 0.0 {
            part as f64 / denom
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 is rank 990, ten beyond.
        let t = tail(&v(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1000));
        assert_eq!(t.describe(), "p99 of 1000");
        // 999 samples: p99 (rank 990) leaves nine beyond, p98 (rank 980) 19.
        assert_eq!(tail(&v(999)).unwrap().percentile, 98);
        // 100 samples: p90 is rank 90 with ten beyond; p91 has nine.
        let t = tail(&v(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        // 20 samples: only the median qualifies.
        assert_eq!(tail(&v(20)).unwrap().percentile, 50);
        // 19 samples: nothing at or above the median; the maximum.
        let t = tail(&v(19)).unwrap();
        assert_eq!((t.percentile, t.value), (100, 19.0));
        assert_eq!(t.describe(), "max of 19");
        assert_eq!(tail(&[]), None);
        // Order of the input does not matter.
        let mut r = v(100);
        r.reverse();
        assert_eq!(tail(&r), tail(&v(100)));
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_parent() {
        let parent = (100, 200);
        assert_eq!(covered_ns(parent, &[]), 0);
        assert_eq!(self_ns(parent, &[]), 100);
        // Two overlapping children count once: [110, 150).
        assert_eq!(covered_ns(parent, &[(110, 140), (130, 150)]), 40);
        // Children sticking out of the parent are clipped.
        assert_eq!(covered_ns(parent, &[(50, 120), (190, 250)]), 30);
        // Disjoint, unsorted children.
        let kids = [(180, 190), (100, 110), (150, 160)];
        assert_eq!(covered_ns(parent, &kids), 30);
        assert_eq!(self_ns(parent, &kids), 70);
        // A child outside the parent covers nothing.
        assert_eq!(covered_ns(parent, &[(0, 50), (300, 400)]), 0);
    }

    #[test]
    fn timeline_splits_gap_from_tail() {
        // Run [0, 100], two workers.
        // w0: scans [10, 30] and [40, 70]: head 10, gap 10, tail 30.
        // w1: scans [0, 90]: head 0, gap 0, tail 10.
        let t = Timeline::split((0, 100), &[vec![(40, 70), (10, 30)], vec![(0, 90)]]);
        assert_eq!(t.busy_ns, 50 + 90);
        assert_eq!(t.head_ns, 10);
        assert_eq!(t.gap_ns, 10);
        assert_eq!(t.tail_ns, 30 + 10);
        assert_eq!(t.busy_ns + t.head_ns + t.gap_ns + t.tail_ns, 2 * 100);
        assert!((t.frac(t.gap_ns) - 0.05).abs() < 1e-12);
        assert!((t.frac(t.tail_ns) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn timeline_counts_an_idle_worker_as_head_and_telescopes() {
        let t = Timeline::split((1_000, 2_000), &[vec![(1_100, 1_900)], vec![]]);
        assert_eq!(t.head_ns, 100 + 1_000);
        assert_eq!(t.tail_ns, 100);
        assert_eq!(t.gap_ns, 0);
        assert_eq!(t.busy_ns + t.head_ns + t.gap_ns + t.tail_ns, 2 * 1_000);
        assert_eq!(Timeline::split((5, 5), &[vec![]]).frac(0), 0.0);
    }
}
