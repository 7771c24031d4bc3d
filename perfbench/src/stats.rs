//! Pure measurement rules: percentiles, interval unions, the open-loop
//! arrival schedule and its lateness accounting. Everything here is a
//! function of its arguments, so the unit tests pin the rules exactly.

/// A percentile as reported: the value, the percentile actually used, and
/// the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile the value sits at (0–100). Lower than requested when
    /// the sample is too small to leave ten samples beyond the request.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// The `q`-quantile (0 < q ≤ 1) of `samples` by nearest rank, clamped to
/// the highest rank that still leaves at least ten samples beyond it.
/// With ten samples or fewer no rank qualifies; the lowest rank is used.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).max(1);
    let cap = n.saturating_sub(10).max(1);
    let rank = wanted.min(cap);
    Some(Pct {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// Total length covered by the union of half-open `[start, end)` intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of `span`: its length minus the part of it that the union of
/// `children` covers (children are clipped to the span first).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    span.1.saturating_sub(span.0) - union_len(&clipped)
}

/// SplitMix64: the benchmark's own seeded stream for arrival times.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at `rate` per second over `seconds`: the send times,
/// in nanoseconds from the start of the phase, ascending.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// FNV-1a over the schedule, so two runs can show identical arrivals.
pub fn schedule_hash(schedule: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in schedule {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// How late an open-loop generator ran, from each request's due time and
/// the time a generator actually began it (both in ns from phase start,
/// `started[i] >= due[i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Lateness {
    /// Per-request lateness, ns, in schedule order.
    pub late_ns: Vec<u64>,
    /// Most requests that were due but not yet begun at any instant.
    pub backlog_max: u64,
    /// Whether the backlog grew over the phase: the median lateness of
    /// the last tenth of the requests exceeds `limit_ns`. A backlog the
    /// generators work off again leaves the last requests on time; one
    /// that keeps growing leaves them ever later.
    pub growing: bool,
}

/// Account lateness for one open-loop phase.
pub fn lateness(due: &[u64], started: &[u64], limit_ns: u64) -> Lateness {
    assert_eq!(due.len(), started.len());
    let late_ns: Vec<u64> = due
        .iter()
        .zip(started)
        .map(|(d, s)| s.saturating_sub(*d))
        .collect();
    // Sweep: a due time adds one to the backlog, a start removes one. At
    // equal times the start is applied first (begun on time: no backlog).
    let mut events: Vec<(u64, i8)> = due.iter().map(|&d| (d, 1)).collect();
    events.extend(started.iter().map(|&s| (s, -1)));
    events.sort_unstable();
    let (mut cur, mut max) = (0i64, 0i64);
    for (_, delta) in events {
        cur += i64::from(delta);
        max = max.max(cur);
    }
    let tail: Vec<f64> = late_ns[late_ns.len() - late_ns.len() / 10..]
        .iter()
        .map(|&l| l as f64)
        .collect();
    let growing = median(&tail) > limit_ns as f64;
    Lateness {
        late_ns,
        backlog_max: max as u64,
        growing,
    }
}

/// Median of a list (the mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_uses_the_requested_rank_when_ten_samples_lie_beyond() {
        let p = percentile(&ramp(2000), 0.99).unwrap();
        assert_eq!(p.value, 1980.0);
        assert_eq!(p.pct, 99.0);
        assert_eq!(p.n, 2000);
        let p50 = percentile(&ramp(101), 0.5).unwrap();
        assert_eq!(p50.value, 51.0);
    }

    #[test]
    fn percentile_backs_off_to_keep_ten_samples_beyond() {
        // 500 samples: p99 would leave 5 beyond; the rule reports rank 490.
        let p = percentile(&ramp(500), 0.99).unwrap();
        assert_eq!(p.value, 490.0);
        assert_eq!(p.pct, 98.0);
        assert_eq!(p.n, 500);
        // Exactly at the boundary: 1000 samples, rank 990, 10 beyond.
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!((p.value, p.pct), (990.0, 99.0));
    }

    #[test]
    fn percentile_of_tiny_and_empty_samples() {
        assert!(percentile(&[], 0.5).is_none());
        let p = percentile(&[3.0, 1.0, 2.0], 0.99).unwrap();
        assert_eq!((p.value, p.n), (1.0, 3));
        // Unsorted input is sorted first.
        let p = percentile(
            &[
                5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0,
            ],
            0.5,
        );
        assert_eq!(p.unwrap().value, 2.0);
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty_intervals() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (7, 7)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_clipped_child_union() {
        // Children overlap each other and stick out of the span.
        assert_eq!(self_time((10, 110), &[(0, 20), (15, 30), (100, 200)]), 70);
        assert_eq!(self_time((0, 50), &[]), 50);
        assert_eq!(self_time((0, 50), &[(60, 70)]), 50);
        assert_eq!(self_time((0, 50), &[(0, 50), (10, 20)]), 0);
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_its_seed() {
        let a = poisson_schedule(500.0, 2.0, 7);
        let b = poisson_schedule(500.0, 2.0, 7);
        let c = poisson_schedule(500.0, 2.0, 8);
        assert_eq!(a, b);
        assert_eq!(schedule_hash(&a), schedule_hash(&b));
        assert_ne!(schedule_hash(&a), schedule_hash(&c));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // About rate × seconds arrivals.
        assert!((900..1100).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn lateness_counts_backlog_and_growth() {
        // On time: no backlog, no growth.
        let due = [0, 10, 20, 30, 40, 50, 60, 70];
        let on_time = lateness(&due, &due, 5);
        assert_eq!(on_time.backlog_max, 0);
        assert!(on_time.late_ns.iter().all(|&l| l == 0));
        assert!(!on_time.growing);
        // A stall: requests 1..4 wait until t=45, four are due at once;
        // the generators catch up, so the backlog is not growing.
        let started = [0, 45, 45, 45, 45, 50, 60, 70];
        let l = lateness(&due, &started, 5);
        assert_eq!(l.late_ns, vec![0, 35, 25, 15, 5, 0, 0, 0]);
        assert_eq!(l.backlog_max, 4);
        assert!(!l.growing);
        // A queue that never drains: each request later than the last.
        let due: Vec<u64> = (0..40).map(|i| 10 * i).collect();
        let started: Vec<u64> = due
            .iter()
            .enumerate()
            .map(|(i, d)| d + 3 * i as u64)
            .collect();
        let l = lateness(&due, &started, 100);
        assert!(l.growing);
        assert_eq!(*l.late_ns.last().unwrap(), 117);
        // Worst at the last due time (390): 40 due, 31 begun.
        assert_eq!(l.backlog_max, 9);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
