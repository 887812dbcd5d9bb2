//! Sample arithmetic: slice rates with quartiles, latency percentiles with
//! an honest tail, and the per-generator operation log.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so that spreads computed here match the ones the
/// benchmark's bounds were derived with. `values` need not be sorted.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => [0.0; 3],
        1 => [data[0]; 3],
        len => {
            let m = len + 1;
            [1usize, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            })
        }
    }
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A tail percentile as an exact fraction, so that "ten samples beyond it"
/// is integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct {
    pub label: &'static str,
    num: usize,
    den: usize,
}

impl Pct {
    pub const P95: Pct = Pct::new("p95", 95, 100);
    pub const P99: Pct = Pct::new("p99", 99, 100);
    /// From the highest down.
    const TAILS: [Pct; 5] = [
        Pct::new("p99.99", 9999, 10_000),
        Pct::new("p99.9", 999, 1000),
        Pct::P99,
        Pct::P95,
        Pct::new("p90", 90, 100),
    ];

    const fn new(label: &'static str, num: usize, den: usize) -> Pct {
        Pct { label, num, den }
    }

    /// Nearest rank (1-based) among `n` samples.
    fn rank(self, n: usize) -> usize {
        (n * self.num).div_ceil(self.den)
    }

    /// The percentile of sorted samples, only when at least ten samples lie
    /// beyond it.
    pub fn of<T: Copy>(self, sorted: &[T]) -> Option<T> {
        let rank = self.rank(sorted.len());
        (rank >= 1 && sorted.len() - rank >= 10).then(|| sorted[rank - 1])
    }

    /// The highest of p90 … p99.99 that `n` samples support; `None` below
    /// 100 samples.
    pub fn highest_supported(n: usize) -> Option<Pct> {
        Pct::TAILS.into_iter().find(|p| n - p.rank(n) >= 10)
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A latency distribution: the median and the highest percentile with at
/// least ten samples beyond it. Sorts `samples`.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    pub samples: usize,
    pub p50_ns: f64,
    pub tail: Option<(&'static str, f64)>,
}

impl Latency {
    pub fn of(samples: &mut [u32]) -> Latency {
        samples.sort_unstable();
        Latency {
            samples: samples.len(),
            p50_ns: percentile(samples, 0.5).map_or(0.0, f64::from),
            tail: Pct::highest_supported(samples.len())
                .and_then(|p| Some((p.label, f64::from(p.of(samples)?)))),
        }
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Done,
    /// The engine or the server refused, aborted or timed it out, or an
    /// open-loop generator started it too late.
    Failed,
    /// It completed with an answer that differs from the driver's copy.
    Wrong,
}

/// The measuring window: `slices` equal slices starting at `start_ns`
/// (nanoseconds on the run's clock).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ns: u64,
    pub slice_ns: u64,
    pub slices: usize,
}

impl Window {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.slice_ns * self.slices as u64
    }

    fn slice_of(&self, t_ns: u64) -> Option<usize> {
        let i = t_ns.checked_sub(self.start_ns)? / self.slice_ns;
        (i < self.slices as u64).then_some(i as usize)
    }
}

/// What one generator did: completions per slice and latencies of the
/// operations that completed inside the window, plus whole-run counts of
/// attempts and failures (warm-up included: a failure there is a failure).
#[derive(Debug, Clone)]
pub struct OpLog {
    window: Window,
    pub per_slice: Vec<u64>,
    pub latency_ns: Vec<u32>,
    pub attempted: u64,
    /// Aborts, errors, rejections, time-outs and late open-loop starts.
    pub failed: u64,
    /// Answers that differ from the driver's copy.
    pub wrong: u64,
}

impl OpLog {
    pub fn new(window: Window, expected_ops: usize) -> OpLog {
        OpLog {
            window,
            per_slice: vec![0; window.slices],
            latency_ns: Vec::with_capacity(expected_ops),
            attempted: 0,
            failed: 0,
            wrong: 0,
        }
    }

    /// Record a completed operation; `true` when it completed inside the
    /// window. `from_ns` is when it started, or for an open-loop generator
    /// when it was due.
    pub fn complete(&mut self, from_ns: u64, end_ns: u64) -> bool {
        let Some(i) = self.window.slice_of(end_ns) else {
            return false;
        };
        self.per_slice[i] += 1;
        self.latency_ns
            .push(u32::try_from(end_ns.saturating_sub(from_ns)).unwrap_or(u32::MAX));
        true
    }

    /// Count an attempted operation by how it ended; only `Done` ones enter
    /// the rate and the latencies. `true` when it was recorded in the window.
    pub fn finish(&mut self, outcome: Outcome, from_ns: u64, end_ns: u64) -> bool {
        self.attempted += 1;
        match outcome {
            Outcome::Done => return self.complete(from_ns, end_ns),
            Outcome::Failed => self.failed += 1,
            Outcome::Wrong => self.wrong += 1,
        }
        false
    }

    pub fn absorb(&mut self, other: &OpLog) {
        for (a, b) in self.per_slice.iter_mut().zip(&other.per_slice) {
            *a += b;
        }
        self.latency_ns.extend_from_slice(&other.latency_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Add the window of another run of the same generator after this one:
    /// its slices follow this log's slices.
    pub fn append(&mut self, other: OpLog) {
        self.per_slice.extend(other.per_slice);
        self.latency_ns.extend(other.latency_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Completions per second in every slice.
    pub fn all_rates(&self) -> Vec<f64> {
        self.rates(&(0..self.per_slice.len()).collect::<Vec<_>>())
    }

    /// Completions per second in each of `slices`.
    pub fn rates(&self, slices: &[usize]) -> Vec<f64> {
        let slice_s = self.window.slice_ns as f64 / 1e9;
        slices
            .iter()
            .map(|&i| self.per_slice[i] as f64 / slice_s)
            .collect()
    }
}

/// A rate as the median slice with its quartiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Rate {
    pub fn of(per_slice_rates: &[f64]) -> Rate {
        let [q1, median, q3] = quartiles(per_slice_rates);
        Rate { q1, median, q3 }
    }
}

/// Median of a small set of timings (set-up repeats, probe batches).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let label = |n| Pct::highest_supported(n).map(|p| p.label);
        assert_eq!(label(0), None);
        assert_eq!(label(99), None);
        assert_eq!(label(100), Some("p90"));
        assert_eq!(label(199), Some("p90"));
        assert_eq!(label(200), Some("p95"));
        assert_eq!(label(999), Some("p95"));
        assert_eq!(label(1_000), Some("p99"));
        assert_eq!(label(10_000), Some("p99.9"));
        assert_eq!(label(100_000), Some("p99.99"));
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(Pct::P99.of(&sorted), Some(990));
        assert_eq!(Pct::P99.of(&sorted[..999]), None);
        assert_eq!(Pct::P95.of(&sorted[..999]), Some(950));
        assert_eq!(Pct::P95.of::<u32>(&[]), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&sorted[..1], 0.5), Some(1));
        assert_eq!(percentile::<u32>(&[], 0.5), None);
        let mut raw = [5u32, 1, 9, 3, 7];
        let lat = Latency::of(&mut raw);
        assert_eq!((lat.samples, lat.p50_ns), (5, 5.0));
        assert!(lat.tail.is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn slice_median_ignores_warm_up_and_a_stalled_slice() {
        let window = Window {
            start_ns: 1_000,
            slice_ns: 100,
            slices: 4,
        };
        let mut log = OpLog::new(window, 16);
        log.complete(900, 950); // warm-up: not counted
        for (slice, n) in [(0u64, 4), (1, 4), (2, 1), (3, 4)] {
            for i in 0..n {
                let end = 1_000 + slice * 100 + i * 10;
                log.complete(end - 7, end);
            }
        }
        log.complete(1_390, 1_400); // after the window: not counted
        log.finish(Outcome::Failed, 1_000, 1_010);
        log.finish(Outcome::Wrong, 1_000, 1_010);
        assert_eq!((log.attempted, log.failed, log.wrong), (2, 1, 1));
        assert_eq!(log.per_slice, vec![4, 4, 1, 4]);
        assert_eq!(log.latency_ns.len(), 13);
        let rate = Rate::of(&log.rates(&[0, 1, 2, 3]));
        let per_s = 1e9 / 100.0;
        assert!((rate.median / (4.0 * per_s) - 1.0).abs() < 1e-12);
        assert!(rate.q1 < rate.median && rate.q3 == rate.median);
        let tail = Rate::of(&log.rates(&[2, 3])).median;
        assert!((tail / (2.5 * per_s) - 1.0).abs() < 1e-12);
        let mut both = log.clone();
        both.append(log);
        assert_eq!(both.per_slice, vec![4, 4, 1, 4, 4, 4, 1, 4]);
        assert_eq!(
            (both.latency_ns.len(), both.attempted, both.wrong),
            (26, 4, 2)
        );
        assert_eq!(both.all_rates().len(), 8);
    }
}
