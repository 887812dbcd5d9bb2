//! Workload generation for the §6.1 micro-benchmark.

use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Contention level = size of the database active set (§6.1): "low
/// contention, where the database active set is 10M records; medium
/// contention, where the active set is 100K records; and high contention,
/// where the active set is 10K records", scaled by `scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contention {
    /// Active set = whole table.
    Low,
    /// Active set = table / 100.
    Medium,
    /// Active set = table / 1000.
    High,
}

impl Contention {
    /// Active-set size for a table of `rows`.
    pub fn active_set(self, rows: u64) -> u64 {
        match self {
            Contention::Low => rows,
            Contention::Medium => (rows / 100).max(16),
            Contention::High => (rows / 1000).max(8),
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::Medium => "medium",
            Contention::High => "high",
        }
    }
}

/// Parameters of the short-update-transaction workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Total rows loaded.
    pub rows: u64,
    /// Value columns in the table (paper: 10 columns).
    pub cols: usize,
    /// Reads per update transaction (paper: 8).
    pub reads_per_txn: usize,
    /// Writes per update transaction (paper: 2).
    pub writes_per_txn: usize,
    /// Fraction of columns updated per write (paper: "On average 40% of all
    /// columns are updated by the writers").
    pub update_col_fraction: f64,
    /// Contention level.
    pub contention: Contention,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            rows: 100_000,
            cols: 10,
            reads_per_txn: 8,
            writes_per_txn: 2,
            update_col_fraction: 0.4,
            contention: Contention::Low,
        }
    }
}

/// Zipfian key distribution over `0..n` with skew `theta` (Gray et al.,
/// *Quickly Generating Billion-Record Synthetic Databases*, SIGMOD '94 —
/// the same generator YCSB uses). Rank 0 is the hottest key and ranks are
/// **not** shuffled, so "the hot set" is simply the low keys; at the
/// customary θ = 0.99 a handful of keys absorb most of the traffic, which
/// is what drives commit-time conflicts in the contention benchmarks.
///
/// Construction is `O(n)` (the harmonic sum); sampling is `O(1)`, so build
/// one instance per table and share it across worker threads (it is
/// immutable — the caller supplies the RNG).
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Distribution over `0..n`; `theta` must lie strictly in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw the next key rank in `0..n`.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> u64 {
        // 53-bit uniform float in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

/// One pre-generated short update transaction.
#[derive(Debug, Clone)]
pub struct TxnSpec {
    /// Keys to read (all columns each).
    pub reads: Vec<u64>,
    /// Writes: key → updated (column, value) pairs.
    pub writes: Vec<(u64, Vec<(usize, u64)>)>,
}

/// Deterministic per-thread workload stream.
pub struct Workload {
    config: WorkloadConfig,
    rng: SmallRng,
    active: u64,
}

impl Workload {
    /// Create the stream for `thread` (distinct seeds per thread).
    pub fn new(config: WorkloadConfig, thread: u64) -> Self {
        let active = config.contention.active_set(config.rows);
        Workload {
            rng: SmallRng::seed_from_u64(0x5157_0BEE ^ (thread.wrapping_mul(0x9E37_79B9))),
            config,
            active,
        }
    }

    /// Size of the active set this stream draws from.
    pub fn active_set(&self) -> u64 {
        self.active
    }

    fn key(&mut self) -> u64 {
        self.rng.random_range(0..self.active)
    }

    /// Generate the next transaction. `read_fraction` overrides the default
    /// 8r/2w split when sweeping the read/write ratio (Fig. 9): a statement
    /// is a read with probability `read_fraction`.
    pub fn next_txn(&mut self, read_fraction: Option<f64>) -> TxnSpec {
        let statements = self.config.reads_per_txn + self.config.writes_per_txn;
        let (n_reads, n_writes) = match read_fraction {
            None => (self.config.reads_per_txn, self.config.writes_per_txn),
            Some(f) => {
                let mut r = 0usize;
                for _ in 0..statements {
                    if self.rng.random_bool(f.clamp(0.0, 1.0)) {
                        r += 1;
                    }
                }
                (r, statements - r)
            }
        };
        let reads = (0..n_reads).map(|_| self.key()).collect();
        let n_update_cols = ((self.config.cols as f64 * self.config.update_col_fraction).round()
            as usize)
            .clamp(1, self.config.cols);
        let writes = (0..n_writes)
            .map(|_| {
                let key = self.key();
                let mut cols: Vec<usize> = (0..self.config.cols).collect();
                // Partial Fisher-Yates for a random column subset.
                for i in 0..n_update_cols {
                    let j = self.rng.random_range(i..cols.len());
                    cols.swap(i, j);
                }
                let updates = cols[..n_update_cols]
                    .iter()
                    .map(|&c| (c, self.rng.random_range(0..1000u64)))
                    .collect();
                (key, updates)
            })
            .collect();
        TxnSpec { reads, writes }
    }

    /// A random 10%-of-table scan interval (long read-only transaction).
    pub fn scan_interval(&mut self, fraction: f64) -> (u64, u64) {
        let span = ((self.config.rows as f64) * fraction).max(1.0) as u64;
        let lo = self
            .rng
            .random_range(0..self.config.rows.saturating_sub(span).max(1));
        (lo, (lo + span - 1).min(self.config.rows - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_set_scales_with_contention() {
        assert_eq!(Contention::Low.active_set(1_000_000), 1_000_000);
        assert_eq!(Contention::Medium.active_set(1_000_000), 10_000);
        assert_eq!(Contention::High.active_set(1_000_000), 1_000);
    }

    #[test]
    fn default_mix_is_8r2w() {
        let mut w = Workload::new(WorkloadConfig::default(), 0);
        let t = w.next_txn(None);
        assert_eq!(t.reads.len(), 8);
        assert_eq!(t.writes.len(), 2);
        // 40% of 10 columns = 4 columns per write.
        assert_eq!(t.writes[0].1.len(), 4);
    }

    #[test]
    fn read_fraction_extremes() {
        let mut w = Workload::new(WorkloadConfig::default(), 1);
        let all_reads = w.next_txn(Some(1.0));
        assert_eq!(all_reads.writes.len(), 0);
        let all_writes = w.next_txn(Some(0.0));
        assert_eq!(all_writes.reads.len(), 0);
        assert_eq!(all_writes.writes.len(), 10);
    }

    #[test]
    fn streams_are_deterministic_per_thread() {
        let a1 = Workload::new(WorkloadConfig::default(), 3).next_txn(None);
        let a2 = Workload::new(WorkloadConfig::default(), 3).next_txn(None);
        let b = Workload::new(WorkloadConfig::default(), 4).next_txn(None);
        assert_eq!(a1.reads, a2.reads);
        assert_ne!(a1.reads, b.reads);
    }

    #[test]
    fn zipfian_is_bounded_and_skewed() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        let draws = 100_000;
        let mut hot = 0u64;
        for _ in 0..draws {
            let k = z.sample(&mut rng);
            assert!(k < 10_000);
            if k < 100 {
                hot += 1;
            }
        }
        // At θ = 0.99 the top 1% of ranks absorbs well over a third of the
        // draws (a uniform distribution would give them 1%).
        assert!(hot * 100 > draws * 35, "top-100 ranks drew {hot}/{draws}");
    }

    #[test]
    fn zipfian_is_deterministic_per_seed() {
        let z = Zipfian::new(1_000, 0.99);
        let seq = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..32).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn zipfian_degenerate_single_key() {
        let z = Zipfian::new(1, 0.5);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn scan_interval_within_bounds() {
        let mut w = Workload::new(WorkloadConfig::default(), 0);
        for _ in 0..100 {
            let (lo, hi) = w.scan_interval(0.1);
            assert!(lo <= hi && hi < 100_000);
            assert!(hi - lo < 10_000);
        }
    }
}
