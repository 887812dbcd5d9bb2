//! Input generation: everything the workloads feed the engine is a pure
//! function of `--seed`. lbench carries its own generator (SplitMix64 and a
//! YCSB-style zipfian) so that no file outside the benchmark's directory can
//! change the inputs.

/// Value columns of the benchmark table.
pub const COLS: usize = 10;
/// One row of the benchmark table (the key is implicit).
pub type Row = [u64; COLS];

/// SplitMix64 finaliser: a stateless 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 sequence generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator `stream` of run `seed`: every generator thread and set-up
    /// step takes its own stream, so adding a draw to one moves no other.
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(mix(seed ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n` ≥ 1), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Loaded value of `(key, col)`. Column 0 starts a million above the other
/// columns so that the short transaction's transfers (a few units from
/// column 0 to column 1 per write) can never drive it to zero or wrap into
/// the engine's `NULL_VALUE`.
pub fn initial_value(seed: u64, key: u64, col: usize) -> u64 {
    let v = mix(seed ^ mix(key.wrapping_mul(COLS as u64) + col as u64)) % 1000;
    if col == 0 {
        1_000_000 + v
    } else {
        v
    }
}

/// The loaded table contents for `seed`.
pub fn initial_rows(seed: u64, rows: u64) -> Vec<Row> {
    (0..rows)
        .map(|k| std::array::from_fn(|c| initial_value(seed, k, c)))
        .collect()
}

/// The four column writes of one update statement of the short
/// transaction: move `d` from column 0 to column 1 and overwrite two other
/// random columns. `row` is the driver's copy of the current values.
pub fn plan_update(rng: &mut SplitMix64, row: &Row) -> [(usize, u64); 4] {
    let d = (1 + rng.below(10)).min(row[0]);
    let x = 2 + rng.below(COLS as u64 - 2) as usize;
    let mut y = 2 + rng.below(COLS as u64 - 3) as usize;
    if y >= x {
        y += 1;
    }
    [
        (0, row[0] - d),
        (1, row[1] + d),
        (x, rng.below(1000)),
        (y, rng.below(1000)),
    ]
}

/// Apply a committed update to the driver's copy.
pub fn apply_update(row: &mut Row, update: &[(usize, u64); 4]) {
    for &(c, v) in update {
        row[c] = v;
    }
}

/// Zipfian ranks over `0..n` (Gray et al., as in YCSB): rank 0 is the most
/// popular. `scrambled_key` spreads the ranks over the key space.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2.min(n)) / zetan);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// A zipfian key: the rank hashed over `0..n`, so that popular keys do
    /// not share pages.
    pub fn scrambled_key(&self, rng: &mut SplitMix64, seed: u64) -> u64 {
        mix(self.rank(rng) ^ seed) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut g = SplitMix64::stream(seed, 3);
            (0..64).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_eq!(initial_rows(7, 100), initial_rows(7, 100));
        assert_ne!(initial_rows(7, 100), initial_rows(8, 100));
        let mut a = SplitMix64::stream(7, 0);
        let mut b = SplitMix64::stream(7, 1);
        assert_ne!(a.next_u64(), b.next_u64(), "streams differ");
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut g = SplitMix64::stream(1, 0);
        for n in [1u64, 2, 3, 1000, u64::MAX] {
            for _ in 0..1000 {
                assert!(g.below(n) < n);
            }
        }
        for _ in 0..1000 {
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn update_keeps_the_transfer_invariant_and_distinct_columns() {
        let mut g = SplitMix64::stream(5, 0);
        let mut row: Row = std::array::from_fn(|c| initial_value(5, 42, c));
        let total = row[0] + row[1];
        for _ in 0..10_000 {
            let u = plan_update(&mut g, &row);
            assert!(u[2].0 >= 2 && u[3].0 >= 2 && u[2].0 != u[3].0);
            assert!(u[2].0 < COLS && u[3].0 < COLS);
            apply_update(&mut row, &u);
            assert_eq!(row[0] + row[1], total);
        }
        let mut poor: Row = [0; COLS];
        poor[0] = 3;
        for _ in 0..100 {
            let u = plan_update(&mut g, &poor);
            apply_update(&mut poor, &u);
        }
        assert_eq!(poor[0] + poor[1], 3, "column 0 never goes below zero");
    }

    #[test]
    fn zipfian_stays_in_bounds_and_is_skewed() {
        for n in [1u64, 2, 10, 10_000] {
            let z = Zipfian::new(n, 0.99);
            let mut g = SplitMix64::stream(9, 0);
            let mut top = 0u64;
            for _ in 0..20_000 {
                let r = z.rank(&mut g);
                assert!(r < n);
                assert!(z.scrambled_key(&mut g, 9) < n);
                top += u64::from(r < n.div_ceil(100));
            }
            if n == 10_000 {
                assert!(top > 20_000 / 3, "the top 1% of ranks draws {top} of 20000");
            }
        }
    }
}
