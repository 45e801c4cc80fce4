//! Uniform bucketization of closed value domains.
//!
//! The paper discretizes the original domain `[-1, 1]` into `d` buckets and
//! the perturbed domain `[-C, C]` into `d'` buckets, with
//! `d' = ⌊√N⌋` and `d = ⌊d'(e^{ε/2}−1)/(e^{ε/2}+1)⌋` (§VI-A). [`Grid`] is the
//! shared representation for both.

/// A uniform grid of `n` buckets over the closed interval `[lo, hi]`.
///
/// Buckets are half-open `[edge_i, edge_{i+1})` except the last, which is
/// closed so the full domain is covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    lo: f64,
    hi: f64,
    n: usize,
    width: f64,
    /// `1/width`, so the hot `bucket_of` multiplies instead of divides.
    inv_width: f64,
}

impl Grid {
    /// Builds a grid of `n ≥ 1` buckets over `[lo, hi]`, `lo < hi`, whose
    /// width `hi − lo` is a finite double.
    ///
    /// # Panics
    /// If the interval is empty/invalid or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi && (hi - lo).is_finite(), "invalid interval [{lo}, {hi}]");
        assert!(n >= 1, "grid needs at least one bucket");
        let width = (hi - lo) / n as f64;
        Grid { lo, hi, n, width, inv_width: 1.0 / width }
    }

    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — a grid has at least one bucket.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Domain lower bound.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Domain upper bound.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Bucket width.
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Bucket index containing `v`; values outside the domain clamp to the
    /// nearest end bucket (perturbed values can stray by floating error),
    /// and NaN lands in bucket 0.
    ///
    /// Branch-free: below `lo` the scaled offset is negative, `-∞` or NaN,
    /// which the saturating cast takes to 0, and from `hi` up it is at
    /// least `n − 1` (the two roundings in `inv_width` cost far less than
    /// one bucket), which the `min` clamps. A property test holds this to
    /// the branching form on every kind of double.
    #[inline]
    pub fn bucket_of(&self, v: f64) -> usize {
        (((v - self.lo) * self.inv_width) as usize).min(self.n - 1)
    }

    /// `[lower, upper)` edges of bucket `i` (upper edge of the last bucket
    /// equals the domain upper bound and is treated as closed).
    #[inline]
    pub fn edges(&self, i: usize) -> (f64, f64) {
        debug_assert!(i < self.n);
        let a = self.lo + self.width * i as f64;
        let b = if i + 1 == self.n { self.hi } else { self.lo + self.width * (i + 1) as f64 };
        (a, b)
    }

    /// Center (the paper's "median value ν_j") of bucket `i`.
    #[inline]
    pub fn center(&self, i: usize) -> f64 {
        let (a, b) = self.edges(i);
        (a + b) / 2.0
    }

    /// Per-bucket counts of a value slice.
    pub fn counts(&self, values: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; self.n];
        for &v in values {
            c[self.bucket_of(v)] += 1.0;
        }
        c
    }

    /// Per-bucket relative frequencies of a value slice (sums to 1 for
    /// non-empty input).
    pub fn frequencies(&self, values: &[f64]) -> Vec<f64> {
        let mut f = self.counts(values);
        let total: f64 = f.iter().sum();
        if total > 0.0 {
            for x in &mut f {
                *x /= total;
            }
        }
        f
    }

    /// The paper's bucket-count rule: `d' = ⌊√N⌋` output buckets (clamped to
    /// ≥ 2 and made even so the domain splits cleanly at the midpoint).
    pub fn output_bucket_count(n_values: usize) -> usize {
        let d = (n_values as f64).sqrt().floor() as usize;
        let d = d.max(2);
        if d.is_multiple_of(2) {
            d
        } else {
            d - 1
        }
    }

    /// The paper's input bucket-count rule
    /// `d = ⌊d'(e^{ε/2}−1)/(e^{ε/2}+1)⌋`, clamped to ≥ 2.
    pub fn input_bucket_count(d_out: usize, eps: f64) -> usize {
        let eh = (eps / 2.0).exp();
        let d = (d_out as f64 * (eh - 1.0) / (eh + 1.0)).floor() as usize;
        d.max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The branching lookup [`Grid::bucket_of`] replaced.
    fn bucket_of_branching(g: &Grid, v: f64) -> usize {
        if v <= g.lo {
            return 0;
        }
        if v >= g.hi {
            return g.n - 1;
        }
        (((v - g.lo) * g.inv_width) as usize).min(g.n - 1)
    }

    /// A grid at any scale: unit-sized, huge, tiny (down to subnormal
    /// widths), or spanning most of the doubles.
    fn random_grid(rng: &mut StdRng) -> Grid {
        let n = match rng.gen_range(0..3u32) {
            0 => 1,
            1 => rng.gen_range(2..300usize),
            _ => rng.gen_range(1..1usize << 40),
        };
        let (lo, hi) = match rng.gen_range(0..4u32) {
            0 => {
                let c = rng.gen_range(0.1..20.0);
                (-c, c)
            }
            1 => {
                let lo = rng.gen_range(-1e300..1e300);
                (lo, lo + rng.gen_range(1e-3..1e300))
            }
            2 => {
                let lo = rng.gen_range(-1e-300..1e-300);
                (lo, lo + f64::from_bits(rng.gen_range(1..1u64 << 54)))
            }
            _ => (-f64::MAX / 2.0, f64::MAX / 2.0),
        };
        Grid::new(lo, hi, n)
    }

    /// A probe value for `g`: its ends and their neighbours, NaN, ±∞,
    /// signed zeros, values inside and just outside the domain, or any
    /// bit pattern.
    fn probe_value(rng: &mut StdRng, g: &Grid) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => [g.lo, g.hi][rng.gen_range(0..2usize)],
            1 => [g.lo.next_down(), g.lo.next_up(), g.hi.next_down(), g.hi.next_up()]
                [rng.gen_range(0..4usize)],
            2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MAX, f64::MIN]
                [rng.gen_range(0..7usize)],
            3 => g.lo + g.width() * rng.gen_range(-0.5..g.n as f64 + 0.5),
            4 => g.edges(rng.gen_range(0..g.n)).0,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    proptest! {
        /// The branch-free lookup equals the branching one on every kind
        /// of double: NaN, ±∞, both domain ends and their neighbours.
        #[test]
        fn branch_free_bucket_of_matches_the_branching_form(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_grid(&mut rng);
            for _ in 0..64 {
                let v = probe_value(&mut rng, &g);
                prop_assert_eq!(g.bucket_of(v), bucket_of_branching(&g, v), "{:?} at {}", g, v);
            }
        }
    }

    #[test]
    fn bucket_lookup_covers_domain() {
        let g = Grid::new(-1.0, 1.0, 4);
        assert_eq!(g.bucket_of(-1.0), 0);
        assert_eq!(g.bucket_of(-0.6), 0);
        assert_eq!(g.bucket_of(-0.5), 1);
        assert_eq!(g.bucket_of(0.0), 2);
        assert_eq!(g.bucket_of(0.999), 3);
        assert_eq!(g.bucket_of(1.0), 3);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let g = Grid::new(0.0, 1.0, 10);
        assert_eq!(g.bucket_of(-5.0), 0);
        assert_eq!(g.bucket_of(5.0), 9);
    }

    #[test]
    fn edges_and_centers_are_consistent() {
        let g = Grid::new(-2.0, 2.0, 8);
        for i in 0..8 {
            let (a, b) = g.edges(i);
            assert!(a < b);
            let c = g.center(i);
            assert!(a < c && c < b);
            assert_eq!(g.bucket_of(c), i);
        }
        assert_eq!(g.edges(0).0, -2.0);
        assert_eq!(g.edges(7).1, 2.0);
    }

    #[test]
    fn counts_partition_all_values() {
        let g = Grid::new(0.0, 1.0, 5);
        let values: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let counts = g.counts(&values);
        assert_eq!(counts.iter().sum::<f64>() as usize, 1000);
        // Uniform data spreads evenly.
        for &c in &counts {
            assert!((c - 200.0).abs() <= 1.0, "{counts:?}");
        }
    }

    #[test]
    fn frequencies_sum_to_one() {
        let g = Grid::new(-1.0, 1.0, 7);
        let values = [-0.9, -0.1, 0.0, 0.5, 0.5, 1.0];
        let f = g.frequencies(&values);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequencies_of_empty_input_are_zero() {
        let g = Grid::new(-1.0, 1.0, 3);
        assert_eq!(g.frequencies(&[]), vec![0.0; 3]);
    }

    #[test]
    fn paper_bucket_count_rules() {
        assert_eq!(Grid::output_bucket_count(1_000_000), 1000);
        assert_eq!(Grid::output_bucket_count(10_000), 100);
        // √50000 ≈ 223.6 → 223 → even → 222.
        assert_eq!(Grid::output_bucket_count(50_000), 222);
        assert_eq!(Grid::output_bucket_count(1), 2);
        // ε = 2: (e−1)/(e+1) ≈ 0.462.
        assert_eq!(Grid::input_bucket_count(1000, 2.0), 462);
        // ε = 1/16: (e^{1/32}−1)/(e^{1/32}+1) ≈ 0.0156 → 15 buckets.
        assert_eq!(Grid::input_bucket_count(1000, 1.0 / 16.0), 15);
        // Tiny products clamp to 2.
        assert_eq!(Grid::input_bucket_count(10, 1.0 / 16.0), 2);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_empty_interval() {
        Grid::new(1.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_an_interval_wider_than_any_double() {
        Grid::new(-f64::MAX, f64::MAX, 4);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn rejects_zero_buckets() {
        Grid::new(0.0, 1.0, 0);
    }
}
