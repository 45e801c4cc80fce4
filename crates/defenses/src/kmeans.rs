//! Subset-sampling k-means defense (Li et al. \[38\], compared in Fig. 9).
//!
//! The collector draws many random subsets of the reports, computes each
//! subset's mean, and 2-means-clusters the subset means. Subsets dominated by
//! poison pull away from the honest cluster; the *larger* cluster is declared
//! honest and its centroid is the estimate.
//!
//! The 1-D 2-means step is solved exactly: sort the subset means and scan all
//! split points with prefix sums, minimizing within-cluster SSE — no Lloyd
//! iterations, no initialization sensitivity.

use crate::MeanDefense;
use rand::{Rng, RngCore};

/// The k-means-based defense with subset sampling.
///
/// Separation between the honest and poisoned clusters of subset means only
/// occurs when a majority of subsets is poison-free, i.e. roughly when
/// `subset_size < ln 2 / γ`; with larger subsets every subset carries the
/// same expected poison bias and the defense degenerates toward Ostrich.
/// The experiment harness reports it as-described either way.
///
/// The fields are private so every instance passes the constructors'
/// checks: fewer than two subsets has no split to cluster.
#[derive(Debug, Clone, Copy)]
pub struct KMeansDefense {
    /// Sampling rate β: each subset contains `⌈β·N⌉` reports (overridden by
    /// `subset_size` if set).
    beta: f64,
    /// Number of subsets to draw, each costing one generator draw per
    /// report it holds (`⌈β·N⌉`). The paper uses 10⁶; the Fig. 9 driver
    /// uses 2 000.
    subsets: usize,
    /// Optional absolute subset size overriding `β·N`.
    subset_size: Option<usize>,
}

impl KMeansDefense {
    /// Builds a defense; `beta ∈ (0, 1]`, `subsets ≥ 2`.
    pub fn new(beta: f64, subsets: usize) -> Self {
        assert!(beta > 0.0 && beta <= 1.0, "beta {beta} outside (0, 1]");
        assert!(subsets >= 2, "need at least two subsets");
        KMeansDefense { beta, subsets, subset_size: None }
    }

    /// Builds a defense with an absolute subset size instead of a rate.
    pub fn with_subset_size(size: usize, subsets: usize) -> Self {
        assert!(size >= 1, "subset size must be positive");
        assert!(subsets >= 2, "need at least two subsets");
        KMeansDefense { beta: 1.0, subsets, subset_size: Some(size) }
    }

    /// The defense's estimate ([`MeanDefense::estimate_mean`]), generic
    /// over the generator. Method lookup prefers this inherent method, so a
    /// caller holding a concrete generator (every experiment passes a
    /// `StdRng`) gets the generator step inlined into the draw loop, while
    /// `&mut dyn RngCore` callers draw the same words in the same order.
    ///
    /// The draw loop holds no call: a `dyn` call per draw, or the cold
    /// reallocation a `push` brings into the loop nest, clobbers the
    /// registers and spills `sum` to the stack, roughly doubling the cost
    /// of a draw.
    pub fn estimate_mean<R: RngCore + ?Sized>(&self, reports: &[f64], rng: &mut R) -> f64 {
        if reports.is_empty() {
            return 0.0;
        }
        let subset_size = self
            .subset_size
            .unwrap_or_else(|| (self.beta * reports.len() as f64).ceil() as usize)
            .max(1);
        let mut subset_means = vec![0.0; self.subsets];
        for mean in &mut subset_means {
            let mut sum = 0.0;
            for _ in 0..subset_size {
                sum += reports[rng.gen_range(0..reports.len())];
            }
            *mean = sum / subset_size as f64;
        }
        subset_means.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in means"));
        let (split, lower, upper) = Self::two_means_split(&subset_means);
        // Majority cluster wins.
        if split >= subset_means.len() - split {
            lower
        } else {
            upper
        }
    }

    /// Exact 1-D 2-means: returns `(split_index, lower_centroid,
    /// upper_centroid)` for sorted input, where the lower cluster is
    /// `sorted[..split]`.
    fn two_means_split(sorted: &[f64]) -> (usize, f64, f64) {
        let n = sorted.len();
        debug_assert!(n >= 2);
        // Prefix sums for O(1) cluster SSE at every split.
        let mut pref = Vec::with_capacity(n + 1);
        let mut pref2 = Vec::with_capacity(n + 1);
        pref.push(0.0);
        pref2.push(0.0);
        for &v in sorted {
            pref.push(pref.last().expect("non-empty") + v);
            pref2.push(pref2.last().expect("non-empty") + v * v);
        }
        let sse = |a: usize, b: usize| -> f64 {
            // SSE of sorted[a..b] around its own mean.
            let cnt = (b - a) as f64;
            if cnt == 0.0 {
                return 0.0;
            }
            let s = pref[b] - pref[a];
            let s2 = pref2[b] - pref2[a];
            s2 - s * s / cnt
        };
        let mut best = (1, f64::INFINITY);
        for split in 1..n {
            let total = sse(0, split) + sse(split, n);
            if total < best.1 {
                best = (split, total);
            }
        }
        let split = best.0;
        let lower = (pref[split] - pref[0]) / split as f64;
        let upper = (pref[n] - pref[split]) / (n - split) as f64;
        (split, lower, upper)
    }
}

impl MeanDefense for KMeansDefense {
    fn estimate_mean(&self, reports: &[f64], rng: &mut dyn RngCore) -> f64 {
        KMeansDefense::estimate_mean(self, reports, rng)
    }

    fn label(&self) -> String {
        format!("K-means(beta={})", self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::rng::seeded;

    #[test]
    fn two_means_finds_the_obvious_split() {
        let sorted = [0.0, 0.1, 0.2, 10.0, 10.1];
        let (split, lower, upper) = KMeansDefense::two_means_split(&sorted);
        assert_eq!(split, 3);
        assert!((lower - 0.1).abs() < 1e-9);
        assert!((upper - 10.05).abs() < 1e-9);
    }

    #[test]
    fn clean_data_estimates_the_mean() {
        let mut rng = seeded(1);
        let reports: Vec<f64> = (0..2000).map(|i| (i as f64 / 1999.0) * 2.0 - 1.0).collect();
        let d = KMeansDefense::new(0.3, 500);
        let est = d.estimate_mean(&reports, &mut rng);
        assert!(est.abs() < 0.1, "estimate {est} for zero-mean data");
    }

    #[test]
    fn resists_minority_point_poison_with_small_subsets() {
        let mut rng = seeded(2);
        // 10% poison at +5 on data centred at 0. With subsets of 4 reports,
        // (0.9)⁴ ≈ 66% of subsets are poison-free: the honest cluster is the
        // majority and its centroid sits near the honest mean.
        let mut reports: Vec<f64> =
            (0..9000).map(|i| (i as f64 / 8999.0) * 2.0 - 1.0).collect();
        reports.extend(std::iter::repeat_n(5.0, 1000));
        let d = KMeansDefense::with_subset_size(4, 2000);
        let est = d.estimate_mean(&reports, &mut rng);
        // Ostrich would report 0.5; the defense should land well below.
        assert!(est < 0.3, "estimate {est} not better than Ostrich (0.5)");
    }

    #[test]
    fn large_subsets_degenerate_toward_the_poisoned_mean() {
        let mut rng = seeded(5);
        // With subsets of 500 every subset carries ≈ the same poison bias:
        // no separation is possible and the estimate tracks Ostrich.
        let mut reports: Vec<f64> =
            (0..8000).map(|i| (i as f64 / 7999.0) * 2.0 - 1.0).collect();
        reports.extend(std::iter::repeat_n(5.0, 2000));
        let d = KMeansDefense::new(0.05, 500);
        let est = d.estimate_mean(&reports, &mut rng);
        assert!((est - 1.0).abs() < 0.3, "estimate {est}, poisoned mean 1.0");
    }

    /// 20 000 reports shaped like one Fig. 9 cell: 18 000 honest values
    /// over [-1, 1) and 2 000 poison reports at +5.
    fn fig9_reports() -> Vec<f64> {
        let mut rng = seeded(9);
        let mut reports: Vec<f64> = (0..18_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        reports.extend(std::iter::repeat_n(5.0, 2_000));
        reports
    }

    #[test]
    fn concrete_and_dyn_generators_draw_the_same_stream() {
        // The inherent generic method and the `MeanDefense` vtable path
        // must agree bit for bit and leave their generators on the same
        // word, or Fig. 9 would depend on how a caller holds its RNG.
        let reports = fig9_reports();
        for d in [
            KMeansDefense::new(0.1, 50),
            KMeansDefense::new(0.9, 50),
            KMeansDefense::with_subset_size(4, 2000),
        ] {
            let (mut concrete, mut dynamic) = (seeded(11), seeded(11));
            let inherent = d.estimate_mean(&reports, &mut concrete);
            let via_dyn = (&d as &dyn MeanDefense).estimate_mean(&reports, &mut dynamic);
            assert_eq!(inherent.to_bits(), via_dyn.to_bits(), "{d:?}");
            assert_eq!(concrete.next_u64(), dynamic.next_u64(), "{d:?}");
        }
    }

    #[test]
    fn estimates_are_pinned_to_the_recorded_draw_stream() {
        // Bits and next words recorded from the `dyn`-dispatch loop. A
        // rewrite that re-streams the draws (another sampler, another
        // order, another summation) fails here instead of silently moving
        // Fig. 9.
        let reports = fig9_reports();
        for (d, seed, bits, next) in [
            (KMeansDefense::new(0.1, 50), 15, 0x3fe0_cb57_4d34_912d, 0x285e_e5d0_f70e_9033),
            (
                KMeansDefense::with_subset_size(4, 2000),
                17,
                0xbf85_d45a_ea4d_6fa9,
                0xfd08_68c2_7d2a_8878,
            ),
        ] {
            let mut rng = seeded(seed);
            assert_eq!(d.estimate_mean(&reports, &mut rng).to_bits(), bits, "{d:?}");
            assert_eq!(rng.next_u64(), next, "{d:?}");
        }
    }

    #[test]
    fn handles_empty_input() {
        let mut rng = seeded(3);
        assert_eq!(KMeansDefense::new(0.5, 10).estimate_mean(&[], &mut rng), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_bad_beta() {
        KMeansDefense::new(0.0, 10);
    }
}
