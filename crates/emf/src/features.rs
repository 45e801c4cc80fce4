//! Byzantine feature extraction: the full probing pipeline of §IV-C.

use crate::config::EmfConfig;
use crate::filter::poison_mean;
use crate::probe::{probe_side, SideProbe};
use dap_attack::Side;
use dap_estimation::grid::Grid;
use dap_ldp::NumericMechanism;

/// The three Byzantine features EMF probes (§IV-C), plus the raw probe.
#[derive(Debug, Clone)]
pub struct ByzantineFeatures {
    /// The poisoned side (Algorithm 3).
    pub side: Side,
    /// Estimated coalition proportion `γ̂` (Eq. 9).
    pub gamma: f64,
    /// Poison-value histogram over the `d'` output buckets (zero off the
    /// poisoned side).
    pub poison_hist: Vec<f64>,
    /// Poison-value mean `M_α` (Eq. 11); `None` when no poison mass was
    /// reconstructed.
    pub poison_mean: Option<f64>,
    /// Output-bucket centers `ν_j` matching `poison_hist`.
    pub output_centers: Vec<f64>,
    /// The side probe itself: the chosen fit and the EM iterations spent.
    pub probe: SideProbe,
}

impl ByzantineFeatures {
    /// Probes all features from raw reports.
    ///
    /// * `mech` — the mechanism the honest users ran,
    /// * `reports` — the collected perturbed/poison values,
    /// * `o_prime` — pessimistic initial mean (0 by the paper's default),
    /// * `config` — bucketization and stopping parameters.
    pub fn probe(
        mech: &dyn NumericMechanism,
        reports: &[f64],
        o_prime: f64,
        config: &EmfConfig,
    ) -> Self {
        let (olo, ohi) = mech.output_range();
        let grid = Grid::new(olo, ohi, config.d_out);
        let counts = grid.counts(reports);
        let probe = probe_side(mech, &counts, config.d_in, o_prime, &config.em);
        let chosen = probe.chosen();
        let gamma = chosen.poison_mass();
        let poison_hist = chosen.poison.clone();
        let output_centers: Vec<f64> = (0..config.d_out).map(|i| grid.center(i)).collect();
        let poison_mean = poison_mean(chosen, &output_centers);
        ByzantineFeatures { side: probe.side, gamma, poison_hist, poison_mean, output_centers, probe }
    }

    /// Estimated number of Byzantine users among `n_reports` reports
    /// (`m̂ = γ̂·N`).
    pub fn byzantine_count(&self, n_reports: usize) -> f64 {
        self.gamma * n_reports as f64
    }
}

/// Pessimistic initialization `O'` of the true mean (Theorem 2): remove the
/// `⌈γ_sup·N⌉` most extreme values on the hypothesized poisoned side and
/// average the rest. Guarantees `O' ≤ O` when the poison is on the right
/// (and symmetrically for the left), so the BBA poison range in the analysis
/// covers the true attack's range.
///
/// # Panics
/// If `gamma_sup` is not in `[0, 1)` or `values` is empty.
pub fn pessimistic_init(values: &[f64], gamma_sup: f64, side: Side) -> f64 {
    assert!((0.0..1.0).contains(&gamma_sup), "gamma_sup {gamma_sup} outside [0, 1)");
    assert!(!values.is_empty(), "cannot initialize O' from no data");
    let n = values.len();
    let k = (gamma_sup * n as f64).ceil() as usize;
    let k = k.min(n - 1);
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in reports"));
    let kept: &[f64] = match side {
        Side::Right => &sorted[..n - k],
        Side::Left => &sorted[k..],
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::rng::seeded;
    use dap_ldp::PiecewiseMechanism;
    use rand::Rng;

    fn simulate(eps: f64, n: usize, gamma: f64, seed: u64) -> (Vec<f64>, PiecewiseMechanism) {
        let mech = PiecewiseMechanism::with_epsilon(eps).unwrap();
        let mut rng = seeded(seed);
        let c = mech.c();
        let m = (n as f64 * gamma).round() as usize;
        let mut reports: Vec<f64> = (0..n - m)
            .map(|_| mech.perturb(rng.gen_range(-0.5..=0.1), &mut rng))
            .collect();
        reports.extend((0..m).map(|_| rng.gen_range((0.5 * c)..=c)));
        (reports, mech)
    }

    #[test]
    fn full_probe_recovers_all_three_features() {
        let (reports, mech) = simulate(0.125, 40_000, 0.25, 1);
        let config = EmfConfig::capped(reports.len(), 0.125, 64);
        let f = ByzantineFeatures::probe(&mech, &reports, 0.0, &config);
        assert_eq!(f.side, Side::Right);
        assert!((f.gamma - 0.25).abs() < 0.06, "gamma {}", f.gamma);
        let c = mech.c();
        let m_alpha = f.poison_mean.expect("attack detected");
        assert!(
            (m_alpha - 0.75 * c).abs() < 0.15 * c,
            "poison mean {m_alpha} (C={c})"
        );
        assert!((f.byzantine_count(reports.len()) - 10_000.0).abs() < 2_500.0);
    }

    #[test]
    fn probe_without_attack_reports_small_gamma() {
        let (reports, mech) = simulate(0.125, 40_000, 0.0, 2);
        let config = EmfConfig::capped(reports.len(), 0.125, 64);
        let f = ByzantineFeatures::probe(&mech, &reports, 0.0, &config);
        // Fig. 5c: false positives stay below ≈0.05 at small ε.
        assert!(f.gamma < 0.08, "false positive gamma {}", f.gamma);
    }

    #[test]
    fn pessimistic_init_is_below_true_mean_for_right_attacks() {
        let mut rng = seeded(3);
        let honest: Vec<f64> = (0..10_000).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let true_mean = dap_estimation::stats::mean(&honest);
        let mut all = honest;
        all.extend(std::iter::repeat_n(3.0, 2_000)); // poison at DR
        let o_prime = pessimistic_init(&all, 0.5, Side::Right);
        assert!(o_prime <= true_mean + 1e-9, "O' = {o_prime} > O = {true_mean}");
    }

    #[test]
    fn pessimistic_init_mirrors_for_left_attacks() {
        let mut rng = seeded(4);
        let honest: Vec<f64> = (0..10_000).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let true_mean = dap_estimation::stats::mean(&honest);
        let mut all = honest;
        all.extend(std::iter::repeat_n(-3.0, 2_000));
        let o_prime = pessimistic_init(&all, 0.5, Side::Left);
        assert!(o_prime >= true_mean - 1e-9, "O' = {o_prime} < O = {true_mean}");
    }

    #[test]
    fn pessimistic_init_with_zero_gamma_sup_is_plain_mean() {
        let values = [1.0, 2.0, 3.0];
        let o = pessimistic_init(&values, 0.0, Side::Right);
        assert!((o - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn pessimistic_init_rejects_bad_gamma_sup() {
        pessimistic_init(&[1.0], 1.0, Side::Right);
    }
}
