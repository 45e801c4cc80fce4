//! Square-Wave extension of DAP (§V-D, Fig. 8).
//!
//! SW reports are not unbiased estimators of the input, so the Eq. 13
//! report-sum correction does not apply. Instead each group's mean is read
//! off the *reconstructed input histogram* `x̂` produced by EMF/EMF\*/CEMF\*
//! on the SW transform matrix; the poison components absorb the injected
//! mass exactly as in the PM pipeline. `O'` is bootstrapped the way the
//! paper prescribes: EMS on the reports after removing the most extreme 50%
//! on the hypothesized poisoned side.
//!
//! The SW deployment is [`crate::Dap`] over [`SquareWave`] with
//! [`SwDapConfig::session_config`]: the same client/aggregator split and
//! [`crate::DapSession`] ingestion path as PM; only the session's
//! [`crate::EstimationMode`] differs
//! ([`crate::EstimationMode::HistogramBands`] here).

use crate::aggregation::Weighting;
use crate::protocol::DapConfig;
use crate::scheme::{GroupHistogram, Scheme};
use crate::session::EstimationMode;
use dap_attack::Side;
use dap_emf::{cemf_star, cemf_star_threshold, emf, EmfConfig};
use dap_estimation::em::{self, EmOutcome, EmWorkspace, MStep};
use dap_estimation::stats::histogram_mean;
use dap_estimation::{cached_for_numeric, ems, EmOptions, Grid, PoisonRegion};
use dap_ldp::{NumericMechanism, SquareWave};

/// Bootstraps `O'` for SW: trim the most extreme half of the reports on
/// `side`, reconstruct the remaining distribution with EMS, return its mean
/// (in input units, `[0, 1]`).
pub fn sw_o_prime(
    mech: &SquareWave,
    reports: &[f64],
    side: Side,
    config: &EmfConfig,
) -> f64 {
    if reports.is_empty() {
        return 0.5;
    }
    let mut sorted = reports.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in reports"));
    let half = sorted.len() / 2;
    let kept = match side {
        Side::Right => &sorted[..sorted.len() - half],
        Side::Left => &sorted[half..],
    };
    let matrix = cached_for_numeric(mech, config.d_in, config.d_out, &PoisonRegion::None);
    let (olo, ohi) = mech.output_range();
    let counts = Grid::new(olo, ohi, config.d_out).counts(kept);
    let outcome = ems::solve(&matrix, &counts, &config.em);
    histogram_mean(&outcome.histogram, matrix.input_centers())
}

/// Estimates one SW group's honest mean from the reconstructed histogram.
pub fn sw_group_mean(
    mech: &dyn NumericMechanism,
    reports: &[f64],
    side: Side,
    o_prime_out: f64,
    gamma_global: f64,
    scheme: Scheme,
    config: &EmfConfig,
) -> (f64, f64) {
    sw_group_means(mech, reports, side, o_prime_out, gamma_global, &[scheme], config)
        .pop()
        .expect("one scheme in, one estimate out")
}

/// [`sw_group_mean`] for several schemes over the same reports — buckets
/// them and delegates to [`sw_group_means_hist`].
pub fn sw_group_means(
    mech: &dyn NumericMechanism,
    reports: &[f64],
    side: Side,
    o_prime_out: f64,
    gamma_global: f64,
    schemes: &[Scheme],
    config: &EmfConfig,
) -> Vec<(f64, f64)> {
    let hist = GroupHistogram::from_reports(mech, reports, config.d_out);
    sw_group_means_hist(mech, &hist, side, o_prime_out, gamma_global, schemes, config)
}

/// Histogram-mean estimation for several schemes over a pre-bucketed
/// [`GroupHistogram`], sharing the cached transform matrix and the base EMF
/// fit across schemes (mirrors [`crate::scheme::estimate_group_means_hist`];
/// this is [`crate::DapSession`]'s band-mode estimation path). Returns
/// `(mean, γ_group)` pairs in `schemes` order.
pub fn sw_group_means_hist(
    mech: &dyn NumericMechanism,
    hist: &GroupHistogram,
    side: Side,
    o_prime_out: f64,
    gamma_global: f64,
    schemes: &[Scheme],
    config: &EmfConfig,
) -> Vec<(f64, f64)> {
    if hist.n_reports == 0 {
        // Degenerate empty group: the input-domain midpoint, no poison.
        let (ilo, ihi) = mech.input_range();
        return vec![((ilo + ihi) / 2.0, 0.0); schemes.len()];
    }
    assert_eq!(hist.counts.len(), config.d_out, "histogram resolution mismatch");
    let counts = &hist.counts;
    let region = match side {
        Side::Right => PoisonRegion::RightOf(o_prime_out),
        Side::Left => PoisonRegion::LeftOf(o_prime_out),
    };
    let matrix = cached_for_numeric(mech, config.d_in, config.d_out, &region);
    let mut ws = EmWorkspace::new();

    let needs_base = schemes.iter().any(|s| matches!(s, Scheme::Emf | Scheme::CemfStar));
    let base: Option<EmOutcome> = needs_base
        .then(|| em::solve_in(&matrix, counts, MStep::Free, &config.em, &mut ws));
    let star: Option<EmOutcome> = schemes.contains(&Scheme::EmfStar).then(|| {
        em::solve_in(
            &matrix,
            counts,
            MStep::Constrained { gamma: gamma_global },
            &config.em,
            &mut ws,
        )
    });
    let cemf: Option<EmOutcome> = schemes.contains(&Scheme::CemfStar).then(|| {
        let b = base.as_ref().expect("base computed for CEMF*");
        let thr = cemf_star_threshold(gamma_global, matrix.poison_buckets().len());
        cemf_star(&matrix, counts, gamma_global, thr, b, &config.em)
    });

    schemes
        .iter()
        .map(|scheme| {
            let outcome = match scheme {
                Scheme::Emf => base.as_ref().expect("base computed for EMF"),
                Scheme::EmfStar => star.as_ref().expect("star computed"),
                Scheme::CemfStar => cemf.as_ref().expect("cemf computed"),
            };
            let gamma_group: f64 = outcome.poison.iter().sum();
            (histogram_mean(&outcome.normal, matrix.input_centers()), gamma_group)
        })
        .collect()
}

/// Algorithm-3 analogue for biased mechanisms: compares the left inflation
/// band (left of the input minimum) against the right one (right of the
/// input maximum) as poison hypotheses — for SW, `[-b, 0)` vs `(1, 1+b]`.
///
/// The comparison uses the converged *log-likelihood* rather than `Var(x̂)`:
/// PM's variance criterion relies on Theorem 3's uniform-convergence, which
/// does not carry over to SW (for skewed honest data the wrong-side
/// hypothesis absorbs the honest spill and artificially flattens `x̂`). The
/// two band hypotheses have identical parameter counts, so the likelihood
/// comparison is fair; a concentrated injection can only be matched by the
/// poison block on its own side.
pub(crate) fn probe_side_bands(
    mech: &dyn NumericMechanism,
    counts: &[f64],
    config: &EmfConfig,
) -> (Side, f64) {
    let em = EmOptions { tol: config.em.tol.min(1e-3), max_iters: config.em.max_iters.max(500) };
    let (ilo, ihi) = mech.input_range();
    let left_m =
        cached_for_numeric(mech, config.d_in, counts.len(), &PoisonRegion::LeftOf(ilo));
    let right_m =
        cached_for_numeric(mech, config.d_in, counts.len(), &PoisonRegion::RightOf(ihi));
    let left = emf(&left_m, counts, &em);
    let right = emf(&right_m, counts, &em);
    if left.log_likelihood > right.log_likelihood {
        let gamma = left.poison_mass();
        (Side::Left, gamma)
    } else {
        let gamma = right.poison_mass();
        (Side::Right, gamma)
    }
}

/// Configuration of the SW-based DAP deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwDapConfig {
    /// Global per-user budget ε.
    pub eps: f64,
    /// Minimum group budget ε₀.
    pub eps0: f64,
    /// Reconstruction scheme.
    pub scheme: Scheme,
    /// Weighting rule for aggregation.
    pub weighting: Weighting,
    /// Cap on `d'`.
    pub max_d_out: usize,
}

impl SwDapConfig {
    /// Paper-style defaults (ε₀ = 1/16).
    pub fn paper_default(eps: f64, scheme: Scheme) -> Self {
        SwDapConfig {
            eps,
            eps0: 1.0 / 16.0,
            scheme,
            weighting: Weighting::AlgorithmFive,
            max_d_out: 128,
        }
    }

    /// The equivalent session configuration: band-mode estimation, estimate
    /// clamped to the `[0, 1]` input domain.
    pub fn session_config(&self) -> DapConfig {
        DapConfig {
            eps: self.eps,
            eps0: self.eps0,
            scheme: self.scheme,
            weighting: self.weighting,
            o_prime: 0.0, // band mode pivots at the input-domain ends
            max_d_out: self.max_d_out,
            clamp_to_input: true,
            mode: EstimationMode::HistogramBands,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DapError;
    use crate::population::Population;
    use crate::protocol::Dap;
    use dap_attack::{Anchor, Attack, UniformAttack};
    use dap_estimation::rng::seeded;
    use dap_estimation::sampling;
    use dap_estimation::stats::mean as smean;

    fn beta_population(n: usize, gamma: f64, a: f64, b: f64, seed: u64) -> Population {
        let mut rng = seeded(seed);
        let honest: Vec<f64> = (0..n).map(|_| sampling::beta(a, b, &mut rng)).collect();
        Population::with_gamma(honest, gamma)
    }

    /// The paper's SW attack spec: poison uniform on `[1 + b/2, 1 + b]`.
    fn sw_attack() -> UniformAttack {
        UniformAttack::new(Anchor::AboveInputMax(0.5), Anchor::AboveInputMax(1.0))
    }

    #[test]
    fn sw_dap_recovers_beta_mean_under_attack() {
        let pop = beta_population(12_000, 0.25, 2.0, 5.0, 1);
        let truth = smean(&pop.honest);
        let cfg = SwDapConfig { max_d_out: 64, ..SwDapConfig::paper_default(1.0, Scheme::EmfStar) };
        let dap = Dap::new(cfg.session_config(), SquareWave::new).unwrap();
        let mut rng = seeded(2);
        let out = dap.run(&pop, &sw_attack(), &mut rng).unwrap();
        assert_eq!(out.side, Side::Right);
        assert!((out.mean - truth).abs() < 0.1, "estimate {} vs truth {}", out.mean, truth);
        assert!(out.gamma > 0.1, "gamma {}", out.gamma);
    }

    #[test]
    fn sw_dap_beats_raw_average_under_attack() {
        // Beta(2,5): the honest mean is low, so upward poison hurts Ostrich
        // badly (on Beta(5,2) the SW center-bias and the attack can cancel —
        // the paper's own Fig. 8d observation).
        let pop = beta_population(12_000, 0.25, 2.0, 5.0, 3);
        let truth = smean(&pop.honest);
        let mut rng = seeded(4);

        // Ostrich on single-batch SW reports at full ε.
        let mech = SquareWave::with_epsilon(1.0).unwrap();
        let mut reports: Vec<f64> =
            pop.honest.iter().map(|&v| mech.perturb(v, &mut rng)).collect();
        reports.extend(sw_attack().reports(pop.byzantine, &mech, &mut rng));
        let ostrich_err = (smean(&reports) - truth).abs();

        let cfg = SwDapConfig { max_d_out: 64, ..SwDapConfig::paper_default(1.0, Scheme::CemfStar) };
        let dap = Dap::new(cfg.session_config(), SquareWave::new).unwrap();
        let out = dap.run(&pop, &sw_attack(), &mut rng).unwrap();
        assert!(
            (out.mean - truth).abs() < ostrich_err,
            "SW-DAP {} vs Ostrich err {} (truth {})",
            out.mean,
            ostrich_err,
            truth
        );
    }

    #[test]
    fn sw_dap_detects_left_band_attacks() {
        let pop = beta_population(12_000, 0.25, 2.0, 5.0, 7);
        let truth = smean(&pop.honest);
        // Poison in the left inflation band [-b, -b/2].
        let attack = UniformAttack::new(Anchor::OfLower(1.0), Anchor::OfLower(0.5));
        let cfg = SwDapConfig { max_d_out: 64, ..SwDapConfig::paper_default(1.0, Scheme::EmfStar) };
        let dap = Dap::new(cfg.session_config(), SquareWave::new).unwrap();
        let mut rng = seeded(8);
        let out = dap.run(&pop, &attack, &mut rng).unwrap();
        assert_eq!(out.side, Side::Left);
        assert!((out.mean - truth).abs() < 0.15, "estimate {} truth {}", out.mean, truth);
    }

    #[test]
    fn o_prime_bootstrap_is_pessimistic_under_right_attack() {
        let mech = SquareWave::with_epsilon(0.5).unwrap();
        let mut rng = seeded(5);
        let honest: Vec<f64> = (0..20_000).map(|_| sampling::beta(2.0, 5.0, &mut rng)).collect();
        let truth = smean(&honest);
        let mut reports: Vec<f64> =
            honest.iter().map(|&v| mech.perturb(v, &mut rng)).collect();
        reports.extend(sw_attack().reports(5_000, &mech, &mut rng));
        let cfg = EmfConfig::capped(reports.len(), 0.5, 64);
        let o_prime = sw_o_prime(&mech, &reports, Side::Right, &cfg);
        assert!(o_prime <= truth + 0.05, "O' {} vs truth {}", o_prime, truth);
        assert!((0.0..=1.0).contains(&o_prime));
    }

    #[test]
    fn sw_dap_rejects_bad_budgets() {
        let cfg = SwDapConfig { eps: 0.01, ..SwDapConfig::paper_default(0.01, Scheme::Emf) };
        assert!(matches!(
            Dap::new(cfg.session_config(), SquareWave::new),
            Err(DapError::InvalidBudget { .. })
        ));
    }
}
