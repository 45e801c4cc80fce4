//! Intra-group mean estimation (Eq. 13) under the three reconstruction
//! schemes.

use dap_attack::Side;
use dap_emf::{cemf_star, cemf_star_threshold, EmfConfig};
use dap_estimation::em::{self, EmOutcome, EmWorkspace, MStep};
use dap_estimation::{cached_for_numeric, Grid, PoisonRegion};
use dap_ldp::NumericMechanism;

/// Which EMF reconstruction a DAP variant uses per group (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plain EMF (Algorithm 2) — the `DAP_EMF` scheme.
    Emf,
    /// EMF\* post-processing (Algorithm 4) — `DAP_EMF*`.
    EmfStar,
    /// CEMF\* post-processing (Theorem 5) — `DAP_CEMF*`.
    CemfStar,
}

impl Scheme {
    /// All schemes, in the paper's order.
    pub const ALL: [Scheme; 3] = [Scheme::Emf, Scheme::EmfStar, Scheme::CemfStar];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Emf => "DAP_EMF",
            Scheme::EmfStar => "DAP_EMF*",
            Scheme::CemfStar => "DAP_CEMF*",
        }
    }

    /// Parses a [`Scheme::label`] back (the wire encoding of a scheme).
    pub fn from_label(label: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// One group's corrected mean estimate.
#[derive(Debug, Clone)]
pub struct GroupEstimate {
    /// The corrected group mean `M_t` (Eq. 13).
    pub mean: f64,
    /// Reports observed in the group `N_t`.
    pub n_reports: usize,
    /// Estimated poison-report count `m̂_t = N_t·Σŷ(t)`.
    pub m_hat: f64,
    /// The group's reconstructed poison share `Σŷ(t)`.
    pub gamma_group: f64,
}

/// Estimates one group's mean from its reports (Eq. 13):
/// `M_t = (Σ v' − N_t·Σ_j ŷ_j(t)·ν_j) / (N_t − m̂_t)`.
///
/// * `side`/`o_prime` — poisoned side and pivot from the probing stage,
/// * `gamma_global` — coalition proportion probed from the most private
///   group, consumed by the EMF\*/CEMF\* constraints.
pub fn estimate_group_mean(
    mech: &dyn NumericMechanism,
    reports: &[f64],
    side: Side,
    o_prime: f64,
    gamma_global: f64,
    scheme: Scheme,
    config: &EmfConfig,
) -> GroupEstimate {
    estimate_group_means(
        mech,
        reports,
        side,
        o_prime,
        gamma_global,
        &[scheme],
        config,
        None,
        &mut EmWorkspace::new(),
    )
    .pop()
    .expect("one scheme in, one estimate out")
}

/// A group's report set reduced to what estimation needs: the `d'`-bucket
/// histogram, the report sum (for Eq. 13) and the report count. The
/// protocol streams perturbed reports straight into this, so the raw
/// per-group report vectors never materialize. A session part carries
/// one per group ([`crate::PartGroup`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupHistogram {
    /// Per-output-bucket report counts (length `d'`).
    pub counts: Vec<f64>,
    /// `Σ v'` over the group's reports.
    pub sum_reports: f64,
    /// Number of reports `N_t`.
    pub n_reports: usize,
}

impl GroupHistogram {
    /// Buckets a report slice over the mechanism's output range.
    pub fn from_reports(mech: &dyn NumericMechanism, reports: &[f64], d_out: usize) -> Self {
        let (olo, ohi) = mech.output_range();
        let counts = Grid::new(olo, ohi, d_out).counts(reports);
        GroupHistogram {
            counts,
            sum_reports: reports.iter().sum(),
            n_reports: reports.len(),
        }
    }

    /// Adds `other`, bucket by bucket, then its report sum and tally. The
    /// caller has checked that the resolutions agree. Counts are whole
    /// numbers far below 2⁵³, so they add exactly in any order.
    pub(crate) fn absorb(&mut self, other: &GroupHistogram) {
        for (b, p) in self.counts.iter_mut().zip(&other.counts) {
            *b += p;
        }
        self.sum_reports += other.sum_reports;
        self.n_reports += other.n_reports;
    }
}

/// [`estimate_group_mean`] for several schemes over the *same* reports,
/// sharing everything the schemes have in common: the report histogram, the
/// (cached) transform matrix, and the base EMF fit — EMF's own outcome and
/// the input to CEMF\*'s suppression rule, which the per-scheme path used
/// to recompute from scratch. EMF\* never needs the base fit at all, so it
/// runs exactly one constrained solve.
///
/// `probed_base` short-circuits the base fit with an EMF outcome already
/// computed on this exact `(matrix, counts, options)` problem — the probing
/// stage's chosen-side run for the most private group. Estimates come back
/// in `schemes` order.
#[allow(clippy::too_many_arguments)]
pub fn estimate_group_means(
    mech: &dyn NumericMechanism,
    reports: &[f64],
    side: Side,
    o_prime: f64,
    gamma_global: f64,
    schemes: &[Scheme],
    config: &EmfConfig,
    probed_base: Option<&EmOutcome>,
    ws: &mut EmWorkspace,
) -> Vec<GroupEstimate> {
    let hist = GroupHistogram::from_reports(mech, reports, config.d_out);
    estimate_group_means_hist(
        mech,
        &hist,
        side,
        o_prime,
        gamma_global,
        schemes,
        config,
        probed_base,
        ws,
    )
}

/// [`estimate_group_means`] over a pre-bucketed [`GroupHistogram`].
#[allow(clippy::too_many_arguments)]
pub fn estimate_group_means_hist(
    mech: &dyn NumericMechanism,
    hist: &GroupHistogram,
    side: Side,
    o_prime: f64,
    gamma_global: f64,
    schemes: &[Scheme],
    config: &EmfConfig,
    probed_base: Option<&EmOutcome>,
    ws: &mut EmWorkspace,
) -> Vec<GroupEstimate> {
    let n_reports = hist.n_reports;
    if n_reports == 0 {
        return schemes
            .iter()
            .map(|_| GroupEstimate { mean: 0.0, n_reports: 0, m_hat: 0.0, gamma_group: 0.0 })
            .collect();
    }
    assert_eq!(hist.counts.len(), config.d_out, "histogram resolution mismatch");
    let counts = &hist.counts;
    let region = match side {
        Side::Right => PoisonRegion::RightOf(o_prime),
        Side::Left => PoisonRegion::LeftOf(o_prime),
    };
    let matrix = cached_for_numeric(mech, config.d_in, config.d_out, &region);

    // Shared solves, each at most once.
    let needs_base =
        schemes.iter().any(|s| matches!(s, Scheme::Emf | Scheme::CemfStar));
    let base: Option<EmOutcome> = if needs_base {
        Some(match probed_base {
            Some(b) => b.clone(),
            None => em::solve_in(&matrix, counts, MStep::Free, &config.em, ws),
        })
    } else {
        None
    };
    let star: Option<EmOutcome> = schemes.contains(&Scheme::EmfStar).then(|| {
        em::solve_in(&matrix, counts, MStep::Constrained { gamma: gamma_global }, &config.em, ws)
    });
    let cemf: Option<EmOutcome> = schemes.contains(&Scheme::CemfStar).then(|| {
        let b = base.as_ref().expect("base computed for CEMF*");
        let thr = cemf_star_threshold(gamma_global, matrix.poison_buckets().len());
        cemf_star(&matrix, counts, gamma_global, thr, b, &config.em)
    });

    let sum_reports: f64 = hist.sum_reports;
    schemes
        .iter()
        .map(|scheme| {
            let outcome = match scheme {
                Scheme::Emf => base.as_ref().expect("base computed for EMF"),
                Scheme::EmfStar => star.as_ref().expect("star computed"),
                Scheme::CemfStar => cemf.as_ref().expect("cemf computed"),
            };
            let gamma_group: f64 = outcome.poison.iter().sum();
            let nt = n_reports as f64;
            let m_hat = nt * gamma_group;
            let poison_term: f64 = outcome
                .poison
                .iter()
                .zip(matrix.output_centers())
                .map(|(y, nu)| nt * y * nu)
                .sum();
            let honest_reports = nt - m_hat;
            let mean = if honest_reports >= 1.0 {
                mech.debias_mean((sum_reports - poison_term) / honest_reports)
            } else {
                // Degenerate probe claiming everything is poison: fall back
                // to the uncorrected mean rather than dividing by ~0.
                mech.debias_mean(sum_reports / nt)
            };
            GroupEstimate { mean, n_reports, m_hat, gamma_group }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_attack::{Attack, UniformAttack};
    use dap_estimation::rng::seeded;
    use dap_ldp::PiecewiseMechanism;

    fn group_reports(
        eps: f64,
        n: usize,
        gamma: f64,
        honest_value: f64,
        seed: u64,
    ) -> (Vec<f64>, PiecewiseMechanism) {
        let mech = PiecewiseMechanism::with_epsilon(eps).unwrap();
        let mut rng = seeded(seed);
        let m = (n as f64 * gamma).round() as usize;
        let mut reports: Vec<f64> =
            (0..n - m).map(|_| mech.perturb(honest_value, &mut rng)).collect();
        reports.extend(UniformAttack::of_upper(0.5, 1.0).reports(m, &mech, &mut rng));
        (reports, mech)
    }

    #[test]
    fn corrected_mean_beats_raw_mean_under_attack() {
        let truth = -0.3;
        let (reports, mech) = group_reports(0.5, 30_000, 0.25, truth, 1);
        let raw = dap_estimation::stats::mean(&reports);
        let config = EmfConfig::capped(reports.len(), 0.5, 64);
        for scheme in Scheme::ALL {
            let est = estimate_group_mean(
                &mech,
                &reports,
                Side::Right,
                0.0,
                0.25,
                scheme,
                &config,
            );
            assert!(
                (est.mean - truth).abs() < (raw - truth).abs(),
                "{}: {} vs raw {}",
                scheme.label(),
                est.mean,
                raw
            );
            assert!(est.gamma_group > 0.1, "{}: gamma {}", scheme.label(), est.gamma_group);
        }
    }

    #[test]
    fn emf_star_respects_global_gamma() {
        let (reports, mech) = group_reports(1.0, 20_000, 0.2, 0.0, 2);
        let config = EmfConfig::capped(reports.len(), 1.0, 64);
        let est =
            estimate_group_mean(&mech, &reports, Side::Right, 0.0, 0.2, Scheme::EmfStar, &config);
        assert!((est.gamma_group - 0.2).abs() < 1e-9);
        assert!((est.m_hat - 0.2 * reports.len() as f64).abs() < 1.0);
    }

    #[test]
    fn clean_group_is_estimated_without_large_bias() {
        let truth = 0.4;
        let (reports, mech) = group_reports(1.0, 30_000, 0.0, truth, 3);
        let config = EmfConfig::capped(reports.len(), 1.0, 64);
        let est =
            estimate_group_mean(&mech, &reports, Side::Right, 0.0, 0.0, Scheme::EmfStar, &config);
        assert!((est.mean - truth).abs() < 0.05, "estimate {}", est.mean);
    }

    #[test]
    fn empty_group_is_harmless() {
        let mech = PiecewiseMechanism::with_epsilon(1.0).unwrap();
        let config = EmfConfig::capped(0, 1.0, 16);
        let est = estimate_group_mean(&mech, &[], Side::Right, 0.0, 0.1, Scheme::Emf, &config);
        assert_eq!(est.mean, 0.0);
        assert_eq!(est.n_reports, 0);
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(Scheme::Emf.label(), "DAP_EMF");
        assert_eq!(Scheme::EmfStar.label(), "DAP_EMF*");
        assert_eq!(Scheme::CemfStar.label(), "DAP_CEMF*");
    }
}
