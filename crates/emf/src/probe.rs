//! Poisoned-side probing (Algorithm 3).
//!
//! Fits EMF under both poison hypotheses — poison on the left of `O'`, and
//! poison on the right — and keeps one. The paper's Algorithm 3 picks the
//! side whose reconstructed *normal* histogram has the smaller variance
//! (Theorem 3: under the correct hypothesis and small ε the normal histogram
//! converges to near-uniform).
//!
//! This implementation *decides* by converged **log-likelihood** instead.
//! The two hypotheses have identical parameter counts, so the likelihood
//! comparison is a fair model selection; the variance criterion is provably
//! equivalent in Theorem 3's ε → 0, N → ∞ regime but is brittle at finite
//! scale: under a *concentrated* attack (e.g. all poison at `C`) the
//! wrong-side EM stalls at a flat, low-variance `x̂` long before the paper's
//! `τ = 0.01·e^ε` stopping rule fires, and the variance rule then picks the
//! hypothesis that fits the data worse by thousands of log-likelihood
//! points. [`probe_both_sides`] reports both variances (Table I) and
//! whether the two rules agree.
//!
//! # The race
//!
//! Only the kept fit reaches Eq. 13 and Algorithm 5, so [`probe_side`] does
//! not fit the other hypothesis to its stopping rule. [`race_sides`] peeks
//! at both hypotheses for a few iterations, fits the one ahead to its
//! stopping rule, and then fits the other with
//! [`em::solve_against_in`], which gives the fit up as soon as a likelihood
//! bound proves it would end below the first one. An abandoned fit would
//! have lost the comparison, and a fit that is not abandoned runs in full,
//! so the side and the chosen fit keep exactly the bits of two full fits.
//! On the paper's probes the losing fit, which would run to the iteration
//! cap, stops after a handful of iterations.

use crate::filter::emf;
use dap_attack::Side;
use dap_estimation::em::{self, EmOptions, EmOutcome, EmWorkspace, MStep};
use dap_estimation::stats::variance;
use dap_estimation::{cached_for_numeric, PoisonRegion, TransformMatrix};
use dap_ldp::NumericMechanism;
use std::sync::Arc;

/// Iterations the race spends on each hypothesis before it picks the one to
/// fit first. A wrong pick costs time only: the race then fits both in full.
const PEEK: usize = 8;

/// Outcome of the side probe: the chosen side and its EMF fit.
#[derive(Debug, Clone)]
pub struct SideProbe {
    /// The side the probe selects (by likelihood; see module docs).
    pub side: Side,
    /// EM iterations spent on both hypotheses, peeks included.
    pub iterations: usize,
    chosen: EmOutcome,
}

impl SideProbe {
    /// The EMF outcome for the chosen side.
    pub fn chosen(&self) -> &EmOutcome {
        &self.chosen
    }
}

/// Both hypotheses fitted in full: the chosen side plus both runs (Table I
/// reports exactly these two variances).
#[derive(Debug, Clone)]
pub struct BothSides {
    /// The side the probe selects, the same as [`probe_side`]'s.
    pub side: Side,
    /// `Var(x̂)` under the left-poison hypothesis.
    pub var_left: f64,
    /// `Var(x̂)` under the right-poison hypothesis.
    pub var_right: f64,
    /// EMF outcome under the left hypothesis.
    pub left: EmOutcome,
    /// EMF outcome under the right hypothesis.
    pub right: EmOutcome,
}

impl BothSides {
    /// The EMF outcome for the chosen side.
    pub fn chosen(&self) -> &EmOutcome {
        match self.side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// The side Algorithm 3's literal variance rule would select.
    pub fn side_by_variance(&self) -> Side {
        if self.var_left < self.var_right {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// Whether the likelihood and variance criteria agree (they do in
    /// Theorem 3's regime; disagreement signals a concentrated attack or an
    /// under-resolved probe).
    pub fn rules_agree(&self) -> bool {
        self.side == self.side_by_variance()
    }
}

/// Algorithm 3: probes the poisoned side of `counts` (a `d'`-bucket report
/// histogram for `mech`) around the pivot `o_prime`, fitting only as much
/// of the losing hypothesis as it takes to rule it out ([`race_sides`]).
pub fn probe_side(
    mech: &dyn NumericMechanism,
    counts: &[f64],
    d_in: usize,
    o_prime: f64,
    opts: &EmOptions,
) -> SideProbe {
    let (left, right) = hypotheses(mech, counts.len(), d_in, o_prime);
    race_sides(&left, &right, counts, opts)
}

/// [`probe_side`] with both hypotheses fitted in full, for the readers of
/// both fits (Table I's variances and the variance rule).
pub fn probe_both_sides(
    mech: &dyn NumericMechanism,
    counts: &[f64],
    d_in: usize,
    o_prime: f64,
    opts: &EmOptions,
) -> BothSides {
    let (left, right) = hypotheses(mech, counts.len(), d_in, o_prime);
    fit_both(&left, &right, counts, opts)
}

/// The transform matrices of the left- and right-poison hypotheses.
fn hypotheses(
    mech: &dyn NumericMechanism,
    d_out: usize,
    d_in: usize,
    o_prime: f64,
) -> (Arc<TransformMatrix>, Arc<TransformMatrix>) {
    (
        cached_for_numeric(mech, d_in, d_out, &PoisonRegion::LeftOf(o_prime)),
        cached_for_numeric(mech, d_in, d_out, &PoisonRegion::RightOf(o_prime)),
    )
}

/// Fits EMF under both hypotheses to the stopping rule.
fn fit_both(
    left: &TransformMatrix,
    right: &TransformMatrix,
    counts: &[f64],
    opts: &EmOptions,
) -> BothSides {
    let left = emf(left, counts, opts);
    let right = emf(right, counts, opts);
    BothSides {
        side: likelier(&left, &right),
        var_left: variance(&left.normal),
        var_right: variance(&right.normal),
        left,
        right,
    }
}

/// The decision between two fits of the same counts: left only when it is
/// strictly likelier.
fn likelier(left: &EmOutcome, right: &EmOutcome) -> Side {
    if left.log_likelihood > right.log_likelihood {
        Side::Left
    } else {
        Side::Right
    }
}

/// Chooses between EMF fits of `counts` under the poison hypotheses `left`
/// and `right` (see the module docs). The side and the chosen fit are the
/// bits that fitting both to the stopping rule and keeping the likelier
/// would give; the loser is fitted only until a bound rules it out.
pub fn race_sides(
    left: &TransformMatrix,
    right: &TransformMatrix,
    counts: &[f64],
    opts: &EmOptions,
) -> SideProbe {
    let mut ws = EmWorkspace::new();
    let peek = EmOptions { max_iters: opts.max_iters.min(PEEK), ..*opts };
    let peek_left = em::solve_in(left, counts, MStep::Free, &peek, &mut ws);
    let peek_right = em::solve_in(right, counts, MStep::Free, &peek, &mut ws);
    let lead_side = likelier(&peek_left, &peek_right);
    let (lead, trail) = match lead_side {
        Side::Left => (left, right),
        Side::Right => (right, left),
    };
    let lead_fit = em::solve_in(lead, counts, MStep::Free, opts, &mut ws);
    let rival = lead_fit.log_likelihood;
    let trail_fit = em::solve_against_in(trail, counts, MStep::Free, opts, rival, &mut ws);
    let iterations = peek_left.iterations
        + peek_right.iterations
        + lead_fit.iterations
        + trail_fit.as_ref().map_or_else(|stop| stop.iterations, |fit| fit.iterations);

    let (side, chosen) = match trail_fit {
        // Its full fit would have ended below the lead's.
        Err(_) => (lead_side, lead_fit),
        Ok(trail_fit) => {
            let (left_fit, right_fit) = match lead_side {
                Side::Left => (lead_fit, trail_fit),
                Side::Right => (trail_fit, lead_fit),
            };
            match likelier(&left_fit, &right_fit) {
                Side::Left => (Side::Left, left_fit),
                Side::Right => (Side::Right, right_fit),
            }
        }
    };
    SideProbe { side, iterations, chosen }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::grid::Grid;
    use dap_ldp::{Duchi, PiecewiseMechanism, SquareWave};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn report_counts(
        eps: f64,
        n: usize,
        gamma: f64,
        attack_side: Side,
        seed: u64,
    ) -> (Vec<f64>, PiecewiseMechanism) {
        let mech = PiecewiseMechanism::with_epsilon(eps).unwrap();
        let mut rng = dap_estimation::rng::seeded(seed);
        let c = mech.c();
        let m = (n as f64 * gamma).round() as usize;
        let mut reports: Vec<f64> = (0..n - m)
            .map(|_| mech.perturb(rng.gen_range(-0.6..=0.4), &mut rng))
            .collect();
        let (lo, hi) = match attack_side {
            Side::Right => (c / 2.0, c),
            Side::Left => (-c, -c / 2.0),
        };
        reports.extend((0..m).map(|_| rng.gen_range(lo..=hi)));
        let grid = Grid::new(-c, c, 64);
        (grid.counts(&reports), mech)
    }

    #[test]
    fn detects_right_side_attack() {
        let (counts, mech) = report_counts(0.25, 30_000, 0.25, Side::Right, 1);
        let opts = EmOptions { tol: 1e-5, max_iters: 500 };
        let probe = probe_side(&mech, &counts, 8, 0.0, &opts);
        assert_eq!(probe.side, Side::Right);
        let both = probe_both_sides(&mech, &counts, 8, 0.0, &opts);
        assert!(both.var_right < both.var_left);
    }

    #[test]
    fn detects_left_side_attack() {
        let (counts, mech) = report_counts(0.25, 30_000, 0.25, Side::Left, 2);
        let opts = EmOptions { tol: 1e-5, max_iters: 500 };
        let probe = probe_side(&mech, &counts, 8, 0.0, &opts);
        assert_eq!(probe.side, Side::Left);
        let both = probe_both_sides(&mech, &counts, 8, 0.0, &opts);
        assert!(both.var_left < both.var_right);
    }

    #[test]
    fn chosen_returns_matching_outcome() {
        let (counts, mech) = report_counts(0.25, 10_000, 0.3, Side::Right, 3);
        let probe = probe_side(&mech, &counts, 8, 0.0, &EmOptions::default());
        let gamma_chosen = probe.chosen().poison_mass();
        let both = probe_both_sides(&mech, &counts, 8, 0.0, &EmOptions::default());
        assert!((gamma_chosen - both.right.poison_mass()).abs() < 1e-12);
    }

    #[test]
    fn side_detection_works_across_budgets() {
        for (i, &eps) in [0.0625, 0.125, 0.5].iter().enumerate() {
            let (counts, mech) = report_counts(eps, 30_000, 0.25, Side::Right, 10 + i as u64);
            let probe =
                probe_side(&mech, &counts, 8, 0.0, &EmOptions { tol: 1e-5, max_iters: 500 });
            assert_eq!(probe.side, Side::Right, "failed at eps={eps}");
        }
    }

    #[test]
    fn concentrated_point_attack_is_probed_correctly() {
        // Regression: all poison at exactly +C lands in one output bucket;
        // the wrong-side EM stalls at a flat low-variance x̂ under the
        // paper's stopping rule, so Algorithm 3's literal variance rule
        // flips — the likelihood decision must not.
        let mech = PiecewiseMechanism::with_epsilon(0.0625).unwrap();
        let mut rng = dap_estimation::rng::seeded(77);
        let c = mech.c();
        let mut reports: Vec<f64> = (0..30_000)
            .map(|_| mech.perturb(rng.gen_range(-0.6..=0.4), &mut rng))
            .collect();
        reports.extend(std::iter::repeat_n(c, 10_000));
        let grid = Grid::new(-c, c, 128);
        let counts = grid.counts(&reports);
        let opts = EmOptions::paper_default(0.0625);
        let probe = probe_side(&mech, &counts, 16, 0.0, &opts);
        assert_eq!(probe.side, Side::Right);
        assert!(
            probe.chosen().poison_mass() > 0.15,
            "gamma {}",
            probe.chosen().poison_mass()
        );
        // Documents the brittleness: the two rules genuinely disagree here.
        let both = probe_both_sides(&mech, &counts, 16, 0.0, &opts);
        assert!(!both.rules_agree(), "expected the variance rule to flip on this input");
    }

    #[test]
    fn race_rules_the_losing_side_out_early() {
        // Each losing fit here runs 400 to 500 iterations in full; the race
        // gives it up within ten, so the probe costs little more than the
        // kept fit and the two peeks.
        for (eps, seed, side) in [
            (0.0625, 5, Side::Right),
            (0.125, 6, Side::Left),
            (0.25, 7, Side::Right),
            (1.0, 8, Side::Right),
        ] {
            let (counts, mech) = report_counts(eps, 30_000, 0.25, side, seed);
            let opts = EmOptions::paper_default(eps);
            let probe = probe_side(&mech, &counts, 16, 0.0, &opts);
            let both = probe_both_sides(&mech, &counts, 16, 0.0, &opts);
            assert_eq!((probe.side, both.side), (side, side), "eps={eps}");
            let kept = both.chosen().iterations;
            assert!(
                probe.iterations <= kept + 2 * PEEK + 10,
                "eps={eps}: race {} iterations, kept fit {kept}",
                probe.iterations
            );
        }
    }

    fn bits(outcome: &EmOutcome) -> (Vec<u64>, Vec<u64>, usize, bool, u64) {
        let words = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            words(&outcome.normal),
            words(&outcome.poison),
            outcome.iterations,
            outcome.converged,
            outcome.log_likelihood.to_bits(),
        )
    }

    /// A random probe input on a PM, SW or Duchi histogram: no attack,
    /// uniform poison on either side, poison concentrated at one end of
    /// the output domain, or a mirrored histogram whose hypotheses tie.
    /// Returns the two hypotheses' matrices, the counts and ε.
    fn random_probe(rng: &mut StdRng) -> (TransformMatrix, TransformMatrix, Vec<f64>, f64) {
        let eps = rng.gen_range(0.0625..=4.0);
        let mech: Box<dyn NumericMechanism> = match rng.gen_range(0..3u32) {
            0 => Box::new(PiecewiseMechanism::with_epsilon(eps).unwrap()),
            1 => Box::new(SquareWave::with_epsilon(eps).unwrap()),
            _ => Box::new(Duchi::with_epsilon(eps).unwrap()),
        };
        let ((ilo, ihi), (olo, ohi)) = (mech.input_range(), mech.output_range());
        let (imid, omid) = ((ilo + ihi) / 2.0, (olo + ohi) / 2.0);
        let n = rng.gen_range(50..4000usize);
        let mut reports: Vec<f64> =
            (0..n).map(|_| mech.perturb(rng.gen_range(ilo..=ihi), rng)).collect();
        let m = rng.gen_range(0..=n / 2);
        let attack = rng.gen_range(0..5u32);
        match attack {
            0 => {}
            1 => reports.extend((0..m).map(|_| rng.gen_range(omid..=ohi))),
            2 => reports.extend((0..m).map(|_| rng.gen_range(olo..=omid))),
            3 => reports.extend(std::iter::repeat_n(if rng.gen_bool(0.5) { ohi } else { olo }, m)),
            _ => reports.extend((0..m).map(|_| rng.gen_range(olo..=ohi))),
        }
        let d_out = rng.gen_range(4..=128usize);
        let mut counts = Grid::new(olo, ohi, d_out).counts(&reports);
        let mirrored = attack == 4;
        if mirrored {
            let reversed: Vec<f64> = counts.iter().rev().copied().collect();
            counts.iter_mut().zip(reversed).for_each(|(c, r)| *c += r);
        }
        // Either Algorithm 3's hypotheses around a pivot (the input-domain
        // midpoint for a tie) or SW's two inflation bands.
        let (left, right) = if mirrored || rng.gen_bool(0.5) {
            let pivot = if mirrored { imid } else { imid + rng.gen_range(-0.3..=0.3) };
            (PoisonRegion::LeftOf(pivot), PoisonRegion::RightOf(pivot))
        } else {
            (PoisonRegion::LeftOf(ilo), PoisonRegion::RightOf(ihi))
        };
        let d_in = rng.gen_range(2..=16usize);
        let matrix = |region| TransformMatrix::for_numeric(&*mech, d_in, d_out, &region);
        (matrix(left), matrix(right), counts, eps)
    }

    proptest! {
        /// The race picks the side, and returns the chosen fit bit for bit,
        /// that fitting both hypotheses in full does, at fixed caps and
        /// under the paper's stopping rule; it spends at most the two
        /// peeks more.
        #[test]
        fn race_matches_both_full_fits_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (left, right, counts, eps) = random_probe(&mut rng);
            let caps = [1, 7, 60].map(|max_iters| EmOptions { tol: 0.0, max_iters });
            for opts in caps.iter().chain([&EmOptions::paper_default(eps)]) {
                let raced = race_sides(&left, &right, &counts, opts);
                let both = fit_both(&left, &right, &counts, opts);
                prop_assert_eq!(raced.side, both.side);
                prop_assert_eq!(bits(raced.chosen()), bits(both.chosen()));
                let full = both.left.iterations + both.right.iterations;
                prop_assert!(raced.iterations <= full + 2 * PEEK, "{} vs {full}", raced.iterations);
            }
        }
    }
}
