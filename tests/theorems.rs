//! Direct validation of the paper's theorems against the implementation.
//!
//! Theorem 1 (GBA→BBA) is property-tested in `tests/properties.rs`; this
//! file covers Theorems 2-6.

use differential_aggregation::prelude::*;
use differential_aggregation::emf;
use differential_aggregation::estimation::em::{self, EmOptions, MStep};
use differential_aggregation::estimation::{Grid, PoisonRegion, TransformMatrix};

/// Theorem 2: the pessimistic initialization `O'` is on the honest side of
/// the true mean for *any* attack whose poison lies on the claimed side,
/// as long as `γ_sup` upper-bounds the true proportion.
#[test]
fn theorem2_pessimistic_initialization() {
    let mut rng = estimation::rng::seeded(1);
    use rand::Rng;
    for trial in 0..20 {
        let n = 2_000;
        let honest: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let truth = estimation::stats::mean(&honest);
        let gamma = rng.gen_range(0.05..0.45);
        let m = (n as f64 * gamma / (1.0 - gamma)) as usize;
        let mut reports = honest;
        // Arbitrary right-side poison.
        for _ in 0..m {
            reports.push(rng.gen_range(truth..=3.0));
        }
        let o_prime = emf::pessimistic_init(&reports, 0.5, Side::Right);
        assert!(
            o_prime <= truth + 1e-9,
            "trial {trial}: O' = {o_prime} above O = {truth} (gamma {gamma:.2})"
        );
    }
}

/// Theorem 3: as ε → 0 the reconstructed normal histogram under the correct
/// hypothesis approaches uniform, and the poison histogram approaches the
/// true poison distribution.
#[test]
fn theorem3_small_epsilon_convergence() {
    use rand::Rng;
    // Theorem 3 is an ε → 0 limit. At fixed n = 40 000 the poison L1 has a
    // sampling floor of ~0.01 (it scales as n^-1/2), and between moderate
    // budgets the reconstruction is already *at* that floor: averaged over
    // eight seeded populations the sweep measures L1 ≈ [0.0137, 0.0144,
    // 0.0113] — the ε = 1 → 1/4 step moves *within* the floor (+5 %, a
    // finite-n effect that more seeds do not dissolve) and only the final
    // quartering to ε = 1/16 pushes below it. The per-step assertions are
    // therefore split by halves of the theorem: Var(x̂) (the
    // normal-histogram half) shrinks strictly at every step once
    // seed-averaged, while the poison L1 per-step bound only forbids
    // leaving the floor (10 % slack over the observed +5 % plateau), with
    // the decisive improvement pinned endpoint-to-endpoint.
    let seeds = [2u64, 3, 4, 5, 6, 7, 8, 9];
    let eps_sweep = [1.0, 0.25, 0.0625];
    let mut avg_l1s = Vec::new();
    let mut avg_vars = Vec::new();
    for &eps in &eps_sweep {
        let mech = PiecewiseMechanism::with_epsilon(eps).unwrap();
        let c = mech.c();
        let n = 40_000;
        let m = 10_000;
        let d_out = 64;
        let matrix =
            TransformMatrix::for_numeric(&mech, 16, d_out, &PoisonRegion::RightOf(0.0));
        let grid = Grid::new(-c, c, d_out);
        // True poison histogram over the output grid (uniform on the top
        // quarter), as a fraction of all reports.
        let mut true_y = vec![0.0; d_out];
        for (j, y) in true_y.iter_mut().enumerate() {
            let (a, b) = grid.edges(j);
            let overlap = (b.min(c) - a.max(0.75 * c)).max(0.0);
            *y = (m as f64 / (n + m) as f64) * overlap / (0.25 * c);
        }

        let (mut l1_sum, mut var_sum) = (0.0, 0.0);
        for &seed in &seeds {
            let mut rng = estimation::rng::seeded(seed);
            let mut reports: Vec<f64> = (0..n)
                .map(|_| mech.perturb(rng.gen_range(-0.8..=0.2), &mut rng))
                .collect();
            reports.extend((0..m).map(|_| rng.gen_range((0.75 * c)..=c)));
            let counts = grid.counts(&reports);
            let out = em::solve(
                &matrix,
                &counts,
                MStep::Free,
                &EmOptions { tol: 1e-7, max_iters: 3000 },
            );
            var_sum += estimation::stats::variance(&out.normal);
            l1_sum +=
                out.poison.iter().zip(&true_y).map(|(a, b)| (a - b).abs()).sum::<f64>();
        }
        avg_l1s.push(l1_sum / seeds.len() as f64);
        avg_vars.push(var_sum / seeds.len() as f64);
    }
    eprintln!("theorem3: avg L1 per eps {avg_l1s:?}, avg Var {avg_vars:?}");

    // Per-step, normal half: quartering ε strictly shrinks the
    // seed-averaged Var(x̂).
    for (step, w) in avg_vars.windows(2).enumerate() {
        assert!(
            w[1] < w[0],
            "averaged Var(x̂) did not shrink at step {step} (eps {} -> {}): {avg_vars:?}",
            eps_sweep[step],
            eps_sweep[step + 1]
        );
    }
    // Per-step, poison half: the averaged L1 must never leave its
    // sampling floor (see the header comment for why strict per-step
    // monotonicity is not expected at moderate ε).
    for (step, w) in avg_l1s.windows(2).enumerate() {
        assert!(
            w[1] < w[0] * 1.10,
            "averaged poison L1 left the noise floor at step {step} (eps {} -> {}): {avg_l1s:?}",
            eps_sweep[step],
            eps_sweep[step + 1]
        );
    }
    // Endpoint: the sweep as a whole breaks below the floor (measured
    // ratio 0.82, pinned at 0.9), and at ε = 1/16 the reconstruction is
    // genuinely close to the truth (measured 0.011, pinned at 0.02).
    let (first_l1, last_l1) = (avg_l1s[0], *avg_l1s.last().unwrap());
    assert!(
        last_l1 < first_l1 * 0.9,
        "poison L1 did not shrink across the ε sweep: {avg_l1s:?}"
    );
    assert!(last_l1 < 0.02, "final averaged poison L1 {last_l1}");
}

/// Theorem 3 under the paper's stopping rule τ = 0.01·e^ε (§VI-A), the
/// estimator every experiment runs. Plain EM starts from uniform and stops
/// early on the flat small-ε likelihood; that stopping point is part of the
/// estimator and is what keeps x̂ near uniform, so an iteration cut that
/// moves it (SQUAREM measured ~7e-5 at ε = 1/16) fails here even when the
/// end-to-end MSE stays flat. Same populations as the τ = 1e-7 case above;
/// measured averaged Var(x̂) ≈ [2.13e-3, 9.62e-4, 2.24e-5], with per-seed
/// values at ε = 1/16 spanning 1.63e-5 to 3.25e-5 over seeds 2–17.
#[test]
fn theorem3_holds_at_the_paper_stopping_rule() {
    use rand::Rng;
    let seeds = [2u64, 3, 4, 5, 6, 7, 8, 9];
    let eps_sweep = [1.0, 0.25, 0.0625];
    let (n, m, d_out) = (40_000, 10_000, 64);
    let mut avg_vars = Vec::new();
    for &eps in &eps_sweep {
        let mech = PiecewiseMechanism::with_epsilon(eps).unwrap();
        let c = mech.c();
        let matrix =
            TransformMatrix::for_numeric(&mech, 16, d_out, &PoisonRegion::RightOf(0.0));
        let grid = Grid::new(-c, c, d_out);
        let mut var_sum = 0.0;
        for &seed in &seeds {
            let mut rng = estimation::rng::seeded(seed);
            let mut reports: Vec<f64> = (0..n)
                .map(|_| mech.perturb(rng.gen_range(-0.8..=0.2), &mut rng))
                .collect();
            reports.extend((0..m).map(|_| rng.gen_range((0.75 * c)..=c)));
            let counts = grid.counts(&reports);
            let out = em::solve(&matrix, &counts, MStep::Free, &EmOptions::paper_default(eps));
            var_sum += estimation::stats::variance(&out.normal);
        }
        avg_vars.push(var_sum / seeds.len() as f64);
    }
    eprintln!("theorem3 at paper tau: avg Var per eps {avg_vars:?}");

    for (step, w) in avg_vars.windows(2).enumerate() {
        assert!(
            w[1] < w[0],
            "averaged Var(x̂) did not shrink at step {step} (eps {} -> {}): {avg_vars:?}",
            eps_sweep[step],
            eps_sweep[step + 1]
        );
    }
    let last = *avg_vars.last().unwrap();
    assert!(last < 4e-5, "averaged Var(x̂) at eps 1/16 is {last} (bound 4e-5)");
}

/// Theorem 4: the constrained M-step's fixed point keeps the prescribed
/// masses exactly, for any feasible γ̂ — and the EMF* outcome is the same
/// histogram EMF produces, rescaled blockwise, when EMF already satisfies
/// the constraint.
#[test]
fn theorem4_constrained_mstep_masses() {
    let mech = PiecewiseMechanism::with_epsilon(0.5).unwrap();
    let matrix = TransformMatrix::for_numeric(&mech, 8, 32, &PoisonRegion::RightOf(0.0));
    let counts: Vec<f64> = (0..32).map(|i| 10.0 + (i as f64) * 3.0).collect();
    for &gamma in &[0.0, 0.1, 0.25, 0.49] {
        let out = em::solve(
            &matrix,
            &counts,
            MStep::Constrained { gamma },
            &EmOptions { tol: 1e-9, max_iters: 2000 },
        );
        let sx: f64 = out.normal.iter().sum();
        let sy: f64 = out.poison.iter().sum();
        assert!((sx - (1.0 - gamma)).abs() < 1e-9, "Σx̂ = {sx} for γ = {gamma}");
        if gamma > 0.0 {
            assert!((sy - gamma).abs() < 1e-9, "Σŷ = {sy} for γ = {gamma}");
        }
    }
}

/// Theorem 5: suppressing more truly-empty poison buckets monotonically
/// improves the reconstruction (measured as L1 distance of ŷ to the truth).
#[test]
fn theorem5_suppression_monotonicity() {
    let mut rng = estimation::rng::seeded(3);
    use rand::Rng;
    let mech = PiecewiseMechanism::with_epsilon(0.25).unwrap();
    let c = mech.c();
    let n = 30_000;
    let m = 10_000;
    let mut reports: Vec<f64> =
        (0..n).map(|_| mech.perturb(rng.gen_range(-0.5..=0.5), &mut rng)).collect();
    // Poison concentrated on [0.9C, C] — most right-side buckets are empty.
    reports.extend((0..m).map(|_| rng.gen_range((0.9 * c)..=c)));

    let d_out = 64;
    let matrix = TransformMatrix::for_numeric(&mech, 16, d_out, &PoisonRegion::RightOf(0.0));
    let grid = Grid::new(-c, c, d_out);
    let counts = grid.counts(&reports);
    let opts = EmOptions { tol: 1e-7, max_iters: 2000 };
    let gamma = m as f64 / (n + m) as f64;

    let mut true_y = vec![0.0; d_out];
    for (j, y) in true_y.iter_mut().enumerate() {
        let (a, b) = grid.edges(j);
        let overlap = (b.min(c) - a.max(0.9 * c)).max(0.0);
        *y = gamma * overlap / (0.1 * c);
    }
    let l1 = |outcome: &differential_aggregation::estimation::em::EmOutcome| -> f64 {
        outcome.poison.iter().zip(&true_y).map(|(a, b)| (a - b).abs()).sum()
    };

    // Suppress increasingly many of the truly-empty poison buckets (those
    // below 0.9C), from none to all.
    let empty: Vec<usize> = matrix
        .poison_buckets()
        .iter()
        .copied()
        .filter(|&j| grid.center(j) < 0.88 * c)
        .collect();
    let mut errors = Vec::new();
    for keep_suppressed in [0usize, empty.len() / 2, empty.len()] {
        let share = 1.0 / (matrix.d_in() + matrix.poison_buckets().len()) as f64;
        let x0 = vec![share; matrix.d_in()];
        let mut y0 = vec![0.0; d_out];
        for &j in matrix.poison_buckets() {
            y0[j] = share;
        }
        for &j in &empty[..keep_suppressed] {
            y0[j] = 0.0;
        }
        let out = em::solve_with_init(
            &matrix,
            &counts,
            MStep::Constrained { gamma },
            &x0,
            &y0,
            &opts,
        );
        errors.push(l1(&out));
    }
    assert!(
        errors[2] <= errors[1] + 1e-6 && errors[1] <= errors[0] + 1e-6,
        "suppression did not monotonically improve: {errors:?}"
    );
    assert!(errors[2] < errors[0], "full suppression gave no gain: {errors:?}");
}

/// Theorem 6: among all convex weightings, the proof's optimum minimizes
/// the worst-case variance functional `Σ w²·B_t/n̂_t²`; random perturbations
/// around it never do better.
#[test]
fn theorem6_weight_optimality() {
    let mut rng = estimation::rng::seeded(4);
    use rand::Rng;
    let n_hats = [900.0, 400.0, 2_000.0, 150.0];
    let worst_vars = [1.0, 3.5, 9.0, 30.0];
    let b: Vec<f64> = n_hats.iter().zip(&worst_vars).map(|(&n, &v)| n * v).collect();
    let objective = |w: &[f64]| -> f64 {
        w.iter()
            .zip(&n_hats)
            .zip(&b)
            .map(|((&wi, &ni), &bi)| wi * wi * bi / (ni * ni))
            .sum()
    };

    let agg = aggregate(&[0.0; 4], &n_hats, &worst_vars, Weighting::ProofOptimal);
    let best = objective(&agg.weights);
    assert!((best - agg.min_variance).abs() < 1e-12, "functional mismatch");

    for _ in 0..500 {
        // Random convex weight vector.
        let raw: Vec<f64> = (0..4).map(|_| rng.gen_range(0.01..1.0)).collect();
        let total: f64 = raw.iter().sum();
        let w: Vec<f64> = raw.iter().map(|&x| x / total).collect();
        assert!(
            objective(&w) >= best - 1e-12,
            "random weights {w:?} beat the optimum: {} < {best}",
            objective(&w)
        );
    }

    // And the printed Algorithm 5 rule is measurably suboptimal for unequal
    // groups — the discrepancy DESIGN.md documents.
    let a5 = aggregate(&[0.0; 4], &n_hats, &worst_vars, Weighting::AlgorithmFive);
    assert!(objective(&a5.weights) > best, "Algorithm 5 unexpectedly optimal here");
}
