//! Property suite pinning the fast EM path to the dense serial reference.
//!
//! The structured E-step ([`dap_estimation::transform::StructuredColumns`])
//! reorders summations and represents ulp-level floor wobble by a single
//! constant, so its outputs are not bit-identical to the dense row-by-row
//! reference — but they must agree to ≤ 1e-12 per component at every
//! iteration count, across every mechanism, budget, and poison region the
//! protocol uses. This is the acceptance bound the perf work is held to.

use dap_estimation::em::{self, EmOptions, MStep};
use dap_estimation::{PoisonRegion, TransformMatrix};
use dap_ldp::{Duchi, NumericMechanism, PiecewiseMechanism, SquareWave};
use proptest::prelude::*;
use rand::Rng;
use rand::RngCore;

const TOL: f64 = 1e-12;

fn random_region(rng: &mut impl RngCore, mech: &dyn NumericMechanism) -> PoisonRegion {
    let (olo, ohi) = mech.output_range();
    let pivot = olo + rng.gen::<f64>() * (ohi - olo);
    match rng.gen_range(0u8..4) {
        0 => PoisonRegion::None,
        1 => PoisonRegion::RightOf(pivot),
        2 => PoisonRegion::LeftOf(pivot),
        _ => PoisonRegion::RightOf(0.0),
    }
}

fn random_counts(rng: &mut impl RngCore, d_out: usize) -> Vec<f64> {
    (0..d_out)
        .map(|_| if rng.gen::<f64>() < 0.15 { 0.0 } else { (rng.gen::<f64>() * 500.0).floor() })
        .collect()
}

/// Runs the fast and dense solvers side by side for several iteration caps
/// and asserts per-component agreement within `TOL`.
fn assert_equivalent(matrix: &TransformMatrix, counts: &[f64], mstep: MStep) {
    let share = 1.0 / (matrix.d_in() + matrix.poison_buckets().len()).max(1) as f64;
    let x0 = vec![share; matrix.d_in()];
    let mut y0 = vec![0.0; matrix.d_out()];
    for &j in matrix.poison_buckets() {
        y0[j] = share;
    }
    for iters in [1usize, 3, 12] {
        let opts = EmOptions { tol: 0.0, max_iters: iters };
        let fast = em::solve_with_init(matrix, counts, mstep, &x0, &y0, &opts);
        let dense = em::solve_dense_reference(matrix, counts, mstep, &x0, &y0, &opts);
        assert_eq!(fast.iterations, dense.iterations);
        for (i, (a, b)) in fast.normal.iter().zip(&dense.normal).enumerate() {
            assert!(
                (a - b).abs() <= TOL,
                "normal[{i}] after {iters} iters: {a} vs {b} (delta {})",
                (a - b).abs()
            );
        }
        for (i, (a, b)) in fast.poison.iter().zip(&dense.poison).enumerate() {
            assert!(
                (a - b).abs() <= TOL,
                "poison[{i}] after {iters} iters: {a} vs {b} (delta {})",
                (a - b).abs()
            );
        }
    }
}

proptest! {
    /// PM: random ε ∈ [1/16, 4], random grid sizes, random poison regions,
    /// random count histograms — structured ≡ dense to 1e-12 per iteration.
    #[test]
    fn pm_structured_matches_dense(
        eps in 0.0625f64..4.0,
        d_in in 4usize..24,
        d_out_mult in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let mech = PiecewiseMechanism::with_epsilon(eps).expect("valid eps");
        let d_out = d_in * d_out_mult;
        let mut rng = dap_estimation::rng::seeded(seed);
        let region = random_region(&mut rng, &mech);
        let matrix = TransformMatrix::for_numeric(&mech, d_in, d_out, &region);
        prop_assume!(matrix.structure().is_some());
        let counts = random_counts(&mut rng, d_out);
        assert_equivalent(&matrix, &counts, MStep::Free);
        assert_equivalent(&matrix, &counts, MStep::Constrained { gamma: rng.gen::<f64>() });
    }

    /// Square-Wave, same contract.
    #[test]
    fn sw_structured_matches_dense(
        eps in 0.0625f64..4.0,
        d_in in 4usize..20,
        seed in 0u64..1_000_000,
    ) {
        let mech = SquareWave::with_epsilon(eps).expect("valid eps");
        let d_out = d_in * 4;
        let mut rng = dap_estimation::rng::seeded(seed.wrapping_add(17));
        let region = random_region(&mut rng, &mech);
        let matrix = TransformMatrix::for_numeric(&mech, d_in, d_out, &region);
        prop_assume!(matrix.structure().is_some());
        let counts = random_counts(&mut rng, d_out);
        assert_equivalent(&matrix, &counts, MStep::Free);
        assert_equivalent(&matrix, &counts, MStep::Constrained { gamma: 0.3 });
    }

    /// Odd and prime output-grid sizes, so the band kernels exercise their
    /// scalar remainders.
    #[test]
    fn prime_d_out_structured_matches_dense(
        eps in 0.0625f64..4.0,
        d_in in 4usize..24,
        prime_idx in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let d_out = [89usize, 97, 113, 127][prime_idx];
        let mech = PiecewiseMechanism::with_epsilon(eps).expect("valid eps");
        let mut rng = dap_estimation::rng::seeded(seed.wrapping_add(97));
        let region = random_region(&mut rng, &mech);
        let matrix = TransformMatrix::for_numeric(&mech, d_in, d_out, &region);
        prop_assume!(matrix.structure().is_some());
        let counts = random_counts(&mut rng, d_out);
        assert_equivalent(&matrix, &counts, MStep::Free);
        assert_equivalent(&matrix, &counts, MStep::Constrained { gamma: rng.gen::<f64>() });
    }

    /// Duchi's two-atom output usually falls back to the dense path; when it
    /// does analyze, it must satisfy the same bound — and either way the
    /// public solver must agree with the reference.
    #[test]
    fn duchi_solver_matches_dense(
        eps in 0.0625f64..4.0,
        seed in 0u64..1_000_000,
    ) {
        let mech = Duchi::with_epsilon(eps).expect("valid eps");
        let mut rng = dap_estimation::rng::seeded(seed.wrapping_add(41));
        let region = random_region(&mut rng, &mech);
        let matrix = TransformMatrix::for_numeric(&mech, 8, 32, &region);
        let counts = random_counts(&mut rng, 32);
        assert_equivalent(&matrix, &counts, MStep::Free);
    }
}

/// The EMS loop rides the same E-step; spot-check it against a hand-rolled
/// dense EMS at matched iteration counts.
#[test]
fn ems_structured_matches_dense_reference() {
    let mech = SquareWave::with_epsilon(0.75).expect("valid eps");
    let matrix = TransformMatrix::for_numeric(&mech, 12, 48, &PoisonRegion::None);
    assert!(matrix.structure().is_some(), "SW should analyze");
    let mut rng = dap_estimation::rng::seeded(7);
    let counts = random_counts(&mut rng, 48);

    for iters in [1usize, 5, 20] {
        let opts = EmOptions { tol: 0.0, max_iters: iters };
        let fast = dap_estimation::ems::solve(&matrix, &counts, &opts);

        // Dense EMS: one dense-reference EM sweep per iteration plus the
        // same smoothing, reproduced via the public reference solver.
        let d_in = matrix.d_in();
        let mut x = vec![1.0 / d_in as f64; d_in];
        let y0 = vec![0.0; matrix.d_out()];
        for _ in 0..iters {
            let one = EmOptions { tol: -1.0, max_iters: 1 };
            let step =
                em::solve_dense_reference(&matrix, &counts, MStep::Free, &x, &y0, &one);
            x = step.normal;
            smooth_reference(&mut x);
        }
        for (i, (a, b)) in fast.histogram.iter().zip(&x).enumerate() {
            assert!(
                (a - b).abs() <= TOL,
                "ems[{i}] after {iters} iters: {a} vs {b}"
            );
        }
    }
}

/// The EMS smoothing kernel, restated independently of the production code.
fn smooth_reference(x: &mut [f64]) {
    let n = x.len();
    let mut out = vec![0.0; n];
    out[0] = (2.0 * x[0] + x[1]) / 3.0;
    out[n - 1] = (x[n - 2] + 2.0 * x[n - 1]) / 3.0;
    for i in 1..n - 1 {
        out[i] = (x[i - 1] + 2.0 * x[i] + x[i + 1]) / 4.0;
    }
    let total: f64 = out.iter().sum();
    if total > 0.0 {
        for v in &mut out {
            *v /= total;
        }
    }
    x.copy_from_slice(&out);
}
