//! Expectation-Maximization with Smoothing (EMS) — Li et al., SIGMOD 2020.
//!
//! EMS reconstructs the *input distribution* from Square-Wave reports: plain
//! EM over the normal block followed, each iteration, by a binomial
//! `[1, 2, 1]/4` smoothing of the histogram. The paper uses EMS for its
//! distribution-estimation experiment (Fig. 8a) and to bootstrap `O'` for the
//! SW variant of DAP (§V-D).

use crate::em::{self, EmOptions, EmWorkspace};
use crate::transform::TransformMatrix;

/// Result of an EMS run: the reconstructed input histogram.
#[derive(Debug, Clone)]
pub struct EmsOutcome {
    /// Input-bucket frequency histogram (sums to 1).
    pub histogram: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Runs EMS on the normal block of `matrix` (its poison block, if any, is
/// ignored — pass a matrix built with [`crate::PoisonRegion::None`] for
/// clarity).
pub fn solve(matrix: &TransformMatrix, counts: &[f64], opts: &EmOptions) -> EmsOutcome {
    solve_in(matrix, counts, opts, &mut EmWorkspace::new())
}

/// [`solve`] with caller-provided scratch buffers.
///
/// Each iteration is the core solver's E-step (structured fast path when
/// the matrix analyzes) with every poison component held at zero, followed
/// by the normal-block normalization and the binomial smoothing.
pub fn solve_in(
    matrix: &TransformMatrix,
    counts: &[f64],
    opts: &EmOptions,
    ws: &mut EmWorkspace,
) -> EmsOutcome {
    let d_in = matrix.d_in();
    assert_eq!(counts.len(), matrix.d_out(), "counts length must equal d'");

    ws.prepare(d_in, matrix.d_out());
    ws.x.iter_mut().for_each(|v| *v = 1.0 / d_in as f64);
    let mut prev_ll = f64::NEG_INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        // With y ≡ 0 the poison responsibilities vanish, so this is exactly
        // the normal-block E-step.
        let (ll, _py_total) = em::e_step(matrix, counts, ws);

        let total: f64 = ws.px.iter().sum();
        if total > 0.0 {
            for (xk, pxk) in ws.x.iter_mut().zip(ws.px.iter()) {
                *xk = pxk / total;
            }
        }
        smooth_in_place(&mut ws.x, &mut ws.smooth);

        if (ll - prev_ll).abs() < opts.tol {
            converged = true;
            break;
        }
        prev_ll = ll;
    }

    EmsOutcome { histogram: ws.x.clone(), iterations, converged }
}

/// Binomial `[1, 2, 1]/4` kernel with reflecting ends; preserves total mass.
/// `scratch` is a reusable buffer so the per-iteration smoothing allocates
/// nothing.
fn smooth_in_place(x: &mut [f64], scratch: &mut Vec<f64>) {
    let n = x.len();
    if n < 3 {
        return;
    }
    scratch.clear();
    scratch.resize(n, 0.0);
    let out = &mut scratch[..];
    out[0] = (2.0 * x[0] + x[1]) / 3.0;
    out[n - 1] = (x[n - 2] + 2.0 * x[n - 1]) / 3.0;
    for i in 1..n - 1 {
        out[i] = (x[i - 1] + 2.0 * x[i] + x[i + 1]) / 4.0;
    }
    // Renormalize: reflecting ends keep the sum within O(1e-16) of the input,
    // but exactness matters for downstream γ̂ arithmetic.
    let total: f64 = out.iter().sum();
    if total > 0.0 {
        for v in out.iter_mut() {
            *v /= total;
        }
    }
    x.copy_from_slice(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::PoisonRegion;
    use dap_ldp::{NumericMechanism, SquareWave};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn smoothing_preserves_mass() {
        let mut x = vec![0.1, 0.5, 0.2, 0.15, 0.05];
        smooth_in_place(&mut x, &mut Vec::new());
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The spike at index 1 is flattened toward its neighbours.
        assert!(x[1] < 0.5);
        assert!(x[0] > 0.1);
    }

    #[test]
    fn smoothing_is_noop_for_tiny_vectors() {
        let mut x = vec![0.4, 0.6];
        smooth_in_place(&mut x, &mut Vec::new());
        assert_eq!(x, vec![0.4, 0.6]);
    }

    #[test]
    fn recovers_a_skewed_distribution_from_sw_reports() {
        let mech = SquareWave::with_epsilon(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        // True distribution: 80% of users at 0.2, 20% at 0.8.
        let n = 60_000;
        let values: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { 0.8 } else { 0.2 })
            .collect();
        let reports: Vec<f64> = values.iter().map(|&v| mech.perturb(v, &mut rng)).collect();

        let d_in = 10;
        let d_out = 64;
        let matrix = TransformMatrix::for_numeric(&mech, d_in, d_out, &PoisonRegion::None);
        let (olo, ohi) = mech.output_range();
        let out_grid = crate::grid::Grid::new(olo, ohi, d_out);
        let counts = out_grid.counts(&reports);

        let outcome = solve(&matrix, &counts, &EmOptions { tol: 1e-6, max_iters: 500 });
        let h = &outcome.histogram;
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Smoothing spreads each mode over neighbouring buckets; check the
        // windows around 0.2 (buckets 1-3) and 0.8 (buckets 7-9).
        let low: f64 = h[1..=3].iter().sum();
        let high: f64 = h[7..=9].iter().sum();
        assert!(low > 0.4, "low mode mass {low} ({h:?})");
        assert!(high > 0.08, "high mode mass {high}");
        // The reconstructed mean is close to the true mean 0.32.
        let mean: f64 = h
            .iter()
            .zip(matrix.input_centers())
            .map(|(p, c)| p * c)
            .sum();
        assert!((mean - 0.32).abs() < 0.05, "reconstructed mean {mean}");
    }
}
