//! Generic EM solver over a block transform matrix.
//!
//! This is the computational core shared by EMF (Algorithm 2), EMF\*
//! (Algorithm 4) and CEMF\* (Theorem 5): they differ only in the M-step
//! normalization and in the initialization of the poison components, both of
//! which are parameters here.
//!
//! Latent state is `(x̂, ŷ)` — the frequency histogram of normal users over
//! `d` input buckets and of poison values over the poison-side output
//! buckets.
//!
//! # Fast path
//!
//! When the matrix carries an analyzed column structure
//! ([`TransformMatrix::structure`]), one E/M iteration costs `O(d' + nnz)`
//! instead of `O(d'·d)`: the per-column constant floors are hoisted into a
//! single base term and only the bands are touched, via contiguous
//! AXPY/dot kernels the compiler vectorizes. The historical row-by-row
//! implementation is kept alive as [`solve_dense_reference`]; the structured
//! path agrees with it to ≤ 1e-12 per iteration (see the
//! `structured_equivalence` integration suite).
//!
//! Scratch buffers live in an [`EmWorkspace`] so repeated solves (one per
//! group per trial in the protocol) allocate nothing but their outcome.

use crate::transform::{StructuredColumns, TransformMatrix};
use kernels::{axpy, dot};

/// Stopping rule for the EM loop.
///
/// The paper stops when `|l(F)_t − l(F)_{t+1}| < τ` with `τ = 0.01·e^ε`
/// (§VI-A); the log-likelihood here is the data-dependent part
/// `Σ_i c_i ln(den_i)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmOptions {
    /// Absolute tolerance on the log-likelihood improvement.
    pub tol: f64,
    /// Hard iteration cap (EM on concave likelihoods converges, but we never
    /// spin unbounded on degenerate inputs).
    pub max_iters: usize,
}

impl EmOptions {
    /// The paper's stopping rule `τ = 0.01·e^ε` with a 500-iteration cap.
    pub fn paper_default(eps: f64) -> Self {
        EmOptions { tol: 0.01 * eps.exp(), max_iters: 500 }
    }
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions { tol: 1e-4, max_iters: 500 }
    }
}

/// M-step normalization variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MStep {
    /// Plain EMF (Algorithm 2): normalize `(x̂, ŷ)` jointly to sum 1.
    Free,
    /// EMF\* / CEMF\* (Algorithm 4, Theorem 4): `Σx̂ = 1−γ̂`, `Σŷ = γ̂`.
    Constrained {
        /// Byzantine proportion estimate from a prior EMF pass.
        gamma: f64,
    },
}

/// Result of an EM run.
#[derive(Debug, Clone)]
pub struct EmOutcome {
    /// Normal-user frequency histogram `x̂` over the `d` input buckets.
    pub normal: Vec<f64>,
    /// Poison frequency histogram `ŷ`, full output length `d'` with zeros at
    /// non-poison buckets.
    pub poison: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Final (data-dependent part of the) log-likelihood.
    pub log_likelihood: f64,
}

impl EmOutcome {
    /// Total poison mass `Σ ŷ_j` — the Byzantine proportion estimate `γ̂`
    /// (Eq. 9).
    pub fn poison_mass(&self) -> f64 {
        self.poison.iter().sum()
    }
}

/// Reusable scratch buffers for [`solve_in`] / [`solve_with_init_in`].
///
/// One workspace serves any problem size — buffers grow on demand and are
/// reused across solves, so a trial loop running hundreds of EM fits
/// allocates only its outcomes.
#[derive(Debug, Default)]
pub struct EmWorkspace {
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) px: Vec<f64>,
    pub(crate) py: Vec<f64>,
    den: Vec<f64>,
    w: Vec<f64>,
    /// Smoothing scratch for EMS (see [`crate::ems`]).
    pub(crate) smooth: Vec<f64>,
}

impl EmWorkspace {
    /// An empty workspace; buffers are sized lazily by the first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes (and zeroes) the buffers for a `d_in → d_out` solve.
    pub(crate) fn prepare(&mut self, d_in: usize, d_out: usize) {
        resize_fill(&mut self.x, d_in);
        resize_fill(&mut self.y, d_out);
        resize_fill(&mut self.px, d_in);
        resize_fill(&mut self.py, d_out);
        resize_fill(&mut self.den, d_out);
        resize_fill(&mut self.w, d_out);
    }
}

fn resize_fill(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// Floor applied to mixture densities before taking logarithms, so empty
/// buckets cannot produce `-inf`/NaN likelihoods.
pub(crate) const DENSITY_FLOOR: f64 = 1e-300;

/// Runs EM with uniform initialization over all latent components.
pub fn solve(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    opts: &EmOptions,
) -> EmOutcome {
    solve_in(matrix, counts, mstep, opts, &mut EmWorkspace::new())
}

/// [`solve`] with caller-provided scratch buffers.
pub fn solve_in(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    opts: &EmOptions,
    ws: &mut EmWorkspace,
) -> EmOutcome {
    let share = 1.0 / (matrix.d_in() + matrix.poison_buckets().len()).max(1) as f64;
    let x0 = vec![share; matrix.d_in()];
    let mut y0 = vec![0.0; matrix.d_out()];
    for &j in matrix.poison_buckets() {
        y0[j] = share;
    }
    solve_with_init_in(matrix, counts, mstep, &x0, &y0, opts, ws)
}

/// Runs EM from an explicit initialization.
///
/// CEMF\* uses this to suppress buckets: a poison component initialized to
/// exactly `0` stays `0` for the whole run (its E-step responsibility is
/// always zero), which is precisely the paper's "suppression".
///
/// # Panics
/// If `counts.len() != d'`, or the initial vectors have wrong lengths or
/// negative entries.
pub fn solve_with_init(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
) -> EmOutcome {
    solve_with_init_in(matrix, counts, mstep, x_init, y_init, opts, &mut EmWorkspace::new())
}

/// [`solve_with_init`] with caller-provided scratch buffers.
pub fn solve_with_init_in(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
    ws: &mut EmWorkspace,
) -> EmOutcome {
    run_em(matrix, counts, mstep, x_init, y_init, opts, ws, matrix.structure())
}

/// The historical dense row-by-row solver, kept as the reference the
/// structured fast path is validated against (it never consults the
/// matrix's analyzed structure).
pub fn solve_dense_reference(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
) -> EmOutcome {
    run_em(matrix, counts, mstep, x_init, y_init, opts, &mut EmWorkspace::new(), None)
}

#[allow(clippy::too_many_arguments)]
fn run_em(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
    ws: &mut EmWorkspace,
    structure: Option<&StructuredColumns>,
) -> EmOutcome {
    let d_in = matrix.d_in();
    let d_out = matrix.d_out();
    assert_eq!(counts.len(), d_out, "counts length must equal d'");
    assert_eq!(x_init.len(), d_in, "x init length must equal d");
    assert_eq!(y_init.len(), d_out, "y init length must equal d'");
    assert!(
        x_init.iter().chain(y_init.iter()).all(|&v| v >= 0.0 && v.is_finite()),
        "initial histograms must be non-negative"
    );

    ws.prepare(d_in, d_out);
    ws.x.copy_from_slice(x_init);
    ws.y.copy_from_slice(y_init);
    let mut prev_ll = f64::NEG_INFINITY;
    let mut ll = prev_ll;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iters {
        iterations = iter + 1;

        let py_total;
        (ll, py_total) = match structure {
            Some(s) => e_step_structured(s, counts, ws),
            None => e_step_dense(matrix, counts, ws),
        };

        // M-step. Normalizations multiply by a precomputed reciprocal
        // scale — one division per iteration instead of one per component.
        match mstep {
            MStep::Free => {
                let total: f64 = ws.px.iter().sum::<f64>() + py_total;
                if total > 0.0 {
                    let inv = 1.0 / total;
                    for (xk, pxk) in ws.x.iter_mut().zip(ws.px.iter()) {
                        *xk = pxk * inv;
                    }
                    for (yj, pyj) in ws.y.iter_mut().zip(ws.py.iter()) {
                        *yj = pyj * inv;
                    }
                }
            }
            MStep::Constrained { gamma } => {
                let gamma = gamma.clamp(0.0, 1.0);
                let sx: f64 = ws.px.iter().sum();
                let sy: f64 = py_total;
                if sx > 0.0 {
                    let scale = (1.0 - gamma) / sx;
                    for (xk, pxk) in ws.x.iter_mut().zip(ws.px.iter()) {
                        *xk = pxk * scale;
                    }
                }
                if sy > 0.0 {
                    let scale = gamma / sy;
                    for (yj, pyj) in ws.y.iter_mut().zip(ws.py.iter()) {
                        *yj = pyj * scale;
                    }
                } else {
                    // No feasible poison mass (all suppressed or γ=0): put
                    // everything on the normal block so the output remains a
                    // distribution.
                    if sx > 0.0 {
                        let scale = 1.0 / sx;
                        for (xk, pxk) in ws.x.iter_mut().zip(ws.px.iter()) {
                            *xk = pxk * scale;
                        }
                    }
                    ws.y.iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }

        if (ll - prev_ll).abs() < opts.tol {
            converged = true;
            break;
        }
        prev_ll = ll;
    }

    EmOutcome {
        normal: ws.x.clone(),
        poison: ws.y.clone(),
        iterations,
        converged,
        log_likelihood: ll,
    }
}

/// One E-step (structured when the matrix analyzes, dense otherwise) over
/// the workspace's current `(x, y)`, filling `px`/`py`. Returns
/// `(log-likelihood, Σ py)`. Shared with the EMS loop.
pub(crate) fn e_step(
    matrix: &TransformMatrix,
    counts: &[f64],
    ws: &mut EmWorkspace,
) -> (f64, f64) {
    match matrix.structure() {
        Some(s) => e_step_structured(s, counts, ws),
        None => e_step_dense(matrix, counts, ws),
    }
}

/// Dense E-step: `den_i = Σ_k M[i][k]·x_k + y_i`, responsibilities
/// accumulated row by row. Returns `(log-likelihood, Σ py)`.
fn e_step_dense(matrix: &TransformMatrix, counts: &[f64], ws: &mut EmWorkspace) -> (f64, f64) {
    ws.px.iter_mut().for_each(|v| *v = 0.0);
    ws.py.iter_mut().for_each(|v| *v = 0.0);
    let mut ll = 0.0;
    let mut py_total = 0.0;
    #[allow(clippy::needless_range_loop)] // indexes five arrays in lockstep
    for i in 0..matrix.d_out() {
        let row = matrix.normal_row(i);
        let mut den: f64 = row.iter().zip(ws.x.iter()).map(|(m, xv)| m * xv).sum();
        den += ws.y[i];
        let den = den.max(DENSITY_FLOOR);
        let c = counts[i];
        if c > 0.0 {
            ll += c * fast_ln(den);
            let w = c / den;
            for (pxk, (m, xv)) in ws.px.iter_mut().zip(row.iter().zip(ws.x.iter())) {
                *pxk += m * xv * w;
            }
            let pyi = ws.y[i] * w;
            ws.py[i] = pyi;
            py_total += pyi;
        }
    }
    (ll, py_total)
}

/// Structured E-step: the constant floors contribute
/// `base = Σ_k floor_k·x_k` to *every* row, so
///
/// ```text
/// den_i = base + Σ_{k: band_k ∋ i} Δ_k[i]·x_k + y_i
/// px_k  = x_k·(floor_k·Σ_i w_i + Σ_{i ∈ band_k} Δ_k[i]·w_i),  w_i = c_i/den_i
/// ```
///
/// Both band sweeps are contiguous slice kernels (`axpy` scatter, `dot`
/// gather), which is what makes this path vectorize.
fn e_step_structured(
    s: &StructuredColumns,
    counts: &[f64],
    ws: &mut EmWorkspace,
) -> (f64, f64) {
    let base = dot(s.floors(), &ws.x);
    ws.den.iter_mut().for_each(|v| *v = base);
    for (k, &xv) in ws.x.iter().enumerate() {
        let (start, deltas) = s.band(k);
        axpy(&mut ws.den[start..start + deltas.len()], deltas, xv);
    }

    let (ll, w_total, py_total) = likelihood_pass(counts, &ws.den, &ws.y, &mut ws.w, &mut ws.py);

    for (k, pxk) in ws.px.iter_mut().enumerate() {
        let (start, deltas) = s.band(k);
        let band = dot(deltas, &ws.w[start..start + deltas.len()]);
        *pxk = ws.x[k] * (s.floors()[k] * w_total + band);
    }
    (ll, py_total)
}

/// The per-row likelihood/responsibility pass of the structured E-step:
/// `den_i ← max(den_i + y_i, floor)`, `w_i = c_i/den_i`, `py_i = y_i·w_i`,
/// returning `(Σ c_i·ln den_i, Σ w_i, Σ py_i)`.
fn likelihood_pass(
    counts: &[f64],
    den: &[f64],
    y: &[f64],
    w: &mut [f64],
    py: &mut [f64],
) -> (f64, f64, f64) {
    let mut ll = 0.0;
    let mut w_total = 0.0;
    let mut py_total = 0.0;
    let rows = counts
        .iter()
        .zip(den.iter())
        .zip(y.iter())
        .zip(w.iter_mut().zip(py.iter_mut()));
    for (((&c, &den_i), &yi), (wi_slot, pyi_slot)) in rows {
        let den = (den_i + yi).max(DENSITY_FLOOR);
        if c > 0.0 {
            ll += c * fast_ln(den);
            let wi = c / den;
            *wi_slot = wi;
            w_total += wi;
            let pyi = yi * wi;
            *pyi_slot = pyi;
            py_total += pyi;
        } else {
            *wi_slot = 0.0;
            *pyi_slot = 0.0;
        }
    }
    (ll, w_total, py_total)
}

/// Natural log for positive normal doubles, accurate to a few ulp and
/// inlined so the likelihood pass pipelines across buckets (`f64::ln` is an
/// opaque library call the loop cannot overlap). Both E-step paths use it,
/// so the structured/dense equivalence guarantee is unaffected.
///
/// `x = m·2^e` with `m ∈ [√½, √2)`; `ln m = 2·artanh(t)` for
/// `t = (m−1)/(m+1)`, `|t| ≤ 0.1716`, via the odd series through `t¹⁷`
/// (next term < 3e-16 relative).
#[inline]
fn fast_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite() && x >= f64::MIN_POSITIVE);
    let bits = x.to_bits();
    // The exponent stays in `i32`: the `i32 → f64` conversion below has a
    // packed SSE2 encoding, whereas `i64 → f64` is scalar-only below
    // AVX-512DQ and would keep the whole surrounding loop out of vector
    // code. (A finite double's unbiased exponent always fits i32.)
    let e0 = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let m0 = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    // Select, not branch, so the likelihood pass if-converts and the whole
    // loop stays vector code (the produced values are identical either way).
    let big = m0 > std::f64::consts::SQRT_2;
    let m = if big { m0 * 0.5 } else { m0 };
    let e = e0 + big as i32;
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let p = 1.0
        + t2 * (1.0 / 3.0
            + t2 * (1.0 / 5.0
                + t2 * (1.0 / 7.0
                    + t2 * (1.0 / 9.0
                        + t2 * (1.0 / 11.0
                            + t2 * (1.0 / 13.0
                                + t2 * (1.0 / 15.0 + t2 * (1.0 / 17.0))))))));
    2.0 * t * p + e as f64 * std::f64::consts::LN_2
}

/// The E-step's inner vector kernels. `dot` fixes a four-accumulator
/// summation order the compiler can keep in SIMD lanes; `axpy` is
/// element-independent, so the autovectorizer handles it.
pub mod kernels {
    /// `out[i] += a·v[i]` over equal-length slices.
    #[inline]
    pub fn axpy(out: &mut [f64], v: &[f64], a: f64) {
        for (o, &x) in out.iter_mut().zip(v) {
            *o += a * x;
        }
    }

    /// Four-accumulator dot product — a fixed summation order the compiler
    /// can keep in SIMD lanes.
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f64; 4];
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            for j in 0..4 {
                acc[j] += ca[j] * cb[j];
            }
        }
        let mut tail = 0.0;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += x * y;
        }
        (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::PoisonRegion;
    use dap_ldp::PiecewiseMechanism;

    fn pm_matrix(eps: f64, d_in: usize, d_out: usize) -> TransformMatrix {
        let mech = PiecewiseMechanism::with_epsilon(eps).unwrap();
        TransformMatrix::for_numeric(&mech, d_in, d_out, &PoisonRegion::RightOf(0.0))
    }

    #[test]
    fn output_is_a_distribution() {
        let m = pm_matrix(0.5, 8, 32);
        let counts = vec![10.0; 32];
        let out = solve(&m, &counts, MStep::Free, &EmOptions::default());
        let total: f64 = out.normal.iter().sum::<f64>() + out.poison_mass();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(out.normal.iter().all(|&v| v >= 0.0));
        assert!(out.poison.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn constrained_mstep_respects_gamma() {
        let m = pm_matrix(0.5, 8, 32);
        let counts = vec![5.0; 32];
        let gamma = 0.3;
        let out = solve(&m, &counts, MStep::Constrained { gamma }, &EmOptions::default());
        assert!((out.poison_mass() - gamma).abs() < 1e-9);
        assert!((out.normal.iter().sum::<f64>() - (1.0 - gamma)).abs() < 1e-9);
    }

    #[test]
    fn zero_initialized_poison_stays_zero() {
        let m = pm_matrix(0.5, 8, 32);
        let counts = vec![5.0; 32];
        let share = 1.0 / 8.0;
        let x0 = vec![share; 8];
        let mut y0 = vec![0.0; 32];
        // Leave exactly one poison bucket alive.
        let alive = m.poison_buckets()[0];
        y0[alive] = share;
        let out = solve_with_init(
            &m,
            &counts,
            MStep::Constrained { gamma: 0.2 },
            &x0,
            &y0,
            &EmOptions::default(),
        );
        for &j in m.poison_buckets() {
            if j != alive {
                assert_eq!(out.poison[j], 0.0, "suppressed bucket {j} resurrected");
            }
        }
        assert!((out.poison[alive] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn likelihood_is_monotone_under_free_mstep() {
        let m = pm_matrix(1.0, 8, 32);
        // A lopsided count vector.
        let counts: Vec<f64> = (0..32).map(|i| 1.0 + (i as f64) * (i as f64)).collect();
        let opts = EmOptions { tol: 0.0, max_iters: 40 };
        // Track the likelihood trajectory by running with increasing caps.
        let mut prev = f64::NEG_INFINITY;
        for iters in [1usize, 2, 5, 10, 20, 40] {
            let out = solve(&m, &counts, MStep::Free, &EmOptions { max_iters: iters, ..opts });
            assert!(
                out.log_likelihood >= prev - 1e-6,
                "likelihood decreased: {} -> {}",
                prev,
                out.log_likelihood
            );
            prev = out.log_likelihood;
        }
    }

    #[test]
    fn converges_under_paper_stopping_rule() {
        let m = pm_matrix(0.25, 4, 16);
        let counts = vec![100.0; 16];
        let out = solve(&m, &counts, MStep::Free, &EmOptions::paper_default(0.25));
        assert!(out.converged, "no convergence in {} iters", out.iterations);
    }

    #[test]
    fn recovers_pure_poison_spike() {
        // All mass in a single right-side bucket with a near-zero budget:
        // EM should attribute most of it to the poison component of that
        // bucket (Theorem 3 intuition).
        let m = pm_matrix(0.0625, 4, 16);
        let spike = 12; // right-side bucket
        assert!(m.is_poison(spike));
        let mut counts = vec![0.0; 16];
        counts[spike] = 1000.0;
        let out = solve(&m, &counts, MStep::Free, &EmOptions { tol: 1e-9, max_iters: 2000 });
        assert!(
            out.poison[spike] > 0.8,
            "poison mass at spike only {}",
            out.poison[spike]
        );
    }

    #[test]
    fn handles_empty_counts_without_nan() {
        let m = pm_matrix(0.5, 4, 16);
        let counts = vec![0.0; 16];
        let out = solve(&m, &counts, MStep::Free, &EmOptions::default());
        assert!(out.normal.iter().all(|v| v.is_finite()));
        assert!(out.poison.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "counts length")]
    fn rejects_wrong_count_length() {
        let m = pm_matrix(0.5, 4, 16);
        solve(&m, &[1.0; 8], MStep::Free, &EmOptions::default());
    }

    #[test]
    fn fast_ln_matches_libm() {
        let mut x = 1e-300f64;
        while x < 1e3 {
            for scale in [1.0, 1.37, 2.9, 6.02] {
                let v = x * scale;
                let (a, b) = (fast_ln(v), v.ln());
                assert!(
                    (a - b).abs() <= 1e-13 * b.abs().max(1e-3),
                    "fast_ln({v}) = {a} vs {b}"
                );
            }
            x *= 17.0;
        }
    }

    #[test]
    fn workspace_reuse_is_equivalent_across_sizes() {
        let mut ws = EmWorkspace::new();
        for (d_in, d_out) in [(8usize, 32usize), (4, 16), (16, 64)] {
            let m = pm_matrix(0.5, d_in, d_out);
            let counts: Vec<f64> = (0..d_out).map(|i| 1.0 + i as f64).collect();
            let fresh = solve(&m, &counts, MStep::Free, &EmOptions::default());
            let reused = solve_in(&m, &counts, MStep::Free, &EmOptions::default(), &mut ws);
            assert_eq!(fresh.normal, reused.normal);
            assert_eq!(fresh.poison, reused.poison);
            assert_eq!(fresh.iterations, reused.iterations);
        }
    }

    #[test]
    fn structured_path_matches_dense_reference() {
        for eps in [0.0625, 0.5, 2.0] {
            let m = pm_matrix(eps, 8, 32);
            assert!(m.structure().is_some(), "PM should analyze at eps={eps}");
            let counts: Vec<f64> = (0..32).map(|i| ((i * 7) % 13) as f64).collect();
            let share = 1.0 / 24.0;
            let x0 = vec![share; 8];
            let mut y0 = vec![0.0; 32];
            for &j in m.poison_buckets() {
                y0[j] = share;
            }
            let opts = EmOptions { tol: 0.0, max_iters: 25 };
            let fast = solve_with_init(&m, &counts, MStep::Free, &x0, &y0, &opts);
            let dense = solve_dense_reference(&m, &counts, MStep::Free, &x0, &y0, &opts);
            for (a, b) in fast.normal.iter().zip(&dense.normal) {
                assert!((a - b).abs() <= 1e-12, "normal {a} vs {b} (eps={eps})");
            }
            for (a, b) in fast.poison.iter().zip(&dense.poison) {
                assert!((a - b).abs() <= 1e-12, "poison {a} vs {b} (eps={eps})");
            }
        }
    }
}
