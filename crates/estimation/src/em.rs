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
//! The EM loop has one source, compiled twice: once for the default target
//! and once with AVX2 enabled. Each solve takes the AVX2 instance when the
//! CPU has it. Both instances return the same bits, so results do not
//! depend on the host (the unit tests check this on random problems). The
//! dense reference always runs the portable instance.
//!
//! Scratch buffers live in an [`EmWorkspace`] so repeated solves (one per
//! group per trial in the protocol) allocate nothing but their outcome.
//!
//! # Abandoning a fit that cannot win
//!
//! The log-likelihood `ℓ(z) = Σ_i c_i·ln den_i(z)` is concave in the latent
//! histogram `z = (x̂, ŷ)`. Its gradient at the current iterate is what the
//! structured E-step already forms on the way to `px`/`py`:
//! `g_k = floor_k·Σw + Σ_{i ∈ band_k} Δ_k[i]·w_i` for an input bucket and
//! `g_j = w_j` for a poison bucket, with `w_i = c_i/den_i`. Jensen's
//! inequality on `ln` then bounds the log-likelihood of every distribution
//! `z*`:
//!
//! ```text
//! ℓ(z*) ≤ ℓ(z) + N·ln((max_k g_k + F·Σw) / N),   N = Σ_i c_i
//! ```
//!
//! `F·Σw` covers the rows whose density the E-step floors at
//! `F = DENSITY_FLOOR`: it is negligible unless some density is near `F`,
//! and it only ever loosens the bound. [`solve_against_in`] stops a fit as
//! soon as this bound proves it cannot reach a rival fit's log-likelihood;
//! the side probe races its two hypotheses that way. A solve without a
//! rival pays one `max` per input bucket and iteration for it.

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

/// A fit that [`solve_against_in`] stopped early: its likelihood bound
/// proved it could not reach the rival log-likelihood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abandoned {
    /// Iterations performed, the one whose bound fired included.
    pub iterations: usize,
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
    let (x0, y0) = uniform_start(matrix);
    solve_with_init_in(matrix, counts, mstep, &x0, &y0, opts, ws)
}

/// [`solve_in`] for a fit that only matters if it ends at or above `rival`,
/// the log-likelihood of a competing fit of the same counts.
///
/// After each E-step the loop forms the likelihood bound of the module
/// docs and gives up once the bound falls below `rival` by more than
/// rounding can explain. `Err` therefore means that the full fit would have
/// ended strictly below `rival`, and `Ok` carries exactly [`solve_in`]'s
/// outcome. A solve on a matrix without an analyzed structure, or on counts
/// that are not all finite and non-negative, is never abandoned.
pub fn solve_against_in(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    opts: &EmOptions,
    rival: f64,
    ws: &mut EmWorkspace,
) -> Result<EmOutcome, Abandoned> {
    let (x0, y0) = uniform_start(matrix);
    run(matrix, counts, mstep, &x0, &y0, opts, Some(rival), ws)
}

/// Equal mass on every latent component, the start of [`solve_in`].
fn uniform_start(matrix: &TransformMatrix) -> (Vec<f64>, Vec<f64>) {
    let share = 1.0 / (matrix.d_in() + matrix.poison_buckets().len()).max(1) as f64;
    let x0 = vec![share; matrix.d_in()];
    let mut y0 = vec![0.0; matrix.d_out()];
    for &j in matrix.poison_buckets() {
        y0[j] = share;
    }
    (x0, y0)
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
    finished(run(matrix, counts, mstep, x_init, y_init, opts, None, ws))
}

/// Runs the EM loop in the instance this CPU supports best.
#[allow(clippy::too_many_arguments)]
fn run(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
    rival: Option<f64>,
    ws: &mut EmWorkspace,
) -> Result<EmOutcome, Abandoned> {
    let structure = matrix.structure();
    #[cfg(target_arch = "x86_64")]
    if let Some(outcome) =
        run_em_avx2(matrix, counts, mstep, x_init, y_init, opts, rival, ws, structure)
    {
        return outcome;
    }
    run_em_portable(matrix, counts, mstep, x_init, y_init, opts, rival, ws, structure)
}

/// The outcome of a solve without a rival, which nothing abandons.
fn finished(outcome: Result<EmOutcome, Abandoned>) -> EmOutcome {
    outcome.unwrap_or_else(|_| unreachable!("only a solve with a rival is abandoned"))
}

/// The historical dense row-by-row solver, kept as the reference the
/// structured fast path is validated against (it never consults the
/// matrix's analyzed structure). It always runs the portable instance, so
/// its time is a yardstick that does not depend on the CPU's vector
/// extensions.
pub fn solve_dense_reference(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
) -> EmOutcome {
    let ws = &mut EmWorkspace::new();
    finished(run_em_portable(matrix, counts, mstep, x_init, y_init, opts, None, ws, None))
}

/// [`run_em`] compiled for the default target.
#[allow(clippy::too_many_arguments)]
fn run_em_portable(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
    rival: Option<f64>,
    ws: &mut EmWorkspace,
    structure: Option<&StructuredColumns>,
) -> Result<EmOutcome, Abandoned> {
    run_em(matrix, counts, mstep, x_init, y_init, opts, rival, ws, structure)
}

/// [`run_em`] compiled with AVX2 enabled, so the element-wise loops run
/// four lanes wide; `None` where the CPU lacks AVX2. Its outcome is
/// bit-identical to [`run_em_portable`]'s: no reduction is reordered
/// (`dot` fixes its four-accumulator order, and every other sum runs in
/// index order), and Rust never contracts `a*b + c` into an FMA.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn run_em_avx2(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
    rival: Option<f64>,
    ws: &mut EmWorkspace,
    structure: Option<&StructuredColumns>,
) -> Option<Result<EmOutcome, Abandoned>> {
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn instance(
        matrix: &TransformMatrix,
        counts: &[f64],
        mstep: MStep,
        x_init: &[f64],
        y_init: &[f64],
        opts: &EmOptions,
        rival: Option<f64>,
        ws: &mut EmWorkspace,
        structure: Option<&StructuredColumns>,
    ) -> Result<EmOutcome, Abandoned> {
        run_em(matrix, counts, mstep, x_init, y_init, opts, rival, ws, structure)
    }

    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    // SAFETY: `instance` is safe apart from its `target_feature`, whose one
    // requirement, a CPU with AVX2, was checked just above.
    Some(unsafe { instance(matrix, counts, mstep, x_init, y_init, opts, rival, ws, structure) })
}

/// The EM loop. Always inlined, so that each instance above compiles this
/// one body, E-steps and kernels included, for its own instruction set.
/// With a `rival` log-likelihood it also checks the likelihood bound after
/// every E-step ([`solve_against_in`]); the check reads the E-step's
/// results and changes no state, so a fit it does not stop keeps its bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_em(
    matrix: &TransformMatrix,
    counts: &[f64],
    mstep: MStep,
    x_init: &[f64],
    y_init: &[f64],
    opts: &EmOptions,
    rival: Option<f64>,
    ws: &mut EmWorkspace,
    structure: Option<&StructuredColumns>,
) -> Result<EmOutcome, Abandoned> {
    let d_in = matrix.d_in();
    let d_out = matrix.d_out();
    assert_eq!(counts.len(), d_out, "counts length must equal d'");
    assert_eq!(x_init.len(), d_in, "x init length must equal d");
    assert_eq!(y_init.len(), d_out, "y init length must equal d'");
    assert!(
        x_init.iter().chain(y_init.iter()).all(|&v| v >= 0.0 && v.is_finite()),
        "initial histograms must be non-negative"
    );

    // N = Σc for the bound. NaN, which fails every bound test, when a
    // count is negative or not finite: the E-steps skip such rows, and the
    // bound is derived for histograms only.
    let mass = match rival {
        Some(_) if counts.iter().all(|c| (0.0..=f64::MAX).contains(c)) => counts.iter().sum(),
        _ => f64::NAN,
    };

    ws.prepare(d_in, d_out);
    ws.x.copy_from_slice(x_init);
    ws.y.copy_from_slice(y_init);
    let mut prev_ll = f64::NEG_INFINITY;
    let mut ll = prev_ll;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iters {
        iterations = iter + 1;

        let step = match structure {
            Some(s) => e_step_structured(s, counts, ws),
            None => e_step_dense(matrix, counts, ws),
        };
        ll = step.ll;
        let py_total = step.py_total;

        if let Some(rival) = rival {
            let bound = likelihood_bound(&step, matrix.poison_buckets(), &ws.w, mass);
            // Rounding moves ℓ, the bound and either fit's final ℓ by a
            // relative 1e-13 or so; the margin leaves four orders of
            // magnitude to spare. Each test fails on NaN, so odd input
            // never abandons.
            let margin = 1.0 + 1e-9 * (ll.abs() + rival.abs() + mass);
            if ll.is_finite() && mass > 0.0 && bound < rival - margin {
                return Err(Abandoned { iterations });
            }
        }

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

    Ok(EmOutcome {
        normal: ws.x.clone(),
        poison: ws.y.clone(),
        iterations,
        converged,
        log_likelihood: ll,
    })
}

/// The likelihood bound of the module docs at the current iterate: no
/// distribution reaches a log-likelihood above
/// `ℓ + N·ln((max_k g_k + F·Σw)/N)`. `mass` is `N`.
#[inline(always)]
fn likelihood_bound(step: &EStep, poison: &[usize], w: &[f64], mass: f64) -> f64 {
    let g_max = poison.iter().fold(step.g_max, |g, &j| g.max(w[j]));
    step.ll + mass * ((g_max + DENSITY_FLOOR * step.w_total) / mass).ln()
}

/// What one E-step returns.
struct EStep {
    /// Log-likelihood at the current iterate.
    ll: f64,
    /// `Σ py`.
    py_total: f64,
    /// `Σ w` over the rows, for the likelihood bound.
    w_total: f64,
    /// The largest gradient component over the input buckets, for the
    /// likelihood bound; `+∞` from the dense E-step, which does not form
    /// the gradient, so a dense solve is never abandoned.
    g_max: f64,
}

/// One E-step (structured when the matrix analyzes, dense otherwise) over
/// the workspace's current `(x, y)`, filling `px`/`py`. Returns
/// `(log-likelihood, Σ py)`. Shared with the EMS loop.
pub(crate) fn e_step(
    matrix: &TransformMatrix,
    counts: &[f64],
    ws: &mut EmWorkspace,
) -> (f64, f64) {
    let step = match matrix.structure() {
        Some(s) => e_step_structured(s, counts, ws),
        None => e_step_dense(matrix, counts, ws),
    };
    (step.ll, step.py_total)
}

/// Dense E-step: `den_i = Σ_k M[i][k]·x_k + y_i`, responsibilities
/// accumulated row by row.
#[inline(always)]
fn e_step_dense(matrix: &TransformMatrix, counts: &[f64], ws: &mut EmWorkspace) -> EStep {
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
    EStep { ll, py_total, w_total: 0.0, g_max: f64::INFINITY }
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
/// gather), which is what makes this path vectorize. The bracket in `px_k`
/// is the likelihood gradient `g_k`, whose maximum the step also returns.
#[inline(always)]
fn e_step_structured(s: &StructuredColumns, counts: &[f64], ws: &mut EmWorkspace) -> EStep {
    let base = dot(s.floors(), &ws.x);
    ws.den.iter_mut().for_each(|v| *v = base);
    for (k, &xv) in ws.x.iter().enumerate() {
        let (start, deltas) = s.band(k);
        axpy(&mut ws.den[start..start + deltas.len()], deltas, xv);
    }

    let (ll, w_total, py_total) =
        likelihood_pass(counts, &mut ws.den, &ws.y, &mut ws.w, &mut ws.py);

    let mut g_max = f64::NEG_INFINITY;
    for (k, pxk) in ws.px.iter_mut().enumerate() {
        let (start, deltas) = s.band(k);
        let band = dot(deltas, &ws.w[start..start + deltas.len()]);
        let g = s.floors()[k] * w_total + band;
        g_max = g_max.max(g);
        *pxk = ws.x[k] * g;
    }
    EStep { ll, py_total, w_total, g_max }
}

/// The per-row likelihood/responsibility pass of the structured E-step:
/// `den_i ← max(den_i + y_i, floor)`, `w_i = c_i/den_i`, `py_i = y_i·w_i`,
/// returning `(Σ c_i·ln den_i, Σ w_i, Σ py_i)`. Rows with `c_i ≤ 0` get
/// `w_i = py_i = 0` and add nothing.
///
/// Two loops, so the row work vectorizes: running sums carried from row
/// to row would keep the divisions and `fast_ln` scalar. The first loop is
/// element-wise. It writes `w_i`, `py_i` and the log-likelihood term
/// `c_i·ln den_i` (into `den`, which is dead after the pass), selecting
/// zeros for empty rows instead of branching. The second adds the three
/// sums in row order. Each sum adds the same terms in the same order as
/// one fused loop that skips empty rows. An empty row adds `+0.0`, which
/// changes no bit: a sum that starts at `+0.0` is never `-0.0`, since only
/// `-0.0 + -0.0` rounds to `-0.0`. The fused loop stays as a test-only
/// reference (`reference::likelihood_pass`) that checks this.
#[inline(always)]
fn likelihood_pass(
    counts: &[f64],
    den: &mut [f64],
    y: &[f64],
    w: &mut [f64],
    py: &mut [f64],
) -> (f64, f64, f64) {
    let rows = counts
        .iter()
        .zip(den.iter_mut())
        .zip(y.iter())
        .zip(w.iter_mut().zip(py.iter_mut()));
    for (((&c, den_i), &yi), (wi, pyi)) in rows {
        let den = (*den_i + yi).max(DENSITY_FLOOR);
        let w = c / den;
        let term = c * fast_ln(den);
        // All ones for a live row, zero for an empty one: ANDing a value's
        // bits with it yields the value or `+0.0`. Three `if`s would do the
        // same, but SSE2 has no blend, and LLVM then keeps the loop scalar.
        let live = u64::from(c > 0.0).wrapping_neg();
        *wi = f64::from_bits(w.to_bits() & live);
        *pyi = f64::from_bits((yi * w).to_bits() & live);
        *den_i = f64::from_bits(term.to_bits() & live);
    }

    let mut ll = 0.0;
    let mut w_total = 0.0;
    let mut py_total = 0.0;
    for ((&term, &wi), &pyi) in den.iter().zip(w.iter()).zip(py.iter()) {
        ll += term;
        w_total += wi;
        py_total += pyi;
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
#[inline(always)]
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
    #[inline(always)]
    pub fn axpy(out: &mut [f64], v: &[f64], a: f64) {
        for (o, &x) in out.iter_mut().zip(v) {
            *o += a * x;
        }
    }

    /// Four-accumulator dot product — a fixed summation order the compiler
    /// can keep in SIMD lanes.
    #[inline(always)]
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

/// The fused single-loop likelihood pass that [`likelihood_pass`] split in
/// two, kept as the yardstick the split must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{fast_ln, DENSITY_FLOOR};

    pub(super) fn likelihood_pass(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::PoisonRegion;
    use dap_ldp::{
        Duchi, Epsilon, KRandomizedResponse, NumericMechanism, OutputDistribution,
        PiecewiseConstant, PiecewiseMechanism, SquareWave,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A row of the likelihood pass from the shapes that stress it: empty
    /// and huge counts, densities at (or floored to) `DENSITY_FLOOR`, and
    /// rows with no poison mass.
    fn pass_row(rng: &mut StdRng) -> (f64, f64, f64) {
        let c = match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => rng.gen_range(1e12..1e300),
            2 => rng.gen_range(0.0..1.0),
            _ => rng.gen_range(1..2000u32) as f64,
        };
        let den = match rng.gen_range(0..6u32) {
            0 => DENSITY_FLOOR,
            1 => 0.0,
            2 => rng.gen_range(0.0..DENSITY_FLOOR),
            _ => rng.gen_range(1e-6..1.0),
        };
        let y = if rng.gen_bool(0.4) { 0.0 } else { rng.gen_range(0.0..0.5) };
        (c, den, y)
    }

    proptest! {
        /// The split likelihood pass returns the fused loop's bits: the
        /// three sums and every `w_i` and `py_i`.
        #[test]
        fn split_likelihood_pass_matches_fused_loop(seed in 0u64..u64::MAX, rows in 0usize..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut counts, mut den, mut y) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..rows {
                let (c, d, yi) = pass_row(&mut rng);
                counts.push(c);
                den.push(d);
                y.push(yi);
            }
            let (mut w_ref, mut py_ref) = (vec![f64::NAN; rows], vec![f64::NAN; rows]);
            let want = reference::likelihood_pass(&counts, &den, &y, &mut w_ref, &mut py_ref);
            let (mut w, mut py) = (vec![f64::NAN; rows], vec![f64::NAN; rows]);
            let got = likelihood_pass(&counts, &mut den, &y, &mut w, &mut py);
            prop_assert_eq!(
                [got.0.to_bits(), got.1.to_bits(), got.2.to_bits()],
                [want.0.to_bits(), want.1.to_bits(), want.2.to_bits()],
                "(ll, Σw, Σpy): {:?} vs {:?}", got, want
            );
            prop_assert_eq!(bits(&w), bits(&w_ref));
            prop_assert_eq!(bits(&py), bits(&py_ref));
        }
    }

    /// A random EM problem on a PM, SW, Duchi or k-RR matrix: counts with
    /// empty and huge buckets, a start with some poison buckets suppressed,
    /// and either M-step.
    fn random_problem(rng: &mut StdRng) -> (TransformMatrix, Vec<f64>, Vec<f64>, Vec<f64>, MStep) {
        let eps = rng.gen_range(0.0625..4.0);
        let d_in = rng.gen_range(2..24usize);
        let d_out = rng.gen_range(4..160usize);
        let region = match rng.gen_range(0..4u32) {
            0 => PoisonRegion::None,
            1 => PoisonRegion::RightOf(0.0),
            2 => PoisonRegion::LeftOf(rng.gen_range(-0.5..0.5)),
            _ => PoisonRegion::Buckets((0..d_out).filter(|_| rng.gen_bool(0.3)).collect()),
        };
        let numeric = |mech: &dyn NumericMechanism| {
            TransformMatrix::for_numeric(mech, d_in, d_out, &region)
        };
        let matrix = match rng.gen_range(0..4u32) {
            0 => numeric(&PiecewiseMechanism::with_epsilon(eps).unwrap()),
            1 => numeric(&SquareWave::with_epsilon(eps).unwrap()),
            2 => numeric(&Duchi::with_epsilon(eps).unwrap()),
            _ => {
                let k = rng.gen_range(2..40usize);
                let krr = KRandomizedResponse::new(Epsilon::new(eps).unwrap(), k).unwrap();
                let poison: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.3)).collect();
                TransformMatrix::for_categorical(&krr, &poison)
            }
        };
        let counts = (0..matrix.d_out())
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => rng.gen_range(1e6..1e12f64).floor(),
                _ => rng.gen_range(0..500u32) as f64,
            })
            .collect();
        let share = 1.0 / (matrix.d_in() + matrix.poison_buckets().len()) as f64;
        let x0 = vec![share; matrix.d_in()];
        let mut y0 = vec![0.0; matrix.d_out()];
        for &j in matrix.poison_buckets() {
            y0[j] = if rng.gen_bool(0.8) { share } else { 0.0 };
        }
        let mstep = if rng.gen_bool(0.5) {
            MStep::Free
        } else {
            MStep::Constrained { gamma: rng.gen_range(0.0..0.6) }
        };
        (matrix, counts, x0, y0, mstep)
    }

    fn outcome_bits(o: &EmOutcome) -> (Vec<u64>, Vec<u64>, usize, bool, u64) {
        (bits(&o.normal), bits(&o.poison), o.iterations, o.converged, o.log_likelihood.to_bits())
    }

    proptest! {
        /// The portable and AVX2 instances of the EM loop return the same
        /// bits in every outcome field, at fixed caps and under the paper's
        /// stopping rule. The AVX2 arm runs wherever the CPU has AVX2.
        #[test]
        fn em_instances_agree_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (m, counts, x0, y0, mstep) = random_problem(&mut rng);
            let caps = [1, 7, 60].map(|max_iters| EmOptions { tol: 0.0, max_iters });
            let paper = EmOptions::paper_default(rng.gen_range(0.0625..4.0));
            for opts in caps.iter().chain([&paper]) {
                let mut ws = EmWorkspace::new();
                let s = m.structure();
                let portable =
                    finished(run_em_portable(&m, &counts, mstep, &x0, &y0, opts, None, &mut ws, s));
                let public = solve_with_init(&m, &counts, mstep, &x0, &y0, opts);
                prop_assert_eq!(outcome_bits(&public), outcome_bits(&portable));
                #[cfg(target_arch = "x86_64")]
                if let Some(avx2) =
                    run_em_avx2(&m, &counts, mstep, &x0, &y0, opts, None, &mut ws, s)
                {
                    prop_assert_eq!(outcome_bits(&finished(avx2)), outcome_bits(&portable));
                }
            }
        }
    }

    proptest! {
        /// The likelihood bound never undercuts the fit: raced against the
        /// log-likelihood it ends at, a fit is never abandoned and keeps
        /// its bits, so no bound it formed on the way fell below its final
        /// log-likelihood minus the margin. Against a rival far above any
        /// reachable log-likelihood, both instances stop it at the same
        /// iteration.
        #[test]
        fn likelihood_bound_never_undercuts_the_finished_fit(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (m, counts, x0, y0, mstep) = random_problem(&mut rng);
            let caps = [1, 7, 60].map(|max_iters| EmOptions { tol: 0.0, max_iters });
            let paper = EmOptions::paper_default(rng.gen_range(0.0625..4.0));
            let mut ws = EmWorkspace::new();
            for opts in caps.iter().chain([&paper]) {
                let full = finished(run(&m, &counts, mstep, &x0, &y0, opts, None, &mut ws));
                let rival = Some(full.log_likelihood);
                match run(&m, &counts, mstep, &x0, &y0, opts, rival, &mut ws) {
                    Ok(raced) => prop_assert_eq!(outcome_bits(&raced), outcome_bits(&full)),
                    Err(stop) => prop_assert!(
                        false,
                        "abandoned at {} of {} iterations (ℓ {})",
                        stop.iterations, full.iterations, full.log_likelihood
                    ),
                }
                let out_of_reach = Some(full.log_likelihood.abs() * 4.0 + 1e6);
                let s = m.structure();
                let portable =
                    run_em_portable(&m, &counts, mstep, &x0, &y0, opts, out_of_reach, &mut ws, s);
                #[cfg(target_arch = "x86_64")]
                if let Some(avx2) =
                    run_em_avx2(&m, &counts, mstep, &x0, &y0, opts, out_of_reach, &mut ws, s)
                {
                    prop_assert_eq!(
                        avx2.as_ref().map(outcome_bits).map_err(|a| a.iterations),
                        portable.as_ref().map(outcome_bits).map_err(|a| a.iterations)
                    );
                }
            }
        }
    }

    #[test]
    fn a_fit_that_cannot_reach_its_rival_is_abandoned_early() {
        // The wrong-side hypothesis of a right-side attack, raced against
        // the right side's fit: the bound gives it up within a few
        // iterations, where its full fit runs to the cap.
        let mech = PiecewiseMechanism::with_epsilon(0.25).unwrap();
        let left = TransformMatrix::for_numeric(&mech, 8, 64, &PoisonRegion::LeftOf(0.0));
        let right = TransformMatrix::for_numeric(&mech, 8, 64, &PoisonRegion::RightOf(0.0));
        let mut counts = vec![300.0; 64];
        for c in &mut counts[48..] {
            *c += 600.0;
        }
        let opts = EmOptions::paper_default(0.25);
        let mut ws = EmWorkspace::new();
        let kept = solve_in(&right, &counts, MStep::Free, &opts, &mut ws);
        let lost = solve_in(&left, &counts, MStep::Free, &opts, &mut ws);
        assert!(lost.log_likelihood < kept.log_likelihood);
        let rival = kept.log_likelihood;
        let raced = solve_against_in(&left, &counts, MStep::Free, &opts, rival, &mut ws);
        let stop = raced.expect_err("the losing side must be abandoned");
        assert!(
            stop.iterations * 4 < lost.iterations,
            "abandoned after {} of {} iterations",
            stop.iterations,
            lost.iterations
        );
        // Empty counts and a NaN count never abandon, however high the
        // rival.
        for odd in [vec![0.0; 64], {
            let mut c = counts.clone();
            c[3] = f64::NAN;
            c
        }] {
            let out = solve_against_in(&left, &odd, MStep::Free, &opts, 1e300, &mut ws);
            assert!(out.is_ok(), "odd counts abandoned");
        }
    }

    /// Output uniform on `[v − ¼, v + ¼]`, inside an output domain of
    /// `[−2, 2]`: the transform matrix analyzes into narrow bands over a
    /// zero floor, and no input reaches the rows beyond ±1.25.
    struct Window;

    impl NumericMechanism for Window {
        fn epsilon(&self) -> Epsilon {
            Epsilon::new(1.0).unwrap()
        }
        fn input_range(&self) -> (f64, f64) {
            (-1.0, 1.0)
        }
        fn output_range(&self) -> (f64, f64) {
            (-2.0, 2.0)
        }
        fn perturb(&self, v: f64, rng: &mut dyn rand::RngCore) -> f64 {
            v + rng.gen_range(-0.25..0.25)
        }
        fn output_distribution(&self, v: f64) -> OutputDistribution {
            OutputDistribution::Density(PiecewiseConstant::new(vec![v - 0.25, v + 0.25], vec![2.0]))
        }
    }

    #[test]
    fn rows_at_the_density_floor_do_not_abandon_a_fit() {
        // Counts in rows that no component reaches: the E-step floors
        // their density at DENSITY_FLOOR on every iteration. Raced against
        // its own final log-likelihood, the fit must still run in full.
        let m = TransformMatrix::for_numeric(&Window, 8, 32, &PoisonRegion::None);
        assert!(m.structure().is_some(), "the window mechanism should analyze");
        let mut counts: Vec<f64> = (0..32).map(|i| ((i * 7) % 11) as f64).collect();
        counts[0] = 5.0;
        counts[31] = 3.0;
        let mut ws = EmWorkspace::new();
        for opts in [EmOptions { tol: 0.0, max_iters: 60 }, EmOptions::default()] {
            let full = solve_in(&m, &counts, MStep::Free, &opts, &mut ws);
            let rival = full.log_likelihood;
            let raced = solve_against_in(&m, &counts, MStep::Free, &opts, rival, &mut ws)
                .expect("a fit is never abandoned against where it ends");
            assert_eq!(outcome_bits(&raced), outcome_bits(&full));
        }
    }

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
