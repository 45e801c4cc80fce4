//! Shared experiment infrastructure: options, poison-range specs, report
//! simulation, trial loops, and the perf-tracking JSON writer.
//!
//! Trials are embarrassingly parallel — every `(experiment, config, trial)`
//! coordinate derives its own RNG stream — so the trial loops fan out over
//! [`dap_core::parallel_map`] and fold in fixed order; results are
//! bit-identical for any thread count.

use dap_attack::{Anchor, Attack, UniformAttack};
use dap_core::parallel::effective_threads;
use dap_core::{parallel_map, DapConfig, Population, Scheme};
use dap_datasets::Dataset;
use dap_emf::EmfConfig;
use dap_estimation::rng::derive;
use dap_estimation::stats::mean;
use dap_estimation::{cached_for_numeric, Grid, PoisonRegion, TransformMatrix};
use dap_ldp::{Epsilon, NumericMechanism, PiecewiseMechanism};
use rand::rngs::StdRng;
use rand::RngCore;
use std::io::Write;
use std::sync::Arc;

/// Global experiment options parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpOptions {
    /// Total population size N per trial.
    pub n: usize,
    /// Independent trials per configuration (MSE averages over these).
    pub trials: usize,
    /// Master seed; every (experiment, config, trial) derives its own
    /// stream, so results are reproducible and order-independent.
    pub seed: u64,
    /// Cap on the EMF output-bucket count.
    pub max_d_out: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { n: 20_000, trials: 3, seed: 42, max_d_out: 128 }
    }
}

impl ExpOptions {
    /// Parses `--n`, `--trials`, `--seed`, `--max-dout`, `--paper-scale`
    /// from an argument list. An **unknown** `--flag` is an error — a typo
    /// like `--trails 10` must not silently run the default — and a
    /// recognized flag whose value is missing or fails to parse is an
    /// error naming the flag (`--n 20k` must not silently run the default
    /// N). Non-flag tokens (the experiment id, file paths) are skipped.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        Self::parse_allowing(args, &[])
    }

    /// [`ExpOptions::parse`] with an allowlist of additional flags owned
    /// by the caller (the `experiments` binary passes its own — e.g.
    /// `--shard`, `--out` — here; their values never start with `--`, so
    /// they are skipped as non-flag tokens).
    pub fn parse_allowing(args: &[String], allowed: &[&str]) -> Result<Self, String> {
        fn grab<T: std::str::FromStr>(
            flag: &str,
            value: Option<&String>,
        ) -> Result<T, String> {
            let v = value.ok_or_else(|| format!("flag {flag} is missing its value"))?;
            v.parse::<T>()
                .map_err(|_| format!("invalid value '{v}' for flag {flag}"))
        }

        let mut opts = ExpOptions::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--n" => opts.n = grab("--n", it.next())?,
                "--trials" => opts.trials = grab("--trials", it.next())?,
                "--max-dout" => opts.max_d_out = grab("--max-dout", it.next())?,
                "--seed" => opts.seed = grab("--seed", it.next())?,
                "--paper-scale" => {
                    opts.n = 1_000_000;
                    opts.max_d_out = 512;
                }
                flag if flag.starts_with("--") && !allowed.contains(&flag) => {
                    return Err(format!(
                        "unknown flag {flag}; run `experiments help` for the flag list"
                    ));
                }
                _ => {} // positional token (experiment id, shard file, …)
            }
        }
        Ok(opts)
    }
}

/// The paper's default DAP deployment for one experiment cell, with the
/// harness's `d'` cap applied — hoisted here because every figure driver
/// spelled this struct update out by hand.
pub fn dap_config(opts: &ExpOptions, eps: f64, scheme: Scheme) -> DapConfig {
    DapConfig { max_d_out: opts.max_d_out, ..DapConfig::paper_default(eps, scheme) }
}

/// EMF sizing, report histogram and (cached) transform matrix for one batch
/// of reports — the setup block the figure drivers used to inline.
pub fn emf_setup(
    mech: &dyn NumericMechanism,
    reports: &[f64],
    eps: f64,
    max_d_out: usize,
    region: &PoisonRegion,
) -> (EmfConfig, Vec<f64>, Arc<TransformMatrix>) {
    let cfg = EmfConfig::capped(reports.len(), eps, max_d_out);
    let (olo, ohi) = mech.output_range();
    let counts = Grid::new(olo, ohi, cfg.d_out).counts(reports);
    let matrix = cached_for_numeric(mech, cfg.d_in, cfg.d_out, region);
    (cfg, counts, matrix)
}

/// The paper's four poison ranges over `[O', C]` (right side, `O' = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoiRange {
    /// `Poi[3C/4, C]`.
    TopQuarter,
    /// `Poi[C/2, C]`.
    TopHalf,
    /// `Poi[O, C/2]`.
    LowerHalf,
    /// `Poi[O, C]`.
    Full,
}

impl PoiRange {
    /// All four, in Fig. 6's order.
    pub const ALL: [PoiRange; 4] =
        [PoiRange::TopQuarter, PoiRange::TopHalf, PoiRange::LowerHalf, PoiRange::Full];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            PoiRange::TopQuarter => "[3C/4,C]",
            PoiRange::TopHalf => "[C/2,C]",
            PoiRange::LowerHalf => "[O,C/2]",
            PoiRange::Full => "[O,C]",
        }
    }

    /// Fractions of `C` for the range ends.
    pub fn fractions(self) -> (f64, f64) {
        match self {
            PoiRange::TopQuarter => (0.75, 1.0),
            PoiRange::TopHalf => (0.5, 1.0),
            PoiRange::LowerHalf => (0.0, 0.5),
            PoiRange::Full => (0.0, 1.0),
        }
    }

    /// The uniform attack over this range (mechanism-relative).
    pub fn attack(self) -> UniformAttack {
        let (a, b) = self.fractions();
        // `Abs(0.0)` for the O-anchored lower ends keeps the range valid
        // for every group budget.
        if a == 0.0 {
            UniformAttack::new(Anchor::Abs(0.0), Anchor::OfUpper(b))
        } else {
            UniformAttack::of_upper(a, b)
        }
    }
}

/// Perturbs every value once through the mechanism's monomorphic batch API
/// ([`NumericMechanism::perturb_into`]), returning one report per value.
pub fn perturb_all<M: NumericMechanism, R: RngCore>(
    mech: &M,
    values: &[f64],
    rng: &mut R,
) -> Vec<f64> {
    let mut reports = vec![0.0; values.len()];
    for (slot, &v) in reports.chunks_exact_mut(1).zip(values) {
        mech.perturb_into(v, slot, rng);
    }
    reports
}

/// Simulates a single-batch collection at budget `eps`: honest users perturb
/// once with PM, the coalition attacks. Returns `(reports, honest_mean)`.
pub fn simulate_batch<R: RngCore>(
    dataset: Dataset,
    n: usize,
    gamma: f64,
    eps: f64,
    attack: &dyn Attack,
    rng: &mut R,
) -> (Vec<f64>, f64) {
    let m = (n as f64 * gamma).round() as usize;
    let honest = dataset.generate_signed(n - m, rng);
    let truth = mean(&honest);
    let mech = PiecewiseMechanism::new(Epsilon::of(eps));
    let mut reports = perturb_all(&mech, &honest, rng);
    reports.extend(attack.reports(m, &mech, rng));
    (reports, truth)
}

/// Builds a population for protocol-level experiments. Returns
/// `(population, honest_mean)`.
pub fn build_population<R: RngCore + ?Sized>(
    dataset: Dataset,
    n: usize,
    gamma: f64,
    rng: &mut R,
) -> (Population, f64) {
    let m = (n as f64 * gamma).round() as usize;
    let honest = dataset.generate_signed(n - m, rng);
    let truth = mean(&honest);
    (Population { honest, byzantine: m }, truth)
}

/// The RNG stream for trial `t` of the experiment coordinate `stream`.
///
/// Concrete (not `dyn`) so the protocol's RNG-generic hot paths
/// monomorphize all the way down to inlined draws.
pub fn trial_rng(opts: &ExpOptions, stream: u64, t: usize) -> StdRng {
    derive(opts.seed, stream.wrapping_mul(1_000_003).wrapping_add(t as u64))
}

/// Runs `trials` evaluations of `f` with derived RNG streams and returns the
/// MSE of the produced estimates against the per-trial truth. Trials run in
/// parallel; the fold order is fixed, so the result is thread-count
/// independent.
pub fn mse_over_trials<F>(opts: &ExpOptions, stream: u64, f: F) -> f64
where
    F: Fn(&mut StdRng) -> (f64, f64) + Sync, // (estimate, truth)
{
    let results = parallel_map((0..opts.trials).collect(), |t| {
        let mut rng = trial_rng(opts, stream, t);
        f(&mut rng)
    });
    let se: f64 = results.iter().map(|(est, truth)| (est - truth) * (est - truth)).sum();
    se / opts.trials as f64
}

/// [`mses_over_trials`] whose closure also receives the trial index, for
/// drivers that pre-compute shared per-trial inputs (e.g. one population
/// serving several experiment columns).
pub fn mses_over_trials_indexed<F>(
    opts: &ExpOptions,
    stream: u64,
    variants: usize,
    f: F,
) -> Vec<f64>
where
    F: Fn(usize, &mut StdRng) -> (Vec<f64>, f64) + Sync, // (estimates, truth)
{
    let results = parallel_map((0..opts.trials).collect(), |t| {
        let mut rng = trial_rng(opts, stream, t);
        f(t, &mut rng)
    });
    let mut mses = vec![0.0; variants];
    for (estimates, truth) in &results {
        assert_eq!(estimates.len(), variants, "variant count mismatch");
        for (m, est) in mses.iter_mut().zip(estimates) {
            *m += (est - truth) * (est - truth);
        }
    }
    mses.iter_mut().for_each(|m| *m /= opts.trials as f64);
    mses
}

/// Multi-variant trial loop: `f` produces one estimate per variant from the
/// *same* simulated data (common random numbers — e.g. every DAP scheme on
/// one shared protocol execution, or every defense on one shared batch).
/// Returns the per-variant MSEs, in `f`'s output order.
pub fn mses_over_trials<F>(opts: &ExpOptions, stream: u64, variants: usize, f: F) -> Vec<f64>
where
    F: Fn(&mut StdRng) -> (Vec<f64>, f64) + Sync, // (estimates, truth)
{
    mses_over_trials_indexed(opts, stream, variants, |_, rng| f(rng))
}

/// Per-trial means of arbitrary per-variant statistics (no truth/MSE
/// folding) — used for `|γ̂ − γ|`-style panels.
pub fn means_over_trials<F>(opts: &ExpOptions, stream: u64, variants: usize, f: F) -> Vec<f64>
where
    F: Fn(&mut StdRng) -> Vec<f64> + Sync,
{
    let results = parallel_map((0..opts.trials).collect(), |t| {
        let mut rng = trial_rng(opts, stream, t);
        f(&mut rng)
    });
    let mut acc = vec![0.0; variants];
    for stats in &results {
        assert_eq!(stats.len(), variants, "variant count mismatch");
        for (a, s) in acc.iter_mut().zip(stats) {
            *a += s;
        }
    }
    acc.iter_mut().for_each(|a| *a /= opts.trials as f64);
    acc
}

/// The paper's scheme labels next to baselines, for table headers.
pub fn scheme_columns() -> Vec<String> {
    let mut cols: Vec<String> = Scheme::ALL.iter().map(|s| s.label().to_string()).collect();
    cols.push("Ostrich".into());
    cols.push("Trimming".into());
    cols
}

/// Formats an MSE in the paper's scientific style.
pub fn sci(v: f64) -> String {
    format!("{v:9.2e}")
}

/// A mechanism-agnostic stable stream id from experiment coordinates.
pub fn stream_id(parts: &[usize]) -> u64 {
    parts
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, &p| {
            (acc ^ p as u64).wrapping_mul(0x1000_0000_01b3)
        })
}

/// Wall-clock (ms) of a fixed-iteration dense-reference EM solve at the
/// fig7 working shape (`d_in = 16`, `d' = 128`, 40 pinned iterations),
/// median of three runs.
///
/// This is the same-run calibration yardstick the fig7 perf gate divides
/// by: the yardstick and the measured experiment run on the same machine
/// moments apart, so container-speed drift cancels out of the
/// `median / calib` ratio, while a real regression in the measured path
/// (which the dense reference never takes — it ignores the analyzed band
/// structure and the report cache alike) moves the ratio.
pub fn calibrate_dense_solve_ms() -> f64 {
    use dap_estimation::em::{self, EmOptions, MStep};
    let mech = PiecewiseMechanism::with_epsilon(1.0).expect("ε=1 is valid");
    let (d_in, d_out) = (16, 128);
    let matrix = cached_for_numeric(&mech, d_in, d_out, &PoisonRegion::RightOf(0.0));
    // Any strictly positive histogram exercises the full arithmetic;
    // `tol = 0` pins the iteration count, so convergence luck cannot move
    // the yardstick. The hump mimics a unimodal report histogram.
    let counts: Vec<f64> = (0..d_out)
        .map(|j| 1.0 + 150.0 * (-((j as f64 - 64.0) / 20.0).powi(2)).exp())
        .collect();
    let share = 1.0 / (d_in + matrix.poison_buckets().len()).max(1) as f64;
    let x0 = vec![share; d_in];
    let mut y0 = vec![0.0; d_out];
    for &j in matrix.poison_buckets() {
        y0[j] = share;
    }
    // 2000 pinned iterations put the yardstick around 5–10 ms on the CI
    // container — long enough that timer granularity and scheduler noise
    // are well under 1% of the reading, short enough to stay negligible
    // next to the experiment it normalizes.
    let opts = EmOptions { tol: 0.0, max_iters: 2000 };
    let mut times = [0.0f64; 3];
    for slot in &mut times {
        let start = std::time::Instant::now();
        std::hint::black_box(em::solve_dense_reference(
            &matrix,
            &counts,
            MStep::Free,
            &x0,
            &y0,
            &opts,
        ));
        *slot = start.elapsed().as_secs_f64() * 1e3;
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    times[1]
}

/// The PR-over-PR baseline history for one bench file: every re-baseline
/// appends the fresh median to the previous file's `trend_wall_ms` array
/// (seeded from its bare `median_wall_ms` when the old schema carried no
/// trend yet), so a drifting machine shows up as a drifting series rather
/// than a silently moved goalpost.
fn bench_trend(previous: &str, fresh_median: f64) -> Vec<String> {
    let mut trend: Vec<String> = previous
        .split("\"trend_wall_ms\": [")
        .nth(1)
        .and_then(|tail| tail.split(']').next())
        .map(|list| {
            list.split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect()
        })
        .unwrap_or_default();
    if trend.is_empty() {
        if let Some(prev) = previous
            .split("\"median_wall_ms\": ")
            .nth(1)
            .and_then(|tail| tail.split([',', '\n']).next())
        {
            let prev = prev.trim();
            if !prev.is_empty() {
                trend.push(prev.to_string());
            }
        }
    }
    trend.push(format!("{fresh_median:.1}"));
    trend
}

/// Writes the perf-tracking JSON for one experiment run: the options it ran
/// under, the wall-clock of each repeat with the median the CI trend tracks
/// (`bench_trend` carries the re-baseline history forward), and the
/// same-run calibration yardstick with the `median / calib` ratio the perf
/// gate compares across machines. The run's worker-thread count is among
/// the options: the median is a parallel wall time and the yardstick a
/// one-thread solve, so the ratio compares only at equal thread counts.
/// Hand-rolled JSON — the workspace has no serde.
pub fn write_bench_json(
    path: &str,
    experiment: &str,
    opts: &ExpOptions,
    runs_ms: &[f64],
    calib_ms: f64,
) -> std::io::Result<()> {
    assert!(!runs_ms.is_empty(), "need at least one timed run");
    assert!(calib_ms > 0.0, "calibration must be a positive wall-clock");
    let mut sorted = runs_ms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let median = sorted[sorted.len() / 2];
    let runs: Vec<String> = runs_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    let trend = bench_trend(&std::fs::read_to_string(path).unwrap_or_default(), median);
    let json = format!(
        "{{\n  \"experiment\": \"{}\",\n  \"n\": {},\n  \"trials\": {},\n  \"seed\": {},\n  \"max_d_out\": {},\n  \"threads\": {},\n  \"median_wall_ms\": {:.1},\n  \"runs_wall_ms\": [{}],\n  \"trend_wall_ms\": [{}],\n  \"calib_wall_ms\": {:.1},\n  \"median_over_calib\": {:.3}\n}}\n",
        experiment,
        opts.n,
        opts.trials,
        opts.seed,
        opts.max_d_out,
        effective_threads(),
        median,
        runs.join(", "),
        trend.join(", "),
        calib_ms,
        median / calib_ms,
    );
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::rng::seeded;

    #[test]
    fn parse_reads_flags_and_skips_positionals() {
        let args: Vec<String> =
            ["fig7", "--n", "5000", "--trials", "7", "--seed", "9", "--max-dout", "32"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let opts = ExpOptions::parse(&args).expect("valid flags");
        assert_eq!(opts.n, 5000);
        assert_eq!(opts.trials, 7);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.max_d_out, 32);
    }

    #[test]
    fn parse_rejects_unknown_flags_unless_allowlisted() {
        let args: Vec<String> =
            ["--trails", "10"].iter().map(|s| s.to_string()).collect();
        let err = ExpOptions::parse(&args).expect_err("typo'd flag must not run defaults");
        assert!(err.contains("--trails"), "unhelpful error: {err}");

        let args: Vec<String> =
            ["--shard", "0/2", "--n", "5000"].iter().map(|s| s.to_string()).collect();
        assert!(ExpOptions::parse(&args).is_err(), "--shard is the binary's, not ours");
        let opts =
            ExpOptions::parse_allowing(&args, &["--shard"]).expect("allowlisted flag");
        assert_eq!(opts.n, 5000);
    }

    #[test]
    fn parse_rejects_bad_values_naming_the_flag() {
        let args: Vec<String> = ["--n", "20k"].iter().map(|s| s.to_string()).collect();
        let err = ExpOptions::parse(&args).expect_err("20k is not a count");
        assert!(err.contains("--n") && err.contains("20k"), "unhelpful error: {err}");

        let args: Vec<String> = ["--trials"].iter().map(|s| s.to_string()).collect();
        let err = ExpOptions::parse(&args).expect_err("missing value");
        assert!(err.contains("--trials"), "unhelpful error: {err}");

        let args: Vec<String> = ["--seed", "-3"].iter().map(|s| s.to_string()).collect();
        assert!(ExpOptions::parse(&args).is_err(), "negative seed must not parse");
    }

    #[test]
    fn paper_scale_flag() {
        let args: Vec<String> = ["--paper-scale"].iter().map(|s| s.to_string()).collect();
        let opts = ExpOptions::parse(&args).expect("valid flags");
        assert_eq!(opts.n, 1_000_000);
    }

    #[test]
    fn poi_ranges_resolve_inside_domain() {
        let mech = PiecewiseMechanism::with_epsilon(1.0).unwrap();
        let mut rng = seeded(1);
        for range in PoiRange::ALL {
            let reports = range.attack().reports(100, &mech, &mut rng);
            let (lo_f, hi_f) = range.fractions();
            let (lo, hi) = (lo_f * mech.c(), hi_f * mech.c());
            assert!(
                reports.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9),
                "{}",
                range.label()
            );
        }
    }

    #[test]
    fn simulate_batch_report_count() {
        let mut rng = seeded(2);
        let attack = PoiRange::TopHalf.attack();
        let (reports, truth) = simulate_batch(Dataset::Beta25, 1000, 0.25, 1.0, &attack, &mut rng);
        assert_eq!(reports.len(), 1000);
        assert!((-1.0..=1.0).contains(&truth));
    }

    #[test]
    fn mse_over_trials_is_deterministic() {
        let opts = ExpOptions { trials: 3, ..ExpOptions::default() };
        let f = |rng: &mut StdRng| {
            use rand::Rng;
            (rng.gen::<f64>(), 0.5)
        };
        let a = mse_over_trials(&opts, 17, f);
        let b = mse_over_trials(&opts, 17, f);
        assert_eq!(a, b);
        let c = mse_over_trials(&opts, 18, f);
        assert_ne!(a, c);
    }

    #[test]
    fn multi_variant_trials_match_single_variant_loops() {
        let opts = ExpOptions { trials: 4, ..ExpOptions::default() };
        let multi = mses_over_trials(&opts, 23, 2, |rng| {
            use rand::Rng;
            let x: f64 = rng.gen();
            (vec![x, x * 2.0], 0.5)
        });
        let single = mse_over_trials(&opts, 23, |rng| {
            use rand::Rng;
            (rng.gen::<f64>(), 0.5)
        });
        // The first variant consumes the same stream as the single loop.
        assert_eq!(multi[0], single);
        assert_ne!(multi[0], multi[1]);
    }

    #[test]
    fn stream_ids_differ() {
        assert_ne!(stream_id(&[1, 2, 3]), stream_id(&[3, 2, 1]));
        assert_ne!(stream_id(&[0]), stream_id(&[1]));
    }

    #[test]
    fn bench_json_shape() {
        let opts = ExpOptions::default();
        let path = std::env::temp_dir().join("dap_bench_json_test.json");
        let path = path.to_str().expect("utf8 temp path");
        std::fs::remove_file(path).ok();
        write_bench_json(path, "fig7", &opts, &[30.0, 10.0, 20.0], 8.0).expect("writable");
        let body = std::fs::read_to_string(path).expect("readable");
        assert!(body.contains("\"experiment\": \"fig7\""));
        assert!(body.contains("\"median_wall_ms\": 20.0"));
        assert!(body.contains("[30.0, 10.0, 20.0]"));
        assert!(body.contains("\"trend_wall_ms\": [20.0]"));
        assert!(body.contains("\"calib_wall_ms\": 8.0"));
        assert!(body.contains("\"median_over_calib\": 2.500"));
        assert!(body.contains(&format!("\"threads\": {},", effective_threads())), "{body}");
        // A re-baseline appends to the trend, never rewrites history.
        write_bench_json(path, "fig7", &opts, &[25.0], 10.0).expect("writable");
        let body = std::fs::read_to_string(path).expect("readable");
        assert!(body.contains("\"trend_wall_ms\": [20.0, 25.0]"), "got: {body}");
        assert!(body.contains("\"median_over_calib\": 2.500"), "got: {body}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn calibration_yardstick_is_a_positive_wall_clock() {
        let ms = calibrate_dense_solve_ms();
        assert!(ms.is_finite() && ms > 0.0, "got {ms}");
    }

    #[test]
    fn bench_trend_seeds_from_a_pre_trend_baseline() {
        // The seed-era schema carried only `median_wall_ms`; the first
        // re-baseline promotes it to the trend's opening entry.
        let old = "{\n  \"median_wall_ms\": 217.8,\n  \"runs_wall_ms\": [217.8]\n}\n";
        assert_eq!(bench_trend(old, 252.3), vec!["217.8", "252.3"]);
        // And with a trend present, the bare median is ignored.
        let with = "{\n  \"median_wall_ms\": 252.3,\n  \"trend_wall_ms\": [217.8, 252.3]\n}\n";
        assert_eq!(bench_trend(with, 240.0), vec!["217.8", "252.3", "240.0"]);
        assert_eq!(bench_trend("", 10.0), vec!["10.0"]);
    }
}
