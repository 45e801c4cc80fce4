//! The two figure-sweep workloads: `fig7-warm` and `paper-all`.
//!
//! Both run the experiment engine (`dap_bench::engine`) over the cells
//! `experiments` enumerates, at the options the workload fixes, with the
//! workload seed as the experiment seed.

use crate::metrics::Outcome;
use crate::stats::{describe, median, percentile};
use crate::sys::derive;
use crate::trace::Tracer;
use crate::{repetitions, Config, PeakRss, Scale};
use dap_attack::Side;
use dap_bench::cell::{AttackSpec, Cell, CellKind, ExperimentId, MechKind};
use dap_bench::common::{trial_rng, ExpOptions};
use dap_bench::engine::{run_cells_subset, CellResult, ResultMap};
use dap_bench::report_cache::{ReportCache, ReportCoord, ReportMech};
use dap_core::scheme::estimate_group_means_hist;
use dap_core::sw::SwDapConfig;
use dap_core::{Dap, DapConfig, DapSession, PreparedReports, Scheme};
use dap_datasets::cache::Domain;
use dap_datasets::{Dataset, PopulationCache};
use dap_defenses::{KMeansDefense, MeanDefense, Ostrich, Trimming};
use dap_emf::{cemf_star, cemf_star_threshold, emf, emf_star, probe_side, EmfConfig};
use dap_estimation::{cached_for_numeric, EmOutcome, EmWorkspace, MatrixCache, PoisonRegion};
use dap_ldp::{Duchi, Epsilon, NumericMechanism, PiecewiseMechanism};
use rand::RngCore;
use std::ops::Range;
use std::time::Instant;

/// Cold `fig7` passes per run, each on its own derived seed. Their median
/// is `setup_s`; their DAP rows together give `est_mse`.
const COLD_PASSES: usize = 5;
/// `paper-all` sweeps whose DAP rows give `est_mse`, each on its own
/// derived seed.
const ACCURACY_SWEEPS: usize = 2;
/// The fewest `paper-all` sweeps a run makes: the set-up sweep and two
/// timed ones.
const MIN_SWEEPS: usize = 3;
/// Nominal seconds of a warm `fig7` pass and of a `paper-all` sweep on the
/// reference host (2 cores), which set the repetition counts.
const WARM_PASS_S: f64 = 0.16;
const SWEEP_S: f64 = 8.5;
/// Cells a traced sweep fills and runs at once: their report-cache entries
/// fit the cache's 256, so the engine spans never refill an evicted entry.
const TRACED_CHUNK: usize = 16;

/// The engine options of a workload pass: the `BENCH_fig7.json` settings
/// (N = 20 000, 3 trials, d′ ≤ 128) at full scale.
fn options(scale: Scale, seed: u64) -> ExpOptions {
    match scale {
        Scale::Full => ExpOptions {
            n: 20_000,
            trials: 3,
            seed,
            max_d_out: 128,
        },
        Scale::Tiny => ExpOptions {
            n: 1_500,
            trials: 1,
            seed,
            max_d_out: 32,
        },
    }
}

/// The experiments of a workload, each with its cell range.
struct Sweep {
    cells: Vec<Cell>,
    segments: Vec<(ExperimentId, Range<usize>)>,
}

impl Sweep {
    fn enumerate(ids: &[ExperimentId], opts: &ExpOptions) -> Sweep {
        let mut cells = Vec::new();
        let mut segments = Vec::new();
        for &id in ids {
            let start = cells.len();
            cells.extend(id.cells(opts));
            segments.push((id, start..cells.len()));
        }
        Sweep { cells, segments }
    }

    /// User reports the engine consumes in one pass: every rep of every
    /// cell reads one N-user batch.
    fn reports(&self, opts: &ExpOptions) -> f64 {
        self.cells
            .iter()
            .map(|c| (c.reps(opts) * opts.n) as f64)
            .sum()
    }
}

/// Empties the three process-wide caches a fresh `experiments` process
/// starts without.
fn clear_caches() {
    PopulationCache::global().clear();
    ReportCache::global().clear();
    MatrixCache::global().clear();
}

/// How many leading values of a cell are DAP-scheme MSE rows.
fn dap_rows(cell: &Cell) -> usize {
    match &cell.kind {
        CellKind::PmMse { schemes, .. } => schemes.schemes().len(),
        CellKind::SwMse { .. } => Scheme::ALL.len(),
        _ => 0,
    }
}

/// The `engine.<kind>_s` bucket of a cell kind.
fn kind_bucket(cell: &Cell) -> &'static str {
    match cell.kind.kind_name() {
        "pm-mse" => "pm-mse",
        "kmeans" => "kmeans",
        "cat-dap" => "cat-dap",
        "sw-mse" => "sw-mse",
        "gamma-hat" => "gamma-hat",
        _ => "other",
    }
}

const KIND_BUCKETS: [(&str, &str); 6] = [
    ("pm-mse", "engine.pm-mse_s"),
    ("kmeans", "engine.kmeans_s"),
    ("cat-dap", "engine.cat-dap_s"),
    ("sw-mse", "engine.sw-mse_s"),
    ("gamma-hat", "engine.gamma-hat_s"),
    ("other", "engine.other_s"),
];

/// Output check shared by every pass: each cell value is finite.
fn check_finite(results: &[CellResult], cells: &[Cell], out: &mut Outcome) -> u64 {
    let mut bad = 0;
    for r in results {
        if r.values.iter().any(|v| !v.is_finite()) {
            bad += 1;
            out.problem(format!("cell {:?} has a non-finite value", cells[r.index]));
        }
    }
    bad
}

fn same_bits(a: &[CellResult], b: &[CellResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.index == y.index
                && x.values.len() == y.values.len()
                && x.values
                    .iter()
                    .zip(&y.values)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Runs the cells at `indices` as the engine does, or — traced — one
/// engine call per kind bucket, each in its own span.
fn run_engine(
    tracer: &Tracer,
    opts: &ExpOptions,
    cells: &[Cell],
    indices: &[usize],
) -> Vec<CellResult> {
    if !tracer.enabled() {
        return run_cells_subset(opts, cells, indices);
    }
    let mut results = Vec::with_capacity(indices.len());
    for (bucket, _) in KIND_BUCKETS {
        let mine: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| kind_bucket(&cells[i]) == bucket)
            .collect();
        if !mine.is_empty() {
            results.extend(tracer.span("engine", bucket, || run_cells_subset(opts, cells, &mine)));
        }
    }
    results.sort_by_key(|r| r.index);
    results
}

/// `fig7-warm`: a few cold passes (the set-up a fresh process pays), then
/// warm passes over the last cold pass's seed until the run time is up.
pub fn fig7_warm(cfg: &Config, tracer: &Tracer, out: &mut Outcome) {
    let ids = [ExperimentId::Fig7];
    let sweep = Sweep::enumerate(&ids, &options(cfg.scale, cfg.seed));
    let all: Vec<usize> = (0..sweep.cells.len()).collect();
    let cold_passes = if cfg.trace { 1 } else { COLD_PASSES };

    let mut setup = Vec::new();
    let mut rows = Vec::new();
    let mut cold = (options(cfg.scale, cfg.seed), Vec::new());
    PopulationCache::global().reset_stats();
    ReportCache::global().reset_stats();
    for pass in 0..cold_passes {
        let opts = options(cfg.scale, derive(cfg.seed, pass as u64));
        clear_caches();
        let start = Instant::now();
        let results = tracer.span("bench", "cold-pass", || {
            if tracer.enabled() {
                prefill(tracer, &opts, &sweep.cells);
            }
            run_engine(tracer, &opts, &sweep.cells, &all)
        });
        setup.push(start.elapsed().as_secs_f64());
        out.attempted += results.len() as u64;
        out.failed += check_finite(&results, &sweep.cells, out);
        collect_rows(&sweep.cells, &results, &mut rows);
        cold = (opts, results);
    }
    let (opts, cold) = cold;
    let warm_mark = tracer.mark();

    // Warm passes. Traced runs alternate an untraced and a traced pass so
    // the overhead compares neighbours.
    let reports = sweep.reports(&opts);
    let (mut sweeps, mut rounds, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut rss = PeakRss::default();
    let passes = repetitions(cfg, WARM_PASS_S, 3);
    for pass in 0..passes {
        let traced_pass = cfg.trace && pass % 2 == 1;
        let off = Tracer::new(false, 0);
        let t = if traced_pass { tracer } else { &off };
        let start = Instant::now();
        let (results, exec) = rss.measure(|| {
            let results = t.span("bench", "warm-pass", || {
                run_engine(t, &opts, &sweep.cells, &all)
            });
            let exec = start.elapsed().as_secs_f64();
            std::hint::black_box(
                ExperimentId::Fig7.render(&opts, &ResultMap::from_results(&results)),
            );
            (results, exec)
        });
        let round = start.elapsed().as_secs_f64();
        out.attempted += results.len() as u64;
        out.failed += check_finite(&results, &sweep.cells, out);
        if !same_bits(&results, &cold) {
            out.failed += 1;
            out.problem(format!("warm pass {pass} differs from the cold pass"));
        }
        if traced_pass {
            traced.push(exec);
        } else {
            sweeps.push(exec);
            rounds.push(round);
            rps.push(reports / exec);
        }
    }

    let v = &mut out.values;
    if cfg.trace {
        let n = traced.len().max(1) as f64;
        for (bucket, name) in KIND_BUCKETS {
            v.set(name, tracer.total_since(warm_mark, "engine", bucket).0 / n);
        }
        v.set("engine.cells", sweep.cells.len() as f64);
        v.set("trace.overhead_s", median(&traced) - median(&sweeps));
        cache_metrics(tracer, out);
        tracer.span("bench", "probes", || {
            probe_layers(tracer, &opts, &sweep.cells, usize::MAX, out)
        });
    } else {
        v.set("sweep_s", median(&sweeps));
        v.set("round_s", median(&rounds));
        v.set("ingest_rps", median(&rps));
        let acks: Vec<f64> = rounds.iter().map(|s| s * 1e3).collect();
        v.set("ack_p50_ms", percentile(&acks, 50.0));
        v.set("ack_p99_ms", percentile(&acks, 99.0));
        v.set("setup_s", median(&setup));
        v.set("est_mse", mean(&rows));
        rss.report(out);
    }
    println!(
        "# fig7-warm: {} cold passes, {passes} warm passes, {} cells each; untraced warm pass s: {}",
        setup.len(),
        sweep.cells.len(),
        describe(&sweeps)
    );
}

/// `paper-all`: every cell of `experiments all`, each sweep on a fresh
/// derived seed with the caches emptied first, so every sweep is cold. The
/// process's first sweep is its set-up (it also pays for the process's
/// heap and code pages); the sweeps after it are timed.
pub fn paper_all(cfg: &Config, tracer: &Tracer, out: &mut Outcome) {
    let (mut sweeps, mut rounds, mut rps, mut acks, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut rows = Vec::new();
    let mut cells = 0usize;
    let mut rss = PeakRss::default();
    // A traced run makes the set-up sweep, one untraced and one traced.
    let total = if cfg.trace {
        3
    } else {
        repetitions(cfg, SWEEP_S, MIN_SWEEPS)
    };
    for n in 0..total {
        let traced_sweep = cfg.trace && n == 2;
        let off = Tracer::new(false, 0);
        let t = if traced_sweep { tracer } else { &off };
        let opts = options(cfg.scale, derive(cfg.seed, n as u64));
        clear_caches();
        let sweep = Sweep::enumerate(&ExperimentId::ALL, &opts);
        cells = sweep.cells.len();
        PopulationCache::global().reset_stats();
        ReportCache::global().reset_stats();

        let (mut exec_total, mut round_total) = (0.0, 0.0);
        rss.measure(|| {
            t.span("bench", "sweep", || {
                for (id, range) in &sweep.segments {
                    let start = Instant::now();
                    let results = if traced_sweep {
                        // Fill and run a few cells at a time, so the report
                        // cache holds everything the engine calls for.
                        let mut results = Vec::new();
                        for chunk in range.clone().collect::<Vec<_>>().chunks(TRACED_CHUNK) {
                            prefill(t, &opts, &sweep.cells[chunk[0]..=chunk[chunk.len() - 1]]);
                            results.extend(run_engine(t, &opts, &sweep.cells, chunk));
                        }
                        results
                    } else {
                        run_cells_subset(&opts, &sweep.cells, &range.clone().collect::<Vec<_>>())
                    };
                    let exec = start.elapsed().as_secs_f64();
                    std::hint::black_box(id.render(&opts, &ResultMap::from_results(&results)));
                    let round = start.elapsed().as_secs_f64();
                    exec_total += exec;
                    round_total += round;
                    out.attempted += results.len() as u64;
                    out.failed += check_finite(&results, &sweep.cells, out);
                    if n < ACCURACY_SWEEPS {
                        collect_rows(&sweep.cells, &results, &mut rows);
                    }
                }
            })
        });
        if n == 0 {
            setup.push(exec_total);
        } else if traced_sweep {
            traced.push(exec_total);
            cache_metrics(tracer, out);
            let v = &mut out.values;
            for (bucket, name) in KIND_BUCKETS {
                v.set(name, tracer.total("engine", bucket).0);
            }
            v.set("engine.cells", cells as f64);
            // Layer probes on rep 0 of each cell of this sweep's seed.
            tracer.span("bench", "probes", || {
                probe_layers(tracer, &opts, &sweep.cells, 1, out)
            });
        } else {
            sweeps.push(exec_total);
            rounds.push(round_total);
            acks.push(round_total * 1e3);
            rps.push(sweep.reports(&opts) / exec_total);
        }
    }

    let v = &mut out.values;
    if cfg.trace {
        v.set("trace.overhead_s", median(&traced) - median(&sweeps));
    } else {
        v.set("sweep_s", median(&sweeps));
        v.set("round_s", median(&rounds));
        v.set("ingest_rps", median(&rps));
        v.set("ack_p50_ms", percentile(&acks, 50.0));
        v.set("ack_p99_ms", percentile(&acks, 99.0));
        v.set("setup_s", median(&setup));
        v.set("est_mse", mean(&rows));
        rss.report(out);
    }
    println!(
        "# paper-all: {total} sweeps of {cells} cells, the first as set-up; timed sweep s: {}",
        describe(&sweeps)
    );
}

/// The three caches' counters since their last reset, and the fill spans.
fn cache_metrics(tracer: &Tracer, out: &mut Outcome) {
    let (pop, rep) = dap_bench::engine::cache_stats();
    let v = &mut out.values;
    v.set("datasets.cache.hits", pop.hits as f64);
    v.set("datasets.cache.misses", pop.misses as f64);
    v.set("datasets.cache.evictions", pop.evictions as f64);
    v.set(
        "datasets.cache.fill_s",
        tracer.total("datasets.cache", "fill").0,
    );
    v.set("report_cache.hits", rep.hits as f64);
    v.set("report_cache.misses", rep.misses as f64);
    v.set("report_cache.evictions", rep.evictions as f64);
    v.set(
        "report_cache.fill_s",
        tracer.total("report_cache", "fill").0,
    );
    v.set(
        "estimation.cache.matrices",
        MatrixCache::global().len() as f64,
    );
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Appends the DAP-scheme MSE rows of `results` to `rows`.
fn collect_rows(cells: &[Cell], results: &[CellResult], rows: &mut Vec<f64>) {
    for r in results {
        rows.extend_from_slice(&r.values[..dap_rows(&cells[r.index])]);
    }
}

/// The report-cache coordinate the engine uses for a cell rep.
fn coord(opts: &ExpOptions, dataset: Dataset, domain: Domain, gamma: f64, t: usize) -> ReportCoord {
    ReportCoord {
        dataset,
        domain,
        n: opts.n,
        gamma,
        seed: opts.seed,
        trial: t as u64,
    }
}

fn report_mech(mechanism: MechKind) -> ReportMech {
    match mechanism {
        MechKind::Pm => ReportMech::Pm,
        MechKind::Duchi => ReportMech::Duchi,
    }
}

/// Fills the population cache, then the report cache, with every entry the
/// engine will request for `cells` — the same public calls the engine
/// makes, each phase in one span — so the engine spans that follow time
/// estimation over warm caches and the fill shows as its own layer.
fn prefill(tracer: &Tracer, opts: &ExpOptions, cells: &[Cell]) {
    let pops = PopulationCache::global();
    let pop = |dataset, domain, gamma, t: usize| {
        pops.population(dataset, domain, opts.n, gamma, opts.seed, t as u64);
    };
    tracer.span("datasets.cache", "fill", || {
        for cell in cells {
            for t in 0..cell.reps(opts) {
                match &cell.kind {
                    CellKind::DatasetHist { dataset, .. } => pop(*dataset, Domain::Signed, 0.0, t),
                    CellKind::ProbeVariance { dataset, gamma, .. }
                    | CellKind::GammaHat { dataset, gamma, .. }
                    | CellKind::PmMse { dataset, gamma, .. }
                    | CellKind::RawMean { dataset, gamma, .. }
                    | CellKind::KMeans { dataset, gamma, .. }
                    | CellKind::ImaEmf { dataset, gamma, .. }
                    | CellKind::BaselineSplit { dataset, gamma, .. } => {
                        pop(*dataset, Domain::Signed, *gamma, t)
                    }
                    CellKind::SwWasserstein { dataset, gamma, .. }
                    | CellKind::SwGammaErr { dataset, gamma, .. }
                    | CellKind::SwMse { dataset, gamma, .. }
                    | CellKind::SwDefense { dataset, gamma, .. } => {
                        pop(*dataset, Domain::Unit, *gamma, t)
                    }
                    CellKind::CatDap { .. } | CellKind::CatOstrich { .. } => {}
                }
            }
        }
    });
    let rc = ReportCache::global();
    let flat = |c: &ReportCoord, mech, eps, spec| {
        rc.flat_batch(c, mech, eps);
        rc.poison_flat(c, mech, eps, spec);
    };
    tracer.span("report_cache", "fill", || {
        for cell in cells {
            for t in 0..cell.reps(opts) {
                match &cell.kind {
                    CellKind::ProbeVariance {
                        dataset,
                        range,
                        gamma,
                        eps,
                    } => flat(
                        &coord(opts, *dataset, Domain::Signed, *gamma, t),
                        ReportMech::Pm,
                        *eps,
                        AttackSpec::Poi(*range),
                    ),
                    CellKind::GammaHat {
                        dataset,
                        gamma,
                        eps,
                        attack,
                        ..
                    }
                    | CellKind::KMeans {
                        dataset,
                        gamma,
                        eps,
                        attack,
                        ..
                    } => flat(
                        &coord(opts, *dataset, Domain::Signed, *gamma, t),
                        ReportMech::Pm,
                        *eps,
                        *attack,
                    ),
                    CellKind::RawMean {
                        dataset,
                        gamma,
                        eps,
                        attack,
                        mechanism,
                    } => flat(
                        &coord(opts, *dataset, Domain::Signed, *gamma, t),
                        report_mech(*mechanism),
                        *eps,
                        *attack,
                    ),
                    CellKind::ImaEmf {
                        dataset,
                        gamma,
                        eps,
                        g,
                    } => flat(
                        &coord(opts, *dataset, Domain::Signed, *gamma, t),
                        ReportMech::Pm,
                        *eps,
                        AttackSpec::Ima { g: *g },
                    ),
                    CellKind::PmMse {
                        dataset,
                        gamma,
                        eps,
                        attack,
                        defenses,
                        mechanism,
                        ..
                    } => {
                        let c = coord(opts, *dataset, Domain::Signed, *gamma, t);
                        let mech = report_mech(*mechanism);
                        let eps0 = DapConfig::paper_default(*eps, Scheme::Emf).eps0;
                        rc.prepared(&c, mech, *eps, eps0);
                        rc.poison_grouped(&c, mech, *eps, eps0, *attack);
                        if *defenses {
                            flat(&c, mech, *eps, *attack);
                        }
                    }
                    CellKind::SwWasserstein {
                        dataset,
                        gamma,
                        eps,
                    }
                    | CellKind::SwGammaErr {
                        dataset,
                        gamma,
                        eps,
                    }
                    | CellKind::SwDefense {
                        dataset,
                        gamma,
                        eps,
                    } => flat(
                        &coord(opts, *dataset, Domain::Unit, *gamma, t),
                        ReportMech::Sw,
                        *eps,
                        AttackSpec::SwTop,
                    ),
                    CellKind::SwMse {
                        dataset,
                        gamma,
                        eps,
                    } => {
                        let c = coord(opts, *dataset, Domain::Unit, *gamma, t);
                        let eps0 = SwDapConfig::paper_default(*eps, Scheme::Emf).eps0;
                        rc.prepared(&c, ReportMech::Sw, *eps, eps0);
                        rc.poison_grouped(&c, ReportMech::Sw, *eps, eps0, AttackSpec::SwTop);
                    }
                    CellKind::DatasetHist { .. }
                    | CellKind::CatDap { .. }
                    | CellKind::CatOstrich { .. }
                    | CellKind::BaselineSplit { .. } => {}
                }
            }
        }
    });
}

/// EM work seen by the probes.
#[derive(Default)]
pub(crate) struct EmTally {
    iterations: Vec<f64>,
    unconverged: usize,
}

impl EmTally {
    fn record(&mut self, outcome: &EmOutcome) {
        self.iterations.push(outcome.iterations as f64);
        self.unconverged += usize::from(!outcome.converged);
    }

    /// The `em.*` metrics — solve counts from the tally, time from the
    /// tracer's `em` spans — and the `emf` and `scheme` span totals.
    pub(crate) fn report(&self, tracer: &Tracer, out: &mut Outcome) {
        let em_s: f64 = ["emf", "emf_star", "cemf_star"]
            .iter()
            .map(|op| tracer.total("em", op).0)
            .sum();
        let iterations: f64 = self.iterations.iter().sum();
        let v = &mut out.values;
        v.set("emf.probe_s", tracer.total("emf", "probe").0);
        v.set("scheme.group_s", tracer.total("scheme", "group").0);
        v.set("em.solves", self.iterations.len() as f64);
        v.set("em.iterations", iterations);
        v.set(
            "em.iters_p50",
            if self.iterations.is_empty() {
                0.0
            } else {
                median(&self.iterations)
            },
        );
        v.set(
            "em.iters_max",
            self.iterations.iter().copied().fold(0.0, f64::max),
        );
        v.set("em.unconverged", self.unconverged as f64);
        v.set(
            "em.ns_per_iter",
            if iterations > 0.0 {
                em_s * 1e9 / iterations
            } else {
                0.0
            },
        );
    }
}

/// Calls the layers the engine reaches only from inside its cells, on the
/// cells' own inputs, each call in a span: the protocol replay, the
/// session's ingest and finalize, and — on every group histogram of that
/// session — the side probe, the per-group estimator and the three EM
/// filters; plus the mean defenses on the cells' single-batch reports.
/// Covers reps `0..max_reps` of each cell.
fn probe_layers(
    tracer: &Tracer,
    opts: &ExpOptions,
    cells: &[Cell],
    max_reps: usize,
    out: &mut Outcome,
) {
    let rc = ReportCache::global();
    let mut em = EmTally::default();
    for cell in cells {
        for t in 0..cell.reps(opts).min(max_reps) {
            let mut rng = trial_rng(opts, cell.stream(), t);
            match &cell.kind {
                CellKind::PmMse {
                    dataset,
                    gamma,
                    eps,
                    attack,
                    schemes,
                    defenses,
                    weighting,
                    mechanism,
                } => {
                    let c = coord(opts, *dataset, Domain::Signed, *gamma, t);
                    let dap_cfg = DapConfig {
                        max_d_out: opts.max_d_out,
                        weighting: *weighting,
                        ..DapConfig::paper_default(*eps, Scheme::Emf)
                    };
                    let mech = report_mech(*mechanism);
                    let prepared = rc.prepared(&c, mech, *eps, dap_cfg.eps0);
                    let poison = rc.poison_grouped(&c, mech, *eps, dap_cfg.eps0, *attack);
                    let schemes = schemes.schemes();
                    match mechanism {
                        MechKind::Pm => probe_replay(
                            tracer,
                            dap_cfg,
                            PiecewiseMechanism::new,
                            &prepared,
                            &poison,
                            &schemes,
                            &mut em,
                        ),
                        MechKind::Duchi => probe_replay(
                            tracer,
                            dap_cfg,
                            Duchi::new,
                            &prepared,
                            &poison,
                            &schemes,
                            &mut em,
                        ),
                    }
                    if *defenses {
                        let mut reports = rc.flat_batch(&c, mech, *eps).to_vec();
                        reports.extend_from_slice(&rc.poison_flat(&c, mech, *eps, *attack));
                        probe_defenses(tracer, &reports, &mut rng);
                    }
                }
                CellKind::KMeans {
                    dataset,
                    gamma,
                    eps,
                    attack,
                    beta,
                    subsets,
                } => {
                    let c = coord(opts, *dataset, Domain::Signed, *gamma, t);
                    let mut reports = rc.flat_batch(&c, ReportMech::Pm, *eps).to_vec();
                    reports.extend_from_slice(&rc.poison_flat(&c, ReportMech::Pm, *eps, *attack));
                    let defense = KMeansDefense::new(*beta, *subsets);
                    tracer.span("defenses", "kmeans", || {
                        defense.estimate_mean(&reports, &mut rng)
                    });
                }
                CellKind::SwDefense {
                    dataset,
                    gamma,
                    eps,
                } => {
                    let c = coord(opts, *dataset, Domain::Unit, *gamma, t);
                    let mut reports = rc.flat_batch(&c, ReportMech::Sw, *eps).to_vec();
                    reports.extend_from_slice(&rc.poison_flat(
                        &c,
                        ReportMech::Sw,
                        *eps,
                        AttackSpec::SwTop,
                    ));
                    probe_defenses(tracer, &reports, &mut rng);
                }
                _ => {}
            }
        }
    }
    let v = &mut out.values;
    v.set("protocol.replay_s", tracer.total("protocol", "replay").0);
    v.set("session.ingest_s", tracer.total("session", "ingest").0);
    v.set("session.finalize_s", tracer.total("session", "finalize").0);
    v.set("defenses.kmeans_s", tracer.total("defenses", "kmeans").0);
    v.set(
        "defenses.trimming_s",
        tracer.total("defenses", "trimming").0,
    );
    v.set("defenses.ostrich_s", tracer.total("defenses", "ostrich").0);
    em.report(tracer, out);
}

fn probe_defenses(tracer: &Tracer, reports: &[f64], rng: &mut dyn RngCore) {
    tracer.span("defenses", "ostrich", || {
        Ostrich.estimate_mean(reports, rng)
    });
    let trimming = Trimming::paper_default(Side::Right);
    tracer.span("defenses", "trimming", || {
        trimming.estimate_mean(reports, rng)
    });
}

/// One cell rep's protocol replay, then the same session rebuilt and
/// finalized in spans of its own, then the EMF layers on every group.
#[allow(clippy::too_many_arguments)]
fn probe_replay<M, F>(
    tracer: &Tracer,
    cfg: DapConfig,
    factory: F,
    prepared: &PreparedReports,
    poison: &[Vec<f64>],
    schemes: &[Scheme],
    em: &mut EmTally,
) where
    M: NumericMechanism + Sync,
    F: Fn(Epsilon) -> M + Copy + Sync,
{
    let dap = Dap::new(cfg, factory).expect("the engine's config is valid");
    tracer.span("protocol", "replay", || {
        dap.run_schemes_prepared_with(prepared, poison, schemes)
            .expect("the engine's replay is valid")
    });
    let session = tracer.span("session", "ingest", || {
        let mut s = DapSession::new(cfg, prepared.plan.clone(), factory).expect("valid session");
        for (g, batch) in poison.iter().enumerate() {
            s.ingest_batch(g, &prepared.group_reports[g])
                .expect("in-quota reports");
            s.ingest_batch(g, batch).expect("in-quota poison");
        }
        s
    });
    tracer.span("session", "finalize", || {
        session.finalize(schemes).expect("finalizes")
    });
    probe_groups(
        tracer,
        &session,
        factory,
        cfg.o_prime,
        cfg.max_d_out,
        schemes,
        em,
    );
}

/// The EMF layers on each group histogram of a finished session, with the
/// group's `EmfConfig::capped(quota, ε_t, max d′)`: the side probe on the
/// most private group fixes the side and γ̂, as in finalize.
pub(crate) fn probe_groups<M, F>(
    tracer: &Tracer,
    session: &DapSession<M>,
    factory: F,
    o_prime: f64,
    max_d_out: usize,
    schemes: &[Scheme],
    em: &mut EmTally,
) where
    M: NumericMechanism + Sync,
    F: Fn(Epsilon) -> M,
{
    let plan = session.plan();
    let group_cfg =
        |g: usize| EmfConfig::capped(session.quota(g), plan.budgets[g].get(), max_d_out);
    let probe_g = plan.probe_group();
    let probe_cfg = group_cfg(probe_g);
    let probe = tracer.span("emf", "probe", || {
        probe_side(
            &factory(plan.budgets[probe_g]),
            &session.histogram(probe_g).counts,
            probe_cfg.d_in,
            o_prime,
            &probe_cfg.em,
        )
    });
    let (side, gamma) = (probe.side, probe.chosen().poison_mass());
    for g in 0..session.group_count() {
        let hist = session.histogram(g);
        if hist.n_reports == 0 {
            continue;
        }
        let cfg = group_cfg(g);
        let mech = factory(plan.budgets[g]);
        tracer.span("scheme", "group", || {
            estimate_group_means_hist(
                &mech,
                hist,
                side,
                o_prime,
                gamma,
                schemes,
                &cfg,
                None,
                &mut EmWorkspace::new(),
            )
        });
        let region = match side {
            Side::Right => PoisonRegion::RightOf(o_prime),
            Side::Left => PoisonRegion::LeftOf(o_prime),
        };
        let matrix = cached_for_numeric(&mech, cfg.d_in, cfg.d_out, &region);
        let base = tracer.span("em", "emf", || emf(&matrix, &hist.counts, &cfg.em));
        em.record(&base);
        let star = tracer.span("em", "emf_star", || {
            emf_star(&matrix, &hist.counts, gamma, &cfg.em)
        });
        em.record(&star);
        let threshold = cemf_star_threshold(gamma, matrix.poison_buckets().len());
        let cemf = tracer.span("em", "cemf_star", || {
            cemf_star(&matrix, &hist.counts, gamma, threshold, &base, &cfg.em)
        });
        em.record(&cemf);
    }
}
