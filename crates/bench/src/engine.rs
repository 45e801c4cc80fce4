//! The shared experiment engine: executes any [`Cell`] list.
//!
//! Execution is flattened to `(cell, rep)` tasks and fanned out over
//! [`dap_core::parallel_map`] — results are bit-identical for any thread
//! count because every task derives its RNG stream from the cell
//! coordinate and rep index alone, and the per-cell fold runs in fixed
//! order. Populations come from the process-wide
//! [`dap_datasets::PopulationCache`], whose generation streams are keyed by
//! the *sampling* coordinate `(dataset, domain, n, γ, seed, trial)` — so a
//! population is sampled once no matter how many cells (across
//! experiments) consume it, and a shard that runs only some cells
//! regenerates byte-identical populations. Together these two properties
//! make sharded runs exact: `--shard i/n` + `merge` reproduces a
//! single-process run bit for bit.

use crate::cell::{AttackSpec, Cell, CellKind, Fold, MechKind};
use crate::common::{trial_rng, ExpOptions};
use crate::report_cache::{ReportCache, ReportCoord, ReportMech};
use dap_core::baseline::{BaselineConfig, BaselineProtocol};
use dap_core::categorical::{
    categorical_dap, ostrich_frequencies, simulate_reports, CategoricalDapConfig,
};
use dap_core::ima::emf_based_ima_mean;
use dap_core::sw::SwDapConfig;
use dap_core::{parallel_map, Dap, DapConfig, Population, Scheme};
use dap_datasets::cache::{Domain, SampledPopulation};
use dap_datasets::{covid_frequencies, sample_covid, Dataset, PopulationCache, COVID_GROUPS};
use dap_defenses::{KMeansDefense, MeanDefense, Ostrich, Trimming};
use dap_emf::{
    cemf_star, cemf_star_threshold, emf, emf_star, probe_both_sides, ByzantineFeatures, EmfConfig,
};
use dap_estimation::stats::{mean, wasserstein_1};
use dap_estimation::{ems, Grid, PoisonRegion};
use dap_ldp::{Duchi, Epsilon, NumericMechanism, PiecewiseMechanism, SquareWave};
use std::collections::HashMap;
use std::sync::Arc;

/// The structured outcome of one cell: its position in the enumeration,
/// its coordinate-derived stream id, and one folded value per variant.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Index into the enumerated cell list this run executed against.
    pub index: usize,
    /// [`Cell::stream`] of that cell (the coordinate digest).
    pub stream: u64,
    /// Folded values, in [`Cell::variants`] order.
    pub values: Vec<f64>,
}

/// Executes every cell. Equivalent to
/// [`run_cells_subset`] over `0..cells.len()`.
pub fn run_cells(opts: &ExpOptions, cells: &[Cell]) -> Vec<CellResult> {
    let indices: Vec<usize> = (0..cells.len()).collect();
    run_cells_subset(opts, cells, &indices)
}

/// Executes the cells at `indices` (a shard), fanning `(cell, rep)` tasks
/// out over [`parallel_map`]. Returns one [`CellResult`] per index, in
/// `indices` order, bit-identical to the same cells' results in a full
/// run.
pub fn run_cells_subset(opts: &ExpOptions, cells: &[Cell], indices: &[usize]) -> Vec<CellResult> {
    assert_distinct_streams(cells);
    let tasks: Vec<(usize, usize)> = indices
        .iter()
        .flat_map(|&i| (0..cells[i].reps(opts)).map(move |t| (i, t)))
        .collect();
    let reps = parallel_map(tasks, |(i, t)| run_rep(opts, &cells[i], t));

    let mut results = Vec::with_capacity(indices.len());
    let mut cursor = 0usize;
    for &i in indices {
        let cell = &cells[i];
        let n_reps = cell.reps(opts);
        let outs = &reps[cursor..cursor + n_reps];
        cursor += n_reps;
        results.push(CellResult { index: i, stream: cell.stream(), values: fold(cell, outs) });
    }
    results
}

/// One snapshot of both process-wide cache counter sets — the population
/// cache (sampled values) and the report cache (perturbed reports) — so
/// tests and the `experiments all` footer read the same numbers through
/// one call.
pub fn cache_stats() -> (dap_datasets::CacheStats, crate::report_cache::ReportCacheStats) {
    (PopulationCache::global().stats(), ReportCache::global().stats())
}

/// Any coordinate collision (two cells hashing to one stream would share
/// randomness *and* collide in result maps) is a spec bug — fail loudly.
fn assert_distinct_streams(cells: &[Cell]) {
    let mut seen: HashMap<u64, usize> = HashMap::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        if let Some(&first) = seen.get(&cell.stream()) {
            panic!(
                "cell stream collision between #{first} and #{i} ({:?} vs {:?})",
                cells[first], cell
            );
        }
        seen.insert(cell.stream(), i);
    }
}

/// Values of one rep: per-variant estimates plus the rep's ground truth
/// (unused by folds that don't score against a truth).
struct RepOut {
    estimates: Vec<f64>,
    truth: f64,
}

fn fold(cell: &Cell, reps: &[RepOut]) -> Vec<f64> {
    let variants = reps[0].estimates.len();
    for rep in reps {
        assert_eq!(rep.estimates.len(), variants, "variant count drifted across reps");
    }
    let mean_of = |reps: &[RepOut]| -> Vec<f64> {
        let mut acc = vec![0.0; variants];
        for rep in reps {
            for (a, e) in acc.iter_mut().zip(&rep.estimates) {
                *a += e;
            }
        }
        acc.iter_mut().for_each(|a| *a /= reps.len() as f64);
        acc
    };
    match cell.kind.fold() {
        Fold::Once => reps[0].estimates.clone(),
        Fold::Mean => mean_of(reps),
        Fold::AbsErrOfMean(target) => {
            mean_of(reps).into_iter().map(|m| (m - target).abs()).collect()
        }
        Fold::Mse => {
            let mut acc = vec![0.0; variants];
            for rep in reps {
                for (a, e) in acc.iter_mut().zip(&rep.estimates) {
                    *a += (e - rep.truth) * (e - rep.truth);
                }
            }
            acc.iter_mut().for_each(|a| *a /= reps.len() as f64);
            acc
        }
    }
}

/// Fetches the (cached) population for a sampling coordinate.
fn population(
    opts: &ExpOptions,
    dataset: Dataset,
    domain: Domain,
    gamma: f64,
    trial: usize,
) -> Arc<SampledPopulation> {
    PopulationCache::global().population(dataset, domain, opts.n, gamma, opts.seed, trial as u64)
}

/// The matching report-cache coordinate for a sampling coordinate.
fn report_coord(
    opts: &ExpOptions,
    dataset: Dataset,
    domain: Domain,
    gamma: f64,
    trial: usize,
) -> ReportCoord {
    ReportCoord { dataset, domain, n: opts.n, gamma, seed: opts.seed, trial: trial as u64 }
}

/// The report-cache mechanism tag for a cell's [`MechKind`].
fn report_mech(mechanism: MechKind) -> ReportMech {
    match mechanism {
        MechKind::Pm => ReportMech::Pm,
        MechKind::Duchi => ReportMech::Duchi,
    }
}

/// Owned [`Population`] for the few protocol APIs without a borrowed-slice
/// entry point (the §IV baseline).
fn to_population(sp: &SampledPopulation) -> Population {
    Population { honest: sp.honest.clone(), byzantine: sp.byzantine }
}

/// A full-budget single-batch collection over cached *reports*: the honest
/// half comes from the process-wide [`ReportCache`] (perturbed once per
/// `(population, mechanism, ε)` coordinate) and the coalition's half from
/// the same cache under the attack-extended key — both from key-derived
/// streams, so the whole batch is a pure function of its coordinate.
fn pm_batch(coord: &ReportCoord, eps: f64, spec: AttackSpec) -> Vec<f64> {
    mech_batch(coord, eps, MechKind::Pm, spec)
}

/// [`pm_batch`] under a chosen mechanism — cells that carry a
/// [`MechKind`] must batch with *that* mechanism, or their defense rows
/// would silently compare across mechanisms.
fn mech_batch(coord: &ReportCoord, eps: f64, mechanism: MechKind, spec: AttackSpec) -> Vec<f64> {
    batch_of(coord, eps, report_mech(mechanism), spec)
}

/// SW analogue of [`pm_batch`].
fn sw_batch(coord: &ReportCoord, eps: f64, spec: AttackSpec) -> Vec<f64> {
    batch_of(coord, eps, ReportMech::Sw, spec)
}

fn batch_of(coord: &ReportCoord, eps: f64, mech: ReportMech, spec: AttackSpec) -> Vec<f64> {
    let cache = ReportCache::global();
    let honest = cache.flat_batch(coord, mech, eps);
    let poison = cache.poison_flat(coord, mech, eps, spec);
    let mut reports = Vec::with_capacity(honest.len() + poison.len());
    reports.extend_from_slice(&honest);
    reports.extend_from_slice(&poison);
    reports
}

/// Mean squared error of estimated COVID-19 frequencies against the truth.
fn covid_freq_mse(est: &[f64]) -> f64 {
    let truth = covid_frequencies();
    est.iter().zip(truth.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
        / COVID_GROUPS as f64
}

/// Executes rep `t` of one cell. This is the execution layer the figure
/// drivers used to inline; every simulation shape lives here exactly once.
fn run_rep(opts: &ExpOptions, cell: &Cell, t: usize) -> RepOut {
    let mut rng = trial_rng(opts, cell.stream(), t);
    match &cell.kind {
        CellKind::DatasetHist { dataset, buckets } => {
            let sp = population(opts, *dataset, Domain::Signed, 0.0, t);
            let mut estimates = vec![sp.truth];
            estimates.extend(Grid::new(-1.0, 1.0, *buckets).frequencies(&sp.honest));
            RepOut { estimates, truth: sp.truth }
        }

        CellKind::ProbeVariance { dataset, range, gamma, eps } => {
            let coord = report_coord(opts, *dataset, Domain::Signed, *gamma, t);
            let reports = pm_batch(&coord, *eps, AttackSpec::Poi(*range));
            let mech = PiecewiseMechanism::new(Epsilon::of(*eps));
            let cfg = EmfConfig::capped(reports.len(), *eps, opts.max_d_out);
            let (olo, ohi) = mech.output_range();
            let counts = Grid::new(olo, ohi, cfg.d_out).counts(&reports);
            let both = probe_both_sides(&mech, &counts, cfg.d_in, 0.0, &cfg.em);
            RepOut { estimates: vec![both.var_left, both.var_right], truth: 0.0 }
        }

        CellKind::GammaHat { dataset, gamma, eps, attack, .. } => {
            let coord = report_coord(opts, *dataset, Domain::Signed, *gamma, t);
            let reports = pm_batch(&coord, *eps, *attack);
            let cfg = EmfConfig::capped(reports.len(), *eps, opts.max_d_out);
            let mech = PiecewiseMechanism::new(Epsilon::of(*eps));
            let features = ByzantineFeatures::probe(&mech, &reports, 0.0, &cfg);
            RepOut { estimates: vec![features.gamma], truth: 0.0 }
        }

        CellKind::PmMse { dataset, gamma, eps, attack, schemes, defenses, weighting, mechanism } => {
            let sp = population(opts, *dataset, Domain::Signed, *gamma, t);
            let coord = report_coord(opts, *dataset, Domain::Signed, *gamma, t);
            // `scheme` in the config is ignored by the prepared replay.
            let cfg = DapConfig {
                max_d_out: opts.max_d_out,
                weighting: *weighting,
                ..DapConfig::paper_default(*eps, Scheme::Emf)
            };
            let scheme_list = schemes.schemes();
            // Stages 1–2 (plan + honest perturbation) and the coalition's
            // batches both come from the report cache; the replay itself
            // consumes no randomness.
            let rc = ReportCache::global();
            let prepared = rc.prepared(&coord, report_mech(*mechanism), *eps, cfg.eps0);
            let poison =
                rc.poison_grouped(&coord, report_mech(*mechanism), *eps, cfg.eps0, *attack);
            let outs = match mechanism {
                MechKind::Pm => Dap::new(cfg, PiecewiseMechanism::new)
                    .expect("valid config")
                    .run_schemes_prepared_with(&prepared, &poison, &scheme_list)
                    .expect("valid run"),
                MechKind::Duchi => Dap::new(cfg, Duchi::new)
                    .expect("valid config")
                    .run_schemes_prepared_with(&prepared, &poison, &scheme_list)
                    .expect("valid run"),
            };
            let mut estimates: Vec<f64> = outs.into_iter().map(|o| o.mean).collect();
            if *defenses {
                // The defenses see a plain single-batch collection at full
                // budget over the same honest values (common random
                // numbers across all rows of the cell) under the cell's
                // mechanism.
                let reports = mech_batch(&coord, *eps, *mechanism, *attack);
                estimates.push(Ostrich.estimate_mean(&reports, &mut rng));
                estimates.push(
                    Trimming::paper_default(dap_attack::Side::Right)
                        .estimate_mean(&reports, &mut rng),
                );
            }
            RepOut { estimates, truth: sp.truth }
        }

        CellKind::RawMean { dataset, gamma, eps, attack, mechanism } => {
            let sp = population(opts, *dataset, Domain::Signed, *gamma, t);
            let coord = report_coord(opts, *dataset, Domain::Signed, *gamma, t);
            let reports = mech_batch(&coord, *eps, *mechanism, *attack);
            RepOut { estimates: vec![mean(&reports)], truth: sp.truth }
        }

        CellKind::KMeans { dataset, gamma, eps, attack, beta, subsets } => {
            let sp = population(opts, *dataset, Domain::Signed, *gamma, t);
            let coord = report_coord(opts, *dataset, Domain::Signed, *gamma, t);
            let reports = pm_batch(&coord, *eps, *attack);
            let defense = KMeansDefense::new(*beta, *subsets);
            RepOut { estimates: vec![defense.estimate_mean(&reports, &mut rng)], truth: sp.truth }
        }

        CellKind::ImaEmf { dataset, gamma, eps, g } => {
            let sp = population(opts, *dataset, Domain::Signed, *gamma, t);
            let coord = report_coord(opts, *dataset, Domain::Signed, *gamma, t);
            let reports = pm_batch(&coord, *eps, AttackSpec::Ima { g: *g });
            let cfg = EmfConfig::capped(reports.len(), *eps, opts.max_d_out);
            let mech = PiecewiseMechanism::new(Epsilon::of(*eps));
            let out = emf_based_ima_mean(&mech, &reports, &cfg);
            RepOut { estimates: vec![out.mean], truth: sp.truth }
        }

        CellKind::SwWasserstein { dataset, gamma, eps } => {
            let sp = population(opts, *dataset, Domain::Unit, *gamma, t);
            let coord = report_coord(opts, *dataset, Domain::Unit, *gamma, t);
            let reports = sw_batch(&coord, *eps, AttackSpec::SwTop);
            let mech = SquareWave::new(Epsilon::of(*eps));
            let (cfg, counts, matrix) = crate::common::emf_setup(
                &mech,
                &reports,
                *eps,
                opts.max_d_out,
                &PoisonRegion::RightOf(1.0),
            );
            let truth_hist = Grid::new(0.0, 1.0, cfg.d_in).frequencies(&sp.honest);
            let spacing = 1.0 / cfg.d_in as f64;
            let normalized = |hist: &[f64]| -> Vec<f64> {
                let total: f64 = hist.iter().sum();
                hist.iter().map(|&v| if total > 0.0 { v / total } else { v }).collect()
            };

            let base = emf(&matrix, &counts, &cfg.em);
            let g_hat = base.poison_mass();
            let star = emf_star(&matrix, &counts, g_hat, &cfg.em);
            let thr = cemf_star_threshold(g_hat, matrix.poison_buckets().len());
            let cemf = cemf_star(&matrix, &counts, g_hat, thr, &base, &cfg.em);
            // Same histogram, poison-free matrix: only the matrix differs
            // for the Ostrich/EMS row.
            let ems_matrix = dap_estimation::cached_for_numeric(
                &mech,
                cfg.d_in,
                cfg.d_out,
                &PoisonRegion::None,
            );
            let ostrich = ems::solve(&ems_matrix, &counts, &cfg.em).histogram;

            let estimates = vec![
                wasserstein_1(&normalized(&base.normal), &truth_hist, spacing),
                wasserstein_1(&normalized(&star.normal), &truth_hist, spacing),
                wasserstein_1(&normalized(&cemf.normal), &truth_hist, spacing),
                wasserstein_1(&ostrich, &truth_hist, spacing),
            ];
            RepOut { estimates, truth: 0.0 }
        }

        CellKind::SwGammaErr { dataset, gamma, eps } => {
            let coord = report_coord(opts, *dataset, Domain::Unit, *gamma, t);
            let reports = sw_batch(&coord, *eps, AttackSpec::SwTop);
            let mech = SquareWave::new(Epsilon::of(*eps));
            let (cfg, counts, matrix) = crate::common::emf_setup(
                &mech,
                &reports,
                *eps,
                opts.max_d_out,
                &PoisonRegion::RightOf(1.0),
            );
            let err = (emf(&matrix, &counts, &cfg.em).poison_mass() - gamma).abs();
            RepOut { estimates: vec![err], truth: 0.0 }
        }

        CellKind::SwMse { dataset, gamma, eps } => {
            let sp = population(opts, *dataset, Domain::Unit, *gamma, t);
            let coord = report_coord(opts, *dataset, Domain::Unit, *gamma, t);
            let cfg = SwDapConfig {
                max_d_out: opts.max_d_out,
                ..SwDapConfig::paper_default(*eps, Scheme::Emf)
            };
            let rc = ReportCache::global();
            let prepared = rc.prepared(&coord, ReportMech::Sw, *eps, cfg.eps0);
            let poison =
                rc.poison_grouped(&coord, ReportMech::Sw, *eps, cfg.eps0, AttackSpec::SwTop);
            let outs = Dap::new(cfg.session_config(), SquareWave::new)
                .expect("valid config")
                .run_schemes_prepared_with(&prepared, &poison, &Scheme::ALL)
                .expect("valid run");
            RepOut { estimates: outs.into_iter().map(|o| o.mean).collect(), truth: sp.truth }
        }

        CellKind::SwDefense { dataset, gamma, eps } => {
            let sp = population(opts, *dataset, Domain::Unit, *gamma, t);
            let coord = report_coord(opts, *dataset, Domain::Unit, *gamma, t);
            let reports = sw_batch(&coord, *eps, AttackSpec::SwTop);
            // The SW attack poisons above the input max, so the canonical
            // right-side 50% trim applies unchanged.
            let estimates = vec![
                Ostrich.estimate_mean(&reports, &mut rng),
                Trimming::paper_default(dap_attack::Side::Right).estimate_mean(&reports, &mut rng),
            ];
            RepOut { estimates, truth: sp.truth }
        }

        CellKind::CatDap { scheme, gamma, eps, poison } => {
            let m = (opts.n as f64 * gamma).round() as usize;
            let honest = sample_covid(opts.n - m, &mut rng);
            let cfg = CategoricalDapConfig::paper_default(*eps, *scheme);
            let out = categorical_dap(&honest, m, poison.groups(), COVID_GROUPS, &cfg, &mut rng);
            RepOut { estimates: vec![covid_freq_mse(&out.frequencies)], truth: 0.0 }
        }

        CellKind::CatOstrich { gamma, eps, poison } => {
            let m = (opts.n as f64 * gamma).round() as usize;
            let honest = sample_covid(opts.n - m, &mut rng);
            let mech = dap_ldp::KRandomizedResponse::new(Epsilon::of(*eps), COVID_GROUPS)
                .expect("k >= 2");
            let counts = simulate_reports(&mech, &honest, m, poison.groups(), &mut rng);
            RepOut { estimates: vec![covid_freq_mse(&ostrich_frequencies(&mech, &counts))], truth: 0.0 }
        }

        CellKind::BaselineSplit { dataset, gamma, eps, alpha, probing } => {
            let sp = population(opts, *dataset, Domain::Signed, *gamma, t);
            let pop = to_population(&sp);
            let cfg = BaselineConfig {
                alpha: *alpha,
                max_d_out: opts.max_d_out,
                ..BaselineConfig::with_eps(*eps)
            };
            let proto =
                BaselineProtocol::new(cfg, PiecewiseMechanism::new).expect("valid config");
            let attack = AttackSpec::Poi(crate::common::PoiRange::TopHalf).build();
            let out = if *probing {
                proto.run_with_evading_attacker(&pop, attack.as_ref(), 0.0, &mut rng)
            } else {
                proto.run(&pop, attack.as_ref(), &mut rng)
            }
            .expect("valid run");
            RepOut { estimates: vec![out.mean], truth: sp.truth }
        }
    }
}

/// Cell values keyed by the coordinate stream id — what renderers consume,
/// built either from a live run or from (merged) JSON result sets.
pub struct ResultMap {
    map: HashMap<u64, Vec<f64>>,
}

impl ResultMap {
    /// From a live engine run.
    pub fn from_results(results: &[CellResult]) -> ResultMap {
        ResultMap { map: results.iter().map(|r| (r.stream, r.values.clone())).collect() }
    }

    /// From raw `(stream, values)` pairs (the JSON path).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, Vec<f64>)>) -> ResultMap {
        ResultMap { map: pairs.into_iter().collect() }
    }

    /// The values of one cell; panics with the cell coordinate if absent
    /// (which means spec and results went out of sync — a bug, not an
    /// input error).
    pub fn get(&self, cell: &Cell) -> &[f64] {
        self.map
            .get(&cell.stream())
            .unwrap_or_else(|| panic!("no result for cell {cell:?}"))
    }

    /// Number of cells with results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}
