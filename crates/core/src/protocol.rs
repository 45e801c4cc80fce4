//! The end-to-end Differential Aggregation Protocol (§V, Fig. 3).
//!
//! [`Dap`] is the *simulation driver*: it owns the parts of a run a real
//! deployment would never centralize — the honest population, the attack
//! and the RNG — and wires them through the split API: grouping via
//! [`GroupPlan`], local perturbation via [`crate::client`], and server-side
//! accumulation + estimation via [`crate::DapSession`]. The privacy
//! contract (every honest user spends exactly ε) is a property of the
//! *simulation*, so the [`PrivacyAccountant`] lives here, not in the client
//! module.

use crate::accountant::PrivacyAccountant;
use crate::aggregation::Weighting;
use crate::error::DapError;
use crate::grouping::GroupPlan;
use crate::population::Population;
use crate::scheme::{GroupHistogram, Scheme};
use crate::session::{DapSession, EstimationMode};
use dap_attack::{Attack, Side};
use dap_ldp::{Epsilon, NumericMechanism};
use rand::RngCore;

/// Configuration of one DAP deployment.
///
/// Construct via [`DapConfig::paper_default`] + struct update, or through
/// the validating [`DapConfig::builder`]. Literal construction is kept
/// public for the experiment harness; validation happens whenever the
/// config enters the service surface ([`Dap::new`], [`DapSession::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DapConfig {
    /// Global per-user privacy budget ε.
    pub eps: f64,
    /// Minimum acceptable group budget ε₀ (the paper's experiments use
    /// 1/16).
    pub eps0: f64,
    /// Reconstruction scheme (EMF / EMF\* / CEMF\*).
    pub scheme: Scheme,
    /// Inter-group weighting rule (Algorithm 5 by default).
    pub weighting: Weighting,
    /// Pessimistic initial mean `O'` (0 by the paper's convention; see
    /// Theorem 2 / [`dap_emf::pessimistic_init`] for data-driven choices).
    pub o_prime: f64,
    /// Cap on the per-group output-bucket count `d'` so EM cost stays
    /// bounded at paper-scale populations.
    pub max_d_out: usize,
    /// Project the final estimate onto the mechanism's input domain. The
    /// honest mean provably lies there, so projection can only reduce error;
    /// disable to observe the raw aggregate.
    pub clamp_to_input: bool,
    /// How [`DapSession::finalize`] probes and estimates
    /// ([`EstimationMode::ReportSum`] for unbiased mechanisms like PM).
    pub mode: EstimationMode,
}

impl DapConfig {
    /// The paper's default deployment: ε₀ = 1/16, Algorithm 5 weights,
    /// `O' = 0`, report-sum estimation.
    pub fn paper_default(eps: f64, scheme: Scheme) -> Self {
        DapConfig {
            eps,
            eps0: 1.0 / 16.0,
            scheme,
            weighting: Weighting::AlgorithmFive,
            o_prime: 0.0,
            max_d_out: 256,
            clamp_to_input: true,
            mode: EstimationMode::ReportSum,
        }
    }

    /// Names the first field on which two configs differ, or `None` when
    /// they are equal — so merge rejections can say *which* knob diverged
    /// (`"config eps"`, `"config scheme"`, …) instead of a blanket
    /// "configs differ". The names are drawn from
    /// [`DapError::MISMATCH_FIELDS`], which the wire layer uses to
    /// round-trip the rejection.
    pub fn diff_field(&self, other: &DapConfig) -> Option<&'static str> {
        if self.eps != other.eps {
            return Some("config eps");
        }
        if self.eps0 != other.eps0 {
            return Some("config eps0");
        }
        if self.scheme != other.scheme {
            return Some("config scheme");
        }
        if self.weighting != other.weighting {
            return Some("config weighting");
        }
        if self.o_prime != other.o_prime {
            return Some("config o_prime");
        }
        if self.max_d_out != other.max_d_out {
            return Some("config max_d_out");
        }
        if self.clamp_to_input != other.clamp_to_input {
            return Some("config clamp_to_input");
        }
        if self.mode != other.mode {
            return Some("config estimation mode");
        }
        None
    }

    /// A validating builder seeded with the paper defaults at ε = 1.
    pub fn builder() -> DapConfigBuilder {
        DapConfigBuilder { config: DapConfig::paper_default(1.0, Scheme::EmfStar) }
    }

    /// Checks the invariants the protocol relies on; every service-surface
    /// entry point calls this, so a [`DapConfig`] inside a running
    /// [`Dap`] or [`DapSession`] is always valid.
    pub fn validate(&self) -> Result<(), DapError> {
        if !(self.eps.is_finite() && self.eps0.is_finite() && self.eps0 > 0.0)
            || self.eps < self.eps0
        {
            return Err(DapError::InvalidBudget { eps: self.eps, eps0: self.eps0 });
        }
        if !self.o_prime.is_finite() {
            return Err(DapError::InvalidConfig {
                field: "o_prime",
                reason: format!("pessimistic mean must be finite, got {}", self.o_prime),
            });
        }
        if self.max_d_out < 2 {
            return Err(DapError::InvalidConfig {
                field: "max_d_out",
                reason: format!("need at least 2 output buckets, got {}", self.max_d_out),
            });
        }
        Ok(())
    }
}

/// Builder returned by [`DapConfig::builder`]; [`DapConfigBuilder::build`]
/// validates.
#[derive(Debug, Clone)]
pub struct DapConfigBuilder {
    config: DapConfig,
}

impl DapConfigBuilder {
    /// Sets the global per-user budget ε.
    pub fn eps(mut self, eps: f64) -> Self {
        self.config.eps = eps;
        self
    }

    /// Sets the minimum group budget ε₀.
    pub fn eps0(mut self, eps0: f64) -> Self {
        self.config.eps0 = eps0;
        self
    }

    /// Sets the reconstruction scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// Sets the inter-group weighting rule.
    pub fn weighting(mut self, weighting: Weighting) -> Self {
        self.config.weighting = weighting;
        self
    }

    /// Sets the pessimistic initial mean `O'`.
    pub fn o_prime(mut self, o_prime: f64) -> Self {
        self.config.o_prime = o_prime;
        self
    }

    /// Sets the cap on the per-group output-bucket count `d'`.
    pub fn max_d_out(mut self, max_d_out: usize) -> Self {
        self.config.max_d_out = max_d_out;
        self
    }

    /// Enables or disables projecting the estimate onto the input domain.
    pub fn clamp_to_input(mut self, clamp: bool) -> Self {
        self.config.clamp_to_input = clamp;
        self
    }

    /// Sets the probe/estimation mode.
    pub fn mode(mut self, mode: EstimationMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<DapConfig, DapError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Per-group diagnostics of a DAP run.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// The group's budget ε_t.
    pub eps_t: f64,
    /// Reports collected `N_t`.
    pub n_reports: usize,
    /// Intra-group mean estimate `M_t` (Eq. 13).
    pub mean_t: f64,
    /// Estimated poison-report count `m̂_t`.
    pub m_hat: f64,
    /// Estimated honest-user count `n̂_t = (N_t − m̂_t)·ε_t/ε`.
    pub n_hat: f64,
    /// Aggregation weight `w_t`.
    pub weight: f64,
}

/// Result of a DAP run.
#[derive(Debug, Clone, PartialEq)]
pub struct DapOutput {
    /// The aggregated mean estimate `M̃`.
    pub mean: f64,
    /// Probed poisoned side.
    pub side: Side,
    /// Probed coalition proportion `γ̂` (from the most private group).
    pub gamma: f64,
    /// Theorem 6's minimal worst-case variance for the realized weights.
    pub min_variance: f64,
    /// Per-group diagnostics.
    pub groups: Vec<GroupReport>,
}

/// The Differential Aggregation Protocol simulation, generic over the
/// numerical LDP mechanism (PM in the paper's default deployment; see
/// [`crate::sw`] for the Square-Wave variant, which estimates from
/// reconstructed histograms instead).
#[derive(Debug, Clone)]
pub struct Dap<F> {
    config: DapConfig,
    mech_factory: F,
}

impl<M, F> Dap<F>
where
    // `Sync` lets the session's finalize stage fan per-group estimation out
    // over worker threads; all mechanisms in the workspace are plain data.
    M: NumericMechanism + Sync,
    F: Fn(Epsilon) -> M + Sync,
{
    /// Builds a protocol instance from a config and a mechanism factory
    /// (e.g. `|eps| PiecewiseMechanism::new(eps)`), rejecting invalid
    /// configurations (`ε ≥ ε₀ > 0` and friends) as [`DapError`]s.
    pub fn new(config: DapConfig, mech_factory: F) -> Result<Self, DapError> {
        config.validate()?;
        Ok(Dap { config, mech_factory })
    }

    /// The active configuration.
    pub fn config(&self) -> &DapConfig {
        &self.config
    }

    /// Runs the five-stage protocol against a population and an attack,
    /// returning the aggregated mean and per-group diagnostics.
    ///
    /// The simulation enforces the privacy contract: every honest user's
    /// total spend is exactly ε (k_t reports at ε_t each), checked by the
    /// internal [`PrivacyAccountant`].
    pub fn run<R: RngCore>(
        &self,
        population: &Population,
        attack: &dyn Attack,
        rng: &mut R,
    ) -> Result<DapOutput, DapError> {
        Ok(self
            .run_schemes(population, attack, &[self.config.scheme], rng)?
            .pop()
            .expect("one scheme in, one output out"))
    }

    /// Runs the protocol once and reads the result off under several
    /// reconstruction schemes at a time, in `schemes` order.
    ///
    /// The schemes differ only in the stage-4 reconstruction (§V-B), so the
    /// expensive shared stages — grouping, perturbation of every report,
    /// probing, and the base EMF fit per group — run a single time. This is
    /// the evaluation harness's common-random-numbers mode: comparing
    /// schemes on identical report sets removes between-scheme sampling
    /// noise and cuts the figure drivers' wall-clock roughly by the number
    /// of schemes. `config.scheme` is ignored here.
    ///
    /// Stages 1–2 drive the split API: the plan's [`crate::client`]
    /// assignments perturb locally and the reports stream into a
    /// [`DapSession`]; stages 3–5 are [`DapSession::finalize`].
    pub fn run_schemes<R: RngCore>(
        &self,
        population: &Population,
        attack: &dyn Attack,
        schemes: &[Scheme],
        rng: &mut R,
    ) -> Result<Vec<DapOutput>, DapError> {
        self.run_schemes_on(&population.honest, population.byzantine, attack, schemes, rng)
    }

    /// [`Dap::run_schemes`] over a borrowed honest-value slice plus a
    /// coalition size, for callers that share one sampled population across
    /// many runs (the experiment engine's population cache) and must not
    /// clone it into a [`Population`] per run.
    pub fn run_schemes_on<R: RngCore>(
        &self,
        honest: &[f64],
        byzantine: usize,
        attack: &dyn Attack,
        schemes: &[Scheme],
        rng: &mut R,
    ) -> Result<Vec<DapOutput>, DapError> {
        let cfg = &self.config;
        let n_total = honest.len() + byzantine;
        if n_total == 0 {
            return Err(DapError::EmptyPopulation);
        }
        let plan = GroupPlan::build(n_total, cfg.eps, cfg.eps0, rng);
        let mut session = DapSession::new(*cfg, plan, &self.mech_factory)?;
        let mut accountant = PrivacyAccountant::new(n_total, cfg.eps);

        // Stage 2: perturbation, client by client. User indices < |honest|
        // are honest; the rest are the coalition (assignment order is
        // already shuffled). Each honest user perturbs locally under their
        // assignment; the coalition matches the honest report volume with
        // k_t poison reports per member, scaled to the group's output
        // domain. Everything lands in the session through one ingestion
        // path.
        let n_honest = honest.len();
        for g in 0..session.group_count() {
            let assign = session.client_assignment(g)?;
            let mech = (self.mech_factory)(assign.eps_t);
            let mut report_buf = vec![0.0f64; assign.k_t];
            let mut byz_members = 0usize;
            for i in 0..session.plan().assignment[g].len() {
                let user = session.plan().assignment[g][i];
                if user < n_honest {
                    // One accountant charge covers the user's k_t reports at
                    // ε_t each; ε_t = ε/2^t and k_t = 2^t, so the product is
                    // exactly ε with no accumulation error.
                    accountant.charge(user, assign.total_spend())?;
                    assign.perturb_into(&mech, honest[user], &mut report_buf, rng);
                    session.ingest_batch(g, &report_buf)?;
                } else {
                    byz_members += 1;
                }
            }
            let mut poison = vec![0.0f64; byz_members * assign.k_t];
            let n_poison = attack.reports_into(&mut poison, &mech, rng);
            session.ingest_batch(g, &poison[..n_poison])?;
        }
        debug_assert!(accountant.all_depleted() || byzantine > 0);

        // Stages 3–5: probe, per-group estimation, aggregation.
        session.finalize(schemes)
    }

    /// Runs stages 1–2 only — grouping and honest perturbation — and
    /// returns the result as a reusable [`PreparedReports`].
    ///
    /// The protocol's honest work is attack-independent: the plan and the
    /// perturbed reports depend on `(honest values, n_total, ε, ε₀, rng)`
    /// but never on what the coalition will send. A caller sweeping
    /// attacks, defenses, or schemes over one population (the experiment
    /// engine's report cache) can therefore prepare once and replay via
    /// [`Dap::run_schemes_prepared`], paying for perturbation a single
    /// time. The privacy contract is enforced here, where the spending
    /// happens.
    pub fn prepare_reports<R: RngCore>(
        &self,
        honest: &[f64],
        byzantine: usize,
        rng: &mut R,
    ) -> Result<PreparedReports, DapError> {
        let cfg = &self.config;
        let n_total = honest.len() + byzantine;
        if n_total == 0 {
            return Err(DapError::EmptyPopulation);
        }
        let plan = GroupPlan::build(n_total, cfg.eps, cfg.eps0, rng);
        // A throwaway session gives us the validated per-group client
        // assignments without duplicating the budget arithmetic here.
        let session = DapSession::new(*cfg, plan.clone(), &self.mech_factory)?;
        let mut accountant = PrivacyAccountant::new(n_total, cfg.eps);

        let n_honest = honest.len();
        let mut group_reports = Vec::with_capacity(plan.assignment.len());
        for g in 0..session.group_count() {
            let assign = session.client_assignment(g)?;
            let mech = (self.mech_factory)(assign.eps_t);
            let mut report_buf = vec![0.0f64; assign.k_t];
            let honest_members =
                plan.assignment[g].iter().filter(|&&u| u < n_honest).count();
            let mut reports = Vec::with_capacity(honest_members * assign.k_t);
            for &user in &plan.assignment[g] {
                if user < n_honest {
                    accountant.charge(user, assign.total_spend())?;
                    assign.perturb_into(&mech, honest[user], &mut report_buf, rng);
                    reports.extend_from_slice(&report_buf);
                }
            }
            group_reports.push(reports);
        }
        debug_assert!(accountant.all_depleted() || byzantine > 0);
        Ok(PreparedReports {
            plan,
            group_reports,
            n_honest,
            n_total,
            eps: cfg.eps,
            eps0: cfg.eps0,
        })
    }

    /// [`Dap::run_schemes_on`] with stages 1–2 replayed from a
    /// [`PreparedReports`]: the cached honest reports are ingested verbatim
    /// and only the coalition's reports are drawn fresh from `rng`.
    ///
    /// The prepared value must come from a [`Dap`] with the same grouping
    /// parameters (ε, ε₀) and population shape; mismatches are rejected so
    /// a stale cache entry cannot silently aggregate under the wrong plan.
    pub fn run_schemes_prepared<R: RngCore>(
        &self,
        prepared: &PreparedReports,
        attack: &dyn Attack,
        schemes: &[Scheme],
        rng: &mut R,
    ) -> Result<Vec<DapOutput>, DapError> {
        let poison = self.poison_batches(prepared, attack, rng)?;
        self.run_schemes_prepared_with(prepared, &poison, schemes)
    }

    /// The coalition's reports against a [`PreparedReports`], one batch per
    /// group in group order — the attack-dependent half of a replay, split
    /// out so callers can memoize it (poison batches are a pure function of
    /// `(prepared plan, attack, rng stream)` and the experiment engine
    /// sweeps the same attack over one population many times).
    pub fn poison_batches<R: RngCore>(
        &self,
        prepared: &PreparedReports,
        attack: &dyn Attack,
        rng: &mut R,
    ) -> Result<Vec<Vec<f64>>, DapError> {
        let cfg = &self.config;
        self.check_prepared(prepared)?;
        let session = DapSession::new(*cfg, prepared.plan.clone(), &self.mech_factory)?;
        let mut batches = Vec::with_capacity(session.group_count());
        for g in 0..session.group_count() {
            let assign = session.client_assignment(g)?;
            let byz_members = prepared.plan.assignment[g]
                .iter()
                .filter(|&&u| u >= prepared.n_honest)
                .count();
            let mech = (self.mech_factory)(assign.eps_t);
            let mut poison = vec![0.0f64; byz_members * assign.k_t];
            let n_poison = attack.reports_into(&mut poison, &mech, rng);
            poison.truncate(n_poison);
            batches.push(poison);
        }
        Ok(batches)
    }

    /// Replays stages 3–5 from a [`PreparedReports`] plus explicit per-group
    /// poison batches (as produced by [`Dap::poison_batches`], possibly
    /// served from a cache). Consumes no randomness: everything stochastic
    /// happened when the two inputs were drawn.
    ///
    /// This is [`Dap::bucket_prepared`] followed by
    /// [`Dap::run_schemes_bucketed`]; a caller replaying one prepared set
    /// many times can keep the histograms and call the second alone.
    pub fn run_schemes_prepared_with(
        &self,
        prepared: &PreparedReports,
        poison: &[Vec<f64>],
        schemes: &[Scheme],
    ) -> Result<Vec<DapOutput>, DapError> {
        let honest = self.bucket_prepared(prepared)?;
        self.run_schemes_bucketed(prepared, &honest, poison, schemes)
    }

    /// Buckets the honest reports of a [`PreparedReports`] into one
    /// [`GroupHistogram`] per group: all that stages 3–5 read of them. The
    /// reports go through [`DapSession::ingest_batch`], so the range and
    /// quota checks are those of ingestion.
    ///
    /// Each group's grid comes from its mechanism and its `d'`, which
    /// `max_d_out` caps; no other estimation setting shapes the
    /// histograms. One bucketing therefore serves every attack, scheme
    /// and weighting replayed over the entry at that `max_d_out`.
    pub fn bucket_prepared(
        &self,
        prepared: &PreparedReports,
    ) -> Result<Vec<GroupHistogram>, DapError> {
        self.check_prepared(prepared)?;
        let mut session =
            DapSession::new(self.config, prepared.plan.clone(), &self.mech_factory)?;
        for (g, reports) in prepared.group_reports.iter().enumerate() {
            session.ingest_batch(g, reports)?;
        }
        Ok((0..session.group_count()).map(|g| session.histogram(g).clone()).collect())
    }

    /// Replays stages 3–5 from the honest histograms of `prepared` (as
    /// [`Dap::bucket_prepared`] returns them) plus per-group poison
    /// batches: a fresh session is seeded with the histograms
    /// ([`DapSession::ingest_histograms`]), ingests only the coalition's
    /// reports, and finalizes.
    ///
    /// The outputs equal [`Dap::run_schemes_prepared_with`]'s bit for bit:
    /// the seeded session holds exactly the state that ingesting the
    /// honest reports would have left (see
    /// [`DapSession::ingest_histograms`]), and the poison reports then
    /// continue the same additions. Histograms of another resolution or
    /// with impossible values are refused typed.
    pub fn run_schemes_bucketed(
        &self,
        prepared: &PreparedReports,
        honest: &[GroupHistogram],
        poison: &[Vec<f64>],
        schemes: &[Scheme],
    ) -> Result<Vec<DapOutput>, DapError> {
        let cfg = &self.config;
        self.check_prepared(prepared)?;
        let mut session = DapSession::new(*cfg, prepared.plan.clone(), &self.mech_factory)?;
        if poison.len() != session.group_count() {
            return Err(DapError::InvalidConfig {
                field: "poison batches",
                reason: format!(
                    "{} batches for {} groups",
                    poison.len(),
                    session.group_count()
                ),
            });
        }
        session.ingest_histograms(honest)?;
        for (g, batch) in poison.iter().enumerate() {
            session.ingest_batch(g, batch)?;
        }
        session.finalize(schemes)
    }

    /// Rejects a [`PreparedReports`] whose grouping parameters do not match
    /// this session's config, so a stale cache entry cannot silently
    /// aggregate under the wrong plan, and one whose report groups do not
    /// match its own plan (its fields are public).
    fn check_prepared(&self, prepared: &PreparedReports) -> Result<(), DapError> {
        let cfg = &self.config;
        if prepared.eps != cfg.eps || prepared.eps0 != cfg.eps0 {
            return Err(DapError::InvalidConfig {
                field: "prepared reports",
                reason: format!(
                    "prepared under (ε={}, ε₀={}), session wants (ε={}, ε₀={})",
                    prepared.eps, prepared.eps0, cfg.eps, cfg.eps0
                ),
            });
        }
        if prepared.group_reports.len() != prepared.plan.len() {
            return Err(DapError::InvalidConfig {
                field: "prepared reports",
                reason: format!(
                    "{} report groups for a {}-group plan",
                    prepared.group_reports.len(),
                    prepared.plan.len()
                ),
            });
        }
        Ok(())
    }
}

/// Stages 1–2 of a protocol run, frozen for replay: the shuffled
/// [`GroupPlan`] plus every honest user's perturbed reports, per group in
/// assignment order. Produced by [`Dap::prepare_reports`], consumed by
/// [`Dap::run_schemes_prepared`]; the experiment engine caches these so a
/// population swept across attacks and defenses is perturbed exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedReports {
    /// The shuffled group assignment the reports were perturbed under.
    pub plan: GroupPlan,
    /// Honest reports per group, concatenated in assignment order
    /// (`k_t` consecutive reports per honest member).
    pub group_reports: Vec<Vec<f64>>,
    /// Honest population size; assignment indices `≥ n_honest` are
    /// coalition slots whose reports the replay draws fresh.
    pub n_honest: usize,
    /// Total population size the plan was built for.
    pub n_total: usize,
    /// Budget ε the reports were perturbed under.
    pub eps: f64,
    /// Minimum group budget ε₀ the plan was built under.
    pub eps0: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_attack::{NoAttack, UniformAttack};
    use dap_estimation::rng::seeded;
    use dap_estimation::stats::mean as smean;
    use dap_ldp::PiecewiseMechanism;

    fn pm_dap(eps: f64, scheme: Scheme) -> Dap<impl Fn(Epsilon) -> PiecewiseMechanism> {
        let mut cfg = DapConfig::paper_default(eps, scheme);
        cfg.max_d_out = 64; // keep debug-mode tests fast
        Dap::new(cfg, PiecewiseMechanism::new).expect("valid config")
    }

    fn honest_values(n: usize, seed: u64) -> Vec<f64> {
        use rand::Rng;
        let mut rng = seeded(seed);
        (0..n).map(|_| (rng.gen::<f64>() * 1.2 - 0.8).clamp(-1.0, 1.0)).collect()
    }

    #[test]
    fn dap_beats_ostrich_under_attack() {
        let honest = honest_values(12_000, 1);
        let truth = smean(&honest);
        let pop = Population::with_gamma(honest, 0.25);
        let attack = UniformAttack::of_upper(0.5, 1.0);
        let mut rng = seeded(2);

        // Ostrich on the same total report volume at full ε.
        let mech = PiecewiseMechanism::with_epsilon(0.5).unwrap();
        let mut ostrich_reports: Vec<f64> =
            pop.honest.iter().map(|&v| mech.perturb(v, &mut rng)).collect();
        ostrich_reports.extend(
            dap_attack::Attack::reports(&attack, pop.byzantine, &mech, &mut rng),
        );
        let ostrich_err = (smean(&ostrich_reports) - truth).abs();

        let dap = pm_dap(0.5, Scheme::EmfStar);
        let out = dap.run(&pop, &attack, &mut rng).expect("valid run");
        let dap_err = (out.mean - truth).abs();
        assert!(
            dap_err < ostrich_err,
            "DAP err {dap_err} not below Ostrich err {ostrich_err}"
        );
        assert_eq!(out.side, Side::Right);
        assert!((out.gamma - 0.25).abs() < 0.1, "gamma {}", out.gamma);
    }

    #[test]
    fn group_structure_matches_plan() {
        let pop = Population::with_gamma(honest_values(6_000, 3), 0.1);
        let dap = pm_dap(0.5, Scheme::Emf);
        let mut rng = seeded(4);
        let out = dap.run(&pop, &UniformAttack::of_upper(0.5, 1.0), &mut rng).unwrap();
        // ε = 1/2, ε₀ = 1/16 → h = 4 groups with doubling report volume.
        assert_eq!(out.groups.len(), 4);
        assert!((out.groups[0].eps_t - 0.5).abs() < 1e-12);
        assert!((out.groups[3].eps_t - 1.0 / 16.0).abs() < 1e-12);
        let w_sum: f64 = out.groups.iter().map(|g| g.weight).sum();
        assert!((w_sum - 1.0).abs() < 1e-9);
        // More reports in more private groups.
        assert!(out.groups[3].n_reports > out.groups[0].n_reports);
    }

    #[test]
    fn no_attack_estimate_is_accurate() {
        let honest = honest_values(12_000, 5);
        let truth = smean(&honest);
        let pop = Population::with_gamma(honest, 0.0);
        let dap = pm_dap(1.0, Scheme::CemfStar);
        let mut rng = seeded(6);
        let out = dap.run(&pop, &NoAttack, &mut rng).unwrap();
        assert!((out.mean - truth).abs() < 0.08, "estimate {} vs {}", out.mean, truth);
    }

    #[test]
    fn output_is_deterministic_under_fixed_seed() {
        let pop = Population::with_gamma(honest_values(4_000, 7), 0.2);
        let dap = pm_dap(0.25, Scheme::EmfStar);
        let a = dap.run(&pop, &UniformAttack::of_upper(0.75, 1.0), &mut seeded(8)).unwrap();
        let b = dap.run(&pop, &UniformAttack::of_upper(0.75, 1.0), &mut seeded(8)).unwrap();
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.gamma, b.gamma);
    }

    #[test]
    fn clamping_keeps_estimate_in_input_domain() {
        let pop = Population::with_gamma(vec![1.0; 2_000], 0.3);
        let dap = pm_dap(0.25, Scheme::Emf);
        let mut rng = seeded(9);
        let out = dap.run(&pop, &UniformAttack::of_upper(0.9, 1.0), &mut rng).unwrap();
        assert!((-1.0..=1.0).contains(&out.mean));
    }

    #[test]
    fn rejects_empty_population() {
        let pop = Population { honest: vec![], byzantine: 0 };
        let dap = pm_dap(0.25, Scheme::Emf);
        let err = dap.run(&pop, &NoAttack, &mut seeded(0)).unwrap_err();
        assert!(matches!(err, DapError::EmptyPopulation));
    }

    #[test]
    fn rejects_invalid_budgets_at_construction() {
        let cfg = DapConfig { eps: 0.01, ..DapConfig::paper_default(0.01, Scheme::Emf) };
        let err = Dap::new(cfg, PiecewiseMechanism::new).err().expect("ε < ε₀ must fail");
        assert!(matches!(err, DapError::InvalidBudget { .. }));
    }

    #[test]
    fn every_config_diff_field_is_wire_encodable() {
        // `diff_field` names feed `SessionMismatch`, which the wire layer
        // encodes by index into `DapError::MISMATCH_FIELDS` — a name
        // missing from the table silently downgrades the typed rejection.
        // One variant per config field keeps the two lists in lockstep.
        let base = DapConfig::paper_default(1.0, Scheme::Emf);
        let variants = [
            DapConfig { eps: 2.0, ..base },
            DapConfig { eps0: 0.125, ..base },
            DapConfig { scheme: Scheme::EmfStar, ..base },
            DapConfig { weighting: Weighting::Uniform, ..base },
            DapConfig { o_prime: 0.5, ..base },
            DapConfig { max_d_out: 99, ..base },
            DapConfig { clamp_to_input: false, ..base },
            DapConfig { mode: EstimationMode::HistogramBands, ..base },
        ];
        assert_eq!(base.diff_field(&base), None);
        let mut seen = std::collections::HashSet::new();
        for other in variants {
            let field = other.diff_field(&base).expect("exactly one field differs");
            assert!(
                DapError::MISMATCH_FIELDS.contains(&field),
                "'{field}' missing from DapError::MISMATCH_FIELDS"
            );
            assert!(seen.insert(field), "'{field}' reused for two config fields");
        }
        assert_eq!(seen.len(), 8, "every config field must have its own name");
    }

    #[test]
    fn prepared_replay_is_bit_identical_without_a_coalition() {
        // With no coalition the inline path and the prepared path draw from
        // the RNG in exactly the same order (plan shuffle, then every honest
        // user's reports), so equally-seeded runs must agree to the bit.
        let honest = honest_values(3_000, 11);
        let dap = pm_dap(0.5, Scheme::EmfStar);
        let schemes = [Scheme::Emf, Scheme::EmfStar];
        let inline = dap
            .run_schemes_on(&honest, 0, &NoAttack, &schemes, &mut seeded(12))
            .unwrap();
        let prepared = dap.prepare_reports(&honest, 0, &mut seeded(12)).unwrap();
        let replayed =
            dap.run_schemes_prepared(&prepared, &NoAttack, &schemes, &mut seeded(99)).unwrap();
        for (a, b) in inline.iter().zip(&replayed) {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
        }
    }

    #[test]
    fn prepared_replay_is_deterministic_and_accurate_under_attack() {
        let honest = honest_values(6_000, 13);
        let truth = smean(&honest);
        let byzantine = 1_500;
        let dap = pm_dap(0.5, Scheme::EmfStar);
        let attack = UniformAttack::of_upper(0.5, 1.0);
        let prepared = dap.prepare_reports(&honest, byzantine, &mut seeded(14)).unwrap();
        // Honest report volume matches the plan's honest membership.
        let n_honest_reports: usize =
            prepared.group_reports.iter().map(|r| r.len()).sum();
        let expected: usize = (0..prepared.plan.assignment.len())
            .map(|g| {
                prepared.plan.assignment[g].iter().filter(|&&u| u < honest.len()).count()
                    * prepared.plan.reports_per_user[g]
            })
            .sum();
        assert_eq!(n_honest_reports, expected);

        let a = dap
            .run_schemes_prepared(&prepared, &attack, &[Scheme::EmfStar], &mut seeded(15))
            .unwrap();
        let b = dap
            .run_schemes_prepared(&prepared, &attack, &[Scheme::EmfStar], &mut seeded(15))
            .unwrap();
        assert_eq!(a[0].mean.to_bits(), b[0].mean.to_bits());
        assert!((a[0].mean - truth).abs() < 0.1, "mean {} truth {}", a[0].mean, truth);
    }

    #[test]
    fn prepared_budget_mismatch_is_rejected() {
        let honest = honest_values(500, 17);
        let prepared =
            pm_dap(0.5, Scheme::Emf).prepare_reports(&honest, 100, &mut seeded(18)).unwrap();
        let other = pm_dap(1.0, Scheme::Emf);
        let err = other
            .run_schemes_prepared(&prepared, &NoAttack, &[Scheme::Emf], &mut seeded(19))
            .unwrap_err();
        assert!(matches!(err, DapError::InvalidConfig { field: "prepared reports", .. }));
    }

    #[test]
    fn a_short_report_set_is_refused_typed() {
        // The fields are public, so a caller can drop a group's reports;
        // every entry point that reads them must refuse that typed.
        let dap = pm_dap(0.5, Scheme::Emf);
        let honest = honest_values(500, 20);
        let full = dap.prepare_reports(&honest, 100, &mut seeded(21)).unwrap();
        let poison = dap.poison_batches(&full, &NoAttack, &mut seeded(22)).unwrap();
        let buckets = dap.bucket_prepared(&full).unwrap();
        let mut short = full.clone();
        short.group_reports.pop();
        let errors = [
            dap.run_schemes_prepared_with(&short, &poison, &[Scheme::Emf]).unwrap_err(),
            dap.bucket_prepared(&short).unwrap_err(),
            dap.run_schemes_bucketed(&short, &buckets, &poison, &[Scheme::Emf]).unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(err, DapError::InvalidConfig { field: "prepared reports", .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn builder_validates() {
        let cfg = DapConfig::builder()
            .eps(0.5)
            .eps0(0.125)
            .scheme(Scheme::CemfStar)
            .max_d_out(64)
            .build()
            .expect("valid config");
        assert_eq!(cfg.scheme, Scheme::CemfStar);
        assert_eq!(cfg.max_d_out, 64);
        assert!(matches!(
            DapConfig::builder().eps(f64::NAN).build(),
            Err(DapError::InvalidBudget { .. })
        ));
        assert!(matches!(
            DapConfig::builder().max_d_out(1).build(),
            Err(DapError::InvalidConfig { field: "max_d_out", .. })
        ));
        assert!(matches!(
            DapConfig::builder().o_prime(f64::INFINITY).build(),
            Err(DapError::InvalidConfig { field: "o_prime", .. })
        ));
    }
}
