//! The aggregator half of the protocol: a streaming ingestion session.
//!
//! [`DapSession`] is the server-side state machine of §V, Fig. 3: it owns a
//! [`GroupPlan`] and one streamed [`GroupHistogram`] per group, accepts
//! reports incrementally ([`DapSession::ingest`] /
//! [`DapSession::ingest_batch`]) from clients it never trusts — out-of-range
//! and over-quota reports are rejected as [`DapError`]s — and runs the
//! collector's pipeline (probe → per-group estimation → Algorithm-5
//! aggregation) on demand in [`DapSession::finalize`]. Sessions fed by
//! independent threads or processes combine with [`DapSession::merge`].
//!
//! The [`crate::Dap`] simulation (PM, or SW in band mode) is a thin driver
//! over this type plus the [`crate::client`] module; real deployments feed
//! the same API from a network or a stream instead.

use crate::aggregation::aggregate;
use crate::client::ClientAssignment;
use crate::codec::Fnv;
use crate::error::DapError;
use crate::grouping::GroupPlan;
use crate::parallel::parallel_map;
use crate::protocol::{DapConfig, DapOutput, GroupReport};
use crate::scheme::{estimate_group_means_hist, GroupHistogram, Scheme};
use crate::secagg::{MaskedGroup, MaskedPart, MaskedState, SecaggRole};
use crate::sw::{probe_side_bands, sw_group_means_hist};
use dap_attack::Side;
use dap_emf::{probe_side, EmfConfig};
use dap_estimation::{EmWorkspace, Grid};
use dap_ldp::{Epsilon, NumericMechanism};
use std::collections::BTreeMap;

/// Slack applied to the output-domain membership check: perturbed values may
/// stray from the closed domain by floating error (the same tolerance the
/// attack layer grants itself when resolving poison ranges).
const DOMAIN_TOL: f64 = 1e-9;

/// How [`DapSession::finalize`] probes the poisoned side and reads each
/// group's mean off the reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMode {
    /// For unbiased mechanisms (PM, Duchi): Algorithm-3 side probe around
    /// the pivot `O'`, group means by the Eq. 13 report-sum correction.
    ReportSum,
    /// For biased mechanisms whose poison spec lives in the inflation bands
    /// beyond the input domain (SW): likelihood probe over the two bands,
    /// group means read off the reconstructed input histogram.
    HistogramBands,
}

/// Per-group aggregator state: the mechanism in force, the report grid, the
/// EMF sizing, and the streamed histogram.
#[derive(Debug, Clone)]
struct GroupState {
    grid: Grid,
    emf_cfg: EmfConfig,
    hist: GroupHistogram,
    /// Solicited report volume `|G_t|·k_t`; submissions beyond it are
    /// rejected.
    quota: usize,
}

/// A streaming DAP aggregation session (see the module docs).
///
/// Generic over the LDP mechanism so per-group estimation stays monomorphic;
/// `M` must be `Sync` because [`DapSession::finalize`] fans the independent
/// group estimations out over [`crate::parallel_map`].
#[derive(Debug, Clone)]
pub struct DapSession<M> {
    config: DapConfig,
    plan: GroupPlan,
    mechs: Vec<M>,
    groups: Vec<GroupState>,
    /// Replay guard: per coordinator channel, the highest batch sequence
    /// applied. Sequenced ingestion ([`DapSession::ingest_batch_seq`])
    /// accepts only the next sequence, so a retried batch whose ack was
    /// lost is rejected typed instead of double-counted.
    channels: BTreeMap<u64, u64>,
    /// `Some` when the session is a secret-sharing share server
    /// ([`DapSession::new_masked`]): per-group state is then a masked
    /// `u64` accumulator and every plaintext operation is refused typed
    /// ([`DapError::ModeMismatch`]) — this session must never see, hold
    /// or journal an unmasked report or histogram.
    masked: Option<MaskedState>,
}

impl<M: NumericMechanism> DapSession<M> {
    /// Opens a session for a validated `config` and a grouping `plan`,
    /// building one mechanism per group budget with `mech_factory`.
    ///
    /// The EMF sizing per group depends only on the solicited report volume
    /// `|G_t|·k_t` — known from the plan up front — so the session never
    /// needs the raw report vectors.
    pub fn new<F>(config: DapConfig, plan: GroupPlan, mech_factory: F) -> Result<Self, DapError>
    where
        F: Fn(Epsilon) -> M,
    {
        config.validate()?;
        if plan.len() != GroupPlan::group_count(config.eps, config.eps0)
            || plan.budgets[0].get().to_bits() != config.eps.to_bits()
        {
            return Err(DapError::SessionMismatch { what: "config budgets and group plan" });
        }
        let mut mechs = Vec::with_capacity(plan.len());
        let mut groups = Vec::with_capacity(plan.len());
        for g in 0..plan.len() {
            let eps_t = plan.budgets[g];
            let mech = mech_factory(eps_t);
            let quota = plan.reports_in_group(g);
            let emf_cfg = EmfConfig::capped(quota, eps_t.get(), config.max_d_out);
            let (olo, ohi) = mech.output_range();
            let grid = Grid::new(olo, ohi, emf_cfg.d_out);
            let hist = GroupHistogram {
                counts: vec![0.0; emf_cfg.d_out],
                sum_reports: 0.0,
                n_reports: 0,
            };
            mechs.push(mech);
            groups.push(GroupState { grid, emf_cfg, hist, quota });
        }
        Ok(DapSession { config, plan, mechs, groups, channels: BTreeMap::new(), masked: None })
    }

    /// Opens a session in **masked mode**: a share server of the
    /// secret-sharing tier ([`crate::secagg`]). The deployment shape
    /// (config, plan, grids — hence [`DapSession::state_digest`]) is
    /// identical to a plain twin's, so the hello handshake interoperates,
    /// but per-group state is a masked `u64` accumulator fed by
    /// [`DapSession::ingest_shares`]; plaintext ingestion, part export/
    /// merge and finalize are refused with [`DapError::ModeMismatch`].
    pub fn new_masked<F>(
        config: DapConfig,
        plan: GroupPlan,
        mech_factory: F,
        role: SecaggRole,
    ) -> Result<Self, DapError>
    where
        F: Fn(Epsilon) -> M,
    {
        SecaggRole::new(role.k, role.index)?;
        let mut session = DapSession::new(config, plan, mech_factory)?;
        let resolutions: Vec<usize> =
            session.groups.iter().map(|g| g.hist.counts.len()).collect();
        session.masked = Some(MaskedState::new(role, &resolutions));
        Ok(session)
    }

    /// The session's configuration.
    pub fn config(&self) -> &DapConfig {
        &self.config
    }

    /// The grouping plan the session was opened with.
    pub fn plan(&self) -> &GroupPlan {
        &self.plan
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The grouping instruction for clients of group `g` — what a real
    /// deployment would send to each assigned user.
    pub fn client_assignment(&self, g: usize) -> Result<ClientAssignment, DapError> {
        if g >= self.plan.len() {
            return Err(DapError::UnknownGroup { group: g, groups: self.plan.len() });
        }
        Ok(self.plan.client_assignment(g))
    }

    /// The streamed histogram of group `g` (all zeros before any ingest).
    pub fn histogram(&self, g: usize) -> &GroupHistogram {
        &self.groups[g].hist
    }

    /// Solicited report volume of group `g` (`|G_t|·k_t`).
    pub fn quota(&self, g: usize) -> usize {
        self.groups[g].quota
    }

    /// The output-grid bucket a report of `group` falls into — how the
    /// secret-sharing dealer converts a report chunk into the bucket-count
    /// contribution it splits into shares. Same grid, same bucketing as
    /// plaintext ingestion, so the reconstructed counts are bit-identical
    /// to a plain session's.
    pub fn bucket_of(&self, group: usize, report: f64) -> Result<usize, DapError> {
        self.check_group(group)?;
        self.check_range(group, report)?;
        Ok(self.groups[group].grid.bucket_of(report))
    }

    /// Reports accepted into group `g` so far.
    pub fn ingested(&self, g: usize) -> usize {
        self.groups[g].hist.n_reports
    }

    /// Refuses plaintext operations on a masked session — a share server
    /// must never accumulate (or be asked to reveal) unmasked state.
    fn check_plain(&self) -> Result<(), DapError> {
        if self.masked.is_some() {
            return Err(DapError::ModeMismatch { masked: true });
        }
        Ok(())
    }

    fn check_group(&self, group: usize) -> Result<(), DapError> {
        if group >= self.groups.len() {
            return Err(DapError::UnknownGroup { group, groups: self.groups.len() });
        }
        Ok(())
    }

    fn check_range(&self, group: usize, report: f64) -> Result<(), DapError> {
        let grid = &self.groups[group].grid;
        let (lo, hi) = (grid.lo(), grid.hi());
        // NaN fails both comparisons and is rejected here too.
        if report >= lo - DOMAIN_TOL && report <= hi + DOMAIN_TOL {
            Ok(())
        } else {
            Err(DapError::ReportOutOfRange { group, report, lo, hi })
        }
    }

    /// Accepts one report into `group`.
    ///
    /// Rejects unknown groups, reports outside the group mechanism's output
    /// domain (Definition 2 confines even Byzantine reports to `[DL, DR]`)
    /// and submissions beyond the group's solicited volume. On error the
    /// session state is unchanged.
    pub fn ingest(&mut self, group: usize, report: f64) -> Result<(), DapError> {
        self.ingest_batch(group, &[report])
    }

    /// Accepts a batch of reports into `group`, atomically: the whole batch
    /// is validated against the output domain and the remaining quota before
    /// any report is accumulated, so a rejected batch leaves no trace.
    ///
    /// This is the ingestion hot path: the network reactor
    /// ([`crate::net::ServeOptions::reactor`]) applies many connections'
    /// batches back-to-back under one lock acquisition, so the loop body
    /// is kept to two histogram writes per report. `sum_reports`
    /// accumulates in batch order — report order within a group is part of
    /// the exactness contract.
    pub fn ingest_batch(&mut self, group: usize, reports: &[f64]) -> Result<(), DapError> {
        self.check_ingest_batch(group, reports)?;
        self.apply_batch(group, reports);
        Ok(())
    }

    /// The accumulation half of [`DapSession::ingest_batch`], for a batch
    /// that [`DapSession::check_ingest_batch`] accepted with nothing
    /// applied since. The write-ahead journal validates once, appends,
    /// then applies.
    pub(crate) fn apply_batch(&mut self, group: usize, reports: &[f64]) {
        let state = &mut self.groups[group];
        // The grid and the running sum are copied into locals, which stay
        // in registers: a store into `counts` might alias a field read
        // through `state`, as far as the compiler can tell, so reading
        // them there would reload them for every report. The report
        // counter needs no per-item increment.
        let grid = state.grid;
        let hist = &mut state.hist;
        let mut sum = hist.sum_reports;
        for &r in reports {
            hist.counts[grid.bucket_of(r)] += 1.0;
            sum += r;
        }
        hist.sum_reports = sum;
        hist.n_reports += reports.len();
    }

    /// The validation half of [`DapSession::ingest_batch`], without the
    /// accumulation: group index, output-domain membership of every report,
    /// and the remaining quota. The write-ahead journal
    /// ([`crate::storage::DurableSession`]) checks before appending so
    /// rejected traffic never reaches the log.
    pub fn check_ingest_batch(&self, group: usize, reports: &[f64]) -> Result<(), DapError> {
        self.check_plain()?;
        self.check_group(group)?;
        for &r in reports {
            self.check_range(group, r)?;
        }
        let state = &self.groups[group];
        if state.hist.n_reports + reports.len() > state.quota {
            return Err(DapError::QuotaExceeded {
                group,
                quota: state.quota,
                ingested: state.hist.n_reports,
                attempted: reports.len(),
            });
        }
        Ok(())
    }

    /// The highest batch sequence applied on coordinator `channel`, or
    /// `None` if the channel has never delivered a sequenced batch. This
    /// is what the `dap-wire/v1` hello handshake returns so a reconnecting
    /// coordinator can resume without re-applying acknowledged batches.
    pub fn last_seq(&self, channel: u64) -> Option<u64> {
        self.channels.get(&channel).copied()
    }

    /// Every channel's replay-guard state, in channel order.
    pub fn channel_seqs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.channels.iter().map(|(&c, &s)| (c, s))
    }

    /// [`DapSession::ingest_batch`] with an idempotency guard: the batch is
    /// applied only when `seq` is exactly the next sequence on `channel`
    /// (starting at 1). A sequence at or below the high-water mark is a
    /// retry of an already-applied batch and is rejected with
    /// [`DapError::DuplicateSequence`] — the sender treats that as an ack —
    /// while a sequence that skips ahead is rejected with
    /// [`DapError::SequenceGap`]. On any error the session is unchanged.
    pub fn ingest_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), DapError> {
        self.check_ingest_batch_seq(channel, seq, group, reports)?;
        self.apply_batch_seq(channel, seq, group, reports);
        Ok(())
    }

    /// The accumulation half of [`DapSession::ingest_batch_seq`], for a
    /// batch that [`DapSession::check_ingest_batch_seq`] accepted with
    /// nothing applied since (see [`DapSession::apply_batch`]).
    pub(crate) fn apply_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) {
        self.apply_batch(group, reports);
        self.channels.insert(channel, seq);
    }

    /// The validation half of [`DapSession::ingest_batch_seq`]: the replay
    /// guard first (duplicates must be rejected before any content check so
    /// a retried batch races nothing), then the plain
    /// [`DapSession::check_ingest_batch`] checks.
    pub fn check_ingest_batch_seq(
        &self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), DapError> {
        let last = self.channels.get(&channel).copied().unwrap_or(0);
        if seq <= last {
            return Err(DapError::DuplicateSequence { channel, seq, last });
        }
        if seq != last + 1 {
            return Err(DapError::SequenceGap { channel, seq, expected: last + 1 });
        }
        self.check_ingest_batch(group, reports)
    }

    /// Combines sessions that accumulated shards of the same deployment —
    /// many threads or processes ingesting independently, merged before one
    /// [`DapSession::finalize`].
    ///
    /// All parts must have been opened with the same config and group plan;
    /// a rejection names the first field that differs
    /// ([`DapConfig::diff_field`], [`GroupPlan::diff_field`]). Per-bucket
    /// counts are integer-valued, so merging is exact for any sharding; the
    /// running report *sums* combine shard-wise, which is bit-identical to
    /// single-session ingestion exactly when each group's reports stayed on
    /// one shard (the natural group-sharded split — see
    /// `examples/streaming_aggregator.rs`) and correct to float rounding
    /// otherwise.
    pub fn merge(parts: impl IntoIterator<Item = DapSession<M>>) -> Result<Self, DapError> {
        let mut parts = parts.into_iter();
        let mut base = parts
            .next()
            .ok_or(DapError::SessionMismatch { what: "zero sessions (nothing to merge)" })?;
        base.check_plain()?;
        for part in parts {
            part.check_plain()?;
            if let Some(field) = base.config.diff_field(&part.config) {
                return Err(DapError::SessionMismatch { what: field });
            }
            if let Some(field) = base.plan.diff_field(&part.plan) {
                return Err(DapError::SessionMismatch { what: field });
            }
            // Equal configs and plans imply equal EMF sizing, but the report
            // grids also depend on each shard's mechanism factory — merging
            // histograms bucketed over different output domains would be
            // silently wrong.
            if part.groups.iter().zip(&base.groups).any(|(p, b)| p.grid != b.grid) {
                return Err(DapError::SessionMismatch { what: "mechanism output grids" });
            }
            for (g, (bs, ps)) in base.groups.iter_mut().zip(&part.groups).enumerate() {
                if bs.hist.n_reports + ps.hist.n_reports > bs.quota {
                    return Err(DapError::QuotaExceeded {
                        group: g,
                        quota: bs.quota,
                        ingested: bs.hist.n_reports,
                        attempted: ps.hist.n_reports,
                    });
                }
                bs.hist.absorb(&ps.hist);
            }
            // Replay-guard high-water marks are monotone per channel, so the
            // combined session's guard is the per-channel maximum.
            for (channel, seq) in part.channels {
                let entry = base.channels.entry(channel).or_insert(0);
                *entry = (*entry).max(seq);
            }
        }
        Ok(base)
    }

    /// Digest of everything two sessions must agree on before their
    /// streamed state may combine: the config, the full group plan, and
    /// each group's report grid, histogram resolution and quota.
    ///
    /// FNV-1a over the exact field encodings (f64s by bit pattern), so the
    /// digest is stable across processes and Rust versions — it is the
    /// compatibility token of [`SessionPart`] and the `dap-wire/v1` hello
    /// handshake ([`crate::net`]).
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(b"dap-session/v1");
        let c = &self.config;
        h.word(c.eps.to_bits());
        h.word(c.eps0.to_bits());
        h.word(c.scheme as u64);
        h.word(c.weighting as u64);
        h.word(c.o_prime.to_bits());
        h.word(c.max_d_out as u64);
        h.word(c.clamp_to_input as u64);
        h.word(c.mode as u64);
        h.word(self.plan.len() as u64);
        for g in 0..self.plan.len() {
            h.word(self.plan.budgets[g].get().to_bits());
            h.word(self.plan.reports_per_user[g] as u64);
            h.word(self.plan.assignment[g].len() as u64);
            for &user in &self.plan.assignment[g] {
                h.word(user as u64);
            }
            let state = &self.groups[g];
            h.word(state.grid.lo().to_bits());
            h.word(state.grid.hi().to_bits());
            h.word(state.hist.counts.len() as u64);
            h.word(state.quota as u64);
        }
        h.finish()
    }

    /// Detaches the streamed per-group state for transport: the serialize
    /// half of shipping a session between processes. The counterpart
    /// session (same config, plan and mechanisms — verified via the
    /// embedded [`DapSession::state_digest`]) absorbs it with
    /// [`DapSession::merge_part`]. `dap-wire/v1` ([`crate::net`]) carries
    /// this type in its `part`/`merge` frames with exact f64 bit patterns.
    pub fn export_part(&self) -> SessionPart {
        SessionPart {
            digest: self.state_digest(),
            groups: self.groups.iter().map(|g| g.hist.clone()).collect(),
            channels: self.channels.iter().map(|(&c, &s)| (c, s)).collect(),
        }
    }

    /// Absorbs a detached part into this session — the deserialize half of
    /// [`DapSession::export_part`], with the same exactness contract as
    /// [`DapSession::merge`]: counts combine exactly for any sharding, and
    /// a group whose reports all lived in one part merges bit-identically
    /// to having ingested them here.
    ///
    /// The part is validated atomically before any accumulation: a digest
    /// mismatch, group-shape mismatch, quota violation or impossible value
    /// ([`DapSession::check_part`]) leaves the session untouched.
    pub fn merge_part(&mut self, part: &SessionPart) -> Result<(), DapError> {
        self.check_part(part)?;
        self.absorb_histograms(&part.groups);
        for &(channel, seq) in &part.channels {
            let entry = self.channels.entry(channel).or_insert(0);
            *entry = (*entry).max(seq);
        }
        Ok(())
    }

    /// The validation half of [`DapSession::merge_part`], without the
    /// accumulation: digest, group shape, quota and value checks. Like
    /// [`DapSession::check_ingest_batch`], this is what the write-ahead
    /// journal runs before a `merge` record is appended, and checkpoint
    /// restore runs it too.
    ///
    /// A part arrives off the wire or out of storage, so its values are
    /// checked as well: every count must be a finite, non-negative whole
    /// number, the counts must add up to the part's report tally, and the
    /// report sum must be finite. Otherwise the part is refused with
    /// [`DapError::SessionMismatch`] on `"part histogram values"`.
    pub fn check_part(&self, part: &SessionPart) -> Result<(), DapError> {
        self.check_plain()?;
        if part.digest != self.state_digest() {
            return Err(DapError::SessionMismatch { what: "state digest" });
        }
        self.check_histograms(&part.groups)
    }

    /// Adds pre-bucketed histograms, one per group in group order: the
    /// state that ingesting their reports here would have left. This is
    /// how a replay reuses one bucketing of a report set
    /// ([`crate::Dap::run_schemes_bucketed`]).
    ///
    /// The histograms get the shape, quota and value checks of
    /// [`DapSession::check_part`], so a resolution other than this
    /// session's (histograms bucketed at another `max_d_out`), a count
    /// that is NaN, negative or fractional, counts that do not add up to
    /// the tally, a report sum that is not finite, or a tally over the
    /// remaining quota is refused typed and leaves the session unchanged.
    /// The plan digest is not checked: it hashes every user id, which
    /// would cost most of what reusing a bucketing saves. The caller
    /// vouches that the histograms were bucketed over this session's plan
    /// and mechanisms.
    ///
    /// Counts are whole numbers below 2⁵³, so adding one equals adding
    /// 1.0 that many times. A fresh session's report sum is +0.0, and
    /// adding a sum that also started at +0.0 gives that sum bit for bit.
    /// Seeding a fresh session and then ingesting reports therefore
    /// finalizes exactly like ingesting all the reports in that order.
    pub fn ingest_histograms(&mut self, hists: &[GroupHistogram]) -> Result<(), DapError> {
        self.check_plain()?;
        self.check_histograms(hists)?;
        self.absorb_histograms(hists);
        Ok(())
    }

    /// The checks of [`DapSession::check_part`] after the digest, shared
    /// with [`DapSession::ingest_histograms`]: one histogram per group, at
    /// the group's resolution, within its remaining quota, with values
    /// that ingesting reports could produce.
    fn check_histograms(&self, hists: &[GroupHistogram]) -> Result<(), DapError> {
        if hists.len() != self.groups.len() {
            return Err(DapError::SessionMismatch { what: "part group count" });
        }
        for (g, (state, h)) in self.groups.iter().zip(hists).enumerate() {
            if h.counts.len() != state.hist.counts.len() {
                return Err(DapError::SessionMismatch { what: "part histogram resolution" });
            }
            // A tally may come off the wire, out of a checkpoint or from a
            // caller, so any value may arrive; the sum must not wrap past
            // the quota.
            if state.hist.n_reports.checked_add(h.n_reports).is_none_or(|n| n > state.quota) {
                return Err(DapError::QuotaExceeded {
                    group: g,
                    quota: state.quota,
                    ingested: state.hist.n_reports,
                    attempted: h.n_reports,
                });
            }
            if !part_values_hold(h) {
                return Err(DapError::SessionMismatch { what: "part histogram values" });
            }
        }
        Ok(())
    }

    /// Adds histograms that [`DapSession::check_histograms`] accepted.
    fn absorb_histograms(&mut self, hists: &[GroupHistogram]) {
        for (state, h) in self.groups.iter_mut().zip(hists) {
            state.hist.absorb(h);
        }
    }

    /// Digest of the full session state: the [`DapSession::state_digest`]
    /// compatibility fields **plus** every streamed histogram value
    /// (bucket counts, running report sums and tallies, f64s by bit
    /// pattern). Two sessions with equal content digests hold
    /// bit-identical ingested state — the invariant the durability
    /// layer's recovery proves ([`crate::storage::DurableSession`]):
    /// a session restored from its journal reports the same content
    /// digest as the pre-crash session.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(b"dap-session-content/v1");
        h.word(self.state_digest());
        for state in &self.groups {
            h.word(state.hist.counts.len() as u64);
            for &c in &state.hist.counts {
                h.word(c.to_bits());
            }
            h.word(state.hist.sum_reports.to_bits());
            h.word(state.hist.n_reports as u64);
        }
        // Masked state participates too (plain sessions hash nothing
        // extra, keeping their digests unchanged): recovery of a masked
        // share server proves the same restored-state invariant as a
        // plain one.
        if let Some(masked) = &self.masked {
            h.bytes(b"masked");
            h.word(masked.role.k as u64);
            h.word(masked.role.index as u64);
            for group in &masked.groups {
                h.word(group.len() as u64);
                for &w in group {
                    h.word(w);
                }
            }
        }
        h.finish()
    }

    // -----------------------------------------------------------------
    // Masked mode (the secret-sharing tier — see `crate::secagg`)
    // -----------------------------------------------------------------

    /// The session's share-server role, or `None` for a plain session.
    pub fn secagg_role(&self) -> Option<SecaggRole> {
        self.masked.as_ref().map(|m| m.role)
    }

    /// Share batches accepted so far (0 for a plain session).
    pub fn shares_applied(&self) -> u64 {
        self.masked.as_ref().map_or(0, |m| m.shares_applied)
    }

    /// Number of replay-guard channels the session has seen.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    fn masked_state(&self) -> Result<&MaskedState, DapError> {
        self.masked.as_ref().ok_or(DapError::ModeMismatch { masked: false })
    }

    /// Records the dealer's seed commitment (announced in the masked
    /// hello). Idempotent for the same commitment; a *different* one is
    /// refused — two dealers masking under different seeds must not feed
    /// one accumulator, their shares would never cancel.
    pub fn adopt_commitment(&mut self, commitment: u64) -> Result<(), DapError> {
        self.masked_state()?;
        let masked = self.masked.as_mut().expect("checked above");
        match masked.commitment {
            None => {
                masked.commitment = Some(commitment);
                Ok(())
            }
            Some(existing) if existing == commitment => Ok(()),
            Some(_) => Err(DapError::SessionMismatch { what: "seed commitment" }),
        }
    }

    /// The validation half of [`DapSession::ingest_shares`]: masked mode,
    /// then the replay guard (duplicates before content, like the
    /// plaintext sequenced path), then group index and share shape. No
    /// quota check — the words are blinded, so quota is enforced by the
    /// coordinator at reconstruction (where the true counts first exist).
    pub fn check_ingest_shares(
        &self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), DapError> {
        self.masked_state()?;
        let last = self.channels.get(&channel).copied().unwrap_or(0);
        if seq <= last {
            return Err(DapError::DuplicateSequence { channel, seq, last });
        }
        if seq != last + 1 {
            return Err(DapError::SequenceGap { channel, seq, expected: last + 1 });
        }
        self.check_group(group)?;
        if counts.len() != self.groups[group].hist.counts.len() {
            return Err(DapError::SessionMismatch { what: "share resolution" });
        }
        Ok(())
    }

    /// Accepts one share batch — the masked counterpart of
    /// [`DapSession::ingest_batch_seq`]: wrapping-adds the share words
    /// into the group's masked accumulator under the same per-channel
    /// replay guard (so retries dedup and chaos-path resume works
    /// verbatim). On any error the session is unchanged.
    pub fn ingest_shares(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), DapError> {
        self.check_ingest_shares(channel, seq, group, counts)?;
        self.apply_shares(channel, seq, group, counts);
        Ok(())
    }

    /// The accumulation half of [`DapSession::ingest_shares`], for a batch
    /// that [`DapSession::check_ingest_shares`] accepted with nothing
    /// applied since (see [`DapSession::apply_batch`]).
    pub(crate) fn apply_shares(&mut self, channel: u64, seq: u64, group: usize, counts: &[u64]) {
        let masked = self.masked.as_mut().expect("checked by check_ingest_shares");
        for (acc, &share) in masked.groups[group].iter_mut().zip(counts) {
            *acc = acc.wrapping_add(share);
        }
        masked.shares_applied += 1;
        self.channels.insert(channel, seq);
    }

    /// Serializes the masked state for transport — the share server's
    /// answer to `masked-pull`, and the checkpoint payload of a masked
    /// journaled daemon. Plain sessions refuse (there are no shares to
    /// export, and exporting zeros would merge as silent garbage).
    pub fn export_masked_part(&self) -> Result<MaskedPart, DapError> {
        let masked = self.masked_state()?;
        Ok(MaskedPart {
            digest: self.state_digest(),
            k: masked.role.k,
            index: masked.role.index,
            commitment: masked.commitment.unwrap_or(0),
            groups: masked
                .groups
                .iter()
                .map(|g| MaskedGroup { counts: g.clone() })
                .collect(),
            channels: self.channels.iter().map(|(&c, &s)| (c, s)).collect(),
        })
    }

    /// Absorbs a masked part produced by the **same share server** (same
    /// deployment, same role) — the checkpoint-restore half of masked
    /// durability. This is *accumulation*, not reconstruction: masks do
    /// not cancel here (that needs all `k` servers' parts —
    /// [`crate::secagg::reconstruct`], a coordinator operation).
    pub fn merge_masked_part(&mut self, part: &MaskedPart) -> Result<(), DapError> {
        let masked = self.masked_state()?;
        if part.digest != self.state_digest() {
            return Err(DapError::SessionMismatch { what: "state digest" });
        }
        if part.k != masked.role.k || part.index != masked.role.index {
            return Err(DapError::SessionMismatch { what: "secagg topology" });
        }
        if part.groups.len() != masked.groups.len() {
            return Err(DapError::SessionMismatch { what: "part group count" });
        }
        for (pg, mg) in part.groups.iter().zip(&masked.groups) {
            if pg.counts.len() != mg.len() {
                return Err(DapError::SessionMismatch { what: "part histogram resolution" });
            }
        }
        if part.commitment != 0 {
            self.adopt_commitment(part.commitment)?;
        }
        let masked = self.masked.as_mut().expect("checked above");
        for (acc, pg) in masked.groups.iter_mut().zip(&part.groups) {
            for (a, &c) in acc.iter_mut().zip(&pg.counts) {
                *a = a.wrapping_add(c);
            }
        }
        for &(channel, seq) in &part.channels {
            let entry = self.channels.entry(channel).or_insert(0);
            *entry = (*entry).max(seq);
        }
        Ok(())
    }
}

/// Whether a histogram's values could come from ingesting its reports:
/// whole, non-negative counts (NaN and ±∞ fail the test) that add up to
/// its tally, and a finite report sum. The total is exact in f64 since it
/// is compared with a tally that the quota check bounds far below 2⁵³.
fn part_values_hold(h: &GroupHistogram) -> bool {
    h.counts.iter().all(|&c| c >= 0.0 && c.fract() == 0.0)
        && h.counts.iter().sum::<f64>() == h.n_reports as f64
        && h.sum_reports.is_finite()
}

/// One group's streamed state inside a [`SessionPart`]: its histogram.
pub type PartGroup = GroupHistogram;

/// A session's per-group ingestion state, detached from the session for
/// transport between processes (see [`DapSession::export_part`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPart {
    /// [`DapSession::state_digest`] of the originating session; merging
    /// verifies it against the receiver.
    pub digest: u64,
    /// Per-group state, in group order.
    pub groups: Vec<PartGroup>,
    /// The originating session's replay-guard high-water marks, `(channel,
    /// last applied seq)` in channel order — carried so that a checkpoint
    /// (which is a part frame) restores dedup state across a restart, and
    /// merged by per-channel maximum. Empty for sessions that never saw
    /// sequenced ingestion; an empty table is omitted from the wire
    /// encoding, keeping pre-sequencing part frames byte-identical.
    pub channels: Vec<(u64, u64)>,
}

impl<M: NumericMechanism + Sync> DapSession<M> {
    /// Runs the collector pipeline on the ingested state: side/γ̂ probe on
    /// the most private group, per-group estimation under each scheme
    /// (fanned out over [`crate::parallel_map`]; bit-identical for any
    /// thread count), and Algorithm-5 aggregation. Outputs come back in
    /// `schemes` order; the session is left untouched, so more reports can
    /// be ingested and `finalize` called again.
    pub fn finalize(&self, schemes: &[Scheme]) -> Result<Vec<DapOutput>, DapError> {
        self.check_plain()?;
        if schemes.is_empty() {
            return Ok(Vec::new());
        }
        Ok(match self.config.mode {
            EstimationMode::ReportSum => self.finalize_report_sum(schemes),
            EstimationMode::HistogramBands => self.finalize_bands(schemes),
        })
    }

    /// Probe + Eq. 13 estimation + aggregation for unbiased mechanisms —
    /// stages 3–5 of the PM protocol, verbatim.
    fn finalize_report_sum(&self, schemes: &[Scheme]) -> Vec<DapOutput> {
        let cfg = &self.config;
        let plan = &self.plan;

        // Stage 3: probing on the most private group (Theorem 3: smallest ε
        // probes Byzantine features best), reading the streamed histogram.
        let probe_g = plan.probe_group();
        let probe_cfg = &self.groups[probe_g].emf_cfg;
        let probe = probe_side(
            &self.mechs[probe_g],
            &self.groups[probe_g].hist.counts,
            probe_cfg.d_in,
            cfg.o_prime,
            &probe_cfg.em,
        );
        let side = probe.side;
        let gamma = probe.chosen().poison_mass();

        // Stage 4: intra-group estimation (Eq. 13), fanned out over the
        // independent groups. The probe group's base EMF fit is exactly the
        // probe's chosen-side run (same cached matrix, counts and stopping
        // rule), so it is handed down instead of being recomputed.
        let group_inputs: Vec<usize> = (0..plan.len()).collect();
        let estimates = parallel_map(group_inputs, |g| {
            let probed_base = (g == probe_g).then(|| probe.chosen());
            estimate_group_means_hist(
                &self.mechs[g],
                &self.groups[g].hist,
                side,
                cfg.o_prime,
                gamma,
                schemes,
                &self.groups[g].emf_cfg,
                probed_base,
                &mut EmWorkspace::new(),
            )
        });

        // Stage 5: inter-group aggregation (Algorithm 5), per scheme.
        let per_group: Vec<Vec<(f64, f64, usize)>> = estimates
            .iter()
            .map(|per_scheme| {
                per_scheme.iter().map(|e| (e.mean, e.m_hat, e.n_reports)).collect()
            })
            .collect();
        self.aggregate_outputs(schemes.len(), side, gamma, &per_group)
    }

    /// Band probe + histogram-mean estimation + aggregation for biased
    /// mechanisms (SW) — the §V-D pipeline.
    fn finalize_bands(&self, schemes: &[Scheme]) -> Vec<DapOutput> {
        let plan = &self.plan;

        // Probe the two inflation bands on the most private group; the
        // estimation pivot is the input-domain end on the poisoned side.
        let probe_g = plan.probe_group();
        let (side, gamma) = probe_side_bands(
            &self.mechs[probe_g],
            &self.groups[probe_g].hist.counts,
            &self.groups[probe_g].emf_cfg,
        );
        let (ilo, ihi) = self.mechs[0].input_range();
        let o_prime_out = match side {
            Side::Right => ihi,
            Side::Left => ilo,
        };

        // Per-group estimation from the reconstructed input histograms; the
        // poison share converts to a report count for the shared stage 5.
        let estimates = parallel_map((0..plan.len()).collect(), |g| {
            sw_group_means_hist(
                &self.mechs[g],
                &self.groups[g].hist,
                side,
                o_prime_out,
                gamma,
                schemes,
                &self.groups[g].emf_cfg,
            )
        });
        let per_group: Vec<Vec<(f64, f64, usize)>> = estimates
            .iter()
            .enumerate()
            .map(|(g, per_scheme)| {
                let n_reports = self.groups[g].hist.n_reports;
                per_scheme
                    .iter()
                    .map(|&(mean_t, gamma_t)| (mean_t, n_reports as f64 * gamma_t, n_reports))
                    .collect()
            })
            .collect();
        self.aggregate_outputs(schemes.len(), side, gamma, &per_group)
    }

    /// Stage 5, shared by both modes: combines the per-group, per-scheme
    /// `(M_t, m̂_t, N_t)` triples with Algorithm 5's variance-optimal
    /// weights into one [`DapOutput`] per scheme.
    fn aggregate_outputs(
        &self,
        n_schemes: usize,
        side: Side,
        gamma: f64,
        per_group: &[Vec<(f64, f64, usize)>],
    ) -> Vec<DapOutput> {
        let cfg = &self.config;
        let plan = &self.plan;
        let (ilo, ihi) = self.mechs[0].input_range();
        let worst_vars: Vec<f64> =
            self.mechs.iter().map(|m| m.worst_case_variance()).collect();
        (0..n_schemes)
            .map(|s| {
                let mut means = Vec::with_capacity(plan.len());
                let mut n_hats = Vec::with_capacity(plan.len());
                let mut groups = Vec::with_capacity(plan.len());
                for (g, per_scheme) in per_group.iter().enumerate() {
                    let (mean_t, m_hat, n_reports) = per_scheme[s];
                    let eps_t = plan.budgets[g];
                    let n_hat = (n_reports as f64 - m_hat) * eps_t.get() / cfg.eps;
                    means.push(mean_t);
                    n_hats.push(n_hat);
                    groups.push(GroupReport {
                        eps_t: eps_t.get(),
                        n_reports,
                        mean_t,
                        m_hat,
                        n_hat,
                        weight: 0.0, // filled below
                    });
                }
                let agg = aggregate(&means, &n_hats, &worst_vars, cfg.weighting);
                for (g, w) in groups.iter_mut().zip(&agg.weights) {
                    g.weight = *w;
                }
                let mean =
                    if cfg.clamp_to_input { agg.mean.clamp(ilo, ihi) } else { agg.mean };
                DapOutput { mean, side, gamma, min_variance: agg.min_variance, groups }
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::population::Population;
    use dap_attack::{Attack, UniformAttack};
    use dap_estimation::rng::seeded;
    use dap_ldp::PiecewiseMechanism;

    pub(crate) fn session(eps: f64, n_users: usize, seed: u64) -> DapSession<PiecewiseMechanism> {
        let cfg = DapConfig { max_d_out: 32, ..DapConfig::paper_default(eps, Scheme::Emf) };
        let plan = GroupPlan::build(n_users, cfg.eps, cfg.eps0, &mut seeded(seed));
        DapSession::new(cfg, plan, PiecewiseMechanism::new).expect("valid session")
    }

    #[test]
    fn ingest_accumulates_into_the_histogram() {
        let mut s = session(0.25, 400, 1);
        s.ingest(0, 0.5).unwrap();
        s.ingest(0, -0.5).unwrap();
        assert_eq!(s.ingested(0), 2);
        assert_eq!(s.histogram(0).sum_reports, 0.0);
        assert_eq!(s.histogram(0).counts.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn out_of_range_reports_are_rejected_without_trace() {
        let mut s = session(0.25, 400, 2);
        let err = s.ingest(0, 1e6).unwrap_err();
        assert!(matches!(err, DapError::ReportOutOfRange { group: 0, .. }));
        let err = s.ingest_batch(1, &[0.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, DapError::ReportOutOfRange { group: 1, .. }));
        assert_eq!(s.ingested(0) + s.ingested(1), 0);
    }

    #[test]
    fn unknown_group_and_quota_violations_are_rejected() {
        let mut s = session(0.25, 40, 3);
        let groups = s.group_count();
        assert!(matches!(
            s.ingest(groups, 0.0),
            Err(DapError::UnknownGroup { .. })
        ));
        let quota = s.quota(0);
        let fill = vec![0.0; quota];
        s.ingest_batch(0, &fill).unwrap();
        let err = s.ingest(0, 0.0).unwrap_err();
        assert!(matches!(err, DapError::QuotaExceeded { group: 0, .. }));
        // The rejected batch left nothing behind.
        assert_eq!(s.ingested(0), quota);
    }

    #[test]
    fn client_assignments_mirror_the_plan() {
        let s = session(0.25, 400, 4);
        for g in 0..s.group_count() {
            let a = s.client_assignment(g).unwrap();
            assert_eq!(a.group, g);
            assert!((a.total_spend() - 0.25).abs() < 1e-12);
        }
        assert!(matches!(
            s.client_assignment(99),
            Err(DapError::UnknownGroup { .. })
        ));
    }

    #[test]
    fn mismatched_plans_refuse_to_merge() {
        let a = session(0.25, 400, 5);
        let b = session(0.25, 400, 6); // different shuffle → different plan
        let err = DapSession::merge([a, b]).unwrap_err();
        assert!(matches!(
            err,
            DapError::SessionMismatch { what: "plan user assignment" }
        ));
        assert!(matches!(
            DapSession::<PiecewiseMechanism>::merge([]).unwrap_err(),
            DapError::SessionMismatch { .. }
        ));
    }

    #[test]
    fn merge_rejections_name_the_mismatched_field() {
        // Same plan, configs differing in exactly one field: the error must
        // say which one, not a blanket "configs differ".
        let cfg = DapConfig { max_d_out: 32, ..DapConfig::paper_default(0.25, Scheme::Emf) };
        let plan = GroupPlan::build(400, cfg.eps, cfg.eps0, &mut seeded(11));
        let a = DapSession::new(cfg, plan.clone(), PiecewiseMechanism::new).unwrap();
        let scheme_differs = DapConfig { scheme: Scheme::EmfStar, ..cfg };
        let b = DapSession::new(scheme_differs, plan.clone(), PiecewiseMechanism::new).unwrap();
        assert!(matches!(
            DapSession::merge([a.clone(), b]).unwrap_err(),
            DapError::SessionMismatch { what: "config scheme" }
        ));
        let clamp_differs = DapConfig { clamp_to_input: false, ..cfg };
        let c = DapSession::new(clamp_differs, plan, PiecewiseMechanism::new).unwrap();
        let err = DapSession::merge([a, c]).unwrap_err();
        assert!(matches!(
            err,
            DapError::SessionMismatch { what: "config clamp_to_input" }
        ));
        assert!(err.to_string().contains("clamp_to_input"), "{err}");
    }

    #[test]
    fn exported_parts_merge_back_exactly() {
        let mut a = session(0.25, 400, 21);
        let mut b = session(0.25, 400, 21); // same seed → same plan
        a.ingest_batch(0, &[0.25, -0.5, 0.125]).unwrap();
        a.ingest(1, 0.75).unwrap();
        b.merge_part(&a.export_part()).expect("compatible part");
        for g in 0..a.group_count() {
            assert_eq!(a.histogram(g).counts, b.histogram(g).counts, "group {g}");
            assert_eq!(
                a.histogram(g).sum_reports.to_bits(),
                b.histogram(g).sum_reports.to_bits(),
                "group {g}"
            );
            assert_eq!(a.ingested(g), b.ingested(g));
        }
    }

    #[test]
    fn merge_part_validates_before_mutating() {
        let mut base = session(0.25, 400, 22);
        // Incompatible origin (different plan) → digest mismatch.
        let stranger = session(0.25, 400, 23);
        assert!(matches!(
            base.merge_part(&stranger.export_part()).unwrap_err(),
            DapError::SessionMismatch { what: "state digest" }
        ));
        // Over-quota part → typed quota rejection, state untouched.
        let mut donor = session(0.25, 400, 22);
        let quota = donor.quota(0);
        donor.ingest_batch(0, &vec![0.0; quota]).unwrap();
        let part = donor.export_part();
        base.merge_part(&part).expect("first fill fits");
        let err = base.merge_part(&part).unwrap_err();
        assert!(matches!(err, DapError::QuotaExceeded { group: 0, .. }));
        assert_eq!(base.ingested(0), quota, "rejected part left a trace");
        // A forged tally that would wrap the sum past the quota is refused
        // the same way.
        let mut forged = part.clone();
        forged.groups[0].n_reports = usize::MAX - quota + 1;
        let err = base.merge_part(&forged).unwrap_err();
        assert!(matches!(err, DapError::QuotaExceeded { group: 0, .. }));
        assert_eq!(base.ingested(0), quota, "rejected part left a trace");
    }

    /// An honest part and forgeries of it whose values no ingestion could
    /// produce, each labelled. The fractional and negative counts keep the
    /// total, so the per-count check is what refuses them.
    pub(crate) fn forged_parts() -> (SessionPart, Vec<(&'static str, SessionPart)>) {
        let mut donor = session(0.25, 400, 22);
        donor.ingest_batch(0, &[0.0, 0.5, -0.5, 0.25, -1.0]).unwrap();
        let good = donor.export_part();
        let (i, j) = {
            let counts = &good.groups[0].counts;
            let i = counts.iter().position(|&c| c > 0.0).expect("a filled bucket");
            (i, (i + 1) % counts.len())
        };
        let forge = |f: &dyn Fn(&mut PartGroup)| {
            let mut part = good.clone();
            f(&mut part.groups[0]);
            part
        };
        let forgeries = vec![
            ("NaN count", forge(&|g| g.counts[i] = f64::NAN)),
            ("infinite count", forge(&|g| g.counts[i] = f64::INFINITY)),
            (
                "-5.5 count",
                forge(&|g| {
                    g.counts[j] += g.counts[i] + 5.5;
                    g.counts[i] = -5.5;
                }),
            ),
            (
                "0.5 count",
                forge(&|g| {
                    g.counts[i] -= 0.5;
                    g.counts[j] += 0.5;
                }),
            ),
            ("wrong total", forge(&|g| g.n_reports += 1)),
            ("NaN report sum", forge(&|g| g.sum_reports = f64::NAN)),
            ("infinite report sum", forge(&|g| g.sum_reports = f64::NEG_INFINITY)),
        ];
        (good, forgeries)
    }

    #[test]
    fn merge_part_refuses_impossible_values() {
        let mut base = session(0.25, 400, 22);
        base.ingest_batch(0, &[0.1, -0.1]).unwrap();
        let before = base.content_digest();
        let (good, forgeries) = forged_parts();
        for (label, forged) in forgeries {
            let err = base.merge_part(&forged).unwrap_err();
            assert!(
                matches!(err, DapError::SessionMismatch { what: "part histogram values" }),
                "{label}: {err}"
            );
            assert_eq!(base.content_digest(), before, "{label} left a trace");
        }
        base.merge_part(&good).expect("the honest part merges");
        assert_eq!(base.ingested(0), 7);
    }

    #[test]
    fn session_mismatch_literals_are_wire_encodable() {
        // Every `what` this module constructs directly (i.e. not via the
        // diff_field helpers, which have their own lockstep tests) must be
        // in the wire table, or the typed rejection degrades to `Failed`.
        for what in [
            "zero sessions (nothing to merge)",
            "config budgets and group plan",
            "mechanism output grids",
            "state digest",
            "part group count",
            "part histogram resolution",
            "share resolution",
            "secagg topology",
            "seed commitment",
            "part histogram values",
        ] {
            assert!(
                DapError::MISMATCH_FIELDS.contains(&what),
                "'{what}' missing from DapError::MISMATCH_FIELDS"
            );
        }
    }

    #[test]
    fn state_digest_covers_config_plan_and_grids() {
        let a = session(0.25, 400, 30);
        assert_eq!(a.state_digest(), session(0.25, 400, 30).state_digest());
        // A different plan shuffle, budget or resolution moves the digest.
        assert_ne!(a.state_digest(), session(0.25, 400, 31).state_digest());
        assert_ne!(a.state_digest(), session(0.5, 400, 30).state_digest());
        let coarser = DapSession::new(
            DapConfig { max_d_out: 16, ..DapConfig::paper_default(0.25, Scheme::Emf) },
            GroupPlan::build(400, 0.25, 1.0 / 16.0, &mut seeded(30)),
            PiecewiseMechanism::new,
        )
        .unwrap();
        assert_ne!(a.state_digest(), coarser.state_digest());
        // Ingestion does not move it — the digest is about compatibility,
        // not content.
        let mut b = session(0.25, 400, 30);
        b.ingest(0, 0.5).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn content_digest_tracks_ingested_state() {
        let a = session(0.25, 400, 30);
        let mut b = session(0.25, 400, 30);
        assert_eq!(a.content_digest(), b.content_digest(), "fresh twins agree");
        // Unlike the compatibility digest, ingestion moves it …
        b.ingest(0, 0.5).unwrap();
        assert_ne!(a.content_digest(), b.content_digest());
        assert_eq!(a.state_digest(), b.state_digest());
        // … and replaying the same reports restores it exactly.
        let mut c = session(0.25, 400, 30);
        c.ingest(0, 0.5).unwrap();
        assert_eq!(b.content_digest(), c.content_digest());
    }

    #[test]
    fn mismatched_mechanism_grids_refuse_to_merge() {
        // Same config and plan, but one shard's factory ignores its assigned
        // budget — its output domains (hence report grids) differ, and
        // merging the bucket counts would be silently wrong.
        let cfg = DapConfig { max_d_out: 32, ..DapConfig::paper_default(0.25, Scheme::Emf) };
        let plan = GroupPlan::build(400, cfg.eps, cfg.eps0, &mut seeded(7));
        let a = DapSession::new(cfg, plan.clone(), PiecewiseMechanism::new).unwrap();
        let b = DapSession::new(cfg, plan, |_| {
            PiecewiseMechanism::new(dap_ldp::Epsilon::of(2.0))
        })
        .unwrap();
        let err = DapSession::merge([a, b]).unwrap_err();
        assert!(matches!(
            err,
            DapError::SessionMismatch { what: "mechanism output grids" }
        ));
    }

    #[test]
    fn sequenced_ingest_dedups_retries_and_rejects_gaps() {
        let mut s = session(0.25, 400, 40);
        let ch = 0xc0ffee;
        assert_eq!(s.last_seq(ch), None);
        s.ingest_batch_seq(ch, 1, 0, &[0.5, -0.25]).unwrap();
        s.ingest_batch_seq(ch, 2, 1, &[0.125]).unwrap();
        assert_eq!(s.last_seq(ch), Some(2));
        let digest = s.content_digest();

        // A retry of an applied batch is rejected typed and leaves no trace.
        let err = s.ingest_batch_seq(ch, 2, 1, &[0.125]).unwrap_err();
        assert!(
            matches!(err, DapError::DuplicateSequence { channel, seq: 2, last: 2 } if channel == ch),
            "{err}"
        );
        assert_eq!(s.content_digest(), digest, "duplicate left a trace");

        // Skipping ahead is a gap, not silently accepted.
        let err = s.ingest_batch_seq(ch, 4, 0, &[0.0]).unwrap_err();
        assert!(
            matches!(err, DapError::SequenceGap { seq: 4, expected: 3, .. }),
            "{err}"
        );
        assert_eq!(s.last_seq(ch), Some(2));

        // A *rejected* batch (bad content) does not advance the guard, so
        // the corrected retry of the same sequence succeeds.
        let err = s.ingest_batch_seq(ch, 3, 0, &[f64::NAN]).unwrap_err();
        assert!(matches!(err, DapError::ReportOutOfRange { .. }));
        assert_eq!(s.last_seq(ch), Some(2));
        s.ingest_batch_seq(ch, 3, 0, &[0.25]).unwrap();

        // Channels are independent.
        s.ingest_batch_seq(0xbeef, 1, 0, &[0.0]).unwrap();
        assert_eq!(s.last_seq(ch), Some(3));
        assert_eq!(s.last_seq(0xbeef), Some(1));
    }

    #[test]
    fn parts_carry_the_replay_guard_across_export_and_merge() {
        let mut a = session(0.25, 400, 41);
        a.ingest_batch_seq(7, 1, 0, &[0.5]).unwrap();
        a.ingest_batch_seq(7, 2, 0, &[0.25]).unwrap();
        a.ingest_batch_seq(9, 1, 1, &[0.0]).unwrap();
        let part = a.export_part();
        assert_eq!(part.channels, vec![(7, 2), (9, 1)]);

        // A fresh twin restored from the part refuses the same retries.
        let mut b = session(0.25, 400, 41);
        b.merge_part(&part).unwrap();
        assert_eq!(b.last_seq(7), Some(2));
        let err = b.ingest_batch_seq(7, 2, 0, &[0.25]).unwrap_err();
        assert!(matches!(err, DapError::DuplicateSequence { seq: 2, last: 2, .. }));
        b.ingest_batch_seq(7, 3, 0, &[0.125]).unwrap();

        // Merging parts combines guards by per-channel maximum.
        let mut c = session(0.25, 400, 41);
        c.merge_part(&b.export_part()).unwrap(); // channel 7 through seq 3
        c.merge_part(&part).unwrap(); // channel 7 through seq 2 — stale, kept at 3
        assert_eq!(c.last_seq(7), Some(3));
        assert_eq!(c.last_seq(9), Some(1)); // max(1, 1), not a sum
    }

    #[test]
    fn content_digest_ignores_the_replay_guard() {
        // The guard is transport bookkeeping, not ingested content: a
        // session fed the same reports without sequencing holds identical
        // content (the chaos exactness property compares a faulted,
        // retried run against a clean unsequenced reference).
        let mut a = session(0.25, 400, 42);
        let mut b = session(0.25, 400, 42);
        a.ingest_batch_seq(3, 1, 0, &[0.5, -0.5]).unwrap();
        a.ingest_batch_seq(3, 2, 1, &[0.25]).unwrap();
        b.ingest_batch(0, &[0.5, -0.5]).unwrap();
        b.ingest_batch(1, &[0.25]).unwrap();
        assert_eq!(a.content_digest(), b.content_digest());
        assert_ne!(a.export_part().channels, b.export_part().channels);
    }

    fn masked_session(eps: f64, n_users: usize, seed: u64, k: usize, index: usize) -> DapSession<PiecewiseMechanism> {
        let cfg = DapConfig { max_d_out: 32, ..DapConfig::paper_default(eps, Scheme::Emf) };
        let plan = GroupPlan::build(n_users, cfg.eps, cfg.eps0, &mut seeded(seed));
        DapSession::new_masked(cfg, plan, PiecewiseMechanism::new, SecaggRole { k, index })
            .expect("valid masked session")
    }

    #[test]
    fn masked_sessions_refuse_every_plaintext_operation() {
        let mut s = masked_session(0.25, 400, 50, 3, 1);
        assert_eq!(s.secagg_role(), Some(SecaggRole { k: 3, index: 1 }));
        let masked = |r: Result<(), DapError>| {
            assert!(matches!(r.unwrap_err(), DapError::ModeMismatch { masked: true }));
        };
        masked(s.ingest(0, 0.5));
        masked(s.ingest_batch(0, &[0.5]));
        masked(s.ingest_batch_seq(1, 1, 0, &[0.5]));
        let part = session(0.25, 400, 50).export_part();
        masked(s.merge_part(&part));
        assert!(matches!(
            s.finalize(&[Scheme::Emf]).unwrap_err(),
            DapError::ModeMismatch { masked: true }
        ));
        let twin = masked_session(0.25, 400, 50, 3, 1);
        assert!(matches!(
            DapSession::merge([s, twin]).unwrap_err(),
            DapError::ModeMismatch { masked: true }
        ));
        // And the inverse: masked operations on a plain session.
        let mut plain = session(0.25, 400, 50);
        assert!(matches!(
            plain.ingest_shares(1, 1, 0, &[0u64; 4]).unwrap_err(),
            DapError::ModeMismatch { masked: false }
        ));
        assert!(matches!(
            plain.export_masked_part().unwrap_err(),
            DapError::ModeMismatch { masked: false }
        ));
        assert!(matches!(
            plain.adopt_commitment(7).unwrap_err(),
            DapError::ModeMismatch { masked: false }
        ));
    }

    #[test]
    fn masked_and_plain_twins_share_the_deployment_digest() {
        // The hello handshake must interoperate: a coordinator's plain
        // session and a share server opened from the same deployment agree
        // on the compatibility digest (content digests differ by mode).
        let plain = session(0.25, 400, 51);
        let masked = masked_session(0.25, 400, 51, 2, 0);
        assert_eq!(plain.state_digest(), masked.state_digest());
        assert_ne!(plain.content_digest(), masked.content_digest());
    }

    #[test]
    fn ingest_shares_accumulates_under_the_replay_guard() {
        let mut s = masked_session(0.25, 400, 52, 2, 0);
        let d0 = s.histogram(0).counts.len();
        let shares: Vec<u64> = (0..d0 as u64).collect();
        s.ingest_shares(9, 1, 0, &shares).unwrap();
        let digest = s.content_digest();
        // A duplicate is rejected and leaves no trace (the failover dedup
        // contract, identical to the plaintext sequenced path).
        let err = s.ingest_shares(9, 1, 0, &shares).unwrap_err();
        assert!(matches!(err, DapError::DuplicateSequence { seq: 1, last: 1, .. }));
        assert_eq!(s.content_digest(), digest);
        let err = s.ingest_shares(9, 3, 0, &shares).unwrap_err();
        assert!(matches!(err, DapError::SequenceGap { seq: 3, expected: 2, .. }));
        // Wrong share shape is a typed mismatch; wrapping accumulation is
        // exact for the right one.
        let err = s.ingest_shares(9, 2, 0, &[1u64]).unwrap_err();
        assert!(matches!(err, DapError::SessionMismatch { what: "share resolution" }));
        s.ingest_shares(9, 2, 0, &vec![u64::MAX; d0]).unwrap();
        let part = s.export_masked_part().unwrap();
        for (b, &w) in part.groups[0].counts.iter().enumerate() {
            assert_eq!(w, (b as u64).wrapping_add(u64::MAX), "bucket {b}");
        }
        assert_eq!(s.shares_applied(), 2);
        assert_eq!(s.last_seq(9), Some(2));
    }

    #[test]
    fn masked_parts_restore_a_share_server_exactly() {
        // Checkpoint-restore: a fresh twin that merges the exported part
        // reports the same content digest — the durability invariant.
        let mut a = masked_session(0.25, 400, 53, 3, 2);
        let d0 = a.histogram(0).counts.len();
        a.adopt_commitment(0xc0ffee).unwrap();
        a.ingest_shares(5, 1, 0, &vec![17u64; d0]).unwrap();
        let part = a.export_masked_part().unwrap();
        assert_eq!(part.commitment, 0xc0ffee);

        let mut b = masked_session(0.25, 400, 53, 3, 2);
        b.merge_masked_part(&part).unwrap();
        assert_eq!(a.content_digest(), b.content_digest());
        assert_eq!(b.last_seq(5), Some(1), "replay guard restored");

        // Wrong role or foreign deployment refuse typed, state untouched.
        let mut other_role = masked_session(0.25, 400, 53, 3, 0);
        assert!(matches!(
            other_role.merge_masked_part(&part).unwrap_err(),
            DapError::SessionMismatch { what: "secagg topology" }
        ));
        let mut stranger = masked_session(0.25, 400, 54, 3, 2);
        assert!(matches!(
            stranger.merge_masked_part(&part).unwrap_err(),
            DapError::SessionMismatch { what: "state digest" }
        ));
        // A conflicting dealer commitment is refused too.
        let mut c = masked_session(0.25, 400, 53, 3, 2);
        c.adopt_commitment(0xdead).unwrap();
        assert!(matches!(
            c.merge_masked_part(&part).unwrap_err(),
            DapError::SessionMismatch { what: "seed commitment" }
        ));
    }

    #[test]
    fn masked_state_holds_no_plaintext_histogram() {
        // Feed a share server one share of a known contribution: its
        // in-memory state must differ from the true counts (it is mask
        // material), and the plaintext histograms must stay untouched
        // zeros — the "single compromised daemon reveals nothing" claim,
        // asserted on state rather than by inspection.
        use crate::secagg::ShareSplitter;
        let mut server = masked_session(0.25, 400, 55, 2, 1);
        let d0 = server.histogram(0).counts.len();
        let truth: Vec<u64> = (0..d0 as u64).map(|b| b % 5).collect();
        let splitter = ShareSplitter::new(2, 0xfeed).unwrap();
        server.ingest_shares(1, 1, 0, &splitter.share_for(1, 0, 0, &truth)).unwrap();
        let part = server.export_masked_part().unwrap();
        assert_ne!(part.groups[0].counts, truth, "a single share leaked the histogram");
        assert!(server.histogram(0).counts.iter().all(|&c| c == 0.0));
        assert_eq!(server.ingested(0), 0);
    }

    #[test]
    fn finalize_runs_on_streamed_state() {
        // A small end-to-end smoke: honest reports + poison through the
        // session API recover a sane mean (the bit-exact equivalence with
        // the one-shot driver lives in tests/session_equivalence.rs).
        let n = 1_200;
        let pop = Population::with_gamma(vec![0.2; n], 0.2);
        let cfg = DapConfig { max_d_out: 32, ..DapConfig::paper_default(0.25, Scheme::Emf) };
        let mut rng = seeded(7);
        let plan = GroupPlan::build(pop.total(), cfg.eps, cfg.eps0, &mut rng);
        let mut s = DapSession::new(cfg, plan, PiecewiseMechanism::new).unwrap();
        let attack = UniformAttack::of_upper(0.5, 1.0);
        for g in 0..s.group_count() {
            let assign = s.client_assignment(g).unwrap();
            let mech = PiecewiseMechanism::new(assign.eps_t);
            let mut byz = 0usize;
            for i in 0..s.plan().assignment[g].len() {
                let user = s.plan().assignment[g][i];
                if user < pop.honest.len() {
                    let reports = assign.perturb(&mech, pop.honest[user], &mut rng);
                    s.ingest_batch(g, &reports).unwrap();
                } else {
                    byz += 1;
                }
            }
            let poison = attack.reports(byz * assign.k_t, &mech, &mut rng);
            s.ingest_batch(g, &poison).unwrap();
        }
        let outs = s.finalize(&[Scheme::Emf, Scheme::EmfStar]).unwrap();
        assert_eq!(outs.len(), 2);
        for out in &outs {
            assert!((out.mean - 0.2).abs() < 0.4, "mean {}", out.mean);
            assert_eq!(out.groups.len(), s.group_count());
        }
        assert!(s.finalize(&[]).unwrap().is_empty());
    }
}
