//! Process-wide perturbed-report cache for the evaluation engine.
//!
//! Perturbation is the second-largest cost in the figure drivers after EM:
//! every cell re-perturbs its (already cached) population even though the
//! honest reports depend only on `(population, mechanism, ε)` — never on
//! the attack, the defense, or the scheme under evaluation. This cache
//! memoizes the two honest-report shapes the engine consumes:
//!
//! * **flat batches** — every honest user perturbs once at full ε (the
//!   defense rows, probes, and single-batch estimators), and
//! * **grouped protocol reports** — [`dap_core::PreparedReports`]: the
//!   shuffled [`dap_core::GroupPlan`] plus each honest user's `k_t`
//!   reports at `ε_t` (the DAP/SW-DAP cells). The entry also holds those
//!   reports bucketed into one [`GroupHistogram`] per group, in a single
//!   slot keyed by the replay's `max_d_out`, so the cells replay through
//!   [`dap_core::Dap::run_schemes_bucketed`] without re-bucketing
//!   (see [`ReportCache::bucketed`]).
//!
//! The determinism contract mirrors [`dap_datasets::PopulationCache`]: the
//! generation RNG stream is derived from the key alone — `(dataset,
//! domain, n, γ, seed, trial, mechanism, ε[, ε₀])` — never from a caller's
//! stream or execution order, so
//!
//! * reports are **identical whether or not the cache is warm** (a warm
//!   `experiments fig7` rerun is byte-identical to a cold one), and
//! * sharded runs are bit-identical to single-process runs: each shard
//!   regenerates exactly the report sets its cells need.
//!
//! The coalition's reports are perturbed reports too: they depend only on
//! `(population key, attack spec, mechanism, ε[, ε₀])`, and cell reps are
//! already bit-identical re-runs by the contract above, so "fresh per rep"
//! buys no statistical independence — it only re-runs the (gamma/normal)
//! samplers. The cache therefore also memoizes **poison batches** — flat
//! coalition draws and per-group protocol batches
//! ([`dap_core::Dap::poison_batches`]) — keyed by the honest coordinate
//! plus [`AttackSpec::key_words`], with the generation stream derived from
//! that extended key.
//!
//! Entries are evicted least-recently-used beyond [`DEFAULT_CAPACITY`]
//! (override with `DAP_REPORT_CACHE_CAP`); hit/miss/eviction counters are
//! exposed through [`ReportCache::stats`] and printed by `experiments all`
//! next to the population-cache counters.

use crate::cell::AttackSpec;
use crate::common::perturb_all;
use dap_core::{Dap, DapConfig, GroupHistogram, PreparedReports, Scheme};
use dap_datasets::cache::Domain;
use dap_datasets::{Dataset, PopulationCache};
use dap_estimation::rng::derive;
use dap_ldp::{Duchi, Epsilon, PiecewiseMechanism, SquareWave};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default entry cap. At the default scale (N = 20 000, ε = 1) a flat
/// entry is ~160 kB and a grouped entry ~0.9 MB: ~95 000 honest reports
/// plus the 20 000-user plan. Its histograms ride inside it (a few kB, no
/// entry of their own). A full `experiments all` sweep touches more
/// coordinates than the cap and evicts; 256 entries stay under ~230 MB
/// even if every one were grouped. At `--paper-scale` entries are 50×
/// larger — lower `DAP_REPORT_CACHE_CAP` if memory-bound.
pub const DEFAULT_CAPACITY: usize = 256;

/// Which mechanism perturbed a cached report set. Engine-level mirror of
/// the mechanism constructors; part of the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportMech {
    /// Piecewise Mechanism.
    Pm,
    /// Duchi et al.'s mechanism.
    Duchi,
    /// Square Wave.
    Sw,
}

/// The population coordinate a report set was perturbed from — exactly the
/// [`PopulationCache`] key, so one `(opts, cell, trial)` names both the
/// population and its report sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportCoord {
    /// Source dataset.
    pub dataset: Dataset,
    /// Input-domain normalization.
    pub domain: Domain,
    /// Total population size (honest + Byzantine).
    pub n: usize,
    /// Coalition proportion γ.
    pub gamma: f64,
    /// Experiment base seed.
    pub seed: u64,
    /// Trial-stream index.
    pub trial: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    dataset: Dataset,
    domain: Domain,
    n: usize,
    gamma_bits: u64,
    seed: u64,
    trial: u64,
    mech: ReportMech,
    eps_bits: u64,
    /// `None` for a flat batch; `Some(ε₀ bits)` for grouped reports (the
    /// plan depends on ε₀, so it is part of the coordinate).
    grouped: Option<u64>,
    /// `None` for honest entries; `Some(attack words)` for poison entries
    /// (see [`AttackSpec::key_words`]).
    attack: Option<[u64; 3]>,
}

/// A grouped entry's honest histograms at the `max_d_out` they were
/// bucketed for. One slot per entry: a replay at another `max_d_out`
/// re-buckets and replaces it.
type HistogramSlot = Mutex<Option<(usize, Arc<Vec<GroupHistogram>>)>>;

#[derive(Debug, Clone)]
enum Entry {
    Flat(Arc<Vec<f64>>),
    /// Prepared reports and the slot for their histograms, which is
    /// evicted with them.
    Grouped(Arc<PreparedReports>, Arc<HistogramSlot>),
    /// The coalition's flat draws for one `(coordinate, attack)` pair.
    PoisonFlat(Arc<Vec<f64>>),
    /// The coalition's per-group protocol batches, in group order.
    PoisonGrouped(Arc<Vec<Vec<f64>>>),
}

/// Cumulative counters since process start (or the last
/// [`ReportCache::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCacheStats {
    /// Requests served from memory.
    pub hits: u64,
    /// Requests that had to perturb.
    pub misses: u64,
    /// Entries dropped to stay under the capacity.
    pub evictions: u64,
}

/// A bounded, thread-safe memo of perturbed honest-report sets. See the
/// module docs for the determinism contract.
pub struct ReportCache {
    map: Mutex<HashMap<Key, (Entry, u64)>>,
    clock: AtomicU64,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ReportCache {
    /// An empty cache holding at most `capacity` report sets.
    pub fn new(capacity: usize) -> Self {
        ReportCache {
            map: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache (capacity from `DAP_REPORT_CACHE_CAP`,
    /// default [`DEFAULT_CAPACITY`]).
    pub fn global() -> &'static ReportCache {
        static GLOBAL: OnceLock<ReportCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cap = std::env::var("DAP_REPORT_CACHE_CAP")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_CAPACITY);
            ReportCache::new(cap)
        })
    }

    /// The honest users' single-batch reports at full ε under `mech`,
    /// perturbed on first use. Callers append the coalition's reports from
    /// their own trial stream.
    pub fn flat_batch(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
    ) -> Arc<Vec<f64>> {
        let key = key_of(coord, mech, eps, None);
        if let Some(Entry::Flat(found)) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        // Perturb outside the lock; a concurrent miss on the same key
        // produces byte-identical reports, so whichever insert wins is
        // immaterial.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(generate_flat(coord, mech, eps));
        self.insert(key, Entry::Flat(Arc::clone(&fresh)));
        fresh
    }

    /// The protocol's stages 1–2 for a population — shuffled plan plus
    /// per-group honest reports — frozen for replay through
    /// [`Dap::run_schemes_prepared`]. `ε₀` must match the replaying
    /// session's config (the replay rejects mismatches).
    pub fn prepared(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        eps0: f64,
    ) -> Arc<PreparedReports> {
        self.grouped(coord, mech, eps, eps0).0
    }

    /// [`ReportCache::prepared`] plus its honest reports bucketed for a
    /// replay at `max_d_out` ([`Dap::bucket_prepared`]), ready for
    /// [`Dap::run_schemes_bucketed`]. The histograms live in the grouped
    /// entry: this is one counted lookup, like `prepared`, and adds no
    /// entry. They are bucketed on the first replay at a `max_d_out` and
    /// reused until a replay asks for another. They depend on the entry
    /// and `max_d_out` alone, so they are the same bits whether served
    /// warm or bucketed afresh.
    pub fn bucketed(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        eps0: f64,
        max_d_out: usize,
    ) -> (Arc<PreparedReports>, Arc<Vec<GroupHistogram>>) {
        let (prepared, slot) = self.grouped(coord, mech, eps, eps0);
        // Bucketing under the lock makes concurrent replays of one entry
        // wait for a single bucketing instead of each doing it.
        let mut slot = slot.lock().expect("histogram slot poisoned");
        let hists = match &*slot {
            Some((d, hists)) if *d == max_d_out => Arc::clone(hists),
            _ => {
                let fresh = Arc::new(bucket(mech, eps, eps0, max_d_out, &prepared));
                *slot = Some((max_d_out, Arc::clone(&fresh)));
                fresh
            }
        };
        (prepared, hists)
    }

    fn grouped(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        eps0: f64,
    ) -> (Arc<PreparedReports>, Arc<HistogramSlot>) {
        let key = key_of(coord, mech, eps, Some(eps0.to_bits()));
        if let Some(Entry::Grouped(prepared, slot)) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (prepared, slot);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(generate_grouped(coord, mech, eps, eps0));
        let slot = Arc::new(HistogramSlot::default());
        self.insert(key, Entry::Grouped(Arc::clone(&fresh), Arc::clone(&slot)));
        (fresh, slot)
    }

    /// The coalition's single-batch reports at full ε under `mech` for
    /// `spec` — the poison half a flat cell appends to
    /// [`ReportCache::flat_batch`]. Drawn from a stream derived from the
    /// extended key, so the draws are a pure function of
    /// `(coordinate, mechanism, ε, attack)`.
    pub fn poison_flat(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        spec: AttackSpec,
    ) -> Arc<Vec<f64>> {
        let key = poison_key_of(coord, mech, eps, None, spec);
        if let Some(Entry::PoisonFlat(found)) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(generate_poison_flat(coord, mech, eps, spec, &key));
        self.insert(key, Entry::PoisonFlat(Arc::clone(&fresh)));
        fresh
    }

    /// The coalition's per-group protocol batches for `spec` against this
    /// coordinate's [`ReportCache::prepared`] entry (which it fetches — and
    /// warms — itself), ready for
    /// [`dap_core::Dap::run_schemes_prepared_with`].
    pub fn poison_grouped(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        eps0: f64,
        spec: AttackSpec,
    ) -> Arc<Vec<Vec<f64>>> {
        let key = poison_key_of(coord, mech, eps, Some(eps0.to_bits()), spec);
        if let Some(Entry::PoisonGrouped(found)) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prepared = self.prepared(coord, mech, eps, eps0);
        let fresh = Arc::new(generate_poison_grouped(coord, mech, eps, eps0, spec, &prepared, &key));
        self.insert(key, Entry::PoisonGrouped(Arc::clone(&fresh)));
        fresh
    }

    fn lookup(&self, key: &Key) -> Option<Entry> {
        let mut map = self.map.lock().expect("report cache poisoned");
        map.get_mut(key).map(|(entry, stamp)| {
            *stamp = self.clock.fetch_add(1, Ordering::Relaxed);
            entry.clone()
        })
    }

    fn insert(&self, key: Key, fresh: Entry) {
        let mut map = self.map.lock().expect("report cache poisoned");
        if map.contains_key(&key) {
            return;
        }
        if map.len() >= self.capacity {
            if let Some(oldest) =
                map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| *k)
            {
                map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, (fresh, self.clock.fetch_add(1, Ordering::Relaxed)));
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ReportCacheStats {
        ReportCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (entries stay).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drops every entry (counters stay) — used by perf harnesses that
    /// must time cold runs.
    pub fn clear(&self) {
        self.map.lock().expect("report cache poisoned").clear();
    }

    /// Number of resident report sets.
    pub fn len(&self) -> usize {
        self.map.lock().expect("report cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn key_of(coord: &ReportCoord, mech: ReportMech, eps: f64, grouped: Option<u64>) -> Key {
    Key {
        dataset: coord.dataset,
        domain: coord.domain,
        n: coord.n,
        gamma_bits: coord.gamma.to_bits(),
        seed: coord.seed,
        trial: coord.trial,
        mech,
        eps_bits: eps.to_bits(),
        grouped,
        attack: None,
    }
}

fn poison_key_of(
    coord: &ReportCoord,
    mech: ReportMech,
    eps: f64,
    grouped: Option<u64>,
    spec: AttackSpec,
) -> Key {
    Key { attack: Some(spec.key_words()), ..key_of(coord, mech, eps, grouped) }
}

/// The generation stream for a key — FNV-1a over the coordinate with a tag
/// word distinct from both the cell streams and the population cache's, so
/// the three stream families never collide by construction.
fn generation_stream(key: &Key) -> u64 {
    let words = [
        0x7265_7065_7274_7262, // "report" tag
        key.dataset as u64,
        key.domain as u64,
        key.n as u64,
        key.gamma_bits,
        key.trial,
        key.mech as u64,
        key.eps_bits,
        key.grouped.map_or(u64::MAX, |b| b.rotate_left(1)),
    ];
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            acc = (acc ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    // Poison entries fold the attack words in on top; honest entries hash
    // exactly as they did before poison caching existed, keeping their
    // streams (and therefore every cached honest byte) stable.
    if let Some(attack) = key.attack {
        for w in attack {
            for b in w.to_le_bytes() {
                acc = (acc ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
        }
        acc = acc.rotate_left(17) ^ 0x6174_7461_636b_7073; // "attack" tag
    }
    acc
}

fn population_of(coord: &ReportCoord) -> Arc<dap_datasets::cache::SampledPopulation> {
    PopulationCache::global().population(
        coord.dataset,
        coord.domain,
        coord.n,
        coord.gamma,
        coord.seed,
        coord.trial,
    )
}

fn generate_flat(coord: &ReportCoord, mech: ReportMech, eps: f64) -> Vec<f64> {
    let sp = population_of(coord);
    let key = key_of(coord, mech, eps, None);
    let mut rng = derive(coord.seed, generation_stream(&key));
    match mech {
        ReportMech::Pm => perturb_all(&PiecewiseMechanism::new(Epsilon::of(eps)), &sp.honest, &mut rng),
        ReportMech::Duchi => perturb_all(&Duchi::new(Epsilon::of(eps)), &sp.honest, &mut rng),
        ReportMech::Sw => perturb_all(&SquareWave::new(Epsilon::of(eps)), &sp.honest, &mut rng),
    }
}

fn generate_grouped(
    coord: &ReportCoord,
    mech: ReportMech,
    eps: f64,
    eps0: f64,
) -> PreparedReports {
    let sp = population_of(coord);
    let key = key_of(coord, mech, eps, Some(eps0.to_bits()));
    let mut rng = derive(coord.seed, generation_stream(&key));
    // Only ε/ε₀ and the mechanism shape the prepared reports; the scheme
    // and estimation knobs are finalize-time concerns.
    let cfg = DapConfig { eps0, ..DapConfig::paper_default(eps, Scheme::Emf) };
    match mech {
        ReportMech::Pm => Dap::new(cfg, PiecewiseMechanism::new)
            .expect("valid config")
            .prepare_reports(&sp.honest, sp.byzantine, &mut rng)
            .expect("non-empty population"),
        ReportMech::Duchi => Dap::new(cfg, Duchi::new)
            .expect("valid config")
            .prepare_reports(&sp.honest, sp.byzantine, &mut rng)
            .expect("non-empty population"),
        ReportMech::Sw => Dap::new(cfg, SquareWave::new)
            .expect("valid config")
            .prepare_reports(&sp.honest, sp.byzantine, &mut rng)
            .expect("non-empty population"),
    }
}

/// A prepared entry's honest histograms for a replay at `max_d_out`. Only
/// the mechanism, ε, ε₀ and `max_d_out` shape them, so the minimal config
/// that prepared the entry, at that `max_d_out`, buckets them.
fn bucket(
    mech: ReportMech,
    eps: f64,
    eps0: f64,
    max_d_out: usize,
    prepared: &PreparedReports,
) -> Vec<GroupHistogram> {
    let cfg = DapConfig { eps0, max_d_out, ..DapConfig::paper_default(eps, Scheme::Emf) };
    match mech {
        ReportMech::Pm => Dap::new(cfg, PiecewiseMechanism::new)
            .expect("valid config")
            .bucket_prepared(prepared),
        ReportMech::Duchi => Dap::new(cfg, Duchi::new)
            .expect("valid config")
            .bucket_prepared(prepared),
        ReportMech::Sw => Dap::new(cfg, SquareWave::new)
            .expect("valid config")
            .bucket_prepared(prepared),
    }
    .expect("prepared matches config")
}

fn generate_poison_flat(
    coord: &ReportCoord,
    mech: ReportMech,
    eps: f64,
    spec: AttackSpec,
    key: &Key,
) -> Vec<f64> {
    let sp = population_of(coord);
    let mut rng = derive(coord.seed, generation_stream(key));
    let attack = spec.build();
    match mech {
        ReportMech::Pm => {
            attack.reports(sp.byzantine, &PiecewiseMechanism::new(Epsilon::of(eps)), &mut rng)
        }
        ReportMech::Duchi => attack.reports(sp.byzantine, &Duchi::new(Epsilon::of(eps)), &mut rng),
        ReportMech::Sw => attack.reports(sp.byzantine, &SquareWave::new(Epsilon::of(eps)), &mut rng),
    }
}

fn generate_poison_grouped(
    coord: &ReportCoord,
    mech: ReportMech,
    eps: f64,
    eps0: f64,
    spec: AttackSpec,
    prepared: &PreparedReports,
    key: &Key,
) -> Vec<Vec<f64>> {
    let mut rng = derive(coord.seed, generation_stream(key));
    let attack = spec.build();
    // Poison batches depend on the plan (frozen in `prepared`), the
    // per-group mechanisms, and the attack — the same minimal config that
    // shaped the prepared entry reproduces them.
    let cfg = DapConfig { eps0, ..DapConfig::paper_default(eps, Scheme::Emf) };
    match mech {
        ReportMech::Pm => Dap::new(cfg, PiecewiseMechanism::new)
            .expect("valid config")
            .poison_batches(prepared, attack.as_ref(), &mut rng)
            .expect("prepared matches config"),
        ReportMech::Duchi => Dap::new(cfg, Duchi::new)
            .expect("valid config")
            .poison_batches(prepared, attack.as_ref(), &mut rng)
            .expect("prepared matches config"),
        ReportMech::Sw => Dap::new(cfg, SquareWave::new)
            .expect("valid config")
            .poison_batches(prepared, attack.as_ref(), &mut rng)
            .expect("prepared matches config"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(trial: u64) -> ReportCoord {
        ReportCoord {
            dataset: Dataset::Taxi,
            domain: Domain::Signed,
            n: 400,
            gamma: 0.25,
            seed: 7,
            trial,
        }
    }

    #[test]
    fn hit_returns_the_same_reports() {
        let cache = ReportCache::new(8);
        let a = cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        let b = cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), ReportCacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(a.len(), 300, "one report per honest user");
    }

    #[test]
    fn values_are_a_pure_function_of_the_key() {
        // Two caches, different access orders, same key → identical bits.
        let warm = ReportCache::new(8);
        warm.flat_batch(&coord(1), ReportMech::Pm, 0.25);
        warm.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        let via_warm = warm.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        let cold = ReportCache::new(8);
        let via_cold = cold.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        assert_eq!(
            via_warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let prep_warm = warm.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        let prep_cold = cold.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        assert_eq!(*prep_warm, *prep_cold);
    }

    #[test]
    fn distinct_coordinates_get_distinct_streams() {
        let cache = ReportCache::new(16);
        let base = cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        let other_eps = cache.flat_batch(&coord(0), ReportMech::Pm, 1.0);
        assert_ne!(*base, *other_eps, "ε must shape the stream");
        let other_mech = cache.flat_batch(&coord(0), ReportMech::Duchi, 0.5);
        assert_ne!(*base, *other_mech, "mechanisms must differ");
        let other_trial = cache.flat_batch(&coord(1), ReportMech::Pm, 0.5);
        assert_ne!(*base, *other_trial, "trial streams must differ");
    }

    #[test]
    fn grouped_entries_track_eps0() {
        let cache = ReportCache::new(8);
        let a = cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        let b = cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 8.0);
        assert_ne!(a.plan.assignment.len(), b.plan.assignment.len());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn flat_and_grouped_share_the_lru_budget() {
        let cache = ReportCache::new(2);
        cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        // Touch the flat entry so the grouped one is the LRU victim.
        cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        cache.flat_batch(&coord(1), ReportMech::Pm, 0.5);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().misses;
        cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        assert_eq!(cache.stats().misses, before, "flat survivor still resident");
        cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        assert_eq!(cache.stats().misses, before + 1, "grouped victim evicted");
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let cache = ReportCache::new(4);
        cache.flat_batch(&coord(0), ReportMech::Duchi, 0.5);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
        cache.reset_stats();
        assert_eq!(cache.stats(), ReportCacheStats::default());
    }
}
