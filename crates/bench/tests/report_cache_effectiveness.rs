//! Golden guarantees of the report cache in the engine: a warm re-run is
//! **bit-identical** to the cold run that populated the cache (values and
//! rendered stdout), the warm run actually hits (nonzero hit delta — the
//! cache is load-bearing, not decorative), and a sharded subset executed
//! against a warm cache still reproduces the full run's bits. Together
//! these pin the cache's determinism contract: entry values are pure
//! functions of the key, so warmth can change speed but never bytes.

use dap_bench::cell::ExperimentId;
use dap_bench::common::ExpOptions;
use dap_bench::engine::{cache_stats, run_cells, run_cells_subset, CellResult, ResultMap};
use dap_bench::report_cache::ReportCache;
use dap_datasets::PopulationCache;
use std::sync::Mutex;

/// The process-wide caches are shared by every test thread; serialize the
/// tests so hit/miss deltas are attributable.
static CACHES: Mutex<()> = Mutex::new(());

fn opts() -> ExpOptions {
    ExpOptions { n: 1_000, trials: 2, seed: 7, max_d_out: 16 }
}

fn value_bits(results: &[CellResult]) -> Vec<(usize, Vec<u64>)> {
    results
        .iter()
        .map(|r| (r.index, r.values.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn warm_rerun_is_bit_identical_and_actually_hits() {
    let _guard = CACHES.lock().unwrap();
    let opts = opts();
    // fig7 is the perf-tracked experiment: protocol cells (grouped
    // prepared-report entries) and defense cells (flat batches) both ride
    // the report cache.
    let experiment = ExperimentId::Fig7;
    let cells = experiment.cells(&opts);

    PopulationCache::global().clear();
    ReportCache::global().clear();
    let before_cold = cache_stats().1;
    let cold = run_cells(&opts, &cells);
    let after_cold = cache_stats().1;
    assert!(
        after_cold.misses > before_cold.misses,
        "the cold run must populate the report cache"
    );

    let before_warm = after_cold;
    let warm = run_cells(&opts, &cells);
    let after_warm = cache_stats().1;
    assert!(
        after_warm.hits > before_warm.hits,
        "the warm run must be served from the report cache"
    );
    assert_eq!(
        after_warm.misses, before_warm.misses,
        "a warm re-run of identical coordinates must not re-perturb"
    );

    assert_eq!(
        value_bits(&cold),
        value_bits(&warm),
        "warm values diverged from the cold run at the bit level"
    );
    let cold_render = experiment.render(&opts, &ResultMap::from_results(&cold));
    let warm_render = experiment.render(&opts, &ResultMap::from_results(&warm));
    assert_eq!(cold_render, warm_render, "rendered stdout diverged under a warm cache");
}

#[test]
fn warm_shard_subset_matches_the_full_runs_bits() {
    let _guard = CACHES.lock().unwrap();
    let opts = opts();
    let experiment = ExperimentId::Fig7;
    let cells = experiment.cells(&opts);

    PopulationCache::global().clear();
    ReportCache::global().clear();
    let full = run_cells(&opts, &cells);
    let full_bits = value_bits(&full);

    // Shard 1/2 against the cache the full run just warmed: entries are
    // keyed by coordinate alone, so serving a subset from warm memory must
    // reproduce the corresponding full-run cells bit for bit.
    let before = cache_stats().1;
    let indices: Vec<usize> = (0..cells.len()).filter(|i| i % 2 == 1).collect();
    let shard = run_cells_subset(&opts, &cells, &indices);
    let after = cache_stats().1;
    assert!(after.hits > before.hits, "the warm shard must hit the report cache");

    let shard_bits = value_bits(&shard);
    let expected: Vec<(usize, Vec<u64>)> =
        full_bits.into_iter().filter(|(i, _)| i % 2 == 1).collect();
    assert_eq!(shard_bits, expected, "warm shard diverged from the full run");

    // And a *cold* shard (caches dropped) still lands on the same bits:
    // cache warmth is a pure speed effect in both directions.
    PopulationCache::global().clear();
    ReportCache::global().clear();
    let cold_shard = run_cells_subset(&opts, &cells, &indices);
    assert_eq!(
        value_bits(&cold_shard),
        shard_bits,
        "cold shard diverged from the warm shard"
    );
}

#[test]
fn histogram_slot_follows_max_d_out_without_new_entries_or_lookups() {
    let _guard = CACHES.lock().unwrap();
    let at = |max_d_out| ExpOptions { max_d_out, ..opts() };
    let cells = ExperimentId::Fig7.cells(&opts());
    let reps: u64 = cells.iter().map(|c| c.reps(&opts()) as u64).sum();
    let fresh = |max_d_out| {
        PopulationCache::global().clear();
        ReportCache::global().clear();
        value_bits(&run_cells(&at(max_d_out), &cells))
    };
    let (fresh32, fresh64) = (fresh(32), fresh(64));
    assert_ne!(fresh32, fresh64, "max_d_out must shape the estimates");

    // One process, one cache: 32, then 64, then 32 again. Every grouped
    // entry's slot is re-bucketed at each switch.
    PopulationCache::global().clear();
    ReportCache::global().clear();
    assert_eq!(value_bits(&run_cells(&at(32), &cells)), fresh32);
    let entries = ReportCache::global().len();
    for (max_d_out, want) in [(64, &fresh64), (32, &fresh32)] {
        let before = cache_stats().1;
        let got = value_bits(&run_cells(&at(max_d_out), &cells));
        let after = cache_stats().1;
        assert_eq!(&got, want, "max_d_out {max_d_out}: diverged from a fresh cache");
        assert_eq!(ReportCache::global().len(), entries, "the slot added an entry");
        // Each fig7 rep looks up its grouped entry, the coalition's
        // batches, the flat batch and the flat poison: four hits, and the
        // histograms add none.
        assert_eq!(after.misses, before.misses, "max_d_out {max_d_out}: a warm run missed");
        assert_eq!(after.hits - before.hits, 4 * reps, "max_d_out {max_d_out}: lookups");
    }
}
