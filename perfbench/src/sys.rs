//! Process-level helpers: seeds, scratch space, peak memory and the two
//! same-run yardsticks.

use crate::stats::median;
use dap_core::storage::{FileBackend, Journal};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A sub-seed of the workload seed: every input of a run derives from
/// `(seed, tag)` through this mix (SplitMix64's finalizer), so one
/// `--seed` fixes everything and distinct tags give independent streams.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Restarts the peak-resident-memory counter at the current resident size
/// (`/proc/self/clear_refs`), so the next [`peak_rss_mib`] reads the peak
/// of what ran in between. Does nothing where that file is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `.perfbench/run-<pid>-<k>` under the current directory,
    /// `k` counting the runs of this process.
    pub fn create() -> std::io::Result<Scratch> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let k = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench").join(format!("run-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A fresh (emptied) subdirectory path; the caller's backend creates it.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
        PathBuf::from(".perfbench").join(format!("trace-{workload}-{seed}.jsonl"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The disk yardstick: median microseconds of one group commit
/// (`Journal::append` then `commit_appends`, which writes and `fsync`s)
/// of a 256-byte record on a `FileBackend::open_sync` journal in `dir`.
pub fn fsync_us(dir: &Path) -> Result<f64, String> {
    let backend = FileBackend::open_sync(dir).map_err(|e| e.to_string())?;
    let (mut journal, _) = Journal::open(backend).map_err(|e| e.to_string())?;
    let payload = [0x5au8; 256];
    let mut times = Vec::with_capacity(15);
    for _ in 0..15 {
        let start = Instant::now();
        journal.defer_appends();
        journal.append(&payload).map_err(|e| e.to_string())?;
        journal.commit_appends().map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let mib = peak_rss_mib();
        assert!(mib.is_nan() || mib > 0.0);
    }
}
