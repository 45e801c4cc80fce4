//! The repository benchmark: four workloads over the DAP reproduction,
//! each checked for correct output, reporting end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! * `fig7-warm` — the 16 Fig. 7 cells over warm caches;
//! * `paper-all` — every cell of `experiments all`, cold;
//! * `ingest-stream` — a closed loop of small sequenced frames against a
//!   reactor daemon;
//! * `ingest-bulk` — one coordinator round of a million users against a
//!   daemon that `fsync`s every record.
//!
//! See README.md for the metric definitions per workload.

pub mod estimation;
pub mod ingest;
pub mod metrics;
pub mod stats;
pub mod sys;
pub mod trace;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig7Warm,
    PaperAll,
    IngestStream,
    IngestBulk,
}

impl Workload {
    /// Every workload: those of `BENCHMARK.json` in its order, then
    /// `ingest-bulk`, which runs by hand only (see README.md).
    pub const ALL: [Workload; 4] = [
        Workload::Fig7Warm,
        Workload::PaperAll,
        Workload::IngestStream,
        Workload::IngestBulk,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Warm => "fig7-warm",
            Workload::PaperAll => "paper-all",
            Workload::IngestStream => "ingest-stream",
            Workload::IngestBulk => "ingest-bulk",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's own (`Full`) or the smoke tests' (`Tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    /// The workload seed; every input of the run derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
}

/// How many repetitions (passes, sweeps, rounds) a run makes: as many as
/// fit in `seconds` at `nominal_s` each — a repetition's duration on the
/// reference host — and at least `min`. The count depends on the
/// arguments alone, so every commit measured with the same `--seconds`
/// does the same work.
pub(crate) fn repetitions(cfg: &Config, nominal_s: f64, min: usize) -> usize {
    ((cfg.seconds / nominal_s).round() as usize).max(min)
}

/// Per-repetition peaks of resident memory: each repetition restarts the
/// kernel's high-water mark and reads it back at its end.
#[derive(Default)]
pub(crate) struct PeakRss(Vec<f64>);

impl PeakRss {
    /// Runs one repetition, recording its peak.
    pub(crate) fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        sys::reset_peak_rss();
        let out = f();
        self.0.push(sys::peak_rss_mib());
        out
    }

    /// `peak_rss_mb`: the median repetition's peak.
    pub(crate) fn report(&self, out: &mut Outcome) {
        out.values.set("peak_rss_mb", stats::median(&self.0));
    }
}

/// Runs one workload and returns its outcome, with the metrics of the
/// run's kind (every end-to-end metric, or every per-layer metric) and the
/// two yardsticks.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let scratch = match sys::Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("cannot create the scratch directory: {e}"));
            return out;
        }
    };
    let tracer = Tracer::new(cfg.trace, cfg.seed);
    match cfg.workload {
        Workload::Fig7Warm => estimation::fig7_warm(cfg, &tracer, &mut out),
        Workload::PaperAll => estimation::paper_all(cfg, &tracer, &mut out),
        Workload::IngestStream => ingest::ingest_stream(cfg, &tracer, &scratch, &mut out),
        Workload::IngestBulk => ingest::ingest_bulk(cfg, &tracer, &scratch, &mut out),
    }

    // Yardsticks, measured in the same run so CPU and disk drift show
    // beside the numbers: a fixed-iteration dense EM solve that no code
    // path under test takes, and a synced journal group commit.
    let calib_ms = dap_bench::common::calibrate_dense_solve_ms();
    out.values.set("calib.dense_em_ms", calib_ms);
    match sys::fsync_us(&scratch.fresh("yardstick")) {
        Ok(us) => out.values.set("storage.fsync_us", us),
        Err(e) => out.problem(format!("fsync yardstick: {e}")),
    }
    // The rule-of-succession failure rate: never 0, and a single failure
    // roughly doubles it.
    out.values.set(
        "failed_frac",
        (out.failed as f64 + 1.0) / (out.attempted as f64 + 2.0),
    );
    if cfg.trace {
        for (layer, secs) in tracer.self_times() {
            if let Some(&(name, _)) = PER_LAYER
                .iter()
                .find(|(name, _)| *name == format!("self.{layer}_s"))
            {
                out.values.set(name, secs);
            }
        }
        out.values.set("trace.spans", tracer.spans().len() as f64);
        let path = sys::Scratch::trace_path(cfg.workload.name(), cfg.seed);
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    out
}

/// The metric catalogue a run of this kind reports.
pub fn catalogue(cfg: &Config) -> &'static [(&'static str, &'static str)] {
    if cfg.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
