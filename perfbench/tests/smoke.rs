//! A tiny-size run of every workload, untraced and traced, must pass its
//! output check and report every metric of its kind; the traced run must
//! measure the layers its workload reaches.

use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::{run, Config, Scale, Workload};

/// Per-layer metrics each workload's traced run must see nonzero.
fn reached(workload: Workload) -> &'static [&'static str] {
    const EM: [&str; 5] = [
        "emf.probe_s",
        "scheme.group_s",
        "em.solves",
        "em.iterations",
        "em.ns_per_iter",
    ];
    match workload {
        Workload::Fig7Warm => &[
            "engine.cells",
            "engine.pm-mse_s",
            "datasets.cache.misses",
            "datasets.cache.fill_s",
            "report_cache.hits",
            "report_cache.fill_s",
            "estimation.cache.matrices",
            "protocol.replay_s",
            "session.ingest_s",
            "session.finalize_s",
            "defenses.trimming_s",
            "defenses.ostrich_s",
            EM[0],
            EM[1],
            EM[2],
            EM[3],
            EM[4],
        ],
        Workload::PaperAll => &[
            "engine.cells",
            "engine.pm-mse_s",
            "engine.kmeans_s",
            "engine.cat-dap_s",
            "engine.sw-mse_s",
            "engine.gamma-hat_s",
            "engine.other_s",
            "datasets.cache.hits",
            "datasets.cache.misses",
            "report_cache.misses",
            "report_cache.fill_s",
            "defenses.kmeans_s",
            "protocol.replay_s",
            EM[0],
            EM[1],
            EM[2],
            EM[3],
            EM[4],
        ],
        Workload::IngestStream => &[
            "net.frames",
            "net.wire_bytes_per_report",
            "net.encode_ns_per_report",
            "net.decode_ns_per_report",
            "net.send_s",
            "net.wait_s",
            "net.pull_ms",
            "net.reactor.peak_connections",
            "net.reactor.journal_records",
            "storage.journal_bytes_per_report",
            "storage.append_us_per_record",
            "session.apply_ns_per_report",
            "session.merge_ms",
            "session.finalize_s",
            EM[0],
            EM[1],
            EM[2],
            EM[3],
            EM[4],
        ],
        Workload::IngestBulk => &[
            "protocol.local_s",
            "net.frames",
            "net.wire_bytes_per_report",
            "net.send_s",
            "net.wait_s",
            "net.pull_ms",
            "net.reactor.journal_records",
            "storage.journal_bytes_per_report",
            "storage.append_us_per_record",
            "session.apply_ns_per_report",
            "session.merge_ms",
            EM[0],
            EM[1],
            EM[2],
        ],
    }
}

// One test drives every workload in turn: the estimation workloads share
// the engine's process-wide caches, so they must not run concurrently.
#[test]
fn every_workload_passes_its_output_check_at_tiny_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
                scale: Scale::Tiny,
            };
            let outcome = run(&cfg);
            let label = format!("{} trace {trace}", workload.name());
            assert!(outcome.correct, "{label}: {:?}", outcome.problems);
            assert!(outcome.attempted > 0 && outcome.failed == 0, "{label}");
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let line = result_line(&outcome, catalogue);
            assert!(line.starts_with("{\"correct\": true"), "{label}: {line}");
            for &(name, _) in catalogue {
                let value = outcome.values.get(name);
                if trace {
                    assert!(
                        value.is_some_and(f64::is_finite) || !reached(workload).contains(&name)
                    );
                } else {
                    let v = value.unwrap_or_else(|| panic!("{label}: {name} missing"));
                    assert!(v.is_finite() && v > 0.0, "{label}: {name} = {v}");
                }
            }
            if trace {
                for name in reached(workload) {
                    let v = outcome.values.get(name).unwrap_or(0.0);
                    assert!(v > 0.0, "{label}: {name} = {v}");
                }
            }
        }
    }
}
