//! Golden loopback equivalence for the serving stack: a coordinator
//! streaming to real TCP daemons must finalize **bit-identically** to the
//! single-process `Dap::run_schemes` reference —
//! for PM and SW, ε ∈ {1/4, 1/2, 1}, all schemes, and several worker
//! counts — and the remote shard driver (`dispatch`) must reproduce a
//! local cell run exactly. The same properties are exercised
//! end-to-end (separate processes, byte-diffed stdout) by CI's
//! `serve-smoke` job.

use dap_bench::cell::ExperimentId;
use dap_bench::common::ExpOptions;
use dap_bench::engine::run_cells;
use dap_bench::results::ResultSet;
use dap_bench::serve::{
    dispatch, ServeSpec, SubmitOptions, SubmitSpec, WireMech,
};
use dap_core::net::{Deadlines, RetryPolicy, ServeOptions, WireClient};
use dap_core::secagg::reconstruct;
use dap_core::{
    Dap, DapError, DapOutput, Scheme, SecaggRole, ShareSplitter, SwDapConfig, WireError,
};
use dap_datasets::Dataset;
use dap_estimation::rng::seeded;
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Duration;

fn spawn_daemons(spec: &ServeSpec, count: usize) -> (Vec<String>, Vec<JoinHandle<()>>) {
    (0..count)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr").to_string();
            let spec = *spec;
            let handle =
                std::thread::spawn(move || spec.serve(listener).expect("daemon serves"));
            (addr, handle)
        })
        .unzip()
}

fn shutdown_all(addrs: &[String], handles: Vec<JoinHandle<()>>) {
    for addr in addrs {
        let mut c = WireClient::connect_retry(addr, 50, Duration::from_millis(20))
            .expect("daemon reachable");
        c.shutdown().expect("shutdown accepted");
    }
    for handle in handles {
        handle.join().expect("daemon thread");
    }
}

/// Bitwise comparison of output vectors — stricter than `PartialEq`
/// (distinguishes -0.0 from 0.0, compares NaN bit patterns).
fn assert_outputs_bit_identical(a: &[DapOutput], b: &[DapOutput], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: output count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "{context}: mean of output {i}");
        assert_eq!(x.side, y.side, "{context}: side of output {i}");
        assert_eq!(x.gamma.to_bits(), y.gamma.to_bits(), "{context}: gamma of output {i}");
        assert_eq!(
            x.min_variance.to_bits(),
            y.min_variance.to_bits(),
            "{context}: min_variance of output {i}"
        );
        assert_eq!(x.groups.len(), y.groups.len(), "{context}: groups of output {i}");
        for (g, (gx, gy)) in x.groups.iter().zip(&y.groups).enumerate() {
            assert_eq!(gx.n_reports, gy.n_reports, "{context}: output {i} group {g}");
            for (fx, fy) in [
                (gx.eps_t, gy.eps_t),
                (gx.mean_t, gy.mean_t),
                (gx.m_hat, gy.m_hat),
                (gx.n_hat, gy.n_hat),
                (gx.weight, gy.weight),
            ] {
                assert_eq!(fx.to_bits(), fy.to_bits(), "{context}: output {i} group {g}");
            }
        }
    }
}

#[test]
fn coordinator_over_tcp_matches_in_process_run_bit_for_bit() {
    for (mech, dataset) in [(WireMech::Pm, Dataset::Taxi), (WireMech::Sw, Dataset::Beta25)] {
        for (e, eps) in [0.25, 0.5, 1.0].into_iter().enumerate() {
            let spec = SubmitSpec {
                serve: ServeSpec {
                    mech,
                    eps,
                    eps0: 1.0 / 16.0,
                    users: 900,
                    seed: 40 + e as u64,
                    max_d_out: 24,
                    secagg: None,
                },
                dataset,
                gamma: 0.2,
                data_seed: 5,
            };
            let local = spec.run_local(&Scheme::ALL).expect("local reference");

            // Several worker counts, including a single daemon and more
            // daemons than some groups have peers.
            let worker_counts: &[usize] = if eps == 0.5 { &[2] } else { &[1, 3] };
            for &workers in worker_counts {
                let (addrs, handles) = spawn_daemons(&spec.serve, workers);
                let outcome = spec
                    .submit(&addrs, &Scheme::ALL, SubmitOptions::default())
                    .expect("served run");
                assert_outputs_bit_identical(
                    &outcome.outputs,
                    &local,
                    &format!("{mech:?} eps={eps} workers={workers}"),
                );
                shutdown_all(&addrs, handles);
            }
        }
    }
}

#[test]
fn sw_submit_matches_the_swdap_driver_bitwise() {
    // `run_local` drives `Dap<SquareWave>` from the serve spec's session
    // config; `SwDapConfig` is the public description of the same
    // deployment. Pin the serving stack to the *public* reference too, not
    // just to the internal one.
    let spec = SubmitSpec {
        serve: ServeSpec {
            mech: WireMech::Sw,
            eps: 0.5,
            eps0: 1.0 / 16.0,
            users: 900,
            seed: 77,
            max_d_out: 24,
            secagg: None,
        },
        dataset: Dataset::Beta25,
        gamma: 0.2,
        data_seed: 5,
    };
    let local = spec.run_local(&Scheme::ALL).expect("local reference");

    let m = (900.0f64 * 0.2).round() as usize;
    let honest = Dataset::Beta25.generate_unit(900 - m, &mut seeded(5));
    let cfg = SwDapConfig { max_d_out: 24, ..SwDapConfig::paper_default(0.5, Scheme::Emf) };
    let sw = Dap::new(cfg.session_config(), dap_ldp::SquareWave::new).expect("valid config");
    let attack = dap_attack::UniformAttack::new(
        dap_attack::Anchor::AboveInputMax(0.5),
        dap_attack::Anchor::AboveInputMax(1.0),
    );
    let reference = sw
        .run_schemes_on(&honest, m, &attack, &Scheme::ALL, &mut seeded(77))
        .expect("SW reference");
    for (a, b) in local.iter().zip(&reference) {
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
        assert_eq!(a.side, b.side);
    }
}

#[test]
fn over_quota_probe_returns_the_typed_wire_rejection() {
    let spec = SubmitSpec {
        serve: ServeSpec {
            mech: WireMech::Pm,
            eps: 0.25,
            eps0: 1.0 / 16.0,
            users: 300,
            seed: 9,
            max_d_out: 16,
            secagg: None,
        },
        dataset: Dataset::Taxi,
        gamma: 0.1,
        data_seed: 2,
    };
    let (addrs, handles) = spawn_daemons(&spec.serve, 2);
    let outcome = spec
        .submit(
            &addrs,
            &[Scheme::EmfStar],
            SubmitOptions { probe_rejection: true, shutdown: true, ..Default::default() },
        )
        .expect("served run with probe");
    match outcome.rejection {
        Some(WireError::Rejected(DapError::QuotaExceeded { group: 0, attempted: 1, .. })) => {}
        other => panic!("expected typed over-quota rejection, got {other:?}"),
    }
    for handle in handles {
        handle.join().expect("daemon thread");
    }
}

#[test]
fn mismatched_deployments_fail_the_handshake() {
    let daemon_spec = ServeSpec {
        mech: WireMech::Pm,
        eps: 0.25,
        eps0: 1.0 / 16.0,
        users: 300,
        seed: 9,
        max_d_out: 16,
        secagg: None,
    };
    let (addrs, handles) = spawn_daemons(&daemon_spec, 1);
    // The coordinator believes the deployment has one more user — its plan
    // (and digest) differ, and the handshake must say so before any report
    // flows.
    let spec = SubmitSpec {
        serve: ServeSpec { users: 301, ..daemon_spec },
        dataset: Dataset::Taxi,
        gamma: 0.1,
        data_seed: 2,
    };
    let err = spec
        .submit(&addrs, &[Scheme::Emf], SubmitOptions::default())
        .expect_err("digest mismatch");
    assert!(err.contains("digest mismatch"), "unhelpful error: {err}");
    shutdown_all(&addrs, handles);
}

#[test]
fn journaled_daemons_resume_across_restart_and_finalize_identically() {
    let dir = std::env::temp_dir()
        .join(format!("dap-serve-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SubmitSpec {
        serve: ServeSpec {
            mech: WireMech::Pm,
            eps: 0.25,
            eps0: 1.0 / 16.0,
            users: 400,
            seed: 11,
            max_d_out: 16,
            secagg: None,
        },
        dataset: Dataset::Taxi,
        gamma: 0.2,
        data_seed: 3,
    };
    let local = spec.run_local(&Scheme::ALL).expect("local reference");

    // Generation 1: a journaled daemon ingests the full population, then
    // stops (the journal now holds every accepted record).
    let serve_spec = spec.serve;
    let spawn = |dir: std::path::PathBuf| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            serve_spec.serve_durable(listener, &dir, 0, false).expect("durable daemon serves")
        });
        (addr, handle)
    };
    let (addr, handle) = spawn(dir.clone());
    let first = spec
        .submit(std::slice::from_ref(&addr), &Scheme::ALL, SubmitOptions::default())
        .expect("journaled run");
    assert_outputs_bit_identical(&first.outputs, &local, "journaled gen-1");
    shutdown_all(std::slice::from_ref(&addr), vec![handle]);

    // Generation 2: a fresh daemon on the same journal recovers the
    // session; a pull-only submit (no re-streaming) finalizes
    // bit-identically to the uninterrupted reference.
    let (addr, handle) = spawn(dir.clone());
    let second = spec
        .submit(
            std::slice::from_ref(&addr),
            &Scheme::ALL,
            SubmitOptions { pull_only: true, shutdown: true, ..Default::default() },
        )
        .expect("pull-only run after restart");
    assert_outputs_bit_identical(&second.outputs, &local, "journaled gen-2 (recovered)");
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_shard_dispatch_matches_local_cells_bit_for_bit() {
    let spec = ServeSpec {
        mech: WireMech::Pm,
        eps: 0.25,
        eps0: 1.0 / 16.0,
        users: 120,
        seed: 3,
        max_d_out: 16,
        secagg: None,
    };
    let (addrs, handles) = spawn_daemons(&spec, 2);

    let opts = ExpOptions { n: 1_200, trials: 1, seed: 13, max_d_out: 16 };
    let merged = dispatch("table1", &opts, &addrs).expect("wire dispatch");

    let cells = ExperimentId::Table1.cells(&opts);
    let results = run_cells(&opts, &cells);
    let local = ResultSet::build("table1", &opts, None, &cells, &results);

    assert_eq!(merged.experiment, local.experiment);
    assert_eq!(merged.cells.len(), local.cells.len());
    for (a, b) in merged.cells.iter().zip(&local.cells) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.stream, b.stream);
        let abits: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
        let bbits: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(abits, bbits, "cell {} diverged over the wire", a.index);
    }
    // The rendered tables are identical too.
    assert_eq!(
        ExperimentId::Table1.render(&opts, &merged.result_map()),
        ExperimentId::Table1.render(&opts, &local.result_map()),
    );
    shutdown_all(&addrs, handles);
}

// ---------------------------------------------------------------------------
// Secret-shared multi-aggregator tier (secagg)
// ---------------------------------------------------------------------------

fn masked_spec() -> SubmitSpec {
    SubmitSpec {
        serve: ServeSpec {
            mech: WireMech::Pm,
            eps: 0.25,
            eps0: 1.0 / 16.0,
            users: 400,
            seed: 21,
            max_d_out: 16,
            secagg: None,
        },
        dataset: Dataset::Taxi,
        gamma: 0.2,
        data_seed: 7,
    }
}

/// Spawns the share-server fleet: daemon `i` serves share `i` of `k`,
/// optionally behind an auth allowlist.
fn spawn_masked_daemons(
    spec: &ServeSpec,
    k: usize,
    auth_tokens: Vec<u64>,
) -> (Vec<String>, Vec<JoinHandle<()>>) {
    (0..k)
        .map(|i| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr").to_string();
            let spec = ServeSpec {
                secagg: Some(SecaggRole { k, index: i }),
                ..*spec
            };
            let options =
                ServeOptions { idle_timeout: None, auth_tokens: auth_tokens.clone(), ..ServeOptions::default() };
            let handle = std::thread::spawn(move || {
                spec.serve_with(listener, options).expect("masked daemon serves")
            });
            (addr, handle)
        })
        .unzip()
}

#[test]
fn secagg_submit_matches_local_bit_for_bit() {
    // The masked tier changes trust, not output: a k-daemon secret-shared
    // deployment must finalize bit-identically to the plaintext local
    // reference, for several k and both mechanisms. Along the way, the
    // probe must observe the typed plaintext-mode rejection and every
    // share server must report masked counters.
    for (mech, dataset, ks) in [
        (WireMech::Pm, Dataset::Taxi, &[2usize, 3][..]),
        (WireMech::Sw, Dataset::Beta25, &[2usize][..]),
    ] {
        let spec = SubmitSpec {
            serve: ServeSpec { mech, ..masked_spec().serve },
            dataset,
            ..masked_spec()
        };
        let local = spec.run_local(&Scheme::ALL).expect("local reference");
        for &k in ks {
            let (addrs, handles) = spawn_masked_daemons(&spec.serve, k, Vec::new());
            let outcome = spec
                .submit(
                    &addrs,
                    &Scheme::ALL,
                    SubmitOptions {
                        secagg: Some(k),
                        probe_rejection: true,
                        shutdown: true,
                        ..Default::default()
                    },
                )
                .expect("masked run");
            assert_outputs_bit_identical(
                &outcome.outputs,
                &local,
                &format!("{mech:?} secagg k={k}"),
            );
            match outcome.rejection {
                Some(WireError::Rejected(DapError::ModeMismatch { masked: true })) => {}
                other => panic!("expected the typed plaintext-mode rejection, got {other:?}"),
            }
            for summary in &outcome.daemons {
                assert!(summary.dead.is_none(), "no daemon should die: {}", summary.render());
                let counters = summary.counters.expect("counters captured");
                assert!(counters.masked, "share server must report masked mode");
                assert!(counters.shares > 0, "share server accepted no share batches");
            }
            for handle in handles {
                handle.join().expect("daemon thread");
            }
        }
    }
}

#[test]
fn secagg_dead_share_server_is_rebuilt_by_seed_reveal() {
    // Daemon 1 of 3 is never reachable. There is no failover target for a
    // share (share `j` only cancels against the other masks), so the
    // dealer re-derives the dead daemon's full intended share from the
    // mask seed and the run still finalizes bit-identically.
    let spec = masked_spec();
    let local = spec.run_local(&Scheme::ALL).expect("local reference");

    let (mut addrs, handles) = spawn_masked_daemons(&spec.serve, 3, Vec::new());
    let dead_addr = {
        // A bound-then-dropped listener: connects are refused immediately.
        let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        l.local_addr().expect("local addr").to_string()
    };
    // The fleet was spawned with roles 0..3; silence daemon 1 by pointing
    // the dealer at the dead port instead.
    let mut live1 = WireClient::connect_retry(&addrs[1], 50, Duration::from_millis(20))
        .expect("daemon reachable");
    live1.shutdown().expect("shutdown accepted");
    addrs[1] = dead_addr;

    let outcome = spec
        .submit(
            &addrs,
            &Scheme::ALL,
            SubmitOptions {
                secagg: Some(3),
                shutdown: true,
                retry: RetryPolicy {
                    attempts: 2,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(10),
                    ..RetryPolicy::default()
                },
                deadlines: Deadlines::all(Duration::from_millis(500)),
                ..Default::default()
            },
        )
        .expect("masked run with a dead share server");
    assert_outputs_bit_identical(&outcome.outputs, &local, "secagg k=3 with daemon 1 dead");
    assert!(outcome.daemons[1].dead.is_some(), "daemon 1 must be declared dead");
    assert!(
        outcome.daemons[1].rebuilt_locally,
        "the dead daemon's share must be re-derived from the seed"
    );
    assert!(outcome.daemons[0].dead.is_none());
    assert!(outcome.daemons[2].dead.is_none());
    for handle in handles {
        handle.join().expect("daemon thread");
    }
}

#[test]
fn secagg_topology_mismatch_fails_the_handshake() {
    // The dealer addresses daemon j with share j. If the fleet is wired up
    // in the wrong order the handshake must say so — before any share
    // flows — because share j applied at index i never cancels.
    let spec = masked_spec();
    let (mut addrs, handles) = spawn_masked_daemons(&spec.serve, 2, Vec::new());
    addrs.swap(0, 1);
    let err = spec
        .submit(
            &addrs,
            &Scheme::ALL,
            SubmitOptions { secagg: Some(2), ..Default::default() },
        )
        .expect_err("swapped share servers must fail the handshake");
    assert!(err.contains("secagg role"), "unhelpful error: {err}");
    addrs.swap(0, 1);
    shutdown_all(&addrs, handles);
}

#[test]
fn auth_allowlist_gates_every_frame() {
    const TOKEN: u64 = 0xfeed_beef_cafe;
    let spec = masked_spec();
    let digest = spec.serve.state_digest().expect("digest");

    // One plaintext daemon behind an allowlist.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serve_spec = spec.serve;
    let handle = std::thread::spawn(move || {
        serve_spec
            .serve_with(
                listener,
                ServeOptions { idle_timeout: None, auth_tokens: vec![TOKEN], ..ServeOptions::default() },
            )
            .expect("daemon serves")
    });

    // No token: every frame — even the status liveness probe — is refused
    // with the typed error, and nothing mutates.
    let mut c = WireClient::connect_retry(&addr, 50, Duration::from_millis(20))
        .expect("daemon reachable");
    assert!(matches!(c.hello(digest), Err(WireError::Unauthorized { .. })));
    assert!(matches!(c.status(), Err(WireError::Unauthorized { .. })));
    assert!(matches!(c.ingest(0, 0.0), Err(WireError::Unauthorized { .. })));
    // Wrong token: same refusal.
    c.set_auth(Some(TOKEN ^ 1));
    assert!(matches!(c.hello(digest), Err(WireError::Unauthorized { .. })));
    // The right token authenticates the connection for all later frames.
    c.set_auth(Some(TOKEN));
    c.hello(digest).expect("authenticated handshake");
    c.ingest(0, 0.25).expect("authenticated ingest");
    drop(c);

    // An authenticated coordinator run over the same daemon works end to
    // end (pull-only merges the one report we just streamed, so use a
    // fresh reference: just prove the wire path, then shut down).
    let mut c = WireClient::connect_retry(&addr, 50, Duration::from_millis(20))
        .expect("daemon reachable");
    c.set_auth(Some(TOKEN));
    c.hello(digest).expect("authenticated handshake");
    c.shutdown().expect("authenticated shutdown");
    handle.join().expect("daemon thread");

    // And the full submit path presents the token on every hello: a
    // fresh authenticated fleet finalizes bit-identically.
    let local = spec.run_local(&Scheme::ALL).expect("local reference");
    let (addrs, handles) = spawn_masked_daemons(&spec.serve, 2, vec![TOKEN]);
    let outcome = spec
        .submit(
            &addrs,
            &Scheme::ALL,
            SubmitOptions {
                secagg: Some(2),
                auth_token: Some(TOKEN),
                shutdown: true,
                ..Default::default()
            },
        )
        .expect("authenticated masked run");
    assert_outputs_bit_identical(&outcome.outputs, &local, "authenticated secagg");
    for handle in handles {
        handle.join().expect("daemon thread");
    }
}

#[test]
fn masked_journal_holds_no_plaintext_and_recovers_across_restart() {
    // The privacy claim, asserted against the bytes on disk: after a
    // masked run, a share server's write-ahead journal contains only
    // share batches — no plaintext report frame of any kind — and a
    // single daemon's masked part does not reveal the histogram. A
    // restarted daemon recovers its masked state from that journal.
    let base = std::env::temp_dir().join(format!("dap-secagg-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let spec = masked_spec();
    let local = spec.run_local(&Scheme::ALL).expect("local reference");
    const K: usize = 2;
    const SEED: u64 = 0xda5e_ed11;

    let spawn_durable = |i: usize| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let spec = ServeSpec { secagg: Some(SecaggRole { k: K, index: i }), ..spec.serve };
        let dir = base.join(format!("daemon-{i}"));
        let handle = std::thread::spawn(move || {
            spec.serve_durable(listener, &dir, 0, false).expect("durable masked daemon")
        });
        (addr, handle)
    };
    let (addrs, handles): (Vec<String>, Vec<JoinHandle<()>>) = (0..K).map(spawn_durable).unzip();
    let outcome = spec
        .submit(
            &addrs,
            &Scheme::ALL,
            SubmitOptions {
                secagg: Some(K),
                secagg_seed: SEED,
                shutdown: true,
                ..Default::default()
            },
        )
        .expect("journaled masked run");
    assert_outputs_bit_identical(&outcome.outputs, &local, "journaled secagg");
    for summary in &outcome.daemons {
        let counters = summary.counters.expect("counters captured");
        assert!(counters.journal_records > 0, "nothing was journaled");
    }
    for handle in handles {
        handle.join().expect("daemon thread");
    }

    // The bytes on disk: share batches only, never a plaintext report
    // frame (`ingest`, `ingest-batch`, `seq-batch`).
    for i in 0..K {
        let journal = std::fs::read(base.join(format!("daemon-{i}")).join("journal.log"))
            .expect("journal exists");
        let text = String::from_utf8_lossy(&journal);
        assert!(text.contains("share-batch"), "daemon {i} journaled no share batches");
        assert!(!text.contains("ingest"), "daemon {i} journaled a plaintext report frame");
        assert!(!text.contains("seq-batch"), "daemon {i} journaled a plaintext seq batch");
    }

    // Generation 2: fresh daemons on the same journals. Their recovered
    // masked parts must still reconstruct the exact integer histogram —
    // and any single part alone must differ from it (the mask hides it).
    let commit = ShareSplitter::new(K, SEED).expect("splitter").commitment().digest();
    let digest = spec.serve.state_digest().expect("digest");
    let mut parts = Vec::with_capacity(K);
    for i in 0..K {
        let (addr, handle) = spawn_durable(i);
        let mut c = WireClient::connect_retry(&addr, 50, Duration::from_millis(20))
            .expect("daemon reachable");
        let (_, _, secagg) = c.hello_masked(digest, None, commit).expect("masked handshake");
        assert_eq!(secagg, Some((K, i)), "recovered daemon advertises its role");
        parts.push(c.pull_masked().expect("recovered masked part"));
        c.shutdown().expect("shutdown");
        handle.join().expect("daemon thread");
    }
    let totals = reconstruct(&parts).expect("reconstruct from recovered parts");
    let expected: Vec<u64> =
        local[0].groups.iter().map(|g| g.n_reports as u64).collect();
    let got: Vec<u64> = totals.iter().map(|c| c.iter().sum()).collect();
    assert_eq!(got, expected, "recovered shares lost or doubled reports");
    for (i, part) in parts.iter().enumerate() {
        let masked: Vec<Vec<u64>> = part.groups.iter().map(|g| g.counts.clone()).collect();
        assert_ne!(
            masked, totals,
            "daemon {i}'s lone part equals the plaintext histogram — the mask hides nothing"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
