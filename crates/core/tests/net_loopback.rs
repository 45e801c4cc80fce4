//! `dap-wire/v1` over real loopback TCP: the session API driven through
//! [`WireClient`] against a [`serve_session`] daemon thread.
//!
//! Covers the full frame surface — handshake (version + digest), ingest,
//! atomic batch rejection, pull/merge of serialized parts, remote
//! finalize — and pins that every [`DapError`] rejection crosses the wire
//! *typed*, with its fields intact. Frames forged by an unauthenticated
//! peer get a typed farewell, a stranger cannot claim a frame longer than
//! a hello, and a connection the server ends reads EOF. Against a raw
//! listener, the client's coalescing contract: sent frames leave as one
//! write when a receive would block, in send order.
//! The bit-exact coordinator-vs-local equivalence suite lives in
//! `crates/bench/tests/serve.rs`.

use dap_core::net::{
    read_frame, serve_session, serve_session_with, Deadlines, Frame, ServeOptions, WireClient,
    WireError, WIRE_VERSION,
};
use dap_core::storage::{DurableOptions, DurableSession, FileBackend};
use dap_core::{DapConfig, DapError, DapSession, GroupPlan, Scheme};
use dap_estimation::rng::seeded;
use dap_ldp::PiecewiseMechanism;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

fn session(eps: f64, users: usize, seed: u64) -> DapSession<PiecewiseMechanism> {
    let cfg = DapConfig { max_d_out: 16, ..DapConfig::paper_default(eps, Scheme::Emf) };
    let plan = GroupPlan::build(users, cfg.eps, cfg.eps0, &mut seeded(seed));
    DapSession::new(cfg, plan, PiecewiseMechanism::new).expect("valid session")
}

/// Spawns a daemon for `session` on an OS-assigned loopback port.
fn daemon(
    session: DapSession<PiecewiseMechanism>,
) -> (String, JoinHandle<DapSession<PiecewiseMechanism>>) {
    daemon_with(session, ServeOptions::default())
}

/// [`daemon`] with explicit [`ServeOptions`].
fn daemon_with(
    session: DapSession<PiecewiseMechanism>,
    options: ServeOptions,
) -> (String, JoinHandle<DapSession<PiecewiseMechanism>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        serve_session_with(listener, session, |_| None, options).expect("serve")
    });
    (addr, handle)
}

fn connect(addr: &str) -> WireClient {
    WireClient::connect_retry(addr, 50, Duration::from_millis(20)).expect("daemon reachable")
}

#[test]
fn handshake_checks_version_and_digest() {
    let local = session(0.25, 120, 1);
    let digest = local.state_digest();
    let (addr, handle) = daemon(local);

    let mut c = connect(&addr);
    // Wrong protocol version.
    let err = c
        .call(&Frame::Hello {
            version: "dap-wire/v0".into(),
            digest,
            channel: None,
            auth: None,
            commit: None,
        })
        .expect_err("version mismatch");
    assert_eq!(
        err,
        WireError::VersionMismatch { client: "dap-wire/v0".into(), server: WIRE_VERSION.into() }
    );
    // Wrong deployment digest — the server names both digests.
    let err = c.hello(digest ^ 1).expect_err("digest mismatch");
    assert_eq!(err, WireError::DigestMismatch { client: digest ^ 1, server: digest });
    // Matching handshake reports the group count.
    let groups = c.hello(digest).expect("handshake");
    assert_eq!(groups, 3, "eps = 1/4, eps0 = 1/16 -> 3 groups");

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn rejections_cross_the_wire_typed() {
    let local = session(0.25, 60, 2);
    let quota0 = local.quota(0);
    let (addr, handle) = daemon(local.clone());
    let mut c = connect(&addr);
    c.hello(local.state_digest()).expect("handshake");

    // Out-of-range: Definition 2 enforced at the daemon's door, with the
    // offending value and the domain bounds round-tripped exactly.
    let err = c.ingest(0, 1e9).expect_err("out of range");
    match err {
        WireError::Rejected(DapError::ReportOutOfRange { group, report, lo, hi }) => {
            assert_eq!(group, 0);
            assert_eq!(report.to_bits(), 1e9f64.to_bits());
            assert!(lo < hi);
        }
        other => panic!("expected typed out-of-range, got {other:?}"),
    }

    // Unknown group.
    let err = c.ingest(99, 0.0).expect_err("unknown group");
    assert_eq!(
        err,
        WireError::Rejected(DapError::UnknownGroup { group: 99, groups: 3 })
    );

    // Over-quota: a batch straddling the limit is rejected atomically…
    c.ingest_batch(0, &vec![0.0; quota0 - 1]).expect("fits");
    let err = c.ingest_batch(0, &[0.0, 0.0]).expect_err("straddles quota");
    assert_eq!(
        err,
        WireError::Rejected(DapError::QuotaExceeded {
            group: 0,
            quota: quota0,
            ingested: quota0 - 1,
            attempted: 2,
        })
    );
    // …leaving no trace: the last in-quota report still fits.
    c.ingest(0, 0.5).expect("exactly at quota");
    let err = c.ingest(0, 0.5).expect_err("now full");
    assert!(matches!(
        err,
        WireError::Rejected(DapError::QuotaExceeded { group: 0, .. })
    ));

    // A part from an incompatible deployment is a typed merge rejection.
    let stranger = session(0.25, 60, 3).export_part();
    let err = c.merge_part(&stranger).expect_err("incompatible part");
    assert_eq!(
        err,
        WireError::Rejected(DapError::SessionMismatch { what: "state digest" })
    );

    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.ingested(0), quota0, "rejections left no trace");
}

#[test]
fn pull_merge_and_remote_finalize_match_local_state() {
    // A twin pair: reports streamed to the daemon must come back (via
    // pull) exactly as if ingested locally, remote finalize must equal
    // local finalize bit for bit, and a merge push must land server-side.
    let mut local = session(0.25, 400, 4);
    let (addr, handle) = daemon(local.clone());
    let mut c = connect(&addr);
    c.hello(local.state_digest()).expect("handshake");

    let mut rng = seeded(9);
    for g in 0..local.group_count() {
        let assign = local.client_assignment(g).expect("known group");
        let mech = PiecewiseMechanism::new(assign.eps_t);
        let mut batch = vec![0.0; assign.k_t * 40];
        for chunk in batch.chunks_exact_mut(assign.k_t) {
            assign.perturb_into(&mech, 0.2, chunk, &mut rng);
        }
        local.ingest_batch(g, &batch).expect("local ingest");
        c.ingest_batch(g, &batch).expect("remote ingest");
    }

    // Pulled state is bit-identical to the local twin's.
    let part = c.pull_part().expect("pull");
    assert_eq!(part, local.export_part(), "served state diverged from local twin");

    // Remote finalize returns exactly what the local session computes.
    let remote = c.finalize(&Scheme::ALL).expect("remote finalize");
    let expected = local.finalize(&Scheme::ALL).expect("local finalize");
    assert_eq!(remote, expected, "remote finalize diverged");

    // Push a merge: an empty twin's part is a no-op, a second copy of the
    // real part doubles the counts server-side.
    let empty = session(0.25, 400, 4).export_part();
    c.merge_part(&empty).expect("empty part merges");
    let after = c.pull_part().expect("pull after merge");
    assert_eq!(after, part, "empty merge must not change state");

    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.export_part(), local.export_part());
}

#[test]
fn shutdown_returns_even_with_idle_connections_open() {
    // A lingering client parked between requests must not wedge the
    // daemon: shutdown half-closes every accepted connection, so the
    // scoped handler threads unblock and `serve_session` returns.
    let local = session(0.25, 120, 6);
    let (addr, handle) = daemon(local.clone());
    let mut idle = connect(&addr);
    idle.hello(local.state_digest()).expect("handshake");

    let mut closer = connect(&addr);
    closer.shutdown().expect("shutdown accepted");
    handle.join().expect("daemon returned despite the idle connection");

    // The idle client's connection was released; its next call fails
    // cleanly instead of blocking.
    assert!(idle.ingest(0, 0.0).is_err());
}

#[test]
fn idle_connections_are_timed_out_but_the_daemon_keeps_serving() {
    // An idle-timeout daemon reclaims a parked connection instead of
    // holding it forever, and stays healthy for the next client.
    let local = session(0.25, 120, 7);
    let digest = local.state_digest();
    let options = ServeOptions {
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServeOptions::default()
    };
    let (addr, handle) = daemon_with(local, options);

    let mut idle = connect(&addr);
    idle.hello(digest).expect("handshake");
    std::thread::sleep(Duration::from_millis(300));
    // The server reclaimed the connection while we were parked: the next
    // call fails with the typed farewell (if our write still got through)
    // or a plain broken pipe — never a hang.
    let err = idle.ingest(0, 0.0).expect_err("connection was reclaimed");
    assert!(
        matches!(err, WireError::Timeout { .. } | WireError::Io { .. }),
        "expected a timeout or closed-connection error, got {err:?}"
    );

    // The daemon is still alive for fresh clients, and shuts down cleanly.
    let mut c = connect(&addr);
    c.hello(digest).expect("handshake after the idle reclaim");
    c.ingest(0, 0.25).expect("daemon still ingests");
    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.ingested(0), 1);
}

#[test]
fn status_probe_reports_liveness_without_a_handshake() {
    let mut local = session(0.25, 120, 8);
    local.ingest_batch(0, &[0.5, -0.5]).expect("local ingest");
    let digest = local.state_digest();
    let (addr, handle) = daemon(local);

    // `status` needs no hello: it is the liveness probe a coordinator
    // sends before deciding whether a daemon is worth retrying.
    let mut c = WireClient::connect_with(&addr, &Deadlines::all(Duration::from_secs(5)))
        .expect("connect with deadlines");
    let (got_digest, groups, ingested) = c.status().expect("status");
    assert_eq!(got_digest, digest);
    assert_eq!(groups, 3);
    assert_eq!(ingested, 2);

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn sequenced_resume_survives_a_reconnect_without_double_apply() {
    let local = session(0.25, 200, 9);
    let digest = local.state_digest();
    let (addr, handle) = daemon(local);
    const CH: u64 = 0xc0ffee;

    // First connection: two acknowledged sequenced batches.
    let mut c = connect(&addr);
    let (_, last) = c.hello_channel(digest, CH).expect("handshake");
    assert_eq!(last, 0, "fresh channel");
    c.ingest_batch_seq(CH, 1, 0, &[0.5, -0.25]).expect("seq 1");
    c.ingest_batch_seq(CH, 2, 1, &[0.125]).expect("seq 2");
    drop(c); // connection lost without a goodbye

    // Reconnect: the handshake reports how far the channel got, the
    // uncertain batch retried anyway is refused typed (= acknowledged),
    // and the next sequence is accepted.
    let mut c = connect(&addr);
    let (_, last) = c.hello_channel(digest, CH).expect("resume handshake");
    assert_eq!(last, 2, "server remembers the acknowledged prefix");
    let err = c.ingest_batch_seq(CH, 2, 1, &[0.125]).expect_err("duplicate");
    assert_eq!(
        err,
        WireError::Rejected(DapError::DuplicateSequence { channel: CH, seq: 2, last: 2 })
    );
    let err = c.ingest_batch_seq(CH, 4, 1, &[0.25]).expect_err("gap");
    assert_eq!(
        err,
        WireError::Rejected(DapError::SequenceGap { channel: CH, seq: 4, expected: 3 })
    );
    c.ingest_batch_seq(CH, 3, 1, &[0.25]).expect("seq 3");

    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.ingested(0) + served.ingested(1), 4, "no report lost or doubled");
}

// ---------------------------------------------------------------------------
// Kill/restart durability (process-level)
// ---------------------------------------------------------------------------

/// The deployment both halves of the kill/restart test agree on.
fn durable_deployment() -> DapSession<PiecewiseMechanism> {
    session(0.25, 400, 44)
}

const CHILD_DIR_VAR: &str = "DAP_DURABLE_JOURNAL_DIR";

/// Re-exec helper, not a test of its own: [`kill_dash_nine_mid_submit_loses_no_acked_report`]
/// spawns this test binary again filtered down to this function, which
/// runs a journaled daemon on the directory named by `DAP_DURABLE_JOURNAL_DIR`
/// and prints its bound address. The parent then SIGKILLs it — a real
/// process death, not a dropped thread.
#[test]
#[ignore = "re-exec helper; spawned as a child process by the kill/restart test"]
fn durable_daemon_child() {
    let Some(dir) = std::env::var_os(CHILD_DIR_VAR) else { return };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    println!("DAP_ADDR {}", listener.local_addr().expect("local addr"));
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush addr line");
    let backend = FileBackend::open(Path::new(&dir)).expect("open journal dir");
    let (durable, _) =
        DurableSession::open(durable_deployment(), backend, DurableOptions::default())
            .expect("recover journaled session");
    serve_session(listener, durable, |_| None).expect("serve");
}

/// Spawns a journaled daemon as a separate OS process and reads back the
/// address it bound. The stdout handle stays attached so the harness can
/// keep writing to it for the daemon's whole life.
fn spawn_durable_daemon(dir: &Path) -> (Child, BufReader<ChildStdout>, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["--exact", "durable_daemon_child", "--ignored", "--nocapture"])
        .env(CHILD_DIR_VAR, dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child daemon");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if lines.read_line(&mut line).expect("child stdout") == 0 {
            panic!("child daemon exited before printing its address");
        }
        // The harness prints `test durable_daemon_child ... ` (no newline)
        // before the test body runs, so the marker is mid-line.
        if let Some(at) = line.find("DAP_ADDR ") {
            break line[at + "DAP_ADDR ".len()..].trim_end().to_string();
        }
    };
    (child, lines, addr)
}

#[test]
fn kill_dash_nine_mid_submit_loses_no_acked_report() {
    // A journaled daemon is SIGKILLed halfway through a submission — a
    // process death, so nothing in memory survives. A restarted daemon on
    // the same journal directory must hold exactly the acknowledged
    // prefix, and finishing the submission against it must finalize
    // bit-identically to a never-interrupted local run.
    let dir = std::env::temp_dir().join(format!("dap-kill-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut local = durable_deployment();
    let digest = local.state_digest();

    // Six deterministic batches, round-robin across the three groups
    // (each group takes 120 of its ~134-report quota).
    let mut rng = seeded(91);
    let batches: Vec<(usize, Vec<f64>)> = (0..6)
        .map(|i| {
            let g = i % local.group_count();
            let batch: Vec<f64> =
                (0..60).map(|_| rand::Rng::gen::<f64>(&mut rng) * 2.0 - 1.0).collect();
            (g, batch)
        })
        .collect();

    // Generation 1: stream half the batches, then kill -9 between two
    // acknowledged calls. An ack means the record hit the journal before
    // the reply, so the half-submitted state is durable.
    let (mut child, _stdout, addr) = spawn_durable_daemon(&dir);
    let mut c = connect(&addr);
    c.hello(digest).expect("handshake");
    for (g, batch) in &batches[..3] {
        c.ingest_batch(*g, batch).expect("acked ingest");
        local.ingest_batch(*g, batch).expect("local twin");
    }
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");

    // Generation 2: a fresh process on the same journal. Its recovered
    // state must be bit-identical to the local twin at the kill point…
    let (mut child, _stdout, addr) = spawn_durable_daemon(&dir);
    let mut c = connect(&addr);
    c.hello(digest).expect("handshake with the restarted daemon");
    assert_eq!(
        c.pull_part().expect("pull recovered state"),
        local.export_part(),
        "restart dropped or invented acknowledged reports"
    );

    // …and finishing the submission must match an uninterrupted run.
    for (g, batch) in &batches[3..] {
        c.ingest_batch(*g, batch).expect("acked ingest after restart");
        local.ingest_batch(*g, batch).expect("local twin");
    }
    let remote = c.finalize(&Scheme::ALL).expect("remote finalize");
    let expected = local.finalize(&Scheme::ALL).expect("local finalize");
    assert_eq!(remote, expected, "kill/restart changed the finalized outputs");

    c.shutdown().expect("shutdown");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "restarted daemon exited uncleanly: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_share_one_daemon() {
    // Group-sharded concurrent writers: each client owns one group, the
    // daemon serializes ingestion behind its lock, and the result equals a
    // single-writer session exactly (counts are exact for any sharding;
    // each group's stream order is preserved because one client owns it).
    let mut local = session(0.25, 300, 5);
    let (addr, handle) = daemon(local.clone());

    let digest = local.state_digest();
    let groups = local.group_count();
    let batches: Vec<(usize, Vec<f64>)> = {
        let mut rng = seeded(31);
        (0..groups)
            .map(|g| {
                let assign = local.client_assignment(g).expect("known group");
                let mech = PiecewiseMechanism::new(assign.eps_t);
                let mut batch = vec![0.0; assign.k_t * 30];
                for chunk in batch.chunks_exact_mut(assign.k_t) {
                    assign.perturb_into(&mech, -0.1, chunk, &mut rng);
                }
                (g, batch)
            })
            .collect()
    };
    for (g, batch) in &batches {
        local.ingest_batch(*g, batch).expect("local ingest");
    }

    std::thread::scope(|scope| {
        for (g, batch) in &batches {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut c = connect(&addr);
                c.hello(digest).expect("handshake");
                // Chunked, in order — order within a group is part of the
                // exactness contract.
                for chunk in batch.chunks(64) {
                    c.ingest_batch(*g, chunk).expect("remote ingest");
                }
            });
        }
    });

    let mut c = connect(&addr);
    c.hello(digest).expect("handshake");
    assert_eq!(c.pull_part().expect("pull"), local.export_part());
    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

/// A raw connection that has sent `body` as one length-prefixed frame,
/// with a read deadline so a missing reply fails instead of hanging.
fn send_raw(addr: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("tcp connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read deadline");
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(body.as_bytes());
    stream.write_all(&bytes).expect("send frame");
    stream
}

/// The server closed `stream` for real: the next read is EOF, not the
/// read deadline expiring on a socket the server still holds open.
fn assert_eof(stream: &mut TcpStream, what: &str) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        other => panic!("{what}: expected EOF after the farewell, got {other:?}"),
    }
}

#[test]
fn forged_counts_from_an_unauthenticated_peer_get_a_typed_farewell() {
    // Frames are decoded before any hello or auth check, so a forged
    // element count is the first thing a stranger can send. It must cost
    // the daemon one typed refusal, not an 8 TiB allocation that aborts
    // the process.
    const TOKEN: u64 = 0x5eed_0a11;
    let local = session(0.25, 120, 12);
    let digest = local.state_digest();
    let options = ServeOptions { auth_tokens: vec![TOKEN], ..ServeOptions::default() };
    let (addr, handle) = daemon_with(local, options);

    for body in ["ingest-batch 0 1099511627776", "seq-batch 0x1 0 0 1099511627776"] {
        let mut stream = send_raw(&addr, body);
        match read_frame(&mut stream) {
            Ok(Frame::Error(WireError::BadFrame { .. })) => {}
            other => panic!("{body}: expected the bad-frame farewell, got {other:?}"),
        }
        assert_eof(&mut stream, body);
    }

    // The daemon survived and serves the next client normally.
    let mut c = connect(&addr);
    c.set_auth(Some(TOKEN));
    c.hello(digest).expect("authenticated handshake");
    c.ingest_batch(0, &[0.5, -0.25]).expect("ingest");
    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.ingested(0), 2);
}

#[test]
fn connections_the_server_ends_read_eof_after_the_farewell() {
    // Once the server says goodbye — to a bad frame or to an idle peer —
    // no clone of the socket stays behind, so the peer sees the close
    // instead of waiting on a descriptor nobody will write to again.
    let local = session(0.25, 120, 13);
    let options =
        ServeOptions { idle_timeout: Some(Duration::from_millis(100)), ..ServeOptions::default() };
    let (addr, handle) = daemon_with(local, options);

    let mut bad = send_raw(&addr, "warp-core-breach");
    match read_frame(&mut bad) {
        Ok(Frame::Error(WireError::BadFrame { .. })) => {}
        other => panic!("expected the bad-frame farewell, got {other:?}"),
    }
    assert_eof(&mut bad, "bad frame");

    let mut idle = send_raw(&addr, "status");
    assert!(matches!(read_frame(&mut idle), Ok(Frame::StatusOk { .. })));
    match read_frame(&mut idle) {
        Ok(Frame::Error(WireError::Timeout { .. })) => {}
        other => panic!("expected the idle farewell, got {other:?}"),
    }
    assert_eof(&mut idle, "idle reap");

    connect(&addr).shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn unauthenticated_peers_cannot_claim_more_than_a_hello() {
    // Before its hello authenticates, a connection may not make the daemon
    // hold a body buffer: a prefix claiming the whole 64 MiB frame cap is
    // answered at once with the typed farewell — the body is never read
    // (it is never sent here), so a daemon waiting for it would trip the
    // read deadline instead. Once authenticated, frames far larger than a
    // hello land as before.
    const TOKEN: u64 = 0x5eed_0a12;
    let local = session(0.25, 2000, 14);
    let digest = local.state_digest();
    let quota0 = local.quota(0);
    let options = ServeOptions { auth_tokens: vec![TOKEN], ..ServeOptions::default() };
    let (addr, handle) = daemon_with(local, options);

    let mut stranger = TcpStream::connect(&addr).expect("tcp connect");
    stranger.set_read_timeout(Some(Duration::from_secs(5))).expect("read deadline");
    stranger.write_all(&(64u32 << 20).to_be_bytes()).expect("send length prefix");
    match read_frame(&mut stranger) {
        Ok(Frame::Error(WireError::BadFrame { reason })) => {
            assert!(reason.contains("exceeds the 4096-byte cap"), "{reason}")
        }
        other => panic!("expected the bad-frame farewell, got {other:?}"),
    }
    assert_eof(&mut stranger, "oversize pre-auth frame");

    let mut c = connect(&addr);
    c.set_auth(Some(TOKEN));
    c.hello_channel(digest, 1).expect("authenticated handshake");
    let reports: Vec<f64> = (0..quota0).map(|i| (i % 7) as f64 / 8.0 - 0.375).collect();
    let frame = Frame::IngestBatchSeq { channel: 1, seq: 1, group: 0, reports };
    assert!(dap_core::net::encode_frame(&frame).len() > 4096, "quota {quota0} too small");
    assert_eq!(c.call(&frame), Ok(Frame::Ok));
    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.ingested(0), quota0);
}

/// A client connected to a raw listener the test answers by hand.
fn raw_peer() -> (WireClient, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client = WireClient::connect(listener.local_addr().expect("local addr")).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    peer.set_read_timeout(Some(Duration::from_secs(5))).expect("read deadline");
    (client, peer)
}

/// Nothing is waiting to be read on `peer`.
fn assert_nothing_sent(peer: &TcpStream) {
    peer.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    match (&*peer).read(&mut byte) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("expected nothing on the wire, got {other:?}"),
    }
    peer.set_nonblocking(false).expect("blocking");
}

/// Runs a peer that reads `expect` in order, then answers each with a
/// distinct `status-ok` (digest = its index) in one write. The peer
/// answers nothing before it holds every frame, so a client that wrote
/// fewer blocks until the peer's read deadline fails it.
fn answer_after_all(peer: TcpStream, expect: Vec<Frame>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(peer.try_clone().expect("clone"));
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&read_frame(&mut reader).expect("a sent frame"), want, "frame {i}");
        }
        let mut wire = Vec::new();
        for i in 0..expect.len() {
            let reply =
                Frame::StatusOk { digest: i as u64, groups: 0, ingested: 0, counters: None };
            dap_core::net::write_frame(&mut wire, &reply).expect("encodes");
        }
        (&peer).write_all(&wire).expect("replies");
    })
}

fn reply_index(reply: Result<Frame, WireError>) -> u64 {
    match reply {
        Ok(Frame::StatusOk { digest, .. }) => digest,
        other => panic!("expected a status-ok reply, got {other:?}"),
    }
}

fn batch(seq: u64) -> Frame {
    Frame::IngestBatchSeq { channel: 9, seq, group: 0, reports: vec![seq as f64 / 8.0] }
}

#[test]
fn sent_frames_leave_as_one_write_when_a_receive_would_block() {
    let (mut c, peer) = raw_peer();
    let frames: Vec<Frame> = (1..=5).map(batch).collect();
    for frame in &frames {
        c.send_frame(frame).expect("queued");
    }
    assert_nothing_sent(&peer);
    let answering = answer_after_all(peer, frames);
    for i in 0..5 {
        assert_eq!(reply_index(c.recv_reply()), i, "replies in send order");
    }
    answering.join().expect("peer saw every frame in order");
}

#[test]
fn call_after_pipelined_sends_keeps_send_order() {
    let (mut c, peer) = raw_peer();
    c.send_frame(&batch(1)).expect("queued");
    c.send_frame(&batch(2)).expect("queued");
    let answering = answer_after_all(peer, vec![batch(1), batch(2), Frame::Status]);
    assert_eq!(reply_index(c.call(&Frame::Status)), 0, "call returns the oldest reply");
    assert_eq!(reply_index(c.recv_reply()), 1);
    assert_eq!(reply_index(c.recv_reply()), 2);
    answering.join().expect("peer saw every frame in order");
}

#[test]
fn an_oversize_frame_fails_at_send_and_queues_nothing() {
    let (mut c, peer) = raw_peer();
    let oversize = Frame::ShardResult { json: "x".repeat(64 << 20) };
    match c.send_frame(&oversize) {
        Err(WireError::BadFrame { reason }) => assert!(reason.contains("cap"), "{reason}"),
        other => panic!("expected the size-cap refusal, got {other:?}"),
    }
    drop(oversize);
    assert_nothing_sent(&peer);
    let answering = answer_after_all(peer.try_clone().expect("clone"), vec![Frame::Status]);
    assert_eq!(reply_index(c.call(&Frame::Status)), 0);
    answering.join().expect("peer saw only the status frame");
    assert_nothing_sent(&peer);
}
