//! The bounded-worker ingestion reactor under load: backpressure sheds
//! typed [`WireError::Throttled`] frames before they touch the session,
//! retry-with-backoff lands every report exactly once (a property checked
//! over seeded storm schedules and pipelining windows), a connection's
//! pipelined run of frames is applied and acked in send order, a worker
//! that unwinds mid-batch fails its runs typed, connections parked in the
//! apply queue are reaped by the idle timeout, the connection cap sheds
//! at accept, the `status` frame surfaces the reactor counters, and a
//! default reactor daemon serves state bit-identical to a per-frame one
//! (`coalesce: 1`).

use dap_core::net::{
    encode_frame, read_frame, serve_session_with, write_frame, Deadlines, Frame, ReactorOptions,
    ServeOptions, StatusCounters, WireClient, WireError, WireSession,
};
use dap_core::{
    DapConfig, DapError, DapOutput, DapSession, GroupPlan, MaskedPart, Scheme, SecaggRole,
    SessionPart,
};
use dap_estimation::rng::seeded;
use dap_ldp::PiecewiseMechanism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

fn session(seed: u64) -> DapSession<PiecewiseMechanism> {
    // eps = 1/4, eps0 = 1/16 -> 3 groups, comfortable quotas at 200 users.
    let cfg =
        DapConfig { max_d_out: 16, ..DapConfig::paper_default(0.25, Scheme::Emf) };
    let plan = GroupPlan::build(200, cfg.eps, cfg.eps0, &mut seeded(seed));
    DapSession::new(cfg, plan, PiecewiseMechanism::new).expect("valid session")
}

/// Spawns a daemon with explicit [`ServeOptions`] on an OS-assigned port.
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

/// A reactor squeezed down until it sheds: one worker, a one-slot queue,
/// and a per-batch stall simulating a slow durability layer underneath.
fn tiny_reactor(stall: Duration) -> ReactorOptions {
    ReactorOptions {
        workers: 1,
        queue_ops: 1,
        coalesce: 1,
        retry_after_ms: 2,
        apply_stall: Some(stall),
        ..ReactorOptions::default()
    }
}

/// Client-side throttle-aware resend: sleep the server's hint (or the
/// policy backoff, whichever is longer — here the hint) and resend the
/// identical sequenced frame. [`WireError::Throttled`] is pre-validation,
/// so the resend is always safe; the replay guard turns an
/// already-applied duplicate into a typed refusal we count as landed.
fn send_with_retry(
    c: &mut WireClient,
    channel: u64,
    seq: u64,
    group: usize,
    reports: &[f64],
) {
    loop {
        match c.ingest_batch_seq(channel, seq, group, reports) {
            Ok(()) => return,
            Err(WireError::Throttled { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            Err(WireError::Rejected(DapError::DuplicateSequence { .. })) => return,
            Err(other) => panic!("storm client hit a non-retryable error: {other}"),
        }
    }
}

/// Go-Back-N over one connection: up to `window` sequenced frames in
/// flight, replies collected in order. A throttled frame means every
/// later frame in flight is refused too (throttled with it, or bounced
/// off the replay guard as a sequence gap), so the client drains those
/// refusals, sleeps the strictest hint and resends from the shed frame.
fn stream_window(
    c: &mut WireClient,
    channel: u64,
    group: usize,
    plan: &[Vec<f64>],
    window: usize,
) {
    let total = plan.len() as u64;
    let (mut base, mut next) = (1u64, 1u64);
    while base <= total {
        if next <= total && next < base + window as u64 {
            let reports = plan[next as usize - 1].clone();
            let frame = Frame::IngestBatchSeq { channel, seq: next, group, reports };
            c.send_frame(&frame).expect("send");
            next += 1;
            continue;
        }
        let mut hint_ms = match c.recv_reply() {
            Ok(Frame::Ok) => {
                base += 1;
                continue;
            }
            Err(WireError::Throttled { retry_after_ms }) => retry_after_ms,
            other => panic!("frame {base}: expected ok or a throttle, got {other:?}"),
        };
        for seq in base + 1..next {
            match c.recv_reply() {
                Err(WireError::Throttled { retry_after_ms }) => {
                    hint_ms = hint_ms.max(retry_after_ms)
                }
                Err(WireError::Rejected(DapError::SequenceGap { .. })) => {}
                other => panic!("frame {seq} behind a shed: expected a refusal, got {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(hint_ms.max(1)));
        next = base;
    }
}

proptest! {
    /// Seeded storm schedules: each client owns one group and one
    /// sequencing channel and streams its batches concurrently with up to
    /// `window` frames in flight, through deliberately starved reactors
    /// (one worker, one queue slot, stalled applies) and through the
    /// default one, retrying every [`WireError::Throttled`] shed.
    /// Whatever the interleaving, the run boundaries and however many
    /// sheds occur, the served state must be bit-identical to a clean
    /// local twin — every report landed exactly once, in its channel's
    /// order.
    #[test]
    fn storm_retry_lands_every_report_exactly_once(
        seed in 0u64..1_000_000,
        clients in 1usize..4,
        batches in 1usize..12,
        window in 1usize..17,
    ) {
        let local = session(seed);
        let digest = local.state_digest();
        // Per-client schedules: client `i` owns group `i` (disjoint groups
        // keep per-group float-sum order deterministic under any
        // cross-client interleaving) and channel 0xc0ffee + i.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5707_99ED);
        let plans: Vec<Vec<Vec<f64>>> = (0..clients)
            .map(|_| {
                (0..batches)
                    .map(|_| {
                        let n = rng.gen_range(1..4usize);
                        (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
                    })
                    .collect()
            })
            .collect();

        // The clean reference: the same sequenced schedules applied once,
        // in order (channel state is part of the exported bytes).
        let mut twin = local.clone();
        for (g, plan) in plans.iter().enumerate() {
            for (i, batch) in plan.iter().enumerate() {
                twin.ingest_batch_seq(0xc0ffee + g as u64, i as u64 + 1, g, batch)
                    .expect("twin ingest");
            }
        }

        // Starved with one-frame runs, starved with runs of up to four
        // frames (a shed refuses a whole run), and the default reactor.
        let starved = tiny_reactor(Duration::from_millis(1));
        let reactors =
            [starved.clone(), ReactorOptions { coalesce: 4, ..starved }, ReactorOptions::default()];
        for reactor in reactors {
            let options = ServeOptions { reactor, ..ServeOptions::default() };
            let (addr, handle) = daemon_with(local.clone(), options);
            std::thread::scope(|scope| {
                for (g, plan) in plans.iter().enumerate() {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let channel = 0xc0ffee + g as u64;
                        let mut c = connect(&addr);
                        c.hello_channel(digest, channel).expect("handshake");
                        stream_window(&mut c, channel, g, plan, window);
                    });
                }
            });

            let mut c = connect(&addr);
            c.hello(digest).expect("handshake");
            let part = c.pull_part().expect("pull");
            c.shutdown().expect("shutdown");
            let served = handle.join().expect("daemon thread");
            prop_assert_eq!(&part, &twin.export_part(), "storm lost or duplicated a report");
            prop_assert_eq!(&served.export_part(), &twin.export_part());
        }
    }
}

/// A length-prefixed frame body as it travels on the wire, so a test can
/// put several frames, or a body `encode_frame` would never produce, into
/// one write.
fn wire(body: &str) -> Vec<u8> {
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[test]
fn a_pipelined_run_is_applied_and_acked_in_send_order() {
    // One write carries three `seq-batch` frames, a `status`, two more
    // `seq-batch` frames and a `seq-batch` that fails to decode. The
    // handler may cut runs anywhere it likes, but a non-mutation frame
    // ends a run: replies come back in send order, `status` counts exactly
    // the reports sent before it, every frame before the bad one is
    // applied and acked, and the bad one closes the connection with the
    // typed parse error, as a lone bad frame does.
    let local = session(17);
    let digest = local.state_digest();
    let (addr, handle) = daemon_with(local.clone(), ServeOptions::default());
    const CH: u64 = 0x7a11;
    let batches: [&[f64]; 5] = [&[0.5, -0.5], &[0.25], &[-0.125, 0.75, 0.0], &[1.0], &[-1.0, 0.5]];

    let mut stream = TcpStream::connect(&addr).expect("tcp connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read deadline");
    let hello = Frame::Hello {
        version: dap_core::net::WIRE_VERSION.into(),
        digest,
        channel: Some(CH),
        auth: None,
        commit: None,
    };
    write_frame(&mut stream, &hello).expect("send hello");
    assert!(matches!(read_frame(&mut stream), Ok(Frame::HelloOk { .. })));

    let seq_batch = |i: usize| Frame::IngestBatchSeq {
        channel: CH,
        seq: i as u64 + 1,
        group: i % 3,
        reports: batches[i].to_vec(),
    };
    let mut pipelined = Vec::new();
    for i in 0..3 {
        pipelined.extend(wire(&encode_frame(&seq_batch(i))));
    }
    pipelined.extend(wire(&encode_frame(&Frame::Status)));
    for i in 3..5 {
        pipelined.extend(wire(&encode_frame(&seq_batch(i))));
    }
    // Claims two reports, carries one.
    pipelined.extend(wire(&format!("seq-batch 0x{CH:016x} 6 0 2\n0x3fe0000000000000")));
    stream.write_all(&pipelined).expect("pipelined write");

    for i in 0..3 {
        assert_eq!(read_frame(&mut stream).expect("ack"), Frame::Ok, "frame {i}");
    }
    match read_frame(&mut stream).expect("status reply") {
        Frame::StatusOk { ingested, .. } => assert_eq!(ingested, 2 + 1 + 3),
        other => panic!("expected status-ok, got {other:?}"),
    }
    for i in 3..5 {
        assert_eq!(read_frame(&mut stream).expect("ack"), Frame::Ok, "frame {i}");
    }
    match read_frame(&mut stream).expect("farewell") {
        Frame::Error(WireError::BadFrame { reason }) => {
            assert!(reason.contains("report"), "{reason}")
        }
        other => panic!("expected the typed bad-frame farewell, got {other:?}"),
    }
    // The handler is gone: nothing answers on this connection any more.
    stream.set_read_timeout(Some(Duration::from_millis(200))).expect("read deadline");
    let _ = write_frame(&mut stream, &Frame::Status);
    assert!(
        matches!(read_frame(&mut stream), Err(WireError::Timeout { .. } | WireError::Io { .. })),
        "the connection must not be served after a bad frame"
    );

    let mut twin = local;
    for (i, batch) in batches.iter().enumerate() {
        twin.ingest_batch_seq(CH, i as u64 + 1, i % 3, batch).expect("twin ingest");
    }
    let mut c = connect(&addr);
    c.hello(digest).expect("handshake");
    assert_eq!(c.pull_part().expect("pull"), twin.export_part());
    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Reports equal to this make [`PanicOnSentinel`] unwind mid-apply.
const SENTINEL: f64 = 0.375;

/// A [`DapSession`] whose `seq-batch` apply panics on [`SENTINEL`]: the
/// test double for an apply worker unwinding with runs in hand.
struct PanicOnSentinel(DapSession<PiecewiseMechanism>);

impl WireSession for PanicOnSentinel {
    fn state_digest(&self) -> u64 {
        self.0.state_digest()
    }
    fn group_count(&self) -> usize {
        self.0.group_count()
    }
    fn ingest(&mut self, group: usize, report: f64) -> Result<(), DapError> {
        self.0.ingest(group, report)
    }
    fn ingest_batch(&mut self, group: usize, reports: &[f64]) -> Result<(), DapError> {
        self.0.ingest_batch(group, reports)
    }
    fn ingest_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), DapError> {
        assert!(!reports.contains(&SENTINEL), "sentinel report reached apply");
        self.0.ingest_batch_seq(channel, seq, group, reports)
    }
    fn last_seq(&self, channel: u64) -> Option<u64> {
        self.0.last_seq(channel)
    }
    fn ingested_total(&self) -> usize {
        WireSession::ingested_total(&self.0)
    }
    fn export_part(&self) -> SessionPart {
        self.0.export_part()
    }
    fn merge_part(&mut self, part: &SessionPart) -> Result<(), DapError> {
        self.0.merge_part(part)
    }
    fn finalize(&self, schemes: &[Scheme]) -> Result<Vec<DapOutput>, DapError> {
        self.0.finalize(schemes)
    }
    fn secagg_role(&self) -> Option<SecaggRole> {
        self.0.secagg_role()
    }
    fn adopt_commitment(&mut self, commitment: u64) -> Result<(), DapError> {
        self.0.adopt_commitment(commitment)
    }
    fn ingest_shares(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), DapError> {
        self.0.ingest_shares(channel, seq, group, counts)
    }
    fn export_masked_part(&self) -> Result<MaskedPart, DapError> {
        self.0.export_masked_part()
    }
    fn status_counters(&self) -> StatusCounters {
        WireSession::status_counters(&self.0)
    }
}

#[test]
fn a_worker_that_unwinds_mid_batch_fails_its_run_typed() {
    // A worker that unwinds mid-batch drops the runs it holds, and with
    // each its only reply sender: the waiting handler must answer with a
    // typed failure, well inside the client's read deadline, even though
    // no idle timeout is configured to reap it.
    let local = session(18);
    let digest = local.state_digest();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        serve_session_with(listener, PanicOnSentinel(local), |_| None, ServeOptions::default())
    });
    let deadlines = Deadlines::all(Duration::from_secs(5));
    let mut c = WireClient::connect_retry_with(&addr, 50, Duration::from_millis(20), &deadlines)
        .expect("daemon reachable");
    c.hello_channel(digest, 9).expect("handshake");
    match c.ingest_batch_seq(9, 1, 0, &[0.5, SENTINEL]) {
        Err(WireError::Failed { message }) => {
            assert!(message.contains("apply workers exited"), "{message}")
        }
        other => panic!("expected the typed failure, got {other:?}"),
    }
    // The other worker keeps serving the connection.
    c.ingest_batch_seq(9, 1, 0, &[0.5]).expect("the surviving worker applies");
    c.shutdown().expect("shutdown");
    // The serve scope re-raises the worker's panic when it joins; failing
    // the session closed after a panic is a separate concern.
    assert!(handle.join().is_err(), "the worker's panic surfaces at shutdown");
}

#[test]
fn backpressure_sheds_typed_throttle_and_retry_recovers() {
    // One worker stalled 200 ms per batch, one queue slot: with one frame
    // being applied and one parked, a third connection's frame must be
    // shed with the typed throttle (carrying the configured hint) before
    // touching the session — and a patient resend must land it.
    let local = session(11);
    let digest = local.state_digest();
    let stall = Duration::from_millis(200);
    let options = ServeOptions {
        reactor: ReactorOptions { retry_after_ms: 7, ..tiny_reactor(stall) },
        ..ServeOptions::default()
    };
    let (addr, handle) = daemon_with(local.clone(), options);

    let mut twin = local;
    for (ch, r) in [(1u64, 0.5f64), (2, -0.25), (3, 0.125)] {
        twin.ingest_batch_seq(ch, 1, 0, &[r]).expect("twin ingest");
    }

    // Connections 1 and 2 occupy the worker and the queue slot…
    let spawn_sender = |ch: u64, r: f64| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = connect(&addr);
            c.hello_channel(digest, ch).expect("handshake");
            send_with_retry(&mut c, ch, 1, 0, &[r]);
        })
    };
    let t1 = spawn_sender(1, 0.5);
    std::thread::sleep(stall / 4); // worker has popped frame 1 and is stalled
    let t2 = spawn_sender(2, -0.25);
    std::thread::sleep(stall / 4); // frame 2 is parked in the one-slot queue

    // …so connection 3 is shed, typed and with the server's hint intact.
    let mut c = connect(&addr);
    c.hello_channel(digest, 3).expect("handshake");
    let err = c.ingest_batch_seq(3, 1, 0, &[0.125]).expect_err("queue is full");
    assert_eq!(err, WireError::Throttled { retry_after_ms: 7 });
    // The shed happened before validation: the channel's sequence is
    // untouched, so the identical resend (with backoff) lands.
    send_with_retry(&mut c, 3, 1, 0, &[0.125]);

    t1.join().expect("sender 1");
    t2.join().expect("sender 2");

    let (_, _, ingested, counters) = c.status_counters().expect("status");
    assert_eq!(ingested, 3, "every report landed exactly once");
    let reactor = counters.expect("countered daemon").reactor.expect("reactor daemon");
    assert!(reactor.throttled >= 1, "the shed must show in the counters: {reactor:?}");
    assert!(reactor.peak_connections >= 1);

    let part = c.pull_part().expect("pull");
    assert_eq!(part, twin.export_part(), "throttle retry lost or duplicated a report");
    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn connections_parked_in_the_apply_queue_are_reaped_by_the_idle_timeout() {
    // Regression: the idle timeout used to cover only connections blocked
    // in `read_frame`; a connection whose frame sat in the apply queue
    // behind a wedged durability layer could pin its handler forever.
    // Under the reactor the same bound reaps the parked connection with a
    // typed timeout farewell — and because the queued op may still apply
    // after the farewell, the client's retry on a fresh connection must
    // dedup through the replay guard, keeping exactly-once.
    let local = session(12);
    let digest = local.state_digest();
    let stall = Duration::from_millis(200);
    let options = ServeOptions {
        idle_timeout: Some(Duration::from_millis(50)),
        reactor: ReactorOptions {
            queue_ops: 64, // roomy queue: the stall, not backpressure, parks us
            ..tiny_reactor(stall)
        },
        ..ServeOptions::default()
    };
    let (addr, handle) = daemon_with(local, options);
    const CH: u64 = 0xdecaf;

    // Every queued op stalls past the idle deadline, so each submission
    // sees the reap farewell instead of its ack — the client is left
    // uncertain and must resend. Three submissions go in: the batch, its
    // uncertain duplicate, and the channel's next batch.
    let mut reaped = Vec::new();
    for (seq, batch) in [(1u64, vec![0.5, -0.5]), (1, vec![0.5, -0.5]), (2, vec![0.25])] {
        let mut c = connect(&addr);
        c.hello_channel(digest, CH).expect("handshake");
        let err = c
            .ingest_batch_seq(CH, seq, 0, &batch)
            .expect_err("parked past the idle deadline");
        assert!(
            matches!(err, WireError::Timeout { .. } | WireError::Io { .. }),
            "expected the typed reap farewell or a closed socket, got {err:?}"
        );
        reaped.push(err);
    }
    // At least the first reap must be the *typed* farewell (later ones may
    // race the socket teardown into a plain I/O error).
    assert!(
        matches!(&reaped[0], WireError::Timeout { what } if what.contains("apply queue")),
        "expected the apply-queue reap farewell, got {:?}",
        reaped[0]
    );

    // The daemon stays responsive while the queue drains: `status` is not
    // a reactor op, so it answers immediately from a fresh connection.
    let mut probe = connect(&addr);
    let (probe_digest, _, _) = probe.status().expect("status while wedged");
    assert_eq!(probe_digest, digest);
    drop(probe);

    // Once the wedged applies finish, the resume handshake shows the
    // channel advanced exactly once per sequence: the duplicate was
    // refused by the replay guard, nothing was lost or doubled.
    std::thread::sleep(3 * stall + Duration::from_millis(200));
    let mut c = connect(&addr);
    let (_, last) = c.hello_channel(digest, CH).expect("resume handshake");
    assert_eq!(last, 2, "both batches applied despite the reaps");
    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.ingested(0), 3, "reap + retry lost or doubled a report");
}

#[test]
fn connection_cap_sheds_at_accept_with_a_typed_throttle() {
    // Beyond `max_connections` the daemon answers the throttle farewell
    // without reading a frame; once a slot frees, new clients are served.
    let local = session(13);
    let digest = local.state_digest();
    let options = ServeOptions {
        reactor: ReactorOptions {
            max_connections: 1,
            retry_after_ms: 9,
            ..ReactorOptions::default()
        },
        ..ServeOptions::default()
    };
    let (addr, handle) = daemon_with(local, options);

    let mut first = connect(&addr);
    first.hello(digest).expect("the one admitted connection");

    // The shed connection is told why before being closed: the farewell
    // frame is already in flight, readable without sending anything.
    let mut shed = std::net::TcpStream::connect(&addr).expect("tcp connect");
    let farewell = read_frame(&mut shed).expect("shed farewell");
    assert_eq!(farewell, Frame::Error(WireError::Throttled { retry_after_ms: 9 }));

    // Freeing the slot lets the next client in (the handler needs a
    // moment to notice the closed socket and release its slot; a client
    // racing that teardown may still be shed or hit the closing socket).
    drop(first);
    let mut c = loop {
        let mut c = connect(&addr);
        match c.hello(digest) {
            Ok(_) => break c,
            Err(WireError::Throttled { .. } | WireError::Io { .. }) => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(other) => panic!("unexpected error while the slot drained: {other}"),
        }
    };
    c.ingest(0, 0.5).expect("admitted client is served");
    c.shutdown().expect("shutdown");
    let served = handle.join().expect("daemon thread");
    assert_eq!(served.ingested(0), 1);
}

#[test]
fn status_surfaces_reactor_counters_and_legacy_omits_them() {
    // The reactor section rides in `status-ok`. (Counters without one
    // still decode; `net`'s unit tests cover that encoding.)
    let local = session(14);
    let digest = local.state_digest();
    let (addr, handle) = daemon_with(local, ServeOptions::default());
    let mut c = connect(&addr);
    c.hello(digest).expect("handshake");
    c.ingest_batch(0, &[0.5, -0.5]).expect("ingest");
    let (_, _, ingested, counters) = c.status_counters().expect("status");
    assert_eq!(ingested, 2);
    let reactor = counters.expect("counters present").reactor.expect("reactor serving");
    assert!(reactor.active_connections >= 1, "{reactor:?}");
    assert!(reactor.peak_connections >= reactor.active_connections, "{reactor:?}");
    assert_eq!(reactor.throttled, 0, "an unloaded daemon sheds nothing");
    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn reactor_and_legacy_daemons_serve_bit_identical_state() {
    // The same deterministic submission through a default reactor and a
    // per-frame one (`coalesce: 1`: one frame per run and per batch, so one
    // lock and one group commit per frame) must produce byte-identical
    // exported state — coalesced, group-committed applies change
    // scheduling, never arithmetic.
    let local = session(15);
    let digest = local.state_digest();
    let mut rng = seeded(77);
    let batches: Vec<(usize, Vec<f64>)> = (0..9)
        .map(|i| {
            let g = i % local.group_count();
            let n = rng.gen_range(1..6usize);
            (g, (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect())
        })
        .collect();

    let mut parts = Vec::new();
    let per_frame = ReactorOptions { coalesce: 1, ..ReactorOptions::default() };
    for reactor in [ReactorOptions::default(), per_frame] {
        let options = ServeOptions { reactor, ..ServeOptions::default() };
        let (addr, handle) = daemon_with(local.clone(), options);
        let mut c = connect(&addr);
        c.hello_channel(digest, 0xfeed).expect("handshake");
        for (i, (g, batch)) in batches.iter().enumerate() {
            c.ingest_batch_seq(0xfeed, i as u64 + 1, *g, batch).expect("ingest");
        }
        parts.push(c.pull_part().expect("pull"));
        c.shutdown().expect("shutdown");
        handle.join().expect("daemon thread");
    }
    assert_eq!(parts[0], parts[1], "default and per-frame reactors diverged");

    let mut twin = local;
    for (i, (g, batch)) in batches.iter().enumerate() {
        twin.ingest_batch_seq(0xfeed, i as u64 + 1, *g, batch).expect("twin ingest");
    }
    assert_eq!(parts[0], twin.export_part(), "served state diverged from local");
}
