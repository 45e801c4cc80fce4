//! The two serving workloads: `ingest-stream` and `ingest-bulk`.
//!
//! Both serve a PM deployment (ε = 1, ε₀ = 1/16, d′ ≤ 64, Taxi honest
//! values, a 20% coalition sending the upper half of the output domain)
//! from an in-process reactor daemon with default `ReactorOptions`.

use crate::estimation::{probe_groups, EmTally};
use crate::metrics::Outcome;
use crate::stats::{describe, median, percentile};
use crate::sys::{derive, dir_bytes, Scratch};
use crate::trace::Tracer;
use crate::{repetitions, Config, PeakRss, Scale};
use dap_attack::{Attack, UniformAttack};
use dap_bench::serve::{ServeSpec, SubmitOptions, SubmitSpec, WireMech};
use dap_core::net::{
    decode_frame, encode_frame, Frame, ServeOptions, StatusCounters, WireClient, WireError,
};
use dap_core::storage::{FileBackend, Journal};
use dap_core::{DapError, DapOutput, DapSession, GroupPlan, Scheme};
use dap_datasets::Dataset;
use dap_estimation::rng::seeded;
use dap_ldp::PiecewiseMechanism;
use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coalition share of every served population.
const GAMMA: f64 = 0.2;
/// `ingest-stream`: client connections, reports per `seq-batch` frame, and
/// frames each connection keeps in flight.
const CONNECTIONS: usize = 2;
const BATCH: usize = 16;
const WINDOW: usize = 16;
/// `ingest-stream` passes whose estimates give `est_mse` (every run makes
/// at least this many, each on its own derived data).
const ACCURACY_PASSES: usize = 12;
/// `ingest-bulk` rounds whose estimates give `est_mse` (likewise).
const ACCURACY_ROUNDS: usize = 5;
/// `ingest-bulk` rounds streamed frame by frame to time each frame's ack.
const ACK_ROUNDS: usize = 3;
/// Reports per coordinator frame, as `SubmitSpec::submit` chunks them.
const SUBMIT_CHUNK: usize = 8192;
/// Nominal seconds of a stream pass and of a bulk round (with its local
/// reference and its share of the streamed ack rounds) on the reference
/// host, which set the repetition counts.
const PASS_S: f64 = 1.25;
const ROUND_S: f64 = 4.0;

/// The deployment and population of pass `index`.
fn deployment(users: usize, seed: u64, index: u64) -> SubmitSpec {
    SubmitSpec {
        serve: ServeSpec {
            mech: WireMech::Pm,
            eps: 1.0,
            eps0: 1.0 / 16.0,
            users,
            seed: derive(seed, 2 * index),
            max_d_out: 64,
            secagg: None,
        },
        dataset: Dataset::Taxi,
        gamma: GAMMA,
        data_seed: derive(seed, 2 * index + 1),
    }
}

/// Every report of one deployment in the coordinator's order — the same
/// values `SubmitSpec::submit` streams and `SubmitSpec::run_local`
/// ingests: group by group, each honest user's `k_t` reports in plan
/// order, then the coalition's.
struct Reports {
    /// Per group: the honest reports and the coalition's.
    groups: Vec<(Vec<f64>, Vec<f64>)>,
    /// The honest population's true mean.
    truth: f64,
}

impl Reports {
    fn simulate(spec: &SubmitSpec) -> Result<Reports, String> {
        let users = spec.serve.users;
        let m = (users as f64 * spec.gamma).round() as usize;
        let honest = spec
            .dataset
            .generate_signed(users - m, &mut seeded(spec.data_seed));
        let truth = honest.iter().sum::<f64>() / honest.len() as f64;
        let cfg = spec.serve.session_config();
        let mut rng = seeded(spec.serve.seed);
        let plan = GroupPlan::build(users, cfg.eps, cfg.eps0, &mut rng);
        let session =
            DapSession::new(cfg, plan, PiecewiseMechanism::new).map_err(|e| e.to_string())?;
        let attack = UniformAttack::of_upper(0.5, 1.0);
        let mut groups = Vec::with_capacity(session.group_count());
        for g in 0..session.group_count() {
            let assign = session.client_assignment(g).map_err(|e| e.to_string())?;
            let mech = PiecewiseMechanism::new(assign.eps_t);
            let mut buf = vec![0.0; assign.k_t];
            let mut reports = Vec::new();
            let mut coalition = 0usize;
            for &user in &session.plan().assignment[g] {
                if user < honest.len() {
                    assign.perturb_into(&mech, honest[user], &mut buf, &mut rng);
                    reports.extend_from_slice(&buf);
                } else {
                    coalition += 1;
                }
            }
            let mut poison = vec![0.0; coalition * assign.k_t];
            let n = attack.reports_into(&mut poison, &mech, &mut rng);
            poison.truncate(n);
            groups.push((reports, poison));
        }
        Ok(Reports { groups, truth })
    }

    fn count(&self) -> usize {
        self.groups.iter().map(|(h, p)| h.len() + p.len()).sum()
    }

    /// `SubmitSpec::submit`'s frames: each group's honest reports in
    /// `SUBMIT_CHUNK`-report chunks (`k_t` divides it, so chunks close on
    /// user boundaries exactly as the coordinator's do), the coalition's
    /// reports riding with the group's last chunk.
    fn submit_chunks(&self) -> Vec<(usize, Vec<f64>)> {
        let mut out = Vec::new();
        for (g, (honest, poison)) in self.groups.iter().enumerate() {
            let mut chunks: Vec<Vec<f64>> =
                honest.chunks(SUBMIT_CHUNK).map(<[f64]>::to_vec).collect();
            match chunks.last_mut() {
                Some(last) if last.len() < SUBMIT_CHUNK => last.extend_from_slice(poison),
                _ => chunks.push(poison.clone()),
            }
            out.extend(chunks.into_iter().filter(|c| !c.is_empty()).map(|c| (g, c)));
        }
        out
    }
}

/// An in-process daemon serving one deployment, journaled to `dir`.
struct Daemon {
    addr: String,
    handle: JoinHandle<Result<(), String>>,
    dir: PathBuf,
    digest: u64,
}

impl Daemon {
    /// Starts the daemon and waits until it answers a `hello` — daemon
    /// start, session and plan build, and journal open. Returns it with
    /// the seconds that took.
    fn start(serve: ServeSpec, dir: PathBuf, sync: bool) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let digest = serve.state_digest()?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let serve_dir = dir.clone();
        let handle = std::thread::spawn(move || {
            serve.serve_durable_with(listener, &serve_dir, 0, sync, ServeOptions::default())
        });
        let daemon = Daemon {
            addr,
            handle,
            dir,
            digest,
        };
        daemon.connect(None)?;
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    fn connect(&self, channel: Option<u64>) -> Result<WireClient, String> {
        let mut c = WireClient::connect_retry(&self.addr, 200, Duration::from_millis(5))
            .map_err(|e| format!("cannot reach the daemon: {e}"))?;
        match channel {
            Some(ch) => c.hello_channel(self.digest, ch).map(|_| ()),
            None => c.hello(self.digest).map(|_| ()),
        }
        .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Reads the counters, shuts the daemon down, waits for its thread and
    /// returns the counters with the journal's size in bytes.
    fn stop(self) -> Result<(Option<StatusCounters>, u64), String> {
        let mut c = self.connect(None)?;
        let (_, _, _, counters) = c.status_counters().map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        let bytes = dir_bytes(&self.dir);
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok((counters, bytes))
    }
}

/// Mean over schemes of the squared error of each finalized mean.
fn squared_errors(outputs: &[DapOutput], truth: f64) -> Vec<f64> {
    outputs
        .iter()
        .map(|o| (o.mean - truth) * (o.mean - truth))
        .collect()
}

fn same_outputs(a: &[DapOutput], b: &[DapOutput]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// What one stream client saw.
#[derive(Default)]
struct ClientTally {
    latencies_ms: Vec<f64>,
    /// Frames answered `Throttled`, `SequenceGap` or rejected.
    refused: u64,
    sent: u64,
    retries: u64,
    /// Seconds from the start barrier to this client's last ack.
    done_s: f64,
}

/// One connection's closed loop: up to `WINDOW` frames in flight, each
/// frame's latency from send to `ok`. A throttle (or the gap rejections
/// queued behind it) drains the window, waits the server's hint and
/// resends from the refused frame, so every report still lands once. Any
/// other error fails the pass.
fn stream_client(
    mut c: WireClient,
    channel: u64,
    frames: &[(usize, Vec<f64>)],
    tracer: &Tracer,
) -> Result<ClientTally, String> {
    let start = Instant::now();
    let mut tally = ClientTally::default();
    let total = frames.len() as u64;
    let (mut base, mut next) = (1u64, 1u64);
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(WINDOW);
    while base <= total {
        if next <= total && next < base + WINDOW as u64 {
            let (group, reports) = &frames[(next - 1) as usize];
            let frame = seq_batch(channel, next, *group, reports);
            tracer
                .span("net", "send", || c.send_frame(&frame))
                .map_err(|e| e.to_string())?;
            sent_at.push_back(Instant::now());
            tally.sent += 1;
            next += 1;
            continue;
        }
        match tracer.span("net", "wait", || c.recv_reply()) {
            Ok(Frame::Ok) => {
                let sent = sent_at.pop_front().expect("a frame is in flight");
                tally.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                base += 1;
            }
            Err(refused @ (WireError::Throttled { .. } | WireError::Rejected(_))) => {
                if let WireError::Rejected(e) = &refused {
                    if !matches!(e, DapError::SequenceGap { .. }) {
                        return Err(format!("frame {base} rejected: {e}"));
                    }
                }
                let mut wait_ms = match refused {
                    WireError::Throttled { retry_after_ms } => retry_after_ms,
                    _ => 0,
                };
                tally.refused += 1;
                for _ in base + 1..next {
                    match c.recv_reply() {
                        Err(WireError::Throttled { retry_after_ms }) => {
                            wait_ms = wait_ms.max(retry_after_ms);
                            tally.refused += 1;
                        }
                        Err(WireError::Rejected(_)) => tally.refused += 1,
                        Ok(_) => {}
                        Err(e) => return Err(e.to_string()),
                    }
                }
                tally.retries += next - base;
                std::thread::sleep(Duration::from_millis(wait_ms.max(1)));
                next = base;
                sent_at.clear();
            }
            Ok(other) => return Err(format!("unexpected '{}' reply", other.tag())),
            Err(e) => return Err(e.to_string()),
        }
    }
    tally.done_s = start.elapsed().as_secs_f64();
    Ok(tally)
}

/// Inputs of one stream pass: the deployment, its frames per connection
/// (each group wholly on one connection, so per-group report order — and
/// hence every float sum — is fixed), and the locally replayed twin the
/// daemon must match byte for byte.
struct StreamInputs {
    spec: SubmitSpec,
    per_conn: Vec<Vec<(usize, Vec<f64>)>>,
    twin: DapSession<PiecewiseMechanism>,
    reports: usize,
    truth: f64,
    /// Seconds the twin replay took.
    replay_s: f64,
}

fn channel(conn: usize) -> u64 {
    0x5eed_0000 + conn as u64
}

/// The `seq-batch` frame carrying `reports` for `group` as number `seq` of
/// `channel`.
fn seq_batch(channel: u64, seq: u64, group: usize, reports: &[f64]) -> Frame {
    Frame::IngestBatchSeq {
        channel,
        seq,
        group,
        reports: reports.to_vec(),
    }
}

impl StreamInputs {
    fn build(spec: SubmitSpec, tracer: &Tracer) -> Result<StreamInputs, String> {
        let reports = Reports::simulate(&spec)?;
        // Largest group first onto the lighter connection.
        let mut order: Vec<usize> = (0..reports.groups.len()).collect();
        let size = |g: usize| reports.groups[g].0.len() + reports.groups[g].1.len();
        order.sort_by_key(|&g| std::cmp::Reverse(size(g)));
        let mut per_conn: Vec<Vec<(usize, Vec<f64>)>> = vec![Vec::new(); CONNECTIONS];
        let mut load = [0usize; CONNECTIONS];
        for g in order {
            let conn = (0..CONNECTIONS)
                .min_by_key(|&c| load[c])
                .expect("a connection");
            load[conn] += size(g);
            let (honest, poison) = &reports.groups[g];
            let all: Vec<f64> = honest.iter().chain(poison).copied().collect();
            per_conn[conn].extend(all.chunks(BATCH).map(|c| (g, c.to_vec())));
        }
        let mut twin = DapSession::new(
            spec.serve.session_config(),
            spec.serve.plan(),
            PiecewiseMechanism::new,
        )
        .map_err(|e| e.to_string())?;
        let start = Instant::now();
        tracer.span("session", "apply", || -> Result<(), String> {
            for (conn, frames) in per_conn.iter().enumerate() {
                for (seq, (g, batch)) in frames.iter().enumerate() {
                    twin.ingest_batch_seq(channel(conn), seq as u64 + 1, *g, batch)
                        .map_err(|e| format!("twin replay rejected a frame: {e}"))?;
                }
            }
            Ok(())
        })?;
        let replay_s = start.elapsed().as_secs_f64();
        Ok(StreamInputs {
            spec,
            per_conn,
            twin,
            reports: reports.count(),
            truth: reports.truth,
            replay_s,
        })
    }
}

/// What one stream pass measured.
struct StreamPass {
    setup_s: f64,
    stream_s: f64,
    round_s: f64,
    pull_ms: f64,
    merge_ms: f64,
    latencies_ms: Vec<f64>,
    sent: u64,
    refused: u64,
    retries: u64,
    counters: Option<StatusCounters>,
    journal_bytes: u64,
    outputs: Vec<DapOutput>,
    merged: DapSession<PiecewiseMechanism>,
}

fn stream_pass(
    inputs: &StreamInputs,
    scratch: &Scratch,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<StreamPass, String> {
    let serve = inputs.spec.serve;
    let (daemon, setup_s) = Daemon::start(serve, scratch.fresh("stream"), false)?;
    let clients: Vec<WireClient> = (0..CONNECTIONS)
        .map(|c| daemon.connect(Some(channel(c))))
        .collect::<Result<_, _>>()?;

    let barrier = Barrier::new(CONNECTIONS + 1);
    let mut start = Instant::now();
    let tallies: Vec<Result<(ClientTally, Tracer), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let (barrier, frames, t) = (&barrier, &inputs.per_conn[conn], tracer.fork());
                scope.spawn(move || {
                    barrier.wait();
                    stream_client(client, channel(conn), frames, &t).map(|tally| (tally, t))
                })
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        workers
            .into_iter()
            .map(|w| w.join().expect("stream client thread"))
            .collect()
    });
    let mut pass = StreamPass {
        setup_s,
        stream_s: 0.0,
        round_s: 0.0,
        pull_ms: 0.0,
        merge_ms: 0.0,
        latencies_ms: Vec::new(),
        sent: 0,
        refused: 0,
        retries: 0,
        counters: None,
        journal_bytes: 0,
        outputs: Vec::new(),
        merged: DapSession::new(
            serve.session_config(),
            serve.plan(),
            PiecewiseMechanism::new,
        )
        .map_err(|e| e.to_string())?,
    };
    for tally in tallies {
        let (tally, t) = tally?;
        tracer.join(t);
        pass.stream_s = pass.stream_s.max(tally.done_s);
        pass.latencies_ms.extend(tally.latencies_ms);
        pass.sent += tally.sent;
        pass.refused += tally.refused;
        pass.retries += tally.retries;
    }

    // The coordinator's round: pull the daemon's part, merge, finalize.
    let mut c = daemon.connect(None)?;
    let t = Instant::now();
    let part = tracer
        .span("net", "pull", || c.pull_part())
        .map_err(|e| e.to_string())?;
    pass.pull_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    tracer
        .span("session", "merge", || pass.merged.merge_part(&part))
        .map_err(|e| e.to_string())?;
    pass.merge_ms = t.elapsed().as_secs_f64() * 1e3;
    pass.outputs = tracer
        .span("session", "finalize", || pass.merged.finalize(&Scheme::ALL))
        .map_err(|e| e.to_string())?;
    pass.round_s = start.elapsed().as_secs_f64();
    drop(c);

    if part != inputs.twin.export_part() {
        out.problem("ingest-stream: the daemon's part differs from the replayed twin".into());
    }
    let held: usize = part.groups.iter().map(|g| g.n_reports).sum();
    if held != inputs.reports {
        out.problem(format!(
            "ingest-stream: daemon holds {held} reports, {} were streamed (lost or duplicated)",
            inputs.reports
        ));
    }
    let (counters, bytes) = daemon.stop()?;
    pass.counters = counters;
    pass.journal_bytes = bytes;
    Ok(pass)
}

/// `ingest-stream`: passes of a closed loop, each against a fresh daemon
/// and on its own derived deployment; traced runs alternate untraced and
/// traced passes.
pub fn ingest_stream(cfg: &Config, tracer: &Tracer, scratch: &Scratch, out: &mut Outcome) {
    if let Err(e) = ingest_stream_inner(cfg, tracer, scratch, out) {
        out.problem(format!("ingest-stream: {e}"));
    }
}

fn ingest_stream_inner(
    cfg: &Config,
    tracer: &Tracer,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<(), String> {
    let users = match cfg.scale {
        Scale::Full => 100_000,
        Scale::Tiny => 4_000,
    };
    let accuracy_passes = match cfg.scale {
        Scale::Full => ACCURACY_PASSES,
        Scale::Tiny => 2,
    };
    let (mut setup, mut stream, mut rounds, mut rps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut acks) = (Vec::new(), Vec::new(), 0usize);
    let mut traced_stream = Vec::new();
    let mut sq = Vec::new();
    let mut traced_passes = 0usize;
    let mut last_traced = None;
    let mut rss = PeakRss::default();
    let passes = repetitions(cfg, PASS_S, if cfg.trace { 2 } else { accuracy_passes });
    for n in 0..passes {
        // Two traced passes: every frame leaves two spans, so more would
        // only grow the trace file.
        let traced = cfg.trace && n % 2 == 1 && n < 4;
        let off = Tracer::new(false, 0);
        let t = if traced { tracer } else { &off };
        let inputs = StreamInputs::build(deployment(users, cfg.seed, n as u64), t)?;
        let pass =
            rss.measure(|| t.span("bench", "pass", || stream_pass(&inputs, scratch, t, out)))?;
        out.attempted += pass.sent;
        out.failed += pass.refused;
        if !cfg.trace && n < accuracy_passes {
            sq.extend(squared_errors(&pass.outputs, inputs.truth));
        }
        if traced {
            traced_stream.push(pass.stream_s);
            traced_passes += 1;
            last_traced = Some((inputs, pass));
        } else {
            setup.push(pass.setup_s);
            stream.push(pass.stream_s);
            rounds.push(pass.round_s);
            rps.push(inputs.reports as f64 / pass.stream_s);
            p50s.push(percentile(&pass.latencies_ms, 50.0));
            p99s.push(percentile(&pass.latencies_ms, 99.0));
            acks += pass.latencies_ms.len();
        }
    }
    println!(
        "# ingest-stream: {passes} passes of {users} users, {acks} acks timed; \
         ack percentiles are medians of per-pass percentiles; untraced pass s: {}",
        describe(&stream)
    );

    let v = &mut out.values;
    if !cfg.trace {
        v.set("sweep_s", median(&stream));
        v.set("ingest_rps", median(&rps));
        v.set("ack_p50_ms", median(&p50s));
        v.set("ack_p99_ms", median(&p99s));
        v.set("round_s", median(&rounds));
        v.set("setup_s", median(&setup));
        v.set("est_mse", sq.iter().sum::<f64>() / sq.len() as f64);
        rss.report(out);
        return Ok(());
    }
    let (inputs, pass) = last_traced.expect("a traced run makes a traced pass");
    let per = traced_passes as f64;
    v.set("trace.overhead_s", median(&traced_stream) - median(&stream));
    v.set("net.frames", pass.sent as f64);
    v.set("net.send_s", tracer.total("net", "send").0 / per);
    v.set("net.wait_s", tracer.total("net", "wait").0 / per);
    v.set("net.retries", pass.retries as f64);
    v.set("net.pull_ms", pass.pull_ms);
    v.set("session.merge_ms", pass.merge_ms);
    v.set(
        "session.finalize_s",
        tracer.total("session", "finalize").0 / per,
    );
    v.set("session.ingest_s", inputs.replay_s);
    v.set(
        "session.apply_ns_per_report",
        inputs.replay_s * 1e9 / inputs.reports as f64,
    );
    reactor_metrics(&pass.counters, out);
    let v = &mut out.values;
    v.set(
        "storage.journal_bytes_per_report",
        pass.journal_bytes as f64 / inputs.reports as f64,
    );
    let frames: Vec<&(usize, Vec<f64>)> = inputs.per_conn.iter().flatten().collect();
    codec_probe(tracer, &frames, inputs.reports, out);
    journal_probe(
        tracer,
        scratch,
        &frames[..frames.len().min(4096)],
        false,
        out,
    )?;
    em_probe(tracer, &inputs.spec, &pass.merged, out);
    tracer
        .span("protocol", "local", || inputs.spec.run_local(&Scheme::ALL))
        .map_err(|e| e.to_string())?;
    out.values
        .set("protocol.local_s", tracer.total("protocol", "local").0);
    Ok(())
}

/// The EMF layers on the finalized session's group histograms.
fn em_probe(
    tracer: &Tracer,
    spec: &SubmitSpec,
    session: &DapSession<PiecewiseMechanism>,
    out: &mut Outcome,
) {
    let cfg = spec.serve.session_config();
    let mut em = EmTally::default();
    let (o_prime, max_d_out) = (cfg.o_prime, cfg.max_d_out);
    probe_groups(
        tracer,
        session,
        PiecewiseMechanism::new,
        o_prime,
        max_d_out,
        &Scheme::ALL,
        &mut em,
    );
    em.report(tracer, out);
}

fn reactor_metrics(counters: &Option<StatusCounters>, out: &mut Outcome) {
    let v = &mut out.values;
    if let Some(c) = counters {
        v.set("net.reactor.journal_records", c.journal_records as f64);
        if let Some(r) = c.reactor {
            v.set("net.reactor.throttled", r.throttled as f64);
            v.set("net.reactor.peak_connections", r.peak_connections as f64);
        }
    }
}

/// Encodes every frame of a pass with `encode_frame` and decodes it back
/// with `decode_frame`, each in a span: wire bytes (with the 4-byte length
/// prefix) and codec nanoseconds per report.
fn codec_probe(tracer: &Tracer, frames: &[&(usize, Vec<f64>)], reports: usize, out: &mut Outcome) {
    let mut bytes = 0usize;
    for (seq, (group, batch)) in frames.iter().enumerate() {
        let frame = seq_batch(1, seq as u64 + 1, *group, batch);
        let text = tracer.span("net", "encode", || encode_frame(&frame));
        bytes += 4 + text.len();
        let back = tracer.span("net", "decode", || decode_frame(&text));
        debug_assert!(matches!(back, Ok(f) if f == frame));
    }
    let per = reports as f64;
    let v = &mut out.values;
    v.set("net.wire_bytes_per_report", bytes as f64 / per);
    v.set(
        "net.encode_ns_per_report",
        tracer.total("net", "encode").0 * 1e9 / per,
    );
    v.set(
        "net.decode_ns_per_report",
        tracer.total("net", "decode").0 * 1e9 / per,
    );
}

/// Appends the encoded frames as records to a fresh journal — synced per
/// append when `sync`, as the daemon's backend is — each append in a span.
fn journal_probe(
    tracer: &Tracer,
    scratch: &Scratch,
    frames: &[&(usize, Vec<f64>)],
    sync: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = scratch.fresh("journal-probe");
    let backend = if sync {
        FileBackend::open_sync(&dir)
    } else {
        FileBackend::open(&dir)
    }
    .map_err(|e| e.to_string())?;
    let (mut journal, _) = Journal::open(backend).map_err(|e| e.to_string())?;
    let mark = tracer.mark();
    for (seq, (group, batch)) in frames.iter().enumerate() {
        let payload = encode_frame(&seq_batch(1, seq as u64 + 1, *group, batch));
        tracer
            .span("storage", "append", || journal.append(payload.as_bytes()))
            .map_err(|e| e.to_string())?;
    }
    let (secs, count) = tracer.total_since(mark, "storage", "append");
    out.values.set(
        "storage.append_us_per_record",
        secs * 1e6 / count.max(1) as f64,
    );
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `ingest-bulk`: coordinator rounds, each against a fresh daemon journaled
/// with an `fsync` per record and on its own derived deployment.
pub fn ingest_bulk(cfg: &Config, tracer: &Tracer, scratch: &Scratch, out: &mut Outcome) {
    let result = if cfg.trace {
        ingest_bulk_traced(cfg, tracer, scratch, out)
    } else {
        ingest_bulk_untraced(cfg, scratch, out)
    };
    if let Err(e) = result {
        out.problem(format!("ingest-bulk: {e}"));
    }
}

fn bulk_users(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_000_000,
        Scale::Tiny => 20_000,
    }
}

fn ingest_bulk_untraced(cfg: &Config, scratch: &Scratch, out: &mut Outcome) -> Result<(), String> {
    let users = bulk_users(cfg.scale);
    let accuracy_rounds = match cfg.scale {
        Scale::Full => ACCURACY_ROUNDS,
        Scale::Tiny => 2,
    };
    let (mut setup, mut rounds, mut rps, mut sq) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut locals = Vec::new();
    let mut rss = PeakRss::default();
    let total = repetitions(cfg, ROUND_S, accuracy_rounds.max(ACK_ROUNDS));
    for n in 0..total {
        let spec = deployment(users, cfg.seed, n as u64);
        let plan = spec.serve.plan();
        let reports: usize = plan
            .assignment
            .iter()
            .zip(&plan.reports_per_user)
            .map(|(members, k)| members.len() * k)
            .sum();
        let (daemon, setup_s, outcome, round_s) = rss.measure(|| -> Result<_, String> {
            let (daemon, setup_s) = Daemon::start(spec.serve, scratch.fresh("bulk"), true)?;
            let start = Instant::now();
            let outcome = spec.submit(
                std::slice::from_ref(&daemon.addr),
                &Scheme::ALL,
                SubmitOptions::default(),
            );
            Ok((daemon, setup_s, outcome, start.elapsed().as_secs_f64()))
        })?;
        daemon.stop()?;
        let outcome = outcome?;
        let refused: usize = outcome
            .daemons
            .iter()
            .map(|d| d.retries + d.throttles)
            .sum();
        let local = spec.run_local(&Scheme::ALL)?;
        out.attempted += 1;
        if refused > 0 || !same_outputs(&outcome.outputs, &local) {
            out.failed += 1;
            out.problem(format!(
                "ingest-bulk: round {n} had {refused} refused frames or differs from \
                 SubmitSpec::run_local"
            ));
        }
        if n < accuracy_rounds {
            let m = (users as f64 * GAMMA).round() as usize;
            let honest = spec
                .dataset
                .generate_signed(users - m, &mut seeded(spec.data_seed));
            let truth = honest.iter().sum::<f64>() / honest.len() as f64;
            sq.extend(squared_errors(&outcome.outputs, truth));
        }
        setup.push(setup_s);
        rounds.push(round_s);
        rps.push(reports as f64 / round_s);
        if n < ACK_ROUNDS {
            locals.push(local);
        }
    }

    // `submit` acknowledges only whole rounds, so the first deployments are
    // streamed again frame by frame to time each ack.
    let (mut p50s, mut p99s, mut acks) = (Vec::new(), Vec::new(), 0usize);
    for (n, local) in locals.iter().enumerate() {
        let spec = deployment(users, cfg.seed, n as u64);
        let chunks = Reports::simulate(&spec)?.submit_chunks();
        let round = stream_round(&spec, &chunks, &Tracer::new(false, 0), scratch, local, out)?;
        p50s.push(percentile(&round.latencies_ms, 50.0));
        p99s.push(percentile(&round.latencies_ms, 99.0));
        acks += round.latencies_ms.len();
    }
    println!(
        "# ingest-bulk: {total} rounds of {users} users, then {acks} acks timed in {} streamed \
         rounds; ack percentiles are medians of per-round percentiles; round s: {}",
        locals.len(),
        describe(&rounds)
    );
    let v = &mut out.values;
    v.set("sweep_s", median(&rounds));
    v.set("round_s", median(&rounds));
    v.set("ingest_rps", median(&rps));
    v.set("ack_p50_ms", median(&p50s));
    v.set("ack_p99_ms", median(&p99s));
    v.set("setup_s", median(&setup));
    v.set("est_mse", sq.iter().sum::<f64>() / sq.len() as f64);
    rss.report(out);
    Ok(())
}

/// What one streamed bulk round measured.
struct StreamedRound {
    seconds: f64,
    latencies_ms: Vec<f64>,
    pull_ms: f64,
    merge_ms: f64,
    counters: Option<StatusCounters>,
    journal_bytes: u64,
    session: DapSession<PiecewiseMechanism>,
}

/// One coordinator round streamed by the benchmark itself, as
/// `SubmitSpec::submit` streams it: to a fresh daemon that fsyncs every
/// record, each chunk one `seq-batch` frame awaiting its `ok` (window 1),
/// then `pull_part`, merge and finalize; the outputs must equal `local`.
/// Each wire call and session step runs in a span of `tracer`.
fn stream_round(
    spec: &SubmitSpec,
    chunks: &[(usize, Vec<f64>)],
    tracer: &Tracer,
    scratch: &Scratch,
    local: &[DapOutput],
    out: &mut Outcome,
) -> Result<StreamedRound, String> {
    let (daemon, _) = Daemon::start(spec.serve, scratch.fresh("bulk"), true)?;
    let start = Instant::now();
    let mut c = daemon.connect(Some(channel(0)))?;
    let mut latencies_ms = Vec::with_capacity(chunks.len());
    let mut refused = 0usize;
    for (seq, (group, batch)) in chunks.iter().enumerate() {
        let frame = seq_batch(channel(0), seq as u64 + 1, *group, batch);
        let sent = Instant::now();
        tracer
            .span("net", "send", || c.send_frame(&frame))
            .map_err(|e| e.to_string())?;
        match tracer.span("net", "wait", || c.recv_reply()) {
            Ok(Frame::Ok) => latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3),
            _ => refused += 1,
        }
    }
    let pull = Instant::now();
    let part = tracer
        .span("net", "pull", || c.pull_part())
        .map_err(|e| e.to_string())?;
    let pull_ms = pull.elapsed().as_secs_f64() * 1e3;
    drop(c);
    let mut session = DapSession::new(
        spec.serve.session_config(),
        spec.serve.plan(),
        PiecewiseMechanism::new,
    )
    .map_err(|e| e.to_string())?;
    let merge = Instant::now();
    tracer
        .span("session", "merge", || session.merge_part(&part))
        .map_err(|e| e.to_string())?;
    let merge_ms = merge.elapsed().as_secs_f64() * 1e3;
    let outputs = tracer
        .span("session", "finalize", || session.finalize(&Scheme::ALL))
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let (counters, journal_bytes) = daemon.stop()?;
    out.attempted += 1;
    if refused > 0 || !same_outputs(&outputs, local) {
        out.failed += 1;
        out.problem(format!(
            "ingest-bulk: streamed round had {refused} refused frames or differs from \
             SubmitSpec::run_local"
        ));
    }
    Ok(StreamedRound {
        seconds,
        latencies_ms,
        pull_ms,
        merge_ms,
        counters,
        journal_bytes,
        session,
    })
}

/// The traced bulk run: `SubmitSpec::submit` is one call, so the run
/// streams the same chunks itself ([`stream_round`]) once untraced and
/// once traced, and probes the codec, the journal, the local reference,
/// the session and the EMF layers on the same inputs.
fn ingest_bulk_traced(
    cfg: &Config,
    tracer: &Tracer,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = deployment(bulk_users(cfg.scale), cfg.seed, 0);
    let reports = Reports::simulate(&spec)?;
    let chunks = reports.submit_chunks();
    let count = reports.count();
    let local = tracer
        .span("protocol", "local", || spec.run_local(&Scheme::ALL))
        .map_err(|e| e.to_string())?;
    out.values
        .set("protocol.local_s", tracer.total("protocol", "local").0);

    let untraced = stream_round(&spec, &chunks, &Tracer::new(false, 0), scratch, &local, out)?;
    let round = stream_round(&spec, &chunks, tracer, scratch, &local, out)?;
    let v = &mut out.values;
    v.set("trace.overhead_s", round.seconds - untraced.seconds);
    v.set("net.frames", chunks.len() as f64);
    v.set("net.send_s", tracer.total("net", "send").0);
    v.set("net.wait_s", tracer.total("net", "wait").0);
    v.set("net.pull_ms", round.pull_ms);
    v.set("session.merge_ms", round.merge_ms);
    v.set("session.finalize_s", tracer.total("session", "finalize").0);
    v.set(
        "storage.journal_bytes_per_report",
        round.journal_bytes as f64 / count as f64,
    );
    reactor_metrics(&round.counters, out);

    // The session layer alone: the same chunks replayed into a twin.
    let mut twin = DapSession::new(
        spec.serve.session_config(),
        spec.serve.plan(),
        PiecewiseMechanism::new,
    )
    .map_err(|e| e.to_string())?;
    let apply = Instant::now();
    tracer.span("session", "apply", || -> Result<(), String> {
        for (seq, (group, batch)) in chunks.iter().enumerate() {
            twin.ingest_batch_seq(channel(0), seq as u64 + 1, *group, batch)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    let apply_s = apply.elapsed().as_secs_f64();
    out.values.set("session.ingest_s", apply_s);
    out.values
        .set("session.apply_ns_per_report", apply_s * 1e9 / count as f64);

    let frames: Vec<&(usize, Vec<f64>)> = chunks.iter().collect();
    codec_probe(tracer, &frames, count, out);
    journal_probe(tracer, scratch, &frames[..frames.len().min(64)], true, out)?;
    em_probe(tracer, &spec, &round.session, out);
    Ok(())
}
