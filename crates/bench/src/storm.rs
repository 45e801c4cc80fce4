//! `experiments storm`: the synthetic client swarm behind the ingestion
//! reactor's perf claim.
//!
//! A storm run spawns a small in-process daemon fleet (journaled and
//! fsynced by default — the durable tier is where ingest bandwidth is
//! actually bound), then floods it with `connections × reports` seeded
//! sequenced batches from one client thread per connection, each keeping a
//! Go-Back-N window of frames in flight. Clients are throttle-aware: a
//! [`WireError::Throttled`] shed bounces every in-flight successor off the
//! replay guard as a sequence gap, so the client drains the window, sleeps
//! the server's `retry_after_ms` hint, and resends from the shed frame; a
//! dropped connection reconnects and resumes from the handshake's
//! acknowledged sequence. Every report therefore lands exactly once no
//! matter how hard the daemon sheds.
//!
//! Reports live on the dyadic lattice `m · 2⁻¹²`: partial sums of lattice
//! points are exactly representable in f64, so the expected per-group
//! histogram *and report sum* are bit-exact regardless of how the worker
//! pool interleaves connections. That is what lets the harness assert
//! `lost 0, dup 0` as a byte-equality between each daemon's pulled part
//! and a locally replayed twin — under saturation, not just in a quiet
//! unit test.
//!
//! The same run measures sustained reports/sec and p50/p99 per-frame ack
//! latency; `experiments storm --bench-json` runs a per-frame baseline
//! (the same reactor at `coalesce: 1`, so one lock and one journal fsync
//! per frame) and the configured reactor back to back and writes the
//! comparison (`BENCH_serve.json`) that CI gates on.

use crate::serve::{ServeSpec, WireMech};
use dap_core::net::{
    Deadlines, Frame, ReactorOptions, ServeOptions, WireClient, WireError,
};
use dap_core::{DapError, DapSession, Scheme};
use dap_ldp::PiecewiseMechanism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One storm's shape: the swarm, the fleet, and the reactor bounds.
#[derive(Debug, Clone)]
pub struct StormSpec {
    /// Client connections (each one thread, one sequencing channel).
    pub connections: usize,
    /// Reports each connection streams.
    pub reports: usize,
    /// Reports per `seq-batch` frame.
    pub batch: usize,
    /// Frames each client keeps in flight before collecting acks
    /// (Go-Back-N pipelining; `1` degenerates to request/reply).
    pub window: usize,
    /// In-process daemons; connection `i` targets daemon `i mod daemons`.
    pub daemons: usize,
    /// Seed of every client schedule (and the deployment plan).
    pub seed: u64,
    /// Journal + fsync each daemon (the durable tier, the default). The
    /// reactor's group commit amortizes the per-record fsync — which is
    /// exactly the contrast the benchmark exists to measure.
    pub journal: bool,
    /// The bounds every daemon's reactor serves with.
    pub reactor: ReactorOptions,
}

impl StormSpec {
    /// Storm-sized reactor bounds: one worker (the harness targets a
    /// single-core CI container, where a second worker only adds lock
    /// traffic), a queue of one run per connection at the default swarm
    /// size, and an aggressive 1 ms retry hint. Shrink `--queue-ops`
    /// below the connection count (as the CI smoke does) to force
    /// nonzero backpressure sheds.
    pub fn storm_reactor() -> ReactorOptions {
        ReactorOptions {
            queue_ops: 32,
            workers: 1,
            retry_after_ms: 1,
            ..ReactorOptions::default()
        }
    }

    /// The deployment the fleet serves: PM at the paper's ε = 1/4, with a
    /// user count sized so every group's quota comfortably holds the
    /// swarm's reports.
    pub fn deployment(&self) -> ServeSpec {
        ServeSpec {
            mech: WireMech::Pm,
            eps: 0.25,
            eps0: 1.0 / 16.0,
            users: (2 * self.connections * self.reports).max(300),
            seed: self.seed,
            max_d_out: 16,
            secagg: None,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.connections == 0 || self.reports == 0 || self.batch == 0 || self.window == 0
        {
            return Err(
                "storm needs nonzero --connections, --reports, --batch and --window".into()
            );
        }
        if self.daemons == 0 {
            return Err("storm needs at least one daemon".into());
        }
        Ok(())
    }
}

/// What one storm run measured. `lost`/`dup` are report-count deltas
/// against the locally replayed twin (both zero on a correct run; the
/// part comparison is bitwise, so even a zero-delta float divergence
/// fails the run as `diverged`).
#[derive(Debug, Clone)]
pub struct StormStats {
    /// `"per-frame"` for a reactor at `coalesce: 1`, `"reactor"` otherwise.
    pub mode: &'static str,
    /// Reports that landed (always `connections × reports` on success).
    pub reports: usize,
    /// Streaming wall clock, first byte to last ack, in milliseconds.
    pub wall_ms: f64,
    /// `reports / wall` — the headline number.
    pub reports_per_sec: f64,
    /// Median per-frame ack latency (one successful request/reply).
    pub p50_ms: f64,
    /// 99th-percentile per-frame ack latency.
    pub p99_ms: f64,
    /// Backpressure sheds observed by the fleet (reactor counters).
    pub throttled: u64,
    /// Client-side resends after a throttle.
    pub retries: usize,
    /// Client reconnects after a dropped connection.
    pub reconnects: usize,
    /// Reports the fleet lost (expected − held, where positive).
    pub lost: usize,
    /// Reports the fleet duplicated (held − expected, where positive).
    pub dup: usize,
    /// The daemons' parts differed from the twin beyond report counts
    /// (bit-level divergence with matching tallies).
    pub diverged: bool,
}

impl StormStats {
    /// The two stdout lines CI greps (`lost 0, dup 0` is the zero-loss
    /// assertion; the reports/sec figure is the throughput floor).
    pub fn render(&self) -> String {
        format!(
            "storm[{}]: {} reports in {:.1} ms -> {:.0} reports/sec, \
             p50 {:.2} ms, p99 {:.2} ms\n\
             storm[{}]: throttled {}, retries {}, reconnects {}, lost {}, dup {}",
            self.mode,
            self.reports,
            self.wall_ms,
            self.reports_per_sec,
            self.p50_ms,
            self.p99_ms,
            self.mode,
            self.throttled,
            self.retries,
            self.reconnects,
            self.lost,
            self.dup,
        )
    }

    /// Whether the run held the exactly-once contract.
    pub fn exact(&self) -> bool {
        self.lost == 0 && self.dup == 0 && !self.diverged
    }
}

/// Client `i`'s full schedule: `reports` lattice points (`m · 2⁻¹²`,
/// `|v| ≤ ½` — inside every group's domain) in `batch`-sized frames.
fn client_batches(spec: &StormSpec, client: usize) -> Vec<Vec<f64>> {
    let mut rng =
        StdRng::seed_from_u64(spec.seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut frames = Vec::with_capacity(spec.reports.div_ceil(spec.batch));
    let mut left = spec.reports;
    while left > 0 {
        let n = left.min(spec.batch);
        frames.push(
            (0..n).map(|_| rng.gen_range(-2048i64..2048) as f64 / 4096.0).collect(),
        );
        left -= n;
    }
    frames
}

/// Client `i`'s sequencing channel (distinct per client, stable per seed).
fn client_channel(client: usize) -> u64 {
    0x5702_0000 + client as u64
}

/// What one client thread observed.
struct ClientOutcome {
    /// Per-acked-frame round-trip latencies, milliseconds.
    latencies: Vec<f64>,
    /// Resends after a throttle.
    retries: usize,
    /// Reconnects after a transport failure.
    reconnects: usize,
}

/// Streams one client's schedule with a Go-Back-N window, absorbing
/// throttles and reconnects.
///
/// Up to `window` frames ride the socket before the first ack is
/// collected; the server replies strictly in order. When frame `base` is
/// shed ([`WireError::Throttled`]), the replay guard turns every in-flight
/// successor into a [`DapError::SequenceGap`] rejection (the session
/// admits only `last + 1`), so the client drains those bounces, sleeps the
/// strictest `retry_after_ms` hint it saw, and resends from `base` — the
/// guard makes over-delivery impossible and the rewind makes loss
/// impossible. A dropped connection reconnects and resyncs the window
/// from the handshake's acknowledged sequence.
fn run_client(
    addr: &str,
    digest: u64,
    group: usize,
    channel: u64,
    frames: &[Vec<f64>],
    window: usize,
) -> Result<ClientOutcome, String> {
    let deadlines = Deadlines::all(Duration::from_secs(30));
    let connect = || {
        WireClient::connect_retry_with(addr, 200, Duration::from_millis(25), &deadlines)
            .map_err(|e| format!("storm client cannot reach {addr}: {e}"))
    };
    let mut c = connect()?;
    let (_, acked) = c.hello_channel(digest, channel).map_err(|e| e.to_string())?;
    let mut out = ClientOutcome { latencies: Vec::new(), retries: 0, reconnects: 0 };
    let window = window.max(1) as u64;
    let total = frames.len() as u64;
    // `base` is the lowest unacked sequence, `next` the next to transmit;
    // sequences are 1-based and `sent_at` holds the send instant of every
    // in-flight frame (`base..next`).
    let mut base = acked + 1;
    let mut next = base;
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window as usize);
    while base <= total {
        // Reconnect-and-resync on any transport failure, wherever it
        // struck: whatever the handshake acknowledges is what landed.
        let mut resync = false;
        if next <= total && next < base + window {
            let frame = Frame::IngestBatchSeq {
                channel,
                seq: next,
                group,
                reports: frames[(next - 1) as usize].clone(),
            };
            match c.send_frame(&frame) {
                Ok(()) => {
                    sent_at.push_back(Instant::now());
                    next += 1;
                }
                Err(WireError::Timeout { .. } | WireError::Io { .. }) => resync = true,
                Err(other) => {
                    return Err(format!("storm client hit a fatal error: {other}"));
                }
            }
        } else {
            match c.recv_reply() {
                Ok(Frame::Ok) => {
                    let sent = sent_at.pop_front().expect("an in-flight frame");
                    out.latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                    base += 1;
                }
                // The replay guard proves a resent frame already landed.
                Err(WireError::Rejected(DapError::DuplicateSequence { .. })) => {
                    sent_at.pop_front();
                    base += 1;
                }
                Err(
                    shed @ (WireError::Throttled { .. }
                    | WireError::Rejected(DapError::SequenceGap { .. })),
                ) => {
                    // Shed (or bounced behind a shed): drain the replies
                    // still owed for this window — all gap rejections or
                    // further throttles — then rewind and resend.
                    let mut hint_ms = match shed {
                        WireError::Throttled { retry_after_ms } => retry_after_ms,
                        _ => 0,
                    };
                    let mut owed = next - base - 1;
                    while owed > 0 && !resync {
                        match c.recv_reply() {
                            Ok(_) | Err(WireError::Rejected(_)) => owed -= 1,
                            Err(WireError::Throttled { retry_after_ms }) => {
                                hint_ms = hint_ms.max(retry_after_ms);
                                owed -= 1;
                            }
                            Err(WireError::Timeout { .. } | WireError::Io { .. }) => {
                                resync = true;
                            }
                            Err(other) => {
                                return Err(format!(
                                    "storm client hit a fatal error: {other}"
                                ));
                            }
                        }
                    }
                    out.retries += (next - base) as usize;
                    if !resync {
                        std::thread::sleep(Duration::from_millis(hint_ms.max(1)));
                        next = base;
                        sent_at.clear();
                    }
                }
                Err(WireError::Timeout { .. } | WireError::Io { .. }) => resync = true,
                Ok(other) => {
                    return Err(format!(
                        "storm client got an unexpected '{}' reply",
                        other.tag()
                    ));
                }
                Err(other) => {
                    return Err(format!("storm client hit a fatal error: {other}"));
                }
            }
        }
        if resync {
            out.reconnects += 1;
            c = connect()?;
            let (_, last) = c.hello_channel(digest, channel).map_err(|e| e.to_string())?;
            base = last + 1;
            next = base;
            sent_at.clear();
        }
    }
    Ok(out)
}

/// Sorted-percentile helper (`q` in `[0, 1]`).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// Runs one storm: spawn the fleet, flood it, verify exactly-once against
/// the replayed twin, tear everything down.
pub fn run_storm(spec: &StormSpec) -> Result<StormStats, String> {
    spec.validate()?;
    let deployment = spec.deployment();
    let digest = deployment.state_digest()?;
    let session = deployment_session(&deployment)?;
    let groups = session.group_count();
    let mode: &'static str = if spec.reactor.coalesce == 1 { "per-frame" } else { "reactor" };

    // The fleet: one daemon thread each, journaled into disposable dirs
    // when durability is on.
    let mut addrs = Vec::with_capacity(spec.daemons);
    let mut dirs: Vec<Option<PathBuf>> = Vec::with_capacity(spec.daemons);
    let mut handles = Vec::with_capacity(spec.daemons);
    for d in 0..spec.daemons {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind a storm daemon: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let options = ServeOptions {
            reactor: spec.reactor.clone(),
            ..ServeOptions::default()
        };
        let dir = if spec.journal {
            let dir = std::env::temp_dir().join(format!(
                "dap-storm-{}-{mode}-{d}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            Some(dir)
        } else {
            None
        };
        let serve_spec = deployment;
        let serve_dir = dir.clone();
        handles.push(std::thread::spawn(move || match &serve_dir {
            Some(dir) => serve_spec.serve_durable_with(listener, dir, 0, true, options),
            None => serve_spec.serve_with(listener, options),
        }));
        addrs.push(addr);
        dirs.push(dir);
    }

    // The swarm: one thread per connection, client `i` on daemon
    // `i mod daemons`, group `i mod groups`, its own channel.
    let schedules: Vec<Vec<Vec<f64>>> =
        (0..spec.connections).map(|i| client_batches(spec, i)).collect();
    let start = Instant::now();
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spec.connections)
            .map(|i| {
                let addr = addrs[i % spec.daemons].clone();
                let frames = &schedules[i];
                let window = spec.window;
                scope.spawn(move || {
                    run_client(&addr, digest, i % groups, client_channel(i), frames, window)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("storm client thread")).collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut latencies = Vec::new();
    let mut retries = 0usize;
    let mut reconnects = 0usize;
    for outcome in outcomes {
        let outcome = outcome?;
        latencies.extend(outcome.latencies);
        retries += outcome.retries;
        reconnects += outcome.reconnects;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));

    // Verification: replay each daemon's share of the swarm into a local
    // twin (client-major order — lattice sums make order irrelevant down
    // to the bit) and require the pulled part byte-equal.
    let mut throttled = 0u64;
    let mut lost = 0usize;
    let mut dup = 0usize;
    let mut diverged = false;
    for (d, addr) in addrs.iter().enumerate() {
        let mut twin = deployment_session(&deployment)?;
        for i in (0..spec.connections).filter(|i| i % spec.daemons == d) {
            for (f, frame) in schedules[i].iter().enumerate() {
                twin.ingest_batch_seq(client_channel(i), f as u64 + 1, i % groups, frame)
                    .map_err(|e| format!("twin replay rejected a frame: {e}"))?;
            }
        }
        let mut c = WireClient::connect_retry(addr, 50, Duration::from_millis(20))
            .map_err(|e| format!("verification connect failed: {e}"))?;
        c.hello(digest).map_err(|e| e.to_string())?;
        let part = c.pull_part().map_err(|e| e.to_string())?;
        let expected = twin.export_part();
        if part != expected {
            for (got, want) in part.groups.iter().zip(&expected.groups) {
                lost += want.n_reports.saturating_sub(got.n_reports);
                dup += got.n_reports.saturating_sub(want.n_reports);
            }
            if lost == 0 && dup == 0 {
                diverged = true;
            }
        }
        if let Ok((_, _, _, Some(counters))) = c.status_counters() {
            if let Some(reactor) = counters.reactor {
                throttled += reactor.throttled;
            }
        }
        c.shutdown().map_err(|e| e.to_string())?;
    }
    for handle in handles {
        handle.join().map_err(|_| "storm daemon thread panicked".to_string())??;
    }
    for dir in dirs.into_iter().flatten() {
        let _ = std::fs::remove_dir_all(dir);
    }

    let total = spec.connections * spec.reports;
    Ok(StormStats {
        mode,
        reports: total,
        wall_ms,
        reports_per_sec: total as f64 / (wall_ms / 1e3),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        throttled,
        retries,
        reconnects,
        lost,
        dup,
        diverged,
    })
}

fn deployment_session(spec: &ServeSpec) -> Result<DapSession<PiecewiseMechanism>, String> {
    DapSession::new(spec.session_config(), spec.plan(), PiecewiseMechanism::new)
        .map_err(|e| e.to_string())
}

/// The `# dap-wire storm:` stdout header.
pub fn storm_header(spec: &StormSpec) -> String {
    format!(
        "# dap-wire storm: daemons {}, connections {}, reports {}, batch {}, window {}, \
         seed {}, journal {}",
        spec.daemons,
        spec.connections,
        spec.reports,
        spec.batch,
        spec.window,
        spec.seed,
        if spec.journal { "sync" } else { "none" },
    )
}

/// `BENCH_serve.json`: the reactor-vs-per-frame comparison CI gates on.
/// Both throughput numbers are per-mode medians over the bench run's
/// trials; `speedup` is their ratio (the ingestion reactor's headline
/// claim).
pub fn write_storm_bench_json(
    path: &str,
    spec: &StormSpec,
    reactor: &StormStats,
    per_frame: &StormStats,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let speedup = reactor.reports_per_sec / per_frame.reports_per_sec;
    let json = format!(
        "{{\n  \"experiment\": \"storm\",\n  \"daemons\": {},\n  \"connections\": {},\n  \
         \"reports\": {},\n  \"batch\": {},\n  \"window\": {},\n  \"seed\": {},\n  \
         \"journal\": \"{}\",\n  \
         \"reactor_reports_per_sec\": {:.0},\n  \"per_frame_reports_per_sec\": {:.0},\n  \
         \"speedup\": {:.2},\n  \"reactor_p50_ms\": {:.3},\n  \"reactor_p99_ms\": {:.3},\n  \
         \"per_frame_p50_ms\": {:.3},\n  \"per_frame_p99_ms\": {:.3},\n  \"throttled\": {}\n}}\n",
        spec.daemons,
        spec.connections,
        spec.reports,
        spec.batch,
        spec.window,
        spec.seed,
        if spec.journal { "sync" } else { "none" },
        reactor.reports_per_sec,
        per_frame.reports_per_sec,
        speedup,
        reactor.p50_ms,
        reactor.p99_ms,
        per_frame.p50_ms,
        per_frame.p99_ms,
        reactor.throttled,
    );
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())
}

/// The scheme list a storm deployment would finalize (unused by the storm
/// itself — exposed so smoke tests can finalize a drained fleet).
pub fn storm_schemes() -> Vec<Scheme> {
    Scheme::ALL.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_lattice_valued() {
        let spec = StormSpec {
            connections: 3,
            reports: 10,
            batch: 4,
            window: 8,
            daemons: 1,
            seed: 42,
            journal: false,
            reactor: StormSpec::storm_reactor(),
        };
        let a = client_batches(&spec, 1);
        let b = client_batches(&spec, 1);
        assert_eq!(a, b, "schedules must replay exactly");
        assert_ne!(a, client_batches(&spec, 2), "clients get distinct streams");
        let frames: usize = a.iter().map(Vec::len).sum();
        assert_eq!(frames, 10);
        assert_eq!(a[0].len(), 4);
        assert_eq!(a.last().unwrap().len(), 2, "tail frame carries the remainder");
        for v in a.iter().flatten() {
            assert_eq!(v * 4096.0, (v * 4096.0).round(), "{v} is off the dyadic lattice");
            assert!(v.abs() <= 0.5);
        }
    }

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 6.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
