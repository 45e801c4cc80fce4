//! `dap-wire/v1`: a std-only wire protocol serving [`DapSession`] over TCP.
//!
//! The session API is transport-agnostic; this module is the transport. A
//! daemon wraps one session in [`serve_session`] — a bounded-worker
//! *ingestion reactor*: each connection gets a handler
//! thread that decodes frames, each connection's buffered run of mutation
//! frames crosses a bounded apply queue as one unit to a small worker pool
//! applying coalesced batches under one session-lock acquisition (one
//! journal group commit for a durable session) and acked with one write,
//! and a full queue or connection table answers with a typed,
//! retryable [`WireError::Throttled`] instead of blocking
//! (backpressure). The accept loop runs over `std::net::TcpListener` —
//! the workspace has no async runtime, by design. Clients drive the
//! daemon through [`WireClient`], which coalesces its writes: frames
//! queued by [`WireClient::send_frame`] leave as one write when the next
//! receive would block, so a pipelined window reaches the daemon as one
//! run. The frame set mirrors the session API one-to-one:
//!
//! | frame | direction | reply | meaning |
//! |---|---|---|---|
//! | `hello` | → | `hello-ok` | version + [`DapSession::state_digest`] handshake (optionally announcing a channel; the reply then carries the channel's last acked sequence) |
//! | `ingest` | → | `ok` | one report into one group |
//! | `ingest-batch` | → | `ok` | an atomic report batch into one group |
//! | `seq-batch` | → | `ok` | a sequence-numbered batch — retries dedup'd by the session's replay guard |
//! | `share-batch` | → | `ok` | a sequence-numbered batch of masked `u64` histogram shares ([`DapSession::ingest_shares`]) |
//! | `status` | → | `status-ok` | lightweight liveness probe (digest, groups, reports ingested, observability counters) |
//! | `pull` | → | `part` | the serialized per-group state ([`SessionPart`]) |
//! | `masked-pull` | → | `masked-part` | a masked session's share state ([`crate::secagg::MaskedPart`]) |
//! | `merge` | → | `ok` | absorb a serialized part ([`DapSession::merge_part`]) |
//! | `finalize` | → | `outputs` | run the collector pipeline for a scheme list |
//! | `run-shard` | → | `shard-result` | execute an experiment shard (bench daemons) |
//! | `shutdown` | → | `ok` | stop the daemon after this reply |
//! | `error` | ← | — | typed [`WireError`] reply to any frame |
//!
//! Every frame is length-prefixed (4-byte big-endian length, then a UTF-8
//! body whose first token is the frame tag). All f64 values — reports,
//! histogram state, outputs — travel as IEEE-754 bit patterns through the
//! shared [`crate::codec`], the same encoding the `dap-results/v1` JSON
//! schema uses, so a value crosses the wire **exactly**: the golden
//! loopback suites pin a coordinator-over-TCP run bit-identical to a
//! single-process one. Tokens split on `char::is_whitespace`; the decoder
//! walks the body with a byte cursor and reads the canonical 18-byte hex
//! token through a table, and the property suites in `net/wire_fuzz.rs`
//! hold it to the plain `split_whitespace` / `from_str_radix` decoder it
//! replaced.
//!
//! Rejections stay typed across the hop: a [`DapError`] raised by the
//! session (out-of-range report, over-quota traffic, unknown group,
//! incompatible merge) comes back as [`WireError::Rejected`] carrying the
//! same variant with the same fields.
//!
//! A daemon started with auth tokens ([`ServeOptions::auth_tokens`])
//! answers every frame on a connection with [`WireError::Unauthorized`]
//! until a `hello` carrying a recognized token succeeds — authentication
//! is connection-scoped and precedes all session dispatch, so an
//! unauthenticated peer cannot even probe `status`. Until then the
//! connection may not send a frame longer than 4 KiB (a full hello is 113
//! bytes): a longer length prefix gets the typed [`WireError::BadFrame`]
//! farewell before any of its body is read. Every frame body is read into
//! a buffer that grows as bytes arrive, so a claimed length reserves at
//! most 64 KiB before the peer sends the bytes.

use crate::codec::{self, f64_to_hex, hex_u64};
use crate::error::DapError;
use crate::protocol::{DapOutput, GroupReport};
use crate::scheme::Scheme;
use crate::secagg::{MaskedGroup, MaskedPart, SecaggRole};
use crate::session::{DapSession, PartGroup, SessionPart};
use dap_attack::Side;
use dap_ldp::NumericMechanism;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

/// The protocol version exchanged in the `hello` handshake.
pub const WIRE_VERSION: &str = "dap-wire/v1";

/// Upper bound on one frame body — a guard against garbage lengths, not a
/// protocol limit (the largest legitimate frame, a 1M-report batch, is
/// ~20 MB of hex tokens).
const MAX_FRAME: usize = 64 << 20;

/// Upper bound on a frame a daemon with auth tokens reads before the
/// connection's hello authenticates. A hello with every optional section
/// is 113 bytes; the cap keeps a stranger from making the daemon hold a
/// large body buffer per connection.
const PRE_AUTH_FRAME: usize = 4 << 10;

/// Most bytes a frame body buffer holds before bytes arrive to fill it;
/// beyond it the buffer grows with the data read.
const BODY_CHUNK: usize = 64 << 10;

/// A typed error crossing the wire (or raised by the transport itself).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The peer's session rejected the operation; the original
    /// [`DapError`] round-trips with its fields intact.
    Rejected(DapError),
    /// The peer speaks a different `dap-wire` version.
    VersionMismatch {
        /// Version offered by the client.
        client: String,
        /// Version the server speaks.
        server: String,
    },
    /// Client and server sessions were built from different deployments
    /// (config, plan or mechanism grids differ).
    DigestMismatch {
        /// The client session's [`DapSession::state_digest`].
        client: u64,
        /// The server session's digest.
        server: u64,
    },
    /// The peer does not handle this frame (e.g. `run-shard` sent to a
    /// plain session daemon).
    Unsupported {
        /// The offending frame tag.
        what: String,
    },
    /// The server requires an auth token and this connection has not
    /// presented a recognized one in a `hello` yet. Deterministic (a
    /// retry with the same credentials fails the same way), so not
    /// retryable under a [`RetryPolicy`].
    Unauthorized {
        /// Why the frame was refused.
        what: String,
    },
    /// A frame failed to parse (or exceeded the size guard).
    BadFrame {
        /// What went wrong.
        reason: String,
    },
    /// The peer failed in a way that has no structured encoding.
    Failed {
        /// The peer's error message.
        message: String,
    },
    /// A deadline expired: a connect, read or write did not complete
    /// within its configured [`Deadlines`] bound, or the server closed an
    /// idle connection ([`ServeOptions::idle_timeout`]). Distinguished
    /// from [`WireError::Io`] so callers can tell a stalled peer from a
    /// dead one; both are retryable under a [`RetryPolicy`].
    Timeout {
        /// What timed out.
        what: String,
    },
    /// Backpressure: the daemon's apply queue (or connection table) is
    /// full and the frame was shed *before* touching the session — nothing
    /// was applied, so resending the identical frame is always safe.
    /// Retryable under a [`RetryPolicy`]; a well-behaved client waits at
    /// least `retry_after_ms` (the server's hint) before the resend.
    Throttled {
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// A transport-level I/O failure (connect, read, write).
    Io {
        /// The underlying error, stringified.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Rejected(e) => write!(f, "rejected by peer: {e}"),
            WireError::VersionMismatch { client, server } => {
                write!(f, "wire version mismatch: client {client}, server {server}")
            }
            WireError::DigestMismatch { client, server } => write!(
                f,
                "session digest mismatch: client {}, server {} (different config, plan or mechanisms)",
                hex_u64(*client),
                hex_u64(*server)
            ),
            WireError::Unsupported { what } => write!(f, "peer does not support frame '{what}'"),
            WireError::Unauthorized { what } => write!(f, "unauthorized: {what}"),
            WireError::BadFrame { reason } => write!(f, "malformed frame: {reason}"),
            WireError::Failed { message } => write!(f, "peer failed: {message}"),
            WireError::Timeout { what } => write!(f, "wire timeout: {what}"),
            WireError::Throttled { retry_after_ms } => {
                write!(f, "throttled by peer: retry after {retry_after_ms} ms")
            }
            WireError::Io { message } => write!(f, "wire i/o error: {message}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        // A socket with a read/write deadline reports expiry as `TimedOut`
        // (most platforms) or `WouldBlock` (BSD-style timeouts); both mean
        // "the peer stalled", not "the peer is gone".
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                WireError::Timeout { what: e.to_string() }
            }
            _ => WireError::Io { message: e.to_string() },
        }
    }
}

impl From<DapError> for WireError {
    fn from(e: DapError) -> Self {
        WireError::Rejected(e)
    }
}

/// One `dap-wire/v1` frame (see the module docs for the table).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client greeting: protocol version + session digest.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: String,
        /// The client session's [`DapSession::state_digest`].
        digest: u64,
        /// Coordinator channel announced for sequenced ingestion; the
        /// reply then reports the channel's last acknowledged sequence so
        /// a reconnecting coordinator can resume without double-applying.
        /// Absent for plain (unsequenced) clients — the encoding omits it,
        /// keeping pre-sequencing frames byte-identical.
        channel: Option<u64>,
        /// Auth token presented to a server requiring one
        /// ([`ServeOptions::auth_tokens`]); omitted from the encoding when
        /// absent, keeping pre-auth hellos byte-identical.
        auth: Option<u64>,
        /// The dealer's [`crate::secagg::SeedCommitment`] digest, announced
        /// when opening a masked submit so every share server binds to one
        /// mask seed; omitted for plaintext clients.
        commit: Option<u64>,
    },
    /// Handshake accepted.
    HelloOk {
        /// The server session's digest (equal to the client's).
        digest: u64,
        /// Number of groups in the served plan.
        groups: usize,
        /// Last acknowledged sequence on the hello's announced channel
        /// (0 when the channel has never delivered a batch); absent when
        /// the hello announced no channel.
        last_seq: Option<u64>,
        /// The share-group topology `(k, index)` a masked daemon serves
        /// ([`crate::secagg::SecaggRole`]); absent for plaintext daemons,
        /// keeping their hello-ok byte-identical.
        secagg: Option<(usize, usize)>,
    },
    /// One report into one group.
    Ingest {
        /// Target group.
        group: usize,
        /// The perturbed report.
        report: f64,
    },
    /// An atomic batch of reports into one group.
    IngestBatch {
        /// Target group.
        group: usize,
        /// The reports, in ingestion order (order is part of the exactness
        /// contract — running sums accumulate in it).
        reports: Vec<f64>,
    },
    /// A sequence-numbered atomic batch: applied only when `seq` is the
    /// next sequence on `channel`, so a retry of a batch whose ack was
    /// lost is rejected typed ([`DapError::DuplicateSequence`]) instead of
    /// double-counted.
    IngestBatchSeq {
        /// Coordinator channel the sequence belongs to.
        channel: u64,
        /// Batch sequence, starting at 1 per channel.
        seq: u64,
        /// Target group.
        group: usize,
        /// The reports, in ingestion order.
        reports: Vec<f64>,
    },
    /// Liveness probe: answered from connection-local state (no session
    /// mutation), cheap enough to poll a daemon that is busy recovering.
    Status,
    /// A sequence-numbered batch of masked histogram shares into one
    /// group (the secret-shared counterpart of `seq-batch`): `counts` is
    /// one `u64` word per bucket, accumulated with wrapping addition.
    /// Rides the same per-channel replay guard as `seq-batch`, so retries
    /// dedup and journal recovery resumes identically.
    ShareBatch {
        /// Coordinator channel the sequence belongs to.
        channel: u64,
        /// Batch sequence, starting at 1 per channel.
        seq: u64,
        /// Target group.
        group: usize,
        /// One masked share word per histogram bucket.
        counts: Vec<u64>,
    },
    /// Ask a masked daemon for its accumulated share state.
    MaskedPull,
    /// Reply to `masked-pull`: the daemon's [`MaskedPart`].
    MaskedPart {
        /// The exported share state.
        part: MaskedPart,
    },
    /// Reply to `status`.
    StatusOk {
        /// The server session's digest.
        digest: u64,
        /// Number of groups in the served plan.
        groups: usize,
        /// Total reports accepted across all groups.
        ingested: usize,
        /// Session/journal observability counters; absent when talking to
        /// a pre-counters daemon (the encoding omits the section, keeping
        /// old status-ok frames byte-identical).
        counters: Option<StatusCounters>,
    },
    /// Generic success reply.
    Ok,
    /// Ask the server for its serialized session state.
    Pull,
    /// The server's serialized state.
    Part {
        /// The exported state.
        part: SessionPart,
    },
    /// Push a serialized part into the server's session.
    Merge {
        /// The part to absorb.
        part: SessionPart,
    },
    /// Run the collector pipeline server-side.
    Finalize {
        /// Schemes to read the result off under, in reply order.
        schemes: Vec<Scheme>,
    },
    /// Finalized outputs, in request scheme order.
    Outputs {
        /// One output per requested scheme.
        outputs: Vec<DapOutput>,
    },
    /// Execute one experiment shard (handled by bench daemons; a plain
    /// session server answers `error unsupported`).
    RunShard {
        /// The shard coordinate.
        request: ShardRequest,
    },
    /// A shard's `dap-results/v1` JSON document.
    ShardResult {
        /// The JSON text, verbatim.
        json: String,
    },
    /// Stop the server after replying `ok`.
    Shutdown,
    /// Typed failure reply.
    Error(WireError),
}

/// Coordinates of one remote experiment shard (`experiments <id> --shard
/// i/n` driven over the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest {
    /// Experiment id (`"fig7"`, `"all"`, …).
    pub experiment: String,
    /// Population size per trial.
    pub n: usize,
    /// Trials per cell.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// EMF bucket cap.
    pub max_d_out: usize,
    /// Shard index (`0 ≤ index < count`).
    pub index: usize,
    /// Shard count.
    pub count: usize,
}

/// Observability counters carried in a `status-ok` reply: enough to see,
/// from one cheap probe, whether a daemon is masked or plain, how much
/// replay-guard state it holds, and what its durability layer has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounters {
    /// Whether the served session is in masked (secret-shared) mode.
    pub masked: bool,
    /// Replay-guard channels the session has seen.
    pub channels: u64,
    /// Share batches accepted (0 for a plain session).
    pub shares: u64,
    /// Journal records appended since open (0 for an in-memory session).
    pub journal_records: u64,
    /// Checkpoints taken since open (0 for an in-memory session).
    pub checkpoints: u64,
    /// Ingestion-reactor counters; `None` in a session's own counters
    /// (the server fills them in) and from a peer that predates the
    /// reactor — the encoding omits the section, keeping old status-ok
    /// frames byte-identical.
    pub reactor: Option<ReactorCounters>,
}

/// Observability counters for the ingestion reactor, carried as an
/// optional trailing section of the `status-ok` counters: enough to see,
/// from one probe, whether a daemon is saturating (queue filling, clients
/// being throttled) or idling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorCounters {
    /// Runs currently parked in the apply queue (a run is one
    /// connection's buffered mutation frames, queued as one unit).
    pub queue_depth: u64,
    /// Bytes of frame payload currently parked in the apply queue.
    pub queued_bytes: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// High-water mark of concurrently open connections.
    pub peak_connections: u64,
    /// Frames (or connection attempts) shed with
    /// [`WireError::Throttled`] since the daemon started.
    pub throttled: u64,
}

impl Frame {
    /// The frame's wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloOk { .. } => "hello-ok",
            Frame::Ingest { .. } => "ingest",
            Frame::IngestBatch { .. } => "ingest-batch",
            Frame::IngestBatchSeq { .. } => "seq-batch",
            Frame::ShareBatch { .. } => "share-batch",
            Frame::MaskedPull => "masked-pull",
            Frame::MaskedPart { .. } => "masked-part",
            Frame::Status => "status",
            Frame::StatusOk { .. } => "status-ok",
            Frame::Ok => "ok",
            Frame::Pull => "pull",
            Frame::Part { .. } => "part",
            Frame::Merge { .. } => "merge",
            Frame::Finalize { .. } => "finalize",
            Frame::Outputs { .. } => "outputs",
            Frame::RunShard { .. } => "run-shard",
            Frame::ShardResult { .. } => "shard-result",
            Frame::Shutdown => "shutdown",
            Frame::Error(_) => "error",
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

fn push_part(s: &mut String, part: &SessionPart) {
    use std::fmt::Write as _;
    s.push(' ');
    codec::push_hex_u64(s, part.digest);
    let _ = write!(s, " {}", part.groups.len());
    for g in &part.groups {
        let _ = write!(s, "\ngroup {} ", g.n_reports);
        codec::push_hex_f64(s, g.sum_reports);
        let _ = write!(s, " {}", g.counts.len());
        for &c in &g.counts {
            s.push(' ');
            codec::push_hex_f64(s, c);
        }
    }
    // The replay-guard table rides along only when non-empty, so part
    // frames from sessions that never saw sequenced ingestion stay
    // byte-identical to the pre-sequencing encoding (and old peers still
    // parse them).
    if !part.channels.is_empty() {
        let _ = write!(s, "\nseqs {}", part.channels.len());
        for &(channel, seq) in &part.channels {
            s.push(' ');
            codec::push_hex_u64(s, channel);
            let _ = write!(s, " {seq}");
        }
    }
}

fn push_masked_part(s: &mut String, part: &MaskedPart) {
    use std::fmt::Write as _;
    s.push(' ');
    codec::push_hex_u64(s, part.digest);
    let _ = write!(s, " {} {} ", part.k, part.index);
    codec::push_hex_u64(s, part.commitment);
    let _ = write!(s, " {}", part.groups.len());
    for g in &part.groups {
        let _ = write!(s, "\nmgroup {}", g.counts.len());
        for &w in &g.counts {
            s.push(' ');
            codec::push_hex_u64(s, w);
        }
    }
    if !part.channels.is_empty() {
        let _ = write!(s, "\nseqs {}", part.channels.len());
        for &(channel, seq) in &part.channels {
            s.push(' ');
            codec::push_hex_u64(s, channel);
            let _ = write!(s, " {seq}");
        }
    }
}

fn push_outputs(s: &mut String, outputs: &[DapOutput]) {
    use std::fmt::Write as _;
    let _ = write!(s, " {}", outputs.len());
    for out in outputs {
        let side = match out.side {
            Side::Left => "L",
            Side::Right => "R",
        };
        s.push_str("\noutput ");
        codec::push_hex_f64(s, out.mean);
        let _ = write!(s, " {side} ");
        codec::push_hex_f64(s, out.gamma);
        s.push(' ');
        codec::push_hex_f64(s, out.min_variance);
        let _ = write!(s, " {}", out.groups.len());
        for g in &out.groups {
            s.push_str("\ng ");
            codec::push_hex_f64(s, g.eps_t);
            let _ = write!(s, " {} ", g.n_reports);
            for (i, v) in [g.mean_t, g.m_hat, g.n_hat, g.weight].into_iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                codec::push_hex_f64(s, v);
            }
        }
    }
}

/// Serializes a frame body (without the length prefix). Exposed for tests;
/// use [`write_frame`] to put frames on a stream.
pub fn encode_frame(frame: &Frame) -> String {
    use std::fmt::Write as _;
    // Batch bodies reserve their own room (see `reserve_batch`).
    let mut s = match frame {
        Frame::IngestBatch { .. } | Frame::IngestBatchSeq { .. } | Frame::ShareBatch { .. } => {
            String::new()
        }
        _ => String::with_capacity(64),
    };
    match frame {
        Frame::Hello { version, digest, channel, auth, commit } => {
            let _ = write!(s, "hello {version} {}", hex_u64(*digest));
            // Optional sections in canonical order (channel, auth, commit)
            // so each combination has exactly one encoding.
            if let Some(channel) = channel {
                let _ = write!(s, " channel {}", hex_u64(*channel));
            }
            if let Some(auth) = auth {
                let _ = write!(s, " auth {}", hex_u64(*auth));
            }
            if let Some(commit) = commit {
                let _ = write!(s, " commit {}", hex_u64(*commit));
            }
        }
        Frame::HelloOk { digest, groups, last_seq, secagg } => {
            let _ = write!(s, "hello-ok {} {groups}", hex_u64(*digest));
            if let Some(last_seq) = last_seq {
                let _ = write!(s, " seq {last_seq}");
            }
            if let Some((k, index)) = secagg {
                let _ = write!(s, " secagg {k} {index}");
            }
        }
        Frame::Ingest { group, report } => {
            let _ = write!(s, "ingest {group} {}", f64_to_hex(*report));
        }
        Frame::IngestBatch { group, reports } => push_ingest_batch(&mut s, *group, reports),
        Frame::IngestBatchSeq { channel, seq, group, reports } => {
            push_seq_batch(&mut s, *channel, *seq, *group, reports)
        }
        Frame::ShareBatch { channel, seq, group, counts } => {
            push_share_batch(&mut s, *channel, *seq, *group, counts)
        }
        Frame::MaskedPull => s.push_str("masked-pull"),
        Frame::MaskedPart { part } => {
            s.push_str("masked-part");
            push_masked_part(&mut s, part);
        }
        Frame::Status => s.push_str("status"),
        Frame::StatusOk { digest, groups, ingested, counters } => {
            let _ = write!(s, "status-ok {} {groups} {ingested}", hex_u64(*digest));
            if let Some(c) = counters {
                let _ = write!(
                    s,
                    " counters {} {} {} {} {}",
                    u8::from(c.masked),
                    c.channels,
                    c.shares,
                    c.journal_records,
                    c.checkpoints
                );
                // The reactor section is optional, so counters without
                // one keep the pre-reactor encoding.
                if let Some(r) = &c.reactor {
                    let _ = write!(
                        s,
                        " reactor {} {} {} {} {}",
                        r.queue_depth,
                        r.queued_bytes,
                        r.active_connections,
                        r.peak_connections,
                        r.throttled
                    );
                }
            }
        }
        Frame::Ok => s.push_str("ok"),
        Frame::Pull => s.push_str("pull"),
        Frame::Part { part } => {
            s.push_str("part");
            push_part(&mut s, part);
        }
        Frame::Merge { part } => push_merge(&mut s, part),
        Frame::Finalize { schemes } => {
            let _ = write!(s, "finalize {}", schemes.len());
            for scheme in schemes {
                let _ = write!(s, " {}", scheme.label());
            }
        }
        Frame::Outputs { outputs } => {
            s.push_str("outputs");
            push_outputs(&mut s, outputs);
        }
        Frame::RunShard { request } => {
            let _ = write!(
                s,
                "run-shard {} {} {} {} {} {} {}",
                request.experiment,
                request.n,
                request.trials,
                request.seed,
                request.max_d_out,
                request.index,
                request.count
            );
        }
        Frame::ShardResult { json } => {
            s.push_str("shard-result\n");
            s.push_str(json);
        }
        Frame::Shutdown => s.push_str("shutdown"),
        Frame::Error(e) => encode_error(&mut s, e),
    }
    s
}

/// Appends an `ingest-batch` body. [`encode_frame`] writes the owned frame
/// with it, and the journal writes a borrowed batch with it, so a batch has
/// one writer and its journal record needs no owned copy of the reports.
/// The same holds for [`push_seq_batch`] and [`push_share_batch`].
pub(crate) fn push_ingest_batch(s: &mut String, group: usize, reports: &[f64]) {
    use std::fmt::Write as _;
    reserve_batch(s, reports.len());
    let _ = writeln!(s, "ingest-batch {group} {}", reports.len());
    push_words(s, reports.iter().map(|r| r.to_bits()));
}

/// Appends a `seq-batch` body (see [`push_ingest_batch`]).
pub(crate) fn push_seq_batch(
    s: &mut String,
    channel: u64,
    seq: u64,
    group: usize,
    reports: &[f64],
) {
    use std::fmt::Write as _;
    reserve_batch(s, reports.len());
    s.push_str("seq-batch ");
    codec::push_hex_u64(s, channel);
    let _ = writeln!(s, " {seq} {group} {}", reports.len());
    push_words(s, reports.iter().map(|r| r.to_bits()));
}

/// Appends a `share-batch` body (see [`push_ingest_batch`]).
pub(crate) fn push_share_batch(
    s: &mut String,
    channel: u64,
    seq: u64,
    group: usize,
    counts: &[u64],
) {
    use std::fmt::Write as _;
    reserve_batch(s, counts.len());
    s.push_str("share-batch ");
    codec::push_hex_u64(s, channel);
    let _ = writeln!(s, " {seq} {group} {}", counts.len());
    push_words(s, counts.iter().copied());
}

/// Appends a `merge` body from a borrowed part (see [`push_ingest_batch`]).
pub(crate) fn push_merge(s: &mut String, part: &SessionPart) {
    s.push_str("merge");
    push_part(s, part);
}

/// A batch body is its header plus 19 bytes (a hex token and a separator)
/// per element; reserving that up front saves the regrowths.
fn reserve_batch(s: &mut String, len: usize) {
    s.reserve(64 + 19 * len);
}

/// Space-separated hex tokens, one per word.
fn push_words(s: &mut String, words: impl Iterator<Item = u64>) {
    for (i, w) in words.enumerate() {
        if i > 0 {
            s.push(' ');
        }
        codec::push_hex_u64(s, w);
    }
}

fn encode_error(s: &mut String, e: &WireError) {
    use std::fmt::Write as _;
    match e {
        WireError::Rejected(d) => match d {
            DapError::ReportOutOfRange { group, report, lo, hi } => {
                let _ = write!(
                    s,
                    "error rejected range {group} {} {} {}",
                    f64_to_hex(*report),
                    f64_to_hex(*lo),
                    f64_to_hex(*hi)
                );
            }
            DapError::QuotaExceeded { group, quota, ingested, attempted } => {
                let _ = write!(s, "error rejected quota {group} {quota} {ingested} {attempted}");
            }
            DapError::UnknownGroup { group, groups } => {
                let _ = write!(s, "error rejected group {group} {groups}");
            }
            DapError::DuplicateSequence { channel, seq, last } => {
                let _ =
                    write!(s, "error rejected dup-seq {} {seq} {last}", hex_u64(*channel));
            }
            DapError::SequenceGap { channel, seq, expected } => {
                let _ = write!(
                    s,
                    "error rejected seq-gap {} {seq} {expected}",
                    hex_u64(*channel)
                );
            }
            DapError::ModeMismatch { masked } => {
                let _ = write!(s, "error rejected mode {}", u8::from(*masked));
            }
            DapError::SessionMismatch { what } => {
                match DapError::MISMATCH_FIELDS.iter().position(|f| f == what) {
                    Some(idx) => {
                        let _ = write!(s, "error rejected mismatch {idx}");
                    }
                    None => {
                        let _ = write!(s, "error failed\n{d}");
                    }
                }
            }
            // The remaining variants cannot be raised by ingest/merge/
            // finalize on a live session; ship them as their message.
            other => {
                let _ = write!(s, "error failed\n{other}");
            }
        },
        WireError::VersionMismatch { client, server } => {
            let _ = write!(s, "error version {client} {server}");
        }
        WireError::DigestMismatch { client, server } => {
            let _ = write!(s, "error digest {} {}", hex_u64(*client), hex_u64(*server));
        }
        WireError::Unsupported { what } => {
            let _ = write!(s, "error unsupported\n{what}");
        }
        WireError::Unauthorized { what } => {
            let _ = write!(s, "error unauthorized\n{what}");
        }
        WireError::BadFrame { reason } => {
            let _ = write!(s, "error bad-frame\n{reason}");
        }
        WireError::Failed { message } => {
            let _ = write!(s, "error failed\n{message}");
        }
        WireError::Timeout { what } => {
            let _ = write!(s, "error timeout\n{what}");
        }
        WireError::Throttled { retry_after_ms } => {
            let _ = write!(s, "error throttled {retry_after_ms}");
        }
        WireError::Io { message } => {
            let _ = write!(s, "error io\n{message}");
        }
    }
}

/// Byte cursor over a frame body with typed accessors; every parse
/// failure is a [`WireError::BadFrame`] naming the missing piece.
///
/// Tokens are split on exactly `char::is_whitespace`, the rule of
/// `str::split_whitespace`: the ASCII separators (U+0009–U+000D, U+0020)
/// are tested per byte, and only a non-ASCII byte decodes its char.
/// `u8::is_ascii_whitespace` would not do — it omits U+000B.
struct Tokens<'a> {
    body: &'a str,
    /// Byte offset of the unread rest; always on a char boundary.
    pos: usize,
}

/// Whether `b` is one of the ASCII chars `char::is_whitespace` accepts.
fn ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The first byte offset at or after `i` where `s` stops being whitespace
/// (`ws`) or non-whitespace (`!ws`). `i` must be on a char boundary.
fn scan(s: &str, mut i: usize, ws: bool) -> usize {
    let bytes = s.as_bytes();
    while let Some(&b) = bytes.get(i) {
        let (is_ws, width) = if b.is_ascii() {
            (ascii_space(b), 1)
        } else {
            let c = s[i..].chars().next().expect("the cursor sits on a char boundary");
            (c.is_whitespace(), c.len_utf8())
        };
        if is_ws != ws {
            break;
        }
        i += width;
    }
    i
}

impl<'a> Tokens<'a> {
    fn new(body: &'a str) -> Tokens<'a> {
        Tokens { body, pos: 0 }
    }

    /// Byte range of the next token, without consuming it.
    fn span(&self) -> Option<(usize, usize)> {
        #[cfg(test)]
        if codec::reference::on() {
            let rest = &self.body[self.pos..];
            let token = rest.split_whitespace().next()?;
            let start = self.pos + (token.as_ptr() as usize - rest.as_ptr() as usize);
            return Some((start, start + token.len()));
        }
        let start = scan(self.body, self.pos, true);
        (start < self.body.len()).then(|| (start, scan(self.body, start, false)))
    }

    /// `count`, an element count read off the wire, clamped to the most
    /// elements the unread rest of the body can encode (each takes at
    /// least a byte and a separator). Preallocating by this keeps honest
    /// frames exact while a forged count cannot allocate past the frame.
    fn capacity(&self, count: usize) -> usize {
        let rest = self.span().map_or(0, |(start, _)| self.body.len() - start);
        count.min(rest.div_ceil(2))
    }

    fn bad(what: &str) -> WireError {
        WireError::BadFrame { reason: format!("missing or malformed {what}") }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, WireError> {
        let (start, end) = self.span().ok_or_else(|| Self::bad(what))?;
        self.pos = end;
        Ok(&self.body[start..end])
    }

    fn usize(&mut self, what: &str) -> Result<usize, WireError> {
        self.next(what)?.parse().map_err(|_| Self::bad(what))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        self.next(what)?.parse().map_err(|_| Self::bad(what))
    }

    fn hex_u64(&mut self, what: &str) -> Result<u64, WireError> {
        if let Some(v) = self.canonical_hex() {
            return Ok(v);
        }
        codec::parse_hex_u64(self.next(what)?)
            .map_err(|reason| WireError::BadFrame { reason })
    }

    /// The hot path of [`Tokens::hex_u64`]: one ASCII separator, then a
    /// canonical 18-byte token ending at an ASCII separator or the end of
    /// the body — how [`encode_frame`] lays out every hex token after the
    /// tag. Consumed only when it matches; any other layout is left to
    /// the general path, which reads it exactly as before.
    fn canonical_hex(&mut self) -> Option<u64> {
        #[cfg(test)]
        if codec::reference::on() {
            return None;
        }
        let bytes = self.body.as_bytes();
        let token = bytes.get(self.pos + 1..self.pos + 19)?;
        let ends = bytes.get(self.pos + 19).is_none_or(|&b| ascii_space(b));
        if !ascii_space(bytes[self.pos]) || !ends {
            return None;
        }
        let v = codec::parse_canonical_hex(token)?;
        self.pos += 19;
        Some(v)
    }

    fn hex_f64(&mut self, what: &str) -> Result<f64, WireError> {
        self.hex_u64(what).map(f64::from_bits)
    }

    /// The next token without consuming it — how optional trailing
    /// sections (a hello's `channel`, a part's `seqs` table) are detected
    /// before [`Tokens::done`] enforces "no trailing garbage".
    fn peek(&self) -> Option<&'a str> {
        self.span().map(|(start, end)| &self.body[start..end])
    }

    fn literal(&mut self, word: &str) -> Result<(), WireError> {
        if self.next(word)? == word {
            Ok(())
        } else {
            Err(Self::bad(word))
        }
    }

    fn done(self) -> Result<(), WireError> {
        match self.peek() {
            None => Ok(()),
            Some(extra) => Err(WireError::BadFrame {
                reason: format!("trailing token '{extra}'"),
            }),
        }
    }
}

fn parse_part(t: &mut Tokens) -> Result<SessionPart, WireError> {
    let digest = t.hex_u64("part digest")?;
    let n_groups = t.usize("part group count")?;
    let mut groups = Vec::with_capacity(t.capacity(n_groups));
    for _ in 0..n_groups {
        t.literal("group")?;
        let n_reports = t.usize("group report count")?;
        let sum_reports = t.hex_f64("group report sum")?;
        let n_buckets = t.usize("group bucket count")?;
        let mut counts = Vec::with_capacity(t.capacity(n_buckets));
        for _ in 0..n_buckets {
            counts.push(t.hex_f64("bucket count")?);
        }
        groups.push(PartGroup { counts, sum_reports, n_reports });
    }
    let mut channels = Vec::new();
    if t.peek() == Some("seqs") {
        t.literal("seqs")?;
        let n = t.usize("channel count")?;
        channels.reserve(t.capacity(n));
        for _ in 0..n {
            let channel = t.hex_u64("channel id")?;
            let seq = t.u64("channel seq")?;
            channels.push((channel, seq));
        }
    }
    Ok(SessionPart { digest, groups, channels })
}

fn parse_masked_part(t: &mut Tokens) -> Result<MaskedPart, WireError> {
    let digest = t.hex_u64("masked-part digest")?;
    let k = t.usize("masked-part k")?;
    let index = t.usize("masked-part index")?;
    let commitment = t.hex_u64("masked-part commitment")?;
    let n_groups = t.usize("masked-part group count")?;
    let mut groups = Vec::with_capacity(t.capacity(n_groups));
    for _ in 0..n_groups {
        t.literal("mgroup")?;
        let n_buckets = t.usize("masked group bucket count")?;
        let mut counts = Vec::with_capacity(t.capacity(n_buckets));
        for _ in 0..n_buckets {
            counts.push(t.hex_u64("masked bucket word")?);
        }
        groups.push(MaskedGroup { counts });
    }
    let mut channels = Vec::new();
    if t.peek() == Some("seqs") {
        t.literal("seqs")?;
        let n = t.usize("channel count")?;
        channels.reserve(t.capacity(n));
        for _ in 0..n {
            let channel = t.hex_u64("channel id")?;
            let seq = t.u64("channel seq")?;
            channels.push((channel, seq));
        }
    }
    Ok(MaskedPart { digest, k, index, commitment, groups, channels })
}

fn parse_outputs(t: &mut Tokens) -> Result<Vec<DapOutput>, WireError> {
    let n = t.usize("output count")?;
    let mut outputs = Vec::with_capacity(t.capacity(n));
    for _ in 0..n {
        t.literal("output")?;
        let mean = t.hex_f64("output mean")?;
        let side = match t.next("output side")? {
            "L" => Side::Left,
            "R" => Side::Right,
            other => {
                return Err(WireError::BadFrame { reason: format!("unknown side '{other}'") })
            }
        };
        let gamma = t.hex_f64("output gamma")?;
        let min_variance = t.hex_f64("output min_variance")?;
        let n_groups = t.usize("output group count")?;
        let mut groups = Vec::with_capacity(t.capacity(n_groups));
        for _ in 0..n_groups {
            t.literal("g")?;
            groups.push(GroupReport {
                eps_t: t.hex_f64("group eps_t")?,
                n_reports: t.usize("group n_reports")?,
                mean_t: t.hex_f64("group mean_t")?,
                m_hat: t.hex_f64("group m_hat")?,
                n_hat: t.hex_f64("group n_hat")?,
                weight: t.hex_f64("group weight")?,
            });
        }
        outputs.push(DapOutput { mean, side, gamma, min_variance, groups });
    }
    Ok(outputs)
}

fn parse_error(body: &str) -> Result<WireError, WireError> {
    // Frames whose payload is free text carry it after the first line.
    let (header, rest) = match body.split_once('\n') {
        Some((h, r)) => (h, r),
        None => (body, ""),
    };
    let mut t = Tokens::new(header);
    t.literal("error")?;
    let err = match t.next("error kind")? {
        "rejected" => WireError::Rejected(match t.next("rejection kind")? {
            "range" => DapError::ReportOutOfRange {
                group: t.usize("group")?,
                report: t.hex_f64("report")?,
                lo: t.hex_f64("lo")?,
                hi: t.hex_f64("hi")?,
            },
            "quota" => DapError::QuotaExceeded {
                group: t.usize("group")?,
                quota: t.usize("quota")?,
                ingested: t.usize("ingested")?,
                attempted: t.usize("attempted")?,
            },
            "group" => DapError::UnknownGroup {
                group: t.usize("group")?,
                groups: t.usize("groups")?,
            },
            "dup-seq" => DapError::DuplicateSequence {
                channel: t.hex_u64("channel")?,
                seq: t.u64("seq")?,
                last: t.u64("last")?,
            },
            "seq-gap" => DapError::SequenceGap {
                channel: t.hex_u64("channel")?,
                seq: t.u64("seq")?,
                expected: t.u64("expected")?,
            },
            "mode" => DapError::ModeMismatch { masked: t.u64("mode flag")? != 0 },
            "mismatch" => {
                let idx = t.usize("mismatch field index")?;
                let what = DapError::MISMATCH_FIELDS.get(idx).copied().ok_or_else(|| {
                    WireError::BadFrame { reason: format!("unknown mismatch field #{idx}") }
                })?;
                DapError::SessionMismatch { what }
            }
            other => {
                return Err(WireError::BadFrame {
                    reason: format!("unknown rejection kind '{other}'"),
                })
            }
        }),
        "version" => WireError::VersionMismatch {
            client: t.next("client version")?.to_string(),
            server: t.next("server version")?.to_string(),
        },
        "digest" => WireError::DigestMismatch {
            client: t.hex_u64("client digest")?,
            server: t.hex_u64("server digest")?,
        },
        "unsupported" => WireError::Unsupported { what: rest.to_string() },
        "unauthorized" => WireError::Unauthorized { what: rest.to_string() },
        "bad-frame" => WireError::BadFrame { reason: rest.to_string() },
        "failed" => WireError::Failed { message: rest.to_string() },
        "timeout" => WireError::Timeout { what: rest.to_string() },
        "throttled" => WireError::Throttled { retry_after_ms: t.u64("retry-after ms")? },
        "io" => WireError::Io { message: rest.to_string() },
        other => {
            return Err(WireError::BadFrame { reason: format!("unknown error kind '{other}'") })
        }
    };
    t.done()?;
    Ok(err)
}

/// Parses a frame body (the inverse of [`encode_frame`]).
pub fn decode_frame(body: &str) -> Result<Frame, WireError> {
    let mut t = Tokens::new(body);
    match t.peek().unwrap_or("") {
        "error" => return parse_error(body).map(Frame::Error),
        "shard-result" => {
            let json = body
                .split_once('\n')
                .map(|(_, rest)| rest)
                .unwrap_or("")
                .to_string();
            return Ok(Frame::ShardResult { json });
        }
        _ => {}
    }
    let tag = t.next("frame tag")?;
    let frame = match tag {
        "hello" => {
            let version = t.next("version")?.to_string();
            let digest = t.hex_u64("digest")?;
            let channel = if t.peek() == Some("channel") {
                t.literal("channel")?;
                Some(t.hex_u64("channel id")?)
            } else {
                None
            };
            let auth = if t.peek() == Some("auth") {
                t.literal("auth")?;
                Some(t.hex_u64("auth token")?)
            } else {
                None
            };
            let commit = if t.peek() == Some("commit") {
                t.literal("commit")?;
                Some(t.hex_u64("seed commitment")?)
            } else {
                None
            };
            Frame::Hello { version, digest, channel, auth, commit }
        }
        "hello-ok" => {
            let digest = t.hex_u64("digest")?;
            let groups = t.usize("groups")?;
            let last_seq = if t.peek() == Some("seq") {
                t.literal("seq")?;
                Some(t.u64("last seq")?)
            } else {
                None
            };
            let secagg = if t.peek() == Some("secagg") {
                t.literal("secagg")?;
                let k = t.usize("secagg k")?;
                let index = t.usize("secagg index")?;
                Some((k, index))
            } else {
                None
            };
            Frame::HelloOk { digest, groups, last_seq, secagg }
        }
        "ingest" => Frame::Ingest {
            group: t.usize("group")?,
            report: t.hex_f64("report")?,
        },
        "ingest-batch" => {
            let group = t.usize("group")?;
            let count = t.usize("report count")?;
            let mut reports = Vec::with_capacity(t.capacity(count));
            for _ in 0..count {
                reports.push(t.hex_f64("report")?);
            }
            Frame::IngestBatch { group, reports }
        }
        "seq-batch" => {
            let channel = t.hex_u64("channel")?;
            let seq = t.u64("seq")?;
            let group = t.usize("group")?;
            let count = t.usize("report count")?;
            let mut reports = Vec::with_capacity(t.capacity(count));
            for _ in 0..count {
                reports.push(t.hex_f64("report")?);
            }
            Frame::IngestBatchSeq { channel, seq, group, reports }
        }
        "share-batch" => {
            let channel = t.hex_u64("channel")?;
            let seq = t.u64("seq")?;
            let group = t.usize("group")?;
            let count = t.usize("share word count")?;
            let mut counts = Vec::with_capacity(t.capacity(count));
            for _ in 0..count {
                counts.push(t.hex_u64("share word")?);
            }
            Frame::ShareBatch { channel, seq, group, counts }
        }
        "masked-pull" => Frame::MaskedPull,
        "masked-part" => Frame::MaskedPart { part: parse_masked_part(&mut t)? },
        "status" => Frame::Status,
        "status-ok" => {
            let digest = t.hex_u64("digest")?;
            let groups = t.usize("groups")?;
            let ingested = t.usize("ingested")?;
            let counters = if t.peek() == Some("counters") {
                t.literal("counters")?;
                let mut c = StatusCounters {
                    masked: t.u64("masked flag")? != 0,
                    channels: t.u64("channel counter")?,
                    shares: t.u64("share counter")?,
                    journal_records: t.u64("journal record counter")?,
                    checkpoints: t.u64("checkpoint counter")?,
                    reactor: None,
                };
                if t.peek() == Some("reactor") {
                    t.literal("reactor")?;
                    c.reactor = Some(ReactorCounters {
                        queue_depth: t.u64("queue depth")?,
                        queued_bytes: t.u64("queued bytes")?,
                        active_connections: t.u64("active connections")?,
                        peak_connections: t.u64("peak connections")?,
                        throttled: t.u64("throttle counter")?,
                    });
                }
                Some(c)
            } else {
                None
            };
            Frame::StatusOk { digest, groups, ingested, counters }
        }
        "ok" => Frame::Ok,
        "pull" => Frame::Pull,
        "part" => Frame::Part { part: parse_part(&mut t)? },
        "merge" => Frame::Merge { part: parse_part(&mut t)? },
        "finalize" => {
            let count = t.usize("scheme count")?;
            let mut schemes = Vec::with_capacity(t.capacity(count));
            for _ in 0..count {
                let label = t.next("scheme label")?;
                schemes.push(Scheme::from_label(label).ok_or_else(|| WireError::BadFrame {
                    reason: format!("unknown scheme '{label}'"),
                })?);
            }
            Frame::Finalize { schemes }
        }
        "outputs" => Frame::Outputs { outputs: parse_outputs(&mut t)? },
        "run-shard" => Frame::RunShard {
            request: ShardRequest {
                experiment: t.next("experiment")?.to_string(),
                n: t.usize("n")?,
                trials: t.usize("trials")?,
                seed: t.u64("seed")?,
                max_d_out: t.usize("max_d_out")?,
                index: t.usize("shard index")?,
                count: t.usize("shard count")?,
            },
        },
        "shutdown" => Frame::Shutdown,
        other => {
            return Err(WireError::BadFrame { reason: format!("unknown frame tag '{other}'") })
        }
    };
    t.done()?;
    Ok(frame)
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    write_frames(w, std::slice::from_ref(frame))
}

/// Writes length-prefixed frames back to back, in order. Nothing is
/// written when any frame exceeds the size cap.
fn write_frames(w: &mut impl Write, frames: &[Frame]) -> Result<(), WireError> {
    // One buffer, one write: a separate write per prefix or per frame
    // would cost its own syscall (and, with TCP_NODELAY, its own packet).
    let mut wire = Vec::new();
    for frame in frames {
        push_frame(&mut wire, frame)?;
    }
    w.write_all(&wire)?;
    w.flush()?;
    Ok(())
}

/// Appends `frame`, length prefix first, to `wire` — or, when its body
/// exceeds the size cap, appends nothing and returns the typed refusal.
fn push_frame(wire: &mut Vec<u8>, frame: &Frame) -> Result<(), WireError> {
    push_body(wire, &encode_frame(frame))
}

/// [`push_frame`] for an encoded body.
fn push_body(wire: &mut Vec<u8>, body: &str) -> Result<(), WireError> {
    if body.len() > MAX_FRAME {
        return Err(WireError::BadFrame {
            reason: format!("frame of {} bytes exceeds the {MAX_FRAME}-byte cap", body.len()),
        });
    }
    wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
    wire.extend_from_slice(body.as_bytes());
    Ok(())
}

/// Reads one length-prefixed frame. An I/O failure (including EOF) is
/// [`WireError::Io`]; anything the peer sent that fails to parse is
/// [`WireError::BadFrame`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    read_frame_sized(r).map(|(frame, _)| frame)
}

/// [`read_frame`] also reporting the frame's body length in bytes — the
/// cost unit the reactor's [`ReactorOptions::queue_bytes`] bound accounts
/// in, so backpressure tracks actual memory held, not frame counts.
pub fn read_frame_sized(r: &mut impl Read) -> Result<(Frame, usize), WireError> {
    read_frame_capped(r, MAX_FRAME)
}

/// [`read_frame_sized`] refusing any frame whose length prefix exceeds
/// `cap`, with [`WireError::BadFrame`] and without reading its body. The
/// body is read through `Read::take` into a buffer that starts at most
/// [`BODY_CHUNK`] bytes and grows as bytes arrive, so a claimed length
/// reserves no more than that before the peer sends the bytes.
fn read_frame_capped(r: &mut impl Read, cap: usize) -> Result<(Frame, usize), WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > cap {
        return Err(WireError::BadFrame {
            reason: format!("frame of {len} bytes exceeds the {cap}-byte cap"),
        });
    }
    let mut body = Vec::with_capacity(len.min(BODY_CHUNK));
    Read::take(&mut *r, len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let text = std::str::from_utf8(&body)
        .map_err(|_| WireError::BadFrame { reason: "frame body is not UTF-8".into() })?;
    decode_frame(text).map(|frame| (frame, len))
}

/// The body of the next frame, when it is complete in `buffered`.
fn buffered_body(buffered: &[u8]) -> Option<&[u8]> {
    let (prefix, rest) = buffered.split_first_chunk::<4>()?;
    rest.get(..u32::from_be_bytes(*prefix) as usize)
}

/// The next frame, when it is already complete in `r`'s buffer: decoded
/// and consumed with no read syscall and no wait. An incomplete frame, or
/// one that fails to decode, stays buffered for [`read_frame_sized`] to
/// read (and reject) as usual.
fn read_buffered_frame<R: Read>(r: &mut std::io::BufReader<R>) -> Option<(Frame, usize)> {
    let body = buffered_body(r.buffer())?;
    let frame = decode_frame(std::str::from_utf8(body).ok()?).ok()?;
    let len = body.len();
    std::io::BufRead::consume(r, 4 + len);
    Some((frame, len))
}

// ---------------------------------------------------------------------------
// Deadlines and retries
// ---------------------------------------------------------------------------

/// Per-operation deadlines for a [`WireClient`] connection. `None` means
/// "wait forever" (the pre-hardening behavior, and the default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadlines {
    /// Bound on establishing the TCP connection.
    pub connect: Option<Duration>,
    /// Bound on each blocking read (per syscall, not per frame).
    pub read: Option<Duration>,
    /// Bound on each blocking write.
    pub write: Option<Duration>,
}

impl Deadlines {
    /// The same bound for connect, read and write.
    pub fn all(d: Duration) -> Deadlines {
        Deadlines { connect: Some(d), read: Some(d), write: Some(d) }
    }
}

/// Capped exponential backoff with deterministic, seeded jitter and a
/// per-deployment retry budget.
///
/// `attempts` bounds the tries for one operation; `budget` bounds the
/// *total* retries a coordinator spends across the whole deployment (the
/// caller decrements it — see `dap_bench`'s submit path), so a flapping
/// daemon cannot consume unbounded wall clock. Jitter is a pure function
/// of `(seed, salt, attempt)`, keeping every retry schedule reproducible:
/// two runs of the same deployment back off identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Tries per operation (1 = no retries).
    pub attempts: usize,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound any single backoff is clamped to.
    pub cap: Duration,
    /// Total retries allowed across the deployment.
    pub budget: usize,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            budget: 256,
            seed: 0xdab_5eed,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (1-based) of the operation
    /// identified by `salt`: `base · 2^(attempt-1)`, clamped to `cap`,
    /// scaled by a deterministic jitter fraction in `[0.5, 1.0)`.
    pub fn backoff(&self, attempt: usize, salt: u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        let exp = self
            .base
            .checked_mul(1u32 << shift)
            .unwrap_or(self.cap)
            .min(self.cap);
        // xorshift64* over the (seed, salt, attempt) coordinate — no
        // process-global RNG state, so the schedule replays exactly.
        let mut x = self.seed
            ^ salt.rotate_left(17)
            ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = x.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let frac = 0.5 + ((x >> 11) as f64 / (1u64 << 53) as f64) / 2.0;
        exp.mul_f64(frac)
    }

    /// Whether an error is worth retrying: transport failures, deadline
    /// expiries and backpressure sheds ([`WireError::Throttled`] — the
    /// frame never touched the session, so a resend is always safe) are;
    /// typed protocol rejections (quota, digest mismatch, replay
    /// violations, …) are deterministic and are not.
    pub fn retryable(e: &WireError) -> bool {
        matches!(
            e,
            WireError::Io { .. } | WireError::Timeout { .. } | WireError::Throttled { .. }
        )
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Successful masked-handshake reply: the session's group count, the
/// channel's last acknowledged sequence, and the daemon's share-group
/// topology `(k, index)` — `None` when the daemon serves plaintext.
pub type MaskedHelloOk = (usize, u64, Option<(usize, usize)>);

/// A typed client over one TCP connection to a `dap-wire/v1` daemon.
///
/// Each method is one request/reply exchange; an `error` reply surfaces as
/// the typed [`WireError`] (ingestion rejections as
/// [`WireError::Rejected`] with the original [`DapError`]).
///
/// Outbound frames are coalesced: [`WireClient::send_frame`] queues a
/// frame, and [`WireClient::recv_reply`] writes everything queued with
/// one `write_all` when it is about to block on the socket. A pipelined
/// window therefore leaves the client as one write, which a reactor
/// daemon reads, queues and acks as one run.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    /// Buffered read half over a clone of `stream` (replies otherwise cost
    /// two read syscalls each: length prefix, body).
    reader: std::io::BufReader<TcpStream>,
    /// Length-prefixed frames sent but not yet written to `stream`.
    outbound: Vec<u8>,
    /// Auth token presented in every `hello` ([`WireClient::set_auth`]);
    /// `None` omits the section for servers that require no token.
    auth: Option<u64>,
}

impl WireClient {
    fn over(stream: TcpStream) -> std::io::Result<WireClient> {
        let reader = std::io::BufReader::with_capacity(8 * 1024, stream.try_clone()?);
        Ok(WireClient { stream, reader, outbound: Vec::new(), auth: None })
    }

    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        WireClient::over(stream)
    }

    /// Connects with [`Deadlines`]: the connect itself is bounded by
    /// `deadlines.connect`, and every subsequent read/write on the
    /// connection by `deadlines.read` / `deadlines.write` (surfacing as
    /// [`WireError::Timeout`] through the frame layer when exceeded).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        deadlines: &Deadlines,
    ) -> std::io::Result<WireClient> {
        let stream = match deadlines.connect {
            None => TcpStream::connect(addr)?,
            Some(bound) => {
                let mut last = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, bound) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(deadlines.read)?;
        stream.set_write_timeout(deadlines.write)?;
        WireClient::over(stream)
    }

    /// Sets the auth token every subsequent `hello` on this connection
    /// presents (for daemons started with [`ServeOptions::auth_tokens`]).
    pub fn set_auth(&mut self, token: Option<u64>) {
        self.auth = token;
    }

    /// [`WireClient::connect`] retrying for daemons that are still binding
    /// (e.g. just spawned by a test or a CI script).
    pub fn connect_retry(
        addr: &str,
        attempts: usize,
        delay: Duration,
    ) -> std::io::Result<WireClient> {
        WireClient::connect_retry_with(addr, attempts, delay, &Deadlines::default())
    }

    /// [`WireClient::connect_retry`] with [`Deadlines`] applied to the
    /// connection once it establishes.
    pub fn connect_retry_with(
        addr: &str,
        attempts: usize,
        delay: Duration,
        deadlines: &Deadlines,
    ) -> std::io::Result<WireClient> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match WireClient::connect_with(addr, deadlines) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(delay);
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// One request/reply exchange; `error` replies become `Err`. Frames
    /// already queued by [`WireClient::send_frame`] travel in the same
    /// write, ahead of this one, and the reply returned is the oldest one
    /// outstanding — with pipelined sends in flight, theirs first.
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        self.send_frame(frame)?;
        self.recv_reply()
    }

    /// Queues one frame without waiting for its reply — the transmit half
    /// of a pipelined (windowed) exchange. The frame is encoded and
    /// size-checked now (an oversize frame is [`WireError::BadFrame`] and
    /// nothing is queued) but written by the next
    /// [`WireClient::recv_reply`] or [`WireClient::call`] that would block,
    /// together with every frame queued before it, so a window of sends
    /// costs one `write`. A frame sent with no later receive on this
    /// client is never transmitted.
    ///
    /// The server applies a connection's frames in send order and replies
    /// in that order; a reactor daemon queues the mutation frames it
    /// already holds as one run and acks the run with one write, so
    /// pipelining amortizes per-frame overhead without changing semantics.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), WireError> {
        push_frame(&mut self.outbound, frame)
    }

    /// [`WireClient::call`] for a frame body encoded from borrowed data,
    /// expecting an `ok` reply.
    fn call_ok(&mut self, body: &str) -> Result<(), WireError> {
        push_body(&mut self.outbound, body)?;
        match self.recv_reply()? {
            Frame::Ok => Ok(()),
            f => Err(Self::unexpected("ok", &f)),
        }
    }

    /// Receives the next in-order reply to a [`WireClient::send_frame`];
    /// `error` replies become `Err` exactly as in [`WireClient::call`].
    ///
    /// When no complete reply is buffered yet — exactly when the read
    /// would block — the queued frames are written first, with one
    /// `write_all`. A failed write surfaces here as the [`WireError::Io`]
    /// or [`WireError::Timeout`] a direct write returns, and the queue is
    /// cleared: whether any of its frames landed is for the caller's
    /// resync (a sequenced channel's `hello`) to find out.
    pub fn recv_reply(&mut self) -> Result<Frame, WireError> {
        if !self.outbound.is_empty() && buffered_body(self.reader.buffer()).is_none() {
            self.stream.write_all(&std::mem::take(&mut self.outbound))?;
        }
        match read_frame(&mut self.reader)? {
            Frame::Error(e) => Err(e),
            f => Ok(f),
        }
    }

    fn unexpected(wanted: &str, got: &Frame) -> WireError {
        WireError::BadFrame { reason: format!("expected {wanted} reply, got '{}'", got.tag()) }
    }

    /// Version + digest handshake; returns the server's group count.
    pub fn hello(&mut self, digest: u64) -> Result<usize, WireError> {
        let hello = Frame::Hello {
            version: WIRE_VERSION.to_string(),
            digest,
            channel: None,
            auth: self.auth,
            commit: None,
        };
        match self.call(&hello)? {
            Frame::HelloOk { groups, .. } => Ok(groups),
            f => Err(Self::unexpected("hello-ok", &f)),
        }
    }

    /// [`WireClient::hello`] announcing a coordinator channel; returns the
    /// group count and the channel's last acknowledged batch sequence (0
    /// when the channel is new) — the resume point after a reconnect.
    pub fn hello_channel(&mut self, digest: u64, channel: u64) -> Result<(usize, u64), WireError> {
        let hello = Frame::Hello {
            version: WIRE_VERSION.to_string(),
            digest,
            channel: Some(channel),
            auth: self.auth,
            commit: None,
        };
        match self.call(&hello)? {
            Frame::HelloOk { groups, last_seq, .. } => Ok((groups, last_seq.unwrap_or(0))),
            f => Err(Self::unexpected("hello-ok", &f)),
        }
    }

    /// Masked handshake: announces the dealer's seed commitment (and an
    /// optional coordinator channel) and returns the group count, the
    /// channel's last acknowledged sequence and the daemon's share-group
    /// topology `(k, index)` — `None` means the daemon serves a plaintext
    /// session and cannot accept shares.
    pub fn hello_masked(
        &mut self,
        digest: u64,
        channel: Option<u64>,
        commit: u64,
    ) -> Result<MaskedHelloOk, WireError> {
        let hello = Frame::Hello {
            version: WIRE_VERSION.to_string(),
            digest,
            channel,
            auth: self.auth,
            commit: Some(commit),
        };
        match self.call(&hello)? {
            Frame::HelloOk { groups, last_seq, secagg, .. } => {
                Ok((groups, last_seq.unwrap_or(0), secagg))
            }
            f => Err(Self::unexpected("hello-ok", &f)),
        }
    }

    /// Streams one report into `group`.
    pub fn ingest(&mut self, group: usize, report: f64) -> Result<(), WireError> {
        match self.call(&Frame::Ingest { group, report })? {
            Frame::Ok => Ok(()),
            f => Err(Self::unexpected("ok", &f)),
        }
    }

    /// Streams an atomic batch into `group`.
    pub fn ingest_batch(&mut self, group: usize, reports: &[f64]) -> Result<(), WireError> {
        let mut body = String::new();
        push_ingest_batch(&mut body, group, reports);
        self.call_ok(&body)
    }

    /// Streams a sequence-numbered batch into `group`. A
    /// [`DapError::DuplicateSequence`] rejection means the batch was
    /// already applied (the previous ack was lost) and may be treated as
    /// success by a resuming coordinator.
    pub fn ingest_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), WireError> {
        let mut body = String::new();
        push_seq_batch(&mut body, channel, seq, group, reports);
        self.call_ok(&body)
    }

    /// Streams a sequence-numbered batch of masked share words into
    /// `group`. The same replay-guard semantics as
    /// [`WireClient::ingest_batch_seq`] apply: a
    /// [`DapError::DuplicateSequence`] rejection means the batch was
    /// already applied and may be treated as success.
    pub fn ingest_shares(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), WireError> {
        let mut body = String::new();
        push_share_batch(&mut body, channel, seq, group, counts);
        self.call_ok(&body)
    }

    /// Pulls a masked daemon's accumulated share state.
    pub fn pull_masked(&mut self) -> Result<MaskedPart, WireError> {
        match self.call(&Frame::MaskedPull)? {
            Frame::MaskedPart { part } => Ok(part),
            f => Err(Self::unexpected("masked-part", &f)),
        }
    }

    /// Liveness probe; returns the server's `(digest, groups, total
    /// reports ingested)`.
    pub fn status(&mut self) -> Result<(u64, usize, usize), WireError> {
        match self.call(&Frame::Status)? {
            Frame::StatusOk { digest, groups, ingested, .. } => Ok((digest, groups, ingested)),
            f => Err(Self::unexpected("status-ok", &f)),
        }
    }

    /// [`WireClient::status`] including the observability counters
    /// (`None` when probing a pre-counters daemon).
    pub fn status_counters(
        &mut self,
    ) -> Result<(u64, usize, usize, Option<StatusCounters>), WireError> {
        match self.call(&Frame::Status)? {
            Frame::StatusOk { digest, groups, ingested, counters } => {
                Ok((digest, groups, ingested, counters))
            }
            f => Err(Self::unexpected("status-ok", &f)),
        }
    }

    /// Pulls the server session's serialized state.
    pub fn pull_part(&mut self) -> Result<SessionPart, WireError> {
        match self.call(&Frame::Pull)? {
            Frame::Part { part } => Ok(part),
            f => Err(Self::unexpected("part", &f)),
        }
    }

    /// Pushes a serialized part into the server's session.
    pub fn merge_part(&mut self, part: &SessionPart) -> Result<(), WireError> {
        let mut body = String::with_capacity(64);
        push_merge(&mut body, part);
        self.call_ok(&body)
    }

    /// Runs the collector pipeline server-side.
    pub fn finalize(&mut self, schemes: &[Scheme]) -> Result<Vec<DapOutput>, WireError> {
        match self.call(&Frame::Finalize { schemes: schemes.to_vec() })? {
            Frame::Outputs { outputs } => Ok(outputs),
            f => Err(Self::unexpected("outputs", &f)),
        }
    }

    /// Runs one experiment shard on a bench daemon, returning its
    /// `dap-results/v1` JSON.
    pub fn run_shard(&mut self, request: &ShardRequest) -> Result<String, WireError> {
        match self.call(&Frame::RunShard { request: request.clone() })? {
            Frame::ShardResult { json } => Ok(json),
            f => Err(Self::unexpected("shard-result", &f)),
        }
    }

    /// Asks the server to stop (it replies `ok` first).
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.call(&Frame::Shutdown)? {
            Frame::Ok => Ok(()),
            f => Err(Self::unexpected("ok", &f)),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The session operations [`serve_session`] dispatches frames to.
///
/// Implemented by [`DapSession`] (a plain in-memory daemon) and by
/// [`crate::storage::DurableSession`] (a journaled one), so the same
/// accept loop serves both — durability is a deployment choice, not a
/// protocol change.
pub trait WireSession {
    /// The compatibility digest exchanged in the `hello` handshake.
    fn state_digest(&self) -> u64;
    /// Number of groups in the served plan.
    fn group_count(&self) -> usize;
    /// Handles an `ingest` frame.
    fn ingest(&mut self, group: usize, report: f64) -> Result<(), DapError>;
    /// Handles an `ingest-batch` frame.
    fn ingest_batch(&mut self, group: usize, reports: &[f64]) -> Result<(), DapError>;
    /// Handles a `seq-batch` frame (sequenced, replay-guarded ingestion).
    fn ingest_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), DapError>;
    /// The last acknowledged sequence on `channel` (the hello resume
    /// point); `None` when the channel never delivered a batch.
    fn last_seq(&self, channel: u64) -> Option<u64>;
    /// Total reports accepted across all groups (the `status` reply).
    fn ingested_total(&self) -> usize;
    /// Handles a `pull` frame.
    fn export_part(&self) -> SessionPart;
    /// Handles a `merge` frame.
    fn merge_part(&mut self, part: &SessionPart) -> Result<(), DapError>;
    /// Handles a `finalize` frame.
    fn finalize(&self, schemes: &[Scheme]) -> Result<Vec<DapOutput>, DapError>;
    /// The share-group topology when the session is masked (`None` for a
    /// plaintext session) — advertised in `hello-ok`.
    fn secagg_role(&self) -> Option<SecaggRole>;
    /// Adopts the dealer's seed commitment from a masked `hello`.
    fn adopt_commitment(&mut self, commitment: u64) -> Result<(), DapError>;
    /// Handles a `share-batch` frame (sequenced, replay-guarded masked
    /// share ingestion).
    fn ingest_shares(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), DapError>;
    /// Handles a `masked-pull` frame.
    fn export_masked_part(&self) -> Result<MaskedPart, DapError>;
    /// Observability counters for the `status` reply.
    fn status_counters(&self) -> StatusCounters;
    /// Enters group-commit mode: until [`WireSession::commit_acks`], the
    /// session may buffer durability work (journal flush/fsync) across
    /// ingest calls. The reactor brackets each coalesced batch with this
    /// pair so one fsync covers many connections' frames. No-op for
    /// sessions without a durability layer.
    fn defer_acks(&mut self) {}
    /// Leaves group-commit mode, forcing everything applied since
    /// [`WireSession::defer_acks`] durable. **No frame applied inside the
    /// bracket may be acknowledged before this returns `Ok`** — that is
    /// the write-ahead contract ("acked implies recoverable") stated in
    /// batch form.
    fn commit_acks(&mut self) -> Result<(), DapError> {
        Ok(())
    }
}

impl<M: NumericMechanism + Sync> WireSession for DapSession<M> {
    fn state_digest(&self) -> u64 {
        DapSession::state_digest(self)
    }

    fn group_count(&self) -> usize {
        DapSession::group_count(self)
    }

    fn ingest(&mut self, group: usize, report: f64) -> Result<(), DapError> {
        DapSession::ingest(self, group, report)
    }

    fn ingest_batch(&mut self, group: usize, reports: &[f64]) -> Result<(), DapError> {
        DapSession::ingest_batch(self, group, reports)
    }

    fn ingest_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), DapError> {
        DapSession::ingest_batch_seq(self, channel, seq, group, reports)
    }

    fn last_seq(&self, channel: u64) -> Option<u64> {
        DapSession::last_seq(self, channel)
    }

    fn ingested_total(&self) -> usize {
        (0..DapSession::group_count(self)).map(|g| self.ingested(g)).sum()
    }

    fn export_part(&self) -> SessionPart {
        DapSession::export_part(self)
    }

    fn merge_part(&mut self, part: &SessionPart) -> Result<(), DapError> {
        DapSession::merge_part(self, part)
    }

    fn finalize(&self, schemes: &[Scheme]) -> Result<Vec<DapOutput>, DapError> {
        DapSession::finalize(self, schemes)
    }

    fn secagg_role(&self) -> Option<SecaggRole> {
        DapSession::secagg_role(self)
    }

    fn adopt_commitment(&mut self, commitment: u64) -> Result<(), DapError> {
        DapSession::adopt_commitment(self, commitment)
    }

    fn ingest_shares(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), DapError> {
        DapSession::ingest_shares(self, channel, seq, group, counts)
    }

    fn export_masked_part(&self) -> Result<MaskedPart, DapError> {
        DapSession::export_masked_part(self)
    }

    fn status_counters(&self) -> StatusCounters {
        StatusCounters {
            masked: DapSession::secagg_role(self).is_some(),
            channels: self.channel_count() as u64,
            shares: self.shares_applied(),
            journal_records: 0,
            checkpoints: 0,
            reactor: None,
        }
    }
}

struct ServerState<S> {
    session: Mutex<S>,
    digest: u64,
    groups: usize,
    /// Tokens accepted in a `hello` (empty: no authentication required).
    auth_tokens: Vec<u64>,
    stop: AtomicBool,
    addr: std::net::SocketAddr,
    /// Clones of the live accepted connections, keyed by accept order, so
    /// a shutdown can unblock handler threads parked in `read_frame` on
    /// *other* clients (scoped threads are joined before `serve_session`
    /// returns — a lingering idle client must not wedge the daemon). A
    /// clone leaves with its handler ([`ConnEntry`]): a connection the
    /// server ends is closed for real and its peer reads EOF.
    conns: Mutex<HashMap<usize, TcpStream>>,
    /// The server's idle bound ([`ServeOptions::idle_timeout`]); it also
    /// caps how long a handler stays parked waiting for a queued frame's
    /// ack, so a wedged apply queue cannot exempt its connections from
    /// reaping.
    idle_timeout: Option<Duration>,
    /// The apply queue and worker pool every mutation frame goes through.
    reactor: Reactor,
}

/// One connection's run of decoded mutation frames parked in the apply
/// queue, with the byte cost it holds against
/// [`ReactorOptions::queue_bytes`] and the sending half of the run's own
/// reply channel. That sender is the only one: if a worker unwinds with
/// the run, the handler's wait ends with a typed failure instead of
/// parking forever.
struct QueuedOp {
    frames: Vec<Frame>,
    cost: usize,
    reply: mpsc::Sender<Vec<Frame>>,
}

#[derive(Default)]
struct QueueInner {
    ops: VecDeque<QueuedOp>,
    bytes: usize,
    stopped: bool,
}

/// Outcome of offering a run to the bounded apply queue.
enum Push {
    Queued,
    Full,
    Stopped,
}

/// The ingestion reactor: a bounded MPSC apply queue of runs fed by every
/// connection handler and drained in coalesced batches by a small worker
/// pool ([`worker_loop`]), plus the connection/backpressure counters the
/// `status` frame reports.
struct Reactor {
    opts: ReactorOptions,
    queue: Mutex<QueueInner>,
    ready: Condvar,
    active: AtomicU64,
    peak: AtomicU64,
    throttled: AtomicU64,
}

impl Reactor {
    fn new(opts: ReactorOptions) -> Reactor {
        Reactor {
            opts,
            queue: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            active: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
        }
    }

    fn try_push(&self, op: QueuedOp) -> Push {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.stopped {
            return Push::Stopped;
        }
        // A run larger than the whole byte budget is still admitted when
        // the queue is empty — otherwise it could never be served at all.
        let fits = q.ops.len() < self.opts.queue_ops.max(1)
            && (q.ops.is_empty() || q.bytes + op.cost <= self.opts.queue_bytes);
        if !fits {
            return Push::Full;
        }
        q.bytes += op.cost;
        q.ops.push_back(op);
        self.ready.notify_one();
        Push::Queued
    }

    /// Queues one connection's run and waits for its replies, one per
    /// frame in run order. A full queue sheds every frame of the run with
    /// [`WireError::Throttled`]. `None`: the server's idle bound (`None`
    /// waits indefinitely) expired first.
    fn submit(
        &self,
        frames: Vec<Frame>,
        cost: usize,
        idle: Option<Duration>,
    ) -> Option<Vec<Frame>> {
        let n = frames.len();
        let (reply, rx) = mpsc::channel();
        let refusal = match self.try_push(QueuedOp { frames, cost, reply }) {
            Push::Queued => return wait_ack(&rx, n, idle),
            Push::Full => {
                self.throttled.fetch_add(n as u64, Ordering::Relaxed);
                WireError::Throttled { retry_after_ms: self.opts.retry_after_ms }
            }
            Push::Stopped => WireError::Failed { message: "server is shutting down".into() },
        };
        Some(vec![Frame::Error(refusal); n])
    }

    /// Blocks until work is available, then drains whole runs, up to
    /// [`ReactorOptions::coalesce`] frames but always at least one run.
    /// `None` means the reactor is stopped *and* drained — the worker
    /// should exit.
    fn pop_batch(&self) -> Option<Vec<QueuedOp>> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !q.ops.is_empty() {
                let budget = self.opts.coalesce.max(1);
                let mut take = 1;
                let mut frames = q.ops[0].frames.len();
                while let Some(op) = q.ops.get(take) {
                    frames += op.frames.len();
                    if frames > budget {
                        break;
                    }
                    take += 1;
                }
                let batch: Vec<QueuedOp> = q.ops.drain(..take).collect();
                q.bytes -= batch.iter().map(|op| op.cost).sum::<usize>();
                return Some(batch);
            }
            if q.stopped {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks the queue stopped and wakes every worker; queued frames are
    /// still drained (their handlers are waiting on acks) before workers
    /// exit.
    fn stop(&self) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).stopped = true;
        self.ready.notify_all();
    }

    fn counters(&self) -> ReactorCounters {
        let (queue_depth, queued_bytes) = {
            let q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            (q.ops.len() as u64, q.bytes as u64)
        };
        ReactorCounters {
            queue_depth,
            queued_bytes,
            active_connections: self.active.load(Ordering::Relaxed),
            peak_connections: self.peak.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
        }
    }

    fn track_connection(&self) -> ConnGuard<'_> {
        let now = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        ConnGuard { reactor: self }
    }
}

/// Decrements the active-connection count however the handler exits.
struct ConnGuard<'a> {
    reactor: &'a Reactor,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.reactor.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Drops a connection's registered clone however its handler exits.
struct ConnEntry<'a> {
    conns: &'a Mutex<HashMap<usize, TcpStream>>,
    id: usize,
}

impl Drop for ConnEntry<'_> {
    fn drop(&mut self) {
        self.conns.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.id);
    }
}

/// Whether a frame is session-mutating ingest traffic the reactor queues;
/// everything else (handshakes, pulls, merges, finalize, shutdown) stays
/// on the direct dispatch path.
fn is_reactor_op(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::Ingest { .. }
            | Frame::IngestBatch { .. }
            | Frame::IngestBatchSeq { .. }
            | Frame::ShareBatch { .. }
    )
}

/// Applies one mutation frame to the session, mapping the result to its
/// wire reply (validation, replay guard, typed rejections).
fn apply_mutation<S: WireSession>(session: &mut S, frame: &Frame) -> Frame {
    let applied = match frame {
        Frame::Ingest { group, report } => session.ingest(*group, *report),
        Frame::IngestBatch { group, reports } => session.ingest_batch(*group, reports),
        Frame::IngestBatchSeq { channel, seq, group, reports } => {
            session.ingest_batch_seq(*channel, *seq, *group, reports)
        }
        Frame::ShareBatch { channel, seq, group, counts } => {
            session.ingest_shares(*channel, *seq, *group, counts)
        }
        other => {
            return Frame::Error(WireError::Unsupported { what: other.tag().to_string() })
        }
    };
    match applied {
        Ok(()) => Frame::Ok,
        Err(e) => Frame::Error(e.into()),
    }
}

/// One apply worker: drains coalesced batches of runs off the reactor
/// queue and applies them under a *single* session-lock acquisition —
/// and, for a durable session, a single group commit
/// ([`WireSession::defer_acks`] / [`WireSession::commit_acks`]), so one
/// journal fsync covers many connections' frames. Acks are sent only
/// after the commit succeeds, preserving "acked implies recoverable"
/// batch-wide. Per-channel frame order is preserved: a connection has at
/// most one run queued at a time, each run is applied in order, and the
/// queue is FIFO.
fn worker_loop<S: WireSession>(state: &ServerState<S>) {
    let reactor = &state.reactor;
    while let Some(batch) = reactor.pop_batch() {
        if let Some(stall) = reactor.opts.apply_stall {
            std::thread::sleep(stall);
        }
        let mut replies: Vec<Vec<Frame>> = Vec::with_capacity(batch.len());
        {
            let mut session = state.lock();
            session.defer_acks();
            for op in &batch {
                let run = op.frames.iter().map(|f| apply_mutation(&mut *session, f));
                replies.push(run.collect());
            }
            if let Err(e) = session.commit_acks() {
                // The group commit failed: nothing in this batch is known
                // durable, so no frame in it may be acknowledged as
                // applied.
                for reply in replies.iter_mut().flatten() {
                    if matches!(reply, Frame::Ok) {
                        *reply = Frame::Error(WireError::Rejected(e.clone()));
                    }
                }
            }
        }
        for (op, replies) in batch.into_iter().zip(replies) {
            // A handler that gave up (idle deadline hit, socket died) has
            // dropped its receiver; the run is applied either way and a
            // retry on a fresh connection dedups via the replay guard.
            let _ = op.reply.send(replies);
        }
    }
}

/// Waits for a queued run's `n` replies, bounded by the server's idle
/// timeout (`None` waits indefinitely). `None` result: the bound expired.
fn wait_ack(
    rx: &mpsc::Receiver<Vec<Frame>>,
    n: usize,
    idle: Option<Duration>,
) -> Option<Vec<Frame>> {
    // The run's only sender was dropped unanswered: its worker unwound.
    let workers_gone =
        || vec![Frame::Error(WireError::Failed { message: "apply workers exited".into() }); n];
    match idle {
        None => Some(rx.recv().unwrap_or_else(|_| workers_gone())),
        Some(bound) => match rx.recv_timeout(bound) {
            Ok(replies) => Some(replies),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(workers_gone()),
        },
    }
}

impl<S: WireSession> ServerState<S> {
    fn lock(&self) -> std::sync::MutexGuard<'_, S> {
        // A poisoned lock means a handler panicked mid-operation; the
        // session state is still a valid (if partial) accumulation.
        self.session.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn dispatch<X>(&self, frame: Frame, extra: &X) -> Frame
    where
        X: Fn(&Frame) -> Option<Frame> + Sync,
    {
        match frame {
            Frame::Hello { version, digest, channel, auth: _, commit } => {
                if version != WIRE_VERSION {
                    Frame::Error(WireError::VersionMismatch {
                        client: version,
                        server: WIRE_VERSION.to_string(),
                    })
                } else if digest != self.digest {
                    Frame::Error(WireError::DigestMismatch {
                        client: digest,
                        server: self.digest,
                    })
                } else {
                    let mut session = self.lock();
                    // A dealer's seed commitment binds this daemon's run
                    // to one mask seed (idempotent; a conflicting dealer
                    // is rejected typed).
                    if let Some(commit) = commit {
                        if let Err(e) = session.adopt_commitment(commit) {
                            return Frame::Error(e.into());
                        }
                    }
                    // An announced channel gets its resume point back: the
                    // last sequence this session applied for it (0 if new).
                    let last_seq = channel.map(|c| session.last_seq(c).unwrap_or(0));
                    let secagg = session.secagg_role().map(|r| (r.k, r.index));
                    Frame::HelloOk {
                        digest: self.digest,
                        groups: self.groups,
                        last_seq,
                        secagg,
                    }
                }
            }
            Frame::MaskedPull => match self.lock().export_masked_part() {
                Ok(part) => Frame::MaskedPart { part },
                Err(e) => Frame::Error(e.into()),
            },
            Frame::Status => {
                let (ingested, mut counters) = {
                    let session = self.lock();
                    (session.ingested_total(), session.status_counters())
                };
                counters.reactor = Some(self.reactor.counters());
                Frame::StatusOk {
                    digest: self.digest,
                    groups: self.groups,
                    ingested,
                    counters: Some(counters),
                }
            }
            Frame::Pull => {
                let session = self.lock();
                // A masked session has no plaintext part; answering `pull`
                // with zeros would silently corrupt a plain coordinator's
                // merge, so the mode mismatch is surfaced typed instead.
                if session.secagg_role().is_some() {
                    Frame::Error(DapError::ModeMismatch { masked: true }.into())
                } else {
                    Frame::Part { part: session.export_part() }
                }
            }
            Frame::Merge { part } => match self.lock().merge_part(&part) {
                Ok(()) => Frame::Ok,
                Err(e) => Frame::Error(e.into()),
            },
            Frame::Finalize { schemes } => match self.lock().finalize(&schemes) {
                Ok(outputs) => Frame::Outputs { outputs },
                Err(e) => Frame::Error(e.into()),
            },
            Frame::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                Frame::Ok
            }
            other => extra(&other).unwrap_or_else(|| {
                Frame::Error(WireError::Unsupported { what: other.tag().to_string() })
            }),
        }
    }
}

fn handle_connection<S, X>(mut stream: TcpStream, state: &ServerState<S>, extra: &X)
where
    S: WireSession,
    X: Fn(&Frame) -> Option<Frame> + Sync,
{
    stream.set_nodelay(true).ok();
    let _conn = state.reactor.track_connection();
    // Buffered read half (the write half stays on the raw stream): frame
    // decode otherwise costs two read syscalls per frame (length prefix,
    // body). The clone shares the socket, so the idle read timeout and a
    // shutdown's half-close still apply.
    let mut reader = match stream.try_clone() {
        Ok(clone) => std::io::BufReader::with_capacity(32 * 1024, clone),
        Err(_) => return,
    };
    // Authentication is connection-scoped: with tokens configured, nothing
    // reaches the session until a hello carrying a recognized token
    // succeeds on *this* connection.
    let mut authed = state.auth_tokens.is_empty();
    // A frame already read off the buffer that ended the previous run.
    let mut next = None;
    loop {
        // Until the hello authenticates, a frame longer than any hello is
        // refused before its body is read.
        let cap = if authed { MAX_FRAME } else { PRE_AUTH_FRAME };
        let read = next.take().map_or_else(|| read_frame_capped(&mut reader, cap), Ok);
        let (frame, cost) = match read {
            Ok(pair) => pair,
            // EOF / disconnect: the client is done with this connection.
            Err(WireError::Io { .. }) => return,
            // Idle past the server's deadline: close with a typed error so
            // a live-but-slow client learns why, instead of pinning a
            // handler thread forever.
            Err(WireError::Timeout { .. }) => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error(WireError::Timeout {
                        what: "idle connection closed by server".into(),
                    }),
                );
                return;
            }
            Err(e) => {
                let _ = write_frame(&mut stream, &Frame::Error(e));
                return;
            }
        };
        if !authed {
            let refusal = match &frame {
                Frame::Hello { auth: Some(token), .. }
                    if state.auth_tokens.contains(token) =>
                {
                    authed = true;
                    None
                }
                Frame::Hello { auth: Some(_), .. } => Some("unrecognized auth token".into()),
                Frame::Hello { auth: None, .. } => Some("auth token required".into()),
                other => {
                    Some(format!("frame '{}' before authenticated hello", other.tag()))
                }
            };
            if let Some(what) = refusal {
                // The connection stays open — the client may retry its
                // hello — but the frame never reaches the session.
                if write_frame(&mut stream, &Frame::Error(WireError::Unauthorized { what }))
                    .is_err()
                {
                    return;
                }
                continue;
            }
        }
        let replies = if is_reactor_op(&frame) {
            // The run: this frame plus every further mutation frame the
            // client has already pipelined into the buffer, queued as one
            // unit and acked with one write.
            let reactor = &state.reactor;
            let (mut run, mut run_cost) = (vec![frame], cost);
            while run.len() < reactor.opts.coalesce.max(1) {
                match read_buffered_frame(&mut reader) {
                    Some((frame, cost)) if is_reactor_op(&frame) => {
                        run.push(frame);
                        run_cost += cost;
                    }
                    other => {
                        next = other;
                        break;
                    }
                }
            }
            match reactor.submit(run, run_cost, state.idle_timeout) {
                Some(replies) => replies,
                None => {
                    // Parked past the idle bound behind a wedged apply
                    // queue: reap with the same typed farewell a silent
                    // client gets. The run may still apply later; a retry
                    // on a fresh connection dedups via the replay guard.
                    let _ = write_frame(
                        &mut stream,
                        &Frame::Error(WireError::Timeout {
                            what: "apply queue stalled past idle deadline; \
                                   connection closed by server"
                                .into(),
                        }),
                    );
                    return;
                }
            }
        } else {
            vec![state.dispatch(frame, extra)]
        };
        if write_frames(&mut stream, &replies).is_err() {
            return;
        }
        if state.stop.load(Ordering::SeqCst) {
            state.release();
            return;
        }
    }
}

impl<S> ServerState<S> {
    /// Unblocks everything a shutdown must not wait on: half-closes every
    /// live connection (handler threads parked in `read_frame` see EOF and
    /// exit) and pokes the accept loop with a loopback connect.
    fn release(&self) {
        for (_, conn) in self.conns.lock().unwrap_or_else(|e| e.into_inner()).drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // The bind address may be a wildcard (0.0.0.0 / ::), which some
        // platforms refuse to connect to — wake via loopback on the same
        // port instead. If even that fails there is nothing better to do
        // (the listener stays parked until its next connection).
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

/// Serves one [`WireSession`] on `listener` until a client sends
/// `shutdown`, then returns the session (with everything it ingested).
/// Serve a [`DapSession`] for a plain in-memory daemon, or a
/// [`crate::storage::DurableSession`] for one whose acknowledged ingests
/// survive a kill (`experiments serve --journal`).
///
/// Connections are handled on their own scoped threads; their mutation
/// frames funnel, one buffered run per connection, through a bounded
/// apply queue to a worker pool (see [`ServeOptions::reactor`]), so many
/// report sources stream concurrently while the session lock is taken
/// once per coalesced batch instead of once per frame. Definition 2 is
/// enforced at the door by the session's own typed rejections, which
/// travel back as [`WireError::Rejected`].
///
/// `extra` handles frames the session layer does not (the bench daemon
/// plugs experiment-shard execution in here); return `None` to let the
/// server answer `error unsupported`. Pass `|_| None` for a plain
/// aggregation daemon.
pub fn serve_session<S, X>(listener: TcpListener, session: S, extra: X) -> std::io::Result<S>
where
    S: WireSession + Send,
    X: Fn(&Frame) -> Option<Frame> + Sync,
{
    serve_session_with(listener, session, extra, ServeOptions::default())
}

/// Server-side knobs for [`serve_session_with`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeOptions {
    /// Close a connection whose next frame does not arrive within this
    /// bound, with a typed [`WireError::Timeout`] farewell — leaked client
    /// sockets can no longer pin handler threads forever. The same bound
    /// also reaps connections parked in the apply queue. `None` (the
    /// default) waits indefinitely, the pre-hardening behavior.
    pub idle_timeout: Option<Duration>,
    /// Allowlist of auth tokens a `hello` may present. Empty (the
    /// default): no authentication, the pre-auth behavior. Non-empty:
    /// every frame on a connection is answered
    /// [`WireError::Unauthorized`] until a hello carrying one of these
    /// tokens succeeds.
    pub auth_tokens: Vec<u64>,
    /// Ingestion-reactor configuration: each connection's buffered run of
    /// mutation frames crosses a bounded apply queue as one unit to a
    /// worker pool that applies coalesced batches under one lock
    /// acquisition (one group commit for a durable session), with
    /// [`WireError::Throttled`] backpressure when the queue or connection
    /// table is full.
    pub reactor: ReactorOptions,
}

/// Tuning for the ingestion reactor ([`ServeOptions::reactor`]). The
/// defaults are sized for a small daemon fleet on one host; the storm
/// harness (`experiments storm`) deliberately shrinks the bounds to force
/// throttling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorOptions {
    /// Apply workers draining the queue. The session lock still
    /// serializes application, so per-channel ingest order (and
    /// therefore recovery and finalize) is identical for any worker
    /// count.
    pub workers: usize,
    /// Bound on runs parked in the apply queue. A run is one connection's
    /// buffered mutation frames, queued as one unit, and a connection has
    /// at most one run queued; a run arriving at a full queue is shed
    /// with one [`WireError::Throttled`] reply per frame.
    pub queue_ops: usize,
    /// Byte bound on queued frame payloads (body bytes as read off the
    /// wire), so memory held by parked runs stays bounded regardless of
    /// frame size. A run larger than the whole budget is still admitted
    /// when the queue is empty.
    pub queue_bytes: usize,
    /// Open-connection cap; connections accepted beyond it are told
    /// [`WireError::Throttled`] and closed without reading a frame.
    pub max_connections: usize,
    /// The backoff hint carried in every throttle reply.
    pub retry_after_ms: u64,
    /// Most frames in one run (a handler stops gathering a connection's
    /// buffered frames there), and most frames one worker applies per
    /// session-lock acquisition (and, for a durable session, per group
    /// commit / journal fsync). A worker takes whole runs only, and always
    /// at least one.
    pub coalesce: usize,
    /// Fault injection for tests: sleep this long before applying each
    /// batch, simulating a wedged durability layer under the queue.
    pub apply_stall: Option<Duration>,
}

impl Default for ReactorOptions {
    fn default() -> ReactorOptions {
        ReactorOptions {
            workers: 2,
            queue_ops: 256,
            queue_bytes: 8 << 20,
            max_connections: 1024,
            retry_after_ms: 20,
            coalesce: 64,
            apply_stall: None,
        }
    }
}

/// [`serve_session`] with [`ServeOptions`] (idle-connection timeouts).
pub fn serve_session_with<S, X>(
    listener: TcpListener,
    session: S,
    extra: X,
    options: ServeOptions,
) -> std::io::Result<S>
where
    S: WireSession + Send,
    X: Fn(&Frame) -> Option<Frame> + Sync,
{
    let state = ServerState {
        digest: session.state_digest(),
        groups: session.group_count(),
        auth_tokens: options.auth_tokens.clone(),
        session: Mutex::new(session),
        stop: AtomicBool::new(false),
        addr: listener.local_addr()?,
        conns: Mutex::new(HashMap::new()),
        idle_timeout: options.idle_timeout,
        reactor: Reactor::new(options.reactor.clone()),
    };
    let reactor = &state.reactor;
    std::thread::scope(|scope| {
        for _ in 0..reactor.opts.workers.max(1) {
            let state = &state;
            scope.spawn(move || worker_loop(state));
        }
        for (id, conn) in listener.incoming().enumerate() {
            if state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            if reactor.active.load(Ordering::Relaxed) >= reactor.opts.max_connections.max(1) as u64
            {
                // Over the connection cap: shed at the door with the same
                // retryable throttle a full queue answers, so the client
                // backs off and reconnects instead of failing.
                reactor.throttled.fetch_add(1, Ordering::Relaxed);
                let mut stream = stream;
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error(WireError::Throttled {
                        retry_after_ms: reactor.opts.retry_after_ms,
                    }),
                );
                continue;
            }
            stream.set_read_timeout(options.idle_timeout).ok();
            let entry = stream.try_clone().ok().map(|clone| {
                state.conns.lock().unwrap_or_else(|e| e.into_inner()).insert(id, clone);
                ConnEntry { conns: &state.conns, id }
            });
            let state = &state;
            let extra = &extra;
            scope.spawn(move || {
                let _entry = entry;
                handle_connection(stream, state, extra)
            });
        }
        // The accept loop is done (shutdown): wake the workers so they
        // drain the queue — every parked handler still gets its ack — and
        // exit, letting the scope join.
        reactor.stop();
    });
    Ok(state.session.into_inner().unwrap_or_else(|e| e.into_inner()))
}

#[cfg(test)]
mod wire_fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("encodes");
        let back = read_frame(&mut &buf[..]).expect("decodes");
        assert_eq!(back, frame);
        back
    }

    #[test]
    fn every_frame_round_trips() {
        let part = SessionPart {
            digest: 0xdead_beef_1234_5678,
            groups: vec![
                PartGroup { counts: vec![0.0, 2.0, 1.0], sum_reports: -1.25, n_reports: 3 },
                PartGroup { counts: vec![], sum_reports: 0.0, n_reports: 0 },
            ],
            channels: vec![],
        };
        let seq_part = SessionPart {
            channels: vec![(0xc0ffee, 12), (u64::MAX, 1)],
            ..part.clone()
        };
        let output = DapOutput {
            mean: (0.1f64 + 0.2).powi(3),
            side: Side::Left,
            gamma: 0.25,
            min_variance: 1e-9,
            groups: vec![GroupReport {
                eps_t: 0.125,
                n_reports: 640,
                mean_t: -0.5,
                m_hat: 12.5,
                n_hat: 313.7,
                weight: 0.25,
            }],
        };
        let masked_part = MaskedPart {
            digest: 0xdead_beef_1234_5678,
            k: 3,
            index: 1,
            commitment: 0xc0ffee,
            groups: vec![
                MaskedGroup { counts: vec![0, u64::MAX, 0x1234_5678_9abc_def0] },
                MaskedGroup { counts: vec![] },
            ],
            channels: vec![(0xfeed, 3)],
        };
        for frame in [
            Frame::Hello {
                version: WIRE_VERSION.to_string(),
                digest: 7,
                channel: None,
                auth: None,
                commit: None,
            },
            Frame::Hello {
                version: WIRE_VERSION.to_string(),
                digest: 7,
                channel: Some(0xfeed_beef),
                auth: None,
                commit: None,
            },
            Frame::Hello {
                version: WIRE_VERSION.to_string(),
                digest: 7,
                channel: Some(0xfeed_beef),
                auth: Some(0x5ec2e7),
                commit: Some(0xabcd_ef01_2345_6789),
            },
            Frame::Hello {
                version: WIRE_VERSION.to_string(),
                digest: 7,
                channel: None,
                auth: Some(u64::MAX),
                commit: None,
            },
            Frame::HelloOk { digest: 7, groups: 4, last_seq: None, secagg: None },
            Frame::HelloOk { digest: 7, groups: 4, last_seq: Some(0), secagg: None },
            Frame::HelloOk { digest: 7, groups: 4, last_seq: Some(917), secagg: Some((3, 2)) },
            Frame::HelloOk { digest: 7, groups: 4, last_seq: None, secagg: Some((2, 0)) },
            Frame::Ingest { group: 2, report: f64::NAN },
            Frame::IngestBatch { group: 0, reports: vec![1.0, -0.0, 0.5] },
            Frame::IngestBatch { group: 1, reports: vec![] },
            Frame::IngestBatchSeq {
                channel: 0xfeed_beef,
                seq: 3,
                group: 1,
                reports: vec![0.5, -0.25],
            },
            Frame::ShareBatch {
                channel: 0xfeed_beef,
                seq: 7,
                group: 2,
                counts: vec![0, 1, u64::MAX],
            },
            Frame::ShareBatch { channel: 1, seq: 1, group: 0, counts: vec![] },
            Frame::MaskedPull,
            Frame::MaskedPart { part: masked_part },
            Frame::Status,
            Frame::StatusOk { digest: 7, groups: 4, ingested: 123_456, counters: None },
            Frame::StatusOk {
                digest: 7,
                groups: 4,
                ingested: 123_456,
                counters: Some(StatusCounters {
                    masked: true,
                    channels: 3,
                    shares: 99,
                    journal_records: 1024,
                    checkpoints: 2,
                    reactor: None,
                }),
            },
            Frame::StatusOk {
                digest: 7,
                groups: 4,
                ingested: 123_456,
                counters: Some(StatusCounters {
                    masked: false,
                    channels: 12,
                    shares: 0,
                    journal_records: 64,
                    checkpoints: 1,
                    reactor: Some(ReactorCounters {
                        queue_depth: 17,
                        queued_bytes: 9000,
                        active_connections: 31,
                        peak_connections: 64,
                        throttled: 1234,
                    }),
                }),
            },
            Frame::Ok,
            Frame::Pull,
            Frame::Part { part: part.clone() },
            Frame::Part { part: seq_part.clone() },
            Frame::Merge { part },
            Frame::Merge { part: seq_part },
            Frame::Finalize { schemes: Scheme::ALL.to_vec() },
            Frame::Outputs { outputs: vec![output] },
            Frame::RunShard {
                request: ShardRequest {
                    experiment: "fig7".into(),
                    n: 2000,
                    trials: 3,
                    seed: 42,
                    max_d_out: 128,
                    index: 1,
                    count: 3,
                },
            },
            Frame::ShardResult { json: "{\n  \"schema\": \"dap-results/v1\"\n}\n".into() },
            Frame::Shutdown,
        ] {
            // NaN reports break PartialEq; compare those by encoding.
            if matches!(&frame, Frame::Ingest { report, .. } if report.is_nan()) {
                let mut buf = Vec::new();
                write_frame(&mut buf, &frame).expect("encodes");
                let back = read_frame(&mut &buf[..]).expect("decodes");
                match back {
                    Frame::Ingest { group, report } => {
                        assert_eq!(group, 2);
                        assert_eq!(report.to_bits(), f64::NAN.to_bits());
                    }
                    other => panic!("wrong frame {other:?}"),
                }
            } else {
                round_trip(frame);
            }
        }
    }

    #[test]
    fn every_wire_error_round_trips_typed() {
        for err in [
            WireError::Rejected(DapError::ReportOutOfRange {
                group: 3,
                report: 9.75,
                lo: -3.0,
                hi: 3.0,
            }),
            WireError::Rejected(DapError::QuotaExceeded {
                group: 1,
                quota: 640,
                ingested: 640,
                attempted: 2,
            }),
            WireError::Rejected(DapError::UnknownGroup { group: 9, groups: 4 }),
            WireError::Rejected(DapError::DuplicateSequence {
                channel: 0xfeed_beef,
                seq: 4,
                last: 7,
            }),
            WireError::Rejected(DapError::SequenceGap {
                channel: 0xfeed_beef,
                seq: 9,
                expected: 5,
            }),
            WireError::Rejected(DapError::SessionMismatch { what: "state digest" }),
            WireError::Rejected(DapError::SessionMismatch { what: "config eps" }),
            WireError::Rejected(DapError::ModeMismatch { masked: true }),
            WireError::Rejected(DapError::ModeMismatch { masked: false }),
            WireError::Unauthorized { what: "auth token required".into() },
            WireError::VersionMismatch { client: "dap-wire/v0".into(), server: WIRE_VERSION.into() },
            WireError::DigestMismatch { client: 1, server: 2 },
            WireError::Unsupported { what: "run-shard".into() },
            WireError::BadFrame { reason: "trailing token 'x'".into() },
            WireError::Failed { message: "multi\nline message".into() },
            WireError::Timeout { what: "read deadline of 250ms expired".into() },
            WireError::Throttled { retry_after_ms: 0 },
            WireError::Throttled { retry_after_ms: 20 },
            WireError::Throttled { retry_after_ms: u64::MAX },
            WireError::Io { message: "connection reset".into() },
        ] {
            round_trip(Frame::Error(err));
        }
    }

    #[test]
    fn pre_sequencing_encodings_still_parse() {
        // A hello / hello-ok / part without the new optional sections must
        // decode exactly as before — old journals and old peers depend on
        // it (PR 6 journal payloads are frame texts).
        assert_eq!(
            decode_frame("hello dap-wire/v1 0x0000000000000007").unwrap(),
            Frame::Hello {
                version: WIRE_VERSION.into(),
                digest: 7,
                channel: None,
                auth: None,
                commit: None,
            }
        );
        assert_eq!(
            decode_frame("hello-ok 0x0000000000000007 4").unwrap(),
            Frame::HelloOk { digest: 7, groups: 4, last_seq: None, secagg: None }
        );
        assert_eq!(
            decode_frame("status-ok 0x0000000000000007 4 99").unwrap(),
            Frame::StatusOk { digest: 7, groups: 4, ingested: 99, counters: None }
        );
        // A pre-reactor counters section still parses, and counters
        // without a reactor section still encode to it byte-identically.
        let pr8_counters = StatusCounters {
            masked: true,
            channels: 3,
            shares: 99,
            journal_records: 1024,
            checkpoints: 2,
            reactor: None,
        };
        let pr8_status = Frame::StatusOk {
            digest: 7,
            groups: 4,
            ingested: 99,
            counters: Some(pr8_counters),
        };
        assert_eq!(
            encode_frame(&pr8_status),
            "status-ok 0x0000000000000007 4 99 counters 1 3 99 1024 2"
        );
        assert_eq!(
            decode_frame("status-ok 0x0000000000000007 4 99 counters 1 3 99 1024 2").unwrap(),
            pr8_status
        );
        // A channel-only hello (the PR 7 encoding) still parses, and the
        // new optional sections never appear unless set.
        assert_eq!(
            decode_frame("hello dap-wire/v1 0x0000000000000007 channel 0x00000000000000aa")
                .unwrap(),
            Frame::Hello {
                version: WIRE_VERSION.into(),
                digest: 7,
                channel: Some(0xaa),
                auth: None,
                commit: None,
            }
        );
        let plain_hello = Frame::Hello {
            version: WIRE_VERSION.into(),
            digest: 7,
            channel: None,
            auth: None,
            commit: None,
        };
        assert_eq!(encode_frame(&plain_hello), "hello dap-wire/v1 0x0000000000000007");
        let old_part = "part 0x0000000000000001 1\n\
                        group 1 0x3fe0000000000000 2 0x3ff0000000000000 0x0000000000000000";
        match decode_frame(old_part).unwrap() {
            Frame::Part { part } => {
                assert!(part.channels.is_empty());
                assert_eq!(part.groups.len(), 1);
            }
            other => panic!("wrong frame {other:?}"),
        }
        // And a channel-free part encodes without a seqs section.
        let part = SessionPart { digest: 1, groups: vec![], channels: vec![] };
        assert!(!encode_frame(&Frame::Part { part }).contains("seqs"));
    }

    #[test]
    fn timeouts_are_typed_not_io() {
        use std::io::{Error, ErrorKind};
        let e: WireError = Error::new(ErrorKind::TimedOut, "read timed out").into();
        assert!(matches!(e, WireError::Timeout { .. }), "{e:?}");
        let e: WireError = Error::new(ErrorKind::WouldBlock, "would block").into();
        assert!(matches!(e, WireError::Timeout { .. }), "{e:?}");
        let e: WireError = Error::new(ErrorKind::ConnectionRefused, "refused").into();
        assert!(matches!(e, WireError::Io { .. }), "{e:?}");
        assert!(RetryPolicy::retryable(&WireError::Timeout { what: "t".into() }));
        assert!(RetryPolicy::retryable(&WireError::Io { message: "m".into() }));
        // Backpressure sheds are safe to resend by construction (the frame
        // never touched the session), so they must be in the retryable set
        // — a coordinator that aborted on throttle would lose the batch.
        assert!(RetryPolicy::retryable(&WireError::Throttled { retry_after_ms: 20 }));
        assert!(!RetryPolicy::retryable(&WireError::Rejected(
            DapError::DuplicateSequence { channel: 1, seq: 1, last: 1 }
        )));
        assert!(!RetryPolicy::retryable(&WireError::DigestMismatch { client: 1, server: 2 }));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        for attempt in 1..=40 {
            for salt in [0u64, 7, u64::MAX] {
                let d = policy.backoff(attempt, salt);
                assert_eq!(d, policy.backoff(attempt, salt), "deterministic");
                assert!(d <= policy.cap, "attempt {attempt}: {d:?} above cap");
                // Jitter keeps at least half the nominal (capped) backoff.
                let nominal = policy
                    .base
                    .checked_mul(1u32 << (attempt - 1).min(16))
                    .unwrap_or(policy.cap)
                    .min(policy.cap);
                assert!(d >= nominal / 2, "attempt {attempt}: {d:?} under half backoff");
            }
        }
        // Different salts (operations) de-synchronize their schedules.
        assert_ne!(policy.backoff(3, 1), policy.backoff(3, 2));
        // The exponent climbs before the cap bites.
        assert!(policy.backoff(4, 9) > policy.backoff(1, 9));
    }

    #[test]
    fn every_mismatch_field_round_trips_typed() {
        // The whole table, not a sample: a `what` that fails to round-trip
        // would silently downgrade the typed rejection to `Failed`.
        for what in DapError::MISMATCH_FIELDS {
            round_trip(Frame::Error(WireError::Rejected(DapError::SessionMismatch { what })));
        }
    }

    #[test]
    fn non_wire_dap_errors_degrade_to_failed() {
        let mut buf = Vec::new();
        let err = WireError::Rejected(DapError::EmptyPopulation);
        write_frame(&mut buf, &Frame::Error(err)).expect("encodes");
        match read_frame(&mut &buf[..]).expect("decodes") {
            Frame::Error(WireError::Failed { message }) => {
                assert!(message.contains("empty population"), "{message}");
            }
            other => panic!("expected failed, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(matches!(
            decode_frame("ingest 0"),
            Err(WireError::BadFrame { .. })
        ));
        assert!(matches!(
            decode_frame("ingest 0 0x3ff0000000000000 extra"),
            Err(WireError::BadFrame { .. })
        ));
        assert!(matches!(
            decode_frame("warp-core-breach"),
            Err(WireError::BadFrame { .. })
        ));
        assert!(matches!(
            decode_frame("finalize 1 DAP_WAT"),
            Err(WireError::BadFrame { .. })
        ));
        // A truncated stream is an I/O error, not a parse error.
        let bytes = 12u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::Io { .. })
        ));
    }

    #[test]
    fn forged_counts_are_typed_errors_not_allocations() {
        // Every count the decoder preallocates by, at the top level and
        // nested, claiming far more elements than the body carries: a
        // 33-byte frame must not ask for terabytes (an allocation failure
        // aborts the process, it does not unwind).
        for count in [1u64 << 40, usize::MAX as u64] {
            for body in [
                format!("ingest-batch 0 {count}"),
                format!("seq-batch 0x1 0 0 {count}"),
                format!("share-batch 0x1 0 0 {count}"),
                format!("finalize {count}"),
                format!("part 0x0 {count}"),
                format!("part 0x0 1 group 0 0x0 {count}"),
                format!("merge 0x0 {count}"),
                format!("merge 0x0 0 seqs {count}"),
                format!("masked-part 0x0 2 0 0x0 {count}"),
                format!("masked-part 0x0 2 0 0x0 1 mgroup {count}"),
                format!("masked-part 0x0 2 0 0x0 0 seqs {count}"),
                format!("outputs {count}"),
                format!("outputs 1 output 0x0 L 0x0 0x0 {count}"),
            ] {
                assert!(matches!(decode_frame(&body), Err(WireError::BadFrame { .. })), "{body}");
            }
        }
    }
}
