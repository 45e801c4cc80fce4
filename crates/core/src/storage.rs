//! Durable sessions: a write-ahead journal behind pluggable storage.
//!
//! A `dap-wire/v1` daemon that dies loses every ingested report — the
//! paper's aggregator (§V, Fig. 3) is a long-lived service, so the session
//! needs to survive a crash. This module adds durability in three layers:
//!
//! * [`StorageBackend`] — the pluggable byte store: an append-only journal
//!   plus one atomically-replaceable checkpoint slot. [`MemoryBackend`]
//!   (tests, ephemeral daemons), [`FileBackend`] (a directory with
//!   `journal.log` and `checkpoint.part`) and [`FaultBackend`] (a test
//!   wrapper that severs writes at a configured byte offset) ship with the
//!   crate; both real backends are std-only.
//! * [`Journal`] — record framing over a backend: each record is
//!   `[u32 len][u64 FNV digest][payload]` (big-endian prefixes) behind a
//!   `dap-journal/v1 <epoch>` header line, and the checkpoint slot holds a
//!   `dap-checkpoint/v1 <epoch> <covered> <digest>` envelope. The epoch
//!   makes compaction crash-safe: a checkpoint records how many journal
//!   records of which epoch it absorbed, truncation bumps the epoch, and
//!   recovery replays the tail (same epoch) or everything (next epoch) —
//!   every crash window between the two writes resolves to the same state.
//! * [`DurableSession`] — a [`DapSession`] with write-ahead semantics:
//!   every accepted `ingest` / `ingest_batch` / `merge_part` is validated,
//!   appended to the journal, and only then applied, so an acknowledged
//!   operation is always recoverable. Record payloads reuse the
//!   `dap-wire/v1` frame encodings ([`crate::net::encode_frame`], exact
//!   f64 bit patterns via [`crate::codec`]), and a checkpoint payload is a
//!   `part` frame — one codec for the wire, the results schema and the log.
//!
//! # Damage taxonomy
//!
//! Recovery distinguishes two kinds of damage and never panics on either:
//!
//! * a **torn tail** — the journal ends mid-record because the process
//!   died mid-write. The write was never acknowledged, so the partial
//!   record is dropped and recovery proceeds from the valid prefix.
//! * **corruption** — a record's digest does not match its payload, a
//!   length field is absurd, or a payload fails to decode. Something
//!   rewrote acknowledged bytes; recovery surfaces a typed
//!   [`DapError::Journal`] (by default) or keeps the valid prefix when
//!   explicitly asked to salvage ([`DurableOptions::salvage`]).
//!
//! One ambiguity is inherent to the framing: a flipped byte in the final
//! record's *length prefix* can make the record look longer than the file,
//! which classifies as a torn tail. Every other single-byte flip — in a
//! digest, a payload, or a non-final length — is caught by the per-record
//! digest check.

use crate::codec::{self, Fnv};
use crate::error::DapError;
use crate::net::{
    decode_frame, encode_frame, push_ingest_batch, push_merge, push_seq_batch, push_share_batch,
    Frame, StatusCounters, WireSession,
};
use crate::protocol::DapOutput;
use crate::scheme::Scheme;
use crate::secagg::{MaskedPart, SecaggRole};
use crate::session::{DapSession, SessionPart};
use dap_ldp::NumericMechanism;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// First line of a journal: this magic, a space, the `0x`-hex epoch, `\n`.
const JOURNAL_MAGIC: &str = "dap-journal/v1";

/// First line of a checkpoint envelope: magic, epoch, records covered,
/// payload digest (all `0x`-hex), `\n`, then the payload bytes.
const CHECKPOINT_MAGIC: &str = "dap-checkpoint/v1";

/// Guard against garbage record lengths (same cap as the wire layer's
/// frame guard — the largest legitimate record is a full-quota batch).
const MAX_RECORD: usize = 64 << 20;

/// Journal file name under a [`FileBackend`] directory.
const JOURNAL_FILE: &str = "journal.log";

/// Checkpoint file name under a [`FileBackend`] directory.
const CHECKPOINT_FILE: &str = "checkpoint.part";

fn journal_err(at: u64, reason: impl Into<String>) -> DapError {
    DapError::Journal { at, reason: reason.into() }
}

fn io_err(what: &str, e: &std::io::Error) -> DapError {
    journal_err(0, format!("{what}: {e}"))
}

/// FNV-1a digest of one record payload (or checkpoint payload) — the
/// per-record integrity check of the journal format.
fn payload_digest(payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(payload);
    h.finish()
}

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// A pluggable byte store for one session's durability state: an
/// append-only journal plus one checkpoint slot.
///
/// The contract is byte-oriented on purpose — record framing lives in
/// [`Journal`], above the backend — so a backend can be as simple as two
/// `Vec<u8>`s and fault injection ([`FaultBackend`]) can sever a write at
/// any byte offset.
pub trait StorageBackend {
    /// Appends bytes to the journal. Once this returns `Ok`, the bytes
    /// must be visible to a reopened backend even if the *process* dies
    /// immediately after (for [`FileBackend`]: the `write` reached the
    /// kernel, which survives a killed process). Surviving an OS crash
    /// or power loss is a per-backend upgrade, not part of this
    /// contract — see [`FileBackend::open_sync`].
    fn append(&mut self, bytes: &[u8]) -> Result<(), DapError>;

    /// The full journal contents, from the first byte.
    fn read_journal(&self) -> Result<Vec<u8>, DapError>;

    /// Discards the journal (the checkpoint slot is untouched).
    fn truncate(&mut self) -> Result<(), DapError>;

    /// Atomically replaces the checkpoint slot: a reader observes either
    /// the previous checkpoint or the new one, never a mix.
    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<(), DapError>;

    /// The checkpoint slot, if one was ever written.
    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, DapError>;

    /// Enters group-commit mode: until [`StorageBackend::commit_appends`],
    /// the backend may *buffer* appends in process memory, suspending the
    /// [`StorageBackend::append`] visibility contract for the bracket.
    /// The caller must not acknowledge any operation appended inside the
    /// bracket before `commit_appends` returns `Ok` — this is how the
    /// ingestion reactor pays one flush/fsync for a whole coalesced batch
    /// instead of one per record. Default: no-op (appends stay immediate).
    fn defer_appends(&mut self) {}

    /// Leaves group-commit mode, making every append since
    /// [`StorageBackend::defer_appends`] as durable as an ordinary append
    /// would have been. Default: no-op.
    fn commit_appends(&mut self) -> Result<(), DapError> {
        Ok(())
    }
}

/// An in-memory [`StorageBackend`]: durability bounded by the process.
///
/// Useful for tests, for the fault-injection harness, and for daemons
/// that want the journal's damage detection without touching disk.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    journal: Vec<u8>,
    checkpoint: Option<Vec<u8>>,
}

impl MemoryBackend {
    /// An empty store.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// A store seeded with raw journal bytes — how tests replay the bytes
    /// a [`FaultBackend`] left behind, or craft damaged journals.
    pub fn with_journal(journal: Vec<u8>) -> MemoryBackend {
        MemoryBackend { journal, checkpoint: None }
    }

    /// The raw journal bytes (for inspection and tampering in tests).
    pub fn journal_bytes(&self) -> &[u8] {
        &self.journal
    }

    /// Mutable raw journal bytes (for tampering in tests).
    pub fn journal_bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.journal
    }
}

impl StorageBackend for MemoryBackend {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DapError> {
        self.journal.extend_from_slice(bytes);
        Ok(())
    }

    fn read_journal(&self) -> Result<Vec<u8>, DapError> {
        Ok(self.journal.clone())
    }

    fn truncate(&mut self) -> Result<(), DapError> {
        self.journal.clear();
        Ok(())
    }

    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<(), DapError> {
        self.checkpoint = Some(bytes.to_vec());
        Ok(())
    }

    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, DapError> {
        Ok(self.checkpoint.clone())
    }
}

/// An append-only-file [`StorageBackend`]: a directory holding
/// `journal.log` (append + flush per record) and `checkpoint.part`
/// (replaced atomically via a temp file and `rename`).
///
/// By default append durability is **process-crash** durability: a
/// flushed `write(2)` lives in the kernel whether or not the process
/// survives, which is exactly the SIGKILL model the crash-recovery
/// harness exercises — but an OS crash or power failure can still lose
/// acknowledged records. [`FileBackend::open_sync`] upgrades that to
/// power-failure durability with an `fsync` per append; checkpoints,
/// being rare, always sync before the rename.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    journal: File,
    sync_appends: bool,
    /// Group-commit mode ([`StorageBackend::defer_appends`]): appends
    /// land in `pending` and reach the file (+ flush + optional fsync) in
    /// one write at [`StorageBackend::commit_appends`].
    deferred: bool,
    pending: Vec<u8>,
}

impl FileBackend {
    /// Opens (creating if needed) the backend directory with the default
    /// process-crash durability model (no `fsync` per append).
    pub fn open(dir: impl AsRef<Path>) -> Result<FileBackend, DapError> {
        FileBackend::open_with(dir, false)
    }

    /// Like [`FileBackend::open`], but `fsync`s the journal after every
    /// append: acknowledged records then survive an OS crash or power
    /// loss, not just process death, at a per-record `fsync` cost.
    pub fn open_sync(dir: impl AsRef<Path>) -> Result<FileBackend, DapError> {
        FileBackend::open_with(dir, true)
    }

    fn open_with(dir: impl AsRef<Path>, sync_appends: bool) -> Result<FileBackend, DapError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create backend dir", &e))?;
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .map_err(|e| io_err("open journal file", &e))?;
        Ok(FileBackend { dir, journal, sync_appends, deferred: false, pending: Vec::new() })
    }

    /// The backend directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl StorageBackend for FileBackend {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DapError> {
        if self.deferred {
            self.pending.extend_from_slice(bytes);
            return Ok(());
        }
        self.journal.write_all(bytes).map_err(|e| io_err("journal append", &e))?;
        self.journal.flush().map_err(|e| io_err("journal flush", &e))?;
        if self.sync_appends {
            self.journal.sync_data().map_err(|e| io_err("journal fsync", &e))?;
        }
        Ok(())
    }

    fn read_journal(&self) -> Result<Vec<u8>, DapError> {
        let path = self.dir.join(JOURNAL_FILE);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes).map_err(|e| io_err("read journal", &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("open journal for read", &e)),
        }
        // Records buffered inside a group-commit bracket are part of the
        // journal's logical contents even before they reach the file.
        bytes.extend_from_slice(&self.pending);
        Ok(bytes)
    }

    fn truncate(&mut self) -> Result<(), DapError> {
        // A truncation (compaction) supersedes anything still buffered:
        // the checkpoint just written covers those records' effects, and
        // flushing them afterwards would replay them twice.
        self.pending.clear();
        self.journal.set_len(0).map_err(|e| io_err("truncate journal", &e))
    }

    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<(), DapError> {
        let tmp = self.dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        let target = self.dir.join(CHECKPOINT_FILE);
        let mut f = File::create(&tmp).map_err(|e| io_err("create checkpoint tmp", &e))?;
        f.write_all(bytes).map_err(|e| io_err("write checkpoint", &e))?;
        f.sync_all().map_err(|e| io_err("sync checkpoint", &e))?;
        drop(f);
        std::fs::rename(&tmp, &target).map_err(|e| io_err("publish checkpoint", &e))
    }

    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, DapError> {
        let path = self.dir.join(CHECKPOINT_FILE);
        match File::open(&path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes).map_err(|e| io_err("read checkpoint", &e))?;
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("open checkpoint", &e)),
        }
    }

    fn defer_appends(&mut self) {
        self.deferred = true;
    }

    fn commit_appends(&mut self) -> Result<(), DapError> {
        self.deferred = false;
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        self.journal.write_all(&pending).map_err(|e| io_err("journal group append", &e))?;
        self.journal.flush().map_err(|e| io_err("journal group flush", &e))?;
        if self.sync_appends {
            self.journal.sync_data().map_err(|e| io_err("journal group fsync", &e))?;
        }
        Ok(())
    }
}

/// A fault-injection [`StorageBackend`] wrapper: journal writes succeed
/// until a configured byte offset, the append that crosses it lands only
/// its prefix (a torn write), and everything after fails — a simulated
/// crash at any chosen point of the byte stream.
///
/// The crash-recovery sweep wraps a [`MemoryBackend`], drives an ingest
/// until the cut trips, then recovers a fresh session from the bytes the
/// "crashed" backend left behind.
#[derive(Debug)]
pub struct FaultBackend<B> {
    inner: B,
    cut_at: u64,
    written: u64,
    tripped: bool,
}

impl<B: StorageBackend> FaultBackend<B> {
    /// Wraps `inner`, severing the journal byte stream at absolute offset
    /// `cut_at` (counted from the start of the journal, including
    /// whatever `inner` already holds).
    pub fn cut_at(inner: B, cut_at: u64) -> FaultBackend<B> {
        let written = inner.read_journal().map(|b| b.len() as u64).unwrap_or(0);
        FaultBackend { inner, cut_at, written, tripped: false }
    }

    /// Whether the cut has been hit.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// The wrapped backend — the bytes that "survived the crash".
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: StorageBackend> StorageBackend for FaultBackend<B> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), DapError> {
        if self.tripped {
            return Err(journal_err(self.cut_at, "injected fault: backend is down"));
        }
        let room = self.cut_at.saturating_sub(self.written);
        if bytes.len() as u64 <= room {
            self.written += bytes.len() as u64;
            return self.inner.append(bytes);
        }
        // The write crosses the cut: persist only the prefix, then die.
        self.tripped = true;
        if room > 0 {
            self.inner.append(&bytes[..room as usize])?;
        }
        self.written = self.cut_at;
        Err(journal_err(self.cut_at, "injected fault: write torn at configured offset"))
    }

    fn read_journal(&self) -> Result<Vec<u8>, DapError> {
        self.inner.read_journal()
    }

    fn truncate(&mut self) -> Result<(), DapError> {
        if self.tripped {
            return Err(journal_err(self.cut_at, "injected fault: backend is down"));
        }
        self.written = 0;
        self.inner.truncate()
    }

    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<(), DapError> {
        if self.tripped {
            return Err(journal_err(self.cut_at, "injected fault: backend is down"));
        }
        self.inner.write_checkpoint(bytes)
    }

    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, DapError> {
        self.inner.load_checkpoint()
    }

    fn defer_appends(&mut self) {
        // The cut counts bytes at this wrapper's `append`, so deferral
        // below does not move the tear point.
        self.inner.defer_appends();
    }

    fn commit_appends(&mut self) -> Result<(), DapError> {
        self.inner.commit_appends()
    }
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// What [`Journal::open`] found in a backend: the checkpoint payload to
/// restore first (if any), the record payloads to replay on top, and any
/// damage encountered along the way.
#[derive(Debug)]
pub struct JournalState {
    /// The checkpoint payload, verified against its envelope digest.
    pub checkpoint: Option<Vec<u8>>,
    /// Record payloads to replay after the checkpoint, in append order,
    /// each with the journal byte offset its record started at.
    pub replay: Vec<(u64, Vec<u8>)>,
    /// Byte offset of a torn (incomplete) final record that was dropped.
    /// A torn tail is a crash artifact, not corruption: the write was
    /// never acknowledged.
    pub torn: Option<u64>,
    /// Corruption detected partway through: acknowledged bytes that no
    /// longer verify. `replay` holds the records before the damage; the
    /// caller decides whether to surface the error or salvage the prefix.
    pub corruption: Option<DapError>,
}

impl JournalState {
    /// Whether the journal bytes held any damage (torn tail or
    /// corruption) that compaction must clear before appends can resume.
    pub fn damaged(&self) -> bool {
        self.torn.is_some() || self.corruption.is_some()
    }
}

/// Scan outcome for the raw journal bytes, before checkpoint reconciliation.
struct RawScan {
    /// `None` for an empty (or torn-header) journal that needs initializing.
    epoch: Option<u64>,
    records: Vec<(u64, Vec<u8>)>,
    /// Offset just past the last intact record — where appends may resume
    /// once any trailing damage is cleared.
    valid_len: u64,
    torn: Option<u64>,
    corruption: Option<DapError>,
}

fn header_bytes(epoch: u64) -> Vec<u8> {
    format!("{JOURNAL_MAGIC} {}\n", codec::hex_u64(epoch)).into_bytes()
}

fn scan_journal(bytes: &[u8]) -> RawScan {
    let mut scan = RawScan {
        epoch: None,
        records: Vec::new(),
        valid_len: 0,
        torn: None,
        corruption: None,
    };
    if bytes.is_empty() {
        return scan;
    }
    // Header line. A file shorter than a full header that is a byte-wise
    // prefix of a valid one is a torn header (crash during creation) and
    // reads as an empty journal; anything else up front is corruption.
    // The fixed part of a header (magic + " 0x") is derived as the common
    // prefix of the two extreme epochs' headers, and the length bound
    // from the headers themselves (`hex_u64` is fixed-width, so every
    // epoch's header is the same length) — no literal offsets to drift.
    let zero = header_bytes(0);
    let max = header_bytes(u64::MAX);
    let fixed = zero.iter().zip(max.iter()).take_while(|(a, b)| a == b).count();
    let max_header = zero.len().max(max.len());
    let nl = bytes.iter().position(|&b| b == b'\n');
    let header_end = match nl {
        Some(p) => p,
        None => {
            let is_prefix = bytes.len() < max_header
                && bytes.iter().zip(zero.iter()).take(fixed).all(|(a, b)| a == b)
                && bytes.iter().skip(fixed).all(|b| b.is_ascii_hexdigit());
            if is_prefix {
                scan.torn = Some(0);
            } else {
                scan.corruption = Some(journal_err(0, "journal header is unreadable"));
            }
            return scan;
        }
    };
    let header = std::str::from_utf8(&bytes[..header_end]).unwrap_or("");
    let mut words = header.split_whitespace();
    let epoch = match (words.next(), words.next().map(codec::parse_hex_u64), words.next()) {
        (Some(JOURNAL_MAGIC), Some(Ok(e)), None) => e,
        _ => {
            scan.corruption =
                Some(journal_err(0, format!("bad journal header '{header}'")));
            return scan;
        }
    };
    scan.epoch = Some(epoch);
    scan.valid_len = (header_end + 1) as u64;

    // Records: [u32 len][u64 digest][payload], big-endian prefixes.
    let mut off = header_end + 1;
    while off < bytes.len() {
        let rest = bytes.len() - off;
        if rest < 12 {
            scan.torn = Some(off as u64);
            return scan;
        }
        let len =
            u32::from_be_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD {
            scan.corruption = Some(journal_err(
                off as u64,
                format!("record length {len} exceeds the {MAX_RECORD}-byte cap"),
            ));
            return scan;
        }
        if rest < 12 + len {
            // Could also be a flipped length byte on the final record —
            // indistinguishable from a mid-write crash (module docs).
            scan.torn = Some(off as u64);
            return scan;
        }
        let digest =
            u64::from_be_bytes(bytes[off + 4..off + 12].try_into().expect("8 bytes"));
        let payload = &bytes[off + 12..off + 12 + len];
        if payload_digest(payload) != digest {
            scan.corruption = Some(journal_err(off as u64, "record digest mismatch"));
            return scan;
        }
        scan.records.push((off as u64, payload.to_vec()));
        off += 12 + len;
        scan.valid_len = off as u64;
    }
    scan
}

/// Parsed checkpoint envelope.
struct CheckpointEnvelope {
    epoch: u64,
    covered: u64,
    payload: Vec<u8>,
}

fn encode_checkpoint(epoch: u64, covered: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{CHECKPOINT_MAGIC} {} {} {}\n",
        codec::hex_u64(epoch),
        codec::hex_u64(covered),
        codec::hex_u64(payload_digest(payload)),
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointEnvelope, DapError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| journal_err(0, "checkpoint envelope is unreadable"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| journal_err(0, "checkpoint header is not UTF-8"))?;
    let mut words = header.split_whitespace();
    let bad = || journal_err(0, format!("bad checkpoint header '{header}'"));
    match (
        words.next(),
        words.next().map(codec::parse_hex_u64),
        words.next().map(codec::parse_hex_u64),
        words.next().map(codec::parse_hex_u64),
        words.next(),
    ) {
        (Some(CHECKPOINT_MAGIC), Some(Ok(epoch)), Some(Ok(covered)), Some(Ok(digest)), None) => {
            // Compaction never writes the last epoch: the journal after it
            // would have none to start (see `Journal::compact`).
            if epoch == u64::MAX {
                return Err(journal_err(0, "checkpoint epoch has no successor"));
            }
            let payload = bytes[nl + 1..].to_vec();
            if payload_digest(&payload) != digest {
                return Err(journal_err(0, "checkpoint payload digest mismatch"));
            }
            Ok(CheckpointEnvelope { epoch, covered, payload })
        }
        _ => Err(bad()),
    }
}

/// Record framing and crash-safe compaction over a [`StorageBackend`].
///
/// The journal hands back *payload bytes*; what they mean is the caller's
/// contract ([`DurableSession`] stores `dap-wire/v1` frames; the bench
/// crate's shard journal stores cell results). See the module docs for
/// the byte format and the epoch scheme.
#[derive(Debug)]
pub struct Journal<B> {
    backend: B,
    epoch: u64,
    records: usize,
    len: u64,
    damaged: bool,
}

impl<B: StorageBackend> Journal<B> {
    /// Opens a journal over `backend`, initializing the header if the
    /// journal is empty, and reconciling it with the checkpoint slot.
    ///
    /// Damage never fails the open: a torn tail or corruption comes back
    /// in the [`JournalState`] with the valid prefix, and the journal
    /// refuses appends until [`Journal::compact`] clears the damaged
    /// bytes. Only backend I/O failures and an epoch disagreement that
    /// admits no consistent interpretation are hard errors.
    pub fn open(mut backend: B) -> Result<(Journal<B>, JournalState), DapError> {
        let checkpoint = match backend.load_checkpoint()? {
            Some(bytes) => Some(decode_checkpoint(&bytes)?),
            None => None,
        };
        let bytes = backend.read_journal()?;
        let scan = scan_journal(&bytes);
        let mut state = JournalState {
            checkpoint: None,
            replay: Vec::new(),
            torn: scan.torn,
            corruption: scan.corruption,
        };

        let epoch = match scan.epoch {
            Some(e) => e,
            None if state.corruption.is_some() => {
                // Unreadable header on a non-empty journal: acknowledged
                // records may sit past the damage, unscanned. Truncating
                // here would destroy them before the caller ever sees the
                // typed corruption — leave every byte as found and refuse
                // appends until a compaction (an explicit salvage
                // decision) clears the damage.
                checkpoint.as_ref().map(|c| c.epoch + 1).unwrap_or(0)
            }
            None => {
                // Fresh (or torn-header) journal: start one epoch past the
                // checkpoint so its records are never mistaken for ones
                // the checkpoint already covers.
                let e = checkpoint.as_ref().map(|c| c.epoch + 1).unwrap_or(0);
                if !bytes.is_empty() {
                    backend.truncate()?;
                }
                backend.append(&header_bytes(e))?;
                state.torn = None; // cleared by the re-init
                e
            }
        };

        // Intact records physically present this epoch — what a
        // compaction performed now would declare as covered.
        let on_disk_records = scan.records.len();
        let len = match scan.epoch {
            Some(_) => scan.valid_len,
            None if state.corruption.is_some() => bytes.len() as u64,
            None => header_bytes(epoch).len() as u64,
        };

        let mut records = scan.records;
        match &checkpoint {
            None => state.replay = records,
            Some(c) if epoch == c.epoch => {
                // Crash window between checkpoint write and truncation:
                // the journal still holds the records the checkpoint
                // absorbed. Replay only the tail past its coverage. (A
                // journal shorter than the coverage means the covered
                // range itself is damaged — the checkpoint alone is then
                // the best reconstruction, and the scan already carries
                // the corruption.)
                let covered = (c.covered as usize).min(records.len());
                state.replay = records.split_off(covered);
            }
            Some(c) if epoch == c.epoch + 1 => state.replay = records,
            Some(c) => {
                return Err(journal_err(
                    0,
                    format!(
                        "journal epoch {} does not follow checkpoint epoch {}",
                        epoch, c.epoch
                    ),
                ));
            }
        }
        state.checkpoint = checkpoint.map(|c| c.payload);

        let journal = Journal {
            backend,
            epoch,
            records: on_disk_records,
            len,
            damaged: state.damaged(),
        };
        Ok((journal, state))
    }

    /// Appends one record (framing + digest around `payload`).
    ///
    /// Refused while the journal carries damaged bytes — compact first.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DapError> {
        if self.damaged {
            return Err(journal_err(
                self.len,
                "journal has a damaged tail; compact before appending",
            ));
        }
        if payload.len() > MAX_RECORD {
            return Err(journal_err(
                self.len,
                format!("record of {} bytes exceeds the {MAX_RECORD}-byte cap", payload.len()),
            ));
        }
        let mut record = Vec::with_capacity(12 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        record.extend_from_slice(&payload_digest(payload).to_be_bytes());
        record.extend_from_slice(payload);
        self.backend.append(&record)?;
        self.records += 1;
        self.len += record.len() as u64;
        Ok(())
    }

    /// Compacts the journal: writes `checkpoint_payload` into the
    /// checkpoint slot (covering every record currently journaled), then
    /// truncates and starts the next epoch. Crash-safe: interrupted
    /// anywhere, the next [`Journal::open`] reconstructs the same state.
    pub fn compact(&mut self, checkpoint_payload: &[u8]) -> Result<(), DapError> {
        let next = self
            .epoch
            .checked_add(1)
            .ok_or_else(|| journal_err(self.len, "journal epochs are exhausted"))?;
        self.backend
            .write_checkpoint(&encode_checkpoint(self.epoch, self.records as u64, checkpoint_payload))?;
        self.backend.truncate()?;
        self.epoch = next;
        let header = header_bytes(self.epoch);
        self.backend.append(&header)?;
        self.records = 0;
        self.len = header.len() as u64;
        self.damaged = false;
        Ok(())
    }

    /// Records appended this epoch (what a compaction would cover).
    pub fn records(&self) -> usize {
        self.records
    }

    /// The journal's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Journal size in bytes, header included — where the next record
    /// starts, and the offsets the fault-injection sweep enumerates.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// [`StorageBackend::defer_appends`] on the wrapped backend.
    pub fn defer_appends(&mut self) {
        self.backend.defer_appends();
    }

    /// [`StorageBackend::commit_appends`] on the wrapped backend.
    pub fn commit_appends(&mut self) -> Result<(), DapError> {
        self.backend.commit_appends()
    }

    /// The wrapped backend.
    pub fn into_backend(self) -> B {
        self.backend
    }
}

// ---------------------------------------------------------------------------
// Durable sessions
// ---------------------------------------------------------------------------

/// Durability knobs for [`DurableSession::open`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// Compact (checkpoint + truncate) once the journal holds this many
    /// records. `0` disables automatic checkpoints; call
    /// [`DurableSession::checkpoint`] explicitly.
    pub checkpoint_every: usize,
    /// Recover past corruption by keeping the valid prefix instead of
    /// failing with the typed [`DapError::Journal`]. Off by default:
    /// corruption means acknowledged data was damaged, and silently
    /// dropping it should be a deliberate operator decision.
    pub salvage: bool,
}

/// What [`DurableSession::open`] recovered from the backend.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Whether a checkpoint was restored.
    pub from_checkpoint: bool,
    /// Journal records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Byte offset of a dropped torn final record, if any.
    pub torn: Option<u64>,
    /// The corruption that was salvaged past, if
    /// [`DurableOptions::salvage`] was set and damage was found.
    pub salvaged: Option<String>,
}

/// A [`DapSession`] with write-ahead durability (see the module docs).
///
/// Every mutation follows validate → append → apply: an operation is
/// acknowledged only after its record is in the journal, and a record is
/// only ever written for an operation the session will accept — so a
/// session recovered from the backend is bit-identical
/// ([`DapSession::content_digest`]) to the crashed one, at every record
/// boundary.
#[derive(Debug)]
pub struct DurableSession<M, B: StorageBackend> {
    session: DapSession<M>,
    journal: Journal<B>,
    checkpoint_every: usize,
    /// Records appended since open (monotonic — compaction does not reset
    /// it), surfaced in the `status` observability counters.
    records_appended: u64,
    /// Checkpoints taken since open, surfaced alongside.
    checkpoints_taken: u64,
}

impl<M: NumericMechanism, B: StorageBackend> DurableSession<M, B> {
    /// Wraps a freshly-built session of the deployment, recovering any
    /// state the backend holds (checkpoint + journal tail) into it.
    ///
    /// `session` must not have ingested anything — recovery replays into
    /// it, and pre-existing state would double-count. A checkpoint or
    /// record from a *different* deployment (digest mismatch) is a typed
    /// [`DapError::Journal`].
    pub fn open(
        session: DapSession<M>,
        backend: B,
        opts: DurableOptions,
    ) -> Result<(Self, Recovery), DapError> {
        if (0..session.group_count()).any(|g| session.ingested(g) != 0)
            || session.shares_applied() != 0
        {
            return Err(journal_err(0, "recovery requires a fresh session"));
        }
        let mut session = session;
        let (journal, state) = Journal::open(backend)?;
        let mut recovery = Recovery { torn: state.torn, ..Recovery::default() };
        if let Some(corruption) = &state.corruption {
            if !opts.salvage {
                return Err(corruption.clone());
            }
            recovery.salvaged = Some(corruption.to_string());
        }
        if let Some(payload) = &state.checkpoint {
            apply_checkpoint(&mut session, payload)
                .map_err(|e| journal_err(0, format!("checkpoint does not apply: {e}")))?;
            recovery.from_checkpoint = true;
        }
        for (off, payload) in &state.replay {
            apply_record(&mut session, payload)
                .map_err(|e| journal_err(*off, format!("replay failed: {e}")))?;
            recovery.replayed += 1;
        }
        let mut durable = DurableSession {
            session,
            journal,
            checkpoint_every: opts.checkpoint_every,
            records_appended: 0,
            checkpoints_taken: 0,
        };
        // Damaged tails (and salvaged corruption) must be cleared before
        // appends can resume; fold the recovered state into a checkpoint.
        if state.damaged() {
            durable.checkpoint()?;
        }
        Ok((durable, recovery))
    }

    /// Appends one record: a frame body. Batches write theirs straight
    /// from the borrowed slice, with the writer [`encode_frame`] uses.
    fn append_record(&mut self, record: &str) -> Result<(), DapError> {
        self.journal.append(record.as_bytes())?;
        self.records_appended += 1;
        Ok(())
    }

    /// Write-ahead [`DapSession::ingest`]. Like the batch and share paths
    /// below, it validates once, before the append, and then applies
    /// without a second check: a failed append leaves the session as it
    /// was.
    pub fn ingest(&mut self, group: usize, report: f64) -> Result<(), DapError> {
        self.session.check_ingest_batch(group, &[report])?;
        self.append_record(&encode_frame(&Frame::Ingest { group, report }))?;
        self.session.apply_batch(group, &[report]);
        self.maybe_checkpoint()
    }

    /// Write-ahead [`DapSession::ingest_batch`].
    pub fn ingest_batch(&mut self, group: usize, reports: &[f64]) -> Result<(), DapError> {
        self.session.check_ingest_batch(group, reports)?;
        let mut record = String::new();
        push_ingest_batch(&mut record, group, reports);
        self.append_record(&record)?;
        self.session.apply_batch(group, reports);
        self.maybe_checkpoint()
    }

    /// Write-ahead [`DapSession::ingest_batch_seq`].
    ///
    /// The replay guard runs in the *validate* step, so a duplicate or
    /// out-of-order batch is rejected typed without ever touching the
    /// journal — retried traffic costs no storage, and replaying the
    /// journal can never trip over its own dedup state.
    pub fn ingest_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), DapError> {
        self.session.check_ingest_batch_seq(channel, seq, group, reports)?;
        let mut record = String::new();
        push_seq_batch(&mut record, channel, seq, group, reports);
        self.append_record(&record)?;
        self.session.apply_batch_seq(channel, seq, group, reports);
        self.maybe_checkpoint()
    }

    /// Write-ahead [`DapSession::ingest_shares`]: the journal record is
    /// the `share-batch` frame itself, so a share server's log stores only
    /// masked words — a stolen journal reveals no plaintext report, which
    /// the secret-sharing tier's tests assert on the bytes.
    pub fn ingest_shares(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), DapError> {
        self.session.check_ingest_shares(channel, seq, group, counts)?;
        let mut record = String::new();
        push_share_batch(&mut record, channel, seq, group, counts);
        self.append_record(&record)?;
        self.session.apply_shares(channel, seq, group, counts);
        self.maybe_checkpoint()
    }

    /// [`DapSession::adopt_commitment`], not journaled: the commitment is
    /// re-announced by every masked `hello` and echoed by checkpoints
    /// ([`MaskedPart::commitment`]), so it needs no record of its own.
    pub fn adopt_commitment(&mut self, commitment: u64) -> Result<(), DapError> {
        self.session.adopt_commitment(commitment)
    }

    /// Write-ahead [`DapSession::merge_part`].
    pub fn merge_part(&mut self, part: &SessionPart) -> Result<(), DapError> {
        self.session.check_part(part)?;
        let mut record = String::new();
        push_merge(&mut record, part);
        self.append_record(&record)?;
        self.session.merge_part(part)?;
        self.maybe_checkpoint()
    }

    /// Compacts the journal into a checkpoint now: a `part` frame for a
    /// plain session, a `masked-part` frame for a masked one (shares and
    /// replay guard, never plaintext).
    pub fn checkpoint(&mut self) -> Result<(), DapError> {
        let payload = if self.session.secagg_role().is_some() {
            encode_frame(&Frame::MaskedPart { part: self.session.export_masked_part()? })
        } else {
            encode_frame(&Frame::Part { part: self.session.export_part() })
        };
        self.journal.compact(payload.as_bytes())?;
        self.checkpoints_taken += 1;
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<(), DapError> {
        if self.checkpoint_every > 0 && self.journal.records() >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The wrapped session (read-only; mutations must go through the
    /// journal).
    pub fn session(&self) -> &DapSession<M> {
        &self.session
    }

    /// The journal (epoch, record count, byte length — for inspection).
    pub fn journal(&self) -> &Journal<B> {
        &self.journal
    }

    /// Records appended since open (compaction does not reset this).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Checkpoints taken since open.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Enters group-commit mode (see [`StorageBackend::defer_appends`]):
    /// journal records buffer until [`DurableSession::commit_acks`], which
    /// makes them durable in one flush/fsync. The ingestion reactor
    /// brackets each coalesced batch with this pair and withholds every
    /// ack until the commit succeeds, so "acked implies recoverable"
    /// holds batch-wide.
    pub fn defer_acks(&mut self) {
        self.journal.defer_appends();
    }

    /// Leaves group-commit mode, forcing buffered records durable.
    pub fn commit_acks(&mut self) -> Result<(), DapError> {
        self.journal.commit_appends()
    }

    /// Tears the wrapper down into its parts (the backend keeps the
    /// journaled state; reopening it recovers the session).
    pub fn into_parts(self) -> (DapSession<M>, B) {
        (self.session, self.journal.into_backend())
    }
}

/// Restores a checkpoint payload into a fresh session: a `part` frame
/// merges as plaintext state, a `masked-part` frame as share state (the
/// session's mode guards reject a payload of the wrong kind typed).
fn apply_checkpoint<M: NumericMechanism>(
    session: &mut DapSession<M>,
    payload: &[u8],
) -> Result<(), DapError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| journal_err(0, "checkpoint payload is not UTF-8"))?;
    match decode_frame(text) {
        Ok(Frame::Part { part }) => session.merge_part(&part),
        Ok(Frame::MaskedPart { part }) => session.merge_masked_part(&part),
        Ok(other) => Err(journal_err(
            0,
            format!(
                "checkpoint payload holds a '{}' frame, expected 'part' or 'masked-part'",
                other.tag()
            ),
        )),
        Err(e) => Err(journal_err(0, format!("checkpoint payload is undecodable: {e}"))),
    }
}

/// Replays one journaled record into a session — the read half of the
/// write-ahead contract. Only the mutating frames are legal.
fn apply_record<M: NumericMechanism>(
    session: &mut DapSession<M>,
    payload: &[u8],
) -> Result<(), DapError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| journal_err(0, "record payload is not UTF-8"))?;
    let frame =
        decode_frame(text).map_err(|e| journal_err(0, format!("record is undecodable: {e}")))?;
    match frame {
        Frame::Ingest { group, report } => session.ingest(group, report),
        Frame::IngestBatch { group, reports } => session.ingest_batch(group, &reports),
        Frame::IngestBatchSeq { channel, seq, group, reports } => {
            session.ingest_batch_seq(channel, seq, group, &reports)
        }
        Frame::ShareBatch { channel, seq, group, counts } => {
            session.ingest_shares(channel, seq, group, &counts)
        }
        Frame::Merge { part } => session.merge_part(&part),
        other => Err(journal_err(
            0,
            format!("record holds a '{}' frame, which is not a mutation", other.tag()),
        )),
    }
}

impl<M, B> WireSession for DurableSession<M, B>
where
    M: NumericMechanism + Sync,
    B: StorageBackend,
{
    fn state_digest(&self) -> u64 {
        self.session.state_digest()
    }

    fn group_count(&self) -> usize {
        self.session.group_count()
    }

    fn ingest(&mut self, group: usize, report: f64) -> Result<(), DapError> {
        DurableSession::ingest(self, group, report)
    }

    fn ingest_batch(&mut self, group: usize, reports: &[f64]) -> Result<(), DapError> {
        DurableSession::ingest_batch(self, group, reports)
    }

    fn ingest_batch_seq(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        reports: &[f64],
    ) -> Result<(), DapError> {
        DurableSession::ingest_batch_seq(self, channel, seq, group, reports)
    }

    fn last_seq(&self, channel: u64) -> Option<u64> {
        self.session.last_seq(channel)
    }

    fn ingested_total(&self) -> usize {
        (0..self.session.group_count()).map(|g| self.session.ingested(g)).sum()
    }

    fn export_part(&self) -> SessionPart {
        self.session.export_part()
    }

    fn merge_part(&mut self, part: &SessionPart) -> Result<(), DapError> {
        DurableSession::merge_part(self, part)
    }

    fn finalize(&self, schemes: &[Scheme]) -> Result<Vec<DapOutput>, DapError> {
        self.session.finalize(schemes)
    }

    fn secagg_role(&self) -> Option<SecaggRole> {
        self.session.secagg_role()
    }

    fn adopt_commitment(&mut self, commitment: u64) -> Result<(), DapError> {
        DurableSession::adopt_commitment(self, commitment)
    }

    fn ingest_shares(
        &mut self,
        channel: u64,
        seq: u64,
        group: usize,
        counts: &[u64],
    ) -> Result<(), DapError> {
        DurableSession::ingest_shares(self, channel, seq, group, counts)
    }

    fn export_masked_part(&self) -> Result<MaskedPart, DapError> {
        self.session.export_masked_part()
    }

    fn status_counters(&self) -> StatusCounters {
        StatusCounters {
            masked: self.session.secagg_role().is_some(),
            channels: self.session.channel_count() as u64,
            shares: self.session.shares_applied(),
            journal_records: self.records_appended,
            checkpoints: self.checkpoints_taken,
            reactor: None,
        }
    }

    fn defer_acks(&mut self) {
        DurableSession::defer_acks(self);
    }

    fn commit_acks(&mut self) -> Result<(), DapError> {
        DurableSession::commit_acks(self)
    }
}

#[cfg(test)]
mod open_fuzz;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::GroupPlan;
    use crate::protocol::DapConfig;
    use dap_estimation::rng::seeded;
    use dap_ldp::PiecewiseMechanism;

    fn session(seed: u64) -> DapSession<PiecewiseMechanism> {
        let cfg = DapConfig { max_d_out: 32, ..DapConfig::paper_default(0.25, Scheme::Emf) };
        let plan = GroupPlan::build(400, cfg.eps, cfg.eps0, &mut seeded(seed));
        DapSession::new(cfg, plan, PiecewiseMechanism::new).expect("valid session")
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dap-storage-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_backend_round_trips() {
        let mut b = MemoryBackend::new();
        b.append(b"abc").unwrap();
        b.append(b"def").unwrap();
        assert_eq!(b.read_journal().unwrap(), b"abcdef");
        assert_eq!(b.load_checkpoint().unwrap(), None);
        b.write_checkpoint(b"ckpt").unwrap();
        assert_eq!(b.load_checkpoint().unwrap().unwrap(), b"ckpt");
        b.truncate().unwrap();
        assert!(b.read_journal().unwrap().is_empty());
        assert_eq!(b.load_checkpoint().unwrap().unwrap(), b"ckpt", "truncate spares the slot");
    }

    #[test]
    fn file_backend_round_trips_across_reopens() {
        let dir = tmpdir("file-roundtrip");
        {
            let mut b = FileBackend::open(&dir).unwrap();
            b.append(b"abc").unwrap();
            b.write_checkpoint(b"old").unwrap();
            b.write_checkpoint(b"new").unwrap();
        }
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read_journal().unwrap(), b"abc");
        assert_eq!(b.load_checkpoint().unwrap().unwrap(), b"new");
        b.append(b"def").unwrap();
        assert_eq!(b.read_journal().unwrap(), b"abcdef");
        b.truncate().unwrap();
        assert!(b.read_journal().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_appends_and_reopens() {
        let (mut j, state) = Journal::open(MemoryBackend::new()).unwrap();
        assert!(state.replay.is_empty() && state.checkpoint.is_none());
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        assert_eq!(j.records(), 2);
        let (j2, state) = Journal::open(j.into_backend()).unwrap();
        assert_eq!(
            state.replay.iter().map(|(_, p)| p.as_slice()).collect::<Vec<_>>(),
            vec![b"one".as_slice(), b"two".as_slice()]
        );
        assert_eq!(j2.records(), 2);
        assert!(!state.damaged());
    }

    #[test]
    fn compaction_is_crash_safe_in_every_window() {
        // Build a journal with 2 records, then a checkpoint, then 1 more.
        let (mut j, _) = Journal::open(MemoryBackend::new()).unwrap();
        j.append(b"a").unwrap();
        j.append(b"b").unwrap();
        j.compact(b"STATE-ab").unwrap();
        j.append(b"c").unwrap();
        let epoch = j.epoch();
        let backend = j.into_backend();

        // Normal reopen: checkpoint + tail.
        let (j2, state) = Journal::open(backend.clone()).unwrap();
        assert_eq!(state.checkpoint.as_deref(), Some(b"STATE-ab".as_slice()));
        assert_eq!(state.replay.len(), 1);
        assert_eq!(j2.epoch(), epoch);

        // Window 1 — crash after checkpoint write, before truncate: the
        // journal still holds the covered records.
        let mut w1 = backend.clone();
        let full = {
            // Rebuild the pre-truncate journal: header(epoch-1) + a + b.
            let (mut j, _) = Journal::open(MemoryBackend::new()).unwrap();
            j.append(b"a").unwrap();
            j.append(b"b").unwrap();
            j.into_backend()
        };
        w1.journal_bytes_mut().clear();
        w1.journal_bytes_mut().extend_from_slice(full.journal_bytes());
        let (_, state) = Journal::open(w1).unwrap();
        assert_eq!(state.checkpoint.as_deref(), Some(b"STATE-ab".as_slice()));
        assert!(state.replay.is_empty(), "covered records are not replayed");

        // Window 2 — crash after truncate, before the new header: empty
        // journal, checkpoint present.
        let mut w2 = backend.clone();
        w2.journal_bytes_mut().clear();
        let (j, state) = Journal::open(w2).unwrap();
        assert_eq!(state.checkpoint.as_deref(), Some(b"STATE-ab".as_slice()));
        assert!(state.replay.is_empty());
        assert_eq!(j.epoch(), epoch, "re-initialized one past the checkpoint epoch");
    }

    #[test]
    fn the_last_epoch_is_refused_typed() {
        // No compaction writes a checkpoint at the last epoch, since the
        // journal after it would have none to start.
        let mut backend = MemoryBackend::new();
        backend.write_checkpoint(&encode_checkpoint(u64::MAX, 0, b"state")).unwrap();
        let err = Journal::open(backend).unwrap_err();
        assert!(err.to_string().contains("no successor"), "{err}");
        // A journal at the last epoch opens but cannot compact.
        let last = MemoryBackend::with_journal(header_bytes(u64::MAX));
        let (mut j, _) = Journal::open(last).unwrap();
        let err = j.compact(b"state").unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        assert_eq!(j.epoch(), u64::MAX);
    }

    #[test]
    fn torn_tail_is_tolerated_and_cleared_by_compaction() {
        let (mut j, _) = Journal::open(MemoryBackend::new()).unwrap();
        j.append(b"good").unwrap();
        j.append(b"lost").unwrap();
        let mut backend = j.into_backend();
        let cut = backend.journal_bytes().len() - 3;
        backend.journal_bytes_mut().truncate(cut);
        let (mut j, state) = Journal::open(backend).unwrap();
        assert_eq!(state.replay.len(), 1, "torn record dropped");
        assert!(state.torn.is_some());
        assert!(state.corruption.is_none(), "a torn tail is not corruption");
        // Appends refuse until the damage is compacted away.
        assert!(matches!(j.append(b"x"), Err(DapError::Journal { .. })));
        j.compact(b"STATE-good").unwrap();
        j.append(b"x").unwrap();
        let (_, state) = Journal::open(j.into_backend()).unwrap();
        assert!(!state.damaged());
        assert_eq!(state.replay.len(), 1);
    }

    #[test]
    fn flipped_bytes_are_typed_corruption() {
        let (mut j, _) = Journal::open(MemoryBackend::new()).unwrap();
        j.append(b"first-record").unwrap();
        j.append(b"second-record").unwrap();
        let header_len = header_bytes(0).len();
        for &victim in &[header_len + 14, header_len + 5] {
            let mut backend = j.into_backend();
            let saved = backend.journal_bytes()[victim];
            backend.journal_bytes_mut()[victim] ^= 0xff;
            let (_, state) = Journal::open(backend.clone()).unwrap();
            let err = state.corruption.clone().expect("flip detected");
            assert!(matches!(err, DapError::Journal { .. }), "{err}");
            // The valid prefix survives.
            assert!(state.replay.len() < 2);
            let mut restored = backend;
            restored.journal_bytes_mut()[victim] = saved;
            let (jj, state) = Journal::open(restored).unwrap();
            assert!(!state.damaged());
            assert_eq!(state.replay.len(), 2);
            j = jj;
        }
    }

    #[test]
    fn corrupt_header_never_truncates_acknowledged_records() {
        let (mut j, _) = Journal::open(MemoryBackend::new()).unwrap();
        j.append(b"precious").unwrap();
        let mut backend = j.into_backend();
        backend.journal_bytes_mut()[0] ^= 0xff; // damage the magic
        let before = backend.journal_bytes().to_vec();
        let (mut j, state) = Journal::open(backend).unwrap();
        let err = state.corruption.clone().expect("corrupt header detected");
        assert!(matches!(err, DapError::Journal { at: 0, .. }), "{err}");
        assert!(matches!(j.append(b"x"), Err(DapError::Journal { .. })), "appends refused");
        let backend = j.into_backend();
        assert_eq!(backend.journal_bytes(), before.as_slice(), "bytes left exactly as found");
        // Reopening reports the same corruption — nothing was silently
        // cleared between the first refusal and the second look.
        let (_, state) = Journal::open(backend).unwrap();
        assert!(state.corruption.is_some());
    }

    #[test]
    fn corrupt_header_on_disk_refuses_on_every_reopen() {
        let dir = tmpdir("corrupt-header");
        {
            let backend = FileBackend::open(&dir).unwrap();
            let (mut durable, _) =
                DurableSession::open(session(17), backend, DurableOptions::default()).unwrap();
            durable.ingest(0, 0.5).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // Every restart refuses with the typed error; none of them eats
        // the journal (the old failure mode: truncate on first open, then
        // serve clean-and-empty on the second).
        for _ in 0..2 {
            let backend = FileBackend::open(&dir).unwrap();
            let err = DurableSession::open(session(17), backend, DurableOptions::default())
                .unwrap_err();
            assert!(matches!(err, DapError::Journal { .. }), "{err}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "acknowledged bytes untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvaging_a_corrupt_header_compacts_to_a_clean_journal() {
        let (mut j, _) = Journal::open(MemoryBackend::new()).unwrap();
        j.append(b"unreachable").unwrap();
        let mut backend = j.into_backend();
        backend.journal_bytes_mut()[0] ^= 0xff;
        let (mut j, state) = Journal::open(backend).unwrap();
        assert!(state.corruption.is_some());
        assert!(state.replay.is_empty(), "records past a corrupt header are not scanned");
        // Compaction is the explicit salvage step: it clears the damaged
        // bytes and appends resume on the next epoch.
        j.compact(b"STATE").unwrap();
        j.append(b"fresh").unwrap();
        let (_, state) = Journal::open(j.into_backend()).unwrap();
        assert!(!state.damaged());
        assert_eq!(state.checkpoint.as_deref(), Some(b"STATE".as_slice()));
        assert_eq!(state.replay.len(), 1);
    }

    #[test]
    fn torn_header_is_torn_at_any_epoch() {
        // A mid-write crash on *any* epoch's header — epoch digits
        // included, which differ from epoch 0's zero padding — must read
        // as torn, not corruption.
        for epoch in [0u64, 0x10, u64::MAX] {
            let full = header_bytes(epoch);
            for cut in 1..full.len() {
                let backend = MemoryBackend::with_journal(full[..cut].to_vec());
                let (_, state) = Journal::open(backend).unwrap();
                assert!(
                    state.corruption.is_none(),
                    "epoch {epoch:#x} header cut at {cut} misread as corruption"
                );
                assert!(!state.damaged(), "torn header re-initializes clean");
            }
        }
    }

    #[test]
    fn sync_file_backend_round_trips() {
        let dir = tmpdir("file-sync");
        {
            let mut b = FileBackend::open_sync(&dir).unwrap();
            b.append(b"abc").unwrap();
        }
        let b = FileBackend::open_sync(&dir).unwrap();
        assert_eq!(b.read_journal().unwrap(), b"abc");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_backend_tears_writes_at_the_cut() {
        let mut b = FaultBackend::cut_at(MemoryBackend::new(), 5);
        b.append(b"abc").unwrap();
        let err = b.append(b"defg").unwrap_err();
        assert!(matches!(err, DapError::Journal { at: 5, .. }), "{err}");
        assert!(b.tripped());
        assert!(matches!(b.append(b"x"), Err(DapError::Journal { .. })));
        assert_eq!(b.into_inner().journal_bytes(), b"abcde", "prefix up to the cut persisted");
    }

    #[test]
    fn durable_session_survives_reopen_bit_for_bit() {
        let mut reference = session(9);
        let (mut durable, recovery) =
            DurableSession::open(session(9), MemoryBackend::new(), DurableOptions::default())
                .unwrap();
        assert_eq!(recovery.replayed, 0);
        for (i, op) in [(0usize, 0.5f64), (1, -0.25), (0, 0.125)].iter().enumerate() {
            durable.ingest(op.0, op.1).unwrap();
            reference.ingest(op.0, op.1).unwrap();
            assert_eq!(durable.journal().records(), i + 1);
        }
        durable.ingest_batch(2, &[0.75, -0.125]).unwrap();
        reference.ingest_batch(2, &[0.75, -0.125]).unwrap();
        let donor = {
            let mut d = session(9);
            d.ingest(2, 0.0625).unwrap();
            d
        };
        durable.merge_part(&donor.export_part()).unwrap();
        reference.merge_part(&donor.export_part()).unwrap();

        let (_, backend) = durable.into_parts();
        let (recovered, recovery) =
            DurableSession::open(session(9), backend, DurableOptions::default()).unwrap();
        assert_eq!(recovery.replayed, 5);
        assert!(!recovery.from_checkpoint);
        assert_eq!(recovered.session().content_digest(), reference.content_digest());
        assert_eq!(recovered.session().state_digest(), reference.state_digest());
        assert_eq!(recovered.session().export_part(), reference.export_part());
    }

    #[test]
    fn checkpoints_compact_and_recovery_still_matches() {
        let mut reference = session(10);
        let opts = DurableOptions { checkpoint_every: 3, salvage: false };
        let (mut durable, _) =
            DurableSession::open(session(10), MemoryBackend::new(), opts).unwrap();
        for i in 0..10 {
            let v = (i as f64) / 20.0 - 0.2;
            durable.ingest(i % 3, v).unwrap();
            reference.ingest(i % 3, v).unwrap();
        }
        // 10 ingests at cadence 3 → compactions happened; the journal is
        // shorter than the full history.
        assert!(durable.journal().records() < 10);
        let (_, backend) = durable.into_parts();
        let (recovered, recovery) = DurableSession::open(session(10), backend, opts).unwrap();
        assert!(recovery.from_checkpoint);
        assert!(recovery.replayed < 10);
        assert_eq!(recovered.session().content_digest(), reference.content_digest());
    }

    #[test]
    fn sequenced_ingest_recovers_the_replay_guard() {
        let (mut durable, _) =
            DurableSession::open(session(21), MemoryBackend::new(), DurableOptions::default())
                .unwrap();
        durable.ingest_batch_seq(0xfeed, 1, 0, &[0.5, -0.25]).unwrap();
        durable.ingest_batch_seq(0xfeed, 2, 1, &[0.125]).unwrap();
        durable.ingest_batch_seq(0xbeef, 1, 0, &[0.0625]).unwrap();
        // A retry is refused typed and never journaled.
        let err = durable.ingest_batch_seq(0xfeed, 2, 1, &[0.125]).unwrap_err();
        assert!(matches!(err, DapError::DuplicateSequence { seq: 2, last: 2, .. }), "{err}");
        assert_eq!(durable.journal().records(), 3, "the duplicate cost no storage");
        let reference = durable.session().content_digest();

        // Crash (drop) and recover: the guard comes back with the data.
        let (_, backend) = durable.into_parts();
        let (mut recovered, recovery) =
            DurableSession::open(session(21), backend, DurableOptions::default()).unwrap();
        assert_eq!(recovery.replayed, 3);
        assert_eq!(recovered.session().content_digest(), reference);
        assert_eq!(recovered.session().last_seq(0xfeed), Some(2));
        assert_eq!(recovered.session().last_seq(0xbeef), Some(1));
        // The recovered session still refuses the retry...
        let err = recovered.ingest_batch_seq(0xfeed, 2, 1, &[0.125]).unwrap_err();
        assert!(matches!(err, DapError::DuplicateSequence { .. }), "{err}");
        // ...and still accepts the next sequence.
        recovered.ingest_batch_seq(0xfeed, 3, 1, &[0.25]).unwrap();
    }

    #[test]
    fn checkpoints_carry_the_replay_guard() {
        // checkpoint_every = 1: every batch compacts, so recovery comes
        // entirely from the checkpoint part — which must carry channels.
        const CH: u64 = 0x5e9;
        let opts = DurableOptions { checkpoint_every: 1, salvage: false };
        let (mut durable, _) =
            DurableSession::open(session(22), MemoryBackend::new(), opts).unwrap();
        durable.ingest_batch_seq(CH, 1, 0, &[0.5]).unwrap();
        durable.ingest_batch_seq(CH, 2, 0, &[-0.5]).unwrap();
        assert_eq!(durable.journal().records(), 0, "everything compacted");
        let (_, backend) = durable.into_parts();
        let (mut recovered, recovery) =
            DurableSession::open(session(22), backend, opts).unwrap();
        assert!(recovery.from_checkpoint);
        assert_eq!(recovery.replayed, 0);
        assert_eq!(recovered.session().last_seq(CH), Some(2));
        let err = recovered.ingest_batch_seq(CH, 1, 0, &[0.5]).unwrap_err();
        assert!(matches!(err, DapError::DuplicateSequence { .. }), "{err}");
    }

    #[test]
    fn rejected_operations_never_reach_the_journal() {
        let (mut durable, _) =
            DurableSession::open(session(11), MemoryBackend::new(), DurableOptions::default())
                .unwrap();
        assert!(durable.ingest(0, 1e9).is_err(), "out of range");
        assert!(durable.ingest(99, 0.0).is_err(), "unknown group");
        let quota = durable.session().quota(0);
        assert!(durable.ingest_batch(0, &vec![0.0; quota + 1]).is_err(), "over quota");
        assert_eq!(durable.journal().records(), 0, "no record for rejected traffic");
    }

    #[test]
    fn append_failure_leaves_session_state_untouched() {
        // Cut inside the first record: the append fails, the ingest is
        // not applied, and the session still matches a fresh one.
        let backend = FaultBackend::cut_at(MemoryBackend::new(), header_bytes(0).len() as u64 + 4);
        let (mut durable, _) =
            DurableSession::open(session(12), backend, DurableOptions::default()).unwrap();
        let err = durable.ingest(0, 0.5).unwrap_err();
        assert!(matches!(err, DapError::Journal { .. }), "{err}");
        assert_eq!(durable.session().content_digest(), session(12).content_digest());
    }

    #[test]
    fn a_checkpoint_with_impossible_values_is_refused_typed() {
        let (good, forgeries) = crate::session::tests::forged_parts();
        let (mut journal, _) = Journal::open(MemoryBackend::new()).unwrap();
        journal.compact(encode_frame(&Frame::Part { part: good }).as_bytes()).unwrap();
        let fresh = || crate::session::tests::session(0.25, 400, 22);
        let opened = DurableSession::open(fresh(), journal.into_backend(), Default::default());
        assert!(opened.is_ok(), "the honest checkpoint opens");
        for (label, forged) in forgeries {
            let (mut journal, _) = Journal::open(MemoryBackend::new()).unwrap();
            journal.compact(encode_frame(&Frame::Part { part: forged }).as_bytes()).unwrap();
            let err = DurableSession::open(fresh(), journal.into_backend(), Default::default())
                .err()
                .unwrap_or_else(|| panic!("a checkpoint with a {label} opened"));
            assert!(matches!(err, DapError::Journal { .. }), "{label}: {err}");
            assert!(err.to_string().contains("part histogram values"), "{label}: {err}");
        }
    }

    #[test]
    fn recovery_rejects_foreign_deployments() {
        let (mut durable, _) =
            DurableSession::open(session(13), MemoryBackend::new(), DurableOptions::default())
                .unwrap();
        durable.ingest(0, 0.5).unwrap();
        durable.checkpoint().unwrap();
        let (_, backend) = durable.into_parts();
        // A different plan seed is a different deployment.
        let err =
            DurableSession::open(session(14), backend, DurableOptions::default()).unwrap_err();
        assert!(matches!(err, DapError::Journal { .. }), "{err}");
        assert!(err.to_string().contains("checkpoint does not apply"), "{err}");
    }

    #[test]
    fn salvage_keeps_the_valid_prefix() {
        let (mut durable, _) =
            DurableSession::open(session(15), MemoryBackend::new(), DurableOptions::default())
                .unwrap();
        durable.ingest(0, 0.5).unwrap();
        let prefix_digest = durable.session().content_digest();
        durable.ingest(1, -0.5).unwrap();
        let (_, mut backend) = durable.into_parts();
        let last = backend.journal_bytes().len() - 1;
        backend.journal_bytes_mut()[last] ^= 0xff;

        // Default: typed corruption error.
        let err = DurableSession::open(session(15), backend.clone(), DurableOptions::default())
            .unwrap_err();
        assert!(matches!(err, DapError::Journal { .. }), "{err}");

        // Salvage: the valid prefix, bit-for-bit.
        let opts = DurableOptions { salvage: true, ..DurableOptions::default() };
        let (recovered, recovery) = DurableSession::open(session(15), backend, opts).unwrap();
        assert!(recovery.salvaged.is_some());
        assert_eq!(recovered.session().content_digest(), prefix_digest);
    }

    #[test]
    fn durable_session_over_files_survives_reopen() {
        let dir = tmpdir("durable-file");
        let mut reference = session(16);
        {
            let backend = FileBackend::open(&dir).unwrap();
            let (mut durable, _) =
                DurableSession::open(session(16), backend, DurableOptions::default()).unwrap();
            for i in 0..8 {
                let v = (i as f64) / 10.0 - 0.35;
                durable.ingest(i % 2, v).unwrap();
                reference.ingest(i % 2, v).unwrap();
            }
            // Dropped without shutdown: the journal is the only survivor.
        }
        let backend = FileBackend::open(&dir).unwrap();
        let (recovered, recovery) =
            DurableSession::open(session(16), backend, DurableOptions::default()).unwrap();
        assert_eq!(recovery.replayed, 8);
        assert_eq!(recovered.session().content_digest(), reference.content_digest());
        std::fs::remove_dir_all(&dir).ok();
    }
}
