//! Property suite: [`DurableSession::open`] on hostile storage bytes.
//!
//! A journal and a checkpoint slot come back from storage as bytes that
//! anything may have rewritten. Open must hand back the recovered session
//! or a typed [`DapError`], and never panic, with salvage off and on, for:
//!
//! * arbitrary bytes in the journal and in the checkpoint slot, sometimes
//!   behind a valid journal header;
//! * arbitrary payloads inside correctly framed and digested records and
//!   checkpoint envelopes, so the digest check cannot reject them before
//!   `apply_record` and `apply_checkpoint` decode them. A payload is random
//!   bytes, or the encoding of a frame of any kind (mostly mutations and
//!   checkpoints shaped like the target session's, with a few fields
//!   damaged), sometimes mutated after encoding.
//!
//! Both a plain session and a masked share server are targets. Salvage
//! only matters when there is corruption, so an open that succeeds without
//! it must succeed with it, into the same state.
//!
//! CI's `wire-fuzz` step runs this module in release mode with
//! `PROPTEST_CASES=5000`.

use super::*;
use crate::grouping::GroupPlan;
use crate::protocol::DapConfig;
use crate::secagg::MaskedGroup;
use crate::session::PartGroup;
use dap_estimation::rng::seeded;
use dap_ldp::PiecewiseMechanism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The masked target's share-server role.
const ROLE: SecaggRole = SecaggRole { k: 3, index: 1 };

/// A fresh session to recover into: a plain one or a masked share server
/// of the same deployment.
fn target(masked: bool) -> DapSession<PiecewiseMechanism> {
    let cfg = DapConfig { max_d_out: 16, ..DapConfig::paper_default(0.25, Scheme::Emf) };
    let plan = GroupPlan::build(60, cfg.eps, cfg.eps0, &mut seeded(7));
    let session = if masked {
        DapSession::new_masked(cfg, plan, PiecewiseMechanism::new, ROLE)
    } else {
        DapSession::new(cfg, plan, PiecewiseMechanism::new)
    };
    session.expect("valid session")
}

/// What a payload needs to know of the target to get past its first
/// checks: the deployment digest and each group's histogram resolution.
struct Shape {
    digest: u64,
    resolutions: Vec<usize>,
}

impl Shape {
    fn of(session: &DapSession<PiecewiseMechanism>) -> Shape {
        let part = session.export_part();
        let resolutions = part.groups.iter().map(|g| g.counts.len()).collect();
        Shape { digest: part.digest, resolutions }
    }
}

fn word(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..5u32) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => rng.gen_range(0..64u64),
        _ => rng.next_u64(),
    }
}

/// A count or length: small, near a quota, or absurd.
fn size(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..5u32) {
        0 => 0,
        1 => rng.gen_range(0..8usize),
        2 => rng.gen_range(0..400usize),
        3 => usize::MAX - rng.gen_range(0..4usize),
        _ => rng.next_u64() as usize,
    }
}

fn float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.gen_range(0..4usize)],
        1 => f64::from_bits(rng.next_u64()),
        2 => rng.gen_range(0..50u32) as f64,
        _ => rng.gen_range(-3.0..3.0),
    }
}

/// A group index: mostly a real one, sometimes one past the end or absurd.
fn group(rng: &mut StdRng, shape: &Shape) -> usize {
    match rng.gen_range(0..6u32) {
        0 => shape.resolutions.len(),
        1 => size(rng),
        _ => rng.gen_range(0..shape.resolutions.len()),
    }
}

/// A length that is usually `n` and sometimes off by some.
fn near(rng: &mut StdRng, n: usize) -> usize {
    match rng.gen_range(0..6u32) {
        0 => n + rng.gen_range(1..4usize),
        1 => n.saturating_sub(rng.gen_range(1..4usize)),
        _ => n,
    }
}

fn vec_of<T>(rng: &mut StdRng, len: usize, mut f: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..len).map(|_| f(rng)).collect()
}

fn channels(rng: &mut StdRng) -> Vec<(u64, u64)> {
    let n = rng.gen_range(0..4usize);
    vec_of(rng, n, |r| (word(r), word(r)))
}

/// A plain part shaped like the target's, with at most one field damaged.
fn part(rng: &mut StdRng, shape: &Shape) -> SessionPart {
    let mut part = SessionPart {
        digest: shape.digest,
        groups: shape
            .resolutions
            .iter()
            .map(|&buckets| {
                // A few reports, tallied, so that an undamaged part passes
                // the quota and value checks and merges.
                let counts = vec_of(rng, buckets, |r| f64::from(u8::from(r.gen_bool(0.05))));
                let n_reports = counts.iter().sum::<f64>() as usize;
                PartGroup { counts, sum_reports: rng.gen_range(-1.0..1.0), n_reports }
            })
            .collect(),
        channels: channels(rng),
    };
    let g = rng.gen_range(0..part.groups.len());
    match rng.gen_range(0..8u32) {
        0 => part.digest = word(rng),
        1 => {
            let n = near(rng, part.groups.len());
            part.groups.resize(n, part.groups[g].clone());
        }
        2 => {
            let n = near(rng, part.groups[g].counts.len());
            part.groups[g].counts.resize(n, 1.0);
        }
        3 => part.groups[g].n_reports = size(rng),
        4 => part.groups[g].sum_reports = float(rng),
        5 => {
            let counts = &mut part.groups[g].counts;
            let i = rng.gen_range(0..counts.len());
            counts[i] = float(rng);
        }
        _ => {}
    }
    part
}

/// A masked part shaped like the masked target's, with at most one field
/// damaged.
fn masked_part(rng: &mut StdRng, shape: &Shape) -> MaskedPart {
    let mut part = MaskedPart {
        digest: shape.digest,
        k: ROLE.k,
        index: ROLE.index,
        commitment: word(rng),
        groups: shape
            .resolutions
            .iter()
            .map(|&buckets| MaskedGroup { counts: vec_of(rng, buckets, word) })
            .collect(),
        channels: channels(rng),
    };
    let g = rng.gen_range(0..part.groups.len());
    match rng.gen_range(0..8u32) {
        0 => part.digest = word(rng),
        1 => part.k = size(rng),
        2 => part.index = size(rng),
        3 => {
            let n = near(rng, part.groups.len());
            part.groups.resize(n, part.groups[g].clone());
        }
        4 => {
            let n = near(rng, part.groups[g].counts.len());
            part.groups[g].counts.resize(n, 1);
        }
        _ => {}
    }
    part
}

/// Bytes drawn half from a frame-like alphabet, half uniformly.
fn bytes(rng: &mut StdRng) -> Vec<u8> {
    const ALPHABET: &[u8] = b" \n0123456789abcdefx-.partmergeingestbatchseqsharemasked";
    let len = rng.gen_range(0..300usize);
    vec_of(rng, len, |r| {
        if r.gen_bool(0.5) {
            ALPHABET[r.gen_range(0..ALPHABET.len())]
        } else {
            r.gen::<u32>() as u8
        }
    })
}

/// Truncates, overwrites, inserts or splices in a large token.
fn mutate(rng: &mut StdRng, body: &mut Vec<u8>) {
    let at = rng.gen_range(0..=body.len());
    match rng.gen_range(0..4u32) {
        0 => body.truncate(at),
        1 if at < body.len() => body[at] = rng.gen::<u32>() as u8,
        2 => body.insert(at, rng.gen::<u32>() as u8),
        _ => {
            let token: &[u8] = [&b" 18446744073709551615"[..], b" 0xffffffffffffffff", b"\n"]
                [rng.gen_range(0..3usize)];
            body.splice(at..at, token.iter().copied());
        }
    }
}

/// A record payload; see [`checkpoint_payload`] for the checkpoint slot.
fn payload(rng: &mut StdRng, shape: &Shape) -> Vec<u8> {
    if rng.gen_bool(0.2) {
        return bytes(rng);
    }
    let frame = match rng.gen_range(0..10u32) {
        0 => Frame::Ingest { group: group(rng, shape), report: float(rng) },
        1 => {
            let n = size(rng) % 24;
            Frame::IngestBatch { group: group(rng, shape), reports: vec_of(rng, n, float) }
        }
        2 => {
            let n = size(rng) % 24;
            Frame::IngestBatchSeq {
                channel: word(rng),
                seq: word(rng),
                group: group(rng, shape),
                reports: vec_of(rng, n, float),
            }
        }
        3 => {
            let g = group(rng, shape);
            let n = near(rng, shape.resolutions.get(g).copied().unwrap_or(4));
            Frame::ShareBatch {
                channel: word(rng),
                seq: word(rng),
                group: g,
                counts: vec_of(rng, n, word),
            }
        }
        4 | 5 => Frame::Merge { part: part(rng, shape) },
        6 => Frame::Part { part: part(rng, shape) },
        7 => Frame::MaskedPart { part: masked_part(rng, shape) },
        8 => Frame::Finalize { schemes: vec![Scheme::Emf] },
        _ => [Frame::Ok, Frame::Pull, Frame::MaskedPull, Frame::Status][rng.gen_range(0..4usize)]
            .clone(),
    };
    encoded(rng, &frame)
}

/// A checkpoint payload: mostly a part of the target's kind or the other,
/// otherwise any payload.
fn checkpoint_payload(rng: &mut StdRng, shape: &Shape) -> Vec<u8> {
    let frame = match rng.gen_range(0..4u32) {
        0 => Frame::Part { part: part(rng, shape) },
        1 => Frame::MaskedPart { part: masked_part(rng, shape) },
        _ => return payload(rng, shape),
    };
    encoded(rng, &frame)
}

/// `frame`'s body, sometimes mutated.
fn encoded(rng: &mut StdRng, frame: &Frame) -> Vec<u8> {
    let mut body = encode_frame(frame).into_bytes();
    if rng.gen_bool(0.3) {
        mutate(rng, &mut body);
    }
    body
}

/// Arbitrary bytes in both slots; the journal sometimes starts with a
/// valid header so its records get scanned.
fn raw_backend(rng: &mut StdRng) -> MemoryBackend {
    let mut journal = if rng.gen_bool(0.5) { header_bytes(word(rng)) } else { Vec::new() };
    journal.extend(bytes(rng));
    let mut backend = MemoryBackend::with_journal(journal);
    if rng.gen_bool(0.5) {
        backend.write_checkpoint(&bytes(rng)).expect("memory writes");
    }
    backend
}

/// Correctly framed and digested records and checkpoints around hostile
/// payloads, written through the journal itself; sometimes the checkpoint
/// envelope names an arbitrary epoch and coverage, and sometimes the tail
/// is torn.
fn framed_backend(rng: &mut StdRng, shape: &Shape) -> MemoryBackend {
    let (mut journal, _) = Journal::open(MemoryBackend::new()).expect("a fresh journal opens");
    for _ in 0..rng.gen_range(0..6u32) {
        if rng.gen_bool(0.15) {
            journal.compact(&checkpoint_payload(rng, shape)).expect("memory compacts");
        } else {
            journal.append(&payload(rng, shape)).expect("memory appends");
        }
    }
    let mut backend = journal.into_backend();
    if rng.gen_bool(0.2) {
        let envelope = encode_checkpoint(word(rng), word(rng), &checkpoint_payload(rng, shape));
        backend.write_checkpoint(&envelope).expect("memory writes");
    }
    if rng.gen_bool(0.2) {
        let cut = rng.gen_range(0..=backend.journal_bytes().len());
        backend.journal_bytes_mut().truncate(cut);
    }
    backend
}

proptest! {
    /// Open returns a session or a typed error on hostile storage, with
    /// salvage off and on, and salvage changes nothing when it succeeds
    /// without it.
    #[test]
    fn open_survives_hostile_storage(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let masked = rng.gen_bool(0.5);
        let shape = Shape::of(&target(false));
        let backend = if rng.gen_bool(0.3) {
            raw_backend(&mut rng)
        } else {
            framed_backend(&mut rng, &shape)
        };
        let mut recovered = Vec::new();
        for salvage in [false, true] {
            let opts = DurableOptions { checkpoint_every: 0, salvage };
            let session = target(masked);
            let opened = catch_unwind(AssertUnwindSafe(|| {
                DurableSession::open(session, backend.clone(), opts)
            }));
            let Ok(opened) = opened else {
                panic!("open panicked (masked {masked}, salvage {salvage}) on {backend:?}");
            };
            recovered.push(opened.ok().map(|(durable, _)| durable.session().content_digest()));
        }
        if recovered[0].is_some() {
            prop_assert_eq!(recovered[0], recovered[1], "salvage changed a clean open");
        }
    }
}
