//! Property suites over the `dap-wire/v1` frame codec.
//!
//! * **Codec differential.** The table-driven hex writer, the canonical
//!   hex reader and the byte-cursor tokenizer must reproduce the plain
//!   implementations they replaced ([`codec::reference`]: `format!`,
//!   `u64::from_str_radix`, `str::split_whitespace`) exactly: the same
//!   [`encode_frame`] bytes for random frames of every variant, and the
//!   same [`decode_frame`] outcome — frame, vector capacities, or error
//!   with its reason string — for those bodies and for mutated ones
//!   (Unicode separators, uppercase, short, signed, 17- and 19-digit hex
//!   tokens, truncation, stray chars).
//! * **Decoder properties.** Arbitrary bytes and arbitrary length
//!   prefixes fed to [`decode_frame`] and [`read_frame_sized`] give a
//!   frame or a typed [`WireError`], never a panic, and no vector in a
//!   decoded frame has more capacity than its body can encode.
//! * **Goldens.** The exact bytes of one `seq-batch` frame and of its
//!   journal record, so a codec change cannot move either format
//!   silently.
//!
//! CI's `wire-fuzz` step runs this module in release mode with
//! `PROPTEST_CASES=5000`.

use super::*;
use crate::codec::reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Frame variants [`frame`] draws from, one per [`Frame`] variant.
const VARIANTS: usize = 20;

/// A u64 from the shapes that stress hex: zero, all ones, short values
/// (leading zeros), f64 specials' bit patterns, and uniform words.
fn word(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..6u32) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.gen_range(0..4096u64),
        3 => [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 5e-324, -1.5]
            [rng.gen_range(0..6usize)]
        .to_bits(),
        _ => rng.next_u64(),
    }
}

fn float(rng: &mut StdRng) -> f64 {
    f64::from_bits(word(rng))
}

fn small(rng: &mut StdRng) -> usize {
    rng.gen_range(0..5usize)
}

/// A count or sequence number as the wire carries them (decimal).
fn count(rng: &mut StdRng) -> usize {
    if rng.gen_bool(0.8) {
        rng.gen_range(0..1000usize)
    } else {
        usize::MAX
    }
}

/// Free text for the error kinds that carry a message after the header
/// line: any chars, newlines and Unicode separators included.
fn text(rng: &mut StdRng) -> String {
    const CHARS: [char; 12] =
        ['a', 'Z', '0', ' ', '\n', '\t', '\u{b}', '\u{85}', '\u{a0}', '\u{3000}', 'é', '"'];
    (0..rng.gen_range(0..24usize)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

fn option<T>(rng: &mut StdRng, f: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| f(rng))
}

fn vec_of<T>(rng: &mut StdRng, len: usize, mut f: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..len).map(|_| f(rng)).collect()
}

fn channels(rng: &mut StdRng) -> Vec<(u64, u64)> {
    let n = small(rng);
    vec_of(rng, n, |r| (word(r), r.gen_range(0..1u64 << 40)))
}

fn part(rng: &mut StdRng) -> SessionPart {
    let n = small(rng);
    SessionPart {
        digest: word(rng),
        groups: vec_of(rng, n, |r| {
            let buckets = r.gen_range(0..8usize);
            PartGroup {
                counts: vec_of(r, buckets, float),
                sum_reports: float(r),
                n_reports: count(r),
            }
        }),
        channels: channels(rng),
    }
}

fn masked_part(rng: &mut StdRng) -> MaskedPart {
    let n = small(rng);
    MaskedPart {
        digest: word(rng),
        k: small(rng),
        index: small(rng),
        commitment: word(rng),
        groups: vec_of(rng, n, |r| {
            let buckets = r.gen_range(0..8usize);
            MaskedGroup { counts: vec_of(r, buckets, word) }
        }),
        channels: channels(rng),
    }
}

fn output(rng: &mut StdRng) -> DapOutput {
    let n = small(rng);
    DapOutput {
        mean: float(rng),
        side: if rng.gen_bool(0.5) { Side::Left } else { Side::Right },
        gamma: float(rng),
        min_variance: float(rng),
        groups: vec_of(rng, n, |r| GroupReport {
            eps_t: float(r),
            n_reports: count(r),
            mean_t: float(r),
            m_hat: float(r),
            n_hat: float(r),
            weight: float(r),
        }),
    }
}

fn error(rng: &mut StdRng) -> WireError {
    match rng.gen_range(0..16u32) {
        0 => WireError::Rejected(DapError::ReportOutOfRange {
            group: count(rng),
            report: float(rng),
            lo: float(rng),
            hi: float(rng),
        }),
        1 => WireError::Rejected(DapError::QuotaExceeded {
            group: count(rng),
            quota: count(rng),
            ingested: count(rng),
            attempted: count(rng),
        }),
        2 => WireError::Rejected(DapError::UnknownGroup { group: count(rng), groups: count(rng) }),
        3 => WireError::Rejected(DapError::DuplicateSequence {
            channel: word(rng),
            seq: word(rng),
            last: word(rng),
        }),
        4 => WireError::Rejected(DapError::SequenceGap {
            channel: word(rng),
            seq: word(rng),
            expected: word(rng),
        }),
        5 => WireError::Rejected(DapError::ModeMismatch { masked: rng.gen_bool(0.5) }),
        6 => WireError::Rejected(DapError::SessionMismatch {
            what: DapError::MISMATCH_FIELDS[rng.gen_range(0..DapError::MISMATCH_FIELDS.len())],
        }),
        7 => WireError::VersionMismatch {
            client: "dap-wire/v0".into(),
            server: WIRE_VERSION.into(),
        },
        8 => WireError::DigestMismatch { client: word(rng), server: word(rng) },
        9 => WireError::Unsupported { what: text(rng) },
        10 => WireError::Unauthorized { what: text(rng) },
        11 => WireError::BadFrame { reason: text(rng) },
        12 => WireError::Failed { message: text(rng) },
        13 => WireError::Timeout { what: text(rng) },
        14 => WireError::Throttled { retry_after_ms: word(rng) },
        _ => WireError::Io { message: text(rng) },
    }
}

/// A random frame of variant `variant` (`0..VARIANTS`).
fn frame(rng: &mut StdRng, variant: usize) -> Frame {
    match variant {
        0 => Frame::Hello {
            version: if rng.gen_bool(0.8) { WIRE_VERSION.into() } else { "dap-wire/v0".into() },
            digest: word(rng),
            channel: option(rng, word),
            auth: option(rng, word),
            commit: option(rng, word),
        },
        1 => Frame::HelloOk {
            digest: word(rng),
            groups: count(rng),
            last_seq: option(rng, word),
            secagg: option(rng, |r| (small(r), small(r))),
        },
        2 => Frame::Ingest { group: count(rng), report: float(rng) },
        3 => {
            let n = rng.gen_range(0..40usize);
            Frame::IngestBatch { group: count(rng), reports: vec_of(rng, n, float) }
        }
        4 => {
            let n = rng.gen_range(0..40usize);
            Frame::IngestBatchSeq {
                channel: word(rng),
                seq: word(rng),
                group: count(rng),
                reports: vec_of(rng, n, float),
            }
        }
        5 => Frame::Status,
        6 => {
            let n = rng.gen_range(0..40usize);
            Frame::ShareBatch {
                channel: word(rng),
                seq: word(rng),
                group: count(rng),
                counts: vec_of(rng, n, word),
            }
        }
        7 => Frame::MaskedPull,
        8 => Frame::MaskedPart { part: masked_part(rng) },
        9 => Frame::StatusOk {
            digest: word(rng),
            groups: count(rng),
            ingested: count(rng),
            counters: option(rng, |r| StatusCounters {
                masked: r.gen_bool(0.5),
                channels: word(r),
                shares: word(r),
                journal_records: word(r),
                checkpoints: word(r),
                reactor: option(r, |r| ReactorCounters {
                    queue_depth: word(r),
                    queued_bytes: word(r),
                    active_connections: word(r),
                    peak_connections: word(r),
                    throttled: word(r),
                }),
            }),
        },
        10 => Frame::Ok,
        11 => Frame::Pull,
        12 => Frame::Part { part: part(rng) },
        13 => Frame::Merge { part: part(rng) },
        14 => {
            let n = small(rng);
            Frame::Finalize { schemes: vec_of(rng, n, |r| Scheme::ALL[r.gen_range(0..3usize)]) }
        }
        15 => {
            let n = small(rng);
            Frame::Outputs { outputs: vec_of(rng, n, output) }
        }
        16 => Frame::RunShard {
            request: ShardRequest {
                experiment: ["fig7", "all", "table1"][rng.gen_range(0..3usize)].into(),
                n: count(rng),
                trials: count(rng),
                seed: word(rng),
                max_d_out: count(rng),
                index: small(rng),
                count: small(rng),
            },
        },
        17 => Frame::ShardResult { json: text(rng) },
        18 => Frame::Shutdown,
        _ => Frame::Error(error(rng)),
    }
}

/// Up to 200 uniformly random bytes.
fn bytes(rng: &mut StdRng) -> Vec<u8> {
    (0..rng.gen_range(0..200usize)).map(|_| rng.gen_range(0..=255u8)).collect()
}

/// Byte offsets of the `0x` hex tokens in `body`.
fn hex_tokens(body: &str) -> Vec<usize> {
    body.match_indices("0x").map(|(at, _)| at).collect()
}

/// A random char boundary of `body` (its length included).
fn boundary(rng: &mut StdRng, body: &str) -> usize {
    let at = rng.gen_range(0..=body.len());
    (at..=body.len()).find(|&i| body.is_char_boundary(i)).expect("the end is a boundary")
}

/// `body` with one random edit of a kind the fast paths must treat
/// exactly as the reference does.
fn mutate(rng: &mut StdRng, body: &mut String) {
    // Whitespace by `char::is_whitespace` (U+000B is, unlike for
    // `u8::is_ascii_whitespace`) and lookalikes that are not (U+001C,
    // U+200B).
    const SEPARATORS: [&str; 12] = [
        "\u{b}", "\u{85}", "\u{a0}", "\u{3000}", "\t", "\r", "\u{c}", "  ", "\u{1680}",
        "\u{2028}", "\u{1c}", "\u{200b}",
    ];
    let tokens = hex_tokens(body);
    let hex = |rng: &mut StdRng| tokens.get(rng.gen_range(0..tokens.len().max(1))).copied();
    match rng.gen_range(0..8u32) {
        0 => {
            let spaces: Vec<usize> = body.match_indices([' ', '\n']).map(|(at, _)| at).collect();
            if let Some(&at) = spaces.get(rng.gen_range(0..spaces.len().max(1))) {
                body.replace_range(at..at + 1, SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
            }
        }
        1 => {
            // Uppercase digits, or the prefix's `x`.
            if let Some(at) = hex(rng) {
                let end = (at + 18).min(body.len());
                let from = if rng.gen_bool(0.7) { at + 2 } else { at + 1 };
                if body.is_char_boundary(end) {
                    let upper = body[from..end].to_ascii_uppercase();
                    body.replace_range(from..end, &upper);
                }
            }
        }
        2 => {
            // Short hex: drop leading digits.
            if let Some(at) = hex(rng) {
                let drop = rng.gen_range(1..16usize);
                if body.is_char_boundary(at + 2 + drop) {
                    body.replace_range(at + 2..at + 2 + drop, "");
                }
            }
        }
        3 => {
            if let Some(at) = hex(rng) {
                let sign = ["+", "-"][rng.gen_range(0..2usize)];
                body.insert_str(at + 2, sign);
            }
        }
        4 => {
            // 19 digits (one more) or 17 (one fewer).
            if let Some(at) = hex(rng) {
                if rng.gen_bool(0.5) {
                    body.insert(at + 2, ['0', 'f'][rng.gen_range(0..2usize)]);
                } else if body.is_char_boundary(at + 3) {
                    body.remove(at + 2);
                }
            }
        }
        5 => {
            let at = boundary(rng, body);
            body.truncate(at);
        }
        6 => {
            const STRAY: [char; 8] = ['g', 'x', '0', ' ', '\u{b}', '\u{85}', 'é', '\u{0}'];
            let at = boundary(rng, body);
            body.insert(at, STRAY[rng.gen_range(0..STRAY.len())]);
        }
        _ => {
            // A forged count: a huge decimal where a small one stood.
            let digits: Vec<usize> =
                body.match_indices(|c: char| c.is_ascii_digit()).map(|(at, _)| at).collect();
            if let Some(&at) = digits.get(rng.gen_range(0..digits.len().max(1))) {
                body.insert_str(at, "99999999999");
            }
        }
    }
}

/// Capacity of every vector a frame owns, nested ones included.
fn capacities(frame: &Frame) -> Vec<usize> {
    match frame {
        Frame::IngestBatch { reports, .. } | Frame::IngestBatchSeq { reports, .. } => {
            vec![reports.capacity()]
        }
        Frame::ShareBatch { counts, .. } => vec![counts.capacity()],
        Frame::Part { part: p } | Frame::Merge { part: p } => [p.groups.capacity()]
            .into_iter()
            .chain([p.channels.capacity()])
            .chain(p.groups.iter().map(|g| g.counts.capacity()))
            .collect(),
        Frame::MaskedPart { part: p } => [p.groups.capacity()]
            .into_iter()
            .chain([p.channels.capacity()])
            .chain(p.groups.iter().map(|g| g.counts.capacity()))
            .collect(),
        Frame::Finalize { schemes } => vec![schemes.capacity()],
        Frame::Outputs { outputs } => [outputs.capacity()]
            .into_iter()
            .chain(outputs.iter().map(|o| o.groups.capacity()))
            .collect(),
        _ => Vec::new(),
    }
}

/// Everything observable about a decode: the frame (its debug form, its
/// exact bits through the encoder, its vector capacities) or the error
/// with its reason string.
fn outcome(decoded: &Result<Frame, WireError>) -> String {
    match decoded {
        Ok(f) => format!("ok {f:?}\n{}\n{:?}", encode_frame(f), capacities(f)),
        Err(e) => format!("err {e:?}"),
    }
}

/// Asserts the fast decoder and the reference agree on `body`, and that
/// the decode holds the decoder properties.
fn check_decode(body: &str) {
    let fast = decode_frame(body);
    let slow = reference::run(|| decode_frame(body));
    assert_eq!(outcome(&fast), outcome(&slow), "decoders disagree on {body:?}");
    check_decoder_properties(body, &fast);
}

/// A decode failure is a typed [`WireError::BadFrame`], and no vector is
/// preallocated past what the body can encode (an element takes at
/// least a byte and a separator): neither one in the decoded frame nor,
/// at any token, the clamp a forged count meets before the decode fails.
fn check_decoder_properties(body: &str, decoded: &Result<Frame, WireError>) {
    let mut t = Tokens::new(body);
    loop {
        let rest = t.span().map_or(0, |(start, _)| body.len() - start);
        assert!(t.capacity(usize::MAX) <= rest.div_ceil(2), "clamp past the body in {body:?}");
        if t.next("token").is_err() {
            break;
        }
    }
    match decoded {
        Ok(frame) => {
            let bound = body.len().div_ceil(2);
            for cap in capacities(frame) {
                assert!(cap <= bound, "capacity {cap} over {bound} for {body:?}");
            }
        }
        Err(e) => assert!(matches!(e, WireError::BadFrame { .. }), "{e:?} for {body:?}"),
    }
}

proptest! {
    /// Random frames of every variant encode to the reference bytes,
    /// round-trip, and decode like the reference; so do their mutations.
    #[test]
    fn differential_frames_and_mutations(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..VARIANTS {
            let frame = frame(&mut rng, variant);
            let body = encode_frame(&frame);
            prop_assert_eq!(&body, &reference::run(|| encode_frame(&frame)));
            let back = decode_frame(&body).expect("an encoded frame decodes");
            prop_assert_eq!(encode_frame(&back), body.clone(), "round trip");
            check_decode(&body);
            let mut mutated = body;
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut rng, &mut mutated);
                check_decode(&mutated);
            }
        }
    }

    /// The tokenizer splits exactly where `split_whitespace` does, on
    /// strings dense in separators, lookalikes and multi-byte chars.
    #[test]
    fn differential_tokens(seed in 0u64..u64::MAX) {
        const CHARS: [char; 14] = [
            'a', '0', 'x', ' ', '\n', '\t', '\u{b}', '\u{c}', '\u{1c}', '\u{85}', '\u{a0}',
            '\u{3000}', '\u{200b}', 'é',
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let s: String =
            (0..rng.gen_range(0..40usize)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect();
        let mut t = Tokens::new(&s);
        let mut tokens = Vec::new();
        while let Ok(token) = t.next("token") {
            tokens.push(token);
        }
        prop_assert_eq!(tokens, s.split_whitespace().collect::<Vec<_>>(), "{:?}", s);
    }

    /// Hex tokens of every shape parse to the reference value or the
    /// reference error string, and every word writes the reference text.
    #[test]
    fn differential_hex_tokens(seed in 0u64..u64::MAX) {
        const DIGITS: [char; 10] = ['0', '9', 'a', 'f', 'A', 'F', 'g', '+', '-', 'x'];
        let mut rng = StdRng::seed_from_u64(seed);
        let v = word(&mut rng);
        let mut written = String::new();
        codec::push_hex_u64(&mut written, v);
        prop_assert_eq!(&written, &format!("{v:#018x}"));
        let prefix = ["0x", "0X", "", "x"][rng.gen_range(0..4usize)];
        let len = rng.gen_range(0..20usize);
        let digits: String = (0..len).map(|_| DIGITS[rng.gen_range(0..DIGITS.len())]).collect();
        for token in [written, format!("{prefix}{digits}")] {
            prop_assert_eq!(
                codec::parse_hex_u64(&token),
                reference::run(|| codec::parse_hex_u64(&token)),
                "{:?}",
                token
            );
        }
    }

    /// Arbitrary text — raw bytes made UTF-8, or frame-like token soup —
    /// decodes to a frame or a typed error, never a panic, with bounded
    /// capacities.
    #[test]
    fn decoder_survives_arbitrary_bodies(seed in 0u64..u64::MAX) {
        const WORDS: [&str; 14] = [
            "seq-batch", "part", "masked-part", "outputs", "output", "group", "mgroup", "seqs",
            "error", "rejected", "0x1", "0x00000000000000ff", "18446744073709551615", "3",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = String::from_utf8_lossy(&bytes(&mut rng)).into_owned();
        let soup = (0..rng.gen_range(0..24usize))
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
            .collect::<Vec<_>>()
            .join([" ", "\n", "\u{b}"][rng.gen_range(0..3usize)]);
        for body in [raw, soup] {
            check_decode(&body);
        }
    }

    /// Arbitrary length prefixes over arbitrary or valid bodies: the
    /// reader returns the frame, [`WireError::Io`] for a body cut short,
    /// or [`WireError::BadFrame`]; a prefix over the cap is refused
    /// without reading past it.
    #[test]
    fn decoder_survives_arbitrary_length_prefixes(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body: Vec<u8> = if rng.gen_bool(0.5) {
            let variant = rng.gen_range(0..VARIANTS);
            encode_frame(&frame(&mut rng, variant)).into_bytes()
        } else {
            bytes(&mut rng)
        };
        let len = match rng.gen_range(0..4u32) {
            0 => body.len() as u32,
            1 => rng.gen_range(0..=body.len() as u32 + 8),
            2 => rng.gen_range(PRE_AUTH_FRAME as u32..=MAX_FRAME as u32 + 1),
            _ => rng.gen_range(0..=u32::MAX),
        };
        let mut wire = len.to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        for cap in [MAX_FRAME, PRE_AUTH_FRAME] {
            let mut r = &wire[..];
            match read_frame_capped(&mut r, cap) {
                Ok((frame, size)) => {
                    prop_assert_eq!(size, len as usize);
                    let text = std::str::from_utf8(&body[..size]).expect("decoded text");
                    check_decoder_properties(text, &Ok(frame));
                }
                Err(WireError::Io { .. }) => prop_assert!(len as usize > body.len()),
                Err(WireError::BadFrame { .. }) if len as usize > cap => {
                    prop_assert_eq!(r.len(), body.len(), "the body of an oversize frame is read");
                }
                Err(WireError::BadFrame { .. }) => prop_assert!(len as usize <= body.len()),
                Err(other) => prop_assert!(false, "untyped read failure {:?}", other),
            }
        }
    }
}

#[test]
fn seq_batch_frame_and_journal_record_bytes_are_pinned() {
    let frame = Frame::IngestBatchSeq {
        channel: 0x5eed_0001,
        seq: 7,
        group: 2,
        reports: vec![0.5, -0.25, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0],
    };
    let body = "seq-batch 0x000000005eed0001 7 2 5\n\
                0x3fe0000000000000 0xbfd0000000000000 0x3fd5555555555555 \
                0x0010000000000000 0x8000000000000000";
    assert_eq!(encode_frame(&frame), body);
    assert_eq!(decode_frame(body).expect("golden decodes"), frame);
    let mut wire = Vec::new();
    write_frame(&mut wire, &frame).expect("encodes");
    assert_eq!(wire[..4], (body.len() as u32).to_be_bytes());
    assert_eq!(&wire[4..], body.as_bytes());

    // The journal record: 4-byte big-endian length, 8-byte big-endian
    // FNV-1a digest of the payload, then the frame body verbatim.
    let (mut journal, _) =
        crate::storage::Journal::open(crate::storage::MemoryBackend::new()).expect("opens");
    let header = journal.len_bytes() as usize;
    journal.append(body.as_bytes()).expect("appends");
    let bytes = journal.into_backend().journal_bytes().to_vec();
    assert_eq!(&bytes[..header], b"dap-journal/v1 0x0000000000000000\n");
    let record = &bytes[header..];
    assert_eq!(body.len(), 129);
    assert_eq!(record[..4], 129u32.to_be_bytes(), "length prefix");
    assert_eq!(record[4..12], 0x0eae_685f_81c1_1589u64.to_be_bytes(), "payload digest");
    assert_eq!(&record[12..], body.as_bytes());
}
