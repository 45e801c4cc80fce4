//! Shared exact-value codec: the one place f64s and strings become text.
//!
//! Two machine-readable surfaces serialize floating-point results: the
//! `dap-results/v1` JSON schema (`dap_bench::results`, behind
//! `experiments --out`) and the `dap-wire/v1` network protocol
//! ([`crate::net`]). Both must round-trip every f64 **bit for bit** — the
//! golden equivalence suites compare sharded/served runs to in-process
//! runs at the bit-pattern level — so the encoding lives here, once, and
//! both layers import it. A decimal printed for humans is advisory; the
//! `0x`-hex IEEE-754 bit pattern is authoritative.
//!
//! The hex token is also the per-report unit of the wire and journal
//! formats, so its two directions are table-driven: [`push_hex_u64`]
//! writes the 18 bytes from a digit table, and [`parse_hex_u64`] reads a
//! canonical token (`0x` + exactly 16 digits) through a nibble table. Any
//! other token takes the general `u64::from_str_radix` path, so accepted
//! inputs, values and error strings are those of the plain formatter and
//! parser. The property suites in `net/wire_fuzz.rs` hold both
//! directions — and the frame codec built on them — byte-identical to
//! those plain implementations, which stay here as a test-only
//! reference (`codec::reference`, compiled into unit tests only).

use std::fmt::Write as _;

/// Largest integer an f64-backed JSON number represents exactly (2⁵³).
pub const MAX_EXACT_JSON_INT: u64 = 1 << 53;

/// Fixed-width u64 hex: `0x` + 16 digits (`{:#018x}`), the token format
/// shared by stream ids, digests and f64 bit patterns.
pub fn hex_u64(v: u64) -> String {
    let mut out = String::with_capacity(18);
    push_hex_u64(&mut out, v);
    out
}

/// The authoritative f64 encoding: its IEEE-754 bit pattern via
/// [`hex_u64`]. `parse_hex_f64` reconstructs the exact value, NaN payloads
/// and signed zeros included.
pub fn f64_to_hex(v: f64) -> String {
    hex_u64(v.to_bits())
}

/// Lowercase hex digits by nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Nibble value by byte, with [`NOT_HEX`] for every byte that is not a hex
/// digit of either case (`from_str_radix` accepts both).
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// [`HEX_VALUES`] entry of a non-digit; its high bit survives an OR over
/// any number of nibble values.
const NOT_HEX: u8 = 0x80;

/// Appends [`hex_u64`] to an existing buffer — the allocation-free form
/// for hot encoding loops (a million-report wire batch writes a million
/// of these). Byte-identical to `write!(out, "{v:#018x}")`.
pub fn push_hex_u64(out: &mut String, v: u64) {
    #[cfg(test)]
    if reference::on() {
        let _ = write!(out, "{v:#018x}");
        return;
    }
    let mut token = *b"0x0000000000000000";
    for (i, digit) in token[2..].iter_mut().enumerate() {
        *digit = HEX_DIGITS[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&token).expect("hex digits are ASCII"));
}

/// Appends [`f64_to_hex`] to an existing buffer without allocating.
pub fn push_hex_f64(out: &mut String, v: f64) {
    push_hex_u64(out, v.to_bits());
}

/// Parses a `0x`-prefixed hex u64 (the inverse of [`hex_u64`]; leading
/// zeros optional).
pub fn parse_hex_u64(s: &str) -> Result<u64, String> {
    #[cfg(test)]
    if reference::on() {
        return parse_hex_general(s);
    }
    parse_canonical_hex(s.as_bytes()).map_or_else(|| parse_hex_general(s), Ok)
}

/// `0x` and `u64::from_str_radix`: every token the canonical path does
/// not take (short, uppercase-prefixed, signed, malformed, …).
fn parse_hex_general(s: &str) -> Result<u64, String> {
    let digits = s.strip_prefix("0x").ok_or_else(|| format!("expected 0x-hex, got '{s}'"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex '{s}': {e}"))
}

/// The value of a canonical token — `0x` and exactly 16 hex digits, the
/// shape [`hex_u64`] writes — or `None` for any other token. Sixteen
/// digits cannot overflow, so `None` means "not canonical", never "bad".
pub(crate) fn parse_canonical_hex(token: &[u8]) -> Option<u64> {
    let digits: &[u8; 16] = token.strip_prefix(b"0x")?.try_into().ok()?;
    let (mut v, mut seen) = (0u64, 0u8);
    for &d in digits {
        let nibble = HEX_VALUES[d as usize];
        seen |= nibble;
        v = v << 4 | u64::from(nibble & 0xf);
    }
    (seen & NOT_HEX == 0).then_some(v)
}

/// Parses an f64 from its [`f64_to_hex`] bit pattern.
pub fn parse_hex_f64(s: &str) -> Result<f64, String> {
    parse_hex_u64(s).map(f64::from_bits)
}

/// Shortest-roundtrip decimal for human consumers, with non-finite values
/// mapped to `null` (the hex bit pattern stays authoritative either way).
pub fn decimal(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON-style string quoting (escapes quotes, backslashes and control
/// characters).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a over little-endian words and length-prefixed byte strings — the
/// stable digest behind session-compatibility checks ([`crate::DapSession::
/// state_digest`]) and `dap_bench`'s cell stream ids. No `std::hash`
/// involvement, so digests are stable across Rust versions and can be
/// pinned in golden files and exchanged between processes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one word (as its 8 little-endian bytes).
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Feeds raw bytes, length-prefixed so `"ab" + "c"` ≠ `"a" + "bc"`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Test-only switch back to the plain implementations the fast paths
/// replace: `format!("{v:#018x}")` for [`push_hex_u64`],
/// `u64::from_str_radix` for every token [`parse_hex_u64`] reads, and
/// `str::split_whitespace` for the frame tokenizer. Per thread, so a
/// differential test flips it without touching tests running beside it.
#[cfg(test)]
pub(crate) mod reference {
    use std::cell::Cell;

    thread_local!(static ON: Cell<bool> = const { Cell::new(false) });

    /// Whether this thread runs the reference implementations.
    pub(crate) fn on() -> bool {
        ON.with(Cell::get)
    }

    /// `f`'s result with the reference implementations on for this thread.
    pub(crate) fn run<T>(f: impl FnOnce() -> T) -> T {
        ON.with(|on| on.set(true));
        let out = f();
        ON.with(|on| on.set(false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_awkward_values() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            (0.1f64 + 0.2).powi(7),
            f64::MIN_POSITIVE,
        ] {
            let text = f64_to_hex(v);
            assert_eq!(text.len(), 18, "fixed width: {text}");
            let back = parse_hex_f64(&text).expect("own output parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert!(parse_hex_u64("42").is_err(), "missing 0x prefix");
        assert!(parse_hex_u64("0xzz").is_err());
    }

    #[test]
    fn decimal_maps_non_finite_to_null() {
        assert_eq!(decimal(1.5), "1.5");
        assert_eq!(decimal(f64::NAN), "null");
        assert_eq!(decimal(f64::INFINITY), "null");
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn fnv_separates_adjacent_encodings() {
        let digest = |f: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::new();
            f(&mut h);
            h.finish()
        };
        assert_ne!(
            digest(&|h| {
                h.bytes(b"ab");
                h.bytes(b"c");
            }),
            digest(&|h| {
                h.bytes(b"a");
                h.bytes(b"bc");
            }),
        );
        assert_ne!(digest(&|h| h.word(1)), digest(&|h| h.word(2)));
    }
}
