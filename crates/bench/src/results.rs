//! Machine-readable result sets: the stable JSON schema behind
//! `experiments … --out results.json` and the shard/merge workflow.
//!
//! Schema (`"dap-results/v1"`):
//!
//! ```json
//! {
//!   "schema": "dap-results/v1",
//!   "experiment": "fig7",
//!   "options": { "n": 20000, "trials": 3, "seed": 42, "max_d_out": 128 },
//!   "shard": { "index": 0, "count": 2, "cells_total": 16 },
//!   "cells": [
//!     {
//!       "index": 0,
//!       "stream": "0x9fb3…",
//!       "experiment": "fig7",
//!       "panel": "a",
//!       "coords": { "kind": "pm-mse", "dataset": "Taxi", "eps": "1", … },
//!       "variants": ["DAP_EMF", "DAP_EMF*", "DAP_CEMF*", "Ostrich", "Trimming"],
//!       "values": [0.00012, …],
//!       "bits": ["0x3f2b…", …]
//!     }
//!   ]
//! }
//! ```
//!
//! `shard` is absent for unsharded runs. `values` are human-readable
//! decimals; `bits` are the authoritative IEEE-754 bit patterns — readers
//! reconstruct every f64 exactly from them, which is what lets the golden
//! tests pin *sharded run + merge == unsharded run* bit for bit.
//!
//! The workspace has no serde (offline container), so this module carries
//! its own emitter and a minimal strict JSON parser. The exact-number
//! codec (hex f64 bit patterns, shortest-roundtrip decimals, string
//! quoting) is **shared** with the `dap-wire/v1` network protocol — both
//! re-export [`dap_core::codec`], so the two serialization layers cannot
//! drift.

use crate::cell::Cell;
use crate::common::ExpOptions;
use crate::engine::{CellResult, ResultMap};
pub use dap_core::codec;
use dap_core::codec::{decimal, parse_hex_u64, quote, MAX_EXACT_JSON_INT};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier embedded in every file.
pub const SCHEMA: &str = "dap-results/v1";

/// Shard coordinate of a partial run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Which partition (`0 ≤ index < count`).
    pub index: usize,
    /// Total partitions.
    pub count: usize,
    /// Cell count of the *full* enumeration the partition was taken from.
    pub cells_total: usize,
}

/// One cell's serialized record.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Index in the full enumeration.
    pub index: usize,
    /// Coordinate stream id ([`Cell::stream`]).
    pub stream: u64,
    /// Experiment the cell belongs to (differs per record under `all`).
    pub experiment: String,
    /// Panel id within the experiment.
    pub panel: String,
    /// Flat typed coordinates.
    pub coords: Vec<(String, String)>,
    /// Value labels, in order.
    pub variants: Vec<String>,
    /// Values (exact — reconstructed from bit patterns when parsed).
    pub values: Vec<f64>,
}

/// A (possibly partial) experiment run: options + typed cell results.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// The experiment selection this set was enumerated from (`"fig7"`,
    /// `"all"`, …).
    pub experiment: String,
    /// The options the cells ran under.
    pub options: ExpOptions,
    /// Shard coordinate, absent for full runs.
    pub shard: Option<ShardInfo>,
    /// Records ordered by `index`.
    pub cells: Vec<CellRecord>,
}

impl ResultSet {
    /// Assembles a set from an engine run over (a subset of) `cells`.
    pub fn build(
        experiment: &str,
        options: &ExpOptions,
        shard: Option<ShardInfo>,
        cells: &[Cell],
        results: &[CellResult],
    ) -> ResultSet {
        let records = results
            .iter()
            .map(|r| {
                let cell = &cells[r.index];
                debug_assert_eq!(cell.stream(), r.stream);
                CellRecord {
                    index: r.index,
                    stream: r.stream,
                    experiment: cell.experiment.name().to_string(),
                    panel: cell.panel.clone(),
                    coords: cell
                        .kind
                        .coords()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                    variants: cell.variants(),
                    values: r.values.clone(),
                }
            })
            .collect();
        ResultSet {
            experiment: experiment.to_string(),
            options: *options,
            shard,
            cells: records,
        }
    }

    /// The renderer-facing view.
    pub fn result_map(&self) -> ResultMap {
        ResultMap::from_pairs(self.cells.iter().map(|c| (c.stream, c.values.clone())))
    }

    /// Checks this set against a re-enumerated cell list: every record's
    /// stream must match the cell at its index (same coordinates ⇒ same
    /// digest), and — for full sets — every cell must be present.
    pub fn verify_against(&self, cells: &[Cell]) -> Result<(), String> {
        if let Some(shard) = self.shard {
            if shard.cells_total != cells.len() {
                return Err(format!(
                    "cell count mismatch: file enumerates {} cells, this build enumerates {}",
                    shard.cells_total,
                    cells.len()
                ));
            }
        }
        for rec in &self.cells {
            let cell = cells.get(rec.index).ok_or_else(|| {
                format!("record index {} out of range ({} cells)", rec.index, cells.len())
            })?;
            if cell.stream() != rec.stream {
                return Err(format!(
                    "coordinate digest mismatch at index {}: file stream {}, enumerated {} \
                     (different options or an incompatible build)",
                    rec.index,
                    codec::hex_u64(rec.stream),
                    codec::hex_u64(cell.stream())
                ));
            }
        }
        if self.shard.is_none() && self.cells.len() != cells.len() {
            return Err(format!(
                "full result set has {} of {} cells",
                self.cells.len(),
                cells.len()
            ));
        }
        Ok(())
    }

    /// Merges shard sets into one full set. Verifies option/coordinate
    /// compatibility: same experiment, identical options, same declared
    /// partition count and total, no overlapping and no missing cells.
    pub fn merge(shards: Vec<ResultSet>) -> Result<ResultSet, String> {
        let first = shards.first().ok_or("no shards to merge")?;
        let experiment = first.experiment.clone();
        let options = first.options;
        let reference = first
            .shard
            .ok_or("shard 0 has no shard info (already a full result set?)")?;

        let mut by_index: BTreeMap<usize, CellRecord> = BTreeMap::new();
        for (i, shard) in shards.iter().enumerate() {
            if shard.experiment != experiment {
                return Err(format!(
                    "experiment mismatch: shard 0 is '{}', shard {} is '{}'",
                    experiment, i, shard.experiment
                ));
            }
            for (field, a, b) in [
                ("n", options.n as u64, shard.options.n as u64),
                ("trials", options.trials as u64, shard.options.trials as u64),
                ("seed", options.seed, shard.options.seed),
                ("max_d_out", options.max_d_out as u64, shard.options.max_d_out as u64),
            ] {
                if a != b {
                    return Err(format!("options mismatch on {field}: shard 0 ran {a}, shard {i} ran {b}"));
                }
            }
            let info = shard
                .shard
                .ok_or_else(|| format!("shard {i} has no shard info"))?;
            if info.count != reference.count || info.cells_total != reference.cells_total {
                return Err(format!(
                    "partition mismatch: shard 0 declares {}-way over {} cells, shard {i} \
                     declares {}-way over {} cells",
                    reference.count, reference.cells_total, info.count, info.cells_total
                ));
            }
            for rec in &shard.cells {
                if rec.index >= reference.cells_total {
                    return Err(format!(
                        "record index {} out of range ({} cells)",
                        rec.index, reference.cells_total
                    ));
                }
                if let Some(dup) = by_index.insert(rec.index, rec.clone()) {
                    return Err(format!(
                        "overlapping shards: cell index {} appears twice (streams {:#x}, {:#x})",
                        rec.index, dup.stream, rec.stream
                    ));
                }
            }
        }
        if by_index.len() != reference.cells_total {
            let missing: Vec<usize> = (0..reference.cells_total)
                .filter(|i| !by_index.contains_key(i))
                .take(8)
                .collect();
            return Err(format!(
                "incomplete merge: {} of {} cells present (first missing indices: {missing:?})",
                by_index.len(),
                reference.cells_total
            ));
        }
        Ok(ResultSet {
            experiment,
            options,
            shard: None,
            cells: by_index.into_values().collect(),
        })
    }

    /// Serializes to the schema above.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": {},", quote(SCHEMA));
        let _ = writeln!(s, "  \"experiment\": {},", quote(&self.experiment));
        // A JSON number survives the f64 parse only up to 2⁵³; larger
        // seeds are written as hex strings so the round trip stays exact.
        let seed = if self.options.seed <= MAX_EXACT_JSON_INT {
            self.options.seed.to_string()
        } else {
            format!("\"{:#x}\"", self.options.seed)
        };
        let _ = writeln!(
            s,
            "  \"options\": {{ \"n\": {}, \"trials\": {}, \"seed\": {seed}, \"max_d_out\": {} }},",
            self.options.n, self.options.trials, self.options.max_d_out
        );
        if let Some(shard) = self.shard {
            let _ = writeln!(
                s,
                "  \"shard\": {{ \"index\": {}, \"count\": {}, \"cells_total\": {} }},",
                shard.index, shard.count, shard.cells_total
            );
        }
        let _ = writeln!(s, "  \"cells\": [");
        for (i, rec) in self.cells.iter().enumerate() {
            let coords: Vec<String> =
                rec.coords.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
            let variants: Vec<String> = rec.variants.iter().map(|v| quote(v)).collect();
            let values: Vec<String> = rec.values.iter().map(|v| decimal(*v)).collect();
            let bits: Vec<String> =
                rec.values.iter().map(|v| format!("\"{}\"", codec::f64_to_hex(*v))).collect();
            let _ = write!(
                s,
                "    {{ \"index\": {}, \"stream\": \"{}\", \"experiment\": {}, \
                 \"panel\": {},\n      \"coords\": {{ {} }},\n      \"variants\": [{}],\n      \
                 \"values\": [{}],\n      \"bits\": [{}] }}",
                rec.index,
                codec::hex_u64(rec.stream),
                quote(&rec.experiment),
                quote(&rec.panel),
                coords.join(", "),
                variants.join(", "),
                values.join(", "),
                bits.join(", ")
            );
            let _ = writeln!(s, "{}", if i + 1 < self.cells.len() { "," } else { "" });
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Parses a file produced by [`ResultSet::to_json`] (exact f64s are
    /// reconstructed from the `bits` arrays).
    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let root = json::parse(text)?;
        let obj = root.as_object("top level")?;
        let schema = obj.str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (expected '{SCHEMA}')"));
        }
        let experiment = obj.str_field("experiment")?.to_string();
        let o = obj.field("options")?.as_object("options")?;
        let seed = match o.field("seed")? {
            json::Value::Number(v)
                if *v >= 0.0 && v.fract() == 0.0 && *v <= MAX_EXACT_JSON_INT as f64 =>
            {
                *v as u64
            }
            json::Value::String(s) => parse_hex_u64(s)?,
            other => {
                return Err(format!(
                    "options.seed: expected an exact integer or 0x-hex string, got {other:?}"
                ))
            }
        };
        let options = ExpOptions {
            n: o.usize_field("n")?,
            trials: o.usize_field("trials")?,
            seed,
            max_d_out: o.usize_field("max_d_out")?,
        };
        let shard = match obj.opt_field("shard") {
            None => None,
            Some(v) => {
                let s = v.as_object("shard")?;
                Some(ShardInfo {
                    index: s.usize_field("index")?,
                    count: s.usize_field("count")?,
                    cells_total: s.usize_field("cells_total")?,
                })
            }
        };
        let mut cells = Vec::new();
        for item in obj.field("cells")?.as_array("cells")? {
            let c = item.as_object("cell record")?;
            let bits = c.field("bits")?.as_array("bits")?;
            let values: Vec<f64> = bits
                .iter()
                .map(|b| {
                    let s = b.as_str("bits entry")?;
                    parse_hex_u64(s).map(f64::from_bits)
                })
                .collect::<Result<_, _>>()?;
            let coords = c
                .field("coords")?
                .as_object("coords")?
                .0
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_str("coord value")?.to_string())))
                .collect::<Result<Vec<_>, String>>()?;
            let variants = c
                .field("variants")?
                .as_array("variants")?
                .iter()
                .map(|v| Ok(v.as_str("variant")?.to_string()))
                .collect::<Result<Vec<_>, String>>()?;
            cells.push(CellRecord {
                index: c.usize_field("index")?,
                stream: parse_hex_u64(c.str_field("stream")?)?,
                experiment: c.str_field("experiment")?.to_string(),
                panel: c.str_field("panel")?.to_string(),
                coords,
                variants,
                values,
            });
        }
        Ok(ResultSet { experiment, options, shard, cells })
    }
}

/// A deliberately small, strict JSON reader — just enough for the schema
/// this module emits (and hand-edited variants of it).
pub mod json {
    /// Parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Key-ordered object.
        Object(Object),
        Array(Vec<Value>),
        String(String),
        Number(f64),
        Bool(bool),
        Null,
    }

    /// An object as an ordered `(key, value)` list (duplicate keys
    /// rejected at parse time).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct Object(pub Vec<(String, Value)>);

    impl Object {
        /// The value at `key`, if present.
        pub fn opt_field(&self, key: &str) -> Option<&Value> {
            self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        /// The value at `key`, or an error naming it.
        pub fn field(&self, key: &str) -> Result<&Value, String> {
            self.opt_field(key).ok_or_else(|| format!("missing field '{key}'"))
        }

        /// A string field.
        pub fn str_field(&self, key: &str) -> Result<&str, String> {
            self.field(key)?.as_str(key)
        }

        /// A non-negative integer field.
        pub fn usize_field(&self, key: &str) -> Result<usize, String> {
            let v = self.field(key)?.as_number(key)?;
            if v < 0.0 || v.fract() != 0.0 || v > usize::MAX as f64 {
                return Err(format!("field '{key}' is not a usize: {v}"));
            }
            Ok(v as usize)
        }

    }

    impl Value {
        /// This value as an object.
        pub fn as_object(&self, what: &str) -> Result<&Object, String> {
            match self {
                Value::Object(o) => Ok(o),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        /// This value as an array.
        pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Array(a) => Ok(a),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        /// This value as a string.
        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::String(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }

        /// This value as a number.
        pub fn as_number(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Number(n) => Ok(*n),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }
    }

    /// Deepest nesting of arrays and objects a document may have.
    /// `dap-results/v1` nests four levels; the bound keeps the recursive
    /// descent's stack small on hostile input (shard files and remote
    /// `shard-result` bodies both arrive here).
    pub(crate) const MAX_DEPTH: usize = 32;

    /// Parses one JSON document (trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.b.get(self.i).copied().ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? != c {
                return Err(format!(
                    "expected '{}' at byte {}, found '{}'",
                    c as char, self.i, self.b[self.i] as char
                ));
            }
            self.i += 1;
            Ok(())
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                c @ (b'{' | b'[') => {
                    if self.depth == MAX_DEPTH {
                        return Err(format!(
                            "nesting deeper than {MAX_DEPTH} levels at byte {}",
                            self.i
                        ));
                    }
                    self.depth += 1;
                    let v = if c == b'{' { self.object() } else { self.array() };
                    self.depth -= 1;
                    v
                }
                b'"' => Ok(Value::String(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                _ => self.number(),
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(value)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields: Vec<(String, Value)> = Vec::new();
            if self.peek()? == b'}' {
                self.i += 1;
                return Ok(Value::Object(Object(fields)));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key '{key}'"));
                }
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                match self.peek()? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Ok(Value::Object(Object(fields)));
                    }
                    c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.i += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Ok(Value::Array(items));
                    }
                    c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let c = *self
                    .b
                    .get(self.i)
                    .ok_or_else(|| "unterminated string".to_string())?;
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *self
                            .b
                            .get(self.i)
                            .ok_or_else(|| "unterminated escape".to_string())?;
                        self.i += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex)
                                        .map_err(|_| "bad \\u escape".to_string())?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape".to_string())?;
                                self.i += 4;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "surrogate \\u escape".to_string())?,
                                );
                            }
                            c => return Err(format!("unknown escape '\\{}'", c as char)),
                        }
                    }
                    // Multi-byte UTF-8: copy the sequence through.
                    c if c >= 0x80 => {
                        let start = self.i - 1;
                        while self.i < self.b.len() && self.b[self.i] & 0xc0 == 0x80 {
                            self.i += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.b[start..self.i])
                                .map_err(|_| "invalid UTF-8 in string".to_string())?,
                        );
                    }
                    c => out.push(c as char),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.skip_ws();
            let start = self.i;
            while self.i < self.b.len()
                && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.b[start..self.i])
                .map_err(|_| "invalid number".to_string())?;
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| format!("invalid number '{text}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(shard: Option<ShardInfo>) -> ResultSet {
        ResultSet {
            experiment: "fig7".into(),
            options: ExpOptions::default(),
            shard,
            cells: vec![
                CellRecord {
                    index: 0,
                    stream: 0xdead_beef_0042_1111,
                    experiment: "fig7".into(),
                    panel: "a".into(),
                    coords: vec![("kind".into(), "pm-mse".into()), ("eps".into(), "1".into())],
                    variants: vec!["DAP_EMF".into(), "Ostrich".into()],
                    values: vec![1.25e-4, f64::consts_test()],
                },
                CellRecord {
                    index: 1,
                    stream: 0x0123_4567_89ab_cdef,
                    experiment: "fig7".into(),
                    panel: "b".into(),
                    coords: vec![("kind".into(), "pm-mse".into())],
                    variants: vec!["DAP_EMF".into()],
                    values: vec![f64::INFINITY],
                },
            ],
        }
    }

    trait TestConst {
        fn consts_test() -> f64;
    }
    impl TestConst for f64 {
        fn consts_test() -> f64 {
            // An awkward value that decimal printing could mangle; bits
            // round-trip it exactly.
            (0.1f64 + 0.2).powi(7)
        }
    }

    #[test]
    fn json_round_trips_bit_for_bit() {
        for shard in [None, Some(ShardInfo { index: 1, count: 3, cells_total: 2 })] {
            let set = sample_set(shard);
            let parsed = ResultSet::from_json(&set.to_json()).expect("own output parses");
            assert_eq!(parsed.experiment, set.experiment);
            assert_eq!(parsed.options, set.options);
            assert_eq!(parsed.shard, set.shard);
            assert_eq!(parsed.cells.len(), set.cells.len());
            for (a, b) in parsed.cells.iter().zip(&set.cells) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.stream, b.stream);
                assert_eq!(a.coords, b.coords);
                assert_eq!(a.variants, b.variants);
                let abits: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
                let bbits: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(abits, bbits);
            }
        }
    }

    #[test]
    fn seeds_beyond_f64_precision_round_trip_exactly() {
        // 2⁵³ + 1 is the first integer a JSON number silently corrupts;
        // such seeds are emitted as hex strings instead.
        let mut set = sample_set(None);
        set.options.seed = (1u64 << 53) + 1;
        let text = set.to_json();
        assert!(text.contains("\"seed\": \"0x20000000000001\""), "{text}");
        let parsed = ResultSet::from_json(&text).expect("hex seed parses");
        assert_eq!(parsed.options.seed, set.options.seed);

        // Ordinary seeds stay human-readable numbers.
        let set = sample_set(None);
        let text = set.to_json();
        assert!(text.contains("\"seed\": 42"), "{text}");
        assert_eq!(ResultSet::from_json(&text).expect("parses").options.seed, 42);
    }

    #[test]
    fn merge_rejects_incompatible_shards() {
        let mut a = sample_set(Some(ShardInfo { index: 0, count: 2, cells_total: 2 }));
        a.cells.truncate(1);
        let mut b = sample_set(Some(ShardInfo { index: 1, count: 2, cells_total: 2 }));
        b.cells.remove(0);

        // Happy path first.
        let merged = ResultSet::merge(vec![a.clone(), b.clone()]).expect("compatible shards");
        assert_eq!(merged.cells.len(), 2);
        assert!(merged.shard.is_none());

        // Mismatched seed.
        let mut bad = b.clone();
        bad.options.seed = 43;
        let err = ResultSet::merge(vec![a.clone(), bad]).expect_err("seed mismatch");
        assert!(err.contains("seed"), "{err}");

        // Overlapping shards.
        let err = ResultSet::merge(vec![a.clone(), a.clone()]).expect_err("overlap");
        assert!(err.contains("missing") || err.contains("twice"), "{err}");

        // Missing cells.
        let err = ResultSet::merge(vec![a.clone()]).expect_err("incomplete");
        assert!(err.contains("incomplete"), "{err}");

        // Partition disagreement.
        let mut bad = b.clone();
        bad.shard = Some(ShardInfo { index: 1, count: 3, cells_total: 2 });
        let err = ResultSet::merge(vec![a, bad]).expect_err("partition mismatch");
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("{} extra").is_err());
        assert!(json::parse(r#"{"a": 1, "a": 2}"#).is_err(), "duplicate keys");
        assert!(json::parse(r#"{"a": [1, 2,]}"#).is_err(), "trailing comma");
        let v = json::parse(r#"{"x": [1.5, "two\n", true, null], "y": {}}"#).expect("valid");
        let o = v.as_object("top").unwrap();
        assert_eq!(o.field("x").unwrap().as_array("x").unwrap().len(), 4);
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&nested(json::MAX_DEPTH + 1)).is_err());
        for doc in ["[".repeat(100_000), r#"{"a":"#.repeat(100_000)] {
            assert!(json::parse(&doc).is_err());
            assert!(ResultSet::from_json(&doc).is_err());
        }
    }
}
