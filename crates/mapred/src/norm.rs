//! Order-preserving byte encoding of shuffle keys ("normalized keys").
//!
//! The map-side sort, the shuffle's k-way merge and the reducer's key
//! grouping all order pairs by key alone under [`Value`]'s total order, as
//! Hadoop's shuffle does; a key's values keep their arrival order and are
//! never compared. Comparing keys directly walks two cell slices with an
//! enum dispatch per element — the single hottest comparison in the
//! engine. This module encodes each **key** once into a byte string whose
//! `memcmp` order equals the key order, so every comparison is a plain
//! slice compare (Hadoop does the same with `WritableComparator` raw-byte
//! comparisons), and key-group boundaries are byte-equality scans.
//!
//! Per value: a rank tag byte (`Null < Bool < numeric < Str`, exactly
//! [`Value::cmp`]'s rank) followed by an order-preserving payload:
//!
//! * `Bool` — one byte.
//! * numeric — the value as a sign-flipped big-endian `f64` (the order
//!   [`Value::cmp`] gives mixed `Int`/`Float`), then the exact `i64` the
//!   same way as a tiebreak so equal-as-float integers still sort exactly
//!   (`Int(7)` and `Float(7.0)` encode identically, as they compare
//!   `Equal`; `-0.0` is normalized to `0.0` for the same reason).
//! * `Str` — the UTF-8 bytes with `0x00` escaped as `0x00 0xFF`,
//!   terminated by `0x00 0x00`, preserving byte-wise string order.
//!
//! Every encoding is prefix-free, so concatenating a row's value
//! encodings compares element-wise like `Vec<Value>`'s lexicographic
//! order (a shorter row that is a prefix of a longer one sorts first,
//! matching `Vec`'s length tiebreak). Equal values encode to equal bytes,
//! so grouping by encoded-key equality is grouping by key equality.
//!
//! The only divergence from `Value::cmp` is where that order is itself
//! not transitive: integers beyond 2^53 whose `f64` images collide with a
//! `Float` key compare `Equal` to it element-wise but unequal to each
//! other. The encoding resolves such ties exactly (by the integer), which
//! keeps the key order total and deterministic.

use ysmart_rel::colbatch::{CellRef, Column};
use ysmart_rel::{Row, Value};

/// Appends the order-preserving encoding of one value.
pub fn push_value(out: &mut Vec<u8>, v: &Value) {
    push_cell(out, v.into());
}

/// [`push_value`] of a cell wherever it lies.
fn push_cell(out: &mut Vec<u8>, cell: CellRef<'_>) {
    match cell {
        CellRef::Null => out.push(0),
        CellRef::Bool(b) => {
            out.push(1);
            out.push(u8::from(b));
        }
        CellRef::Int(i) => push_numeric(out, i as f64, i),
        CellRef::Float(f) => {
            // -0.0 == 0.0 under Value's order: normalize so they (and
            // Int(0)) share one encoding.
            let f = if f == 0.0 { 0.0 } else { f };
            // Integer-valued floats tie-break by that integer, matching
            // the equal Int's encoding; fractional floats collide with no
            // Int on the f64 part, so their tiebreak is never reached.
            let exact = if f.fract() == 0.0 && f >= -(2f64.powi(63)) && f < 2f64.powi(63) {
                f as i64
            } else {
                0
            };
            push_numeric(out, f, exact);
        }
        CellRef::Str(s) => {
            out.push(3);
            let bytes = s.as_bytes();
            if bytes.contains(&0) {
                for &b in bytes {
                    out.push(b);
                    if b == 0 {
                        out.push(0xFF);
                    }
                }
            } else {
                out.extend_from_slice(bytes);
            }
            out.extend_from_slice(&[0, 0]);
        }
    }
}

/// Appends the numeric encoding — the rank tag, the sign-flipped
/// big-endian `f64` (byte order equals numeric order for all finite
/// values; non-finite floats never pass the codecs), then the exact `i64`
/// tiebreak the same way — as one 17-byte write.
fn push_numeric(out: &mut Vec<u8>, f: f64, exact: i64) {
    let bits = f.to_bits();
    let enc = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    let mut buf = [0u8; 17];
    buf[0] = 2;
    buf[1..9].copy_from_slice(&enc.to_be_bytes());
    buf[9..].copy_from_slice(&((exact as u64) ^ 1 << 63).to_be_bytes());
    out.extend_from_slice(&buf);
}

/// Appends the encoding of every value in a row.
pub fn push_row(out: &mut Vec<u8>, row: &Row) {
    row.values().iter().for_each(|v| push_value(out, v));
}

/// A run's key encodings packed back-to-back in one buffer — per-key
/// `Vec` allocations would dominate the very comparisons the encoding
/// saves, so a run allocates exactly twice however many keys it holds.
#[derive(Default, Clone)]
pub struct NormArena {
    bytes: Vec<u8>,
    /// Per key: end offset into `bytes`. Key `i` starts where key `i - 1`
    /// ended.
    ends: Vec<u32>,
}

impl NormArena {
    /// An empty arena expecting `keys` entries.
    #[must_use]
    pub fn with_capacity(keys: usize) -> NormArena {
        NormArena {
            bytes: Vec::with_capacity(keys * 24),
            ends: Vec::with_capacity(keys),
        }
    }

    /// Number of encoded keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the arena holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// The encoding of key `i` — equal slices ⇔ equal keys, byte order
    /// equals key order.
    #[must_use]
    pub fn key(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    /// The first eight bytes of key `i`'s encoding, zero-padded, as a
    /// big-endian integer. `prefix8(a) < prefix8(b)` implies key `a`
    /// orders strictly before key `b` (zero-padding is order-safe because
    /// a shorter key that matches a longer one byte-for-byte orders
    /// first, like the padding does); equal prefixes say nothing and the
    /// caller falls back to the full slices. Most keys differ within the
    /// prefix, turning the hot sort comparison into integer compares on a
    /// flat array.
    #[must_use]
    pub fn prefix8(&self, i: usize) -> u64 {
        let k = self.key(i);
        let mut buf = [0u8; 8];
        let n = k.len().min(8);
        buf[..n].copy_from_slice(&k[..n]);
        u64::from_be_bytes(buf)
    }

    /// Encodes every key of a run. The buffer is sized from the first
    /// key's encoded length — runs are overwhelmingly uniform-width, and
    /// growth-doubling a multi-megabyte buffer from a blind guess costs
    /// more memcpy than the encoding itself.
    #[must_use]
    pub fn from_keys(keys: &[Row]) -> NormArena {
        NormArena::encode(keys.len(), |i, out| push_row(out, &keys[i]))
    }

    /// [`NormArena::from_keys`] over `n` keys lying in typed columns — a
    /// shuffle arena's: key `i` is cell `i` of each of `cols[..width(i)]`.
    pub(crate) fn from_columns(
        cols: &[Column],
        n: usize,
        width: impl Fn(usize) -> usize,
    ) -> NormArena {
        NormArena::encode(n, |i, out| {
            cols[..width(i)]
                .iter()
                .for_each(|col| push_cell(out, col.cell(i)));
        })
    }

    /// The arena of the `n` keys `key(i, out)` appends to `out`.
    fn encode(n: usize, key: impl Fn(usize, &mut Vec<u8>)) -> NormArena {
        let mut arena = NormArena::with_capacity(n);
        for i in 0..n {
            key(i, &mut arena.bytes);
            arena.ends.push(arena.bytes.len() as u32);
            if i == 0 {
                arena.bytes.reserve(arena.bytes.len() * (n - 1));
            }
        }
        arena
    }

    /// Appends an already-encoded key (copied from another arena).
    pub fn push_encoded(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::row;

    fn enc(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        push_value(&mut out, v);
        out
    }

    #[test]
    fn encoding_orders_like_value_cmp() {
        // A ladder of values in strictly ascending Value order; every
        // pair's byte order must agree.
        let ladder = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(-1e300),
            Value::Int(i64::MIN + 1),
            Value::Int(-5),
            Value::Float(-4.5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Float(1.5),
            Value::Int(2),
            Value::Int(7_000_000),
            Value::Float(1e300),
            Value::Str(String::new()),
            Value::Str("\0".into()),
            Value::Str("\0a".into()),
            Value::Str("a".into()),
            Value::Str("a\0".into()),
            Value::Str("ab".into()),
            Value::Str("b".into()),
        ];
        for (i, a) in ladder.iter().enumerate() {
            for (j, b) in ladder.iter().enumerate() {
                assert_eq!(
                    enc(a).cmp(&enc(b)),
                    i.cmp(&j),
                    "byte order diverged for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn equal_values_encode_identically() {
        assert_eq!(enc(&Value::Int(7)), enc(&Value::Float(7.0)));
        assert_eq!(enc(&Value::Float(-0.0)), enc(&Value::Float(0.0)));
        assert_eq!(enc(&Value::Float(-0.0)), enc(&Value::Int(0)));
    }

    #[test]
    fn row_concatenation_matches_vec_order() {
        let rows = [
            row![],
            row![Value::Null],
            row![1i64],
            row![1i64, "a"],
            row![1i64, "b"],
            row![2i64],
            row!["a"],
            row!["a", 0i64],
            row!["ab"],
        ];
        let encs: Vec<Vec<u8>> = rows
            .iter()
            .map(|r| {
                let mut out = Vec::new();
                push_row(&mut out, r);
                out
            })
            .collect();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                assert_eq!(
                    encs[i].cmp(&encs[j]),
                    a.cmp(b),
                    "row byte order diverged for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn arena_slices_identify_and_order_keys() {
        let keys = [
            row![1i64, "x"],
            row![1i64, "x"],
            row![1i64, "y"],
            row![2i64],
        ];
        let arena = NormArena::from_keys(&keys);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.key(0), arena.key(1), "equal keys, equal slices");
        assert_ne!(arena.key(0), arena.key(2), "different key");
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(
                    arena.key(i).cmp(arena.key(j)),
                    a.cmp(b),
                    "arena byte order diverged for {a:?} vs {b:?}"
                );
            }
        }
    }
}
