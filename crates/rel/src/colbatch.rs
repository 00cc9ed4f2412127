//! Columnar record batches and the checksummed binary frame codec.
//!
//! A [`ColumnBatch`] holds a run of rows decomposed into typed column
//! vectors — `Int`/`Float`/`Bool` as plain vectors with a null mask,
//! strings dictionary-encoded (each distinct string stored once, rows
//! carry `u32` dictionary indices), and a `Var` escape hatch for columns
//! whose rows mix types. Batches are what the columnar data path
//! (`DataFormat::Columnar`) moves between map tasks, shuffle segments and
//! HDFS files instead of `|`-delimited text lines: operators read typed
//! vectors directly and never re-parse text per record.
//!
//! The wire form is a *frame*: a length-prefixed binary encoding with an
//! XXH64 checksum **per column chunk** plus one over the header, so any
//! single corrupted bit is detected and localized to one column (the text
//! path's block checksum can only condemn a whole block). The layout:
//!
//! ```text
//! magic "YCB1" | ncols u16 | nrows u32
//! per column: tag u8 | chunk_len u32 | chunk_sum u64 (XXH64)
//! header_sum u64 (XXH64 over every preceding header byte)
//! column chunks, back to back (no padding)
//! ```
//!
//! All integers are little-endian. [`ColumnBatch::decode_frame`] verifies the header
//! checksum, every chunk checksum, exact frame length, UTF-8 of dictionary
//! entries, and rejects non-finite floats — the same contract the text
//! codec's `decode_field` enforces, so corrupted bytes can never smuggle a
//! NaN into the computation.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

use crate::error::RelError;
use crate::row::Row;
use crate::value::Value;

/// Frame magic: "YSmart Columnar Batch v1".
pub const FRAME_MAGIC: [u8; 4] = *b"YCB1";

/// Default rows per frame when chunking a large row run into frames — a
/// compromise between per-frame header/dictionary overhead and split
/// granularity (frames are the unit map-task splits cannot subdivide).
/// Wider frames amortise the per-frame column allocations in encode and
/// decode; 1024 measured faster than 256 with no loss of split balance at
/// the benchmarked scales.
pub const DEFAULT_FRAME_ROWS: usize = 1024;

// XXH64 primes (Yann Collet's xxHash, public domain). `ysmart_mapred`'s
// block checksums delegate to this same implementation.
const XXP1: u64 = 0x9E37_79B1_85EB_CA87;
const XXP2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXP3: u64 = 0x1656_67B1_9E37_79F9;
const XXP4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXP5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xx_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XXP2))
        .rotate_left(31)
        .wrapping_mul(XXP1)
}

#[inline]
fn xx_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xx_round(0, val))
        .wrapping_mul(XXP1)
        .wrapping_add(XXP4)
}

#[inline]
fn read_u64_raw(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// The four lane accumulators of a stream of 32-byte stripes.
#[inline]
fn xx_lanes(seed: u64) -> [u64; 4] {
    [
        seed.wrapping_add(XXP1).wrapping_add(XXP2),
        seed.wrapping_add(XXP2),
        seed,
        seed.wrapping_sub(XXP1),
    ]
}

/// Consumes every whole 32-byte stripe of `data`, returning what is left.
#[inline]
fn xx_stripes<'a>(v: &mut [u64; 4], mut data: &'a [u8]) -> &'a [u8] {
    while data.len() >= 32 {
        v[0] = xx_round(v[0], read_u64_raw(&data[0..]));
        v[1] = xx_round(v[1], read_u64_raw(&data[8..]));
        v[2] = xx_round(v[2], read_u64_raw(&data[16..]));
        v[3] = xx_round(v[3], read_u64_raw(&data[24..]));
        data = &data[32..];
    }
    data
}

/// Folds the lanes (when at least one stripe was consumed), the total
/// length and the sub-stripe tail into the final hash.
#[inline]
fn xx_finish(lanes: Option<&[u64; 4]>, seed: u64, len: u64, mut rest: &[u8]) -> u64 {
    let mut h = match lanes {
        Some(&[v1, v2, v3, v4]) => {
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            h = xx_merge(h, v1);
            h = xx_merge(h, v2);
            h = xx_merge(h, v3);
            xx_merge(h, v4)
        }
        None => seed.wrapping_add(XXP5),
    };
    h = h.wrapping_add(len);
    while rest.len() >= 8 {
        h = (h ^ xx_round(0, read_u64_raw(rest)))
            .rotate_left(27)
            .wrapping_mul(XXP1)
            .wrapping_add(XXP4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let k = u64::from(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")));
        h = (h ^ k.wrapping_mul(XXP1))
            .rotate_left(23)
            .wrapping_mul(XXP2)
            .wrapping_add(XXP3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(XXP5))
            .rotate_left(11)
            .wrapping_mul(XXP1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXP2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXP3);
    h ^ (h >> 32)
}

/// XXH64 of a byte slice with an explicit seed — full-avalanche, so any
/// single flipped bit changes the result.
#[must_use]
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut lanes = xx_lanes(seed);
    let rest = xx_stripes(&mut lanes, data);
    let striped = (data.len() >= 32).then_some(&lanes);
    xx_finish(striped, seed, data.len() as u64, rest)
}

/// Streaming [`xxh64`]: hashes a byte stream handed over in pieces —
/// a file's lines or frames where they lie — to the value the one-shot
/// function gives for their concatenation, however the pieces are cut.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    lanes: [u64; 4],
    /// Bytes of an incomplete stripe carried to the next `update`.
    carry: [u8; 32],
    carried: usize,
    len: u64,
}

impl Xxh64 {
    /// An empty stream under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            seed,
            lanes: xx_lanes(seed),
            carry: [0; 32],
            carried: 0,
            len: 0,
        }
    }

    /// Appends `data` to the stream.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.carried > 0 {
            let take = data.len().min(32 - self.carried);
            self.carry[self.carried..self.carried + take].copy_from_slice(&data[..take]);
            self.carried += take;
            data = &data[take..];
            if self.carried < 32 {
                return;
            }
            xx_stripes(&mut self.lanes, &self.carry);
            self.carried = 0;
        }
        let rest = xx_stripes(&mut self.lanes, data);
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    /// The hash of everything appended so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let striped = (self.len >= 32).then_some(&self.lanes);
        xx_finish(striped, self.seed, self.len, &self.carry[..self.carried])
    }
}

/// FNV-1a [`std::hash::Hasher`] for the codec's internal hash maps —
/// dictionary lookups hash short strings the engine produced itself, where
/// `std`'s DoS-resistant SipHash costs more than the rest of the insert.
struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Builds [`FnvHasher`]s for `HashMap::default()` / `HashSet::default()`.
#[derive(Default, Clone)]
struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// One cell read where it lies: a [`Value`] without its ownership, as a
/// typed column ([`Column::for_each_cell`]) or a `Value` hands it out. Code
/// that only looks at cells — the shuffle's partition hash, the frame sizer
/// — takes this, so no string is cloned to be looked at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
}

impl CellRef<'_> {
    /// The cell as an owned value.
    #[must_use]
    pub fn to_value(self) -> Value {
        match self {
            CellRef::Null => Value::Null,
            CellRef::Bool(b) => Value::Bool(b),
            CellRef::Int(i) => Value::Int(i),
            CellRef::Float(f) => Value::Float(f),
            CellRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

impl<'a> From<&'a Value> for CellRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => CellRef::Null,
            Value::Bool(b) => CellRef::Bool(*b),
            Value::Int(i) => CellRef::Int(*i),
            Value::Float(f) => CellRef::Float(*f),
            Value::Str(s) => CellRef::Str(s),
        }
    }
}

/// One typed column vector of a batch. Every variant's vectors are
/// `nrows` long; null slots hold a zero/default payload so the encoding
/// is canonical (two batches with equal rows encode to equal bytes).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Values (zero in null slots).
        data: Vec<i64>,
        /// Null mask, `true` = NULL.
        nulls: Vec<bool>,
    },
    /// 64-bit floats (always finite).
    Float {
        /// Values (zero in null slots).
        data: Vec<f64>,
        /// Null mask.
        nulls: Vec<bool>,
    },
    /// Booleans.
    Bool {
        /// Values (`false` in null slots).
        data: Vec<bool>,
        /// Null mask.
        nulls: Vec<bool>,
    },
    /// Dictionary-encoded strings: each distinct string appears once in
    /// `dict` (first-seen order, so construction is deterministic) and
    /// rows store indices into it.
    Str {
        /// Distinct strings in first-appearance order.
        dict: Vec<String>,
        /// Per-row dictionary index (zero in null slots).
        idx: Vec<u32>,
        /// Null mask.
        nulls: Vec<bool>,
    },
    /// Escape hatch for columns whose rows mix types: values stored as-is.
    Var(Vec<Value>),
}

/// The row index [`Column::take`] reads as NULL — how an outer join's missing
/// side is taken.
pub const NULL_ROW: u32 = u32::MAX;

/// Rows `rows` of a typed column's payload and null mask ([`NULL_ROW`]: a
/// null slot with the default payload).
fn take_typed<T: Copy + Default>(data: &[T], nulls: &[bool], rows: &[u32]) -> (Vec<T>, Vec<bool>) {
    rows.iter()
        .map(|&r| match r {
            NULL_ROW => (T::default(), true),
            r => (data[r as usize], nulls[r as usize]),
        })
        .unzip()
}

/// A typed column's payload vector, changed in step with its null mask
/// whatever its element type.
trait Payload {
    fn reserve(&mut self, additional: usize);
    fn shrink_to_fit(&mut self);
    /// Appends `n` default payloads — those of NULL slots.
    fn push_defaults(&mut self, n: usize);
}

impl<T: Copy + Default> Payload for Vec<T> {
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }

    fn shrink_to_fit(&mut self) {
        Vec::shrink_to_fit(self);
    }

    fn push_defaults(&mut self, n: usize) {
        self.resize(self.len() + n, T::default());
    }
}

impl Column {
    /// A column of the `nrows` cells `cell(r)` — `&Value`s or cells read in
    /// place ([`CellRef`]) — typed as [`ColumnBatch::from_cells`] types each
    /// column, except that a non-finite float makes it [`Column::Var`]
    /// rather than an error: how computed values, and the values a reducer
    /// gathers off the shuffle's arenas, become a column.
    pub fn from_cells<'a, C: Into<CellRef<'a>>>(nrows: usize, cell: impl Fn(usize) -> C) -> Column {
        let cell = |r: usize| -> CellRef<'a> { cell(r).into() };
        let of = |r| Ty::of(cell(r)).unwrap_or(Ty::Mixed);
        let ty = (0..nrows).fold(Ty::None, |ty, r| ty.with(of(r)));
        Column::typed(ty, nrows, cell)
    }

    /// The column of type `ty` (as [`column_type`] found it) over the cells.
    fn typed<'a>(ty: Ty, nrows: usize, cell: impl Fn(usize) -> CellRef<'a>) -> Column {
        match ty {
            Ty::None | Ty::Int => {
                let (data, nulls) = typed_cells(nrows, cell, |c| match c {
                    CellRef::Int(i) => Some(i),
                    _ => None,
                });
                Column::Int { data, nulls }
            }
            Ty::Float => {
                let (data, nulls) = typed_cells(nrows, cell, |c| match c {
                    CellRef::Float(f) => Some(f),
                    _ => None,
                });
                Column::Float { data, nulls }
            }
            Ty::Bool => {
                let (data, nulls) = typed_cells(nrows, cell, |c| match c {
                    CellRef::Bool(b) => Some(b),
                    _ => None,
                });
                Column::Bool { data, nulls }
            }
            Ty::Str => {
                let mut dict: Vec<String> = Vec::new();
                let mut lookup: HashMap<&str, u32, FnvBuildHasher> = HashMap::default();
                let (idx, nulls) = typed_cells(nrows, cell, |c| {
                    let CellRef::Str(s) = c else { return None };
                    Some(*lookup.entry(s).or_insert_with(|| {
                        dict.push(s.to_string());
                        (dict.len() - 1) as u32
                    }))
                });
                Column::Str { dict, idx, nulls }
            }
            Ty::Mixed => Column::Var((0..nrows).map(|r| cell(r).to_value()).collect()),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. } => nulls.len(),
            Column::Var(vals) => vals.len(),
        }
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the value at `row` is NULL — read off the null mask, nothing
    /// built.
    #[must_use]
    pub fn is_null(&self, row: usize) -> bool {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. } => nulls[row],
            Column::Var(vals) => vals[row].is_null(),
        }
    }

    /// [`Value`]'s total order between rows `a` and `b`, read in place:
    /// NULL first, then the payloads as their values compare.
    #[must_use]
    #[inline]
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        // Two non-null payloads compare as their values; otherwise NULL
        // first: `true.cmp(false)` puts the non-null one after.
        match self {
            Column::Int { data, nulls } => match (nulls[a], nulls[b]) {
                (false, false) => data[a].cmp(&data[b]),
                (x, y) => y.cmp(&x),
            },
            Column::Float { data, nulls } => match (nulls[a], nulls[b]) {
                (false, false) => data[a].partial_cmp(&data[b]).unwrap_or(Ordering::Equal),
                (x, y) => y.cmp(&x),
            },
            Column::Bool { data, nulls } => match (nulls[a], nulls[b]) {
                (false, false) => data[a].cmp(&data[b]),
                (x, y) => y.cmp(&x),
            },
            Column::Str { dict, idx, nulls } => match (nulls[a], nulls[b]) {
                (false, false) => dict[idx[a] as usize].cmp(&dict[idx[b] as usize]),
                (x, y) => y.cmp(&x),
            },
            Column::Var(vals) => vals[a].cmp(&vals[b]),
        }
    }

    /// Rows `rows` of the column, in that order, as a column of the same
    /// type — a typed gather; [`NULL_ROW`] takes a NULL.
    #[must_use]
    pub fn take(&self, rows: &[u32]) -> Column {
        match self {
            Column::Int { data, nulls } => {
                let (data, nulls) = take_typed(data, nulls, rows);
                Column::Int { data, nulls }
            }
            Column::Float { data, nulls } => {
                let (data, nulls) = take_typed(data, nulls, rows);
                Column::Float { data, nulls }
            }
            Column::Bool { data, nulls } => {
                let (data, nulls) = take_typed(data, nulls, rows);
                Column::Bool { data, nulls }
            }
            Column::Str { dict, idx, nulls } => {
                let (idx, nulls) = take_typed(idx, nulls, rows);
                let dict = dict.clone();
                Column::Str { dict, idx, nulls }
            }
            Column::Var(vals) => Column::Var(
                rows.iter()
                    .map(|&r| match r {
                        NULL_ROW => Value::Null,
                        r => vals[r as usize].clone(),
                    })
                    .collect(),
            ),
        }
    }

    /// The value at `row`, owned.
    #[must_use]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int { data, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Int(data[row])
                }
            }
            Column::Float { data, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Float(data[row])
                }
            }
            Column::Bool { data, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Bool(data[row])
                }
            }
            Column::Str { dict, idx, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Str(dict[idx[row] as usize].clone())
                }
            }
            Column::Var(vals) => vals[row].clone(),
        }
    }

    /// Calls `f` with the cell of each of `rows`, in order — a column read
    /// a column at a time: the type is matched once for the run, not once
    /// per row.
    pub fn for_each_cell<'a>(&'a self, rows: &[usize], mut f: impl FnMut(CellRef<'a>)) {
        /// A typed column's rows: `cell` of the payload, NULL in null slots
        /// (whose payload is not read: a string index there may point past
        /// the dictionary).
        fn typed<'a, T: Copy>(
            rows: &[usize],
            (data, nulls): (&[T], &[bool]),
            cell: impl Fn(T) -> CellRef<'a>,
            f: &mut impl FnMut(CellRef<'a>),
        ) {
            for &r in rows {
                f(if nulls[r] {
                    CellRef::Null
                } else {
                    cell(data[r])
                });
            }
        }
        match self {
            Column::Int { data, nulls } => typed(rows, (data, nulls), CellRef::Int, &mut f),
            Column::Float { data, nulls } => typed(rows, (data, nulls), CellRef::Float, &mut f),
            Column::Bool { data, nulls } => typed(rows, (data, nulls), CellRef::Bool, &mut f),
            Column::Str { dict, idx, nulls } => {
                let cell = |i: u32| CellRef::Str(&dict[i as usize]);
                typed(rows, (idx, nulls), cell, &mut f);
            }
            Column::Var(vals) => rows.iter().for_each(|&r| f(CellRef::from(&vals[r]))),
        }
    }

    /// The cell at `row`, read in place.
    #[must_use]
    #[inline]
    pub fn cell(&self, row: usize) -> CellRef<'_> {
        fn typed<T: Copy>(data: &[T], nulls: &[bool], row: usize) -> Option<T> {
            (!nulls[row]).then(|| data[row])
        }
        match self {
            Column::Int { data, nulls } => {
                typed(data, nulls, row).map_or(CellRef::Null, CellRef::Int)
            }
            Column::Float { data, nulls } => {
                typed(data, nulls, row).map_or(CellRef::Null, CellRef::Float)
            }
            Column::Bool { data, nulls } => {
                typed(data, nulls, row).map_or(CellRef::Null, CellRef::Bool)
            }
            Column::Str { dict, idx, nulls } => {
                typed(idx, nulls, row).map_or(CellRef::Null, |i| CellRef::Str(&dict[i as usize]))
            }
            Column::Var(vals) => (&vals[row]).into(),
        }
    }

    /// [`Value::size_bytes`] summed over the cells `rows`.
    #[must_use]
    pub fn size_bytes(&self, rows: Range<usize>) -> u64 {
        let n = rows.len() as u64;
        match self {
            Column::Int { nulls, .. } | Column::Float { nulls, .. } => {
                let null = nulls[rows].iter().filter(|&&null| null).count() as u64;
                null + 8 * (n - null)
            }
            Column::Bool { .. } => n,
            Column::Str { dict, idx, nulls } => (idx[rows.clone()].iter().zip(&nulls[rows]))
                .map(|(&i, &null)| {
                    if null {
                        1
                    } else {
                        dict[i as usize].len() as u64 + 1
                    }
                })
                .sum(),
            Column::Var(vals) => vals[rows].iter().map(|v| v.size_bytes() as u64).sum(),
        }
    }

    /// A column of `n` NULLs, typed as [`Column::from_cells`] types one:
    /// `Int`, ready to take the first non-NULL type it is given.
    #[must_use]
    pub fn nulls(n: usize) -> Column {
        Column::Int {
            data: vec![0; n],
            nulls: vec![true; n],
        }
    }

    /// The payload and null mask of a typed column, to change both alike;
    /// `None` for `Var`.
    fn parts_mut(&mut self) -> Option<(&mut dyn Payload, &mut Vec<bool>)> {
        match self {
            Column::Int { data, nulls } => Some((data, nulls)),
            Column::Float { data, nulls } => Some((data, nulls)),
            Column::Bool { data, nulls } => Some((data, nulls)),
            Column::Str { idx, nulls, .. } => Some((idx, nulls)),
            Column::Var(_) => None,
        }
    }

    /// Makes room for `additional` more cells.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::Var(vals) => vals.reserve(additional),
            col => {
                let (data, nulls) = col.parts_mut().expect("typed");
                data.reserve(additional);
                nulls.reserve(additional);
            }
        }
    }

    /// Cells the column holds room for.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. } => nulls.capacity(),
            Column::Var(vals) => vals.capacity(),
        }
    }

    /// Gives unused room back to the allocator.
    pub fn shrink_to_fit(&mut self) {
        match self {
            Column::Var(vals) => vals.shrink_to_fit(),
            col => {
                let (data, nulls) = col.parts_mut().expect("typed");
                data.shrink_to_fit();
                nulls.shrink_to_fit();
            }
        }
    }

    /// Appends `n` NULLs.
    pub fn push_nulls(&mut self, n: usize) {
        match self {
            Column::Var(vals) => vals.resize(vals.len() + n, Value::Null),
            col => {
                let (data, nulls) = col.parts_mut().expect("typed");
                data.push_defaults(n);
                nulls.resize(nulls.len() + n, true);
            }
        }
    }

    /// Appends one cell, the column's type following [`Column::from_cells`]
    /// over all its cells: an all-NULL column takes the first non-NULL
    /// type, and a cell of another type — or a non-finite float — makes the
    /// column [`Column::Var`], which keeps every cell's exact variant
    /// (`Int(7)` stays `Int(7)` beside a `Float(7.0)`). A string joins the
    /// dictionary unless it repeats the last entry, so a dictionary built
    /// by pushes may list a string more than once; every reader compares
    /// and sizes strings by their content.
    #[inline]
    pub fn push(&mut self, v: Value) {
        match (self, v) {
            (Column::Int { data, nulls }, Value::Int(i)) => {
                data.push(i);
                nulls.push(false);
            }
            (Column::Float { data, nulls }, Value::Float(f)) if f.is_finite() => {
                data.push(f);
                nulls.push(false);
            }
            (Column::Str { dict, idx, nulls }, Value::Str(s)) => {
                if dict.last() != Some(&s) {
                    dict.push(s);
                }
                idx.push(dict.len() as u32 - 1);
                nulls.push(false);
            }
            (Column::Var(vals), v) => vals.push(v),
            (col, v) => col.push_other(v),
        }
    }

    /// [`Column::push`] of a NULL, or of a cell the column cannot take as
    /// it is typed.
    fn push_other(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::Bool { data, nulls }, Value::Bool(b)) => {
                data.push(b);
                nulls.push(false);
            }
            (col, Value::Null) => col.push_nulls(1),
            (col, v) if col.is_empty() => {
                let ty = Ty::of((&v).into()).unwrap_or(Ty::Mixed);
                *col = Column::empty(ty, col.capacity());
                col.push(v);
            }
            (_, v) => self.retype(1, |_| CellRef::from(&v)),
        }
    }

    /// An empty column of type `ty` with room for `capacity` cells.
    fn empty(ty: Ty, capacity: usize) -> Column {
        let nulls = Vec::with_capacity(capacity);
        match ty {
            Ty::None | Ty::Int => Column::Int {
                data: Vec::with_capacity(capacity),
                nulls,
            },
            Ty::Float => Column::Float {
                data: Vec::with_capacity(capacity),
                nulls,
            },
            Ty::Bool => Column::Bool {
                data: Vec::with_capacity(capacity),
                nulls,
            },
            Ty::Str => Column::Str {
                dict: Vec::new(),
                idx: Vec::with_capacity(capacity),
                nulls,
            },
            Ty::Mixed => Column::Var(Vec::with_capacity(capacity)),
        }
    }

    /// The column followed by the `n` cells `more(k)`, rebuilt by
    /// [`Column::from_cells`]: how a column takes a cell its type cannot
    /// hold — the first non-NULL one of an all-NULL column, or one of
    /// another type, which makes it `Var`. A column changes type at most
    /// twice, so the copy is paid at most twice.
    fn retype<'a>(&mut self, n: usize, more: impl Fn(usize) -> CellRef<'a>) {
        let (room, len) = (self.capacity(), self.len());
        let cell = |r: usize| if r < len { self.cell(r) } else { more(r - len) };
        *self = Column::from_cells(len + n, cell);
        self.reserve(room.saturating_sub(self.len()));
    }

    /// Appends the cells of `rows` of `src` — what [`Column::push`] of each
    /// would, read a column at a time: same-typed columns copy payloads,
    /// and a string column's entries join this column's dictionary once per
    /// distinct string per call. Nothing is allocated per cell (except into
    /// a [`Column::Var`], which owns its strings).
    pub fn append(&mut self, src: &Column, rows: &[usize]) {
        fn extend<T: Copy>(
            (data, nulls): (&mut Vec<T>, &mut Vec<bool>),
            (from, from_nulls): (&[T], &[bool]),
            rows: &[usize],
        ) {
            data.extend(rows.iter().map(|&r| from[r]));
            nulls.extend(rows.iter().map(|&r| from_nulls[r]));
        }
        match (&mut *self, src) {
            (Column::Int { data, nulls }, Column::Int { data: d, nulls: n }) => {
                extend((data, nulls), (d, n), rows);
            }
            (Column::Float { data, nulls }, Column::Float { data: d, nulls: n }) => {
                extend((data, nulls), (d, n), rows);
            }
            (Column::Bool { data, nulls }, Column::Bool { data: d, nulls: n }) => {
                extend((data, nulls), (d, n), rows);
            }
            (
                Column::Str { dict, idx, nulls },
                Column::Str {
                    dict: from,
                    idx: from_idx,
                    nulls: from_nulls,
                },
            ) => {
                let mut remap = vec![u32::MAX; from.len()];
                for &r in rows {
                    nulls.push(from_nulls[r]);
                    if from_nulls[r] {
                        idx.push(0);
                        continue;
                    }
                    let i = from_idx[r] as usize;
                    if remap[i] == u32::MAX {
                        remap[i] = dict.len() as u32;
                        dict.push(from[i].clone());
                    }
                    idx.push(remap[i]);
                }
            }
            (Column::Var(_), _) | (_, Column::Var(_)) => {
                rows.iter().for_each(|&r| self.push(src.value(r)));
            }
            (_, src) if rows.iter().all(|&r| src.is_null(r)) => self.push_nulls(rows.len()),
            (col, src) if col.is_empty() => {
                *col = Column::empty(src.ty(), col.capacity());
                col.append(src, rows);
            }
            (_, src) => self.retype(rows.len(), |k| src.cell(rows[k])),
        }
    }

    /// The `n` cells `at(k) = (source, row)` of `sources`: exactly
    /// [`Column::from_cells`] over them, typed from the source columns
    /// rather than cell by cell. A typed source's non-NULL cells all have
    /// its type, so the result's type is read off the sources of its
    /// non-NULL cells, and `Int`/`Float`/`Bool` payloads are copied where
    /// they lie, without a [`CellRef`] per cell — how a reducer gathers a
    /// value column across the shuffle's arenas (about half the time of
    /// `from_cells` over the same cells). Strings and mixed types are built
    /// by `from_cells`' own code.
    pub fn gather(sources: &[&Column], n: usize, at: impl Fn(usize) -> (usize, usize)) -> Column {
        let at: Vec<(usize, usize)> = (0..n).map(at).collect();
        Column::gather_at(sources, &at, false).expect("a column takes any cell")
    }

    /// [`Column::gather`] of the cells `at`; with `frame`, a non-finite
    /// float is the error [`ColumnBatch::from_cells`] makes of it rather
    /// than a [`Column::Var`] cell.
    fn gather_at(
        sources: &[&Column],
        at: &[(usize, usize)],
        frame: bool,
    ) -> Result<Column, RelError> {
        let cell = |k: usize| sources[at[k].0].cell(at[k].1);
        if sources.iter().any(|src| matches!(src, Column::Var(_))) {
            if frame {
                (0..at.len()).try_for_each(|k| Ty::of(cell(k)).map(drop))?;
            }
            return Ok(Column::from_cells(at.len(), cell));
        }
        // Sources all of one fixed-width type are read in one pass: the
        // result takes their type, or `Int` when no cell is non-NULL.
        let first = sources.first().map(|src| src.ty());
        let one_type = first.filter(|&ty| {
            matches!(ty, Ty::Int | Ty::Float | Ty::Bool) && sources.iter().all(|s| s.ty() == ty)
        });
        let ty = match one_type {
            Some(ty) => ty,
            None => at.iter().try_fold(Ty::None, |ty, &(s, r)| {
                Ok::<_, RelError>(ty.with(match sources[s] {
                    Column::Float { data, nulls } if frame && !nulls[r] => {
                        Ty::of(CellRef::Float(data[r]))?
                    }
                    src if src.is_null(r) => Ty::None,
                    src => src.ty(),
                }))
            })?,
        };
        /// Payloads and null mask of the result: a source of its type is
        /// read in place, any other holds only NULLs here.
        fn fixed<'c, T: Copy + Default + 'c>(
            sources: &[&'c Column],
            at: &[(usize, usize)],
            slices: impl Fn(&'c Column) -> Option<(&'c [T], &'c [bool])>,
        ) -> (Vec<T>, Vec<bool>) {
            let slices: Vec<_> = sources.iter().map(|&c| slices(c)).collect();
            at.iter()
                .map(|&(s, r)| slices[s].map_or((T::default(), true), |(d, m)| (d[r], m[r])))
                .unzip()
        }
        let col = match ty {
            Ty::None | Ty::Int => {
                let (data, nulls) = fixed(sources, at, |c| match c {
                    Column::Int { data, nulls } => Some((data, nulls)),
                    _ => None,
                });
                Column::Int { data, nulls }
            }
            Ty::Float => {
                let (data, nulls) = fixed(sources, at, |c| match c {
                    Column::Float { data, nulls } => Some((data, nulls)),
                    _ => None,
                });
                Column::Float { data, nulls }
            }
            Ty::Bool => {
                let (data, nulls) = fixed(sources, at, |c| match c {
                    Column::Bool { data, nulls } => Some((data, nulls)),
                    _ => None,
                });
                Column::Bool { data, nulls }
            }
            Ty::Str | Ty::Mixed => Column::typed(ty, at.len(), cell),
        };
        Ok(match col {
            Column::Float { data, nulls }
                if frame && (data.iter().zip(&nulls)).any(|(f, &null)| !null && !f.is_finite()) =>
            {
                return Err(frame_err("non-finite float in batch"))
            }
            Column::Float { nulls, .. } | Column::Bool { nulls, .. }
                if nulls.iter().all(|&null| null) =>
            {
                Column::nulls(at.len())
            }
            col => col,
        })
    }

    /// The type of a typed column's cells ([`Ty::Mixed`] for `Var`).
    fn ty(&self) -> Ty {
        match self {
            Column::Int { .. } => Ty::Int,
            Column::Float { .. } => Ty::Float,
            Column::Bool { .. } => Ty::Bool,
            Column::Str { .. } => Ty::Str,
            Column::Var(_) => Ty::Mixed,
        }
    }

    fn wire_tag(&self) -> u8 {
        match self {
            Column::Int { .. } => 0,
            Column::Float { .. } => 1,
            Column::Bool { .. } => 2,
            Column::Str { .. } => 3,
            Column::Var(_) => 4,
        }
    }
}

/// A run of rows in columnar form. See the module docs for the wire
/// format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnBatch {
    cols: Vec<Column>,
    rows: usize,
}

fn frame_err(what: impl Into<String>) -> RelError {
    RelError::Frame(what.into())
}

/// Bytes of a frame's header for `ncols` columns: magic, column and row
/// counts, one `(tag, chunk_len, chunk_sum)` entry per column, header sum
/// (the module docs' layout).
const fn header_len(ncols: usize) -> usize {
    4 + 2 + 4 + ncols * (1 + 4 + 8) + 8
}

/// What one column's non-null cells have in common.
#[derive(Debug, Default, PartialEq, Clone, Copy)]
enum Ty {
    /// No non-null cell (encoded as `Int`).
    #[default]
    None,
    Int,
    Float,
    Bool,
    Str,
    /// More than one type: the [`Column::Var`] escape hatch.
    Mixed,
}

/// A float the frame codec refuses, as the text codec refuses `NaN`/`inf`.
fn non_finite(v: &Value) -> bool {
    matches!(v, Value::Float(f) if !f.is_finite())
}

impl Ty {
    /// The type of one cell (`Ty::None` for NULL) — the single inference the
    /// encoder ([`ColumnBatch::from_cells`]) and the sizer ([`FrameSizer`])
    /// share, including the rejection of non-finite floats.
    fn of(cell: CellRef<'_>) -> Result<Ty, RelError> {
        Ok(match cell {
            CellRef::Null => Ty::None,
            CellRef::Int(_) => Ty::Int,
            CellRef::Float(f) if !f.is_finite() => {
                return Err(frame_err("non-finite float in batch"))
            }
            CellRef::Float(_) => Ty::Float,
            CellRef::Bool(_) => Ty::Bool,
            CellRef::Str(_) => Ty::Str,
        })
    }

    /// A column of type `self` after one more cell of type `cell`.
    fn with(self, cell: Ty) -> Ty {
        match (self, cell) {
            (t, Ty::None) | (Ty::None, t) => t,
            (t, vt) if t == vt => t,
            _ => Ty::Mixed,
        }
    }
}

/// One pass over a column deciding its type.
fn column_type<'a>(nrows: usize, cell: impl Fn(usize) -> CellRef<'a>) -> Result<Ty, RelError> {
    (0..nrows).try_fold(Ty::None, |ty, r| Ok(ty.with(Ty::of(cell(r))?)))
}

/// Payload vector and null mask of a typed column: `payload` reads a cell
/// of the column's type; the rest — nulls, by [`column_type`] — keep the
/// default payload that makes the encoding canonical.
fn typed_cells<'a, T: Clone + Default>(
    nrows: usize,
    cell: impl Fn(usize) -> CellRef<'a>,
    mut payload: impl FnMut(CellRef<'a>) -> Option<T>,
) -> (Vec<T>, Vec<bool>) {
    let mut data = vec![T::default(); nrows];
    let mut nulls = vec![false; nrows];
    for (r, (slot, null)) in data.iter_mut().zip(&mut nulls).enumerate() {
        match payload(cell(r)) {
            Some(v) => *slot = v,
            None => *null = true,
        }
    }
    (data, nulls)
}

impl ColumnBatch {
    /// Builds a batch from uniform-width rows — [`ColumnBatch::from_cells`]
    /// over `rows[r][c]`, the first row fixing the width.
    ///
    /// # Errors
    ///
    /// [`RelError::FieldCount`] when rows differ in width, otherwise as
    /// [`ColumnBatch::from_cells`].
    pub fn from_rows(rows: &[Row]) -> Result<ColumnBatch, RelError> {
        let width = rows.first().map_or(0, Row::len);
        for r in rows {
            if r.len() != width {
                return Err(RelError::FieldCount {
                    expected: width,
                    found: r.len(),
                });
            }
            // `from_cells` rejects these too, column by column; doing it
            // here reads every row's cells once in allocation order before
            // the column passes stride across them — measured, frame
            // encoding of cold rows is ~10 % slower without this pass.
            if r.values().iter().any(non_finite) {
                return Err(frame_err("non-finite float in batch"));
            }
        }
        ColumnBatch::from_cells(rows.len(), width, |r, c| &rows[r].values()[c])
    }

    /// Builds a batch of `nrows` × `width` cells read in place through
    /// `cell(row, col)` — the rows need not exist as `Row`s (a shuffle
    /// segment's `key ⧺ value` pairs are two parallel columns). Column types
    /// are inferred per column: if every non-null value shares one type
    /// the column is typed (strings dictionary-encoded); mixed columns fall
    /// back to [`Column::Var`]. All-null columns become `Int`.
    ///
    /// # Errors
    ///
    /// [`RelError::Frame`] on non-finite floats (the columnar counterpart
    /// of the text codec rejecting `NaN`/`inf`).
    pub fn from_cells<'a>(
        nrows: usize,
        width: usize,
        cell: impl Fn(usize, usize) -> &'a Value,
    ) -> Result<ColumnBatch, RelError> {
        let mut cols = Vec::with_capacity(width);
        for c in 0..width {
            let cell = |r| CellRef::from(cell(r, c));
            cols.push(Column::typed(column_type(nrows, cell)?, nrows, cell));
        }
        Ok(ColumnBatch { cols, rows: nrows })
    }

    /// Builds a batch of `nrows` × `width` cells read where they lie in
    /// typed columns: cell `(row, col)` is row `at(row, col).1` of
    /// `sources[at(row, col).0]`. Exactly [`ColumnBatch::from_cells`] over
    /// those cells, its frame byte for byte, whatever the sources hold
    /// beyond them: a column is typed by its cells here ([`Column::gather`]),
    /// so one all NULL here is `Int` and a `Var` source's cells of one type
    /// are typed, and a string dictionary lists each string once, in the
    /// order of first appearance here — how a task's output records and a
    /// shuffle segment are cut into frames straight from their arenas.
    ///
    /// # Errors
    ///
    /// As [`ColumnBatch::from_cells`].
    pub fn gather(
        sources: &[&Column],
        nrows: usize,
        width: usize,
        at: impl Fn(usize, usize) -> (usize, usize),
    ) -> Result<ColumnBatch, RelError> {
        let mut cells = Vec::with_capacity(nrows);
        let mut cols = Vec::with_capacity(width);
        for c in 0..width {
            cells.clear();
            cells.extend((0..nrows).map(|r| at(r, c)));
            cols.push(Column::gather_at(sources, &cells, true)?);
        }
        Ok(ColumnBatch { cols, rows: nrows })
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// The typed columns.
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Total dictionary entries across string columns — the compression
    /// the format gets from repeated strings, surfaced in job metrics.
    #[must_use]
    pub fn dict_entries(&self) -> u64 {
        self.cols
            .iter()
            .map(|c| match c {
                Column::Str { dict, .. } => dict.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Materializes one row.
    #[must_use]
    pub fn row(&self, r: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value(r)).collect())
    }

    /// Materializes every row (the boundary back to row-at-a-time code).
    #[must_use]
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows).map(|r| self.row(r)).collect()
    }

    /// The rows for which `mask` is `true` of the columns `[first_col..]`,
    /// as a new batch — a column-at-a-time selection that copies each kept
    /// column once (a tag filter drops the leading tag column with it).
    ///
    /// # Panics
    ///
    /// When `mask.len() != num_rows()`.
    #[must_use]
    pub fn filter_from(&self, first_col: usize, mask: &[bool]) -> ColumnBatch {
        assert_eq!(mask.len(), self.rows, "mask length");
        let keep: Vec<u32> = (0..self.rows as u32)
            .filter(|&i| mask[i as usize])
            .collect();
        let cols = self.cols.iter().skip(first_col).map(|c| c.take(&keep));
        ColumnBatch {
            cols: cols.collect(),
            rows: keep.len(),
        }
    }

    /// Encodes the batch as one frame (see module docs for the layout).
    ///
    /// # Panics
    ///
    /// When the batch exceeds the wire limits (65535 columns or
    /// `u32::MAX` rows) — far beyond anything the engine constructs.
    #[must_use]
    pub fn encode_frame(&self) -> Vec<u8> {
        assert!(self.cols.len() <= usize::from(u16::MAX), "too many columns");
        assert!(self.rows <= u32::MAX as usize, "too many rows");
        let chunks: Vec<Vec<u8>> = self.cols.iter().map(encode_chunk).collect();
        let total = header_len(chunks.len()) + chunks.iter().map(Vec::len).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&FRAME_MAGIC);
        out.extend_from_slice(&(self.cols.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        for (col, chunk) in self.cols.iter().zip(&chunks) {
            out.push(col.wire_tag());
            out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            out.extend_from_slice(&xxh64(chunk, 0).to_le_bytes());
        }
        let header_sum = xxh64(&out, 0);
        out.extend_from_slice(&header_sum.to_le_bytes());
        for chunk in &chunks {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Decodes and *verifies* one frame: header checksum, per-column chunk
    /// checksums, exact length, dictionary UTF-8 and index bounds, finite
    /// floats. Any single corrupted bit fails one of these checks.
    ///
    /// # Errors
    ///
    /// [`RelError::Frame`] naming the first failed check.
    pub fn decode_frame(bytes: &[u8]) -> Result<ColumnBatch, RelError> {
        let mut rd = Reader::new(bytes);
        let magic = rd.take(4)?;
        if magic != FRAME_MAGIC {
            return Err(frame_err("bad frame magic"));
        }
        let ncols = rd.read_u16()? as usize;
        let nrows = rd.read_u32()? as usize;
        let mut headers = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let tag = rd.read_u8()?;
            let len = rd.read_u32()? as usize;
            let sum = rd.read_u64()?;
            headers.push((tag, len, sum));
        }
        let header_end = rd.pos;
        let stored_header_sum = rd.read_u64()?;
        if xxh64(&bytes[..header_end], 0) != stored_header_sum {
            return Err(frame_err("frame header checksum mismatch"));
        }
        let mut cols = Vec::with_capacity(ncols);
        for (c, (tag, len, sum)) in headers.into_iter().enumerate() {
            let chunk = rd.take(len)?;
            if xxh64(chunk, 0) != sum {
                return Err(frame_err(format!("column {c} chunk checksum mismatch")));
            }
            cols.push(decode_chunk(tag, chunk, nrows, c)?);
        }
        if rd.pos != bytes.len() {
            return Err(frame_err("trailing bytes after frame"));
        }
        Ok(ColumnBatch { cols, rows: nrows })
    }
}

/// Encoded size and dictionary-entry count of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStats {
    /// `encode_frame().len()`.
    pub bytes: u64,
    /// [`ColumnBatch::dict_entries`].
    pub dict_entries: u64,
}

/// Exactly what [`ColumnBatch::from_cells`] over the cells fed to it would
/// encode to — [`FrameStats`] — computed without materializing columns or
/// bytes: byte accounting that needs only the numbers. Chunk sizes follow
/// `encode_chunk`.
///
/// Cells are fed per column, one at a time ([`FrameSizer::add_cell`]) or a
/// typed column's rows at once ([`FrameSizer::add_column`]), and each is
/// folded into its column's type, its size were the column to end up
/// [`Column::Var`], and its dictionary. None of these depends on the order
/// or the grouping of the feeds, so a caller may size rows where they lie,
/// or while it writes them.
#[derive(Debug)]
pub struct FrameSizer {
    cols: Vec<ColumnSizer>,
    /// Cleared by a non-finite float: `from_cells` has no batch then.
    finite: bool,
}

#[derive(Debug, Default)]
struct ColumnSizer {
    ty: Ty,
    cells: u64,
    var_bytes: u64,
    /// The distinct strings fed while the column was `Str`, owned: the
    /// cells they came from need not outlive the sizer.
    dict: HashSet<Box<str>, FnvBuildHasher>,
    dict_bytes: u64,
}

impl ColumnSizer {
    fn add_string(&mut self, s: &str) {
        if !self.dict.contains(s) {
            self.dict_bytes += 4 + s.len() as u64;
            self.dict.insert(s.into());
        }
    }

    /// Folds `rows` of a fixed-width typed column: null slots as NULL
    /// (one `Var` byte), the rest as `ty` (`var_width` `Var` bytes each).
    fn add_fixed(&mut self, ty: Ty, var_width: u64, rows: &[usize], nulls: &[bool]) {
        let n = rows.len() as u64;
        let null = rows.iter().filter(|&&r| nulls[r]).count() as u64;
        if null < n {
            self.ty = self.ty.with(ty);
        }
        self.cells += n;
        self.var_bytes += null + (n - null) * var_width;
    }
}

impl FrameSizer {
    /// A sizer of an empty frame of `width` columns.
    #[must_use]
    pub fn new(width: usize) -> Self {
        FrameSizer {
            cols: (0..width).map(|_| ColumnSizer::default()).collect(),
            finite: true,
        }
    }

    /// Number of columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Adds one cell to column `c`.
    pub fn add_cell(&mut self, c: usize, v: &Value) {
        self.add(c, v.into());
    }

    fn add(&mut self, c: usize, cell: CellRef<'_>) {
        let Ok(ty) = Ty::of(cell) else {
            self.finite = false;
            return;
        };
        let col = &mut self.cols[c];
        col.ty = col.ty.with(ty);
        col.cells += 1;
        col.var_bytes += match cell {
            CellRef::Null => 1,
            CellRef::Bool(_) => 2,
            CellRef::Int(_) | CellRef::Float(_) => 9,
            CellRef::Str(s) => {
                if col.ty == Ty::Str {
                    col.add_string(s);
                }
                5 + s.len() as u64
            }
        };
    }

    /// Adds the cells of `rows` of `column` to column `c` — what
    /// [`FrameSizer::add_cell`] of each would, read a column at a time: a
    /// typed column's cells all have its type or are NULL, so they fold in
    /// bulk, and a string column hashes each dictionary entry once per call
    /// rather than once per row.
    pub fn add_column(&mut self, c: usize, column: &Column, rows: &[usize]) {
        match column {
            Column::Int { nulls, .. } => self.cols[c].add_fixed(Ty::Int, 9, rows, nulls),
            Column::Float { data, nulls } => {
                if rows.iter().any(|&r| !nulls[r] && !data[r].is_finite()) {
                    self.finite = false;
                    return;
                }
                self.cols[c].add_fixed(Ty::Float, 9, rows, nulls);
            }
            Column::Bool { nulls, .. } => self.cols[c].add_fixed(Ty::Bool, 2, rows, nulls),
            Column::Str { dict, idx, nulls } => {
                let col = &mut self.cols[c];
                let mut used = vec![false; dict.len()];
                let (mut null, mut var_bytes) = (0, 0);
                for &r in rows {
                    if nulls[r] {
                        null += 1;
                    } else {
                        let i = idx[r] as usize;
                        var_bytes += 5 + dict[i].len() as u64;
                        used[i] = true;
                    }
                }
                let n = rows.len() as u64;
                if null < n {
                    col.ty = col.ty.with(Ty::Str);
                }
                col.cells += n;
                col.var_bytes += null + var_bytes;
                // Per cell, a string joins the dictionary while the column is
                // `Str`; once it is not, the dictionary no longer counts.
                if col.ty == Ty::Str {
                    let strings = used.iter().zip(dict).filter(|(used, _)| **used);
                    strings.for_each(|(_, s)| col.add_string(s));
                }
            }
            Column::Var(vals) => rows.iter().for_each(|&r| self.add(c, (&vals[r]).into())),
        }
    }

    /// The frame's size and dictionary count; `None` exactly when
    /// `from_cells` over the same cells fails (a non-finite float).
    #[must_use]
    pub fn finish(&self) -> Option<FrameStats> {
        if !self.finite {
            return None;
        }
        let mut stats = FrameStats {
            bytes: header_len(self.cols.len()) as u64,
            dict_entries: 0,
        };
        for col in &self.cols {
            let n = col.cells;
            stats.bytes += match col.ty {
                Ty::None | Ty::Int | Ty::Float => n * 9,
                Ty::Bool => n * 2,
                Ty::Str => {
                    stats.dict_entries += col.dict.len() as u64;
                    n * 5 + 4 + col.dict_bytes
                }
                Ty::Mixed => col.var_bytes,
            };
        }
        Some(stats)
    }
}

/// [`FrameSizer`] fed the `nrows` × `width` cells `cell(row, col)` one by
/// one, row-major: exactly what [`ColumnBatch::from_cells`] over the same
/// cells would encode to, `None` exactly when `from_cells` fails.
#[must_use]
pub fn frame_stats<'a>(
    nrows: usize,
    width: usize,
    cell: impl Fn(usize, usize) -> &'a Value,
) -> Option<FrameStats> {
    let mut sizer = FrameSizer::new(width);
    for r in 0..nrows {
        for c in 0..width {
            sizer.add_cell(c, cell(r, c));
        }
    }
    sizer.finish()
}

/// Encodes rows as a sequence of frames of at most `rows_per_frame` rows
/// each (an empty input yields no frames), returning the frames and their
/// total dictionary-entry count.
///
/// # Errors
///
/// As [`ColumnBatch::from_rows`].
pub fn encode_frames(rows: &[Row], rows_per_frame: usize) -> Result<(Vec<Vec<u8>>, u64), RelError> {
    let mut dict_entries = 0;
    let frames = rows
        .chunks(rows_per_frame.max(1))
        .map(|chunk| {
            let batch = ColumnBatch::from_rows(chunk)?;
            dict_entries += batch.dict_entries();
            Ok(batch.encode_frame())
        })
        .collect::<Result<_, RelError>>()?;
    Ok((frames, dict_entries))
}

/// Decodes a sequence of frames back into one row run.
///
/// # Errors
///
/// As [`ColumnBatch::decode_frame`].
pub fn decode_frames(frames: &[Vec<u8>]) -> Result<Vec<Row>, RelError> {
    let mut rows = Vec::new();
    for f in frames {
        rows.extend(ColumnBatch::decode_frame(f)?.to_rows());
    }
    Ok(rows)
}

/// Bounds-checked little-endian reader over a frame.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RelError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| frame_err("truncated frame"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn read_u8(&mut self) -> Result<u8, RelError> {
        Ok(self.take(1)?[0])
    }

    fn read_u16(&mut self) -> Result<u16, RelError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn read_u32(&mut self) -> Result<u32, RelError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn read_u64(&mut self) -> Result<u64, RelError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn encode_chunk(col: &Column) -> Vec<u8> {
    let mut out = Vec::new();
    let push_nulls = |out: &mut Vec<u8>, nulls: &[bool]| {
        out.extend(nulls.iter().map(|&n| u8::from(n)));
    };
    match col {
        Column::Int { data, nulls } => {
            push_nulls(&mut out, nulls);
            for (v, &n) in data.iter().zip(nulls) {
                out.extend_from_slice(&(if n { 0 } else { *v }).to_le_bytes());
            }
        }
        Column::Float { data, nulls } => {
            push_nulls(&mut out, nulls);
            for (v, &n) in data.iter().zip(nulls) {
                out.extend_from_slice(&(if n { 0.0 } else { *v }).to_bits().to_le_bytes());
            }
        }
        Column::Bool { data, nulls } => {
            push_nulls(&mut out, nulls);
            out.extend(data.iter().zip(nulls).map(|(&v, &n)| u8::from(v && !n)));
        }
        Column::Str { dict, idx, nulls } => {
            push_nulls(&mut out, nulls);
            out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
            for s in dict {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            for (v, &n) in idx.iter().zip(nulls) {
                out.extend_from_slice(&(if n { 0 } else { *v }).to_le_bytes());
            }
        }
        Column::Var(vals) => {
            for v in vals {
                match v {
                    Value::Null => out.push(0),
                    Value::Bool(b) => {
                        out.push(1);
                        out.push(u8::from(*b));
                    }
                    Value::Int(i) => {
                        out.push(2);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        out.push(3);
                        out.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                    Value::Str(s) => {
                        out.push(4);
                        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        out.extend_from_slice(s.as_bytes());
                    }
                }
            }
        }
    }
    out
}

/// `n` flag bytes — null masks, booleans — each of which must be 0 or 1,
/// checked in the same pass that reads them: the bytes' OR is at most 1
/// exactly when every byte is.
fn read_flags(rd: &mut Reader, n: usize, col: usize, what: &str) -> Result<Vec<bool>, RelError> {
    let mut any = 0u8;
    let flags = rd.take(n)?.iter().map(|&b| {
        any |= b;
        b != 0
    });
    let flags = flags.collect();
    if any > 1 {
        return Err(frame_err(format!("column {col}: bad {what} byte")));
    }
    Ok(flags)
}

/// `n` little-endian `W`-byte words, read as one bounds-checked slice.
fn read_words<'a, const W: usize>(
    rd: &mut Reader<'a>,
    n: usize,
) -> Result<impl Iterator<Item = [u8; W]> + 'a, RelError> {
    let bytes = rd.take(n.saturating_mul(W))?;
    Ok(bytes
        .chunks_exact(W)
        .map(|w| w.try_into().expect("W bytes")))
}

fn decode_chunk(tag: u8, chunk: &[u8], nrows: usize, col: usize) -> Result<Column, RelError> {
    let mut rd = Reader::new(chunk);
    let parsed = match tag {
        0 => {
            let nulls = read_flags(&mut rd, nrows, col, "null")?;
            let data = read_words(&mut rd, nrows)?
                .map(i64::from_le_bytes)
                .collect();
            Column::Int { data, nulls }
        }
        1 => {
            let nulls = read_flags(&mut rd, nrows, col, "null")?;
            let data: Vec<f64> = read_words(&mut rd, nrows)?
                .map(f64::from_le_bytes)
                .collect();
            if data
                .iter()
                .zip(&nulls)
                .any(|(f, &null)| !null && !f.is_finite())
            {
                return Err(frame_err(format!("column {col}: non-finite float")));
            }
            Column::Float { data, nulls }
        }
        2 => {
            let nulls = read_flags(&mut rd, nrows, col, "null")?;
            let data = read_flags(&mut rd, nrows, col, "bool")?;
            Column::Bool { data, nulls }
        }
        3 => {
            let nulls = read_flags(&mut rd, nrows, col, "null")?;
            let dict_len = rd.read_u32()? as usize;
            let mut dict = Vec::with_capacity(dict_len.min(chunk.len()));
            for _ in 0..dict_len {
                let len = rd.read_u32()? as usize;
                let s = std::str::from_utf8(rd.take(len)?)
                    .map_err(|_| frame_err(format!("column {col}: dictionary not UTF-8")))?;
                dict.push(s.to_string());
            }
            let idx: Vec<u32> = read_words(&mut rd, nrows)?
                .map(u32::from_le_bytes)
                .collect();
            let mut slots = idx.iter().zip(&nulls);
            if let Some((v, _)) = slots.find(|&(&v, &null)| !null && v as usize >= dict.len()) {
                return Err(frame_err(format!("column {col}: dictionary index {v}")));
            }
            Column::Str { dict, idx, nulls }
        }
        4 => {
            let mut vals = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                vals.push(match rd.read_u8()? {
                    0 => Value::Null,
                    1 => match rd.read_u8()? {
                        0 => Value::Bool(false),
                        1 => Value::Bool(true),
                        _ => return Err(frame_err(format!("column {col}: bad bool byte"))),
                    },
                    2 => Value::Int(rd.read_u64()? as i64),
                    3 => {
                        let f = f64::from_bits(rd.read_u64()?);
                        if !f.is_finite() {
                            return Err(frame_err(format!("column {col}: non-finite float")));
                        }
                        Value::Float(f)
                    }
                    4 => {
                        let len = rd.read_u32()? as usize;
                        let s = std::str::from_utf8(rd.take(len)?)
                            .map_err(|_| frame_err(format!("column {col}: string not UTF-8")))?;
                        Value::Str(s.to_string())
                    }
                    _ => return Err(frame_err(format!("column {col}: bad value tag"))),
                });
            }
            Column::Var(vals)
        }
        other => return Err(frame_err(format!("column {col}: unknown tag {other}"))),
    };
    if rd.pos != chunk.len() {
        return Err(frame_err(format!("column {col}: trailing chunk bytes")));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn sample_rows() -> Vec<Row> {
        vec![
            row![1i64, "apple", 1.5f64, true],
            Row::new(vec![
                Value::Null,
                Value::Str("banana".into()),
                Value::Null,
                Value::Bool(false),
            ]),
            row![3i64, "apple", -2.25f64, true],
        ]
    }

    /// Rows compare within a column — typed or `Var` — exactly as their
    /// values do.
    #[test]
    fn rows_compare_within_a_column_as_values() {
        let ladder = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(0.5),
            Value::Int(7),
            Value::Float(7.0),
            Value::Float(f64::NAN),
            Value::Str(String::new()),
            Value::Str("a".into()),
        ];
        let var = Column::Var(ladder.to_vec());
        for (i, x) in ladder.iter().enumerate() {
            for (j, y) in ladder.iter().enumerate() {
                let want = x.cmp(y);
                assert_eq!(var.cmp_rows(i, j), want, "{x:?} vs {y:?}");
                // Two cells of one type (or NULL) make a typed column.
                let pair = [x, y];
                let typed = Column::from_cells(2, |r| pair[r]);
                if !matches!(typed, Column::Var(_)) {
                    assert_eq!(typed.cmp_rows(0, 1), want, "{x:?} vs {y:?}");
                }
            }
        }
    }

    /// A column written by pushes and appends holds exactly the cells
    /// given, typed as `from_cells` types them: an all-NULL column takes the
    /// first type, a conflict or a non-finite float makes it `Var` with
    /// every variant kept, and strings are remapped into its dictionary.
    #[test]
    fn pushes_and_appends_keep_cells_and_type_as_from_cells() {
        let batch = ColumnBatch::from_rows(&[
            row![1i64, "x", 1.5f64],
            Row::new(vec![Value::Null, Value::Null, Value::Null]),
            row![7i64, "y", 7.0f64],
        ])
        .unwrap();
        let [ints, strs, floats] = batch.columns() else {
            unreachable!("three columns")
        };
        let var = Column::Var(vec![Value::Int(7), Value::Str("x".into())]);
        type Step<'a> = (&'a Column, &'a [usize]);
        let cases: [(Vec<Value>, Vec<Step<'_>>); 5] = [
            // NULLs, then a `Float`; then an append of floats.
            (
                vec![Value::Null, Value::Null, Value::Float(2.5)],
                vec![(floats, &[2, 1, 0])],
            ),
            // `Int(7)` beside `Float(7.0)`: `Var`.
            (vec![Value::Int(7)], vec![(floats, &[2])]),
            // Strings of two dictionaries, and NULL rows of any type.
            (
                vec![Value::Str("y".into())],
                vec![(strs, &[0, 2, 1]), (ints, &[1]), (strs, &[2])],
            ),
            (vec![Value::Float(f64::INFINITY)], vec![(floats, &[0])]),
            (
                Vec::new(),
                vec![(ints, &[1, 1]), (strs, &[0]), (&var, &[1, 0]), (ints, &[2])],
            ),
        ];
        for (pushed, appends) in cases {
            let mut col = Column::nulls(0);
            let mut want = Vec::new();
            for v in pushed {
                want.push(v.clone());
                col.push(v);
            }
            for (src, rows) in appends {
                want.extend(rows.iter().map(|&r| src.value(r)));
                col.append(src, rows);
            }
            let got: Vec<Value> = (0..col.len()).map(|r| col.value(r)).collect();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            let typed = Column::from_cells(want.len(), |r| &want[r]);
            assert_eq!(col.wire_tag(), typed.wire_tag(), "{want:?}");
            assert_eq!(col.size_bytes(0..col.len()), {
                want.iter().map(|v| v.size_bytes() as u64).sum::<u64>()
            });
            // Read back in any order, across the column and a copy, cells
            // in place type as the values they hold, and a gather as
            // `from_cells` over them.
            let rows: Vec<(usize, usize)> = (0..col.len()).rev().map(|r| (r % 2, r)).collect();
            let copy = col.clone();
            let sources = [&col, &copy];
            let in_place = Column::from_cells(rows.len(), |k| sources[rows[k].0].cell(rows[k].1));
            let gathered = Column::gather(&sources, rows.len(), |k| rows[k]);
            let cells: Vec<Value> = rows.iter().map(|&(_, r)| want[r].clone()).collect();
            let typed = Column::from_cells(cells.len(), |r| &cells[r]);
            assert_eq!(format!("{in_place:?}"), format!("{typed:?}"));
            assert_eq!(format!("{gathered:?}"), format!("{typed:?}"));
        }
    }

    /// A frame gathered from typed columns is the frame `from_cells` makes
    /// of the cells it reads, whatever the sources hold beyond them: a
    /// `Float` column NULL here is `Int`, a `Var` one of one type here is
    /// typed, a dictionary lists the strings read, once each, in the order
    /// read, and a non-finite float is refused.
    #[test]
    fn gathered_frames_are_from_cells_of_the_cells_read() {
        let floats = Column::from_cells(3, |r| &[Value::Null, Value::Null, Value::Float(2.5)][r]);
        let var = Column::Var(vec![Value::Int(7), Value::Str("x".into()), Value::Int(8)]);
        let strs = Column::Str {
            dict: vec!["b".into(), "a".into(), "b".into()],
            idx: vec![0, 1, 2, 1],
            nulls: vec![false; 4],
        };
        let inf = Column::Var(vec![Value::Float(f64::INFINITY)]);
        let sources = [&floats, &var, &strs, &inf];
        let cells = [
            [Value::Null, Value::Int(8), Value::Str("a".into())],
            [Value::Null, Value::Int(7), Value::Str("b".into())],
            [Value::Null, Value::Int(8), Value::Str("b".into())],
        ];
        // Row `r` reads the cells `cells[r]`.
        let at = |r: usize, c: usize| match c {
            0 => (0, r % 2),
            1 => (1, [2, 0, 2][r]),
            _ => (2, [3, 2, 0][r]),
        };
        let gathered = ColumnBatch::gather(&sources, 3, 3, at).unwrap();
        let want = ColumnBatch::from_cells(3, 3, |r, c| &cells[r][c]).unwrap();
        assert_eq!(gathered.encode_frame(), want.encode_frame());
        assert!(matches!(gathered.columns()[0], Column::Int { .. }));
        assert!(matches!(gathered.columns()[1], Column::Int { .. }));
        assert_eq!(gathered.dict_entries(), 2);
        assert!(ColumnBatch::gather(&sources, 1, 1, |_, _| (3, 0)).is_err());
        // Outside a frame, the same float is a `Var` cell.
        assert!(matches!(
            Column::gather(&sources, 1, |_| (3, 0)),
            Column::Var(_)
        ));
    }

    #[test]
    fn round_trip_typed_columns() {
        let rows = sample_rows();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.num_cols(), 4);
        assert_eq!(batch.dict_entries(), 2, "apple stored once");
        let frame = batch.encode_frame();
        let back = ColumnBatch::decode_frame(&frame).unwrap();
        assert_eq!(back.to_rows(), rows);
    }

    #[test]
    fn mixed_column_falls_back_to_var() {
        let rows = vec![row![1i64], row!["x"], Row::new(vec![Value::Null])];
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        assert!(matches!(batch.columns()[0], Column::Var(_)));
        let back = ColumnBatch::decode_frame(&batch.encode_frame()).unwrap();
        assert_eq!(back.to_rows(), rows);
    }

    #[test]
    fn empty_and_all_null_batches() {
        let empty = ColumnBatch::from_rows(&[]).unwrap();
        assert_eq!(empty.num_rows(), 0);
        let back = ColumnBatch::decode_frame(&empty.encode_frame()).unwrap();
        assert_eq!(back.to_rows(), Vec::<Row>::new());

        let nulls = vec![Row::nulls(2), Row::nulls(2)];
        let batch = ColumnBatch::from_rows(&nulls).unwrap();
        let back = ColumnBatch::decode_frame(&batch.encode_frame()).unwrap();
        assert_eq!(back.to_rows(), nulls);
    }

    #[test]
    fn width_mismatch_rejected() {
        let rows = vec![row![1i64], row![1i64, 2i64]];
        assert!(matches!(
            ColumnBatch::from_rows(&rows),
            Err(RelError::FieldCount {
                expected: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn non_finite_floats_rejected_on_encode_and_decode() {
        let rows = vec![row![f64::NAN]];
        assert!(ColumnBatch::from_rows(&rows).is_err());

        // Hand-build a frame whose float chunk carries NaN bits with a
        // *correct* checksum: the type check itself must reject it.
        let mut chunk = vec![0u8]; // one non-null row
        chunk.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let err = ColumnBatch::decode_frame(&checksummed_frame(1, 1, &chunk)).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
    }

    /// A one-column frame of `nrows` rows around `chunk`, every checksum
    /// correct: what is left to reject it are the decoder's own checks.
    fn checksummed_frame(tag: u8, nrows: u32, chunk: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(&nrows.to_le_bytes());
        frame.push(tag);
        frame.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        frame.extend_from_slice(&xxh64(chunk, 0).to_le_bytes());
        let header_sum = xxh64(&frame, 0);
        frame.extend_from_slice(&header_sum.to_le_bytes());
        frame.extend_from_slice(chunk);
        frame
    }

    /// Every check the chunk decoder makes past the checksums — flag bytes
    /// 0 or 1, payloads of exactly `nrows` words, dictionary indices in
    /// range for non-null rows — holds for a chunk whose checksums are
    /// right, where the bit-flip test cannot reach it.
    #[test]
    fn chunk_checks_reject_well_checksummed_garbage() {
        let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let int_chunk = |nulls: &[u8], ws: &[u64]| [nulls, &words(ws)].concat();
        let str_chunk = |nulls: &[u8], idx: &[u32]| {
            let dict = [1u32.to_le_bytes(), 1u32.to_le_bytes()].concat();
            let idx: Vec<u8> = idx.iter().flat_map(|i| i.to_le_bytes()).collect();
            [nulls, &dict, b"a", &idx].concat()
        };
        let decode = |tag, nrows, chunk: &[u8]| {
            ColumnBatch::decode_frame(&checksummed_frame(tag, nrows, chunk))
                .map_err(|e| e.to_string())
        };
        let ok = decode(0, 2, &int_chunk(&[0, 1], &[7, 0])).unwrap();
        assert_eq!(ok.to_rows(), [row![7i64], Row::nulls(1)]);
        let rejected = [
            (decode(0, 2, &int_chunk(&[0, 2], &[7, 0])), "bad null byte"),
            (decode(1, 1, &int_chunk(&[3], &[0])), "bad null byte"),
            (decode(2, 2, &[0, 0, 1, 2]), "bad bool byte"),
            (decode(0, 2, &int_chunk(&[0, 0], &[7])), "truncated"),
            (
                decode(0, 1, &int_chunk(&[0], &[7, 8])),
                "trailing chunk bytes",
            ),
            (
                decode(3, 2, &str_chunk(&[0, 0], &[0, 1])),
                "dictionary index 1",
            ),
            (decode(3, 2, &str_chunk(&[0, 9], &[0, 0])), "bad null byte"),
        ];
        for (i, (got, want)) in rejected.into_iter().enumerate() {
            let err = got.expect_err("rejected");
            assert!(err.contains(want), "case {i}: {err}");
        }
        // A null slot's index is not checked: it is never read.
        let null_idx = decode(3, 2, &str_chunk(&[0, 1], &[0, 5])).unwrap();
        assert_eq!(null_idx.to_rows(), [row!["a"], Row::nulls(1)]);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rows = sample_rows();
        let frame = ColumnBatch::from_rows(&rows).unwrap().encode_frame();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    ColumnBatch::decode_frame(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let frame = ColumnBatch::from_rows(&sample_rows())
            .unwrap()
            .encode_frame();
        assert!(ColumnBatch::decode_frame(&frame[..frame.len() - 1]).is_err());
        let mut extended = frame.clone();
        extended.push(0);
        assert!(ColumnBatch::decode_frame(&extended).is_err());
    }

    #[test]
    fn filter_and_slice_cols() {
        let rows = sample_rows();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let mask = [true, false, true];
        let filtered = batch.filter_from(0, &mask);
        assert_eq!(filtered.to_rows(), vec![rows[0].clone(), rows[2].clone()]);
        // Filtering columns `1..` directly is filtering every column, then
        // copying all but the first out again — the tag filter's old two
        // steps — typed columns and whole dictionaries included.
        let two_steps = ColumnBatch {
            cols: filtered.cols[1..].to_vec(),
            rows: filtered.rows,
        };
        let sliced = batch.filter_from(1, &mask);
        assert_eq!(sliced, two_steps);
        assert_eq!(sliced.num_cols(), 3);
        assert_eq!(sliced.row(0), rows[0].project(&[1, 2, 3]));
        assert_eq!(batch.filter_from(4, &mask).num_rows(), 2);
    }

    #[test]
    fn frames_round_trip_with_chunking() {
        let rows: Vec<Row> = (0..10).map(|i| row![i as i64, "s"]).collect();
        let (frames, dict_entries) = encode_frames(&rows, 4).unwrap();
        assert_eq!(frames.len(), 3, "10 rows in frames of 4");
        assert_eq!(dict_entries, 3, "one \"s\" per frame");
        assert_eq!(decode_frames(&frames).unwrap(), rows);
        assert!(encode_frames(&[], 4).unwrap().0.is_empty());
    }

    #[test]
    fn encoding_is_canonical() {
        // Equal rows encode to equal bytes regardless of construction
        // order — shuffle-segment checksums depend on this.
        let rows = sample_rows();
        let a = ColumnBatch::from_rows(&rows).unwrap().encode_frame();
        let b = ColumnBatch::from_rows(&rows.clone())
            .unwrap()
            .encode_frame();
        assert_eq!(a, b);
    }

    #[test]
    fn xxh64_known_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn streaming_xxh64_equals_one_shot_under_any_chunking() {
        // A splitmix stream stands in for `rand` (no dependency here): it
        // fills the data and draws the cut points.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let data: Vec<u8> = (0..1000).map(|_| next() as u8).collect();
        // Piece sizes around every boundary the carry has — a byte, one
        // short of a stripe, a stripe, one over — each also with an empty
        // piece in between, then random ones.
        let fixed = [1usize, 31, 32, 33];
        for len in [0usize, 1, 3, 4, 7, 8, 31, 32, 33, 63, 64, 65, 200, 1000] {
            let data = &data[..len];
            for seed in [0u64, 7] {
                let want = xxh64(data, seed);
                for round in 0..40 {
                    let mut h = Xxh64::new(seed);
                    let mut at = 0;
                    while at < data.len() {
                        let piece = if round < 2 * fixed.len() {
                            if round >= fixed.len() {
                                h.update(&[]);
                            }
                            fixed[round % fixed.len()]
                        } else {
                            (next() % 70) as usize
                        };
                        let end = (at + piece).min(data.len());
                        h.update(&data[at..end]);
                        at = end;
                    }
                    assert_eq!(h.finish(), want, "len {len} seed {seed} round {round}");
                    // `finish` does not consume: more data may follow.
                    assert_eq!(h.finish(), want);
                }
            }
        }
        let mut h = Xxh64::new(0);
        h.update(b"a");
        assert_eq!(h.finish(), 0xD24E_C4F1_A98C_6E5B);
        h.update(b"bc");
        assert_eq!(h.finish(), 0x44BC_2CF5_AD77_0999);
        assert_eq!(Xxh64::new(0).finish(), 0xEF46_DB37_51D8_E999);
    }
}
