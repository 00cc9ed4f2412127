//! Property-based tests of the relational base layer's invariants.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use ysmart_rel::codec::{decode_line, decode_line_projected, encode_line};
use ysmart_rel::colbatch::{frame_stats, Column, FrameSizer, FrameStats};
use ysmart_rel::sort::{compare, sort_rows};
use ysmart_rel::{
    AggFunc, BinOp, ColumnBatch, DataType, Expr, Field, Row, Schema, SortKey, UnOp, Value,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1000.0f64..1000.0).prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::Str),
    ]
}

/// Like [`arb_value`] but with strings over the full printable range —
/// including the text codec's separators, which the binary frame format
/// must carry verbatim.
fn arb_wide_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1000.0f64..1000.0).prop_map(Value::Float),
        "[ -~]{0,12}".prop_map(Value::Str),
    ]
}

/// One column's cell pool: one type with nulls mixed in (a typed column),
/// nothing but nulls, every type (the `Var` escape hatch), or floats around
/// one non-finite value (no frame).
fn arb_column_pool() -> impl Strategy<Value = Vec<Value>> {
    fn nullable(of: impl Strategy<Value = Value> + 'static) -> BoxedStrategy<Vec<Value>> {
        prop::collection::vec(prop_oneof![Just(Value::Null), of], 1..24).boxed()
    }
    let float = || (-1000.0f64..1000.0).prop_map(Value::Float);
    let non_finite = prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    prop_oneof![
        nullable((-1_000_000i64..1_000_000).prop_map(Value::Int)),
        nullable(float()),
        nullable(any::<bool>().prop_map(Value::Bool)),
        nullable("[ -~]{0,12}".prop_map(Value::Str)),
        Just(vec![Value::Null]),
        prop::collection::vec(arb_wide_value(), 1..24),
        (nullable(float()), non_finite).prop_map(|(mut pool, bad)| {
            pool.push(Value::Float(bad));
            pool
        }),
    ]
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// An expression over columns `0..8` built bottom-up from column `first` and
/// `steps`: each wraps the expression so far in an operator whose other
/// operand is a fresh column or literal — on the left or the right — or in a
/// unary operator.
fn build_expr(first: usize, steps: &[(u8, usize, bool)]) -> Expr {
    let ops = [BinOp::Add, BinOp::Mul, BinOp::Lt, BinOp::And, BinOp::Or];
    let mut e = Expr::col(first);
    for &(op, c, left) in steps {
        let other = if c % 3 == 0 {
            Expr::lit(c as i64)
        } else {
            Expr::col(c)
        };
        e = match ops.get(usize::from(op)) {
            Some(&op) if left => Expr::binary(op, other, e),
            Some(&op) => Expr::binary(op, e, other),
            None => Expr::Unary {
                op: if left { UnOp::Neg } else { UnOp::IsNull },
                operand: Box::new(e),
            },
        };
    }
    e
}

proptest! {
    /// The total order is consistent: sorting twice gives the same result,
    /// and `a <= b <= c` implies `a <= c` (checked over sorted triples).
    #[test]
    fn value_order_is_total_and_transitive(mut vs in prop::collection::vec(arb_value(), 3..20)) {
        vs.sort();
        let once = vs.clone();
        vs.sort();
        prop_assert_eq!(&once, &vs);
        for w in once.windows(3) {
            prop_assert!(w[0] <= w[2]);
        }
    }

    /// Eq implies equal hashes (required for grouping and shuffling).
    #[test]
    fn value_eq_implies_same_hash(a in arb_value(), b in arb_value()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    /// `sql_cmp` is antisymmetric and agrees with equality.
    #[test]
    fn sql_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        match (a.sql_cmp(&b), b.sql_cmp(&a)) {
            (None, None) => {} // at least one NULL or incomparable
            (Some(x), Some(y)) => prop_assert_eq!(x, y.reverse()),
            other => prop_assert!(false, "one-sided comparison: {:?}", other),
        }
        if a.sql_cmp(&b) == Some(Ordering::Equal) {
            prop_assert_eq!(&a, &b);
        }
    }

    /// Arithmetic with NULL always yields NULL (never an error).
    #[test]
    fn null_absorbs_arithmetic(a in arb_value()) {
        for op in [Value::add, Value::sub, Value::mul] {
            if let Ok(v) = op(&a, &Value::Null) {
                prop_assert!(v.is_null());
            } else {
                prop_assert!(false, "NULL arithmetic must not error");
            }
        }
    }

    /// Integer add/mul agree with i64 arithmetic (in range).
    #[test]
    fn int_arithmetic_agrees(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        prop_assert_eq!(Value::Int(a).add(&Value::Int(b)).unwrap(), Value::Int(a + b));
        prop_assert_eq!(Value::Int(a).mul(&Value::Int(b)).unwrap(), Value::Int(a * b));
    }

    /// Rows survive the text codec for every type (strings restricted to
    /// separator-free alphabets, as the generators produce).
    #[test]
    fn codec_round_trips(
        ints in prop::collection::vec(prop::option::of(-1_000_000i64..1_000_000), 1..6),
        s in "[a-zA-Z0-9 _.-]{0,20}",
    ) {
        let mut fields: Vec<Field> = ints
            .iter()
            .enumerate()
            .map(|(i, _)| Field::new("t", &format!("c{i}"), DataType::Int))
            .collect();
        fields.push(Field::new("t", "s", DataType::Str));
        let schema = Schema::new(fields);
        let mut values: Vec<Value> = ints
            .iter()
            .map(|o| o.map(Value::Int).unwrap_or(Value::Null))
            .collect();
        // Empty text decodes as NULL, so a round-trip maps "" -> NULL.
        values.push(if s.is_empty() { Value::Null } else { Value::Str(s.clone()) });
        let row = Row::new(values);
        let line = encode_line(&row);
        let back = decode_line(&line, &schema).unwrap();
        prop_assert_eq!(back, row);
    }

    /// A projected decode is the full decode with the unneeded fields left
    /// NULL. A field past the end of `needed` is needed, so an empty mask is
    /// the full decode; a line one field short or long is refused alike.
    #[test]
    fn projected_decode_is_the_full_decode_with_unneeded_fields_null(
        ints in prop::collection::vec(prop::option::of(-1_000_000i64..1_000_000), 1..6),
        needed in prop::collection::vec(any::<bool>(), 0..8),
        shape in 0u8..3,
    ) {
        let schema = Schema::new(
            (0..ints.len())
                .map(|i| Field::new("t", &format!("c{i}"), DataType::Int))
                .collect(),
        );
        let row = Row::new(ints.iter().map(|o| o.map_or(Value::Null, Value::Int)).collect());
        let mut line = encode_line(&row);
        match shape {
            1 => line.push_str("|7"),
            2 => line.truncate(line.rfind('|').unwrap_or(0)),
            _ => {}
        }
        let full = decode_line(&line, &schema);
        prop_assert_eq!(&decode_line_projected(&line, &schema, &[]), &full);
        let projected = decode_line_projected(&line, &schema, &needed);
        match full {
            Ok(full) => {
                let kept = full.values().iter().enumerate().map(|(i, v)| {
                    if needed.get(i).copied().unwrap_or(true) {
                        v.clone()
                    } else {
                        Value::Null
                    }
                });
                prop_assert_eq!(projected, Ok(Row::new(kept.collect())));
            }
            Err(e) => prop_assert_eq!(projected, Err(e)),
        }
    }

    /// `referenced_columns` lists, sorted and once each, the columns an
    /// expression reads: re-mapping the expression's columns maps the list,
    /// and a row with every other column NULL evaluates alike.
    #[test]
    fn referenced_columns_are_what_evaluation_reads(
        first in 0usize..8,
        steps in prop::collection::vec((0u8..6, 0usize..8, any::<bool>()), 0..12),
        cells in prop::collection::vec(-4i64..4, 8..9),
    ) {
        let e = build_expr(first, &steps);
        let refs = e.referenced_columns();
        prop_assert!(refs.contains(&first), "{refs:?}");
        prop_assert!(refs.windows(2).all(|w| w[0] < w[1]), "{refs:?}");
        let mut mirrored: Vec<usize> = refs.iter().map(|&c| 7 - c).collect();
        mirrored.reverse();
        prop_assert_eq!(e.remap_columns(&|c| 7 - c).referenced_columns(), mirrored);
        let row = Row::new(cells.iter().copied().map(Value::Int).collect());
        let masked = Row::new(
            cells
                .iter()
                .enumerate()
                .map(|(c, &v)| if refs.contains(&c) { Value::Int(v) } else { Value::Null })
                .collect(),
        );
        prop_assert_eq!(e.eval(&masked), e.eval(&row), "{e:?}");
    }

    /// Decoding is total over corrupted input: randomly mutating bytes of a
    /// valid encoded line never panics — the decoder returns a row of the
    /// schema's width or a clean error. This is the contract the engine's
    /// bad-record skipping relies on when the corruption model tears
    /// records.
    #[test]
    fn decode_survives_random_byte_mutations(
        ints in prop::collection::vec(prop::option::of(-1_000_000i64..1_000_000), 1..5),
        f in prop::option::of(-1000.0f64..1000.0),
        s in "[a-zA-Z0-9 _.-]{0,16}",
        mutations in prop::collection::vec((0usize..256, any::<u8>()), 1..8),
    ) {
        let mut fields: Vec<Field> = ints
            .iter()
            .enumerate()
            .map(|(i, _)| Field::new("t", &format!("c{i}"), DataType::Int))
            .collect();
        fields.push(Field::new("t", "f", DataType::Float));
        fields.push(Field::new("t", "s", DataType::Str));
        let schema = Schema::new(fields);
        let mut values: Vec<Value> = ints
            .iter()
            .map(|o| o.map(Value::Int).unwrap_or(Value::Null))
            .collect();
        values.push(f.map(Value::Float).unwrap_or(Value::Null));
        values.push(if s.is_empty() { Value::Null } else { Value::Str(s) });
        let line = encode_line(&Row::new(values));

        let mut bytes = line.into_bytes();
        for (pos, byte) in mutations {
            if !bytes.is_empty() {
                let i = pos % bytes.len();
                bytes[i] = byte;
            }
        }
        // Corruption can produce invalid UTF-8; the simulated HDFS stores
        // strings, so model what a reader would see after replacement.
        let garbled = String::from_utf8_lossy(&bytes);
        if let Ok(row) = decode_line(&garbled, &schema) {
            prop_assert_eq!(row.len(), schema.len());
            for v in row.values() {
                if let Value::Float(x) = v {
                    prop_assert!(x.is_finite(), "NaN/inf must never decode");
                }
            }
        }
    }

    /// Aggregate merge is associative-enough: any split of the input
    /// produces the same final value as sequential accumulation.
    #[test]
    fn agg_split_invariance(
        xs in prop::collection::vec(prop::option::of(-1000i64..1000), 1..30),
        split in 0usize..30,
        func in prop::sample::select(vec![
            AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max,
        ]),
    ) {
        let vals: Vec<Value> = xs.iter().map(|o| o.map(Value::Int).unwrap_or(Value::Null)).collect();
        let split = split.min(vals.len());
        let mut direct = func.new_state();
        for v in &vals {
            direct.update(v).unwrap();
        }
        let mut a = func.new_state();
        let mut b = func.new_state();
        for v in &vals[..split] {
            a.update(v).unwrap();
        }
        for v in &vals[split..] {
            b.update(v).unwrap();
        }
        a.merge(&b).unwrap();
        // Avg accumulates floats; compare with tolerance.
        match (a.finish(), direct.finish()) {
            (Value::Float(x), Value::Float(y)) => prop_assert!((x - y).abs() < 1e-9),
            (x, y) => prop_assert_eq!(x, y),
        }
    }

    /// A columnar frame round-trips any uniform-width row run exactly —
    /// including strings the text codec could never carry (separators,
    /// newlines) and mixed-type columns (the `Var` escape hatch).
    #[test]
    fn colbatch_frame_round_trips(
        width in 1usize..5,
        cells in prop::collection::vec(arb_wide_value(), 0..60),
    ) {
        // Uniform-width rows: chunk the cell pool, dropping the remainder.
        let rows: Vec<Row> = cells
            .chunks_exact(width)
            .map(|c| Row::new(c.to_vec()))
            .collect();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        prop_assert_eq!(batch.num_rows(), rows.len());
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(&batch.row(r), row);
        }
        let back = ColumnBatch::decode_frame(&batch.encode_frame()).unwrap();
        prop_assert_eq!(back.to_rows(), rows);
    }

    /// The analytic sizer is the encoder without the bytes: over any grid of
    /// cells, `frame_stats` is exactly the length and dictionary count of
    /// the frame `from_cells` (which reads the same cells back) encodes,
    /// and `None` exactly when `from_cells` has no batch.
    #[test]
    fn frame_stats_match_real_encoding(
        nrows in 0usize..300,
        pools in prop::collection::vec(arb_column_pool(), 0..6),
    ) {
        let width = pools.len();
        let cell = |r: usize, c: usize| {
            let pool: &Vec<Value> = &pools[c];
            &pool[(r.wrapping_mul(0x9E37_79B9) >> 8) % pool.len()]
        };
        let stats = frame_stats(nrows, width, cell);
        match ColumnBatch::from_cells(nrows, width, cell) {
            Ok(batch) => {
                let read_back = |r, c: usize| batch.columns()[c].value(r) == *cell(r, c);
                prop_assert!((0..nrows).all(|r| (0..width).all(|c| read_back(r, c))));
                let bytes = batch.encode_frame().len() as u64;
                let dict_entries = batch.dict_entries();
                prop_assert_eq!(stats, Some(FrameStats { bytes, dict_entries }));
            }
            Err(_) => prop_assert_eq!(stats, None),
        }
    }

    /// A frame's size and dictionary count do not depend on the order of its
    /// rows — what lets the shuffle size a segment where its pairs lie, in
    /// emit order, although the frame on the wire carries them sorted.
    #[test]
    fn frame_stats_ignore_row_order(
        nrows in 0usize..120,
        pools in prop::collection::vec(arb_column_pool(), 1..5),
        shuffle_seed in any::<u64>(),
    ) {
        let cell = |r: usize, c: usize| {
            let pool: &Vec<Value> = &pools[c];
            &pool[(r.wrapping_mul(0x9E37_79B9) >> 8) % pool.len()]
        };
        // A seeded Fisher–Yates permutation of the rows.
        let mut perm: Vec<usize> = (0..nrows).collect();
        let mut state = shuffle_seed;
        for i in (1..nrows).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        prop_assert_eq!(
            frame_stats(nrows, pools.len(), cell),
            frame_stats(nrows, pools.len(), |r, c| cell(perm[r], c))
        );
    }

    /// The incremental sizer, fed any rows (repeats included) in any order
    /// and any number of feeds — each feed a batch of its own, whose column
    /// types its rows alone decide, read a column at a time over a subset of
    /// its rows or a cell at a time — is `frame_stats` over those rows, and
    /// so the length and dictionary count of their real frame.
    #[test]
    fn frame_sizer_matches_frame_stats_over_any_feed(
        nrows in 1usize..120,
        pools in prop::collection::vec(arb_column_pool(), 0..5),
        picks in prop::collection::vec(0usize..1000, 0..150),
        cuts in prop::collection::vec((0usize..1000, any::<bool>()), 0..6),
    ) {
        let width = pools.len();
        let cell = |r: usize, c: usize| {
            let pool: &Vec<Value> = &pools[c];
            &pool[(r.wrapping_mul(0x9E37_79B9) >> 8) % pool.len()]
        };
        // Column `c` of a batch holding rows `held`: typed when their cells
        // share a type, `Var` when they do not — or, for floats around a
        // non-finite value (which no batch holds), a float column the sizer
        // must refuse.
        let column = |held: &[usize], c: usize| {
            let cells: Vec<Value> = held.iter().map(|&r| cell(r, c).clone()).collect();
            let floats = cells.iter().all(|v| matches!(v, Value::Null | Value::Float(_)));
            match ColumnBatch::from_cells(cells.len(), 1, |r, _| &cells[r]) {
                Ok(batch) => batch.columns()[0].clone(),
                Err(_) if floats => Column::Float {
                    data: cells.iter().map(|v| v.as_float().unwrap_or(0.0)).collect(),
                    nulls: cells.iter().map(Value::is_null).collect(),
                },
                Err(_) => Column::Var(cells),
            }
        };
        let rows: Vec<usize> = picks.iter().map(|i| i % nrows).collect();
        let mut ends: Vec<usize> = cuts.iter().map(|(i, _)| i % (rows.len() + 1)).collect();
        ends.extend([0, rows.len()]);
        ends.sort_unstable();
        let mut sizer = FrameSizer::new(width);
        for (k, feed) in ends.windows(2).enumerate() {
            let feed = &rows[feed[0]..feed[1]];
            // The feed's batch holds its rows in reverse behind one row that
            // is not fed; `at` reads the fed ones back in feed order.
            let held: Vec<usize> = std::iter::once(k % nrows).chain(feed.iter().rev().copied()).collect();
            let at: Vec<usize> = (1..held.len()).rev().collect();
            let by_cell = cuts.get(k).is_some_and(|&(_, by_cell)| by_cell);
            for c in 0..width {
                let col = column(&held, c);
                if by_cell {
                    at.iter().for_each(|&i| sizer.add_cell(c, &col.value(i)));
                } else {
                    sizer.add_column(c, &col, &at);
                }
            }
        }
        let picked = |r: usize, c: usize| cell(rows[r], c);
        let stats = sizer.finish();
        prop_assert_eq!(stats, frame_stats(rows.len(), width, picked));
        match ColumnBatch::from_cells(rows.len(), width, picked) {
            Ok(batch) => {
                let bytes = batch.encode_frame().len() as u64;
                let dict_entries = batch.dict_entries();
                prop_assert_eq!(stats, Some(FrameStats { bytes, dict_entries }));
            }
            Err(_) => prop_assert_eq!(stats, None),
        }
    }

    /// The columnar path agrees with the text codec wherever both apply:
    /// for codec-safe values, decoding a batch row equals decoding the
    /// text-encoded line of the same row.
    #[test]
    fn colbatch_agrees_with_row_codec(
        ints in prop::collection::vec(prop::option::of(-1_000_000i64..1_000_000), 1..6),
        s in "[a-zA-Z0-9 _.-]{1,20}",
    ) {
        let mut fields: Vec<Field> = ints
            .iter()
            .enumerate()
            .map(|(i, _)| Field::new("t", &format!("c{i}"), DataType::Int))
            .collect();
        fields.push(Field::new("t", "s", DataType::Str));
        let schema = Schema::new(fields);
        let mut values: Vec<Value> = ints
            .iter()
            .map(|o| o.map(Value::Int).unwrap_or(Value::Null))
            .collect();
        values.push(Value::Str(s));
        let row = Row::new(values);
        let via_text = decode_line(&encode_line(&row), &schema).unwrap();
        let batch = ColumnBatch::from_rows(std::slice::from_ref(&row)).unwrap();
        let via_frame = ColumnBatch::decode_frame(&batch.encode_frame()).unwrap().row(0);
        prop_assert_eq!(via_frame, via_text);
    }

    /// Non-finite floats are rejected at batch construction, mirroring the
    /// text codec's refusal to encode NaN/inf.
    #[test]
    fn colbatch_rejects_non_finite_floats(
        pre in prop::collection::vec(-1000.0f64..1000.0, 0..4),
        bad in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
    ) {
        let mut vals: Vec<Value> = pre.into_iter().map(Value::Float).collect();
        vals.push(Value::Float(bad));
        prop_assert!(ColumnBatch::from_rows(&[Row::new(vals)]).is_err());
    }

    /// Every single-bit flip anywhere in a frame is caught on decode: the
    /// header is covered by the header checksum and every column chunk by
    /// its own XXH64, so no flipped frame ever decodes successfully. This
    /// is the integrity contract the engine's corruption recovery relies
    /// on in columnar mode.
    #[test]
    fn colbatch_detects_every_bit_flip(
        width in 1usize..4,
        cells in prop::collection::vec(arb_value(), 1..30),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut rows: Vec<Row> = cells
            .chunks_exact(width)
            .map(|c| Row::new(c.to_vec()))
            .collect();
        if rows.is_empty() {
            rows.push(Row::new(cells[..width.min(cells.len())].to_vec()));
        }
        let frame = ColumnBatch::from_rows(&rows).unwrap().encode_frame();
        let mut garbled = frame.clone();
        let i = pos % garbled.len();
        garbled[i] ^= 1 << bit;
        prop_assert!(
            ColumnBatch::decode_frame(&garbled).is_err(),
            "flip of bit {bit} at byte {i}/{} went undetected",
            frame.len()
        );
    }

    /// Sorting is idempotent and respects the first key.
    #[test]
    fn sort_invariants(rows_data in prop::collection::vec((any::<i64>(), any::<i64>()), 0..30)) {
        let mut rows: Vec<Row> = rows_data
            .iter()
            .map(|(a, b)| Row::new(vec![Value::Int(*a), Value::Int(*b)]))
            .collect();
        let keys = [SortKey::asc(0), SortKey::desc(1)];
        sort_rows(&keys, &mut rows);
        let once = rows.clone();
        sort_rows(&keys, &mut rows);
        prop_assert_eq!(&once, &rows);
        for w in rows.windows(2) {
            prop_assert!(compare(&keys, &w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
    }
}
