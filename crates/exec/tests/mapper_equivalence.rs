//! Equivalence of the common mapper's batch body with a row-at-a-time
//! reference, fed column batches and text lines.
//!
//! [`reference_rows`] is the common mapper one record at a time: every
//! branch's selection by `eval_predicate`, the key by `eval`, the value
//! carried (`Row::project` of `value_cols`) then, in direct mode, stream 0's
//! projection evaluated over it, the Pig pad, one `MapOutput::emit` per
//! pair. `CommonMapper::map_batch` maps a batch whole — each selection a
//! mask, each key and value a column (a borrowed column or a `colexpr`
//! kernel, failing rows carried beside it), one `MapOutput::emit_columns`.
//! `CommonMapper::map_lines` decodes a task's text lines a chunk of
//! `DEFAULT_FRAME_ROWS` at a time and maps each chunk as one batch; its
//! reference decodes every line whole (`decode_line`) and maps the rows one
//! by one. Each generated batch is also rendered to lines: `tag|` prefixes
//! and foreign tags when the input filters by tag, undecodable lines
//! interleaved (a torn copy, a line of too many fields), and now and then a
//! batch longer than a chunk, so that a chunk boundary falls inside it.
//! Over generated blueprints and batches each body and its reference must
//! agree on everything a job's result and its simulated time are derived
//! from: every partition's pairs (cells, key/value split, emit order), each
//! segment's text bytes and frame size, work, per-stream dispatch counts,
//! bad-record counts — and whether the job fails. An input holding a row on
//! which an expression fails fails the job either way.
//!
//! `cargo test` runs a few hundred cases; CI runs the `#[ignore]`d soak in
//! release mode (`--include-ignored`).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_exec::{
    CommonMapper, EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, RSource, StreamSpec,
};
use ysmart_mapred::{untag_batch, untag_line, MapOutput, Mapper};
use ysmart_rel::codec::{decode_line, encode_line};
use ysmart_rel::colbatch::{FrameStats, DEFAULT_FRAME_ROWS};
use ysmart_rel::{BinOp, ColumnBatch, DataType, Expr, Row, Schema, UnOp, Value};

// ---- the reference ---------------------------------------------------------

/// The pair one row maps to, and the streams that see it; `None` when no
/// branch keeps the row.
type RowPair = (Vec<usize>, Option<(Row, Row)>);

/// The common-mapper body over one row.
fn reference_row(bp: &JobBlueprint, input: &InputSpec, row: &Row) -> Result<RowPair, String> {
    let name = &bp.name;
    let mut forbidden: u64 = (0..bp.streams.len()).fold(0, |m, s| m | (1 << s));
    let mut seen = Vec::new();
    for b in &input.branches {
        forbidden &= !(1 << b.stream);
        let visible = match &b.predicate {
            None => true,
            Some(p) => p
                .eval_predicate(row)
                .map_err(|e| format!("predicate failed in {name}: {e}"))?,
        };
        if visible {
            seen.push(b.stream);
        } else {
            forbidden |= 1 << b.stream;
        }
    }
    if seen.is_empty() {
        return Ok((seen, None));
    }
    let key = input.key_exprs.iter().map(|e| e.eval(row));
    let key: Row = key
        .collect::<Result<_, _>>()
        .map_err(|e| format!("key expr failed in {name}: {e}"))?;
    let carried = row.project(&input.value_cols);
    let mut value: Vec<Value> = Vec::new();
    if bp.tagged() {
        value.push(Value::Int(forbidden as i64));
        value.extend(carried.into_values());
    } else {
        for e in &bp.streams[0].projection {
            let v = e.eval(&carried);
            value.push(v.map_err(|e| format!("projection failed in {name}: {e}"))?);
        }
    }
    if bp.pad_bytes > 0 && !bp.map_only {
        value.push(Value::Str("x".repeat(bp.pad_bytes)));
    }
    Ok((seen, Some((key, Row::new(value)))))
}

/// The row-at-a-time common mapper over rows of input 0: each row's pair,
/// or, when any row fails, nothing but the failure.
fn reference_rows(bp: &JobBlueprint, rows: &[Row], out: &mut MapOutput) {
    let spec = &bp.inputs[0];
    let pairs = rows.iter().map(|row| reference_row(bp, spec, row));
    match pairs.collect::<Result<Vec<_>, _>>() {
        Err(msg) => out.record_fatal(msg),
        Ok(pairs) => {
            out.add_work(rows.len() as u64 * (spec.branches.len() as u64 - 1));
            for (seen, pair) in pairs {
                seen.into_iter().for_each(|s| out.record_dispatch(s));
                if let Some((key, value)) = pair {
                    out.emit(key, value);
                }
            }
        }
    }
}

/// The reference over one batch of input 0: a row of the wrong width is a
/// bad record.
fn reference_map(bp: &JobBlueprint, batch: &ColumnBatch, out: &mut MapOutput) {
    let spec = &bp.inputs[0];
    let batch = match spec.tag_filter {
        None => batch.clone(),
        Some(want) => untag_batch(batch, want),
    };
    if batch.num_cols() != spec.schema.len() {
        (0..batch.num_rows()).for_each(|_| out.record_bad());
        return;
    }
    reference_rows(bp, &batch.to_rows(), out);
}

/// The reference over text lines of input 0: a line of another tag is
/// skipped, a line that does not decode whole is a bad record.
fn reference_lines(bp: &JobBlueprint, lines: &[String], out: &mut MapOutput) {
    let spec = &bp.inputs[0];
    let mut rows = Vec::new();
    for line in lines {
        if let Some(payload) = untag_line(line, spec.tag_filter) {
            match decode_line(payload, &spec.schema) {
                Ok(row) => rows.push(row),
                Err(_) => out.record_bad(),
            }
        }
    }
    reference_rows(bp, &rows, out);
}

// ---- the generator ---------------------------------------------------------

/// What a generated input column holds.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Ty {
    Int,
    Float,
    /// `Int` and `Float` cells that are numerically equal (`Int(7)`,
    /// `Float(7.0)`): a mixed batch column, or typed columns whose keys
    /// collide with another batch's.
    Num,
    Str,
    Bool,
}

impl Ty {
    fn numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Float | Ty::Num)
    }

    /// The schema type a text line is decoded as (`Num`'s `Int` cells
    /// decode as `Float`).
    fn data_type(self) -> DataType {
        match self {
            Ty::Int => DataType::Int,
            Ty::Float | Ty::Num => DataType::Float,
            Ty::Str => DataType::Str,
            Ty::Bool => DataType::Bool,
        }
    }
}

struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.0.gen_bool(p)
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    fn value(&mut self, ty: Ty) -> Value {
        if self.chance(0.15) {
            return Value::Null;
        }
        match ty {
            Ty::Int => Value::Int(self.pick(&[-2, 0, 1, 7, 40])),
            Ty::Float => Value::Float(self.pick(&[-0.5, 0.0, 1.5, 7.0])),
            Ty::Num if self.chance(0.5) => Value::Int(self.pick(&[0, 7])),
            Ty::Num => Value::Float(self.pick(&[0.0, 7.0])),
            Ty::Str => Value::Str(self.pick(&["", "a", "b", "F", "7"]).to_string()),
            Ty::Bool => Value::Bool(self.chance(0.5)),
        }
    }

    /// A predicate: column against literal or column, `IS [NOT] NULL`,
    /// literals, bare columns, `AND` / `OR` / `NOT` — and the shapes that
    /// once ran on the row evaluator: a computed comparison operand, a null
    /// test of a non-column, arithmetic read as a truth value, and division
    /// guarded by a connective that fails only if the kernel takes an error
    /// from a side the row evaluator's short circuit skips.
    fn predicate(&mut self, types: &[Ty], depth: usize) -> Expr {
        if depth > 0 && self.chance(0.3) {
            let (l, r) = (
                self.predicate(types, depth - 1),
                self.predicate(types, depth - 1),
            );
            return match self.below(3) {
                0 => l.and(r),
                1 => l.or(r),
                _ => Expr::Unary {
                    op: UnOp::Not,
                    operand: Box::new(l),
                },
            };
        }
        let c = self.below(types.len());
        let cmp = self.pick(&[
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ]);
        let numeric: Vec<usize> = (0..types.len()).filter(|&c| types[c].numeric()).collect();
        match self.below(13) {
            0 => Expr::lit(self.pick(&[Value::Bool(true), Value::Bool(false), Value::Null])),
            1 => Expr::Unary {
                op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                operand: Box::new(Expr::col(c)),
            },
            2 => Expr::binary(cmp, Expr::col(c), Expr::col(self.below(types.len()))),
            3 => Expr::binary(cmp, Expr::lit(self.value(types[c])), Expr::col(c)),
            4 => Expr::col(c),
            5 => {
                let computed = self.arith(types);
                let lit = Expr::lit(self.value(Ty::Num));
                if self.chance(0.5) {
                    Expr::binary(cmp, computed, lit)
                } else {
                    Expr::binary(cmp, lit, computed)
                }
            }
            6 => {
                let operand = if self.chance(0.5) {
                    self.arith(types)
                } else {
                    self.predicate(types, depth.saturating_sub(1))
                };
                Expr::Unary {
                    op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                    operand: Box::new(operand),
                }
            }
            7 => {
                let truth = self.arith(types);
                let other = self.predicate(types, 0);
                if self.chance(0.5) {
                    truth.and(other)
                } else {
                    other.or(truth)
                }
            }
            8 if !numeric.is_empty() => {
                // `#d <> 0 AND 7 / #d > 1`, `#d = 0 OR 7 / #d > 1`.
                let d = Expr::col(self.pick(&numeric));
                let div = Expr::binary(BinOp::Div, Expr::lit(7i64), d.clone());
                let div = Expr::binary(BinOp::Gt, div, Expr::lit(1i64));
                if self.chance(0.5) {
                    Expr::binary(BinOp::NotEq, d, Expr::lit(0i64)).and(div)
                } else {
                    Expr::binary(BinOp::Eq, d, Expr::lit(0i64)).or(div)
                }
            }
            _ => Expr::binary(cmp, Expr::col(c), Expr::lit(self.value(types[c]))),
        }
    }

    /// Arithmetic over columns of `types` that seldom fails: `+ - *` or
    /// negation of a numeric operand.
    fn arith(&mut self, types: &[Ty]) -> Expr {
        let op = self.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
        let rhs = if self.chance(0.5) {
            self.operand(types)
        } else {
            Expr::lit(self.pick(&[Value::Int(3), Value::Float(0.5), Value::Null]))
        };
        let e = Expr::binary(op, self.operand(types), rhs);
        if self.chance(0.2) {
            Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(e),
            }
        } else {
            e
        }
    }

    /// A column of `types` for arithmetic: a numeric one where there is one
    /// (a non-numeric operand fails on every non-NULL row).
    fn operand(&mut self, types: &[Ty]) -> Expr {
        let numeric: Vec<usize> = (0..types.len()).filter(|&c| types[c].numeric()).collect();
        if numeric.is_empty() || self.chance(0.05) {
            Expr::col(self.below(types.len()))
        } else {
            Expr::col(self.pick(&numeric))
        }
    }

    /// A value over columns of `types`: mostly a plain column, else a
    /// literal, arithmetic, a predicate read as a `Bool` column, or a
    /// comparison or null test over arithmetic. `risky` is a divisor column
    /// — `7 / #risky` fails where it is zero.
    fn value_expr(&mut self, types: &[Ty], risky: Option<usize>) -> Expr {
        if types.is_empty() {
            return Expr::lit(self.value(Ty::Int));
        }
        if let Some(d) = risky.filter(|_| self.chance(0.3)) {
            return Expr::binary(BinOp::Div, Expr::lit(7i64), Expr::col(d));
        }
        match self.below(11) {
            0 => Expr::lit(self.value(Ty::Int)),
            1 => self.arith(types),
            2 => Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(self.operand(types)),
            },
            3 => self.predicate(types, 1),
            4 => Expr::binary(BinOp::Gt, self.arith(types), Expr::lit(1i64)),
            5 => Expr::Unary {
                op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                operand: Box::new(self.arith(types)),
            },
            _ => Expr::col(self.below(types.len())),
        }
    }
}

/// Whether `e` holds a shape that had no kernel before every kernel carried
/// its failing rows, and ran on the row evaluator: a comparison over a
/// computed operand, `IS [NOT] NULL` of a non-column, or arithmetic read as
/// a truth value (`truth`: `e` itself is read as one).
fn once_kernel_less(e: &Expr, truth: bool) -> bool {
    let leaf = |e: &Expr| matches!(e, Expr::Column(_) | Expr::Literal(_));
    match e {
        Expr::Column(_) | Expr::Literal(_) => false,
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            lhs,
            rhs,
        } => once_kernel_less(lhs, true) || once_kernel_less(rhs, true),
        Expr::Binary { op, lhs, rhs } if op.is_predicate() => !leaf(lhs) || !leaf(rhs),
        Expr::Binary { lhs, rhs, .. } => {
            truth || once_kernel_less(lhs, false) || once_kernel_less(rhs, false)
        }
        Expr::Unary {
            op: UnOp::Not,
            operand,
        } => once_kernel_less(operand, true),
        Expr::Unary {
            op: UnOp::Neg,
            operand,
        } => truth || once_kernel_less(operand, false),
        Expr::Unary { operand, .. } => !matches!(**operand, Expr::Column(_)),
    }
}

struct Case {
    bp: JobBlueprint,
    /// Types of input 0's columns.
    types: Vec<Ty>,
    /// The column every branch requires non-zero, when a key or the
    /// projection divides by it: the division never fails on a kept row.
    guard: Option<usize>,
}

fn gen_case(g: &mut Gen) -> Case {
    let types: Vec<Ty> = (0..1 + g.below(5))
        .map(|_| g.pick(&[Ty::Int, Ty::Float, Ty::Num, Ty::Str, Ty::Bool]))
        .collect();
    let width = types.len();
    let direct = g.chance(0.3);
    let nstreams = if direct { 1 } else { 2 + g.below(3) };
    // Input 0 feeds 1–3 streams; the others are foreign, fed by input 1.
    let mine = if direct {
        vec![0]
    } else {
        let n = 1 + g.below(nstreams.min(3));
        let mut all: Vec<usize> = (0..nstreams).collect();
        for i in (1..nstreams).rev() {
            all.swap(i, g.below(i + 1));
        }
        all.truncate(n);
        all
    };
    // A guarded case divides by a numeric column every branch requires
    // non-zero; an unguarded one now and then divides by any numeric
    // column, and then fails where a kept row holds a zero.
    let numeric: Vec<usize> = (0..width).filter(|&c| types[c].numeric()).collect();
    let guard = (!numeric.is_empty() && g.chance(0.3)).then(|| g.pick(&numeric));
    let divisor = match guard {
        Some(d) => Some(d),
        None if !numeric.is_empty() && g.chance(0.1) => Some(g.pick(&numeric)),
        None => None,
    };
    let branches = mine
        .iter()
        .map(|&stream| {
            let predicate = match g.below(10) {
                0..=2 => None,
                3 => Some(Expr::binary(BinOp::Gt, g.arith(&types), Expr::lit(1i64))),
                _ => Some(g.predicate(&types, 2)),
            };
            let predicate = match guard {
                None => predicate,
                Some(d) => {
                    let nonzero = Expr::binary(BinOp::NotEq, Expr::col(d), Expr::lit(0i64));
                    Some(predicate.map_or(nonzero.clone(), |p| nonzero.and(p)))
                }
            };
            MapBranch { stream, predicate }
        })
        .collect();
    let key_exprs: Vec<Expr> = (0..g.below(3))
        .map(|_| g.value_expr(&types, divisor))
        .collect();
    // Carried columns, duplicates now and then (tagged mode carries them as
    // they are; direct mode projects from them).
    let value_cols: Vec<usize> = (0..g.below(width + 2)).map(|_| g.below(width)).collect();
    let map_only = direct && g.chance(0.3);
    // Direct mode applies stream 0's projection map-side, over the carried
    // row: its divisor is the guard's position there, if it is carried.
    let projection: Vec<Expr> = if direct {
        let carried: Vec<Ty> = value_cols.iter().map(|&c| types[c]).collect();
        let divisor = divisor.and_then(|d| value_cols.iter().position(|&c| c == d));
        (0..g.below(4))
            .map(|_| g.value_expr(&carried, divisor))
            .collect()
    } else {
        vec![]
    };
    let divides = |e: &Expr| matches!(e, Expr::Binary { op: BinOp::Div, .. });
    let guard = guard.filter(|_| key_exprs.iter().chain(&projection).any(divides));
    let pad_bytes = if g.chance(0.15) { 3 } else { 0 };
    let schema = |name: &str, types: &[Ty]| {
        let cols: Vec<String> = (0..types.len()).map(|c| format!("c{c}")).collect();
        let fields: Vec<(&str, DataType)> = cols
            .iter()
            .zip(types)
            .map(|(c, ty)| (c.as_str(), ty.data_type()))
            .collect();
        Schema::of(name, &fields)
    };
    let mut inputs = vec![InputSpec {
        path: "data/x".into(),
        schema: schema("x", &types),
        key_exprs,
        value_cols,
        branches,
        tag_filter: g.chance(0.2).then(|| g.below(3) as i64),
    }];
    let foreign: Vec<usize> = (0..nstreams).filter(|s| !mine.contains(s)).collect();
    if !foreign.is_empty() {
        inputs.push(InputSpec {
            path: "data/y".into(),
            schema: schema("y", &[Ty::Int]),
            key_exprs: vec![Expr::col(0)],
            value_cols: vec![0],
            branches: foreign
                .into_iter()
                .map(|stream| MapBranch {
                    stream,
                    predicate: None,
                })
                .collect(),
            tag_filter: None,
        });
    }
    let streams = (0..nstreams)
        .map(|s| StreamSpec {
            projection: if s == 0 { projection.clone() } else { vec![] },
        })
        .collect();
    let bp = JobBlueprint {
        name: "eq".into(),
        inputs,
        streams,
        ops: if map_only {
            vec![]
        } else {
            vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }]
        },
        emit: EmitSpec::Single(if map_only {
            RSource::Stream(0)
        } else {
            RSource::Op(0)
        }),
        output: "out".into(),
        reduce_tasks: None,
        map_only,
        short_circuit_streams: vec![],
        pad_bytes,
        key_cardinality: None,
    };
    bp.validate().expect("generated blueprints are consistent");
    Case { bp, types, guard }
}

/// One batch of input 0: 0–40 rows of its column types behind a leading tag
/// column when the input filters by tag — now and then more rows than a
/// text chunk holds — and now and then a batch of the wrong width (bad
/// records).
fn gen_batch(g: &mut Gen, case: &Case) -> ColumnBatch {
    let tag_filter = case.bp.inputs[0].tag_filter;
    let wrong_width = g.chance(0.05);
    let n = if g.chance(0.03) {
        DEFAULT_FRAME_ROWS + g.below(DEFAULT_FRAME_ROWS / 4)
    } else {
        g.below(41)
    };
    let rows: Vec<Row> = (0..n)
        .map(|_| {
            let tag = tag_filter.map(|want| Value::Int(if g.chance(0.7) { want } else { 9 }));
            let mut cells: Vec<Value> = tag.into_iter().collect();
            cells.extend(case.types.iter().map(|&ty| g.value(ty)));
            if wrong_width {
                cells.push(Value::Int(0));
            }
            Row::new(cells)
        })
        .collect();
    ColumnBatch::from_rows(&rows).expect("finite cells of one width")
}

/// The batches of a case as one text task's lines: each row rendered (its
/// tag column the `tag|` prefix), and after one row in ten an undecodable
/// line — its torn copy, as the engine injects it, or one of more fields
/// than any row has, behind the wanted tag when the input filters by tag.
fn render_lines(g: &mut Gen, case: &Case, batches: &[ColumnBatch]) -> Vec<String> {
    let prefix = case.bp.inputs[0]
        .tag_filter
        .map_or(String::new(), |want| format!("{want}|"));
    let mut lines = Vec::new();
    for row in batches.iter().flat_map(ColumnBatch::to_rows) {
        let line = encode_line(&row);
        let bad = g.chance(0.1).then(|| {
            if g.chance(0.5) {
                format!("{line}|\u{1}")
            } else {
                format!("{prefix}{}", ["x"; 8].join("|"))
            }
        });
        lines.push(line);
        lines.extend(bad);
    }
    lines
}

/// Everything the contract covers, rendered so that `Int(7)` and
/// `Float(7.0)` (equal as `Value`s) still differ: per partition its pairs
/// and its segment's sizes, then work, dispatch counts, bad records.
type Observed = (Vec<(String, (u64, Option<FrameStats>))>, u64, Vec<u64>, u64);

/// What a mapper run observed, or the job's failure.
fn observed(mut out: MapOutput, partitions: usize) -> Result<Observed, String> {
    if let Some(fatal) = out.take_fatal() {
        return Err(fatal);
    }
    let parts = (0..partitions)
        .map(|p| {
            let pairs: Vec<(Vec<Value>, Vec<Value>)> = out.pairs(p).collect();
            (format!("{pairs:?}"), out.segment_size(p))
        })
        .collect();
    let dispatches = out.take_dispatches();
    Ok((parts, out.work(), dispatches, out.bad_records()))
}

/// The failure classes the common mapper reports.
fn assert_planner_failure(fatal: &str) {
    let class = ["predicate", "key expr", "projection"];
    let class = class.map(|c| format!("{c} failed in eq: "));
    assert!(class.iter().any(|c| fatal.starts_with(c)), "{fatal}");
}

fn check_equivalence(cases: u64) {
    let (mut emitted, mut failed, mut dodged, mut shapes) = (0, 0, 0, 0);
    let (mut text_emitted, mut text_bad, mut chunked) = (0, 0, 0);
    for seed in 0..cases {
        let mut g = Gen(StdRng::seed_from_u64(0x3A99_0000 + seed));
        let case = gen_case(&mut g);
        let batches: Vec<ColumnBatch> = (0..1 + g.below(4))
            .map(|_| gen_batch(&mut g, &case))
            .collect();
        let partitions = 1 + g.below(8);
        let reserve = g.chance(0.5);
        let run = |map: &mut dyn FnMut(&ColumnBatch, &mut MapOutput)| {
            let mut out = MapOutput::partitioned(partitions);
            for batch in &batches {
                if reserve {
                    out.reserve(batch.num_rows());
                }
                map(batch, &mut out);
            }
            observed(out, partitions)
        };
        let mut mapper = CommonMapper::new(Arc::new(case.bp.clone()), 0);
        let by_batch = run(&mut |b, out| mapper.map_batch(b, out));
        let by_row = run(&mut |b, out| reference_map(&case.bp, b, out));
        let context = || format!("seed {seed}, {partitions} partitions\n{:#?}", case.bp);
        match (&by_batch, &by_row) {
            (Err(fatal), Err(_)) => {
                assert_planner_failure(fatal);
                failed += 1;
            }
            _ => assert_eq!(by_batch, by_row, "{}\n{batches:?}", context()),
        }
        // The same batches as one text task's lines, mapped in one call.
        let lines = render_lines(&mut g, &case, &batches);
        let run_lines = |map: &mut dyn FnMut(&mut MapOutput)| {
            let mut out = MapOutput::partitioned(partitions);
            if reserve {
                out.reserve(lines.len());
            }
            map(&mut out);
            observed(out, partitions)
        };
        let fed: Vec<&str> = lines.iter().map(String::as_str).collect();
        let by_lines = run_lines(&mut |out| mapper.map_lines(&fed, out));
        let by_line = run_lines(&mut |out| reference_lines(&case.bp, &lines, out));
        match (&by_lines, &by_line) {
            (Err(fatal), Err(_)) => assert_planner_failure(fatal),
            _ => assert_eq!(by_lines, by_line, "text: {}\n{lines:?}", context()),
        }
        chunked += u64::from(lines.len() > DEFAULT_FRAME_ROWS);
        if let Ok((parts, _, _, bad)) = &by_lines {
            text_emitted += u64::from(parts.iter().any(|(pairs, _)| pairs != "[]"));
            text_bad += u64::from(*bad > 0);
        }
        if let Ok((parts, ..)) = &by_batch {
            emitted += u64::from(parts.iter().any(|(pairs, _)| pairs != "[]"));
            let input = &case.bp.inputs[0];
            let predicates = input.branches.iter().filter_map(|b| b.predicate.as_ref());
            let values = input.key_exprs.iter().chain(&case.bp.streams[0].projection);
            shapes += u64::from(
                predicates
                    .map(|p| (p, true))
                    .chain(values.map(|v| (v, false)))
                    .any(|(e, truth)| once_kernel_less(e, truth)),
            );
            // A zero divisor on a row no branch keeps: evaluated over every
            // row, the division would have failed the job.
            let zero = |v: Value| v.as_float() == Some(0.0);
            let tag = usize::from(case.bp.inputs[0].tag_filter.is_some());
            let dropped_zero = case.guard.is_some_and(|d| {
                let rows = batches.iter().flat_map(ColumnBatch::to_rows);
                rows.filter(|r| r.len() == case.types.len() + tag)
                    .any(|r| zero(r.values()[tag + d].clone()))
            });
            dodged += u64::from(dropped_zero);
        }
    }
    // A sweep that compares nothing, or never reaches a shape, is not
    // testing it.
    let share = |n: u64| n * 100 / cases;
    assert!(
        share(emitted) >= 50 && share(failed) >= 3 && share(dodged) >= 5 && share(shapes) >= 20,
        "of {cases}: {emitted} emitted, {failed} failed, {dodged} dodged a zero divisor, \
         {shapes} with a once kernel-less shape"
    );
    assert!(
        share(text_emitted) >= 50 && share(text_bad) >= 30 && share(chunked) >= 3,
        "of {cases} as text: {text_emitted} emitted, {text_bad} counted bad lines, \
         {chunked} crossed a chunk boundary"
    );
}

#[test]
fn batch_body_matches_row_reference() {
    check_equivalence(400);
}

/// The CI soak: `cargo test --release -p ysmart-exec --test
/// mapper_equivalence -- --include-ignored`.
#[test]
#[ignore = "raised case count; run in release"]
fn batch_body_matches_row_reference_soak() {
    check_equivalence(50_000);
}
