//! Equivalence of the common mapper's batch body with a row-at-a-time
//! reference.
//!
//! [`reference_map`] is the common mapper one record at a time: every
//! branch's selection by `eval_predicate`, the key by `eval`, the value
//! carried (`Row::project` of `value_cols`) then, in direct mode, stream 0's
//! projection evaluated over it, the Pig pad, one `MapOutput::emit` per
//! pair. `CommonMapper::map_batch` maps a batch whole — each selection a
//! mask, each key and value a column (a borrowed column, a kernel, or the
//! row evaluator over the kept rows for that expression alone), one
//! `MapOutput::emit_columns`. Over generated blueprints and batches the two
//! must agree on everything a job's result and its simulated time are
//! derived from: every partition's pairs (cells, key/value split, emit
//! order), each segment's text bytes and frame size, work, per-stream
//! dispatch counts, bad-record counts — and whether the job fails. A batch
//! holding a row on which an expression fails emits nothing either way.
//!
//! `cargo test` runs a few hundred cases; CI runs the `#[ignore]`d soak in
//! release mode (`--include-ignored`).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_exec::{
    CommonMapper, EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, RSource, StreamSpec,
};
use ysmart_mapred::{untag_batch, MapOutput, Mapper};
use ysmart_rel::colbatch::FrameStats;
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

/// The row-at-a-time common mapper over one batch of input `input`.
fn reference_map(bp: &JobBlueprint, input: usize, batch: &ColumnBatch, out: &mut MapOutput) {
    let spec = &bp.inputs[input];
    let batch = match spec.tag_filter {
        None => batch.clone(),
        Some(want) => untag_batch(batch, want),
    };
    let n = batch.num_rows();
    if batch.num_cols() != spec.schema.len() {
        (0..n).for_each(|_| out.record_bad());
        return;
    }
    let pairs = (0..n).map(|r| reference_row(bp, spec, &batch.row(r)));
    match pairs.collect::<Result<Vec<_>, _>>() {
        Err(msg) => out.record_fatal(msg),
        Ok(pairs) => {
            out.add_work(n as u64 * (spec.branches.len() as u64 - 1));
            for (seen, pair) in pairs {
                seen.into_iter().for_each(|s| out.record_dispatch(s));
                if let Some((key, value)) = pair {
                    out.emit(key, value);
                }
            }
        }
    }
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

    /// A predicate with a mask kernel: column against literal or column,
    /// `IS [NOT] NULL`, literals, bare columns, `AND` / `OR` / `NOT`.
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
        match self.below(8) {
            0 => Expr::lit(self.pick(&[Value::Bool(true), Value::Bool(false), Value::Null])),
            1 => Expr::Unary {
                op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                operand: Box::new(Expr::col(c)),
            },
            2 => Expr::binary(cmp, Expr::col(c), Expr::col(self.below(types.len()))),
            3 => Expr::binary(cmp, Expr::lit(self.value(types[c])), Expr::col(c)),
            4 => Expr::col(c),
            _ => Expr::binary(cmp, Expr::col(c), Expr::lit(self.value(types[c]))),
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
    /// literal, arithmetic (a kernel), a comparison (a mask kernel, read as
    /// a `Bool` column), or a comparison or null test over arithmetic (no
    /// kernel: the row evaluator). `risky` is a divisor column — `7 / #risky`
    /// fails where it is zero.
    fn value_expr(&mut self, types: &[Ty], risky: Option<usize>) -> Expr {
        if types.is_empty() {
            return Expr::lit(self.value(Ty::Int));
        }
        if let Some(d) = risky.filter(|_| self.chance(0.3)) {
            return Expr::binary(BinOp::Div, Expr::lit(7i64), Expr::col(d));
        }
        let arith = |g: &mut Gen| {
            let op = g.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
            let rhs = if g.chance(0.5) {
                g.operand(types)
            } else {
                Expr::lit(g.pick(&[Value::Int(3), Value::Float(0.5), Value::Null]))
            };
            Expr::binary(op, g.operand(types), rhs)
        };
        match self.below(11) {
            0 => Expr::lit(self.value(Ty::Int)),
            1 => arith(self),
            2 => Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(self.operand(types)),
            },
            3 => self.predicate(types, 1),
            4 => Expr::binary(BinOp::Gt, arith(self), Expr::lit(1i64)),
            5 => Expr::Unary {
                op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                operand: Box::new(arith(self)),
            },
            _ => Expr::col(self.below(types.len())),
        }
    }

    /// A predicate without a mask kernel: arithmetic under a comparison.
    fn kernel_less_predicate(&mut self, types: &[Ty]) -> Expr {
        let sum = Expr::binary(BinOp::Add, self.operand(types), Expr::lit(1i64));
        Expr::binary(BinOp::Gt, sum, Expr::lit(1i64))
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
                3 => Some(g.kernel_less_predicate(&types)),
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
    let schema = |name: &str, n: usize| {
        let cols: Vec<String> = (0..n).map(|c| format!("c{c}")).collect();
        let fields: Vec<(&str, DataType)> =
            cols.iter().map(|c| (c.as_str(), DataType::Int)).collect();
        Schema::of(name, &fields)
    };
    let mut inputs = vec![InputSpec {
        path: "data/x".into(),
        schema: schema("x", width),
        key_exprs,
        value_cols,
        branches,
        tag_filter: g.chance(0.2).then(|| g.below(3) as i64),
    }];
    let foreign: Vec<usize> = (0..nstreams).filter(|s| !mine.contains(s)).collect();
    if !foreign.is_empty() {
        inputs.push(InputSpec {
            path: "data/y".into(),
            schema: schema("y", 1),
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
        combiner: None,
        map_only,
        short_circuit_streams: vec![],
        pad_bytes,
        key_cardinality: None,
    };
    bp.validate().expect("generated blueprints are consistent");
    Case { bp, types, guard }
}

/// One batch of input 0: 0–40 rows of its column types behind a leading tag
/// column when the input filters by tag, and now and then a batch of the
/// wrong width (bad records).
fn gen_batch(g: &mut Gen, case: &Case) -> ColumnBatch {
    let tag_filter = case.bp.inputs[0].tag_filter;
    let wrong_width = g.chance(0.05);
    let rows: Vec<Row> = (0..g.below(41))
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
            let pairs: Vec<(&[Value], &[Value])> = out.pairs(p).collect();
            (format!("{pairs:?}"), out.segment_size(p))
        })
        .collect();
    let dispatches = out.take_dispatches();
    Ok((parts, out.work(), dispatches, out.bad_records()))
}

fn check_equivalence(cases: u64) {
    let (mut emitted, mut failed, mut dodged, mut fallbacks) = (0, 0, 0, 0);
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
        let by_row = run(&mut |b, out| reference_map(&case.bp, 0, b, out));
        let context = || format!("seed {seed}, {partitions} partitions\n{:#?}", case.bp);
        match (&by_batch, &by_row) {
            (Err(fatal), Err(_)) => {
                let class = ["predicate", "key expr", "projection"];
                let class = class.map(|c| format!("{c} failed in eq: "));
                assert!(class.iter().any(|c| fatal.starts_with(c)), "{fatal}");
                failed += 1;
            }
            _ => assert_eq!(by_batch, by_row, "{}\n{batches:?}", context()),
        }
        if let Ok((parts, ..)) = &by_batch {
            emitted += u64::from(parts.iter().any(|(pairs, _)| pairs != "[]"));
            fallbacks += u64::from(!case.bp.row_fallbacks().is_empty());
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
        share(emitted) >= 50 && share(failed) >= 3 && share(dodged) >= 5 && share(fallbacks) >= 20,
        "of {cases}: {emitted} emitted, {failed} failed, {dodged} dodged a zero divisor, \
         {fallbacks} with a row fallback"
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
