//! Equivalence of the common reducer with a materialising reference.
//!
//! [`reference_reduce`] is the reducer as it was before key groups became
//! views: one key group at a time, every dispatched value cloned into its
//! streams, every join pair `concat`-ed before its residual is evaluated,
//! the whole transform chain run afterwards through [`apply_chain`], a
//! `BTreeMap` entry per aggregated row, `AggState` per aggregate. Over
//! generated blueprints and runs of key groups the common reducer — fed the
//! groups one `reduce` call at a time, and all at once through one
//! `reduce_run` call, as the engine feeds a reduce task — must agree with it
//! on everything a job's result and its simulated time are derived from:
//! emitted rows and their order, [`ReduceOutput::work`], the per-stream
//! dispatch counts, and whether the job fails.
//!
//! `cargo test` runs a few hundred cases; CI runs the `#[ignore]`d soak in
//! release mode (`--include-ignored`).

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_exec::rowop::apply_chain;
use ysmart_exec::{
    CommonReducer, EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, RSource, RowOp,
    StreamSpec,
};
use ysmart_mapred::{
    run_job, Cluster, ClusterConfig, KeyGroups, MapRedError, ReduceOutput, Reducer,
};
use ysmart_plan::JoinKind;
use ysmart_rel::{
    AggFunc, AggState, BinOp, Columns, DataType, Expr, RelError, Row, Schema, SortKey, SortOrder,
    UnOp, Value,
};

// ---- the reference ---------------------------------------------------------

/// Number of columns a partial row carries for one aggregate.
fn partial_width(func: AggFunc) -> usize {
    match func {
        AggFunc::Avg => 2, // sum, count
        _ => 1,
    }
}

/// Decodes the partial fields of `func` starting at column `at` of a
/// partial row back into an accumulator for merging.
fn decode_partial<C: Columns + ?Sized>(
    func: AggFunc,
    row: &C,
    at: usize,
) -> Result<AggState, RelError> {
    let first = row.column(at)?;
    let non_null = || (!first.is_null()).then(|| first.clone());
    Ok(match func {
        AggFunc::Count => AggState::Count(first.as_int().unwrap_or(0)),
        AggFunc::Sum => AggState::Sum(non_null()),
        AggFunc::Avg => AggState::Avg {
            sum: first.as_float().unwrap_or(0.0),
            count: row.column(at + 1)?.as_int().unwrap_or(0),
        },
        AggFunc::Min => AggState::Min(non_null()),
        AggFunc::Max => AggState::Max(non_null()),
        AggFunc::CountDistinct => unreachable!("count(distinct) is not combinable"),
    })
}

/// Feeds one raw row into the accumulators. `count(*)`'s missing argument
/// counts every row.
fn update_states<C: Columns + ?Sized>(
    states: &mut [AggState],
    aggs: &[(AggFunc, Option<Expr>)],
    row: &C,
) -> Result<(), RelError> {
    for (state, (_, arg)) in states.iter_mut().zip(aggs) {
        match arg {
            Some(e) => state.update(e.eval_on(row)?.as_ref())?,
            None => state.update(&Value::Int(1))?, // count(*) counts rows
        }
    }
    Ok(())
}

enum OpRows {
    Owned(Vec<Row>),
    Alias(RSource),
}

fn source_rows<'a>(streams: &'a [Vec<Row>], outputs: &'a [OpRows], mut src: RSource) -> &'a [Row] {
    loop {
        match src {
            RSource::Stream(s) => return &streams[s],
            RSource::Op(o) => match &outputs[o] {
                OpRows::Owned(rows) => return rows,
                OpRows::Alias(a) => src = *a,
            },
        }
    }
}

/// The materialising reducer: clone on dispatch, concat-then-filter joins,
/// `eval_*` → [`apply_chain`] composition.
fn reference_reduce(bp: &JobBlueprint, values: &[Row], out: &mut ReduceOutput) {
    let tagged = bp.tagged();
    let pad_cols = usize::from(bp.pad_bytes > 0);
    let unpadded: Vec<Row>;
    let values: &[Row] = if pad_cols > 0 && !tagged {
        unpadded = values
            .iter()
            .map(|v| {
                let mut vals = v.values().to_vec();
                vals.pop();
                Row::new(vals)
            })
            .collect();
        &unpadded
    } else {
        values
    };
    let tag_of = |v: &Row| v.get(0).ok().and_then(Value::as_int).unwrap_or(0) as u64;
    if !bp.short_circuit_streams.is_empty() && tagged {
        let present = values.iter().fold(0u64, |p, v| p | !tag_of(v));
        out.add_work(values.len() as u64 / 8);
        if bp
            .short_circuit_streams
            .iter()
            .any(|&s| present & (1 << s) == 0)
        {
            return;
        }
    }
    let mut streams: Vec<Vec<Row>> = vec![Vec::new(); bp.streams.len()];
    if tagged {
        for v in values {
            let carried = Row::new(v.values()[1..v.len() - pad_cols].to_vec());
            for (s, spec) in bp.streams.iter().enumerate() {
                if tag_of(v) & (1 << s) != 0 {
                    continue;
                }
                out.add_work(1);
                out.record_dispatch(s);
                let projected: Result<Row, _> =
                    spec.projection.iter().map(|e| e.eval(&carried)).collect();
                match projected {
                    Ok(p) => streams[s].push(p),
                    Err(err) => {
                        out.record_fatal(format!("stream projection failed: {err}"));
                        return;
                    }
                }
            }
        }
    } else {
        out.record_dispatches(0, values.len() as u64);
        streams[0] = values.to_vec();
    }
    if bp
        .short_circuit_streams
        .iter()
        .any(|&s| streams[s].is_empty())
    {
        return;
    }

    let mut outputs: Vec<OpRows> = Vec::new();
    for op in &bp.ops {
        let mut work = 0u64;
        let evaluated = match &op.kind {
            OpKind::Pass => {
                let input = source_rows(&streams, &outputs, op.inputs[0]);
                work += input.len() as u64;
                if op.transforms.is_empty() {
                    out.add_work(work);
                    outputs.push(OpRows::Alias(op.inputs[0]));
                    continue;
                }
                Ok(input.to_vec())
            }
            OpKind::Agg {
                group_cols,
                aggs,
                having,
                merge_partials,
            } => reference_agg(
                source_rows(&streams, &outputs, op.inputs[0]),
                group_cols,
                aggs,
                having.as_ref(),
                *merge_partials,
                &mut work,
            ),
            OpKind::Join {
                kind,
                residual,
                left_width,
                right_width,
                columns,
            } => reference_join(
                source_rows(&streams, &outputs, op.inputs[0]),
                source_rows(&streams, &outputs, op.inputs[1]),
                *kind,
                residual.as_ref(),
                *left_width,
                *right_width,
                &mut work,
            )
            .map(|rows| rows.iter().map(|r| r.project(columns)).collect()),
        };
        let transformed = evaluated.and_then(|rows| {
            apply_chain(&op.transforms, rows, &mut work).map_err(|e| e.to_string())
        });
        out.add_work(work);
        match transformed {
            Ok(rows) => outputs.push(OpRows::Owned(rows)),
            Err(e) => {
                out.record_fatal(e);
                return;
            }
        }
    }

    let (sources, tagged_emit) = match &bp.emit {
        EmitSpec::Single(src) => (vec![*src], false),
        EmitSpec::Tagged(srcs) => (srcs.clone(), true),
    };
    for (tag, src) in sources.into_iter().enumerate() {
        for row in source_rows(&streams, &outputs, src) {
            if tagged_emit {
                out.emit_tagged_row(tag as i64, row.clone());
            } else {
                out.emit_row(row.clone());
            }
        }
    }
}

fn reference_agg(
    input: &[Row],
    group_cols: &[usize],
    aggs: &[(AggFunc, Option<Expr>)],
    having: Option<&Expr>,
    merge_partials: bool,
    work: &mut u64,
) -> Result<Vec<Row>, String> {
    let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    for row in input {
        *work += 1;
        let group: Vec<Value> = group_cols
            .iter()
            .map(|&c| row.get(c).cloned().unwrap_or(Value::Null))
            .collect();
        let states = groups
            .entry(group)
            .or_insert_with(|| aggs.iter().map(|(f, _)| f.new_state()).collect());
        if merge_partials {
            let mut offset = group_cols.len();
            for (state, (func, _)) in states.iter_mut().zip(aggs) {
                let partial = decode_partial(*func, row, offset).map_err(|e| e.to_string())?;
                state.merge(&partial).map_err(|e| e.to_string())?;
                offset += partial_width(*func);
            }
        } else {
            update_states(states, aggs, row).map_err(|e| e.to_string())?;
        }
    }
    let mut out = Vec::new();
    for (group, states) in groups {
        let mut vals = group;
        vals.extend(states.iter().map(AggState::finish));
        let row = Row::new(vals);
        let keep = match having {
            None => true,
            Some(h) => h.eval_predicate(&row).map_err(|e| e.to_string())?,
        };
        if keep {
            out.push(row);
        }
    }
    Ok(out)
}

fn reference_join(
    left: &[Row],
    right: &[Row],
    kind: JoinKind,
    residual: Option<&Expr>,
    left_width: usize,
    right_width: usize,
    work: &mut u64,
) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    let mut right_matched = vec![false; right.len()];
    for l in left {
        let mut matched = false;
        for (ri, r) in right.iter().enumerate() {
            *work += 1;
            let joined = l.concat(r);
            let pass = match residual {
                None => true,
                Some(p) => p.eval_predicate(&joined).map_err(|e| e.to_string())?,
            };
            if pass {
                matched = true;
                right_matched[ri] = true;
                out.push(joined);
            }
        }
        if !matched && matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
            out.push(l.concat(&Row::nulls(right_width)));
        }
    }
    if matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
        for (ri, r) in right.iter().enumerate() {
            if !right_matched[ri] {
                out.push(Row::nulls(left_width).concat(r));
            }
        }
    }
    Ok(out)
}

// ---- generators ------------------------------------------------------------

/// What a generated column holds, so generated expressions seldom fail:
/// arithmetic and `sum`/`avg` only touch numeric columns. (Comparisons never
/// error — incomparable types are SQL unknown.)
#[derive(Clone, Copy, PartialEq, Debug)]
enum Ty {
    /// NULL, or an `Int`/`Float` drawn from a handful of numerically
    /// colliding values (`Int(1)`, `Float(1.0)`, …): a mixed column.
    Num,
    /// NULL or an `Int` — now and then one near `i64::MAX`, so a sum can
    /// overflow.
    Int,
    /// NULL or a `Float`: `-0.0` beside `0.0` (equal, but rendered apart),
    /// and values whose sum depends on the order of the additions.
    Float,
    /// NULL or a short string.
    Str,
    /// NULL or a boolean.
    Bool,
}

impl Ty {
    fn numeric(self) -> bool {
        matches!(self, Ty::Num | Ty::Int | Ty::Float)
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
            Ty::Num => match self.below(3) {
                0 => Value::Float(self.below(3) as f64),
                1 => Value::Float(self.below(3) as f64 + 0.5),
                _ => Value::Int(self.below(4) as i64),
            },
            Ty::Int if self.chance(0.01) => Value::Int(i64::MAX - self.below(3) as i64),
            Ty::Int => Value::Int(self.below(7) as i64 - 3),
            Ty::Float => Value::Float(self.pick(&[-0.0, 0.0, 0.1, 0.2, 0.3, 1.5, -2.5, 1e16])),
            Ty::Str => Value::Str(self.pick(&["a", "b", "F", "", "ab"]).to_string()),
            Ty::Bool => Value::Bool(self.chance(0.5)),
        }
    }

    fn types(&mut self, n: usize) -> Vec<Ty> {
        (0..n)
            .map(|_| self.pick(&[Ty::Num, Ty::Num, Ty::Int, Ty::Float, Ty::Str, Ty::Bool]))
            .collect()
    }

    /// A numeric column of `types`, if there is one.
    fn numeric_col(&mut self, types: &[Ty]) -> Option<usize> {
        let cols: Vec<usize> = (0..types.len()).filter(|&c| types[c].numeric()).collect();
        (!cols.is_empty()).then(|| self.pick(&cols))
    }

    /// A scalar over `types` with its type; seldom fails to evaluate.
    fn scalar(&mut self, types: &[Ty]) -> (Expr, Ty) {
        let c = self.below(types.len());
        match self.below(6) {
            0 => match self.numeric_col(types) {
                Some(n) => {
                    let op = self.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
                    let rhs = match op {
                        // Truncating, widening and NULL divisors; never zero.
                        BinOp::Div => Expr::lit(self.pick(&[
                            Value::Int(2),
                            Value::Int(-3),
                            Value::Float(0.5),
                            Value::Null,
                        ])),
                        _ if self.chance(0.5) => Expr::lit(self.below(3) as i64),
                        _ => Expr::col(self.numeric_col(types).expect("has one")),
                    };
                    let e = Expr::binary(op, Expr::col(n), rhs);
                    if self.chance(0.2) {
                        let neg = UnOp::Neg;
                        let operand = Box::new(e);
                        (Expr::Unary { op: neg, operand }, Ty::Num)
                    } else {
                        (e, Ty::Num)
                    }
                }
                None => (Expr::col(c), types[c]),
            },
            1 => (Expr::lit(self.value(Ty::Num)), Ty::Num),
            2 => (self.predicate(types, 1), Ty::Bool),
            _ => (Expr::col(c), types[c]),
        }
    }

    /// A predicate over `types`: true, false and NULL outcomes all occur.
    /// Among its leaves are the shapes that once ran on the row evaluator:
    /// a computed comparison operand, a null test of a computed value,
    /// arithmetic read as a truth value, and a division guarded by a
    /// connective — `#d <> 0 AND 7 / #d > 1`, `#d = 0 OR 7 / #d > 1` — that
    /// fails only if the kernel takes an error from a side the row
    /// evaluator's short circuit skips.
    fn predicate(&mut self, types: &[Ty], depth: usize) -> Expr {
        if depth > 0 && self.chance(0.4) {
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
        match self.below(10) {
            0 => Expr::lit(self.pick(&[Value::Bool(true), Value::Bool(false), Value::Null])),
            1 => Expr::Unary {
                op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                operand: Box::new(Expr::col(c)),
            },
            // Column against column — of any types: mismatches are unknown.
            2 | 3 => Expr::binary(cmp, Expr::col(c), Expr::col(self.below(types.len()))),
            // A computed operand (the evaluator's non-leaf comparison path).
            4 => {
                let (lhs, ty) = self.scalar(types);
                Expr::binary(cmp, lhs, Expr::lit(self.value(ty)))
            }
            7 => Expr::Unary {
                op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                operand: Box::new(self.scalar(types).0),
            },
            8 => {
                let (truth, other) = (self.scalar(types).0, self.predicate(types, 0));
                if self.chance(0.5) {
                    truth.and(other)
                } else {
                    other.or(truth)
                }
            }
            9 => match self.numeric_col(types) {
                Some(d) => {
                    let div = Expr::binary(BinOp::Div, Expr::lit(7i64), Expr::col(d));
                    let div = Expr::binary(BinOp::Gt, div, Expr::lit(1i64));
                    if self.chance(0.5) {
                        Expr::binary(BinOp::NotEq, Expr::col(d), Expr::lit(0i64)).and(div)
                    } else {
                        Expr::binary(BinOp::Eq, Expr::col(d), Expr::lit(0i64)).or(div)
                    }
                }
                None => Expr::col(c),
            },
            _ => Expr::binary(cmp, Expr::col(c), Expr::lit(self.value(types[c]))),
        }
    }

    /// `Filter`/`Project`/`Sort`/`Limit` in any order, tracking the types.
    fn transforms(&mut self, types: &mut Vec<Ty>) -> Vec<RowOp> {
        let n = self.pick(&[0, 0, 1, 2, 3, 4]);
        (0..n)
            .map(|_| match self.below(6) {
                0 | 1 => RowOp::Filter(self.predicate(types, 2)),
                2 | 3 => {
                    let width = 1 + self.below(3);
                    let (exprs, tys) = (0..width).map(|_| self.scalar(types)).unzip();
                    *types = tys;
                    RowOp::Project(exprs)
                }
                // A key that fails on a row (`7 / #d` where `#d` is zero)
                // sorts that row as NULL.
                4 => RowOp::Sort(
                    (0..1 + self.below(2))
                        .map(|_| SortKey {
                            expr: match (self.below(4), self.numeric_col(types)) {
                                (0, _) => self.scalar(types).0,
                                (1, Some(d)) => {
                                    Expr::binary(BinOp::Div, Expr::lit(7i64), Expr::col(d))
                                }
                                _ => Expr::col(self.below(types.len())),
                            },
                            order: self.pick(&[SortOrder::Asc, SortOrder::Desc]),
                        })
                        .collect(),
                ),
                _ => RowOp::Limit(self.below(4)),
            })
            .collect()
    }

    fn aggs(&mut self, types: &[Ty]) -> (Vec<(AggFunc, Option<Expr>)>, Vec<Ty>) {
        (0..1 + self.below(2))
            .map(|_| {
                let any = self.below(types.len());
                match (self.below(6), self.numeric_col(types)) {
                    (0, Some(c)) => ((AggFunc::Sum, Some(Expr::col(c))), Ty::Num),
                    (1, Some(c)) => ((AggFunc::Avg, Some(Expr::col(c))), Ty::Num),
                    (2, _) => ((AggFunc::Min, Some(Expr::col(any))), types[any]),
                    (3, _) => ((AggFunc::Max, Some(Expr::col(any))), types[any]),
                    (4, _) => ((AggFunc::CountDistinct, Some(Expr::col(any))), Ty::Num),
                    _ => ((AggFunc::Count, None), Ty::Num),
                }
            })
            .unzip()
    }
}

struct Case {
    bp: JobBlueprint,
    /// The types of a value's carried columns (after the tag, before the
    /// pad).
    carried: Vec<Ty>,
}

fn gen_case(g: &mut Gen) -> Case {
    let nstreams = g.pick(&[1, 1, 2, 2, 3]);
    let tagged = nstreams > 1;
    let carried = {
        let n = 2 + g.below(3);
        g.types(n)
    };
    // Per stream: projection over the carried row and the resulting types.
    // Direct mode applies stream 0's projection map-side, so its rows *are*
    // the values.
    let mut streams = Vec::new();
    let mut sources: Vec<(RSource, Vec<Ty>)> = Vec::new();
    for s in 0..nstreams {
        let w = carried.len();
        let (projection, types): (Vec<Expr>, Vec<Ty>) = match g.below(4) {
            _ if !tagged => ((0..w).map(Expr::col).collect(), carried.clone()),
            // Identity prefix, possibly narrower than the carried row.
            0 | 1 => {
                let n = 1 + g.below(w);
                ((0..n).map(Expr::col).collect(), carried[..n].to_vec())
            }
            // Plain columns in any order, repeats allowed.
            2 => (0..1 + g.below(w + 1))
                .map(|_| g.below(w))
                .map(|c| (Expr::col(c), carried[c]))
                .unzip(),
            // Computed.
            _ => (0..1 + g.below(3)).map(|_| g.scalar(&carried)).unzip(),
        };
        streams.push(StreamSpec { projection });
        sources.push((RSource::Stream(s), types));
    }

    // A merging aggregation is the only op of an untagged, unpadded job,
    // reading stream 0.
    let merging = !tagged && g.chance(0.1);
    let mut ops = Vec::new();
    for o in 0..if merging { 1 } else { 1 + g.below(4) } {
        let (input, in_types) = if merging {
            sources[0].clone()
        } else {
            g.pick(&sources)
        };
        let (kind, inputs, mut types) = match if merging { 1 } else { g.below(3) } {
            0 => (OpKind::Pass, vec![input], in_types),
            1 => {
                // Combiner partials (`[group…, partial fields…]`) only
                // decode from numeric fields; count(distinct) never merges.
                let g_cols = g.below(2).min(in_types.len() - 1);
                let fields = &in_types[g_cols..];
                if merging && fields.iter().all(|t| t.numeric()) {
                    // `fields` is never empty, so the first draw fits.
                    let mut aggs = Vec::new();
                    let mut used = 0;
                    while used < fields.len() && (aggs.is_empty() || g.chance(0.5)) {
                        let fits = |f: &AggFunc| used + partial_width(*f) <= fields.len();
                        let funcs: Vec<AggFunc> = [
                            AggFunc::Count,
                            AggFunc::Sum,
                            AggFunc::Avg,
                            AggFunc::Min,
                            AggFunc::Max,
                        ]
                        .into_iter()
                        .filter(fits)
                        .collect();
                        let f = g.pick(&funcs);
                        used += partial_width(f);
                        aggs.push((f, None));
                    }
                    let out_types = in_types[..g_cols]
                        .iter()
                        .copied()
                        .chain(aggs.iter().map(|_| Ty::Num))
                        .collect();
                    let kind = OpKind::Agg {
                        group_cols: (0..g_cols).collect(),
                        aggs,
                        having: None,
                        merge_partials: true,
                    };
                    (kind, vec![input], out_types)
                } else {
                    let group_cols: Vec<usize> = (0..g.below(3))
                        .map(|_| g.below(in_types.len() + 1)) // one past: reads NULL
                        .collect();
                    let (aggs, agg_types) = g.aggs(&in_types);
                    let out_types: Vec<Ty> = group_cols
                        .iter()
                        .map(|&c| in_types.get(c).copied().unwrap_or(Ty::Num))
                        .chain(agg_types)
                        .collect();
                    let having = g.chance(0.3).then(|| g.predicate(&out_types, 1));
                    let kind = OpKind::Agg {
                        group_cols,
                        aggs,
                        having,
                        merge_partials: false,
                    };
                    (kind, vec![input], out_types)
                }
            }
            _ => {
                let (right, right_types) = g.pick(&sources);
                let types: Vec<Ty> = in_types.iter().chain(&right_types).copied().collect();
                // Half the joins output every column, the rest a subset.
                let mut columns: Vec<usize> = (0..types.len())
                    .filter(|_| g.chance(0.5) || g.chance(0.5))
                    .collect();
                if columns.is_empty() || g.chance(0.5) {
                    columns = (0..types.len()).collect();
                }
                let kind = OpKind::Join {
                    kind: g.pick(&[
                        JoinKind::Inner,
                        JoinKind::LeftOuter,
                        JoinKind::RightOuter,
                        JoinKind::FullOuter,
                    ]),
                    residual: g.chance(0.7).then(|| g.predicate(&types, 2)),
                    left_width: in_types.len(),
                    right_width: right_types.len(),
                    columns: columns.clone(),
                };
                let types = columns.iter().map(|&c| types[c]).collect();
                (kind, vec![input, right], types)
            }
        };
        if kind == OpKind::Pass && g.chance(0.3) {
            // An untransformed pass aliases its input.
            ops.push(ROp {
                kind,
                inputs,
                transforms: vec![],
            });
        } else {
            let transforms = g.transforms(&mut types);
            ops.push(ROp {
                kind,
                inputs,
                transforms,
            });
        }
        sources.push((RSource::Op(o), types));
    }

    let emit = if g.chance(0.6) {
        EmitSpec::Single(g.pick(&sources).0)
    } else {
        // Repeats allowed: a repeated owned source must not be moved out
        // before its last use.
        EmitSpec::Tagged((0..1 + g.below(3)).map(|_| g.pick(&sources).0).collect())
    };
    let merges = ops.iter().any(|op| {
        matches!(
            op.kind,
            OpKind::Agg {
                merge_partials: true,
                ..
            }
        )
    });
    let bp = JobBlueprint {
        name: "eq".into(),
        inputs: vec![InputSpec {
            path: "data/x".into(),
            schema: Schema::of("x", &[("a", DataType::Int)]),
            key_exprs: vec![Expr::col(0)],
            value_cols: vec![0],
            branches: (0..nstreams)
                .map(|stream| MapBranch {
                    stream,
                    predicate: None,
                })
                .collect(),
            tag_filter: None,
        }],
        streams,
        ops,
        emit,
        output: "out".into(),
        reduce_tasks: Some(1),
        map_only: false,
        short_circuit_streams: if g.chance(0.2) {
            vec![g.below(nstreams)]
        } else {
            vec![]
        },
        pad_bytes: if !merges && g.chance(0.25) { 3 } else { 0 },
        key_cardinality: None,
    };
    bp.validate().expect("generated blueprints are consistent");
    Case { bp, carried }
}

/// One reduce key's values, in the mapper's layout: `[tag,] carried…[, pad]`;
/// now and then hidden from one stream throughout. (Few values: chained
/// joins multiply them.)
fn gen_group(g: &mut Gen, case: &Case) -> Vec<Row> {
    let nstreams = case.bp.streams.len();
    let starved = g.chance(0.3).then(|| 1 << g.below(nstreams));
    (0..g.below(7))
        .map(|_| {
            let mut vals = Vec::new();
            if case.bp.tagged() {
                // Inverted visibility: a set bit hides the value. All-ones
                // (seen by nobody) and a NULL tag (seen by all) included.
                vals.push(match (g.below(8), starved) {
                    (_, Some(bit)) => Value::Int((g.below(1 << nstreams) | bit) as i64),
                    (0, None) => Value::Null,
                    _ => Value::Int(g.below(1 << nstreams) as i64),
                });
            }
            vals.extend(case.carried.iter().map(|&ty| g.value(ty)));
            if case.bp.pad_bytes > 0 {
                vals.push(Value::Str("x".repeat(case.bp.pad_bytes)));
            }
            Row::new(vals)
        })
        .collect()
}

/// Everything the contract covers, rendered so that `Int(1)` and
/// `Float(1.0)` (equal as `Value`s) still differ.
fn observed(mut out: ReduceOutput) -> (bool, String, u64, Vec<u64>) {
    let fatal = out.take_fatal().is_some();
    let dispatches = out.take_dispatches();
    let work = out.work();
    (fatal, format!("{:?}", out.into_emits()), work, dispatches)
}

fn check_equivalence(cases: u64) {
    let mut fatal_cases = 0;
    for seed in 0..cases {
        let mut g = Gen(StdRng::seed_from_u64(0x5EED_0000 + seed));
        let case = gen_case(&mut g);
        // One reduce task's groups: the reference and `reduce` take them
        // one by one, `reduce_run` all at once.
        let groups: Vec<Vec<Row>> = (0..1 + g.below(6))
            .map(|_| gen_group(&mut g, &case))
            .collect();
        let bp = Arc::new(case.bp.clone());
        let (mut by_group, mut by_run) = (ReduceOutput::default(), ReduceOutput::default());
        let mut want = ReduceOutput::default();
        let key = Row::new(vec![Value::Int(1)]);
        let mut reducer = CommonReducer::new(Arc::clone(&bp));
        for values in &groups {
            reducer.reduce(&key, values, &mut by_group);
            reference_reduce(&case.bp, values, &mut want);
        }
        let keys = vec![key; groups.len()];
        let starts: Vec<u32> = (0..groups.len())
            .map(|i| groups[..i].iter().map(Vec::len).sum::<usize>() as u32)
            .collect();
        let values = groups.concat();
        let run = KeyGroups::rows(&keys, &values, &starts);
        CommonReducer::new(bp).reduce_run(run, &mut by_run);
        let want = observed(want);
        for (how, got) in [("by group", by_group), ("by run", by_run)] {
            let got = observed(got);
            assert_eq!(
                got.0, want.0,
                "seed {seed} {how}: fatal differs\n{:#?}\n{groups:?}",
                case.bp
            );
            if !got.0 {
                assert_eq!(got, want, "seed {seed} {how}\n{:#?}\n{groups:?}", case.bp);
            }
        }
        // Work up to a failure is not part of the contract: the job is gone
        // either way.
        fatal_cases += u64::from(want.0);
    }
    // The generators build only well-typed expressions; a rare overflow is
    // tolerated, a generator that mostly fails is not testing anything.
    assert!(fatal_cases * 20 <= cases, "{fatal_cases} of {cases} fatal");
}

#[test]
fn zero_copy_reducer_matches_materialising_reference() {
    check_equivalence(400);
}

/// The CI soak: `cargo test --release -p ysmart-exec --test
/// reducer_equivalence -- --include-ignored`.
#[test]
#[ignore = "raised case count; run in release"]
fn zero_copy_reducer_matches_materialising_reference_soak() {
    check_equivalence(50_000);
}

// ---- fatal stays fatal -----------------------------------------------------

/// A join job over `data/t` (`k|a|s`, `s` a string) whose residual and
/// transform chain are given; `Add` on the string column is the failure.
fn failing_job(residual: Option<Expr>, transforms: Vec<RowOp>) -> Result<(), MapRedError> {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.load_table(
        "t",
        (0..20).map(|i| format!("{}|{}|s{}", i % 4, i, i)).collect(),
    );
    let bp = JobBlueprint {
        name: "failing".into(),
        inputs: vec![InputSpec {
            path: "data/t".into(),
            schema: Schema::of(
                "t",
                &[
                    ("k", DataType::Int),
                    ("a", DataType::Int),
                    ("s", DataType::Str),
                ],
            ),
            key_exprs: vec![Expr::col(0)],
            value_cols: vec![0, 1, 2],
            branches: (0..2)
                .map(|stream| MapBranch {
                    stream,
                    predicate: None,
                })
                .collect(),
            tag_filter: None,
        }],
        streams: vec![
            StreamSpec {
                projection: (0..3).map(Expr::col).collect(),
            };
            2
        ],
        ops: vec![ROp {
            kind: OpKind::Join {
                kind: JoinKind::Inner,
                residual,
                left_width: 3,
                right_width: 3,
                columns: (0..6).collect(),
            },
            inputs: vec![RSource::Stream(0), RSource::Stream(1)],
            transforms,
        }],
        emit: EmitSpec::Single(RSource::Op(0)),
        output: "out/failing".into(),
        reduce_tasks: Some(2),
        map_only: false,
        short_circuit_streams: vec![],
        pad_bytes: 0,
        key_cardinality: None,
    };
    run_job(&mut cluster, &bp.to_jobspec().expect("valid blueprint")).map(|_| ())
}

fn string_plus_one(col: usize) -> Expr {
    Expr::binary(BinOp::Add, Expr::col(col), Expr::lit(1i64)).eq(Expr::lit(1i64))
}

#[test]
fn failing_residual_is_a_typed_user_error() {
    let err = failing_job(Some(string_plus_one(5)), vec![]).unwrap_err();
    assert!(
        matches!(&err, MapRedError::User(m) if m.contains("join residual failed")),
        "{err}"
    );
}

/// With a failing residual *and* a failing transform the materialising
/// reducer always named the residual (the join ran to completion first);
/// the fused head runs pair by pair, so whichever fails on the earliest
/// pair is named. Which one is not part of the contract — that the job
/// ends in `MapRedError::User` is.
#[test]
fn failing_transform_is_a_typed_user_error() {
    let err = failing_job(None, vec![RowOp::Filter(string_plus_one(2))]).unwrap_err();
    assert!(
        matches!(&err, MapRedError::User(m) if m.contains("transform failed")),
        "{err}"
    );
    // Past the fused head (after a Sort) the chain fails the same way.
    let late = vec![
        RowOp::Sort(vec![SortKey::asc(1)]),
        RowOp::Project(vec![string_plus_one(2)]),
    ];
    let err = failing_job(None, late).unwrap_err();
    assert!(
        matches!(&err, MapRedError::User(m) if m.contains("transform failed")),
        "{err}"
    );
    let both = failing_job(
        Some(string_plus_one(5)),
        vec![RowOp::Filter(string_plus_one(2))],
    );
    assert!(matches!(both, Err(MapRedError::User(_))));
}
