//! The common mapper (§VI-A).
//!
//! For each raw record, the mapper evaluates every branch's selection and
//! emits at most *one* key/value pair:
//!
//! * **direct mode** (single branch in the whole job): the value is the
//!   stream's projected row — no tag byte, enabling the map-side combiner;
//! * **tagged mode** (merged jobs): the value is `[tag, union columns…]`
//!   where the tag is the *inverted* visibility set — the streams that must
//!   NOT see this pair (the paper inverts the tag because merged jobs
//!   mostly overlap, keeping per-record bookkeeping near zero).
//!
//! Evaluation errors (a failing predicate, key or projection expression)
//! are planner bugs, not data problems: they abort the job via
//! [`MapOutput::record_fatal`], which the engine surfaces as a typed
//! `MapRedError::User` failure of the whole job — no panic unwinds through
//! the executor. *Decode* errors are a data problem — torn or corrupted
//! records — so they are counted via [`MapOutput::record_bad`] and the
//! record is skipped, mirroring Hadoop's skipping mode; the engine enforces
//! the `ClusterConfig::skip_bad_records` budget.
//!
//! Each record visible to a branch is also counted via
//! [`MapOutput::record_dispatch`] (a batch on the column path counts in bulk,
//! [`MapOutput::record_dispatches`]), giving merged (CMF) jobs per-stream
//! fan-out visibility in `JobMetrics::map_dispatches`.
//!
//! The body exists at two granularities that emit identical pairs:
//! `map_record`, one record at a time, serves text lines and any batch whose
//! mapper has a computed key or projection, a predicate without a mask
//! kernel, or a pad; every other batch is mapped whole by `map_columns`
//! ([`CommonMapper::column_path`]).

use std::sync::Arc;

use ysmart_mapred::{untag_batch, untag_line, MapOutput, Mapper, ValueWriter};
use ysmart_rel::codec::{decode_line, decode_line_projected};
use ysmart_rel::colbatch::ColumnBatch;
use ysmart_rel::{Expr, RelError, Row, Value};

use crate::blueprint::JobBlueprint;
use crate::colexpr::{eval_mask, Mask};

/// The CMF mapper for one input of a job.
#[derive(Debug)]
pub struct CommonMapper {
    blueprint: Arc<JobBlueprint>,
    input_idx: usize,
    tagged: bool,
    /// Bits of streams not fed by this input — always forbidden.
    foreign_mask: u64,
    /// Key expressions as column indices when all are plain references —
    /// evaluated by direct indexing instead of walking expression trees.
    plain_keys: Option<Vec<usize>>,
    /// Per input column: whether any predicate, key expression or carried
    /// value reads it. `None` when every column is needed. Unneeded fields
    /// are skipped at decode time (left NULL) — a scan-side projection.
    needed_cols: Option<Vec<bool>>,
    /// Raw-row column indices of the emitted value when it is a plain,
    /// duplicate-free column list (tagged mode: `value_cols`; direct and
    /// map-only modes: stream 0's projection composed through
    /// `value_cols`). The record is dead once the value is built, so a
    /// decoded row's columns are *moved* out of it instead of cloned —
    /// `None` falls back to the expression-evaluating path.
    value_move: Option<Vec<usize>>,
    /// Whether batches take the column path ([`CommonMapper::column_path`]).
    column_path: bool,
}

fn plain_cols(exprs: &[Expr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Column(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// `cols` usable as a move source: each raw column taken at most once.
fn duplicate_free(cols: &[usize]) -> bool {
    let mut sorted = cols.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// One input record as the mapper body reads it — the only part of the
/// common mapper that knows whether records arrive as decoded text lines or
/// as rows of a column batch. Statically dispatched: the body is compiled
/// once per format, with no per-record indirection.
trait Record {
    /// Whether branch `branch`'s selection `predicate` keeps this record.
    fn selected(&mut self, branch: usize, predicate: &Expr) -> Result<bool, RelError>;
    /// Raw column `c`, owned.
    fn col(&self, c: usize) -> Result<Value, RelError>;
    /// The whole record as a row, for expression evaluation.
    fn row(&mut self) -> &Row;
    /// Appends the raw columns `cols` (duplicate-free) to the pair being
    /// written, consuming the record.
    fn take_cols(self, cols: &[usize], out: &mut ValueWriter<'_>);
}

/// A decoded text line: the row is owned, so its columns move out.
struct LineRecord(Row);

impl Record for LineRecord {
    fn selected(&mut self, _branch: usize, predicate: &Expr) -> Result<bool, RelError> {
        predicate.eval_predicate(&self.0)
    }

    fn col(&self, c: usize) -> Result<Value, RelError> {
        self.0.get(c).cloned()
    }

    fn row(&mut self) -> &Row {
        &self.0
    }

    fn take_cols(self, cols: &[usize], out: &mut ValueWriter<'_>) {
        let mut raw = self.0.into_values();
        out.extend(
            cols.iter()
                .map(|&c| std::mem::replace(&mut raw[c], Value::Null)),
        );
    }
}

/// Row `r` of a column batch: selections read the batch-at-a-time masks,
/// values come straight off the column vectors, and a `Row` materializes
/// (once) only when an expression has no kernel.
struct BatchRecord<'a> {
    batch: &'a ColumnBatch,
    /// Per branch: its selection resolved for the whole batch, where a
    /// vectorized kernel exists.
    masks: &'a [Option<Mask>],
    r: usize,
    row: Option<Row>,
}

impl Record for BatchRecord<'_> {
    fn selected(&mut self, branch: usize, predicate: &Expr) -> Result<bool, RelError> {
        match &self.masks[branch] {
            Some(mask) => Ok(mask[self.r] == Some(true)),
            None => predicate.eval_predicate(self.row()),
        }
    }

    fn col(&self, c: usize) -> Result<Value, RelError> {
        let cols = self.batch.columns();
        let col = cols.get(c).ok_or(RelError::ColumnOutOfBounds {
            index: c,
            width: cols.len(),
        })?;
        Ok(col.value(self.r))
    }

    fn row(&mut self) -> &Row {
        self.row.get_or_insert_with(|| self.batch.row(self.r))
    }

    fn take_cols(self, cols: &[usize], out: &mut ValueWriter<'_>) {
        let raw = self.batch.columns();
        out.extend(cols.iter().map(|&c| raw[c].value(self.r)));
    }
}

impl CommonMapper {
    /// Creates the mapper for `input_idx` of `blueprint`.
    #[must_use]
    pub fn new(blueprint: Arc<JobBlueprint>, input_idx: usize) -> Self {
        let tagged = blueprint.tagged();
        let input = &blueprint.inputs[input_idx];
        let mine: u64 = input.branches.iter().fold(0, |m, b| m | (1 << b.stream));
        let all: u64 = if blueprint.streams.len() >= 64 {
            u64::MAX
        } else {
            (1 << blueprint.streams.len()) - 1
        };
        let plain_keys = plain_cols(&input.key_exprs);
        let mut needed = vec![false; input.schema.len()];
        let mut mark = |c: usize| {
            if let Some(slot) = needed.get_mut(c) {
                *slot = true;
            }
        };
        for b in &input.branches {
            if let Some(p) = &b.predicate {
                p.for_each_column(&mut mark);
            }
        }
        for e in &input.key_exprs {
            e.for_each_column(&mut mark);
        }
        // Stream projections and the pad read the *carried* row, whose
        // columns are exactly `value_cols` of the raw row.
        for &c in &input.value_cols {
            mark(c);
        }
        let needed_cols = if needed.iter().all(|&n| n) {
            None
        } else {
            Some(needed)
        };
        let value_move = if tagged {
            duplicate_free(&input.value_cols).then(|| input.value_cols.clone())
        } else {
            // Stream 0's projection runs map-side: compose it through
            // `value_cols` back to raw column indices.
            plain_cols(&blueprint.streams[0].projection)
                .and_then(|p| {
                    p.iter()
                        .map(|&i| input.value_cols.get(i).copied())
                        .collect::<Option<Vec<usize>>>()
                })
                .filter(|raw| duplicate_free(raw))
        };
        // A predicate has a mask kernel over every batch of the input's width
        // exactly when it has one over an empty batch of that width.
        let width = input.schema.len();
        let probe = ColumnBatch::from_cells(0, width, |_, _| unreachable!("no rows"))
            .expect("an empty batch encodes");
        let masked = |p: &Expr| eval_mask(p, &probe).is_some();
        let in_bounds = |cols: &[usize]| cols.iter().all(|&c| c < width);
        let column_path = plain_keys.as_deref().is_some_and(in_bounds)
            && value_move.as_deref().is_some_and(in_bounds)
            && (blueprint.pad_bytes == 0 || blueprint.map_only)
            && input
                .branches
                .iter()
                .all(|b| b.predicate.as_ref().is_none_or(masked));
        CommonMapper {
            foreign_mask: all & !mine,
            blueprint,
            input_idx,
            tagged,
            plain_keys,
            needed_cols,
            value_move,
            column_path,
        }
    }

    /// Whether this mapper's batches take the column path: its keys and
    /// emitted value are plain columns of the input, every branch's
    /// selection has a mask kernel, and it adds no pad. Such a batch is
    /// mapped whole — visibility, tags, work and dispatch counts in one pass
    /// over the masks, then one [`MapOutput::emit_columns`] — instead of row
    /// by row through `map_record`; the pairs are the same.
    #[must_use]
    pub fn column_path(&self) -> bool {
        self.column_path
    }

    /// The common-mapper body (§VI-A), once for both formats: evaluate every
    /// branch's selection, then emit at most one pair. `Err` is a planner
    /// bug's message for [`MapOutput::record_fatal`].
    fn map_record<R: Record>(&self, mut rec: R, out: &mut MapOutput) -> Result<(), String> {
        let input = &self.blueprint.inputs[self.input_idx];
        let name = &self.blueprint.name;
        // Charge one work unit per branch beyond the first (the shared-scan
        // overhead).
        out.add_work(input.branches.len() as u64 - 1);
        let mut forbidden = self.foreign_mask;
        let mut any = false;
        for (i, b) in input.branches.iter().enumerate() {
            let visible = match &b.predicate {
                None => true,
                Some(p) => rec
                    .selected(i, p)
                    .map_err(|e| format!("predicate failed in {name}: {e}"))?,
            };
            if visible {
                any = true;
                out.record_dispatch(b.stream);
            } else {
                forbidden |= 1 << b.stream;
            }
        }
        if !any {
            return Ok(());
        }
        // The pair's cells go straight into the output's arena — no `Vec`
        // per key or value; on `Err` the writer drops and rolls them back.
        let mut pair = out.begin();
        for (i, e) in input.key_exprs.iter().enumerate() {
            let v = match &self.plain_keys {
                Some(cols) => rec.col(cols[i]),
                None => e.eval(rec.row()),
            };
            pair.push(v.map_err(|e| format!("key expr failed in {name}: {e}"))?);
        }

        // Tagged mode carries `[tag, union columns…]`; direct and map-only
        // modes apply stream 0's projection map-side.
        let mut pair = pair.value();
        if self.tagged {
            pair.push(Value::Int(forbidden as i64));
        }
        match &self.value_move {
            Some(cols) => rec.take_cols(cols, &mut pair),
            None => {
                let carried = rec.row().project(&input.value_cols);
                if self.tagged {
                    pair.extend(carried.into_values());
                } else {
                    for e in &self.blueprint.streams[0].projection {
                        let v = e.eval(&carried);
                        pair.push(v.map_err(|e| format!("projection failed in {name}: {e}"))?);
                    }
                }
            }
        }
        // The Pig-style serialisation pad, if configured (a map-only job's
        // value is the final row and is never padded).
        if self.blueprint.pad_bytes > 0 && !self.blueprint.map_only {
            pair.push(Value::Str("x".repeat(self.blueprint.pad_bytes)));
        }
        pair.finish();
        Ok(())
    }

    /// The same body a batch at a time, for mappers on the column path:
    /// every row's visibility, tag, work and dispatch counts in one pass over
    /// the branch masks, then one [`MapOutput::emit_columns`] writing the
    /// key columns `keys` and the value columns `values` of the rows any
    /// branch keeps. Nothing here can fail: plain columns are in bounds and
    /// mask kernels are total.
    fn map_columns(
        &self,
        batch: &ColumnBatch,
        masks: &[Option<Mask>],
        keys: &[usize],
        values: &[usize],
        out: &mut MapOutput,
    ) {
        let input = &self.blueprint.inputs[self.input_idx];
        let n = batch.num_rows();
        out.add_work(n as u64 * (input.branches.len() as u64 - 1));
        let streams = input.branches.iter().map(|b| b.stream + 1).max();
        let mut dispatched = vec![0u64; streams.unwrap_or(0)];
        let mut rows = Vec::with_capacity(n);
        let mut tags = Vec::with_capacity(if self.tagged { n } else { 0 });
        for r in 0..n {
            let mut forbidden = self.foreign_mask;
            let mut any = false;
            for (b, mask) in input.branches.iter().zip(masks) {
                if mask.as_ref().is_none_or(|m| m[r] == Some(true)) {
                    any = true;
                    dispatched[b.stream] += 1;
                } else {
                    forbidden |= 1 << b.stream;
                }
            }
            if any {
                rows.push(r);
                if self.tagged {
                    tags.push(forbidden as i64);
                }
            }
        }
        // A row-by-row count never extends the counts for a stream it did
        // not dispatch to.
        for (stream, &count) in dispatched.iter().enumerate() {
            if count > 0 {
                out.record_dispatches(stream, count);
            }
        }
        let cols = |idx: &[usize]| idx.iter().map(|&c| &batch.columns()[c]).collect::<Vec<_>>();
        let tags = self.tagged.then_some(&tags[..]);
        out.emit_columns(&rows, &cols(keys), tags, &cols(values));
    }
}

impl Mapper for CommonMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        let input = &self.blueprint.inputs[self.input_idx];
        // Tagged multi-output files mix records of several merged ops; keep
        // only this consumer's tag and decode the rest of the line.
        let Some(payload) = untag_line(line, input.tag_filter) else {
            return;
        };
        let row = match &self.needed_cols {
            Some(needed) => decode_line_projected(payload, &input.schema, needed),
            None => decode_line(payload, &input.schema),
        };
        match row {
            Ok(row) => {
                if let Err(msg) = self.map_record(LineRecord(row), out) {
                    out.record_fatal(msg);
                }
            }
            // A record that won't decode is corrupt input, not a planner
            // bug: count it and move on (the engine enforces the
            // skip-budget and fails the job past it).
            Err(_) => out.record_bad(),
        }
    }

    fn map_batch(&mut self, batch: &ColumnBatch, out: &mut MapOutput) {
        let input = &self.blueprint.inputs[self.input_idx];
        let owned;
        let batch = match input.tag_filter {
            None => batch,
            Some(want) => {
                owned = untag_batch(batch, want);
                &owned
            }
        };
        let rows = batch.num_rows();
        if rows == 0 {
            return;
        }
        // The text path surfaces a wrong-width record as a decode error;
        // a wrong-width batch is the same data problem, counted per row.
        if batch.num_cols() != input.schema.len() {
            for _ in 0..rows {
                out.record_bad();
            }
            return;
        }
        let masks: Vec<Option<Mask>> = input
            .branches
            .iter()
            .map(|b| b.predicate.as_ref().and_then(|p| eval_mask(p, batch)))
            .collect();
        // `column_path` was probed for masks of this width; a branch without
        // one must never read as "visible" on the column path.
        let mut masked = masks.iter().zip(&input.branches);
        let column_path =
            self.column_path && masked.all(|(m, b)| m.is_some() || b.predicate.is_none());
        if let (true, Some(keys), Some(values)) = (column_path, &self.plain_keys, &self.value_move)
        {
            self.map_columns(batch, &masks, keys, values, out);
            return;
        }
        for r in 0..rows {
            let rec = BatchRecord {
                batch,
                masks: &masks,
                r,
                row: None,
            };
            if let Err(msg) = self.map_record(rec, out) {
                out.record_fatal(msg);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::{EmitSpec, InputSpec, MapBranch, OpKind, ROp, RSource, StreamSpec};
    use ysmart_rel::{BinOp, DataType, Expr, Schema};

    fn schema() -> Schema {
        Schema::of("t", &[("k", DataType::Int), ("v", DataType::Int)])
    }

    fn blueprint(branches: Vec<MapBranch>, nstreams: usize) -> Arc<JobBlueprint> {
        Arc::new(JobBlueprint {
            name: "j".into(),
            inputs: vec![InputSpec {
                path: "data/t".into(),
                schema: schema(),
                key_exprs: vec![Expr::col(0)],
                value_cols: vec![0, 1],
                branches,
                tag_filter: None,
            }],
            streams: (0..nstreams)
                .map(|_| StreamSpec {
                    projection: vec![Expr::col(0), Expr::col(1)],
                })
                .collect(),
            ops: vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            emit: EmitSpec::Single(RSource::Op(0)),
            output: "out".into(),
            reduce_tasks: Some(1),
            combiner: None,
            map_only: false,
            short_circuit_streams: vec![],
            pad_bytes: 0,
            key_cardinality: None,
        })
    }

    #[test]
    fn direct_mode_emits_projected_row() {
        let bp = blueprint(
            vec![MapBranch {
                stream: 0,
                predicate: None,
            }],
            1,
        );
        let mut m = CommonMapper::new(bp, 0);
        let mut out = MapOutput::default();
        m.map("7|42", &mut out);
        assert_eq!(out.len(), 1);
        let (keys, values) = out.into_columns();
        assert_eq!(keys[0], ysmart_rel::row![7i64]);
        assert_eq!(values[0], ysmart_rel::row![7i64, 42i64]);
    }

    #[test]
    fn selection_drops_record() {
        let bp = blueprint(
            vec![MapBranch {
                stream: 0,
                predicate: Some(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(100i64))),
            }],
            1,
        );
        let mut m = CommonMapper::new(bp, 0);
        let mut out = MapOutput::default();
        m.map("7|42", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tagged_mode_inverted_visibility() {
        // Branch 0 selects v > 10, branch 1 selects v < 100: a record with
        // v=42 is visible to both (tag 0); v=5 only to stream 1 (tag bit 0).
        let bp = blueprint(
            vec![
                MapBranch {
                    stream: 0,
                    predicate: Some(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(10i64))),
                },
                MapBranch {
                    stream: 1,
                    predicate: Some(Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(100i64))),
                },
            ],
            2,
        );
        let mut m = CommonMapper::new(Arc::clone(&bp), 0);
        let mut out = MapOutput::default();
        m.map("1|42", &mut out);
        m.map("1|5", &mut out);
        m.map("1|1000", &mut out); // only stream 0
                                   // The shared scan emitted one pair per record, not one per branch.
        assert_eq!(out.len(), 3);
        assert_eq!(out.work(), 3, "one extra branch evaluation per record");
        let tags: Vec<i64> = out
            .into_columns()
            .1
            .iter()
            .map(|v| v.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(tags, vec![0b00, 0b01, 0b10]);
    }

    #[test]
    fn foreign_streams_always_forbidden() {
        // Two inputs: input 0 feeds stream 0, input 1 feeds stream 1. Pairs
        // from input 0 must carry stream 1's bit in the forbidden mask.
        let bp = Arc::new(JobBlueprint {
            name: "j".into(),
            inputs: vec![
                InputSpec {
                    path: "data/a".into(),
                    schema: schema(),
                    key_exprs: vec![Expr::col(0)],
                    value_cols: vec![0, 1],
                    branches: vec![MapBranch {
                        stream: 0,
                        predicate: None,
                    }],
                    tag_filter: None,
                },
                InputSpec {
                    path: "data/b".into(),
                    schema: schema(),
                    key_exprs: vec![Expr::col(0)],
                    value_cols: vec![0],
                    branches: vec![MapBranch {
                        stream: 1,
                        predicate: None,
                    }],
                    tag_filter: None,
                },
            ],
            streams: vec![
                StreamSpec {
                    projection: vec![Expr::col(0), Expr::col(1)],
                },
                StreamSpec {
                    projection: vec![Expr::col(0)],
                },
            ],
            ops: vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            emit: EmitSpec::Single(RSource::Op(0)),
            output: "out".into(),
            reduce_tasks: Some(1),
            combiner: None,
            map_only: false,
            short_circuit_streams: vec![],
            pad_bytes: 0,
            key_cardinality: None,
        });
        let mut m0 = CommonMapper::new(Arc::clone(&bp), 0);
        let mut out = MapOutput::default();
        m0.map("1|2", &mut out);
        let tag = out.into_columns().1[0].get(0).unwrap().as_int().unwrap();
        assert_eq!(tag, 0b10, "stream 1 must not see input 0's pairs");
    }

    #[test]
    fn map_batch_matches_row_path() {
        // The same records through the text path and the columnar path
        // must emit identical keys, values, dispatch counts and work.
        let bp = blueprint(
            vec![
                MapBranch {
                    stream: 0,
                    predicate: Some(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(10i64))),
                },
                MapBranch {
                    stream: 1,
                    predicate: Some(Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(100i64))),
                },
            ],
            2,
        );
        let rows = vec![
            ysmart_rel::row![1i64, 42i64],
            ysmart_rel::row![2i64, 5i64],
            ysmart_rel::row![3i64, 1000i64],
            ysmart_rel::row![4i64, 10i64],
        ];
        let mut text_out = MapOutput::default();
        let mut m = CommonMapper::new(Arc::clone(&bp), 0);
        for r in &rows {
            m.map(&ysmart_rel::codec::encode_line(r), &mut text_out);
        }
        let mut col_out = MapOutput::default();
        let mut m = CommonMapper::new(bp, 0);
        let batch = ysmart_rel::ColumnBatch::from_rows(&rows).unwrap();
        m.map_batch(&batch, &mut col_out);
        assert_eq!(text_out.work(), col_out.work());
        assert_eq!(text_out.take_dispatches(), col_out.take_dispatches());
        let (text_keys, text_values) = text_out.into_columns();
        let (col_keys, col_values) = col_out.into_columns();
        assert_eq!(text_keys, col_keys);
        assert_eq!(text_values, col_values);
    }

    #[test]
    fn map_batch_tag_filter_keeps_only_matching_rows() {
        // An intermediate tagged file: leading Int tag column; the mapper
        // for tag 1 must only see rows tagged 1 (with the tag stripped).
        let bp = Arc::new(JobBlueprint {
            inputs: vec![InputSpec {
                tag_filter: Some(1),
                ..bp_input()
            }],
            ..(*blueprint(
                vec![MapBranch {
                    stream: 0,
                    predicate: None,
                }],
                1,
            ))
            .clone()
        });
        let mut m = CommonMapper::new(bp, 0);
        let rows = vec![
            ysmart_rel::row![0i64, 7i64, 1i64],
            ysmart_rel::row![1i64, 8i64, 2i64],
            ysmart_rel::row![1i64, 9i64, 3i64],
        ];
        let batch = ysmart_rel::ColumnBatch::from_rows(&rows).unwrap();
        let mut out = MapOutput::default();
        m.map_batch(&batch, &mut out);
        assert_eq!(out.len(), 2, "tag-0 row dropped");
        let (keys, values) = out.into_columns();
        assert_eq!(keys[0], ysmart_rel::row![8i64]);
        assert_eq!(values[1], ysmart_rel::row![9i64, 3i64]);
    }

    fn bp_input() -> InputSpec {
        InputSpec {
            path: "data/t".into(),
            schema: schema(),
            key_exprs: vec![Expr::col(0)],
            value_cols: vec![0, 1],
            branches: vec![MapBranch {
                stream: 0,
                predicate: None,
            }],
            tag_filter: None,
        }
    }

    #[test]
    fn bad_records_are_counted_and_skipped_on_both_sides() {
        // A record that won't decode — unparsable, torn (the engine's
        // injected extra field), too narrow, empty — is a data problem on
        // either side of the format edge and behind a tag filter alike:
        // counted, never fatal, never a panic; good records still map.
        for tag_filter in [None, Some(1)] {
            let direct = blueprint(
                vec![MapBranch {
                    stream: 0,
                    predicate: None,
                }],
                1,
            );
            let bp = Arc::new(JobBlueprint {
                inputs: vec![InputSpec {
                    tag_filter,
                    ..bp_input()
                }],
                ..(*direct).clone()
            });
            let prefix = if tag_filter.is_some() { "1|" } else { "" };
            let mut m = CommonMapper::new(Arc::clone(&bp), 0);
            let mut out = MapOutput::default();
            for bad in ["not-a-number|x", "7|42|\u{1}", "7", ""] {
                m.map(&format!("{prefix}{bad}"), &mut out);
            }
            m.map(&format!("{prefix}7|42"), &mut out);
            assert_eq!(out.bad_records(), 4, "text, tag {tag_filter:?}");
            assert_eq!(out.len(), 1, "good record still processed");
            assert_eq!(out.take_fatal(), None);

            let batch = |rows: &[&[i64]]| {
                let rows: Vec<Row> = rows
                    .iter()
                    .map(|r| {
                        let tag = tag_filter.map(Value::Int);
                        Row::new(
                            tag.into_iter()
                                .chain(r.iter().map(|&v| Value::Int(v)))
                                .collect(),
                        )
                    })
                    .collect();
                ysmart_rel::ColumnBatch::from_rows(&rows).unwrap()
            };
            let mut m = CommonMapper::new(bp, 0);
            let mut out = MapOutput::default();
            m.map_batch(&batch(&[&[7, 42, 1], &[8, 43, 1]]), &mut out);
            m.map_batch(&batch(&[&[7]]), &mut out);
            m.map_batch(&batch(&[]), &mut out);
            m.map_batch(&batch(&[&[7, 42]]), &mut out);
            assert_eq!(out.bad_records(), 3, "columnar, tag {tag_filter:?}");
            assert_eq!(out.take_fatal(), None);
            assert_eq!(out.into_columns().0, [ysmart_rel::row![7i64]]);
        }
    }

    #[test]
    fn failing_expression_rolls_the_pair_back() {
        // `k / v` fails on `v = 0`: as the second key expression it fails
        // with a key cell already staged, as the second projection with the
        // key and a value cell already in the arena. Either way the pair
        // leaves nothing behind — the pairs around it read back intact —
        // and the first error is the one reported.
        let div = || Expr::binary(BinOp::Div, Expr::col(0), Expr::col(1));
        let direct = blueprint(
            vec![MapBranch {
                stream: 0,
                predicate: None,
            }],
            1,
        );
        let failing_key = JobBlueprint {
            inputs: vec![InputSpec {
                key_exprs: vec![Expr::col(0), div()],
                ..bp_input()
            }],
            ..(*direct).clone()
        };
        let failing_projection = JobBlueprint {
            streams: vec![StreamSpec {
                projection: vec![Expr::col(1), div()],
            }],
            ..(*direct).clone()
        };
        use ysmart_rel::row;
        let cases = [
            (
                failing_key,
                "key expr",
                [row![8i64, 4i64], row![6i64, 2i64]],
                [row![8i64, 2i64], row![6i64, 3i64]],
            ),
            (
                failing_projection,
                "projection",
                [row![8i64], row![6i64]],
                [row![2i64, 4i64], row![3i64, 2i64]],
            ),
        ];
        for (bp, what, keys, values) in cases {
            let mut m = CommonMapper::new(Arc::new(bp), 0);
            let mut out = MapOutput::default();
            m.map("8|2", &mut out);
            m.map("7|0", &mut out);
            assert_eq!(out.len(), 1, "{what}");
            m.map("9|0", &mut out);
            m.map("6|3", &mut out);
            let fatal = out.take_fatal().expect("reported");
            assert!(fatal.starts_with(&format!("{what} failed in j")), "{fatal}");
            assert_eq!(out.into_columns(), (keys.to_vec(), values.to_vec()));
        }
    }
}
