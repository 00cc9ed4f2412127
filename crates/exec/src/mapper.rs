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
//! The records visible to a branch are also counted, a batch's in bulk via
//! [`MapOutput::record_dispatches`], giving merged (CMF) jobs per-stream
//! fan-out visibility in `JobMetrics::map_dispatches`.
//!
//! The body exists once, over a column batch: `map_columns` turns each
//! branch's selection into a mask, the keys, the value and the pad into
//! columns — a plain column borrowed from the batch, anything else its
//! `colexpr` kernel — and one [`MapOutput::emit_columns`] writes them. A
//! selection fails on any row it fails on, a key or value only on a row
//! some branch keeps (`colexpr::Eval::check`); a batch holding such a row
//! emits nothing (the job fails either way). A frame is mapped as the batch
//! it decodes to. Text lines are decoded at the door: `map_lines` cuts them
//! into chunks of [`DEFAULT_FRAME_ROWS`], decodes each line of a chunk into
//! a row, and maps the chunk's rows as one batch.

use std::borrow::Cow;
use std::sync::Arc;

use ysmart_mapred::{untag_batch, untag_line, MapOutput, Mapper};
use ysmart_rel::codec::decode_line_projected;
use ysmart_rel::colbatch::{Column, ColumnBatch, DEFAULT_FRAME_ROWS};
use ysmart_rel::{Expr, RelError, Value};

use crate::blueprint::JobBlueprint;
use crate::colexpr::{eval_column, eval_mask, Mask};

/// The CMF mapper for one input of a job.
#[derive(Debug)]
pub struct CommonMapper {
    blueprint: Arc<JobBlueprint>,
    input_idx: usize,
    tagged: bool,
    /// Bits of streams not fed by this input — always forbidden.
    foreign_mask: u64,
    /// Per input column: whether any predicate, key expression or carried
    /// value reads it. Unneeded fields are skipped at decode time (left
    /// NULL) — a scan-side projection.
    needed_cols: Vec<bool>,
    /// The value after the tag, over the input's columns (tagged mode: its
    /// carried columns; direct and map-only modes: stream 0's projection,
    /// a merging job's as partial rows).
    values: Vec<Expr>,
    /// The Pig-style serialisation pad ending every value, if configured (a
    /// map-only job's value is the final row and is never padded).
    pad: Option<Value>,
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
        let mut needed_cols = vec![false; input.schema.len()];
        let mut mark = |c: usize| {
            if let Some(slot) = needed_cols.get_mut(c) {
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
        // The value reads the *carried* columns `value_cols` (when direct,
        // through stream 0's projection).
        for &c in &input.value_cols {
            mark(c);
        }
        let values = blueprint.map_values(input_idx);
        let pad = (blueprint.pad_bytes > 0 && !blueprint.map_only)
            .then(|| Value::Str("x".repeat(blueprint.pad_bytes)));
        CommonMapper {
            foreign_mask: all & !mine,
            blueprint,
            input_idx,
            tagged,
            needed_cols,
            values,
            pad,
        }
    }

    /// The common-mapper body (§VI-A) over a batch: each selection a mask,
    /// then every row's visibility, tag, work and dispatch counts in one
    /// pass over the masks, then the key, value and pad columns of the rows
    /// some branch keeps, written by one [`MapOutput::emit_columns`].
    /// Counts and pairs are recorded only once nothing can fail, so a
    /// failing batch leaves nothing behind. `Err` is a planner bug's
    /// message for [`MapOutput::record_fatal`].
    fn map_columns(&self, batch: &ColumnBatch, out: &mut MapOutput) -> Result<(), String> {
        let input = &self.blueprint.inputs[self.input_idx];
        let name = &self.blueprint.name;
        let failed =
            |what: &'static str| move |e: RelError| format!("{what} failed in {name}: {e}");
        let masks = input.branches.iter().map(|b| {
            let mask = b
                .predicate
                .as_ref()
                .map(|p| eval_mask(p, batch).check(None));
            mask.transpose().map_err(failed("predicate"))
        });
        let masks: Vec<Option<Mask>> = masks.collect::<Result<_, _>>()?;
        let n = batch.num_rows();
        let streams = input.branches.iter().map(|b| b.stream + 1).max();
        let mut dispatched = vec![0u64; streams.unwrap_or(0)];
        let mut rows = Vec::with_capacity(n);
        let mut tags = Vec::with_capacity(if self.tagged { n } else { 0 });
        for r in 0..n {
            let mut forbidden = self.foreign_mask;
            let mut any = false;
            for (b, mask) in input.branches.iter().zip(&masks) {
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
        let columns = |exprs: &[Expr], failed: &dyn Fn(RelError) -> String| {
            let col = |e| eval_column(e, batch).check(Some(&rows)).map_err(failed);
            exprs.iter().map(col).collect::<Result<Vec<_>, _>>()
        };
        let keys = columns(&input.key_exprs, &failed("key expr"))?;
        // A merging job's values are partial rows: a failure is its
        // aggregation's, worded as the reducer words it.
        let mut values = if self.blueprint.merging_agg().is_some() {
            columns(&self.values, &|e| {
                format!("aggregation failed: {e} (job {name})")
            })?
        } else {
            columns(&self.values, &failed("projection"))?
        };
        if let Some(pad) = &self.pad {
            values.push(Cow::Owned(Column::from_cells(n, |_| pad)));
        }
        out.add_work(n as u64 * (input.branches.len() as u64 - 1));
        // A row-by-row count never extends the counts for a stream it did
        // not dispatch to.
        for (stream, &count) in dispatched.iter().enumerate() {
            if count > 0 {
                out.record_dispatches(stream, count);
            }
        }
        let keys: Vec<&Column> = keys.iter().map(AsRef::as_ref).collect();
        let values: Vec<&Column> = values.iter().map(AsRef::as_ref).collect();
        let tags = self.tagged.then_some(&tags[..]);
        out.emit_columns(&rows, &keys, tags, &values);
        Ok(())
    }
}

impl Mapper for CommonMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        self.map_lines(&[line], out);
    }

    fn map_lines(&mut self, lines: &[&str], out: &mut MapOutput) {
        let input = &self.blueprint.inputs[self.input_idx];
        let mut rows = Vec::with_capacity(lines.len().min(DEFAULT_FRAME_ROWS));
        for chunk in lines.chunks(DEFAULT_FRAME_ROWS) {
            rows.clear();
            for line in chunk {
                // Tagged multi-output files mix records of several merged
                // ops; keep only this consumer's tag and decode the rest of
                // the line.
                let Some(payload) = untag_line(line, input.tag_filter) else {
                    continue;
                };
                match decode_line_projected(payload, &input.schema, &self.needed_cols) {
                    Ok(row) => rows.push(row),
                    // A record that won't decode is corrupt input, not a
                    // planner bug: count it and move on (the engine
                    // enforces the skip-budget and fails the job past it).
                    Err(_) => out.record_bad(),
                }
            }
            if rows.is_empty() {
                continue;
            }
            let name = &self.blueprint.name;
            let mapped = ColumnBatch::from_rows(&rows)
                .map_err(|e| format!("decoded lines form no batch in {name}: {e}"))
                .and_then(|batch| self.map_columns(&batch, out));
            if let Err(msg) = mapped {
                out.record_fatal(msg);
            }
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
        if let Err(msg) = self.map_columns(batch, out) {
            out.record_fatal(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::{EmitSpec, InputSpec, MapBranch, OpKind, ROp, RSource, StreamSpec};
    use ysmart_rel::{AggFunc, BinOp, DataType, Expr, Row, Schema};

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

    /// A merging job's mapper writes each row's partial row: the group
    /// column, `count(*)` a 1, `count(v)` and `avg(v)`'s presence flags;
    /// an argument failing on a row fails as the aggregation.
    #[test]
    fn merging_mode_emits_partial_rows() {
        let merging = |arg: Expr| {
            let branch = MapBranch {
                stream: 0,
                predicate: None,
            };
            let mut bp = (*blueprint(vec![branch], 1)).clone();
            bp.ops[0].kind = OpKind::Agg {
                group_cols: vec![0],
                aggs: vec![
                    (AggFunc::Count, None),
                    (AggFunc::Count, Some(arg.clone())),
                    (AggFunc::Avg, Some(arg)),
                ],
                having: None,
                merge_partials: true,
            };
            CommonMapper::new(Arc::new(bp), 0)
        };
        let mut m = merging(Expr::col(1));
        let mut out = MapOutput::default();
        m.map_lines(&["7|42", "7|"], &mut out);
        let (_, values) = out.into_columns();
        let null = ysmart_rel::Value::Null;
        assert_eq!(
            values,
            [
                ysmart_rel::row![7i64, 1i64, true, 42i64, true],
                ysmart_rel::row![7i64, 1i64, false, null, false],
            ]
        );
        let mut m = merging(Expr::binary(BinOp::Div, Expr::lit(1i64), Expr::col(1)));
        let mut out = MapOutput::default();
        m.map("7|0", &mut out);
        let fatal = out.take_fatal().expect("reported");
        assert!(fatal.starts_with("aggregation failed: "), "{fatal}");
        assert!(fatal.ends_with(" (job j)"), "{fatal}");
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
    fn text_and_batch_paths_charge_segments_alike() {
        // Text lines mapped one at a time reach the arenas as one-row
        // batches, a batch as one: every partition's segment is charged the
        // same text bytes and the same frame either way.
        let bp = blueprint(
            vec![
                MapBranch {
                    stream: 0,
                    predicate: Some(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(10i64))),
                },
                MapBranch {
                    stream: 1,
                    predicate: None,
                },
            ],
            2,
        );
        let rows: Vec<Row> = (0..24i64)
            .map(|k| {
                let v = if k % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(k * 7 % 30)
                };
                Row::new(vec![Value::Int(k % 9), v])
            })
            .collect();
        let mut text_out = MapOutput::partitioned(3);
        let mut m = CommonMapper::new(Arc::clone(&bp), 0);
        for r in &rows {
            m.map(&ysmart_rel::codec::encode_line(r), &mut text_out);
        }
        let mut col_out = MapOutput::partitioned(3);
        let mut m = CommonMapper::new(bp, 0);
        let batch = ysmart_rel::ColumnBatch::from_rows(&rows).unwrap();
        m.map_batch(&batch, &mut col_out);
        assert_eq!(text_out.len(), rows.len());
        for p in 0..3 {
            let size = text_out.segment_size(p);
            assert!(size.0 > 0 && size.1.is_some(), "partition {p}: {size:?}");
            assert_eq!(size, col_out.segment_size(p), "partition {p}");
        }
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
        // after the first key column evaluated, as the second projection
        // after the key and the first value column did. Either way the pair
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
