//! Physical job blueprints.
//!
//! A [`JobBlueprint`] is a pure-data description of one (possibly merged)
//! MapReduce job, the output of YSmart's job generation. It lists:
//!
//! * **inputs** — files to scan, each with the shared partition-key
//!   expressions and one or more *branches* (a branch is one merged job's
//!   view of this input: its selection predicate feeding one stream);
//! * **streams** — the logical inputs of the reduce-side operators, each
//!   with a projection from the carried value columns to the operator's
//!   input row;
//! * **ops** — the per-key operator DAG of the common reducer: the merged
//!   reducers (consuming streams) and the post-job computations (consuming
//!   other ops' outputs), in evaluation order;
//! * an **emit** source whose rows become the job output.
//!
//! Blueprints convert to executable [`ysmart_mapred::JobSpec`]s via
//! [`JobBlueprint::to_jobspec`].

use std::sync::Arc;

use ysmart_mapred::JobSpec;
use ysmart_plan::JoinKind;
use ysmart_rel::{AggFunc, Expr, Schema};

use crate::combiner::AggCombiner;
use crate::error::ExecError;
use crate::mapper::CommonMapper;
use crate::reducer::CommonReducer;
use crate::rowop::RowOp;

/// One merged job's view of an input: its selection, feeding one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MapBranch {
    /// The stream this branch feeds.
    pub stream: usize,
    /// Selection over the input schema; `None` accepts every record.
    pub predicate: Option<Expr>,
}

/// One input file of the job.
#[derive(Debug, Clone, PartialEq)]
pub struct InputSpec {
    /// HDFS path.
    pub path: String,
    /// Schema for decoding the file's lines.
    pub schema: Schema,
    /// Partition-key expressions over the schema — shared by all branches
    /// of this input (transit correlation guarantees this).
    pub key_exprs: Vec<Expr>,
    /// The input columns carried in the map-output value: the union of the
    /// columns any branch's stream needs (§VI-A).
    pub value_cols: Vec<usize>,
    /// Branches reading this input.
    pub branches: Vec<MapBranch>,
    /// When reading the *tagged multi-output* file of an earlier merged job
    /// (a job whose reducers wrote several merged operations' results into
    /// one file, each line prefixed with a source tag — §VI-B), only lines
    /// with this tag are decoded; the rest are skipped.
    pub tag_filter: Option<i64>,
}

/// Reduce-side view of one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Projection from the carried value columns (the input's `value_cols`,
    /// in order) to the operator-input row for this stream.
    pub projection: Vec<Expr>,
}

/// Where an operator reads its per-key input rows from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RSource {
    /// A map-output stream.
    Stream(usize),
    /// The output of an earlier operator in the same job (a post-job
    /// computation consuming merged-reducer results, §VI-B).
    Op(usize),
}

/// What a job writes to its output file.
#[derive(Debug, Clone, PartialEq)]
pub enum EmitSpec {
    /// The rows of one source.
    Single(RSource),
    /// Several sources' rows into one file, each line prefixed with its
    /// source index — how a Rule-1-merged job without job-flow correlation
    /// publishes the outputs of all its merged operations ("an additional
    /// tag is used for each output key/value pair to distinguish its
    /// source", §VI-B).
    Tagged(Vec<RSource>),
}

/// The relational work an operator performs per key.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Equi-join of two sources. Because the partition key *is* the full
    /// equi-key set, every left row matches every right row within a key;
    /// only the residual predicate discriminates further.
    Join {
        /// Inner/left/right/full.
        kind: JoinKind,
        /// Non-equi residual over the concatenated row.
        residual: Option<Expr>,
        /// Width of left-source rows (for outer-join null padding).
        left_width: usize,
        /// Width of right-source rows.
        right_width: usize,
    },
    /// Grouping aggregation within the key (the group may extend the
    /// partition key — e.g. Q-CSA's AGG1 groups by `(uid, ts1)` but
    /// partitions by `uid` alone).
    Agg {
        /// Grouping columns within the source row.
        group_cols: Vec<usize>,
        /// Aggregate calls `(function, argument)`.
        aggs: Vec<(AggFunc, Option<Expr>)>,
        /// `HAVING` over the output row (groups then aggregates).
        having: Option<Expr>,
        /// Whether the job combines map-side: the op then reads combiner
        /// partials — `[group…, partial fields…]`, the group columns first
        /// whatever `group_cols` are over the raw rows — and merges them.
        /// It may be set only on the one op of an untagged, unpadded job,
        /// with combinable aggregates; the job's combiner is built from
        /// `group_cols` and `aggs` (Hive's "internal hash-aggregate map",
        /// paper footnote 2).
        merge_partials: bool,
    },
    /// Pass rows through unchanged (sort/limit jobs, repartition).
    Pass,
}

/// One operator of the per-key DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct ROp {
    /// What it computes.
    pub kind: OpKind,
    /// Its sources (1 for `Agg`/`Pass`, 2 for `Join`).
    pub inputs: Vec<RSource>,
    /// Transforms applied to its output rows.
    pub transforms: Vec<RowOp>,
}

/// A full physical job description.
#[derive(Debug, Clone, PartialEq)]
pub struct JobBlueprint {
    /// Job name (metrics, figures).
    pub name: String,
    /// Input files with their branches.
    pub inputs: Vec<InputSpec>,
    /// Reduce-side streams (indexed by `MapBranch::stream`).
    pub streams: Vec<StreamSpec>,
    /// The per-key operator DAG, in evaluation order.
    pub ops: Vec<ROp>,
    /// Which source's rows the job outputs.
    pub emit: EmitSpec,
    /// Output path.
    pub output: String,
    /// Reduce-task count (`None` = cluster default; sorts and global
    /// aggregations use 1).
    pub reduce_tasks: Option<usize>,
    /// Map-only job (SELECTION-PROJECTION): the mapper applies stream 0's
    /// projection and the engine writes the rows directly.
    pub map_only: bool,
    /// Hand-coded-style short-circuit: if any of these streams is empty for
    /// a key, the whole key is skipped without evaluating any operator
    /// (§VII-C case 4).
    pub short_circuit_streams: Vec<usize>,
    /// Filler bytes appended to every map-output value — models Pig's
    /// bulkier intermediate serialisation (the paper's Pig runs produced
    /// "much larger intermediate results"). The reducer strips the pad.
    pub pad_bytes: usize,
    /// Estimated distinct shuffle keys (from table statistics), forwarded
    /// to the engine as a reduce-task cap.
    pub key_cardinality: Option<u64>,
}

impl JobBlueprint {
    /// Whether map-output values carry a visibility tag. Single-branch jobs
    /// skip the tag (and may then use a combiner).
    #[must_use]
    pub fn tagged(&self) -> bool {
        self.inputs.iter().map(|i| i.branches.len()).sum::<usize>() > 1
    }

    /// What input `input`'s common mapper emits as the value after the tag,
    /// as expressions over the input's columns: in tagged mode the carried
    /// columns `value_cols`; in direct and map-only modes stream 0's
    /// projection, which runs map-side, composed through `value_cols` (a
    /// column past them stays out of range, and fails as over the carried
    /// row).
    pub(crate) fn map_values(&self, input: usize) -> Vec<Expr> {
        let carried = &self.inputs[input].value_cols;
        if self.tagged() {
            return carried.iter().map(|&c| Expr::Column(c)).collect();
        }
        let raw = |c: usize| carried.get(c).copied().unwrap_or(usize::MAX);
        let projection = &self.streams[0].projection;
        projection.iter().map(|e| e.remap_columns(&raw)).collect()
    }

    /// The job's map-side combiner: the one op's own aggregation, when that
    /// op merges partials (`validate` holds it to the only op).
    #[must_use]
    pub fn combiner(&self) -> Option<AggCombiner> {
        match &self.ops[..] {
            [ROp {
                kind:
                    OpKind::Agg {
                        group_cols,
                        aggs,
                        merge_partials: true,
                        ..
                    },
                ..
            }] => Some(AggCombiner::new(&self.name, group_cols, aggs)),
            _ => None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidBlueprint`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ExecError> {
        let bad = |msg: String| Err(ExecError::InvalidBlueprint(msg));
        if self.inputs.is_empty() {
            return bad("no inputs".into());
        }
        let nstreams = self.streams.len();
        let mut fed = vec![false; nstreams];
        for (i, input) in self.inputs.iter().enumerate() {
            if input.branches.is_empty() {
                return bad(format!("input {i} has no branches"));
            }
            let width = input.schema.len();
            if let Some(c) = input.value_cols.iter().find(|&&c| c >= width) {
                return bad(format!("input {i} carries column {c} of {width}"));
            }
            for b in &input.branches {
                if b.stream >= nstreams {
                    return bad(format!("branch stream {} out of range", b.stream));
                }
                if fed[b.stream] {
                    return bad(format!("stream {} fed by two branches", b.stream));
                }
                fed[b.stream] = true;
            }
        }
        if let Some(unfed) = fed.iter().position(|f| !f) {
            return bad(format!("stream {unfed} not fed by any branch"));
        }
        if nstreams > 64 {
            return bad("more than 64 streams (tag is a 64-bit mask)".into());
        }
        for (i, op) in self.ops.iter().enumerate() {
            let arity = match op.kind {
                OpKind::Join { .. } => 2,
                OpKind::Agg { .. } | OpKind::Pass => 1,
            };
            if op.inputs.len() != arity {
                return bad(format!(
                    "op {i} expects {arity} inputs, has {}",
                    op.inputs.len()
                ));
            }
            for src in &op.inputs {
                match src {
                    RSource::Stream(s) if *s >= nstreams => {
                        return bad(format!("op {i} reads missing stream {s}"));
                    }
                    RSource::Op(o) if *o >= i => {
                        return bad(format!("op {i} reads op {o} (not yet evaluated)"));
                    }
                    _ => {}
                }
            }
        }
        let emit_sources: Vec<RSource> = match &self.emit {
            EmitSpec::Single(s) => vec![*s],
            EmitSpec::Tagged(ss) => ss.clone(),
        };
        if emit_sources.is_empty() {
            return bad("tagged emit with no sources".into());
        }
        for src in &emit_sources {
            match src {
                RSource::Stream(s) if *s >= nstreams => {
                    return bad("emit stream out of range".into())
                }
                RSource::Op(o) if *o >= self.ops.len() => return bad("emit op out of range".into()),
                _ => {}
            }
        }
        if self.map_only {
            if self.tagged() || !self.ops.is_empty() {
                return bad("map-only jobs take one branch and no ops".into());
            }
            if self.emit != EmitSpec::Single(RSource::Stream(0)) {
                return bad("map-only jobs emit stream 0".into());
            }
        }
        let merging = |op: &ROp| matches!(op.kind, OpKind::Agg { merge_partials: m, .. } if m);
        if self.ops.iter().any(merging) {
            let only = self.ops.len() == 1 && self.ops[0].inputs == [RSource::Stream(0)];
            if !only || self.tagged() || self.pad_bytes > 0 {
                return bad("a merging op must be the only op of an untagged, unpadded job".into());
            }
            if let OpKind::Agg { aggs, .. } = &self.ops[0].kind {
                if let Some((f, _)) = aggs.iter().find(|(f, _)| !f.combinable()) {
                    return bad(format!("aggregate {f} is not combinable"));
                }
            }
        }
        for &s in &self.short_circuit_streams {
            if s >= nstreams {
                return bad(format!("short-circuit stream {s} out of range"));
            }
        }
        Ok(())
    }

    /// Canonical fingerprint of the blueprint's *structure*: every field
    /// that determines what the job computes — operator DAG (and with it the
    /// combiner), schemas, key and value expressions, emit shape, padding,
    /// reduce-task count — excluding the job name and the concrete
    /// input/output paths, which vary per submission tag even when the
    /// computation is identical. Two blueprints with equal structural fingerprints perform
    /// the same computation over whatever data their inputs hold; combined
    /// with the identity of those inputs (producer fingerprints for
    /// intermediates, content checksums for base tables — see the chain
    /// builder in `ysmart_core`) this yields the full cross-query reuse
    /// fingerprint.
    ///
    /// The canonical encoding is the derived `Debug` rendering of a copy
    /// with the excluded fields blanked: deterministic, covers every field
    /// (new fields change the fingerprint by construction), hashed with the
    /// same XXH64 used for block integrity.
    #[must_use]
    pub fn structural_fingerprint(&self) -> u64 {
        let mut canon = self.clone();
        canon.name.clear();
        canon.output.clear();
        for input in &mut canon.inputs {
            input.path.clear();
        }
        ysmart_mapred::hash::checksum_bytes(format!("{canon:?}").as_bytes())
    }

    /// Converts the blueprint into an executable job spec.
    ///
    /// # Errors
    ///
    /// Validation failures.
    pub fn to_jobspec(&self) -> Result<JobSpec, ExecError> {
        self.validate()?;
        let me = Arc::new(self.clone());
        let mut builder = JobSpec::builder(&self.name).output(&self.output);
        for (idx, input) in self.inputs.iter().enumerate() {
            let bp = Arc::clone(&me);
            builder = builder.input(&input.path, move || {
                Box::new(CommonMapper::new(Arc::clone(&bp), idx))
            });
        }
        if !self.map_only {
            let bp = Arc::clone(&me);
            builder = builder.reducer(move || Box::new(CommonReducer::new(Arc::clone(&bp))));
            if let Some(combiner) = self.combiner() {
                builder = builder.combiner(move || Box::new(combiner.clone()));
            }
        }
        if let Some(n) = self.reduce_tasks {
            builder = builder.reduce_tasks(n);
        }
        if let Some(k) = self.key_cardinality {
            builder = builder.key_cardinality_hint(k);
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::DataType;

    fn simple_schema() -> Schema {
        Schema::of("t", &[("k", DataType::Int), ("v", DataType::Int)])
    }

    fn minimal() -> JobBlueprint {
        JobBlueprint {
            name: "j".into(),
            inputs: vec![InputSpec {
                path: "data/t".into(),
                schema: simple_schema(),
                key_exprs: vec![Expr::col(0)],
                value_cols: vec![0, 1],
                branches: vec![MapBranch {
                    stream: 0,
                    predicate: None,
                }],
                tag_filter: None,
            }],
            streams: vec![StreamSpec {
                projection: vec![Expr::col(0), Expr::col(1)],
            }],
            ops: vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            emit: EmitSpec::Single(RSource::Op(0)),
            output: "out/j".into(),
            reduce_tasks: Some(1),
            map_only: false,
            short_circuit_streams: vec![],
            pad_bytes: 0,
            key_cardinality: None,
        }
    }

    #[test]
    fn minimal_validates_and_is_direct() {
        let bp = minimal();
        bp.validate().unwrap();
        assert!(!bp.tagged());
        bp.to_jobspec().unwrap();
    }

    #[test]
    fn two_branches_are_tagged() {
        let mut bp = minimal();
        bp.inputs[0].branches.push(MapBranch {
            stream: 1,
            predicate: None,
        });
        bp.streams.push(StreamSpec {
            projection: vec![Expr::col(0)],
        });
        assert!(bp.tagged());
        bp.validate().unwrap();
    }

    #[test]
    fn rejects_unfed_stream() {
        let mut bp = minimal();
        bp.streams.push(StreamSpec { projection: vec![] });
        let e = bp.validate().unwrap_err();
        assert!(e.to_string().contains("not fed"));
    }

    #[test]
    fn rejects_forward_op_reference() {
        let mut bp = minimal();
        bp.ops[0].inputs = vec![RSource::Op(0)];
        assert!(bp.validate().is_err());
    }

    #[test]
    fn rejects_join_with_one_input() {
        let mut bp = minimal();
        bp.ops[0].kind = OpKind::Join {
            kind: JoinKind::Inner,
            residual: None,
            left_width: 2,
            right_width: 2,
        };
        assert!(bp.validate().is_err());
    }

    /// `minimal` with its op a merging aggregation: a combined job.
    fn combined() -> JobBlueprint {
        let mut bp = minimal();
        bp.ops[0].kind = OpKind::Agg {
            group_cols: vec![0],
            aggs: vec![(AggFunc::Sum, Some(Expr::col(1)))],
            having: None,
            merge_partials: true,
        };
        bp
    }

    #[test]
    fn a_merging_agg_is_the_combined_jobs_only_op() {
        let bp = combined();
        bp.validate().unwrap();
        assert!(bp.to_jobspec().unwrap().combiner.is_some());
        assert!(minimal().to_jobspec().unwrap().combiner.is_none());

        let mut second = combined();
        second.ops.push(ROp {
            kind: OpKind::Pass,
            inputs: vec![RSource::Op(0)],
            transforms: vec![],
        });
        let mut after_another = combined();
        after_another.ops.insert(0, minimal().ops.remove(0));
        after_another.ops[1].inputs = vec![RSource::Op(0)];
        let mut padded = combined();
        padded.pad_bytes = 3;
        for (bp, why) in [
            (second, "only op"),
            (after_another, "only op"),
            (padded, "unpadded"),
        ] {
            let e = bp.validate().unwrap_err();
            assert!(e.to_string().contains(why), "{e}");
            assert!(bp.to_jobspec().is_err());
        }
    }

    #[test]
    fn rejects_combiner_on_tagged_job() {
        let mut bp = combined();
        bp.inputs[0].branches.push(MapBranch {
            stream: 1,
            predicate: None,
        });
        bp.streams.push(StreamSpec {
            projection: vec![Expr::col(0)],
        });
        let e = bp.validate().unwrap_err();
        assert!(e.to_string().contains("untagged"), "{e}");
    }

    #[test]
    fn rejects_non_combinable_combiner() {
        let mut bp = combined();
        if let OpKind::Agg { aggs, .. } = &mut bp.ops[0].kind {
            aggs.push((AggFunc::CountDistinct, Some(Expr::col(1))));
        }
        let e = bp.validate().unwrap_err();
        assert!(e.to_string().contains("not combinable"), "{e}");
    }

    #[test]
    fn map_only_constraints() {
        let mut bp = minimal();
        bp.map_only = true;
        assert!(bp.validate().is_err(), "ops must be empty");
        bp.ops.clear();
        bp.emit = EmitSpec::Single(RSource::Stream(0));
        bp.validate().unwrap();
    }

    #[test]
    fn rejects_value_cols_past_the_schema() {
        // Direct and tagged alike: the mapper would read column 5 of a
        // 2-column record.
        for tagged in [false, true] {
            let mut bp = minimal();
            bp.inputs[0].value_cols = vec![0, 5];
            if tagged {
                bp.inputs[0].branches.push(MapBranch {
                    stream: 1,
                    predicate: None,
                });
                bp.streams.push(StreamSpec {
                    projection: vec![Expr::col(0)],
                });
            }
            let e = bp.validate().unwrap_err();
            assert!(matches!(e, ExecError::InvalidBlueprint(_)), "{e}");
            assert!(e.to_string().contains("carries column 5"), "{e}");
            assert!(bp.to_jobspec().is_err());
        }
    }

    #[test]
    fn structural_fingerprint_ignores_names_and_paths() {
        let a = minimal();
        let mut b = minimal();
        b.name = "renamed".into();
        b.output = "tmp/other-tag-j1".into();
        b.inputs[0].path = "tmp/other-tag-j0".into();
        assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());
    }

    #[test]
    fn structural_fingerprint_sees_semantic_changes() {
        let a = minimal();
        let mut pred = minimal();
        pred.inputs[0].branches[0].predicate = Some(Expr::col(1));
        let mut tasks = minimal();
        tasks.reduce_tasks = Some(4);
        let mut agg = minimal();
        agg.ops[0].kind = OpKind::Agg {
            group_cols: vec![0],
            aggs: vec![(AggFunc::Sum, Some(Expr::col(1)))],
            having: None,
            merge_partials: false,
        };
        let fp = a.structural_fingerprint();
        assert_ne!(fp, pred.structural_fingerprint());
        assert_ne!(fp, tasks.structural_fingerprint());
        assert_ne!(fp, agg.structural_fingerprint());
    }
}
