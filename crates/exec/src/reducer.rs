//! The common reducer (§VI-B, Algorithm 1).
//!
//! For each key the reducer makes **one pass** over the value list,
//! dispatching each value to the streams allowed by its (inverted) tag.
//! It then evaluates the per-key operator DAG: merged reducers (join /
//! aggregation / pass ops reading streams) first, post-job computations
//! (ops reading other ops' outputs) after — exactly the structure rules
//! 2–4 of §V-B create. Only the emit source's rows are written to HDFS; the
//! outputs of intermediate ops stay in memory, which is the entire point of
//! job-flow-correlation merging (the paper: "the persistence and
//! re-partitioning of intermediate tables inner and outer are actually
//! avoided").
//!
//! It does so a reduce task at a time ([`Reducer::reduce_run`]), over runs
//! of whole key groups: each stream's rows and each op's output are one
//! `Batch` per run, a segment per key group, and every operator runs once
//! per run on `colexpr` kernels (DESIGN.md, "The common reducer runs a task
//! at a time"). The key group stays the unit of every semantic: the rows
//! emitted, their order, and the work units charged are those of reducing
//! the groups one by one.
//!
//! Every value routed to a stream is counted via
//! [`ReduceOutput::record_dispatches`], surfacing the post-shuffle fan-out
//! of merged jobs in `JobMetrics::reduce_dispatches`. Evaluation errors —
//! planner bugs, not data problems — abort the job via
//! [`ReduceOutput::record_fatal`], which the engine turns into a typed
//! `MapRedError::User` failure instead of a panic.

use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use ysmart_mapred::{GroupView, KeyGroups, ReduceOutput, Reducer};
use ysmart_plan::JoinKind;
use ysmart_rel::colbatch::NULL_ROW;
use ysmart_rel::{Expr, RelError, Row};

use crate::aggregate::{aggregate, Mode};
use crate::batch::{Batch, Selection};
use crate::blueprint::{EmitSpec, JobBlueprint, OpKind, RSource};
use crate::colexpr::{eval_mask, Columnar};
use crate::error::ExecError;

/// Values per run of key groups evaluated at once: a run takes whole groups
/// until it holds this many values. Groups are independent, so where a task
/// is cut changes no result; the cut bounds what a run's batches hold and
/// keeps them cache-resident (256 measured slower, 4 096 no faster).
const CHUNK_VALUES: usize = 1024;

/// `groups` cut into runs of whole groups, each taking groups until it
/// holds [`CHUNK_VALUES`] values — how the reducer and the combiner alike
/// cut what they evaluate at once.
pub(crate) fn chunks<'g>(groups: &'g KeyGroups<'_>) -> impl Iterator<Item = Range<usize>> + 'g {
    let mut next = 0;
    std::iter::from_fn(move || {
        let (start, mut values) = (next, 0);
        while next < groups.len() && values < CHUNK_VALUES {
            values += groups.bounds(next).len();
            next += 1;
        }
        (start < next).then_some(start..next)
    })
}

/// The CMF reducer for a job.
#[derive(Debug)]
pub struct CommonReducer {
    blueprint: Arc<JobBlueprint>,
    tagged: bool,
    /// The Pig-style serialisation pad: trailing cells of every value that
    /// no stream reads (never stripped, only left out).
    pad_cols: usize,
    /// Per stream: one past the largest carried column its projection
    /// reads — what a tagged value's carried row must reach.
    need: Vec<usize>,
}

/// The width values `positions` of `values` share, `pad` trailing cells
/// left out; `None` when they differ.
pub(crate) fn common_width(values: GroupView<'_>, positions: &[u32], pad: usize) -> Option<usize> {
    let width = |&i: &u32| values.width(i as usize).saturating_sub(pad);
    let first = positions.first().map_or(0, width);
    positions.iter().all(|i| width(i) == first).then_some(first)
}

/// Why a run's evaluation aborted.
enum Fatal {
    /// An operator's own expression failed (message names which).
    Op(String),
    /// A transform of an op's chain failed.
    Transform(ExecError),
}

impl From<RelError> for Fatal {
    fn from(e: RelError) -> Self {
        Fatal::Transform(e.into())
    }
}

impl Fatal {
    fn message(&self, job: &str) -> String {
        match self {
            Fatal::Op(e) => format!("{e} (job {job})"),
            Fatal::Transform(e) => format!("transform failed in {job}: {e}"),
        }
    }
}

impl CommonReducer {
    /// Creates the reducer for a blueprint.
    #[must_use]
    pub fn new(blueprint: Arc<JobBlueprint>) -> Self {
        let need = blueprint
            .streams
            .iter()
            .map(|spec| {
                let mut need = 0;
                for e in &spec.projection {
                    e.for_each_column(&mut |c| need = need.max(c + 1));
                }
                need
            })
            .collect();
        CommonReducer {
            tagged: blueprint.tagged(),
            pad_cols: usize::from(blueprint.pad_bytes > 0),
            need,
            blueprint,
        }
    }

    /// Evaluates groups `range` of `groups` as one run: dispatch, the
    /// operator DAG, emit. `Err` is the job's fatal message.
    fn run(
        &self,
        groups: &KeyGroups<'_>,
        range: Range<usize>,
        out: &mut ReduceOutput,
    ) -> Result<(), String> {
        let bp = &self.blueprint;
        let mut work = 0;
        let streams = self.dispatch(groups, range, &mut work, out)?;
        let evaluated = self.eval_ops(&streams, &mut work);
        out.add_work(work);
        let outputs = evaluated.map_err(|fatal| fatal.message(&bp.name))?;

        // ---- emit only the final source(s) (§VI-B) -------------------------
        // Typed columns, not rows or pre-rendered lines: the engine renders
        // text or packs columnar frames depending on the job's data format.
        // Group by group, source by source — the order of reducing one group
        // at a time: a single source's segments are its rows in order, and
        // tagged sources interleave a segment at a time.
        let source = |src: &RSource| match *src {
            RSource::Stream(s) => &streams[s],
            RSource::Op(o) => &outputs[o],
        };
        match &bp.emit {
            EmitSpec::Single(src) => {
                let batch = source(src);
                let rows: Vec<usize> = (0..batch.len()).collect();
                out.emit_columns(&rows, None, &batch.columns());
            }
            EmitSpec::Tagged(srcs) => {
                let batches: Vec<_> = srcs.iter().map(|src| source(src).columns()).collect();
                let (mut rows, mut tags) = (Vec::new(), Vec::new());
                for g in 0..streams[0].groups() {
                    for (tag, (src, cols)) in (0i64..).zip(srcs.iter().zip(&batches)) {
                        rows.clear();
                        rows.extend(source(src).seg(g));
                        tags.clear();
                        tags.resize(rows.len(), tag);
                        out.emit_columns(&rows, Some(&tags), cols);
                    }
                }
            }
        }
        Ok(())
    }

    /// Algorithm 1 over a run of groups: one pass over the values, each
    /// dispatched by its (inverted) tag to the streams it may reach, after
    /// the short-circuit pre-pass of its group. Returns each stream's rows,
    /// a segment per group — a tagged stream's projection evaluated over its
    /// carried rows as columns; dispatch counts and their work units are
    /// recorded in bulk.
    fn dispatch<'v>(
        &self,
        groups: &KeyGroups<'v>,
        range: Range<usize>,
        work: &mut u64,
        out: &mut ReduceOutput,
    ) -> Result<Vec<Rc<Batch<'v>>>, String> {
        let bp = &self.blueprint;
        let n = bp.streams.len();
        let failed = |err: String| format!("stream projection failed in {}: {err}", bp.name);
        let values = groups.values();
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut segs: Vec<Vec<u32>> = vec![vec![0]; n];
        for g in range {
            let group = groups.bounds(g);
            if !self.tagged {
                // Direct mode: every value of the group feeds the single
                // stream, its pad left out.
                positions[0].extend(group.map(|i| i as u32));
            } else if !self.short_circuits(values, group.clone(), work) {
                for i in group {
                    let hidden = values.tag(i) as u64;
                    // The cells after the tag, the pad left out.
                    let carried = values.width(i).saturating_sub(self.pad_cols);
                    let carried = carried.saturating_sub(1);
                    for (s, &need) in self.need.iter().enumerate() {
                        if hidden & (1 << s) != 0 {
                            continue; // inverted tag: this stream must not see it
                        }
                        if carried < need {
                            return Err(failed(format!("column {} out of range", need - 1)));
                        }
                        positions[s].push(i as u32);
                    }
                }
            }
            for s in 0..n {
                segs[s].push(positions[s].len() as u32);
            }
        }
        if self.tagged {
            for (s, segs) in segs.iter().enumerate() {
                let dispatched = u64::from(*segs.last().expect("segment bounds"));
                if dispatched > 0 {
                    out.record_dispatches(s, dispatched);
                    *work += dispatched;
                }
            }
        } else {
            out.record_dispatches(0, positions[0].len() as u64);
        }
        let mut streams = Vec::with_capacity(n);
        for (s, (positions, segs)) in positions.into_iter().zip(segs).enumerate() {
            let positions: Selection = positions.into();
            let batch = if self.tagged {
                let carried = Batch::gather(values, &positions, 1..1 + self.need[s], segs);
                let projected = carried.project(&bp.streams[s].projection);
                projected.map_err(|e| failed(e.to_string()))?
            } else {
                // A direct job's values are one projection's rows, or one
                // combiner's partial rows: all one width.
                let width = common_width(values, &positions, self.pad_cols)
                    .ok_or_else(|| format!("values of differing widths in {}", bp.name))?;
                Batch::gather(values, &positions, 0..width, segs)
            };
            streams.push(Rc::new(batch));
        }
        Ok(streams)
    }

    /// The hand-coded short-circuit (§VII-C case 4): the paper's hand-written
    /// reducer returns immediately when a required input (e.g. the `orders`
    /// side with status 'F') has no pairs for this key — *before* doing any
    /// per-value work. A cheap tag-only pre-pass over the group's values
    /// detects that; it costs roughly an eighth of a full dispatch per value
    /// (an integer check vs. projection), charged per group. Whether the
    /// group is skipped.
    fn short_circuits(&self, values: GroupView<'_>, group: Range<usize>, work: &mut u64) -> bool {
        let required = &self.blueprint.short_circuit_streams;
        if required.is_empty() {
            return false;
        }
        *work += group.len() as u64 / 8;
        let present = group.fold(0u64, |present, i| present | !values.tag(i) as u64);
        required.iter().any(|&s| present & (1 << s) == 0)
    }

    /// Evaluates the operator DAG over a run, in blueprint order: each op's
    /// kind, then its transform chain. An untransformed pass aliases its
    /// input.
    fn eval_ops<'v>(
        &self,
        streams: &[Rc<Batch<'v>>],
        work: &mut u64,
    ) -> Result<Vec<Rc<Batch<'v>>>, Fatal> {
        let ops = &self.blueprint.ops;
        let mut outputs: Vec<Rc<Batch<'v>>> = Vec::with_capacity(ops.len());
        for op in ops {
            let input = |i: usize| match op.inputs[i] {
                RSource::Stream(s) => Rc::clone(&streams[s]),
                RSource::Op(o) => Rc::clone(&outputs[o]),
            };
            let mut batch = match &op.kind {
                OpKind::Pass => {
                    let input = input(0);
                    *work += input.len() as u64;
                    input
                }
                OpKind::Agg {
                    group_cols,
                    aggs,
                    having,
                    merge_partials,
                } => {
                    let (input, having) = (input(0), having.as_ref());
                    let mode = if *merge_partials {
                        Mode::Merge
                    } else {
                        Mode::Complete
                    };
                    let agg = aggregate(&input, group_cols, aggs, having, mode, work);
                    Rc::new(agg.map_err(Fatal::Op)?)
                }
                OpKind::Join {
                    kind,
                    residual,
                    columns,
                    ..
                } => {
                    let joined = join(&input(0), &input(1), *kind, residual.as_ref(), work);
                    Rc::new(joined.map_err(Fatal::Op)?.keep(columns))
                }
            };
            for t in &op.transforms {
                batch = Rc::new(batch.transform(t, work)?);
            }
            outputs.push(batch);
        }
        Ok(outputs)
    }
}

impl Reducer for CommonReducer {
    /// A run of one group.
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        let key = std::slice::from_ref(key);
        self.reduce_run(KeyGroups::rows(key, values, &[0]), out);
    }

    fn reduce_run(&mut self, groups: KeyGroups<'_>, out: &mut ReduceOutput) {
        for range in chunks(&groups) {
            if let Err(msg) = self.run(&groups, range, out) {
                out.record_fatal(msg);
                return;
            }
        }
    }
}

/// Equi-join within each key group: the partition key is the full equi-key,
/// so every left row of a segment pairs with every right row of it (a work
/// unit per pair); the residual — a mask over the candidate pairs — and
/// outer-join padding — NULLs as wide as the side they stand for — do the
/// rest. Pairs leave in the order of joining one group at a time: per left
/// row its matches, then its pad; a segment's right pads last.
fn join<'v>(
    l: &Batch<'v>,
    r: &Batch<'v>,
    kind: JoinKind,
    residual: Option<&Expr>,
    work: &mut u64,
) -> Result<Batch<'v>, String> {
    let (mut li, mut ri, mut segs) = (Vec::new(), Vec::new(), vec![0]);
    for g in 0..l.groups() {
        for a in l.seg(g) {
            li.extend(std::iter::repeat_n(a as u32, r.seg(g).len()));
            ri.extend(r.seg(g).map(|b| b as u32));
        }
        segs.push(li.len() as u32);
    }
    *work += li.len() as u64;
    let (li, ri): (Selection, Selection) = (li.into(), ri.into());
    let concat = |lk: &Selection, rk: &Selection, segs| {
        let mut cols = l.cols_at(0..l.width(), lk);
        cols.extend(r.cols_at(0..r.width(), rk));
        Batch::new(segs, cols)
    };
    let pairs = concat(&li, &ri, segs);
    let mask = match residual {
        None => None,
        Some(p) => {
            let mask = eval_mask(p, &pairs).check(None);
            Some(mask.map_err(|e| format!("join residual failed: {e}"))?)
        }
    };
    let pass = |p: usize| mask.as_ref().is_none_or(|m| m[p] == Some(true));
    let pads_left = matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter);
    let pads_right = matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter);
    if !pads_left && !pads_right {
        return Ok(pairs.filter(|p, _| pass(p)));
    }
    let (mut lo, mut ro, mut segs) = (Vec::new(), Vec::new(), vec![0]);
    let mut matched = vec![false; r.len()];
    let mut p = 0;
    for g in 0..l.groups() {
        for a in l.seg(g) {
            let mut any = false;
            for b in r.seg(g) {
                if pass(p) {
                    (any, matched[b]) = (true, true);
                    lo.push(a as u32);
                    ro.push(b as u32);
                }
                p += 1;
            }
            if !any && pads_right {
                lo.push(a as u32);
                ro.push(NULL_ROW);
            }
        }
        for b in r.seg(g).filter(|&b| pads_left && !matched[b]) {
            lo.push(NULL_ROW);
            ro.push(b as u32);
        }
        segs.push(lo.len() as u32);
    }
    Ok(concat(&lo.into(), &ro.into(), segs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::{EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, StreamSpec};
    use crate::rowop::RowOp;
    use ysmart_rel::{row, AggFunc, BinOp, DataType, Schema};

    fn bp_with_ops(nstreams: usize, ops: Vec<ROp>, emit: RSource) -> Arc<JobBlueprint> {
        bp_with_emit(nstreams, ops, EmitSpec::Single(emit))
    }

    fn bp_with_emit(nstreams: usize, ops: Vec<ROp>, emit: EmitSpec) -> Arc<JobBlueprint> {
        // Schema/inputs are irrelevant for direct reducer tests; they are
        // only used by the mapper.
        Arc::new(JobBlueprint {
            name: "t".into(),
            inputs: vec![InputSpec {
                path: "data/x".into(),
                schema: Schema::of("x", &[("a", DataType::Int)]),
                key_exprs: vec![Expr::col(0)],
                value_cols: vec![0],
                branches: (0..nstreams)
                    .map(|s| MapBranch {
                        stream: s,
                        predicate: None,
                    })
                    .collect(),
                tag_filter: None,
            }],
            streams: (0..nstreams)
                .map(|_| StreamSpec {
                    projection: vec![Expr::col(0), Expr::col(1)],
                })
                .collect(),
            ops,
            emit,
            output: "out".into(),
            reduce_tasks: Some(1),
            map_only: false,
            short_circuit_streams: vec![],
            pad_bytes: 0,
            key_cardinality: None,
        })
    }

    fn run_direct(bp: &Arc<JobBlueprint>, values: Vec<Row>) -> Vec<String> {
        let mut r = CommonReducer::new(Arc::clone(bp));
        let mut out = ReduceOutput::default();
        r.reduce(&row![1i64], &values, &mut out);
        out.lines()
    }

    #[test]
    fn pass_op_emits_rows() {
        let bp = bp_with_ops(
            1,
            vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            RSource::Op(0),
        );
        let lines = run_direct(&bp, vec![row![1i64, 2i64], row![1i64, 3i64]]);
        assert_eq!(lines, vec!["1|2", "1|3"]);
    }

    #[test]
    fn agg_groups_within_key() {
        // Group by col 1 (beyond the partition key), count rows.
        let bp = bp_with_ops(
            1,
            vec![ROp {
                kind: OpKind::Agg {
                    group_cols: vec![1],
                    aggs: vec![(AggFunc::Count, None)],
                    having: None,
                    merge_partials: false,
                },
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            RSource::Op(0),
        );
        let lines = run_direct(
            &bp,
            vec![row![1i64, 7i64], row![1i64, 7i64], row![1i64, 9i64]],
        );
        assert_eq!(lines, vec!["7|2", "9|1"]);
    }

    #[test]
    fn having_filters_groups() {
        let bp = bp_with_ops(
            1,
            vec![ROp {
                kind: OpKind::Agg {
                    group_cols: vec![1],
                    aggs: vec![(AggFunc::Count, None)],
                    having: Some(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(1i64))),
                    merge_partials: false,
                },
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            RSource::Op(0),
        );
        let lines = run_direct(
            &bp,
            vec![row![1i64, 7i64], row![1i64, 7i64], row![1i64, 9i64]],
        );
        assert_eq!(lines, vec!["7|2"]);
    }

    fn join_bp(kind: JoinKind, residual: Option<Expr>) -> Arc<JobBlueprint> {
        bp_with_ops(
            2,
            vec![ROp {
                kind: OpKind::Join {
                    kind,
                    residual,
                    left_width: 2,
                    right_width: 2,
                    columns: (0..4).collect(),
                },
                inputs: vec![RSource::Stream(0), RSource::Stream(1)],
                transforms: vec![],
            }],
            RSource::Op(0),
        )
    }

    /// Tagged values: [tag, a, b] — tag bit 0 = hide from stream 0 (left),
    /// bit 1 = hide from stream 1 (right).
    fn tagged(tag: i64, a: i64, b: i64) -> Row {
        row![tag, a, b]
    }

    #[test]
    fn inner_join_within_key() {
        let bp = join_bp(JoinKind::Inner, None);
        let lines = run_direct(
            &bp,
            vec![
                tagged(0b10, 1, 10), // left only
                tagged(0b01, 1, 20), // right only
                tagged(0b01, 1, 30), // right only
            ],
        );
        assert_eq!(lines, vec!["1|10|1|20", "1|10|1|30"]);
    }

    #[test]
    fn left_outer_join_pads_nulls() {
        let bp = join_bp(JoinKind::LeftOuter, None);
        let lines = run_direct(&bp, vec![tagged(0b10, 1, 10)]);
        assert_eq!(lines, vec!["1|10||"]);
    }

    #[test]
    fn full_outer_join_pads_both_sides() {
        let bp = join_bp(
            JoinKind::FullOuter,
            Some(Expr::binary(BinOp::Lt, Expr::col(1), Expr::col(3))),
        );
        let lines = run_direct(
            &bp,
            vec![tagged(0b10, 1, 50), tagged(0b01, 1, 10)], // residual 50 < 10 fails
        );
        // No pair survives the residual, so each side is null-padded once.
        assert_eq!(lines.len(), 2);
        assert!(lines.contains(&"1|50||".to_string()), "{lines:?}");
        assert!(lines.contains(&"||1|10".to_string()), "{lines:?}");
    }

    #[test]
    fn shared_scan_both_sides() {
        // A self-join where one record is visible to both streams.
        let bp = join_bp(JoinKind::Inner, None);
        let lines = run_direct(&bp, vec![tagged(0b00, 1, 5)]);
        assert_eq!(lines, vec!["1|5|1|5"]);
    }

    #[test]
    fn post_job_computation_chains_ops() {
        // Op 0: inner join; Op 1: aggregate the join output (count per b).
        let bp = bp_with_ops(
            2,
            vec![
                ROp {
                    kind: OpKind::Join {
                        kind: JoinKind::Inner,
                        residual: None,
                        left_width: 2,
                        right_width: 2,
                        columns: (0..4).collect(),
                    },
                    inputs: vec![RSource::Stream(0), RSource::Stream(1)],
                    transforms: vec![],
                },
                ROp {
                    kind: OpKind::Agg {
                        group_cols: vec![0],
                        aggs: vec![(AggFunc::Count, None)],
                        having: None,
                        merge_partials: false,
                    },
                    inputs: vec![RSource::Op(0)],
                    transforms: vec![],
                },
            ],
            RSource::Op(1),
        );
        let lines = run_direct(
            &bp,
            vec![
                tagged(0b10, 1, 10),
                tagged(0b01, 1, 20),
                tagged(0b01, 1, 30),
            ],
        );
        assert_eq!(lines, vec!["1|2"]);
    }

    #[test]
    fn transforms_apply_to_op_output() {
        let bp = bp_with_ops(
            1,
            vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![
                    RowOp::Filter(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(5i64))),
                    RowOp::Project(vec![Expr::col(1)]),
                ],
            }],
            RSource::Op(0),
        );
        let lines = run_direct(&bp, vec![row![1i64, 3i64], row![1i64, 9i64]]);
        assert_eq!(lines, vec!["9"]);
    }

    #[test]
    fn short_circuit_skips_key() {
        let mut bp = (*join_bp(JoinKind::Inner, None)).clone();
        bp.short_circuit_streams = vec![0];
        let bp = Arc::new(bp);
        // Only right-side rows: stream 0 empty → skip everything.
        let mut r = CommonReducer::new(Arc::clone(&bp));
        let mut out = ReduceOutput::default();
        r.reduce(&row![1i64], &[tagged(0b01, 1, 20)], &mut out);
        assert!(out.lines().is_empty());
        // The tag-only pre-pass skips the key before any dispatch work.
        assert_eq!(out.work(), 0);
    }

    #[test]
    fn short_circuit_prepass_charges_each_group() {
        // Two 12-value groups without a stream-0 value: each is skipped after
        // its own pre-pass, charged 12 / 8 = 1 unit apiece — not 24 / 8.
        let mut bp = (*join_bp(JoinKind::Inner, None)).clone();
        bp.short_circuit_streams = vec![0];
        let mut r = CommonReducer::new(Arc::new(bp));
        let values = vec![tagged(0b01, 1, 20); 24];
        let keys = [row![1i64], row![2i64]];
        let mut out = ReduceOutput::default();
        r.reduce_run(KeyGroups::rows(&keys, &values, &[0, 12]), &mut out);
        assert!(out.lines().is_empty());
        assert_eq!(out.work(), 2);
    }

    #[test]
    fn a_run_reduces_as_its_groups_one_by_one() {
        // Enough groups that the run is cut more than once: rows, order,
        // work and dispatch counts are those of reducing group by group.
        let residual = Expr::binary(BinOp::Lt, Expr::col(1), Expr::col(3));
        let bp = join_bp(JoinKind::FullOuter, Some(residual));
        let (mut keys, mut values, mut starts) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..1500i64 {
            keys.push(row![k]);
            starts.push(values.len() as u32);
            for v in 0..k % 5 {
                values.push(tagged(1 + (k + v) % 3, k, (k * 7 + v) % 11));
            }
        }
        assert!(values.len() > 2 * CHUNK_VALUES);
        let (mut by_group, mut by_run) = (ReduceOutput::default(), ReduceOutput::default());
        let mut r = CommonReducer::new(Arc::clone(&bp));
        let groups = KeyGroups::rows(&keys, &values, &starts);
        for (g, key) in keys.iter().enumerate() {
            r.reduce(key, &groups.group(g).to_rows(), &mut by_group);
        }
        r.reduce_run(groups, &mut by_run);
        assert_eq!(by_run.take_fatal(), None);
        assert_eq!(by_run.work(), by_group.work());
        assert_eq!(by_run.take_dispatches(), by_group.take_dispatches());
        assert_eq!(by_run.lines(), by_group.lines());
    }

    #[test]
    fn merge_partials_mode() {
        // Partial rows: [group, count_partial] — two partials for group 7.
        let bp = bp_with_ops(
            1,
            vec![ROp {
                kind: OpKind::Agg {
                    group_cols: vec![0],
                    aggs: vec![(AggFunc::Count, None)],
                    having: None,
                    merge_partials: true,
                },
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            RSource::Op(0),
        );
        let lines = run_direct(&bp, vec![row![7i64, 2i64], row![7i64, 3i64]]);
        assert_eq!(lines, vec!["7|5"]);
    }

    #[test]
    fn work_scales_with_ops_dispatched() {
        // Same values through 1 op vs 2 ops: more merged ops, more work —
        // the CMF overhead the paper measures in Fig. 9 (YSmart's reduce
        // phase is longer than hand-coded but much shorter than extra jobs).
        let one = bp_with_ops(
            1,
            vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }],
            RSource::Op(0),
        );
        let two = bp_with_ops(
            1,
            vec![
                ROp {
                    kind: OpKind::Pass,
                    inputs: vec![RSource::Stream(0)],
                    transforms: vec![],
                },
                ROp {
                    kind: OpKind::Pass,
                    inputs: vec![RSource::Op(0)],
                    transforms: vec![],
                },
            ],
            RSource::Op(1),
        );
        let values = vec![row![1i64, 2i64]; 10];
        let mut r1 = CommonReducer::new(one);
        let mut o1 = ReduceOutput::default();
        r1.reduce(&row![1i64], &values, &mut o1);
        let mut r2 = CommonReducer::new(two);
        let mut o2 = ReduceOutput::default();
        r2.reduce(&row![1i64], &values, &mut o2);
        assert!(o2.work() > o1.work());
    }
}
