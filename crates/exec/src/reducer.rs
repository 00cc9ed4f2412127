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
//! A key group is never copied, nor gathered: the engine hands it over as a
//! [`GroupView`] of cell slices lying wherever the shuffle left them.
//! Dispatch records, per stream, the *positions* of the values it may see; a
//! stream row is a [`RowView`] into such a slice, and every operator reads
//! its input —
//! stream, direct-mode group or an earlier op's output — through [`Rows`].
//! Rows are built only where something new exists: a computed stream
//! projection, an aggregate, a join pair that survived its residual and the
//! leading `Filter* [Project]` of the op's transform chain (fused into the
//! op, see [`head_len`]), and whatever is finally emitted.
//!
//! Every value routed to a stream is counted via
//! [`ReduceOutput::record_dispatches`], surfacing the post-shuffle fan-out
//! of merged jobs in `JobMetrics::reduce_dispatches`. Evaluation errors —
//! planner bugs, not data problems — abort the job via
//! [`ReduceOutput::record_fatal`], which the engine turns into a typed
//! `MapRedError::User` failure instead of a panic.

use std::collections::BTreeMap;
use std::sync::Arc;

use ysmart_mapred::{GroupView, ReduceOutput, Reducer};
use ysmart_plan::JoinKind;
use ysmart_rel::{AggFunc, AggState, Columns, Expr, RelError, Row, Value};

use crate::blueprint::{EmitSpec, JobBlueprint, OpKind, PartialAgg, ROp, RSource};
use crate::combiner::{decode_partial, update_states};
use crate::error::ExecError;
use crate::rowop::{apply_chain, project, RowOp};

/// The CMF reducer for a job.
#[derive(Debug)]
pub struct CommonReducer {
    blueprint: Arc<JobBlueprint>,
    tagged: bool,
    /// Per stream: how its rows are read off the values dispatched to it.
    plans: Vec<StreamPlan>,
    /// Per op: the length of its transform chain's fused head.
    head_lens: Vec<usize>,
    /// Per stream: positions, in the key group's value slice, of the values
    /// dispatched to it. Cleared and refilled for every key group instead
    /// of reallocated — reduce tasks see thousands of groups.
    picks: Vec<Vec<usize>>,
    /// Per [`StreamPlan::Computed`] stream: its projected rows.
    computed: Vec<Vec<Row>>,
    /// The padded side of an outer join, as wide as the widest one.
    nulls: Vec<Value>,
}

/// How a tagged stream's rows are obtained from the carried row
/// (`value[1..]`, less the pad) of each value dispatched to it.
#[derive(Debug)]
enum StreamPlan {
    /// Every projection is a plain column reference — the overwhelmingly
    /// common case: a stream row is a view of the carried row's first
    /// `need` columns, read through `map` unless the projection is the
    /// identity.
    View {
        need: usize,
        map: Option<Vec<usize>>,
    },
    /// Some projection computes: rows are materialised at dispatch.
    Computed,
}

impl StreamPlan {
    fn of(projection: &[Expr]) -> StreamPlan {
        let plain: Option<Vec<usize>> = projection
            .iter()
            .map(|e| match e {
                Expr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        match plain {
            None => StreamPlan::Computed,
            Some(cols) => StreamPlan::View {
                need: cols.iter().map(|&c| c + 1).max().unwrap_or(0),
                map: (!cols.iter().copied().eq(0..cols.len())).then_some(cols),
            },
        }
    }
}

/// The columns of each base row that a [`Rows`] exposes.
#[derive(Clone, Copy)]
enum Window {
    /// Columns `1..1 + n`: a tagged value's carried row, after the tag.
    Carried(usize),
    /// All but the last `n` columns: a direct-mode value less its pad;
    /// `Trim(0)` is a whole row.
    Trim(usize),
}

/// A borrowed run of rows — the one way operators, the fused transform head
/// and the emit loop read an input, wherever it lives. Owns nothing.
#[derive(Clone, Copy)]
struct Rows<'a> {
    base: GroupView<'a>,
    /// The positions in `base` that belong to the run; `None`: all of it.
    pick: Option<&'a [usize]>,
    window: Window,
    /// Plain-column projection over the window; `None`: the window itself.
    map: Option<&'a [usize]>,
}

impl<'a> Rows<'a> {
    /// Whole rows, all of them: an op's owned output, a computed stream.
    fn whole(base: &'a [Row]) -> Self {
        Rows {
            base: GroupView::rows(base),
            pick: None,
            window: Window::Trim(0),
            map: None,
        }
    }

    fn len(&self) -> usize {
        self.pick.map_or(self.base.len(), <[usize]>::len)
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, i: usize) -> RowView<'a> {
        let vals = self.base.get(self.pick.map_or(i, |p| p[i]));
        let vals = match self.window {
            // Dispatch checked the carried row is at least this wide.
            Window::Carried(n) => &vals[1..1 + n],
            Window::Trim(n) => &vals[..vals.len().saturating_sub(n)],
        };
        RowView {
            vals,
            map: self.map,
        }
    }

    fn iter(self) -> impl Iterator<Item = RowView<'a>> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// One row of a [`Rows`]: a slice of someone else's values, optionally
/// read through a column map.
#[derive(Clone, Copy)]
struct RowView<'a> {
    vals: &'a [Value],
    map: Option<&'a [usize]>,
}

impl Columns for RowView<'_> {
    fn col(&self, i: usize) -> Option<&Value> {
        match self.map {
            None => self.vals.get(i),
            Some(map) => self.vals.get(*map.get(i)?),
        }
    }

    fn width(&self) -> usize {
        self.map.map_or(self.vals.len(), <[usize]>::len)
    }
}

impl RowView<'_> {
    /// Appends the row's values to `out` — the only place a view is copied.
    fn extend_into(&self, out: &mut Vec<Value>) {
        match self.map {
            None => out.extend_from_slice(self.vals),
            Some(map) => out.extend(map.iter().map(|&c| self.vals[c].clone())),
        }
    }

    fn to_row(self) -> Row {
        let mut vals = Vec::with_capacity(self.width());
        self.extend_into(&mut vals);
        Row::new(vals)
    }
}

/// Length of the *fused head* of a transform chain: its leading `Filter`s
/// and the `Project` right after them, if any. The head runs inside the op,
/// on each candidate row while that is still a view, so a row is built once,
/// at its final width, and only if it survives. Work accounting is that of
/// [`RowOp::apply`] stage by stage: one unit per row *entering* a stage.
/// `Sort` and `Limit` need the whole collection and end the head.
fn head_len(transforms: &[RowOp]) -> usize {
    let filters = transforms
        .iter()
        .take_while(|t| matches!(t, RowOp::Filter(_)))
        .count();
    filters + usize::from(matches!(transforms.get(filters), Some(RowOp::Project(_))))
}

/// Runs one candidate row through a fused head (see [`head_len`]) and
/// pushes it to `out` if it survives — projected, or built by `whole` when
/// the head has no `Project`.
fn admit<C: Columns>(
    head: &[RowOp],
    cand: &C,
    whole: impl FnOnce() -> Row,
    out: &mut Vec<Row>,
    work: &mut u64,
) -> Result<(), RelError> {
    for stage in head {
        *work += 1;
        match stage {
            RowOp::Filter(pred) => {
                if !pred.eval_predicate(cand)? {
                    return Ok(());
                }
            }
            RowOp::Project(exprs) => {
                out.push(project(exprs, cand)?);
                return Ok(());
            }
            RowOp::Sort(_) | RowOp::Limit(_) => unreachable!("not part of a fused head"),
        }
    }
    out.push(whole());
    Ok(())
}

/// Why a key group's evaluation aborted.
enum Fatal {
    /// An operator's own expression failed (message names which).
    Op(String),
    /// A transform of an op's chain failed.
    Transform(ExecError),
}

impl From<ExecError> for Fatal {
    fn from(e: ExecError) -> Self {
        Fatal::Transform(e)
    }
}

/// What [`admit`] fails with: an expression of the fused head.
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

/// One operator's output: owned rows, or an alias back to its input when
/// the op passed rows through untouched (no copy per key group).
enum OpRows {
    Owned(Vec<Row>),
    Alias(RSource),
}

/// Follows alias chains: `Ok(op)` for an owned op output, `Err(stream)` for
/// a stream-backed source.
fn resolve(outputs: &[OpRows], mut src: RSource) -> Result<usize, usize> {
    loop {
        match src {
            RSource::Stream(s) => return Err(s),
            RSource::Op(o) => match &outputs[o] {
                OpRows::Owned(_) => return Ok(o),
                OpRows::Alias(a) => src = *a,
            },
        }
    }
}

/// One key group after dispatch: everything the operator DAG reads.
struct Group<'a> {
    reducer: &'a CommonReducer,
    values: GroupView<'a>,
    pad_cols: usize,
}

impl<'a> Group<'a> {
    fn stream(&self, s: usize) -> Rows<'a> {
        let r = self.reducer;
        if !r.tagged {
            // Direct mode: the single stream's rows ARE the group slice.
            return Rows {
                base: if s == 0 {
                    self.values
                } else {
                    GroupView::rows(&[])
                },
                pick: None,
                window: Window::Trim(self.pad_cols),
                map: None,
            };
        }
        match &r.plans[s] {
            StreamPlan::View { need, map } => Rows {
                base: self.values,
                pick: Some(&r.picks[s]),
                window: Window::Carried(*need),
                map: map.as_deref(),
            },
            StreamPlan::Computed => Rows::whole(&r.computed[s]),
        }
    }

    fn source<'b>(&'b self, outputs: &'b [OpRows], src: RSource) -> Rows<'b> {
        match resolve(outputs, src) {
            Err(s) => self.stream(s),
            Ok(o) => match &outputs[o] {
                OpRows::Owned(rows) => Rows::whole(rows),
                OpRows::Alias(_) => unreachable!("resolve returns owned ops"),
            },
        }
    }

    /// Evaluates the per-key operator DAG, in blueprint order.
    fn eval_ops(&self, work: &mut u64) -> Result<Vec<OpRows>, Fatal> {
        let ops = &self.reducer.blueprint.ops;
        let mut outputs: Vec<OpRows> = Vec::with_capacity(ops.len());
        for (op, &head_len) in ops.iter().zip(&self.reducer.head_lens) {
            let evaluated = self.eval_op(op, head_len, &outputs, work)?;
            outputs.push(evaluated);
        }
        Ok(outputs)
    }

    fn eval_op(
        &self,
        op: &ROp,
        head_len: usize,
        outputs: &[OpRows],
        work: &mut u64,
    ) -> Result<OpRows, Fatal> {
        let (head, tail) = op.transforms.split_at(head_len);
        let rows = match &op.kind {
            OpKind::Pass => {
                let input = self.source(outputs, op.inputs[0]);
                *work += input.len() as u64;
                if op.transforms.is_empty() {
                    // Untransformed pass-through: alias the input rather
                    // than copying every row of the group.
                    return Ok(OpRows::Alias(op.inputs[0]));
                }
                let mut rows = Vec::new();
                for row in input.iter() {
                    admit(head, &row, || row.to_row(), &mut rows, work)?;
                }
                apply_chain(tail, rows, work)?
            }
            OpKind::Agg {
                group_cols,
                aggs,
                having,
                merge_partials,
            } => {
                let input = self.source(outputs, op.inputs[0]);
                let rows = eval_agg(
                    input,
                    group_cols,
                    aggs,
                    having.as_ref(),
                    *merge_partials,
                    work,
                )
                .map_err(Fatal::Op)?;
                // Already owned rows: nothing for a fused head to save.
                apply_chain(&op.transforms, rows, work)?
            }
            OpKind::Join {
                kind,
                residual,
                left_width,
                right_width,
            } => {
                let join = Join {
                    left: self.source(outputs, op.inputs[0]),
                    right: self.source(outputs, op.inputs[1]),
                    kind: *kind,
                    residual: residual.as_ref(),
                    left_pad: self.null_view(*left_width),
                    right_pad: self.null_view(*right_width),
                    head,
                };
                apply_chain(tail, join.eval(work)?, work)?
            }
        };
        Ok(OpRows::Owned(rows))
    }

    fn null_view(&self, width: usize) -> RowView<'a> {
        RowView {
            vals: &self.reducer.nulls[..width],
            map: None,
        }
    }
}

impl CommonReducer {
    /// Creates the reducer for a blueprint.
    #[must_use]
    pub fn new(blueprint: Arc<JobBlueprint>) -> Self {
        let streams = blueprint.streams.len();
        let widest_pad = blueprint
            .ops
            .iter()
            .map(|op| match op.kind {
                OpKind::Join {
                    left_width,
                    right_width,
                    ..
                } => left_width.max(right_width),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        CommonReducer {
            tagged: blueprint.tagged(),
            plans: blueprint
                .streams
                .iter()
                .map(|spec| StreamPlan::of(&spec.projection))
                .collect(),
            head_lens: blueprint
                .ops
                .iter()
                .map(|op| head_len(&op.transforms))
                .collect(),
            picks: vec![Vec::new(); streams],
            computed: vec![Vec::new(); streams],
            nulls: vec![Value::Null; widest_pad],
            blueprint,
        }
    }

    /// Algorithm 1: one pass over the values, dispatch by (inverted) tag.
    /// Records positions, not rows; only computed projections materialise.
    fn dispatch(&mut self, values: GroupView<'_>, pad_cols: usize) -> Result<(), String> {
        let CommonReducer {
            blueprint: bp,
            plans,
            picks,
            computed,
            ..
        } = self;
        picks.iter_mut().for_each(Vec::clear);
        computed.iter_mut().for_each(Vec::clear);
        let failed = |err: String| format!("stream projection failed in {}: {err}", bp.name);
        for (i, v) in values.iter().enumerate() {
            let tag = v.first().and_then(Value::as_int).unwrap_or(0) as u64;
            let carried = v.get(1..v.len().saturating_sub(pad_cols)).unwrap_or(&[]);
            for (s, plan) in plans.iter().enumerate() {
                if tag & (1 << s) != 0 {
                    continue; // inverted tag: this stream must not see it
                }
                match plan {
                    StreamPlan::View { need, map } => {
                        if carried.len() < *need {
                            let missing = match map {
                                None => carried.len(),
                                Some(cols) => cols
                                    .iter()
                                    .copied()
                                    .find(|&c| c >= carried.len())
                                    .unwrap_or(carried.len()),
                            };
                            return Err(failed(format!("column {missing} out of range")));
                        }
                    }
                    StreamPlan::Computed => computed[s].push(
                        project(&bp.streams[s].projection, carried)
                            .map_err(|e| failed(e.to_string()))?,
                    ),
                }
                picks[s].push(i);
            }
        }
        Ok(())
    }
}

impl Reducer for CommonReducer {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        self.reduce_group(key.values(), GroupView::rows(values), out);
    }

    fn reduce_group(&mut self, _key: &[Value], values: GroupView<'_>, out: &mut ReduceOutput) {
        // The Pig-style serialisation pad (one trailing column) is never
        // stripped, only left out of every window onto a value.
        let pad_cols = usize::from(self.blueprint.pad_bytes > 0);
        // ---- hand-coded short-circuit (§VII-C case 4) ---------------------
        // The paper's hand-written reducer returns immediately when a
        // required input (e.g. the `orders` side with status 'F') has no
        // pairs for this key — *before* doing any per-value work. A cheap
        // tag-only pre-pass detects that; it costs roughly an eighth of a
        // full dispatch per value (an integer check vs. projection).
        if !self.blueprint.short_circuit_streams.is_empty() && self.tagged {
            let mut present = 0u64;
            for v in values.iter() {
                let tag = v.first().and_then(Value::as_int).unwrap_or(0) as u64;
                present |= !tag;
            }
            out.add_work(values.len() as u64 / 8);
            for &s in &self.blueprint.short_circuit_streams {
                if present & (1 << s) == 0 {
                    return;
                }
            }
        }

        if self.tagged {
            if let Err(msg) = self.dispatch(values, pad_cols) {
                out.record_fatal(msg);
                return;
            }
            for (s, pick) in self.picks.iter().enumerate() {
                if !pick.is_empty() {
                    out.record_dispatches(s, pick.len() as u64);
                    out.add_work(pick.len() as u64);
                }
            }
        } else {
            // Direct mode: every value of the group feeds the single stream.
            out.record_dispatches(0, values.len() as u64);
        }
        let group = Group {
            reducer: self,
            values,
            pad_cols,
        };
        let bp = &group.reducer.blueprint;

        // Direct-mode short-circuit (single stream): empty groups never
        // reach the reducer, so only the tagged path above can skip keys;
        // this residual check keeps semantics for hand-built blueprints.
        for &s in &bp.short_circuit_streams {
            if group.stream(s).is_empty() {
                return;
            }
        }

        let mut work = 0u64;
        let evaluated = group.eval_ops(&mut work);
        out.add_work(work);
        let mut outputs = match evaluated {
            Ok(outputs) => outputs,
            Err(fatal) => {
                out.record_fatal(fatal.message(&bp.name));
                return;
            }
        };

        // ---- emit only the final source(s) (§VI-B) -------------------------
        // Typed rows, not pre-rendered lines: the engine renders text or
        // packs columnar frames depending on the job's data format. An
        // emit source that resolves to an op's owned output is *moved*
        // out, not cloned — for intermediate jobs this is the entire next
        // job's input; stream-backed emits are where a view is finally
        // copied.
        let (sources, tagged_emit) = match &bp.emit {
            EmitSpec::Single(src) => (std::slice::from_ref(src), false),
            EmitSpec::Tagged(srcs) => (srcs.as_slice(), true),
        };
        for (i, &src) in sources.iter().enumerate() {
            let tag = tagged_emit.then_some(i as i64);
            let mut emit = |row: Row| match tag {
                Some(tag) => out.emit_tagged_row(tag, row),
                None => out.emit_row(row),
            };
            match resolve(&outputs, src) {
                Err(s) => group.stream(s).iter().for_each(|v| emit(v.to_row())),
                Ok(o) => {
                    // Move only the last emit backed by this op — an
                    // earlier take would empty a repeated source.
                    let again = sources[i + 1..]
                        .iter()
                        .any(|&later| resolve(&outputs, later) == Ok(o));
                    let OpRows::Owned(rows) = &mut outputs[o] else {
                        unreachable!("resolve returns owned ops")
                    };
                    if again {
                        rows.iter().cloned().for_each(&mut emit);
                    } else {
                        std::mem::take(rows).into_iter().for_each(&mut emit);
                    }
                }
            }
        }
    }
}

/// Grouped aggregation within one key group. The group is almost always
/// the reduce key itself, so rows accumulate into a single current group,
/// recognised by comparing the row's group columns in place; the ordered
/// map only comes into play when a second group key appears (Q-CSA's AGG1
/// groups by `(uid, ts1)` inside a `uid` partition), and then holds every
/// group but the current one.
fn eval_agg(
    input: Rows<'_>,
    group_cols: &[usize],
    aggs: &[(AggFunc, Option<Expr>)],
    having: Option<&Expr>,
    merge_partials: bool,
    work: &mut u64,
) -> Result<Vec<Row>, String> {
    let update = |states: &mut [AggState], row: &RowView<'_>| -> Result<(), String> {
        if merge_partials {
            // Partial fields follow the group columns in combiner layout.
            let mut offset = group_cols.len();
            for (state, (func, _)) in states.iter_mut().zip(aggs) {
                decode_partial(*func, row, offset)
                    .and_then(|partial| state.merge(&partial))
                    .map_err(|e| format!("partial merge failed: {e}"))?;
                offset += PartialAgg::partial_width(*func);
            }
            Ok(())
        } else {
            update_states(states, aggs, row).map_err(|e| format!("aggregation failed: {e}"))
        }
    };
    let mut current: Option<(Vec<Value>, Vec<AggState>)> = None;
    let mut others: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    for row in input.iter() {
        *work += 1;
        let group_val = |&c: &usize| row.col(c).unwrap_or(&Value::Null);
        let same_group = current
            .as_ref()
            .is_some_and(|(key, _)| group_cols.iter().map(group_val).eq(key));
        if !same_group {
            // Sized for the output row it ends up as: group, then aggregates.
            let mut key = Vec::with_capacity(group_cols.len() + aggs.len());
            key.extend(group_cols.iter().map(group_val).cloned());
            let next = others
                .remove_entry(&key)
                .unwrap_or_else(|| (key, aggs.iter().map(|(f, _)| f.new_state()).collect()));
            if let Some((key, states)) = current.replace(next) {
                others.insert(key, states);
            }
        }
        let (_, states) = current.as_mut().expect("set for this row's group");
        update(states, &row)?;
    }
    // Groups leave in key order; a lone group never touches the map.
    if !others.is_empty() {
        others.extend(current.take());
    }
    let mut out = Vec::with_capacity(others.len() + 1);
    for (group, states) in current.into_iter().chain(others) {
        let mut vals = group;
        vals.extend(states.iter().map(AggState::finish));
        let row = Row::new(vals);
        let keep = match having {
            None => true,
            Some(h) => h
                .eval_predicate(&row)
                .map_err(|e| format!("HAVING failed: {e}"))?,
        };
        if keep {
            out.push(row);
        }
    }
    Ok(out)
}

/// Equi-join within one key group: the partition key is the full equi-key,
/// so every left row pairs with every right row; the residual predicate and
/// outer-join padding do the rest. The residual and the fused head are
/// evaluated on the pair as two views side by side, so a pair is only
/// concatenated — or projected straight to its final width — once it has
/// survived both.
struct Join<'a> {
    left: Rows<'a>,
    right: Rows<'a>,
    kind: JoinKind,
    residual: Option<&'a Expr>,
    /// All-NULL stand-ins for the missing side of an outer-join row.
    left_pad: RowView<'a>,
    right_pad: RowView<'a>,
    head: &'a [RowOp],
}

impl Join<'_> {
    fn eval(&self, work: &mut u64) -> Result<Vec<Row>, Fatal> {
        let mut out = Vec::new();
        let mut emit = |l: RowView<'_>, r: RowView<'_>, work: &mut u64| {
            let concat = || {
                let mut vals = Vec::with_capacity(l.width() + r.width());
                l.extend_into(&mut vals);
                r.extend_into(&mut vals);
                Row::new(vals)
            };
            admit(self.head, &(l, r), concat, &mut out, work)
        };
        let pads_left = matches!(self.kind, JoinKind::RightOuter | JoinKind::FullOuter);
        let pads_right = matches!(self.kind, JoinKind::LeftOuter | JoinKind::FullOuter);
        let mut right_matched = vec![false; if pads_left { self.right.len() } else { 0 }];
        for l in self.left.iter() {
            let mut matched = false;
            for (ri, r) in self.right.iter().enumerate() {
                *work += 1;
                let pass = match self.residual {
                    None => true,
                    Some(p) => p
                        .eval_predicate(&(l, r))
                        .map_err(|e| Fatal::Op(format!("join residual failed: {e}")))?,
                };
                if pass {
                    matched = true;
                    if pads_left {
                        right_matched[ri] = true;
                    }
                    emit(l, r, work)?;
                }
            }
            if !matched && pads_right {
                emit(l, self.right_pad, work)?;
            }
        }
        for (ri, r) in self.right.iter().enumerate() {
            if pads_left && !right_matched[ri] {
                emit(self.left_pad, r, work)?;
            }
        }
        Ok(out)
    }
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
            combiner: None,
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
        out.into_lines()
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
