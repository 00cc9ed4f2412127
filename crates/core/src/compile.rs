//! Compiles drafts into executable [`JobBlueprint`]s.
//!
//! Conventions:
//!
//! * **Interface rows.** The rows flowing between operators carry only the
//!   columns some consumer reads: [`compile`] first runs
//!   [`ysmart_plan::prune()`], and the rows are then exactly the pruned plan's
//!   schemas — an operator's input rows are its plan children's output rows.
//!   A scan's map side parses and ships only its kept columns; a join
//!   outputs only the columns it carries (`OpKind::Join::columns`); a
//!   `Filter` or `Sort` drops the columns only it reads with a column
//!   selection, which a projection right after absorbs. Pipe operators
//!   (`Filter`/`Project`/`Limit`) between a producer and its consumer are
//!   folded into the *producer*: into the scan-side predicate/projection
//!   when the producer is a base-table scan, into the producer op's output
//!   transforms otherwise. A job therefore publishes rows in the schema its
//!   consumer's plan child has.
//! * **Shuffle keys.** Each input's key expressions evaluate the consuming
//!   operator's partition key on that input's rows: join-side keys for
//!   joins, the chosen PK subset of the grouping columns for aggregations,
//!   empty (single reducer) for sorts and global aggregations.
//! * **Equi-keys re-checked.** Join ops re-verify key equality as part of
//!   the residual. Within a reduce group keys are equal by construction,
//!   *except* for SQL NULLs: hash partitioning co-locates NULL keys but SQL
//!   says `NULL = NULL` is unknown, so the explicit check also gives outer
//!   joins their correct NULL-key behaviour.
//! * **Multi-output jobs.** A Rule-1-merged job whose operations are *not*
//!   consumed in-job (no JFC) publishes all their outputs into one file,
//!   each line tagged with its operation index; consumers filter by tag
//!   (§VI-B).

use std::collections::{BTreeSet, HashMap};

use ysmart_exec::{
    EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, RSource, RowOp, StreamSpec,
};
use ysmart_plan::{prune, CorrelationReport, NodeId, Operator, Plan};
use ysmart_rel::{BinOp, Expr, Schema};

use crate::draft::{build_drafts, Draft};
use crate::error::CoreError;
use crate::options::TranslateOptions;

/// The result of translating one query.
#[derive(Debug)]
pub struct Translation {
    /// The jobs, in execution order.
    pub blueprints: Vec<JobBlueprint>,
    /// HDFS path of the final result.
    pub output_path: String,
    /// Schema of the final result rows.
    pub output_schema: Schema,
}

impl Translation {
    /// Number of MapReduce jobs — the quantity YSmart minimises.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.blueprints.len()
    }

    /// Renders the job pipeline as an `EXPLAIN`-style text description:
    /// per job its inputs (with the columns each carries, selections and
    /// shared-scan branches), the reduce-side operator DAG (merged reducers
    /// and post-job computations), and what it publishes.
    #[must_use]
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, bp) in self.blueprints.iter().enumerate() {
            let _ = writeln!(out, "Job {}/{}: {}", i + 1, self.blueprints.len(), bp.name);
            for input in &bp.inputs {
                let tag = input
                    .tag_filter
                    .map(|t| format!(" [tag {t}]"))
                    .unwrap_or_default();
                let keys: Vec<String> = input.key_exprs.iter().map(ToString::to_string).collect();
                let _ = writeln!(
                    out,
                    "  scan {}{} key=({})",
                    input.path,
                    tag,
                    keys.join(", ")
                );
                let carried: Vec<&str> = input
                    .value_cols
                    .iter()
                    .map(|&c| &*input.schema.field(c).name)
                    .collect();
                let _ = writeln!(out, "    carries {}: {}", input.path, carried.join(", "));
                for b in &input.branches {
                    match &b.predicate {
                        Some(p) => {
                            let _ = writeln!(out, "    -> stream {} where {p}", b.stream);
                        }
                        None => {
                            let _ = writeln!(out, "    -> stream {}", b.stream);
                        }
                    }
                }
            }
            if bp.map_only {
                let _ = writeln!(out, "  map-only (SELECTION-PROJECTION)");
            }
            for (k, op) in bp.ops.iter().enumerate() {
                let srcs: Vec<String> = op
                    .inputs
                    .iter()
                    .map(|s| match s {
                        RSource::Stream(i) => format!("stream {i}"),
                        RSource::Op(i) => format!("op {i}"),
                    })
                    .collect();
                let kind = match &op.kind {
                    OpKind::Join {
                        kind,
                        left_width,
                        right_width,
                        columns,
                        ..
                    } => {
                        let width = left_width + right_width;
                        if columns.len() < width {
                            format!("{kind} (carries {} of {width} cols)", columns.len())
                        } else {
                            format!("{kind}")
                        }
                    }
                    OpKind::Agg {
                        group_cols, aggs, ..
                    } => format!("AGGREGATE by {group_cols:?} ({} aggs)", aggs.len()),
                    OpKind::Pass => "PASS".to_string(),
                };
                let post = if op.inputs.iter().any(|s| matches!(s, RSource::Op(_))) {
                    " (post-job computation)"
                } else {
                    ""
                };
                let _ = writeln!(out, "  op {k}: {kind} <- {}{post}", srcs.join(", "));
                for tr in &op.transforms {
                    let name = match tr {
                        RowOp::Filter(p) => format!("filter {p}"),
                        RowOp::Project(es) => format!("project {} cols", es.len()),
                        RowOp::Sort(ks) => format!("sort {} keys", ks.len()),
                        RowOp::Limit(n) => format!("limit {n}"),
                    };
                    let _ = writeln!(out, "       | {name}");
                }
            }
            let emit = match &bp.emit {
                EmitSpec::Single(RSource::Op(i)) => format!("op {i}"),
                EmitSpec::Single(RSource::Stream(i)) => format!("stream {i}"),
                EmitSpec::Tagged(srcs) => format!("{} tagged sources", srcs.len()),
            };
            let _ = writeln!(out, "  emit {emit} -> {}", bp.output);
            if bp.combiner().is_some() {
                let _ = writeln!(out, "  with map-side combiner");
            }
        }
        out
    }
}

/// What a producer published for its consumers.
#[derive(Debug, Clone)]
struct Published {
    path: String,
    tag: Option<i64>,
    schema: Schema,
}

/// Where a consumer's child chain ends.
enum ChainEnd {
    Scan {
        scan: NodeId,
        predicate: Option<Expr>,
        /// Interface row expressed over the base schema.
        interface: Vec<Expr>,
    },
    Shuffle {
        node: NodeId,
        /// Pipe transforms between the producer and this consumer,
        /// bottom-up (to append to the producer's op).
        transforms: Vec<RowOp>,
    },
}

/// Compiles a plan + correlation report into a job pipeline. The plan is
/// pruned first ([`ysmart_plan::prune()`]), so every row carries only the
/// columns some consumer reads; pruning moves no partition key, so `report`
/// may be that of the plan before or after it.
///
/// # Errors
///
/// Unsupported shapes (e.g. `LIMIT` on a parallel-reduce job) and internal
/// blueprint validation failures.
pub fn compile(
    plan: &Plan,
    report: &CorrelationReport,
    opts: &TranslateOptions,
    query_tag: &str,
) -> Result<Translation, CoreError> {
    lower(&prune(plan), report, opts, query_tag)
}

/// Compiles `plan` as it is, pruned or not.
fn lower(
    plan: &Plan,
    report: &CorrelationReport,
    opts: &TranslateOptions,
    query_tag: &str,
) -> Result<Translation, CoreError> {
    let root_schema = plan.node(plan.root()).schema.clone();
    let output_path = format!("out/{query_tag}");

    // A plan with no shuffle node is a pure SELECTION-PROJECTION query:
    // one map-only job (§V-A).
    if report.nodes.is_empty() {
        let bp = compile_map_only(plan, plan.root(), opts, &output_path)?;
        return Ok(Translation {
            blueprints: vec![bp],
            output_path,
            output_schema: root_schema,
        });
    }

    let drafts = build_drafts(plan, report, opts);
    let parents = plan.parents();
    let mut published: HashMap<NodeId, Published> = HashMap::new();
    let mut blueprints = Vec::with_capacity(drafts.len());
    let last = drafts.len() - 1;
    for (i, draft) in drafts.iter().enumerate() {
        let out_path = if i == last {
            output_path.clone()
        } else {
            format!("tmp/{query_tag}/job{}", i + 1)
        };
        let bp = compile_draft(
            plan,
            report,
            opts,
            draft,
            i + 1,
            &parents,
            &mut published,
            &out_path,
        )?;
        bp.validate().map_err(CoreError::Exec)?;
        blueprints.push(bp);
    }
    Ok(Translation {
        blueprints,
        output_path,
        output_schema: root_schema,
    })
}

/// Resolves the chain from a consumer's direct plan child down to its
/// producer, folding pipe operators.
fn resolve_chain(plan: &Plan, child: NodeId) -> Result<ChainEnd, CoreError> {
    // Walk down collecting pipes (top-down), then fold.
    let mut pipes_top_down: Vec<NodeId> = Vec::new();
    let mut cur = child;
    loop {
        let node = plan.node(cur);
        match &node.op {
            Operator::Scan { .. } => break,
            op if op.needs_shuffle() => break,
            _ => {
                pipes_top_down.push(cur);
                cur = node.children[0];
            }
        }
    }
    let node = plan.node(cur);
    if node.op.needs_shuffle() {
        // Fold pipes into RowOps, bottom-up.
        let mut transforms = Vec::new();
        for &p in pipes_top_down.iter().rev() {
            pipe_rowops(plan, p, &mut transforms)?;
        }
        return Ok(ChainEnd::Shuffle {
            node: cur,
            transforms,
        });
    }
    // Scan chain: compose predicate + interface projection over the base.
    let Operator::Scan {
        predicate, columns, ..
    } = &node.op
    else {
        unreachable!("chain ends at scan or shuffle");
    };
    let mut interface: Vec<Expr> = columns.iter().map(|&c| Expr::Column(c)).collect();
    let mut preds: Vec<Expr> = predicate.clone().into_iter().collect();
    for &p in pipes_top_down.iter().rev() {
        match &plan.node(p).op {
            Operator::Filter { predicate, columns } => {
                preds.push(predicate.substitute(&interface));
                interface = columns.iter().map(|&c| interface[c].clone()).collect();
            }
            Operator::Project { exprs } => {
                interface = exprs.iter().map(|e| e.substitute(&interface)).collect();
            }
            Operator::Limit { .. } => {
                return Err(CoreError::Translate(
                    "LIMIT directly over a table scan is not supported".into(),
                ))
            }
            other => {
                return Err(CoreError::Translate(format!(
                    "unexpected pipe operator {}",
                    other.name()
                )))
            }
        }
    }
    Ok(ChainEnd::Scan {
        scan: cur,
        predicate: Expr::conjunction(preds),
        interface,
    })
}

/// Appends the row transforms of a pipe node to `out`.
fn pipe_rowops(plan: &Plan, pipe: NodeId, out: &mut Vec<RowOp>) -> Result<(), CoreError> {
    let node = plan.node(pipe);
    match &node.op {
        Operator::Filter { predicate, columns } => {
            out.push(RowOp::Filter(predicate.clone()));
            let width = plan.node(node.children[0]).schema.len();
            out.extend(narrowing(columns, width));
        }
        Operator::Project { exprs } => push_transform(out, RowOp::Project(exprs.clone())),
        Operator::Limit { n } => out.push(RowOp::Limit(*n as usize)),
        other => {
            return Err(CoreError::Translate(format!(
                "unexpected pipe operator {}",
                other.name()
            )))
        }
    }
    Ok(())
}

/// Appends `op` to a transform chain. A projection right after a column
/// selection (a `Filter` or `Sort` narrowing its row) is folded into it, so
/// the rows are passed over once, not twice.
fn push_transform(chain: &mut Vec<RowOp>, op: RowOp) {
    if let (RowOp::Project(exprs), Some(RowOp::Project(prev))) = (&op, chain.last_mut()) {
        if prev.iter().all(|e| matches!(e, Expr::Column(_))) {
            let composed = exprs.iter().map(|e| e.substitute(prev)).collect();
            *prev = composed;
            return;
        }
    }
    chain.push(op);
}

/// The projection that narrows a computed row of `width` columns to the
/// `columns` its node carries; `None` when it carries all of them.
fn narrowing(columns: &[usize], width: usize) -> Option<RowOp> {
    let all = columns.len() == width && columns.iter().enumerate().all(|(i, &c)| i == c);
    (!all).then(|| RowOp::Project(columns.iter().map(|&c| Expr::Column(c)).collect()))
}

/// The pipe nodes above `node` up to (excluding) the next shuffle node,
/// bottom-up — they run as output transforms of `node`'s op.
fn pipes_above(plan: &Plan, parents: &[Option<NodeId>], node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut cur = parents[node.0];
    while let Some(p) = cur {
        if plan.node(p).op.needs_shuffle() {
            break;
        }
        out.push(p);
        cur = parents[p.0];
    }
    out
}

/// The published interface schema of a producer: the schema of the topmost
/// pipe below its next shuffle ancestor (or the plan root).
fn published_schema(plan: &Plan, parents: &[Option<NodeId>], node: NodeId) -> Schema {
    let pipes = pipes_above(plan, parents, node);
    match pipes.last() {
        Some(&top) => plan.node(top).schema.clone(),
        None => plan.node(node).schema.clone(),
    }
}

/// The partition-key column indexes of `node` as seen on the rows of its
/// `child_pos`-th input (0 = left/only, 1 = right).
fn key_cols_for(
    plan: &Plan,
    report: &CorrelationReport,
    node: NodeId,
    child_pos: usize,
) -> Vec<usize> {
    match &plan.node(node).op {
        Operator::Join {
            left_keys,
            right_keys,
            ..
        } => {
            if child_pos == 0 {
                left_keys.clone()
            } else {
                right_keys.clone()
            }
        }
        Operator::Aggregate { group_by, .. } => {
            let info = report.info(node);
            if group_by.is_empty() {
                Vec::new()
            } else if info.pk_group_positions.is_empty() {
                group_by.clone()
            } else {
                info.pk_group_positions
                    .iter()
                    .map(|&p| group_by[p])
                    .collect()
            }
        }
        Operator::Distinct => (0..plan.node(plan.node(node).children[0]).schema.len()).collect(),
        // Sorts funnel everything to a single reducer.
        Operator::Sort { .. } => Vec::new(),
        _ => Vec::new(),
    }
}

/// Builds the reduce-side operator for a shuffle node. Sources are filled
/// by the caller.
fn build_op(plan: &Plan, node: NodeId, inputs: Vec<RSource>) -> ROp {
    match &plan.node(node).op {
        Operator::Join {
            kind,
            left_keys,
            right_keys,
            residual,
            columns,
        } => {
            let left_width = plan.node(plan.node(node).children[0]).schema.len();
            let right_width = plan.node(plan.node(node).children[1]).schema.len();
            // Re-check key equality explicitly (NULL keys must not join).
            let mut conjuncts: Vec<Expr> = left_keys
                .iter()
                .zip(right_keys)
                .map(|(&l, &r)| Expr::binary(BinOp::Eq, Expr::col(l), Expr::col(left_width + r)))
                .collect();
            conjuncts.extend(residual.clone());
            ROp {
                kind: OpKind::Join {
                    kind: *kind,
                    residual: Expr::conjunction(conjuncts),
                    left_width,
                    right_width,
                    columns: columns.clone(),
                },
                inputs,
                transforms: vec![],
            }
        }
        Operator::Aggregate {
            group_by,
            aggs,
            having,
        } => ROp {
            kind: OpKind::Agg {
                group_cols: group_by.clone(),
                aggs: aggs.iter().map(|a| (a.func, a.arg.clone())).collect(),
                having: having.clone(),
                merge_partials: false,
            },
            inputs,
            transforms: vec![],
        },
        Operator::Distinct => {
            let width = plan.node(plan.node(node).children[0]).schema.len();
            ROp {
                kind: OpKind::Agg {
                    group_cols: (0..width).collect(),
                    aggs: vec![],
                    having: None,
                    merge_partials: false,
                },
                inputs,
                transforms: vec![],
            }
        }
        Operator::Sort { keys, columns } => {
            let width = plan.node(plan.node(node).children[0]).schema.len();
            ROp {
                kind: OpKind::Pass,
                inputs,
                transforms: std::iter::once(RowOp::Sort(keys.clone()))
                    .chain(narrowing(columns, width))
                    .collect(),
            }
        }
        other => unreachable!("not a shuffle op: {}", other.name()),
    }
}

/// An input being assembled: branches keep their interface expressions
/// until all branches are known, then the union value columns are fixed.
struct PendingInput {
    path: String,
    schema: Schema,
    key_exprs: Vec<Expr>,
    tag_filter: Option<i64>,
    branches: Vec<(usize, Option<Expr>, Vec<Expr>)>, // (stream, predicate, interface over base)
}

#[allow(clippy::too_many_arguments)]
fn compile_draft(
    plan: &Plan,
    report: &CorrelationReport,
    opts: &TranslateOptions,
    draft: &Draft,
    seq: usize,
    parents: &[Option<NodeId>],
    published: &mut HashMap<NodeId, Published>,
    out_path: &str,
) -> Result<JobBlueprint, CoreError> {
    let mut pending_inputs: Vec<PendingInput> = Vec::new();
    let mut streams: Vec<StreamSpec> = Vec::new(); // placeholder projections fixed later
    let mut stream_count = 0usize;
    let mut ops: Vec<ROp> = Vec::new();
    let mut op_index: HashMap<NodeId, usize> = HashMap::new();

    let in_draft: BTreeSet<NodeId> = draft.nodes.iter().copied().collect();

    for &node in &draft.nodes {
        let children = plan.node(node).children.clone();
        let mut sources: Vec<RSource> = Vec::new();
        for (child_pos, &child) in children.iter().enumerate() {
            let key_cols = key_cols_for(plan, report, node, child_pos);
            match resolve_chain(plan, child)? {
                ChainEnd::Shuffle {
                    node: producer,
                    transforms,
                } if in_draft.contains(&producer) => {
                    // In-job source: append the pipe transforms to the
                    // producer's op.
                    let idx = op_index[&producer];
                    for t in transforms {
                        push_transform(&mut ops[idx].transforms, t);
                    }
                    sources.push(RSource::Op(idx));
                }
                ChainEnd::Shuffle { node: producer, .. } => {
                    // Cross-job source: read the producer's published file.
                    let pb = published.get(&producer).ok_or_else(|| {
                        CoreError::Translate(format!("producer {producer} has no published output"))
                    })?;
                    let width = pb.schema.len();
                    let interface: Vec<Expr> = (0..width).map(Expr::Column).collect();
                    let key_exprs: Vec<Expr> = key_cols.iter().map(|&k| Expr::col(k)).collect();
                    let stream = stream_count;
                    stream_count += 1;
                    streams.push(StreamSpec { projection: vec![] });
                    add_branch(
                        &mut pending_inputs,
                        &pb.path.clone(),
                        pb.schema.clone(),
                        key_exprs,
                        pb.tag,
                        stream,
                        None,
                        interface,
                        // Intermediate inputs are never shared between
                        // branches of different shapes; still dedupe when
                        // identical (e.g. the same subquery read twice).
                        true,
                    );
                    sources.push(RSource::Stream(stream));
                }
                ChainEnd::Scan {
                    scan,
                    predicate,
                    interface,
                } => {
                    let Operator::Scan { table, base, .. } = &plan.node(scan).op else {
                        unreachable!()
                    };
                    let schema = Schema::clone(base);
                    let key_exprs: Vec<Expr> =
                        key_cols.iter().map(|&k| interface[k].clone()).collect();
                    let stream = stream_count;
                    stream_count += 1;
                    streams.push(StreamSpec { projection: vec![] });
                    add_branch(
                        &mut pending_inputs,
                        &ysmart_mapred::Cluster::table_path(table),
                        schema,
                        key_exprs,
                        None,
                        stream,
                        predicate,
                        interface,
                        opts.shared_scan,
                    );
                    sources.push(RSource::Stream(stream));
                }
            }
        }
        op_index.insert(node, ops.len());
        ops.push(build_op(plan, node, sources));
    }

    // ---- finalise inputs: union value columns, remap projections ----------
    let mut inputs: Vec<InputSpec> = Vec::new();
    for p in pending_inputs {
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for (_, _, interface) in &p.branches {
            for e in interface {
                used.extend(e.referenced_columns());
            }
        }
        let value_cols: Vec<usize> = used.into_iter().collect();
        let pos_of: HashMap<usize, usize> = value_cols
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        let mut branches = Vec::new();
        for (stream, predicate, interface) in p.branches {
            let projection: Vec<Expr> = interface
                .iter()
                .map(|e| e.remap_columns(&|c| pos_of[&c]))
                .collect();
            streams[stream] = StreamSpec { projection };
            branches.push(MapBranch { stream, predicate });
        }
        inputs.push(InputSpec {
            path: p.path,
            schema: p.schema,
            key_exprs: p.key_exprs,
            value_cols,
            branches,
            tag_filter: p.tag_filter,
        });
    }

    // ---- roots, output transforms, emit ------------------------------------
    let roots: Vec<NodeId> = draft
        .nodes
        .iter()
        .copied()
        .filter(|&n| match parents[n.0] {
            None => true,
            Some(_) => {
                // A node is a root if no other node *in this draft* consumes
                // its output (directly or through pipes).
                let mut cur = parents[n.0];
                loop {
                    match cur {
                        None => break true,
                        Some(p) if plan.node(p).op.needs_shuffle() => break !in_draft.contains(&p),
                        Some(p) => cur = parents[p.0],
                    }
                }
            }
        })
        .collect();
    for &root in &roots {
        let idx = op_index[&root];
        for &pipe in &pipes_above(plan, parents, root) {
            pipe_rowops(plan, pipe, &mut ops[idx].transforms)?;
        }
    }
    let emit = if roots.len() == 1 {
        EmitSpec::Single(RSource::Op(op_index[&roots[0]]))
    } else {
        EmitSpec::Tagged(roots.iter().map(|r| RSource::Op(op_index[r])).collect())
    };
    for (tag, &root) in roots.iter().enumerate() {
        published.insert(
            root,
            Published {
                path: out_path.to_string(),
                tag: if roots.len() == 1 {
                    None
                } else {
                    Some(tag as i64)
                },
                schema: published_schema(plan, parents, root),
            },
        );
    }

    // ---- reduce-task count --------------------------------------------------
    let key_arity = inputs.first().map_or(0, |i| i.key_exprs.len());
    for input in &inputs {
        if input.key_exprs.len() != key_arity {
            return Err(CoreError::Translate(format!(
                "job {seq}: inputs disagree on key arity ({} vs {})",
                input.key_exprs.len(),
                key_arity
            )));
        }
    }
    let needs_single_reducer = key_arity == 0
        || ops.iter().any(|op| {
            op.transforms
                .iter()
                .any(|t| matches!(t, RowOp::Sort(_) | RowOp::Limit(_)))
        });
    let reduce_tasks = if needs_single_reducer { Some(1) } else { None };

    // ---- combiner (map-side hash aggregation, footnote 2) -------------------
    // A merging aggregation is what installs the job's combiner.
    let single_stream = stream_count == 1 && inputs.len() == 1 && inputs[0].branches.len() == 1;
    if opts.combiner && opts.value_pad_bytes == 0 && single_stream && ops.len() == 1 {
        if let OpKind::Agg {
            aggs,
            merge_partials,
            ..
        } = &mut ops[0].kind
        {
            *merge_partials = !aggs.is_empty() && aggs.iter().all(|(f, _)| f.combinable());
        }
    }

    // ---- short-circuit streams (hand-coded mode) ----------------------------
    let mut short_circuit_streams = Vec::new();
    if opts.short_circuit {
        // Streams that feed an inner join directly: an empty side means the
        // key can produce no output along that path (§VII-C case 4). Sound
        // only when every root consumes the join's output through
        // inner-join/aggregation chains, which holds for the merged
        // subtrees the paper hand-codes; we conservatively require a single
        // root.
        if roots.len() == 1 {
            for op in &ops {
                if let OpKind::Join {
                    kind: ysmart_plan::JoinKind::Inner,
                    ..
                } = op.kind
                {
                    for src in &op.inputs {
                        if let RSource::Stream(s) = src {
                            short_circuit_streams.push(*s);
                        }
                    }
                }
            }
        }
    }

    // Statistics-informed reduce sizing: the job's key space is the
    // anchor operations' shared partition key; the smallest estimate over
    // the merged nodes bounds useful reducer counts.
    let key_cardinality = draft
        .nodes
        .iter()
        .filter_map(|n| report.info(*n).estimated_keys)
        .min();

    let labels: Vec<String> = draft
        .nodes
        .iter()
        .map(|n| format!("{}{}", plan.node(*n).op.name(), n))
        .collect();
    Ok(JobBlueprint {
        name: format!("J{seq}[{}]", labels.join("+")),
        inputs,
        streams,
        ops,
        emit,
        output: out_path.to_string(),
        reduce_tasks,
        map_only: false,
        short_circuit_streams,
        pad_bytes: opts.value_pad_bytes,
        key_cardinality,
    })
}

/// Adds a branch to an existing compatible input (same path, key, tag) or
/// creates a new input. `allow_share` gates the shared-scan optimisation.
#[allow(clippy::too_many_arguments)]
fn add_branch(
    pending: &mut Vec<PendingInput>,
    path: &str,
    schema: Schema,
    key_exprs: Vec<Expr>,
    tag_filter: Option<i64>,
    stream: usize,
    predicate: Option<Expr>,
    interface: Vec<Expr>,
    allow_share: bool,
) {
    if allow_share {
        if let Some(p) = pending
            .iter_mut()
            .find(|p| p.path == path && p.key_exprs == key_exprs && p.tag_filter == tag_filter)
        {
            p.branches.push((stream, predicate, interface));
            return;
        }
    }
    pending.push(PendingInput {
        path: path.to_string(),
        schema,
        key_exprs,
        tag_filter,
        branches: vec![(stream, predicate, interface)],
    });
}

/// Compiles a shuffle-free plan (selection/projection only) into one
/// map-only job.
fn compile_map_only(
    plan: &Plan,
    start: NodeId,
    opts: &TranslateOptions,
    out_path: &str,
) -> Result<JobBlueprint, CoreError> {
    let ChainEnd::Scan {
        scan,
        predicate,
        interface,
    } = resolve_chain(plan, start)?
    else {
        return Err(CoreError::Translate(
            "map-only compilation requires a scan chain".into(),
        ));
    };
    let Operator::Scan { table, base, .. } = &plan.node(scan).op else {
        unreachable!()
    };
    let schema = Schema::clone(base);
    let used: BTreeSet<usize> = interface
        .iter()
        .flat_map(Expr::referenced_columns)
        .collect();
    let value_cols: Vec<usize> = used.into_iter().collect();
    let pos_of: HashMap<usize, usize> = value_cols
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i))
        .collect();
    let projection: Vec<Expr> = interface
        .iter()
        .map(|e| e.remap_columns(&|c| pos_of[&c]))
        .collect();
    Ok(JobBlueprint {
        name: format!("J1[SP:{table}]"),
        inputs: vec![InputSpec {
            path: ysmart_mapred::Cluster::table_path(table),
            schema,
            key_exprs: vec![],
            value_cols,
            branches: vec![MapBranch {
                stream: 0,
                predicate,
            }],
            tag_filter: None,
        }],
        streams: vec![StreamSpec { projection }],
        ops: vec![],
        emit: EmitSpec::Single(RSource::Stream(0)),
        output: out_path.to_string(),
        reduce_tasks: None,
        map_only: true,
        short_circuit_streams: vec![],
        pad_bytes: opts.value_pad_bytes,
        key_cardinality: None,
    })
}

/// A dummy schema field list for tests.
#[cfg(test)]
pub(crate) fn int_schema(q: &str, cols: &[&str]) -> Schema {
    use ysmart_rel::{DataType, Field};
    Schema::new(
        cols.iter()
            .map(|c| Field::new(q, c, DataType::Int))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Strategy;
    use ysmart_plan::{analyze, build_plan, Catalog};
    use ysmart_sql::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "clicks",
            int_schema("clicks", &["uid", "page_id", "cid", "ts"]),
        );
        c.add_table(
            "lineitem",
            int_schema(
                "lineitem",
                &[
                    "l_orderkey",
                    "l_partkey",
                    "l_suppkey",
                    "l_quantity",
                    "l_extendedprice",
                ],
            ),
        );
        c.add_table("part", int_schema("part", &["p_partkey", "p_size"]));
        c
    }

    fn translate(sql: &str, strategy: Strategy) -> Translation {
        let plan = build_plan(&catalog(), &parse(sql).unwrap()).unwrap();
        let report = analyze(&plan);
        compile(&plan, &report, &strategy.options(), "q").unwrap()
    }

    #[test]
    fn map_only_sp_query() {
        let t = translate("SELECT uid, ts FROM clicks WHERE cid = 3", Strategy::YSmart);
        assert_eq!(t.job_count(), 1);
        assert!(t.blueprints[0].map_only);
        assert_eq!(t.output_schema.len(), 2);
    }

    #[test]
    fn single_agg_job_gets_combiner() {
        let t = translate(
            "SELECT cid, count(*) FROM clicks GROUP BY cid",
            Strategy::Hive,
        );
        assert_eq!(t.job_count(), 1);
        assert!(t.blueprints[0].combiner().is_some());
        // Pig: no combiner, padded values.
        let t = translate(
            "SELECT cid, count(*) FROM clicks GROUP BY cid",
            Strategy::Pig,
        );
        assert!(t.blueprints[0].combiner().is_none());
        assert!(t.blueprints[0].pad_bytes > 0);
    }

    #[test]
    fn count_distinct_disables_combiner() {
        let t = translate(
            "SELECT cid, count(distinct uid) FROM clicks GROUP BY cid",
            Strategy::Hive,
        );
        assert!(t.blueprints[0].combiner().is_none());
    }

    #[test]
    fn self_join_shares_scan_under_ysmart_not_hive() {
        let sql = "SELECT c1.uid, count(*) FROM clicks AS c1, clicks AS c2 \
                   WHERE c1.uid = c2.uid AND c1.cid = 1 AND c2.cid = 2 GROUP BY c1.uid";
        let ys = translate(sql, Strategy::YSmart);
        // Join + agg merged (JFC), single input on clicks (shared scan).
        let join_job = &ys.blueprints[0];
        assert_eq!(
            join_job
                .inputs
                .iter()
                .filter(|i| i.path == "data/clicks")
                .count(),
            1,
            "shared scan: {join_job:?}"
        );
        assert_eq!(join_job.inputs[0].branches.len(), 2);

        let hive = translate(sql, Strategy::Hive);
        let hive_join = &hive.blueprints[0];
        assert_eq!(
            hive_join
                .inputs
                .iter()
                .filter(|i| i.path == "data/clicks")
                .count(),
            2,
            "Hive scans the table once per instance"
        );
    }

    #[test]
    fn global_agg_single_reducer() {
        let t = translate("SELECT count(*) FROM clicks", Strategy::YSmart);
        assert_eq!(t.blueprints[0].reduce_tasks, Some(1));
    }

    #[test]
    fn sort_limit_single_reducer() {
        let t = translate(
            "SELECT uid, ts FROM clicks ORDER BY ts DESC LIMIT 3",
            Strategy::YSmart,
        );
        let bp = t.blueprints.last().unwrap();
        assert_eq!(bp.reduce_tasks, Some(1));
        let has_sort = bp
            .ops
            .iter()
            .any(|op| op.transforms.iter().any(|tr| matches!(tr, RowOp::Sort(_))));
        assert!(has_sort);
    }

    #[test]
    fn q17_ysmart_two_jobs_hive_four() {
        let sql = "SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
            FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
                  FROM lineitem GROUP BY l_partkey) AS inner_t,
                 (SELECT l_partkey, l_quantity, l_extendedprice
                  FROM lineitem, part
                  WHERE p_partkey = l_partkey) AS outer_t
            WHERE outer_t.l_partkey = inner_t.l_partkey
              AND outer_t.l_quantity < inner_t.t1";
        let ys = translate(sql, Strategy::YSmart);
        assert_eq!(ys.job_count(), 2);
        // First job: one scan of lineitem (two branches) + part; three ops.
        let j1 = &ys.blueprints[0];
        assert_eq!(
            j1.inputs
                .iter()
                .filter(|i| i.path == "data/lineitem")
                .count(),
            1
        );
        assert_eq!(j1.ops.len(), 3);
        let hive = translate(sql, Strategy::Hive);
        assert_eq!(hive.job_count(), 4);
    }

    #[test]
    fn join_residual_rechecks_keys() {
        let t = translate(
            "SELECT l_extendedprice FROM lineitem, part WHERE p_partkey = l_partkey",
            Strategy::Hive,
        );
        let join_bp = &t.blueprints[0];
        let OpKind::Join { residual, .. } = &join_bp.ops[0].kind else {
            panic!("expected join op");
        };
        assert!(residual.is_some(), "equi keys re-checked in residual");
    }

    #[test]
    fn hand_coded_marks_short_circuit_streams() {
        let sql = "SELECT c1.uid, count(*) FROM clicks AS c1, clicks AS c2 \
                   WHERE c1.uid = c2.uid AND c1.cid = 1 AND c2.cid = 2 GROUP BY c1.uid";
        let hc = translate(sql, Strategy::HandCoded);
        assert!(!hc.blueprints[0].short_circuit_streams.is_empty());
        let ys = translate(sql, Strategy::YSmart);
        assert!(ys.blueprints[0].short_circuit_streams.is_empty());
    }

    #[test]
    fn multi_output_job_publishes_tagged() {
        // Rule 1 without JFC: AGG and JOIN share a job but publish two
        // outputs; downstream jobs read them with tag filters.
        let sql = "SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
            FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
                  FROM lineitem GROUP BY l_partkey) AS inner_t,
                 (SELECT l_partkey, l_quantity, l_extendedprice
                  FROM lineitem, part
                  WHERE p_partkey = l_partkey) AS outer_t
            WHERE outer_t.l_partkey = inner_t.l_partkey
              AND outer_t.l_quantity < inner_t.t1";
        let t = translate(sql, Strategy::YSmartNoJfc);
        assert_eq!(t.job_count(), 3);
        let j1 = &t.blueprints[0];
        assert!(matches!(j1.emit, EmitSpec::Tagged(_)), "{:?}", j1.emit);
        let j2 = &t.blueprints[1];
        assert!(
            j2.inputs.iter().any(|i| i.tag_filter.is_some()),
            "{:?}",
            j2.inputs
        );
    }

    #[test]
    fn explain_lists_each_inputs_carried_columns() {
        let t = translate(
            "SELECT sum(l_extendedprice) FROM lineitem, part \
             WHERE p_partkey = l_partkey AND p_size > 3",
            Strategy::Hive,
        );
        let explain = t.explain();
        assert!(
            explain.contains("carries data/lineitem: l_partkey, l_extendedprice\n"),
            "{explain}"
        );
        assert!(
            explain.contains("carries data/part: p_partkey\n"),
            "{explain}"
        );
    }
}
