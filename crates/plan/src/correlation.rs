//! Intra-query correlation analysis (§IV of the paper).
//!
//! For every *shuffle node* (join, aggregation, sort, distinct — the nodes
//! that get a MapReduce job of their own under one-operation-to-one-job
//! translation) this module computes:
//!
//! * its **input relations** — the base tables its map phase would scan and
//!   the intermediate outputs of other shuffle nodes it would read;
//! * its **partition key**, choosing among candidates for aggregations with
//!   the paper's heuristic (the candidate connecting the maximal number of
//!   correlated nodes);
//! * the three correlations:
//!   - **Input Correlation (IC)**: input relation sets not disjoint;
//!   - **Transit Correlation (TC)**: IC plus the same partition key
//!     (table-granularity match — the two jobs partition the shared input's
//!     records identically);
//!   - **Job Flow Correlation (JFC)**: a node and one of its (effective)
//!     children have the same partition key (value-granularity match — the
//!     parent can be evaluated in the child job's reduce function).
//!
//! "Effective" children skip the pipe operators (`Filter`, `Project`,
//! `Limit`) that never get their own job.

use std::collections::{BTreeMap, BTreeSet};

use crate::node::{NodeId, Operator, Plan};
use crate::pk::{agg_pk_candidates, join_pk, sort_pk, InputRel, PartitionKey, Provenance};
use crate::stats::Statistics;

/// Per-shuffle-node facts computed by [`analyze`].
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The shuffle node.
    pub id: NodeId,
    /// Input relations of its (one-op-one-job) MapReduce job.
    pub inputs: BTreeSet<InputRel>,
    /// Its (chosen) partition key.
    pub pk: PartitionKey,
    /// For aggregations: the positions (into the `GROUP BY` list) of the
    /// chosen partition-key columns. Empty for joins/sorts/distinct, whose
    /// keys are fixed by the operator.
    pub pk_group_positions: Vec<usize>,
    /// Estimated distinct shuffle-key tuples (when statistics are
    /// available): the translator caps reduce-task counts with this.
    pub estimated_keys: Option<u64>,
    /// Effective children that are shuffle nodes.
    pub shuffle_children: Vec<NodeId>,
}

/// The correlation report for one plan.
#[derive(Debug, Clone)]
pub struct CorrelationReport {
    /// Facts per shuffle node, in post-order.
    pub nodes: Vec<NodeInfo>,
    /// Unordered pairs with input correlation (excluding TC pairs is NOT
    /// done — TC implies IC, and both lists contain a TC pair).
    pub input_correlated: Vec<(NodeId, NodeId)>,
    /// Unordered pairs with transit correlation.
    pub transit_correlated: Vec<(NodeId, NodeId)>,
    /// `(parent, child)` pairs with job flow correlation.
    pub job_flow: Vec<(NodeId, NodeId)>,
}

impl CorrelationReport {
    /// Facts for a node (panics for non-shuffle nodes).
    #[must_use]
    pub fn info(&self, id: NodeId) -> &NodeInfo {
        self.nodes
            .iter()
            .find(|n| n.id == id)
            .expect("node is a shuffle node")
    }

    /// Whether the unordered pair has transit correlation.
    #[must_use]
    pub fn has_tc(&self, a: NodeId, b: NodeId) -> bool {
        self.transit_correlated
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
    }

    /// Whether the unordered pair has input correlation.
    #[must_use]
    pub fn has_ic(&self, a: NodeId, b: NodeId) -> bool {
        self.input_correlated
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
    }

    /// Whether `parent` has job flow correlation with `child`.
    #[must_use]
    pub fn has_jfc(&self, parent: NodeId, child: NodeId) -> bool {
        self.job_flow.contains(&(parent, child))
    }
}

/// Runs the full correlation analysis on a plan (no statistics).
#[must_use]
pub fn analyze(plan: &Plan) -> CorrelationReport {
    analyze_with_stats(plan, None)
}

/// Runs the correlation analysis with optional table statistics — the
/// paper's future-work refinement (§IV-A): statistics break ties between
/// equally-connected PK candidates in favour of higher key cardinality,
/// and each node carries an estimated key count for reduce-task sizing.
#[must_use]
pub fn analyze_with_stats(plan: &Plan, stats: Option<&Statistics>) -> CorrelationReport {
    let prov = Provenance::compute(plan);
    let shuffle_ids: Vec<NodeId> = plan
        .post_order(plan.root())
        .into_iter()
        .filter(|&id| plan.node(id).op.needs_shuffle())
        .collect();

    // Choose partition keys in post-order: children are decided before
    // parents, so an aggregation scores its JFC against its children's
    // final keys and its parent's candidate set.
    let mut chosen: BTreeMap<NodeId, PartitionKey> = BTreeMap::new();
    let mut chosen_positions: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for &id in &shuffle_ids {
        let pk = match &plan.node(id).op {
            Operator::Join { .. } => join_pk(plan, &prov, id),
            Operator::Sort { .. } => sort_pk(plan, &prov, id),
            Operator::Distinct => {
                PartitionKey::new(prov.columns(plan.node(id).children[0]).to_vec())
            }
            Operator::Aggregate { .. } => {
                let (positions, pk) = choose_agg_pk(plan, &prov, id, &shuffle_ids, &chosen, stats);
                chosen_positions.insert(id, positions);
                pk
            }
            _ => unreachable!("shuffle nodes only"),
        };
        chosen.insert(id, pk);
    }

    let mut nodes = Vec::new();
    for &id in &shuffle_ids {
        nodes.push(NodeInfo {
            id,
            inputs: job_inputs(plan, id),
            pk: chosen[&id].clone(),
            pk_group_positions: chosen_positions.get(&id).cloned().unwrap_or_default(),
            estimated_keys: stats.and_then(|s| s.pk_cardinality(&chosen[&id])),
            shuffle_children: effective_children(plan, id),
        });
    }

    let mut input_correlated = Vec::new();
    let mut transit_correlated = Vec::new();
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            let (a, b) = (&nodes[i], &nodes[j]);
            if a.inputs.intersection(&b.inputs).next().is_some() {
                input_correlated.push((a.id, b.id));
                if a.pk.matches_table(&b.pk) {
                    transit_correlated.push((a.id, b.id));
                }
            }
        }
    }

    let mut job_flow = Vec::new();
    for info in &nodes {
        for &child in &info.shuffle_children {
            if info.pk.matches_value(&chosen[&child]) {
                job_flow.push((info.id, child));
            }
        }
    }

    CorrelationReport {
        nodes,
        input_correlated,
        transit_correlated,
        job_flow,
    }
}

/// The input relations of the MapReduce job for shuffle node `id`: descend
/// each child chain through pipe operators; a `Scan` contributes its base
/// table, a shuffle node contributes its materialised output.
#[must_use]
pub fn job_inputs(plan: &Plan, id: NodeId) -> BTreeSet<InputRel> {
    let mut out = BTreeSet::new();
    for &child in &plan.node(id).children {
        collect_inputs(plan, child, &mut out);
    }
    out
}

fn collect_inputs(plan: &Plan, id: NodeId, out: &mut BTreeSet<InputRel>) {
    let node = plan.node(id);
    match &node.op {
        Operator::Scan { table, .. } => {
            out.insert(InputRel::Base(table.clone()));
        }
        op if op.needs_shuffle() => {
            out.insert(InputRel::Derived(id));
        }
        _ => {
            for &c in &node.children {
                collect_inputs(plan, c, out);
            }
        }
    }
}

/// Effective shuffle children of a shuffle node: the nearest shuffle
/// descendants reached through pipe operators.
#[must_use]
pub fn effective_children(plan: &Plan, id: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &child in &plan.node(id).children {
        collect_shuffle_roots(plan, child, &mut out);
    }
    out
}

fn collect_shuffle_roots(plan: &Plan, id: NodeId, out: &mut Vec<NodeId>) {
    let node = plan.node(id);
    if node.op.needs_shuffle() {
        out.push(id);
        return;
    }
    for &c in &node.children {
        collect_shuffle_roots(plan, c, out);
    }
}

/// The paper's PK-selection heuristic for aggregations: among the candidate
/// subsets of the grouping columns, pick the one that connects the maximal
/// number of correlated nodes. A candidate scores one point for every other
/// shuffle node it could have transit correlation with (shared input and a
/// table-level key match) and one for every effective child or parent it
/// could have job flow correlation with (value-level match). Candidates are
/// enumerated largest-first, so ties keep the full grouping key.
fn choose_agg_pk(
    plan: &Plan,
    prov: &Provenance,
    id: NodeId,
    shuffle_ids: &[NodeId],
    chosen: &BTreeMap<NodeId, PartitionKey>,
    stats: Option<&Statistics>,
) -> (Vec<usize>, PartitionKey) {
    let candidates = agg_pk_candidates(plan, prov, id);
    if candidates.is_empty() {
        return (Vec::new(), PartitionKey::default());
    }
    if candidates.len() == 1 {
        return candidates.into_iter().next().expect("nonempty");
    }

    let my_inputs = job_inputs(plan, id);
    let my_children = effective_children(plan, id);
    let parents = plan.parents();
    let my_parent = effective_parent(plan, &parents, id);

    let mut best: Option<(usize, u64, (Vec<usize>, PartitionKey))> = None;
    for (positions, cand) in candidates {
        let mut score = 0;
        for &other in shuffle_ids {
            if other == id {
                continue;
            }
            let other_pks: Vec<PartitionKey> = match chosen.get(&other) {
                Some(pk) => vec![pk.clone()],
                None => candidate_pks(plan, prov, other),
            };
            // Transit correlation potential.
            let other_inputs = job_inputs(plan, other);
            if my_inputs.intersection(&other_inputs).next().is_some()
                && other_pks.iter().any(|pk| cand.matches_table(pk))
            {
                score += 1;
            }
            // Job flow correlation potential (child or parent link).
            let linked = my_children.contains(&other) || my_parent == Some(other);
            if linked && other_pks.iter().any(|pk| cand.matches_value(pk)) {
                score += 1;
            }
        }
        // Statistics-informed tie-break: among equally-connected
        // candidates prefer the one with the higher estimated key
        // cardinality (more reduce parallelism, less skew). Without
        // statistics, ties keep the earlier (larger-subset) candidate.
        let cardinality = stats.and_then(|s| s.pk_cardinality(&cand)).unwrap_or(0);
        let better = match &best {
            None => true,
            Some((s, c, _)) => score > *s || (score == *s && cardinality > *c),
        };
        if better {
            best = Some((score, cardinality, (positions, cand)));
        }
    }
    best.map(|(_, _, pk)| pk).expect("at least one candidate")
}

/// All possible PKs of a shuffle node (a single fixed key for joins/sorts,
/// the candidate set for aggregations).
fn candidate_pks(plan: &Plan, prov: &Provenance, id: NodeId) -> Vec<PartitionKey> {
    match &plan.node(id).op {
        Operator::Join { .. } => vec![join_pk(plan, prov, id)],
        Operator::Sort { .. } => vec![sort_pk(plan, prov, id)],
        Operator::Distinct => vec![PartitionKey::new(
            prov.columns(plan.node(id).children[0]).to_vec(),
        )],
        Operator::Aggregate { .. } => agg_pk_candidates(plan, prov, id)
            .into_iter()
            .map(|(_, pk)| pk)
            .collect(),
        _ => Vec::new(),
    }
}

/// The nearest shuffle ancestor reached through pipe operators.
fn effective_parent(plan: &Plan, parents: &[Option<NodeId>], id: NodeId) -> Option<NodeId> {
    let mut cur = parents[id.0];
    while let Some(p) = cur {
        if plan.node(p).op.needs_shuffle() {
            return Some(p);
        }
        cur = parents[p.0];
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_plan;
    use crate::catalog::Catalog;
    use ysmart_rel::{DataType, Schema};
    use ysmart_sql::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "clicks",
            Schema::of(
                "clicks",
                &[
                    ("uid", DataType::Int),
                    ("page_id", DataType::Int),
                    ("cid", DataType::Int),
                    ("ts", DataType::Int),
                ],
            ),
        );
        c.add_table(
            "lineitem",
            Schema::of(
                "lineitem",
                &[
                    ("l_orderkey", DataType::Int),
                    ("l_partkey", DataType::Int),
                    ("l_suppkey", DataType::Int),
                    ("l_quantity", DataType::Float),
                    ("l_extendedprice", DataType::Float),
                ],
            ),
        );
        c.add_table(
            "part",
            Schema::of(
                "part",
                &[("p_partkey", DataType::Int), ("p_name", DataType::Str)],
            ),
        );
        c.add_table(
            "orders",
            Schema::of(
                "orders",
                &[
                    ("o_orderkey", DataType::Int),
                    ("o_orderstatus", DataType::Str),
                ],
            ),
        );
        c
    }

    fn analyze_sql(sql: &str) -> (Plan, CorrelationReport) {
        let plan = build_plan(&catalog(), &parse(sql).unwrap()).unwrap();
        let report = analyze(&plan);
        (plan, report)
    }

    fn find_ops(plan: &Plan, name: &str) -> Vec<NodeId> {
        plan.post_order(plan.root())
            .into_iter()
            .filter(|&id| plan.node(id).op.name() == name)
            .collect()
    }

    /// §IV-B: in Q17, AGG1 and JOIN1 have IC and TC; JOIN2 has JFC with both.
    #[test]
    fn q17_correlations_match_paper() {
        let (plan, report) = analyze_sql(
            "SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
             FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
                   FROM lineitem GROUP BY l_partkey) AS inner_t,
                  (SELECT l_partkey, l_quantity, l_extendedprice
                   FROM lineitem, part
                   WHERE p_partkey = l_partkey) AS outer_t
             WHERE outer_t.l_partkey = inner_t.l_partkey
               AND outer_t.l_quantity < inner_t.t1",
        );
        let joins = find_ops(&plan, "Join");
        let aggs = find_ops(&plan, "Aggregate");
        assert_eq!(joins.len(), 2);
        assert_eq!(aggs.len(), 2);
        // Identify AGG1 (grouped, on lineitem) vs AGG2 (global, final).
        let agg1 = *aggs
            .iter()
            .find(|&&a| matches!(&plan.node(a).op, Operator::Aggregate { group_by, .. } if !group_by.is_empty()))
            .unwrap();
        // JOIN1 is the one whose inputs are both base tables.
        let join1 = *joins
            .iter()
            .find(|&&j| {
                job_inputs(&plan, j)
                    .iter()
                    .all(|i| matches!(i, InputRel::Base(_)))
            })
            .unwrap();
        let join2 = *joins.iter().find(|&&j| j != join1).unwrap();

        assert!(report.has_ic(agg1, join1), "AGG1/JOIN1 share lineitem");
        assert!(report.has_tc(agg1, join1), "AGG1/JOIN1 same PK l_partkey");
        assert!(report.has_jfc(join2, agg1), "JOIN2 JFC with AGG1");
        assert!(report.has_jfc(join2, join1), "JOIN2 JFC with JOIN1");
    }

    /// §VII-A: in Q-CSA all five operations under AGG3 correlate; the PK
    /// chosen for the multi-candidate aggregations is `uid`.
    #[test]
    fn q_csa_pk_choice_is_uid() {
        let (plan, report) = analyze_sql(
            "SELECT avg(pageview_count) FROM
            (SELECT c.uid, mp.ts1, (count(*)-2) AS pageview_count
             FROM clicks AS c,
                  (SELECT uid, max(ts1) AS ts1, ts2
                   FROM (SELECT c1.uid, c1.ts AS ts1, min(c2.ts) AS ts2
                         FROM clicks AS c1, clicks AS c2
                         WHERE c1.uid = c2.uid AND c1.ts < c2.ts
                           AND c1.cid = 1 AND c2.cid = 2
                         GROUP BY c1.uid, c1.ts) AS cp
                   GROUP BY uid, ts2) AS mp
             WHERE c.uid = mp.uid AND c.ts >= mp.ts1 AND c.ts <= mp.ts2
             GROUP BY c.uid, mp.ts1) AS pageview_counts",
        );
        // Grouped aggregations (AGG1, AGG2, AGG3) must all choose a
        // single-column PK whose provenance is clicks.uid.
        let grouped: Vec<NodeId> = find_ops(&plan, "Aggregate")
            .into_iter()
            .filter(|&a| {
                matches!(&plan.node(a).op, Operator::Aggregate { group_by, .. } if !group_by.is_empty())
            })
            .collect();
        assert_eq!(grouped.len(), 3);
        for a in &grouped {
            let pk = &report.info(*a).pk;
            assert_eq!(pk.columns.len(), 1, "AGG {a} chose {pk}");
            assert!(
                pk.columns[0]
                    .cols
                    .contains(&("clicks".into(), "uid".into())),
                "AGG {a} chose {pk}"
            );
        }
        // Every grouped aggregation has a JFC link to its effective child.
        let jfc_children: usize = grouped
            .iter()
            .map(|&a| {
                report
                    .info(a)
                    .shuffle_children
                    .iter()
                    .filter(|&&c| report.has_jfc(a, c))
                    .count()
            })
            .sum();
        assert_eq!(jfc_children, 3, "AGG1→JOIN1, AGG2→AGG1, AGG3→JOIN2");
        // And both joins partition by uid.
        for j in find_ops(&plan, "Join") {
            let pk = &report.info(j).pk;
            assert!(pk.columns[0]
                .cols
                .contains(&("clicks".into(), "uid".into())));
        }
    }

    /// Q18 shape: JOIN1, AGG1, JOIN2 all share PK l_orderkey (§VII-A).
    #[test]
    fn q18_three_ops_one_pk() {
        let (plan, report) = analyze_sql(
            "SELECT o_orderkey, sum(l_quantity)
             FROM (SELECT l_orderkey, sum(l_quantity) AS t_sum_quantity
                   FROM lineitem GROUP BY l_orderkey) AS t,
                  lineitem, orders
             WHERE o_orderkey = t.l_orderkey AND o_orderkey = lineitem.l_orderkey
               AND t.t_sum_quantity > 300
             GROUP BY o_orderkey",
        );
        let joins = find_ops(&plan, "Join");
        assert_eq!(joins.len(), 2);
        // Both joins and the inner aggregation share the l_orderkey PK;
        // there is a JFC chain all the way up.
        assert!(!report.job_flow.is_empty());
        let agg1 = find_ops(&plan, "Aggregate")
            .into_iter()
            .find(|&a| {
                matches!(&plan.node(a).op, Operator::Aggregate { group_by, .. } if !group_by.is_empty())
                    && report.info(a).inputs.contains(&InputRel::Base("lineitem".into()))
            })
            .unwrap();
        // AGG1 on lineitem has TC with the join that also scans lineitem.
        assert!(joins.iter().any(|&j| report.has_tc(agg1, j)));
    }

    #[test]
    fn uncorrelated_nodes_report_nothing() {
        let (_, report) = analyze_sql(
            "SELECT p_name, count(*) FROM part, orders \
             WHERE p_partkey = o_orderkey GROUP BY p_name",
        );
        // join PK = partkey/orderkey; agg PK = p_name: no JFC.
        assert!(report.job_flow.is_empty());
        assert!(report.transit_correlated.is_empty());
    }

    #[test]
    fn self_join_input_set_collapses() {
        let (plan, report) = analyze_sql(
            "SELECT c1.uid, count(*) FROM clicks AS c1, clicks AS c2 \
             WHERE c1.uid = c2.uid GROUP BY c1.uid",
        );
        let join = find_ops(&plan, "Join")[0];
        let inputs = &report.info(join).inputs;
        assert_eq!(inputs.len(), 1, "self-join reads one base table");
        assert!(inputs.contains(&InputRel::Base("clicks".into())));
    }

    #[test]
    fn global_agg_has_empty_pk_and_no_jfc() {
        let (plan, report) = analyze_sql("SELECT count(*) FROM clicks");
        let agg = find_ops(&plan, "Aggregate")[0];
        assert!(report.info(agg).pk.is_empty());
        assert!(report.job_flow.is_empty());
    }
}
