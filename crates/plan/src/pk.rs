//! Partition keys and column provenance.
//!
//! The paper's correlation definitions (§IV-A) hinge on comparing the
//! *Partition Key* (PK) of plan nodes — the columns by which each node's
//! MapReduce job partitions its map output. Comparing PKs by column *name*
//! is wrong twice over: `l_partkey` and `p_partkey` are different names for
//! the same key after the equi-join `p_partkey = l_partkey` (footnote 3),
//! and in a self-join `c1.ts` and `c2.ts` are the same name but carry
//! *different values* per output row.
//!
//! We therefore track column **provenance** at two granularities:
//!
//! * **slots** — `(scan node id, column index)` pairs. Two key columns with
//!   intersecting slot sets are *value-equal* along every row that reaches
//!   them (they are connected by pass-through projections and equi-join
//!   predicates). This is the sound basis for **job flow correlation**,
//!   where a parent operation is evaluated inside the child's reduce
//!   function and must see the same key values.
//! * **cols** — `(table, column)` names. Two jobs that scan the same base
//!   table and extract their keys from the same named columns partition the
//!   shared records identically, which is what **transit correlation**
//!   needs to share map output — even when the two jobs use *different scan
//!   instances* of that table.

use std::collections::BTreeSet;
use std::fmt;

use crate::node::{NodeId, Operator, Plan};

/// One input relation of a node's (one-op-one-job) MapReduce job.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InputRel {
    /// A base table read from the distributed file system.
    Base(String),
    /// The materialised output of another node's job.
    Derived(NodeId),
}

impl fmt::Display for InputRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputRel::Base(t) => f.write_str(t),
            InputRel::Derived(id) => write!(f, "out({id})"),
        }
    }
}

/// The provenance of one partition-key column.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PkColumn {
    /// `(scan node, column index)` slots this key column is value-equal to.
    pub slots: BTreeSet<(NodeId, usize)>,
    /// `(table, column)` names of those slots.
    pub cols: BTreeSet<(String, String)>,
}

impl PkColumn {
    /// An empty provenance (a computed column, e.g. an aggregate output).
    /// Empty provenances never match anything.
    #[must_use]
    pub fn opaque() -> Self {
        PkColumn::default()
    }

    /// Whether the column is a computed value with no base provenance.
    #[must_use]
    pub fn is_opaque(&self) -> bool {
        self.slots.is_empty()
    }

    /// Value-level equality witness (for job flow correlation).
    #[must_use]
    pub fn matches_value(&self, other: &PkColumn) -> bool {
        self.slots.intersection(&other.slots).next().is_some()
    }

    /// Table-level equality witness (for transit correlation).
    #[must_use]
    pub fn matches_table(&self, other: &PkColumn) -> bool {
        self.cols.intersection(&other.cols).next().is_some()
    }

    /// Unions another provenance into this one (equi-join key aliasing).
    pub fn union_with(&mut self, other: &PkColumn) {
        self.slots.extend(other.slots.iter().copied());
        self.cols.extend(other.cols.iter().cloned());
    }
}

impl fmt::Display for PkColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cols.is_empty() {
            return f.write_str("<computed>");
        }
        let names: Vec<String> = self.cols.iter().map(|(t, c)| format!("{t}.{c}")).collect();
        f.write_str(&names.join("≡"))
    }
}

/// A partition key: an (unordered) set of key columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionKey {
    /// The key columns.
    pub columns: Vec<PkColumn>,
}

impl PartitionKey {
    /// Creates a partition key.
    #[must_use]
    pub fn new(columns: Vec<PkColumn>) -> Self {
        PartitionKey { columns }
    }

    /// Whether the key has no columns (map-only nodes report this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// "Same partition key" at value granularity — used for job flow
    /// correlation. Requires equal arity and a perfect matching of columns
    /// under [`PkColumn::matches_value`].
    #[must_use]
    pub fn matches_value(&self, other: &PartitionKey) -> bool {
        self.matches_by(other, PkColumn::matches_value)
    }

    /// "Same partition key" at table granularity — used for transit
    /// correlation.
    #[must_use]
    pub fn matches_table(&self, other: &PartitionKey) -> bool {
        self.matches_by(other, PkColumn::matches_table)
    }

    fn matches_by(
        &self,
        other: &PartitionKey,
        col_match: fn(&PkColumn, &PkColumn) -> bool,
    ) -> bool {
        if self.columns.is_empty()
            || other.columns.is_empty()
            || self.columns.len() != other.columns.len()
        {
            return false;
        }
        perfect_matching(&self.columns, &other.columns, col_match)
    }
}

impl fmt::Display for PartitionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// Backtracking perfect matching between two equal-length column lists
/// (arity is 1–3 in every workload query, so this is effectively constant
/// time).
fn perfect_matching(
    a: &[PkColumn],
    b: &[PkColumn],
    col_match: fn(&PkColumn, &PkColumn) -> bool,
) -> bool {
    fn go(
        i: usize,
        a: &[PkColumn],
        b: &[PkColumn],
        used: &mut Vec<bool>,
        col_match: fn(&PkColumn, &PkColumn) -> bool,
    ) -> bool {
        if i == a.len() {
            return true;
        }
        for j in 0..b.len() {
            if !used[j] && col_match(&a[i], &b[j]) {
                used[j] = true;
                if go(i + 1, a, b, used, col_match) {
                    return true;
                }
                used[j] = false;
            }
        }
        false
    }
    let mut used = vec![false; b.len()];
    go(0, a, b, &mut used, col_match)
}

/// Per-node, per-output-column provenance of a plan.
#[derive(Debug, Clone)]
pub struct Provenance {
    per_node: Vec<Vec<PkColumn>>,
}

impl Provenance {
    /// Computes provenance bottom-up for every node.
    ///
    /// Pass-through operators copy child provenance; equi-joins union the
    /// provenances of paired key columns (alias propagation); computed
    /// columns (aggregates, scalar expressions) are opaque.
    #[must_use]
    pub fn compute(plan: &Plan) -> Self {
        let mut per_node: Vec<Vec<PkColumn>> = vec![Vec::new(); plan.len()];
        for id in plan.ids() {
            let node = plan.node(id);
            debug_assert!(
                node.children.iter().all(|c| c.0 < id.0),
                "arena must be topologically ordered"
            );
            let prov = match &node.op {
                Operator::Scan { table, .. } => node
                    .schema
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| PkColumn {
                        slots: BTreeSet::from([(id, i)]),
                        cols: BTreeSet::from([(table.clone(), f.name.clone())]),
                    })
                    .collect(),
                Operator::Filter { .. }
                | Operator::Sort { .. }
                | Operator::Limit { .. }
                | Operator::Distinct => per_node[node.children[0].0].clone(),
                Operator::Project { exprs } => {
                    let child = &per_node[node.children[0].0];
                    exprs
                        .iter()
                        .map(|e| match e {
                            ysmart_rel::Expr::Column(i) => child[*i].clone(),
                            _ => PkColumn::opaque(),
                        })
                        .collect()
                }
                Operator::Join {
                    left_keys,
                    right_keys,
                    ..
                } => {
                    let left = per_node[node.children[0].0].clone();
                    let right = per_node[node.children[1].0].clone();
                    let left_len = left.len();
                    let mut out = left;
                    out.extend(right);
                    for (&l, &r) in left_keys.iter().zip(right_keys) {
                        let merged = {
                            let mut m = out[l].clone();
                            m.union_with(&out[left_len + r]);
                            m
                        };
                        out[l] = merged.clone();
                        out[left_len + r] = merged;
                    }
                    out
                }
                Operator::Aggregate { group_by, aggs, .. } => {
                    let child = &per_node[node.children[0].0];
                    let mut out: Vec<PkColumn> =
                        group_by.iter().map(|&g| child[g].clone()).collect();
                    out.extend(std::iter::repeat_with(PkColumn::opaque).take(aggs.len()));
                    out
                }
            };
            per_node[id.0] = prov;
        }
        Provenance { per_node }
    }

    /// Provenance of `node`'s output column `col`.
    #[must_use]
    pub fn column(&self, node: NodeId, col: usize) -> &PkColumn {
        &self.per_node[node.0][col]
    }

    /// All output-column provenances of a node.
    #[must_use]
    pub fn columns(&self, node: NodeId) -> &[PkColumn] {
        &self.per_node[node.0]
    }
}

/// Computes the partition key of a join node, a fixed (non-candidate) key.
#[must_use]
pub fn join_pk(plan: &Plan, prov: &Provenance, id: NodeId) -> PartitionKey {
    let node = plan.node(id);
    let Operator::Join {
        left_keys,
        right_keys,
        ..
    } = &node.op
    else {
        return PartitionKey::default();
    };
    let left = node.children[0];
    let right = node.children[1];
    let columns = left_keys
        .iter()
        .zip(right_keys)
        .map(|(&l, &r)| {
            let mut c = prov.column(left, l).clone();
            c.union_with(prov.column(right, r));
            c
        })
        .collect();
    PartitionKey::new(columns)
}

/// Enumerates the partition-key candidates of an aggregation node: every
/// non-empty subset of its grouping columns (§IV-A), each returned with the
/// positions (into the `GROUP BY` list) it covers. Group-by arity is small
/// in the supported subset; the enumeration is capped at 2^10 − 1
/// candidates as a safety bound.
#[must_use]
pub fn agg_pk_candidates(
    plan: &Plan,
    prov: &Provenance,
    id: NodeId,
) -> Vec<(Vec<usize>, PartitionKey)> {
    let node = plan.node(id);
    let Operator::Aggregate { group_by, .. } = &node.op else {
        return Vec::new();
    };
    let child = node.children[0];
    let cols: Vec<PkColumn> = group_by
        .iter()
        .map(|&g| prov.column(child, g).clone())
        .collect();
    let n = cols.len().min(10);
    let mut out = Vec::new();
    // Enumerate larger subsets first so that, on a score tie, the heuristic
    // keeps the full grouping key (better parallelism for equal merging).
    let mut masks: Vec<u32> = (1..(1u32 << n)).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    for mask in masks {
        let positions: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let columns: Vec<PkColumn> = positions.iter().map(|&i| cols[i].clone()).collect();
        out.push((positions, PartitionKey::new(columns)));
    }
    out
}

/// Computes the partition key of a sort node (its sort columns; expression
/// keys are opaque).
#[must_use]
pub fn sort_pk(plan: &Plan, prov: &Provenance, id: NodeId) -> PartitionKey {
    let node = plan.node(id);
    let Operator::Sort { keys } = &node.op else {
        return PartitionKey::default();
    };
    let child = node.children[0];
    let columns = keys
        .iter()
        .map(|k| match &k.expr {
            ysmart_rel::Expr::Column(i) => prov.column(child, *i).clone(),
            _ => PkColumn::opaque(),
        })
        .collect();
    PartitionKey::new(columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{JoinKind, PlanArena};
    use ysmart_rel::{DataType, Expr, Schema};

    fn scan(a: &mut PlanArena, table: &str, cols: &[&str]) -> NodeId {
        let fields: Vec<(&str, DataType)> = cols.iter().map(|c| (*c, DataType::Int)).collect();
        a.add(
            Operator::Scan {
                table: table.into(),
                binding: table.into(),
                predicate: None,
            },
            Schema::of(table, &fields),
            vec![],
        )
    }

    /// lineitem(l_partkey, l_quantity) ⋈ part(p_partkey) on key — footnote-3
    /// aliasing makes the two key columns one class.
    #[test]
    fn join_keys_union_provenance() {
        let mut a = PlanArena::new();
        let li = scan(&mut a, "lineitem", &["l_partkey", "l_quantity"]);
        let pt = scan(&mut a, "part", &["p_partkey"]);
        let j = a.add(
            Operator::Join {
                kind: JoinKind::Inner,
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            },
            a.node(li).schema.concat(&a.node(pt).schema),
            vec![li, pt],
        );
        let plan = a.finish(j);
        let prov = Provenance::compute(&plan);
        let pk = join_pk(&plan, &prov, j);
        assert_eq!(pk.columns.len(), 1);
        assert!(pk.columns[0]
            .cols
            .contains(&("lineitem".into(), "l_partkey".into())));
        assert!(pk.columns[0]
            .cols
            .contains(&("part".into(), "p_partkey".into())));
        // The join's output column 0 (l_partkey) and column 2 (p_partkey)
        // now share provenance.
        assert!(prov.column(j, 0).matches_value(prov.column(j, 2)));
    }

    /// Two scans of the same table: value-level provenance distinguishes the
    /// instances, table-level does not.
    #[test]
    fn self_join_instances_distinct_at_value_level() {
        let mut a = PlanArena::new();
        let c1 = scan(&mut a, "clicks", &["uid", "ts"]);
        let c2 = scan(&mut a, "clicks", &["uid", "ts"]);
        let plan_root = a.add(
            Operator::Join {
                kind: JoinKind::Inner,
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            },
            a.node(c1).schema.concat(&a.node(c2).schema),
            vec![c1, c2],
        );
        let plan = a.finish(plan_root);
        let prov = Provenance::compute(&plan);
        // c1.ts vs c2.ts: same (table, col) but different slots.
        let ts1 = prov.column(plan_root, 1);
        let ts2 = prov.column(plan_root, 3);
        assert!(ts1.matches_table(ts2));
        assert!(!ts1.matches_value(ts2));
        // c1.uid vs c2.uid: joined on uid, so value-equal too.
        assert!(prov
            .column(plan_root, 0)
            .matches_value(prov.column(plan_root, 2)));
    }

    #[test]
    fn aggregate_outputs_opaque_groups_pass_through() {
        let mut a = PlanArena::new();
        let s = scan(&mut a, "t", &["k", "v"]);
        let g = a.add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![crate::node::AggCall {
                    func: ysmart_rel::AggFunc::Sum,
                    arg: Some(Expr::col(1)),
                }],
                having: None,
            },
            Schema::of("", &[("k", DataType::Int), ("sum_v", DataType::Int)]),
            vec![s],
        );
        let plan = a.finish(g);
        let prov = Provenance::compute(&plan);
        assert!(!prov.column(g, 0).is_opaque());
        assert!(prov.column(g, 1).is_opaque());
    }

    #[test]
    fn agg_candidates_enumerate_subsets_largest_first() {
        let mut a = PlanArena::new();
        let s = scan(&mut a, "t", &["a", "b", "v"]);
        let g = a.add(
            Operator::Aggregate {
                group_by: vec![0, 1],
                aggs: vec![],
                having: None,
            },
            Schema::of("", &[("a", DataType::Int), ("b", DataType::Int)]),
            vec![s],
        );
        let plan = a.finish(g);
        let prov = Provenance::compute(&plan);
        let cands = agg_pk_candidates(&plan, &prov, g);
        assert_eq!(cands.len(), 3); // {a,b}, {a}, {b}
        assert_eq!(cands[0].0, vec![0, 1]);
        assert_eq!(cands[0].1.columns.len(), 2);
    }

    #[test]
    fn pk_match_requires_equal_arity() {
        let one = PartitionKey::new(vec![PkColumn {
            slots: BTreeSet::from([(NodeId(0), 0)]),
            cols: BTreeSet::from([("t".into(), "a".into())]),
        }]);
        let two = PartitionKey::new(vec![one.columns[0].clone(), one.columns[0].clone()]);
        assert!(!one.matches_value(&two));
        assert!(one.matches_value(&one.clone()));
    }

    #[test]
    fn empty_pk_never_matches() {
        let empty = PartitionKey::default();
        assert!(!empty.matches_value(&empty.clone()));
    }

    #[test]
    fn opaque_columns_never_match() {
        let o = PartitionKey::new(vec![PkColumn::opaque()]);
        assert!(!o.matches_value(&o.clone()));
        assert!(!o.matches_table(&o.clone()));
    }

    #[test]
    fn perfect_matching_handles_permuted_keys() {
        let mk = |t: &str, c: &str, id: usize| PkColumn {
            slots: BTreeSet::from([(NodeId(id), 0)]),
            cols: BTreeSet::from([(t.to_string(), c.to_string())]),
        };
        let ab = PartitionKey::new(vec![mk("t", "a", 1), mk("t", "b", 2)]);
        let ba = PartitionKey::new(vec![mk("t", "b", 2), mk("t", "a", 1)]);
        assert!(ab.matches_value(&ba));
        assert!(ab.matches_table(&ba));
    }

    #[test]
    fn filter_and_project_pass_through() {
        let mut a = PlanArena::new();
        let s = scan(&mut a, "t", &["k", "v"]);
        let f = a.add(
            Operator::Filter {
                predicate: Expr::lit(true),
            },
            a.node(s).schema.clone(),
            vec![s],
        );
        let p = a.add(
            Operator::Project {
                exprs: vec![
                    Expr::col(1),
                    Expr::binary(ysmart_rel::BinOp::Add, Expr::col(0), Expr::lit(1i64)),
                ],
            },
            Schema::of("", &[("v", DataType::Int), ("kplus", DataType::Int)]),
            vec![f],
        );
        let plan = a.finish(p);
        let prov = Provenance::compute(&plan);
        assert!(prov.column(p, 0).cols.contains(&("t".into(), "v".into())));
        assert!(prov.column(p, 1).is_opaque());
    }
}
