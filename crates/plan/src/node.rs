//! The logical plan: an arena of operator nodes.
//!
//! Operators correspond to the paper's plan-tree nodes (§III, Fig. 2(a) and
//! Fig. 4): table scans with pushed-down selection, joins, aggregations and
//! sorts, plus lightweight `Filter`/`Project`/`Limit` operators that never
//! get their own MapReduce job — the translator folds them into the job of
//! the nearest shuffle-requiring ancestor or descendant.
//!
//! `Scan`, `Filter`, `Join` and `Sort` each hold `columns`: the columns of
//! the row they compute (the base row, the child row, the two children's
//! rows concatenated) that they output. The builder carries every column;
//! [`crate::prune()`] narrows them to the columns some ancestor reads.

use std::fmt;
use std::sync::Arc;

use ysmart_rel::{AggFunc, Expr, Schema, SortKey};

/// Identifies a node inside one [`Plan`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Join kinds (equi-joins only, §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner equi-join.
    Inner,
    /// Left outer equi-join.
    LeftOuter,
    /// Right outer equi-join.
    RightOuter,
    /// Full outer equi-join.
    FullOuter,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "JOIN",
            JoinKind::LeftOuter => "LEFT OUTER JOIN",
            JoinKind::RightOuter => "RIGHT OUTER JOIN",
            JoinKind::FullOuter => "FULL OUTER JOIN",
        };
        f.write_str(s)
    }
}

/// One aggregate call inside an [`Operator::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The function (`count(distinct)` is [`AggFunc::CountDistinct`]).
    pub func: AggFunc,
    /// Argument over the child schema; `None` is `count(*)`.
    pub arg: Option<Expr>,
}

/// A logical plan operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Scan of a base table with optional pushed-down selection. The node's
    /// schema is `base` projected onto `columns`.
    Scan {
        /// Base-table name in the catalog.
        table: String,
        /// The alias this instance is bound to (`c1`, `c2` for self-joins).
        binding: String,
        /// The base schema requalified by `binding`: the row the table's
        /// files hold and `predicate` reads. Shared: pruning copies the
        /// node, not the table's schema.
        base: Arc<Schema>,
        /// Pushed-down selection over the base schema.
        predicate: Option<Expr>,
        /// The base columns the scan carries, in output order.
        columns: Vec<usize>,
    },
    /// Row filter over the child (predicates on intermediate results).
    Filter {
        /// Predicate over the child schema.
        predicate: Expr,
        /// The child columns the filter carries, in output order.
        columns: Vec<usize>,
    },
    /// Projection / scalar computation over the child. The output names are
    /// carried by the node schema.
    Project {
        /// One expression per output column, over the child schema.
        exprs: Vec<Expr>,
    },
    /// Equi-join of two children.
    Join {
        /// Inner/left/right/full.
        kind: JoinKind,
        /// Join-key columns in the left child schema, position-aligned with
        /// `right_keys`.
        left_keys: Vec<usize>,
        /// Join-key columns in the right child schema.
        right_keys: Vec<usize>,
        /// Non-equi residual predicate over the concatenated schema,
        /// evaluated by the join job itself (§V-A).
        residual: Option<Expr>,
        /// The columns of the concatenated schema the join carries, in
        /// output order.
        columns: Vec<usize>,
    },
    /// Grouping aggregation (or plain aggregation when `group_by` is empty).
    Aggregate {
        /// Grouping columns in the child schema.
        group_by: Vec<usize>,
        /// Aggregate calls; output schema is groups then aggregates.
        aggs: Vec<AggCall>,
        /// `HAVING` predicate over the *output* schema.
        having: Option<Expr>,
    },
    /// Duplicate elimination over all columns (`SELECT DISTINCT`).
    Distinct,
    /// Sort.
    Sort {
        /// Sort keys over the child schema.
        keys: Vec<SortKey>,
        /// The child columns the sort carries, in output order.
        columns: Vec<usize>,
    },
    /// Row-count limit (applied after any sort).
    Limit {
        /// Maximum number of rows.
        n: u64,
    },
}

impl Operator {
    /// Whether this operator needs a MapReduce shuffle of its own — i.e.
    /// whether a one-operation-to-one-job translation gives it a job. These
    /// are the "nodes" of the paper's correlation definitions.
    #[must_use]
    pub fn needs_shuffle(&self) -> bool {
        matches!(
            self,
            Operator::Join { .. }
                | Operator::Aggregate { .. }
                | Operator::Sort { .. }
                | Operator::Distinct
        )
    }

    /// Short operator name for plan rendering.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Scan { .. } => "Scan",
            Operator::Filter { .. } => "Filter",
            Operator::Project { .. } => "Project",
            Operator::Join { .. } => "Join",
            Operator::Aggregate { .. } => "Aggregate",
            Operator::Distinct => "Distinct",
            Operator::Sort { .. } => "Sort",
            Operator::Limit { .. } => "Limit",
        }
    }
}

/// A node of the plan arena: operator, output schema, children.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeData {
    /// The operator.
    pub op: Operator,
    /// The node's output schema.
    pub schema: Schema,
    /// Child node ids (0 for scans, 1 for unary, 2 for joins).
    pub children: Vec<NodeId>,
}

/// A logical plan: an arena of nodes plus the root id.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    nodes: Vec<NodeData>,
    root: NodeId,
}

impl Plan {
    /// Creates a plan from a fully-built arena. `root` must be in range.
    #[must_use]
    pub fn new(nodes: Vec<NodeData>, root: NodeId) -> Self {
        assert!(root.0 < nodes.len(), "root out of range");
        Plan { nodes, root }
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrows a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0]
    }

    /// Number of nodes in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty (never true for a built plan).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids in arena order.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Ids of the subtree under `root` (inclusive) in post-order — children
    /// before parents, left before right: the traversal order of the paper's
    /// one-operation-to-one-job translation (§V-A).
    #[must_use]
    pub fn post_order(&self, root: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.post_order_into(root, &mut out);
        out
    }

    fn post_order_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        for &c in &self.node(id).children {
            self.post_order_into(c, out);
        }
        out.push(id);
    }

    /// The parent of each node (`None` for the root). Nodes unreachable from
    /// the root have no parent entry either.
    #[must_use]
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut out = vec![None; self.nodes.len()];
        for id in self.post_order(self.root) {
            for &c in &self.node(id).children {
                out[c.0] = Some(id);
            }
        }
        out
    }

    /// The base tables scanned in the subtree of `id` (with multiplicity
    /// collapsed), used for input-correlation reporting and tests.
    #[must_use]
    pub fn base_tables(&self, id: NodeId) -> Vec<String> {
        let mut out: Vec<String> = self
            .post_order(id)
            .into_iter()
            .filter_map(|n| match &self.node(n).op {
                Operator::Scan { table, .. } => Some(table.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Renders the plan as an indented tree (root first), for debugging and
    /// golden tests.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(self.root, 0, &mut out);
        out
    }

    fn render_into(&self, id: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let node = self.node(id);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(out, "#{} {}", id.0, node.op.name());
        match &node.op {
            Operator::Scan {
                table,
                binding,
                predicate,
                ..
            } => {
                let _ = write!(out, " {table}");
                if binding != table {
                    let _ = write!(out, " AS {binding}");
                }
                if let Some(p) = predicate {
                    let _ = write!(out, " WHERE {p}");
                }
            }
            Operator::Join {
                kind,
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                let _ = write!(out, " [{kind}] on {left_keys:?}={right_keys:?}");
                if let Some(r) = residual {
                    let _ = write!(out, " residual {r}");
                }
            }
            Operator::Aggregate { group_by, aggs, .. } => {
                let _ = write!(out, " by {group_by:?} aggs={}", aggs.len());
            }
            Operator::Filter { predicate, .. } => {
                let _ = write!(out, " {predicate}");
            }
            Operator::Project { exprs } => {
                let _ = write!(out, " {} cols", exprs.len());
            }
            Operator::Sort { keys, .. } => {
                let _ = write!(out, " {} keys", keys.len());
            }
            Operator::Limit { n } => {
                let _ = write!(out, " {n}");
            }
            Operator::Distinct => {}
        }
        out.push('\n');
        for &c in &node.children {
            self.render_into(c, depth + 1, out);
        }
    }
}

/// Incrementally builds a [`Plan`] arena.
#[derive(Debug, Default)]
pub struct PlanArena {
    nodes: Vec<NodeData>,
}

impl PlanArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        PlanArena::default()
    }

    /// Adds a node, returning its id.
    pub fn add(&mut self, op: Operator, schema: Schema, children: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeData {
            op,
            schema,
            children,
        });
        id
    }

    /// Adds a scan of `table` bound to `binding` that carries every column
    /// of `base`, returning its id.
    pub fn scan(&mut self, table: &str, binding: &str, base: Schema) -> NodeId {
        let columns = (0..base.len()).collect();
        self.add(
            Operator::Scan {
                table: table.into(),
                binding: binding.into(),
                base: Arc::new(base.clone()),
                predicate: None,
                columns,
            },
            base,
            vec![],
        )
    }

    /// Borrows a node already added.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0]
    }

    /// ANDs a predicate into an existing scan node (predicate pushdown).
    /// No-op for non-scan nodes.
    pub fn merge_scan_predicate(&mut self, id: NodeId, pred: Expr) {
        if let Operator::Scan { predicate, .. } = &mut self.nodes[id.0].op {
            *predicate = Some(match predicate.take() {
                Some(p) => p.and(pred),
                None => pred,
            });
        }
    }

    /// Finalises the arena into a [`Plan`] rooted at `root`.
    #[must_use]
    pub fn finish(self, root: NodeId) -> Plan {
        Plan::new(self.nodes, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::DataType;

    fn scan(arena: &mut PlanArena, table: &str) -> NodeId {
        arena.scan(table, table, Schema::of(table, &[("k", DataType::Int)]))
    }

    #[test]
    fn post_order_children_first() {
        let mut a = PlanArena::new();
        let l = scan(&mut a, "t");
        let r = scan(&mut a, "u");
        let j = a.add(
            Operator::Join {
                kind: JoinKind::Inner,
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
                columns: vec![0, 1],
            },
            Schema::of("t", &[("k", DataType::Int)])
                .concat(&Schema::of("u", &[("k", DataType::Int)])),
            vec![l, r],
        );
        let plan = a.finish(j);
        assert_eq!(plan.post_order(plan.root()), vec![l, r, j]);
    }

    #[test]
    fn parents_computed() {
        let mut a = PlanArena::new();
        let s = scan(&mut a, "t");
        let f = a.add(
            Operator::Filter {
                predicate: Expr::lit(true),
                columns: vec![0],
            },
            Schema::of("t", &[("k", DataType::Int)]),
            vec![s],
        );
        let plan = a.finish(f);
        let parents = plan.parents();
        assert_eq!(parents[s.0], Some(f));
        assert_eq!(parents[f.0], None);
    }

    #[test]
    fn base_tables_deduplicated() {
        let mut a = PlanArena::new();
        let c1 = scan(&mut a, "clicks");
        let c2 = scan(&mut a, "clicks");
        let j = a.add(
            Operator::Join {
                kind: JoinKind::Inner,
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
                columns: vec![],
            },
            Schema::default(),
            vec![c1, c2],
        );
        let plan = a.finish(j);
        assert_eq!(plan.base_tables(plan.root()), vec!["clicks".to_string()]);
    }

    #[test]
    fn shuffle_classification() {
        assert!(Operator::Distinct.needs_shuffle());
        assert!(!Operator::Limit { n: 1 }.needs_shuffle());
        assert!(!Operator::Filter {
            predicate: Expr::lit(true),
            columns: vec![],
        }
        .needs_shuffle());
    }

    #[test]
    fn render_contains_nodes() {
        let mut a = PlanArena::new();
        let s = scan(&mut a, "t");
        let plan = a.finish(s);
        let r = plan.render();
        assert!(r.contains("Scan t"));
    }
}
