//! Dead-column pruning: each node carries only the columns some ancestor
//! reads.
//!
//! [`prune`] walks the plan from the root, which keeps its whole schema,
//! and tells each child which of its output columns the parent reads. A
//! node keeps those columns, adds what it reads itself (predicates, keys,
//! residuals, aggregate arguments) to what it asks of its children, and
//! remaps every expression onto its children's narrowed rows. No node is
//! added or removed, so node ids, partition keys and correlations stay as
//! they were.
//!
//! Per operator:
//!
//! * `Scan` narrows `columns`; its pushed-down predicate still reads the
//!   base row, so a column read only there is never carried.
//! * `Filter`, `Sort` and `Join` read their predicate, key and residual
//!   columns from their children's rows and carry them further only when an
//!   ancestor reads them.
//! * `Project` drops the expressions no ancestor reads.
//! * `Aggregate` keeps its whole output (`HAVING` reads it) and asks its
//!   child for the grouping and argument columns.
//! * `Distinct` compares whole rows, so everything below it keeps every
//!   column it has.
//! * `Limit` passes the question through.
//!
//! A row keeps at least one column: a zero-width row has no text line (the
//! empty line decodes as one field).
//!
//! Both walks are loops over the arena, which holds children before
//! parents: a `WHERE` over a derived table stacks one `Filter` per conjunct,
//! tens of thousands deep, which no recursion would survive.

use ysmart_rel::Expr;

use crate::node::{NodeData, NodeId, Operator, Plan};

/// The plan with every node narrowed to the columns some ancestor reads.
/// The root's schema is unchanged.
#[must_use]
pub fn prune(plan: &Plan) -> Plan {
    let root = plan.root();
    // Top-down: the output columns of each node some ancestor reads. Nodes
    // the root does not reach get none and stay as they are.
    let mut need: Vec<Option<Vec<bool>>> = vec![None; plan.len()];
    need[root.0] = Some(vec![true; width(plan, root)]);
    let mut keep: Vec<Vec<usize>> = vec![Vec::new(); plan.len()];
    for id in plan.ids().rev() {
        let Some(here) = &mut need[id.0] else {
            continue;
        };
        if !here.contains(&true) {
            if let Some(first) = here.first_mut() {
                *first = true;
            }
        }
        keep[id.0] = (0..here.len()).filter(|&i| here[i]).collect();
        for (child, ask) in asks(plan, id, &keep[id.0]) {
            let slot = need[child.0].get_or_insert_with(|| vec![false; ask.len()]);
            for (s, a) in slot.iter_mut().zip(ask) {
                *s |= a;
            }
        }
    }
    // Bottom-up: each node rebuilt over its children's narrowed rows.
    let mut nodes: Vec<NodeData> = Vec::with_capacity(plan.len());
    let mut maps: Vec<ColumnMap> = Vec::with_capacity(plan.len());
    for id in plan.ids() {
        let (node, map) = if need[id.0].is_some() {
            narrow(plan, id, &keep[id.0], &nodes, &maps)
        } else {
            let node = plan.node(id).clone();
            let map = (0..node.schema.len()).map(Some).collect();
            (node, map)
        };
        nodes.push(node);
        maps.push(map);
    }
    Plan::new(nodes, root)
}

/// Where each old column of a row went: its new position, or `None` when
/// it was dropped.
type ColumnMap = Vec<Option<usize>>;

/// What node `id`, keeping its output columns `keep`, reads of each child's
/// output, over the children's rows before pruning.
fn asks(plan: &Plan, id: NodeId, keep: &[usize]) -> Vec<(NodeId, Vec<bool>)> {
    let node = plan.node(id);
    let child = || node.children[0];
    let mut ask = vec![false; node.children.first().map_or(0, |&c| width(plan, c))];
    match &node.op {
        Operator::Scan { .. } => return Vec::new(),
        Operator::Filter { predicate, columns } => {
            carry_into(&mut ask, keep, columns);
            predicate.for_each_column(&mut |c| ask[c] = true);
        }
        Operator::Sort { keys, columns } => {
            carry_into(&mut ask, keep, columns);
            for k in keys {
                k.expr.for_each_column(&mut |c| ask[c] = true);
            }
        }
        Operator::Join {
            left_keys,
            right_keys,
            residual,
            columns,
            ..
        } => {
            let (left, right) = (node.children[0], node.children[1]);
            let left_width = ask.len();
            ask.resize(left_width + width(plan, right), false);
            carry_into(&mut ask, keep, columns);
            for &l in left_keys {
                ask[l] = true;
            }
            for &r in right_keys {
                ask[left_width + r] = true;
            }
            if let Some(r) = residual {
                r.for_each_column(&mut |c| ask[c] = true);
            }
            let right_ask = ask.split_off(left_width);
            return vec![(left, ask), (right, right_ask)];
        }
        Operator::Project { exprs } => {
            for &j in keep {
                exprs[j].for_each_column(&mut |c| ask[c] = true);
            }
        }
        Operator::Aggregate { group_by, aggs, .. } => {
            for &g in group_by {
                ask[g] = true;
            }
            for arg in aggs.iter().filter_map(|a| a.arg.as_ref()) {
                arg.for_each_column(&mut |c| ask[c] = true);
            }
        }
        Operator::Distinct => ask.fill(true),
        Operator::Limit { .. } => {
            for &j in keep {
                ask[j] = true;
            }
        }
    }
    vec![(child(), ask)]
}

/// Marks the computed-row columns that the output positions `keep` of a
/// node carrying `columns` come from.
fn carry_into(ask: &mut [bool], keep: &[usize], columns: &[usize]) {
    for &j in keep {
        ask[columns[j]] = true;
    }
}

/// Node `id` narrowed to its output columns `keep`, over its children as
/// `nodes` and `maps` already hold them, and where its old columns went.
fn narrow(
    plan: &Plan,
    id: NodeId,
    keep: &[usize],
    nodes: &[NodeData],
    maps: &[ColumnMap],
) -> (NodeData, ColumnMap) {
    let node = plan.node(id);
    let map_of = |i: usize| &maps[node.children[i].0];
    let carry = |columns: &[usize], map: &ColumnMap| -> Vec<usize> {
        keep.iter().map(|&j| moved(map, columns[j])).collect()
    };
    let op = match &node.op {
        Operator::Scan {
            table,
            binding,
            base,
            predicate,
            columns,
        } => Operator::Scan {
            table: table.clone(),
            binding: binding.clone(),
            base: base.clone(),
            predicate: predicate.clone(),
            columns: keep.iter().map(|&j| columns[j]).collect(),
        },
        Operator::Filter { predicate, columns } => Operator::Filter {
            predicate: remap(predicate, map_of(0)),
            columns: carry(columns, map_of(0)),
        },
        Operator::Sort { keys, columns } => {
            let mut keys = keys.clone();
            for k in &mut keys {
                k.expr = remap(&k.expr, map_of(0));
            }
            Operator::Sort {
                keys,
                columns: carry(columns, map_of(0)),
            }
        }
        Operator::Join {
            kind,
            left_keys,
            right_keys,
            residual,
            columns,
        } => {
            let (lm, rm) = (map_of(0), map_of(1));
            let new_left_width = nodes[node.children[0].0].schema.len();
            let cm: ColumnMap = lm
                .iter()
                .copied()
                .chain(rm.iter().map(|c| c.map(|c| new_left_width + c)))
                .collect();
            Operator::Join {
                kind: *kind,
                left_keys: left_keys.iter().map(|&l| moved(lm, l)).collect(),
                right_keys: right_keys.iter().map(|&r| moved(rm, r)).collect(),
                residual: residual.as_ref().map(|r| remap(r, &cm)),
                columns: carry(columns, &cm),
            }
        }
        Operator::Project { exprs } => Operator::Project {
            exprs: keep.iter().map(|&j| remap(&exprs[j], map_of(0))).collect(),
        },
        Operator::Aggregate {
            group_by,
            aggs,
            having,
        } => {
            let mut aggs = aggs.clone();
            for a in &mut aggs {
                a.arg = a.arg.as_ref().map(|e| remap(e, map_of(0)));
            }
            Operator::Aggregate {
                group_by: group_by.iter().map(|&g| moved(map_of(0), g)).collect(),
                aggs,
                having: having.clone(),
            }
        }
        Operator::Distinct => Operator::Distinct,
        Operator::Limit { n } => Operator::Limit { n: *n },
    };
    let (schema, map) = match &op {
        // A `Limit` outputs its child's row as the child narrowed it.
        Operator::Limit { .. } => (nodes[node.children[0].0].schema.clone(), map_of(0).clone()),
        Operator::Aggregate { .. } | Operator::Distinct => (
            node.schema.clone(),
            (0..node.schema.len()).map(Some).collect(),
        ),
        _ => {
            let mut map = vec![None; node.schema.len()];
            for (new, &old) in keep.iter().enumerate() {
                map[old] = Some(new);
            }
            (node.schema.project(keep), map)
        }
    };
    let data = NodeData {
        op,
        schema,
        children: node.children.clone(),
    };
    (data, map)
}

fn width(plan: &Plan, id: NodeId) -> usize {
    plan.node(id).schema.len()
}

/// Where column `c` went; a column a node reads is always kept below it.
fn moved(map: &ColumnMap, c: usize) -> usize {
    map[c].expect("a column a node reads is kept by its child")
}

fn remap(e: &Expr, map: &ColumnMap) -> Expr {
    e.remap_columns(&|c| moved(map, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_plan, Catalog};
    use ysmart_rel::{DataType, Schema};

    /// `sql` planned over `t(k, g, v, s)` and `u(k, w)`, and pruned; the
    /// root's schema must survive.
    fn pruned(sql: &str) -> Plan {
        let mut catalog = Catalog::new();
        catalog.add_table(
            "t",
            Schema::of(
                "t",
                &[
                    ("k", DataType::Int),
                    ("g", DataType::Int),
                    ("v", DataType::Int),
                    ("s", DataType::Str),
                ],
            ),
        );
        catalog.add_table(
            "u",
            Schema::of("u", &[("k", DataType::Int), ("w", DataType::Str)]),
        );
        let plan = build_plan(&catalog, &ysmart_sql::parse(sql).unwrap()).unwrap();
        let out = prune(&plan);
        assert_eq!(
            out.node(out.root()).schema,
            plan.node(plan.root()).schema,
            "`{sql}`"
        );
        out
    }

    /// The first node named `op` in arena order.
    fn first(plan: &Plan, op: &str) -> NodeId {
        plan.ids()
            .find(|&id| plan.node(id).op.name() == op)
            .unwrap_or_else(|| panic!("no {op}"))
    }

    /// The column names node `id` carries.
    fn names(plan: &Plan, id: NodeId) -> Vec<&str> {
        let fields = plan.node(id).schema.fields();
        fields.iter().map(|f| &*f.name).collect()
    }

    #[test]
    fn a_column_read_only_by_a_scan_predicate_is_not_carried() {
        let plan = pruned("SELECT k, count(*) FROM t WHERE v > 10 GROUP BY k");
        let scan = first(&plan, "Scan");
        assert_eq!(names(&plan, scan), ["k"]);
        let Operator::Scan {
            predicate, columns, ..
        } = &plan.node(scan).op
        else {
            unreachable!()
        };
        assert_eq!(columns, &[0]);
        // The predicate still reads `v` where the base row holds it.
        assert_eq!(predicate.as_ref().unwrap().referenced_columns(), [2]);
    }

    #[test]
    fn a_row_keeps_one_column_when_no_ancestor_reads_any() {
        let plan = pruned("SELECT count(*) FROM t WHERE v > 10");
        assert_eq!(names(&plan, first(&plan, "Scan")), ["k"]);
    }

    #[test]
    fn a_join_key_is_dropped_above_its_join() {
        let plan = pruned("SELECT g, w FROM t, u WHERE t.k = u.k");
        let join = first(&plan, "Join");
        assert_eq!(names(&plan, join), ["g", "w"]);
        let Operator::Join {
            left_keys,
            right_keys,
            columns,
            ..
        } = &plan.node(join).op
        else {
            unreachable!()
        };
        // The keys are read from the children's rows, which carry them.
        let [left, right] = plan.node(join).children[..] else {
            unreachable!()
        };
        assert_eq!(names(&plan, left), ["k", "g"]);
        assert_eq!(names(&plan, right), ["k", "w"]);
        assert_eq!((left_keys, right_keys), (&vec![0], &vec![0]));
        assert_eq!(columns, &[1, 3]);
    }

    #[test]
    fn distinct_stops_pruning_below_it() {
        let plan = pruned("SELECT count(*) FROM (SELECT DISTINCT g, v FROM t) AS d");
        assert_eq!(names(&plan, first(&plan, "Scan")), ["g", "v"]);
        assert_eq!(names(&plan, first(&plan, "Distinct")), ["g", "v"]);
    }

    #[test]
    fn columns_read_only_by_having_or_order_by_are_kept() {
        // `sum(v)` is read by `HAVING` alone: the aggregate keeps it.
        let plan = pruned("SELECT g FROM t GROUP BY g HAVING sum(v) > 10");
        assert_eq!(names(&plan, first(&plan, "Scan")), ["g", "v"]);
        let agg = first(&plan, "Aggregate");
        assert_eq!(plan.node(agg).schema.len(), 2);
        assert!(matches!(
            &plan.node(agg).op,
            Operator::Aggregate { having: Some(_), aggs, .. } if aggs.len() == 1
        ));
        // `v` is read by `ORDER BY` alone: carried up to the sort, not past.
        let plan = pruned("SELECT x.g FROM (SELECT g, v FROM t ORDER BY v LIMIT 2) AS x");
        let sort = first(&plan, "Sort");
        assert_eq!(names(&plan, plan.node(sort).children[0]), ["g", "v"]);
        assert_eq!(names(&plan, sort), ["g"]);
    }

    #[test]
    fn pruning_twice_is_pruning_once() {
        for sql in [
            "SELECT g, w FROM t, u WHERE t.k = u.k AND v < 3",
            "SELECT x.g FROM (SELECT g, v FROM t ORDER BY v LIMIT 2) AS x",
            "SELECT m, count(*) FROM (SELECT g AS m, s FROM t WHERE v > 1) AS x \
             WHERE x.s <> 'a' GROUP BY m",
        ] {
            let once = pruned(sql);
            assert_eq!(prune(&once), once, "`{sql}`");
        }
    }
}
