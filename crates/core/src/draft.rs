//! Job drafts and the merging rules (§V-B).
//!
//! A *draft* is a set of shuffle nodes destined for one MapReduce job,
//! plus its dependencies on other drafts (a dependency exists when a node
//! reads the materialised output of a node in another draft). Drafts start
//! one-per-node (the one-operation-to-one-job translation of §V-A) and are
//! merged by:
//!
//! * **Rule 1** (first step): drafts containing nodes with input + transit
//!   correlation merge, provided neither draft depends on the other —
//!   dependent nodes are job-flow territory, not Rule 1's.
//! * **Rules 2–4** (second step): a node with job flow correlation to a
//!   child is moved into the child's draft. Rule 4's "child exchange"
//!   materialises as a dependency edge: the merged job runs after the
//!   non-correlated side's job, exactly the sequencing Fig. 7(b) shows.
//!
//! Merging is gated on *positional* key compatibility on top of the
//! report's set-based matching: co-partitioning requires the shuffle key
//! tuples to align column-by-column, which is trivially true for the
//! single-column keys of the paper's workloads and checked explicitly for
//! wider keys.

use std::collections::{BTreeSet, HashMap};

use ysmart_plan::{CorrelationReport, NodeId, Operator, PartitionKey, Plan};

use crate::options::TranslateOptions;

/// One future MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct Draft {
    /// The shuffle nodes merged into this job, in plan post-order.
    pub nodes: Vec<NodeId>,
    /// Indices (into the returned draft list) of drafts that must run
    /// before this one.
    pub deps: BTreeSet<usize>,
}

struct Builder {
    /// union-find parent per original draft index.
    parent: Vec<usize>,
    nodes: Vec<Vec<NodeId>>,
    deps: Vec<BTreeSet<usize>>,
    draft_of: HashMap<NodeId, usize>,
    post_pos: HashMap<NodeId, usize>,
}

impl Builder {
    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, into: usize, from: usize) {
        let (into, from) = (self.find(into), self.find(from));
        if into == from {
            return;
        }
        self.parent[from] = into;
        let moved = std::mem::take(&mut self.nodes[from]);
        self.nodes[into].extend(moved);
        let pos = &self.post_pos;
        self.nodes[into].sort_by_key(|n| pos[n]);
        let moved_deps = std::mem::take(&mut self.deps[from]);
        self.deps[into].extend(moved_deps);
    }

    /// Whether draft `a` (transitively) depends on draft `b`.
    fn depends(&mut self, a: usize, b: usize) -> bool {
        let b = self.find(b);
        let mut seen = BTreeSet::new();
        let mut stack = vec![self.find(a)];
        while let Some(d) = stack.pop() {
            if !seen.insert(d) {
                continue;
            }
            let deps: Vec<usize> = self.deps[d].iter().copied().collect();
            for dep in deps {
                let dep = self.find(dep);
                if dep == b {
                    return true;
                }
                stack.push(dep);
            }
        }
        false
    }

    fn draft_of(&mut self, n: NodeId) -> usize {
        let d = self.draft_of[&n];
        self.find(d)
    }
}

/// Positional key compatibility: set-based PK matching is enough for
/// single-column keys; wider keys must align column-by-column so that the
/// composed shuffle key tuples collide.
fn pk_aligned(a: &PartitionKey, b: &PartitionKey, value_level: bool) -> bool {
    if a.columns.len() != b.columns.len() {
        return false;
    }
    if a.columns.len() == 1 {
        return true; // set match (already established) == positional match
    }
    a.columns.iter().zip(&b.columns).all(|(x, y)| {
        if value_level {
            x.matches_value(y)
        } else {
            x.matches_table(y)
        }
    })
}

/// Builds the final, topologically ordered draft list for a plan.
///
/// With all options off this is exactly the one-operation-to-one-job
/// translation; enabling `merge_ic_tc`/`merge_jfc` applies the paper's
/// rules.
#[must_use]
pub fn build_drafts(
    plan: &Plan,
    report: &CorrelationReport,
    opts: &TranslateOptions,
) -> Vec<Draft> {
    let shuffle_nodes: Vec<NodeId> = report.nodes.iter().map(|n| n.id).collect();
    let post: Vec<NodeId> = plan.post_order(plan.root());
    let post_pos: HashMap<NodeId, usize> = post.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    let mut b = Builder {
        parent: (0..shuffle_nodes.len()).collect(),
        nodes: shuffle_nodes.iter().map(|&n| vec![n]).collect(),
        deps: vec![BTreeSet::new(); shuffle_nodes.len()],
        draft_of: shuffle_nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect(),
        post_pos,
    };

    // Initial dependencies: each node's job reads its shuffle children's
    // outputs.
    for (i, &n) in shuffle_nodes.iter().enumerate() {
        for &c in &report.info(n).shuffle_children {
            let cd = b.draft_of[&c];
            b.deps[i].insert(cd);
        }
    }

    // ---- Step 1: Rule 1 (input + transit correlation) ---------------------
    if opts.merge_ic_tc {
        loop {
            let mut merged_any = false;
            'outer: for i in 0..shuffle_nodes.len() {
                for j in (i + 1)..shuffle_nodes.len() {
                    let (di, dj) = (b.find(i), b.find(j));
                    if di == dj {
                        continue;
                    }
                    let tc = b.nodes[di].iter().any(|&na| {
                        b.nodes[dj].iter().any(|&nb| {
                            report.has_tc(na, nb)
                                && pk_aligned(&report.info(na).pk, &report.info(nb).pk, false)
                        })
                    });
                    if tc && !b.depends(di, dj) && !b.depends(dj, di) {
                        b.union(di, dj);
                        merged_any = true;
                        break 'outer;
                    }
                }
            }
            if !merged_any {
                break;
            }
        }
    }

    // ---- Step 2: Rules 2–4 (job flow correlation) --------------------------
    if opts.merge_jfc {
        for &p in &shuffle_nodes {
            let dp = b.draft_of(p);
            if b.nodes[dp].len() != 1 {
                // Only move single-node drafts; a draft that already hosts
                // other operations stays put (conservative, and sufficient
                // for the paper's rule set — merged parents are always
                // single operations at the time their rule applies).
                continue;
            }
            let info = report.info(p);
            let node = plan.node(p);
            match &node.op {
                // Rule 2: aggregation into its only preceding job.
                Operator::Aggregate { .. } => {
                    if let [c] = info.shuffle_children[..] {
                        if report.has_jfc(p, c) && pk_aligned(&info.pk, &report.info(c).pk, true) {
                            let dc = b.draft_of(c);
                            b.union(dc, dp);
                        }
                    }
                }
                // Rules 3 and 4: joins.
                Operator::Join { .. } => {
                    let children = info.shuffle_children.clone();
                    let jfc: Vec<NodeId> = children
                        .iter()
                        .copied()
                        .filter(|&c| {
                            report.has_jfc(p, c) && pk_aligned(&info.pk, &report.info(c).pk, true)
                        })
                        .collect();
                    if jfc.is_empty() {
                        continue;
                    }
                    // Rule 3: both preceding jobs already share a draft.
                    if children.len() == 2 {
                        let (d0, d1) = (b.draft_of(children[0]), b.draft_of(children[1]));
                        if d0 == d1 && jfc.len() == 2 {
                            b.union(d0, dp);
                            continue;
                        }
                    }
                    // Rule 4: merge into a JFC child's draft; the other
                    // child's job must run first (dependency edge). Try each
                    // JFC child until one is acyclic.
                    'try_children: for &c1 in &jfc {
                        let d1 = b.draft_of(c1);
                        let mut new_deps: Vec<usize> = Vec::new();
                        for &c2 in &children {
                            if c2 == c1 {
                                continue;
                            }
                            let d2 = b.draft_of(c2);
                            if d2 == d1 {
                                continue;
                            }
                            if b.depends(d2, d1) {
                                continue 'try_children; // would create a cycle
                            }
                            new_deps.push(d2);
                        }
                        b.union(d1, dp);
                        let d1 = b.find(d1);
                        for d2 in new_deps {
                            let d2 = b.find(d2);
                            if d2 != d1 {
                                b.deps[d1].insert(d2);
                            }
                        }
                        break;
                    }
                }
                _ => {}
            }
        }
    }

    // ---- Collect alive drafts and topo-sort --------------------------------
    let alive: Vec<usize> = (0..shuffle_nodes.len())
        .filter(|&i| b.find(i) == i && !b.nodes[i].is_empty())
        .collect();
    let index_of: HashMap<usize, usize> = alive.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let mut drafts: Vec<Draft> = Vec::with_capacity(alive.len());
    for &i in &alive {
        let raw_deps: Vec<usize> = b.deps[i].iter().copied().collect();
        let mut deps = BTreeSet::new();
        for d in raw_deps {
            let r = b.find(d);
            if r != i {
                deps.insert(index_of[&r]);
            }
        }
        drafts.push(Draft {
            nodes: b.nodes[i].clone(),
            deps,
        });
    }

    // Kahn topological sort, stable by original order.
    let n = drafts.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let mut progressed = false;
        for i in 0..n {
            if !placed[i] && drafts[i].deps.iter().all(|&d| placed[d]) {
                placed[i] = true;
                order.push(i);
                progressed = true;
            }
        }
        assert!(progressed, "cyclic draft dependencies");
    }
    let renumber: HashMap<usize, usize> = order.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    order
        .iter()
        .map(|&i| Draft {
            nodes: drafts[i].nodes.clone(),
            deps: drafts[i].deps.iter().map(|d| renumber[d]).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Strategy;
    use ysmart_plan::{analyze, build_plan, Catalog};
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
                    ("l_receiptdate", DataType::Int),
                    ("l_commitdate", DataType::Int),
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

    fn drafts_for(sql: &str, strategy: Strategy) -> Vec<Draft> {
        let plan = build_plan(&catalog(), &parse(sql).unwrap()).unwrap();
        let report = analyze(&plan);
        build_drafts(&plan, &report, &strategy.options())
    }

    const Q17: &str = "SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
        FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
              FROM lineitem GROUP BY l_partkey) AS inner_t,
             (SELECT l_partkey, l_quantity, l_extendedprice
              FROM lineitem, part
              WHERE p_partkey = l_partkey) AS outer_t
        WHERE outer_t.l_partkey = inner_t.l_partkey
          AND outer_t.l_quantity < inner_t.t1";

    /// §VII-A: Hive runs Q17 as four jobs; YSmart runs the JOIN2 subtree as
    /// one job plus the final aggregation — two in total.
    #[test]
    fn q17_job_counts_match_paper() {
        assert_eq!(drafts_for(Q17, Strategy::Hive).len(), 4);
        assert_eq!(drafts_for(Q17, Strategy::YSmart).len(), 2);
        // Rule 1 only: AGG1+JOIN1 share a job; JOIN2 and AGG2 stay separate.
        assert_eq!(drafts_for(Q17, Strategy::YSmartNoJfc).len(), 3);
    }

    /// §VII-A: Q-CSA is six jobs under Hive and two under YSmart.
    #[test]
    fn q_csa_job_counts_match_paper() {
        let q_csa = "SELECT avg(pageview_count) FROM
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
             GROUP BY c.uid, mp.ts1) AS pageview_counts";
        assert_eq!(drafts_for(q_csa, Strategy::Hive).len(), 6);
        let ys = drafts_for(q_csa, Strategy::YSmart);
        assert_eq!(ys.len(), 2, "{ys:?}");
        // The big job executes five operations (JOIN1, AGG1, AGG2, JOIN2,
        // AGG3); the second job is the final AGG4.
        assert_eq!(ys[0].nodes.len(), 5);
        assert_eq!(ys[1].nodes.len(), 1);
    }

    /// Q18's three same-PK operations (JOIN1, AGG1, JOIN2) fuse into one
    /// job (§VII-A).
    #[test]
    fn q18_three_op_job() {
        let q18 = "SELECT o_orderkey, sum(l_quantity)
            FROM (SELECT l_orderkey, sum(l_quantity) AS t_sum_quantity
                  FROM lineitem GROUP BY l_orderkey) AS t,
                 lineitem, orders
            WHERE o_orderkey = t.l_orderkey AND o_orderkey = lineitem.l_orderkey
              AND t.t_sum_quantity > 300
            GROUP BY o_orderkey";
        let hive = drafts_for(q18, Strategy::Hive);
        let ys = drafts_for(q18, Strategy::YSmart);
        assert!(hive.len() > ys.len());
        assert_eq!(ys.len(), 1, "{ys:?}");
        // All four same-key operations (AGG1, JOIN1, JOIN2, AGG-final on
        // o_orderkey) run in a single job here, since even the final
        // aggregation groups by the shared key.
        assert_eq!(ys[0].nodes.len(), 4);
    }

    /// Dependencies are topologically ordered and intra-list indices valid.
    #[test]
    fn drafts_topologically_ordered() {
        for strategy in Strategy::all() {
            let ds = drafts_for(Q17, strategy);
            for (i, d) in ds.iter().enumerate() {
                for &dep in &d.deps {
                    assert!(
                        dep < i,
                        "draft {i} depends on later draft {dep} ({strategy})"
                    );
                }
            }
        }
    }

    /// With every option off (Hive/Pig), each shuffle node is its own job —
    /// the literal one-operation-to-one-job translation.
    #[test]
    fn one_op_one_job_baseline() {
        let ds = drafts_for(Q17, Strategy::Pig);
        assert!(ds.iter().all(|d| d.nodes.len() == 1));
    }
}
