//! The relational oracle: a straightforward single-node executor.
//!
//! Evaluates a logical [`Plan`] tuple-at-a-time in memory, with textbook
//! hash joins and hash aggregation. Every MapReduce execution in the test
//! suite and the figure harnesses is checked against this executor, so a
//! translation bug can never masquerade as a performance result.
//!
//! The oracle doubles as the paper's DBMS baseline (§VII-D): it tracks
//! bytes scanned and row operations, and [`DbmsProfile::seconds`] converts
//! them into a simulated single-node time that the benches divide by the
//! core count to build the "ideal parallel PostgreSQL".
//!
//! One deliberate deviation from textbook SQL: a *global* aggregation over
//! zero input rows yields zero rows (not one all-NULL row), matching what
//! a MapReduce job with no reduce groups produces — the behaviour of the
//! systems being modelled.

use std::collections::BTreeMap;

use ysmart_plan::{JoinKind, NodeId, Operator, Plan};
use ysmart_rel::sort::sort_rows;
use ysmart_rel::{AggState, Expr, RelError, Row, Value};

/// What the oracle measured while executing.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// The result rows.
    pub rows: Vec<Row>,
    /// Total row operations performed (scan, probe, aggregate, sort…).
    pub row_ops: u64,
    /// Bytes of base-table data scanned.
    pub bytes_scanned: u64,
}

/// Cost profile of the simulated single-node DBMS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbmsProfile {
    /// Sequential scan bandwidth, MB/s.
    pub scan_mbps: f64,
    /// Row operations per second.
    pub rows_per_sec: f64,
    /// Parallelism divisor for the "ideal parallel DBMS" (the paper
    /// assumes a perfect 4× speedup on the quad-core node).
    pub parallelism: f64,
}

impl Default for DbmsProfile {
    fn default() -> Self {
        DbmsProfile {
            scan_mbps: 200.0,
            rows_per_sec: 4.0e6,
            parallelism: 4.0,
        }
    }
}

impl DbmsProfile {
    /// Simulated seconds for an outcome under this profile.
    #[must_use]
    pub fn seconds(&self, outcome: &OracleOutcome) -> f64 {
        (outcome.bytes_scanned as f64 / (self.scan_mbps * 1e6)
            + outcome.row_ops as f64 / self.rows_per_sec)
            / self.parallelism
    }
}

/// Compares two result sets with a relative tolerance on floats —
/// MapReduce and the oracle sum in different orders, so exact float
/// equality is too strict. `ordered` compares as sequences, otherwise as
/// multisets (sorted).
#[must_use]
pub fn rows_approx_equal(a: &[Row], b: &[Row], ordered: bool) -> bool {
    fn value_eq(x: &Value, y: &Value) -> bool {
        match (x.as_float(), y.as_float()) {
            (Some(fx), Some(fy)) => {
                let scale = fx.abs().max(fy.abs()).max(1.0);
                (fx - fy).abs() <= 1e-9 * scale
            }
            _ => x == y,
        }
    }
    fn row_eq(x: &Row, y: &Row) -> bool {
        x.len() == y.len()
            && x.values()
                .iter()
                .zip(y.values())
                .all(|(a, b)| value_eq(a, b))
    }
    if a.len() != b.len() {
        return false;
    }
    if ordered {
        return a.iter().zip(b).all(|(x, y)| row_eq(x, y));
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort();
    sb.sort();
    sa.iter().zip(&sb).all(|(x, y)| row_eq(x, y))
}

/// Executes a plan against base tables (`name → rows`).
///
/// # Errors
///
/// Expression-evaluation failures ([`RelError`]).
pub fn oracle_execute(
    plan: &Plan,
    tables: &BTreeMap<String, Vec<Row>>,
) -> Result<OracleOutcome, RelError> {
    let mut ctx = Ctx {
        plan,
        tables,
        row_ops: 0,
        bytes_scanned: 0,
    };
    let rows = ctx.eval(plan.root())?;
    Ok(OracleOutcome {
        rows,
        row_ops: ctx.row_ops,
        bytes_scanned: ctx.bytes_scanned,
    })
}

struct Ctx<'a> {
    plan: &'a Plan,
    tables: &'a BTreeMap<String, Vec<Row>>,
    row_ops: u64,
    bytes_scanned: u64,
}

impl Ctx<'_> {
    fn eval(&mut self, id: NodeId) -> Result<Vec<Row>, RelError> {
        let node = self.plan.node(id);
        match &node.op {
            Operator::Scan {
                table, predicate, ..
            } => {
                let rows = self
                    .tables
                    .get(table)
                    .ok_or_else(|| RelError::UnknownColumn(format!("table {table}")))?;
                let mut out = Vec::new();
                for r in rows {
                    self.row_ops += 1;
                    self.bytes_scanned += r.size_bytes() as u64;
                    let keep = match predicate {
                        None => true,
                        Some(p) => p.eval_predicate(r)?,
                    };
                    if keep {
                        out.push(r.clone());
                    }
                }
                Ok(out)
            }
            Operator::Filter { predicate } => {
                let input = self.eval(node.children[0])?;
                let mut out = Vec::with_capacity(input.len());
                for r in input {
                    self.row_ops += 1;
                    if predicate.eval_predicate(&r)? {
                        out.push(r);
                    }
                }
                Ok(out)
            }
            Operator::Project { exprs } => {
                let input = self.eval(node.children[0])?;
                let mut out = Vec::with_capacity(input.len());
                for r in input {
                    self.row_ops += 1;
                    let mut vals = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        vals.push(e.eval(&r)?);
                    }
                    out.push(Row::new(vals));
                }
                Ok(out)
            }
            Operator::Join {
                kind,
                left_keys,
                right_keys,
                residual,
            } => {
                // Widths come from the plan schemas, not the (possibly
                // empty) row collections — outer joins pad with them.
                let left_width = self.plan.node(node.children[0]).schema.len();
                let right_width = self.plan.node(node.children[1]).schema.len();
                let left = self.eval(node.children[0])?;
                let right = self.eval(node.children[1])?;
                self.hash_join(
                    &left,
                    &right,
                    *kind,
                    left_keys,
                    right_keys,
                    residual.as_ref(),
                    left_width,
                    right_width,
                )
            }
            Operator::Aggregate {
                group_by,
                aggs,
                having,
            } => {
                let input = self.eval(node.children[0])?;
                self.aggregate(&input, group_by, aggs, having.as_ref())
            }
            Operator::Distinct => {
                let input = self.eval(node.children[0])?;
                let mut seen = std::collections::BTreeSet::new();
                let mut out = Vec::new();
                for r in input {
                    self.row_ops += 1;
                    if seen.insert(r.clone()) {
                        out.push(r);
                    }
                }
                Ok(out)
            }
            Operator::Sort { keys } => {
                let mut input = self.eval(node.children[0])?;
                self.row_ops += (input.len() as f64 * (input.len().max(2) as f64).log2()) as u64;
                sort_rows(keys, &mut input);
                Ok(input)
            }
            Operator::Limit { n } => {
                let mut input = self.eval(node.children[0])?;
                input.truncate(*n as usize);
                Ok(input)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &mut self,
        left: &[Row],
        right: &[Row],
        kind: JoinKind,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&Expr>,
        left_width: usize,
        right_width: usize,
    ) -> Result<Vec<Row>, RelError> {
        let _ = left_width;
        // Build on the right side; SQL NULL keys never match.
        let mut table: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (i, r) in right.iter().enumerate() {
            self.row_ops += 1;
            let key: Vec<Value> = right_keys
                .iter()
                .map(|&k| r.get(k).cloned().unwrap_or(Value::Null))
                .collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(i);
        }
        let mut right_matched = vec![false; right.len()];
        let mut out = Vec::new();
        for l in left {
            self.row_ops += 1;
            let key: Vec<Value> = left_keys
                .iter()
                .map(|&k| l.get(k).cloned().unwrap_or(Value::Null))
                .collect();
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(candidates) = table.get(&key) {
                    for &ri in candidates {
                        self.row_ops += 1;
                        let joined = l.concat(&right[ri]);
                        let pass = match residual {
                            None => true,
                            Some(p) => p.eval_predicate(&joined)?,
                        };
                        if pass {
                            matched = true;
                            right_matched[ri] = true;
                            out.push(joined);
                        }
                    }
                }
            }
            if !matched && matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
                out.push(l.concat(&Row::nulls(right_width)));
            }
        }
        if matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
            for (ri, r) in right.iter().enumerate() {
                if !right_matched[ri] {
                    out.push(Row::nulls(left_width).concat(r));
                }
            }
        }
        Ok(out)
    }

    fn aggregate(
        &mut self,
        input: &[Row],
        group_by: &[usize],
        aggs: &[ysmart_plan::AggCall],
        having: Option<&Expr>,
    ) -> Result<Vec<Row>, RelError> {
        let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
        for r in input {
            self.row_ops += 1;
            let key: Vec<Value> = group_by
                .iter()
                .map(|&g| r.get(g).cloned().unwrap_or(Value::Null))
                .collect();
            let states = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| a.func.new_state()).collect());
            for (state, call) in states.iter_mut().zip(aggs) {
                let v = match &call.arg {
                    Some(e) => e.eval(r)?,
                    None => Value::Int(1), // count(*)
                };
                state.update(&v)?;
            }
        }
        let mut out = Vec::with_capacity(groups.len());
        for (key, states) in groups {
            let mut vals = key;
            for s in &states {
                vals.push(s.finish());
            }
            let row = Row::new(vals);
            let keep = match having {
                None => true,
                Some(h) => h.eval_predicate(&row)?,
            };
            if keep {
                out.push(row);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_plan::{build_plan, Catalog};
    use ysmart_rel::{row, DataType, Schema};
    use ysmart_sql::parse;

    fn setup() -> (Catalog, BTreeMap<String, Vec<Row>>) {
        let mut cat = Catalog::new();
        cat.add_table(
            "t",
            Schema::of("t", &[("k", DataType::Int), ("v", DataType::Int)]),
        );
        cat.add_table(
            "u",
            Schema::of("u", &[("k", DataType::Int), ("w", DataType::Str)]),
        );
        let mut tables = BTreeMap::new();
        tables.insert(
            "t".to_string(),
            vec![row![1i64, 10i64], row![1i64, 20i64], row![2i64, 30i64]],
        );
        tables.insert("u".to_string(), vec![row![1i64, "a"], row![3i64, "b"]]);
        (cat, tables)
    }

    fn run(sql: &str) -> Vec<Row> {
        let (cat, tables) = setup();
        let plan = build_plan(&cat, &parse(sql).unwrap()).unwrap();
        oracle_execute(&plan, &tables).unwrap().rows
    }

    #[test]
    fn scan_filter_project() {
        let rows = run("SELECT v FROM t WHERE k = 1");
        assert_eq!(rows, vec![row![10i64], row![20i64]]);
    }

    #[test]
    fn inner_and_left_join() {
        let rows = run("SELECT v, w FROM t JOIN u ON t.k = u.k");
        assert_eq!(rows.len(), 2);
        let rows = run("SELECT v, w FROM t LEFT OUTER JOIN u ON t.k = u.k");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().any(|r| r.get(1).unwrap().is_null()));
    }

    #[test]
    fn right_outer_join_pads_left() {
        let rows = run("SELECT v, w FROM t RIGHT OUTER JOIN u ON t.k = u.k");
        // u.k=3 has no t partner.
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().any(|r| r.get(0).unwrap().is_null()));
    }

    #[test]
    fn aggregate_group_and_having() {
        let rows = run("SELECT k, sum(v) FROM t GROUP BY k HAVING sum(v) > 25");
        assert_eq!(rows, vec![row![1i64, 30i64], row![2i64, 30i64]]);
    }

    #[test]
    fn global_agg_empty_input_yields_no_rows() {
        let rows = run("SELECT sum(v) FROM t WHERE k = 99");
        assert!(rows.is_empty(), "matches MapReduce semantics");
    }

    #[test]
    fn order_and_limit() {
        let rows = run("SELECT v FROM t ORDER BY v DESC LIMIT 2");
        assert_eq!(rows, vec![row![30i64], row![20i64]]);
    }

    #[test]
    fn distinct() {
        let rows = run("SELECT DISTINCT k FROM t");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn cost_counters_populate() {
        let (cat, tables) = setup();
        let plan = build_plan(
            &cat,
            &parse("SELECT k, count(*) FROM t GROUP BY k").unwrap(),
        )
        .unwrap();
        let out = oracle_execute(&plan, &tables).unwrap();
        assert!(out.row_ops > 0);
        assert!(out.bytes_scanned > 0);
        let profile = DbmsProfile::default();
        assert!(profile.seconds(&out) > 0.0);
    }
}
