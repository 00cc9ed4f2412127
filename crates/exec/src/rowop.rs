//! Row-stream transforms attached to operator outputs.
//!
//! `Filter`, `Project`, `Sort` and `Limit` never get a MapReduce job of
//! their own (§V-A: selections/projections "are executed by the job
//! itself"); they run as cheap transforms on the output of the operator
//! they are attached to. The common reducer applies them to a run's
//! batches; [`RowOp::apply`] and [`apply_chain`] are their row-at-a-time
//! definition, which the reducer's equivalence reference runs.

use std::borrow::Cow;
use ysmart_rel::sort::sort_rows;

use ysmart_rel::{Columns, Expr, RelError, Row, SortKey};

use crate::error::ExecError;

/// One transform applied to an operator's output rows.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOp {
    /// Keep rows satisfying the predicate.
    Filter(Expr),
    /// Compute a new row per input row.
    Project(Vec<Expr>),
    /// Sort the collection (only meaningful on single-reducer outputs,
    /// which is how Hive executes `ORDER BY` too).
    Sort(Vec<SortKey>),
    /// Keep the first `n` rows.
    Limit(usize),
}

impl RowOp {
    /// Applies the transform to a row collection, reporting the work done.
    ///
    /// # Errors
    ///
    /// Expression failures from `Filter`/`Project`.
    pub fn apply(&self, mut rows: Vec<Row>, work: &mut u64) -> Result<Vec<Row>, ExecError> {
        *work += rows.len() as u64;
        match self {
            RowOp::Filter(pred) => {
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    if pred.eval_predicate(&r)? {
                        out.push(r);
                    }
                }
                Ok(out)
            }
            RowOp::Project(exprs) => {
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    out.push(project(exprs, &r)?);
                }
                Ok(out)
            }
            RowOp::Sort(keys) => {
                sort_rows(keys, &mut rows);
                Ok(rows)
            }
            RowOp::Limit(n) => {
                rows.truncate(*n);
                Ok(rows)
            }
        }
    }
}

/// Computes one projected row from anything addressable by column.
pub(crate) fn project<C: Columns + ?Sized>(exprs: &[Expr], row: &C) -> Result<Row, RelError> {
    let mut vals = Vec::with_capacity(exprs.len());
    for e in exprs {
        vals.push(e.eval_on(row).map(Cow::into_owned)?);
    }
    Ok(Row::new(vals))
}

/// Applies a transform chain in order.
///
/// # Errors
///
/// Propagates the first failing transform.
pub fn apply_chain(ops: &[RowOp], rows: Vec<Row>, work: &mut u64) -> Result<Vec<Row>, ExecError> {
    let mut rows = rows;
    for op in ops {
        rows = op.apply(rows, work)?;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::{row, BinOp};

    #[test]
    fn filter_project_chain() {
        let rows = vec![row![1i64, 10i64], row![2i64, 20i64], row![3i64, 30i64]];
        let ops = vec![
            RowOp::Filter(Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1i64))),
            RowOp::Project(vec![Expr::col(1)]),
        ];
        let mut work = 0;
        let out = apply_chain(&ops, rows, &mut work).unwrap();
        assert_eq!(out, vec![row![20i64], row![30i64]]);
        assert_eq!(work, 3 + 2, "filter saw 3 rows, project saw 2");
    }

    #[test]
    fn sort_and_limit() {
        let rows = vec![row![3i64], row![1i64], row![2i64]];
        let ops = vec![RowOp::Sort(vec![SortKey::desc(0)]), RowOp::Limit(2)];
        let mut work = 0;
        let out = apply_chain(&ops, rows, &mut work).unwrap();
        assert_eq!(out, vec![row![3i64], row![2i64]]);
    }

    #[test]
    fn filter_error_propagates() {
        let rows = vec![row!["x"]];
        let ops = vec![RowOp::Filter(Expr::binary(
            BinOp::Add,
            Expr::col(0),
            Expr::lit(1i64),
        ))];
        let mut work = 0;
        assert!(apply_chain(&ops, rows, &mut work).is_err());
    }
}
