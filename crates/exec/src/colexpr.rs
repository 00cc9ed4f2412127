//! Vectorized expression evaluation over column batches — the one kernel
//! library of both sides of a job: the common mapper's selections and the
//! common reducer's residuals, transforms, aggregate arguments and `HAVING`.
//!
//! [`eval_mask`] evaluates a predicate [`Expr`] against a whole batch at
//! once, returning one Kleene truth value per row (`Some(true)` /
//! `Some(false)` / `None` = SQL unknown) — the columnar counterpart of
//! [`Expr::eval_predicate`] called row by row, with identical semantics:
//! a row passes the predicate iff its mask slot is `Some(true)`.
//! [`eval_column`] is the same for a value: one column holding what
//! [`Expr::eval`] gives on each row.
//!
//! Only the shapes the translated plans actually produce get fast paths:
//! comparisons of a column against a literal (typed per-column kernels; a
//! dictionary-encoded string column is compared once per *dictionary
//! entry*, not once per row) or against another column (Q21's
//! `l_receiptdate > l_commitdate`), `AND`/`OR`/`NOT` in Kleene logic,
//! `IS [NOT] NULL` of a column, and — as values — columns, literals and
//! arithmetic over them (Q17's `0.2 * avg`, Q-CSA's `count(*) - 2`).
//! Anything else returns `None`, and `predicate_mask` / `value_column`
//! — what both sides call — fall back to the row evaluator for that
//! expression alone: correctness never depends on a fast path existing.
//! Every mask shape is total (comparisons yield unknown, never an error),
//! so a Kleene connective never evaluates a side the row evaluator would
//! have skipped into an error: arithmetic, which can fail, has a value
//! kernel but no mask kernel. An arithmetic kernel fails exactly when the
//! row evaluator fails on some row.

use std::borrow::Cow;
use std::cmp::Ordering;

use ysmart_rel::colbatch::{Column, ColumnBatch};
use ysmart_rel::{BinOp, Expr, RelError, Row, UnOp, Value};

/// One Kleene truth value per batch row.
pub type Mask = Vec<Option<bool>>;

/// What the kernels read: a batch's row count and its typed columns — a
/// decoded [`ColumnBatch`] on the map side, a run of key groups' gathered
/// columns on the reduce side.
pub trait Columnar {
    /// Number of rows.
    fn num_rows(&self) -> usize;

    /// Column `i`; `None` past the batch's width.
    fn column(&self, i: usize) -> Option<&Column>;

    /// Row `r`, built — for an expression without a kernel.
    fn row(&self, r: usize) -> Row;
}

impl Columnar for ColumnBatch {
    fn num_rows(&self) -> usize {
        ColumnBatch::num_rows(self)
    }

    fn column(&self, i: usize) -> Option<&Column> {
        self.columns().get(i)
    }

    fn row(&self, r: usize) -> Row {
        ColumnBatch::row(self, r)
    }
}

/// `expr` as a predicate over every row of `batch`: its mask kernel, or else
/// the row evaluator row by row.
///
/// # Errors
///
/// The row evaluator's first error (a mask kernel never fails).
pub(crate) fn predicate_mask<B: Columnar + ?Sized>(
    expr: &Expr,
    batch: &B,
) -> Result<Mask, RelError> {
    match eval_mask(expr, batch) {
        Some(mask) => Ok(mask),
        None => (0..batch.num_rows())
            .map(|r| expr.eval_predicate(&batch.row(r)).map(Some))
            .collect(),
    }
}

/// `expr` as a value at rows `rows` of `batch` (`None`: every row): a column
/// of the batch's length holding what [`Expr::eval`] gives at each of those
/// rows. It is the kernel's column where the kernel exists and succeeds;
/// otherwise the row evaluator runs over `rows` alone and the other rows
/// hold NULL, so an expression that fails only outside `rows` does not
/// fail.
///
/// # Errors
///
/// When `expr` fails on one of `rows`: over every row the kernel's error,
/// else the row evaluator's first.
pub(crate) fn value_column<'b, B: Columnar + ?Sized>(
    expr: &Expr,
    batch: &'b B,
    rows: Option<&[usize]>,
) -> Result<Cow<'b, Column>, RelError> {
    match eval_column(expr, batch) {
        Some(Ok(col)) => return Ok(col),
        Some(Err(e)) if rows.is_none() => return Err(e),
        _ => {}
    }
    let n = batch.num_rows();
    let mut vals = vec![Value::Null; n];
    let mut eval = |r: usize| -> Result<(), RelError> {
        vals[r] = expr.eval(&batch.row(r))?;
        Ok(())
    };
    match rows {
        Some(rows) => rows.iter().try_for_each(|&r| eval(r))?,
        None => (0..n).try_for_each(eval)?,
    }
    Ok(Cow::Owned(Column::from_cells(n, |r| &vals[r])))
}

/// Whether `expr` has a kernel over batches `width` columns wide — a mask
/// kernel as a `predicate`, a value kernel otherwise. Kernels depend only on
/// an expression's shape and the width, so this probes an empty batch.
#[must_use]
pub(crate) fn has_kernel(expr: &Expr, width: usize, predicate: bool) -> bool {
    let probe = ColumnBatch::from_cells(0, width, |_, _| unreachable!("no rows"))
        .expect("an empty batch encodes");
    if predicate {
        eval_mask(expr, &probe).is_some()
    } else {
        eval_column(expr, &probe).is_some()
    }
}

/// Does `ord` satisfy the comparison `op`? Mirrors the row evaluator's
/// ordering-to-bool mapping exactly.
fn ord_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("comparison op"),
    }
}

fn combine(op: BinOp, l: Mask, r: Mask) -> Mask {
    l.into_iter()
        .zip(r)
        .map(|(a, b)| match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!("logic op"),
        })
        .collect()
}

/// Comparison of a column against a literal. `flipped` means the literal
/// was the left operand (`lit OP col`), handled by reversing the ordering.
fn cmp_col_lit(col: &Column, lit: &Value, op: BinOp, flipped: bool, rows: usize) -> Mask {
    let fix = |ord: Ordering| if flipped { ord.reverse() } else { ord };
    match (col, lit) {
        (_, Value::Null) => vec![None; rows],
        (Column::Int { data, nulls }, Value::Int(b)) => data
            .iter()
            .zip(nulls)
            .map(|(a, &n)| (!n).then(|| ord_matches(op, fix(a.cmp(b)))))
            .collect(),
        (Column::Int { data, nulls }, Value::Float(b)) => data
            .iter()
            .zip(nulls)
            .map(|(a, &n)| {
                if n {
                    None
                } else {
                    (*a as f64).partial_cmp(b).map(|o| ord_matches(op, fix(o)))
                }
            })
            .collect(),
        (Column::Float { data, nulls }, Value::Int(_) | Value::Float(_)) => {
            let b = lit.as_float().expect("numeric literal");
            data.iter()
                .zip(nulls)
                .map(|(a, &n)| {
                    if n {
                        None
                    } else {
                        a.partial_cmp(&b).map(|o| ord_matches(op, fix(o)))
                    }
                })
                .collect()
        }
        (Column::Bool { data, nulls }, Value::Bool(b)) => data
            .iter()
            .zip(nulls)
            .map(|(a, &n)| (!n).then(|| ord_matches(op, fix(a.cmp(b)))))
            .collect(),
        (Column::Str { dict, idx, nulls }, Value::Str(s)) => {
            // One comparison per distinct string, then an index lookup per
            // row — the dictionary-encoding payoff.
            let table: Vec<bool> = dict
                .iter()
                .map(|d| ord_matches(op, fix(d.as_str().cmp(s.as_str()))))
                .collect();
            idx.iter()
                .zip(nulls)
                .map(|(&i, &n)| (!n).then(|| table[i as usize]))
                .collect()
        }
        (Column::Var(vals), _) => vals
            .iter()
            .map(|v| v.sql_cmp(lit).map(|o| ord_matches(op, fix(o))))
            .collect(),
        // Cross-type comparisons (e.g. a string column against an integer
        // literal): `Value::sql_cmp` yields `None` for every non-null pair
        // and NULLs compare unknown too, so the whole mask is unknown.
        _ => vec![None; rows],
    }
}

/// Comparison of two columns element-wise, mirroring the row evaluator's
/// `sql_cmp` semantics: NULL on either side compares unknown, numerics
/// widen, and mismatched types are unknown per pair.
fn cmp_col_col(a: &Column, b: &Column, op: BinOp, rows: usize) -> Mask {
    match (a, b) {
        (
            Column::Int {
                data: da,
                nulls: na,
            },
            Column::Int {
                data: db,
                nulls: nb,
            },
        ) => da
            .iter()
            .zip(db)
            .zip(na.iter().zip(nb))
            .map(|((x, y), (&nx, &ny))| (!nx && !ny).then(|| ord_matches(op, x.cmp(y))))
            .collect(),
        (
            Column::Float {
                data: da,
                nulls: na,
            },
            Column::Float {
                data: db,
                nulls: nb,
            },
        ) => da
            .iter()
            .zip(db)
            .zip(na.iter().zip(nb))
            .map(|((x, y), (&nx, &ny))| {
                if nx || ny {
                    None
                } else {
                    x.partial_cmp(y).map(|o| ord_matches(op, o))
                }
            })
            .collect(),
        (
            Column::Int {
                data: da,
                nulls: na,
            },
            Column::Float {
                data: db,
                nulls: nb,
            },
        ) => da
            .iter()
            .zip(db)
            .zip(na.iter().zip(nb))
            .map(|((x, y), (&nx, &ny))| {
                if nx || ny {
                    None
                } else {
                    (*x as f64).partial_cmp(y).map(|o| ord_matches(op, o))
                }
            })
            .collect(),
        (
            Column::Float {
                data: da,
                nulls: na,
            },
            Column::Int {
                data: db,
                nulls: nb,
            },
        ) => da
            .iter()
            .zip(db)
            .zip(na.iter().zip(nb))
            .map(|((x, y), (&nx, &ny))| {
                if nx || ny {
                    None
                } else {
                    x.partial_cmp(&(*y as f64)).map(|o| ord_matches(op, o))
                }
            })
            .collect(),
        (
            Column::Bool {
                data: da,
                nulls: na,
            },
            Column::Bool {
                data: db,
                nulls: nb,
            },
        ) => da
            .iter()
            .zip(db)
            .zip(na.iter().zip(nb))
            .map(|((x, y), (&nx, &ny))| (!nx && !ny).then(|| ord_matches(op, x.cmp(y))))
            .collect(),
        (
            Column::Str {
                dict: dict_a,
                idx: idx_a,
                nulls: na,
            },
            Column::Str {
                dict: dict_b,
                idx: idx_b,
                nulls: nb,
            },
        ) => idx_a
            .iter()
            .zip(idx_b)
            .zip(na.iter().zip(nb))
            .map(|((&ia, &ib), (&nx, &ny))| {
                (!nx && !ny).then(|| ord_matches(op, dict_a[ia as usize].cmp(&dict_b[ib as usize])))
            })
            .collect(),
        // Mixed or Var-typed pairs: per-row `sql_cmp` on materialized
        // values — still one pass, no row materialization.
        _ => (0..rows)
            .map(|r| a.value(r).sql_cmp(&b.value(r)).map(|o| ord_matches(op, o)))
            .collect(),
    }
}

/// Evaluates `expr` as a predicate over every row of `batch` at once.
///
/// Returns `None` when the expression has a shape without a vectorized
/// kernel (arithmetic, out-of-bounds column references) — the caller must
/// then fall back to the row evaluator.
#[must_use]
pub fn eval_mask<B: Columnar + ?Sized>(expr: &Expr, batch: &B) -> Option<Mask> {
    let rows = batch.num_rows();
    match expr {
        Expr::Literal(v) => Some(vec![v.as_bool(); rows]),
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => {
                let l = eval_mask(lhs, batch)?;
                let r = eval_mask(rhs, batch)?;
                Some(combine(*op, l, r))
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                match (&**lhs, &**rhs) {
                    (Expr::Column(i), Expr::Literal(v)) => {
                        Some(cmp_col_lit(batch.column(*i)?, v, *op, false, rows))
                    }
                    (Expr::Literal(v), Expr::Column(i)) => {
                        Some(cmp_col_lit(batch.column(*i)?, v, *op, true, rows))
                    }
                    (Expr::Column(i), Expr::Column(j)) => {
                        Some(cmp_col_col(batch.column(*i)?, batch.column(*j)?, *op, rows))
                    }
                    _ => None,
                }
            }
            // Arithmetic doesn't yield a truth value, and can fail; let the
            // row path handle (and reject) it.
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => None,
        },
        Expr::Unary { op, operand } => match op {
            UnOp::Not => {
                let m = eval_mask(operand, batch)?;
                Some(m.into_iter().map(|v| v.map(|b| !b)).collect())
            }
            UnOp::IsNull | UnOp::IsNotNull => {
                let Expr::Column(i) = &**operand else {
                    return None;
                };
                let col = batch.column(*i)?;
                let want = *op == UnOp::IsNull;
                Some((0..rows).map(|r| Some(col.is_null(r) == want)).collect())
            }
            UnOp::Neg => None,
        },
        // A bare column as a predicate: only boolean columns make sense,
        // everything else evaluates to unknown like the row path.
        Expr::Column(i) => match batch.column(*i)? {
            Column::Bool { data, nulls } => Some(
                data.iter()
                    .zip(nulls)
                    .map(|(&b, &n)| (!n).then_some(b))
                    .collect(),
            ),
            Column::Var(vals) => Some(vals.iter().map(Value::as_bool).collect()),
            _ => Some(vec![None; rows]),
        },
    }
}

/// Evaluates `expr` as a value over every row of `batch` at once: the column
/// of what [`Expr::eval`] gives on each row — a column reference is that
/// column, borrowed.
///
/// Returns `None` when the expression has a shape without a kernel (see
/// [`eval_mask`] for predicates) — the caller must then fall back to the row
/// evaluator — and `Some(Err)` exactly when the row evaluator fails on some
/// row.
pub fn eval_column<'b, B: Columnar + ?Sized>(
    expr: &Expr,
    batch: &'b B,
) -> Option<Result<Cow<'b, Column>, RelError>> {
    let rows = batch.num_rows();
    Some(Ok(match expr {
        Expr::Column(i) => Cow::Borrowed(batch.column(*i)?),
        Expr::Literal(v) => Cow::Owned(Column::from_cells(rows, |_| v)),
        Expr::Binary { op, lhs, rhs } if !op.is_predicate() => {
            let (l, r) = (eval_column(lhs, batch)?, eval_column(rhs, batch)?);
            // The row evaluator fails on the left operand before the right.
            return Some(
                l.and_then(|l| r.and_then(|r| arith(*op, &l, &r)))
                    .map(Cow::Owned),
            );
        }
        Expr::Unary {
            op: UnOp::Neg,
            operand,
        } => {
            // `-x` is `0 - x`, as the row evaluator computes it.
            let x = eval_column(operand, batch)?;
            let zero = Column::from_cells(rows, |_| &Value::Int(0));
            return Some(x.and_then(|x| arith(BinOp::Sub, &zero, &x)).map(Cow::Owned));
        }
        // A truth value: `Bool`, NULL for unknown.
        _ => {
            let mask = eval_mask(expr, batch)?;
            Cow::Owned(Column::Bool {
                data: mask.iter().map(|t| *t == Some(true)).collect(),
                nulls: mask.iter().map(Option::is_none).collect(),
            })
        }
    }))
}

/// `a op b` row by row under `Value`'s arithmetic: NULL propagates before
/// anything is checked, two `Int`s stay integral (checked, division
/// truncating), any `Float` widens, division by zero and a non-numeric
/// operand fail. Numeric columns take typed loops; the rest, and a result
/// that is not a finite float, go through `Value` cell by cell.
fn arith(op: BinOp, a: &Column, b: &Column) -> Result<Column, RelError> {
    let rows = a.len();
    let by_value = || {
        let apply = |r: usize| {
            let (x, y) = (a.value(r), b.value(r));
            match op {
                BinOp::Add => x.add(&y),
                BinOp::Sub => x.sub(&y),
                BinOp::Mul => x.mul(&y),
                BinOp::Div => x.div(&y),
                _ => unreachable!("arithmetic op"),
            }
        };
        let vals = (0..rows).map(apply).collect::<Result<Vec<_>, _>>()?;
        Ok(Column::from_cells(rows, |r| &vals[r]))
    };
    let nulls = || -> Vec<bool> { (0..rows).map(|r| a.is_null(r) || b.is_null(r)).collect() };
    match (a, b) {
        (Column::Int { data: x, .. }, Column::Int { data: y, .. }) => {
            let int_op = |l: i64, r: i64| match op {
                BinOp::Add => l.checked_add(r),
                BinOp::Sub => l.checked_sub(r),
                BinOp::Mul => l.checked_mul(r),
                BinOp::Div => (r != 0).then(|| l / r),
                _ => unreachable!("arithmetic op"),
            };
            let (nulls, mut data) = (nulls(), vec![0; rows]);
            for r in (0..rows).filter(|&r| !nulls[r]) {
                match int_op(x[r], y[r]) {
                    Some(v) => data[r] = v,
                    // Overflow or a zero divisor: the row evaluator's error.
                    None => return by_value(),
                }
            }
            Ok(Column::Int { data, nulls })
        }
        (Column::Int { .. } | Column::Float { .. }, Column::Int { .. } | Column::Float { .. }) => {
            let float = |c: &Column, r: usize| match c {
                Column::Int { data, .. } => data[r] as f64,
                Column::Float { data, .. } => data[r],
                _ => unreachable!("numeric column"),
            };
            let (nulls, mut data) = (nulls(), vec![0.0; rows]);
            for r in (0..rows).filter(|&r| !nulls[r]) {
                let (x, y) = (float(a, r), float(b, r));
                let v = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div if y == 0.0 => return Err(RelError::DivideByZero),
                    BinOp::Div => x / y,
                    _ => unreachable!("arithmetic op"),
                };
                if !v.is_finite() {
                    return by_value();
                }
                data[r] = v;
            }
            Ok(Column::Float { data, nulls })
        }
        _ => by_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::{row, Row};

    fn batch(rows: &[Row]) -> ColumnBatch {
        ColumnBatch::from_rows(rows).unwrap()
    }

    /// Every mask slot must equal the row evaluator's verdict.
    fn assert_matches_rows(e: &Expr, rows: &[Row]) {
        let b = batch(rows);
        let mask = eval_mask(e, &b).expect("mask kernel exists");
        for (r, row) in rows.iter().enumerate() {
            let via_row = e.eval_predicate(row).unwrap();
            assert_eq!(
                mask[r] == Some(true),
                via_row,
                "row {r}: mask {:?} vs eval_predicate {via_row} for {e}",
                mask[r]
            );
        }
    }

    #[test]
    fn int_comparisons_match_row_eval() {
        let rows = vec![row![1i64, 10i64], row![5i64, 3i64], row![7i64, 7i64]];
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            assert_matches_rows(&Expr::binary(op, Expr::col(0), Expr::lit(5i64)), &rows);
            assert_matches_rows(&Expr::binary(op, Expr::lit(5i64), Expr::col(0)), &rows);
        }
    }

    #[test]
    fn col_vs_col_comparisons_match_row_eval() {
        // Typed same-type pairs (Q21's date-vs-date shape), widened
        // numeric pairs, strings, and NULLs on either side.
        let int_rows = vec![
            row![1i64, 10i64],
            row![5i64, 3i64],
            row![7i64, 7i64],
            row![Value::Null, 1i64],
            row![2i64, Value::Null],
        ];
        let float_rows = vec![row![1.5f64, 2i64], row![3.0f64, 3i64], row![9.5f64, 1i64]];
        let str_rows = vec![row!["a", "b"], row!["b", "b"], row!["c", "a"]];
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            let e = Expr::binary(op, Expr::col(0), Expr::col(1));
            assert_matches_rows(&e, &int_rows);
            assert_matches_rows(&e, &float_rows);
            assert_matches_rows(&e, &str_rows);
            assert_matches_rows(&Expr::binary(op, Expr::col(1), Expr::col(0)), &float_rows);
        }
    }

    #[test]
    fn str_dictionary_comparison() {
        let rows = vec![row!["F", 1i64], row!["M", 2i64], row!["F", 3i64]];
        let e = Expr::col(0).eq(Expr::lit("F"));
        let b = batch(&rows);
        assert_eq!(
            eval_mask(&e, &b).unwrap(),
            vec![Some(true), Some(false), Some(true)]
        );
        assert_matches_rows(
            &Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit("M")),
            &rows,
        );
    }

    #[test]
    fn mixed_numeric_comparison() {
        let rows = vec![row![1i64, 0.5f64], row![2i64, 2.5f64]];
        assert_matches_rows(
            &Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(1.0f64)),
            &rows,
        );
        assert_matches_rows(
            &Expr::binary(BinOp::LtEq, Expr::col(0), Expr::lit(1.5f64)),
            &rows,
        );
    }

    #[test]
    fn null_compares_unknown() {
        let rows = vec![
            Row::new(vec![Value::Null, Value::Int(1)]),
            Row::new(vec![Value::Int(3), Value::Int(1)]),
        ];
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(1i64));
        let b = batch(&rows);
        assert_eq!(eval_mask(&e, &b).unwrap(), vec![None, Some(true)]);
        // NULL literal: unknown everywhere.
        let e = Expr::col(1).eq(Expr::Literal(Value::Null));
        assert_eq!(eval_mask(&e, &b).unwrap(), vec![None, None]);
    }

    #[test]
    fn kleene_and_or_not() {
        let rows = vec![
            Row::new(vec![Value::Int(5), Value::Null]),
            Row::new(vec![Value::Int(1), Value::Int(9)]),
            Row::new(vec![Value::Int(5), Value::Int(0)]),
        ];
        let gt = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(3i64));
        let lt = Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(5i64));
        assert_matches_rows(&gt.clone().and(lt.clone()), &rows);
        assert_matches_rows(&gt.clone().or(lt.clone()), &rows);
        let not = Expr::Unary {
            op: UnOp::Not,
            operand: Box::new(gt.and(lt)),
        };
        assert_matches_rows(&not, &rows);
    }

    #[test]
    fn is_null_kernels() {
        let rows = vec![
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Str("x".into())]),
        ];
        let b = batch(&rows);
        let isnull = Expr::Unary {
            op: UnOp::IsNull,
            operand: Box::new(Expr::col(0)),
        };
        assert_eq!(
            eval_mask(&isnull, &b).unwrap(),
            vec![Some(true), Some(false)]
        );
        let notnull = Expr::Unary {
            op: UnOp::IsNotNull,
            operand: Box::new(Expr::col(0)),
        };
        assert_eq!(
            eval_mask(&notnull, &b).unwrap(),
            vec![Some(false), Some(true)]
        );
    }

    /// Value kernels give what `Expr::eval` gives on each row — `Int` vs
    /// `Float` included — and fail exactly when the row evaluator fails, with
    /// its error: `Int` overflow, division by zero, a non-numeric operand,
    /// NULL propagating before any of these. Every window of the rows is its
    /// own batch, so each column is typed `Int`, `Float` or `Var` by what the
    /// window holds.
    #[test]
    fn value_kernels_match_row_eval() {
        let cells = [
            [Value::Int(7), Value::Float(0.5), Value::Int(2)],
            [Value::Int(-3), Value::Float(-0.0), Value::Float(2.0)],
            [Value::Null, Value::Null, Value::Null],
            [
                Value::Int(i64::MAX),
                Value::Float(1e308),
                Value::Str("x".into()),
            ],
            [Value::Int(0), Value::Float(0.0), Value::Int(0)],
            [
                Value::Int(i64::MIN + 1),
                Value::Float(2.5),
                Value::Bool(true),
            ],
        ];
        let rows: Vec<Row> = cells.iter().map(|r| Row::new(r.to_vec())).collect();
        let operands = [
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
            Expr::lit(3i64),
            Expr::lit(-0.0f64),
            Expr::lit(0i64),
            Expr::Literal(Value::Null),
        ];
        let mut exprs = Vec::new();
        for l in &operands {
            exprs.push(Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(l.clone()),
            });
            for r in &operands {
                for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
                    exprs.push(Expr::binary(op, l.clone(), r.clone()));
                }
            }
        }
        let (mut failed, mut passed) = (0, 0);
        for start in 0..rows.len() {
            for end in start + 1..=rows.len() {
                let window = &rows[start..end];
                let b = batch(window);
                for e in &exprs {
                    let by_row: Result<Vec<Value>, RelError> =
                        window.iter().map(|r| e.eval(r)).collect();
                    let kernel = eval_column(e, &b).expect("a value kernel exists");
                    let kernel =
                        kernel.map(|col| (0..col.len()).map(|r| col.value(r)).collect::<Vec<_>>());
                    // `{:?}` tells `Int(1)` from `Float(1.0)` and `-0.0` from `0.0`.
                    assert_eq!(
                        format!("{kernel:?}"),
                        format!("{by_row:?}"),
                        "{e} over rows {start}..{end}"
                    );
                    if by_row.is_err() {
                        failed += 1;
                    } else {
                        passed += 1;
                    }
                }
            }
        }
        assert!(
            failed > 100 && passed > 1000,
            "{failed} failed, {passed} passed"
        );
    }

    #[test]
    fn cross_type_comparison_is_unknown() {
        let rows = vec![row!["a", 1i64]];
        let e = Expr::col(0).eq(Expr::lit(1i64));
        assert_eq!(eval_mask(&e, &batch(&rows)).unwrap(), vec![None]);
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        let rows = vec![row![1i64, 2i64]];
        let b = batch(&rows);
        // Arithmetic inside a predicate: no kernel.
        let arith = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1i64)),
            Expr::lit(0i64),
        );
        assert!(eval_mask(&arith, &b).is_none());
        // Out-of-bounds column: no kernel (row path reports the error).
        assert!(eval_mask(&Expr::col(9).eq(Expr::lit(1i64)), &b).is_none());
    }
}
