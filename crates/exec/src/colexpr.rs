//! Vectorized expression evaluation over column batches — the one
//! evaluator of both sides of a job: the common mapper's selections, keys
//! and values, and the common reducer's residuals, transforms, aggregate
//! arguments and `HAVING`.
//!
//! [`eval_mask`] evaluates a predicate [`Expr`] against a whole batch at
//! once, giving one Kleene truth value per row (`Some(true)` /
//! `Some(false)` / `None` = SQL unknown) — the columnar counterpart of
//! [`Expr::eval_predicate`] called row by row: a row passes the predicate
//! iff its mask slot is `Some(true)`. [`eval_column`] is the same for a
//! value: one column holding what [`Expr::eval`] gives on each row.
//!
//! Every kernel is total over `Expr`. A result carries, beside its mask or
//! column, the rows on which the row evaluator fails, each with that
//! evaluator's error ([`Eval`]): arithmetic records its errors row by row,
//! an out-of-range column fails on every row, and `AND` / `OR` keep a
//! row's right-side error only where the row evaluator's short circuit
//! would have evaluated the right side. A failing row's slot holds unknown
//! (NULL), so it fails nothing further up. Callers decide which rows
//! matter ([`Eval::check`]): the mapper its kept rows, a sort key none —
//! a key that fails on a row sorts that row as NULL.
//!
//! Comparisons of a column against a literal have typed per-column
//! kernels (a dictionary-encoded string column is compared once per
//! *dictionary entry*, not once per row), as do two columns (Q21's
//! `l_receiptdate > l_commitdate`); a computed operand is evaluated as a
//! column first. Arithmetic over numeric columns runs in typed loops
//! (Q17's `0.2 * avg`, Q-CSA's `count(*) - 2`).

use std::borrow::Cow;
use std::cmp::Ordering;

use ysmart_rel::colbatch::{Column, ColumnBatch};
use ysmart_rel::{BinOp, Expr, RelError, UnOp, Value};

/// One Kleene truth value per batch row.
pub type Mask = Vec<Option<bool>>;

/// The rows on which an expression fails, ascending, each with the row
/// evaluator's error. Empty — and unallocated — when no row fails.
pub type RowErrors = Vec<(usize, RelError)>;

/// A kernel's result over a batch: one slot per row in `out` (unknown /
/// NULL where the row fails), and the failing rows.
pub struct Eval<T> {
    /// The mask or column.
    pub out: T,
    /// The rows on which the row evaluator fails, with its errors.
    pub errors: RowErrors,
}

impl<T> Eval<T> {
    fn ok(out: T) -> Self {
        Eval {
            out,
            errors: Vec::new(),
        }
    }

    fn map<U>(self, f: impl FnOnce(T) -> U) -> Eval<U> {
        Eval {
            out: f(self.out),
            errors: self.errors,
        }
    }

    /// The result, unless the expression fails on one of `rows` (ascending;
    /// `None`: any row).
    ///
    /// # Errors
    ///
    /// The error of the first failing row among `rows`.
    pub fn check(self, rows: Option<&[usize]>) -> Result<T, RelError> {
        let used = |r: &usize| rows.is_none_or(|rows| rows.binary_search(r).is_ok());
        match self.errors.into_iter().find(|(r, _)| used(r)) {
            Some((_, e)) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl Eval<Mask> {
    /// Unknown at every failing row.
    fn blanked(mut self) -> Self {
        for &(r, _) in &self.errors {
            self.out[r] = None;
        }
        self
    }
}

/// `a`'s and `b`'s failing rows in row order; a row failing in both keeps
/// `a`'s error — the side the row evaluator evaluates first.
fn merge(mut a: RowErrors, b: RowErrors) -> RowErrors {
    if !b.is_empty() {
        a.extend(b);
        // Stable: a row's error from `a` stays ahead of its error from `b`.
        a.sort_by_key(|(r, _)| *r);
        a.dedup_by_key(|(r, _)| *r);
    }
    a
}

/// What the kernels read: a batch's row count and its typed columns — a
/// decoded [`ColumnBatch`] on the map side, a run of key groups' gathered
/// columns on the reduce side.
pub trait Columnar {
    /// Number of rows.
    fn num_rows(&self) -> usize;

    /// Number of columns.
    fn width(&self) -> usize;

    /// Column `i`; `None` past the batch's width.
    fn column(&self, i: usize) -> Option<&Column>;
}

impl Columnar for ColumnBatch {
    fn num_rows(&self) -> usize {
        ColumnBatch::num_rows(self)
    }

    fn width(&self) -> usize {
        self.num_cols()
    }

    fn column(&self, i: usize) -> Option<&Column> {
        self.columns().get(i)
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

/// Kleene `AND` / `OR` of two masks, row by row. A row fails where the
/// left side fails, or where the right side fails and the left side does
/// not decide the result — where the row evaluator evaluates the right side.
fn connective(op: BinOp, l: Eval<Mask>, r: Eval<Mask>) -> Eval<Mask> {
    let decided = Some(op == BinOp::Or);
    let evaluated = |&(row, _): &(usize, RelError)| l.out[row] != decided;
    let right: RowErrors = r.errors.into_iter().filter(evaluated).collect();
    let out = l
        .out
        .into_iter()
        .zip(r.out)
        .map(|(a, b)| match (a, b) {
            _ if a == decided || b == decided => decided,
            (Some(_), Some(_)) => decided.map(|d| !d),
            _ => None,
        })
        .collect();
    let errors = merge(l.errors, right);
    Eval { out, errors }.blanked()
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
#[must_use]
pub fn eval_mask<B: Columnar + ?Sized>(expr: &Expr, batch: &B) -> Eval<Mask> {
    let rows = batch.num_rows();
    match expr {
        Expr::Literal(v) => Eval::ok(vec![v.as_bool(); rows]),
        Expr::Binary { op, lhs, rhs } if matches!(op, BinOp::And | BinOp::Or) => {
            connective(*op, eval_mask(lhs, batch), eval_mask(rhs, batch))
        }
        Expr::Binary { op, lhs, rhs } if op.is_predicate() => match (&**lhs, &**rhs) {
            (_, Expr::Literal(v)) => {
                eval_column(lhs, batch).map(|l| cmp_col_lit(&l, v, *op, false, rows))
            }
            (Expr::Literal(v), _) => {
                eval_column(rhs, batch).map(|r| cmp_col_lit(&r, v, *op, true, rows))
            }
            _ => {
                let (l, r) = (eval_column(lhs, batch), eval_column(rhs, batch));
                Eval {
                    out: cmp_col_col(&l.out, &r.out, *op, rows),
                    errors: merge(l.errors, r.errors),
                }
            }
        },
        Expr::Unary {
            op: UnOp::Not,
            operand,
        } => eval_mask(operand, batch).map(|m| m.into_iter().map(|t| t.map(|b| !b)).collect()),
        Expr::Unary {
            op: op @ (UnOp::IsNull | UnOp::IsNotNull),
            operand,
        } => {
            let want = *op == UnOp::IsNull;
            eval_column(operand, batch)
                .map(|col| (0..rows).map(|r| Some(col.is_null(r) == want)).collect())
                .blanked()
        }
        // A value as a truth: a boolean's, unknown for anything else.
        _ => eval_column(expr, batch).map(|col| match &*col {
            Column::Bool { data, nulls } => data
                .iter()
                .zip(nulls)
                .map(|(&b, &n)| (!n).then_some(b))
                .collect(),
            Column::Var(vals) => vals.iter().map(Value::as_bool).collect(),
            _ => vec![None; rows],
        }),
    }
}

/// Evaluates `expr` as a value over every row of `batch` at once: the column
/// of what [`Expr::eval`] gives on each row — a column reference is that
/// column, borrowed.
#[must_use]
pub fn eval_column<'b, B: Columnar + ?Sized>(expr: &Expr, batch: &'b B) -> Eval<Cow<'b, Column>> {
    let rows = batch.num_rows();
    match expr {
        Expr::Column(i) => match batch.column(*i) {
            Some(col) => Eval::ok(Cow::Borrowed(col)),
            None => {
                let (index, width) = (*i, batch.width());
                let error = |r| (r, RelError::ColumnOutOfBounds { index, width });
                Eval {
                    out: Cow::Owned(Column::from_cells(rows, |_| &Value::Null)),
                    errors: (0..rows).map(error).collect(),
                }
            }
        },
        Expr::Literal(v) => Eval::ok(Cow::Owned(Column::from_cells(rows, |_| v))),
        Expr::Binary { op, lhs, rhs } if !op.is_predicate() => {
            let (l, r) = (eval_column(lhs, batch), eval_column(rhs, batch));
            let (out, errors) = arith(*op, &l.out, &r.out);
            Eval {
                out: Cow::Owned(out),
                errors: merge(merge(l.errors, r.errors), errors),
            }
        }
        Expr::Unary {
            op: UnOp::Neg,
            operand,
        } => {
            // `-x` is `0 - x`, as the row evaluator computes it.
            let x = eval_column(operand, batch);
            let zero = Column::from_cells(rows, |_| &Value::Int(0));
            let (out, errors) = arith(BinOp::Sub, &zero, &x.out);
            Eval {
                out: Cow::Owned(out),
                errors: merge(x.errors, errors),
            }
        }
        // A truth value: `Bool`, NULL for unknown.
        _ => eval_mask(expr, batch).map(|mask| {
            Cow::Owned(Column::Bool {
                data: mask.iter().map(|t| *t == Some(true)).collect(),
                nulls: mask.iter().map(Option::is_none).collect(),
            })
        }),
    }
}

/// `a op b` row by row under `Value`'s arithmetic: NULL propagates before
/// anything is checked, two `Int`s stay integral (checked, division
/// truncating), any `Float` widens; an `Int` overflow, division by zero and
/// a non-numeric operand fail their row, which holds NULL. Numeric columns
/// take typed loops; the rest — and columns on which a typed loop meets a
/// failing row or a result that is not a finite float — go through `Value`
/// cell by cell.
fn arith(op: BinOp, a: &Column, b: &Column) -> (Column, RowErrors) {
    let rows = a.len();
    let by_value = || {
        let mut errors = Vec::new();
        let mut apply = |r: usize| {
            let (x, y) = (a.value(r), b.value(r));
            let v = match op {
                BinOp::Add => x.add(&y),
                BinOp::Sub => x.sub(&y),
                BinOp::Mul => x.mul(&y),
                BinOp::Div => x.div(&y),
                _ => unreachable!("arithmetic op"),
            };
            v.unwrap_or_else(|e| {
                errors.push((r, e));
                Value::Null
            })
        };
        let vals: Vec<Value> = (0..rows).map(&mut apply).collect();
        (Column::from_cells(rows, |r| &vals[r]), errors)
    };
    let nulls = || -> Vec<bool> { (0..rows).map(|r| a.is_null(r) || b.is_null(r)).collect() };
    match (a, b) {
        (Column::Int { data: x, .. }, Column::Int { data: y, .. }) => {
            let int_op = |l: i64, r: i64| match op {
                BinOp::Add => l.checked_add(r),
                BinOp::Sub => l.checked_sub(r),
                BinOp::Mul => l.checked_mul(r),
                BinOp::Div => l.checked_div(r),
                _ => unreachable!("arithmetic op"),
            };
            let (nulls, mut data) = (nulls(), vec![0; rows]);
            for r in (0..rows).filter(|&r| !nulls[r]) {
                match int_op(x[r], y[r]) {
                    Some(v) => data[r] = v,
                    // Overflow or a zero divisor: the row fails, with the
                    // row evaluator's error.
                    None => return by_value(),
                }
            }
            (Column::Int { data, nulls }, Vec::new())
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
                    BinOp::Div if y == 0.0 => return by_value(),
                    BinOp::Div => x / y,
                    _ => unreachable!("arithmetic op"),
                };
                if !v.is_finite() {
                    return by_value();
                }
                data[r] = v;
            }
            (Column::Float { data, nulls }, Vec::new())
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
        let mask = eval_mask(e, &b)
            .check(None)
            .expect("comparisons never fail");
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
            eval_mask(&e, &b).out,
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
        assert_eq!(eval_mask(&e, &b).out, vec![None, Some(true)]);
        // NULL literal: unknown everywhere.
        let e = Expr::col(1).eq(Expr::Literal(Value::Null));
        assert_eq!(eval_mask(&e, &b).out, vec![None, None]);
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
        assert_eq!(eval_mask(&isnull, &b).out, vec![Some(true), Some(false)]);
        let notnull = Expr::Unary {
            op: UnOp::IsNotNull,
            operand: Box::new(Expr::col(0)),
        };
        assert_eq!(eval_mask(&notnull, &b).out, vec![Some(false), Some(true)]);
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
            [Value::Int(i64::MIN), Value::Float(-1.0), Value::Int(-1)],
        ];
        let rows: Vec<Row> = cells.iter().map(|r| Row::new(r.to_vec())).collect();
        let operands = [
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
            Expr::lit(3i64),
            Expr::lit(-0.0f64),
            Expr::lit(0i64),
            Expr::lit(-1i64),
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
                    let kernel = eval_column(e, &b).check(None);
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
        assert_eq!(eval_mask(&e, &batch(&rows)).out, vec![None]);
    }

    #[test]
    fn failing_rows_carry_the_row_evaluators_error() {
        let rows = vec![row![1i64, 0i64], row![2i64, 1i64], row![3i64, 0i64]];
        let b = batch(&rows);
        let div = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(1));
        let over = Expr::binary(BinOp::Gt, div.clone(), Expr::lit(0i64));
        let got = eval_mask(&over, &b);
        assert_eq!(got.out, vec![None, Some(true), None]);
        let rows_failing: Vec<usize> = got.errors.iter().map(|(r, _)| *r).collect();
        assert_eq!(rows_failing, [0, 2]);
        assert_eq!(got.errors[0].1, RelError::DivideByZero);
        assert_eq!(
            eval_column(&div, &b).check(Some(&[1])).unwrap().value(1),
            Value::Int(2)
        );
        // A guard that decides the row first hides the error, as the row
        // evaluator's short circuit does.
        let nonzero = Expr::binary(BinOp::NotEq, Expr::col(1), Expr::lit(0i64));
        let guarded = eval_mask(&nonzero.and(over), &b);
        assert_eq!(guarded.out, vec![Some(false), Some(true), Some(false)]);
        assert!(guarded.errors.is_empty());
        // An out-of-range column fails on every row.
        let out_of_range = eval_mask(&Expr::col(9).eq(Expr::lit(1i64)), &b);
        let error = RelError::ColumnOutOfBounds { index: 9, width: 2 };
        assert_eq!(
            out_of_range.errors,
            (0..3).map(|r| (r, error.clone())).collect::<Vec<_>>()
        );
    }
}
