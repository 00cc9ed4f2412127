//! The `colexpr` kernels against the row evaluator, row by row.
//!
//! Over random expressions up to depth 3 — every `Expr` node kind, columns
//! past the batch's width, arithmetic that overflows, divides by zero or
//! meets a non-number — on random batches of `Int`, `Float`, `Str`, `Bool`,
//! mixed and NULL cells (`0`, `-1` and `i64::MIN` among them), each row of
//! `eval_mask` must hold the truth [`Expr::eval`] gives on that row (its
//! value read as a boolean, as `eval_predicate` reads it) or fail with the
//! same error, and each row of `eval_column` the same value or error. A
//! failing row's slot is unknown / NULL, and failing rows are listed once,
//! in row order.
//!
//! `cargo test` runs a few hundred cases; CI runs the `#[ignore]`d soak in
//! release mode (`--include-ignored`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_exec::colexpr::{eval_column, eval_mask, RowErrors};
use ysmart_rel::{BinOp, ColumnBatch, Expr, RelError, Row, UnOp, Value};

struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    /// A cell of column kind `kind` (4: any kind, a mixed column).
    fn cell(&mut self, kind: usize) -> Value {
        if self.below(5) == 0 {
            return Value::Null;
        }
        match kind {
            0 => Value::Int(self.pick(&[0, -1, 1, 7, i64::MIN, i64::MAX])),
            1 => Value::Float(self.pick(&[0.0, -0.0, -1.0, 2.5, 1e308])),
            2 => Value::Str(self.pick(&["", "a", "b"]).to_string()),
            3 => Value::Bool(self.below(2) == 0),
            _ => {
                let kind = self.below(4);
                self.cell(kind)
            }
        }
    }

    fn batch(&mut self) -> Vec<Row> {
        let kinds: Vec<usize> = (0..1 + self.below(4)).map(|_| self.below(5)).collect();
        (0..self.below(13))
            .map(|_| Row::new(kinds.iter().map(|&k| self.cell(k)).collect()))
            .collect()
    }

    /// An expression over rows `width` wide: now and then a column past it.
    fn expr(&mut self, width: usize, depth: usize) -> Expr {
        if depth == 0 || self.below(4) == 0 {
            return if self.below(2) == 0 {
                let past = usize::from(self.below(8) == 0);
                Expr::col(self.below(width + past))
            } else {
                let kind = self.below(5);
                Expr::Literal(self.cell(kind))
            };
        }
        if self.below(4) == 0 {
            let op = self.pick(&[UnOp::Not, UnOp::Neg, UnOp::IsNull, UnOp::IsNotNull]);
            return Expr::Unary {
                op,
                operand: Box::new(self.expr(width, depth - 1)),
            };
        }
        let op = self.pick(&[
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
            BinOp::And,
            BinOp::Or,
            BinOp::And,
            BinOp::Or,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
        ]);
        let (lhs, rhs) = (self.expr(width, depth - 1), self.expr(width, depth - 1));
        Expr::binary(op, lhs, rhs)
    }
}

/// Row `r`'s error in `errors`, if it fails.
fn error_at(errors: &RowErrors, r: usize) -> Option<&RelError> {
    errors.iter().find(|(row, _)| *row == r).map(|(_, e)| e)
}

/// Checks one expression over one batch; counts rows that failed and
/// passed.
fn check_expr(e: &Expr, rows: &[Row], counts: &mut (u64, u64), context: &str) {
    let batch = ColumnBatch::from_rows(rows).expect("finite cells of one width");
    let mask = eval_mask(e, &batch);
    let column = eval_column(e, &batch);
    for errors in [&mask.errors, &column.errors] {
        assert!(
            errors.windows(2).all(|w| w[0].0 < w[1].0),
            "{e}: failing rows out of order {errors:?}\n{context}"
        );
    }
    for (r, row) in rows.iter().enumerate() {
        let by_row = e.eval(row);
        let truth = match error_at(&mask.errors, r) {
            Some(err) => {
                assert_eq!(mask.out[r], None, "{e} row {r}: a failing slot\n{context}");
                Err(err.clone())
            }
            None => Ok(mask.out[r]),
        };
        assert_eq!(
            truth,
            by_row.clone().map(|v| v.as_bool()),
            "{e} row {r}: truth\n{context}"
        );
        assert_eq!(
            truth.map(|t| t == Some(true)),
            e.eval_predicate(row),
            "{e} row {r}: predicate\n{context}"
        );
        let value = match error_at(&column.errors, r) {
            Some(err) => {
                assert!(
                    column.out.is_null(r),
                    "{e} row {r}: a failing slot\n{context}"
                );
                Err(err.clone())
            }
            None => Ok(column.out.value(r)),
        };
        // `{:?}` tells `Int(1)` from `Float(1.0)` and `-0.0` from `0.0`.
        assert_eq!(
            format!("{value:?}"),
            format!("{by_row:?}"),
            "{e} row {r}: value\n{context}"
        );
        if by_row.is_err() {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
    }
}

fn check_kernels(cases: u64) {
    let mut counts = (0, 0);
    for seed in 0..cases {
        let mut g = Gen(StdRng::seed_from_u64(0xC01E_0000 + seed));
        let rows = g.batch();
        let width = rows.first().map_or(1, Row::len);
        for _ in 0..8 {
            let e = g.expr(width, 3);
            check_expr(&e, &rows, &mut counts, &format!("seed {seed}: {rows:?}"));
        }
    }
    // A sweep that never fails, or always does, is not testing the error
    // slot.
    let (failed, passed) = counts;
    assert!(
        failed * 10 >= failed + passed && passed * 3 >= failed + passed,
        "{failed} rows failed, {passed} passed"
    );
}

#[test]
fn kernels_match_the_row_evaluator() {
    check_kernels(400);
}

/// The CI soak: `cargo test --release -p ysmart-exec --test
/// colexpr_property -- --include-ignored`.
#[test]
#[ignore = "raised case count; run in release"]
fn kernels_match_the_row_evaluator_soak() {
    check_kernels(50_000);
}
