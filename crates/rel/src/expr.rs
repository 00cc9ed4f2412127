//! Resolved scalar expression IR and evaluator.
//!
//! Expressions here reference columns by *position* — name resolution
//! happens once, in the planner, against a [`crate::Schema`]. The evaluator
//! implements SQL three-valued logic: comparisons with NULL are unknown,
//! `AND`/`OR` follow Kleene logic, and a predicate only passes when it
//! evaluates to definite `true`.

use std::borrow::Cow;
use std::fmt;

use crate::error::RelError;
use crate::row::Row;
use crate::value::Value;

/// Binary operators of the paper's SQL subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Whether this operator yields a boolean.
    #[must_use]
    pub fn is_predicate(self) -> bool {
        !matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical `NOT` (three-valued).
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL`
    IsNull,
    /// `IS NOT NULL`
    IsNotNull,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Not => "NOT",
            UnOp::Neg => "-",
            UnOp::IsNull => "IS NULL",
            UnOp::IsNotNull => "IS NOT NULL",
        };
        f.write_str(s)
    }
}

/// Anything an expression can read columns from: an owned [`Row`] or a
/// borrowed slice of values. The evaluator is written against this, so an
/// executor evaluates over cells where the shuffle holds them — a value the
/// combiner folds, a tagged value's carried columns at dispatch — instead
/// of materialising a `Row` first.
pub trait Columns {
    /// The value at column `i`, `None` past the end.
    fn col(&self, i: usize) -> Option<&Value>;

    /// Number of addressable columns.
    fn width(&self) -> usize;

    /// The value at column `i`.
    ///
    /// # Errors
    ///
    /// [`RelError::ColumnOutOfBounds`] past the end.
    fn column(&self, i: usize) -> Result<&Value, RelError> {
        self.col(i).ok_or_else(|| RelError::ColumnOutOfBounds {
            index: i,
            width: self.width(),
        })
    }
}

impl Columns for Row {
    fn col(&self, i: usize) -> Option<&Value> {
        self.values().get(i)
    }

    fn width(&self) -> usize {
        self.len()
    }
}

impl Columns for [Value] {
    fn col(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }

    fn width(&self) -> usize {
        self.len()
    }
}

impl<C: Columns + ?Sized> Columns for &C {
    fn col(&self, i: usize) -> Option<&Value> {
        (**self).col(i)
    }

    fn width(&self) -> usize {
        (**self).width()
    }
}

/// A resolved scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Input column by position.
    Column(usize),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
}

impl Expr {
    /// Column reference.
    #[must_use]
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Literal.
    #[must_use]
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary expression.
    #[must_use]
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `self = other`
    #[must_use]
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, other)
    }

    /// `self AND other`
    #[must_use]
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// `self OR other`
    #[must_use]
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Or, self, other)
    }

    /// Folds a list of predicates into a conjunction; `None` for empty input.
    /// Neighbours are ANDed pairwise, level by level, so the tree is
    /// balanced — ⌈log₂ n⌉ levels for n predicates, leaves in order — and
    /// a long `WHERE` never builds a tree deep enough to overflow the
    /// stack of whatever walks it. Up to three predicates this is the
    /// left-deep fold.
    #[must_use]
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        while preds.len() > 1 {
            let mut level = preds.into_iter();
            preds = Vec::with_capacity(level.len().div_ceil(2));
            while let Some(a) = level.next() {
                preds.push(match level.next() {
                    Some(b) => a.and(b),
                    None => a,
                });
            }
        }
        preds.pop()
    }

    /// Evaluates the expression against a row.
    ///
    /// # Examples
    ///
    /// ```
    /// use ysmart_rel::{row, BinOp, Expr, Value};
    /// let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(5i64));
    /// assert_eq!(e.eval(&row![37i64]).unwrap(), Value::Int(42));
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates type mismatches, out-of-bounds columns and division by
    /// zero from the value layer.
    pub fn eval(&self, row: &Row) -> Result<Value, RelError> {
        self.eval_on(row).map(Cow::into_owned)
    }

    /// The evaluator, over anything addressable by column. Column
    /// references and literals are returned as borrows, so a comparison
    /// like `#2 = 'F'` never clones the operand strings. Only computed
    /// results are owned.
    ///
    /// # Errors
    ///
    /// As [`Expr::eval`].
    pub fn eval_on<'a, C: Columns + ?Sized>(
        &'a self,
        row: &'a C,
    ) -> Result<Cow<'a, Value>, RelError> {
        match self {
            Expr::Column(i) => row.column(*i).map(Cow::Borrowed),
            Expr::Literal(v) => Ok(Cow::Borrowed(v)),
            Expr::Binary { op, .. } if op.is_predicate() => {
                Ok(Cow::Owned(match self.truth(row)? {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                }))
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = lhs.eval_on(row)?;
                let r = rhs.eval_on(row)?;
                eval_arith(*op, &l, &r).map(Cow::Owned)
            }
            Expr::Unary { op, operand } => {
                let v = operand.eval_on(row)?;
                eval_unary(*op, &v).map(Cow::Owned)
            }
        }
    }

    /// Evaluates the expression as a predicate: `true` only on definite SQL
    /// `TRUE` (NULL/unknown does not pass, per SQL semantics).
    ///
    /// # Errors
    ///
    /// As [`Expr::eval`].
    pub fn eval_predicate<C: Columns + ?Sized>(&self, row: &C) -> Result<bool, RelError> {
        Ok(self.truth(row)? == Some(true))
    }

    /// The expression's three-valued truth (`None` is SQL unknown; a
    /// non-boolean value is unknown too). `AND`/`OR` recurse here so the
    /// Kleene table never round-trips through a `Value`, and a comparison
    /// whose operands are columns or literals compares them in place.
    fn truth<C: Columns + ?Sized>(&self, row: &C) -> Result<Option<bool>, RelError> {
        match self {
            Expr::Binary { op, lhs, rhs } if matches!(op, BinOp::And | BinOp::Or) => {
                kleene(*op, lhs.truth(row)?, || rhs.truth(row))
            }
            Expr::Binary { op, lhs, rhs } if op.is_predicate() => {
                match (lhs.operand(row), rhs.operand(row)) {
                    (Some(l), Some(r)) => Ok(compare(*op, l?, r?)),
                    _ => Ok(compare(*op, &*lhs.eval_on(row)?, &*rhs.eval_on(row)?)),
                }
            }
            _ => Ok(self.eval_on(row)?.as_bool()),
        }
    }

    /// A column reference or literal, borrowed without evaluating anything.
    fn operand<'a, C: Columns + ?Sized>(
        &'a self,
        row: &'a C,
    ) -> Option<Result<&'a Value, RelError>> {
        match self {
            Expr::Column(i) => Some(row.column(*i)),
            Expr::Literal(v) => Some(Ok(v)),
            _ => None,
        }
    }

    /// Calls `f` with every column index the expression references — how
    /// executors compute the columns a record scan actually needs.
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Column(i) => f(*i),
            Expr::Literal(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.for_each_column(f);
                rhs.for_each_column(f);
            }
            Expr::Unary { operand, .. } => operand.for_each_column(f),
        }
    }

    /// All column indexes referenced by the expression.
    #[must_use]
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_column(&mut |c| out.push(c));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Replaces every column reference `#i` with `exprs[i]` — composing
    /// this expression with the projection that produced its input row.
    /// Used to fold a chain of pipe operators (`Scan → Filter → Project →
    /// …`) into a single predicate/projection over the base relation.
    #[must_use]
    pub fn substitute(&self, exprs: &[Expr]) -> Expr {
        match self {
            Expr::Column(i) => exprs.get(*i).cloned().unwrap_or(Expr::Literal(Value::Null)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.substitute(exprs)),
                rhs: Box::new(rhs.substitute(exprs)),
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(operand.substitute(exprs)),
            },
        }
    }

    /// Rewrites every column index through `map` (used when predicates are
    /// pushed through projections or re-based onto a different layout).
    #[must_use]
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Column(i) => Expr::Column(map(*i)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.remap_columns(map)),
                rhs: Box::new(rhs.remap_columns(map)),
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(operand.remap_columns(map)),
            },
        }
    }
}

/// Kleene `AND`/`OR`; the right side is only evaluated when the left one
/// does not already decide the result.
fn kleene(
    op: BinOp,
    l: Option<bool>,
    rhs: impl FnOnce() -> Result<Option<bool>, RelError>,
) -> Result<Option<bool>, RelError> {
    let decided = op == BinOp::Or;
    if l == Some(decided) {
        return Ok(l);
    }
    let r = rhs()?;
    Ok(if r == Some(decided) {
        r
    } else if l.is_some() && r.is_some() {
        Some(!decided)
    } else {
        None
    })
}

/// SQL comparison: unknown when either side is NULL (or the types do not
/// compare).
fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    use std::cmp::Ordering;
    let ord = l.sql_cmp(r)?;
    Some(match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("comparison op"),
    })
}

fn eval_arith(op: BinOp, l: &Value, r: &Value) -> Result<Value, RelError> {
    match op {
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
        _ => unreachable!("arithmetic op"),
    }
}

fn eval_unary(op: UnOp, v: &Value) -> Result<Value, RelError> {
    match op {
        UnOp::Not => Ok(match v.as_bool() {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        }),
        UnOp::Neg => Value::Int(0).sub(v),
        UnOp::IsNull => Ok(Value::Bool(v.is_null())),
        UnOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Unary { op, operand } => match op {
                UnOp::IsNull | UnOp::IsNotNull => write!(f, "({operand} {op})"),
                _ => write!(f, "({op} {operand})"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn column_and_literal() {
        let r = row![10i64, "x"];
        assert_eq!(Expr::col(0).eval(&r).unwrap(), Value::Int(10));
        assert_eq!(Expr::lit(5i64).eval(&r).unwrap(), Value::Int(5));
    }

    #[test]
    fn comparisons() {
        let r = row![10i64, 20i64];
        let e = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let e = Expr::col(0).eq(Expr::lit(10i64));
        assert!(e.eval_predicate(&r).unwrap());
    }

    #[test]
    fn null_comparison_is_unknown_and_fails_predicate() {
        let r = Row::new(vec![Value::Null, Value::Int(1)]);
        let e = Expr::col(0).eq(Expr::col(1));
        assert!(e.eval(&r).unwrap().is_null());
        assert!(!e.eval_predicate(&r).unwrap());
    }

    #[test]
    fn kleene_and_or() {
        let r = Row::new(vec![Value::Null]);
        let t = Expr::lit(true);
        let f_ = Expr::lit(false);
        let n = Expr::col(0);
        // FALSE AND NULL = FALSE (short-circuits)
        assert_eq!(
            f_.clone().and(n.clone()).eval(&r).unwrap(),
            Value::Bool(false)
        );
        // NULL AND FALSE = FALSE
        assert_eq!(
            n.clone().and(f_.clone()).eval(&r).unwrap(),
            Value::Bool(false)
        );
        // TRUE OR NULL = TRUE
        assert_eq!(t.clone().or(n.clone()).eval(&r).unwrap(), Value::Bool(true));
        // NULL OR NULL = NULL
        assert!(n.clone().or(n.clone()).eval(&r).unwrap().is_null());
        // TRUE AND NULL = NULL
        assert!(t.and(n).eval(&r).unwrap().is_null());
    }

    #[test]
    fn kleene_table_is_the_same_for_values_and_predicates() {
        // Operands as columns (compared in place), as literals, and as
        // computed sub-expressions (`NOT NOT x`), against the SQL table.
        let tfn = [Some(true), Some(false), None];
        let val = |t: Option<bool>| t.map_or(Value::Null, Value::Bool);
        let not = |e: Expr| Expr::Unary {
            op: UnOp::Not,
            operand: Box::new(e),
        };
        for (li, &l) in tfn.iter().enumerate() {
            for (ri, &r) in tfn.iter().enumerate() {
                let row = Row::new(vec![val(l), val(r)]);
                let and = match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                let or = match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                };
                let shapes = [
                    (Expr::col(0), Expr::col(1)),
                    (Expr::lit(val(l)), Expr::lit(val(r))),
                    (not(not(Expr::col(0))), not(not(Expr::col(1)))),
                ];
                for (lhs, rhs) in shapes {
                    for (e, want) in [(lhs.clone().and(rhs.clone()), and), (lhs.or(rhs), or)] {
                        assert_eq!(e.eval(&row).unwrap(), val(want), "{e} on {li},{ri}");
                        assert_eq!(e.eval_predicate(&row).unwrap(), want == Some(true));
                    }
                }
            }
        }
    }

    #[test]
    fn not_of_null_is_null() {
        let r = Row::new(vec![Value::Null]);
        let e = Expr::Unary {
            op: UnOp::Not,
            operand: Box::new(Expr::col(0)),
        };
        assert!(e.eval(&r).unwrap().is_null());
    }

    #[test]
    fn is_null_checks() {
        let r = Row::new(vec![Value::Null, Value::Int(1)]);
        let isnull = |i| Expr::Unary {
            op: UnOp::IsNull,
            operand: Box::new(Expr::col(i)),
        };
        assert_eq!(isnull(0).eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(isnull(1).eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn arithmetic_expression() {
        let r = row![6i64, 7i64];
        let e = Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(42));
        let e = Expr::binary(BinOp::Div, Expr::lit(1.0f64), Expr::lit(4i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Float(0.25));
    }

    #[test]
    fn neg_unary() {
        let e = Expr::Unary {
            op: UnOp::Neg,
            operand: Box::new(Expr::lit(3i64)),
        };
        assert_eq!(e.eval(&row![0i64]).unwrap(), Value::Int(-3));
    }

    #[test]
    fn conjunction_folds() {
        assert!(Expr::conjunction(vec![]).is_none());
        let c =
            Expr::conjunction(vec![Expr::lit(true), Expr::lit(true), Expr::lit(false)]).unwrap();
        assert_eq!(c.eval(&row![0i64]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn referenced_columns_sorted_dedup() {
        let e = Expr::col(3)
            .eq(Expr::col(1))
            .and(Expr::col(3).eq(Expr::lit(1i64)));
        assert_eq!(e.referenced_columns(), vec![1, 3]);
    }

    #[test]
    fn substitute_composes_projections() {
        // row -> project [#1, #0+1] -> predicate #1 > 5 becomes #0+1 > 5.
        let proj = vec![
            Expr::col(1),
            Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1i64)),
        ];
        let pred = Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(5i64));
        let composed = pred.substitute(&proj);
        let r = row![5i64, 99i64]; // #0+1 = 6 > 5
        assert!(composed.eval_predicate(&r).unwrap());
        let r = row![4i64, 99i64]; // #0+1 = 5, not > 5
        assert!(!composed.eval_predicate(&r).unwrap());
    }

    #[test]
    fn remap_columns_rebases() {
        let e = Expr::col(2).eq(Expr::col(0));
        let m = e.remap_columns(&|i| i + 10);
        assert_eq!(m.referenced_columns(), vec![10, 12]);
    }

    #[test]
    fn display_renders_sql_ish() {
        let e = Expr::col(0).eq(Expr::lit("F"));
        assert_eq!(e.to_string(), "(#0 = 'F')");
    }

    #[test]
    fn predicate_error_propagates() {
        let e = Expr::binary(BinOp::Add, Expr::lit("a"), Expr::lit(1i64));
        assert!(e.eval(&row![0i64]).is_err());
    }
}
