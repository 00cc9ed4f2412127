//! Dynamically-typed scalar values.
//!
//! [`Value`] is the unit of data everywhere in YSmart: rows are vectors of
//! values, MapReduce keys are vectors of values, and expression evaluation
//! produces values. SQL `NULL` is [`Value::Null`] and follows SQL comparison
//! semantics in the evaluator (any comparison with `NULL` is `NULL`), but
//! values also expose a *total* order ([`Ord`]) used for sorting and for the
//! MapReduce shuffle, where `NULL` sorts first — the same convention Hadoop
//! writables used for serialized nulls.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::RelError;

/// The SQL data types of the paper's query subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean (`true`/`false`).
    Bool,
    /// 64-bit signed integer. Also used for timestamps (seconds).
    Int,
    /// 64-bit IEEE float (SQL `DECIMAL`/`DOUBLE` stand-in).
    Float,
    /// UTF-8 string (`CHAR`/`VARCHAR` stand-in).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (also timestamps).
    Int(i64),
    /// 64-bit float. The evaluator never constructs `inf` or `NaN`: an
    /// arithmetic result that would be one is [`RelError::Overflow`].
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Returns the value's data type, or `None` for [`Value::Null`].
    #[must_use]
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Returns `true` if the value is SQL NULL.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a boolean for predicate evaluation.
    ///
    /// SQL three-valued logic: `NULL` is "unknown" and returns `None`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as an `i64` when it is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as an `f64`, widening integers.
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the value as a string slice when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number of bytes this value occupies in the simulator's size
    /// accounting (used to charge disk and network I/O).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() + 1,
        }
    }

    /// SQL comparison: `NULL` compared with anything yields `None`.
    ///
    /// Numeric values compare across `Int`/`Float`; other cross-type
    /// comparisons yield an error upstream (the evaluator rejects them), so
    /// here they fall back to `None` as well.
    #[must_use]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_float()?, b.as_float()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Addition with SQL NULL propagation and numeric widening. An `Int`
    /// result past `i64` or a `Float` one past `f64` is
    /// [`RelError::Overflow`] (so are `-`, `*` and `/`).
    pub fn add(&self, other: &Value) -> Result<Value, RelError> {
        self.arith(other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Subtraction with SQL NULL propagation and numeric widening.
    pub fn sub(&self, other: &Value) -> Result<Value, RelError> {
        self.arith(other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Multiplication with SQL NULL propagation and numeric widening.
    pub fn mul(&self, other: &Value) -> Result<Value, RelError> {
        self.arith(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Division. Integer division of two `Int`s stays integral (SQL
    /// convention) and fails on overflow (`i64::MIN / -1`) as the other
    /// operations do, a float quotient past `f64`'s range included;
    /// division by zero is an error; NULL propagates.
    pub fn div(&self, other: &Value) -> Result<Value, RelError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(_), Value::Int(0)) => Err(RelError::DivideByZero),
            (Value::Int(a), Value::Int(b)) => a
                .checked_div(*b)
                .map(Value::Int)
                .ok_or_else(|| self.overflow("/", other)),
            (a, b) => {
                let (x, y) = self.numeric_pair(a, b, "/")?;
                if y == 0.0 {
                    return Err(RelError::DivideByZero);
                }
                self.finite(x / y, "/", other)
            }
        }
    }

    fn arith(
        &self,
        other: &Value,
        op: &str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Result<Value, RelError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => int_op(*a, *b)
                .map(Value::Int)
                .ok_or_else(|| self.overflow(op, other)),
            (a, b) => {
                let (x, y) = self.numeric_pair(a, b, op)?;
                self.finite(float_op(x, y), op, other)
            }
        }
    }

    /// A float result, or the overflow it is when not finite: no `Float`
    /// the evaluator builds is `inf` or `NaN`.
    fn finite(&self, f: f64, op: &str, other: &Value) -> Result<Value, RelError> {
        if f.is_finite() {
            Ok(Value::Float(f))
        } else {
            Err(self.overflow(op, other))
        }
    }

    fn numeric_pair(&self, a: &Value, b: &Value, op: &str) -> Result<(f64, f64), RelError> {
        match (a.as_float(), b.as_float()) {
            (Some(x), Some(y)) => Ok((x, y)),
            _ => Err(self.mismatch(op, b)),
        }
    }

    fn overflow(&self, op: &str, other: &Value) -> RelError {
        RelError::Overflow {
            op: op.to_string(),
            lhs: self.to_string(),
            rhs: other.to_string(),
        }
    }

    fn mismatch(&self, op: &str, other: &Value) -> RelError {
        RelError::TypeMismatch {
            op: op.to_string(),
            lhs: self.to_string(),
            rhs: other.to_string(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for sorting and shuffle partitioning:
    /// `Null < Bool < numeric < Str`, with `Int`/`Float` interleaved by
    /// numeric value (ties broken with `Int` first so the order is total).
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Int and Float compare (and hash) by numeric value, so
            // `Int(7) == Float(7.0)` — group-by and join keys must not
            // distinguish numerically equal values of different widths.
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                let x = self.as_float().expect("numeric");
                let y = other.as_float().expect("numeric");
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash identically when numerically equal so that
            // `Value` equality and hashing agree (Eq ⇒ same hash); `-0.0`
            // equals `0.0` and `Int(0)`, so it hashes as `0.0`.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                (if *f == 0.0 { 0.0 } else { *f }).to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    // Same text as `{x:.1}`, but through the integer
                    // formatter — fixed-precision float formatting takes
                    // the exact (Dragon4) path, which dwarfs everything
                    // else when most aggregates are whole numbers.
                    if x.is_sign_negative() && *x == 0.0 {
                        f.write_str("-0.0")
                    } else {
                        write!(f, "{}.0", *x as i64)
                    }
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::Str("a".into())];
        vs.sort();
        assert!(vs[0].is_null());
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn eq_implies_same_hash_across_int_float() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        for zero in [Value::Float(0.0), Value::Int(0)] {
            assert_eq!(Value::Float(-0.0), zero);
            assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&zero));
        }
    }

    #[test]
    fn arithmetic_widens() {
        assert_eq!(
            Value::Int(3).add(&Value::Float(0.5)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(Value::Int(3).mul(&Value::Int(4)).unwrap(), Value::Int(12));
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_errors() {
        assert_eq!(
            Value::Int(1).div(&Value::Int(0)),
            Err(RelError::DivideByZero)
        );
        assert_eq!(
            Value::Float(1.0).div(&Value::Int(0)),
            Err(RelError::DivideByZero)
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).div(&Value::Null).unwrap().is_null());
    }

    #[test]
    fn type_mismatch_in_arithmetic() {
        let e = Value::Str("a".into()).add(&Value::Int(1)).unwrap_err();
        assert!(matches!(e, RelError::TypeMismatch { .. }));
    }

    /// An `Int` result past `i64` and a `Float` one past `f64` are both an
    /// overflow naming the operator and operands — never a type mismatch,
    /// and never an `inf` or `NaN` handed on.
    #[test]
    fn arithmetic_overflow_is_typed() {
        let (max, big) = (Value::Int(i64::MAX), Value::Float(1e308));
        let cases = [
            (
                max.add(&Value::Int(1)),
                "arithmetic overflow in +: 9223372036854775807 + 1",
            ),
            (Value::Int(i64::MIN).div(&Value::Int(-1)), "overflow in /"),
            (big.mul(&Value::Float(10.0)), "overflow in *"),
            (big.add(&big), "overflow in +"),
            (big.sub(&Value::Float(-1e308)), "overflow in -"),
            (big.div(&Value::Float(0.1)), "overflow in /"),
        ];
        for (got, want) in cases {
            let err = got.expect_err(want);
            assert!(matches!(err, RelError::Overflow { .. }), "{err}");
            assert!(err.to_string().contains(want), "{err}");
        }
        assert_eq!(big.add(&Value::Float(1.0)).unwrap(), big);
    }

    #[test]
    fn display_round_values() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Int(2).to_string(), "2");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn size_bytes_accounting() {
        assert_eq!(Value::Int(1).size_bytes(), 8);
        assert_eq!(Value::Str("abc".into()).size_bytes(), 4);
        assert_eq!(Value::Null.size_bytes(), 1);
    }

    #[test]
    fn total_order_is_transitive_over_mixed_numerics() {
        let a = Value::Int(1);
        let b = Value::Float(1.5);
        let c = Value::Int(2);
        assert!(a < b && b < c && a < c);
    }
}
