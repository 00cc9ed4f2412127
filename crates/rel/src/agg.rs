//! Aggregate functions as incremental accumulators.
//!
//! [`AggState`] is the definition of every aggregate's semantics: the
//! in-memory oracle executor accumulates with it row by row, and the engine
//! — the reduce phase of an AGGREGATION job and the map-side
//! hash-aggregation combiner the paper credits for Hive's good Q-AGG
//! performance (footnote 2), both segmented folds over typed columns in
//! `ysmart-exec` — keeps its exact semantics, falling back to it on columns
//! of mixed type. States can also *merge* (a combiner's partial output →
//! the reducer); `count(distinct)` cannot be combined and is always
//! finalised in the reducer, as in Hive.

use std::collections::HashSet;
use std::fmt;

use crate::error::RelError;
use crate::value::Value;

/// The aggregate functions of the paper's SQL subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` / `count(col)`
    Count,
    /// `count(distinct col)`
    CountDistinct,
    /// `sum(col)`
    Sum,
    /// `avg(col)`
    Avg,
    /// `min(col)`
    Min,
    /// `max(col)`
    Max,
}

impl AggFunc {
    /// Whether the function admits a partial (combinable) form.
    ///
    /// `count(distinct)` requires the full value set at one reducer and
    /// cannot be partially aggregated map-side.
    #[must_use]
    pub fn combinable(self) -> bool {
        !matches!(self, AggFunc::CountDistinct)
    }

    /// Creates a fresh accumulator for this function.
    #[must_use]
    pub fn new_state(self) -> AggState {
        match self {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count_distinct",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        f.write_str(s)
    }
}

/// A running accumulator for one aggregate function.
///
/// SQL semantics: NULL inputs are ignored by every function; an aggregate
/// over zero non-NULL inputs yields NULL, except `count`, which yields `0`.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Running count of non-NULL inputs.
    Count(i64),
    /// Distinct non-NULL inputs seen so far.
    CountDistinct(HashSet<Value>),
    /// Running sum (`None` until the first non-NULL input). Integer inputs
    /// keep an integer sum; any float input widens the sum.
    Sum(Option<Value>),
    /// Running sum and count for `avg`.
    Avg {
        /// Sum of inputs widened to float.
        sum: f64,
        /// Count of non-NULL inputs.
        count: i64,
    },
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
}

impl AggState {
    /// Feeds one input value into the accumulator.
    ///
    /// # Errors
    ///
    /// `Sum`/`Avg` reject non-numeric inputs with a type mismatch.
    pub fn update(&mut self, v: &Value) -> Result<(), RelError> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::CountDistinct(set) => {
                set.insert(v.clone());
            }
            AggState::Sum(acc) => {
                let next = match acc.take() {
                    None => numeric(v)?,
                    Some(cur) => cur.add(v)?,
                };
                *acc = Some(next);
            }
            AggState::Avg { sum, count } => {
                *sum = add_finite(*sum, v.as_float().ok_or_else(|| type_err("avg", v))?)?;
                *count += 1;
            }
            AggState::Min(acc) => {
                let replace = match acc {
                    None => true,
                    Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Less),
                };
                if replace {
                    *acc = Some(v.clone());
                }
            }
            AggState::Max(acc) => {
                let replace = match acc {
                    None => true,
                    Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Greater),
                };
                if replace {
                    *acc = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Merges another accumulator of the same function into this one
    /// (combiner output arriving at a reducer).
    ///
    /// # Errors
    ///
    /// Type mismatches from `Sum`; merging accumulators of different
    /// functions is a logic error and reported as a type mismatch too.
    pub fn merge(&mut self, other: &AggState) -> Result<(), RelError> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => {
                a.extend(b.iter().cloned());
            }
            (AggState::Sum(a), AggState::Sum(b)) => {
                if let Some(bv) = b {
                    let next = match a.take() {
                        None => bv.clone(),
                        Some(av) => av.add(bv)?,
                    };
                    *a = Some(next);
                }
            }
            (AggState::Avg { sum: s1, count: c1 }, AggState::Avg { sum: s2, count: c2 }) => {
                *s1 = add_finite(*s1, *s2)?;
                *c1 += c2;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    let replace = match &*a {
                        None => true,
                        Some(av) => bv.sql_cmp(av) == Some(std::cmp::Ordering::Less),
                    };
                    if replace {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    let replace = match &*a {
                        None => true,
                        Some(av) => bv.sql_cmp(av) == Some(std::cmp::Ordering::Greater),
                    };
                    if replace {
                        *a = Some(bv.clone());
                    }
                }
            }
            (a, b) => {
                return Err(RelError::TypeMismatch {
                    op: "agg merge".into(),
                    lhs: format!("{a:?}"),
                    rhs: format!("{b:?}"),
                })
            }
        }
        Ok(())
    }

    /// Produces the final aggregate value.
    #[must_use]
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::Sum(acc) => acc.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
            AggState::Min(acc) | AggState::Max(acc) => acc.clone().unwrap_or(Value::Null),
        }
    }
}

fn numeric(v: &Value) -> Result<Value, RelError> {
    match v {
        Value::Int(_) | Value::Float(_) => Ok(v.clone()),
        other => Err(type_err("sum", other)),
    }
}

/// `avg`'s running float sum plus `x`, failing as `Value::add` does when
/// the sum leaves `f64`'s finite range.
pub fn add_finite(sum: f64, x: f64) -> Result<f64, RelError> {
    let total = sum + x;
    if total.is_finite() {
        return Ok(total);
    }
    Err(Value::Float(sum)
        .add(&Value::Float(x))
        .expect_err("a sum past f64's range"))
}

fn type_err(op: &str, v: &Value) -> RelError {
    RelError::TypeMismatch {
        op: op.into(),
        lhs: v.to_string(),
        rhs: "numeric".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, inputs: &[Value]) -> Value {
        let mut s = func.new_state();
        for v in inputs {
            s.update(v).unwrap();
        }
        s.finish()
    }

    #[test]
    fn count_ignores_nulls() {
        let v = run(AggFunc::Count, &[Value::Int(1), Value::Null, Value::Int(2)]);
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn count_of_empty_is_zero_not_null() {
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
    }

    #[test]
    fn sum_and_avg() {
        let xs = [Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(run(AggFunc::Sum, &xs), Value::Int(6));
        assert_eq!(run(AggFunc::Avg, &xs), Value::Float(2.0));
    }

    #[test]
    fn sum_of_empty_is_null() {
        assert!(run(AggFunc::Sum, &[]).is_null());
        assert!(run(AggFunc::Avg, &[Value::Null]).is_null());
    }

    #[test]
    fn min_max() {
        let xs = [Value::Int(5), Value::Int(1), Value::Null, Value::Int(9)];
        assert_eq!(run(AggFunc::Min, &xs), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &xs), Value::Int(9));
    }

    #[test]
    fn count_distinct() {
        let xs = [
            Value::Int(1),
            Value::Int(1),
            Value::Int(2),
            Value::Null,
            Value::Int(2),
        ];
        assert_eq!(run(AggFunc::CountDistinct, &xs), Value::Int(2));
        assert!(!AggFunc::CountDistinct.combinable());
    }

    #[test]
    fn merge_equals_sequential_update() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let xs: Vec<Value> = (1..=10).map(Value::Int).collect();
            let mut a = func.new_state();
            let mut b = func.new_state();
            for v in &xs[..4] {
                a.update(v).unwrap();
            }
            for v in &xs[4..] {
                b.update(v).unwrap();
            }
            a.merge(&b).unwrap();
            assert_eq!(a.finish(), run(func, &xs), "func {func}");
        }
    }

    #[test]
    fn merge_distinct_sets() {
        let mut a = AggFunc::CountDistinct.new_state();
        let mut b = AggFunc::CountDistinct.new_state();
        a.update(&Value::Int(1)).unwrap();
        b.update(&Value::Int(1)).unwrap();
        b.update(&Value::Int(2)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(), Value::Int(2));
    }

    #[test]
    fn merge_mismatched_states_errors() {
        let mut a = AggFunc::Count.new_state();
        let b = AggFunc::Sum.new_state();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn sum_rejects_strings() {
        let mut s = AggFunc::Sum.new_state();
        assert!(s.update(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn sum_widens_on_float() {
        let v = run(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]);
        assert_eq!(v, Value::Float(1.5));
    }
}
