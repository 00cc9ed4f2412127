//! Map-side partial aggregation (the AGGREGATION job's combiner).
//!
//! The combiner groups a map task's output for one key by the extra
//! grouping columns and replaces the raw rows with *partial rows*:
//! `[group values…, partial fields…]`. The reduce-side aggregation op (with
//! `merge_partials` set) merges partials instead of accumulating raw
//! values. This is the optimisation the paper credits for Hive matching
//! hand-coded MapReduce on the simple Q-AGG query (footnote 2).

use std::collections::BTreeMap;
use std::sync::Arc;

use ysmart_mapred::{Combiner, GroupView};
use ysmart_rel::{AggFunc, AggState, Columns, Expr, RelError, Row, Value};

use crate::blueprint::JobBlueprint;

/// Encodes a finished accumulator as partial-row fields.
#[must_use]
pub fn encode_partial(state: &AggState) -> Vec<Value> {
    match state {
        AggState::Count(c) => vec![Value::Int(*c)],
        AggState::Sum(v) => vec![v.clone().unwrap_or(Value::Null)],
        AggState::Avg { sum, count } => vec![Value::Float(*sum), Value::Int(*count)],
        AggState::Min(v) | AggState::Max(v) => vec![v.clone().unwrap_or(Value::Null)],
        AggState::CountDistinct(_) => unreachable!("count(distinct) is not combinable"),
    }
}

/// Decodes the partial fields of `func` starting at column `at` of a
/// partial row back into an accumulator for merging.
///
/// # Errors
///
/// A partial row too short to hold the fields.
pub fn decode_partial<C: Columns + ?Sized>(
    func: AggFunc,
    row: &C,
    at: usize,
) -> Result<AggState, RelError> {
    let first = row.column(at)?;
    let non_null = || (!first.is_null()).then(|| first.clone());
    Ok(match func {
        AggFunc::Count => AggState::Count(first.as_int().unwrap_or(0)),
        AggFunc::Sum => AggState::Sum(non_null()),
        AggFunc::Avg => AggState::Avg {
            sum: first.as_float().unwrap_or(0.0),
            count: row.column(at + 1)?.as_int().unwrap_or(0),
        },
        AggFunc::Min => AggState::Min(non_null()),
        AggFunc::Max => AggState::Max(non_null()),
        AggFunc::CountDistinct => unreachable!("count(distinct) is not combinable"),
    })
}

/// Feeds one raw row into a list of accumulators (shared by the combiner
/// and the reduce-side raw aggregation). `count(*)`'s missing argument
/// counts every row.
pub fn update_states<C: Columns + ?Sized>(
    states: &mut [AggState],
    aggs: &[(AggFunc, Option<Expr>)],
    row: &C,
) -> Result<(), RelError> {
    for (state, (_, arg)) in states.iter_mut().zip(aggs) {
        match arg {
            Some(e) => state.update(e.eval_on(row)?.as_ref())?,
            None => state.update(&Value::Int(1))?, // count(*) counts rows
        }
    }
    Ok(())
}

/// The combiner instance built per map task.
#[derive(Debug)]
pub struct PartialAggCombiner {
    blueprint: Arc<JobBlueprint>,
    /// First evaluation error hit while combining — surfaced through
    /// [`Combiner::take_error`] so the engine fails the job with a typed
    /// error instead of this task panicking.
    error: Option<String>,
}

impl PartialAggCombiner {
    /// Creates the combiner for a blueprint (which must carry a
    /// [`crate::blueprint::PartialAgg`]).
    #[must_use]
    pub fn new(blueprint: Arc<JobBlueprint>) -> Self {
        PartialAggCombiner {
            blueprint,
            error: None,
        }
    }
}

impl Combiner for PartialAggCombiner {
    fn combine(&mut self, key: &Row, values: &[Row]) -> Vec<Row> {
        self.combine_group(key.values(), GroupView::rows(values))
    }

    fn combine_group(&mut self, _key: &[Value], values: GroupView<'_>) -> Vec<Row> {
        let bp = Arc::clone(&self.blueprint);
        let Some(spec) = bp.combiner.as_ref() else {
            // A blueprint without a PartialAgg never builds this combiner;
            // if one does, report it and pass the rows through unchanged —
            // correctness never depends on combining.
            self.error
                .get_or_insert_with(|| format!("combiner blueprint missing in {}", bp.name));
            return values.to_rows();
        };
        let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
        for row in values.iter() {
            let group: Vec<Value> = spec
                .group_cols
                .iter()
                .map(|&c| row.get(c).cloned().unwrap_or(Value::Null))
                .collect();
            let states = groups
                .entry(group)
                .or_insert_with(|| spec.aggs.iter().map(|(f, _)| f.new_state()).collect());
            if let Err(e) = update_states(states, &spec.aggs, row) {
                self.error
                    .get_or_insert_with(|| format!("combiner aggregation failed: {e}"));
                return values.to_rows();
            }
        }
        groups
            .into_iter()
            .map(|(group, states)| {
                let mut vals = group;
                for s in &states {
                    vals.extend(encode_partial(s));
                }
                Row::new(vals)
            })
            .collect()
    }

    fn take_error(&mut self) -> Option<String> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::row;

    #[test]
    fn partial_round_trip_equals_direct() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let xs: Vec<Value> = (1..=6).map(Value::Int).collect();
            // direct
            let mut direct = func.new_state();
            for v in &xs {
                direct.update(v).unwrap();
            }
            // two partials merged through the wire encoding
            let mut a = func.new_state();
            let mut b = func.new_state();
            for v in &xs[..3] {
                a.update(v).unwrap();
            }
            for v in &xs[3..] {
                b.update(v).unwrap();
            }
            let mut merged = decode_partial(func, &encode_partial(&a)[..], 0).unwrap();
            merged
                .merge(&decode_partial(func, &encode_partial(&b)[..], 0).unwrap())
                .unwrap();
            assert_eq!(merged.finish(), direct.finish(), "{func}");
        }
    }

    #[test]
    fn sum_partial_of_empty_is_null() {
        let s = AggFunc::Sum.new_state();
        let p = encode_partial(&s);
        assert!(p[0].is_null());
        assert!(decode_partial(AggFunc::Sum, &p[..], 0)
            .unwrap()
            .finish()
            .is_null());
    }

    #[test]
    fn count_star_counts_rows() {
        let aggs = vec![(AggFunc::Count, None)];
        let mut states = vec![AggFunc::Count.new_state()];
        update_states(&mut states, &aggs, &row![1i64]).unwrap();
        update_states(&mut states, &aggs, &row![2i64]).unwrap();
        assert_eq!(states[0].finish(), Value::Int(2));
    }
}
