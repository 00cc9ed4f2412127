//! Grouped aggregation over a segmented batch — the common reducer's
//! `Agg` operator and the map-side combiner, as segmented folds.

use std::borrow::Cow;
use std::cmp::Ordering;

use ysmart_rel::agg::add_finite;
use ysmart_rel::colbatch::Column;
use ysmart_rel::{AggFunc, AggState, Expr, RelError, Value};

use crate::batch::{Batch, Col, Selection};
use crate::colexpr::{eval_column, eval_mask, Columnar};

/// What an aggregation reads and what it writes: which side of the map-side
/// combiner it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Raw rows in, final values out: the reducer of an uncombined job.
    Complete,
    /// Raw rows in, each aggregate's partial fields out: the combiner.
    /// `count`, `sum`, `min` and `max` write their final value, `avg` its
    /// running sum and count ([`AggState::Avg`]).
    Partial,
    /// Partial rows in — the group columns `0..g`, then each aggregate's
    /// partial fields — final values out: the reducer of a combined job.
    Merge,
}

/// A batch's rows in sub-group order: sub-group `k` is rows
/// `order[starts[k]..starts[k + 1]]` (the last to the end), in arrival
/// order.
struct Subgroups {
    order: Vec<u32>,
    starts: Vec<usize>,
}

impl Subgroups {
    fn len(&self) -> usize {
        self.starts.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let end = |k: usize| self.starts.get(k + 1).map_or(self.order.len(), |&e| e);
        (0..self.len()).map(move |k| &self.order[self.starts[k]..end(k)])
    }
}

/// Grouped aggregation within each key group. The group may extend the
/// partition key (Q-CSA's AGG1 groups by `(uid, ts1)` inside a `uid`
/// partition): each segment is stably sorted by its group columns under
/// `Value`'s order — nothing moves when they are already in order, as when
/// the group is the key — and each run of equal group values is a
/// sub-group, keyed by its first row (the first-seen representation of
/// `Int(7)` vs `Float(7.0)`). Sub-groups leave in key order, each folded
/// over its rows in arrival order; a work unit per input row. A group
/// column past the input's width reads NULL; merging partials, the group
/// columns are the partial layout's first `group_cols.len()`, whatever they
/// were over the raw rows. `Err` is the op's message.
pub(crate) fn aggregate<'v>(
    input: &Batch<'v>,
    group_cols: &[usize],
    aggs: &[(AggFunc, Option<Expr>)],
    having: Option<&Expr>,
    mode: Mode,
    work: &mut u64,
) -> Result<Batch<'v>, String> {
    *work += input.len() as u64;
    let group_cols: Cow<'_, [usize]> = match mode {
        Mode::Merge => Cow::Owned((0..group_cols.len()).collect()),
        _ => Cow::Borrowed(group_cols),
    };
    let (subs, segs) = subgroups(input, &group_cols);
    let n = subs.len();
    let firsts: Selection = subs.starts.iter().map(|&s| subs.order[s]).collect();
    let null = || Col::typed(Column::from_cells(n, |_| &Value::Null));
    let key = |c: usize| {
        if c < input.width() {
            input.cols_at([c], &firsts).pop().expect("one column")
        } else {
            null()
        }
    };
    let mut cols: Vec<Col<'v>> = group_cols.iter().map(|&c| key(c)).collect();
    let mut offset = group_cols.len();
    let typed = |results: Vec<Value>| Col::typed(Column::from_cells(n, |k| &results[k]));
    for (func, arg) in aggs {
        if mode == Mode::Merge {
            // Partial fields follow the group columns in combiner layout:
            // `avg`'s are its sum and count.
            let width = if *func == AggFunc::Avg { 2 } else { 1 };
            let field = |c: usize| {
                let width = input.width();
                input
                    .column(c)
                    .ok_or(RelError::ColumnOutOfBounds { index: c, width })
            };
            let fields: Result<Vec<&Column>, _> = (offset..offset + width).map(field).collect();
            offset += width;
            cols.push(typed(
                match fields.and_then(|fields| merge(*func, &fields, &subs)) {
                    Ok(results) => results,
                    // With no row there is no partial to merge.
                    Err(_) if n == 0 => Vec::new(),
                    Err(e) => return Err(format!("partial merge failed: {e}")),
                },
            ));
            continue;
        }
        let failed = |e: RelError| format!("aggregation failed: {e}");
        let col = match arg {
            Some(e) => eval_column(e, input).check(None).map_err(failed)?,
            // `count(*)` counts rows: each row feeds 1.
            None => Cow::Owned(Column::from_cells(input.len(), |_| &Value::Int(1))),
        };
        if mode == Mode::Partial && *func == AggFunc::Avg {
            let parts: Vec<(f64, i64)> = subs
                .iter()
                .map(|rows| sum_count(&col, rows))
                .collect::<Result<_, _>>()
                .map_err(failed)?;
            cols.push(typed(
                parts.iter().map(|&(sum, _)| Value::Float(sum)).collect(),
            ));
            cols.push(typed(parts.iter().map(|&(_, n)| Value::Int(n)).collect()));
        } else {
            cols.push(typed(fold(*func, &col, &subs).map_err(failed)?));
        }
    }
    let out = Batch::new(segs, cols);
    let Some(having) = having else {
        return Ok(out);
    };
    let mask = eval_mask(having, &out)
        .check(None)
        .map_err(|e| format!("HAVING failed: {e}"))?;
    Ok(out.filter(|r, _| mask[r] == Some(true)))
}

/// The input's sub-groups, and the output's segments (sub-groups per key
/// group). One pass per segment finds the sub-group starts if the rows are
/// already in group order; only a segment that is not is sorted.
fn subgroups(input: &Batch<'_>, group_cols: &[usize]) -> (Subgroups, Vec<u32>) {
    let keys: Vec<&Column> = group_cols.iter().filter_map(|&c| input.column(c)).collect();
    let cmp = |a: u32, b: u32| match &keys[..] {
        [key] => key.cmp_rows(a as usize, b as usize),
        keys => {
            let mut ord = keys.iter().map(|k| k.cmp_rows(a as usize, b as usize));
            ord.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        }
    };
    let mut order: Vec<u32> = (0..input.len() as u32).collect();
    let (mut starts, mut segs) = (Vec::new(), Vec::with_capacity(input.groups() + 1));
    segs.push(0);
    for g in 0..input.groups() {
        let seg = input.seg(g);
        let first = starts.len();
        let mut sorted = true;
        for i in seg.clone() {
            // Unsorted, `order` is the identity.
            let ord = if i == seg.start {
                Ordering::Less
            } else {
                cmp(i as u32 - 1, i as u32)
            };
            match ord {
                Ordering::Less => starts.push(i),
                Ordering::Equal => {}
                Ordering::Greater => {
                    sorted = false;
                    break;
                }
            }
        }
        if !sorted {
            starts.truncate(first);
            // Ties in arrival order: the stable sort, by the faster one.
            order[seg.clone()].sort_unstable_by(|&a, &b| cmp(a, b).then(a.cmp(&b)));
            let start = seg.start;
            let new = |&i: &usize| i == start || cmp(order[i - 1], order[i]).is_ne();
            starts.extend(seg.filter(new));
        }
        segs.push(starts.len() as u32);
    }
    (Subgroups { order, starts }, segs)
}

/// The rows of `rows` whose `nulls` slot is clear.
fn present<'r>(nulls: &'r [bool], rows: &'r [u32]) -> impl Iterator<Item = usize> + 'r {
    rows.iter().map(|&r| r as usize).filter(|&r| !nulls[r])
}

/// `avg`'s running state over `rows` of `col`, as [`AggState::Avg`] keeps
/// it: the sum of the present values widened to float, added left to right
/// from `0.0` (failing as it does past `f64`'s range), and their count.
/// Typed columns add in typed loops; the rest through `AggState` itself.
fn sum_count(col: &Column, rows: &[u32]) -> Result<(f64, i64), RelError> {
    let add = |(sum, n): (f64, i64), x: f64| Ok((add_finite(sum, x)?, n + 1));
    Ok(match col {
        Column::Int { data, nulls } => present(nulls, rows)
            .map(|r| data[r] as f64)
            .try_fold((0.0, 0), add)?,
        Column::Float { data, nulls } => present(nulls, rows)
            .map(|r| data[r])
            .try_fold((0.0, 0), add)?,
        _ => {
            let mut state = AggFunc::Avg.new_state();
            rows.iter()
                .try_for_each(|&r| state.update(&col.value(r as usize)))?;
            let AggState::Avg { sum, count } = state else {
                unreachable!("an avg accumulator")
            };
            (sum, count)
        }
    })
}

/// A sum of `Int`s as `AggState` adds them: checked, an overflow failing
/// as `Value::add` fails.
fn sum_ints(mut xs: impl Iterator<Item = i64>) -> Result<Value, RelError> {
    let Some(mut sum) = xs.next() else {
        return Ok(Value::Null);
    };
    for x in xs {
        sum = match sum.checked_add(x) {
            Some(sum) => sum,
            None => return Value::Int(sum).add(&Value::Int(x)),
        };
    }
    Ok(Value::Int(sum))
}

/// Each sub-group's count of distinct non-null values, by sorting and
/// deduplicating their `key`s in one reused buffer.
fn distinct<T: Ord>(subs: &Subgroups, nulls: &[bool], key: impl Fn(usize) -> T) -> Vec<Value> {
    let mut keys = Vec::new();
    let count = |rows: &[u32]| {
        keys.clear();
        keys.extend(present(nulls, rows).map(&key));
        keys.sort_unstable();
        keys.dedup();
        Value::Int(keys.len() as i64)
    };
    subs.iter().map(count).collect()
}

/// `func` over each sub-group's rows of `col`, in order: `AggState::update`
/// of each value. Typed columns fold in typed loops that keep its exact
/// semantics — a float sum added left to right (past `f64`'s range an
/// overflow, as `Value::add` has it), an `Int` sum checked, a
/// `min`/`max` tie kept by the first, `count(distinct)` by sort and dedupe
/// (`-0.0` equal to `0.0`) — and `Var` columns fold through `AggState`
/// itself.
fn fold(func: AggFunc, col: &Column, subs: &Subgroups) -> Result<Vec<Value>, RelError> {
    let each = |f: &dyn Fn(&[u32]) -> Value| subs.iter().map(f).collect();
    Ok(match (func, col) {
        (AggFunc::Count, _) => each(&|rows| {
            let present = rows.iter().filter(|&&r| !col.is_null(r as usize));
            Value::Int(present.count() as i64)
        }),
        (AggFunc::Sum, Column::Int { data, nulls }) => subs
            .iter()
            .map(|rows| sum_ints(present(nulls, rows).map(|r| data[r])))
            .collect::<Result<_, _>>()?,
        (AggFunc::Sum, Column::Float { data, nulls }) => subs
            .iter()
            .map(|rows| {
                let mut xs = present(nulls, rows).map(|r| data[r]);
                let first = xs.next().map(|x| xs.try_fold(x, add_finite));
                Ok(first.transpose()?.map_or(Value::Null, Value::Float))
            })
            .collect::<Result<_, RelError>>()?,
        (AggFunc::Avg, _) => subs
            .iter()
            .map(|rows| {
                sum_count(col, rows).map(|(sum, count)| AggState::Avg { sum, count }.finish())
            })
            .collect::<Result<_, _>>()?,
        (
            AggFunc::Min | AggFunc::Max,
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. },
        ) => {
            let wins = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let better = |best, r| {
                if col.cmp_rows(r, best) == wins {
                    r
                } else {
                    best
                }
            };
            each(&|rows| {
                let best = present(nulls, rows).reduce(better);
                best.map_or(Value::Null, |r| col.value(r))
            })
        }
        (AggFunc::CountDistinct, Column::Int { data, nulls }) => distinct(subs, nulls, |r| data[r]),
        (AggFunc::CountDistinct, Column::Float { data, nulls }) => {
            // `0.0` has the bits 0: `-0.0` joins it.
            distinct(subs, nulls, |r| {
                if data[r] == 0.0 {
                    0
                } else {
                    data[r].to_bits()
                }
            })
        }
        (AggFunc::CountDistinct, Column::Bool { data, nulls }) => {
            distinct(subs, nulls, |r| data[r])
        }
        (AggFunc::CountDistinct, Column::Str { dict, idx, nulls }) => {
            distinct(subs, nulls, |r| &dict[idx[r] as usize])
        }
        _ => subs
            .iter()
            .map(|rows| {
                let mut state = func.new_state();
                for &r in rows {
                    state.update(&col.value(r as usize))?;
                }
                Ok(state.finish())
            })
            .collect::<Result<_, RelError>>()?,
    })
}

/// `func` over each sub-group's combiner partials in `fields` (the
/// partial's one or two columns), in order: `AggState::merge` of each.
/// `count` and `avg` add up their running totals; a `sum`, `min` or `max`
/// partial is the value its raw rows folded to, so merging partials folds
/// them.
fn merge(func: AggFunc, fields: &[&Column], subs: &Subgroups) -> Result<Vec<Value>, RelError> {
    let int = |col: &Column, r: &u32| col.value(*r as usize).as_int().unwrap_or(0);
    let float = |col: &Column, r: &u32| col.value(*r as usize).as_float().unwrap_or(0.0);
    Ok(match (func, fields[0]) {
        (AggFunc::Count, col) => {
            let count = |rows: &[u32]| Value::Int(rows.iter().map(|r| int(col, r)).sum());
            subs.iter().map(count).collect()
        }
        (AggFunc::Avg, sum) => {
            let avg = |rows: &[u32]| {
                let sum = rows
                    .iter()
                    .try_fold(0.0, |t, r| add_finite(t, float(sum, r)))?;
                let count = rows.iter().map(|r| int(fields[1], r)).sum();
                Ok(AggState::Avg { sum, count }.finish())
            };
            subs.iter().map(avg).collect::<Result<_, RelError>>()?
        }
        (_, col) => fold(func, col, subs)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed folds are `AggState::update` value by value: a float sum
    /// added left to right (pairwise addition rounds these values apart), a
    /// `min`/`max` tie kept by the first (`-0.0` and `0.0` render apart),
    /// `count(distinct)` taking `-0.0` for `0.0`, an `Int` sum failing on
    /// overflow — over sub-groups in any row order, NULLs skipped.
    #[test]
    fn typed_folds_are_agg_state() {
        let floats = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3, -0.0, 0.0];
        let ints = [3, -7, i64::MAX, 0, 7, -3, 1, 3, 0];
        let columns = [
            floats.map(Value::Float),
            ints.map(Value::Int),
            floats.map(|f| Value::Str(format!("{f}"))),
        ];
        let order: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 6, 4, 2, 0, 7, 5, 3, 1];
        let subs = Subgroups {
            order: order.clone(),
            starts: vec![0, 2, 4, 9, 10, 13],
        };
        for mut cells in columns {
            cells[5] = Value::Null;
            let col = Column::from_cells(cells.len(), |r| &cells[r]);
            for func in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::CountDistinct,
            ] {
                let by_state: Result<Vec<Value>, RelError> = subs
                    .iter()
                    .map(|rows| {
                        let mut state = func.new_state();
                        rows.iter()
                            .try_for_each(|&r| state.update(&cells[r as usize]))?;
                        Ok(state.finish())
                    })
                    .collect();
                assert_eq!(
                    format!("{:?}", fold(func, &col, &subs)),
                    format!("{by_state:?}"),
                    "{func} over {col:?}"
                );
            }
        }
    }
}
