//! Equivalence of the map-side combiner with a row-at-a-time reference.
//!
//! [`reference_combine`] is the combiner as it was before it ran the
//! reducer's aggregation: one key group at a time, a `BTreeMap` entry per
//! group-column tuple, each row fed into an `AggState` per aggregate
//! ([`update_states`]) and each finished accumulator written out as partial
//! fields ([`encode_partial`]). `AggCombiner::combine_run` reads the
//! partial row a merging job's mapper writes per raw row ([`map_partial`])
//! and folds a whole run of key groups as one batch through `aggregate`'s
//! partial→partial mode. Over generated runs — cells `Int`, `Float`, `Str`,
//! `Bool` and NULL, among them `-0.0` beside `0.0`, `Int(7)` beside
//! `Float(7.0)` and `i64::MAX`; group columns up to one past the width;
//! `count(*)` and arguments whose arithmetic fails — the two must agree
//! group by group: the same partial rows, rendered by `Debug` so that values
//! equal as `Value`s but written apart still differ, and a failure exactly
//! where the reference fails. The run fails as a whole, naming its job, when
//! any of its groups fails. A run holding a row whose argument fails to
//! evaluate fails in the mapper and never reaches a combiner: it is
//! skipped.
//!
//! `cargo test` runs a few hundred cases; CI runs the `#[ignore]`d soak in
//! release mode (`--include-ignored`).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_exec::AggCombiner;
use ysmart_mapred::{Combiner, KeyGroups};
use ysmart_rel::{AggFunc, AggState, BinOp, Columns, Expr, RelError, Row, Value};

// ---- the reference ---------------------------------------------------------

/// Encodes a finished accumulator as partial-row fields.
fn encode_partial(state: &AggState) -> Vec<Value> {
    match state {
        AggState::Count(c) => vec![Value::Int(*c)],
        AggState::Sum(v) => vec![v.clone().unwrap_or(Value::Null)],
        AggState::Avg { sum, count } => vec![Value::Float(*sum), Value::Int(*count)],
        AggState::Min(v) | AggState::Max(v) => vec![v.clone().unwrap_or(Value::Null)],
        AggState::CountDistinct(_) => unreachable!("count(distinct) is not combinable"),
    }
}

/// Feeds one raw row into the combiner's accumulators. `count(*)`'s missing
/// argument counts every row.
fn update_states<C: Columns + ?Sized>(
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

/// The row combiner over one key group's values.
fn reference_combine(
    group_cols: &[usize],
    aggs: &[(AggFunc, Option<Expr>)],
    values: &[Row],
) -> Result<Vec<Row>, String> {
    let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    for row in values.iter().map(Row::values) {
        let group: Vec<Value> = group_cols
            .iter()
            .map(|&c| row.get(c).cloned().unwrap_or(Value::Null))
            .collect();
        let states = groups
            .entry(group)
            .or_insert_with(|| aggs.iter().map(|(f, _)| f.new_state()).collect());
        update_states(states, aggs, row)
            .map_err(|e| format!("combiner aggregation failed: {e}"))?;
    }
    Ok(groups
        .into_iter()
        .map(|(group, states)| {
            let mut vals = group;
            for s in &states {
                vals.extend(encode_partial(s));
            }
            Row::new(vals)
        })
        .collect())
}

/// The partial row a merging job's mapper writes for one raw row: the
/// group columns (NULL past the row), then per aggregate `count(*)` a 1,
/// `count(x)` whether `x` is present, `sum`, `min` and `max` their
/// argument, `avg` its argument and whether it is present.
fn map_partial(
    group_cols: &[usize],
    aggs: &[(AggFunc, Option<Expr>)],
    row: &Row,
) -> Result<Row, RelError> {
    let mut vals: Vec<Value> = group_cols
        .iter()
        .map(|&c| row.get(c).cloned().unwrap_or(Value::Null))
        .collect();
    for (func, arg) in aggs {
        let Some(arg) = arg else {
            vals.push(Value::Int(1));
            continue;
        };
        let x = arg.eval(row)?;
        let present = Value::Bool(!x.is_null());
        match func {
            AggFunc::Count => vals.push(present),
            AggFunc::Avg => vals.extend([x, present]),
            _ => vals.push(x),
        }
    }
    Ok(Row::new(vals))
}

// ---- the generator ---------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Debug)]
enum Ty {
    /// NULL, `Int(7)` or `Float(7.0)` (equal, but rendered apart), or a
    /// small `Int`/`Float`: a mixed column.
    Num,
    /// NULL or an `Int` — now and then `i64::MAX`, so a sum overflows.
    Int,
    /// NULL or a `Float`: `-0.0` beside `0.0`, and values whose sum depends
    /// on the order of the additions.
    Float,
    /// NULL or a short string.
    Str,
    /// NULL or a boolean.
    Bool,
    /// Any of the above, row by row.
    Any,
}

struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.0.gen_bool(p)
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    fn value(&mut self, ty: Ty) -> Value {
        if self.chance(0.15) {
            return Value::Null;
        }
        match ty {
            Ty::Num => match self.below(4) {
                0 => Value::Int(7),
                1 => Value::Float(7.0),
                2 => Value::Int(self.below(3) as i64),
                _ => Value::Float(self.below(3) as f64 + 0.5),
            },
            Ty::Int if self.chance(0.05) => Value::Int(i64::MAX),
            Ty::Int => Value::Int(self.below(5) as i64 - 2),
            Ty::Float => Value::Float(self.pick(&[-0.0, 0.0, 0.1, 0.2, 0.3, 1.5, 1e16, -1e16])),
            Ty::Str => Value::Str(self.pick(&["a", "b", "B", "", "ab"]).to_string()),
            Ty::Bool => Value::Bool(self.chance(0.5)),
            Ty::Any => {
                let ty = self.pick(&[Ty::Num, Ty::Int, Ty::Float, Ty::Str, Ty::Bool]);
                self.value(ty)
            }
        }
    }

    /// A column of `types` whose values are numbers, if there is one.
    fn numeric_col(&mut self, types: &[Ty]) -> Option<usize> {
        let numeric = |t: &Ty| matches!(t, Ty::Num | Ty::Int | Ty::Float);
        let cols: Vec<usize> = (0..types.len()).filter(|&c| numeric(&types[c])).collect();
        (!cols.is_empty()).then(|| self.pick(&cols))
    }

    /// An aggregate argument over `types`: mostly a column; now and then
    /// arithmetic that fails on some rows — `7 / #d` on a zero, `#a + #b`
    /// past `i64::MAX` — or a column past the width.
    fn arg(&mut self, types: &[Ty]) -> Expr {
        let any = self.below(types.len());
        match (self.below(10), self.numeric_col(types)) {
            (0, Some(d)) => Expr::binary(BinOp::Div, Expr::lit(7i64), Expr::col(d)),
            (1, Some(a)) => {
                let b = self.numeric_col(types).expect("has one");
                Expr::binary(BinOp::Add, Expr::col(a), Expr::col(b))
            }
            (2, _) if self.chance(0.1) => Expr::col(types.len()),
            _ => Expr::col(any),
        }
    }
}

struct Case {
    group_cols: Vec<usize>,
    aggs: Vec<(AggFunc, Option<Expr>)>,
    keys: Vec<Row>,
    values: Vec<Row>,
    starts: Vec<u32>,
}

fn gen_case(g: &mut Gen) -> Case {
    let types: Vec<Ty> = (0..1 + g.below(4))
        .map(|_| g.pick(&[Ty::Num, Ty::Int, Ty::Float, Ty::Str, Ty::Bool, Ty::Any]))
        .collect();
    // One past the width reads NULL.
    let group_cols = (0..g.below(3)).map(|_| g.below(types.len() + 1)).collect();
    let aggs = (0..1 + g.below(3))
        .map(|_| match g.below(6) {
            0 => (AggFunc::Count, None),
            n => {
                let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg];
                let func = funcs.get(n - 1).copied();
                let func = func.unwrap_or_else(|| g.pick(&[AggFunc::Min, AggFunc::Max]));
                (func, Some(g.arg(&types)))
            }
        })
        .collect();
    // Now and then a run long enough to be cut into several batches.
    let groups = if g.chance(0.02) { 300 } else { 1 + g.below(6) };
    let (mut keys, mut values, mut starts) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..groups {
        keys.push(Row::new(vec![Value::Int(k as i64)]));
        starts.push(values.len() as u32);
        // A map task's run is sorted by key alone: a group's values come in
        // any order.
        values.extend(
            (0..g.below(9)).map(|_| Row::new(types.iter().map(|&ty| g.value(ty)).collect())),
        );
    }
    Case {
        group_cols,
        aggs,
        keys,
        values,
        starts,
    }
}

// ---- the property ----------------------------------------------------------

fn check_equivalence(cases: u64) {
    let (mut compared, mut failed, mut mixed, mut skipped) = (0, 0, 0, 0);
    for seed in 0..cases {
        let mut g = Gen(StdRng::seed_from_u64(0xC0B1_0000 + seed));
        let case = gen_case(&mut g);
        let mapped = case
            .values
            .iter()
            .map(|row| map_partial(&case.group_cols, &case.aggs, row))
            .collect::<Result<Vec<Row>, _>>();
        let Ok(partials) = mapped else {
            skipped += 1;
            continue;
        };
        let groups = KeyGroups::rows(&case.keys, &partials, &case.starts);
        let reference: Vec<Result<Vec<Row>, String>> = (0..groups.len())
            .map(|k| {
                reference_combine(&case.group_cols, &case.aggs, &case.values[groups.bounds(k)])
            })
            .collect();
        let context = || {
            format!(
                "seed {seed}: group by {:?}, {:?}\n{:?}",
                case.group_cols, case.aggs, case.values
            )
        };
        let mut combiner = AggCombiner::new("J7", &case.group_cols, &case.aggs);
        let (rows, starts) = combiner.combine_run(groups).into_rows();
        let error = combiner.take_error();
        let fails = reference.iter().filter(|r| r.is_err()).count();
        assert_eq!(error.is_some(), fails > 0, "{error:?}, {}", context());
        assert_eq!(starts.len(), groups.len(), "{}", context());
        if let Some(error) = &error {
            let named = error.starts_with("combiner ") && error.ends_with(" (job J7)");
            assert!(named, "{error}");
        }
        let end = |k: usize| starts.get(k + 1).map_or(rows.len(), |&e| e as usize);
        for (k, reference) in reference.iter().enumerate() {
            // Group by group, the way the reference combines.
            let alone = combiner.combine(&case.keys[k], &partials[groups.bounds(k)]);
            match (combiner.take_error(), reference) {
                (None, Ok(expected)) => {
                    let expected = format!("{expected:?}");
                    assert_eq!(format!("{alone:?}"), expected, "group {k}, {}", context());
                    if error.is_none() {
                        let run = &rows[starts[k] as usize..end(k)];
                        assert_eq!(format!("{run:?}"), expected, "group {k}, {}", context());
                    }
                }
                (Some(_), Err(_)) => {}
                (got, expected) => panic!("group {k}: {got:?} vs {expected:?}, {}", context()),
            }
        }
        compared += u64::from(error.is_none() && !rows.is_empty());
        failed += u64::from(error.is_some());
        mixed += u64::from(fails > 0 && fails < groups.len());
    }
    // A sweep that compares nothing, or never fails, is not testing it.
    let share = |n: u64| n * 100 / cases;
    assert!(
        share(compared) >= 50 && share(failed) >= 5 && share(mixed) >= 2,
        "of {cases}: {compared} compared, {failed} failed, {mixed} failed in some groups only, \
         {skipped} failed to map"
    );
}

#[test]
fn combine_run_matches_row_reference() {
    check_equivalence(400);
}

/// The CI soak: `cargo test --release -p ysmart-exec --test
/// combiner_equivalence -- --include-ignored`.
#[test]
#[ignore = "raised case count; run in release"]
fn combine_run_matches_row_reference_soak() {
    check_equivalence(50_000);
}
