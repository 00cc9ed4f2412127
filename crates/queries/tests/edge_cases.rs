//! Edge-case end-to-end tests of the translator: degenerate inputs, NULL
//! keys, skew, deep nesting — every case compared against the oracle under
//! every strategy.

use std::collections::BTreeMap;

use ysmart_core::{Strategy, YSmart};
use ysmart_mapred::{ClusterConfig, DataFormat};
use ysmart_plan::Catalog;
use ysmart_queries::{oracle_execute, rows_approx_equal};
use ysmart_rel::{row, DataType, Row, Schema, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "t",
        Schema::of(
            "t",
            &[
                ("k", DataType::Int),
                ("g", DataType::Int),
                ("v", DataType::Int),
                ("s", DataType::Str),
            ],
        ),
    );
    c.add_table(
        "u",
        Schema::of("u", &[("k", DataType::Int), ("w", DataType::Str)]),
    );
    c
}

fn check(sql: &str, t: Vec<Row>, u: Vec<Row>) {
    check_rows(sql, t, u, None);
}

/// [`check`], and with `want` the oracle's rows must be those literal rows
/// too — the only check a planner bug that oracle and engine share fails.
/// Every strategy runs on both data paths.
fn check_rows(sql: &str, t: Vec<Row>, u: Vec<Row>, want: Option<&[Row]>) {
    let catalog = catalog();
    let mut tables = BTreeMap::new();
    tables.insert("t".to_string(), t.clone());
    tables.insert("u".to_string(), u.clone());
    let plan = {
        let q = ysmart_sql::parse(sql).unwrap();
        ysmart_plan::build_plan(&catalog, &q).unwrap()
    };
    let expected = oracle_execute(&plan, &tables).unwrap().rows;
    if let Some(want) = want {
        assert!(
            rows_approx_equal(&expected, want, false),
            "oracle on `{sql}`: {expected:?}, want {want:?}"
        );
    }
    for (strategy, config) in Strategy::all()
        .into_iter()
        .flat_map(|s| configs().map(|c| (s, c)))
    {
        let format = config.data_format;
        let mut engine = YSmart::new(catalog.clone(), config);
        engine.load_table("t", &t).unwrap();
        engine.load_table("u", &u).unwrap();
        let out = engine
            .execute_sql(sql, strategy)
            .unwrap_or_else(|e| panic!("{strategy}, {format:?} on `{sql}`: {e}"));
        assert!(
            rows_approx_equal(&out.rows, &expected, false),
            "{strategy}, {format:?} on `{sql}`: {} rows vs oracle {}",
            out.rows.len(),
            expected.len()
        );
    }
}

/// The default cluster on each data path.
fn configs() -> [ClusterConfig; 2] {
    [DataFormat::Text, DataFormat::Columnar].map(|data_format| ClusterConfig {
        data_format,
        ..ClusterConfig::default()
    })
}

fn t_rows() -> Vec<Row> {
    vec![
        row![1i64, 0i64, 10i64, "a"],
        row![1i64, 1i64, 20i64, "b"],
        row![2i64, 0i64, 30i64, "c"],
        row![3i64, 1i64, 40i64, "d"],
    ]
}

fn u_rows() -> Vec<Row> {
    vec![row![1i64, "x"], row![2i64, "y"], row![9i64, "z"]]
}

#[test]
fn empty_tables_everywhere() {
    for sql in [
        "SELECT k, v FROM t WHERE v > 0",
        "SELECT g, count(*) FROM t GROUP BY g",
        "SELECT t.k, w FROM t JOIN u ON t.k = u.k",
        "SELECT t.k, w FROM t LEFT OUTER JOIN u ON t.k = u.k",
        "SELECT DISTINCT g FROM t ORDER BY g LIMIT 3",
    ] {
        check(sql, vec![], vec![]);
        check(sql, t_rows(), vec![]);
        check(sql, vec![], u_rows());
    }
}

#[test]
fn single_row_table() {
    check(
        "SELECT g, sum(v), count(distinct s) FROM t GROUP BY g",
        vec![row![1i64, 0i64, 10i64, "a"]],
        vec![],
    );
}

#[test]
fn null_join_keys_do_not_match() {
    // SQL: NULL = NULL is unknown — NULL-keyed rows must join nothing,
    // but LEFT OUTER must still emit them padded.
    let t = vec![
        row![1i64, 0i64, 10i64, "a"],
        Row::new(vec![
            Value::Null,
            Value::Int(0),
            Value::Int(99),
            Value::Str("n".into()),
        ]),
    ];
    let u = vec![
        row![1i64, "x"],
        Row::new(vec![Value::Null, Value::Str("nn".into())]),
    ];
    check(
        "SELECT t.k, v, w FROM t JOIN u ON t.k = u.k",
        t.clone(),
        u.clone(),
    );
    check(
        "SELECT t.k, v, w FROM t LEFT OUTER JOIN u ON t.k = u.k",
        t.clone(),
        u.clone(),
    );
    check(
        "SELECT t.k, v, w FROM t FULL OUTER JOIN u ON t.k = u.k",
        t,
        u,
    );
}

#[test]
fn null_group_keys_group_together() {
    let t = vec![
        Row::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Int(5),
            Value::Str("a".into()),
        ]),
        Row::new(vec![
            Value::Int(2),
            Value::Null,
            Value::Int(7),
            Value::Str("b".into()),
        ]),
        row![3i64, 1i64, 9i64, "c"],
    ];
    check("SELECT g, count(*), sum(v) FROM t GROUP BY g", t, vec![]);
}

#[test]
fn nulls_ignored_by_aggregates() {
    let t = vec![
        Row::new(vec![
            Value::Int(1),
            Value::Int(0),
            Value::Null,
            Value::Str("a".into()),
        ]),
        row![1i64, 0i64, 10i64, "b"],
    ];
    check(
        "SELECT g, count(v), sum(v), avg(v), min(v), max(v) FROM t GROUP BY g",
        t,
        vec![],
    );
}

#[test]
fn heavy_key_skew() {
    // 500 rows on one key, a handful elsewhere: one reducer gets nearly
    // everything; results must be unaffected.
    let mut t = Vec::new();
    for i in 0..500i64 {
        t.push(row![7i64, i % 2, i, "s"]);
    }
    t.push(row![1i64, 0i64, 1i64, "t"]);
    check(
        "SELECT t.k, count(*), sum(v) FROM t, u WHERE t.k = u.k GROUP BY t.k",
        t,
        vec![row![7i64, "x"], row![1i64, "y"]],
    );
}

#[test]
fn three_level_nesting() {
    check(
        "SELECT m, count(*) FROM \
           (SELECT g AS m, total FROM \
             (SELECT g, sum(v) AS total FROM t GROUP BY g) AS inner_t \
            WHERE total > 0) AS mid \
         GROUP BY m",
        t_rows(),
        vec![],
    );
}

#[test]
fn string_keys_join_and_group() {
    check("SELECT s, count(*) FROM t GROUP BY s", t_rows(), vec![]);
    check(
        "SELECT t.s, u.w FROM t JOIN u ON t.k = u.k WHERE u.w <> 'z'",
        t_rows(),
        u_rows(),
    );
}

#[test]
fn having_order_limit_combo() {
    let catalog = catalog();
    let sql = "SELECT g, sum(v) AS total FROM t GROUP BY g \
               HAVING total > 15 ORDER BY total DESC LIMIT 1";
    let mut tables = BTreeMap::new();
    tables.insert("t".to_string(), t_rows());
    tables.insert("u".to_string(), vec![]);
    let plan = {
        let q = ysmart_sql::parse(sql).unwrap();
        ysmart_plan::build_plan(&catalog, &q).unwrap()
    };
    let expected = oracle_execute(&plan, &tables).unwrap().rows;
    for strategy in Strategy::all() {
        let mut engine = YSmart::new(catalog.clone(), ClusterConfig::default());
        engine.load_table("t", &t_rows()).unwrap();
        engine.load_table("u", &[]).unwrap();
        let out = engine.execute_sql(sql, strategy).unwrap();
        assert!(rows_approx_equal(&out.rows, &expected, true), "{strategy}");
    }
}

#[test]
fn constant_projection() {
    check("SELECT 1, k FROM t WHERE v > 15", t_rows(), vec![]);
}

#[test]
fn arithmetic_in_every_clause() {
    check(
        "SELECT g + 1, sum(v * 2) FROM t WHERE v + 5 > 10 GROUP BY g + 1",
        t_rows(),
        vec![],
    );
}

#[test]
fn self_join_three_instances() {
    // Three instances of the same table — two joins on the same key.
    check(
        "SELECT a.k, count(*) FROM t AS a, t AS b, t AS c \
         WHERE a.k = b.k AND b.k = c.k GROUP BY a.k",
        t_rows(),
        vec![],
    );
}

#[test]
fn right_outer_join_matches_oracle() {
    check(
        "SELECT v, w FROM t RIGHT OUTER JOIN u ON t.k = u.k",
        t_rows(),
        u_rows(),
    );
}

/// An outer join's `ON` residual decides which pairs match; a row it
/// rejects is padded, not dropped — as a `WHERE` above the join would drop
/// it.
#[test]
fn outer_join_on_residuals_pad_what_they_reject() {
    let null = Value::Null;
    let (x, y, z) = (Value::from("x"), Value::from("y"), Value::from("z"));
    let r = |k: &Value, v: &Value, w: &Value| Row::new(vec![k.clone(), v.clone(), w.clone()]);
    let (one, two, three) = (Value::Int(1), Value::Int(2), Value::Int(3));
    let left = vec![
        r(&one, &Value::Int(10), &null),
        r(&one, &Value::Int(20), &null),
        r(&two, &Value::Int(30), &y),
        r(&three, &Value::Int(40), &null),
    ];
    let on = "t.k = u.k AND w <> 'x'";
    let sql = |kind: &str, on: &str| format!("SELECT t.k, v, w FROM t {kind} JOIN u ON {on}");
    check_rows(&sql("LEFT OUTER", on), t_rows(), u_rows(), Some(&left));
    let mut full = left;
    full.extend([r(&null, &null, &x), r(&null, &null, &z)]);
    check_rows(&sql("FULL OUTER", on), t_rows(), u_rows(), Some(&full));
    let right = [
        r(&one, &Value::Int(20), &x),
        r(&two, &Value::Int(30), &y),
        r(&null, &null, &z),
    ];
    let on = "t.k = u.k AND v > 15";
    check_rows(&sql("RIGHT OUTER", on), t_rows(), u_rows(), Some(&right));
}

/// `i64::MIN / -1` overflows: the query fails with the typed error of every
/// other `Int` overflow, on either data path, not with a panicked task.
#[test]
fn integer_division_overflow_is_a_typed_error() {
    let t = vec![row![i64::MIN, 0i64, 1i64, "a"]];
    for data_format in [DataFormat::Text, DataFormat::Columnar] {
        let config = ClusterConfig {
            data_format,
            ..ClusterConfig::default()
        };
        for strategy in Strategy::all() {
            let mut engine = YSmart::new(catalog(), config.clone());
            engine.load_table("t", &t).unwrap();
            engine.load_table("u", &[]).unwrap();
            let err = engine
                .execute_sql("SELECT k / -1 FROM t", strategy)
                .expect_err("the division overflows");
            let msg = err.to_string();
            assert!(
                msg.contains("overflow in /") && !msg.contains("panicked"),
                "{strategy}, {data_format:?}: {msg}"
            );
        }
    }
}

/// An aggregate that fails on a row — `7 / v` over a zero, a `sum(v)` past
/// `i64::MAX` — fails the query with a typed error naming the cause and the
/// job, whether the reducer folds the raw rows (`pig`) or a map-side
/// combiner folds them first (every other strategy).
#[test]
fn aggregation_errors_name_their_job_with_or_without_a_combiner() {
    let cases = [
        (
            "SELECT g, count(7 / v) FROM t GROUP BY g",
            vec![row![1i64, 0i64, 3i64, "a"], row![2i64, 0i64, 0i64, "b"]],
            "division by zero",
        ),
        (
            "SELECT g, sum(v) FROM t GROUP BY g",
            vec![row![1i64, 0i64, i64::MAX, "a"], row![2i64, 0i64, 1i64, "b"]],
            "overflow in +",
        ),
    ];
    for (sql, t, cause) in cases {
        for (strategy, config) in Strategy::all()
            .into_iter()
            .flat_map(|s| configs().map(|c| (s, c)))
        {
            let format = config.data_format;
            let mut engine = YSmart::new(catalog(), config);
            engine.load_table("t", &t).unwrap();
            engine.load_table("u", &[]).unwrap();
            let err = engine
                .execute_sql(sql, strategy)
                .expect_err("the aggregate fails");
            let msg = err.to_string();
            assert!(
                msg.contains(cause) && msg.contains("(job J") && !msg.contains("panicked"),
                "{strategy}, {format:?} on `{sql}`: {msg}"
            );
        }
    }
}

/// Float arithmetic past `f64`'s range is a typed overflow error on every
/// strategy and data path — a product that overflows per row, and a `sum`
/// or `avg` of per-row-finite products whose total does — never an `inf` a
/// later job cannot decode, or skips as a malformed record. `t` has no float
/// column, so the floats come from literals.
#[test]
fn float_overflow_is_a_typed_error() {
    let product = |factors: usize| format!("v{}", " * 1000000000.0".repeat(factors));
    let t = vec![row![1i64, 0i64, 100i64, "a"], row![2i64, 0i64, 100i64, "b"]];
    let cases = [
        format!("SELECT k, {} FROM t", product(36)),
        format!(
            "SELECT g, max({}) FROM t GROUP BY g ORDER BY g LIMIT 3",
            product(36)
        ),
        format!("SELECT g, {} - {} FROM t", product(36), product(36)),
        // 100 · 1e306 = 1e308 per row, 2e308 summed.
        format!("SELECT g, sum({}) FROM t GROUP BY g", product(34)),
        format!("SELECT g, avg({}) FROM t GROUP BY g", product(34)),
    ];
    for sql in &cases {
        for (strategy, config) in Strategy::all()
            .into_iter()
            .flat_map(|s| configs().map(|c| (s, c)))
        {
            let format = config.data_format;
            let mut engine = YSmart::new(catalog(), config);
            engine.load_table("t", &t).unwrap();
            engine.load_table("u", &[]).unwrap();
            let err = engine
                .execute_sql(sql, strategy)
                .expect_err("the arithmetic overflows");
            let msg = err.to_string();
            let misread = ["type mismatch", "malformed", "decode", "panicked"];
            assert!(
                msg.contains("overflow") && !misread.iter().any(|m| msg.contains(m)),
                "{strategy}, {format:?} on `{sql}`: {msg}"
            );
        }
    }
}

/// A string holding the text format's field separator is stored intact by
/// the columnar data path, and fails the text path with a typed error that
/// names the value — not with a decode error, or a malformed record, in the
/// job that reads the line back.
#[test]
fn a_string_holding_the_separator() {
    let t = vec![row![1i64, 0i64, 1i64, "a"], row![2i64, 1i64, 2i64, "b"]];
    let cases = [
        "SELECT x.s, count(*) FROM (SELECT k, 'a|b' AS s FROM t) x GROUP BY x.s",
        "SELECT x.s, x.n FROM (SELECT g, 'a|b' AS s, count(*) AS n FROM t GROUP BY g) x \
         ORDER BY x.n",
    ];
    let catalog = catalog();
    let mut tables = BTreeMap::new();
    tables.insert("t".to_string(), t.clone());
    tables.insert("u".to_string(), Vec::new());
    for sql in cases {
        let plan = ysmart_plan::build_plan(&catalog, &ysmart_sql::parse(sql).unwrap()).unwrap();
        let expected = oracle_execute(&plan, &tables).unwrap().rows;
        assert!(expected
            .iter()
            .all(|r| r.values()[0] == Value::Str("a|b".into())));
        for (strategy, config) in Strategy::all()
            .into_iter()
            .flat_map(|s| configs().map(|c| (s, c)))
        {
            let format = config.data_format;
            let mut engine = YSmart::new(catalog.clone(), config);
            engine.load_table("t", &t).unwrap();
            engine.load_table("u", &[]).unwrap();
            let out = engine.execute_sql(sql, strategy);
            match format {
                DataFormat::Columnar => {
                    let rows = out
                        .unwrap_or_else(|e| panic!("{strategy} on `{sql}`: {e}"))
                        .rows;
                    assert!(
                        rows_approx_equal(&rows, &expected, false),
                        "{strategy} on `{sql}`: {rows:?} vs oracle {expected:?}"
                    );
                }
                DataFormat::Text => {
                    let msg = out.expect_err("no text line holds `a|b`").to_string();
                    let misread = ["decode", "malformed", "panicked"];
                    assert!(
                        msg.contains("`a|b` cannot be stored as text")
                            && !misread.iter().any(|m| msg.contains(m)),
                        "{strategy} on `{sql}`: {msg}"
                    );
                }
            }
        }
    }
}

/// `min`/`max` of a string column leave the combiner as `Str` partials and
/// merge by folding them; `count` and `avg` beside them skip the NULL row.
#[test]
fn string_partials_through_the_combiner() {
    let t = vec![
        row![1i64, 0i64, 10i64, "b"],
        row![1i64, 0i64, Value::Null, Value::Null],
        row![2i64, 0i64, 30i64, "a"],
        row![3i64, 1i64, 40i64, "d"],
        row![3i64, 1i64, 41i64, "c"],
    ];
    let want = [
        row![0i64, "a", "b", 2i64, 20.0],
        row![1i64, "c", "d", 2i64, 40.5],
    ];
    let sql = "SELECT g, min(s), max(s), count(s), avg(v) FROM t GROUP BY g";
    check_rows(sql, t, u_rows(), Some(&want));
}

#[test]
fn anti_join_pattern_like_q21() {
    // LEFT OUTER + IS NULL: the Q21 idiom.
    check(
        "SELECT t.k, v FROM t LEFT OUTER JOIN \
           (SELECT k, count(*) AS n FROM u GROUP BY k) AS uu \
         ON t.k = uu.k WHERE uu.n IS NULL",
        t_rows(),
        u_rows(),
    );
}

/// `-0.0 = 0.0` in SQL and under `Value`'s order, so the shuffle must route
/// the two zeros to one reducer and `count(distinct)` must count them once:
/// otherwise GROUP BY splits the zeros into two groups and a self-join loses
/// the pairs between them. Seven reducers, so the two would land apart.
#[test]
fn negative_zero_keys_are_zero() {
    let mut catalog = Catalog::new();
    let schema = Schema::of("z", &[("k", DataType::Int), ("f", DataType::Float)]);
    catalog.add_table("z", schema);
    let mut rows: Vec<Row> = (0..399i64).map(|i| row![i, 1.0 + i as f64 / 2.0]).collect();
    for (i, zero) in [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0]
        .into_iter()
        .enumerate()
    {
        rows.push(row![399 + i as i64, zero]);
    }
    let tables = BTreeMap::from([("z".to_string(), rows.clone())]);
    let config = ClusterConfig {
        reduce_tasks: Some(7),
        data_format: DataFormat::Columnar,
        ..ClusterConfig::default()
    };
    let zero_group = |rows: &[Row]| {
        rows.iter()
            .filter(|r| r.values()[0] == Value::Int(0))
            .map(|r| r.values()[1].clone())
            .collect::<Vec<_>>()
    };
    let check = |sql: &str, expect: &dyn Fn(&[Row])| {
        let plan = ysmart_plan::build_plan(&catalog, &ysmart_sql::parse(sql).unwrap()).unwrap();
        let oracle = oracle_execute(&plan, &tables).unwrap().rows;
        expect(&oracle);
        for strategy in Strategy::all() {
            let mut engine = YSmart::new(catalog.clone(), config.clone());
            engine.load_table("z", &rows).unwrap();
            let out = engine.execute_sql(sql, strategy).unwrap();
            expect(&out.rows);
            assert!(
                rows_approx_equal(&out.rows, &oracle, false),
                "{strategy}: `{sql}`"
            );
        }
    };
    check("SELECT f, count(*) FROM z GROUP BY f", &|rows| {
        assert_eq!(rows.len(), 400);
        assert_eq!(zero_group(rows), [Value::Int(8)]);
    });
    check("SELECT count(distinct f) FROM z WHERE f = 0", &|rows| {
        assert_eq!(rows, [row![1i64]]);
    });
    check(
        "SELECT a.k, b.k FROM z AS a, z AS b WHERE a.f = b.f",
        &|rows| {
            assert_eq!(rows.len(), 399 + 8 * 8);
        },
    );
}

#[test]
fn translation_is_deterministic() {
    let catalog = catalog();
    let sql = "SELECT t.k, count(*) FROM t, u WHERE t.k = u.k GROUP BY t.k";
    let explain = |i: usize| {
        let mut engine = YSmart::new(catalog.clone(), ClusterConfig::default());
        let _ = i;
        engine.translate(sql, Strategy::YSmart).unwrap().explain()
    };
    // `explain` embeds the query tag, which includes a per-engine counter;
    // fresh engines must agree exactly.
    assert_eq!(explain(0), explain(1));
}

#[test]
fn between_and_in_end_to_end() {
    check(
        "SELECT k, v FROM t WHERE v BETWEEN 15 AND 35",
        t_rows(),
        vec![],
    );
    check(
        "SELECT g, count(*) FROM t WHERE k IN (1, 3) GROUP BY g",
        t_rows(),
        vec![],
    );
    check(
        "SELECT k FROM t WHERE v NOT BETWEEN 15 AND 35 AND s NOT IN ('a', 'd')",
        t_rows(),
        vec![],
    );
}

#[test]
fn explain_describes_the_pipeline() {
    let mut engine = YSmart::new(catalog(), ClusterConfig::default());
    engine.load_table("t", &t_rows()).unwrap();
    engine.load_table("u", &u_rows()).unwrap();
    let sql = "SELECT t1.k, count(*) FROM t AS t1, t AS t2 \
               WHERE t1.k = t2.k GROUP BY t1.k";
    let translation = engine.translate(sql, Strategy::YSmart).unwrap();
    let explain = translation.explain();
    assert!(explain.contains("Job 1/1"), "{explain}");
    assert!(explain.contains("data/t"), "{explain}");
    assert!(explain.contains("post-job computation"), "{explain}");
    assert!(explain.contains("emit"), "{explain}");
}
