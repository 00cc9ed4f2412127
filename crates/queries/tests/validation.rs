//! The central correctness gate: every workload query, translated under
//! every strategy, must produce exactly the oracle's result set on the
//! simulated cluster. A figure can only report times for runs that pass
//! this gate.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ysmart_core::{build_drafts, compile, Strategy, YSmart};
use ysmart_datagen::{ClicksSpec, TpchSpec};
use ysmart_exec::CommonMapper;
use ysmart_mapred::{ClusterConfig, DataFormat, MapOutput, Mapper};
use ysmart_plan::{analyze, build_plan, prune};
use ysmart_queries::{
    clicks_workloads, oracle_execute, rows_approx_equal, tpch_workloads, Workload,
};
use ysmart_rel::Row;
use ysmart_rel::{ColumnBatch, Expr, Value};

fn check_workload(w: &Workload) {
    let tables: BTreeMap<String, Vec<Row>> = w
        .tables
        .iter()
        .map(|(n, r)| ((*n).to_string(), r.clone()))
        .collect();
    let plan = {
        let q = ysmart_sql::parse(&w.sql).unwrap();
        ysmart_plan::build_plan(&w.catalog, &q).unwrap()
    };
    let expected = oracle_execute(&plan, &tables).unwrap().rows;

    for strategy in Strategy::all() {
        let mut engine = YSmart::new(w.catalog.clone(), ClusterConfig::default());
        w.load_into(&mut engine).unwrap();
        let out = engine
            .execute_sql(&w.sql, strategy)
            .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", w.name));
        assert!(
            rows_approx_equal(&out.rows, &expected, w.ordered),
            "{} under {strategy}: results differ ({} vs {} rows)",
            w.name,
            out.rows.len(),
            expected.len()
        );
    }
}

#[test]
fn tpch_queries_match_oracle_under_all_strategies() {
    for w in tpch_workloads(&TpchSpec {
        scale: 0.15,
        seed: 11,
    }) {
        check_workload(&w);
    }
}

#[test]
fn clicks_queries_match_oracle_under_all_strategies() {
    for w in clicks_workloads(&ClicksSpec {
        users: 25,
        clicks_per_user: 30,
        seed: 5,
        ..ClicksSpec::default()
    }) {
        check_workload(&w);
    }
}

#[test]
fn multiple_seeds_and_scales() {
    for seed in [1, 2, 3] {
        for w in tpch_workloads(&TpchSpec { scale: 0.08, seed }) {
            check_workload(&w);
        }
    }
}

/// Metamorphic: no answer reads the order of a key group's values. The
/// shuffle hands each key's values over in input order, so permuting every
/// base table's rows (a seeded Fisher–Yates shuffle) permutes each group's
/// arrival order; every workload, under every strategy and both data
/// formats, must still answer what the oracle does and what the unpermuted
/// run does.
#[test]
fn answers_do_not_depend_on_input_row_order() {
    use rand::{Rng, SeedableRng};
    let mut workloads = tpch_workloads(&TpchSpec {
        scale: 0.08,
        seed: 11,
    });
    workloads.extend(clicks_workloads(&ClicksSpec {
        users: 25,
        clicks_per_user: 30,
        seed: 5,
        ..ClicksSpec::default()
    }));
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    for w in &workloads {
        let plan = {
            let q = ysmart_sql::parse(&w.sql).unwrap();
            ysmart_plan::build_plan(&w.catalog, &q).unwrap()
        };
        let tables = w.tables.iter().map(|(n, r)| ((*n).to_string(), r.clone()));
        let expected = oracle_execute(&plan, &tables.collect()).unwrap().rows;
        let mut permuted = w.clone();
        for (_, rows) in &mut permuted.tables {
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.gen_range(0..=i));
            }
        }
        for strategy in Strategy::all() {
            for data_format in [DataFormat::Text, DataFormat::Columnar] {
                let run = |w: &Workload| {
                    let config = ClusterConfig {
                        data_format,
                        ..ClusterConfig::default()
                    };
                    let mut engine = YSmart::new(w.catalog.clone(), config);
                    w.load_into(&mut engine).unwrap();
                    let out = engine.execute_sql(&w.sql, strategy);
                    out.unwrap_or_else(|e| panic!("{} under {strategy}: {e}", w.name))
                        .rows
                };
                let (plain, shuffled) = (run(w), run(&permuted));
                let what = format!("{} under {strategy}, {data_format:?}", w.name);
                assert!(
                    rows_approx_equal(&shuffled, &expected, w.ordered),
                    "{what}: the permuted input's answer differs from the oracle's"
                );
                assert!(
                    rows_approx_equal(&shuffled, &plain, w.ordered),
                    "{what}: the permuted input's answer differs from the unpermuted run's"
                );
            }
        }
    }
}

/// The paper's headline job counts (§VII-A), asserted end-to-end.
/// `plan::prune` changes what rows carry and nothing else. Over every
/// canned query the pruned plan has the unpruned plan's correlation report
/// and root schema, and under every strategy the same job drafts; compiling
/// the pruned plan gives the very blueprints compiling the unpruned one does
/// (the pass is idempotent); and most base-table inputs carry fewer columns
/// than their table has. That the answers stay the oracle's over the
/// unpruned plan is the other tests here and `edge_cases`.
#[test]
fn pruning_moves_no_job_reducer_or_correlation() {
    let mut workloads = tpch_workloads(&TpchSpec {
        scale: 0.01,
        seed: 1,
    });
    workloads.extend(clicks_workloads(&ClicksSpec::default()));
    let (mut inputs, mut narrowed) = (0, 0);
    for w in &workloads {
        let plan = build_plan(&w.catalog, &ysmart_sql::parse(&w.sql).unwrap()).unwrap();
        let pruned = prune(&plan);
        let (report, pruned_report) = (analyze(&plan), analyze(&pruned));
        let name = w.name;
        assert_eq!(
            format!("{pruned_report:?}"),
            format!("{report:?}"),
            "{name}"
        );
        assert_eq!(
            pruned.node(pruned.root()).schema,
            plan.node(plan.root()).schema,
            "{name}"
        );
        for strategy in Strategy::all() {
            let opts = strategy.options();
            assert_eq!(
                build_drafts(&pruned, &pruned_report, &opts),
                build_drafts(&plan, &report, &opts),
                "{name} under {strategy}"
            );
            let t = compile(&plan, &report, &opts, "q").unwrap();
            let again = compile(&pruned, &pruned_report, &opts, "q").unwrap();
            assert_eq!(again.blueprints, t.blueprints, "{name} under {strategy}");
            for input in t.blueprints.iter().flat_map(|bp| &bp.inputs) {
                if input.path.starts_with("data/") {
                    inputs += 1;
                    narrowed += usize::from(input.value_cols.len() < input.schema.len());
                }
            }
        }
    }
    assert!(
        narrowed * 2 > inputs,
        "{narrowed} of {inputs} base-table inputs narrowed"
    );
}

#[test]
fn job_counts_match_paper() {
    let tpch = tpch_workloads(&TpchSpec {
        scale: 0.05,
        seed: 2,
    });
    let clicks = clicks_workloads(&ClicksSpec {
        users: 8,
        clicks_per_user: 12,
        seed: 2,
        ..ClicksSpec::default()
    });
    let find =
        |ws: &[Workload], n: &str| -> Workload { ws.iter().find(|w| w.name == n).unwrap().clone() };

    // Q17: Hive four jobs, YSmart two (§VII-D: "For Q17 by Hive, there are
    // four jobs").
    let q17 = find(&tpch, "q17");
    let counts = job_counts(&q17);
    assert_eq!(counts[&Strategy::Hive], 4);
    assert_eq!(counts[&Strategy::YSmart], 2);

    // Q-CSA: Hive six jobs, YSmart two (§VII-D: "YSmart executes two jobs,
    // while Hive executes six jobs").
    let q_csa = find(&clicks, "q-csa");
    let counts = job_counts(&q_csa);
    assert_eq!(counts[&Strategy::Hive], 6);
    assert_eq!(counts[&Strategy::YSmart], 2);

    // Q21 subtree: five operations one-op-one-job vs a single YSmart job
    // (§VII-C).
    let sub = find(&tpch, "q21-subtree");
    let counts = job_counts(&sub);
    assert_eq!(counts[&Strategy::Hive], 5);
    assert_eq!(counts[&Strategy::YSmart], 1);
    // IC/TC only: three jobs (Fig. 9 middle configuration).
    assert_eq!(counts[&Strategy::YSmartNoJfc], 3);
}

fn job_counts(w: &Workload) -> BTreeMap<Strategy, usize> {
    let mut out = BTreeMap::new();
    for strategy in Strategy::all() {
        let mut engine = YSmart::new(w.catalog.clone(), ClusterConfig::default());
        w.load_into(&mut engine).unwrap();
        let t = engine.translate(&w.sql, strategy).unwrap();
        out.insert(strategy, t.job_count());
    }
    out
}

/// Everything observable about one mapper run.
fn observed(mut out: MapOutput) -> (Vec<Row>, Vec<Row>, u64, Vec<u64>, u64, Option<String>) {
    let (work, bad) = (out.work(), out.bad_records());
    let (dispatches, fatal) = (out.take_dispatches(), out.take_fatal());
    let (keys, values) = out.into_columns();
    (keys, values, work, dispatches, bad, fatal)
}

/// The common mapper has one body behind two entry points. For every job
/// input of the 7 paper queries x 5 strategies, the input file as the text
/// engine stores it (lines through `map`) and as the columnar engine stores
/// it (decoded frames through `map_batch`) must emit identical keys, values,
/// work, dispatch counts and bad-record counts. The sweep must reach every
/// mapper shape, so the table is not vacuously green.
#[test]
fn map_and_map_batch_agree_on_every_blueprint() {
    let mut workloads = tpch_workloads(&TpchSpec {
        scale: 0.05,
        seed: 3,
    });
    workloads.extend(clicks_workloads(&ClicksSpec {
        users: 12,
        clicks_per_user: 15,
        seed: 3,
        ..ClicksSpec::default()
    }));
    assert_eq!(workloads.len(), 7);
    // The paper queries reach the direct, tagged and padded shapes only;
    // these add the rest: map-only jobs (moved and computed projections,
    // a predicate with no vectorized kernel), an expression key, a tagged
    // multi-output file uniform enough to be stored as frames, and NULLs.
    let clicks = workloads[6].clone();
    for (name, sql) in [
        ("sp", "SELECT uid, ts FROM clicks WHERE cid = 0"),
        (
            "sp-expr",
            "SELECT uid, ts + 1 FROM clicks WHERE uid + cid > 3",
        ),
        (
            "key-expr",
            "SELECT uid + cid, count(*) FROM clicks GROUP BY uid + cid",
        ),
        (
            "tag-uniform",
            "SELECT a.uid, a.n, b.m FROM \
             (SELECT uid, count(*) AS n FROM clicks WHERE cid = 1 GROUP BY uid) AS a, \
             (SELECT uid, count(*) AS m FROM clicks WHERE cid = 2 GROUP BY uid) AS b \
             WHERE a.uid = b.uid",
        ),
        (
            "nulls",
            "SELECT c.uid, x.n FROM clicks AS c LEFT OUTER JOIN \
             (SELECT uid, count(*) AS n FROM clicks WHERE cid = 1 AND uid < 5 GROUP BY uid) AS x \
             ON c.uid = x.uid ORDER BY c.uid LIMIT 40",
        ),
    ] {
        workloads.push(Workload {
            name,
            sql: sql.to_string(),
            ..clicks.clone()
        });
    }
    let mut shapes = BTreeSet::new();
    let mut compared = 0;
    for w in &workloads {
        for strategy in Strategy::all() {
            let run = |data_format| {
                let config = ClusterConfig {
                    data_format,
                    ..ClusterConfig::default()
                };
                let mut engine = YSmart::new(w.catalog.clone(), config);
                w.load_into(&mut engine).unwrap();
                let t = engine.translate_tagged(&w.sql, strategy, "diff").unwrap();
                engine.execute_translation(&t).unwrap();
                (engine, t)
            };
            let (text, translation) = run(DataFormat::Text);
            let (columnar, _) = run(DataFormat::Columnar);
            for bp in &translation.blueprints {
                let bp = Arc::new(bp.clone());
                for (idx, input) in bp.inputs.iter().enumerate() {
                    let lines = &text.cluster.hdfs.get(&input.path).unwrap().lines;
                    let frames = &columnar.cluster.hdfs.get(&input.path).unwrap().frames;
                    if frames.is_empty() {
                        // Empty, or a width-mixed tagged file the frame
                        // codec left as text: nothing columnar to compare.
                        continue;
                    }
                    let mut by_line = MapOutput::default();
                    let mut mapper = CommonMapper::new(Arc::clone(&bp), idx);
                    lines.iter().for_each(|l| mapper.map(l, &mut by_line));
                    let mut by_batch = MapOutput::default();
                    let mut mapper = CommonMapper::new(Arc::clone(&bp), idx);
                    for frame in frames {
                        let batch = ColumnBatch::decode_frame(frame).unwrap();
                        mapper.map_batch(&batch, &mut by_batch);
                    }
                    let (by_line, by_batch) = (observed(by_line), observed(by_batch));
                    assert_eq!(
                        by_line, by_batch,
                        "{} under {strategy}: job {} input {idx} ({})",
                        w.name, bp.name, input.path
                    );
                    compared += 1;
                    let plain = |es: &[Expr]| es.iter().all(|e| matches!(e, Expr::Column(_)));
                    shapes.extend(
                        [
                            (bp.map_only, "map-only"),
                            (bp.tagged(), "tagged"),
                            (!bp.tagged() && !bp.map_only, "direct"),
                            (bp.pad_bytes > 0, "padded"),
                            (input.tag_filter.is_some(), "tag-filtered"),
                            (!plain(&input.key_exprs), "key expression"),
                            (
                                !bp.tagged() && !plain(&bp.streams[0].projection),
                                "projection expression",
                            ),
                            (
                                by_line.1.iter().any(|v| v.values().contains(&Value::Null)),
                                "null value",
                            ),
                        ]
                        .into_iter()
                        .filter_map(|(reached, shape)| reached.then_some(shape)),
                    );
                }
            }
        }
    }
    assert!(compared >= 7 * 5, "only {compared} inputs compared");
    for shape in [
        "map-only",
        "tagged",
        "direct",
        "padded",
        "tag-filtered",
        "key expression",
        "projection expression",
        "null value",
    ] {
        assert!(shapes.contains(shape), "no blueprint with a {shape} mapper");
    }
}
