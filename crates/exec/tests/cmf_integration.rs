//! Integration tests of the Common MapReduce Framework on the simulated
//! cluster: hand-built blueprints executed end-to-end, checking that the
//! CMF's sharing machinery (tagged pairs, shared scans, tagged multi-output
//! files, post-job computations) never changes results relative to
//! dedicated jobs.

use ysmart_exec::{
    EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, RSource, RowOp, StreamSpec,
};
use ysmart_mapred::{run_job, Cluster, ClusterConfig};
use ysmart_plan::JoinKind;
use ysmart_rel::{AggFunc, BinOp, DataType, Expr, Schema, SortKey};

fn schema() -> Schema {
    Schema::of(
        "t",
        &[
            ("k", DataType::Int),
            ("a", DataType::Int),
            ("b", DataType::Int),
        ],
    )
}

fn cluster_with_data(rows: usize) -> Cluster {
    let mut c = Cluster::new(ClusterConfig::default());
    let lines: Vec<String> = (0..rows)
        .map(|i| format!("{}|{}|{}", i % 7, i % 3, i))
        .collect();
    c.load_table("t", lines);
    c
}

fn base_input(branches: Vec<MapBranch>) -> InputSpec {
    InputSpec {
        path: "data/t".into(),
        schema: schema(),
        key_exprs: vec![Expr::col(0)],
        value_cols: vec![0, 1, 2],
        branches,
        tag_filter: None,
    }
}

fn identity_stream() -> StreamSpec {
    StreamSpec {
        projection: vec![Expr::col(0), Expr::col(1), Expr::col(2)],
    }
}

fn sorted_lines(c: &Cluster, path: &str) -> Vec<String> {
    let mut l = c.hdfs.get(path).unwrap().lines.clone();
    l.sort();
    l
}

/// A shared scan with two selections produces exactly what two dedicated
/// scans produce.
#[test]
fn shared_scan_equals_dedicated_scans() {
    let pred_a = Some(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(0i64)));
    let pred_b = Some(Expr::binary(BinOp::Gt, Expr::col(2), Expr::lit(50i64)));

    // Merged: one input, two branches, tagged emit of both passes.
    let merged = JobBlueprint {
        name: "merged".into(),
        inputs: vec![base_input(vec![
            MapBranch {
                stream: 0,
                predicate: pred_a.clone(),
            },
            MapBranch {
                stream: 1,
                predicate: pred_b.clone(),
            },
        ])],
        streams: vec![identity_stream(), identity_stream()],
        ops: vec![
            ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            },
            ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(1)],
                transforms: vec![],
            },
        ],
        emit: EmitSpec::Tagged(vec![RSource::Op(0), RSource::Op(1)]),
        output: "out/merged".into(),
        reduce_tasks: Some(3),
        map_only: false,
        short_circuit_streams: vec![],
        pad_bytes: 0,
        key_cardinality: None,
    };
    let mut c1 = cluster_with_data(200);
    let m = run_job(&mut c1, &merged.to_jobspec().unwrap()).unwrap();

    // Dedicated: two jobs, one per selection.
    let dedicated = |name: &str, pred: Option<Expr>, out: &str| JobBlueprint {
        name: name.into(),
        inputs: vec![base_input(vec![MapBranch {
            stream: 0,
            predicate: pred,
        }])],
        streams: vec![identity_stream()],
        ops: vec![ROp {
            kind: OpKind::Pass,
            inputs: vec![RSource::Stream(0)],
            transforms: vec![],
        }],
        emit: EmitSpec::Single(RSource::Op(0)),
        output: out.into(),
        reduce_tasks: Some(3),
        map_only: false,
        short_circuit_streams: vec![],
        pad_bytes: 0,
        key_cardinality: None,
    };
    let mut c2 = cluster_with_data(200);
    let ja = run_job(
        &mut c2,
        &dedicated("a", pred_a, "out/a").to_jobspec().unwrap(),
    )
    .unwrap();
    let jb = run_job(
        &mut c2,
        &dedicated("b", pred_b, "out/b").to_jobspec().unwrap(),
    )
    .unwrap();

    // Same rows (tagged lines 0|… and 1|… match the dedicated outputs).
    let merged_a: Vec<String> = sorted_lines(&c1, "out/merged")
        .iter()
        .filter_map(|l| l.strip_prefix("0|").map(str::to_string))
        .collect();
    let merged_b: Vec<String> = sorted_lines(&c1, "out/merged")
        .iter()
        .filter_map(|l| l.strip_prefix("1|").map(str::to_string))
        .collect();
    assert_eq!(merged_a, sorted_lines(&c2, "out/a"));
    assert_eq!(merged_b, sorted_lines(&c2, "out/b"));

    // And the merged job read the table once, not twice.
    assert_eq!(m.hdfs_read_bytes, ja.hdfs_read_bytes);
    assert_eq!(ja.hdfs_read_bytes, jb.hdfs_read_bytes);
}

/// A tag-filtered consumer reads exactly its slice of a multi-output file.
#[test]
fn tag_filter_consumes_one_source() {
    let mut c = Cluster::new(ClusterConfig::default());
    c.hdfs.put(
        "tmp/multi",
        vec![
            "0|1|10|100".into(),
            "1|2|20|200".into(),
            "0|3|30|300".into(),
        ],
    );
    let consumer = JobBlueprint {
        name: "consume".into(),
        inputs: vec![InputSpec {
            path: "tmp/multi".into(),
            schema: schema(),
            key_exprs: vec![Expr::col(0)],
            value_cols: vec![0, 1, 2],
            branches: vec![MapBranch {
                stream: 0,
                predicate: None,
            }],
            tag_filter: Some(0),
        }],
        streams: vec![identity_stream()],
        ops: vec![ROp {
            kind: OpKind::Pass,
            inputs: vec![RSource::Stream(0)],
            transforms: vec![],
        }],
        emit: EmitSpec::Single(RSource::Op(0)),
        output: "out/c".into(),
        reduce_tasks: Some(1),
        map_only: false,
        short_circuit_streams: vec![],
        pad_bytes: 0,
        key_cardinality: None,
    };
    run_job(&mut c, &consumer.to_jobspec().unwrap()).unwrap();
    assert_eq!(sorted_lines(&c, "out/c"), vec!["1|10|100", "3|30|300"]);
}

/// Post-job computation (join feeding an aggregation in the same reduce
/// call) equals running the two ops as two jobs.
#[test]
fn post_job_computation_equals_two_jobs() {
    // One job: self-join on k (a=0 side vs a=1 side), then count per key.
    let merged = JobBlueprint {
        name: "join+agg".into(),
        inputs: vec![base_input(vec![
            MapBranch {
                stream: 0,
                predicate: Some(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(0i64))),
            },
            MapBranch {
                stream: 1,
                predicate: Some(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(1i64))),
            },
        ])],
        streams: vec![identity_stream(), identity_stream()],
        ops: vec![
            ROp {
                kind: OpKind::Join {
                    kind: JoinKind::Inner,
                    residual: None,
                    left_width: 3,
                    right_width: 3,
                },
                inputs: vec![RSource::Stream(0), RSource::Stream(1)],
                transforms: vec![],
            },
            ROp {
                kind: OpKind::Agg {
                    group_cols: vec![0],
                    aggs: vec![(AggFunc::Count, None)],
                    having: None,
                    merge_partials: false,
                },
                inputs: vec![RSource::Op(0)],
                transforms: vec![],
            },
        ],
        emit: EmitSpec::Single(RSource::Op(1)),
        output: "out/one".into(),
        reduce_tasks: Some(2),
        map_only: false,
        short_circuit_streams: vec![],
        pad_bytes: 0,
        key_cardinality: None,
    };
    let mut c1 = cluster_with_data(120);
    run_job(&mut c1, &merged.to_jobspec().unwrap()).unwrap();

    // Two jobs: join writes its output; a second job aggregates it.
    let join_only = JobBlueprint {
        emit: EmitSpec::Single(RSource::Op(0)),
        ops: vec![merged.ops[0].clone()],
        output: "tmp/join".into(),
        name: "join".into(),
        ..merged.clone()
    };
    let join_out_schema = {
        // join output: t ⨯ t = 6 int columns
        Schema::of(
            "j",
            &[
                ("k", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("k2", DataType::Int),
                ("a2", DataType::Int),
                ("b2", DataType::Int),
            ],
        )
    };
    let agg_only = JobBlueprint {
        name: "agg".into(),
        inputs: vec![InputSpec {
            path: "tmp/join".into(),
            schema: join_out_schema,
            key_exprs: vec![Expr::col(0)],
            value_cols: vec![0],
            branches: vec![MapBranch {
                stream: 0,
                predicate: None,
            }],
            tag_filter: None,
        }],
        streams: vec![StreamSpec {
            projection: vec![Expr::col(0)],
        }],
        ops: vec![ROp {
            kind: OpKind::Agg {
                group_cols: vec![0],
                aggs: vec![(AggFunc::Count, None)],
                having: None,
                merge_partials: false,
            },
            inputs: vec![RSource::Stream(0)],
            transforms: vec![],
        }],
        emit: EmitSpec::Single(RSource::Op(0)),
        output: "out/two".into(),
        reduce_tasks: Some(2),
        map_only: false,
        short_circuit_streams: vec![],
        pad_bytes: 0,
        key_cardinality: None,
    };
    let mut c2 = cluster_with_data(120);
    run_job(&mut c2, &join_only.to_jobspec().unwrap()).unwrap();
    run_job(&mut c2, &agg_only.to_jobspec().unwrap()).unwrap();

    assert_eq!(sorted_lines(&c1, "out/one"), sorted_lines(&c2, "out/two"));
}

/// Short-circuiting changes work, never output, when the stream is
/// required by an inner join.
#[test]
fn short_circuit_output_invariant() {
    let mk = |short: Vec<usize>, out: &str| JobBlueprint {
        name: "sc".into(),
        inputs: vec![base_input(vec![
            MapBranch {
                stream: 0,
                predicate: Some(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(0i64))),
            },
            MapBranch {
                stream: 1,
                predicate: Some(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(2i64))),
            },
        ])],
        streams: vec![identity_stream(), identity_stream()],
        ops: vec![ROp {
            kind: OpKind::Join {
                kind: JoinKind::Inner,
                residual: None,
                left_width: 3,
                right_width: 3,
            },
            inputs: vec![RSource::Stream(0), RSource::Stream(1)],
            transforms: vec![],
        }],
        emit: EmitSpec::Single(RSource::Op(0)),
        output: out.into(),
        reduce_tasks: Some(2),
        map_only: false,
        short_circuit_streams: short,
        pad_bytes: 0,
        key_cardinality: None,
    };
    let mut c1 = cluster_with_data(140);
    let plain = run_job(&mut c1, &mk(vec![], "out/plain").to_jobspec().unwrap()).unwrap();
    let mut c2 = cluster_with_data(140);
    let fast = run_job(&mut c2, &mk(vec![0, 1], "out/fast").to_jobspec().unwrap()).unwrap();
    assert_eq!(
        sorted_lines(&c1, "out/plain"),
        sorted_lines(&c2, "out/fast")
    );
    // The tag pre-pass costs a little on keys that do not skip, so allow a
    // small tolerance; net it must not be materially slower.
    assert!(fast.reduce_time_s <= plain.reduce_time_s * 1.05);
}

/// Combiner with a PK-subset group (group wider than the shuffle key)
/// produces the same result as the raw path.
#[test]
fn combiner_with_wider_group_than_key() {
    // Group by (k, a), partition by k only; sum(b).
    let mk = |combine: bool, out: &str| {
        // Merging partials is what installs the combiner.
        let reduce_op = ROp {
            kind: OpKind::Agg {
                group_cols: vec![0, 1],
                aggs: vec![(AggFunc::Sum, Some(Expr::col(2)))],
                having: None,
                merge_partials: combine,
            },
            inputs: vec![RSource::Stream(0)],
            transforms: vec![],
        };
        JobBlueprint {
            name: "agg".into(),
            inputs: vec![base_input(vec![MapBranch {
                stream: 0,
                predicate: None,
            }])],
            streams: vec![identity_stream()],
            ops: vec![reduce_op],
            emit: EmitSpec::Single(RSource::Op(0)),
            output: out.into(),
            reduce_tasks: Some(3),
            map_only: false,
            short_circuit_streams: vec![],
            pad_bytes: 0,
            key_cardinality: None,
        }
    };
    let mut c1 = cluster_with_data(150);
    run_job(&mut c1, &mk(false, "out/raw").to_jobspec().unwrap()).unwrap();
    let mut c2 = cluster_with_data(150);
    run_job(&mut c2, &mk(true, "out/comb").to_jobspec().unwrap()).unwrap();
    assert_eq!(sorted_lines(&c1, "out/raw"), sorted_lines(&c2, "out/comb"));
}

/// Sort + limit transforms on a single-reducer pass job give a global
/// top-N.
#[test]
fn sort_limit_job() {
    let bp = JobBlueprint {
        name: "top".into(),
        inputs: vec![InputSpec {
            key_exprs: vec![], // single group: global sort
            ..base_input(vec![MapBranch {
                stream: 0,
                predicate: None,
            }])
        }],
        streams: vec![identity_stream()],
        ops: vec![ROp {
            kind: OpKind::Pass,
            inputs: vec![RSource::Stream(0)],
            transforms: vec![RowOp::Sort(vec![SortKey::desc(2)]), RowOp::Limit(3)],
        }],
        emit: EmitSpec::Single(RSource::Op(0)),
        output: "out/top".into(),
        reduce_tasks: Some(1),
        map_only: false,
        short_circuit_streams: vec![],
        pad_bytes: 0,
        key_cardinality: None,
    };
    let mut c = cluster_with_data(50);
    run_job(&mut c, &bp.to_jobspec().unwrap()).unwrap();
    let lines = c.hdfs.get("out/top").unwrap().lines.clone();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].ends_with("|49"));
    assert!(lines[1].ends_with("|48"));
}
