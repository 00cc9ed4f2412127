//! Property-based tests of the MapReduce engine's invariants: determinism,
//! partitioning correctness, and result-preservation under every cost-model
//! configuration.

use proptest::prelude::*;
use ysmart_mapred::hash::partition;
use ysmart_mapred::{
    run_chain, run_job, Cluster, ClusterConfig, Combiner, Compression, FailureModel, JobChain,
    JobSpec, MapOutput, Mapper, NodeFailureModel, ReduceOutput, Reducer, RetryPolicy,
};
use ysmart_rel::{row, Row};

struct KvMapper;
impl Mapper for KvMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        let (k, v) = line.split_once('|').unwrap();
        out.emit(
            row![k.parse::<i64>().unwrap()],
            row![v.parse::<i64>().unwrap()],
        );
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        let s: i64 = values
            .iter()
            .map(|v| v.get(0).unwrap().as_int().unwrap())
            .sum();
        out.emit_row(row![key.get(0).unwrap().clone(), s]);
    }
}

struct SumCombiner;
impl Combiner for SumCombiner {
    fn combine(&mut self, _key: &Row, values: &[Row]) -> Vec<Row> {
        let s: i64 = values
            .iter()
            .map(|v| v.get(0).unwrap().as_int().unwrap())
            .sum();
        vec![row![s]]
    }
}

fn sum_job(reducers: usize, combiner: bool) -> JobSpec {
    let mut b = JobSpec::builder("sum")
        .input("data/t", || Box::new(KvMapper))
        .reducer(|| Box::new(SumReducer))
        .output("out/sum")
        .reduce_tasks(reducers);
    if combiner {
        b = b.combiner(|| Box::new(SumCombiner));
    }
    b.build()
}

fn run_sum(
    pairs: &[(i64, i64)],
    config: ClusterConfig,
    reducers: usize,
    comb: bool,
) -> Vec<String> {
    let mut c = Cluster::new(config);
    c.load_table("t", pairs.iter().map(|(k, v)| format!("{k}|{v}")).collect());
    run_job(&mut c, &sum_job(reducers, comb)).unwrap();
    let mut lines = c.hdfs.get("out/sum").unwrap().lines.clone();
    lines.sort();
    lines
}

/// As [`run_sum`] but through the chain runner, so injected faults that
/// kill whole job attempts are recovered by the retry policy.
fn run_sum_chain(pairs: &[(i64, i64)], config: ClusterConfig) -> Vec<String> {
    let mut c = Cluster::new(config);
    c.load_table("t", pairs.iter().map(|(k, v)| format!("{k}|{v}")).collect());
    let mut chain = JobChain::new();
    chain.push(sum_job(3, true));
    run_chain(&mut c, &chain).unwrap();
    let mut lines = c.hdfs.get("out/sum").unwrap().lines.clone();
    lines.sort();
    lines
}

fn expected_sums(pairs: &[(i64, i64)]) -> Vec<String> {
    let mut m = std::collections::BTreeMap::new();
    for (k, v) in pairs {
        *m.entry(*k).or_insert(0i64) += v;
    }
    let mut lines: Vec<String> = m.into_iter().map(|(k, s)| format!("{k}|{s}")).collect();
    lines.sort();
    lines
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Equal keys always land on the same reducer, and the reducer index is
    /// in range for any reducer count.
    #[test]
    fn partition_consistent_and_bounded(k in any::<i64>(), n in 1usize..64) {
        let a = partition(&row![k], n);
        let b = partition(&row![k], n);
        prop_assert_eq!(a, b);
        prop_assert!(a < n);
    }

    /// The sum job computes exact per-key sums for any input, any reducer
    /// count, with or without a combiner.
    #[test]
    fn sum_job_correct_for_any_input(
        pairs in prop::collection::vec((-20i64..20, -100i64..100), 1..200),
        reducers in 1usize..9,
        comb in any::<bool>(),
    ) {
        let got = run_sum(&pairs, ClusterConfig::default(), reducers, comb);
        prop_assert_eq!(got, expected_sums(&pairs));
    }

    /// Cost-model knobs never affect results: compression, task failures,
    /// node deaths, block size, multipliers. Faults run through the chain
    /// runner so attempts killed outright are retried with fresh draws.
    #[test]
    fn cost_model_never_changes_results(
        pairs in prop::collection::vec((-10i64..10, -50i64..50), 1..100),
        block_kb in 1u32..64,
        mult in 1.0f64..1e6,
        failures in any::<bool>(),
        node_failures in any::<bool>(),
        compress in any::<bool>(),
    ) {
        let base = run_sum(&pairs, ClusterConfig::default(), 3, true);
        let cfg = ClusterConfig {
            hdfs_block_mb: f64::from(block_kb) / 1024.0,
            size_multiplier: mult,
            compression: compress.then(Compression::default),
            failures: failures.then_some(FailureModel { probability: 0.3, seed: 11 }),
            node_failures: node_failures
                .then_some(NodeFailureModel { probability: 0.3, seed: 13 }),
            retry: Some(RetryPolicy {
                max_retries: 16,
                backoff_base_s: 1.0,
                backoff_factor: 2.0,
                ..RetryPolicy::default()
            }),
            ..ClusterConfig::default()
        };
        let got = run_sum_chain(&pairs, cfg);
        prop_assert_eq!(got, base);
    }

    /// Simulated time is monotone in data volume.
    #[test]
    fn time_monotone_in_multiplier(
        pairs in prop::collection::vec((0i64..10, 0i64..50), 10..100),
        mult in 2.0f64..1e5,
    ) {
        let time = |m: f64| {
            let mut c = Cluster::new(ClusterConfig {
                size_multiplier: m,
                ..ClusterConfig::default()
            });
            c.load_table("t", pairs.iter().map(|(k, v)| format!("{k}|{v}")).collect());
            run_job(&mut c, &sum_job(2, false)).unwrap().total_s()
        };
        prop_assert!(time(mult) >= time(1.0));
    }

    /// A combiner never increases shuffle volume.
    #[test]
    fn combiner_never_increases_shuffle(
        pairs in prop::collection::vec((0i64..5, 0i64..50), 1..150),
    ) {
        let run = |comb: bool| {
            let mut c = Cluster::new(ClusterConfig::default());
            c.load_table("t", pairs.iter().map(|(k, v)| format!("{k}|{v}")).collect());
            run_job(&mut c, &sum_job(2, comb)).unwrap().shuffle_bytes
        };
        prop_assert!(run(true) <= run(false));
    }

    /// The per-node disk accounting stays exactly reconciled with
    /// `total_bytes()` across arbitrary put/replace/delete cycles — the
    /// invariant cache eviction relies on. Puts reuse a small path space so
    /// replacement (the historical drift bug) happens constantly.
    #[test]
    fn hdfs_node_accounting_reconciles(
        nodes in 1usize..8,
        ops in prop::collection::vec((0u8..3, 0u8..12, 0usize..40), 1..120),
    ) {
        let mut fs = ysmart_mapred::Hdfs::with_nodes(nodes);
        for (op, slot, size) in ops {
            let path = format!("p/{slot}");
            match op {
                0 => fs.put(&path, (0..size).map(|i| format!("line-{i}")).collect()),
                1 => fs.delete(&path),
                _ => fs.put_data(
                    &path,
                    ysmart_mapred::DataFile {
                        lines: (0..size).map(|i| format!("r{i}")).collect(),
                        frames: Vec::new(),
                    },
                ),
            }
            prop_assert!(fs.accounting_reconciled());
            prop_assert_eq!(
                fs.node_used_bytes().iter().sum::<u64>(),
                fs.total_bytes()
            );
        }
    }
}
