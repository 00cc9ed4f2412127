//! Property-based tests of the MapReduce engine's invariants: determinism,
//! partitioning correctness, and result-preservation under every cost-model
//! configuration.

use proptest::prelude::*;
use std::collections::BTreeMap;
use ysmart_mapred::hash::partition;
use ysmart_mapred::{
    run_chain, run_job, Cluster, ClusterConfig, Combiner, Compression, DataFile, FailureModel,
    Hdfs, JobChain, JobSpec, MapOutput, Mapper, NodeFailureModel, ReduceOutput, Reducer,
    RetryPolicy,
};
use ysmart_rel::colbatch::frame_stats;
use ysmart_rel::{row, Column, ColumnBatch, Row, Value};

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
    let mut m = BTreeMap::new();
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

    /// `total_bytes` is the sum over the live paths across arbitrary
    /// put/share/delete cycles: a replacement drops the old file's bytes, a
    /// delete is idempotent, and a shared file is charged at every path
    /// that holds it. Puts reuse a small path space so replacement happens
    /// constantly.
    #[test]
    fn hdfs_total_bytes_sums_the_live_paths(
        ops in prop::collection::vec((0u8..4, 0u8..12, 0usize..40), 1..120),
    ) {
        let mut fs = Hdfs::new();
        let mut model = BTreeMap::new();
        for (op, slot, size) in ops {
            let path = format!("p/{slot}");
            match op {
                0 => {
                    let lines: Vec<String> = (0..size).map(|i| format!("line-{i}")).collect();
                    model.insert(path.clone(), lines.iter().map(|l| l.len() as u64 + 1).sum());
                    fs.put(&path, lines);
                }
                1 => {
                    model.remove(&path);
                    fs.delete(&path);
                }
                2 => {
                    model.insert(path.clone(), size as u64);
                    fs.put_data(&path, DataFile { lines: Vec::new(), frames: vec![vec![0; size]] });
                }
                _ => {
                    let from = format!("p/{}", size % 12);
                    if let Ok(file) = fs.share(&from) {
                        model.insert(path.clone(), model[&from]);
                        fs.put_shared(&path, file);
                    }
                }
            }
            prop_assert_eq!(fs.total_bytes(), model.values().sum::<u64>());
            prop_assert!(fs.paths().eq(model.keys().map(String::as_str)));
        }
    }

    /// Whichever writer put a pair in an arena — `emit` or `emit_columns`,
    /// in any mix and order — its segment is charged for
    /// what reading its pairs back gives: their bytes in the text framing,
    /// and their size as one frame when they share a width.
    #[test]
    fn segment_sizes_are_those_of_the_pairs_written(
        partitions in 1usize..5,
        writes in prop::collection::vec((0u8..3, 0usize..6, 0i64..8), 1..40),
    ) {
        let rows: Vec<Row> = (0..6i64)
            .map(|k| {
                let key = if k == 4 { Value::Null } else { Value::Int(k) };
                Row::new(vec![key, Value::Str(format!("s{k}")), Value::Float(k as f64 / 4.0)])
            })
            .collect();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let cols: Vec<&Column> = batch.columns().iter().collect();
        let mut out = MapOutput::partitioned(partitions);
        for (writer, n, k) in writes {
            match writer {
                0 => out.emit(row![k], row![format!("v{k}"), k as f64]),
                1 => {
                    // Width 3 like the other writers' pairs, or 2.
                    let value = if n % 2 == 0 {
                        row!["w".repeat(n), Value::Null]
                    } else {
                        row!["w".repeat(n)]
                    };
                    out.emit(row![k], value);
                }
                _ => {
                    // Tagged rows make pairs of width 4.
                    let picked: Vec<usize> = (0..n).map(|i| i * k as usize % rows.len()).collect();
                    let tags: Vec<i64> = picked.iter().map(|&r| r as i64).collect();
                    let tags = (k % 2 == 1).then_some(&tags[..]);
                    out.emit_columns(&picked, &cols[..1], tags, &cols[1..]);
                }
            }
        }
        for p in 0..partitions {
            let pairs: Vec<Vec<Value>> = out.pairs(p).map(|(k, v)| [k, v].concat()).collect();
            let cells = pairs.iter().flatten().map(|v| v.size_bytes() as u64);
            let text = cells.sum::<u64>() + 2 * pairs.len() as u64;
            let width = pairs.first().map(Vec::len);
            let width = width.filter(|&w| pairs.iter().all(|pair| pair.len() == w));
            let frame = width.and_then(|w| frame_stats(pairs.len(), w, |r, c| &pairs[r][c]));
            prop_assert_eq!(out.segment_size(p), (text, frame), "partition {}", p);
        }
    }
}

// ---- the order a reducer sees ----------------------------------------------
//
// Pins, against a kept reference, exactly which key and which values in which
// order reach `reduce` — independent of how many reducers or threads run and
// of the data format. The reference is the definition: every map task's pairs
// (after its combiner, if any) concatenated in task order, which is file
// order, stably sorted by key under `Value`'s order, grouped by key; a group
// is shown the key of its first pair. Without a combiner the split does not
// matter either: that is every input's records concatenated in file order.

/// A mapper over record indices: line `i` emits `records[i]`, so a pair's
/// representation (`Int(7)` vs `Float(7.0)`) survives either input format.
struct IndexMapper(std::sync::Arc<Vec<(Row, Row)>>);
impl Mapper for IndexMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        let (k, v) = &self.0[line.parse::<usize>().unwrap()];
        out.emit(k.clone(), v.clone());
    }
}

/// What the echo reducer writes per value: key, value and position in the
/// group, rendered with `Debug` so equal-comparing representations differ.
fn echo_row(key: &Row, value: &Row, pos: usize) -> Row {
    row![
        format!("{:?}", key.values()),
        format!("{:?}", value.values()),
        pos as i64
    ]
}

struct EchoReducer;
impl Reducer for EchoReducer {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        for (pos, v) in values.iter().enumerate() {
            out.emit_row(echo_row(key, v, pos));
        }
    }
}

/// The combiner of one configuration: none, one that hands each group back
/// reversed — which the engine keeps, so the reference must know each map
/// task's records — or one that rewrites each value in place, whatever the
/// split.
#[derive(Clone, Copy, Debug)]
enum Combine {
    None,
    Reverse,
    Rewrite,
}

impl Combine {
    /// The value `Rewrite` makes of `value`: it, then a marker cell.
    fn rewritten(value: &Row) -> Row {
        let mut cells = value.values().to_vec();
        cells.push(Value::Str("combined".into()));
        Row::new(cells)
    }

    /// One map task's pairs, in emit order, as this combiner leaves them:
    /// its stable sort by key, each key group combined in place under the
    /// key of its first pair.
    fn apply(mut self, task: &[(Row, Row)]) -> Vec<(Row, Row)> {
        let mut sorted = task.to_vec();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let groups = sorted.chunk_by(|a, b| a.0.cmp(&b.0).is_eq());
        groups
            .flat_map(|group| {
                let key = &group[0].0;
                let values: Vec<Row> = group.iter().map(|(_, v)| v.clone()).collect();
                let combined = self.combine(key, &values).into_iter();
                combined.map(|v| (key.clone(), v)).collect::<Vec<_>>()
            })
            .collect()
    }
}

impl Combiner for Combine {
    fn combine(&mut self, _key: &Row, values: &[Row]) -> Vec<Row> {
        match self {
            Combine::None => values.to_vec(),
            Combine::Reverse => values.iter().rev().cloned().collect(),
            Combine::Rewrite => values.iter().map(Combine::rewritten).collect(),
        }
    }
}

/// The echo job's output lines: `tasks` — each map task's pairs in emit
/// order, task by task — combined, concatenated, stably sorted by key,
/// grouped by key, each group shown the key of its first pair, partition by
/// partition.
fn reference_order(tasks: &[&[(Row, Row)]], combine: Combine, reducers: usize) -> Vec<String> {
    let combined: Vec<(Row, Row)> = tasks.iter().flat_map(|t| combine.apply(t)).collect();
    let mut all: Vec<&(Row, Row)> = combined.iter().collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    let groups: Vec<&[&(Row, Row)]> = all.chunk_by(|a, b| a.0.cmp(&b.0).is_eq()).collect();
    let mut lines = Vec::new();
    for p in 0..reducers {
        for group in groups.iter().filter(|g| partition(&g[0].0, reducers) == p) {
            for (pos, pair) in group.iter().enumerate() {
                lines.push(ysmart_rel::codec::encode_line(&echo_row(
                    &group[0].0,
                    &pair.1,
                    pos,
                )));
            }
        }
    }
    lines
}

/// Tie-heavy records for one input. Cells come from a small pool, so
/// duplicate pairs, shared keys and prefix-related values of different
/// widths are the norm; NULL and empty keys occur. Within one input equal
/// cells are identical — the second input spells the pool's `7` as
/// `Float(7.0)`, so cross-input ties are equal under `Value`'s order yet
/// distinguishable, and only the merge's task-order tie-break places them.
fn tie_heavy_records(rng: &mut rand::rngs::StdRng, second: bool, n: usize) -> Vec<(Row, Row)> {
    use rand::Rng;
    let seven = if second {
        Value::Float(7.0)
    } else {
        Value::Int(7)
    };
    let pool = [
        Value::Null,
        seven,
        Value::Int(-1),
        Value::Float(7.5),
        Value::Str(String::new()),
        Value::Str("a".into()),
        Value::Str("ab".into()),
        Value::Bool(true),
    ];
    let mut cells = |max: usize| -> Row {
        let width = rng.gen::<u64>() as usize % (max + 1);
        (0..width)
            .map(|_| pool[rng.gen::<u64>() as usize % pool.len()].clone())
            .collect()
    };
    (0..n).map(|_| (cells(2), cells(3))).collect()
}

/// Records whose keys all start with `Int(7)` and end in one of three
/// cells: their encodings share the 8-byte prefix the map-side sort
/// compares first, so in one task they form a stretch longer than a short
/// sort's insertion pass, which only the key bytes and emit order order.
fn shared_prefix_records(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<(Row, Row)> {
    let ends = [Value::Null, Value::Int(-1), Value::Str("a".into())];
    let records = tie_heavy_records(rng, false, n).into_iter().enumerate();
    records
        .map(|(i, (_, value))| (row![7i64, ends[i % 3].clone()], value))
        .collect()
}

/// Rows per columnar input frame: the smallest unit a map task reads.
const FRAME_ROWS: usize = 3;

/// Runs the echo job over `inputs` under one configuration and returns the
/// output file's records as text lines, and how many map tasks it ran.
fn run_echo(
    inputs: &[Vec<(Row, Row)>],
    config: ClusterConfig,
    reducers: usize,
    combine: Combine,
) -> (Vec<String>, usize) {
    use ysmart_mapred::DataFormat;
    use ysmart_rel::colbatch::{decode_frames, encode_frames};
    let columnar = config.data_format == DataFormat::Columnar;
    let mut c = Cluster::new(config);
    let mut job = JobSpec::builder("echo")
        .reducer(|| Box::new(EchoReducer))
        .output("out/echo")
        .reduce_tasks(reducers);
    for (i, records) in inputs.iter().enumerate() {
        let path = format!("data/in{i}");
        let ids = 0..records.len() as i64;
        if columnar {
            let rows: Vec<Row> = ids.map(|i| row![i]).collect();
            c.hdfs
                .put_frames(&path, encode_frames(&rows, FRAME_ROWS).unwrap().0);
        } else {
            c.hdfs.put(&path, ids.map(|i| i.to_string()).collect());
        }
        let records = std::sync::Arc::new(records.clone());
        job = job.input(&path, move || {
            Box::new(IndexMapper(std::sync::Arc::clone(&records)))
        });
    }
    if !matches!(combine, Combine::None) {
        job = job.combiner(move || Box::new(combine));
    }
    let metrics = run_job(&mut c, &job.build()).unwrap();
    let file = c.hdfs.get("out/echo").unwrap();
    let lines = if file.is_columnar() {
        let rows = decode_frames(&file.frames).unwrap();
        rows.iter().map(ysmart_rel::codec::encode_line).collect()
    } else {
        file.lines.clone()
    };
    (lines, metrics.map_tasks)
}

#[test]
fn reducer_sees_reference_order_under_every_split() {
    use rand::SeedableRng;
    use ysmart_mapred::DataFormat;
    for seed in 0..4u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut first = tie_heavy_records(&mut rng, false, 70);
        first.extend(shared_prefix_records(&mut rng, 60));
        let inputs = [first, tie_heavy_records(&mut rng, true, 50)];
        // One map task per input, a handful, one per line / frame.
        for block_mb in [64.0, 4e-5, 1e-9] {
            for format in [DataFormat::Text, DataFormat::Columnar] {
                let whole: Vec<&[(Row, Row)]> = inputs.iter().map(Vec::as_slice).collect();
                // The map tasks where the split is known: whole inputs, or
                // the smallest unit of the format.
                let tasks = match block_mb {
                    64.0 => Some(whole.clone()),
                    1e-9 => {
                        let unit = match format {
                            DataFormat::Text => 1,
                            DataFormat::Columnar => FRAME_ROWS,
                        };
                        Some(inputs.iter().flat_map(|i| i.chunks(unit)).collect())
                    }
                    _ => None,
                };
                let combines = match tasks {
                    Some(_) => vec![Combine::None, Combine::Reverse, Combine::Rewrite],
                    None => vec![Combine::None, Combine::Rewrite],
                };
                // Where no combiner depends on the split, the inputs stand
                // for its tasks.
                let reference_tasks = tasks.as_deref().unwrap_or(&whole);
                for combine in combines {
                    for reducers in 1..=5usize {
                        let expected = reference_order(reference_tasks, combine, reducers);
                        for threads in [1, 4] {
                            let config = ClusterConfig {
                                hdfs_block_mb: block_mb,
                                exec_threads: Some(threads),
                                data_format: format,
                                ..ClusterConfig::default()
                            };
                            let what = format!(
                                "seed {seed}, block {block_mb} MB, {reducers} reducers, \
                                 {threads} threads, {combine:?}, {format:?}"
                            );
                            let (got, map_tasks) = run_echo(&inputs, config, reducers, combine);
                            if let Some(tasks) = &tasks {
                                assert_eq!(map_tasks, tasks.len(), "{what}");
                            }
                            assert_eq!(got, expected, "{what}");
                        }
                    }
                }
            }
        }
    }
}
