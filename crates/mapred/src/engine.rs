//! Job execution: execute for real, time by model.
//!
//! [`run_job`] executes one [`JobSpec`] against a [`Cluster`]. The work is
//! cut along DESIGN.md's first design decision into two planes that share
//! only plain counts; this module is the thin orchestrator between them.
//!
//! * **`data`** — the data plane, the only code that touches rows, mappers,
//!   reducers, HDFS bytes and checksums. It splits inputs into block-sized
//!   tasks, runs each map task (verified read → mapper → `(partition, key,
//!   value)` sort → combiner), hands the sorted per-partition segments to
//!   the reduce tasks, k-way merges and reduces them, and writes the
//!   output — on real OS threads
//!   ([`crate::config::ClusterConfig::exec_threads`]). Besides the
//!   runs/outputs it returns *physical counts* (`MapCounts`,
//!   `SegmentCounts`, `ReduceCounts`): bytes, records, work units,
//!   corrupt replicas, corrupt fetches — never a duration.
//! * **`cost`** — the cost plane: counts in, seconds out. A deterministic
//!   function of the counts, the [`ClusterConfig`] and the attempt's seeds
//!   holding every bandwidth/CPU formula, the list scheduling of tasks onto
//!   slot waves, straggler / task-failure / node-death injection, re-fetch
//!   and re-execution charges, the blacklist, the disk and time limits, and
//!   all trace spans. It sees no data and is unit-tested on hand-built counts.
//!
//! [`run_job_attempt`] runs map-execute → map-cost → shuffle-execute →
//! shuffle-cost → reduce-execute → reduce-cost → commit, and hands a traced
//! attempt's spans back beside its metrics — the cluster holds no trace;
//! the chain session commits them to its own lane. Each phase's cost
//! is settled before the next phase executes, so an attempt the cost plane
//! fails (a task out of retries, too many bad records, every node dead,
//! disks full, time limit) does no further real work and writes nothing;
//! its [`AttemptFailure`] carries the simulated time it burned, which
//! [`crate::chain::run_chain`] charges when it retries the job.
//!
//! # Who draws which random stream
//!
//! Every injected fault is a fresh [`rand::rngs::StdRng`] seeded per `(job,
//! attempt, task/partition/node)`, never one sequential stream, so results,
//! metrics, simulated times and traces are bit-identical for any thread
//! count. *Data-affecting* draws flip bytes, not clocks: they belong to the
//! data plane, which runs the real checksum comparison, lets only canonical
//! bytes reach mappers and reducers, and reports what happened as counts —
//! corruption can never change results, only cost simulated time.
//! *Time-affecting* draws belong to the cost plane.
//!
//! | stream | owner | seed |
//! |---|---|---|
//! | block/frame replica flips ([`crate::hdfs::read_verified`]) | `data` | `corruption.seed ^ checksum(path) ^ block ^ replica ^ attempt` |
//! | torn input records | `data` | `JobCtx::task_seed(corruption.seed ^ 0x0BAD_5EED, task)` |
//! | shuffle-segment flips and re-fetch outcomes | `data` | `task_seed(corruption.seed, task) ^ partition` |
//! | map stragglers | `cost` | `task_seed(stragglers.seed, task)` |
//! | map task failures | `cost` | `task_seed(failures.seed, task)` |
//! | node deaths | `cost` | `node_failures.seed ^ job ^ attempt ^ node` |
//! | reduce stragglers | `cost` | `stragglers.seed ^ job ^ partition` |

mod cost;
mod data;

use ysmart_rel::codec::encode_line;
use ysmart_rel::colbatch::{encode_frames, DEFAULT_FRAME_ROWS};
use ysmart_rel::Row;

use crate::config::{ClusterConfig, DataFormat};
use crate::error::MapRedError;
use crate::hash::hash_row;
use crate::hdfs::Hdfs;
use crate::job::JobSpec;
use crate::metrics::JobMetrics;
use crate::trace::TraceEvent;

/// Re-fetches a reducer grants one shuffle segment before giving up on the
/// mapper's output and re-executing the mapper (Hadoop's
/// `mapreduce.reduce.shuffle.maxfetchfailures` spirit).
const MAX_FETCH_RETRIES: usize = 3;
/// Odd multiplier spreading a task/partition/node index over the seed bits.
const SPLITMIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The simulated cluster: a global file system plus the cost model.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The global file system.
    pub hdfs: Hdfs,
    /// The cost model and topology.
    pub config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster with an empty file system.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        Cluster {
            hdfs: Hdfs::new(),
            config,
        }
    }

    /// Loads a table into HDFS at `data/<name>` as text lines.
    pub fn load_table(&mut self, name: &str, lines: Vec<String>) {
        self.hdfs.put(&format!("data/{name}"), lines);
    }

    /// Loads a table at `data/<name>` in the cluster's configured
    /// [`DataFormat`]: text lines, or encoded columnar frames of
    /// [`ysmart_rel::colbatch::DEFAULT_FRAME_ROWS`] rows each. Rows the frame codec rejects
    /// (non-uniform widths, non-finite floats) fall back to text so the
    /// load never fails.
    pub fn load_table_rows(&mut self, name: &str, rows: &[Row]) {
        let path = format!("data/{name}");
        if self.config.data_format == DataFormat::Columnar {
            if let Ok((frames, _)) = encode_frames(rows, DEFAULT_FRAME_ROWS) {
                self.hdfs.put_frames(&path, frames);
                return;
            }
        }
        self.hdfs.put(&path, rows.iter().map(encode_line).collect());
    }

    /// The conventional HDFS path of a loaded table.
    #[must_use]
    pub fn table_path(name: &str) -> String {
        format!("data/{name}")
    }
}

/// A failed job attempt: the error plus the simulated time the attempt
/// burned before dying. [`crate::chain::run_chain`] charges that time to
/// the chain when it retries the job.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptFailure {
    /// What killed the attempt.
    pub error: MapRedError,
    /// Simulated seconds the attempt ran before failing.
    pub wasted_s: f64,
}

impl From<AttemptFailure> for MapRedError {
    fn from(f: AttemptFailure) -> Self {
        f.error
    }
}

impl From<MapRedError> for AttemptFailure {
    fn from(error: MapRedError) -> Self {
        AttemptFailure {
            error,
            wasted_s: 0.0,
        }
    }
}

/// What both planes know about the job attempt being run.
struct JobCtx<'a> {
    cfg: &'a ClusterConfig,
    name: &'a str,
    /// Stable hash of the job name, mixed into every seed.
    hash: u64,
    attempt: usize,
    /// The attempt's start on its chain's timeline (simulated seconds),
    /// which its spans are laid out from; `None` when not tracing, and then
    /// no span is built at all.
    cursor: Option<f64>,
}

impl JobCtx<'_> {
    /// Seed of a per-map-task random stream: `base` mixed with the job, the
    /// attempt and the task index, so streams are independent of how tasks
    /// land on threads and a retried attempt sees fresh draws.
    fn task_seed(&self, base: u64, task_idx: usize) -> u64 {
        base ^ self.hash ^ attempt_mix(self.attempt) ^ (task_idx as u64 + 1).wrapping_mul(SPLITMIX)
    }
}

/// Physical counts of one executed map task. Counts are *real* (measured
/// on the data actually processed); the cost plane scales them by
/// `size_multiplier`.
#[derive(Debug, Clone, Default)]
struct MapCounts {
    in_bytes: u64,
    in_records: u64,
    /// Work units the mapper reported ([`crate::job::MapOutput::add_work`]).
    work: u64,
    /// Pairs the mapper emitted, before the combiner.
    out_records: u64,
    /// Bytes of the pairs left after the combiner (all of them without one).
    combined_bytes: u64,
    /// A combiner collapsed the task to a handful of partial rows. Such
    /// output is bounded by key cardinality, not data volume, and must not
    /// scale with it (a map task covering 2 000 000× more records of a
    /// *global* aggregation still emits one partial row): its pairs weigh
    /// 1 simulated pair each instead of `size_multiplier`.
    bounded: bool,
    /// Corrupt block replicas detected by checksum and failed over.
    corrupt_replicas: u64,
    /// Injected flips the block checksum failed to detect.
    collisions: u64,
    /// Malformed input records the mapper skipped.
    skipped_records: u64,
    /// Per-stream dispatch counts reported by the mapper (CMF fan-out).
    dispatches: Vec<u64>,
    /// What the data itself did to kill the attempt: a block with no
    /// checksum-clean replica left ([`MapRedError::CorruptBlock`], nothing
    /// was mapped) or a user evaluation error.
    fatal: Option<MapRedError>,
}

/// Physical counts of one shuffle segment: map task `task`'s sorted pairs
/// for reduce partition `partition`, in its wire form.
#[derive(Debug, Clone, Default)]
struct SegmentCounts {
    task: usize,
    partition: usize,
    records: u64,
    bytes: u64,
    /// Dictionary entries of the segment's columnar frame; `None` when the
    /// wire form is the text framing.
    frame_dicts: Option<u64>,
    /// Fetched copies that failed checksum verification (capped at
    /// [`MAX_FETCH_RETRIES`]` + 1`, which means the mapper's stored output
    /// itself is bad).
    corrupt_fetches: usize,
    /// Injected flips the segment checksum failed to detect.
    collisions: u64,
}

/// What a task (or a map-only job) wrote.
#[derive(Debug, Clone, Default)]
struct OutputCounts {
    records: u64,
    bytes: u64,
    /// Encoded columnar frame bytes (0 for text output).
    encoded_bytes: u64,
    dict_entries: u64,
}

/// Physical counts of one executed reduce task.
#[derive(Debug, Clone, Default)]
struct ReduceCounts {
    /// Merged pairs streamed through the reducer.
    in_records: u64,
    work: u64,
    out: OutputCounts,
    /// Per-stream dispatch counts reported by the reducer (CMF fan-out).
    dispatches: Vec<u64>,
    /// Evaluation error reported by the reducer.
    fatal: Option<MapRedError>,
}

/// Executes one job, mutating HDFS with its output and returning metrics.
///
/// # Errors
///
/// Missing inputs, disk-capacity overflow, time-limit violation, injected
/// faults that exhaust task retries, or loss of every worker node.
pub fn run_job(cluster: &mut Cluster, spec: &JobSpec) -> Result<JobMetrics, MapRedError> {
    run_job_attempt(cluster, spec, 0, None)
        .map(|(metrics, _)| metrics)
        .map_err(MapRedError::from)
}

/// Mixes a job-attempt index into RNG seeds so a retried job sees fresh
/// failure/straggler draws (attempt 0 leaves seeds unchanged).
pub(crate) fn attempt_mix(attempt: usize) -> u64 {
    (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// Executes one attempt of a job. `attempt` varies the injected-fault RNG
/// draws, so the chain-level retry of a failed job is not doomed to repeat
/// the exact same deaths. `trace_start` is the attempt's start on its
/// chain's timeline when the chain is traced: the attempt's spans come back
/// beside its metrics, laid out from there (none are built without it).
///
/// # Errors
///
/// As [`run_job`], but failures carry the simulated time the attempt burned
/// before dying ([`AttemptFailure`]); a failed attempt's spans are dropped.
pub fn run_job_attempt(
    cluster: &mut Cluster,
    spec: &JobSpec,
    attempt: usize,
    trace_start: Option<f64>,
) -> Result<(JobMetrics, Vec<TraceEvent>), AttemptFailure> {
    let Cluster { hdfs, config } = cluster;
    let job = JobCtx {
        cfg: config,
        name: &spec.name,
        hash: hash_row(&ysmart_rel::row![spec.name.as_str()]),
        attempt,
        cursor: trace_start,
    };
    // At least one reducer: `reduce_tasks(0)` would otherwise partition
    // keys modulo zero.
    let num_reducers = spec
        .reduce_tasks
        .unwrap_or_else(|| {
            let default = config.default_reduce_tasks();
            match spec.key_cardinality_hint {
                // More reducers than distinct keys are pure startup overhead.
                Some(keys) => default.min(usize::try_from(keys).unwrap_or(usize::MAX)),
                None => default,
            }
        })
        .max(1);

    // Splits borrow slices of the files already in HDFS — no copy of the
    // input per job; the borrows end before the output is written back.
    let (tasks, hdfs_read_bytes) = data::split(hdfs, spec, config)?;
    let shuffle_to = spec.reducer.is_some().then_some(num_reducers);
    let (map_counts, map_runs): (Vec<_>, Vec<_>) =
        data::execute_maps(&job, spec, &tasks, shuffle_to)?
            .into_iter()
            .unzip();
    let mut account = cost::map_phase(&job, &map_counts, hdfs_read_bytes, shuffle_to.is_none())?;

    let (metrics, events, outputs) = match &spec.reducer {
        None => {
            let (written, output) =
                data::map_only_output(&job, map_runs).map_err(|error| AttemptFailure {
                    error,
                    wasted_s: account.metrics.map_time_s,
                })?;
            let (metrics, events) = account.map_only_write(&job, &written)?;
            (metrics, events, vec![output])
        }
        Some(reducer) => {
            let (part_runs, segments) = data::shuffle(&job, map_runs, num_reducers);
            account.shuffle_phase(&job, &map_counts, &segments, num_reducers)?;
            let (reduce_counts, outputs): (Vec<_>, Vec<_>) =
                data::execute_reduces(&job, reducer, part_runs)
                    .map_err(|error| AttemptFailure {
                        error,
                        wasted_s: account.metrics.map_time_s,
                    })?
                    .into_iter()
                    .unzip();
            let (metrics, events) = account.reduce_phase(&job, &reduce_counts)?;
            (metrics, events, outputs)
        }
    };
    data::write_output(hdfs, &spec.output, outputs)?;
    Ok((metrics, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Combiner, JobSpec, MapOutput, Mapper, ReduceOutput, Reducer};
    use ysmart_rel::{row, Value};

    /// Word-count-style mapper: `<key>|<n>` lines.
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
            // The key by its `Display`: a NULL key reads `NULL`, where the
            // codec would write the empty field.
            out.emit_row(row![key.get(0).unwrap().to_string(), s]);
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

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::default())
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

    fn load_pairs(c: &mut Cluster) {
        let lines: Vec<String> = (0..1000).map(|i| format!("{}|1", i % 10)).collect();
        c.load_table("t", lines);
    }

    fn sorted_output(c: &Cluster, path: &str) -> Vec<String> {
        let mut lines = c.hdfs.get(path).unwrap().lines.clone();
        lines.sort();
        lines
    }

    #[test]
    fn sum_job_correct_across_reducer_counts() {
        // `reduce_tasks(0)` runs as one reducer instead of partitioning
        // keys modulo zero.
        for reducers in [0, 1, 3, 8] {
            let mut c = cluster();
            load_pairs(&mut c);
            let m = run_job(&mut c, &sum_job(reducers, false)).unwrap();
            let lines = sorted_output(&c, "out/sum");
            assert_eq!(lines.len(), 10);
            for l in &lines {
                assert!(l.ends_with("|100"), "line {l}");
            }
            assert_eq!(m.reduce_tasks, reducers.max(1));
            assert_eq!(m.map_in_records, 1000);
        }
    }

    #[test]
    fn combiner_preserves_result_and_cuts_shuffle() {
        let (mut c1, mut c2) = (cluster(), cluster());
        load_pairs(&mut c1);
        load_pairs(&mut c2);
        let plain = run_job(&mut c1, &sum_job(2, false)).unwrap();
        let combined = run_job(&mut c2, &sum_job(2, true)).unwrap();
        assert_eq!(sorted_output(&c1, "out/sum"), sorted_output(&c2, "out/sum"));
        assert!(
            combined.shuffle_bytes < plain.shuffle_bytes / 10,
            "combiner should collapse 1000 pairs into ≤ tasks×keys: {} vs {}",
            combined.shuffle_bytes,
            plain.shuffle_bytes
        );
        assert!(combined.reduce_time_s < plain.reduce_time_s);
    }

    #[test]
    fn map_only_job_writes_values() {
        struct PassMapper;
        impl Mapper for PassMapper {
            fn map(&mut self, line: &str, out: &mut MapOutput) {
                let (k, v) = line.split_once('|').unwrap();
                if v == "1" {
                    out.emit(row![0i64], row![k.parse::<i64>().unwrap()]);
                }
            }
        }
        let mut c = cluster();
        c.load_table("t", vec!["5|1".into(), "6|0".into(), "7|1".into()]);
        let spec = JobSpec::builder("sel")
            .input("data/t", || Box::new(PassMapper))
            .output("out/sel")
            .build();
        let m = run_job(&mut c, &spec).unwrap();
        assert_eq!(c.hdfs.get("out/sel").unwrap().lines, vec!["5", "7"]);
        assert_eq!(m.reduce_tasks, 0);
        assert!(m.reduce_time_s == 0.0);
    }

    #[test]
    fn missing_input_errors() {
        let mut c = cluster();
        let e = run_job(&mut c, &sum_job(1, false)).unwrap_err();
        assert!(matches!(e, MapRedError::NoSuchFile(_)));
    }

    #[test]
    fn size_multiplier_scales_simulated_time_not_results() {
        let (mut c1, mut c2) = (cluster(), cluster());
        c2.config.size_multiplier = 1000.0;
        load_pairs(&mut c1);
        load_pairs(&mut c2);
        let small = run_job(&mut c1, &sum_job(2, false)).unwrap();
        let big = run_job(&mut c2, &sum_job(2, false)).unwrap();
        assert_eq!(sorted_output(&c1, "out/sum"), sorted_output(&c2, "out/sum"));
        assert!(big.total_s() > small.total_s());
        assert_eq!(big.hdfs_read_bytes, small.hdfs_read_bytes * 1000);
    }

    #[test]
    fn disk_full_stops_job() {
        let mut c = cluster();
        c.config.disk_capacity_mb = 0.000001; // 1 byte per node
        load_pairs(&mut c);
        let e = run_job(&mut c, &sum_job(2, false)).unwrap_err();
        assert!(matches!(e, MapRedError::DiskFull { .. }));
    }

    #[test]
    fn time_limit_enforced() {
        let mut c = cluster();
        c.config.time_limit_s = Some(0.001);
        load_pairs(&mut c);
        let e = run_job(&mut c, &sum_job(2, false)).unwrap_err();
        assert!(matches!(e, MapRedError::TimeLimitExceeded { .. }));
    }

    #[test]
    fn failures_add_time_but_not_change_results() {
        let (mut c1, mut c2) = (cluster(), cluster());
        c2.config.failures = Some(crate::config::FailureModel {
            probability: 0.5,
            seed: 42,
        });
        load_pairs(&mut c1);
        load_pairs(&mut c2);
        let clean = run_job(&mut c1, &sum_job(2, false)).unwrap();
        let flaky = run_job(&mut c2, &sum_job(2, false)).unwrap();
        assert_eq!(sorted_output(&c1, "out/sum"), sorted_output(&c2, "out/sum"));
        assert!(flaky.failed_attempts > 0);
        assert!(flaky.map_time_s > clean.map_time_s);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut c = cluster();
            load_pairs(&mut c);
            let m = run_job(&mut c, &sum_job(3, true)).unwrap();
            (c.hdfs.get("out/sum").unwrap().lines.clone(), m.total_s())
        };
        let (l1, t1) = run();
        let (l2, t2) = run();
        assert_eq!(l1, l2);
        assert!((t1 - t2).abs() < 1e-12);
    }

    /// [`KvMapper`] that skips undecodable lines instead of panicking —
    /// what injected torn records require of a robust mapper.
    struct TolerantKvMapper;
    impl Mapper for TolerantKvMapper {
        fn map(&mut self, line: &str, out: &mut MapOutput) {
            let parsed = line
                .split_once('|')
                .and_then(|(k, v)| Some((k.parse::<i64>().ok()?, v.parse::<i64>().ok()?)));
            match parsed {
                Some((k, v)) => out.emit(row![k], row![v]),
                None => out.record_bad(),
            }
        }
    }

    fn tolerant_sum_job(reducers: usize) -> JobSpec {
        JobSpec::builder("sum")
            .input("data/t", || Box::new(TolerantKvMapper))
            .reducer(|| Box::new(SumReducer))
            .output("out/sum")
            .reduce_tasks(reducers)
            .build()
    }

    #[test]
    fn corruption_at_rate_zero_only_charges_verification() {
        let (mut clean, mut checked) = (cluster(), cluster());
        checked.config.corruption = Some(crate::config::CorruptionModel::uniform(0.0, 1));
        load_pairs(&mut clean);
        load_pairs(&mut checked);
        let a = run_job(&mut clean, &sum_job(2, false)).unwrap();
        let b = run_job(&mut checked, &sum_job(2, false)).unwrap();
        assert_eq!(
            sorted_output(&clean, "out/sum"),
            sorted_output(&checked, "out/sum")
        );
        assert_eq!(
            b.corrupt_blocks_detected + b.refetched_segments + b.skipped_records,
            0
        );
        assert!(b.verify_s > 0.0, "checksum passes are charged");
        assert!(a.verify_s == 0.0, "no model, no verification cost");
    }

    #[test]
    fn block_corruption_fails_over_without_changing_results() {
        // Small blocks → many blocks → a 30% per-replica rate reliably
        // corrupts some replica somewhere while 3 replicas keep every
        // block recoverable for at least one seed in the sweep.
        let mut detected_somewhere = false;
        for seed in 0..20u64 {
            let (mut clean, mut corrupt) = (cluster(), cluster());
            for c in [&mut clean, &mut corrupt] {
                c.config.hdfs_block_mb = 0.0001; // ~100-byte blocks
            }
            corrupt.config.corruption = Some(crate::config::CorruptionModel {
                block_rate: 0.3,
                segment_rate: 0.0,
                record_rate: 0.0,
                seed,
            });
            load_pairs(&mut clean);
            load_pairs(&mut corrupt);
            let a = run_job(&mut clean, &sum_job(2, false)).unwrap();
            let b = match run_job(&mut corrupt, &sum_job(2, false)) {
                Ok(m) => m,
                // All replicas of some block corrupt — legitimate at this
                // rate; the chain layer retries it. Try another seed.
                Err(MapRedError::CorruptBlock { .. }) => continue,
                Err(e) => panic!("unexpected error: {e}"),
            };
            assert_eq!(
                sorted_output(&clean, "out/sum"),
                sorted_output(&corrupt, "out/sum")
            );
            if b.corrupt_blocks_detected > 0 {
                detected_somewhere = true;
                assert!(b.map_time_s > a.map_time_s, "failover re-reads cost time");
                break;
            }
        }
        assert!(detected_somewhere, "0.3 over many blocks must corrupt one");
    }

    #[test]
    fn segment_corruption_refetches_without_changing_results() {
        let (mut clean, mut corrupt) = (cluster(), cluster());
        corrupt.config.corruption = Some(crate::config::CorruptionModel {
            block_rate: 0.0,
            segment_rate: 0.4,
            record_rate: 0.0,
            seed: 11,
        });
        for c in [&mut clean, &mut corrupt] {
            c.config.hdfs_block_mb = 0.0001;
        }
        load_pairs(&mut clean);
        load_pairs(&mut corrupt);
        let a = run_job(&mut clean, &sum_job(4, false)).unwrap();
        let b = run_job(&mut corrupt, &sum_job(4, false)).unwrap();
        assert_eq!(
            sorted_output(&clean, "out/sum"),
            sorted_output(&corrupt, "out/sum")
        );
        assert!(b.refetched_segments > 0, "0.4 over many segments must hit");
        assert!(b.reduce_time_s > a.reduce_time_s, "refetches cost time");
    }

    #[test]
    fn torn_records_skipped_under_budget_and_fatal_over_it() {
        let model = crate::config::CorruptionModel {
            block_rate: 0.0,
            segment_rate: 0.0,
            record_rate: 0.05,
            seed: 5,
        };
        let (mut clean, mut budgeted) = (cluster(), cluster());
        budgeted.config.corruption = Some(model);
        budgeted.config.skip_bad_records = 10_000;
        load_pairs(&mut clean);
        load_pairs(&mut budgeted);
        run_job(&mut clean, &tolerant_sum_job(2)).unwrap();
        let m = run_job(&mut budgeted, &tolerant_sum_job(2)).unwrap();
        assert!(m.skipped_records > 0, "5% of 1000 records must inject");
        assert_eq!(
            sorted_output(&clean, "out/sum"),
            sorted_output(&budgeted, "out/sum"),
            "skipped garbage must not change results"
        );

        // Same corruption, zero budget: the job aborts, not retryably.
        let mut strict = cluster();
        strict.config.corruption = Some(model);
        load_pairs(&mut strict);
        let e = run_job(&mut strict, &tolerant_sum_job(2)).unwrap_err();
        assert!(matches!(
            e,
            MapRedError::TooManyBadRecords { budget: 0, .. }
        ));
    }

    #[test]
    fn blacklist_shrinks_reduce_slots_not_results() {
        let mk = |blacklist: bool| {
            let mut c = cluster();
            c.config.hdfs_block_mb = 0.001; // several tasks → some failures
            c.config.failures = Some(crate::config::FailureModel {
                probability: 0.3,
                seed: 21,
            });
            if blacklist {
                // One strike is enough here; the default Hadoop threshold
                // of 4 is exercised by config tests.
                c.config.blacklist = Some(crate::config::BlacklistPolicy { max_failures: 1 });
            }
            load_pairs(&mut c);
            let m = run_job(&mut c, &sum_job(4, false)).unwrap();
            (m, sorted_output(&c, "out/sum"))
        };
        let (open, open_out) = mk(false);
        let (listed, listed_out) = mk(true);
        assert_eq!(open_out, listed_out);
        assert_eq!(open.blacklisted_nodes, 0);
        assert!(
            open.failed_attempts > 0,
            "failures must fire for the test to mean anything"
        );
        assert!(
            listed.blacklisted_nodes > 0,
            "a failed task must trip the 1-strike rule"
        );
        assert!(
            listed.reduce_time_s > open.reduce_time_s,
            "blacklisted nodes shrink the reduce slot pool"
        );
    }

    #[test]
    fn corruption_same_seed_identical_metrics() {
        let run = || {
            let mut c = cluster();
            c.config.hdfs_block_mb = 0.0001;
            c.config.corruption = Some(crate::config::CorruptionModel::uniform(0.1, 3));
            c.config.skip_bad_records = 10_000;
            load_pairs(&mut c);
            let m = run_job(&mut c, &tolerant_sum_job(3)).unwrap();
            (
                sorted_output(&c, "out/sum"),
                m.corrupt_blocks_detected,
                m.refetched_segments,
                m.skipped_records,
                m.total_s(),
            )
        };
        assert_eq!(run(), run());
    }

    /// When some reduce tasks of a columnar job pack frames and others
    /// write text — their records differ in width — the file is text: the
    /// frames are rendered back to their lines, every record kept, in task
    /// order.
    #[test]
    fn frame_and_text_tasks_write_one_text_file() {
        let partition = |k: i64| crate::hash::partition(&row![k], 2);
        struct WidthReducer;
        impl Reducer for WidthReducer {
            fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
                let k = key.get(0).unwrap().clone();
                out.emit_row(row![k.clone(), "u", values.len() as i64]);
                // Partition 1's records differ in width, partition 0's not.
                if crate::hash::partition(key, 2) == 1 {
                    out.emit_tagged_row(7, row![k]);
                }
            }
        }
        let mut c = Cluster::new(ClusterConfig {
            data_format: DataFormat::Columnar,
            ..ClusterConfig::default()
        });
        load_pairs(&mut c);
        let spec = JobSpec::builder("widths")
            .input("data/t", || Box::new(KvMapper))
            .reducer(|| Box::new(WidthReducer))
            .output("out/w")
            .reduce_tasks(2)
            .build();
        run_job(&mut c, &spec).unwrap();
        let mut want = Vec::new();
        for p in 0..2 {
            for k in (0..10).filter(|&k| partition(k) == p) {
                want.push(format!("{k}|u|100"));
                if p == 1 {
                    want.push(format!("7|{k}"));
                }
            }
        }
        assert!((0..10).any(|k| partition(k) == 0) && (0..10).any(|k| partition(k) == 1));
        let file = c.hdfs.get("out/w").unwrap();
        assert!(file.frames.is_empty(), "one format: text");
        assert_eq!(file.lines, want);
    }

    #[test]
    fn null_keys_group_together() {
        struct NullKeyMapper;
        impl Mapper for NullKeyMapper {
            fn map(&mut self, line: &str, out: &mut MapOutput) {
                let (_, v) = line.split_once('|').unwrap();
                out.emit(Row::new(vec![Value::Null]), row![v.parse::<i64>().unwrap()]);
            }
        }
        let mut c = cluster();
        c.load_table("t", vec!["a|1".into(), "b|2".into()]);
        let spec = JobSpec::builder("nulls")
            .input("data/t", || Box::new(NullKeyMapper))
            .reducer(|| Box::new(SumReducer))
            .output("out/n")
            .reduce_tasks(4)
            .build();
        run_job(&mut c, &spec).unwrap();
        assert_eq!(c.hdfs.get("out/n").unwrap().lines, vec!["NULL|3"]);
    }
}
