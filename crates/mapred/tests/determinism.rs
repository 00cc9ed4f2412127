//! Thread-count independence of the execution engine.
//!
//! The map and reduce phases run on real threads (`ClusterConfig::
//! exec_threads`), but every source of randomness is seeded per task /
//! partition index and all floating-point accumulation happens in index
//! order after the threads join. These tests pin the resulting guarantee:
//! output lines AND `JobMetrics` are bit-identical whatever the thread
//! count — including under straggler, task-failure, node-loss and
//! data-corruption injection combined, where per-task RNG draws decide
//! simulated times (and, for corruption, which bytes get flipped).
//!
//! The mappers skip unparseable lines via `record_bad` instead of
//! panicking: the corruption model injects torn records, and skipping them
//! is exactly the robustness the engine's bad-record budget models.

use ysmart_mapred::{
    chain_seed, validate_chrome_trace, ChainMetrics, ChainSession, JobMetrics, Mapper, Trace,
};
use ysmart_mapred::{
    run_chain, Cluster, ClusterConfig, CorruptionModel, DataFormat, FailureModel, JobChain,
    JobSpec, MapOutput, NodeFailureModel, ReduceOutput, Reducer, RetryPolicy, StragglerModel,
};
use ysmart_rel::codec::encode_line;
use ysmart_rel::colbatch::decode_frames;
use ysmart_rel::{row, Row};

const FORMATS: [DataFormat; 2] = [DataFormat::Text, DataFormat::Columnar];

struct KvMapper;
impl Mapper for KvMapper {
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

struct SumReducer;
impl Reducer for SumReducer {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        let s: i64 = values
            .iter()
            .map(|v| v.get(0).unwrap().as_int().unwrap())
            .sum();
        // A typed row: rendered as "k|s" in text mode, packed into a
        // columnar frame otherwise.
        out.emit_row(row![key.get(0).unwrap().clone(), s]);
    }
}

struct IdentityMapper;
impl Mapper for IdentityMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        let parsed = line
            .split_once('|')
            .and_then(|(k, v)| Some((k.parse::<i64>().ok()?, v.parse::<i64>().ok()?)));
        match parsed {
            Some((k, v)) => out.emit(row![k % 7], row![v]),
            None => out.record_bad(),
        }
    }
}

fn two_job_chain() -> JobChain {
    let mut chain = JobChain::new();
    chain.push(
        JobSpec::builder("j1")
            .input("data/t", || Box::new(KvMapper))
            .reducer(|| Box::new(SumReducer))
            .output("tmp/j1")
            .reduce_tasks(5)
            .build(),
    );
    chain.push(
        JobSpec::builder("j2")
            .input("tmp/j1", || Box::new(IdentityMapper))
            .reducer(|| Box::new(SumReducer))
            .output("out/final")
            .reduce_tasks(3)
            .build(),
    );
    chain
}

/// Tiny HDFS blocks force many map tasks, so the threaded path actually
/// chunks work across workers instead of degenerating to one slice.
fn config(threads: Option<usize>, seed: u64, format: DataFormat) -> ClusterConfig {
    ClusterConfig {
        nodes: 6,
        hdfs_block_mb: 0.0002, // ~200 real bytes per split
        size_multiplier: 50_000.0,
        exec_threads: threads,
        data_format: format,
        stragglers: Some(StragglerModel {
            probability: 0.2,
            slowdown: 5.0,
            speculative: true,
            seed,
        }),
        failures: Some(FailureModel {
            probability: 0.15,
            seed: seed ^ 0xBEEF,
        }),
        node_failures: Some(NodeFailureModel {
            probability: 0.08,
            seed: seed ^ 0xF00D,
        }),
        // Byte corruption on top of the clock faults: block bit-flips with
        // replica failover, shuffle-segment refetches and torn records —
        // all seeded per task/partition index, so they too must be
        // schedule-independent.
        corruption: Some(CorruptionModel {
            block_rate: 0.05,
            segment_rate: 0.05,
            record_rate: 0.02,
            seed: seed ^ 0xC0DE,
        }),
        skip_bad_records: 1_000_000,
        // Jittered backoff: the jitter derives from the chain seed, never
        // thread timing, so it must be bit-identical across exec_threads
        // like everything else here.
        retry: Some(RetryPolicy {
            max_retries: 8,
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
            jitter: 0.5,
            ..RetryPolicy::default()
        }),
        ..ClusterConfig::default()
    }
}

/// Loads the input table in the cluster's configured format (typed rows:
/// text lines or columnar frames, byte-identical text either way).
fn load_input(cluster: &mut Cluster) {
    let rows: Vec<Row> = (0..800i64).map(|i| row![i % 40, i]).collect();
    cluster.load_table_rows("t", &rows);
}

/// The stored bytes of an output file: text lines and raw columnar
/// frames. Comparing both proves bit-identity in either format.
fn stored(cluster: &Cluster, path: &str) -> (Vec<String>, Vec<Vec<u8>>) {
    let file = cluster.hdfs.get(path).unwrap();
    (file.lines.clone(), file.frames.clone())
}

/// Renders an output file to canonical text lines regardless of format —
/// the cross-format comparison key.
fn canonical(lines: &[String], frames: &[Vec<u8>]) -> Vec<String> {
    if frames.is_empty() {
        lines.to_vec()
    } else {
        decode_frames(frames)
            .expect("stored frames decode")
            .iter()
            .map(encode_line)
            .collect()
    }
}

/// Runs the chain under `threads` and returns (output lines, output
/// frames, per-job metrics).
#[allow(clippy::type_complexity)]
fn run(
    threads: Option<usize>,
    seed: u64,
    format: DataFormat,
) -> (Vec<String>, Vec<Vec<u8>>, Vec<JobMetrics>) {
    let mut cluster = Cluster::new(config(threads, seed, format));
    load_input(&mut cluster);
    let outcome = run_chain(&mut cluster, &two_job_chain()).expect("chain");
    let (lines, frames) = stored(&cluster, "out/final");
    (lines, frames, outcome.metrics.jobs)
}

#[test]
fn threaded_execution_is_bit_identical_to_serial() {
    // None resolves to the machine's core count; 1 forces the serial path;
    // 4 exercises chunked scoped threads regardless of the host. Both data
    // formats must hold the guarantee, down to the raw frame bytes.
    for format in FORMATS {
        let (serial_lines, serial_frames, serial_metrics) = run(Some(1), 42, format);
        for threads in [None, Some(4)] {
            let (lines, frames, metrics) = run(threads, 42, format);
            assert_eq!(
                lines, serial_lines,
                "{format:?}: lines differ under {threads:?}"
            );
            assert_eq!(
                frames, serial_frames,
                "{format:?}: frames differ under {threads:?}"
            );
            assert_eq!(
                metrics, serial_metrics,
                "{format:?}: metrics differ under {threads:?}"
            );
        }
    }
}

#[test]
fn formats_agree_on_canonical_output() {
    // Text and columnar runs store different bytes but must decode to the
    // same records, fault injection and all (torn-record injection never
    // drops real records in either format).
    for seed in [42u64, 7] {
        let (tl, tf, tm) = run(Some(4), seed, DataFormat::Text);
        let (cl, cf, cm) = run(Some(4), seed, DataFormat::Columnar);
        assert!(
            tf.is_empty() && !cf.is_empty(),
            "formats must differ on disk"
        );
        assert_eq!(
            canonical(&tl, &tf),
            canonical(&cl, &cf),
            "seed {seed}: canonical outputs differ across formats"
        );
        assert_eq!(tm.iter().map(|j| j.encoded_bytes).sum::<u64>(), 0);
        assert!(
            cm.iter().all(|j| j.encoded_bytes > 0),
            "columnar jobs account frame bytes"
        );
    }
}

#[test]
fn determinism_holds_across_fault_seeds() {
    // Sweep seeds so different straggler/failure/node-loss draws (including
    // retried attempts) all stay schedule-independent.
    for format in FORMATS {
        for seed in [1u64, 7, 99, 1234, 777_777] {
            let (serial_lines, serial_frames, serial_metrics) = run(Some(1), seed, format);
            let (lines, frames, metrics) = run(Some(4), seed, format);
            assert_eq!(lines, serial_lines, "{format:?} seed {seed}: lines differ");
            assert_eq!(
                frames, serial_frames,
                "{format:?} seed {seed}: frames differ"
            );
            assert_eq!(
                metrics, serial_metrics,
                "{format:?} seed {seed}: metrics differ"
            );
        }
    }
}

#[test]
fn corruption_events_fire_in_the_combined_sweep() {
    // The thread-count comparisons above are only meaningful if injected
    // corruption actually does something at these rates.
    for format in FORMATS {
        let (_, _, metrics) = run(Some(1), 42, format);
        let events: u64 = metrics
            .iter()
            .map(|j| j.corrupt_blocks_detected + j.refetched_segments + j.skipped_records)
            .sum();
        assert!(
            events > 0,
            "{format:?}: corruption must fire in the combined config"
        );
        assert!(metrics.iter().any(|j| j.verify_s > 0.0), "{format:?}");
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same configuration twice: the whole pipeline (RNG draws included)
    // must reproduce exactly — no hidden global state.
    for format in FORMATS {
        let a = run(None, 5, format);
        let b = run(None, 5, format);
        assert_eq!(a, b, "{format:?}");
    }
}

/// Runs the chain with tracing enabled and returns the trace plus the
/// chain metrics.
fn run_traced(threads: Option<usize>, seed: u64, format: DataFormat) -> (Trace, ChainMetrics) {
    let mut cluster = Cluster::new(config(threads, seed, format));
    load_input(&mut cluster);
    let chain = two_job_chain();
    let outcome = ChainSession::with_tracing(chain_seed(&chain))
        .run(&mut cluster, &chain)
        .expect("chain");
    let trace = *outcome.trace.expect("tracing was enabled");
    (trace, outcome.metrics)
}

#[test]
fn trace_is_bit_identical_across_thread_counts() {
    // Span emission keys on simulated time and task index, never wall
    // clock or thread interleaving — so the exported JSON must match to
    // the byte under any thread count, even with every fault model firing.
    for format in FORMATS {
        for seed in [42u64, 7] {
            let (serial, _) = run_traced(Some(1), seed, format);
            let serial_json = serial.to_chrome_json();
            for threads in [None, Some(4)] {
                let (t, _) = run_traced(threads, seed, format);
                assert_eq!(
                    t.to_chrome_json(),
                    serial_json,
                    "{format:?} seed {seed}: trace differs under {threads:?}"
                );
            }
        }
    }
}

#[test]
fn trace_reconciles_with_chain_metrics() {
    let (trace, metrics) = run_traced(Some(1), 42, DataFormat::Columnar);
    let json = trace.to_chrome_json();
    let stats = validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(stats.span_cats.get("map").copied().unwrap_or(0) >= 1);
    assert!(stats.span_cats.get("reduce").copied().unwrap_or(0) >= 1);

    // The whole timeline's extent is the chain's simulated total.
    let total = metrics.total_s();
    assert!(
        (trace.max_end_s() - total).abs() <= 1e-6 * total.max(1.0),
        "trace extent {} vs chain total {}",
        trace.max_end_s(),
        total
    );

    // Each job's process spans exactly its phase times (successful
    // attempts commit in chain order, so job i lives on pid i+1).
    for (i, job) in metrics.jobs.iter().enumerate() {
        let pid = (i + 1) as u32;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for ev in trace.events().iter().filter(|e| e.pid == pid) {
            lo = lo.min(ev.start_s);
            hi = hi.max(ev.end_s());
        }
        let extent = hi - lo;
        let phases = job.map_time_s + job.reduce_time_s;
        assert!(
            (extent - phases).abs() <= 1e-6 * phases.max(1.0),
            "{}: span extent {} vs map+reduce {}",
            job.name,
            extent,
            phases
        );
    }

    // Every recovery event counted in the metrics must leave spans, and
    // vice versa the trace must not invent categories the run never hit.
    let has = |cat: &str| trace.events().iter().any(|e| e.cat == cat);
    if metrics.jobs.iter().any(|j| j.failed_attempts > 0) {
        assert!(has("attempt_failed"), "failed attempts need spans");
    }
    if metrics.jobs.iter().any(|j| j.reexecuted_tasks > 0) {
        assert!(has("reexec"), "node-loss re-execution needs spans");
    }
    if metrics.jobs.iter().any(|j| j.speculative_tasks > 0) {
        assert!(has("speculative"), "speculative backups need spans");
    }
    if metrics.jobs.iter().any(|j| j.verify_s > 0.0) {
        assert!(has("verify"), "checksum verification needs spans");
    }
    if metrics.retries > 0 {
        assert!(has("job_failed"), "failed job attempts need chain spans");
        assert!(has("backoff"), "retry backoff needs chain spans");
    }
    if metrics.retries == 0 {
        assert!(!has("job_failed") && !has("backoff"));
    }
}

#[test]
fn tracing_does_not_change_results_or_metrics() {
    // The observability layer observes: running with the trace recorder on
    // must leave output lines and metrics bit-identical to running off.
    for format in FORMATS {
        let (plain_lines, plain_frames, plain_metrics) = run(Some(4), 42, format);
        let mut cluster = Cluster::new(config(Some(4), 42, format));
        load_input(&mut cluster);
        let chain = two_job_chain();
        let outcome = ChainSession::with_tracing(chain_seed(&chain))
            .run(&mut cluster, &chain)
            .expect("chain");
        let (traced_lines, traced_frames) = stored(&cluster, "out/final");
        assert_eq!(traced_lines, plain_lines, "{format:?}");
        assert_eq!(traced_frames, plain_frames, "{format:?}");
        assert_eq!(outcome.metrics.jobs, plain_metrics, "{format:?}");
    }
}
