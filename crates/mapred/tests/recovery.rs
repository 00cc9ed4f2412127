//! Crash recovery integration tests: every journal byte prefix is a valid
//! recovery point that replays to a workload bit-identical to the
//! uninterrupted run; suspended chain sessions resume bit-identically at
//! every step; the journal codec survives adversarial bytes.

use proptest::prelude::*;
use ysmart_mapred::journal::{recover, Journal, JournalRecord, JOURNAL_MAGIC};
use ysmart_mapred::scheduler::{
    run_workload_with, Disposition, QueryRequest, SchedulerConfig, TenantSpec, WorkloadReport,
    WorkloadRun,
};
use ysmart_mapred::{
    ChainSession, ChainStep, Cluster, ClusterConfig, CorruptionModel, FailureModel, JobChain,
    JobSpec, MapOutput, MapRedError, Mapper, NodeFailureModel, ReduceOutput, Reducer, RetryPolicy,
    StragglerModel,
};
use ysmart_rel::{row, Row};

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
        out.emit_row(row![key.get(0).unwrap().clone(), s]);
    }
}

fn sum_job(name: &str, input: &str, output: &str) -> JobSpec {
    JobSpec::builder(name)
        .input(input, || Box::new(KvMapper))
        .reducer(|| Box::new(SumReducer))
        .output(output)
        .reduce_tasks(3)
        .build()
}

fn chain(tag: &str, jobs: usize) -> JobChain {
    let mut c = JobChain::new();
    let mut input = "data/t".to_string();
    for j in 0..jobs {
        let output = if j + 1 == jobs {
            format!("out/{tag}")
        } else {
            format!("tmp/{tag}-{j}")
        };
        c.push(sum_job(&format!("{tag}-j{j}"), &input, &output));
        input.clone_from(&output);
    }
    c
}

fn load(c: &mut Cluster) {
    let lines: Vec<String> = (0..300).map(|i| format!("{}|1", i % 15)).collect();
    c.load_table("t", lines);
}

/// The determinism suite's fault soup: stragglers, task failures, node
/// loss, byte corruption, jittered retries — so the journal sweep covers
/// retried attempts and failure dispositions, not just the happy path.
fn faulty_config(threads: Option<usize>, seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: 6,
        hdfs_block_mb: 0.0003,
        size_multiplier: 20_000.0,
        exec_threads: threads,
        stragglers: Some(StragglerModel {
            probability: 0.2,
            slowdown: 5.0,
            speculative: true,
            seed,
        }),
        failures: Some(FailureModel {
            probability: 0.1,
            seed: seed ^ 0xBEEF,
        }),
        node_failures: Some(NodeFailureModel {
            probability: 0.05,
            seed: seed ^ 0xF00D,
        }),
        corruption: Some(CorruptionModel {
            block_rate: 0.03,
            segment_rate: 0.03,
            record_rate: 0.01,
            seed: seed ^ 0xC0DE,
        }),
        skip_bad_records: 1_000_000,
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

fn sched_config() -> SchedulerConfig {
    SchedulerConfig {
        max_running: 2,
        tenants: vec![
            TenantSpec::new("alpha", 4, 16).weight(2),
            TenantSpec::new("beta", 4, 16),
        ],
        trace: false,
    }
}

/// The sweep workload: two tenants, chains of 1–3 jobs, one query with a
/// deadline tight enough to cancel under the fault soup.
fn requests() -> Vec<QueryRequest> {
    (0..5)
        .map(|i| {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            QueryRequest {
                tenant: tenant.into(),
                label: format!("q{i}"),
                chain: chain(&format!("q{i}"), 1 + i % 3),
                seed: 1000 + i as u64,
                deadline_s: if i == 3 { Some(8.0) } else { Some(10_000.0) },
                submit_s: i as f64,
            }
        })
        .collect()
}

/// Bit-faithful per-query summary: disposition, timings, metrics (f64
/// Debug is shortest-roundtrip, so distinct bits render distinctly) and
/// sorted output rows for completions.
fn summarize(cluster: &Cluster, report: &WorkloadReport) -> Vec<String> {
    report
        .reports
        .iter()
        .map(|r| {
            let rows = match &r.disposition {
                Disposition::Completed(o) => {
                    let mut lines = cluster.hdfs.get(&o.final_output).unwrap().lines.clone();
                    lines.sort();
                    lines.join(",")
                }
                other => format!("{other:?}"),
            };
            format!(
                "{} admitted={:?} done={} metrics={:?} rows={rows}",
                r.label,
                r.admitted_s,
                r.done_s,
                r.metrics()
            )
        })
        .collect()
}

/// Runs the baseline workload with a journal; returns the journal bytes
/// and the uninterrupted summary.
fn journaled_baseline() -> (Vec<u8>, Vec<String>) {
    let mut cluster = Cluster::new(faulty_config(Some(2), 42));
    load(&mut cluster);
    let mut journal = Journal::in_memory();
    let run = WorkloadRun {
        journal: Some(&mut journal),
        ..WorkloadRun::default()
    };
    let (report, _) = run_workload_with(&mut cluster, &sched_config(), requests(), run);
    let summary = summarize(&cluster, &report);
    (journal.bytes().to_vec(), summary)
}

/// Offsets of every record frame boundary (including the magic-only
/// prefix and the full length).
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![JOURNAL_MAGIC.len()];
    let mut off = JOURNAL_MAGIC.len();
    while off + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 12 + len;
        boundaries.push(off);
    }
    assert_eq!(*boundaries.last().unwrap(), bytes.len());
    boundaries
}

fn job_done_count(records: &[JournalRecord]) -> usize {
    records
        .iter()
        .filter(|r| matches!(r, JournalRecord::JobDone { .. }))
        .count()
}

/// The headline guarantee: kill the workload at any journaled commit
/// point, recover from the byte prefix, and the replayed workload is
/// bit-identical to the uninterrupted run — dispositions, timings, full
/// metrics and result rows — while fast-forwarding exactly the journaled
/// jobs and re-executing only work past the last checkpoint.
#[test]
fn every_journal_prefix_replays_bit_identically() {
    let (bytes, baseline) = journaled_baseline();
    let boundaries = frame_boundaries(&bytes);
    let total_commits = {
        let full = recover(&bytes).unwrap();
        job_done_count(&full.records)
    };
    assert!(total_commits >= 3, "sweep needs several commit points");
    for &cut in &boundaries {
        let recovered = recover(&bytes[..cut]).unwrap();
        assert_eq!(recovered.valid_len, cut);
        let mut cluster = Cluster::new(faulty_config(Some(2), 42));
        load(&mut cluster);
        let mut epoch = Journal::in_memory();
        let run = WorkloadRun {
            journal: Some(&mut epoch),
            recovered: &recovered.records,
            ..WorkloadRun::default()
        };
        let (report, stats) = run_workload_with(&mut cluster, &sched_config(), requests(), run);
        let summary = summarize(&cluster, &report);
        assert_eq!(summary, baseline, "divergence recovering at byte {cut}");
        // Replayed exactly the journaled commits; executed only the rest.
        assert_eq!(
            stats.jobs_replayed,
            job_done_count(&recovered.records),
            "fast-forward count at byte {cut}"
        );
        assert_eq!(
            stats.jobs_replayed + stats.jobs_executed,
            total_commits,
            "wasted work at byte {cut}"
        );
        // The new epoch re-journals the identical record stream, so a
        // second crash recovers from the same structure.
        let rejournaled = recover(epoch.bytes()).unwrap();
        let full = recover(&bytes).unwrap();
        assert_eq!(
            format!("{:?}", rejournaled.records),
            format!("{:?}", full.records),
            "re-journaled epoch diverged at byte {cut}"
        );
    }
}

/// A cut *inside* a frame is a torn tail: recovery truncates to the
/// preceding boundary — never a panic, never a garbage record.
#[test]
fn torn_cuts_truncate_to_the_previous_boundary() {
    let (bytes, _) = journaled_baseline();
    let boundaries = frame_boundaries(&bytes);
    for (i, &b) in boundaries.iter().enumerate().skip(1) {
        let prev = boundaries[i - 1];
        for cut in [prev + 1, prev + 7, b - 1] {
            if cut <= prev || cut >= b {
                continue;
            }
            let recovered = recover(&bytes[..cut]).unwrap();
            assert_eq!(recovered.valid_len, prev, "torn cut at byte {cut}");
            assert_eq!(recovered.truncated_bytes, cut - prev);
        }
    }
}

/// Suspend/resume property (exhaustive): cloning a [`ChainSession`] and
/// its [`Cluster`] at *every* step boundary and resuming the clones yields
/// results, metrics and trace JSON bit-identical to the uninterrupted
/// run, across serial, fixed and auto thread pools.
#[test]
fn chain_session_suspends_and_resumes_bit_identically_at_every_step() {
    for threads in [Some(1), Some(4), None] {
        let jobs = chain("s", 3);
        let baseline =
            run_session_to_end(ChainSession::with_tracing(7), fresh_cluster(threads), &jobs);
        // Count baseline steps by re-running.
        let total_steps = baseline.2;
        assert!(total_steps >= 3, "chain should take several steps");
        for suspend_at in 0..total_steps {
            let mut session = ChainSession::with_tracing(7);
            let mut cluster = fresh_cluster(threads);
            for _ in 0..suspend_at {
                let step = session.step(&mut cluster, &jobs);
                assert!(
                    matches!(step, ChainStep::Advanced | ChainStep::Backoff { .. }),
                    "chain ended before the suspension point"
                );
            }
            // Suspend: the clones are the snapshot; the originals are
            // dropped (a crashed process).
            let resumed = run_session_to_end(session.clone(), cluster.clone(), &jobs);
            assert_eq!(
                (&resumed.0, &resumed.1),
                (&baseline.0, &baseline.1),
                "resume diverged (threads {threads:?}, suspended at step {suspend_at})"
            );
            assert_eq!(
                suspend_at + resumed.2,
                total_steps,
                "resume repeated or skipped steps (threads {threads:?}, at {suspend_at})"
            );
        }
    }
}

fn fresh_cluster(threads: Option<usize>) -> Cluster {
    let mut c = Cluster::new(faulty_config(threads, 42));
    load(&mut c);
    c
}

/// Steps a session to its end; returns (summary, trace JSON, steps
/// taken). The summary covers outcome, final rows and full metrics.
fn run_session_to_end(
    mut session: ChainSession,
    mut cluster: Cluster,
    jobs: &JobChain,
) -> (String, String, usize) {
    let mut steps = 0;
    loop {
        let step = session.step(&mut cluster, jobs);
        steps += 1;
        match step {
            ChainStep::Advanced | ChainStep::Backoff { .. } => {}
            ChainStep::Finished => {
                let outcome = session.into_outcome();
                let mut rows = cluster
                    .hdfs
                    .get(&outcome.final_output)
                    .unwrap()
                    .lines
                    .clone();
                rows.sort();
                let trace = outcome.trace.map(|t| t.to_chrome_json());
                return (
                    format!("ok metrics={:?} rows={}", outcome.metrics, rows.join(",")),
                    trace.unwrap_or_default(),
                    steps,
                );
            }
            ChainStep::Failed => {
                let failure = session.into_failure(&mut cluster);
                let trace = failure.trace.as_ref().map(|t| t.to_chrome_json());
                return (
                    format!("err {:?} metrics={:?}", failure.error, failure.metrics),
                    trace.unwrap_or_default(),
                    steps,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The journal codec never panics, whatever bytes it is fed.
    #[test]
    fn recover_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = recover(&bytes);
    }

    /// Flipping any byte of a valid journal yields a typed error or a
    /// clean record prefix — never a panic, never extra records.
    #[test]
    fn byte_flips_never_admit_garbage(pos in 0usize..10_000, xor in 1u8..=255) {
        let (bytes, _) = journal_fixture();
        let n = recover(&bytes).unwrap().records.len();
        let mut mutated = bytes.clone();
        let pos = pos % mutated.len();
        mutated[pos] ^= xor;
        match recover(&mutated) {
            Err(MapRedError::JournalCorrupt { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
            Ok(r) => prop_assert!(r.records.len() <= n),
        }
    }
}

/// A small cached journal for the byte-flip property (building one is
/// expensive relative to a proptest case).
fn journal_fixture() -> (Vec<u8>, Vec<String>) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(Vec<u8>, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(journaled_baseline).clone()
}
