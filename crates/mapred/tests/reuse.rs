//! Workload-level cross-query result-reuse tests: repeated queries
//! fast-forward from the cache with results identical to uncached
//! execution, a capacity-0 cache is bit-identical to no cache at all,
//! tampered cached bytes fall back to re-execution (never a wrong answer),
//! eviction pressure never changes results, and the whole machinery is
//! bit-identical across `exec_threads` settings and data formats.

use ysmart_mapred::scheduler::{
    run_workload, run_workload_with, Disposition, QueryRequest, SchedulerConfig, TenantSpec,
    WorkloadReport, WorkloadRun,
};
use ysmart_mapred::{
    file_checksum, Cluster, ClusterConfig, CorruptionModel, DataFormat, JobChain, JobSpec,
    MapOutput, Mapper, ReduceOutput, Reducer, ReuseCache, ReuseConfig,
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

/// A `jobs`-long summing chain whose jobs carry explicit reuse
/// fingerprints: job `j` of logical chain `logical` fingerprints as
/// `logical * 1000 + j`, so two requests built from the same `logical`
/// are cache-equivalent however they are tagged.
fn chain(tag: &str, jobs: usize, logical: u64) -> JobChain {
    let mut c = JobChain::new();
    let mut input = "data/t".to_string();
    for j in 0..jobs {
        let output = if j + 1 == jobs {
            format!("out/{tag}")
        } else {
            format!("tmp/{tag}-{j}")
        };
        c.push(
            JobSpec::builder(&format!("{tag}-j{j}"))
                .input(&input, || Box::new(KvMapper))
                .reducer(|| Box::new(SumReducer))
                .output(&output)
                .reduce_tasks(3)
                .fingerprint(logical * 1000 + j as u64)
                .build(),
        );
        input.clone_from(&output);
    }
    c
}

fn load(c: &mut Cluster) {
    let lines: Vec<String> = (0..500).map(|i| format!("{}|1", i % 20)).collect();
    c.load_table("t", lines);
}

fn cluster(threads: Option<usize>, format: DataFormat) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        size_multiplier: 10_000.0,
        exec_threads: threads,
        data_format: format,
        ..ClusterConfig::default()
    });
    load(&mut c);
    c
}

/// One slot: strictly serial admission, so by the time a repeated query is
/// admitted its original has committed every job — full-prefix reuse.
fn serial() -> SchedulerConfig {
    SchedulerConfig {
        max_running: 1,
        tenants: vec![TenantSpec::new("t", 16, 8)],
        trace: false,
        drain_at_s: None,
    }
}

/// A [`serial`] run wired to `cache` and nothing else.
fn run_reusing(
    cluster: &mut Cluster,
    requests: Vec<QueryRequest>,
    cache: &mut ReuseCache,
) -> WorkloadReport {
    let run = WorkloadRun {
        reuse: Some(cache),
        ..WorkloadRun::default()
    };
    run_workload_with(cluster, &serial(), requests, run).0
}

fn request(tag: &str, jobs: usize, logical: u64, seed: u64, submit_s: f64) -> QueryRequest {
    QueryRequest {
        tenant: "t".into(),
        label: tag.into(),
        chain: chain(tag, jobs, logical),
        seed,
        deadline_s: None,
        submit_s,
    }
}

/// Two distinct two-job queries, then the same two logical queries again
/// under fresh tags (and fresh output paths).
fn repeated_batch() -> Vec<QueryRequest> {
    vec![
        request("q0", 2, 1, 10, 0.0),
        request("q1", 2, 2, 11, 1.0),
        request("q2", 2, 1, 12, 2.0),
        request("q3", 2, 2, 13, 3.0),
    ]
}

/// Canonical per-query digest: label, exact timings, reuse count, full
/// metrics debug and the output file's content checksum. `{}` / `{:?}` on
/// f64 print shortest-roundtrip representations, so equal digests mean
/// bit-identical reports.
fn digest(report: &WorkloadReport, cluster: &Cluster) -> Vec<String> {
    report
        .reports
        .iter()
        .map(|r| {
            let out = match &r.disposition {
                Disposition::Completed(o) => format!(
                    "{:016x}",
                    file_checksum(cluster.hdfs.get(&o.final_output).unwrap())
                ),
                other => format!("{other:?}"),
            };
            format!(
                "{} admitted={:?} done={} reused={} metrics={:?} out={out}",
                r.label,
                r.admitted_s,
                r.done_s,
                r.jobs_reused,
                r.metrics(),
            )
        })
        .collect()
}

/// Output checksums only (reuse replays the *producer's* recorded metrics,
/// so cached and uncached runs agree on results, not necessarily on every
/// per-job metric of the repeated queries).
fn outputs(report: &WorkloadReport, cluster: &Cluster) -> Vec<String> {
    report
        .reports
        .iter()
        .map(|r| match &r.disposition {
            Disposition::Completed(o) => format!(
                "{:016x}",
                file_checksum(cluster.hdfs.get(&o.final_output).unwrap())
            ),
            other => format!("{other:?}"),
        })
        .collect()
}

#[test]
fn repeated_queries_fast_forward_from_the_cache() {
    let mut plain_cluster = cluster(Some(1), DataFormat::Text);
    let plain = run_workload(&mut plain_cluster, &serial(), repeated_batch());

    let mut cached_cluster = cluster(Some(1), DataFormat::Text);
    let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
    let report = run_reusing(&mut cached_cluster, repeated_batch(), &mut cache);

    // Results are what an uncached run produces, query for query.
    assert_eq!(
        outputs(&report, &cached_cluster),
        outputs(&plain, &plain_cluster),
        "reuse must never change results"
    );
    // The repeats were fast-forwarded whole; the originals executed.
    let reused: Vec<usize> = report.reports.iter().map(|r| r.jobs_reused).collect();
    assert_eq!(reused, [0, 0, 2, 2], "both repeats reuse their full chain");
    let stats = report.reuse.expect("cache was in force");
    assert_eq!(
        (stats.hits, stats.misses, stats.insertions, stats.evictions),
        (4, 2, 4, 0),
        "2 hits per repeat; 1 leading miss per original; 4 unique jobs"
    );
    assert!(stats.reused_work_s > 0.0, "hits must bank avoided work");
    assert!((stats.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
}

#[test]
fn capacity_zero_cache_is_bit_identical_to_no_cache() {
    let mut plain_cluster = cluster(Some(1), DataFormat::Text);
    let plain = run_workload(&mut plain_cluster, &serial(), repeated_batch());

    let mut zero_cluster = cluster(Some(1), DataFormat::Text);
    let mut cache = ReuseCache::new(ReuseConfig::with_capacity(0));
    let report = run_reusing(&mut zero_cluster, repeated_batch(), &mut cache);

    assert_eq!(
        digest(&report, &zero_cluster),
        digest(&plain, &plain_cluster),
        "a disabled cache must not perturb the workload at all"
    );
    let stats = report.reuse.expect("cache was in force");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.insertions, 0);
    assert!(stats.misses > 0, "lookups happened and all missed");
}

/// A cluster whose corruption model damages cached entries at rest. Under
/// seed 1 the at-rest draw of logical chain 1's first job (the repeat's
/// lookup, the only one that finds an entry) flips a bit, while every block
/// read of the jobs themselves finds a clean replica to fail over to.
fn tampering() -> Cluster {
    let mut c = cluster(Some(1), DataFormat::Text);
    c.config.corruption = Some(CorruptionModel {
        block_rate: 0.5,
        segment_rate: 0.0,
        record_rate: 0.0,
        seed: 1,
    });
    c
}

#[test]
fn tampered_cache_entry_falls_back_to_reexecution() {
    // Batch 1 populates the cache; the repeat in batch 2 finds logical
    // chain 1's first job damaged at rest by the cluster's corruption model.
    // It must detect the checksum mismatch, evict the damaged entry and
    // re-execute — same answer, one integrity failure.
    let mut c = tampering();
    let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
    let first = run_reusing(&mut c, vec![request("q0", 2, 1, 10, 0.0)], &mut cache);
    let good = outputs(&first, &c);

    let second = run_reusing(&mut c, vec![request("q9", 2, 1, 42, 0.0)], &mut cache);

    assert_eq!(
        outputs(&second, &c),
        good,
        "fallback re-execution must reproduce the original answer"
    );
    assert_eq!(second.reports[0].jobs_reused, 0, "nothing may be reused");
    let stats = second.reuse.expect("cache was in force");
    assert_eq!(stats.integrity_failures, 1, "the tamper must be detected");
    // Re-execution re-committed fresh entries over the evicted one.
    assert!(cache.contains(1000) && cache.contains(1001));
}

#[test]
fn tiny_capacity_evicts_but_never_wrongs_results() {
    let mut plain_cluster = cluster(Some(1), DataFormat::Text);
    let plain = run_workload(&mut plain_cluster, &serial(), repeated_batch());

    // Room for roughly one job output: constant eviction churn.
    let mut small_cluster = cluster(Some(1), DataFormat::Text);
    let mut cache = ReuseCache::new(ReuseConfig::with_capacity(200));
    let report = run_reusing(&mut small_cluster, repeated_batch(), &mut cache);

    assert_eq!(
        outputs(&report, &small_cluster),
        outputs(&plain, &plain_cluster),
        "eviction pressure must never change results"
    );
    let stats = report.reuse.expect("cache was in force");
    assert!(stats.evictions > 0, "capacity 200 must churn");
    assert!(
        stats.bytes_cached <= 200,
        "the configured bound holds, got {}",
        stats.bytes_cached
    );
}

#[test]
fn reuse_is_bit_identical_across_threads_and_formats() {
    for format in [DataFormat::Text, DataFormat::Columnar] {
        let run = |threads: Option<usize>| {
            let mut c = cluster(threads, format);
            let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
            let report = run_reusing(&mut c, repeated_batch(), &mut cache);
            assert!(
                report.reports.iter().any(|r| r.jobs_reused > 0),
                "{format:?}: the cache must actually be exercised"
            );
            let stats = report.reuse.expect("cache was in force");
            (digest(&report, &c), format!("{stats:?}"))
        };
        let serial_run = run(Some(1));
        for threads in [Some(4), None] {
            assert_eq!(
                run(threads),
                serial_run,
                "{format:?}: reuse workload differs under exec_threads={threads:?}"
            );
        }
    }
}
