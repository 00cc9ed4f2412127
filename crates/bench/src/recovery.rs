//! Crash-recovery figure — replay cost and output equivalence vs. kill
//! point.
//!
//! Not a figure from the paper, but the robustness story behind running
//! its workload as a service: a journaled multi-query workload (the
//! click-stream evaluation queries under fault injection) is killed at
//! every point the crash model allows — the workload journal is
//! append-only, so a kill at any instant leaves exactly a byte prefix of
//! the final journal — and recovered. For each kill point the harness
//! asserts the recovered workload is **bit-identical** to the
//! uninterrupted run (dispositions, full metrics, result rows, oracle
//! agreement) and measures the recovery split: jobs fast-forwarded from
//! journaled checkpoints vs. jobs re-executed.
//!
//! The report has a JSON form. Pass `--smoke` for the CI run: at least
//! three seeded kill points, torn-tail cuts, and the journal-corruption
//! recovery check.

use std::fmt::Write as _;

use ysmart_core::{Strategy, YSmart};
use ysmart_datagen::ClicksSpec;
use ysmart_mapred::journal::{recover, Journal, JournalRecord, JOURNAL_MAGIC};
use ysmart_mapred::scheduler::{run_workload_with, WorkloadRun};
use ysmart_mapred::{
    Cluster, ClusterConfig, Disposition, FailureModel, MapRedError, QueryRequest, RetryPolicy,
    SchedulerConfig, StragglerModel, TenantSpec, WorkloadReport,
};
use ysmart_queries::clicks_workloads;

use crate::{mix, Flags, Report};

fn spec(smoke: bool) -> ClicksSpec {
    ClicksSpec {
        users: if smoke { 15 } else { 50 },
        clicks_per_user: if smoke { 12 } else { 40 },
        seed: 2025,
        ..ClicksSpec::default()
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        size_multiplier: 5_000.0,
        stragglers: Some(StragglerModel {
            probability: 0.15,
            slowdown: 4.0,
            speculative: true,
            seed: 7,
        }),
        failures: Some(FailureModel {
            probability: 0.05,
            seed: 7 ^ 0xBEEF,
        }),
        retry: Some(RetryPolicy {
            max_retries: 6,
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
            TenantSpec::new("etl", 8, 16).weight(2),
            TenantSpec::new("adhoc", 8, 16),
        ],
        trace: false,
    }
}

/// Builds the engine (clicks catalog + data, faults on) and the workload:
/// every click-stream evaluation query, round-robined over two tenants.
fn build(smoke: bool) -> (YSmart, Vec<QueryRequest>) {
    let workloads = clicks_workloads(&spec(smoke));
    let first = workloads.first().expect("click workloads");
    let mut engine = YSmart::new(first.catalog.clone(), cluster_config());
    for (name, rows) in &first.tables {
        engine.load_table(name, rows).expect("load table");
    }
    let mut requests = Vec::new();
    // Two rounds of every query: enough chains to keep both slots busy and
    // give the kill-point sweep several commit boundaries per query shape.
    let rounds: Vec<_> = workloads.iter().chain(workloads.iter()).collect();
    for (i, w) in rounds.into_iter().enumerate() {
        let translation = engine
            .translate_tagged(&w.sql, Strategy::YSmart, &format!("q{i}"))
            .expect("translate");
        let chain = engine.chain_for(&translation).expect("chain");
        requests.push(QueryRequest {
            tenant: if i % 2 == 0 { "etl" } else { "adhoc" }.into(),
            label: format!("{}-{i}", w.name),
            chain,
            seed: mix(100 + i as u64),
            deadline_s: Some(50_000.0),
            submit_s: i as f64,
        });
    }
    (engine, requests)
}

/// Bit-faithful per-query summary (f64 Debug is shortest-roundtrip).
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
                "{} done={} metrics={:?} rows={rows}",
                r.label,
                r.done_s,
                r.metrics()
            )
        })
        .collect()
}

fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![JOURNAL_MAGIC.len()];
    let mut off = JOURNAL_MAGIC.len();
    while off + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 12 + len;
        boundaries.push(off);
    }
    boundaries
}

struct KillPoint {
    cut: usize,
    records: usize,
    torn_bytes: usize,
    jobs_replayed: usize,
    jobs_executed: usize,
    identical: bool,
}

/// Kills at `cut` journal bytes, recovers on a fresh cluster, compares.
fn kill_and_recover(baseline: &[String], bytes: &[u8], cut: usize, smoke: bool) -> KillPoint {
    let recovered = recover(&bytes[..cut]).expect("prefix recovers");
    let (engine, requests) = build(smoke);
    let mut cluster = engine.cluster;
    let run = WorkloadRun {
        recovered: &recovered.records,
        ..WorkloadRun::default()
    };
    let (report, stats) = run_workload_with(&mut cluster, &sched_config(), requests, run);
    KillPoint {
        cut,
        records: recovered.records.len(),
        torn_bytes: recovered.truncated_bytes,
        jobs_replayed: stats.jobs_replayed,
        jobs_executed: stats.jobs_executed,
        identical: summarize(&cluster, &report) == *baseline,
    }
}

/// Journal-corruption recovery: a flipped byte mid-stream must surface as
/// the typed `JournalCorrupt` error (never a panic, never silent wrong
/// records), while a torn tail truncates to a clean record prefix.
fn corruption_check(r: &mut Report, bytes: &[u8]) {
    let boundaries = frame_boundaries(bytes);
    let n_records = recover(bytes).expect("full journal").records.len();
    // Flip a byte inside each of three early frames (past the last frame a
    // flip can masquerade as a torn tail, which is a legal truncation).
    let mut corrupt_seen = 0usize;
    for &b in boundaries.iter().take(3) {
        let mut mutated = bytes.to_vec();
        mutated[b + 14] ^= 0x40;
        match recover(&mutated) {
            Err(MapRedError::JournalCorrupt { offset, .. }) => {
                corrupt_seen += 1;
                r.line(&format!(
                    "corruption: flip at byte {} -> typed JournalCorrupt at offset {offset}",
                    b + 14
                ));
            }
            Err(e) => panic!("corruption must be JournalCorrupt, got {e}"),
            Ok(cut) => {
                assert!(
                    cut.records.len() < n_records,
                    "a flipped byte must never be accepted as-is"
                );
                r.line(&format!(
                    "corruption: flip at byte {} -> clean truncation to {} record(s)",
                    b + 14,
                    cut.records.len()
                ));
            }
        }
    }
    assert!(
        corrupt_seen > 0,
        "at least one mid-stream flip must be typed corruption"
    );
    // Torn tail: every mid-frame cut truncates to the previous boundary.
    let last = *boundaries.last().unwrap();
    let prev = boundaries[boundaries.len() - 2];
    let torn = recover(&bytes[..last - 3]).expect("torn tail recovers");
    assert_eq!(torn.valid_len, prev, "torn tail truncates to a boundary");
    r.line(&format!(
        "torn tail: cut at byte {} -> truncated to {} (clean prefix of {} record(s))",
        last - 3,
        prev,
        torn.records.len()
    ));
}

pub(crate) fn run(flags: &Flags, r: &mut Report) {
    let smoke = flags.smoke;
    r.line("=== Crash recovery: replay cost and equivalence vs. kill point ===");

    // Uninterrupted baseline, journaled.
    let (engine, requests) = build(smoke);
    let n_queries = requests.len();
    let mut cluster = engine.cluster;
    let mut journal = Journal::in_memory();
    let run = WorkloadRun {
        journal: Some(&mut journal),
        ..WorkloadRun::default()
    };
    let (baseline_report, _) = run_workload_with(&mut cluster, &sched_config(), requests, run);
    let baseline = summarize(&cluster, &baseline_report);
    let bytes = journal.bytes().to_vec();
    let total_commits = recover(&bytes)
        .expect("full journal")
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::JobDone { .. }))
        .count();
    r.line(&format!(
        "workload: {n_queries} queries, {total_commits} job commits, journal {} bytes",
        bytes.len()
    ));

    // Kill points: every record boundary in the full run; in smoke, a
    // seeded sample of at least three plus first/last, and torn variants.
    let boundaries = frame_boundaries(&bytes);
    let cuts: Vec<usize> = if smoke {
        let mut cuts = vec![boundaries[0], *boundaries.last().unwrap()];
        for k in 0..3u64 {
            cuts.push(boundaries[1 + (mix(k) as usize) % (boundaries.len() - 1)]);
        }
        // Torn cuts: mid-frame, recover to the previous boundary.
        cuts.push(boundaries[boundaries.len() / 2] + 5);
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    } else {
        boundaries.clone()
    };

    r.line(&format!(
        "{:>10} {:>8} {:>6} {:>9} {:>9} {:>10}",
        "kill@byte", "records", "torn", "replayed", "executed", "identical"
    ));
    let mut rows_json = Vec::new();
    for &cut in &cuts {
        let kp = kill_and_recover(&baseline, &bytes, cut, smoke);
        r.line(&format!(
            "{:>10} {:>8} {:>6} {:>9} {:>9} {:>10}",
            kp.cut, kp.records, kp.torn_bytes, kp.jobs_replayed, kp.jobs_executed, kp.identical
        ));
        assert!(
            kp.identical,
            "kill at byte {cut}: recovered workload diverged from the uninterrupted run"
        );
        assert_eq!(
            kp.jobs_replayed + kp.jobs_executed,
            total_commits,
            "kill at byte {cut}: recovery wasted or lost work"
        );
        rows_json.push(format!(
            "{{\"kill_byte\":{},\"records\":{},\"torn_bytes\":{},\"jobs_replayed\":{},\"jobs_executed\":{},\"identical\":{}}}",
            kp.cut, kp.records, kp.torn_bytes, kp.jobs_replayed, kp.jobs_executed, kp.identical
        ));
    }
    assert!(cuts.len() >= 3, "sweep needs at least three kill points");
    r.line(&format!(
        "all {} kill points recovered bit-identically; replay split covers all {} commits",
        cuts.len(),
        total_commits
    ));

    corruption_check(r, &bytes);

    let mut json = String::from("{\"kill_points\":[");
    json.push_str(&rows_json.join(","));
    let _ = write!(
        json,
        "],\"queries\":{n_queries},\"job_commits\":{total_commits},\"journal_bytes\":{}}}",
        bytes.len()
    );
    r.set_json(json);
}
