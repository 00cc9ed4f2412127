//! End-to-end fault-tolerance invariance: node-loss injection, chain retry
//! with backoff, and checkpointed recovery must change *simulated time*
//! only — every answer is checked against the relational oracle.

use std::collections::BTreeMap;

use ysmart::core::{Strategy, YSmart};
use ysmart::mapred::{ClusterConfig, NodeFailureModel, RetryPolicy};
use ysmart::plan::build_plan;
use ysmart::queries::workloads::Workload;
use ysmart::queries::{clicks_workloads, oracle_execute, rows_approx_equal};
use ysmart::rel::Row;
use ysmart::sql::parse;

fn workload() -> Workload {
    clicks_workloads(&ysmart::datagen::ClicksSpec {
        users: 12,
        clicks_per_user: 15,
        seed: 6,
        ..ysmart::datagen::ClicksSpec::default()
    })
    .into_iter()
    .find(|w| w.name == "q-csa")
    .unwrap()
}

fn oracle_rows(w: &Workload) -> Vec<Row> {
    let plan = build_plan(&w.catalog, &parse(&w.sql).unwrap()).unwrap();
    let tables: BTreeMap<String, Vec<Row>> = w
        .tables
        .iter()
        .map(|(n, rows)| ((*n).to_string(), rows.clone()))
        .collect();
    oracle_execute(&plan, &tables).unwrap().rows
}

/// The healthy cluster every run starts from: small blocks create enough
/// map tasks for the injectors to hit.
fn healthy() -> ClusterConfig {
    ClusterConfig {
        hdfs_block_mb: 0.0005,
        ..ClusterConfig::default()
    }
}

fn run(w: &Workload, strategy: Strategy, cfg: ClusterConfig) -> ysmart::core::QueryOutcome {
    let mut engine = YSmart::new(w.catalog.clone(), cfg);
    w.load_into(&mut engine).unwrap();
    engine.execute_sql(&w.sql, strategy).unwrap()
}

/// Sweep node-failure probability and seed; every run — including those
/// that lost nodes or retried whole jobs — must match the oracle exactly,
/// and injected runs must cost more simulated time than the clean run.
#[test]
fn node_failures_never_change_answers() {
    let w = workload();
    let expected = oracle_rows(&w);
    let clean = run(&w, Strategy::YSmart, healthy());
    assert!(rows_approx_equal(&clean.rows, &expected, false));

    let mut saw_node_loss = false;
    let mut saw_reexecution = false;
    let mut saw_retry = false;
    for probability in [0.15, 0.35, 0.6] {
        for seed in 0..6u64 {
            let faults = ClusterConfig {
                // The sweep must survive even unlucky seeds, so retry hard.
                retry: Some(RetryPolicy {
                    max_retries: 24,
                    backoff_base_s: 5.0,
                    backoff_factor: 2.0,
                    ..RetryPolicy::default()
                }),
                ..healthy().injected(probability, seed)
            };
            let out = run(&w, Strategy::YSmart, faults);
            assert!(
                rows_approx_equal(&out.rows, &expected, false),
                "p={probability} seed={seed} changed the answer"
            );
            let nodes_lost: usize = out.metrics.jobs.iter().map(|j| j.nodes_lost).sum();
            if nodes_lost > 0 {
                saw_node_loss = true;
            }
            // A dead node may happen to hold no tasks; when it did hold
            // some, the re-execution must be visible and must cost time.
            if out.metrics.total_reexecuted_tasks() > 0 {
                saw_reexecution = true;
                assert!(
                    out.metrics.jobs.iter().map(|j| j.wasted_s).sum::<f64>() > 0.0,
                    "p={probability} seed={seed}: re-execution without waste"
                );
                assert!(
                    out.total_s() > clean.total_s(),
                    "p={probability} seed={seed}: recovery must cost time"
                );
            }
            if out.metrics.retries > 0 {
                saw_retry = true;
                assert!(out.metrics.backoff_delay_s > 0.0);
                assert!(out.metrics.failed_attempt_s > 0.0);
            }
        }
    }
    assert!(saw_node_loss, "the sweep must exercise node loss");
    assert!(saw_reexecution, "the sweep must re-execute lost tasks");
    assert!(saw_retry, "the sweep must exercise whole-job retries");
}

/// Hive's longer chains recover from the checkpoint: a mid-chain failure
/// re-runs only the failed job, earlier outputs stay in HDFS, and the final
/// answer still matches the oracle.
#[test]
fn checkpointed_chain_recovery_matches_oracle() {
    let w = workload();
    let expected = oracle_rows(&w);
    let mut saw_midchain_recovery = false;
    for seed in 0..12u64 {
        let faults = ClusterConfig {
            node_failures: Some(NodeFailureModel {
                probability: 0.5,
                seed,
            }),
            retry: Some(RetryPolicy {
                max_retries: 24,
                backoff_base_s: 5.0,
                backoff_factor: 2.0,
                ..RetryPolicy::default()
            }),
            ..healthy()
        };
        let out = run(&w, Strategy::Hive, faults);
        assert!(
            rows_approx_equal(&out.rows, &expected, false),
            "seed={seed} changed the answer"
        );
        assert!(out.jobs > 1, "Hive must run a multi-job chain");
        // A later job retried while an earlier one succeeded first try:
        // the chain resumed from its checkpoint.
        if out.metrics.jobs[0].attempt == 0
            && out.metrics.jobs.iter().skip(1).any(|j| j.attempt > 0)
        {
            saw_midchain_recovery = true;
        }
    }
    assert!(
        saw_midchain_recovery,
        "12 seeds at p=0.5 must recover mid-chain at least once"
    );
}

/// Byte corruption end to end: checksummed blocks fail over, shuffle
/// segments are re-fetched, torn records are skipped — and every answer
/// still matches the relational oracle bit for bit, for both translators.
#[test]
fn corruption_never_changes_answers() {
    let w = workload();
    let expected = oracle_rows(&w);
    let mut events = 0u64;
    for strategy in [Strategy::YSmart, Strategy::Hive] {
        for rate in [0.0, 0.01, 0.05] {
            for seed in 0..3u64 {
                let out = run(&w, strategy, healthy().corrupted(rate, seed));
                assert!(
                    rows_approx_equal(&out.rows, &expected, false),
                    "{strategy} rate={rate} seed={seed} changed the answer"
                );
                let run_events = out.metrics.total_integrity_events();
                if rate == 0.0 {
                    assert_eq!(
                        run_events, 0,
                        "{strategy} seed={seed}: clean run saw events"
                    );
                }
                // With a corruption model configured the checksum pass is
                // always paid, whether or not it catches anything.
                assert!(out.metrics.total_verify_s() > 0.0);
                events += run_events;
            }
        }
    }
    assert!(events > 0, "the sweep must exercise integrity recovery");
}

/// Without injection every recovery field is zero, end to end.
#[test]
fn recovery_fields_zero_end_to_end_without_injection() {
    let w = workload();
    let out = run(&w, Strategy::YSmart, healthy());
    assert_eq!(out.metrics.retries, 0);
    assert_eq!(out.metrics.backoff_delay_s, 0.0);
    assert_eq!(out.metrics.failed_attempt_s, 0.0);
    assert_eq!(out.metrics.recovery_s(), 0.0);
    assert_eq!(out.metrics.total_reexecuted_tasks(), 0);
    for j in &out.metrics.jobs {
        assert_eq!(j.nodes_lost, 0);
        assert_eq!(j.wasted_s, 0.0);
        assert_eq!(j.attempt, 0);
    }
}
