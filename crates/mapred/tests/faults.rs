//! Fault-tolerance integration tests: node-loss injection, retry with
//! backoff, and checkpointed chain recovery. The load-bearing invariant
//! throughout: injected faults change *simulated time*, never results.

use ysmart_mapred::{
    run_chain, run_job, Cluster, ClusterConfig, JobChain, JobSpec, MapOutput, MapRedError, Mapper,
    NodeFailureModel, ReduceOutput, Reducer, RetryPolicy, StragglerModel,
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

fn sum_job(name: &str, input: &str, output: &str) -> JobSpec {
    JobSpec::builder(name)
        .input(input, || Box::new(KvMapper))
        .reducer(|| Box::new(SumReducer))
        .output(output)
        .reduce_tasks(3)
        .build()
}

fn load(c: &mut Cluster) {
    let lines: Vec<String> = (0..500).map(|i| format!("{}|1", i % 20)).collect();
    c.load_table("t", lines);
}

fn sorted_output(c: &Cluster, path: &str) -> Vec<String> {
    let mut lines = c.hdfs.get(path).unwrap().lines.clone();
    lines.sort();
    lines
}

/// Small blocks so jobs have enough map tasks to spread over nodes.
fn many_task_config() -> ClusterConfig {
    ClusterConfig {
        nodes: 8,
        hdfs_block_mb: 0.0003, // ~300 real bytes per split
        ..ClusterConfig::default()
    }
}

#[test]
fn node_loss_charges_recovery_but_preserves_results() {
    let mut clean = Cluster::new(many_task_config());
    load(&mut clean);
    let clean_m = run_job(&mut clean, &sum_job("sum", "data/t", "out/sum")).unwrap();
    let expected = sorted_output(&clean, "out/sum");

    // Seeds are deterministic; scan a few to find an injection that kills
    // at least one (but not every) node during this job.
    let mut observed_loss = false;
    for seed in 0..30u64 {
        let mut c = Cluster::new(ClusterConfig {
            node_failures: Some(NodeFailureModel {
                probability: 0.3,
                seed,
            }),
            ..many_task_config()
        });
        load(&mut c);
        let m = run_job(&mut c, &sum_job("sum", "data/t", "out/sum")).unwrap();
        assert_eq!(sorted_output(&c, "out/sum"), expected, "seed {seed}");
        if m.nodes_lost > 0 {
            observed_loss = true;
            assert!(m.reexecuted_tasks > 0, "lost nodes must lose tasks");
            assert!(m.wasted_s > 0.0, "re-executed work must be wasted work");
            assert!(
                m.map_time_s > clean_m.map_time_s,
                "re-execution on fewer slots must cost time: {} vs {}",
                m.map_time_s,
                clean_m.map_time_s
            );
        }
    }
    assert!(
        observed_loss,
        "p=0.3 over 8 nodes × 30 seeds must kill some"
    );
}

#[test]
fn recovery_fields_zero_without_injection() {
    let mut c = Cluster::new(many_task_config());
    load(&mut c);
    let mut chain = JobChain::new();
    chain.push(sum_job("sum", "data/t", "out/sum"));
    let outcome = run_chain(&mut c, &chain).unwrap();
    let m = &outcome.metrics.jobs[0];
    assert_eq!(m.nodes_lost, 0);
    assert_eq!(m.reexecuted_tasks, 0);
    assert_eq!(m.wasted_s, 0.0);
    assert_eq!(m.attempt, 0);
    assert_eq!(outcome.metrics.retries, 0);
    assert_eq!(outcome.metrics.backoff_delay_s, 0.0);
    assert_eq!(outcome.metrics.failed_attempt_s, 0.0);
    assert_eq!(outcome.metrics.recovery_s(), 0.0);
}

#[test]
fn cluster_lost_fails_without_retry_and_recovers_with() {
    // One node, high death probability: many attempts lose the cluster.
    let faulty = |retry: Option<RetryPolicy>, seed: u64| ClusterConfig {
        nodes: 1,
        node_failures: Some(NodeFailureModel {
            probability: 0.7,
            seed,
        }),
        retry,
        ..ClusterConfig::default()
    };

    let mut failed_without_retry = false;
    let mut recovered_with_retry = false;
    for seed in 0..20u64 {
        let mut c = Cluster::new(faulty(None, seed));
        load(&mut c);
        let mut chain = JobChain::new();
        chain.push(sum_job("sum", "data/t", "out/sum"));
        let bare = run_chain(&mut c, &chain);
        if let Err(e) = &bare {
            assert!(matches!(e.error, MapRedError::ClusterLost { .. }));
            failed_without_retry = true;

            // The same injection under a retry policy must recover and
            // charge the recovery.
            let mut c2 = Cluster::new(faulty(
                Some(RetryPolicy {
                    max_retries: 24,
                    backoff_base_s: 10.0,
                    backoff_factor: 2.0,
                    ..RetryPolicy::default()
                }),
                seed,
            ));
            load(&mut c2);
            let mut chain2 = JobChain::new();
            chain2.push(sum_job("sum", "data/t", "out/sum"));
            let outcome = run_chain(&mut c2, &chain2).unwrap();
            assert_eq!(
                sorted_output(&c2, "out/sum"),
                sorted_output_of_clean(),
                "seed {seed}"
            );
            assert!(outcome.metrics.retries > 0);
            assert!(outcome.metrics.backoff_delay_s >= 10.0);
            assert!(outcome.metrics.failed_attempt_s > 0.0);
            assert!(outcome.metrics.jobs[0].attempt > 0);
            assert!(outcome.metrics.recovery_s() > 0.0);
            recovered_with_retry = true;
        }
    }
    assert!(
        failed_without_retry,
        "p=0.7 on 1 node must sometimes lose it"
    );
    assert!(recovered_with_retry);
}

fn sorted_output_of_clean() -> Vec<String> {
    let mut c = Cluster::new(ClusterConfig::default());
    load(&mut c);
    run_job(&mut c, &sum_job("sum", "data/t", "out/sum")).unwrap();
    sorted_output(&c, "out/sum")
}

#[test]
fn checkpointed_recovery_resumes_from_failed_job() {
    // Two chained jobs; find a seed where the chain retried *some* job but
    // the first job's successful attempt was its first try — proof the
    // chain resumed from the checkpoint instead of restarting job 1.
    let chain = || {
        let mut ch = JobChain::new();
        ch.push(sum_job("stage1", "data/t", "tmp/mid"));
        ch.push(sum_job("stage2", "tmp/mid", "out/final"));
        ch
    };
    let mut clean = Cluster::new(ClusterConfig::default());
    load(&mut clean);
    run_chain(&mut clean, &chain()).unwrap();
    let expected = sorted_output(&clean, "out/final");

    let mut saw_second_stage_retry = false;
    for seed in 0..60u64 {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 1,
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
            ..ClusterConfig::default()
        });
        load(&mut c);
        let outcome = run_chain(&mut c, &chain()).unwrap();
        assert_eq!(sorted_output(&c, "out/final"), expected, "seed {seed}");
        let [first, second] = &outcome.metrics.jobs[..] else {
            panic!("two jobs expected");
        };
        if first.attempt == 0 && second.attempt > 0 {
            // Job 1 succeeded once and was never re-run; job 2 failed and
            // recovered from job 1's checkpointed output in HDFS.
            assert!(outcome.metrics.retries > 0);
            assert!(outcome.metrics.backoff_delay_s > 0.0);
            saw_second_stage_retry = true;
        }
    }
    assert!(
        saw_second_stage_retry,
        "60 seeds at p=0.5 must retry stage2 after a clean stage1"
    );
}

#[test]
fn retries_are_bounded_by_the_policy() {
    // Certain death: every attempt loses the only node, so the chain must
    // give up after exactly max_retries retries.
    let mut c = Cluster::new(ClusterConfig {
        nodes: 1,
        node_failures: Some(NodeFailureModel {
            probability: 1.0,
            seed: 1,
        }),
        retry: Some(RetryPolicy {
            max_retries: 3,
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
            ..RetryPolicy::default()
        }),
        ..ClusterConfig::default()
    });
    load(&mut c);
    let mut chain = JobChain::new();
    chain.push(sum_job("sum", "data/t", "out/sum"));
    let e = run_chain(&mut c, &chain).unwrap_err();
    assert!(matches!(e.error, MapRedError::ClusterLost { .. }));
}

#[test]
fn speculative_backups_charge_slot_seconds_not_wall_clock() {
    let run = |speculative: bool| {
        let mut c = Cluster::new(ClusterConfig {
            hdfs_block_mb: 0.0003,
            stragglers: Some(StragglerModel {
                probability: 0.4,
                slowdown: 8.0,
                speculative,
                seed: 5,
            }),
            ..ClusterConfig::default()
        });
        load(&mut c);
        run_job(&mut c, &sum_job("sum", "data/t", "out/sum")).unwrap()
    };
    let rescued = run(true);
    let unrescued = run(false);
    assert!(
        rescued.speculative_tasks > 0,
        "p=0.4 must sample stragglers"
    );
    assert!(
        rescued.speculative_slot_s > 0.0,
        "backups must cost the cluster slot-seconds"
    );
    assert_eq!(unrescued.speculative_slot_s, 0.0);
    assert!(
        rescued.map_time_s + rescued.reduce_time_s < unrescued.map_time_s + unrescued.reduce_time_s,
        "rescue must beat unrescued stragglers on wall clock"
    );
}

#[test]
fn disk_full_reports_per_node_load() {
    let mut c = Cluster::new(ClusterConfig {
        nodes: 4,
        disk_capacity_mb: 0.000001, // ~1 byte per node
        ..ClusterConfig::default()
    });
    load(&mut c);
    let e = run_job(&mut c, &sum_job("sum", "data/t", "out/sum")).unwrap_err();
    let MapRedError::DiskFull {
        nodes,
        per_node_bytes,
        capacity_bytes,
    } = e
    else {
        panic!("expected DiskFull, got {e:?}");
    };
    assert_eq!(nodes, 4, "must report the modelled spread, not a fake node");
    assert!(per_node_bytes > capacity_bytes);
}

#[test]
fn disk_full_is_retryable_and_gives_up_after_backoff() {
    // DiskFull is deterministic across attempts, so retrying burns the
    // policy's budget and surfaces the original error — with the backoff
    // charged to the chain's clock (visible through the time limit).
    let mut c = Cluster::new(ClusterConfig {
        disk_capacity_mb: 0.000001,
        retry: Some(RetryPolicy::default()),
        ..ClusterConfig::default()
    });
    load(&mut c);
    let mut chain = JobChain::new();
    chain.push(sum_job("sum", "data/t", "out/sum"));
    let e = run_chain(&mut c, &chain).unwrap_err();
    assert!(matches!(e.error, MapRedError::DiskFull { .. }));
}

#[test]
fn non_retryable_error_fails_fast_despite_retry_policy() {
    // Stage 2 reads a path nothing wrote: NoSuchFile is permanent, so even
    // a generous retry policy must not burn a single retry on it — and the
    // failure must still carry stage 1's metrics.
    let mut c = Cluster::new(ClusterConfig {
        retry: Some(RetryPolicy {
            max_retries: 24,
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
            ..RetryPolicy::default()
        }),
        ..ClusterConfig::default()
    });
    load(&mut c);
    let mut chain = JobChain::new();
    chain.push(sum_job("stage1", "data/t", "tmp/mid"));
    chain.push(sum_job("stage2", "tmp/nowhere", "out/final"));
    let e = run_chain(&mut c, &chain).unwrap_err();
    assert!(matches!(e.error, MapRedError::NoSuchFile(_)));
    assert_eq!(e.metrics.retries, 0, "permanent errors must not retry");
    assert_eq!(e.metrics.backoff_delay_s, 0.0);
    assert_eq!(e.metrics.jobs.len(), 1, "stage 1 completed and is reported");
    assert_eq!(e.metrics.jobs[0].name, "stage1");
    assert!(e.metrics.jobs[0].total_s() > 0.0);
}

#[test]
fn retryable_error_without_policy_surfaces_unchanged() {
    // Certain cluster loss with retry disabled: the raw error comes
    // straight through, with no retry bookkeeping invented around it.
    let mut c = Cluster::new(ClusterConfig {
        nodes: 1,
        node_failures: Some(NodeFailureModel {
            probability: 1.0,
            seed: 9,
        }),
        retry: None,
        ..ClusterConfig::default()
    });
    load(&mut c);
    let mut chain = JobChain::new();
    chain.push(sum_job("sum", "data/t", "out/sum"));
    let e = run_chain(&mut c, &chain).unwrap_err();
    let MapRedError::ClusterLost { job, nodes } = &e.error else {
        panic!("expected ClusterLost, got {:?}", e.error);
    };
    assert_eq!((job.as_str(), *nodes), ("sum", 1));
    assert_eq!(e.metrics.retries, 0);
    assert_eq!(e.metrics.backoff_delay_s, 0.0);
    assert!(e.metrics.jobs.is_empty(), "no job completed");
    assert!(
        e.metrics.failed_attempt_s > 0.0,
        "the dead attempt's burned time is still reported"
    );
}

#[test]
fn corrupt_block_is_retryable_and_recovers_under_policy() {
    use ysmart_mapred::CorruptionModel;
    // Moderate block rate on 2 replicas: over ~9 blocks some seed loses
    // every replica of some block on the first attempt (~0.25² per block),
    // yet a retry drawing fresh corruption (the block is re-replicated)
    // still succeeds most of the time, so a capped retry budget recovers
    // with identical results.
    let expected = sorted_output_of_clean();
    let mut recovered = false;
    for seed in 0..40u64 {
        let bare = ClusterConfig {
            hdfs_block_mb: 0.0003,
            replication: 2,
            corruption: Some(CorruptionModel {
                block_rate: 0.25,
                segment_rate: 0.0,
                record_rate: 0.0,
                seed,
            }),
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(bare.clone());
        load(&mut c);
        let mut chain = JobChain::new();
        chain.push(sum_job("sum", "data/t", "out/sum"));
        let Err(e) = run_chain(&mut c, &chain) else {
            continue;
        };
        assert!(matches!(e.error, MapRedError::CorruptBlock { .. }));

        let mut c2 = Cluster::new(ClusterConfig {
            retry: Some(RetryPolicy {
                max_retries: 24,
                backoff_base_s: 1.0,
                backoff_factor: 2.0,
                ..RetryPolicy::default()
            }),
            ..bare
        });
        load(&mut c2);
        let mut chain2 = JobChain::new();
        chain2.push(sum_job("sum", "data/t", "out/sum"));
        let outcome = run_chain(&mut c2, &chain2).unwrap();
        assert_eq!(sorted_output(&c2, "out/sum"), expected, "seed {seed}");
        assert!(outcome.metrics.retries > 0);
        assert!(outcome.metrics.jobs[0].attempt > 0);
        recovered = true;
        break;
    }
    assert!(
        recovered,
        "0.25² per block over many blocks × 40 seeds must kill one"
    );
}

#[test]
fn chain_failure_carries_the_partial_trace() {
    // A chain that dies mid-way still hands back an inspectable timeline:
    // the committed first job's spans plus the failure itself.
    let mut c = Cluster::new(many_task_config());
    c.enable_tracing();
    load(&mut c);
    let mut chain = JobChain::new();
    chain.push(sum_job("ok", "data/t", "tmp/ok"));
    chain.push(sum_job("doomed", "data/nonexistent", "out/never"));
    let failure = run_chain(&mut c, &chain).unwrap_err();
    assert!(matches!(failure.error, MapRedError::NoSuchFile(_)));
    assert_eq!(failure.metrics.jobs.len(), 1, "first job completed");

    let trace = failure.trace.as_ref().expect("tracing was on");
    assert!(!trace.is_empty());
    // The committed first job's spans are in the partial trace.
    assert!(trace.events().iter().any(|e| e.cat == "map"));
    assert_eq!(trace.process_labels().len(), 1);
    ysmart_mapred::validate_chrome_trace(&trace.to_chrome_json())
        .expect("partial trace exports as valid Chrome JSON");
}

#[test]
fn chain_failure_without_tracing_has_no_trace() {
    let mut c = Cluster::new(many_task_config());
    load(&mut c);
    let mut chain = JobChain::new();
    chain.push(sum_job("doomed", "data/nonexistent", "out/never"));
    let failure = run_chain(&mut c, &chain).unwrap_err();
    assert!(failure.trace.is_none());
}

#[test]
fn panicking_tasks_fail_the_job_with_a_typed_error() {
    // A mapper that panics (instead of `record_fatal`) must fail its job,
    // not unwind through `run_job`: on the serial path, and on the threaded
    // one however many chunks panic. 64 one-line tasks; at four threads
    // lines 5 and 40 fall in different 16-task chunks.
    struct PanickyMapper;
    impl Mapper for PanickyMapper {
        fn map(&mut self, line: &str, out: &mut MapOutput) {
            assert!(!line.starts_with('!'), "marked line {line}");
            KvMapper.map(line, out);
        }
    }
    for (threads, marked) in [(4, &[5][..]), (4, &[5, 40]), (1, &[5])] {
        let mut c = Cluster::new(ClusterConfig {
            hdfs_block_mb: 1e-6,
            exec_threads: Some(threads),
            ..ClusterConfig::default()
        });
        let mark = |i| if marked.contains(&i) { "!" } else { "" };
        c.load_table("t", (0..64).map(|i| format!("{}{i}|1", mark(i))).collect());
        let spec = JobSpec::builder("panicky")
            .input("data/t", || Box::new(PanickyMapper))
            .reducer(|| Box::new(SumReducer))
            .output("out/never")
            .build();
        let run = std::panic::AssertUnwindSafe(|| run_job(&mut c, &spec));
        let outcome = std::panic::catch_unwind(run);
        match outcome.unwrap_or_else(|_| panic!("{threads} threads, {marked:?}: unwound")) {
            Err(MapRedError::User(msg)) => assert_eq!(msg, "map task panicked in job panicky"),
            other => panic!("{threads} threads, {marked:?}: {other:?}"),
        }
    }
}
