//! Multi-tenant scheduler integration tests: determinism across thread
//! counts, deadline cancellation with slot release, typed load shedding,
//! retry budgets, weighted fair share and scheduler trace lanes.

use ysmart_mapred::scheduler::{
    run_workload, Disposition, QueryRequest, SchedulerConfig, TenantSpec, WorkloadReport,
};
use ysmart_mapred::{
    run_chain, validate_chrome_trace, Cluster, ClusterConfig, CorruptionModel, FailureModel,
    JobChain, JobSpec, MapOutput, MapRedError, Mapper, NodeFailureModel, ReduceOutput, Reducer,
    RetryPolicy, StragglerModel,
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
            .map(|v| {
                v.get(0)
                    .ok()
                    .and_then(ysmart_rel::Value::as_int)
                    .unwrap_or_else(|| panic!("SumReducer: non-integer value row {v:?}"))
            })
            .sum();
        let k = key
            .get(0)
            .unwrap_or_else(|_| panic!("SumReducer: empty key row {key:?}"));
        out.emit_row(row![k.clone(), s]);
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

/// A chain of `jobs` summing jobs, reading `data/t`, writing namespaced
/// intermediates and a final `out/<tag>`.
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
    let lines: Vec<String> = (0..500).map(|i| format!("{}|1", i % 20)).collect();
    c.load_table("t", lines);
}

fn request(tenant: &str, tag: &str, jobs: usize, seed: u64, submit_s: f64) -> QueryRequest {
    QueryRequest {
        tenant: tenant.into(),
        label: tag.into(),
        chain: chain(tag, jobs),
        seed,
        deadline_s: None,
        submit_s,
    }
}

fn two_tenants(max_running: usize) -> SchedulerConfig {
    SchedulerConfig {
        max_running,
        tenants: vec![
            TenantSpec::new("alpha", 4, 16).weight(2),
            TenantSpec::new("beta", 4, 16),
        ],
        trace: false,
    }
}

/// The combined fault soup of the determinism suite: stragglers, task
/// failures, node loss, byte corruption — recovered by a jittered retry.
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

/// Runs a mixed two-tenant workload under fault injection and returns the
/// per-query dispositions (with output lines for completions) plus the
/// workload trace JSON.
fn run_faulty_workload(threads: Option<usize>) -> (Vec<String>, String) {
    let mut cluster = Cluster::new(faulty_config(threads, 42));
    load(&mut cluster);
    let mut config = two_tenants(2);
    config.trace = true;
    let requests: Vec<QueryRequest> = (0..6)
        .map(|i| {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            let mut r = request(
                tenant,
                &format!("q{i}"),
                1 + i % 3,
                1000 + i as u64,
                i as f64,
            );
            r.deadline_s = Some(10_000.0);
            r
        })
        .collect();
    let WorkloadReport { reports, trace, .. } = run_workload(&mut cluster, &config, requests);
    let mut summary = Vec::new();
    for r in &reports {
        let rows = match &r.disposition {
            Disposition::Completed(o) => {
                let mut lines = cluster.hdfs.get(&o.final_output).unwrap().lines.clone();
                lines.sort();
                lines.join(",")
            }
            other => format!("{other:?}"),
        };
        summary.push(format!(
            "{} admitted={:?} done={} metrics={:?} rows={rows}",
            r.label,
            r.admitted_s,
            r.done_s,
            r.metrics()
        ));
    }
    (summary, trace.expect("tracing was on").to_chrome_json())
}

#[test]
fn workload_is_bit_identical_across_thread_counts() {
    // Same seed + same admission order ⇒ identical per-query dispositions,
    // results, metrics and trace, whatever exec_threads resolves to — the
    // scheduler interleaves in simulated time, not wall-clock time.
    let (serial, serial_trace) = run_faulty_workload(Some(1));
    for threads in [Some(4), None] {
        let (got, trace) = run_faulty_workload(threads);
        assert_eq!(got, serial, "workload differs under {threads:?}");
        assert_eq!(trace, serial_trace, "trace differs under {threads:?}");
    }
}

#[test]
fn deadline_cancellation_releases_the_slot_at_the_deadline() {
    // One slot. A long alpha chain with a deadline it cannot meet, then a
    // beta chain queued behind it: beta must be admitted exactly at
    // alpha's deadline — the cancelled chain's slot is released then, not
    // at the time the chain would have finished.
    let mut cluster = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut cluster);
    // Solo yardstick for the same long chain, on an identical cluster.
    let mut solo_cluster = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut solo_cluster);
    let solo = run_chain(&mut solo_cluster, &chain("long", 4)).expect("solo long chain");
    let long_total = solo.metrics.total_s();

    let deadline = long_total * 0.5; // cannot finish in time
    let mut doomed = request("alpha", "long", 4, 7, 0.0);
    doomed.deadline_s = Some(deadline);
    let survivor = request("beta", "short", 1, 8, 1.0);
    let report = run_workload(&mut cluster, &two_tenants(1), vec![doomed, survivor]);

    let [a, b] = &report.reports[..] else {
        panic!("two reports expected");
    };
    match &a.disposition {
        Disposition::DeadlineCancelled(f) => {
            assert!(matches!(
                f.error,
                MapRedError::DeadlineExceeded { deadline_s } if (deadline_s - deadline).abs() < 1e-9
            ));
            // Partial metrics: something ran, but not the whole chain, and
            // the truncated in-flight step is charged as burned time.
            assert!(f.metrics.jobs.len() < 4, "chain must not have finished");
            assert!(f.metrics.total_s() > 0.0, "partial work must be charged");
        }
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
    assert!((a.done_s - deadline).abs() < 1e-9, "cancelled at deadline");

    // The survivor was admitted the instant the slot came free...
    assert!(
        (b.admitted_s.expect("beta ran") - deadline).abs() < 1e-9,
        "slot must be released at the deadline (admitted {:?}, deadline {deadline})",
        b.admitted_s
    );
    // ...and its results match its solo run exactly.
    let Disposition::Completed(out) = &b.disposition else {
        panic!("survivor must complete, got {:?}", b.disposition);
    };
    let mut got = cluster.hdfs.get(&out.final_output).unwrap().lines.clone();
    let mut solo_cluster2 = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut solo_cluster2);
    let solo_short = run_chain(&mut solo_cluster2, &chain("short", 1)).expect("solo short");
    let mut want = solo_cluster2
        .hdfs
        .get(&solo_short.final_output)
        .unwrap()
        .lines
        .clone();
    got.sort();
    want.sort();
    assert_eq!(got, want, "survivor's rows must match its solo run");
}

#[test]
fn hopeless_queued_queries_die_at_their_deadline_without_a_slot() {
    // One slot occupied by a long chain; a queued query whose deadline
    // passes while waiting is cancelled with *empty* metrics — it never
    // ran, and it never blocks the queue.
    let mut cluster = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut cluster);
    let blocker = request("alpha", "blocker", 3, 1, 0.0);
    let mut hopeless = request("beta", "hopeless", 1, 2, 1.0);
    hopeless.deadline_s = Some(2.0); // expires long before the blocker ends
    let report = run_workload(&mut cluster, &two_tenants(1), vec![blocker, hopeless]);
    let h = &report.reports[1];
    match &h.disposition {
        Disposition::DeadlineCancelled(f) => {
            assert!(f.metrics.jobs.is_empty());
            assert_eq!(f.metrics.total_s(), 0.0);
        }
        other => panic!("expected queued-deadline cancellation, got {other:?}"),
    }
    assert!(h.admitted_s.is_none(), "it never got a slot");
    assert!((h.done_s - 3.0).abs() < 1e-9, "died at submit + deadline");
}

#[test]
fn full_queues_shed_with_typed_errors_and_nothing_hangs() {
    // One slot, queue capacity 1: the third concurrent query is shed.
    let mut cluster = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut cluster);
    let config = SchedulerConfig {
        max_running: 1,
        tenants: vec![TenantSpec::new("alpha", 1, 8)],
        trace: false,
    };
    let requests = vec![
        request("alpha", "r0", 2, 1, 0.0),
        request("alpha", "r1", 2, 2, 1.0),
        request("alpha", "r2", 2, 3, 2.0), // queue full → shed
        request("ghost", "r3", 1, 4, 3.0), // unknown tenant → rejected
        {
            let mut r = request("alpha", "r4", 1, 5, 4.0);
            r.deadline_s = Some(0.0); // dead on arrival → rejected
            r
        },
    ];
    let report = run_workload(&mut cluster, &config, requests);
    assert_eq!(report.reports.len(), 5, "every query gets a disposition");

    assert!(report.reports[0].completed());
    assert!(report.reports[1].completed());
    match &report.reports[2].disposition {
        Disposition::Shed(MapRedError::QueueFull { tenant, capacity }) => {
            assert_eq!(tenant, "alpha");
            assert_eq!(*capacity, 1);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    match &report.reports[3].disposition {
        Disposition::Shed(MapRedError::Rejected { tenant, .. }) => assert_eq!(tenant, "ghost"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(matches!(
        report.reports[4].disposition,
        Disposition::Shed(MapRedError::Rejected { .. })
    ));
    // Shed queries terminate instantly — no queueing, no execution.
    assert_eq!(report.reports[2].latency_s(), 0.0);
    assert!(report.reports[2].metrics().is_none());
}

#[test]
fn retry_budget_exhaustion_fails_fast_with_partial_metrics() {
    // One node dying with p=0.7 makes chains retry a lot. A tenant with a
    // budget of 1 gets exactly one retry across its chains; the next
    // retryable failure is converted into RetryBudgetExhausted. Sweep
    // seeds to find an injection where that actually happens, and check
    // the same seed *recovers* under a generous budget — the budget, not
    // the fault, is what failed the chain.
    let faulty = |seed: u64| ClusterConfig {
        nodes: 1,
        node_failures: Some(NodeFailureModel {
            probability: 0.7,
            seed,
        }),
        retry: Some(RetryPolicy {
            max_retries: 24,
            backoff_base_s: 10.0,
            backoff_factor: 2.0,
            ..RetryPolicy::default()
        }),
        ..ClusterConfig::default()
    };
    let run = |seed: u64, budget: usize| {
        let mut cluster = Cluster::new(faulty(seed));
        load(&mut cluster);
        let config = SchedulerConfig {
            max_running: 1,
            tenants: vec![TenantSpec::new("alpha", 4, budget)],
            trace: false,
        };
        run_workload(
            &mut cluster,
            &config,
            vec![request("alpha", "q", 1, seed, 0.0)],
        )
    };

    let mut exhausted = false;
    for seed in 0..30u64 {
        let tight = run(seed, 1);
        match &tight.reports[0].disposition {
            Disposition::Failed(f) => {
                if let MapRedError::RetryBudgetExhausted { tenant, budget } = &f.error {
                    assert_eq!(tenant, "alpha");
                    assert_eq!(*budget, 1);
                    // Fail-fast still reports the burned work.
                    assert_eq!(f.metrics.retries, 1, "exactly the budgeted retry ran");
                    assert!(f.metrics.failed_attempt_s > 0.0);
                    exhausted = true;
                    // The fault itself was recoverable: a generous budget
                    // completes the same injection.
                    let loose = run(seed, 1000);
                    assert!(
                        loose.reports[0].completed(),
                        "seed {seed}: generous budget must recover"
                    );
                    break;
                }
            }
            Disposition::Completed(_) => {}
            other => panic!("seed {seed}: unexpected disposition {other:?}"),
        }
    }
    assert!(exhausted, "p=0.7 over 30 seeds must exhaust a budget of 1");
}

#[test]
fn weighted_fair_share_favours_the_heavier_tenant() {
    // Two identical chains admitted together on two slots; the weight-3
    // tenant gets 3/4 of the slots while they overlap and finishes first.
    let mut cluster = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut cluster);
    let config = SchedulerConfig {
        max_running: 2,
        tenants: vec![
            TenantSpec::new("heavy", 4, 8).weight(3),
            TenantSpec::new("light", 4, 8),
        ],
        trace: false,
    };
    let requests = vec![
        request("heavy", "h", 2, 1, 0.0),
        request("light", "l", 2, 2, 0.0),
    ];
    let report = run_workload(&mut cluster, &config, requests);
    let [h, l] = &report.reports[..] else {
        panic!("two reports expected");
    };
    assert!(h.completed() && l.completed());
    assert!(
        h.done_s < l.done_s,
        "weight 3 ({}) must finish before weight 1 ({})",
        h.done_s,
        l.done_s
    );
}

#[test]
fn scheduler_trace_records_queue_admit_shed_and_cancel_lanes() {
    let mut cluster = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut cluster);
    let config = SchedulerConfig {
        max_running: 1,
        tenants: vec![TenantSpec::new("alpha", 1, 8)],
        trace: true,
    };
    let mut cancelled = request("alpha", "doomed", 3, 2, 1.0);
    cancelled.deadline_s = Some(5.0);
    let requests = vec![
        request("alpha", "runner", 2, 1, 0.0),
        cancelled,                              // queued, dies waiting
        request("alpha", "shed-me", 1, 3, 2.0), // queue full → shed
    ];
    let report = run_workload(&mut cluster, &config, requests);
    let trace = report.trace.expect("tracing was on");

    let has = |cat: &str| trace.events().iter().any(|e| e.cat == cat);
    assert!(has("queue"), "queue wait spans");
    assert!(has("admit"), "admission instants");
    assert!(has("shed"), "shed instants");
    assert!(has("cancelled"), "cancellation instants");
    // The completed chain's own lanes were absorbed under its label.
    assert!(trace
        .process_labels()
        .iter()
        .any(|l| l.starts_with("runner/")));
    let stats = validate_chrome_trace(&trace.to_chrome_json())
        .expect("workload trace must export as valid Chrome JSON");
    assert!(stats.events > 0);
}

#[test]
fn session_api_steps_match_run_chain() {
    // The stepwise session the scheduler drives is the same machine
    // run_chain wraps: stepping a session by hand produces the identical
    // outcome, metrics included.
    use ysmart_mapred::{chain_seed, ChainSession, ChainStep};
    let c = chain("x", 3);
    let mut cluster = Cluster::new(ClusterConfig::default());
    load(&mut cluster);
    let expected = run_chain(&mut cluster, &c).expect("run_chain");

    let mut cluster2 = Cluster::new(ClusterConfig::default());
    load(&mut cluster2);
    let mut session = ChainSession::new(chain_seed(&c));
    let mut steps = 0;
    loop {
        match session.step(&mut cluster2, &c) {
            ChainStep::Advanced | ChainStep::Backoff { .. } => steps += 1,
            ChainStep::Finished => break,
            ChainStep::Failed => panic!("clean chain must not fail"),
        }
    }
    assert_eq!(steps, 2, "three jobs = two advances + one finish");
    let outcome = session.into_outcome();
    assert_eq!(outcome.metrics, expected.metrics);
    assert_eq!(outcome.final_output, expected.final_output);
}

#[test]
fn draining_is_distinct_from_queue_full() {
    // The two shed reasons must stay distinguishable: a full queue sheds
    // `QueueFull`; only the service's `!drain` rejects with `Draining`.
    let mut cluster = Cluster::new(ClusterConfig {
        size_multiplier: 50_000.0,
        ..ClusterConfig::default()
    });
    load(&mut cluster);
    let mut config = two_tenants(1);
    config.tenants[0].queue_capacity = 1;
    let requests: Vec<QueryRequest> = (0..4)
        .map(|i| request("alpha", &format!("q{i}"), 2, i as u64, 0.0))
        .collect();
    let report = run_workload(&mut cluster, &config, requests);
    let full: Vec<bool> = report
        .reports
        .iter()
        .map(|r| {
            matches!(
                &r.disposition,
                Disposition::Shed(MapRedError::QueueFull { .. })
            )
        })
        .collect();
    assert_eq!(full, [false, false, true, true], "overflow sheds QueueFull");
    assert!(
        !report
            .reports
            .iter()
            .any(|r| matches!(&r.disposition, Disposition::Shed(MapRedError::Draining))),
        "the scheduler never sheds Draining"
    );
}
