//! Cross-query result-reuse figure — hit rate, avoided work and real
//! wall-clock vs cache capacity.
//!
//! The ReStore companion experiment: production SQL-on-MapReduce workloads
//! repeat queries (and share sub-jobs) heavily, so materializing committed
//! job outputs and fast-forwarding later chains whose fingerprints hit the
//! cache trades cheap storage for recomputation. This harness replays a
//! repeated stream of the evaluation queries (Q17, Q18, the Q21 subtree,
//! Q-AGG, Q-CSA) through the multi-tenant scheduler at several cache
//! capacities — including capacity 0, which must be *bit-identical* to
//! running with no cache at all — and reports, per capacity: cache
//! hits/misses/evictions, simulated work avoided, and the real wall-clock
//! of the run (reused jobs skip actual map/reduce execution, so the
//! translator process itself gets faster, not just the simulated cluster).
//!
//! Every completed chain's rows are verified against the relational
//! oracle, and the largest-capacity run is required to be bit-identical
//! across `exec_threads` 1, 4 and auto.
//!
//! A full run writes `results/reuse.txt` and `results/reuse.json`. Pass
//! `--smoke` for the CI-sized run; it asserts the same gates (hit rate
//! positive, capacity-0 ≡ no-cache) on a smaller stream and only prints.

use std::time::Instant;

use ysmart_bench::{mix, union_engine, write_results};
use ysmart_core::Strategy;
use ysmart_datagen::{ClicksSpec, TpchSpec};
use ysmart_mapred::scheduler::{run_workload_with, WorkloadRun};
use ysmart_mapred::{
    Disposition, QueryRequest, ReuseCache, ReuseConfig, ReuseStats, SchedulerConfig, TenantSpec,
};
use ysmart_queries::{
    clicks_workloads, oracle_execute, rows_approx_equal, tpch_workloads, Workload,
};
use ysmart_rel::codec::encode_line;

/// Cache capacities swept, in bytes of materialized output. 0 is the
/// disabled baseline the CI identity gate pins; the middle level is small
/// enough to churn; the last fits the whole working set.
const CAPACITIES: [u64; 3] = [0, 4 * 1024, 64 * 1024 * 1024];
const QUERIES: usize = 30;
const SMOKE_QUERIES: usize = 12;
const MAX_RUNNING: usize = 2;

/// One measured run of the repeated-query stream.
struct RunResult {
    /// Canonical per-query lines: label, disposition, exact timing bits,
    /// reuse count and result rows. Equal vectors ⇒ bit-identical runs.
    digest: Vec<String>,
    wall_ms: f64,
    stats: Option<ReuseStats>,
    jobs_reused: usize,
    completed: usize,
}

/// Replays the stream on a fresh engine: `capacity: None` runs the plain
/// (cache-less) scheduler; `Some(bytes)` runs with a reuse cache of that
/// size. Deterministic given (`per`, `threads`, `capacity`).
fn run_once(
    tpch: &[Workload],
    clicks: &[Workload],
    target_gb: f64,
    per: usize,
    threads: Option<usize>,
    capacity: Option<u64>,
) -> RunResult {
    let (mut engine, tables) = union_engine(tpch, clicks, target_gb, threads);
    let mix_names = ["q17", "q18", "q21-subtree", "q-agg", "q-csa"];
    let source = |n: &str| {
        tpch.iter()
            .chain(clicks.iter())
            .find(|w| w.name == n)
            .unwrap_or_else(|| panic!("workload {n} not found"))
    };

    // Oracle expectations, once per shape.
    let mut expected = Vec::new();
    for name in mix_names {
        let w = source(name);
        let plan = engine.plan(&w.sql).expect("plan");
        expected.push((w, oracle_execute(&plan, &tables).expect("oracle").rows));
    }

    // The stream cycles through the shapes, so after the first lap every
    // query is a repeat of an earlier one.
    let mut requests = Vec::with_capacity(per);
    let mut translations = Vec::with_capacity(per);
    for i in 0..per {
        let (w, exp) = &expected[i % expected.len()];
        let translation = engine
            .translate_tagged(&w.sql, Strategy::YSmart, &format!("r{i}"))
            .expect("translate request");
        let chain = engine.chain_for(&translation).expect("chain request");
        requests.push(QueryRequest {
            tenant: "analytics".into(),
            label: format!("{}#{i}", w.name),
            chain,
            seed: mix(0x2E5E_0000 ^ i as u64),
            deadline_s: None,
            submit_s: i as f64,
        });
        translations.push((translation, w.name, w.ordered, exp.clone()));
    }

    let sched = SchedulerConfig {
        max_running: MAX_RUNNING,
        tenants: vec![TenantSpec::new("analytics", per, 8)],
        trace: false,
        drain_at_s: None,
    };

    let started = Instant::now();
    let mut cache = capacity.map(|bytes| ReuseCache::new(ReuseConfig::with_capacity(bytes)));
    let run = WorkloadRun {
        reuse: cache.as_mut(),
        ..WorkloadRun::default()
    };
    let (report, _) = run_workload_with(&mut engine.cluster, &sched, requests, run);
    let stats = report.reuse;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut digest = Vec::with_capacity(per);
    let mut completed = 0usize;
    let mut jobs_reused = 0usize;
    for r in &report.reports {
        let (translation, name, ordered, exp) = &translations[r.index];
        jobs_reused += r.jobs_reused;
        let rows_line = match &r.disposition {
            Disposition::Completed(_) => {
                completed += 1;
                let rows = engine.decode_output(translation).expect("decode completed");
                assert!(
                    rows_approx_equal(&rows, exp, *ordered),
                    "{}: completed chain disagrees with the oracle",
                    r.label
                );
                rows.iter().map(encode_line).collect::<Vec<_>>().join(",")
            }
            other => format!("{other:?}"),
        };
        // `{}` on f64 prints the shortest roundtrip form: equal strings
        // mean equal bits.
        digest.push(format!(
            "{} [{name}] admitted={:?} done={} reused={} rows={rows_line}",
            r.label, r.admitted_s, r.done_s, r.jobs_reused
        ));
    }
    RunResult {
        digest,
        wall_ms,
        stats,
        jobs_reused,
        completed,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per, target_gb) = if smoke {
        (SMOKE_QUERIES, 0.5)
    } else {
        (QUERIES, 2.0)
    };
    let (tpch_spec, clicks_spec) = if smoke {
        (
            TpchSpec {
                scale: 0.05,
                seed: 2026,
            },
            ClicksSpec {
                users: 15,
                clicks_per_user: 10,
                seed: 2026,
                ..ClicksSpec::default()
            },
        )
    } else {
        (
            TpchSpec {
                scale: 0.2,
                seed: 2026,
            },
            ClicksSpec {
                users: 40,
                clicks_per_user: 20,
                seed: 2026,
                ..ClicksSpec::default()
            },
        )
    };
    let tpch = tpch_workloads(&tpch_spec);
    let clicks = clicks_workloads(&clicks_spec);

    let mut report = String::new();
    let mut emit = |line: &str| {
        println!("{line}");
        report.push_str(line);
        report.push('\n');
    };

    emit("=== Cross-query result reuse: hit rate, avoided work, wall-clock vs capacity ===");
    emit(&format!(
        "{per} queries cycling 5 shapes, {MAX_RUNNING} chain slots, {target_gb} GB scaled data"
    ));

    // No-cache baseline: the yardstick for both the capacity-0 identity
    // gate and the wall-clock comparison.
    let baseline = run_once(&tpch, &clicks, target_gb, per, Some(1), None);
    assert!(baseline.completed > 0, "the baseline must answer queries");
    emit("");
    emit(&format!(
        "no cache:          completed {:>3}, wall {:>7.0}ms",
        baseline.completed, baseline.wall_ms
    ));

    let mut json_levels = Vec::new();
    let mut runs = Vec::new();
    for &capacity in &CAPACITIES {
        let run = run_once(&tpch, &clicks, target_gb, per, Some(1), Some(capacity));
        let stats = run.stats.expect("cache was in force");
        assert_eq!(
            run.completed, baseline.completed,
            "capacity {capacity}: the cache must not change dispositions"
        );
        emit(&format!(
            "capacity {:>9}: completed {:>3}, wall {:>7.0}ms, hits {:>3}, misses {:>3}, \
             evictions {:>3}, reused jobs {:>3}, avoided {:>6.0}s simulated",
            capacity,
            run.completed,
            run.wall_ms,
            stats.hits,
            stats.misses,
            stats.evictions,
            run.jobs_reused,
            stats.reused_work_s,
        ));
        json_levels.push(format!(
            concat!(
                "{{\"capacity_bytes\":{},\"completed\":{},\"wall_ms\":{:.2},",
                "\"hits\":{},\"misses\":{},\"evictions\":{},\"insertions\":{},",
                "\"integrity_failures\":{},\"jobs_reused\":{},\"hit_rate\":{:.4},",
                "\"reused_work_s\":{:.2},\"bytes_cached\":{}}}"
            ),
            capacity,
            run.completed,
            run.wall_ms,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.insertions,
            stats.integrity_failures,
            run.jobs_reused,
            stats.hit_rate(),
            stats.reused_work_s,
            stats.bytes_cached,
        ));
        runs.push(run);
    }

    // Gate 1: a capacity-0 cache is *bit-identical* to no cache at all —
    // same labels, dispositions, timing bits and rows.
    assert_eq!(
        runs[0].digest, baseline.digest,
        "capacity 0 must be byte-identical to the cache-less scheduler"
    );
    assert_eq!(runs[0].jobs_reused, 0, "capacity 0 must reuse nothing");

    // Gate 2: the big cache actually hits, reuses whole jobs and banks
    // simulated work.
    let big = runs.last().expect("capacities swept");
    let big_stats = big.stats.expect("cache in force");
    assert!(
        big_stats.hit_rate() > 0.0 && big.jobs_reused > 0,
        "the repeated stream must produce cache hits"
    );
    assert!(
        big_stats.reused_work_s > 0.0,
        "hits must account avoided simulated work"
    );

    // Gate 3: thread-count bit-identity of the largest-capacity run.
    let cap = *CAPACITIES.last().expect("capacities");
    for threads in [Some(4), None] {
        let rerun = run_once(&tpch, &clicks, target_gb, per, threads, Some(cap));
        assert_eq!(
            rerun.digest, big.digest,
            "reuse workload differs under exec_threads={threads:?}"
        );
        assert_eq!(
            format!("{:?}", rerun.stats),
            format!("{:?}", big.stats),
            "cache counters differ under exec_threads={threads:?}"
        );
    }

    emit("");
    emit(&format!(
        "hit rate {:.0}% at {} bytes: {} of {} jobs fast-forwarded, {:.0} simulated",
        big_stats.hit_rate() * 100.0,
        cap,
        big.jobs_reused,
        big.jobs_reused + big_stats.misses as usize,
        big_stats.reused_work_s,
    ));
    emit("seconds of map/reduce work never re-executed; capacity 0 reproduced the");
    emit("cache-less run bit for bit.");
    if !smoke && big.wall_ms < baseline.wall_ms {
        emit(&format!(
            "wall-clock: {:.0}ms -> {:.0}ms ({:.0}% of baseline)",
            baseline.wall_ms,
            big.wall_ms,
            100.0 * big.wall_ms / baseline.wall_ms
        ));
    }

    let json = format!(
        concat!(
            "{{\"figure\":\"reuse\",\"target_gb\":{},\"queries\":{},",
            "\"baseline_wall_ms\":{:.2},\"levels\":[{}]}}\n"
        ),
        target_gb,
        per,
        baseline.wall_ms,
        json_levels.join(",")
    );
    write_results("reuse", smoke, &report, Some(&json));
}
