//! Cross-query result-reuse figure — hit rate and avoided work vs cache
//! capacity.
//!
//! The ReStore companion experiment: production SQL-on-MapReduce workloads
//! repeat queries (and share sub-jobs) heavily, so materializing committed
//! job outputs and fast-forwarding later chains whose fingerprints hit the
//! cache trades cheap storage for recomputation. This harness replays a
//! repeated stream of the evaluation queries (Q17, Q18, the Q21 subtree,
//! Q-AGG, Q-CSA) through the multi-tenant scheduler at several cache
//! capacities — including capacity 0, which must be *bit-identical* to
//! running with no cache at all — and reports, per capacity: cache
//! hits/misses/evictions and simulated work avoided. (Reused jobs skip
//! actual map/reduce execution too; what that saves in real wall-clock is
//! perfbench's `serve_hot` vs `serve_cold`, not this figure's.)
//!
//! Every completed chain's rows are verified against the relational
//! oracle, and the largest-capacity run is required to be bit-identical
//! across `exec_threads` 1, 4 and auto.
//!
//! The report has a JSON form. Pass `--smoke` for the CI-sized run; it
//! asserts the same gates (hit rate positive, capacity-0 ≡ no-cache, the
//! middle capacity evicts) on a smaller stream.

use ysmart_core::Strategy;
use ysmart_mapred::scheduler::{run_workload_with, WorkloadRun};
use ysmart_mapred::{
    Disposition, QueryRequest, ReuseCache, ReuseConfig, ReuseStats, SchedulerConfig, TenantSpec,
};
use ysmart_rel::codec::encode_line;

use crate::{mix, Flags, Mix, Report, Verified};

/// Cache capacities swept, in bytes of materialized output. 0 is the
/// disabled baseline the CI identity gate pins; the middle level is small
/// enough to churn (gate 3 holds it to evicting): under the smoke stream's
/// working set of 336 bytes and a quarter of the full stream's 1 221; the
/// last fits the whole working set.
const CAPACITIES: [u64; 3] = [0, 320, 64 * 1024 * 1024];
const QUERIES: usize = 30;
const SMOKE_QUERIES: usize = 12;
const MAX_RUNNING: usize = 2;

/// One measured run of the repeated-query stream.
struct RunResult {
    /// Canonical per-query lines: label, disposition, exact timing bits,
    /// reuse count and result rows. Equal vectors ⇒ bit-identical runs.
    digest: Vec<String>,
    stats: Option<ReuseStats>,
    jobs_reused: usize,
    completed: usize,
}

/// Replays the stream on a fresh engine: `capacity: None` runs the plain
/// (cache-less) scheduler; `Some(bytes)` runs with a reuse cache of that
/// size. Deterministic given (`per`, `threads`, `capacity`).
fn run_once(
    data: &Mix,
    shapes: &[Verified],
    per: usize,
    threads: Option<usize>,
    capacity: Option<u64>,
) -> RunResult {
    let mut engine = data.engine(threads);

    // The stream cycles through the shapes, so after the first lap every
    // query is a repeat of an earlier one.
    let mut requests = Vec::with_capacity(per);
    let mut translations = Vec::with_capacity(per);
    for i in 0..per {
        let shape = &shapes[i % shapes.len()];
        let w = shape.w;
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
        translations.push((translation, shape));
    }

    let sched = SchedulerConfig {
        max_running: MAX_RUNNING,
        tenants: vec![TenantSpec::new("analytics", per, 8)],
        trace: false,
    };

    let mut cache = capacity.map(|bytes| ReuseCache::new(ReuseConfig::with_capacity(bytes)));
    let run = WorkloadRun {
        reuse: cache.as_mut(),
        ..WorkloadRun::default()
    };
    let (report, _) = run_workload_with(&mut engine.cluster, &sched, requests, run);
    let stats = report.reuse;

    let mut digest = Vec::with_capacity(per);
    let mut completed = 0usize;
    let mut jobs_reused = 0usize;
    for r in &report.reports {
        let (translation, shape) = &translations[r.index];
        let name = shape.w.name;
        jobs_reused += r.jobs_reused;
        let rows_line = match &r.disposition {
            Disposition::Completed(_) => {
                completed += 1;
                let rows = engine.decode_output(translation).expect("decode completed");
                shape.check(&rows, &format_args!("as {}", r.label));
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
        stats,
        jobs_reused,
        completed,
    }
}

pub(crate) fn run(flags: &Flags, r: &mut Report) {
    let per = if flags.smoke { SMOKE_QUERIES } else { QUERIES };
    let data = Mix::new(flags.smoke);
    let shapes = data.shapes();

    r.line("=== Cross-query result reuse: hit rate, avoided work vs capacity ===");
    r.line(&format!(
        "{per} queries cycling 5 shapes, {MAX_RUNNING} chain slots, {} GB scaled data",
        data.target_gb
    ));

    // No-cache baseline: the yardstick for the capacity-0 identity gate.
    let baseline = run_once(&data, &shapes, per, Some(1), None);
    assert!(baseline.completed > 0, "the baseline must answer queries");
    r.line("");
    r.line(&format!(
        "no cache:          completed {:>3}",
        baseline.completed
    ));

    let mut json_levels = Vec::new();
    let mut runs = Vec::new();
    for &capacity in &CAPACITIES {
        let run = run_once(&data, &shapes, per, Some(1), Some(capacity));
        let stats = run.stats.expect("cache was in force");
        assert_eq!(
            run.completed, baseline.completed,
            "capacity {capacity}: the cache must not change dispositions"
        );
        r.line(&format!(
            "capacity {:>9}: completed {:>3}, hits {:>3}, misses {:>3}, \
             evictions {:>3}, reused jobs {:>3}, avoided {:>6.0}s simulated",
            capacity,
            run.completed,
            stats.hits,
            stats.misses,
            stats.evictions,
            run.jobs_reused,
            stats.reused_work_s
        ));
        json_levels.push(format!(
            concat!(
                "{{\"capacity_bytes\":{},\"completed\":{},",
                "\"hits\":{},\"misses\":{},\"evictions\":{},\"insertions\":{},",
                "\"integrity_failures\":{},\"jobs_reused\":{},\"hit_rate\":{:.4},",
                "\"reused_work_s\":{:.2},\"bytes_cached\":{}}}"
            ),
            capacity,
            run.completed,
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

    // Gate 3: the middle level churns — it evicts, so the figure shows LRU
    // eviction at work, not a second copy of the big cache.
    let middle = runs[1].stats.expect("cache in force");
    assert!(
        middle.evictions > 0,
        "capacity {} must evict (it ends holding {} bytes)",
        CAPACITIES[1],
        middle.bytes_cached
    );

    // Gate 4: thread-count bit-identity of the largest-capacity run.
    let cap = *CAPACITIES.last().expect("capacities");
    for threads in [Some(4), None] {
        let rerun = run_once(&data, &shapes, per, threads, Some(cap));
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

    r.line("");
    r.line(&format!(
        "hit rate {:.0}% at {} bytes: {} of {} jobs fast-forwarded, {:.0} simulated",
        big_stats.hit_rate() * 100.0,
        cap,
        big.jobs_reused,
        big.jobs_reused + big_stats.misses as usize,
        big_stats.reused_work_s
    ));
    r.line("seconds of map/reduce work never re-executed; capacity 0 reproduced the");
    r.line("cache-less run bit for bit.");

    let json = format!(
        concat!(
            "{{\"figure\":\"reuse\",\"target_gb\":{},\"queries\":{},",
            "\"levels\":[{}]}}\n"
        ),
        data.target_gb,
        per,
        json_levels.join(",")
    );
    r.set_json(json);
}
