//! Multi-tenant workload figure — latency, deadline hit-rate and shed rate
//! vs. offered load.
//!
//! Not a figure from the paper, but its production setting: §VII-F runs
//! YSmart on a Facebook cluster precisely because many tenants' queries
//! compete for one slot pool. This harness replays a mixed stream of the
//! evaluation queries (Q17, Q18, the Q21 subtree, Q-AGG, Q-CSA) across four
//! weighted tenants through the multi-tenant chain scheduler, under
//! combined straggler + node-loss + corruption injection, at several
//! offered-load levels. Every chain terminates in a typed disposition —
//! completed, deadline-cancelled, shed or failed — and every *completed*
//! chain's rows are verified against the relational oracle.
//!
//! The report has a JSON form. Pass `--smoke` for a CI-sized run; both
//! sizes assert the deadline hit-rate floor.

use ysmart_core::Strategy;
use ysmart_mapred::{
    run_chain, run_workload, validate_chrome_trace, CorruptionModel, Disposition, NodeFailureModel,
    QueryRequest, RetryPolicy, SchedulerConfig, StragglerModel, TenantSpec,
};

use crate::{mix, Flags, Mix, Report};

/// Offered load as a multiple of the cluster's solo throughput
/// (`max_running / mean_solo_s` chains per second saturates the slots).
const LOADS: [f64; 3] = [0.5, 1.5, 3.0];
const SMOKE_LOADS: [f64; 2] = [0.5, 2.5];
const QUERIES_PER_LOAD: usize = 40;
const SMOKE_QUERIES_PER_LOAD: usize = 14;
const MAX_RUNNING: usize = 4;
/// Deadline = this factor × the query's solo (uncontended, fault-free)
/// time. Generous enough to absorb fair-share slowdown and queueing at
/// moderate load, tight enough that overload visibly misses.
const DEADLINE_FACTOR: f64 = 12.0;
/// Minimum deadline hit-rate at the lowest load level — the CI floor.
const HIT_RATE_FLOOR: f64 = 0.5;

/// Uniform in `[0, 1)` from a SplitMix64 draw.
fn unit(z: u64) -> f64 {
    (mix(z) >> 11) as f64 / (1u64 << 53) as f64
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[pos.min(sorted.len() - 1)]
}

pub(crate) fn run(flags: &Flags, r: &mut Report) {
    let (loads, per_load): (&[f64], usize) = if flags.smoke {
        (&SMOKE_LOADS, SMOKE_QUERIES_PER_LOAD)
    } else {
        (&LOADS, QUERIES_PER_LOAD)
    };
    let data = Mix::new(flags.smoke);
    let target_gb = data.target_gb;
    // The oracle's answers do not depend on the load level: once.
    let shapes = data.shapes();

    r.line("=== Multi-tenant workload: latency, deadline hit-rate, shed rate vs load ===");
    r.line(&format!(
        "{per_load} queries per load level across 4 weighted tenants, {MAX_RUNNING} chain slots,"
    ));
    r.line(&format!(
        "{target_gb} GB scaled data, stragglers + node loss + corruption injected,"
    ));
    r.line(&format!(
        "deadline = {DEADLINE_FACTOR}x each query's solo time"
    ));

    let mut json_levels = Vec::new();
    let mut hit_rates = Vec::new();
    let mut shed_rates = Vec::new();

    for (li, &load) in loads.iter().enumerate() {
        // Fresh engine per level so levels are independent and individually
        // reproducible.
        let mut engine = data.engine(None);

        // Solo baselines: each shape once, alone, fault-free — the deadline
        // yardstick.
        let mut solo_s = Vec::new();
        for v in &shapes {
            let tag = format!("solo{li}-{}", v.w.name);
            let translation = engine
                .translate_tagged(&v.w.sql, Strategy::YSmart, &tag)
                .expect("translate solo");
            let chain = engine.chain_for(&translation).expect("chain solo");
            let outcome = run_chain(&mut engine.cluster, &chain).expect("solo run");
            let rows = engine.decode_output(&translation).expect("solo decode");
            v.check(&rows, &"solo run");
            solo_s.push(outcome.metrics.total_s());
        }
        let mean_solo: f64 = solo_s.iter().sum::<f64>() / solo_s.len() as f64;

        // Now the faults: stragglers, node loss and corruption, recovered
        // by a jittered retry policy so co-failing chains don't retry in
        // lockstep.
        let level_seed = 0xF16_0000 + li as u64;
        let cfg = &mut engine.cluster.config;
        cfg.node_failures = Some(NodeFailureModel {
            probability: 0.02,
            seed: level_seed ^ 0x0DE5,
        });
        cfg.stragglers = Some(StragglerModel {
            probability: 0.05,
            slowdown: 4.0,
            speculative: true,
            seed: level_seed ^ 0x57A6,
        });
        cfg.corruption = Some(CorruptionModel::uniform(1e-4, level_seed ^ 0xC042));
        cfg.skip_bad_records = u64::MAX;
        cfg.retry = Some(RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        });

        // The request stream: seeded exponential inter-arrivals at
        // `load × max_running / mean_solo` chains per second, shapes and
        // tenants drawn deterministically.
        let rate = load * MAX_RUNNING as f64 / mean_solo;
        let mut submit_s = 0.0;
        let mut requests = Vec::with_capacity(per_load);
        let mut translations = Vec::with_capacity(per_load);
        for i in 0..per_load {
            let rseed = mix(level_seed ^ (i as u64) << 16);
            submit_s += -(1.0 - unit(rseed ^ 1)).ln() / rate;
            let si = (mix(rseed ^ 2) as usize) % shapes.len();
            let shape = shapes[si].w;
            let tenant = (mix(rseed ^ 3) as usize) % 4;
            let label = format!("t{tenant}/{}#{i}", shape.name);
            let translation = engine
                .translate_tagged(&shape.sql, Strategy::YSmart, &format!("L{li}r{i}"))
                .expect("translate request");
            let chain = engine.chain_for(&translation).expect("chain request");
            requests.push(QueryRequest {
                tenant: format!("tenant-{tenant}"),
                label,
                chain,
                seed: rseed,
                deadline_s: Some(DEADLINE_FACTOR * solo_s[si]),
                submit_s,
            });
            translations.push((translation, &shapes[si]));
        }

        let tenants_hit = requests
            .iter()
            .map(|req| req.tenant.clone())
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(tenants_hit.len(), 4, "the mix must span all four tenants");

        let sched = SchedulerConfig {
            max_running: MAX_RUNNING,
            tenants: (0..4)
                .map(|t| {
                    TenantSpec::new(format!("tenant-{t}"), 5, [16, 12, 8, 4][t])
                        .weight([4, 2, 1, 1][t])
                })
                .collect(),
            // Trace the first level only; the merged trace of hundreds of
            // chains exists to be validated, not stored.
            trace: li == 0,
        };
        let outcome = run_workload(&mut engine.cluster, &sched, requests);
        assert_eq!(
            outcome.reports.len(),
            per_load,
            "every submitted query must get a typed disposition"
        );
        if let Some(trace) = &outcome.trace {
            let stats = validate_chrome_trace(&trace.to_chrome_json())
                .expect("workload trace must be valid Chrome JSON");
            assert!(stats.events > 0, "workload trace must be non-empty");
        }

        // Tally dispositions; verify every completed chain's rows.
        let (mut completed, mut cancelled, mut shed, mut failed) = (0usize, 0, 0, 0);
        let mut latencies = Vec::new();
        for q in &outcome.reports {
            match &q.disposition {
                Disposition::Completed(_) => {
                    completed += 1;
                    latencies.push(q.latency_s());
                    let (translation, shape) = &translations[q.index];
                    let rows = engine.decode_output(translation).expect("decode completed");
                    shape.check(&rows, &format_args!("as {}", q.label));
                }
                Disposition::DeadlineCancelled(_) => cancelled += 1,
                Disposition::Shed(_) => shed += 1,
                Disposition::Failed(f) => {
                    failed += 1;
                    assert!(
                        !f.metrics.jobs.is_empty() || f.metrics.failed_attempt_s > 0.0,
                        "{}: a failed chain must report partial metrics",
                        q.label
                    );
                }
            }
        }
        assert!(completed > 0, "load {load}: at least one chain completes");
        latencies.sort_by(f64::total_cmp);
        let p50 = quantile(&latencies, 0.50);
        let p99 = quantile(&latencies, 0.99);
        let hit_rate = completed as f64 / per_load as f64;
        let shed_rate = shed as f64 / per_load as f64;
        hit_rates.push(hit_rate);
        shed_rates.push(shed_rate);

        r.line("");
        r.line(&format!(
            "--- load {load:.1}x ({per_load} queries, mean solo {mean_solo:.0}s) ---"
        ));
        r.line(&format!(
            "  completed {completed}  deadline-cancelled {cancelled}  shed {shed}  failed {failed}"
        ));
        r.line(&format!(
            "  latency p50 {p50:.0}s  p99 {p99:.0}s  hit-rate {:.0}%  shed-rate {:.0}%",
            hit_rate * 100.0,
            shed_rate * 100.0
        ));

        json_levels.push(format!(
            concat!(
                "{{\"load\":{},\"queries\":{},\"completed\":{},\"cancelled\":{},",
                "\"shed\":{},\"failed\":{},\"p50_s\":{:.2},\"p99_s\":{:.2},",
                "\"hit_rate\":{:.4},\"shed_rate\":{:.4}}}"
            ),
            load, per_load, completed, cancelled, shed, failed, p50, p99, hit_rate, shed_rate
        ));
    }

    r.line("");
    r.line("Load up, service down: overload degrades to typed sheds and deadline");
    r.line("cancellations — never to a hang, and never to an unverified result.");
    assert!(
        hit_rates[0] >= HIT_RATE_FLOOR,
        "hit-rate at the lowest load ({:.2}) must clear the floor ({HIT_RATE_FLOOR})",
        hit_rates[0]
    );
    assert!(
        hit_rates[0] >= *hit_rates.last().expect("levels") - 1e-9,
        "hit-rate must not improve under overload"
    );

    let json = format!(
        concat!(
            "{{\"figure\":\"workload\",\"target_gb\":{},\"max_running\":{},",
            "\"deadline_factor\":{},\"queries\":[{}],\"levels\":[{}]}}\n"
        ),
        target_gb,
        MAX_RUNNING,
        DEADLINE_FACTOR,
        Mix::NAMES
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(","),
        json_levels.join(",")
    );
    r.set_json(json);
}
