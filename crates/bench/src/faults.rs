//! Fault-tolerance figure — recovery cost under node loss, YSmart vs Hive.
//!
//! Not a figure from the paper: the paper's §VII runs on healthy clusters.
//! This harness measures what the translation strategies pay when nodes
//! die mid-query. The mechanism favouring YSmart is the same one behind
//! every paper figure — fewer jobs. A node death costs a job re-executed
//! map tasks, shuffle re-fetches, and possibly a whole-job retry with
//! backoff; a chain recovers from its checkpoint (finished outputs stay in
//! HDFS), so a longer chain both exposes more jobs to failure and pays
//! more scheduler round-trips to crawl back.
//!
//! Every run is verified against the relational oracle: faults may change
//! simulated time, never answers. Results are averaged over seeds. Pass
//! `--smoke` for a reduced sweep (CI-sized: fewer rates/seeds, smaller
//! scale) that still verifies every run against the oracle.

use ysmart_core::Strategy;
use ysmart_mapred::{ClusterConfig, RetryPolicy};

use crate::{clicks, fmt_secs, Flags, Report, Verified};

const RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];
const SMOKE_RATES: [f64; 2] = [0.0, 0.25];
const SEEDS: u64 = 5;
const TARGET_GB: f64 = 10.0;

#[derive(Default)]
struct Cell {
    total_s: f64,
    recovery_s: f64,
    retries: usize,
    reexecuted: usize,
    nodes_lost: usize,
}

pub(crate) fn run(flags: &Flags, r: &mut Report) {
    let (rates, seeds, target_gb): (&[f64], u64, f64) = if flags.smoke {
        (&SMOKE_RATES, 2, 1.0)
    } else {
        (&RATES, SEEDS, TARGET_GB)
    };
    r.line("=== Recovery cost under node failures (not in the paper) ===");
    r.line(&format!(
        "q-csa, {target_gb} GB, 11-node EC2 cluster; averages over {seeds} seeds"
    ));

    let workloads = clicks(60, 30);
    let v = Verified::find(&workloads, "q-csa");

    for (sys, strategy) in [("YSmart", Strategy::YSmart), ("Hive", Strategy::Hive)] {
        let jobs = ysmart_core::translate(&v.w.catalog, &v.w.sql, strategy, v.w.name)
            .expect("translation")
            .job_count();
        r.line(&format!("--- {sys} ({jobs} jobs) ---"));
        r.line("  p(node dies)      total   recovery  retries  re-exec  nodes lost");
        let mut baseline = None;
        for rate in rates.iter().copied() {
            let mut acc = Cell::default();
            for seed in 0..seeds {
                let mut config = ClusterConfig::ec2(10);
                if rate > 0.0 {
                    // The sweep must finish even on unlucky seeds, and a
                    // gentle backoff keeps the figure about re-execution
                    // cost rather than the exponential backoff curve.
                    config = ClusterConfig {
                        retry: Some(RetryPolicy {
                            max_retries: 24,
                            backoff_base_s: 10.0,
                            backoff_factor: 1.5,
                            ..RetryPolicy::default()
                        }),
                        ..config.injected(rate, seed)
                    };
                }
                let out = v
                    .run(strategy, &config, target_gb)
                    .expect("verified execution");
                acc.total_s += out.total_s();
                acc.recovery_s += out.metrics.recovery_s();
                acc.retries += out.metrics.retries;
                acc.reexecuted += out.metrics.total_reexecuted_tasks();
                acc.nodes_lost += out.metrics.jobs.iter().map(|j| j.nodes_lost).sum::<usize>();
            }
            let n = seeds as f64;
            let overhead = baseline
                .map(|b: f64| {
                    format!(
                        "  (+{:.0}% vs healthy)",
                        (acc.total_s / n / b - 1.0) * 100.0
                    )
                })
                .unwrap_or_default();
            if rate == 0.0 {
                baseline = Some(acc.total_s / n);
            }
            r.line(&format!(
                "  p={:<12.2}{}  {}  {:>7.1}  {:>7.1}  {:>10.1}{}",
                rate,
                fmt_secs(acc.total_s / n),
                fmt_secs(acc.recovery_s / n),
                acc.retries as f64 / n,
                acc.reexecuted as f64 / n,
                acc.nodes_lost as f64 / n,
                overhead
            ));
        }
    }

    r.line("");
    r.line("All runs verified against the relational oracle: node failures");
    r.line("changed simulated time only, never a single result row.");
}
