//! # ysmart-bench — figure harnesses and micro-benchmarks
//!
//! One binary per figure of the paper's evaluation (§VII):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2`  | Fig. 2(b) — Hive vs hand-coded on Q-AGG and Q-CSA |
//! | `fig9`  | Fig. 9 — Q21-subtree per-job breakdown under 4 configurations |
//! | `fig10` | Fig. 10 — small cluster: YSmart/Hive/Pig/ideal-pgsql on all queries |
//! | `fig11` | Fig. 11 — EC2 11/101 nodes, compression on/off |
//! | `fig12` | Fig. 12 — Facebook cluster, 3 concurrent Q17 instances per system |
//! | `fig13` | Fig. 13 — Facebook cluster, Q18/Q21 averages |
//! | `jobcounts` | §VII-A job-count table |
//! | `fig_workload` | multi-tenant overload sweep: latency/hit-rate/shed-rate vs offered load |
//!
//! Each harness *executes the queries for real* on the simulated cluster,
//! verifies the result against the oracle, and only then reports simulated
//! times. Criterion micro-benchmarks live under `benches/`.

use std::collections::BTreeMap;

use ysmart_core::{CoreError, QueryOutcome, Strategy, YSmart};
use ysmart_datagen::{clicks_catalog, tpch_catalog};
use ysmart_mapred::ClusterConfig;
use ysmart_plan::Catalog;
use ysmart_queries::{oracle_execute, rows_approx_equal, DbmsProfile, Workload};
use ysmart_rel::Row;

/// SplitMix64: the sweep bins' only randomness, fully determined by the
/// seed.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds one `ec2(10)` engine holding *all* base tables (TPC-H + clicks,
/// disjoint names) scaled to `target_gb`, so every tenant's chains share a
/// single simulated cluster. Also returns the tables, for the oracle.
///
/// # Panics
///
/// When a base table fails to load — a generator bug.
#[must_use]
pub fn union_engine(
    tpch: &[Workload],
    clicks: &[Workload],
    target_gb: f64,
    exec_threads: Option<usize>,
) -> (YSmart, BTreeMap<String, Vec<Row>>) {
    let mut catalog = Catalog::new();
    for (name, schema) in tpch_catalog().iter().chain(clicks_catalog().iter()) {
        catalog.add_table(name, schema.clone());
    }
    let config = ClusterConfig {
        exec_threads,
        ..ClusterConfig::ec2(10)
    };
    let mut engine = YSmart::new(catalog, config);
    let mut tables: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for (name, rows) in tpch[0].tables.iter().chain(clicks[0].tables.iter()) {
        engine.load_table(name, rows).expect("load base table");
        tables.insert((*name).to_string(), rows.clone());
    }
    let real_bytes = engine.cluster.hdfs.total_bytes().max(1);
    engine.cluster.config.size_multiplier = (target_gb * 1e9) / real_bytes as f64;
    (engine, tables)
}

/// Writes a sweep's report to `results/<name>.txt` (and `results/<name>.json`
/// when it has a machine-readable form) — for full runs only. The committed
/// `results/` files are full-run figures; a `--smoke` run has already
/// printed its report to stdout and must leave them alone.
///
/// # Panics
///
/// When `results/` cannot be created or written.
pub fn write_results(name: &str, smoke: bool, report: &str, json: Option<&str>) {
    if smoke {
        println!("\n--smoke: results/{name}.* not written");
        return;
    }
    std::fs::create_dir_all("results").expect("results dir");
    let mut written = Vec::new();
    for (ext, body) in [("txt", Some(report)), ("json", json)] {
        if let Some(body) = body {
            let path = format!("results/{name}.{ext}");
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            written.push(path);
        }
    }
    println!("\nwrote {}", written.join(" and "));
}

/// Runs one workload under one strategy on a cluster config, scaling the
/// simulated data volume to `target_gb`, and verifies the result against
/// the oracle before returning.
///
/// # Errors
///
/// Execution failures (the paper's DNF cases: disk full, time limit) and
/// verification mismatches (reported as `CoreError::Translate` — they mean
/// a translator bug and invalidate the figure).
pub fn execute_verified(
    w: &Workload,
    strategy: Strategy,
    config: &ClusterConfig,
    target_gb: f64,
) -> Result<QueryOutcome, CoreError> {
    execute_verified_traced(w, strategy, config, target_gb, false).map(|(out, _)| out)
}

/// [`execute_verified`], optionally with structured execution tracing: when
/// `traced` is set, the returned [`ysmart_mapred::Trace`] holds one span
/// per simulated event of the run, exportable as Chrome-trace JSON.
///
/// # Errors
///
/// Same as [`execute_verified`].
pub fn execute_verified_traced(
    w: &Workload,
    strategy: Strategy,
    config: &ClusterConfig,
    target_gb: f64,
    traced: bool,
) -> Result<(QueryOutcome, Option<ysmart_mapred::Trace>), CoreError> {
    let mut engine = YSmart::new(w.catalog.clone(), config.clone());
    if traced {
        engine.enable_tracing();
    }
    w.load_into(&mut engine)?;
    let real_bytes = engine.cluster.hdfs.total_bytes().max(1);
    engine.cluster.config.size_multiplier = (target_gb * 1e9) / real_bytes as f64;
    let out = engine.execute_sql(&w.sql, strategy)?;
    let trace = engine.take_trace();

    let tables: BTreeMap<String, Vec<Row>> = w
        .tables
        .iter()
        .map(|(n, r)| ((*n).to_string(), r.clone()))
        .collect();
    let plan = engine.plan(&w.sql)?;
    let expected = oracle_execute(&plan, &tables)?;
    let ok = rows_approx_equal(&out.rows, &expected.rows, w.ordered);
    if !ok {
        return Err(CoreError::Translate(format!(
            "{} under {strategy}: result does not match the oracle ({} vs {} rows)",
            w.name,
            out.rows.len(),
            expected.rows.len()
        )));
    }
    Ok((out, trace))
}

/// The "ideal parallel PostgreSQL" time of §VII-D: the oracle's single-node
/// simulated time at the target volume, divided by the assumed perfect
/// parallelism (the paper runs quarter-size data on one core of four).
///
/// # Errors
///
/// Oracle evaluation failures.
pub fn pgsql_seconds(w: &Workload, target_gb: f64) -> Result<f64, CoreError> {
    let tables: BTreeMap<String, Vec<Row>> = w
        .tables
        .iter()
        .map(|(n, r)| ((*n).to_string(), r.clone()))
        .collect();
    let real_bytes: u64 = w
        .tables
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .map(|r| r.size_bytes() as u64 + 1)
        .sum();
    let mult = (target_gb * 1e9) / real_bytes.max(1) as f64;
    let q = ysmart_sql::parse(&w.sql)?;
    let plan = ysmart_plan::build_plan(&w.catalog, &q)?;
    let out = oracle_execute(&plan, &tables)?;
    let profile = DbmsProfile::default();
    let scaled = ysmart_queries::OracleOutcome {
        rows: Vec::new(),
        row_ops: (out.row_ops as f64 * mult) as u64,
        bytes_scanned: (out.bytes_scanned as f64 * mult) as u64,
    };
    Ok(profile.seconds(&scaled))
}

/// Formats seconds as `MMmSSs` for compact tables.
#[must_use]
pub fn fmt_secs(s: f64) -> String {
    format!("{:>7.1}s", s)
}

/// Prints a per-job map/reduce breakdown (the bar contents of Figs. 9, 10
/// and 12).
pub fn print_breakdown(label: &str, outcome: &QueryOutcome) {
    println!("  {label}: total {}", fmt_secs(outcome.total_s()));
    for j in &outcome.metrics.jobs {
        println!(
            "    {:<40} map {} reduce {} (delay {})",
            j.name,
            fmt_secs(j.map_time_s),
            fmt_secs(j.reduce_time_s),
            fmt_secs(j.startup_delay_s),
        );
    }
}

/// A row of a figure summary table.
#[derive(Debug, Clone)]
pub struct FigRow {
    /// Series label ("YSmart", "Hive c", …).
    pub label: String,
    /// Seconds, or the DNF reason.
    pub result: Result<f64, String>,
}

/// Prints a summary table and speedup lines (the paper reports YSmart's
/// speedup over each competitor as a percentage).
pub fn print_summary(title: &str, rows: &[FigRow]) {
    println!("{title}");
    let base = rows
        .iter()
        .find(|r| r.label.to_lowercase().contains("ysmart") && !r.label.contains("no-jfc"))
        .and_then(|r| r.result.as_ref().ok().copied());
    for r in rows {
        match &r.result {
            Ok(s) => {
                let speedup = base
                    .filter(|b| *b > 0.0 && !r.label.to_lowercase().contains("ysmart"))
                    .map(|b| {
                        format!(
                            "  ({:.0}% of YSmart speedup base: {:.2}x)",
                            s / b * 100.0,
                            s / b
                        )
                    })
                    .unwrap_or_default();
                println!("  {:<16} {}{}", r.label, fmt_secs(*s), speedup);
            }
            Err(reason) => println!("  {:<16}     DNF ({reason})", r.label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_datagen::ClicksSpec;
    use ysmart_queries::clicks_workloads;

    #[test]
    fn execute_verified_catches_real_runs() {
        let ws = clicks_workloads(&ClicksSpec {
            users: 6,
            clicks_per_user: 10,
            ..ClicksSpec::default()
        });
        let out = execute_verified(
            &ws[0],
            Strategy::YSmart,
            &ClusterConfig::small_local(),
            0.001,
        )
        .unwrap();
        assert!(out.total_s() > 0.0);
    }

    #[test]
    fn pgsql_baseline_positive() {
        let ws = clicks_workloads(&ClicksSpec {
            users: 6,
            clicks_per_user: 10,
            ..ClicksSpec::default()
        });
        assert!(pgsql_seconds(&ws[0], 1.0).unwrap() > 0.0);
    }

    #[test]
    fn fmt_and_print_helpers() {
        assert!(fmt_secs(1.25).contains("1.2"));
        print_summary(
            "t",
            &[
                FigRow {
                    label: "YSmart".into(),
                    result: Ok(10.0),
                },
                FigRow {
                    label: "Hive".into(),
                    result: Ok(25.0),
                },
                FigRow {
                    label: "Pig".into(),
                    result: Err("disk full".into()),
                },
            ],
        );
    }
}
