//! The `dss_*` workloads: the query suite through `YSmart::execute_sql`, one
//! long-lived engine per catalog, one op = one pass of the suite.

use std::time::Instant;

use ysmart::core::{Strategy, YSmart};
use ysmart::datagen::{clicks_catalog, tpch_catalog};
use ysmart::mapred::{ChainMetrics, ClusterConfig, DataFormat};
use ysmart::rel::Row;

use crate::cycle::{repeat_setup, Answer, CycleReport, Layers, Rows};
use crate::decomposed;
use crate::span::Tracer;
use crate::util::timed;
use crate::workloads::{cluster_config, Db, QueryText, Spec};

/// fig10's simulated data volumes: 10 GB of TPC-H, 20 GB of clicks.
const TPCH_TARGET_GB: f64 = 10.0;
const CLICKS_TARGET_GB: f64 = 20.0;
/// fig10's disk for the click-stream query: Hive's intermediates fit, Pig's
/// do not.
const CLICKS_DISK_MB: f64 = 65_000.0;

pub struct Engines {
    pub tpch: YSmart,
    pub clicks: YSmart,
}

impl Engines {
    pub fn of(&mut self, db: Db) -> &mut YSmart {
        match db {
            Db::Tpch => &mut self.tpch,
            Db::Clicks => &mut self.clicks,
        }
    }
}

fn scale_to(engine: &mut YSmart, target_gb: f64) {
    let real_bytes = engine.cluster.hdfs.total_bytes().max(1);
    engine.cluster.config.size_multiplier = target_gb * 1e9 / real_bytes as f64;
}

/// Generates both datasets from the seed and loads them into two fresh
/// engines, sampling `datagen.rows_per_s` and `hdfs.load_rows_per_s`.
pub fn load_engines(
    spec: &Spec,
    seed: u64,
    tpch_config: ClusterConfig,
    clicks_config: ClusterConfig,
    layers: &mut Layers,
) -> Result<Engines, String> {
    let ((db, clicks), gen_s) = timed(|| (spec.tpch(seed), spec.clicks(seed)));
    let tables = db.tables();
    let rows: usize = tables.iter().map(|(_, r)| r.len()).sum::<usize>() + clicks.len();
    layers.sample("datagen.rows_per_s", rows as f64 / gen_s);

    let mut tpch = YSmart::new(tpch_catalog(), tpch_config);
    let mut clicks_engine = YSmart::new(clicks_catalog(), clicks_config);
    let (loaded, load_s) = timed(|| -> Result<(), String> {
        for (name, rows) in &tables {
            tpch.load_table(name, rows).map_err(|e| e.to_string())?;
        }
        clicks_engine
            .load_table("clicks", &clicks)
            .map_err(|e| e.to_string())
    });
    loaded?;
    layers.sample("hdfs.load_rows_per_s", rows as f64 / load_s);
    Ok(Engines {
        tpch,
        clicks: clicks_engine,
    })
}

/// The engines of a `dss_*` cycle: configured as fig10 configures them, in
/// columnar format.
pub fn setup(spec: &Spec, seed: u64, layers: &mut Layers) -> Result<Engines, String> {
    let config = ClusterConfig {
        data_format: DataFormat::Columnar,
        ..cluster_config()
    };
    let clicks_config = ClusterConfig {
        disk_capacity_mb: CLICKS_DISK_MB,
        ..config.clone()
    };
    let mut engines = load_engines(spec, seed, config, clicks_config, layers)?;
    scale_to(&mut engines.tpch, TPCH_TARGET_GB);
    scale_to(&mut engines.clicks, CLICKS_TARGET_GB);
    Ok(engines)
}

fn query_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "q17" => "run.query.q17.ms_p50",
        "q18" => "run.query.q18.ms_p50",
        "q21" => "run.query.q21.ms_p50",
        "q-csa" => "run.query.q-csa.ms_p50",
        "q-agg" => "run.query.q-agg.ms_p50",
        _ => return None,
    })
}

/// One executed query. `query_ms` and `chain_s` are only taken when the
/// query ran decomposed.
struct QueryRun {
    rows: Vec<Row>,
    metrics: ChainMetrics,
    query_ms: f64,
    chain_s: f64,
}

fn pass_plain(
    engines: &mut Engines,
    queries: &[QueryText],
    strategy: Strategy,
) -> Vec<Result<QueryRun, String>> {
    queries
        .iter()
        .map(|q| {
            let out = engines
                .of(q.db)
                .execute_sql(&q.sql, strategy)
                .map_err(|e| e.to_string())?;
            Ok(QueryRun {
                rows: out.rows,
                metrics: out.metrics,
                query_ms: 0.0,
                chain_s: 0.0,
            })
        })
        .collect()
}

/// The traced run's state across the ops of one cycle. `YSmart::translate`
/// tags a query with a private per-engine sequence number; a decomposed
/// cycle makes the same calls in the same order on engines of its own, so
/// counting here reproduces the tags — and with them every HDFS path.
struct Traced<'a> {
    tracer: &'a mut Tracer,
    tpch_seq: usize,
    clicks_seq: usize,
}

impl Traced<'_> {
    fn pass(
        &mut self,
        engines: &mut Engines,
        queries: &[QueryText],
        strategy: Strategy,
    ) -> Vec<Result<QueryRun, String>> {
        queries
            .iter()
            .map(|q| {
                let qid = self.tracer.next_query();
                let seq = match q.db {
                    Db::Tpch => &mut self.tpch_seq,
                    Db::Clicks => &mut self.clicks_seq,
                };
                *seq += 1;
                let tag = format!("q{seq}-{strategy}");
                let engine = engines.of(q.db);
                let start = Instant::now();
                self.tracer.enter("run.query", qid);
                let result = decomposed::translate(
                    engine.catalog(),
                    Some(engine.statistics()),
                    &q.sql,
                    strategy,
                    &tag,
                    qid,
                    self.tracer,
                )
                .and_then(|(_, _, t)| decomposed::execute(engine, &t, qid, self.tracer));
                self.tracer.exit();
                let query_ms = start.elapsed().as_secs_f64() * 1e3;
                result.map(|e| QueryRun {
                    rows: e.rows,
                    metrics: e.metrics,
                    query_ms,
                    chain_s: e.chain_s,
                })
            })
            .collect()
    }
}

/// One cycle: set up, `warmup_ops` untimed passes, `ops_per_cycle` timed
/// ones. With a tracer, every pass is decomposed into spans.
pub fn cycle(
    spec: &Spec,
    strategy: Strategy,
    queries: &[QueryText],
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> CycleReport {
    let mut report = CycleReport::default();
    let (engines, setup_s) = repeat_setup(|| setup(spec, seed, &mut report.layers));
    report.setup_s = setup_s;
    let mut engines = match engines {
        Ok(e) => e,
        Err(e) => return report.setup_failed(&e),
    };
    let mut traced = tracer.map(|tracer| Traced {
        tracer,
        tpch_seq: 0,
        clicks_seq: 0,
    });

    // `JobMetrics` counts records at simulated volume (real x
    // `size_multiplier`); rows/s wants the rows the executor really read.
    let real_rows = |engines: &mut Engines, db: Db, m: &ChainMetrics| -> f64 {
        let simulated: u64 = m.jobs.iter().map(|j| j.map_in_records).sum();
        simulated as f64 / engines.of(db).cluster.config.size_multiplier
    };
    let (mut chain_s, mut rows_in) = (0.0, 0.0);
    for op in 0..spec.warmup_ops + spec.ops_per_cycle {
        let start = Instant::now();
        let results = match traced.as_mut() {
            Some(t) => {
                t.tracer.enter("run.op", 0);
                let r = t.pass(&mut engines, queries, strategy);
                t.tracer.exit();
                r
            }
            None => pass_plain(&mut engines, queries, strategy),
        };
        let op_ms = start.elapsed().as_secs_f64() * 1e3;
        if op < spec.warmup_ops {
            continue;
        }
        report.op_ms.push(op_ms);
        for (q, result) in queries.iter().enumerate().zip(results) {
            report.attempted += 1;
            match result {
                Ok(run) => {
                    report.exact.add_chain(&run.metrics);
                    report.layers.add_chain(&run.metrics);
                    chain_s += run.chain_s;
                    rows_in += real_rows(&mut engines, q.1.db, &run.metrics);
                    if let (Some(metric), true) = (query_metric(q.1.name), traced.is_some()) {
                        report.layers.sample(metric, run.query_ms);
                    }
                    report.answers.push(Answer {
                        query: q.0,
                        rows: Rows::Typed(run.rows),
                    });
                }
                Err(e) => report.fail(format!("{}: {e}", q.1.name)),
            }
        }
    }

    if chain_s > 0.0 {
        report
            .layers
            .sample("mapred.map_in_rows_per_s", rows_in / chain_s);
    }
    let hdfs = [&engines.tpch.cluster.hdfs, &engines.clicks.cluster.hdfs];
    let paths: usize = hdfs.iter().map(|h| h.paths().count()).sum();
    let bytes: u64 = hdfs.iter().map(|h| h.total_bytes()).sum();
    report.layers.set("hdfs.paths_after_run", paths as f64);
    report.layers.set("hdfs.bytes_after_run", bytes as f64);
    report
}
