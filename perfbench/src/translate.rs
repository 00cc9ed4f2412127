//! The `translate` workload: `core::translate` of every paper query under
//! every strategy, one op = one sweep of all 35.

use std::time::Instant;

use ysmart::core::{self, Strategy, Translation};
use ysmart::datagen::{clicks_catalog, tpch_catalog};
use ysmart::plan::Catalog;

use crate::cycle::{repeat_setup, CycleReport, Layers};
use crate::decomposed;
use crate::dss::{load_engines, Engines};
use crate::span::Tracer;
use crate::workloads::{cluster_config, translate_queries, Db, QueryText, Spec};

/// Every translation of a sweep gets this tag, so sweeps are comparable
/// with `==` (the tag names the HDFS paths inside the blueprints).
pub const TAG: &str = "pb";

pub struct Catalogs {
    pub tpch: Catalog,
    pub clicks: Catalog,
}

impl Catalogs {
    pub fn of(&self, db: Db) -> &Catalog {
        match db {
            Db::Tpch => &self.tpch,
            Db::Clicks => &self.clicks,
        }
    }
}

impl Catalogs {
    pub fn new() -> Catalogs {
        Catalogs {
            tpch: tpch_catalog(),
            clicks: clicks_catalog(),
        }
    }
}

/// What the run's sweeps are checked against once timing is over.
#[derive(Default)]
pub struct Reference {
    /// The run's first timed sweep; every other sweep must equal it.
    pub sweep: Vec<Translation>,
    /// The run's first set-up's engines, on which verification executes
    /// every translation of `sweep` and compares the rows with the oracle's.
    pub engines: Option<Engines>,
}

/// The two catalogs, the SQL texts, and the small database (the spec's
/// scale, `workloads::cluster_config()`) the sweep's translations are
/// executed on to verify them. Translating reads no data, but a user who
/// translates has a database to run the jobs on, and without this the
/// workload's set-up would be a ~100 us timer that no relative bound can
/// hold.
pub fn setup(
    spec: &Spec,
    seed: u64,
    layers: &mut Layers,
) -> Result<(Catalogs, Vec<QueryText>, Engines), String> {
    let config = cluster_config();
    let engines = load_engines(spec, seed, config.clone(), config, layers)?;
    Ok((Catalogs::new(), translate_queries(), engines))
}

pub fn same_translation(a: &Translation, b: &Translation) -> bool {
    a.blueprints == b.blueprints
        && a.output_path == b.output_path
        && a.output_schema == b.output_schema
}

type Sweep = Vec<Result<Translation, String>>;

fn sweep_plain(catalogs: &Catalogs, queries: &[QueryText]) -> Sweep {
    let mut out = Vec::with_capacity(queries.len() * Strategy::all().len());
    for q in queries {
        for strategy in Strategy::all() {
            out.push(
                core::translate(catalogs.of(q.db), &q.sql, strategy, TAG)
                    .map_err(|e| e.to_string()),
            );
        }
    }
    out
}

fn sweep_traced(catalogs: &Catalogs, queries: &[QueryText], tracer: &mut Tracer) -> Sweep {
    let mut out = Vec::with_capacity(queries.len() * Strategy::all().len());
    for q in queries {
        for strategy in Strategy::all() {
            let qid = tracer.next_query();
            tracer.enter("run.query", qid);
            // `core::translate` analyzes without statistics.
            let t =
                decomposed::translate(catalogs.of(q.db), None, &q.sql, strategy, TAG, qid, tracer);
            tracer.exit();
            out.push(t.map(|(_, _, t)| t));
        }
    }
    out
}

/// One cycle. The cycle that finds `reference` empty fills it: its engines,
/// and its first timed sweep, which every other sweep of the run must equal
/// (verification later runs these very translations against the oracle).
pub fn cycle(
    spec: &Spec,
    seed: u64,
    reference: &mut Reference,
    mut tracer: Option<&mut Tracer>,
) -> CycleReport {
    let mut report = CycleReport::default();
    let (setup, setup_s) = repeat_setup(|| setup(spec, seed, &mut report.layers));
    report.setup_s = setup_s;
    let (catalogs, queries, engines) = match setup {
        Ok(s) => s,
        Err(e) => return report.setup_failed(&e),
    };
    reference.engines.get_or_insert(engines);

    for op in 0..spec.warmup_ops + spec.ops_per_cycle {
        let start = Instant::now();
        let sweep = match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.enter("run.op", 0);
                let s = sweep_traced(&catalogs, &queries, tracer);
                tracer.exit();
                s
            }
            None => sweep_plain(&catalogs, &queries),
        };
        let op_ms = start.elapsed().as_secs_f64() * 1e3;
        if op < spec.warmup_ops {
            continue;
        }
        report.op_ms.push(op_ms);
        let first = reference.sweep.is_empty();
        for (i, t) in sweep.into_iter().enumerate() {
            report.attempted += 1;
            match t {
                Ok(t) => {
                    report.exact.jobs += t.job_count() as u64;
                    if first {
                        reference.sweep.push(t);
                    } else if !reference
                        .sweep
                        .get(i)
                        .is_some_and(|r| same_translation(r, &t))
                    {
                        report.fail(format!("translation {i} differs between sweeps"));
                    }
                }
                Err(e) => report.fail(format!("translation {i}: {e}")),
            }
        }
    }
    report
}
