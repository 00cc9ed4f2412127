//! One query, taken apart into the public calls `YSmart::execute_sql` makes,
//! with a span around each — the traced run's view of an op.
//!
//! The calls and their order mirror `YSmart::translate_tagged` and
//! `YSmart::execute_translation`; the traced run asserts that rows, job
//! count and simulated seconds equal the undecomposed run's, so a drift
//! between this file and the engine shows up as a hard failure.

use std::time::Instant;

use ysmart::core::{compile, Strategy, Translation, YSmart};
use ysmart::mapred::{chain_seed, ChainMetrics, ChainSession, ChainStep, MapRedError};
use ysmart::plan::{analyze_with_stats, build_plan, Catalog, CorrelationReport, Plan, Statistics};
use ysmart::rel::Row;

use crate::span::Tracer;

/// parse → build_plan → analyze → compile, one span each.
pub fn translate(
    catalog: &Catalog,
    stats: Option<&Statistics>,
    sql: &str,
    strategy: Strategy,
    tag: &str,
    qid: u32,
    tr: &mut Tracer,
) -> Result<(Plan, CorrelationReport, Translation), String> {
    let query = tr
        .span("sql.parse", qid, || ysmart::sql::parse(sql))
        .map_err(|e| e.to_string())?;
    let plan = tr
        .span("plan.build_plan", qid, || build_plan(catalog, &query))
        .map_err(|e| e.to_string())?;
    let report = tr.span("plan.analyze", qid, || analyze_with_stats(&plan, stats));
    let translation = tr
        .span("core.compile", qid, || {
            compile(&plan, &report, &strategy.options(), tag)
        })
        .map_err(|e| e.to_string())?;
    Ok((plan, report, translation))
}

/// What a decomposed execution returns: the rows, the chain's metrics, and
/// the wall-clock seconds the chain's job steps took.
pub struct Executed {
    pub rows: Vec<Row>,
    pub metrics: ChainMetrics,
    pub chain_s: f64,
}

/// chain_for → one `ChainSession::step` per job attempt → decode_output.
pub fn execute(
    engine: &mut YSmart,
    translation: &Translation,
    qid: u32,
    tr: &mut Tracer,
) -> Result<Executed, String> {
    let chain = tr
        .span("core.chain_for", qid, || engine.chain_for(translation))
        .map_err(|e| e.to_string())?;
    let chain_start = Instant::now();
    tr.enter("mapred.run_chain", qid);
    let mut session = ChainSession::new(chain_seed(&chain));
    let outcome = loop {
        let step = tr.span("mapred.step", qid, || {
            session.step(&mut engine.cluster, &chain)
        });
        match step {
            ChainStep::Advanced | ChainStep::Backoff { .. } => {}
            ChainStep::Finished => break Ok(session.into_outcome()),
            ChainStep::Failed => {
                break Err(MapRedError::from(session.into_failure(&mut engine.cluster)))
            }
        }
    };
    tr.exit();
    let chain_s = chain_start.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| e.to_string())?;
    let rows = tr
        .span("core.decode_output", qid, || {
            engine.decode_output(translation)
        })
        .map_err(|e| e.to_string())?;
    Ok(Executed {
        rows,
        metrics: outcome.metrics,
        chain_s,
    })
}
