//! Layer micro-drives: each calls one layer's public functions directly,
//! over the workload's own tables, and times only that call. They run in the
//! traced run, after the cycles, and feed per-layer metrics only.

use std::path::Path;
use std::sync::Arc;

use ysmart::core::{self, Strategy, YSmart};
use ysmart::exec::{CommonMapper, CommonReducer, JobBlueprint};
use ysmart::mapred::journal::{Journal, JournalRecord};
use ysmart::mapred::norm::NormArena;
use ysmart::mapred::scheduler::{run_workload, QueryRequest};
use ysmart::mapred::{file_checksum, MapOutput, Mapper, ReduceOutput, Reducer};
use ysmart::plan::{analyze, build_plan};
use ysmart::rel::codec::{decode_line, encode_line};
use ysmart::rel::colbatch::DEFAULT_FRAME_ROWS;
use ysmart::rel::{ColumnBatch, Row};
use ysmart::serve::default_scheduler;

use crate::cycle::Layers;
use crate::decomposed;
use crate::span::Tracer;
use crate::translate::Catalogs;
use crate::util::{median, timed};
use crate::workloads::{QueryText, Stream};

/// Appends timed by the journal drive.
const JOURNAL_APPENDS: usize = 200;

/// `plan.nodes`, `plan.correlations` and `core.jobs_merged_away` of the
/// workload's distinct queries. These are properties of the translation,
/// not timings, so they are computed once from the public functions.
pub fn plan_counts(
    catalogs: &Catalogs,
    queries: &[QueryText],
    layers: &mut Layers,
) -> Result<(), String> {
    let (mut nodes, mut correlations, mut merged_away) = (0usize, 0usize, 0i64);
    for q in queries {
        let catalog = catalogs.of(q.db);
        let parsed = ysmart::sql::parse(&q.sql).map_err(|e| e.to_string())?;
        let plan = build_plan(catalog, &parsed).map_err(|e| e.to_string())?;
        let report = analyze(&plan);
        nodes += plan.len();
        correlations +=
            report.input_correlated.len() + report.transit_correlated.len() + report.job_flow.len();
        let jobs = |strategy| {
            core::translate(catalog, &q.sql, strategy, "pb-count")
                .map(|t| t.job_count() as i64)
                .map_err(|e| e.to_string())
        };
        merged_away += jobs(Strategy::Hive)? - jobs(Strategy::YSmart)?;
    }
    layers.set("plan.nodes", nodes as f64);
    layers.set("plan.correlations", correlations as f64);
    layers.set("core.jobs_merged_away", merged_away as f64);
    Ok(())
}

/// The first job of `sql`'s translation that reads base tables only and has
/// a reduce side — the one job the exec drive can feed from `data/` files.
fn base_table_job(
    engine: &mut YSmart,
    sql: &str,
    strategy: Strategy,
) -> Result<Arc<JobBlueprint>, String> {
    let translation = engine
        .translate_tagged(sql, strategy, "pb-drive")
        .map_err(|e| e.to_string())?;
    translation
        .blueprints
        .into_iter()
        .find(|bp| !bp.map_only && bp.inputs.iter().all(|i| i.path.starts_with("data/")))
        .map(Arc::new)
        .ok_or_else(|| "no base-table job with a reduce side".to_string())
}

/// `exec`: `CommonMapper::map_batch`/`map` over the job's base-table inputs,
/// then `CommonReducer::reduce` over the sorted, grouped map output. Returns
/// the map-output keys for the `norm` drive.
pub fn exec(
    engine: &mut YSmart,
    sql: &str,
    strategy: Strategy,
    layers: &mut Layers,
) -> Result<Vec<Row>, String> {
    let bp = base_table_job(engine, sql, strategy)?;
    let mut out = MapOutput::default();
    let (mut rows_in, mut map_s) = (0usize, 0.0);
    for (idx, input) in bp.inputs.iter().enumerate() {
        let file = engine
            .cluster
            .hdfs
            .get(&input.path)
            .map_err(|e| e.to_string())?;
        let mut mapper = CommonMapper::new(Arc::clone(&bp), idx);
        if file.is_columnar() {
            let batches = file
                .frames
                .iter()
                .map(|f| ColumnBatch::decode_frame(f))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            rows_in += batches.iter().map(ColumnBatch::num_rows).sum::<usize>();
            map_s += timed(|| batches.iter().for_each(|b| mapper.map_batch(b, &mut out))).1;
        } else {
            rows_in += file.lines.len();
            map_s += timed(|| file.lines.iter().for_each(|l| mapper.map(l, &mut out))).1;
        }
    }
    if let Some(fatal) = out.take_fatal() {
        return Err(format!("mapper: {fatal}"));
    }
    layers.set("exec.map_rows_per_s", rows_in as f64 / map_s);
    layers.set(
        "exec.map_out_per_in",
        out.len() as f64 / rows_in.max(1) as f64,
    );

    // The engine's shuffle, reduced to what the reducer needs: pairs sorted
    // by key, each key's values contiguous.
    let (keys, values) = out.into_columns();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
    let sorted_keys: Vec<&Row> = order.iter().map(|&i| &keys[i]).collect();
    let sorted_values: Vec<Row> = order.iter().map(|&i| values[i].clone()).collect();
    let mut reducer = CommonReducer::new(Arc::clone(&bp));
    let mut reduced = ReduceOutput::default();
    let ((), reduce_s) = timed(|| {
        let mut start = 0;
        while start < sorted_keys.len() {
            let key = sorted_keys[start];
            let len = sorted_keys[start..]
                .iter()
                .take_while(|k| **k == key)
                .count();
            reducer.reduce(key, &sorted_values[start..start + len], &mut reduced);
            start += len;
        }
    });
    if let Some(fatal) = reduced.take_fatal() {
        return Err(format!("reducer: {fatal}"));
    }
    layers.set(
        "exec.reduce_rows_per_s",
        sorted_values.len() as f64 / reduce_s,
    );
    let dispatches: u64 = reduced.take_dispatches().iter().sum();
    layers.set("exec.reduce_dispatches", dispatches as f64);
    Ok(keys)
}

/// `rel`: columnar frames and text lines, encode and decode, over `rows`.
pub fn rel(rows: &[Row], schema: &ysmart::rel::Schema, layers: &mut Layers) -> Result<(), String> {
    let n = rows.len().max(1) as f64;
    let (frames, encode_s) = timed(|| {
        rows.chunks(DEFAULT_FRAME_ROWS)
            .map(|chunk| ColumnBatch::from_rows(chunk).map(|b| b.encode_frame()))
            .collect::<Result<Vec<_>, _>>()
    });
    let frames = frames.map_err(|e| e.to_string())?;
    let frame_mb = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let (decoded, decode_s) = timed(|| {
        frames
            .iter()
            .map(|f| ColumnBatch::decode_frame(f).map(|b| b.num_rows()))
            .sum::<Result<usize, _>>()
    });
    if decoded.map_err(|e| e.to_string())? != rows.len() {
        return Err("frames decode to a different row count".into());
    }
    layers.set("rel.frame_encode_mb_per_s", frame_mb / encode_s);
    layers.set("rel.frame_decode_mb_per_s", frame_mb / decode_s);
    layers.set("rel.frame_bytes_per_row", frame_mb * 1e6 / n);

    let (lines, encode_s) = timed(|| rows.iter().map(encode_line).collect::<Vec<_>>());
    let (decoded, decode_s) = timed(|| {
        lines
            .iter()
            .map(|l| decode_line(l, schema))
            .collect::<Result<Vec<_>, _>>()
    });
    if decoded.map_err(|e| e.to_string())?.as_slice() != rows {
        return Err("lines decode to different rows".into());
    }
    let line_bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    layers.set("rel.line_encode_rows_per_s", n / encode_s);
    layers.set("rel.line_decode_rows_per_s", n / decode_s);
    layers.set("rel.line_bytes_per_row", line_bytes as f64 / n);
    Ok(())
}

/// `norm`: normalized-key encoding of the shuffle keys.
pub fn norm(keys: &[Row], layers: &mut Layers) {
    let (arena, s) = timed(|| NormArena::from_keys(keys));
    layers.set("norm.encode_keys_per_s", arena.len() as f64 / s);
}

/// `hdfs`: content checksum of the largest base table.
pub fn hdfs_checksum(engine: &YSmart, layers: &mut Layers) -> Result<(), String> {
    let file = engine
        .cluster
        .hdfs
        .get("data/lineitem")
        .map_err(|e| e.to_string())?;
    let (sum, s) = timed(|| file_checksum(file));
    std::hint::black_box(sum);
    layers.set("hdfs.checksum_mb_per_s", file.bytes() as f64 / 1e6 / s);
    Ok(())
}

/// `journal`: one admission record appended and flushed, as the service
/// does before it acknowledges a query.
pub fn journal(dir: &Path, sql: &str, layers: &mut Layers) -> Result<(), String> {
    let path = dir.join("journal-drive.bin");
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path).map_err(|e| e.to_string())?;
    let mut us = Vec::with_capacity(JOURNAL_APPENDS);
    for id in 0..JOURNAL_APPENDS as u64 {
        let record = JournalRecord::Admitted {
            id,
            tenant: "default".into(),
            label: format!("default/q{id}"),
            seed: id,
            deadline_s: None,
            submit_s: 0.0,
            payload: sql.to_string(),
        };
        let (flushed, s) = timed(|| {
            journal.append(&record);
            journal.flush()
        });
        flushed.map_err(|e| e.to_string())?;
        us.push(s * 1e6);
    }
    layers.set("journal.append_flush_us", median(&us));
    Ok(())
}

/// `sql`/`plan`/`core` for the serve workloads: the stream's distinct
/// queries through the calls `Service::submit` makes, one span each.
pub fn serve_translation(
    engine: &YSmart,
    queries: &[QueryText],
    tracer: &mut Tracer,
) -> Result<(), String> {
    for q in queries {
        let qid = tracer.next_query();
        let (_, _, translation) = decomposed::translate(
            engine.catalog(),
            Some(engine.statistics()),
            &q.sql,
            Strategy::YSmart,
            &format!("pb-drive-{qid}"),
            qid,
            tracer,
        )?;
        tracer
            .span("core.chain_for", qid, || engine.chain_for(&translation))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `scheduler` (and the serve workloads' `mapred` counts): the stream's
/// first batch as chains through `scheduler::run_workload` — no journal, no
/// reuse — then the same chains one at a time through `ChainSession::step`.
/// The difference is what the scheduler adds.
pub fn scheduler(
    engine: &mut YSmart,
    stream: &Stream,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let batch = stream.batches.first().ok_or("empty stream")?;
    let mut requests = Vec::with_capacity(batch.len());
    for (i, &q) in batch.iter().enumerate() {
        let translation = engine
            .translate_tagged(
                &stream.queries[q].sql,
                Strategy::YSmart,
                &format!("pb-sched-{i}"),
            )
            .map_err(|e| e.to_string())?;
        requests.push(QueryRequest {
            tenant: "default".into(),
            label: format!("default/q{i}"),
            chain: engine.chain_for(&translation).map_err(|e| e.to_string())?,
            seed: i as u64,
            deadline_s: None,
            submit_s: i as f64,
        });
    }
    let (report, batch_s) = timed(|| {
        tracer.span("scheduler.run_workload", 0, || {
            run_workload(&mut engine.cluster, &default_scheduler(), requests)
        })
    });
    layers.set("scheduler.batch_ms", batch_s * 1e3);
    let completed = report.reports.iter().filter(|r| r.completed()).count();
    let shed = report.reports.iter().filter(|r| r.shed()).count();
    layers.set("scheduler.completed", completed as f64);
    layers.set("scheduler.shed", shed as f64);
    for m in report.reports.iter().filter_map(|r| r.metrics()) {
        layers.add_chain(m);
    }

    let mut chains_s = 0.0;
    for (i, &q) in batch.iter().enumerate() {
        let qid = tracer.next_query();
        let translation = engine
            .translate_tagged(
                &stream.queries[q].sql,
                Strategy::YSmart,
                &format!("pb-chain-{i}"),
            )
            .map_err(|e| e.to_string())?;
        chains_s += decomposed::execute(engine, &translation, qid, tracer)?.chain_s;
    }
    layers.set("scheduler.overhead_ms", (batch_s - chains_s) * 1e3);
    layers.set(
        "mapred.map_in_rows_per_s",
        layers.get("mapred.map_in_records") / chains_s,
    );
    Ok(())
}
