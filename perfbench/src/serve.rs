//! The `serve_*` workloads: `serve::Service` driven over its line protocol,
//! one op = one batch of admissions plus `!run`; then a crash and a reopen.

use std::path::Path;
use std::time::Instant;

use ysmart::core::{Strategy, YSmart};
use ysmart::datagen::{tpch_catalog, TpchGen};
use ysmart::mapred::{journal, ReuseConfig};
use ysmart::serve::{Response, ServeOptions, Service};

use crate::cycle::{repeat_setup, Answer, CycleReport, Layers, Rows};
use crate::span::Tracer;
use crate::util::timed;
use crate::workloads::{cluster_config, Spec, Stream, TAIL_QUERIES};

/// Reopenings of the crashed journal per cycle of a traced run, which is the
/// run that reports `serve.recovery_s`: the median over all of them. The
/// first reopening after a crash takes about 1.6 times as long as the others
/// (0.9–1.05 s against 0.53–0.66 s on `serve_cold`): it runs on memory the
/// allocator has to fault in, as a restarted process would. With five per
/// cycle the median is always that of the later ones, whatever the number of
/// cycles.
pub const TRACED_REOPENINGS: usize = 5;

/// The engine `ysmart serve` builds — `ClusterConfig::small_local()` (text
/// format, actual-size data), every table loaded — on one worker thread.
pub fn engine(db: &TpchGen) -> Result<YSmart, String> {
    let mut engine = YSmart::new(tpch_catalog(), cluster_config());
    for (name, rows) in db.tables() {
        engine.load_table(name, rows).map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// The options `ysmart serve --journal F [--reuse-mb N]` builds.
pub fn options(journal: &Path, reuse_mb: Option<u64>) -> ServeOptions {
    let mut options = ServeOptions::new(Strategy::YSmart);
    options.journal_path = Some(journal.to_path_buf());
    options.reuse = reuse_mb.map(|mb| ReuseConfig::with_capacity(mb * 1_000_000));
    options
}

struct Driver<'a> {
    service: Service,
    stream: &'a Stream,
    /// Query index of every admission, by service-wide query id.
    admitted: Vec<usize>,
    tracer: Option<&'a mut Tracer>,
    /// Id of the query being admitted, for its spans.
    qid: u32,
}

impl Driver<'_> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Service) -> R) -> R {
        match self.tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.enter(name, self.qid);
                let r = f(&mut self.service);
                tracer.exit();
                r
            }
            None => f(&mut self.service),
        }
    }

    /// Admits one query; anything but an acknowledgement is a failure.
    fn admit(&mut self, query: usize, report: &mut CycleReport) {
        if let Some(tracer) = self.tracer.as_deref_mut() {
            self.qid = tracer.next_query();
        }
        let stream = self.stream;
        let sql = &stream.queries[query].sql;
        let (responses, s) = timed(|| self.span("serve.admit", |svc| svc.handle_line(sql)));
        report.layers.sample("serve.admit_us", s * 1e6);
        report.attempted += 1;
        match responses.as_slice() {
            [Response::Info(ack)] if ack.starts_with("accepted") => self.admitted.push(query),
            other => report.fail(format!("admission not acknowledged: {other:?}")),
        }
    }

    /// `!run`: every result becomes an answer to verify, every refusal a
    /// failure. Returns (jobs, simulated seconds) of the batch.
    fn run(&mut self, report: &mut CycleReport) -> (u64, f64) {
        let (responses, s) = timed(|| self.span("serve.run", |svc| svc.handle_line("!run")));
        report.layers.sample("serve.run_ms", s * 1e3);
        let (mut jobs_total, mut sim_s) = (0, 0.0);
        for r in responses {
            match r {
                Response::Result {
                    id,
                    rows,
                    jobs,
                    elapsed_s,
                    ..
                } => match self.admitted.get(id as usize) {
                    Some(&query) => {
                        jobs_total += jobs as u64;
                        sim_s += elapsed_s;
                        report.answers.push(Answer {
                            query,
                            rows: Rows::Lines(rows),
                        });
                    }
                    None => report.fail(format!("result for unknown query id {id}")),
                },
                Response::Rejected { label, error, .. } => {
                    report.fail(format!("{label} rejected: {error}"));
                }
                Response::Info(_) => {}
            }
        }
        (jobs_total, sim_s)
    }
}

/// One cycle: open a service on an empty journal, run the stream's batches
/// (the first `warmup_ops` of them untimed), admit the tail, drop the service
/// without `!quit`, reopen it `reopenings` times from a copy of the journal
/// with a freshly loaded engine, check what recovery promised, and drain the
/// recovered tail.
pub fn cycle(
    spec: &Spec,
    reuse_mb: Option<u64>,
    seed: u64,
    stream: &Stream,
    dir: &Path,
    reopenings: usize,
    tracer: Option<&mut Tracer>,
) -> CycleReport {
    let mut report = CycleReport::default();
    let traced = tracer.is_some();
    let journal_path = dir.join("journal.bin");
    let reopen_path = dir.join("journal-reopen.bin");

    let mut layers = Layers::default();
    let (opened, setup_s) = repeat_setup(|| -> Result<Service, String> {
        let _ = std::fs::remove_file(&journal_path);
        let (db, gen_s) = timed(|| spec.tpch(seed));
        let rows: usize = db.tables().iter().map(|(_, r)| r.len()).sum();
        layers.sample("datagen.rows_per_s", rows as f64 / gen_s);
        let (engine, load_s) = timed(|| engine(&db));
        let engine = engine?;
        layers.sample("hdfs.load_rows_per_s", rows as f64 / load_s);
        let (opened, open_s) = timed(|| Service::open(engine, options(&journal_path, reuse_mb)));
        layers.sample("serve.open_ms", open_s * 1e3);
        opened
            .map(|(service, _)| service)
            .map_err(|e| e.to_string())
    });
    report.layers = layers;
    report.setup_s = setup_s;
    let service = match opened {
        Ok(s) => s,
        Err(e) => return report.setup_failed(&e),
    };
    let mut driver = Driver {
        service,
        stream,
        admitted: Vec::new(),
        tracer,
        qid: 0,
    };

    // ---- the stream ---------------------------------------------------
    for (op, batch) in stream.batches.iter().enumerate() {
        let start = Instant::now();
        if let Some(tracer) = driver.tracer.as_deref_mut() {
            tracer.enter("run.op", 0);
        }
        for &query in batch {
            driver.admit(query, &mut report);
        }
        let (jobs, sim_s) = driver.run(&mut report);
        if let Some(tracer) = driver.tracer.as_deref_mut() {
            tracer.exit();
        }
        let op_ms = start.elapsed().as_secs_f64() * 1e3;
        if op < spec.warmup_ops {
            continue;
        }
        report.op_ms.push(op_ms);
        report.exact.jobs += jobs;
        report.exact.sim_s += sim_s;
    }
    let answered = report.answers.len();
    for &query in &stream.tail {
        driver.admit(query, &mut report);
    }

    // ---- what the stream left behind ------------------------------------
    let Driver {
        mut service,
        admitted,
        ..
    } = driver;
    let file_len = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    if file_len != service.journal_bytes().len() as u64 {
        report.fail(format!(
            "journal file holds {file_len} of {} acknowledged bytes",
            service.journal_bytes().len()
        ));
    }
    report.exact.journal_bytes = file_len;
    report.exact.set_reuse(service.reuse_stats());
    let reuse = *service.reuse_stats();
    let l = &mut report.layers;
    l.set("journal.file_mb", file_len as f64 / 1e6);
    l.set(
        "journal.bytes_per_query",
        file_len as f64 / answered.max(1) as f64,
    );
    l.set("reuse.hit_rate", reuse.hit_rate());
    l.set("reuse.hits", reuse.hits as f64);
    l.set("reuse.misses", reuse.misses as f64);
    l.set("reuse.evictions", reuse.evictions as f64);
    l.set("reuse.integrity_failures", reuse.integrity_failures as f64);
    l.set("reuse.bytes_cached", reuse.bytes_cached as f64);
    let hdfs = &service.engine_mut().cluster.hdfs;
    l.set("hdfs.paths_after_run", hdfs.paths().count() as f64);
    l.set("hdfs.bytes_after_run", hdfs.total_bytes() as f64);
    if traced {
        let bytes = service.journal_bytes();
        let (recovered, s) = timed(|| journal::recover(bytes));
        l.sample("journal.recover_mb_per_s", bytes.len() as f64 / 1e6 / s);
        match recovered {
            Ok(r) => l.set(
                "journal.records_per_query",
                r.records.len() as f64 / answered.max(1) as f64,
            ),
            Err(e) => report.fail(format!("journal does not recover: {e}")),
        }
    }

    // ---- crash and reopen -----------------------------------------------
    drop(service);
    // Each reopening starts from a fresh copy of the file and a freshly
    // loaded engine; the last one is checked and drained.
    let mut reopened = Err("never reopened".to_string());
    for _ in 0..reopenings.max(1) {
        reopened = std::fs::copy(&journal_path, &reopen_path)
            .map_err(|e| e.to_string())
            .and_then(|_| engine(&spec.tpch(seed)))
            .and_then(|engine| {
                let (opened, s) = timed(|| Service::open(engine, options(&reopen_path, reuse_mb)));
                report.layers.sample("serve.recovery_s", s);
                opened.map_err(|e| e.to_string())
            });
    }
    let (service, responses) = match reopened {
        Ok(r) => r,
        Err(e) => {
            report.fail(format!("reopen failed: {e}"));
            return report;
        }
    };
    let stats = service.recovery_stats().clone();
    report
        .layers
        .set("serve.replayed_jobs", stats.jobs_replayed as f64);
    report
        .layers
        .set("serve.reexecuted_jobs", stats.jobs_executed as f64);
    if stats.jobs_executed != 0 {
        report.fail(format!(
            "recovery re-executed {} job(s)",
            stats.jobs_executed
        ));
    }
    let twice = responses
        .iter()
        .filter(|r| matches!(r, Response::Result { .. }))
        .count();
    if twice != 0 {
        report.fail(format!(
            "recovery answered {twice} already-answered query(ies) again"
        ));
    }
    if service.pending_count() != TAIL_QUERIES {
        report.fail(format!(
            "recovery restored {} pending query(ies), expected {TAIL_QUERIES}",
            service.pending_count()
        ));
    }
    let mut driver = Driver {
        service,
        stream,
        admitted,
        tracer: None,
        qid: 0,
    };
    let before = report.answers.len();
    driver.run(&mut report);
    let drained = report.answers.len() - before;
    if drained != TAIL_QUERIES {
        report.fail(format!(
            "drain answered {drained} of {TAIL_QUERIES} recovered queries"
        ));
    }
    report
}
