//! `ysmart serve` — a crash-safe, journaled query service over the engine.
//!
//! The ROADMAP's "query service front-end over the multi-tenant scheduler":
//! a long-running mode that accepts SQL over a line protocol (stdin or a
//! request file), batches admitted queries through
//! [`ysmart_mapred::scheduler::run_workload_with`], and returns result
//! rows plus trace handles. Every admission and every scheduler-side commit
//! is appended to a checksummed [`Journal`] and flushed, so a process that
//! dies at *any* instant can be restarted against the same journal file and
//! resume: committed jobs fast-forward from their journaled outputs,
//! interrupted chains re-execute only work past their last checkpoint, and
//! queries already answered before the crash are not answered twice.
//!
//! ## Protocol
//!
//! One request or command per line:
//!
//! | line                 | meaning                                        |
//! |----------------------|------------------------------------------------|
//! | `SELECT ...`         | admit a query for the default (first) tenant   |
//! | `@tenant SELECT ...` | admit a query for a named tenant               |
//! | `!run`               | execute the pending batch through the scheduler |
//! | `!status`            | health/readiness report                        |
//! | `!drain`             | stop admitting; pending work still runs        |
//! | `!quit`              | drain, run pending, flush, stop                |
//!
//! Blank lines and `#` comments are ignored. Admissions are journaled (and
//! flushed) *before* they are acknowledged; `!run` journals every job
//! commit and disposition as it happens in simulated time.
//!
//! ## Recovery model
//!
//! The journal's record stream is segmented positionally into batches: a
//! run of `Admitted` records followed by the `JobDone`/`Done` records of
//! the `!run` that executed them (the service is synchronous, so no
//! admission can interleave with a run). On open, each batch is re-created
//! — the journaled SQL is re-translated under its original deterministic
//! tag (`svc-q<id>`), so every HDFS path is identical — and re-run with
//! its journaled run records as [`WorkloadRun::recovered`]. A trailing
//! batch with no run records was admitted but never started; it is
//! restored to the pending queue, not executed. Live and recovered batches
//! share one admission (`Service::admit`) and one runner
//! (`Service::run_batch`); a recovered batch differs only in the run
//! records it hands the scheduler. Because translation, scheduling and
//! execution are all deterministic, a recovered service's results,
//! dispositions and metrics are bit-identical to an uninterrupted run's.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{BufRead, Write};
use std::mem;
use std::path::PathBuf;

use ysmart_core::{CoreError, Strategy, Translation, YSmart};
use ysmart_mapred::journal::{Journal, JournalRecord};
use ysmart_mapred::reuse::{ReuseCache, ReuseConfig};
use ysmart_mapred::scheduler::{
    run_workload_with, Disposition, QueryReport, QueryRequest, RecoveryStats, SchedulerConfig,
    TenantSpec, WorkloadRun,
};
use ysmart_mapred::MapRedError;
use ysmart_rel::codec::encode_line;

/// Configuration for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Translation strategy applied to every submitted query.
    pub strategy: Strategy,
    /// Scheduler the batches run under. Must be identical across restarts
    /// of the same journal for recovery to be bit-identical.
    pub scheduler: SchedulerConfig,
    /// Journal file. `None` runs with an in-memory journal — crash-safe
    /// bookkeeping is exercised, but nothing survives the process.
    pub journal_path: Option<PathBuf>,
    /// Directory for per-run Chrome trace exports. `Some` turns workload
    /// tracing on; each `!run` writes `run-<n>.trace.json` there and the
    /// response carries the path as the trace handle.
    pub trace_dir: Option<PathBuf>,
    /// Cross-query result-reuse cache ([`ReuseCache`]). `Some` keeps one
    /// cache alive across every `!run` batch — repeated queries
    /// fast-forward from cached job outputs — and recovery rebuilds it by
    /// replaying the journal, so it also survives crashes. `None` disables
    /// reuse entirely.
    pub reuse: Option<ReuseConfig>,
}

impl ServeOptions {
    /// Options with the default single-tenant scheduler.
    #[must_use]
    pub fn new(strategy: Strategy) -> Self {
        ServeOptions {
            strategy,
            scheduler: default_scheduler(),
            journal_path: None,
            trace_dir: None,
            reuse: None,
        }
    }
}

/// The scheduler `ysmart serve` uses unless told otherwise: two slots, one
/// `default` tenant with a deep queue and a modest retry budget.
#[must_use]
pub fn default_scheduler() -> SchedulerConfig {
    SchedulerConfig {
        max_running: 2,
        tenants: vec![TenantSpec::new("default", 64, 8)],
        trace: false,
    }
}

/// Why the service could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Journal file I/O failed.
    Io(std::io::Error),
    /// The journal is corrupt ([`MapRedError::JournalCorrupt`]) or
    /// inconsistent with the catalog (a journaled query no longer
    /// translates).
    Journal(MapRedError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "journal io: {e}"),
            ServeError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One protocol interaction's outcome. Structured (rather than a printed
/// string) so tests can compare recovered and uninterrupted runs
/// bit-for-bit; [`Response::render`] produces the wire text.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed query's rows.
    Result {
        /// Service-wide query id (`svc-q<id>` tags its HDFS paths).
        id: u64,
        /// `tenant/q<id>`.
        label: String,
        /// `|`-joined output column names.
        header: String,
        /// Result rows, one encoded line each.
        rows: Vec<String>,
        /// Simulated chain time, seconds.
        elapsed_s: f64,
        /// MapReduce jobs executed (or fast-forwarded) for this query.
        jobs: usize,
        /// True when this answer was produced by crash recovery.
        recovered: bool,
    },
    /// A query that was not answered: translation failure, shed, deadline,
    /// chain failure.
    Rejected {
        /// Service-wide id, if one was assigned before the rejection.
        id: Option<u64>,
        /// Best available label for the query.
        label: String,
        /// Typed error, rendered.
        error: String,
    },
    /// Acknowledgements, status lines, trace handles.
    Info(String),
}

impl Response {
    /// Renders the response as protocol output text.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Response::Result {
                id,
                label,
                header,
                rows,
                elapsed_s,
                jobs,
                recovered,
            } => {
                let mut out = format!(
                    "ok q{id} {label}: {} row(s), {jobs} job(s), simulated {elapsed_s:.1}s{}\n",
                    rows.len(),
                    if *recovered { " [recovered]" } else { "" },
                );
                out.push_str(header);
                out.push('\n');
                for r in rows {
                    out.push_str(r);
                    out.push('\n');
                }
                out
            }
            Response::Rejected { id, label, error } => match id {
                Some(id) => format!("err q{id} {label}: {error}\n"),
                None => format!("err {label}: {error}\n"),
            },
            Response::Info(s) => format!("{s}\n"),
        }
    }
}

/// Service lifecycle state, reported by `!status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Admitting queries.
    Ready,
    /// Admission closed; pending and in-flight work still completes.
    Draining,
    /// `!quit` processed; the protocol loop should exit.
    Stopped,
}

impl fmt::Display for ServiceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServiceState::Ready => "ready",
            ServiceState::Draining => "draining",
            ServiceState::Stopped => "stopped",
        })
    }
}

/// An admitted-but-not-yet-run query.
#[derive(Debug)]
struct Pending {
    id: u64,
    tenant: String,
    label: String,
    seed: u64,
    submit_s: f64,
    translation: Translation,
}

impl Pending {
    /// This query's rejection with `error`.
    fn rejected(&self, error: String) -> Response {
        Response::Rejected {
            id: Some(self.id),
            label: self.label.clone(),
            error,
        }
    }
}

/// The query service: engine + scheduler + durable workload journal.
#[derive(Debug)]
pub struct Service {
    engine: YSmart,
    options: ServeOptions,
    journal: Journal,
    pending: Vec<Pending>,
    next_id: u64,
    runs: usize,
    recovered_runs: usize,
    answered: usize,
    suppressed: usize,
    recovery: RecoveryStats,
    state: ServiceState,
    /// Result-reuse cache, persistent across `!run` batches. Disabled
    /// (capacity 0, never inserts) unless [`ServeOptions::reuse`] is set.
    cache: ReuseCache,
}

/// The most characters of a request line an admission error repeats back:
/// a tenant name or a malformed line is echoed to this length, then `…`.
const ECHO_CHARS: usize = 64;

/// `text` cut to [`ECHO_CHARS`] characters, marked with `…` when cut.
fn clipped(text: &str) -> String {
    match text.char_indices().nth(ECHO_CHARS) {
        Some((end, _)) => format!("{}…", &text[..end]),
        None => text.to_string(),
    }
}

/// Per-request scheduling seed, derived from the service-wide id so a
/// restart recomputes the identical value (it is also journaled).
#[must_use]
fn request_seed(id: u64) -> u64 {
    // splitmix64 finalizer over the id; any fixed bijection works.
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Service {
    /// Opens the service: loads the journal, recovers any interrupted
    /// workload, and returns the service plus the responses produced by
    /// recovery (answers the crashed process never delivered — queries
    /// already answered before the crash are suppressed).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal file I/O failure;
    /// [`ServeError::Journal`] when the journal is corrupt mid-stream or
    /// references SQL that no longer translates under the engine's catalog.
    pub fn open(
        engine: YSmart,
        options: ServeOptions,
    ) -> Result<(Self, Vec<Response>), ServeError> {
        let mut journal = match &options.journal_path {
            Some(p) => Journal::open(p)?,
            None => Journal::in_memory(),
        };
        let recovered = journal.recover_and_reset().map_err(ServeError::Journal)?;
        let cache = options.reuse.map(ReuseCache::new).unwrap_or_default();
        let mut svc = Service {
            engine,
            options,
            journal,
            pending: Vec::new(),
            next_id: 0,
            runs: 0,
            recovered_runs: 0,
            answered: 0,
            suppressed: 0,
            recovery: RecoveryStats::default(),
            state: ServiceState::Ready,
            cache,
        };
        let mut responses = Vec::new();
        if recovered.truncated_bytes > 0 {
            responses.push(Response::Info(format!(
                "journal: dropped {} torn byte(s) at tail, recovered {} record(s)",
                recovered.truncated_bytes,
                recovered.records.len(),
            )));
        }
        svc.replay(recovered.records, &mut responses)?;
        svc.journal.flush()?;
        Ok((svc, responses))
    }

    /// Replays a recovered record stream: re-runs every journaled batch
    /// (fast-forwarding committed jobs), restores a trailing unstarted
    /// batch to the pending queue, and re-journals everything into the
    /// fresh epoch.
    fn replay(
        &mut self,
        records: Vec<JournalRecord>,
        out: &mut Vec<Response>,
    ) -> Result<(), ServeError> {
        // Segment positionally: a new batch starts at an Admitted record
        // that follows run records (the service is synchronous, so a run's
        // records never interleave with admissions).
        let mut batches: Vec<(Vec<JournalRecord>, Vec<JournalRecord>)> = Vec::new();
        for rec in records {
            match (rec, batches.last_mut()) {
                (rec @ JournalRecord::Admitted { .. }, Some((admitted, runrecs)))
                    if runrecs.is_empty() =>
                {
                    admitted.push(rec);
                }
                (rec @ JournalRecord::Admitted { .. }, _) => {
                    batches.push((vec![rec], Vec::new()));
                }
                (other, Some((_, runrecs))) => runrecs.push(other),
                // Run records before any admission can only come from a
                // foreign (scheduler-only) journal; nothing to resume.
                (_, None) => {}
            }
        }
        for (admitted, runrecs) in batches {
            let mut batch = Vec::with_capacity(admitted.len());
            for rec in admitted {
                let JournalRecord::Admitted {
                    id,
                    tenant,
                    label,
                    seed,
                    deadline_s: _,
                    submit_s,
                    payload,
                } = rec
                else {
                    // The segmentation above puts only Admitted records in
                    // this group; skip rather than assume.
                    continue;
                };
                self.next_id = self.next_id.max(id + 1);
                // Re-journaled into the fresh epoch, so a second crash
                // recovers from the same structure.
                let pending = self
                    .admit(id, tenant, label, seed, submit_s, &payload)
                    .map_err(|e| {
                        ServeError::Journal(MapRedError::JournalCorrupt {
                            offset: 0,
                            reason: format!("journaled query q{id} no longer translates: {e}"),
                        })
                    })?;
                batch.push(pending);
            }
            // Only the last batch can lack run records: admitted but never
            // started, so back onto the pending queue.
            if runrecs.is_empty() {
                out.push(Response::Info(format!(
                    "recovered {} pending quer{} (admitted, not yet run)",
                    batch.len(),
                    if batch.len() == 1 { "y" } else { "ies" },
                )));
                self.pending = batch;
                continue;
            }
            self.run_batch(&batch, &runrecs, out);
        }
        Ok(())
    }

    /// Runs one admitted batch through the journaled scheduler and answers
    /// it. `recovered` holds the batch's journaled run records when crash
    /// recovery re-runs it, and is empty for a live `!run`: journaled
    /// commits fast-forward, and a query whose `Done` it holds was answered
    /// before the crash, so its response is suppressed. The caller owns the
    /// journal flush.
    fn run_batch(
        &mut self,
        batch: &[Pending],
        recovered: &[JournalRecord],
        out: &mut Vec<Response>,
    ) {
        let (kept, requests) = self.build_requests(batch, out);
        let config = self.run_config();
        let run = WorkloadRun {
            journal: Some(&mut self.journal),
            recovered,
            reuse: Some(&mut self.cache),
        };
        let (report, stats) = run_workload_with(&mut self.engine.cluster, &config, requests, run);
        self.runs += 1;
        let is_recovery = !recovered.is_empty();
        if is_recovery {
            self.recovered_runs += 1;
            self.recovery.jobs_replayed += stats.jobs_replayed;
            self.recovery.jobs_executed += stats.jobs_executed;
            self.recovery.already_done += stats.already_done;
        }
        let done_ids: BTreeSet<u64> = recovered
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Done { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        for rep in &report.reports {
            if done_ids.contains(&(rep.index as u64)) {
                self.suppressed += 1;
                continue;
            }
            let resp = self.report_response(kept[rep.index], rep, is_recovery);
            if let Response::Result { .. } = resp {
                self.answered += 1;
            }
            out.push(resp);
        }
        self.export_trace(report.trace, out);
        self.release_outputs(batch);
    }

    /// Deletes the files a served batch's chains wrote, leaving the loaded
    /// tables alone in HDFS. Its responses are built, and nothing reads a
    /// chain's `tmp/` or result path again: the reuse cache and the journal
    /// hold their own handles (both share the bytes where they are still
    /// wanted), and a restart restores outputs from the journal, not from
    /// here.
    fn release_outputs(&mut self, batch: &[Pending]) {
        for bp in batch.iter().flat_map(|p| &p.translation.blueprints) {
            self.engine.cluster.hdfs.delete(&bp.output);
        }
    }

    /// The per-run scheduler config: the configured scheduler with tracing
    /// forced on when a trace directory was given.
    fn run_config(&self) -> SchedulerConfig {
        let mut c = self.options.scheduler.clone();
        c.trace = c.trace || self.options.trace_dir.is_some();
        c
    }

    /// Builds scheduler requests for a batch, each beside the query it
    /// runs. A chain that fails to materialize (deterministically — the
    /// same failure recurs on recovery) is rejected here and excluded from
    /// the batch in a way that keeps request indices dense and stable.
    fn build_requests<'b>(
        &self,
        batch: &'b [Pending],
        out: &mut Vec<Response>,
    ) -> (Vec<&'b Pending>, Vec<QueryRequest>) {
        let mut kept = Vec::with_capacity(batch.len());
        let mut requests = Vec::with_capacity(batch.len());
        for p in batch {
            match self.engine.chain_for(&p.translation) {
                Ok(chain) => {
                    kept.push(p);
                    requests.push(QueryRequest {
                        tenant: p.tenant.clone(),
                        label: p.label.clone(),
                        chain,
                        seed: p.seed,
                        deadline_s: None,
                        submit_s: p.submit_s,
                    });
                }
                Err(e) => out.push(p.rejected(e.to_string())),
            }
        }
        (kept, requests)
    }

    /// Converts one scheduler report into a protocol response.
    fn report_response(&self, p: &Pending, rep: &QueryReport, recovered: bool) -> Response {
        let error = match &rep.disposition {
            Disposition::Completed(outcome) => match self.engine.decode_output(&p.translation) {
                Ok(rows) => {
                    return Response::Result {
                        id: p.id,
                        label: p.label.clone(),
                        header: p
                            .translation
                            .output_schema
                            .fields()
                            .iter()
                            .map(|f| f.name.clone())
                            .collect::<Vec<_>>()
                            .join("|"),
                        rows: rows.iter().map(encode_line).collect(),
                        elapsed_s: outcome.metrics.total_s(),
                        jobs: outcome.metrics.jobs.len(),
                        recovered,
                    }
                }
                Err(e) => e.to_string(),
            },
            Disposition::Shed(e) => e.to_string(),
            Disposition::DeadlineCancelled(f) | Disposition::Failed(f) => f.error.to_string(),
        };
        p.rejected(error)
    }

    /// Writes the run's trace to the trace directory (when configured) and
    /// emits the handle.
    fn export_trace(&self, trace: Option<ysmart_mapred::Trace>, out: &mut Vec<Response>) {
        let (Some(dir), Some(trace)) = (&self.options.trace_dir, trace) else {
            return;
        };
        let path = dir.join(format!("run-{}.trace.json", self.runs));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace.to_chrome_json()))
        {
            Ok(()) => out.push(Response::Info(format!("trace: {}", path.display()))),
            Err(e) => out.push(Response::Info(format!(
                "warning: trace export to {} failed: {e}",
                path.display()
            ))),
        }
    }

    /// Handles one protocol line; returns the responses it produced.
    pub fn handle_line(&mut self, line: &str) -> Vec<Response> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Vec::new();
        }
        match line {
            "!run" => self.run_pending(),
            "!status" => self
                .status_lines()
                .into_iter()
                .map(Response::Info)
                .collect(),
            "!drain" => {
                self.state = ServiceState::Draining;
                vec![Response::Info(format!(
                    "draining: admission closed, {} pending quer{} will still run",
                    self.pending.len(),
                    if self.pending.len() == 1 { "y" } else { "ies" },
                ))]
            }
            "!quit" => {
                self.state = ServiceState::Draining;
                let mut out = if self.pending.is_empty() {
                    Vec::new()
                } else {
                    self.run_pending()
                };
                if let Err(e) = self.journal.flush() {
                    out.push(Response::Info(format!(
                        "warning: journal flush failed: {e}"
                    )));
                }
                self.state = ServiceState::Stopped;
                out.push(Response::Info(format!(
                    "stopped: {} quer{} answered over {} run(s)",
                    self.answered,
                    if self.answered == 1 { "y" } else { "ies" },
                    self.runs,
                )));
                out
            }
            cmd if cmd.starts_with('!') => {
                vec![Response::Info(format!(
                    "unknown command {cmd}; commands: !run !status !drain !quit"
                ))]
            }
            sql => vec![self.submit(sql)],
        }
    }

    /// Admits one query: translate, journal (durably), queue.
    fn submit(&mut self, line: &str) -> Response {
        let reject = |error: String| Response::Rejected {
            id: None,
            label: "admission".into(),
            error,
        };
        if self.state != ServiceState::Ready {
            return reject(MapRedError::Draining.to_string());
        }
        let (tenant, sql) = match line.strip_prefix('@') {
            Some(rest) => match rest.split_once(char::is_whitespace) {
                Some((t, q)) if !t.is_empty() && !q.trim().is_empty() => (t.to_string(), q.trim()),
                _ => {
                    return reject(format!(
                        "malformed @tenant prefix in {:?}: expected \"@tenant SELECT ...\"",
                        clipped(line)
                    ))
                }
            },
            None => match self.options.scheduler.tenants.first() {
                Some(t) => (t.name.clone(), line),
                None => return reject("no tenants configured".into()),
            },
        };
        // An unknown tenant would be journaled, then shed by the scheduler
        // on every replay; reject it before it consumes an id or a journal
        // record.
        if !self
            .options
            .scheduler
            .tenants
            .iter()
            .any(|t| t.name == tenant)
        {
            return reject(format!(
                "unknown tenant {:?}; configured: {}",
                clipped(&tenant),
                self.options
                    .scheduler
                    .tenants
                    .iter()
                    .map(|t| t.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let id = self.next_id;
        let label = format!("{tenant}/q{id}");
        let submit_s = self.pending.len() as f64;
        let pending = match self.admit(id, tenant, label, request_seed(id), submit_s, sql) {
            Ok(p) => p,
            // Failed translations consume no id and are never journaled, so
            // a recovered process (which replays only journaled admissions)
            // assigns the same ids this one did.
            Err(e) => {
                return Response::Rejected {
                    id: None,
                    label: format!("svc-q{id}"),
                    error: e.to_string(),
                }
            }
        };
        self.next_id += 1;
        let mut ack = format!(
            "accepted q{id} ({}), {} pending",
            pending.label,
            self.pending.len() + 1
        );
        if let Err(e) = self.journal.flush() {
            ack.push_str(&format!("; warning: journal flush failed: {e}"));
        }
        self.pending.push(pending);
        Response::Info(ack)
    }

    /// Admits query `id`: translates `sql` under its deterministic tag
    /// (`svc-q<id>`), then appends its `Admitted` record, so a query that
    /// does not translate writes nothing.
    fn admit(
        &mut self,
        id: u64,
        tenant: String,
        label: String,
        seed: u64,
        submit_s: f64,
        sql: &str,
    ) -> Result<Pending, CoreError> {
        let translation =
            self.engine
                .translate_tagged(sql, self.options.strategy, &format!("svc-q{id}"))?;
        self.journal.append(&JournalRecord::Admitted {
            id,
            tenant: tenant.clone(),
            label: label.clone(),
            seed,
            deadline_s: None,
            submit_s,
            payload: sql.to_string(),
        });
        Ok(Pending {
            id,
            tenant,
            label,
            seed,
            submit_s,
            translation,
        })
    }

    /// Runs the pending batch through the journaled scheduler.
    fn run_pending(&mut self) -> Vec<Response> {
        if self.pending.is_empty() {
            return vec![Response::Info("nothing to run".into())];
        }
        let batch = mem::take(&mut self.pending);
        let mut out = Vec::new();
        self.run_batch(&batch, &[], &mut out);
        if let Err(e) = self.journal.flush() {
            out.push(Response::Info(format!(
                "warning: journal flush failed: {e}"
            )));
        }
        out
    }

    /// Health/readiness lines for `!status`.
    #[must_use]
    pub fn status_lines(&self) -> Vec<String> {
        let (by_reference, bytes_not_rewritten) = self.journal.outputs_by_reference();
        let mut lines = vec![
            format!(
                "state: {} ({})",
                self.state,
                if self.is_ready() {
                    "accepting queries"
                } else {
                    "admission closed"
                }
            ),
            format!("pending: {}", self.pending.len()),
            format!(
                "runs: {} ({} recovered), answered: {}, suppressed duplicates: {}",
                self.runs, self.recovered_runs, self.answered, self.suppressed,
            ),
            format!(
                "journal: {} record(s), {} byte(s){}; {} output(s) stored, \
                 {} by reference ({} byte(s) not rewritten)",
                self.journal.record_count(),
                self.journal.bytes().len(),
                self.options
                    .journal_path
                    .as_ref()
                    .map(|p| format!(", {}", p.display()))
                    .unwrap_or_else(|| ", in-memory".into()),
                self.journal.outputs_stored(),
                by_reference,
                bytes_not_rewritten,
            ),
        ];
        if self.options.reuse.is_some() {
            let s = self.cache.stats();
            lines.push(format!(
                "reuse cache: {} entr{} ({} of {} byte(s)), {} hit(s) / {} miss(es), \
                 {} eviction(s), {} integrity failure(s), {:.1}s reused",
                self.cache.len(),
                if self.cache.len() == 1 { "y" } else { "ies" },
                s.bytes_cached,
                self.cache.capacity_bytes(),
                s.hits,
                s.misses,
                s.evictions,
                s.integrity_failures,
                s.reused_work_s,
            ));
        }
        if self.recovered_runs > 0 {
            lines.push(format!(
                "recovery: {} job(s) fast-forwarded, {} executed, {} already done",
                self.recovery.jobs_replayed,
                self.recovery.jobs_executed,
                self.recovery.already_done,
            ));
        }
        lines
    }

    /// True while the service accepts new queries.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state == ServiceState::Ready
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> ServiceState {
        self.state
    }

    /// Queries admitted but not yet run.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Aggregate recovery statistics across all recovered runs.
    #[must_use]
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Lifetime counters of the result-reuse cache (all zero when reuse is
    /// disabled).
    #[must_use]
    pub fn reuse_stats(&self) -> &ysmart_mapred::ReuseStats {
        self.cache.stats()
    }

    /// The underlying engine (e.g. to load tables before serving).
    pub fn engine_mut(&mut self) -> &mut YSmart {
        &mut self.engine
    }

    /// The journal's current byte image — a crash at any moment leaves a
    /// prefix of exactly these bytes on disk (tests cut it at arbitrary
    /// points to simulate kills).
    #[must_use]
    pub fn journal_bytes(&self) -> &[u8] {
        self.journal.bytes()
    }
}

/// Drives the line protocol: reads commands from `input`, writes rendered
/// responses to `output`, returns when the stream ends or `!quit` stops
/// the service. The recovery responses from [`Service::open`] should be
/// written by the caller before entering the loop.
///
/// # Errors
///
/// I/O failures on either stream.
pub fn serve_loop(
    service: &mut Service,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        for resp in service.handle_line(&line) {
            output.write_all(resp.render().as_bytes())?;
        }
        output.flush()?;
        if service.state() == ServiceState::Stopped {
            break;
        }
    }
    Ok(())
}
