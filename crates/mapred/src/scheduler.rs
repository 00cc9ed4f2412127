//! Multi-tenant chain scheduler: admission control, deadlines, fair-share
//! slot allocation and graceful degradation under overload.
//!
//! The paper's production argument (§VII-F) is about *contention*: on the
//! Facebook cluster, many tenants' queries compete for the same slot pool,
//! and plans with fewer jobs win because every extra job pays another trip
//! through the shared scheduler. This module closes the loop by actually
//! co-running many translated chains over one simulated cluster:
//!
//! * **Bounded admission.** Each tenant owns a FIFO queue with a capacity;
//!   a query arriving at a full queue is *shed* with a typed
//!   [`MapRedError::QueueFull`] — the scheduler never hangs and never
//!   queues unboundedly.
//! * **Deadlines.** A query may carry a deadline (relative to submission).
//!   A chain that would still be running at its deadline is cancelled
//!   *cleanly at the deadline*: its slot is released at that instant and
//!   the report carries the partial [`ChainMetrics`] and partial trace of
//!   everything that ran first.
//! * **Weighted fair share.** Both admission order and per-step slot
//!   shares follow tenant weights, so one tenant's fault-retry storm
//!   cannot starve the others.
//! * **Retry budgets.** Each tenant has a cross-chain retry budget; once
//!   spent, further retryable failures fail fast with
//!   [`MapRedError::RetryBudgetExhausted`] instead of backing off and
//!   re-running — overload degrades to fast typed failures, not to an
//!   ever-growing retry queue.
//!
//! Time is simulated, so the whole scheduler is a *deterministic
//! discrete-event simulation*: chains interleave at job-attempt boundaries
//! (a [`ChainSession`] step), events are ordered by simulated time with
//! stable index tie-breaks, and a given (cluster seed, request list) always
//! produces the identical report — across `exec_threads` settings too,
//! because each job attempt is itself thread-invariant.
//!
//! Crash recovery rides on that determinism: [`WorkloadRun::journal`]
//! appends every job commit and terminal disposition to a [`Journal`];
//! [`WorkloadRun::recovered`] re-runs the *same* request list with the
//! journal's records, fast-forwarding journaled commits (restoring their
//! materialized outputs) and re-executing only work past the last
//! checkpoint. Because the whole simulation is deterministic, the
//! recovered run's reports, metrics and results are bit-identical to an
//! uninterrupted run — the journal changes what is *executed*, never what
//! is *computed*.

use std::collections::{BTreeSet, VecDeque};

use crate::chain::{retryable, ChainFailure, ChainSession, ChainStep, JobChain, ReplayedJob};
use crate::config::ContentionModel;
use crate::engine::Cluster;
use crate::error::MapRedError;
use crate::journal::{DispositionKind, Journal, JournalRecord};
use crate::metrics::ChainMetrics;
use crate::reuse::{config_epoch, ReuseCache, ReuseStats};
use crate::trace::Trace;

/// One tenant sharing the cluster.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, referenced by [`QueryRequest::tenant`].
    pub name: String,
    /// Fair-share weight: a weight-4 tenant gets twice the slot share of a
    /// weight-2 tenant when both have chains running. Must be ≥ 1.
    pub weight: u32,
    /// Admission-queue capacity; a query arriving with this many already
    /// waiting is shed with [`MapRedError::QueueFull`].
    pub queue_capacity: usize,
    /// Cross-chain retry budget. Every chain-level retry (backoff +
    /// re-run) any of the tenant's chains performs spends one unit; at
    /// zero, retryable failures fail fast with
    /// [`MapRedError::RetryBudgetExhausted`].
    pub retry_budget: usize,
}

impl TenantSpec {
    /// A tenant with weight 1, the given queue capacity and retry budget.
    #[must_use]
    pub fn new(name: impl Into<String>, queue_capacity: usize, retry_budget: usize) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            queue_capacity,
            retry_budget,
        }
    }

    /// Sets the fair-share weight (builder style).
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// Scheduler-wide configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Chains running concurrently over the shared slot pool. Queued
    /// queries wait for a running chain to finish (or die at their
    /// deadline waiting).
    pub max_running: usize,
    /// The tenants. Requests naming an unknown tenant are rejected.
    pub tenants: Vec<TenantSpec>,
    /// Record a merged workload trace: a scheduler lane with
    /// queue/admit/shed/cancel events plus every chain's own lanes,
    /// shifted to workload-absolute time.
    pub trace: bool,
}

/// One query submitted to the scheduler.
#[derive(Debug)]
pub struct QueryRequest {
    /// Owning tenant (must match a [`TenantSpec::name`]).
    pub tenant: String,
    /// Label used in reports and trace lanes, e.g. `"t0/q17-3"`.
    pub label: String,
    /// The translated chain to run.
    pub chain: JobChain,
    /// Per-request seed driving scheduling-gap and backoff-jitter
    /// randomness. Distinct seeds decorrelate co-running chains.
    pub seed: u64,
    /// Deadline in seconds *after submission*; `None` = run to completion.
    pub deadline_s: Option<f64>,
    /// Submission time on the workload clock, seconds.
    pub submit_s: f64,
}

/// How a query's life ended. Every submitted query gets exactly one.
#[derive(Debug, Clone)]
pub enum Disposition {
    /// The chain ran to completion; results are in the cluster's HDFS.
    Completed(crate::chain::ChainOutcome),
    /// Cancelled at its deadline; carries partial metrics and trace.
    DeadlineCancelled(crate::chain::ChainFailure),
    /// Never admitted: queue full or rejected at admission. Nothing ran.
    Shed(MapRedError),
    /// The chain failed while running (fault, time limit, exhausted
    /// retries or retry budget); carries partial metrics and trace.
    Failed(crate::chain::ChainFailure),
}

/// The scheduler's report for one submitted query.
#[derive(Debug)]
pub struct QueryReport {
    /// Index of the request in the submitted batch.
    pub index: usize,
    /// Copied from the request.
    pub tenant: String,
    /// Copied from the request.
    pub label: String,
    /// Submission time, workload clock.
    pub submit_s: f64,
    /// When the chain got a slot; `None` if it never ran.
    pub admitted_s: Option<f64>,
    /// When the disposition was decided (completion, deadline, shed).
    pub done_s: f64,
    /// Jobs of this chain fast-forwarded from the cross-query reuse cache
    /// instead of executed (0 whenever no cache was in force).
    pub jobs_reused: usize,
    /// How it ended.
    pub disposition: Disposition,
}

impl QueryReport {
    /// Submission-to-disposition latency, the quantity the workload bench
    /// reports percentiles of.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.submit_s
    }

    /// Whether the query completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        matches!(self.disposition, Disposition::Completed(_))
    }

    /// Whether the query was shed at admission (nothing ran).
    #[must_use]
    pub fn shed(&self) -> bool {
        matches!(self.disposition, Disposition::Shed(_))
    }

    /// The partial (or complete) metrics of whatever ran, if anything did.
    #[must_use]
    pub fn metrics(&self) -> Option<&ChainMetrics> {
        match &self.disposition {
            Disposition::Completed(o) => Some(&o.metrics),
            Disposition::DeadlineCancelled(f) | Disposition::Failed(f) => Some(&f.metrics),
            Disposition::Shed(_) => None,
        }
    }
}

/// The whole workload's outcome: one report per request (request order)
/// plus the merged trace when tracing was on.
#[derive(Debug)]
pub struct WorkloadReport {
    /// One report per submitted request, in submission-batch order.
    pub reports: Vec<QueryReport>,
    /// Merged workload trace ([`SchedulerConfig::trace`]).
    pub trace: Option<Trace>,
    /// Reuse-cache counters as of the end of the workload, when a cache
    /// was in force ([`WorkloadRun::reuse`]). The counters are the
    /// cache's *lifetime* totals — a service keeping one cache across many
    /// `!run` batches reports cumulative values.
    pub reuse: Option<ReuseStats>,
}

/// A chain occupying one of the `max_running` slots.
struct Running {
    idx: usize,
    tenant: usize,
    admitted_s: f64,
    /// Absolute deadline on the workload clock.
    deadline_s: Option<f64>,
    session: ChainSession,
    /// Metrics snapshot taken before the in-flight step, for
    /// deadline-cancellation accounting.
    snapshot: ChainMetrics,
    /// When the in-flight step started.
    step_start_s: f64,
    /// When the in-flight step's charge ends (or the deadline, if that
    /// comes first).
    event_s: f64,
    /// Result of the eagerly-executed in-flight step, applied at
    /// `event_s`. `None` = cancelled at deadline mid-step.
    pending: Option<ChainStep>,
    /// Reuse-cache fingerprints this chain holds pinned (its fast-forward
    /// plan reads them); released when the chain reaches a disposition.
    pinned: Vec<u64>,
}

/// A queued (admitted-to-queue, not yet running) request.
struct Waiting {
    idx: usize,
    submit_s: f64,
}

/// Runs a batch of requests through the multi-tenant scheduler on the
/// shared cluster, to completion — [`run_workload_with`] under the default
/// [`WorkloadRun`]: no journal, no recovery, no reuse cache.
///
/// # Panics
///
/// As [`run_workload_with`].
#[must_use]
pub fn run_workload(
    cluster: &mut Cluster,
    config: &SchedulerConfig,
    requests: Vec<QueryRequest>,
) -> WorkloadReport {
    run_workload_with(cluster, config, requests, WorkloadRun::default()).0
}

/// What a workload run is wired to beyond the cluster: crash safety,
/// recovery and cross-query reuse, each independently optional. The default
/// is a plain run.
#[derive(Debug, Default)]
pub struct WorkloadRun<'a> {
    /// Crash-safety journal: every job commit (with its materialized
    /// output) and every terminal disposition is appended as it happens in
    /// simulated time, so the journal's byte stream at any instant is a
    /// recovery point. Only appended to, never flushed — callers own the
    /// flush cadence (the service flushes after every scheduler
    /// interaction; in-memory journals need none).
    pub journal: Option<&'a mut Journal>,
    /// Records [`crate::journal::recover`] salvaged from an interrupted run
    /// of the *same* request list (chains hold closures, so the caller —
    /// e.g. the service re-translating journaled SQL — reconstructs them).
    /// Journaled job commits fast-forward instead of executing; everything
    /// else (scheduling gaps, failed attempts, backoffs, admission
    /// decisions) re-executes with its original seeded randomness, so the
    /// report is bit-identical to the uninterrupted run's. Combined with a
    /// fresh `journal`, the recovered run is itself crash-safe again (the
    /// replay re-journals fast-forwarded commits into the new epoch).
    pub recovered: &'a [JournalRecord],
    /// Cross-query result cache. It outlives the call — a service passes
    /// the same cache to every batch so later queries hit earlier batches'
    /// results. On admission, the longest prefix of a chain whose job
    /// fingerprints verify in the cache is fast-forwarded exactly like a
    /// journal replay (recorded metrics, restored outputs —
    /// bit-identical); every commit with a fingerprint is inserted back.
    /// Cache decisions happen in the deterministic event loop, so the
    /// report is bit-identical across `exec_threads` settings, and recovery
    /// rebuilds the cache in the same event order without any dedicated
    /// journal record.
    pub reuse: Option<&'a mut ReuseCache>,
}

/// What crash recovery saved and redid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Jobs fast-forwarded from journaled checkpoints — output restored,
    /// recorded metrics applied, nothing executed.
    pub jobs_replayed: usize,
    /// Jobs committed by live execution — work past the last journaled
    /// checkpoint (for a first run with no journal, all of them).
    pub jobs_executed: usize,
    /// Requests whose terminal disposition was already journaled before
    /// the crash. Their reports are re-derived identically by the replay;
    /// the service uses this to suppress duplicate responses.
    pub already_done: usize,
}

/// The workload entry point: runs a batch of requests through the
/// multi-tenant scheduler on the shared cluster, to completion, wired to
/// whatever `run` names. Every request terminates in a typed
/// [`Disposition`]; the function never hangs — queues are bounded, chains
/// are finite, deadlines cancel.
///
/// The cluster's own `contention` model is treated as the *solo* share; a
/// chain running alongside others gets `slot_share × (weight / Σ weights
/// of running chains)` for each step it launches while they overlap. With
/// no base model a synthetic one (share only, no gaps, no slowdown) is
/// installed per step, so a chain running alone behaves exactly as under
/// [`crate::chain::run_chain`].
///
/// # Panics
///
/// If `config.max_running` is 0, a tenant weight is 0, or two tenants
/// share a name — configuration bugs, not runtime conditions.
#[must_use]
pub fn run_workload_with(
    cluster: &mut Cluster,
    config: &SchedulerConfig,
    requests: Vec<QueryRequest>,
    run: WorkloadRun,
) -> (WorkloadReport, RecoveryStats) {
    let WorkloadRun {
        journal,
        recovered,
        reuse,
    } = run;
    assert!(config.max_running > 0, "scheduler needs at least one slot");
    assert!(
        config.tenants.iter().all(|t| t.weight > 0),
        "tenant weights must be >= 1"
    );
    for (i, t) in config.tenants.iter().enumerate() {
        assert!(
            config.tenants[..i].iter().all(|u| u.name != t.name),
            "duplicate tenant name {:?}",
            t.name
        );
    }

    // Route the recovered journal's records: per-request fast-forward
    // plans from job commits, plus the set of already-terminal requests.
    let mut replay: Vec<Vec<ReplayedJob>> = requests.iter().map(|_| Vec::new()).collect();
    let mut done_ids: BTreeSet<u64> = BTreeSet::new();
    for rec in recovered {
        match rec {
            JournalRecord::JobDone {
                id,
                job_index,
                attempt,
                output_path,
                file,
                metrics,
            } => {
                if let Some(plan) = replay.get_mut(*id as usize) {
                    plan.push(ReplayedJob {
                        job_index: *job_index as usize,
                        attempt: *attempt as usize,
                        output_path: output_path.clone(),
                        file: file.clone(),
                        metrics: metrics.as_ref().clone(),
                        from_cache: false,
                    });
                }
            }
            JournalRecord::Done { id, .. } => {
                done_ids.insert(*id);
            }
            JournalRecord::Admitted { .. } => {}
        }
    }

    let mut sched = Scheduler {
        config,
        base_contention: cluster.config.contention,
        master: if config.trace {
            Some(Trace::new())
        } else {
            None
        },
        queues: config.tenants.iter().map(|_| VecDeque::new()).collect(),
        budget_left: config.tenants.iter().map(|t| t.retry_budget).collect(),
        running: Vec::new(),
        reports: Vec::new(),
        requests,
        journal,
        replay,
        reuse,
        stats: RecoveryStats {
            already_done: done_ids.len(),
            ..RecoveryStats::default()
        },
    };

    // A reuse cache is scoped to one cluster configuration: any config
    // change (cost model, data format, corruption seed) invalidates every
    // cached output and its recorded metrics.
    if let Some(cache) = sched.reuse.as_deref_mut() {
        cache.ensure_epoch(config_epoch(&cluster.config));
    }

    // Arrivals sorted by (submit time, request index); the index tie-break
    // keeps equal-time arrivals in batch order.
    let mut order: Vec<usize> = (0..sched.requests.len()).collect();
    order.sort_by(|&a, &b| {
        sched.requests[a]
            .submit_s
            .total_cmp(&sched.requests[b].submit_s)
            .then(a.cmp(&b))
    });
    let mut next_arrival = 0;

    loop {
        // Next step-completion among running chains: earliest event time,
        // lowest request index on ties.
        let completion = sched
            .running
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.event_s.total_cmp(&b.event_s).then(a.idx.cmp(&b.idx)))
            .map(|(slot, r)| (slot, r.event_s));
        let arrival = order.get(next_arrival).map(|&idx| {
            let t = sched.requests[idx].submit_s;
            (idx, t)
        });
        match (completion, arrival) {
            (None, None) => break,
            // Completions beat arrivals on time ties: a slot freed at t is
            // available to the query arriving at t.
            (Some((slot, tc)), Some((_, ta))) if tc <= ta => {
                sched.complete_step(cluster, slot);
            }
            (Some((slot, _)), None) => {
                sched.complete_step(cluster, slot);
            }
            (_, Some((idx, t))) => {
                next_arrival += 1;
                sched.arrive(cluster, idx, t);
            }
        }
    }

    debug_assert!(sched.queues.iter().all(VecDeque::is_empty));
    let Scheduler {
        mut reports,
        master,
        stats,
        reuse,
        ..
    } = sched;
    reports.sort_by_key(|r| r.index);
    (
        WorkloadReport {
            reports,
            trace: master,
            reuse: reuse.map(|c| *c.stats()),
        },
        stats,
    )
}

struct Scheduler<'a> {
    config: &'a SchedulerConfig,
    base_contention: Option<ContentionModel>,
    master: Option<Trace>,
    queues: Vec<VecDeque<Waiting>>,
    budget_left: Vec<usize>,
    running: Vec<Running>,
    reports: Vec<QueryReport>,
    requests: Vec<QueryRequest>,
    /// Crash-safety WAL, when the caller wants one.
    journal: Option<&'a mut Journal>,
    /// Cross-query result-reuse cache, when the caller keeps one.
    reuse: Option<&'a mut ReuseCache>,
    /// Per-request fast-forward plans from a recovered journal.
    replay: Vec<Vec<ReplayedJob>>,
    stats: RecoveryStats,
}

impl Scheduler<'_> {
    fn tenant_index(&self, name: &str) -> Option<usize> {
        self.config.tenants.iter().position(|t| t.name == name)
    }

    /// Settles request `idx` at `done_s`: journals its terminal
    /// disposition, shifts the chain's lane (if it traced) to workload time
    /// and merges a copy into the workload trace, and reports it.
    fn settle(
        &mut self,
        idx: usize,
        admitted_s: Option<f64>,
        done_s: f64,
        jobs_reused: usize,
        mut disposition: Disposition,
    ) {
        let (kind, lane) = match &mut disposition {
            Disposition::Completed(o) => (DispositionKind::Completed, o.trace.as_deref_mut()),
            Disposition::DeadlineCancelled(f) => {
                (DispositionKind::DeadlineCancelled, f.trace.as_deref_mut())
            }
            Disposition::Failed(f) => (DispositionKind::Failed, f.trace.as_deref_mut()),
            Disposition::Shed(_) => (DispositionKind::Shed, None),
        };
        if let Some(j) = self.journal.as_deref_mut() {
            j.append(&JournalRecord::Done {
                id: idx as u64,
                kind,
                done_s,
            });
        }
        let r = &self.requests[idx];
        if let (Some(lane), Some(at)) = (lane, admitted_s) {
            lane.shift_s(at);
            if let Some(master) = self.master.as_mut() {
                master.absorb(&r.label, lane.clone());
            }
        }
        self.reports.push(QueryReport {
            index: idx,
            tenant: r.tenant.clone(),
            label: r.label.clone(),
            submit_s: r.submit_s,
            admitted_s,
            done_s,
            jobs_reused,
            disposition,
        });
    }

    /// Journals the job the in-flight step of `running[slot]` committed —
    /// called when the step's event is *applied* at its simulated time, so
    /// the journal's record order is the simulated commit order (a
    /// deadline-crossing step is discarded, never journaled).
    fn journal_commit(&mut self, cluster: &Cluster, slot: usize) {
        if self.journal.is_none() {
            return;
        }
        let run = &self.running[slot];
        let done = run.session.jobs_done();
        let job = &self.requests[run.idx].chain.jobs[done - 1];
        let metrics = run.session.metrics().jobs[done - 1].clone();
        // The output must exist — the committed job just wrote it. An
        // empty-file default would only arise from a job spec writing
        // nowhere, in which case replaying an empty file is still exact.
        let file = cluster.hdfs.share(&job.output).unwrap_or_default();
        let rec = JournalRecord::JobDone {
            id: run.idx as u64,
            job_index: (done - 1) as u32,
            attempt: metrics.attempt as u32,
            output_path: job.output.clone(),
            file,
            metrics: Box::new(metrics),
        };
        self.journal
            .as_deref_mut()
            .expect("checked above")
            .append(&rec);
    }

    /// Inserts the job the in-flight step of `running[slot]` just
    /// committed into the reuse cache, when one is in force and the job
    /// carries a fingerprint. Runs for executed, journal-replayed *and*
    /// cache-reused commits alike — idempotent for already-cached
    /// fingerprints, and exactly what makes crash recovery rebuild the
    /// cache deterministically.
    fn reuse_commit(&mut self, cluster: &Cluster, slot: usize, now: f64) {
        let Some(cache) = self.reuse.as_deref_mut() else {
            return;
        };
        let run = &self.running[slot];
        let done = run.session.jobs_done();
        let job = &self.requests[run.idx].chain.jobs[done - 1];
        let Some(fp) = job.fingerprint else {
            return;
        };
        // `insert` would drop the entry anyway — on every cache hit and
        // every recovery replay; don't copy the metrics to find out.
        if cache.capacity_bytes() == 0 || cache.contains(fp) {
            return;
        }
        // Normalize the committed attempt to 0: a consumer fast-forwarding
        // this entry is on its own first attempt, and the journal record
        // of that consumer's commit must replay against attempt 0 too.
        let mut metrics = run.session.metrics().jobs[done - 1].clone();
        metrics.attempt = 0;
        let file = cluster.hdfs.share(&job.output).unwrap_or_default();
        cache.insert(fp, file, metrics, now);
    }

    /// Retires a chain leaving its slot: releases the cache pins its
    /// fast-forward plan held and folds its replay/reuse/execution split
    /// into the stats (cache hits are neither journal replays nor executed
    /// work). Returns the jobs it reused.
    fn retire(&mut self, run: &Running) -> usize {
        if let Some(cache) = self.reuse.as_deref_mut() {
            for &fp in &run.pinned {
                cache.unpin(fp);
            }
        }
        let replayed = run.session.replayed_jobs();
        let reused = run.session.reused_jobs();
        self.stats.jobs_replayed += replayed;
        self.stats.jobs_executed += run.session.metrics().jobs.len() - replayed - reused;
        reused
    }

    /// Absolute deadline of request `idx` on the workload clock.
    fn abs_deadline(&self, idx: usize) -> Option<f64> {
        let r = &self.requests[idx];
        r.deadline_s.map(|d| r.submit_s + d)
    }

    fn shed(&mut self, idx: usize, now: f64, error: MapRedError) {
        if let Some(tr) = self.master.as_mut() {
            let label = &self.requests[idx].label;
            tr.chain_instant("shed", format!("{label}: {error}"), now);
        }
        self.settle(idx, None, now, 0, Disposition::Shed(error));
    }

    /// Handles one arrival: admission checks, enqueue, admission pass.
    fn arrive(&mut self, cluster: &mut Cluster, idx: usize, now: f64) {
        let tenant_name = self.requests[idx].tenant.clone();
        let Some(t) = self.tenant_index(&tenant_name) else {
            self.shed(
                idx,
                now,
                MapRedError::Rejected {
                    tenant: tenant_name,
                    reason: "unknown tenant".into(),
                },
            );
            return;
        };
        if self.requests[idx].deadline_s.is_some_and(|d| d <= 0.0) {
            self.shed(
                idx,
                now,
                MapRedError::Rejected {
                    tenant: tenant_name,
                    reason: "deadline expired at submission".into(),
                },
            );
            return;
        }
        let capacity = self.config.tenants[t].queue_capacity;
        if self.queues[t].len() >= capacity {
            self.shed(
                idx,
                now,
                MapRedError::QueueFull {
                    tenant: tenant_name,
                    capacity,
                },
            );
            return;
        }
        self.queues[t].push_back(Waiting { idx, submit_s: now });
        self.admission_pass(cluster, now);
    }

    /// Fills free slots from the queues: pick the tenant whose running
    /// count per unit weight is lowest (stable lowest-index tie-break) —
    /// weighted fair admission.
    fn admission_pass(&mut self, cluster: &mut Cluster, now: f64) {
        while self.running.len() < self.config.max_running {
            let pick = self
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .min_by(|(a, _), (b, _)| {
                    let load = |t: usize| {
                        let running = self.running.iter().filter(|r| r.tenant == t).count() as f64;
                        running / f64::from(self.config.tenants[t].weight)
                    };
                    load(*a).total_cmp(&load(*b)).then(a.cmp(b))
                })
                .map(|(t, _)| t);
            let Some(t) = pick else { break };
            let w = self.queues[t].pop_front().expect("picked non-empty queue");
            // A queued query whose deadline passed while waiting dies now,
            // without ever taking a slot.
            if let Some(dl) = self.abs_deadline(w.idx) {
                if now >= dl {
                    self.cancel_queued(w.idx, dl);
                    continue;
                }
            }
            self.admit(cluster, w, now);
        }
    }

    /// A queued request whose deadline expired before admission: report a
    /// clean cancellation with empty metrics (nothing ran).
    fn cancel_queued(&mut self, idx: usize, deadline_s: f64) {
        let r = &self.requests[idx];
        if let Some(tr) = self.master.as_mut() {
            tr.chain_span(
                "queue",
                format!("{} queued (died waiting)", r.label),
                r.submit_s,
                deadline_s - r.submit_s,
            );
            tr.chain_instant(
                "cancelled",
                format!("{} deadline while queued", r.label),
                deadline_s,
            );
        }
        let failure = ChainFailure {
            error: MapRedError::DeadlineExceeded { deadline_s },
            metrics: ChainMetrics::default(),
            trace: None,
        };
        self.settle(
            idx,
            None,
            deadline_s,
            0,
            Disposition::DeadlineCancelled(failure),
        );
    }

    fn admit(&mut self, cluster: &mut Cluster, w: Waiting, now: f64) {
        let idx = w.idx;
        let r = &self.requests[idx];
        let tenant = self
            .tenant_index(&r.tenant)
            .expect("admitted request has a known tenant");
        if let Some(tr) = self.master.as_mut() {
            if now > w.submit_s {
                tr.chain_span(
                    "queue",
                    format!("{} queued", r.label),
                    w.submit_s,
                    now - w.submit_s,
                );
            }
            tr.chain_instant("admit", format!("{} admitted", r.label), now);
        }
        let mut session = if self.config.trace {
            ChainSession::with_tracing(r.seed)
        } else {
            ChainSession::new(r.seed)
        };
        // The fast-forward plan: journaled commits first (crash recovery),
        // then cross-query cache hits for the longest prefix of uncovered
        // jobs whose fingerprints verify in the cache. Prefix-only, as in
        // ReStore: a job past the first miss needs its predecessor's
        // output, which only execution (or the journal) provides.
        let mut plan = std::mem::take(&mut self.replay[idx]);
        let mut pinned = Vec::new();
        if let Some(cache) = self.reuse.as_deref_mut() {
            let chain = &self.requests[idx].chain;
            for (j, job) in chain.jobs.iter().enumerate() {
                if plan.iter().any(|r| r.job_index == j) {
                    continue; // a journaled commit already covers this job
                }
                let Some(fp) = job.fingerprint else { break };
                let corruption = cluster.config.corruption;
                let Some((file, mut metrics)) = cache.lookup(fp, corruption.as_ref(), now) else {
                    break;
                };
                // The cached metrics carry the *producer's* job name;
                // rename to this chain's job so reports and journal
                // records read consistently.
                metrics.name.clone_from(&job.name);
                cache.pin(fp);
                pinned.push(fp);
                plan.push(ReplayedJob {
                    job_index: j,
                    attempt: 0,
                    output_path: job.output.clone(),
                    file,
                    metrics,
                    from_cache: true,
                });
            }
        }
        if !pinned.is_empty() {
            if let Some(tr) = self.master.as_mut() {
                tr.chain_instant(
                    "reuse",
                    format!(
                        "{} fast-forwards {} cached job(s)",
                        self.requests[idx].label,
                        pinned.len()
                    ),
                    now,
                );
            }
        }
        session.set_replay(plan);
        if self.budget_left[tenant] == 0 {
            session.deny_retries(true);
        }
        let deadline_s = self.abs_deadline(idx);
        let mut run = Running {
            idx,
            tenant,
            admitted_s: now,
            deadline_s,
            session,
            snapshot: ChainMetrics::default(),
            step_start_s: now,
            event_s: now,
            pending: None,
            pinned,
        };
        self.run_step(cluster, &mut run, now);
        self.running.push(run);
    }

    /// Eagerly executes the next step of `run`'s chain, charging it the
    /// fair share in force at `now`. Sets `event_s`/`pending`; a step
    /// whose charge crosses the deadline is converted into a cancellation
    /// event at the deadline.
    fn run_step(&mut self, cluster: &mut Cluster, run: &mut Running, now: f64) {
        // Share = weight / Σ weights of chains running while this step
        // launches (including this one). Sampled at launch and held for
        // the step, like a coarse Hadoop slot grant.
        let my_weight = f64::from(self.config.tenants[run.tenant].weight);
        let total_weight: f64 = self
            .running
            .iter()
            .map(|r| f64::from(self.config.tenants[r.tenant].weight))
            .sum::<f64>()
            + my_weight;
        let share = my_weight / total_weight;
        cluster.config.contention = Some(match self.base_contention {
            Some(c) => ContentionModel {
                slot_share: c.slot_share * share,
                ..c
            },
            None => ContentionModel {
                slot_share: share,
                max_scheduling_gap_s: 0.0,
                task_slowdown: 1.0,
                seed: 0,
            },
        });
        run.snapshot = run.session.metrics().clone();
        run.step_start_s = now;
        let step = run.session.step(cluster, &self.requests[run.idx].chain);
        cluster.config.contention = self.base_contention;

        if let ChainStep::Backoff { .. } = &step {
            let t = run.tenant;
            if self.budget_left[t] > 0 {
                self.budget_left[t] -= 1;
                if self.budget_left[t] == 0 {
                    // Budget spent: this and every other running chain of
                    // the tenant fails fast on its next retryable failure.
                    run.session.deny_retries(true);
                    for other in &mut self.running {
                        if other.tenant == t {
                            other.session.deny_retries(true);
                        }
                    }
                }
            }
        }

        let end_s = run.admitted_s + run.session.elapsed_s();
        match run.deadline_s {
            Some(dl) if end_s > dl => {
                // The step won't finish in time: cancel at the deadline.
                run.event_s = dl;
                run.pending = None;
            }
            _ => {
                run.event_s = end_s;
                run.pending = Some(step);
            }
        }
    }

    /// Applies the in-flight step of `running[slot]` at its event time:
    /// continue with the next step, or finish/cancel/fail and release the
    /// slot.
    fn complete_step(&mut self, cluster: &mut Cluster, slot: usize) {
        let now = self.running[slot].event_s;
        let pending = self.running[slot].pending.take();
        // A step that committed a job is journaled as its event is applied
        // — the journal's record order is the simulated commit order. The
        // reuse cache commits at the same instant (journal replays
        // included), so a recovered run rebuilds the cache in the same
        // event order with no dedicated journal record.
        if matches!(pending, Some(ChainStep::Advanced | ChainStep::Finished)) {
            self.journal_commit(cluster, slot);
            self.reuse_commit(cluster, slot, now);
        }
        match pending {
            Some(ChainStep::Advanced | ChainStep::Backoff { .. }) => {
                let mut run = self.running.swap_remove(slot);
                self.run_step(cluster, &mut run, now);
                self.running.push(run);
                return;
            }
            Some(ChainStep::Finished) => {
                let run = self.running.swap_remove(slot);
                self.finish(run, now);
            }
            Some(ChainStep::Failed) => {
                let run = self.running.swap_remove(slot);
                self.fail(cluster, run, now);
            }
            None => {
                let run = self.running.swap_remove(slot);
                self.cancel_running(cluster, run);
            }
        }
        // A slot was released — admit from the queues.
        self.admission_pass(cluster, now);
    }

    fn finish(&mut self, run: Running, now: f64) {
        let jobs_reused = self.retire(&run);
        let outcome = run.session.into_outcome();
        self.settle(
            run.idx,
            Some(run.admitted_s),
            now,
            jobs_reused,
            Disposition::Completed(outcome),
        );
    }

    fn fail(&mut self, cluster: &mut Cluster, run: Running, now: f64) {
        let jobs_reused = self.retire(&run);
        let tenant = &self.config.tenants[run.tenant];
        let deny = self.budget_left[run.tenant] == 0 && tenant.retry_budget > 0;
        let mut failure = run.session.into_failure(cluster);
        // A retryable error that was denied its retry is the budget's
        // doing — report it as such.
        if deny && retryable(&failure.error) && cluster.config.retry.is_some() {
            failure.error = MapRedError::RetryBudgetExhausted {
                tenant: tenant.name.clone(),
                budget: tenant.retry_budget,
            };
        }
        self.settle(
            run.idx,
            Some(run.admitted_s),
            now,
            jobs_reused,
            Disposition::Failed(failure),
        );
    }

    /// Cancels a running chain at its deadline: the slot is released *at
    /// the deadline*, partial metrics are the pre-step snapshot plus the
    /// deadline-truncated share of the in-flight step charged as burned
    /// failed-attempt time.
    fn cancel_running(&mut self, cluster: &mut Cluster, mut run: Running) {
        let jobs_reused = self.retire(&run);
        let deadline_s = run.deadline_s.expect("cancelled chain has a deadline");
        run.session
            .abandon(MapRedError::DeadlineExceeded { deadline_s });
        let mut failure = run.session.into_failure(cluster);
        failure.metrics = run.snapshot;
        failure.metrics.failed_attempt_s += deadline_s - run.step_start_s;
        self.settle(
            run.idx,
            Some(run.admitted_s),
            deadline_s,
            jobs_reused,
            Disposition::DeadlineCancelled(failure),
        );
        if let Some(tr) = self.master.as_mut() {
            let label = &self.requests[run.idx].label;
            tr.chain_instant("cancelled", format!("{label} deadline mid-run"), deadline_s);
        }
    }
}
