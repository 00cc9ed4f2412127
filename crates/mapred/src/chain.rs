//! Job chains: sequential execution of a translated query's jobs.
//!
//! A translated query is a chain of jobs with data dependencies through
//! HDFS (§II-A: "a complex computation process can be represented by a
//! chain of jobs"). The chain runner adds the costs the paper attributes to
//! job count: per-job scheduler latency, and — under the production
//! [`crate::config::ContentionModel`] — randomised scheduling gaps before
//! each launch, the mechanism that amplified Hive's disadvantage on the
//! Facebook cluster (§VII-F: "Because Hive executes more jobs than YSmart,
//! it causes higher scheduling cost").
//!
//! A [`ChainSession`] is one chain's whole state, trace lane included; the
//! [`Cluster`] it steps on is only the file system and the configuration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{run_job_attempt, Cluster};
use crate::error::MapRedError;
use crate::hash::hash_row;
use crate::hdfs::FileRef;
use crate::job::JobSpec;
use crate::metrics::{ChainMetrics, JobMetrics};
use crate::trace::Trace;

/// A sequence of jobs executed in order; each job may read the outputs of
/// earlier ones from HDFS.
#[derive(Debug, Default)]
pub struct JobChain {
    /// The jobs, in execution order.
    pub jobs: Vec<JobSpec>,
}

impl JobChain {
    /// An empty chain.
    #[must_use]
    pub fn new() -> Self {
        JobChain::default()
    }

    /// Appends a job.
    pub fn push(&mut self, job: JobSpec) -> &mut Self {
        self.jobs.push(job);
        self
    }

    /// Number of jobs — the quantity YSmart minimises.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Result of running a chain.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// Per-job metrics in execution order.
    pub metrics: ChainMetrics,
    /// HDFS path holding the final job's output.
    pub final_output: String,
    /// The chain's trace lane, when its session traced
    /// ([`ChainSession::with_tracing`]). Boxed like [`ChainFailure::trace`].
    pub trace: Option<Box<Trace>>,
}

/// A failed chain: the error plus the *partial* metrics of everything that
/// ran before the failure — completed jobs, retries, backoff waits and
/// burned failed-attempt time. A chain that dies three jobs in still
/// reports what those jobs cost.
#[derive(Debug, Clone)]
pub struct ChainFailure {
    /// What stopped the chain.
    pub error: MapRedError,
    /// Metrics accumulated up to the failure.
    pub metrics: ChainMetrics,
    /// The chain's partial trace lane up to the failure, when its session
    /// traced — a failed or cancelled chain still produces an inspectable
    /// timeline (committed jobs, gaps, backoffs, the failed attempts
    /// themselves) of that chain alone. Boxed to keep the error variant
    /// small on the happy path.
    pub trace: Option<Box<Trace>>,
}

impl From<ChainFailure> for MapRedError {
    fn from(f: ChainFailure) -> Self {
        f.error
    }
}

impl std::fmt::Display for ChainFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chain failed after {} completed jobs: {}",
            self.metrics.jobs.len(),
            self.error
        )
    }
}

impl std::error::Error for ChainFailure {}

/// Whether a failed job attempt is worth retrying: injected faults
/// ([`MapRedError::TooManyFailures`], [`MapRedError::ClusterLost`]) and
/// at-rest corruption ([`MapRedError::CorruptBlock`] — a re-replicated
/// block re-samples the flip) draw fresh randomness on the next attempt,
/// and a [`MapRedError::DiskFull`] cluster may have been cleaned up.
/// Missing inputs, user errors, time limits and over-budget bad records
/// are permanent.
#[must_use]
pub fn retryable(e: &MapRedError) -> bool {
    matches!(
        e,
        MapRedError::TooManyFailures { .. }
            | MapRedError::ClusterLost { .. }
            | MapRedError::DiskFull { .. }
            | MapRedError::CorruptBlock { .. }
    )
}

/// Runs all jobs in order, charging inter-job scheduling costs.
///
/// When the cluster has a [`crate::config::RetryPolicy`], a job attempt
/// that dies with a retryable error is retried after an exponential
/// backoff, with the failed attempt's burned time and the backoff charged
/// to the chain. Recovery is *checkpointed*: every finished job's output
/// already sits in HDFS, so only the failed job re-runs — the chain resumes
/// from where it died instead of restarting.
///
/// # Errors
///
/// [`MapRedError::EmptyChain`] for a chain with no jobs; otherwise stops at
/// the first failing job (disk full, time limit, missing input, injected
/// faults) once retries — if any — are exhausted. The chain's cumulative
/// time, including failed attempts and backoff, is also checked against the
/// cluster time limit. Failures come wrapped in a [`ChainFailure`] carrying
/// the partial [`ChainMetrics`] of everything that ran first.
pub fn run_chain(cluster: &mut Cluster, chain: &JobChain) -> Result<ChainOutcome, ChainFailure> {
    ChainSession::new(chain_seed(chain)).run(cluster, chain)
}

/// The seed [`run_chain`] derives for a chain: a stable hash of the first
/// job's name, so repeated runs of the same translation reproduce exactly.
/// Schedulers submitting many instances of one query should pick distinct
/// per-request seeds instead.
#[must_use]
pub fn chain_seed(chain: &JobChain) -> u64 {
    chain
        .jobs
        .first()
        .map_or(0, |j| hash_row(&ysmart_rel::row![j.name.as_str()]))
}

/// A journaled job completion handed back to a [`ChainSession`] on crash
/// recovery: when the session reaches job `job_index` on attempt `attempt`,
/// it *fast-forwards* — restores `file` to the job's output path (sharing
/// the handle: [`crate::hdfs::Hdfs::put_shared`]) and applies the recorded
/// bit-exact metrics instead of re-executing. Failed attempts
/// before `attempt` were never journaled (only commits are checkpoints), so
/// they re-execute live with their original seeded randomness, reproducing
/// identical burned time and backoffs — the measured wasted work of a crash.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// Index of the job within its chain.
    pub job_index: usize,
    /// The attempt that committed (0 = first try).
    pub attempt: usize,
    /// HDFS path the job wrote (must match the chain's job output).
    pub output_path: String,
    /// The materialized output, restored verbatim — the journal record's
    /// or the cache entry's own handle, never a copy of it.
    pub file: FileRef,
    /// The committed attempt's metrics, applied bit-identically.
    pub metrics: JobMetrics,
    /// `true` when the fast-forward comes from the cross-query reuse cache
    /// ([`crate::reuse`]) rather than the crash-recovery journal — counted
    /// and traced separately (`reuse` lane vs `replay` lane).
    pub from_cache: bool,
}

/// What one [`ChainSession::step`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainStep {
    /// One job attempt succeeded; the chain has more jobs to run.
    Advanced,
    /// The final job committed — take the result with
    /// [`ChainSession::into_outcome`].
    Finished,
    /// A retryable failure: the burned attempt and the (jittered) backoff
    /// are already charged; the next `step` re-runs the failed job.
    Backoff {
        /// What the attempt died with.
        error: MapRedError,
        /// The backoff charged, simulated seconds.
        backoff_s: f64,
    },
    /// Terminal failure — take it with [`ChainSession::into_failure`].
    Failed,
}

/// Re-entrant, stepwise execution state of one chain.
///
/// [`ChainSession::run`] drives a session to completion ([`run_chain`] is
/// that, on a dedicated cluster); the multi-tenant [`crate::scheduler`]
/// instead keeps many sessions open over *one* shared cluster, stepping
/// whichever chain's turn it is in simulated time. Everything a chain
/// carries across steps is per-session here, not on the cluster: the
/// recovery checkpoint, the accumulated [`ChainMetrics`], the scheduling-gap
/// RNG, and (optionally) the chain's trace lane — the engine hands each
/// attempt's spans back and the session commits them to its own lane, so
/// interleaved chains never write into each other's timelines.
///
/// The session is `Clone`: a clone is a *snapshot* (checkpoint, metrics,
/// gap-RNG state, trace lane), and stepping the clone on a cloned cluster
/// is bit-identical to stepping the original — suspend-at-any-step resume.
#[derive(Debug, Clone)]
pub struct ChainSession {
    seed: u64,
    /// Next job to run — the chain's recovery checkpoint.
    i: usize,
    /// Attempt index of job `i`.
    attempt: usize,
    /// Chain-local simulated time charged so far.
    elapsed: f64,
    metrics: ChainMetrics,
    final_output: String,
    gap_rng: Option<StdRng>,
    gap_rng_ready: bool,
    /// The session's trace lane; `None` when it does not trace.
    trace: Option<Trace>,
    /// When set, a retryable failure fails the chain instead of backing
    /// off — the scheduler's per-tenant retry-budget gate.
    deny_retries: bool,
    error: Option<MapRedError>,
    /// Journaled completions to fast-forward through on crash recovery.
    replay: Vec<ReplayedJob>,
    /// Jobs fast-forwarded from the journal instead of executed.
    replayed: usize,
    /// Jobs fast-forwarded from the cross-query reuse cache.
    reused: usize,
}

impl ChainSession {
    /// A fresh session. `seed` drives the scheduling-gap RNG and backoff
    /// jitter; co-running chains should get distinct seeds so their gaps
    /// and retries decorrelate.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChainSession {
            seed,
            i: 0,
            attempt: 0,
            elapsed: 0.0,
            metrics: ChainMetrics::default(),
            final_output: String::new(),
            gap_rng: None,
            gap_rng_ready: false,
            trace: None,
            deny_retries: false,
            error: None,
            replay: Vec::new(),
            replayed: 0,
            reused: 0,
        }
    }

    /// A session recording a trace lane, handed back with its outcome or
    /// failure. The lane is in chain-local time (admission = 0); shift it
    /// with [`Trace::shift_s`] to align co-running chains.
    #[must_use]
    pub fn with_tracing(seed: u64) -> Self {
        let mut s = ChainSession::new(seed);
        s.trace = Some(Trace::new());
        s
    }

    /// Chain-local simulated time charged so far, including failed
    /// attempts, gaps and backoff waits.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed
    }

    /// Metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &ChainMetrics {
        &self.metrics
    }

    /// Jobs completed so far (the recovery checkpoint).
    #[must_use]
    pub fn jobs_done(&self) -> usize {
        self.i
    }

    /// Gate for the scheduler's per-tenant retry budget: with `deny` set, a
    /// retryable failure becomes terminal instead of backing off.
    pub fn deny_retries(&mut self, deny: bool) {
        self.deny_retries = deny;
    }

    /// Hands the session journaled completions to fast-forward through —
    /// crash recovery. Steps whose `(job_index, attempt)` match a replayed
    /// job skip execution and apply the recorded output + metrics; all other
    /// steps (failed attempts included) re-execute live. Scheduling-gap
    /// draws happen on every step either way, so the gap RNG stays on the
    /// original stream and post-recovery randomness is bit-identical.
    pub fn set_replay(&mut self, jobs: Vec<ReplayedJob>) {
        self.replay = jobs;
    }

    /// Jobs fast-forwarded from the journal instead of executed — the saved
    /// work of crash recovery (its complement is the wasted work).
    #[must_use]
    pub fn replayed_jobs(&self) -> usize {
        self.replayed
    }

    /// Jobs fast-forwarded from the cross-query reuse cache instead of
    /// executed — cache hits applied through the replay machinery.
    #[must_use]
    pub fn reused_jobs(&self) -> usize {
        self.reused
    }

    /// Marks the session failed with `error` without running anything —
    /// deadline cancellation and budget exhaustion end a chain from the
    /// outside. Take the partial state with [`ChainSession::into_failure`].
    pub fn abandon(&mut self, error: MapRedError) {
        self.error = Some(error);
    }

    /// Steps the session to its end.
    ///
    /// # Errors
    ///
    /// As [`run_chain`]: the [`ChainFailure`] of a chain that failed (or was
    /// abandoned) before it finished.
    pub fn run(
        mut self,
        cluster: &mut Cluster,
        chain: &JobChain,
    ) -> Result<ChainOutcome, ChainFailure> {
        loop {
            match self.step(cluster, chain) {
                ChainStep::Advanced | ChainStep::Backoff { .. } => {}
                ChainStep::Finished => return Ok(self.into_outcome()),
                ChainStep::Failed => return Err(self.into_failure(cluster)),
            }
        }
    }

    /// Consumes a finished session ([`ChainStep::Finished`]).
    #[must_use]
    pub fn into_outcome(self) -> ChainOutcome {
        ChainOutcome {
            metrics: self.metrics,
            final_output: self.final_output,
            trace: self.trace.map(Box::new),
        }
    }

    /// Consumes a failed session ([`ChainStep::Failed`] or
    /// [`ChainSession::abandon`]). The failure carries the session's lane,
    /// when it traces. The cluster is not read.
    #[must_use]
    pub fn into_failure(self, _cluster: &mut Cluster) -> ChainFailure {
        ChainFailure {
            error: self.error.unwrap_or(MapRedError::EmptyChain),
            metrics: self.metrics,
            trace: self.trace.map(Box::new),
        }
    }

    /// Runs one job attempt: the scheduling gap, the attempt itself, and —
    /// on a retryable failure — the backoff charge. Everything is charged
    /// to this session's clock, metrics and trace lane.
    pub fn step(&mut self, cluster: &mut Cluster, chain: &JobChain) -> ChainStep {
        if self.error.is_some() {
            return ChainStep::Failed;
        }
        if chain.is_empty() {
            self.error = Some(MapRedError::EmptyChain);
            return ChainStep::Failed;
        }
        let job = &chain.jobs[self.i];
        let mut delay = if self.i == 0 {
            0.0
        } else {
            cluster.config.inter_job_delay_s
        };
        if !self.gap_rng_ready {
            // Seeded once, from the contention model in force at the first
            // step — [`run_chain`] reproduces its historical stream.
            self.gap_rng = cluster
                .config
                .contention
                .map(|c| StdRng::seed_from_u64(c.seed ^ self.seed));
            self.gap_rng_ready = true;
        }
        if let (Some(c), Some(rng)) = (cluster.config.contention, self.gap_rng.as_mut()) {
            delay += rng.gen::<f64>() * c.max_scheduling_gap_s;
        }
        // Scheduling gaps live on the chain-scheduler lane (pid 0).
        if let Some(tr) = self.trace.as_mut().filter(|_| delay > 0.0) {
            tr.chain_span(
                "gap",
                format!("scheduling gap before {}", job.name),
                self.elapsed,
                delay,
            );
        }
        // Crash recovery fast path: a journaled commit for exactly this
        // (job, attempt) replaces execution — restore the materialized
        // output and the recorded metrics. The path check guards against a
        // journal from a different workload; on mismatch the job simply
        // runs live (correct, just not saved work).
        let replayed = self
            .replay
            .iter()
            .position(|r| {
                r.job_index == self.i && r.attempt == self.attempt && r.output_path == job.output
            })
            .map(|at| self.replay.remove(at));
        let attempt_result = match replayed {
            Some(rj) => {
                cluster.hdfs.put_shared(&job.output, rj.file);
                // Cache hits and journal replays share the fast-forward
                // mechanics but are accounted (and traced) separately:
                // reuse is saved cross-query work, replay is recovery.
                let (cat, what) = if rj.from_cache {
                    self.reused += 1;
                    ("reuse", "reused from cache")
                } else {
                    self.replayed += 1;
                    ("replay", "replayed from journal")
                };
                if let Some(tr) = self.trace.as_mut() {
                    tr.chain_span(
                        cat,
                        format!("{} {what}", job.name),
                        self.elapsed + delay,
                        rj.metrics.total_s() - rj.metrics.startup_delay_s,
                    );
                }
                Ok(rj.metrics)
            }
            // A successful attempt's spans go to the lane under a process
            // labelled with the job (a failed attempt's are dropped, and it
            // is summarised as one `job_failed` span below).
            None => {
                let start = self.trace.is_some().then_some(self.elapsed + delay);
                run_job_attempt(cluster, job, self.attempt, start).map(|(metrics, events)| {
                    if let Some(tr) = self.trace.as_mut() {
                        let label = match self.attempt {
                            0 => job.name.clone(),
                            a => format!("{} (attempt {})", job.name, a + 1),
                        };
                        tr.commit_job(label, events);
                    }
                    metrics
                })
            }
        };
        match attempt_result {
            Ok(mut m) => {
                m.startup_delay_s = delay;
                self.elapsed += m.total_s();
                self.final_output = job.output.clone();
                self.metrics.jobs.push(m);
                self.i += 1;
                self.attempt = 0;
                if let Some(failed) = self.check_time_limit(cluster) {
                    return failed;
                }
                if self.i == chain.jobs.len() {
                    ChainStep::Finished
                } else {
                    ChainStep::Advanced
                }
            }
            Err(fail) => {
                // One summary span on the scheduler lane records the
                // failed attempt's burned time.
                if let Some(tr) = self.trace.as_mut() {
                    tr.chain_span(
                        "job_failed",
                        format!(
                            "{} attempt {} failed: {}",
                            job.name,
                            self.attempt + 1,
                            fail.error
                        ),
                        self.elapsed + delay,
                        fail.wasted_s,
                    );
                }
                self.metrics.failed_attempt_s += delay + fail.wasted_s;
                self.elapsed += delay + fail.wasted_s;
                let can_retry = cluster.config.retry.filter(|p| {
                    !self.deny_retries && retryable(&fail.error) && self.attempt < p.max_retries
                });
                let Some(policy) = can_retry else {
                    self.error = Some(fail.error);
                    return ChainStep::Failed;
                };
                // Jitter keys on (chain seed, job index, retry index): the
                // same chain reproduces exactly, co-failing chains spread.
                let backoff = policy.backoff_jittered_s(
                    self.attempt,
                    self.seed ^ (self.i as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                );
                if let Some(tr) = self.trace.as_mut() {
                    tr.chain_span(
                        "backoff",
                        format!(
                            "retry backoff before {} attempt {}",
                            job.name,
                            self.attempt + 2
                        ),
                        self.elapsed,
                        backoff,
                    );
                }
                self.metrics.retries += 1;
                self.metrics.backoff_delay_s += backoff;
                self.elapsed += backoff;
                self.attempt += 1;
                // Outputs of jobs[..i] are already in HDFS; only job `i`
                // re-runs.
                if let Some(failed) = self.check_time_limit(cluster) {
                    return failed;
                }
                ChainStep::Backoff {
                    error: fail.error,
                    backoff_s: backoff,
                }
            }
        }
    }

    fn check_time_limit(&mut self, cluster: &Cluster) -> Option<ChainStep> {
        let limit = cluster.config.time_limit_s?;
        if self.elapsed > limit {
            self.error = Some(MapRedError::TimeLimitExceeded { limit_s: limit });
            return Some(ChainStep::Failed);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, ContentionModel};
    use crate::job::{MapOutput, Mapper, ReduceOutput, Reducer};
    use ysmart_rel::{row, Row};

    struct IdMapper;
    impl Mapper for IdMapper {
        fn map(&mut self, line: &str, out: &mut MapOutput) {
            let n: i64 = line
                .parse()
                .unwrap_or_else(|_| panic!("IdMapper: non-numeric input line {line:?}"));
            out.emit(row![n % 3], row![n]);
        }
    }

    struct CountReducer;
    impl Reducer for CountReducer {
        fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
            let k = key
                .get(0)
                .unwrap_or_else(|_| panic!("CountReducer: empty key row {key:?}"));
            out.emit_row(row![k.clone(), values.len() as i64]);
        }
    }

    struct PassMapper;
    impl Mapper for PassMapper {
        fn map(&mut self, line: &str, out: &mut MapOutput) {
            let (k, v) = line
                .split_once('|')
                .unwrap_or_else(|| panic!("PassMapper: line without '|' separator: {line:?}"));
            let k = k
                .parse::<i64>()
                .unwrap_or_else(|_| panic!("PassMapper: non-numeric key in line {line:?}"));
            let v = v
                .parse::<i64>()
                .unwrap_or_else(|_| panic!("PassMapper: non-numeric value in line {line:?}"));
            out.emit(row![0i64], row![k, v]);
        }
    }

    struct SumCountsReducer;
    impl Reducer for SumCountsReducer {
        fn reduce(&mut self, _key: &Row, values: &[Row], out: &mut ReduceOutput) {
            let s: i64 = values
                .iter()
                .map(|v| {
                    v.get(1)
                        .ok()
                        .and_then(ysmart_rel::Value::as_int)
                        .unwrap_or_else(|| {
                            panic!("SumCountsReducer: value row without integer count: {v:?}")
                        })
                })
                .sum();
            out.emit_row(row![s]);
        }
    }

    fn two_job_chain() -> JobChain {
        let mut chain = JobChain::new();
        chain.push(
            JobSpec::builder("count")
                .input("data/nums", || Box::new(IdMapper))
                .reducer(|| Box::new(CountReducer))
                .output("tmp/counts")
                .reduce_tasks(2)
                .build(),
        );
        chain.push(
            JobSpec::builder("total")
                .input("tmp/counts", || Box::new(PassMapper))
                .reducer(|| Box::new(SumCountsReducer))
                .output("out/total")
                .reduce_tasks(1)
                .build(),
        );
        chain
    }

    #[test]
    fn chain_pipes_through_hdfs() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_table("nums", (0..100).map(|i| i.to_string()).collect());
        let outcome = run_chain(&mut c, &two_job_chain()).unwrap();
        assert_eq!(outcome.final_output, "out/total");
        assert_eq!(c.hdfs.get("out/total").unwrap().lines, vec!["100"]);
        assert_eq!(outcome.metrics.jobs.len(), 2);
        // Second job pays the scheduler delay.
        assert_eq!(outcome.metrics.jobs[0].startup_delay_s, 0.0);
        assert!(outcome.metrics.jobs[1].startup_delay_s > 0.0);
    }

    #[test]
    fn empty_chain_is_an_error() {
        let mut c = Cluster::new(ClusterConfig::default());
        let e = run_chain(&mut c, &JobChain::new()).unwrap_err();
        assert!(matches!(e.error, MapRedError::EmptyChain));
        assert!(e.metrics.jobs.is_empty());
    }

    #[test]
    fn chain_cumulative_time_limit_enforced() {
        // Measure the unlimited chain, then cap it between the largest
        // single job and the chain total: every job fits individually, only
        // the cumulative check can fire.
        let load = |c: &mut Cluster| {
            c.load_table("nums", (0..100).map(|i| i.to_string()).collect());
        };
        let mut free = Cluster::new(ClusterConfig::default());
        load(&mut free);
        let metrics = run_chain(&mut free, &two_job_chain()).unwrap().metrics;
        let total = metrics.total_s();
        let biggest_job = metrics
            .jobs
            .iter()
            .map(|j| j.map_time_s + j.reduce_time_s)
            .fold(0.0, f64::max);
        let limit = total * 0.99;
        assert!(biggest_job < limit && limit < total, "cap must sit between");

        let mut capped = Cluster::new(ClusterConfig {
            time_limit_s: Some(limit),
            ..ClusterConfig::default()
        });
        load(&mut capped);
        let e = run_chain(&mut capped, &two_job_chain()).unwrap_err();
        assert!(matches!(e.error, MapRedError::TimeLimitExceeded { .. }));
        // The partial metrics report what ran before the cap fired.
        assert!(!e.metrics.jobs.is_empty());
    }

    #[test]
    fn contention_adds_gaps_deterministically() {
        let run = |seed| {
            let mut c = Cluster::new(ClusterConfig {
                contention: Some(ContentionModel {
                    slot_share: 0.5,
                    max_scheduling_gap_s: 300.0,
                    task_slowdown: 1.5,
                    seed,
                }),
                ..ClusterConfig::default()
            });
            c.load_table("nums", (0..100).map(|i| i.to_string()).collect());
            run_chain(&mut c, &two_job_chain())
                .unwrap()
                .metrics
                .total_s()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert!((a - b).abs() < 1e-12, "same seed, same gaps");
        assert!((a - c).abs() > 1e-9, "different seed, different gaps");
    }

    #[test]
    fn more_jobs_cost_more_under_contention() {
        // The §VII-F mechanism: with big scheduling gaps, a 2-job chain is
        // slower than an equivalent 1-job chain even if work is equal.
        let base = ClusterConfig {
            contention: Some(ContentionModel {
                slot_share: 1.0,
                max_scheduling_gap_s: 300.0,
                task_slowdown: 1.0,
                seed: 3,
            }),
            ..ClusterConfig::default()
        };
        let mut c1 = Cluster::new(base.clone());
        c1.load_table("nums", (0..100).map(|i| i.to_string()).collect());
        let one = {
            let mut chain = JobChain::new();
            chain.push(
                JobSpec::builder("count")
                    .input("data/nums", || Box::new(IdMapper))
                    .reducer(|| Box::new(CountReducer))
                    .output("out/one")
                    .reduce_tasks(2)
                    .build(),
            );
            run_chain(&mut c1, &chain).unwrap().metrics.total_s()
        };
        let mut c2 = Cluster::new(base);
        c2.load_table("nums", (0..100).map(|i| i.to_string()).collect());
        let two = run_chain(&mut c2, &two_job_chain())
            .unwrap()
            .metrics
            .total_s();
        assert!(two > one);
    }
}
