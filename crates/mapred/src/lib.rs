//! # ysmart-mapred — a deterministic MapReduce cluster simulator
//!
//! This crate is the workspace's Hadoop substitute (the paper ran on Hadoop
//! 0.19/0.20 clusters; reproduction band repro=2 ⇒ no Hadoop available, so
//! we *simulate* it — see DESIGN.md). It plays both roles a real cluster
//! plays:
//!
//! 1. **It actually executes jobs.** [`Mapper`]s and [`Reducer`]s are real
//!    code running over real records; job outputs land in the in-memory
//!    [`Hdfs`] and are bit-for-bit checkable against a relational oracle.
//! 2. **It simulates time.** Every byte read, sorted, spilled, shuffled and
//!    written is charged against a [`ClusterConfig`] cost model (disk and
//!    network bandwidth, per-record CPU, task-startup overhead, slot waves,
//!    HDFS replication, optional map-output compression), yielding
//!    simulated per-phase durations with the same *shape* as wall-clock
//!    times on the paper's clusters. `size_multiplier` lets a small real
//!    dataset stand in for a 10 GB/100 GB/1 TB one: the data processed is
//!    real, the bytes charged are scaled.
//!
//! The execution semantics mirror Hadoop's:
//!
//! * map output is partitioned by a stable hash of the key, sorted by key
//!   alone within each partition (a key's values keep the order they were
//!   emitted in), optionally run through a [`Combiner`], and spilled to
//!   (simulated) local disks — the materialisation policy whose cost the
//!   paper's merging rules exist to avoid;
//! * reducers fetch their partition from every map task over the network,
//!   merge, group by key and stream each group through the reducer;
//! * job chains materialise every intermediate result to HDFS
//!   ([`chain::run_chain`]), with configurable inter-job scheduler latency
//!   and a contention model reproducing the Facebook production dynamics of
//!   §VII-F;
//! * tasks can be killed by a seeded failure injector and are re-executed,
//!   like Hadoop's re-execution of tasks on TaskTracker failure;
//! * whole worker nodes can die mid-job ([`NodeFailureModel`]), losing
//!   their local map outputs: surviving nodes re-execute the lost tasks and
//!   reducers re-fetch that share of the shuffle. Chains recover from
//!   failed job attempts under a [`RetryPolicy`] with exponential backoff,
//!   resuming from the last checkpointed job output in HDFS. Injected
//!   faults change simulated time, never query results;
//! * a [`CorruptionModel`] flips actual *bytes*: HDFS blocks are checksummed
//!   with replica failover, shuffle segments are verified on fetch and
//!   re-fetched on mismatch, torn input records are skipped under a budget,
//!   and failing nodes are blacklisted ([`BlacklistPolicy`]) — recovery is
//!   charged in simulated time while results stay bit-identical, because
//!   only checksum-clean canonical bytes ever reach the computation;
//! * a multi-tenant [`scheduler`] co-runs many chains over the shared slot
//!   pool with bounded admission queues, per-query deadlines with clean
//!   cancellation, weighted fair-share slot allocation and per-tenant retry
//!   budgets — the production contention setting of §VII-F, as a
//!   deterministic discrete-event simulation;
//! * the workload is crash-safe: a checksummed append-only [`journal`]
//!   records admissions, per-job commits (with materialized outputs) and
//!   terminal dispositions, so a restarted process replays the workload
//!   deterministically ([`scheduler::WorkloadRun::recovered`]),
//!   fast-forwarding journaled jobs and re-executing only work past the
//!   last checkpoint — results and metrics bit-identical to an
//!   uninterrupted run. For graceful shutdown, the service's `!drain`
//!   rejects new queries with typed [`MapRedError::Draining`] while the
//!   admitted ones still run.

pub mod chain;
pub mod config;
pub mod engine;
pub mod error;
pub mod hash;
pub mod hdfs;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod norm;
pub mod reuse;
pub mod scheduler;
pub mod trace;

pub use chain::{
    chain_seed, retryable, run_chain, ChainFailure, ChainOutcome, ChainSession, ChainStep,
    JobChain, ReplayedJob,
};
pub use config::{
    BlacklistPolicy, ClusterConfig, Compression, ContentionModel, CorruptionModel, DataFormat,
    FailureModel, NodeFailureModel, RetryPolicy, StragglerModel,
};
pub use engine::{run_job, run_job_attempt, AttemptFailure, Cluster};
pub use error::MapRedError;
pub use hdfs::{
    file_checksum, read_verified, untag_batch, untag_line, BlockRead, DataFile, FileRef, Hdfs,
    SharedFile,
};
pub use job::{
    Combined, Combiner, GroupView, JobInput, JobSpec, KeyGroups, MapOutput, Mapper, MapperFactory,
    Records, ReduceEmit, ReduceOutput, Reducer, ReducerFactory,
};
pub use journal::{recover, DispositionKind, Journal, JournalRecord, Recovered, JOURNAL_MAGIC};
pub use metrics::{ChainMetrics, JobMetrics};
pub use reuse::{config_epoch, ReuseCache, ReuseConfig, ReuseStats};
pub use scheduler::{
    run_workload, run_workload_with, Disposition, QueryReport, QueryRequest, RecoveryStats,
    SchedulerConfig, TenantSpec, WorkloadReport, WorkloadRun,
};
pub use trace::{validate_chrome_trace, ArgValue, Trace, TraceEvent, TraceStats};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, MapRedError>;
