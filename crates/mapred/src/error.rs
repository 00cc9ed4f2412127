//! Errors of the simulated cluster.

use std::fmt;

/// Errors raised while executing MapReduce jobs on the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum MapRedError {
    /// An input path does not exist in HDFS.
    NoSuchFile(String),
    /// The per-node local disks overflowed while spilling intermediate data —
    /// the failure mode that stopped Pig's Q-CSA run in the paper (§VII-D).
    /// The cost model spreads intermediate data evenly over the cluster, so
    /// the overflow is reported as the modelled per-node load rather than a
    /// fabricated node index.
    DiskFull {
        /// Worker nodes the intermediate data is spread across.
        nodes: usize,
        /// Modelled bytes each node's disk would have to hold.
        per_node_bytes: u64,
        /// A node's configured capacity.
        capacity_bytes: u64,
    },
    /// A job exceeded the configured wall-clock cap (Fig. 11's one-hour
    /// cut-off for Hive-with-compression on Q21).
    TimeLimitExceeded {
        /// The cap in simulated seconds.
        limit_s: f64,
    },
    /// A mapper or reducer reported a data error.
    User(String),
    /// A task failed more times than the framework retries (4, as Hadoop).
    TooManyFailures {
        /// The task that kept failing.
        task: String,
    },
    /// Every worker node died during one job attempt — nothing survives to
    /// re-execute lost tasks, so the whole attempt is lost (the chain-level
    /// [`crate::config::RetryPolicy`] can retry it).
    ClusterLost {
        /// The job whose attempt lost the cluster.
        job: String,
        /// Worker nodes that died.
        nodes: usize,
    },
    /// Every replica of an HDFS block failed its checksum — there is no
    /// clean copy left to read. Retryable at the chain level: a retried
    /// attempt draws fresh corruption randomness (the at-rest flip is
    /// re-sampled, as a re-replicated block would be).
    CorruptBlock {
        /// HDFS path of the file holding the block.
        path: String,
        /// Block index within the file (= map split index).
        block: usize,
        /// Replicas tried, all corrupt.
        replicas: u32,
    },
    /// A job skipped more malformed input records than
    /// [`crate::config::ClusterConfig::skip_bad_records`] allows. Not
    /// retryable — the budget is a policy decision, and a rerun faces the
    /// same data.
    TooManyBadRecords {
        /// The job that hit the budget.
        job: String,
        /// Malformed records encountered.
        skipped: u64,
        /// The configured budget.
        budget: u64,
    },
    /// [`crate::chain::run_chain`] was handed a chain with no jobs.
    EmptyChain,
    /// The tenant's bounded admission queue was full when the query arrived
    /// — the scheduler sheds load instead of queueing unboundedly (or
    /// hanging). Resubmit later; nothing ran.
    QueueFull {
        /// The tenant whose queue overflowed.
        tenant: String,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The scheduler refused the query at admission for a reason other than
    /// queue depth — an unknown tenant, a deadline that had already expired
    /// at submission. Nothing ran.
    Rejected {
        /// The tenant named by the request.
        tenant: String,
        /// Why admission was refused.
        reason: String,
    },
    /// The query's deadline passed before its chain completed. The
    /// scheduler cancelled it cleanly at the deadline, releasing its slot
    /// share; the accompanying [`crate::chain::ChainFailure`]-style report
    /// carries the partial metrics of everything that ran first.
    DeadlineExceeded {
        /// The absolute deadline on the workload timeline, seconds.
        deadline_s: f64,
    },
    /// The tenant spent its cross-chain retry budget: a retryable failure
    /// that would normally back off and re-run instead fails the chain
    /// fast, so one tenant's fault-retry storm cannot monopolise the
    /// cluster. Partial metrics report what ran before the budget died.
    RetryBudgetExhausted {
        /// The tenant whose budget ran out.
        tenant: String,
        /// Retries the tenant was allowed across all of its chains.
        budget: usize,
    },
    /// The service is draining for a graceful shutdown (`ysmart serve`'s
    /// `!drain`): admission is closed, already-admitted queries still run,
    /// and a new query is rejected with this typed error (distinct from
    /// [`MapRedError::QueueFull`] — the queue may be empty; the *service*
    /// is going away). Resubmit after the restart; nothing ran.
    Draining,
    /// The workload journal holds a record that is neither valid nor a torn
    /// tail: a checksum mismatch or undecodable payload *followed by more
    /// data*. A torn tail (an interrupted final append) is silently
    /// truncated and recovered instead; this error means at-rest journal
    /// corruption that recovery refuses to guess across.
    JournalCorrupt {
        /// Byte offset of the bad record.
        offset: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for MapRedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapRedError::NoSuchFile(p) => write!(f, "no such file in HDFS: {p}"),
            MapRedError::DiskFull {
                nodes,
                per_node_bytes,
                capacity_bytes,
            } => write!(
                f,
                "local disks full: {per_node_bytes} bytes per node across {nodes} nodes, capacity {capacity_bytes}"
            ),
            MapRedError::TimeLimitExceeded { limit_s } => {
                write!(f, "job exceeded time limit of {limit_s} s")
            }
            MapRedError::User(msg) => write!(f, "task error: {msg}"),
            MapRedError::TooManyFailures { task } => {
                write!(f, "task {task} failed too many times")
            }
            MapRedError::ClusterLost { job, nodes } => {
                write!(f, "all {nodes} worker nodes lost during job {job}")
            }
            MapRedError::CorruptBlock {
                path,
                block,
                replicas,
            } => write!(
                f,
                "block {block} of {path} is corrupt on all {replicas} replicas"
            ),
            MapRedError::TooManyBadRecords {
                job,
                skipped,
                budget,
            } => write!(
                f,
                "job {job} skipped {skipped} malformed records, budget {budget}"
            ),
            MapRedError::EmptyChain => write!(f, "job chain has no jobs"),
            MapRedError::QueueFull { tenant, capacity } => {
                write!(f, "tenant {tenant}: admission queue full ({capacity} waiting), query shed")
            }
            MapRedError::Rejected { tenant, reason } => {
                write!(f, "tenant {tenant}: admission rejected: {reason}")
            }
            MapRedError::DeadlineExceeded { deadline_s } => {
                write!(f, "query cancelled at its deadline ({deadline_s} s)")
            }
            MapRedError::RetryBudgetExhausted { tenant, budget } => write!(
                f,
                "tenant {tenant}: retry budget of {budget} exhausted, chain failed fast"
            ),
            MapRedError::Draining => {
                write!(f, "service draining: admission closed, query shed")
            }
            MapRedError::JournalCorrupt { offset, reason } => {
                write!(f, "workload journal corrupt at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for MapRedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            MapRedError::NoSuchFile("x".into()),
            MapRedError::DiskFull {
                nodes: 2,
                per_node_bytes: 10,
                capacity_bytes: 5,
            },
            MapRedError::TimeLimitExceeded { limit_s: 3600.0 },
            MapRedError::User("boom".into()),
            MapRedError::TooManyFailures { task: "m-3".into() },
            MapRedError::ClusterLost {
                job: "j1".into(),
                nodes: 4,
            },
            MapRedError::CorruptBlock {
                path: "data/t".into(),
                block: 2,
                replicas: 3,
            },
            MapRedError::TooManyBadRecords {
                job: "j1".into(),
                skipped: 5,
                budget: 2,
            },
            MapRedError::EmptyChain,
            MapRedError::QueueFull {
                tenant: "t0".into(),
                capacity: 4,
            },
            MapRedError::Rejected {
                tenant: "t1".into(),
                reason: "unknown tenant".into(),
            },
            MapRedError::DeadlineExceeded { deadline_s: 120.0 },
            MapRedError::RetryBudgetExhausted {
                tenant: "t2".into(),
                budget: 8,
            },
            MapRedError::Draining,
            MapRedError::JournalCorrupt {
                offset: 96,
                reason: "checksum mismatch".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
