//! Cluster configuration and cost model.
//!
//! Presets mirror the paper's three experimental platforms (§VII-B): the
//! two-node local cluster, the Amazon EC2 small-instance clusters (11 and
//! 101 nodes) and the 747-node Facebook production cluster.

/// Map-output compression model (Fig. 11 evaluates jobs with and without
/// it; the paper found compression *hurt* in isolated clusters because the
/// CPU cost outweighed the network savings, which this model reproduces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Compression {
    /// Compressed size / raw size, e.g. `0.35` (the paper's Q17 reduce
    /// input went from 11.09 GB to 3.87 GB ≈ 0.35).
    pub ratio: f64,
    /// CPU seconds charged per raw gigabyte compressed (and again per raw
    /// gigabyte decompressed on the reduce side).
    pub cpu_s_per_gb: f64,
}

impl Default for Compression {
    fn default() -> Self {
        Compression {
            ratio: 0.35,
            cpu_s_per_gb: 22.0,
        }
    }
}

/// Production-cluster dynamics (§VII-F): co-running workloads steal slots
/// and delay job launches, and the effect grows with the number of jobs a
/// query needs — the mechanism behind YSmart's larger speedups on the
/// Facebook cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Fraction of task slots available to this query (0–1].
    pub slot_share: f64,
    /// Maximum extra scheduling gap before each job launch, in seconds
    /// (the paper observed gaps up to 5.4 minutes).
    pub max_scheduling_gap_s: f64,
    /// Multiplier on task durations from CPU/disk interference (≥ 1).
    pub task_slowdown: f64,
    /// Seed for the gap sampler.
    pub seed: u64,
}

/// Straggler model with optional speculative execution. MapReduce's
/// original fault-tolerance story (Dean & Ghemawat §3.6) includes *backup
/// tasks*: when a task runs far slower than its peers (a straggler — bad
/// disk, co-located load), the framework schedules a duplicate and takes
/// whichever finishes first. Stragglers here are sampled per task with a
/// seeded RNG; with `speculative` enabled the straggler's effective time is
/// capped near the normal task time (the backup wins). The backup's
/// duplicated work occupies otherwise-idle slots, so it is charged to
/// [`crate::metrics::JobMetrics::speculative_slot_s`] (cluster slot-seconds)
/// rather than to the job's wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerModel {
    /// Probability that a task is a straggler.
    pub probability: f64,
    /// Time multiplier a straggler suffers (e.g. 6.0).
    pub slowdown: f64,
    /// Whether backup tasks are launched (Hadoop's speculative execution).
    pub speculative: bool,
    /// RNG seed.
    pub seed: u64,
}

/// Seeded task-failure injector: each task attempt fails independently with
/// `probability`; failed attempts are re-executed (up to 4 attempts, as
/// Hadoop) and their wasted time is charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Per-attempt failure probability in `[0, 1)`.
    pub probability: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Seeded whole-node failure injector. During each job attempt every worker
/// node dies independently with `probability` (a TaskTracker crash, as
/// Hadoop's JobTracker detects via missed heartbeats). A dead node takes its
/// completed map outputs with it — they live on the node's local disk, not
/// in HDFS — so every task the node ran is re-executed on the survivors and
/// reduce tasks re-fetch the re-executed share of the shuffle. All of that
/// is charged in simulated time; results never change because the real
/// computation is re-run identically. If *all* nodes die the attempt fails
/// with [`crate::MapRedError::ClusterLost`] and only the chain-level
/// [`RetryPolicy`] can recover it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailureModel {
    /// Per-node, per-job-attempt death probability in `[0, 1)`.
    pub probability: f64,
    /// RNG seed (draws also vary with the job and the attempt index, so a
    /// retried job sees fresh failures).
    pub seed: u64,
}

/// Chain-level retry with exponential backoff. When a job attempt dies with
/// a retryable error ([`crate::MapRedError::TooManyFailures`],
/// [`crate::MapRedError::DiskFull`], [`crate::MapRedError::ClusterLost`] or
/// [`crate::MapRedError::CorruptBlock`]),
/// [`crate::chain::run_chain`] waits out the backoff in simulated time and
/// re-runs *that job only*: outputs of earlier jobs already sit in HDFS, so
/// the chain recovers from its last checkpoint instead of restarting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per job (beyond its first attempt).
    pub max_retries: usize,
    /// Backoff before the first retry, simulated seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
    /// Ceiling on any single backoff wait, simulated seconds. Without a cap
    /// the exponential grows without bound (`30 × 2¹⁰` is already over
    /// 8 hours) and a long retry series spends its whole budget waiting.
    pub max_backoff_s: f64,
    /// Fraction of each backoff randomised away by
    /// [`RetryPolicy::backoff_jittered_s`], in `[0, 1]`. `0` (the default)
    /// keeps the plain exponential schedule. Co-running chains that fail
    /// together would otherwise retry in lockstep and collide again — the
    /// classic retry-storm resonance; jitter derived from each chain's seed
    /// spreads them out deterministically, never from thread timing.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 30.0,
            backoff_factor: 2.0,
            max_backoff_s: 600.0,
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry number `retry` (0-based), capped at
    /// [`RetryPolicy::max_backoff_s`].
    #[must_use]
    pub fn backoff_s(&self, retry: usize) -> f64 {
        let raw = self.backoff_base_s
            * self
                .backoff_factor
                .powi(i32::try_from(retry).unwrap_or(i32::MAX));
        // `raw` can overflow to +inf for large retry indices; the cap also
        // normalises that case to a finite wait.
        raw.min(self.max_backoff_s)
    }

    /// [`RetryPolicy::backoff_s`] with decorrelation jitter: up to
    /// [`RetryPolicy::jitter`] of the wait is shaved off by a uniform draw
    /// hashed from `(seed, retry)` — full-jitter-down, so the result never
    /// exceeds the plain schedule or the cap. The seed must come from the
    /// chain (not wall clock or thread identity) so runs stay bit-identical
    /// for any thread count while distinct chains still de-synchronise.
    #[must_use]
    pub fn backoff_jittered_s(&self, retry: usize, seed: u64) -> f64 {
        let base = self.backoff_s(retry);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return base;
        }
        // splitmix64 finaliser over the (seed, retry) mix — the same
        // stateless per-index derivation the engine uses for task RNGs.
        let mut z = seed
            ^ (retry as u64)
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
        base * (1.0 - jitter * unit)
    }
}

/// Seeded data-corruption injector: unlike every other fault model, this
/// one perturbs *bytes*, not clocks. Three independent corruption sites
/// mirror where real Hadoop deployments lose data integrity:
///
/// * **blocks at rest** — each replica of each HDFS block read by a map
///   task is independently corrupted with `block_rate` (a flipped bit on a
///   disk platter). HDFS-style per-block checksums detect the flip on read
///   and fail over to the next replica; a block whose every replica is bad
///   surfaces [`crate::MapRedError::CorruptBlock`].
/// * **shuffle segments in flight** — each map-output segment fetched by a
///   reducer is corrupted with `segment_rate` (a bad NIC, a flaky switch).
///   The reducer's verification catches it and re-fetches with capped
///   retries; a mapper whose output keeps failing verification is
///   re-executed.
/// * **records** — with `record_rate` per input record, a torn/garbled
///   extra line is injected into the map input (a partially-written append,
///   a log corruption). Robust mappers count and skip such records under
///   the [`ClusterConfig::skip_bad_records`] budget.
///
/// All draws are seeded per `(job, attempt, site index)`, so runs are
/// reproducible for any thread count and retried attempts see fresh
/// randomness (mirroring [`NodeFailureModel`]'s attempt mixing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionModel {
    /// Per-replica, per-block corruption probability in `[0, 1]`.
    pub block_rate: f64,
    /// Per-fetch shuffle-segment corruption probability in `[0, 1]`.
    pub segment_rate: f64,
    /// Per-record probability of injecting a malformed input line.
    pub record_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CorruptionModel {
    /// A uniform profile: all three sites corrupt at `rate`.
    #[must_use]
    pub fn uniform(rate: f64, seed: u64) -> Self {
        CorruptionModel {
            block_rate: rate,
            segment_rate: rate,
            record_rate: rate,
            seed,
        }
    }
}

/// Per-node blacklisting, as Hadoop's TaskTracker blacklist: a node whose
/// tasks keep failing (injected task failures, shuffle outputs that fail
/// verification) is excluded from further scheduling once its failure count
/// exceeds `max_failures`. Blacklisted nodes shrink the effective slot
/// pool, so later waves — the reduce phase, re-executed tasks — pack onto
/// fewer slots and take longer; that lost capacity is the policy's cost,
/// charged honestly by the wave model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlacklistPolicy {
    /// Task failures a node may accumulate during one job attempt before it
    /// is blacklisted (Hadoop's `mapred.max.tracker.failures` default is 4).
    pub max_failures: usize,
}

impl Default for BlacklistPolicy {
    fn default() -> Self {
        BlacklistPolicy { max_failures: 4 }
    }
}

/// On-wire representation of table data, shuffle segments and intermediate
/// job outputs.
///
/// `Text` is the seed format: `|`-delimited lines everywhere, re-parsed by
/// every mapper. `Columnar` moves [`ysmart_rel::ColumnBatch`] frames
/// instead — typed column vectors with dictionary-encoded strings and
/// per-column-chunk XXH64 checksums — and keeps the text codec only at the
/// ingest/output boundary. Both formats produce identical query results
/// and are individually deterministic across thread counts; simulated
/// times and byte counts differ because the encoded bytes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataFormat {
    /// Pipe-delimited text lines (the seed data path).
    #[default]
    Text,
    /// Columnar binary frames with per-column checksums.
    Columnar,
}

/// The cluster and its cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Worker nodes (excluding the JobTracker, as in the paper's counts).
    pub nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// Local-disk bandwidth per node, MB/s.
    pub disk_mbps: f64,
    /// Network bandwidth per node, MB/s.
    pub net_mbps: f64,
    /// CPU cost of mapping one record, microseconds.
    pub map_cpu_us_per_record: f64,
    /// CPU cost of reducing one record, microseconds.
    pub reduce_cpu_us_per_record: f64,
    /// CPU cost of one extra *work unit* reported by a task (common-mapper
    /// branch evaluation, common-reducer dispatch and per-operation row
    /// processing), microseconds. Lower than the per-record cost: a work
    /// unit is a function call on an already-deserialised row.
    pub work_cpu_us: f64,
    /// Fraction of the reduce-side shuffle fetch that overlaps the map
    /// phase (Hadoop copies map output while later map waves still run).
    pub shuffle_overlap: f64,
    /// Fixed startup overhead per task (JVM launch etc.), seconds.
    pub task_startup_s: f64,
    /// HDFS block size, MB — determines the number of map tasks.
    pub hdfs_block_mb: f64,
    /// HDFS replication factor charged on job output writes.
    pub replication: u32,
    /// Fraction of map tasks reading their block from the local disk; the
    /// rest fetch it over the network.
    pub locality: f64,
    /// Per-node local-disk capacity for intermediate data, MB.
    pub disk_capacity_mb: f64,
    /// Map-output compression, when enabled.
    pub compression: Option<Compression>,
    /// Scheduler latency between chained jobs, seconds.
    pub inter_job_delay_s: f64,
    /// Production-cluster contention, when modelled.
    pub contention: Option<ContentionModel>,
    /// Task-failure injection, when modelled.
    pub failures: Option<FailureModel>,
    /// Whole-node failure injection, when modelled.
    pub node_failures: Option<NodeFailureModel>,
    /// Data-corruption injection (blocks, shuffle segments, records), when
    /// modelled. Enabling it also turns on checksum verification charges
    /// ([`crate::metrics::JobMetrics::verify_s`]).
    pub corruption: Option<CorruptionModel>,
    /// Malformed input records a job may skip before it aborts with
    /// [`crate::MapRedError::TooManyBadRecords`]. 0 (the default) means any
    /// bad record kills the job — Hadoop with skipping mode off.
    pub skip_bad_records: u64,
    /// Per-node failure blacklisting, when enabled.
    pub blacklist: Option<BlacklistPolicy>,
    /// Chain-level retry with backoff, when enabled.
    pub retry: Option<RetryPolicy>,
    /// Straggler injection (and speculative execution), when modelled.
    pub stragglers: Option<StragglerModel>,
    /// Wall-clock cap per query, simulated seconds (`None` = unlimited).
    pub time_limit_s: Option<f64>,
    /// Every real byte/record processed stands for this many simulated
    /// ones, so a megabyte-scale dataset can model a 10 GB/1 TB run.
    pub size_multiplier: f64,
    /// Real OS threads used to execute map and reduce tasks (`None` = all
    /// available cores). This knob only controls the harness's wall-clock
    /// parallelism; simulated times, results and metrics are identical for
    /// every setting — `Some(1)` forces the serial path for determinism
    /// tests.
    pub exec_threads: Option<usize>,
    /// Number of reduce tasks per job (Hadoop default: ~0.95 × reduce
    /// slots). `None` derives it from the cluster size.
    pub reduce_tasks: Option<usize>,
    /// Wire format for table data, shuffle segments and intermediates.
    pub data_format: DataFormat,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            disk_mbps: 80.0,
            net_mbps: 110.0,
            map_cpu_us_per_record: 3.0,
            reduce_cpu_us_per_record: 1.2,
            work_cpu_us: 0.6,
            shuffle_overlap: 0.65,
            task_startup_s: 2.0,
            hdfs_block_mb: 64.0,
            replication: 3,
            locality: 0.9,
            disk_capacity_mb: 500_000.0,
            compression: None,
            inter_job_delay_s: 5.0,
            contention: None,
            failures: None,
            node_failures: None,
            corruption: None,
            skip_bad_records: 0,
            blacklist: None,
            retry: None,
            stragglers: None,
            time_limit_s: None,
            size_multiplier: 1.0,
            exec_threads: None,
            reduce_tasks: None,
            data_format: DataFormat::default(),
        }
    }
}

impl ClusterConfig {
    /// The paper's small local cluster: one TaskTracker node with 4 slots,
    /// quad-core Xeon, single 500 GB disk, Gigabit Ethernet (§VII-B.1).
    #[must_use]
    pub fn small_local() -> Self {
        ClusterConfig {
            nodes: 1,
            map_slots_per_node: 4,
            reduce_slots_per_node: 4,
            disk_mbps: 90.0,
            net_mbps: 110.0,
            disk_capacity_mb: 450_000.0,
            ..ClusterConfig::default()
        }
    }

    /// An EC2 cluster of default small instances: 1 virtual core, 1.7 GB
    /// memory, 160 GB instance storage (§VII-B.2). `workers` is the number
    /// of worker nodes (10 or 100 in the paper, plus one JobTracker).
    #[must_use]
    pub fn ec2(workers: usize) -> Self {
        ClusterConfig {
            nodes: workers,
            map_slots_per_node: 2,
            reduce_slots_per_node: 1,
            disk_mbps: 50.0,
            net_mbps: 60.0,
            map_cpu_us_per_record: 6.0,
            reduce_cpu_us_per_record: 4.0,
            disk_capacity_mb: 140_000.0,
            ..ClusterConfig::default()
        }
    }

    /// The Facebook production cluster: 747 nodes, 8 cores, 12 × 1 TB
    /// disks (§VII-B.3), with production contention enabled.
    #[must_use]
    pub fn facebook(seed: u64) -> Self {
        ClusterConfig {
            nodes: 747,
            map_slots_per_node: 6,
            reduce_slots_per_node: 2,
            disk_mbps: 600.0, // 12 spindles
            net_mbps: 120.0,
            disk_capacity_mb: 11_000_000.0,
            contention: Some(ContentionModel {
                slot_share: 0.35,
                max_scheduling_gap_s: 324.0, // 5.4 minutes
                task_slowdown: 1.6,
                seed,
            }),
            ..ClusterConfig::default()
        }
    }

    /// A fault profile for sweeps, on top of `self`: node deaths at
    /// `probability` plus a moderate task-failure rate, recovered by the
    /// default retry policy.
    #[must_use]
    pub fn injected(self, probability: f64, seed: u64) -> Self {
        ClusterConfig {
            failures: Some(FailureModel {
                probability: (probability / 2.0).min(0.3),
                seed: seed ^ 0xF417,
            }),
            node_failures: Some(NodeFailureModel { probability, seed }),
            retry: Some(RetryPolicy::default()),
            ..self
        }
    }

    /// A data-integrity profile on top of `self`: uniform byte corruption
    /// at `rate` across blocks, shuffle segments and records, with an
    /// unbounded skip budget, blacklisting, and the default retry policy to
    /// recover attempts that lose every replica of a block.
    #[must_use]
    pub fn corrupted(self, rate: f64, seed: u64) -> Self {
        ClusterConfig {
            corruption: Some(CorruptionModel::uniform(rate, seed)),
            skip_bad_records: u64::MAX,
            blacklist: Some(BlacklistPolicy::default()),
            retry: Some(RetryPolicy::default()),
            ..self
        }
    }

    /// Total map slots across the cluster (after contention slot share).
    #[must_use]
    pub fn total_map_slots(&self) -> usize {
        self.effective_slots(self.nodes * self.map_slots_per_node)
    }

    /// Total reduce slots across the cluster (after contention slot share).
    #[must_use]
    pub fn total_reduce_slots(&self) -> usize {
        self.effective_slots(self.nodes * self.reduce_slots_per_node)
    }

    fn effective_slots(&self, raw: usize) -> usize {
        let share = self.contention.map_or(1.0, |c| c.slot_share);
        ((raw as f64 * share).floor() as usize).max(1)
    }

    /// Map slots left when only `survivors` nodes are alive (after the
    /// contention slot share).
    #[must_use]
    pub fn surviving_map_slots(&self, survivors: usize) -> usize {
        self.effective_slots(survivors * self.map_slots_per_node)
    }

    /// Reduce slots left when only `survivors` nodes are alive (after the
    /// contention slot share).
    #[must_use]
    pub fn surviving_reduce_slots(&self, survivors: usize) -> usize {
        self.effective_slots(survivors * self.reduce_slots_per_node)
    }

    /// The number of reduce tasks a job should use.
    #[must_use]
    pub fn default_reduce_tasks(&self) -> usize {
        self.reduce_tasks
            .unwrap_or_else(|| ((self.total_reduce_slots() as f64) * 0.95).ceil() as usize)
            .max(1)
    }

    /// Seconds to move `bytes` (simulated bytes) across one node's disk.
    #[must_use]
    pub fn disk_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.disk_mbps * 1e6)
    }

    /// Seconds to move `bytes` (simulated bytes) across one node's NIC.
    #[must_use]
    pub fn net_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.net_mbps * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_shapes() {
        let local = ClusterConfig::small_local();
        assert_eq!(local.total_map_slots(), 4);
        let ec2 = ClusterConfig::ec2(100);
        assert_eq!(ec2.nodes, 100);
        let fb = ClusterConfig::facebook(1);
        assert_eq!(fb.nodes, 747);
        assert!(fb.contention.is_some());
    }

    #[test]
    fn injected_preset_sets_failures_and_retry() {
        let cfg = ClusterConfig::default().injected(0.2, 7);
        assert!(cfg.failures.is_some());
        assert_eq!(cfg.node_failures.unwrap().probability, 0.2);
        assert!(cfg.retry.is_some());
        assert!(cfg.corruption.is_none(), "pure failure profile");
    }

    #[test]
    fn corrupted_preset_is_a_pure_integrity_profile() {
        let cfg = ClusterConfig::default().corrupted(1e-3, 9);
        assert_eq!(cfg.corruption.unwrap().block_rate, 1e-3);
        assert_eq!(cfg.skip_bad_records, u64::MAX);
        assert!(cfg.blacklist.is_some() && cfg.retry.is_some());
        assert!(cfg.failures.is_none() && cfg.node_failures.is_none());
    }

    #[test]
    fn contention_reduces_slots() {
        let fb = ClusterConfig::facebook(1);
        assert!(fb.total_map_slots() < 747 * fb.map_slots_per_node);
        assert!(fb.total_map_slots() >= 1);
    }

    #[test]
    fn reduce_task_default_positive() {
        assert!(ClusterConfig::default().default_reduce_tasks() >= 1);
        let cfg = ClusterConfig {
            reduce_tasks: Some(7),
            ..ClusterConfig::default()
        };
        assert_eq!(cfg.default_reduce_tasks(), 7);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert!((p.backoff_s(0) - 30.0).abs() < 1e-9);
        assert!((p.backoff_s(1) - 60.0).abs() < 1e-9);
        assert!((p.backoff_s(2) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_is_capped_over_a_long_retry_series() {
        let p = RetryPolicy {
            max_retries: 1000,
            max_backoff_s: 600.0,
            ..RetryPolicy::default()
        };
        // Uncapped, retry 10 would be 30 × 2¹⁰ = 30 720 s.
        assert!((p.backoff_s(10) - 600.0).abs() < 1e-9);
        // Every element of a long series stays finite and capped — includes
        // the powi-overflow region where the raw product is +inf.
        let mut total = 0.0;
        for retry in 0..1000 {
            let b = p.backoff_s(retry);
            assert!(b.is_finite() && b <= 600.0, "retry {retry}: {b}");
            total += b;
        }
        assert!(total <= 600.0 * 1000.0);
    }

    #[test]
    fn jitter_off_matches_plain_backoff() {
        let p = RetryPolicy::default();
        for retry in 0..12 {
            assert_eq!(p.backoff_jittered_s(retry, 0xABCD), p.backoff_s(retry));
        }
    }

    #[test]
    fn jitter_is_seed_deterministic_bounded_and_decorrelating() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        for retry in 0..12 {
            let a = p.backoff_jittered_s(retry, 7);
            let b = p.backoff_jittered_s(retry, 7);
            assert_eq!(a, b, "same seed must reproduce exactly");
            let plain = p.backoff_s(retry);
            // Full-jitter-down: within [plain/2, plain] for jitter 0.5.
            assert!(a <= plain && a >= plain * 0.5 - 1e-9, "retry {retry}: {a}");
        }
        // Two chains failing in lockstep must not back off in lockstep.
        let spread: Vec<bool> = (0..8)
            .map(|r| (p.backoff_jittered_s(r, 7) - p.backoff_jittered_s(r, 8)).abs() > 1e-9)
            .collect();
        assert!(spread.iter().any(|&d| d), "distinct seeds must decorrelate");
    }

    #[test]
    fn corruption_uniform_sets_all_sites() {
        let m = CorruptionModel::uniform(0.01, 9);
        assert_eq!(m.block_rate, 0.01);
        assert_eq!(m.segment_rate, 0.01);
        assert_eq!(m.record_rate, 0.01);
        assert_eq!(m.seed, 9);
    }

    #[test]
    fn blacklist_default_matches_hadoop() {
        assert_eq!(BlacklistPolicy::default().max_failures, 4);
    }

    #[test]
    fn bandwidth_seconds() {
        let cfg = ClusterConfig {
            disk_mbps: 100.0,
            net_mbps: 50.0,
            ..ClusterConfig::default()
        };
        assert!((cfg.disk_seconds(1e8) - 1.0).abs() < 1e-9);
        assert!((cfg.net_seconds(1e8) - 2.0).abs() < 1e-9);
    }
}
