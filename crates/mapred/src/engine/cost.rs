//! The cost plane: counts in, seconds out — a deterministic function of the
//! data plane's physical counts, the [`ClusterConfig`] and the attempt's
//! seeds ([`JobCtx`]) that never sees a record. See the [module map](super).
//!
//! An [`Account`] is opened by [`map_phase`] and carried through
//! [`Account::shuffle_phase`] and [`Account::reduce_phase`] (or
//! [`Account::map_only_write`]); each step either extends the account or
//! fails the attempt with the simulated time burned so far.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    AttemptFailure, JobCtx, MapCounts, OutputCounts, ReduceCounts, SegmentCounts,
    MAX_FETCH_RETRIES, SPLITMIX,
};
use crate::config::ClusterConfig;
use crate::error::MapRedError;
use crate::metrics::JobMetrics;
use crate::trace::ArgValue::{F64, U64};
use crate::trace::{TraceEvent, SPEC_LANE_BASE};

/// CPU microseconds charged per record comparison in the map-side sort.
const SORT_CPU_US_PER_CMP: f64 = 0.05;
/// Maximum attempts per task, as Hadoop's `mapred.map.max.attempts`.
const MAX_ATTEMPTS: usize = 4;
/// Simulated backoff a reduce task waits before re-fetching a corrupt
/// segment.
const FETCH_RETRY_BACKOFF_S: f64 = 1.0;
/// CPU seconds charged per gigabyte checksummed (XXH64 runs at a few GB/s
/// on one core). Only charged when a corruption model is configured, so
/// integrity-off runs keep their exact historical timings.
const CHECKSUM_CPU_S_PER_GB: f64 = 0.5;

/// The cost plane's running account of one job attempt.
pub(super) struct Account {
    pub(super) metrics: JobMetrics,
    events: Vec<TraceEvent>,
    /// Per map task: charged seconds and failed attempts.
    task_times: Vec<f64>,
    task_failed: Vec<usize>,
    /// Which nodes died during this attempt.
    dead: Vec<bool>,
    /// Share of map tasks re-executed after node deaths — every reduce task
    /// re-fetches that share of its partition.
    lost_map_frac: f64,
    /// Per reduce partition, filled by [`Account::shuffle_phase`].
    parts: Vec<PartCost>,
    /// Undetected flips among shuffle segments (for the trace instant).
    segment_collisions: u64,
}

/// What the shuffle moves into one reduce partition, in simulated units.
#[derive(Clone, Default)]
struct PartCost {
    sim_bytes: f64,
    sim_records: f64,
    /// Extra fetch-phase seconds from data integrity: checksum verification
    /// of arriving segments, corrupt-fetch retries with backoff, and
    /// re-executed map tasks whose output stayed corrupt.
    refetch_extra_s: f64,
    verify_s: f64,
    refetches: u64,
}

/// Simulated cost of one map task.
#[derive(Default)]
struct MapTaskCost {
    /// Everything charged to the task's slot, failed attempts included.
    time_s: f64,
    /// One (successful) attempt. Failed attempts are charged — and drawn in
    /// the trace — as half of it each.
    attempt_s: f64,
    failed_attempts: usize,
    /// 1 when the task straggled and was rescued by a backup task.
    speculative: usize,
    /// Slot-seconds the speculative backup duplicated.
    spec_slot_s: f64,
    /// Checksum CPU seconds (already in `time_s`).
    verify_s: f64,
    spill_bytes: u64,
    /// Error that kills the whole job attempt, surfaced after every task's
    /// time has been accounted.
    fatal: Option<MapRedError>,
}

/// Simulated cost of one reduce task.
struct ReduceTaskCost {
    time_s: f64,
    /// Seconds of the first run thrown away because the task's node died.
    wasted_s: f64,
    reexecuted: usize,
    /// Share of the run spent fetching shuffle segments (trace sub-span).
    fetch_frac: f64,
    speculative: usize,
    spec_slot_s: f64,
}

/// Scales a real (measured) count by the simulated size multiplier,
/// rounding to nearest — truncation made per-job fields drift from chain
/// totals at non-integer multipliers.
fn scale_u64(real: u64, mult: f64) -> u64 {
    (real as f64 * mult).round() as u64
}

/// Element-wise accumulation of per-stream dispatch counts (streams a task
/// never touched stay at their implicit zero).
fn accumulate(acc: &mut Vec<u64>, d: &[u64]) {
    if acc.len() < d.len() {
        acc.resize(d.len(), 0);
    }
    for (a, &x) in acc.iter_mut().zip(d) {
        *a += x;
    }
}

fn fail(error: MapRedError, wasted_s: f64) -> AttemptFailure {
    AttemptFailure { error, wasted_s }
}

/// List-schedules task durations over `slots` parallel slots: each task, in
/// order, goes to the earliest-free slot. Returns every task's
/// `(slot, start)` placement — the trace's lane layout — and the makespan
/// charged as the phase time, so span extents and metrics agree bit for
/// bit. `total_cmp` keeps the selection total even for NaN inputs (which
/// the cost model never produces) — no panic path.
fn schedule(tasks: &[f64], slots: usize) -> (Vec<(usize, f64)>, f64) {
    let mut finish = vec![0.0f64; slots.max(1)];
    let mut placed = Vec::with_capacity(tasks.len());
    for &t in tasks {
        let idx = finish
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        placed.push((idx, finish[idx]));
        finish[idx] += t;
    }
    (placed, finish.into_iter().fold(0.0, f64::max))
}

/// Straggler model: a sampled straggler runs `slowdown`× slower; with
/// speculative execution a backup task caps it near normal time, and the
/// backup's duplicated run is charged as cluster slot-seconds. Returns
/// `(time, speculative, spec_slot_s)`; `mix` is the task's share of the
/// seed.
fn straggle(cfg: &ClusterConfig, mix: u64, time_s: f64) -> (f64, usize, f64) {
    let Some(model) = cfg.stragglers else {
        return (time_s, 0, 0.0);
    };
    let mut rng = StdRng::seed_from_u64(model.seed ^ mix);
    if rng.gen::<f64>() < model.probability {
        let slowed = time_s * model.slowdown.max(1.0);
        if model.speculative {
            let capped = slowed.min(time_s * 1.2);
            return (capped, 1, capped);
        }
        return (slowed, 0, 0.0);
    }
    (time_s, 0, 0.0)
}

/// Intermediate data is modelled as spread evenly over the cluster, so the
/// check (and the error it reports) is in per-node load, not a per-node
/// breakdown the model doesn't have.
fn check_disk(cfg: &ClusterConfig, total_bytes: u64) -> Result<(), MapRedError> {
    let nodes = cfg.nodes.max(1);
    let per_node = total_bytes as f64 / nodes as f64;
    let capacity = cfg.disk_capacity_mb * 1e6;
    if per_node > capacity {
        return Err(MapRedError::DiskFull {
            nodes,
            per_node_bytes: per_node as u64,
            capacity_bytes: capacity as u64,
        });
    }
    Ok(())
}

/// Fails the attempt, with all of `elapsed` wasted, past the time limit.
fn check_time(cfg: &ClusterConfig, elapsed: f64) -> Result<(), AttemptFailure> {
    match cfg.time_limit_s {
        Some(limit_s) if elapsed > limit_s => {
            Err(fail(MapRedError::TimeLimitExceeded { limit_s }, elapsed))
        }
        _ => Ok(()),
    }
}

/// Charges one map task: read + CPU + sort + spill (+ integrity passes),
/// stretched by contention, stragglers and re-executed failed attempts.
fn map_task_cost(job: &JobCtx, idx: usize, c: &MapCounts, map_only: bool) -> MapTaskCost {
    let cfg = job.cfg;
    let mult = cfg.size_multiplier;
    let slowdown = cfg.contention.map_or(1.0, |m| m.task_slowdown);
    let sim_in_bytes = c.in_bytes as f64 * mult;

    // Block integrity: the block is read through its checksum. Each corrupt
    // replica was fully read and verified before the failover re-read.
    let checksum_pass_s = sim_in_bytes / 1e9 * CHECKSUM_CPU_S_PER_GB;
    let mut verify_s = 0.0;
    let mut integrity_extra_s = 0.0;
    if cfg.corruption.is_some() {
        if matches!(c.fatal, Some(MapRedError::CorruptBlock { .. })) {
            // No clean replica left: every replica was read and verified
            // for nothing, and the task never ran.
            let passes = f64::from(cfg.replication.max(1));
            let burned = (cfg.task_startup_s
                + passes * (cfg.disk_seconds(sim_in_bytes) + checksum_pass_s))
                * slowdown;
            return MapTaskCost {
                time_s: burned,
                attempt_s: burned,
                verify_s: passes * checksum_pass_s,
                fatal: c.fatal.clone(),
                ..MapTaskCost::default()
            };
        }
        verify_s = checksum_pass_s * (1.0 + c.corrupt_replicas as f64);
        integrity_extra_s = c.corrupt_replicas as f64 * cfg.disk_seconds(sim_in_bytes) + verify_s;
    }

    let sim_records = c.in_records as f64 * mult;
    let read_s = cfg.locality * cfg.disk_seconds(sim_in_bytes)
        + (1.0 - cfg.locality) * cfg.net_seconds(sim_in_bytes);
    let cpu_s =
        (sim_records * cfg.map_cpu_us_per_record + c.work as f64 * mult * cfg.work_cpu_us) / 1e6;
    let sim_out_records = c.out_records as f64 * mult;
    let sort_s = if map_only || sim_out_records < 2.0 {
        0.0
    } else {
        sim_out_records * sim_out_records.log2().max(1.0) * SORT_CPU_US_PER_CMP / 1e6
    };
    let weight = if c.bounded { 1.0 } else { mult };
    let sim_combined_bytes = c.combined_bytes as f64 * weight;
    let (spill_sim_bytes, compress_s) = match (cfg.compression, map_only) {
        (Some(z), false) => (
            sim_combined_bytes * z.ratio,
            sim_combined_bytes / 1e9 * z.cpu_s_per_gb,
        ),
        _ => (sim_combined_bytes, 0.0),
    };
    let spill_s = if map_only {
        0.0
    } else {
        cfg.disk_seconds(spill_sim_bytes)
    };
    let base_time =
        (cfg.task_startup_s + read_s + integrity_extra_s + cpu_s + sort_s + compress_s + spill_s)
            * slowdown;
    let (attempt_s, speculative, spec_slot_s) = straggle(cfg, job.task_seed(0, idx), base_time);

    // Failure injection: failed attempts waste half their run then retry; a
    // task out of retries poisons the whole job attempt.
    let mut failed_attempts = 0;
    let mut out_of_retries = None;
    let mut time_s = attempt_s;
    if let Some(model) = cfg.failures {
        let mut rng = StdRng::seed_from_u64(job.task_seed(model.seed, idx));
        while failed_attempts + 1 < MAX_ATTEMPTS && rng.gen::<f64>() < model.probability {
            failed_attempts += 1;
            time_s += attempt_s * 0.5;
        }
        if failed_attempts + 1 >= MAX_ATTEMPTS && rng.gen::<f64>() < model.probability {
            time_s += attempt_s * 0.5;
            out_of_retries = Some(MapRedError::TooManyFailures {
                task: format!("{}-m-{idx}", job.name),
            });
        }
    }
    MapTaskCost {
        time_s,
        attempt_s,
        failed_attempts,
        speculative,
        spec_slot_s,
        verify_s,
        spill_bytes: spill_sim_bytes as u64,
        // A user evaluation error outranks injected-fault deaths: it is
        // permanent.
        fatal: c.fatal.clone().or(out_of_retries),
    }
}

/// Per (job, attempt, node) seeded deaths.
fn node_deaths(job: &JobCtx) -> Vec<bool> {
    let mut dead = vec![false; job.cfg.nodes.max(1)];
    if let Some(model) = job.cfg.node_failures {
        for (n, d) in dead.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                model.seed
                    ^ job.hash
                    ^ super::attempt_mix(job.attempt)
                    ^ (n as u64 + 0x0DE5).wrapping_mul(SPLITMIX),
            );
            *d = rng.gen::<f64>() < model.probability;
        }
    }
    dead
}

/// Settles the map phase: charges every task, packs them onto the map
/// slots, applies the bad-record budget, node loss and the spill disk check.
pub(super) fn map_phase(
    job: &JobCtx,
    maps: &[MapCounts],
    hdfs_read_bytes: u64,
    map_only: bool,
) -> Result<Account, AttemptFailure> {
    let cfg = job.cfg;
    let mult = cfg.size_multiplier;
    let costs: Vec<MapTaskCost> = maps
        .iter()
        .enumerate()
        .map(|(idx, c)| map_task_cost(job, idx, c, map_only))
        .collect();
    let task_times: Vec<f64> = costs.iter().map(|c| c.time_s).collect();
    let (placed, mut map_makespan) = schedule(&task_times, cfg.total_map_slots());

    // A task out of per-task retries — or a block with no checksum-clean
    // replica left — kills the attempt; the whole map phase's work up to
    // that point is lost.
    if let Some(error) = costs.iter().find_map(|c| c.fatal.clone()) {
        return Err(fail(error, map_makespan));
    }
    // Map tasks skipped malformed records instead of aborting; more skips
    // than the configured budget means the input is too damaged to trust.
    let skipped_records: u64 = maps.iter().map(|c| c.skipped_records).sum();
    if skipped_records > cfg.skip_bad_records {
        let error = MapRedError::TooManyBadRecords {
            job: job.name.to_string(),
            skipped: skipped_records,
            budget: cfg.skip_bad_records,
        };
        return Err(fail(error, map_makespan));
    }

    let mut events = Vec::new();
    if let Some(cursor) = job.cursor {
        map_spans(&mut events, cursor, &placed, &costs, maps);
    }
    // Node loss: a dead node's map outputs are on its local disk and
    // unreachable, so its tasks (placed by `index % nodes`) re-execute on
    // the surviving slots after the original wave; the original runs are
    // wasted work.
    let dead = node_deaths(job);
    let nodes = dead.len();
    let nodes_lost = dead.iter().filter(|&&d| d).count();
    if nodes_lost == nodes {
        let error = MapRedError::ClusterLost {
            job: job.name.to_string(),
            nodes,
        };
        return Err(fail(error, map_makespan));
    }
    let lost: Vec<usize> = (0..maps.len()).filter(|idx| dead[idx % nodes]).collect();
    let mut wasted_s = 0.0f64;
    let mut lost_map_frac = 0.0f64;
    if !lost.is_empty() {
        let lost_times: Vec<f64> = lost.iter().map(|&idx| task_times[idx]).collect();
        wasted_s += lost_times.iter().sum::<f64>();
        lost_map_frac = lost.len() as f64 / maps.len() as f64;
        let (replaced, wave) = schedule(&lost_times, cfg.surviving_map_slots(nodes - nodes_lost));
        if let Some(cursor) = job.cursor {
            for ((&idx, &t), &(slot, start)) in lost.iter().zip(&lost_times).zip(&replaced) {
                events.push(TraceEvent::span(
                    slot as u32,
                    "reexec",
                    format!("m{idx} re-exec (node lost)"),
                    cursor + map_makespan + start,
                    t,
                ));
            }
        }
        map_makespan += wave;
    }

    let total_spill: u64 = costs.iter().map(|c| c.spill_bytes).sum();
    check_disk(cfg, total_spill).map_err(|error| fail(error, map_makespan))?;

    let mut map_dispatches: Vec<u64> = Vec::new();
    for c in maps {
        accumulate(&mut map_dispatches, &c.dispatches);
    }
    let metrics = JobMetrics {
        name: job.name.to_string(),
        map_time_s: map_makespan,
        hdfs_read_bytes: scale_u64(hdfs_read_bytes, mult),
        local_spill_bytes: total_spill,
        map_in_records: scale_u64(maps.iter().map(|c| c.in_records).sum::<u64>(), mult),
        map_out_records: scale_u64(maps.iter().map(|c| c.out_records).sum::<u64>(), mult),
        map_tasks: maps.len(),
        failed_attempts: costs.iter().map(|c| c.failed_attempts).sum(),
        speculative_tasks: costs.iter().map(|c| c.speculative).sum(),
        speculative_slot_s: costs.iter().map(|c| c.spec_slot_s).sum(),
        nodes_lost,
        reexecuted_tasks: lost.len(),
        wasted_s,
        attempt: job.attempt,
        corrupt_blocks_detected: maps.iter().map(|c| c.corrupt_replicas).sum(),
        skipped_records,
        verify_s: costs.iter().map(|c| c.verify_s).sum(),
        checksum_collisions: maps.iter().map(|c| c.collisions).sum(),
        map_dispatches,
        ..JobMetrics::default()
    };
    Ok(Account {
        metrics,
        events,
        task_failed: costs.iter().map(|c| c.failed_attempts).collect(),
        task_times,
        dead,
        lost_map_frac,
        parts: Vec::new(),
        segment_collisions: 0,
    })
}

/// Lays each map task's failed attempts, success run, speculative backup
/// and integrity events on its slot's lane.
fn map_spans(
    events: &mut Vec<TraceEvent>,
    cursor: f64,
    placed: &[(usize, f64)],
    costs: &[MapTaskCost],
    maps: &[MapCounts],
) {
    for (idx, ((&(slot, start), cost), c)) in placed.iter().zip(costs).zip(maps).enumerate() {
        let tid = slot as u32;
        let span = |lane, cat, what: &str, at, dur| {
            TraceEvent::span(lane, cat, format!("m{idx}{what}"), at, dur)
        };
        let mut at = cursor + start;
        for f in 1..=cost.failed_attempts {
            let d = cost.attempt_s * 0.5;
            events.push(span(
                tid,
                "attempt_failed",
                &format!(" attempt {f} (failed)"),
                at,
                d,
            ));
            at += d;
        }
        let mut ev = span(tid, "map", "", at, cost.attempt_s)
            .arg("in_records", U64(c.in_records))
            .arg("out_records", U64(c.out_records));
        if cost.verify_s > 0.0 {
            ev = ev.arg("verify_s", F64(cost.verify_s));
        }
        if c.corrupt_replicas > 0 {
            ev = ev.arg("corrupt_replicas", U64(c.corrupt_replicas));
        }
        events.push(ev);
        if cost.verify_s > 0.0 {
            events.push(span(tid, "verify", " checksum verify", at, cost.verify_s));
        }
        if cost.speculative > 0 {
            let lane = SPEC_LANE_BASE + tid;
            events.push(span(lane, "speculative", " backup", at, cost.spec_slot_s));
        }
        if c.skipped_records > 0 {
            events.push(
                TraceEvent::instant(
                    tid,
                    "skip",
                    format!("m{idx} skipped bad records"),
                    at + cost.attempt_s,
                )
                .arg("records", U64(c.skipped_records)),
            );
        }
        if c.collisions > 0 {
            events.push(
                TraceEvent::instant(tid, "collision", format!("m{idx} checksum collision"), at)
                    .arg("collisions", U64(c.collisions)),
            );
        }
    }
}

impl Account {
    /// Closes a map-only job: its output is written to HDFS with
    /// replication, spread over the map slots.
    pub(super) fn map_only_write(
        mut self,
        job: &JobCtx,
        out: &OutputCounts,
    ) -> Result<(JobMetrics, Vec<TraceEvent>), AttemptFailure> {
        let cfg = job.cfg;
        let mult = cfg.size_multiplier;
        let sim_out = out.bytes as f64 * mult;
        let write_s = cfg.net_seconds(sim_out * f64::from(cfg.replication))
            / (cfg.total_map_slots() as f64).max(1.0);
        if let Some(cursor) = job.cursor {
            self.events.push(
                TraceEvent::span(
                    0,
                    "write",
                    format!("{} output write", job.name),
                    cursor + self.metrics.map_time_s,
                    write_s,
                )
                .arg("bytes", U64(scale_u64(out.bytes, mult))),
            );
        }
        let m = &mut self.metrics;
        m.encoded_bytes += out.encoded_bytes;
        m.dict_entries += out.dict_entries;
        m.map_time_s += write_s;
        m.hdfs_write_bytes = scale_u64(out.bytes, mult);
        m.out_records = scale_u64(out.records, mult);
        check_time(cfg, m.map_time_s)?;
        Ok(self.finish(job))
    }

    /// Settles the shuffle: what each reduce partition receives, what
    /// corrupt fetches cost it, which nodes get blacklisted, and whether
    /// the shuffled volume fits the disks.
    ///
    /// Every fetched copy is checksummed on arrival. A corrupt fetch is
    /// re-fetched after a backoff; a segment still corrupt past
    /// [`MAX_FETCH_RETRIES`] means the map task's *stored output* is bad,
    /// so that task re-executes and the fresh output is fetched.
    pub(super) fn shuffle_phase(
        &mut self,
        job: &JobCtx,
        maps: &[MapCounts],
        segments: &[SegmentCounts],
        num_reducers: usize,
    ) -> Result<(), AttemptFailure> {
        let cfg = job.cfg;
        let compress_ratio = cfg.compression.map_or(1.0, |z| z.ratio);
        let verifying = cfg.corruption.is_some_and(|m| m.segment_rate > 0.0);
        let nodes = self.dead.len();
        let mut parts = vec![PartCost::default(); num_reducers];
        let mut segment_verify_s = 0.0f64;
        let mut fetch_failures = vec![0usize; nodes];
        let m = &mut self.metrics;
        for seg in segments {
            let part = &mut parts[seg.partition];
            let weight = if maps[seg.task].bounded {
                1.0
            } else {
                cfg.size_multiplier
            };
            if let Some(dicts) = seg.frame_dicts {
                m.encoded_bytes += seg.bytes;
                m.dict_entries += dicts;
            }
            let sim_raw = seg.bytes as f64 * weight;
            part.sim_bytes += sim_raw;
            part.sim_records += seg.records as f64 * weight;
            if !verifying || seg.records == 0 {
                continue;
            }
            m.checksum_collisions += seg.collisions;
            self.segment_collisions += seg.collisions;
            let refetch_s = cfg.net_seconds(sim_raw * compress_ratio) + FETCH_RETRY_BACKOFF_S;
            let verify = sim_raw / 1e9 * CHECKSUM_CPU_S_PER_GB * (1.0 + seg.corrupt_fetches as f64);
            segment_verify_s += verify;
            part.refetch_extra_s += verify;
            part.verify_s += verify;
            if seg.corrupt_fetches > MAX_FETCH_RETRIES {
                // The stored map output itself is bad: its failed fetches,
                // a full re-execution of the map task and the final
                // re-fetch are all charged to this partition's fetch phase,
                // and the failure counts against the map task's node.
                let task_s = self.task_times[seg.task];
                m.refetched_segments += MAX_FETCH_RETRIES as u64;
                part.refetches += MAX_FETCH_RETRIES as u64;
                part.refetch_extra_s += MAX_FETCH_RETRIES as f64 * refetch_s
                    + task_s
                    + cfg.net_seconds(sim_raw * compress_ratio);
                m.wasted_s += task_s;
                m.reexecuted_tasks += 1;
                fetch_failures[seg.task % nodes] += 1;
            } else if seg.corrupt_fetches > 0 {
                m.refetched_segments += seg.corrupt_fetches as u64;
                part.refetches += seg.corrupt_fetches as u64;
                part.refetch_extra_s += seg.corrupt_fetches as f64 * refetch_s;
            }
        }
        m.verify_s += segment_verify_s;

        // Hadoop's TaskTracker blacklist: a (surviving) node whose tasks
        // kept failing — injected task failures or shuffle outputs that
        // failed verification — is excluded from further scheduling,
        // shrinking the slot pool the reduce waves pack onto.
        if let Some(policy) = cfg.blacklist {
            let mut per_node = fetch_failures;
            for (t, &failed) in self.task_failed.iter().enumerate() {
                per_node[t % nodes] += failed;
            }
            let threshold = policy.max_failures.max(1);
            let candidates = (0..nodes)
                .filter(|&n| !self.dead[n] && per_node[n] >= threshold)
                .count();
            // Never blacklist the cluster out of existence: at least one
            // node stays schedulable.
            m.blacklisted_nodes = candidates.min((nodes - m.nodes_lost).saturating_sub(1));
        }

        let total_sim: f64 = parts.iter().map(|p| p.sim_bytes).sum::<f64>() * compress_ratio;
        m.shuffle_bytes = total_sim as u64;
        check_disk(cfg, m.shuffle_bytes).map_err(|error| fail(error, m.map_time_s))?;
        self.parts = parts;
        Ok(())
    }

    /// Charges reduce task `p`: fetch + merge + CPU + replicated write,
    /// stretched by contention, stragglers and node loss.
    fn reduce_task_cost(&self, job: &JobCtx, p: usize, c: &ReduceCounts) -> ReduceTaskCost {
        let cfg = job.cfg;
        let part = &self.parts[p];
        let compress_ratio = cfg.compression.map_or(1.0, |z| z.ratio);
        let decompress_cpu = cfg.compression.map_or(0.0, |z| z.cpu_s_per_gb);
        let sim_in = part.sim_bytes * compress_ratio;
        // Reduce-side work units scale with the same per-pair weights.
        let work_scale = if c.in_records > 0 {
            part.sim_records / c.in_records as f64
        } else {
            0.0
        };
        let fetch_s = cfg.net_seconds(sim_in) * (1.0 - cfg.shuffle_overlap) + part.refetch_extra_s;
        let merge_s = cfg.disk_seconds(sim_in) + part.sim_bytes / 1e9 * decompress_cpu;
        let cpu_s = (part.sim_records * cfg.reduce_cpu_us_per_record
            + c.work as f64 * work_scale * cfg.work_cpu_us)
            / 1e6;
        let sim_out = c.out.bytes as f64 * cfg.size_multiplier;
        let write_s = cfg.net_seconds(sim_out * f64::from(cfg.replication));
        let phases_s = cfg.task_startup_s + fetch_s + merge_s + cpu_s + write_s;
        // Slowdown/straggler factors stretch every phase alike, so the
        // fetch share survives them.
        let fetch_frac = if phases_s > 0.0 {
            fetch_s / phases_s
        } else {
            0.0
        };
        let slowdown = cfg.contention.map_or(1.0, |m| m.task_slowdown);
        let (mut time_s, speculative, spec_slot_s) = straggle(
            cfg,
            job.hash ^ (p as u64 + 0x5151).wrapping_mul(SPLITMIX),
            phases_s * slowdown,
        );
        let mut wasted_s = 0.0f64;
        let mut reexecuted = 0usize;
        if self.metrics.nodes_lost > 0 {
            // Re-executed map tasks' share of this partition is fetched
            // again, after the map phase — no overlap discount.
            time_s += cfg.net_seconds(sim_in * self.lost_map_frac);
            if self.dead[p % self.dead.len()] {
                // The reduce task itself sat on a dead node: its first run
                // is wasted and it restarts on a survivor.
                wasted_s = time_s;
                reexecuted = 1;
                time_s *= 2.0;
            }
        }
        ReduceTaskCost {
            time_s,
            wasted_s,
            reexecuted,
            fetch_frac,
            speculative,
            spec_slot_s,
        }
    }

    /// Settles the reduce phase: charges every task, packs them onto the
    /// reduce slots the surviving, non-blacklisted nodes offer, and closes
    /// the job.
    pub(super) fn reduce_phase(
        mut self,
        job: &JobCtx,
        reduces: &[ReduceCounts],
    ) -> Result<(JobMetrics, Vec<TraceEvent>), AttemptFailure> {
        let cfg = job.cfg;
        let mult = cfg.size_multiplier;
        let costs: Vec<ReduceTaskCost> = reduces
            .iter()
            .enumerate()
            .map(|(p, c)| self.reduce_task_cost(job, p, c))
            .collect();
        let times: Vec<f64> = costs.iter().map(|c| c.time_s).collect();
        let m = &mut self.metrics;
        let reduce_slots = if m.nodes_lost > 0 || m.blacklisted_nodes > 0 {
            let nodes = self.dead.len();
            cfg.surviving_reduce_slots((nodes - m.nodes_lost - m.blacklisted_nodes).max(1))
        } else {
            cfg.total_reduce_slots()
        };
        let (placed, reduce_makespan) = schedule(&times, reduce_slots);
        // An evaluation error kills the attempt as a typed (non-retryable)
        // failure after the phase's time is accounted.
        if let Some(error) = reduces.iter().find_map(|c| c.fatal.clone()) {
            return Err(fail(error, m.map_time_s + reduce_makespan));
        }
        let mut spec_slot_s = 0.0f64;
        let mut out_bytes = 0u64;
        let mut out_records = 0u64;
        for (cost, c) in costs.iter().zip(reduces) {
            m.speculative_tasks += cost.speculative;
            spec_slot_s += cost.spec_slot_s;
            m.wasted_s += cost.wasted_s;
            m.reexecuted_tasks += cost.reexecuted;
            out_bytes += c.out.bytes;
            out_records += c.out.records;
            m.encoded_bytes += c.out.encoded_bytes;
            m.dict_entries += c.out.dict_entries;
            accumulate(&mut m.reduce_dispatches, &c.dispatches);
        }
        m.speculative_slot_s += spec_slot_s;
        m.reduce_time_s = reduce_makespan;
        m.hdfs_write_bytes = scale_u64(out_bytes, mult);
        m.out_records = scale_u64(out_records, mult);
        m.reduce_tasks = reduces.len();
        let elapsed = m.map_time_s + m.reduce_time_s;
        if let Some(cursor) = job.cursor {
            self.reduce_spans(cursor, &placed, &costs, reduces);
        }
        check_time(cfg, elapsed)?;
        Ok(self.finish(job))
    }

    /// Each reduce task's lane shows its (possibly wasted-then-restarted)
    /// run, with the shuffle fetch and checksum verification as nested
    /// sub-spans.
    fn reduce_spans(
        &mut self,
        cursor: f64,
        placed: &[(usize, f64)],
        costs: &[ReduceTaskCost],
        reduces: &[ReduceCounts],
    ) {
        let events = &mut self.events;
        let rbase = cursor + self.metrics.map_time_s;
        for (p, ((&(slot, start), cost), part)) in
            placed.iter().zip(costs).zip(&self.parts).enumerate()
        {
            let tid = slot as u32;
            let span = |lane, cat, what: &str, at, dur| {
                TraceEvent::span(lane, cat, format!("r{p}{what}"), at, dur)
            };
            let mut at = rbase + start;
            if cost.reexecuted > 0 {
                events.push(span(
                    tid,
                    "reexec",
                    " first run (node lost)",
                    at,
                    cost.wasted_s,
                ));
                at += cost.wasted_s;
            }
            let run_dur = cost.time_s - cost.wasted_s;
            let out_records = U64(reduces[p].out.records);
            events.push(span(tid, "reduce", "", at, run_dur).arg("out_records", out_records));
            let fetch_dur = cost.fetch_frac * run_dur;
            if fetch_dur > 0.0 {
                let mut ev = span(tid, "fetch", " shuffle fetch", at, fetch_dur);
                if part.refetches > 0 {
                    ev = ev.arg("refetches", U64(part.refetches));
                }
                events.push(ev);
                if part.verify_s > 0.0 {
                    let dur = part.verify_s.min(fetch_dur);
                    events.push(span(tid, "verify", " segment verify", at, dur));
                }
            }
            if cost.speculative > 0 {
                let lane = SPEC_LANE_BASE + tid;
                events.push(span(lane, "speculative", " backup", at, cost.spec_slot_s));
            }
        }
        if self.segment_collisions > 0 {
            events.push(
                TraceEvent::instant(
                    0,
                    "collision",
                    "shuffle checksum collision".to_string(),
                    rbase,
                )
                .arg("collisions", U64(self.segment_collisions)),
            );
        }
    }

    /// Closes the account, appending the job-level instants: CMF dispatch
    /// counts and columnar encoding volume.
    fn finish(mut self, job: &JobCtx) -> (JobMetrics, Vec<TraceEvent>) {
        let m = &self.metrics;
        if let Some(cursor) = job.cursor {
            if !m.map_dispatches.is_empty() || !m.reduce_dispatches.is_empty() {
                let mut ev = TraceEvent::instant(
                    0,
                    "dispatch",
                    format!("{} stream dispatches", job.name),
                    cursor,
                );
                for (i, &d) in m.map_dispatches.iter().enumerate() {
                    ev = ev.arg(format!("map_s{i}"), U64(d));
                }
                for (i, &d) in m.reduce_dispatches.iter().enumerate() {
                    ev = ev.arg(format!("reduce_s{i}"), U64(d));
                }
                self.events.push(ev);
            }
            if m.encoded_bytes > 0 {
                self.events.push(
                    TraceEvent::instant(
                        0,
                        "encoded",
                        format!("{} columnar encoding", job.name),
                        cursor,
                    )
                    .arg("encoded_bytes", U64(m.encoded_bytes))
                    .arg("dict_entries", U64(m.dict_entries)),
                );
            }
        }
        (self.metrics, self.events)
    }
}

/// Hand-built counts in, seconds out: no cluster, no records.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        BlacklistPolicy, Compression, CorruptionModel, FailureModel, NodeFailureModel,
        StragglerModel,
    };

    fn ctx(cfg: &ClusterConfig) -> JobCtx<'_> {
        JobCtx {
            cfg,
            name: "j",
            hash: 7,
            attempt: 0,
            cursor: Some(0.0),
        }
    }

    /// `n` identical map tasks.
    fn maps(n: usize) -> Vec<MapCounts> {
        let task = MapCounts {
            in_bytes: 1_000_000,
            in_records: 10_000,
            out_records: 10_000,
            combined_bytes: 240_000,
            ..MapCounts::default()
        };
        vec![task; n]
    }

    /// Every map task's output cut evenly into `parts` segments.
    fn segments(maps: &[MapCounts], parts: usize) -> Vec<SegmentCounts> {
        let per_part = |n: u64| n / parts as u64;
        (0..maps.len())
            .flat_map(|task| (0..parts).map(move |partition| (task, partition)))
            .map(|(task, partition)| SegmentCounts {
                task,
                partition,
                records: per_part(maps[task].out_records),
                bytes: per_part(maps[task].combined_bytes),
                ..SegmentCounts::default()
            })
            .collect()
    }

    /// `n` identical reduce tasks, each fed `in_records` merged pairs.
    fn reduces(n: usize, in_records: u64) -> Vec<ReduceCounts> {
        let task = ReduceCounts {
            in_records,
            out: OutputCounts {
                records: 100,
                bytes: 2_000,
                ..OutputCounts::default()
            },
            ..ReduceCounts::default()
        };
        vec![task; n]
    }

    /// All three phases of a job of `m` identical map and `r` identical
    /// reduce tasks.
    fn run(
        cfg: &ClusterConfig,
        m: usize,
        r: usize,
    ) -> Result<(JobMetrics, Vec<TraceEvent>), AttemptFailure> {
        let (job, maps) = (ctx(cfg), maps(m));
        let mut account = map_phase(&job, &maps, 0, false)?;
        account.shuffle_phase(&job, &maps, &segments(&maps, r), r)?;
        account.reduce_phase(&job, &reduces(r, 10_000 / r as u64 * m as u64))
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    /// Latest end among the spans of category `cat`.
    fn last_end(events: &[TraceEvent], cat: &str) -> f64 {
        events
            .iter()
            .filter(|e| e.cat == cat)
            .map(TraceEvent::end_s)
            .fold(0.0, f64::max)
    }

    #[test]
    fn schedule_packs_waves_and_spans_end_at_the_charged_time() {
        // 8 unit tasks on 4 slots = 2 waves.
        assert!(close(schedule(&[1.0; 8], 4).1, 2.0));
        // Uneven tasks: the long one holds slot 0, the rest queue on slot 1.
        let (placed, makespan) = schedule(&[3.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(placed, vec![(0, 0.0), (1, 0.0), (1, 1.0), (1, 2.0)]);
        assert!(close(makespan, 3.0));

        // Default cluster: 4 map slots, 4 reduce slots.
        let cfg = ClusterConfig::default();
        let one = map_phase(&ctx(&cfg), &maps(1), 0, false).unwrap().metrics;
        let (m, events) = run(&cfg, 8, 6).unwrap();
        assert!(close(m.map_time_s, 2.0 * one.map_time_s), "two map waves");
        assert_eq!(
            last_end(&events, "map").to_bits(),
            m.map_time_s.to_bits(),
            "map placements end exactly at the charged phase time"
        );
        assert_eq!(
            last_end(&events, "reduce").to_bits(),
            (m.map_time_s + m.reduce_time_s).to_bits(),
            "reduce placements end exactly at the charged job time"
        );
        assert_eq!((m.map_tasks, m.reduce_tasks), (8, 6));
    }

    #[test]
    fn stragglers_slow_tasks_and_speculation_caps_them_at_1_2x() {
        let mut cfg = ClusterConfig::default();
        let base = run(&cfg, 1, 1).unwrap().0;
        let mut model = StragglerModel {
            probability: 1.0,
            slowdown: 6.0,
            speculative: false,
            seed: 3,
        };
        cfg.stragglers = Some(model);
        let slow = run(&cfg, 1, 1).unwrap().0;
        assert!(close(slow.map_time_s, 6.0 * base.map_time_s));
        assert!(close(slow.reduce_time_s, 6.0 * base.reduce_time_s));
        assert_eq!((slow.speculative_tasks, slow.speculative_slot_s), (0, 0.0));

        model.speculative = true;
        cfg.stragglers = Some(model);
        let (capped, events) = run(&cfg, 1, 1).unwrap();
        assert!(close(capped.map_time_s, 1.2 * base.map_time_s));
        assert!(close(capped.reduce_time_s, 1.2 * base.reduce_time_s));
        assert_eq!(capped.speculative_tasks, 2, "one map, one reduce backup");
        // Each backup duplicates its task's (capped) run on a shadow lane.
        assert!(close(
            capped.speculative_slot_s,
            capped.map_time_s + capped.reduce_time_s
        ));
        assert_eq!(events.iter().filter(|e| e.cat == "speculative").count(), 2);
    }

    #[test]
    fn failed_attempts_cost_half_a_run_and_the_fourth_kills_the_job() {
        let mut cfg = ClusterConfig::default();
        let attempt_s = map_phase(&ctx(&cfg), &maps(1), 0, false)
            .unwrap()
            .metrics
            .map_time_s;
        let mut seen = [false; MAX_ATTEMPTS];
        for seed in 0..40 {
            cfg.failures = Some(FailureModel {
                probability: 0.5,
                seed,
            });
            match map_phase(&ctx(&cfg), &maps(1), 0, false) {
                Ok(account) => {
                    let failed = account.metrics.failed_attempts;
                    assert!(failed < MAX_ATTEMPTS);
                    assert!(close(
                        account.metrics.map_time_s,
                        attempt_s * (1.0 + 0.5 * failed as f64)
                    ));
                    seen[failed] = true;
                }
                Err(f) => {
                    assert!(matches!(f.error, MapRedError::TooManyFailures { .. }));
                    assert!(close(f.wasted_s, attempt_s * 3.0));
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "0..=3 failed attempts all occur");

        cfg.failures = Some(FailureModel {
            probability: 1.0,
            seed: 0,
        });
        let dead = map_phase(&ctx(&cfg), &maps(1), 0, false).err().unwrap();
        assert_eq!(
            dead.error,
            MapRedError::TooManyFailures {
                task: "j-m-0".into()
            }
        );
        assert!(close(dead.wasted_s, attempt_s * 3.0), "four half runs lost");
    }

    #[test]
    fn node_loss_reruns_lost_maps_on_survivors_and_doubles_dead_reducers() {
        // 4 nodes x 2 slots; 8 map tasks fill one wave, two per node.
        let mut cfg = ClusterConfig {
            nodes: 4,
            ..ClusterConfig::default()
        };
        let task_s = map_phase(&ctx(&cfg), &maps(8), 0, false)
            .unwrap()
            .metrics
            .map_time_s;
        let mut partial = 0;
        for seed in 0..16 {
            cfg.node_failures = Some(NodeFailureModel {
                probability: 0.5,
                seed,
            });
            let (job, maps) = (ctx(&cfg), maps(8));
            let Ok(mut account) = map_phase(&job, &maps, 0, false) else {
                continue; // every node died: covered below
            };
            let lost = account.metrics.nodes_lost;
            if lost == 0 {
                continue;
            }
            partial += 1;
            // 2·lost tasks re-run on the 2·(4 − lost) surviving slots.
            let waves = (2 * lost).div_ceil(2 * (4 - lost));
            assert_eq!(account.metrics.reexecuted_tasks, 2 * lost);
            assert!(close(account.metrics.wasted_s, 2.0 * lost as f64 * task_s));
            assert!(close(
                account.metrics.map_time_s,
                task_s * (1 + waves) as f64
            ));
            assert!(close(account.lost_map_frac, lost as f64 / 4.0));

            account
                .shuffle_phase(&job, &maps, &segments(&maps, 4), 4)
                .unwrap();
            let costs: Vec<ReduceTaskCost> = reduces(4, 20_000)
                .iter()
                .enumerate()
                .map(|(p, c)| account.reduce_task_cost(&job, p, c))
                .collect();
            let alive_s = costs[account.dead.iter().position(|&d| !d).unwrap()].time_s;
            for (cost, &dead) in costs.iter().zip(&account.dead) {
                let (runs, wasted_s) = if dead { (2.0, alive_s) } else { (1.0, 0.0) };
                assert!(close(cost.time_s, runs * alive_s));
                assert!(close(cost.wasted_s, wasted_s));
                assert_eq!(cost.reexecuted, usize::from(dead));
            }
        }
        assert!(partial > 0, "some seed must lose some but not all nodes");
    }

    #[test]
    fn losing_every_node_fails_the_attempt() {
        let cfg = ClusterConfig {
            node_failures: Some(NodeFailureModel {
                probability: 1.0,
                seed: 9,
            }),
            ..ClusterConfig::default()
        };
        let healthy = ClusterConfig::default();
        let map_s = map_phase(&ctx(&healthy), &maps(3), 0, false)
            .unwrap()
            .metrics
            .map_time_s;
        let f = map_phase(&ctx(&cfg), &maps(3), 0, false).err().unwrap();
        assert_eq!(
            f.error,
            MapRedError::ClusterLost {
                job: "j".into(),
                nodes: 2
            }
        );
        assert_eq!(f.wasted_s.to_bits(), map_s.to_bits());
    }

    #[test]
    fn compression_shrinks_shuffle_but_costs_cpu() {
        // Make network nearly free so compression cannot win (the paper's
        // isolated-cluster finding).
        let mut cfg = ClusterConfig {
            net_mbps: 1e6,
            size_multiplier: 1e5,
            ..ClusterConfig::default()
        };
        let plain = run(&cfg, 4, 2).unwrap().0;
        cfg.compression = Some(Compression::default());
        let compressed = run(&cfg, 4, 2).unwrap().0;
        assert!(compressed.shuffle_bytes < plain.shuffle_bytes);
        assert!(compressed.local_spill_bytes < plain.local_spill_bytes);
        assert!(
            compressed.total_s() > plain.total_s(),
            "compression CPU should dominate when network is free"
        );
    }

    #[test]
    fn blacklist_never_removes_the_last_node() {
        // Every segment stays corrupt past the retry cap, so every map task
        // re-executes and both nodes collect fetch failures.
        let mut cfg = ClusterConfig {
            corruption: Some(CorruptionModel {
                block_rate: 0.0,
                segment_rate: 0.5,
                record_rate: 0.0,
                seed: 1,
            }),
            ..ClusterConfig::default()
        };
        let settle = |cfg: &ClusterConfig| {
            let (job, maps) = (ctx(cfg), maps(4));
            let mut segs = segments(&maps, 4);
            for seg in &mut segs {
                seg.corrupt_fetches = MAX_FETCH_RETRIES + 1;
            }
            let mut account = map_phase(&job, &maps, 0, false).unwrap();
            account.shuffle_phase(&job, &maps, &segs, 4).unwrap();
            account.reduce_phase(&job, &reduces(4, 10_000)).unwrap().0
        };
        let open = settle(&cfg);
        cfg.blacklist = Some(BlacklistPolicy { max_failures: 1 });
        let listed = settle(&cfg);
        assert_eq!(open.blacklisted_nodes, 0);
        assert_eq!(listed.blacklisted_nodes, 1, "one of two nodes survives");
        assert_eq!(listed.reexecuted_tasks, 16, "every segment re-ran its map");
        assert_eq!(listed.refetched_segments, 16 * MAX_FETCH_RETRIES as u64);
        // 4 reduce tasks on the 2 slots left instead of 4.
        assert!(close(listed.reduce_time_s, 2.0 * open.reduce_time_s));
    }
}
