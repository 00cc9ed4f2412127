//! The data plane: the only code that touches rows, mappers, reducers, HDFS
//! bytes and checksums. It executes for real and reports *physical counts*,
//! never a duration; the only random streams drawn here are the
//! data-affecting ones (which bytes get flipped, which records get torn).
//! See the [module map](super).

use std::collections::BinaryHeap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_rel::codec::encode_line;
use ysmart_rel::colbatch::{frame_stats, FrameStats, DEFAULT_FRAME_ROWS};
use ysmart_rel::{ColumnBatch, Row, Value};

use super::{JobCtx, MapCounts, OutputCounts, ReduceCounts, SegmentCounts, MAX_FETCH_RETRIES};
use crate::config::{ClusterConfig, CorruptionModel, DataFormat};
use crate::error::MapRedError;
use crate::hash::{checksum_bytes, partition};
use crate::hdfs::{block_bytes, line_bytes, read_verified, DataFile, Hdfs};
use crate::job::{record_line, JobSpec, MapOutput, ReduceOutput, ReducerFactory};
use crate::norm::NormArena;

/// One map task's slice of its input file: contiguous text lines, or
/// contiguous encoded columnar frames (`base` is the index of the first
/// frame within the file, seeding per-frame replica corruption draws the
/// way the task index seeds per-block draws in text mode).
#[derive(Clone, Copy)]
enum TaskInput<'a> {
    Lines(&'a [String]),
    Frames { frames: &'a [Vec<u8>], base: usize },
}

impl TaskInput<'_> {
    /// Stored bytes of the slice.
    fn bytes(&self) -> u64 {
        match self {
            TaskInput::Lines(lines) => lines.iter().map(|l| line_bytes(l)).sum(),
            TaskInput::Frames { frames, .. } => frames.iter().map(|f| f.len() as u64).sum(),
        }
    }
}

/// One map task: which job input it reads, and its slice of that file.
pub(super) struct MapTask<'a> {
    input_idx: usize,
    input: TaskInput<'a>,
}

/// One partition's contiguous segment of one map task's sorted run —
/// parallel key/value columns, sorted by `(key, value)`. `norms` carries
/// each key's [`crate::norm`] encoding so the shuffle merge and reducer
/// grouping compare key bytes, touching value `Row`s only on key ties.
#[derive(Default)]
pub(super) struct PartitionRun {
    keys: Vec<Row>,
    values: Vec<Row>,
    norms: NormArena,
}

/// A map task's output: a *sorted run* already cut into per-partition
/// segments, in ascending partition order. Map-only tasks carry their whole
/// output as one pseudo-segment.
pub(super) type MapRuns = Vec<(u32, PartitionRun)>;

/// Indexed parallel map: `f(i, item)` for every item, results in item
/// order. Tasks are independent, so the real work runs on scoped OS
/// threads over contiguous chunks — serially below `min_parallel` items,
/// where spawning costs more than it buys. A panicking task (a user mapper
/// that panics despite the `record_fatal` channel) surfaces as a typed
/// `User` error on either path, however many tasks panic — never as a
/// panic of the whole chain. Threads: the [`ClusterConfig::exec_threads`]
/// override, or every available core.
fn par_map<T: Send, R: Send>(
    job: &JobCtx,
    phase: &str,
    min_parallel: usize,
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Result<Vec<R>, MapRedError> {
    // `available_parallelism` reads /sys on Linux — cache it, this runs
    // twice per job.
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cores =
        || *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    let wanted = job.cfg.exec_threads.unwrap_or_else(cores);
    let threads = wanted.clamp(1, items.len().max(1));
    let mut indexed = items.into_iter().enumerate();
    let panicked = || MapRedError::User(format!("{phase} task panicked in job {}", job.name));
    if threads <= 1 || indexed.len() < min_parallel {
        // Unwind-safe: on `Err` the job fails and nothing `f` touched is
        // looked at again.
        let serial = AssertUnwindSafe(|| indexed.map(|(i, t)| f(i, t)).collect());
        return catch_unwind(serial).map_err(|_| panicked());
    }
    let chunk = indexed.len().div_ceil(threads);
    let f = &f;
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        while indexed.len() > 0 {
            let slice: Vec<(usize, T)> = indexed.by_ref().take(chunk).collect();
            handles.push(
                scope.spawn(move |_| slice.into_iter().map(|(i, t)| f(i, t)).collect::<Vec<R>>()),
            );
        }
        // Join every handle before deciding: a panicked thread left to the
        // scope's implicit join re-raises its panic there.
        let mut out = Some(Vec::new());
        for h in handles {
            match (h.join(), &mut out) {
                (Ok(part), Some(out)) => out.extend(part),
                _ => out = None,
            }
        }
        out
    })
    .ok()
    .flatten()
    .ok_or_else(panicked)
}

/// Cuts items of the given sizes into contiguous ranges of at least `block`
/// bytes each (the last may be smaller). An empty file still gets one
/// (empty) range, so its task runs and the job's output path exists.
fn split_ranges(sizes: impl ExactSizeIterator<Item = f64>, block: f64) -> Vec<Range<usize>> {
    let len = sizes.len();
    let mut ranges = Vec::new();
    let mut start = 0;
    let mut chunk_bytes = 0.0;
    for (i, size) in sizes.enumerate() {
        chunk_bytes += size;
        if chunk_bytes >= block {
            ranges.push(start..i + 1);
            start = i + 1;
            chunk_bytes = 0.0;
        }
    }
    if start < len || ranges.is_empty() {
        ranges.push(start..len);
    }
    ranges
}

/// Splits each input file into map tasks sized by the HDFS block size (in
/// *simulated* bytes, so `size_multiplier` controls task counts the way
/// real data volume would), and totals the real bytes read. Columnar files
/// split on frame boundaries (a task reads whole frames), the way text
/// splits on line boundaries; the format is detected per file, so a
/// columnar-mode job reading a text fallback file still works.
pub(super) fn split<'a>(
    hdfs: &'a Hdfs,
    spec: &JobSpec,
    cfg: &ClusterConfig,
) -> Result<(Vec<MapTask<'a>>, u64), MapRedError> {
    let block = (cfg.hdfs_block_mb * 1e6 / cfg.size_multiplier).max(1.0);
    let mut tasks = Vec::new();
    let mut read_bytes = 0u64;
    for (input_idx, input) in spec.inputs.iter().enumerate() {
        let file = hdfs.get(&input.path)?;
        read_bytes += file.bytes();
        let task = |input| MapTask { input_idx, input };
        if file.is_columnar() {
            let frames = &file.frames;
            let sizes = frames.iter().map(|f| f.len() as f64);
            tasks.extend(split_ranges(sizes, block).into_iter().map(|r| {
                let (base, frames) = (r.start, &frames[r]);
                task(TaskInput::Frames { frames, base })
            }));
        } else {
            let lines = &file.lines;
            let sizes = lines.iter().map(|l| line_bytes(l) as f64);
            let ranges = split_ranges(sizes, block).into_iter();
            tasks.extend(ranges.map(|r| task(TaskInput::Lines(&lines[r]))));
        }
    }
    Ok((tasks, read_bytes))
}

/// Runs every map task. `shuffle_to` is the reducer count, or `None` for a
/// map-only job (no partitioning, sort or combiner).
pub(super) fn execute_maps(
    job: &JobCtx,
    spec: &JobSpec,
    tasks: &[MapTask],
    shuffle_to: Option<usize>,
) -> Result<Vec<(MapCounts, MapRuns)>, MapRedError> {
    par_map(job, "map", 4, tasks.iter().collect(), |idx, task| {
        run_map_task(job, spec, idx, task, shuffle_to)
    })
}

/// Reads a task's input through its checksums — one whole-block XXH64 for
/// text, per-column-chunk XXH64s per frame for columnar — tallying the
/// corrupt replicas failed over and the undetected flips into `counts`.
fn verify_input(
    job: &JobCtx,
    model: &CorruptionModel,
    path: &str,
    task_idx: usize,
    input: TaskInput,
    counts: &mut MapCounts,
) -> Result<(), MapRedError> {
    let (replication, attempt) = (job.cfg.replication, job.attempt);
    let mut read = |bytes: &[u8], block, detects: &dyn Fn(&[u8]) -> bool| {
        let read = read_verified(bytes, detects, path, block, replication, model, attempt)?;
        counts.corrupt_replicas += u64::from(read.corrupt_replicas);
        counts.collisions += u64::from(read.collisions);
        Ok(())
    };
    match input {
        TaskInput::Lines(lines) => {
            let bytes = block_bytes(lines);
            let stored = checksum_bytes(&bytes);
            read(&bytes, task_idx, &|garbled| {
                checksum_bytes(garbled) != stored
            })
        }
        TaskInput::Frames { frames, base } => {
            let detects = |garbled: &[u8]| ColumnBatch::decode_frame(garbled).is_err();
            let mut blocks = frames.iter().enumerate();
            blocks.try_for_each(|(i, frame)| read(frame, base + i, &detects))
        }
    }
}

/// Feeds a task's records to a fresh mapper, returning the output buffer
/// and the number of records read.
///
/// Torn-record injection: with `record_rate`, a garbled extra line — the
/// real line plus one bogus field holding a control byte — follows a real
/// one, like a partially-written append. The extra field makes it
/// undecodable under *any* schema (field count always off by one), so a
/// robust mapper skips it via `record_bad` and real records are untouched:
/// results stay oracle-identical while skips are counted. Columnar frames
/// are binary (a torn append is caught by the frame checksums before any
/// row decodes), so the same per-row draws count the detected-and-skipped
/// record directly.
fn apply_mapper(job: &JobCtx, spec: &JobSpec, task_idx: usize, task: &MapTask) -> (MapOutput, u64) {
    let input = &spec.inputs[task.input_idx];
    let mut mapper = (input.mapper)();
    let mut out = MapOutput::default();
    let record_rate = job.cfg.corruption.map_or(0.0, |m| m.record_rate);
    let mut record_rng = (record_rate > 0.0).then(|| {
        let seed = job.cfg.corruption.map_or(0, |m| m.seed);
        StdRng::seed_from_u64(job.task_seed(seed ^ 0x0BAD_5EED, task_idx))
    });
    let mut torn = || {
        record_rng
            .as_mut()
            .is_some_and(|rng| rng.gen::<f64>() < record_rate)
    };
    match task.input {
        TaskInput::Lines(lines) => {
            // One pair per line at most — reserve once, never regrow
            // mid-task.
            out.reserve(lines.len());
            for line in lines {
                mapper.map(line, &mut out);
                if torn() {
                    mapper.map(&format!("{line}|\u{1}"), &mut out);
                }
            }
            (out, lines.len() as u64)
        }
        TaskInput::Frames { frames, .. } => {
            let mut in_records = 0u64;
            for frame in frames {
                match ColumnBatch::decode_frame(frame) {
                    Ok(batch) => {
                        out.reserve(batch.num_rows());
                        in_records += batch.num_rows() as u64;
                        mapper.map_batch(&batch, &mut out);
                        for _ in 0..batch.num_rows() {
                            if torn() {
                                out.record_bad();
                            }
                        }
                    }
                    // A stored frame that fails decoding outside the
                    // injected-corruption path is a real integrity
                    // violation — surface it as a typed job failure.
                    Err(e) => out
                        .record_fatal(format!("undecodable columnar frame in {}: {e}", input.path)),
                }
            }
            (out, in_records)
        }
    }
}

/// Sorts a map task's pairs by `(partition, key, value)` — Hadoop's
/// sort-based shuffle — and cuts the run into per-partition segments
/// straight off the sorted permutation. Each key is hashed to its partition
/// once (not once per comparison) and each pair is moved exactly once; the
/// shuffle later hands whole segments to reduce tasks without re-splitting
/// anything.
fn sort_into_runs(mut keys: Vec<Row>, mut values: Vec<Row>, num_reducers: usize) -> MapRuns {
    // Encode each normalized key once into one flat arena; the sort (and
    // every later merge/group comparison) then compares key bytes, falling
    // back to value `Row`s only on key ties.
    let arena = NormArena::from_keys(&keys);
    // Sort packed `(partition, key prefix, index)` entries: the two
    // integers resolve almost every comparison from a flat array — equal
    // prefixes fall back to the arena slices, and full key ties to the
    // value rows. Unstable is safe: residual ties are fully equal
    // (partition, key, value) triples, so any ordering of them yields the
    // same run.
    let mut entries: Vec<(u32, u64, u32)> = (0..keys.len())
        .map(|i| {
            (
                partition(&keys[i], num_reducers) as u32,
                arena.prefix8(i),
                i as u32,
            )
        })
        .collect();
    entries.sort_unstable_by(|a, b| {
        (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| {
            let (i, j) = (a.2 as usize, b.2 as usize);
            arena
                .key(i)
                .cmp(arena.key(j))
                .then_with(|| values[i].cmp(&values[j]))
        })
    });
    let mut runs = MapRuns::new();
    for segment in entries.chunk_by(|a, b| a.0 == b.0) {
        let mut seg = PartitionRun {
            keys: Vec::with_capacity(segment.len()),
            values: Vec::with_capacity(segment.len()),
            norms: NormArena::with_capacity(segment.len()),
        };
        for &(_, _, i) in segment {
            let i = i as usize;
            seg.keys.push(std::mem::take(&mut keys[i]));
            seg.values.push(std::mem::take(&mut values[i]));
            seg.norms.push_encoded(arena.key(i));
        }
        runs.push((segment[0].0, seg));
    }
    runs
}

/// Bytes of a segment's pairs in the text framing (key, tab, value,
/// newline).
fn seg_bytes(seg: &PartitionRun) -> u64 {
    seg.keys
        .iter()
        .zip(&seg.values)
        .map(|(k, v)| (k.size_bytes() + v.size_bytes() + 2) as u64)
        .sum()
}

/// Runs the combiner over every key group of one segment. Groups are
/// contiguous borrowed slices of the sorted value column; only the
/// combiner's (usually single) output rows are materialised, and the group
/// key is moved, not cloned, into the last of them.
fn combine_segment(combiner: &mut dyn crate::job::Combiner, seg: &mut PartitionRun) {
    let mut combined = PartitionRun::default();
    for group in seg.norms.groups() {
        let i = group.start;
        let mut outputs = combiner.combine(&seg.keys[i], &seg.values[group]);
        // Keep the run sorted within the key group, as the shuffle merge
        // requires of its inputs: the group's outputs share one key, so
        // ordering by value orders the (key, value) pairs.
        outputs.sort_unstable();
        let n = outputs.len();
        for (m, v) in outputs.into_iter().enumerate() {
            combined.norms.push_encoded(seg.norms.key(i));
            combined.keys.push(if m + 1 == n {
                std::mem::take(&mut seg.keys[i])
            } else {
                seg.keys[i].clone()
            });
            combined.values.push(v);
        }
    }
    *seg = combined;
}

/// Runs one map task for real: verified read, mapper, sort into
/// per-partition segments, combiner.
fn run_map_task(
    job: &JobCtx,
    spec: &JobSpec,
    task_idx: usize,
    task: &MapTask,
    shuffle_to: Option<usize>,
) -> (MapCounts, MapRuns) {
    let mut counts = MapCounts {
        in_bytes: task.input.bytes(),
        ..MapCounts::default()
    };
    if let Some(model) = job.cfg.corruption {
        let path = &spec.inputs[task.input_idx].path;
        // A block (or frame) with no clean replica left: nothing is mapped.
        if let Err(error) = verify_input(job, &model, path, task_idx, task.input, &mut counts) {
            counts.fatal = Some(error);
            return (counts, MapRuns::new());
        }
    }

    let (mut out, in_records) = apply_mapper(job, spec, task_idx, task);
    counts.in_records = in_records;
    counts.skipped_records = out.bad_records();
    counts.work = out.work();
    let mut user_fatal = out.take_fatal();
    counts.dispatches = out.take_dispatches();
    let (keys, values) = out.into_columns();
    counts.out_records = keys.len() as u64;

    let mut runs = match shuffle_to {
        Some(num_reducers) => sort_into_runs(keys, values, num_reducers),
        // Map-only output is written as-is; keep it as one pseudo-segment
        // (no shuffle, so no normalized keys needed).
        None => vec![(
            0,
            PartitionRun {
                keys,
                values,
                norms: NormArena::default(),
            },
        )],
    };
    if let (Some(factory), Some(_)) = (&spec.combiner, shuffle_to) {
        let mut combiner = factory();
        for (_, seg) in &mut runs {
            combine_segment(combiner.as_mut(), seg);
        }
        if user_fatal.is_none() {
            user_fatal = combiner.take_error();
        }
    }
    counts.combined_bytes = runs.iter().map(|(_, seg)| seg_bytes(seg)).sum();
    let total_pairs: usize = runs.iter().map(|(_, seg)| seg.keys.len()).sum();
    counts.bounded = spec.combiner.is_some() && total_pairs <= 4;
    counts.fatal = user_fatal.map(MapRedError::User);
    (counts, runs)
}

/// The uniform width of a segment's `key ⧺ value` pairs. `None` for empty
/// segments or when pair widths differ across the segment (the mixed-width
/// values of some merged mappers) — no frame; the caller falls back to the
/// text framing of [`segment_canon_bytes`].
fn segment_width(seg: &PartitionRun) -> Option<usize> {
    let width = seg.keys.first()?.len() + seg.values[0].len();
    let mut pairs = seg.keys.iter().zip(&seg.values);
    pairs
        .all(|(k, v)| k.len() + v.len() == width)
        .then_some(width)
}

/// Cell `c` of pair `r` read as one `key ⧺ value` row, in place.
fn pair_cell(seg: &PartitionRun, r: usize, c: usize) -> &Value {
    let key = seg.keys[r].values();
    key.get(c)
        .unwrap_or_else(|| &seg.values[r].values()[c - key.len()])
}

/// Columnar wire form of one shuffle segment: a single encoded frame of
/// `key ⧺ value` rows, with its stats. `None` when [`segment_width`] is, or
/// on a non-finite float.
fn segment_frame(seg: &PartitionRun) -> Option<(Vec<u8>, FrameStats)> {
    let cell = |r, c| pair_cell(seg, r, c);
    let batch = ColumnBatch::from_cells(seg.keys.len(), segment_width(seg)?, cell).ok()?;
    let frame = batch.encode_frame();
    let stats = FrameStats {
        bytes: frame.len() as u64,
        dict_entries: batch.dict_entries(),
    };
    Some((frame, stats))
}

/// Exact size and dictionary-entry count of [`segment_frame`]'s frame
/// without building it — the shuffle's byte accounting needs only the
/// numbers unless a corruption model wants real wire bytes to flip. `None`
/// exactly when `segment_frame` is.
fn segment_frame_stats(seg: &PartitionRun) -> Option<FrameStats> {
    let cell = |r, c| pair_cell(seg, r, c);
    frame_stats(seg.keys.len(), segment_width(seg)?, cell)
}

/// Canonical wire encoding of a shuffle segment — the byte stream its
/// checksum covers. Key and value share a line, tab-separated, matching how
/// Hadoop's IFile frames a pair per record.
fn segment_canon_bytes(seg: &PartitionRun) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in seg.keys.iter().zip(&seg.values) {
        out.extend_from_slice(encode_line(k).as_bytes());
        out.push(b'\t');
        out.extend_from_slice(encode_line(v).as_bytes());
        out.push(b'\n');
    }
    out
}

/// Fetches one non-empty segment under in-flight corruption, returning
/// `(corrupt fetches, undetected flips)`. Each corrupt fetch flips a seeded
/// bit in the fetched copy of the segment's canonical bytes and runs the
/// real detection path; the garbled copy is discarded — `seg`'s rows are
/// the mapper's stored (canonical) output. In columnar mode the frame's
/// per-column-chunk checksums do the detecting (the flip localises to one
/// column's chunk); in text mode it is the whole-segment XXH64.
fn fetch_corrupted(
    model: &CorruptionModel,
    seed: u64,
    seg: &PartitionRun,
    frame: Option<Vec<u8>>,
) -> (usize, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.gen::<f64>() >= model.segment_rate {
        return (0, 0);
    }
    let is_frame = frame.is_some();
    let canon = frame.unwrap_or_else(|| segment_canon_bytes(seg));
    let stored = checksum_bytes(&canon);
    let mut corrupt_fetches = 0usize;
    loop {
        let bit = rng.gen::<u64>() as usize % (canon.len() * 8);
        let mut garbled = canon.clone();
        garbled[bit / 8] ^= 1 << (bit % 8);
        let undetected = if is_frame {
            ColumnBatch::decode_frame(&garbled).is_ok()
        } else {
            checksum_bytes(&garbled) == stored
        };
        if undetected {
            // A checksum collision lets the flip through undetected —
            // excluded for single-bit flips by the avalanche test in `hash`
            // (and the exhaustive flip test in `rel::colbatch`), but when
            // it happens it is *counted* in every build profile
            // (JobMetrics::checksum_collisions), not debug-asserted away.
            return (corrupt_fetches, 1);
        }
        corrupt_fetches += 1;
        if corrupt_fetches > MAX_FETCH_RETRIES || rng.gen::<f64>() >= model.segment_rate {
            return (corrupt_fetches, 0);
        }
    }
}

/// The shuffle. Map tasks emitted per-partition sorted segments, so it is
/// pure *distribution*: whole segments move (Vec pointer copies, no
/// per-pair work) to the reduce tasks that k-way merge them, in task order,
/// preserving the merge tie-break order. Each segment is sized in its wire
/// form — columnar mode encodes one frame of `key ⧺ value` rows, falling
/// back to the text framing when widths are non-uniform across the segment
/// — and, under a corruption model, fetched through its checksum. Only the
/// canonical segment rows ever reach a reducer.
pub(super) fn shuffle(
    job: &JobCtx,
    map_runs: Vec<MapRuns>,
    num_reducers: usize,
) -> (Vec<Vec<PartitionRun>>, Vec<SegmentCounts>) {
    const PARTMIX: u64 = 0xA076_1D64_78BD_642F;
    let columnar = job.cfg.data_format == DataFormat::Columnar;
    let flips = job.cfg.corruption.filter(|m| m.segment_rate > 0.0);
    let mut part_runs: Vec<Vec<PartitionRun>> = (0..num_reducers).map(|_| Vec::new()).collect();
    let mut segments = Vec::new();
    for (task, runs) in map_runs.into_iter().enumerate() {
        for (p, seg) in runs {
            let partition = p as usize;
            // Real wire bytes are built only when the corruption model will
            // actually flip bits in them; otherwise the exact frame size
            // comes from `segment_frame_stats` with no encoding pass.
            let frame = match flips {
                Some(_) if columnar => segment_frame(&seg),
                _ => None,
            };
            let stats = match &frame {
                Some((_, stats)) => Some(*stats),
                None if columnar && flips.is_none() => segment_frame_stats(&seg),
                None => None,
            };
            let (corrupt_fetches, collisions) = match flips {
                Some(model) if !seg.keys.is_empty() => fetch_corrupted(
                    &model,
                    job.task_seed(model.seed, task) ^ (p as u64 + 1).wrapping_mul(PARTMIX),
                    &seg,
                    frame.map(|(bytes, _)| bytes),
                ),
                _ => (0, 0),
            };
            segments.push(SegmentCounts {
                task,
                partition,
                records: seg.keys.len() as u64,
                bytes: stats.map_or_else(|| seg_bytes(&seg), |stats| stats.bytes),
                frame_dicts: stats.map(|stats| stats.dict_entries),
                corrupt_fetches,
                collisions,
            });
            part_runs[partition].push(seg);
        }
    }
    (part_runs, segments)
}

/// The merged, fully sorted pair columns of one reduce task. Key groups
/// are pre-delimited: group `g` spans
/// `group_starts[g]..group_starts[g + 1]` (the last runs to the end).
#[derive(Default)]
struct MergedRun {
    keys: Vec<Row>,
    values: Vec<Row>,
    group_starts: Vec<u32>,
}

/// K-way merge of per-task sorted runs into one sorted pair of key/value
/// columns. Equal `(key, value)` pairs are taken from the lowest run (task)
/// index first — exactly the order the previous global stable sort
/// produced — so key groups reach the reducer in an order independent of
/// how the merge is scheduled.
fn merge_runs(runs: Vec<PartitionRun>) -> MergedRun {
    let mut runs: Vec<PartitionRun> = runs.into_iter().filter(|r| !r.keys.is_empty()).collect();
    let total: usize = runs.iter().map(|r| r.keys.len()).sum();
    let mut out = MergedRun {
        keys: Vec::with_capacity(total),
        values: Vec::with_capacity(total),
        group_starts: Vec::new(),
    };
    if runs.len() == 1 {
        let r = runs.pop().expect("one run");
        out.group_starts = r.norms.groups().map(|g| g.start as u32).collect();
        out.keys = r.keys;
        out.values = r.values;
        return out;
    }
    if runs.is_empty() {
        return out;
    }
    // Tournament merge over a min-heap of run heads: O(log k) comparisons
    // per pop, each a key *byte* compare falling back to the value `Row`
    // only on key ties — the run index breaks full ties toward the
    // earliest task. Heads borrow key encodings from the runs' arenas and
    // value rows from the runs themselves, so the merge first computes the
    // order (and the group boundaries), then moves every pair exactly once.
    struct Head<'a> {
        /// First eight key bytes as an integer — resolves most
        /// comparisons without touching the slices.
        prefix: u64,
        key: &'a [u8],
        value: &'a Row,
        run: u32,
    }
    impl PartialEq for Head<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Head<'_> {}
    impl PartialOrd for Head<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head<'_> {
        // Reversed: `BinaryHeap` is a max-heap, the smallest head must
        // pop first.
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .prefix
                .cmp(&self.prefix)
                .then_with(|| other.key.cmp(self.key))
                .then_with(|| other.value.cmp(self.value))
                .then_with(|| other.run.cmp(&self.run))
        }
    }
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(total);
    {
        let mut pos = vec![0usize; runs.len()];
        let mut heap = BinaryHeap::with_capacity(runs.len());
        for (i, r) in runs.iter().enumerate() {
            heap.push(Head {
                prefix: r.norms.prefix8(0),
                key: r.norms.key(0),
                value: &r.values[0],
                run: i as u32,
            });
            pos[i] = 1;
        }
        let mut prev_key: Option<&[u8]> = None;
        while let Some(Head { key, run, .. }) = heap.pop() {
            let r = run as usize;
            if prev_key != Some(key) {
                out.group_starts.push(order.len() as u32);
                prev_key = Some(key);
            }
            order.push((run, (pos[r] - 1) as u32));
            let p = pos[r];
            if p < runs[r].keys.len() {
                pos[r] = p + 1;
                heap.push(Head {
                    prefix: runs[r].norms.prefix8(p),
                    key: runs[r].norms.key(p),
                    value: &runs[r].values[p],
                    run,
                });
            }
        }
    }
    for (run, i) in order {
        let (run, i) = (run as usize, i as usize);
        out.keys.push(std::mem::take(&mut runs[run].keys[i]));
        out.values.push(std::mem::take(&mut runs[run].values[i]));
    }
    out
}

/// Packs one task's `n` output records — `record(i)` is its `(stream tag,
/// row)` — and is the one place their stored format is decided. Columnar
/// mode writes frames of [`DEFAULT_FRAME_ROWS`] records; text mode, or any
/// record the frame codec cannot take, writes every record as its text
/// line — byte-identical to a self-formatting task.
fn pack_output<'a>(
    columnar: bool,
    n: usize,
    record: impl Fn(usize) -> (Option<i64>, &'a Row),
) -> (OutputCounts, DataFile) {
    let mut counts = OutputCounts {
        records: n as u64,
        ..OutputCounts::default()
    };
    let mut output = DataFile::default();
    match columnar.then(|| frame_records(n, &record)).flatten() {
        Some((frames, dicts)) => {
            counts.dict_entries = dicts;
            output.frames = frames;
        }
        None => {
            let line = |i| {
                let (tag, row) = record(i);
                record_line(tag, row)
            };
            output.lines = (0..n).map(line).collect();
        }
    }
    counts.bytes = output.bytes();
    if output.is_columnar() {
        counts.encoded_bytes = counts.bytes;
    }
    (counts, output)
}

/// [`pack_output`]'s frames and their dictionary-entry count, each record
/// encoded in place with its stream tag folded in as a leading `Int` column
/// (the text rendering's `tag|` prefix, typed). `None` when a frame's
/// records differ in width or hold a non-finite float.
fn frame_records<'a>(
    n: usize,
    record: &impl Fn(usize) -> (Option<i64>, &'a Row),
) -> Option<(Vec<Vec<u8>>, u64)> {
    let mut frames = Vec::with_capacity(n.div_ceil(DEFAULT_FRAME_ROWS));
    let mut dicts = 0u64;
    for start in (0..n).step_by(DEFAULT_FRAME_ROWS) {
        let len = DEFAULT_FRAME_ROWS.min(n - start);
        let row = |r: usize| record(start + r).1;
        let tags: Vec<Option<Value>> = (0..len)
            .map(|r| record(start + r).0.map(Value::Int))
            .collect();
        let width = |r: usize| usize::from(tags[r].is_some()) + row(r).len();
        if (1..len).any(|r| width(r) != width(0)) {
            return None;
        }
        let cell = |r: usize, c: usize| match &tags[r] {
            Some(tag) if c == 0 => tag,
            Some(_) => &row(r).values()[c - 1],
            None => &row(r).values()[c],
        };
        let batch = ColumnBatch::from_cells(len, width(0), cell).ok()?;
        dicts += batch.dict_entries();
        frames.push(batch.encode_frame());
    }
    Some((frames, dicts))
}

/// Collects a map-only job's output: the map tasks' values, in task order.
pub(super) fn map_only_output(
    cfg: &ClusterConfig,
    map_runs: Vec<MapRuns>,
) -> (OutputCounts, DataFile) {
    let rows: Vec<Row> = map_runs
        .into_iter()
        .flatten()
        .flat_map(|(_, seg)| seg.values)
        .collect();
    let columnar = cfg.data_format == DataFormat::Columnar;
    pack_output(columnar, rows.len(), |i| (None, &rows[i]))
}

/// Runs every reduce task on its partition's segments.
pub(super) fn execute_reduces(
    job: &JobCtx,
    reducer: &ReducerFactory,
    part_runs: Vec<Vec<PartitionRun>>,
) -> Result<Vec<(ReduceCounts, DataFile)>, MapRedError> {
    let columnar = job.cfg.data_format == DataFormat::Columnar;
    par_map(job, "reduce", 2, part_runs, |_, runs| {
        run_reduce_task(columnar, reducer, runs)
    })
}

/// Runs one reduce task for real: merges its shuffle segments (Hadoop's
/// merge-based shuffle — no global re-sort) and streams each key group
/// through a fresh reducer as a borrowed slice of the merged value column.
fn run_reduce_task(
    columnar: bool,
    reducer: &ReducerFactory,
    runs: Vec<PartitionRun>,
) -> (ReduceCounts, DataFile) {
    let MergedRun {
        keys,
        values,
        group_starts,
    } = merge_runs(runs);
    let mut reducer = reducer();
    let mut out = ReduceOutput::default();
    for (g, &start) in group_starts.iter().enumerate() {
        let i = start as usize;
        let j = group_starts
            .get(g + 1)
            .map_or(keys.len(), |&next| next as usize);
        reducer.reduce(&keys[i], &values[i..j], &mut out);
    }
    let work = out.work();
    let fatal = out.take_fatal().map(MapRedError::User);
    let dispatches = out.take_dispatches();
    let emits = out.into_emits();
    let (written, output) = pack_output(columnar, emits.len(), |i| (emits[i].tag, &emits[i].row));
    let counts = ReduceCounts {
        in_records: keys.len() as u64,
        work,
        out: written,
        dispatches,
        fatal,
    };
    (counts, output)
}

/// Writes the job's output file from its tasks' outputs, in task order.
pub(super) fn write_output(hdfs: &mut Hdfs, path: &str, outputs: Vec<DataFile>) {
    let any_lines = outputs.iter().any(|o| !o.lines.is_empty());
    let any_frames = outputs.iter().any(|o| !o.frames.is_empty());
    if any_frames && !any_lines {
        let frames = outputs.into_iter().flat_map(|o| o.frames).collect();
        hdfs.put_frames(path, frames);
        return;
    }
    // Text output — or the pathological mixed case where only some tasks'
    // rows were frame-packable: render frames back to their
    // (byte-identical) text lines so the file stays one format.
    let mut lines: Vec<String> = Vec::new();
    for output in outputs {
        for frame in output.frames {
            if let Ok(batch) = ColumnBatch::decode_frame(&frame) {
                lines.extend((0..batch.num_rows()).map(|i| encode_line(&batch.row(i))));
            }
        }
        lines.extend(output.lines);
    }
    hdfs.put(path, lines);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::row;

    /// The segment-level half of the sizing contract (the per-cell half is
    /// `rel`'s `frame_stats_match_real_encoding` property): a segment is
    /// read as `key ⧺ value` rows wherever each pair splits, the sizer
    /// agrees with the real frame, and empty or width-mixed segments have
    /// neither.
    #[test]
    fn segment_frame_stats_match_real_encoding() {
        let seg = |pairs: Vec<(Row, Row)>| {
            let (keys, values): (Vec<Row>, Vec<Row>) = pairs.into_iter().unzip();
            let norms = NormArena::from_keys(&keys);
            PartitionRun {
                keys,
                values,
                norms,
            }
        };
        let cases = [
            seg(vec![
                (row![1i64, "k"], row![1.5f64, true, "apple"]),
                (row![2i64, "k"], row![2.5f64, false, "apple"]),
            ]),
            // Uniform total width with shifted key/value split.
            seg(vec![
                (row![1i64], row!["a", 2i64]),
                (row![2i64, "b"], row![3i64]),
            ]),
        ];
        for (i, seg) in cases.iter().enumerate() {
            let (frame, stats) = segment_frame(seg).expect("uniform width");
            assert_eq!(segment_frame_stats(seg), Some(stats), "case {i}");
            let pairs = seg.keys.iter().zip(&seg.values);
            let joined: Vec<Row> = pairs
                .map(|(k, v)| Row::new([k.values(), v.values()].concat()))
                .collect();
            let framed = ColumnBatch::decode_frame(&frame).unwrap().to_rows();
            assert_eq!(framed, joined, "case {i}: key ⧺ value");
        }
        let empty = seg(vec![]);
        assert!(segment_frame(&empty).is_none() && segment_frame_stats(&empty).is_none());
        let mixed = seg(vec![
            (row![1i64], row![2i64]),
            (row![1i64], row![2i64, 3i64]),
        ]);
        assert!(segment_frame(&mixed).is_none() && segment_frame_stats(&mixed).is_none());
    }
}
