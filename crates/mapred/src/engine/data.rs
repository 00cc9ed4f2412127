//! The data plane: the only code that touches rows, mappers, reducers, HDFS
//! bytes and checksums. It executes for real and reports *physical counts*,
//! never a duration; the only random streams drawn here are the
//! data-affecting ones (which bytes get flipped, which records get torn).
//! See the [module map](super).
//!
//! Between map and reduce no pair is ever moved. A map task's output is one
//! arena per reduce partition (`job::Pairs`: typed columns, one per cell
//! position of the pairs, filled by the mapper at emit); the task sorts
//! *indices* into each arena and sizes the segment while it is
//! cache-resident; the shuffle hands whole segments over; a reduce task
//! merges them into `(run, pair)` positions and shows its reducer all its
//! key groups at once, as [`KeyGroups`] over those positions, whose value
//! columns the reducer gathers typed; and only after its output is packed
//! does it free its segments, arena by arena.
//!
//! A task's output stays typed columns until it is framed: the reducer's
//! records (`job::Records`, an arena of the same kind) and a map-only job's
//! arenas alike go through one packer, which cuts frames straight from
//! their columns ([`ColumnBatch::gather`], canonical per frame) or renders
//! each text line from the typed cells.

use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_rel::codec::{encode_cell_refs_into, SEPARATOR};
use ysmart_rel::colbatch::{CellRef, Column, FrameStats, DEFAULT_FRAME_ROWS};
use ysmart_rel::ColumnBatch;

use super::{JobCtx, MapCounts, OutputCounts, ReduceCounts, SegmentCounts, MAX_FETCH_RETRIES};
use crate::config::{ClusterConfig, CorruptionModel, DataFormat};
use crate::error::MapRedError;
use crate::hash::checksum_bytes;
use crate::hdfs::{block_bytes, line_bytes, read_verified, DataFile, Hdfs};
use crate::job::{
    Combined, Combiner, JobSpec, KeyGroups, MapOutput, Pairs, ReduceOutput, ReducerFactory,
};
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

/// One map task's pairs for one reduce partition — a shuffle segment. The
/// pairs stay where the mapper wrote them (`pairs`, emit order); `order` is
/// the permutation that reads them stably sorted by key, and `norms`
/// carries each key's [`crate::norm`] encoding (indexed like `pairs`) so the
/// sort, the shuffle merge and key grouping compare key bytes alone; no
/// value is ever compared. A map-only task's pseudo-segment
/// has neither: it is written out in emit order. The arena adds up its
/// bytes in the text framing (key, tab, value, newline) as its pairs are
/// written; in columnar mode the map task also records its size as one
/// `frame` (`None` when there is none — see `Pairs::frame_stats`), read off
/// the arena's typed columns while it is still cache-resident.
#[derive(Default)]
pub(super) struct PartitionRun {
    pairs: Pairs,
    norms: NormArena,
    order: Vec<u32>,
    frame: Option<FrameStats>,
}

impl PartitionRun {
    /// The key groups of the sorted run: each maximal range of `order`
    /// whose pairs share a key, in order.
    fn groups(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let key = |at: usize| self.norms.key(self.order[at] as usize);
        let mut next = 0;
        std::iter::from_fn(move || {
            let start = next;
            let first = (start < self.order.len()).then(|| key(start))?;
            next += 1;
            while next < self.order.len() && key(next) == first {
                next += 1;
            }
            Some(start..next)
        })
    }
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

/// Feeds a task's records to a fresh mapper writing into a buffer of
/// `partitions` reduce partitions, returning the buffer and the number of
/// records read.
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
fn apply_mapper(
    job: &JobCtx,
    spec: &JobSpec,
    task_idx: usize,
    task: &MapTask,
    partitions: usize,
) -> (MapOutput, u64) {
    let input = &spec.inputs[task.input_idx];
    let mut mapper = (input.mapper)();
    let mut out = MapOutput::partitioned(partitions);
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
            // Each torn copy is mapped right after its real line.
            let torn: Vec<Option<String>> = lines
                .iter()
                .map(|line| torn().then(|| format!("{line}|\u{1}")))
                .collect();
            let fed: Vec<&str> = lines
                .iter()
                .zip(&torn)
                .flat_map(|(line, copy)| std::iter::once(line.as_str()).chain(copy.as_deref()))
                .collect();
            mapper.map_lines(&fed, &mut out);
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

/// Sorts one partition's pairs by key, stably — Hadoop's sort-based
/// shuffle, which orders map output by key alone: a key's pairs keep the
/// order the mapper emitted them in. The mapper already routed every pair
/// to its partition, so this permutes *indices* of one arena: no pair
/// moves, and the shuffle later hands the whole segment to its reduce task.
fn sort_run(pairs: Pairs) -> PartitionRun {
    // Encode each normalized key once into one flat arena; the sort (and
    // every later merge/group comparison) then compares key bytes.
    let norms = pairs.norm_keys();
    // Sort packed `(key prefix, index)` entries as plain integers: equal
    // prefixes come out in emit order, which is the stable order wherever
    // their keys are equal too. Only a stretch of equal prefixes whose keys
    // differ is sorted again, by `(key bytes, index)`.
    let mut entries: Vec<(u64, u32)> = (0..pairs.len())
        .map(|i| (norms.prefix8(i), i as u32))
        .collect();
    entries.sort_unstable();
    let key = |e: &(u64, u32)| norms.key(e.1 as usize);
    for stretch in entries.chunk_by_mut(|a, b| a.0 == b.0) {
        if stretch.iter().any(|e| key(e) != key(&stretch[0])) {
            stretch.sort_unstable_by(|a, b| key(a).cmp(key(b)).then(a.1.cmp(&b.1)));
        }
    }
    PartitionRun {
        order: entries.into_iter().map(|(_, i)| i).collect(),
        pairs,
        norms,
        ..PartitionRun::default()
    }
}

/// Runs the combiner once over every key group of one segment, each read
/// in place through [`KeyGroups`]; the combiner's typed partial values
/// replace the segment in a fresh arena, in the order the combiner wrote
/// them, each group's key columns gathered from the segment's by position.
fn combine_segment(combiner: &mut dyn Combiner, seg: &mut PartitionRun) {
    let starts: Vec<u32> = seg.groups().map(|group| group.start as u32).collect();
    let Combined {
        values,
        starts: ends,
    } = combiner.combine_run(KeyGroups::run(&seg.pairs, &seg.order, &starts));
    let n = values.pairs().len();
    let mut keys = Vec::with_capacity(n);
    let mut norms = NormArena::default();
    for (g, &start) in starts.iter().enumerate() {
        let first = seg.order[start as usize] as usize;
        let end = ends.get(g + 1).map_or(n, |&end| end as usize);
        (keys.len()..end).for_each(|_| norms.push_encoded(seg.norms.key(first)));
        keys.resize(end, first);
    }
    let pairs = Pairs::combined(&seg.pairs, &keys, &values);
    *seg = PartitionRun {
        order: (0..pairs.len() as u32).collect(),
        pairs,
        norms,
        frame: None,
    };
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

    let (mut out, in_records) = apply_mapper(job, spec, task_idx, task, shuffle_to.unwrap_or(1));
    counts.in_records = in_records;
    counts.skipped_records = out.bad_records();
    counts.work = out.work();
    let mut user_fatal = out.take_fatal();
    counts.dispatches = out.take_dispatches();
    counts.out_records = out.len() as u64;

    let parts = out.into_parts().into_iter().zip(0u32..);
    let mut runs: MapRuns = match shuffle_to {
        // One sorted segment per partition the task emitted anything to.
        Some(_) => parts
            .filter(|(pairs, _)| !pairs.is_empty())
            .map(|(pairs, p)| (p, sort_run(pairs)))
            .collect(),
        // Map-only output is written as-is; keep it as one pseudo-segment
        // (no shuffle, so no order and no normalized keys needed).
        None => parts
            .map(|(pairs, p)| {
                let unsorted = PartitionRun {
                    pairs,
                    ..PartitionRun::default()
                };
                (p, unsorted)
            })
            .collect(),
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
    // Every arena's frame is read off its typed columns once, here, still
    // in cache — whichever writer filled it.
    if shuffle_to.is_some() && job.cfg.data_format == DataFormat::Columnar {
        for (_, seg) in &mut runs {
            seg.frame = seg.pairs.frame_stats();
        }
    }
    counts.combined_bytes = runs.iter().map(|(_, seg)| seg.pairs.text_bytes()).sum();
    let total_pairs: usize = runs.iter().map(|(_, seg)| seg.pairs.len()).sum();
    counts.bounded = spec.combiner.is_some() && total_pairs <= 4;
    counts.fatal = user_fatal.map(MapRedError::User);
    (counts, runs)
}

/// Columnar wire form of one shuffle segment: a single encoded frame of its
/// sorted `key ⧺ value` rows, cut from the arena's columns — the frame
/// `Pairs::frame_stats` sizes, built only for a corruption model to flip
/// bits in. `None` exactly when there is no such frame; the caller falls
/// back to the text framing of [`segment_canon_bytes`].
fn segment_frame(seg: &PartitionRun) -> Option<Vec<u8>> {
    let width = seg.pairs.uniform_width()?;
    let cols: Vec<&Column> = seg.pairs.columns().iter().collect();
    let at = |r: usize, c: usize| (c, seg.order[r] as usize);
    let batch = ColumnBatch::gather(&cols, seg.order.len(), width, at).ok()?;
    Some(batch.encode_frame())
}

/// Canonical wire encoding of a shuffle segment — the byte stream its
/// checksum covers. Key and value share a line, tab-separated, matching how
/// Hadoop's IFile frames a pair per record.
fn segment_canon_bytes(seg: &PartitionRun) -> Vec<u8> {
    let mut out = String::new();
    for &i in &seg.order {
        let i = i as usize;
        let value = seg.pairs.record_cols(i, true);
        encode_cell_refs_into(seg.pairs.cells(i, 0..value.start), &mut out);
        out.push('\t');
        encode_cell_refs_into(seg.pairs.cells(i, value), &mut out);
        out.push('\n');
    }
    out.into_bytes()
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
/// pure *distribution*: whole segments — arena and all — move (pointer
/// copies, no per-pair work) to the reduce tasks that k-way merge them, in
/// task order, preserving the merge tie-break order. Each segment is
/// accounted in its wire form — in columnar mode one frame of `key ⧺ value`
/// rows, falling back to the text framing when widths are non-uniform
/// across the segment; the map task that wrote it took both sizes — and,
/// under a corruption model, fetched through its checksum. Only the
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
            let (corrupt_fetches, collisions) = match flips {
                // Real wire bytes are built only for the corruption model
                // to flip bits in; the accounting uses the size the map
                // task took.
                Some(model) if !seg.pairs.is_empty() => fetch_corrupted(
                    &model,
                    job.task_seed(model.seed, task) ^ (p as u64 + 1).wrapping_mul(PARTMIX),
                    &seg,
                    columnar.then(|| segment_frame(&seg)).flatten(),
                ),
                _ => (0, 0),
            };
            segments.push(SegmentCounts {
                task,
                partition,
                records: seg.pairs.len() as u64,
                bytes: seg
                    .frame
                    .map_or(seg.pairs.text_bytes(), |frame| frame.bytes),
                frame_dicts: seg.frame.map(|frame| frame.dict_entries),
                corrupt_fetches,
                collisions,
            });
            part_runs[partition].push(seg);
        }
    }
    (part_runs, segments)
}

/// One reduce task's pairs in merged order: `(run, pair)` positions into
/// its segments' arenas — no pair is moved. Key groups are pre-delimited:
/// group `g` spans `group_starts[g]..group_starts[g + 1]` (the last runs to
/// the end).
struct Merged {
    at: Vec<(u32, u32)>,
    group_starts: Vec<u32>,
}

/// K-way merge of per-task sorted runs into one sorted sequence of pair
/// positions. Pairs of equal keys are taken from the lowest run (task)
/// index first, and within a run in its order — exactly the order a global
/// stable sort by key of the tasks' concatenated output produces — so key
/// groups, and each group's values, reach the reducer in an order
/// independent of how the input was split and the merge scheduled.
fn merge_runs(runs: &[PartitionRun]) -> Merged {
    // Tournament merge over a min-heap of run heads: O(log k) comparisons
    // per pair, each a key *byte* compare — the run index breaks key ties
    // toward the earliest task, and a run holds one head at a time, so its
    // own pairs leave in their order. Heads borrow key encodings from the
    // runs; the winner is replaced in place by its run's next pair (one
    // sift, not a pop and a push).
    struct Head<'a> {
        /// First eight key bytes as an integer — resolves most
        /// comparisons without touching the slices.
        prefix: u64,
        key: &'a [u8],
        run: u32,
        pair: u32,
        /// Where `pair` stands in its run's `order`.
        at: usize,
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
        // surface first.
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .prefix
                .cmp(&self.prefix)
                .then_with(|| other.key.cmp(self.key))
                .then_with(|| other.run.cmp(&self.run))
        }
    }
    let head = |run: usize, at: usize| {
        let r = &runs[run];
        let &pair = r.order.get(at)?;
        Some(Head {
            prefix: r.norms.prefix8(pair as usize),
            key: r.norms.key(pair as usize),
            run: run as u32,
            pair,
            at,
        })
    };
    let total = runs.iter().map(|r| r.order.len()).sum();
    let mut merged = Merged {
        at: Vec::with_capacity(total),
        group_starts: Vec::new(),
    };
    let mut heap: BinaryHeap<Head> = (0..runs.len()).filter_map(|run| head(run, 0)).collect();
    let mut prev_key: Option<&[u8]> = None;
    while let Some(mut top) = heap.peek_mut() {
        if prev_key != Some(top.key) {
            merged.group_starts.push(merged.at.len() as u32);
            prev_key = Some(top.key);
        }
        merged.at.push((top.run, top.pair));
        match head(top.run as usize, top.at + 1) {
            Some(following) => *top = following,
            None => {
                PeekMut::pop(top);
            }
        }
    }
    merged
}

/// The records a task writes, in order: of each arena, every pair's cells
/// ([`Pairs::record_cols`]) — a reducer's records whole, a map-only job's
/// pairs by their values (`true`).
type Outputs<'a> = [(&'a Pairs, bool)];

/// Every record of `outputs` as `(arena, pair, its columns)`, in order.
fn records<'a>(
    outputs: &'a Outputs<'a>,
) -> impl Iterator<Item = (usize, usize, Range<usize>)> + 'a {
    let arenas = outputs.iter().enumerate();
    arenas.flat_map(|(a, &(pairs, value_only))| {
        (0..pairs.len()).map(move |i| (a, i, pairs.record_cols(i, value_only)))
    })
}

/// Packs one task's output records where they lie, and is the one place
/// their stored format is decided. Columnar mode writes frames of
/// [`DEFAULT_FRAME_ROWS`] records; text mode, or any record the frame codec
/// cannot take, writes every record as its text line — byte-identical to a
/// self-formatting task. A string holding the field separator or a line
/// break has no text line (the codec writes them unescaped): it fails the
/// job as a typed error naming the value, not a decode error in whichever
/// job reads the line back.
fn pack_output(job: &JobCtx, outputs: &Outputs) -> Result<(OutputCounts, DataFile), MapRedError> {
    let n = outputs.iter().map(|(pairs, _)| pairs.len()).sum();
    let mut counts = OutputCounts {
        records: n as u64,
        ..OutputCounts::default()
    };
    let mut output = DataFile::default();
    let columnar = job.cfg.data_format == DataFormat::Columnar;
    match columnar.then(|| frame_records(outputs)).flatten() {
        Some((frames, dicts)) => {
            counts.dict_entries = dicts;
            output.frames = frames;
        }
        None => {
            let unstorable = |cell: CellRef<'_>| match cell {
                CellRef::Str(s) if s.bytes().any(|b| b == SEPARATOR as u8 || b == b'\n') => {
                    Some(s.to_string())
                }
                _ => None,
            };
            output.lines.reserve_exact(n);
            // Each line is rendered into one reused buffer and copied out
            // at its exact size: no line regrows as it is written.
            let mut line = String::new();
            for (a, i, cols) in records(outputs) {
                let (pairs, value_only) = outputs[a];
                if let Some(s) = pairs.cells(i, cols).find_map(unstorable) {
                    return Err(MapRedError::User(format!(
                        "value `{}` cannot be stored as text: it holds the field separator \
                         `{SEPARATOR}` or a line break (job {})",
                        s.escape_debug(),
                        job.name
                    )));
                }
                line.clear();
                pairs.write_line(i, value_only, &mut line);
                output.lines.push(line.as_str().to_owned());
            }
        }
    }
    counts.bytes = output.bytes();
    if output.is_columnar() {
        counts.encoded_bytes = counts.bytes;
    }
    Ok((counts, output))
}

/// [`pack_output`]'s frames and their dictionary-entry count: the records
/// cut every [`DEFAULT_FRAME_ROWS`], across arenas, each frame gathered
/// from the arenas' columns. `None` when a frame's records differ in width
/// or hold a non-finite float.
fn frame_records(outputs: &Outputs) -> Option<(Vec<Vec<u8>>, u64)> {
    // Every arena's columns in one list: a record's cell `c` is column
    // `first + c` of it, `first` where its columns start in the list.
    let mut sources: Vec<&Column> = Vec::new();
    let mut base = Vec::with_capacity(outputs.len());
    for (pairs, _) in outputs {
        base.push(sources.len());
        sources.extend(pairs.columns());
    }
    let (mut frames, mut dicts) = (Vec::new(), 0u64);
    let mut at: Vec<(usize, usize)> = Vec::with_capacity(DEFAULT_FRAME_ROWS);
    let mut width = 0;
    let mut records = records(outputs).peekable();
    while let Some((a, i, cols)) = records.next() {
        if at.is_empty() {
            width = cols.len();
        } else if cols.len() != width {
            return None;
        }
        at.push((base[a] + cols.start, i));
        if at.len() == DEFAULT_FRAME_ROWS || records.peek().is_none() {
            let cell = |r: usize, c: usize| (at[r].0 + c, at[r].1);
            let batch = ColumnBatch::gather(&sources, at.len(), width, cell).ok()?;
            dicts += batch.dict_entries();
            frames.push(batch.encode_frame());
            at.clear();
        }
    }
    Some((frames, dicts))
}

/// Collects a map-only job's output: the map tasks' values, in task order
/// and in emit order within a task, packed where the mappers wrote them.
pub(super) fn map_only_output(
    job: &JobCtx,
    map_runs: Vec<MapRuns>,
) -> Result<(OutputCounts, DataFile), MapRedError> {
    let runs: Vec<PartitionRun> = map_runs.into_iter().flatten().map(|(_, seg)| seg).collect();
    let outputs: Vec<(&Pairs, bool)> = runs.iter().map(|run| (&run.pairs, true)).collect();
    pack_output(job, &outputs)
}

/// Runs every reduce task on its partition's segments.
pub(super) fn execute_reduces(
    job: &JobCtx,
    reducer: &ReducerFactory,
    part_runs: Vec<Vec<PartitionRun>>,
) -> Result<Vec<(ReduceCounts, DataFile)>, MapRedError> {
    par_map(job, "reduce", 2, part_runs, |_, runs| {
        run_reduce_task(job, reducer, runs)
    })
}

/// Runs one reduce task for real: merges its shuffle segments (Hadoop's
/// merge-based shuffle — no global re-sort) and hands every key group to a
/// fresh reducer in one call, as views of the merged positions. The
/// segments' arenas are freed only after the task's output is packed, so
/// the long-lived output is never allocated into holes they left.
fn run_reduce_task(
    job: &JobCtx,
    reducer: &ReducerFactory,
    runs: Vec<PartitionRun>,
) -> (ReduceCounts, DataFile) {
    let Merged { at, group_starts } = merge_runs(&runs);
    let arenas: Vec<&Pairs> = runs.iter().map(|r| &r.pairs).collect();
    let mut reducer = reducer();
    let mut out = ReduceOutput::default();
    reducer.reduce_run(KeyGroups::merged(&arenas, &at, &group_starts), &mut out);
    let work = out.work();
    let mut fatal = out.take_fatal().map(MapRedError::User);
    let dispatches = out.take_dispatches();
    let records = out.into_records();
    let packed = pack_output(job, &[(records.pairs(), false)]);
    let (written, output) = packed.unwrap_or_else(|error| {
        fatal.get_or_insert(error);
        Default::default()
    });
    let counts = ReduceCounts {
        in_records: at.len() as u64,
        work,
        out: written,
        dispatches,
        fatal,
    };
    (counts, output)
}

/// Writes the job's output file from its tasks' outputs, in task order.
///
/// # Errors
///
/// A frame a task packed that does not decode when the file falls back to
/// text — an integrity violation, never a silent loss of its rows.
pub(super) fn write_output(
    hdfs: &mut Hdfs,
    path: &str,
    outputs: Vec<DataFile>,
) -> Result<(), MapRedError> {
    let any_lines = outputs.iter().any(|o| !o.lines.is_empty());
    let any_frames = outputs.iter().any(|o| !o.frames.is_empty());
    if any_frames && !any_lines {
        let frames = outputs.into_iter().flat_map(|o| o.frames).collect();
        hdfs.put_frames(path, frames);
        return Ok(());
    }
    // Text output — or the mixed case where only some tasks' records were
    // frame-packable: render frames back to their (byte-identical) text
    // lines so the file stays one format.
    let mut lines: Vec<String> = Vec::new();
    for output in outputs {
        for frame in output.frames {
            let batch = ColumnBatch::decode_frame(&frame).map_err(|e| {
                MapRedError::User(format!("undecodable output frame for {path}: {e}"))
            })?;
            lines.extend((0..batch.num_rows()).map(|r| {
                let mut line = String::new();
                encode_cell_refs_into(batch.columns().iter().map(|col| col.cell(r)), &mut line);
                line
            }));
        }
        lines.extend(output.lines);
    }
    hdfs.put(path, lines);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::{row, Row};

    /// A frame that does not decode when a job's output falls back to text
    /// fails the write; its rows are not dropped.
    #[test]
    fn an_undecodable_frame_fails_the_text_fallback() {
        let mut frame = ColumnBatch::from_rows(&[row![1i64, "a"]])
            .unwrap()
            .encode_frame();
        let last = frame.len() - 1;
        frame[last] ^= 1;
        let outputs = vec![
            DataFile {
                frames: vec![frame],
                ..DataFile::default()
            },
            DataFile {
                lines: vec!["2|b".into()],
                ..DataFile::default()
            },
        ];
        let mut hdfs = Hdfs::new();
        match write_output(&mut hdfs, "out/x", outputs) {
            Err(MapRedError::User(msg)) => assert!(msg.contains("undecodable"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(hdfs.get("out/x").is_err(), "nothing written");
    }

    /// The segment-level half of the sizing contract (the per-cell halves
    /// are `rel`'s `frame_stats_match_real_encoding` and
    /// `frame_stats_ignore_row_order` properties): a segment is read as
    /// `key ⧺ value` rows wherever each pair splits, the sizer — reading
    /// the typed columns whichever writer filled them — agrees with the real
    /// frame — carrying sorted order —, and empty or width-mixed segments
    /// have neither.
    #[test]
    fn segment_frame_stats_match_real_encoding() {
        let seg = |pairs: Vec<(Row, Row)>| {
            let mut out = MapOutput::default();
            pairs.into_iter().for_each(|(k, v)| out.emit(k, v));
            sort_run(out.into_parts().pop().unwrap())
        };
        let batch = ColumnBatch::from_rows(&[
            row![1i64, "k", 1.5f64, "apple"],
            row![2i64, "k", 2.5f64, "apple"],
        ])
        .unwrap();
        let cols: Vec<&ysmart_rel::Column> = batch.columns().iter().collect();
        let mut by_columns = MapOutput::default();
        by_columns.emit_columns(&[1, 0], &cols[..2], Some(&[5, 6]), &cols[2..]);
        let cases = [
            seg(vec![
                (row![2i64, "k"], row![2.5f64, false, "apple"]),
                (row![1i64, "k"], row![1.5f64, true, "apple"]),
            ]),
            // Uniform total width with shifted key/value split.
            seg(vec![
                (row![2i64, "b"], row![3i64]),
                (row![1i64], row!["a", 2i64]),
            ]),
            sort_run(by_columns.into_parts().pop().unwrap()),
        ];
        for (i, seg) in cases.iter().enumerate() {
            let frame = segment_frame(seg).expect("uniform width");
            let batch = ColumnBatch::decode_frame(&frame).unwrap();
            let stats = FrameStats {
                bytes: frame.len() as u64,
                dict_entries: batch.dict_entries(),
            };
            assert_eq!(seg.pairs.frame_stats(), Some(stats), "case {i}");
            assert_eq!(seg.order, [1, 0], "case {i}: sorted by key");
            let joined: Vec<Row> = seg
                .order
                .iter()
                .map(|&p| Row::new(seg.pairs.pair(p as usize).to_vec()))
                .collect();
            assert_eq!(batch.to_rows(), joined, "case {i}: sorted key ⧺ value");
        }
        let empty = seg(vec![]);
        assert!(segment_frame(&empty).is_none() && empty.pairs.frame_stats().is_none());
        let mixed = seg(vec![
            (row![1i64], row![2i64]),
            (row![1i64], row![2i64, 3i64]),
        ]);
        assert!(segment_frame(&mixed).is_none() && mixed.pairs.frame_stats().is_none());
    }
}
