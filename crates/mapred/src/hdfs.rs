//! The in-memory global file system (HDFS stand-in).
//!
//! Files are line-oriented, matching the raw-data-file model of the paper's
//! common mapper (§VI-A): a record is a line of text — or, under
//! [`crate::config::DataFormat::Columnar`], sequences of encoded
//! [`ColumnBatch`] frames. [`DataFile`] is the edge where that choice is
//! known: its byte accounting, its tag filters ([`untag_line`],
//! [`untag_batch`]) and its read-back ([`DataFile::rows`]) are the one place
//! each exists, so code above this module is written against records.
//!
//! # Ownership
//!
//! A stored file is immutable and shared: [`Hdfs`] maps a path to a
//! [`FileRef`] (`Arc<`[`SharedFile`]`>`, the file plus the memo of its
//! content checksum), [`Hdfs::share`] hands the handle out and
//! [`Hdfs::put_shared`] stores one under another path. The commit path —
//! reuse cache, fast-forward restore, replay plan, journal record — moves
//! handles, never copies, so a job output exists once however many of them
//! hold it, and is freed when the last one lets go. Paths are what jobs
//! read and write; a holder that is not a job (the reuse cache, the
//! journal) keeps its handles itself.
//!
//! # Block integrity
//!
//! Real HDFS stores a CRC per 512-byte chunk in a `.crc` sidecar and
//! verifies it on every read; a mismatch fails the replica and the client
//! transparently reads another one. This module reproduces that contract at
//! block granularity (one block = one map split, which is exactly what a
//! Hadoop map task reads): [`read_verified`] draws per-replica
//! corruption from a seeded [`CorruptionModel`], *actually flips a bit* in
//! the corrupted replica's bytes, detects the flip with the format's real
//! detector (the block's XXH64 checksum against the stored one, or a frame's
//! embedded per-column-chunk checksums), and fails over to the next replica.
//! Only a checksum-clean replica's bytes — which are the canonical ones —
//! ever reach the mapper, so injected corruption can never change query
//! results, only cost time. A block whose every replica is corrupt has no
//! clean copy left and surfaces
//! [`MapRedError::CorruptBlock`].

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_rel::codec::decode_line;
use ysmart_rel::colbatch::{Column, Xxh64};
use ysmart_rel::{ColumnBatch, RelError, Row, Schema};

use crate::config::CorruptionModel;
use crate::error::MapRedError;
use crate::hash::checksum_bytes;

/// One file: line-oriented text, or a sequence of columnar frames.
///
/// Exactly one of the two representations is populated; a file is columnar
/// iff it holds frames ([`DataFile::is_columnar`]). Frame boundaries are
/// the split granularity of the columnar path (a map task reads whole
/// frames), the way text blocks split on line boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataFile {
    /// The records, when text.
    pub lines: Vec<String>,
    /// Encoded [`ysmart_rel::ColumnBatch`] frames, when columnar.
    pub frames: Vec<Vec<u8>>,
}

impl DataFile {
    /// Total payload bytes: line lengths plus one newline each, or the
    /// actual encoded frame bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.lines.iter().map(|l| line_bytes(l)).sum::<u64>()
            + self.frames.iter().map(|f| f.len() as u64).sum::<u64>()
    }

    /// Whether the file stores columnar frames.
    #[must_use]
    pub fn is_columnar(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Decodes the file's records — the read-back of a job output. Text
    /// lines are typed by `schema`; frames carry their own types.
    ///
    /// # Errors
    ///
    /// An undecodable line or frame.
    pub fn rows(&self, schema: &Schema) -> Result<Vec<Row>, RelError> {
        let mut rows = Vec::with_capacity(self.lines.len());
        for line in &self.lines {
            rows.push(decode_line(line, schema)?);
        }
        for frame in &self.frames {
            rows.extend(ColumnBatch::decode_frame(frame)?.to_rows());
        }
        Ok(rows)
    }
}

/// Stored bytes of one text record: the line plus its newline.
pub(crate) fn line_bytes(line: &str) -> u64 {
    line.len() as u64 + 1
}

/// A stored file as every holder sees it: immutable, shared, and carrying
/// the memo of its content checksum with the bytes.
///
/// [`Hdfs`] keeps one [`FileRef`] per path and never copies a file it is
/// handed: the reuse cache's entry, the restore of a hit under a chain's
/// `tmp/` path, the replay plan and the journal record of the commit all
/// hold the *same* allocation. Identity (`Arc::ptr_eq`) is
/// therefore a free proof of byte equality; the converse does not hold, so
/// anything deciding "same content" falls back to comparing the files.
#[derive(Debug, Default)]
pub struct SharedFile {
    file: DataFile,
    /// [`file_checksum`] of `file`, computed on first request — loading a
    /// table, and a service that never fingerprints, pay nothing for it.
    /// It names the content (fingerprints, the journal's content keys); it
    /// is never a substitute for re-hashing bytes at rest.
    checksum: OnceLock<u64>,
}

/// The shared handle to a stored file.
pub type FileRef = Arc<SharedFile>;

impl SharedFile {
    /// [`file_checksum`] of the file, hashed once however often it is asked
    /// for and whichever path or record the handle travels through.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        *self.checksum.get_or_init(|| file_checksum(&self.file))
    }

    /// A file whose checksum the caller already knows — journal recovery,
    /// which reads it from a record its frame checksum just covered.
    pub(crate) fn with_checksum(file: DataFile, checksum: u64) -> FileRef {
        Arc::new(SharedFile {
            file,
            checksum: OnceLock::from(checksum),
        })
    }
}

impl std::ops::Deref for SharedFile {
    type Target = DataFile;

    fn deref(&self) -> &DataFile {
        &self.file
    }
}

/// Files are equal when their content is; the memo is not part of it.
impl PartialEq for SharedFile {
    fn eq(&self, other: &Self) -> bool {
        self.file == other.file
    }
}

impl Eq for SharedFile {}

impl From<DataFile> for FileRef {
    fn from(file: DataFile) -> Self {
        Arc::new(SharedFile {
            file,
            checksum: OnceLock::new(),
        })
    }
}

/// The text tag filter. A tagged multi-output file mixes records of several
/// merged ops as `tag|rest` lines: returns `rest` when the line carries
/// `tag`, `None` when it belongs to another stream (or has no tag at all).
/// With no `tag` wanted the whole line is the payload.
#[must_use]
pub fn untag_line(line: &str, tag: Option<i64>) -> Option<&str> {
    let Some(want) = tag else {
        return Some(line);
    };
    let (tag, rest) = line.split_once('|')?;
    (tag.parse::<i64>() == Ok(want)).then_some(rest)
}

/// The columnar tag filter: the tag is a leading `Int` column (the typed
/// form of the `tag|` line prefix). Returns the rows carrying `want`, tag
/// column dropped.
#[must_use]
pub fn untag_batch(batch: &ColumnBatch, want: i64) -> ColumnBatch {
    let mask: Vec<bool> = match batch.columns().first() {
        Some(Column::Int { data, nulls }) => data
            .iter()
            .zip(nulls)
            .map(|(&t, &n)| !n && t == want)
            .collect(),
        Some(col) => (0..batch.num_rows())
            .map(|r| col.value(r).as_int() == Some(want))
            .collect(),
        None => vec![false; batch.num_rows()],
    };
    batch.filter_from(1, &mask)
}

/// The global file system of the simulated cluster: a path → file map.
#[derive(Debug, Clone, Default)]
pub struct Hdfs {
    files: BTreeMap<String, FileRef>,
}

impl Hdfs {
    /// An empty file system.
    #[must_use]
    pub fn new() -> Self {
        Hdfs::default()
    }

    /// Creates or replaces a text file from lines.
    pub fn put(&mut self, path: &str, lines: Vec<String>) {
        let frames = Vec::new();
        self.put_data(path, DataFile { lines, frames });
    }

    /// Creates or replaces a columnar file from encoded frames.
    pub fn put_frames(&mut self, path: &str, frames: Vec<Vec<u8>>) {
        let lines = Vec::new();
        self.put_data(path, DataFile { lines, frames });
    }

    /// Stores a pre-built [`DataFile`], in whichever format it holds.
    pub fn put_data(&mut self, path: &str, file: DataFile) {
        self.put_shared(path, file.into());
    }

    /// Stores a file some other holder already has — a cached or journaled
    /// job output restored under a chain's path, a committed output entering
    /// the reuse cache — without copying it: the path shares the handle's
    /// allocation and its checksum memo.
    pub fn put_shared(&mut self, path: &str, file: FileRef) {
        self.files.insert(path.to_string(), file);
    }

    /// Reads a file.
    ///
    /// # Errors
    ///
    /// [`MapRedError::NoSuchFile`] when absent.
    pub fn get(&self, path: &str) -> Result<&DataFile, MapRedError> {
        self.stored(path).map(|f| &f.file)
    }

    /// The shared handle of the file at `path` — what a holder that outlives
    /// the path (journal record, cache entry, replay plan) takes instead of
    /// a copy.
    ///
    /// # Errors
    ///
    /// [`MapRedError::NoSuchFile`] when absent.
    pub fn share(&self, path: &str) -> Result<FileRef, MapRedError> {
        self.stored(path).cloned()
    }

    fn stored(&self, path: &str) -> Result<&FileRef, MapRedError> {
        self.files
            .get(path)
            .ok_or_else(|| MapRedError::NoSuchFile(path.to_string()))
    }

    /// [`file_checksum`] of the file at `path`, hashed once per stored file
    /// however often it is asked for — a base table's identity in a reuse
    /// fingerprint is requested by every job of every query that reads it.
    ///
    /// # Errors
    ///
    /// [`MapRedError::NoSuchFile`] when absent.
    pub fn checksum(&self, path: &str) -> Result<u64, MapRedError> {
        Ok(self.stored(path)?.checksum())
    }

    /// Whether a path exists.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Removes a file (idempotent).
    pub fn delete(&mut self, path: &str) {
        self.files.remove(path);
    }

    /// All paths, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Total bytes stored: a shared file is charged at every path that
    /// holds it, as a copy would be.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.bytes()).sum()
    }
}

/// Hands `sink` the canonical byte encoding of a whole file piece by piece,
/// where the pieces lie — the stream its content checksum covers:
/// newline-terminated lines for text, length-prefixed frames for columnar
/// (the prefix keeps frame boundaries part of the identity).
fn for_each_piece(f: &DataFile, mut sink: impl FnMut(&[u8])) {
    if f.is_columnar() {
        for fr in &f.frames {
            sink(&(fr.len() as u64).to_le_bytes());
            sink(fr);
        }
    } else {
        for_each_line_piece(&f.lines, sink);
    }
}

fn for_each_line_piece(lines: &[String], mut sink: impl FnMut(&[u8])) {
    for l in lines {
        sink(l.as_bytes());
        sink(b"\n");
    }
}

/// Length of [`file_bytes`] without building it.
pub(crate) fn file_bytes_len(f: &DataFile) -> usize {
    let mut len = 0;
    for_each_piece(f, |piece| len += piece.len());
    len
}

/// The canonical bytes of a whole file as one buffer — for a reader that
/// needs somewhere to land a bit flip; hashing goes through
/// [`file_checksum`], which reads the file in place.
#[must_use]
pub fn file_bytes(f: &DataFile) -> Vec<u8> {
    let mut out = Vec::with_capacity(file_bytes_len(f));
    for_each_piece(f, |piece| out.extend_from_slice(piece));
    out
}

/// XXH64 checksum of a whole file's canonical bytes, hashed where they lie
/// — the integrity stamp the result-reuse cache stores at insert time and
/// verifies on every hit, and the content half of the journal's keys.
#[must_use]
pub fn file_checksum(f: &DataFile) -> u64 {
    let mut hash = Xxh64::new(0);
    for_each_piece(f, |piece| hash.update(piece));
    hash.finish()
}

/// Canonical on-disk encoding of a block's lines (newline-terminated), the
/// byte stream the block checksum covers.
#[must_use]
pub fn block_bytes(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for_each_line_piece(lines, |piece| out.extend_from_slice(piece));
    out
}

/// The stored checksum of a block — computed at write time in real HDFS;
/// here derived from the canonical lines, which are the written bytes.
#[must_use]
pub fn block_checksum(lines: &[String]) -> u64 {
    let mut hash = Xxh64::new(0);
    for_each_line_piece(lines, |piece| hash.update(piece));
    hash.finish()
}

/// Outcome of one verified block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRead {
    /// Replicas whose checksum failed before a clean one was found.
    pub corrupt_replicas: u32,
    /// Real payload bytes of the block — the volume each read+verify pass
    /// moved (failover re-reads move it again).
    pub block_bytes: u64,
    /// Injected bit flips the checksum *failed to detect* (the garbled
    /// bytes checksummed equal to the clean ones). Practically unreachable
    /// with XXH64, but counted in every build profile — a silent pass here
    /// would mean corrupt bytes served as clean.
    pub collisions: u32,
}

/// Reads one block — a text block's [`block_bytes`] or one encoded frame —
/// through its checksums, failing over across replicas.
///
/// Corruption is drawn per `(path, block, replica, attempt)` from the
/// seeded model; a corrupted replica has a seeded bit of its byte stream
/// genuinely flipped, and detection is the real check, not a modelled coin:
/// `detects` is handed the garbled bytes and runs the format's own detector
/// (text: XXH64 against the block's stored checksum; columnar:
/// [`ColumnBatch::decode_frame`]'s header and per-column-chunk checksums,
/// which localize the flip to one column). The data a caller goes on to
/// read is always the canonical bytes of a clean replica.
///
/// # Errors
///
/// [`MapRedError::CorruptBlock`] when every replica fails verification.
pub fn read_verified(
    bytes: &[u8],
    detects: impl Fn(&[u8]) -> bool,
    path: &str,
    block: usize,
    replication: u32,
    model: &CorruptionModel,
    attempt: usize,
) -> Result<BlockRead, MapRedError> {
    const SPLITMIX: u64 = 0x9E37_79B9_7F4A_7C15;
    let read = |corrupt_replicas, collisions| BlockRead {
        corrupt_replicas,
        block_bytes: bytes.len() as u64,
        collisions,
    };
    // An empty block has no bytes to flip — and nothing to protect.
    if model.block_rate <= 0.0 || bytes.is_empty() {
        return Ok(read(0, 0));
    }
    let base = model.seed
        ^ checksum_bytes(path.as_bytes())
        ^ (block as u64 + 0xB10C).wrapping_mul(SPLITMIX)
        ^ crate::engine::attempt_mix(attempt);
    let replication = replication.max(1);
    let mut corrupt = 0u32;
    let mut collisions = 0u32;
    for replica in 0..replication {
        let mut rng =
            StdRng::seed_from_u64(base ^ (u64::from(replica) + 0x11).wrapping_mul(SPLITMIX));
        if rng.gen::<f64>() < model.block_rate {
            // This replica took a hit at rest: flip a seeded bit and run
            // the actual detection path.
            let bit = rng.gen::<u64>() as usize % (bytes.len() * 8);
            let mut garbled = bytes.to_vec();
            garbled[bit / 8] ^= 1 << (bit % 8);
            if detects(&garbled) {
                corrupt += 1;
                continue;
            }
            // The flip sailed through undetected — a 64-bit checksum
            // collision on a single-bit flip: practically unreachable
            // (excluded by the avalanche test in `hash` and the exhaustive
            // flip test in `rel::colbatch`), but counted in every build
            // profile so it surfaces in JobMetrics instead of vanishing in
            // release builds.
            collisions += 1;
        }
        return Ok(read(corrupt, collisions));
    }
    Err(MapRedError::CorruptBlock {
        path: path.to_string(),
        block,
        replicas: replication,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut fs = Hdfs::new();
        fs.put("a", vec!["1|x".into(), "2|y".into()]);
        assert_eq!(fs.get("a").unwrap().lines.len(), 2);
        assert!(fs.exists("a"));
        fs.delete("a");
        assert!(matches!(fs.get("a"), Err(MapRedError::NoSuchFile(_))));
    }

    #[test]
    fn bytes_count_newlines() {
        let f = DataFile {
            lines: vec!["ab".into(), "c".into()],
            frames: Vec::new(),
        };
        assert_eq!(f.bytes(), 3 + 2);
    }

    #[test]
    fn total_bytes_sums_files() {
        let mut fs = Hdfs::new();
        fs.put("a", vec!["ab".into()]);
        fs.put("b", vec!["c".into()]);
        assert_eq!(fs.total_bytes(), 5);
        // A replacement drops the old file's bytes; a delete is idempotent.
        fs.put("a", vec!["much-longer-line".into()]);
        assert_eq!(fs.total_bytes(), 17 + 2);
        fs.delete("a");
        fs.delete("a");
        assert_eq!(fs.total_bytes(), 2);
    }

    fn lines() -> Vec<String> {
        (0..50).map(|i| format!("{i}|payload-{i}")).collect()
    }

    /// A verified read of a text block, detector as the engine wires it.
    fn read_block_verified(
        lines: &[String],
        path: &str,
        block: usize,
        replication: u32,
        model: &CorruptionModel,
        attempt: usize,
    ) -> Result<BlockRead, MapRedError> {
        let bytes = block_bytes(lines);
        let stored = checksum_bytes(&bytes);
        let detects = |garbled: &[u8]| checksum_bytes(garbled) != stored;
        read_verified(&bytes, detects, path, block, replication, model, attempt)
    }

    /// A verified read of one frame, detector as the engine wires it.
    fn read_frame_verified(
        frame: &[u8],
        path: &str,
        block: usize,
        replication: u32,
        model: &CorruptionModel,
        attempt: usize,
    ) -> Result<BlockRead, MapRedError> {
        let detects = |garbled: &[u8]| ColumnBatch::decode_frame(garbled).is_err();
        read_verified(frame, detects, path, block, replication, model, attempt)
    }

    #[test]
    fn verified_read_clean_at_rate_zero() {
        let model = CorruptionModel::uniform(0.0, 1);
        let r = read_block_verified(&lines(), "data/t", 0, 3, &model, 0).unwrap();
        assert_eq!(r.corrupt_replicas, 0);
        let file = DataFile {
            lines: lines(),
            frames: Vec::new(),
        };
        assert_eq!(r.block_bytes, file.bytes());
    }

    #[test]
    fn verified_read_fails_over_to_surviving_replica() {
        // Certain corruption with certain failover impossible; sweep seeds
        // at a high rate until a read survives via a later replica.
        let mut saw_failover = false;
        for seed in 0..200u64 {
            let model = CorruptionModel::uniform(0.5, seed);
            if let Ok(r) = read_block_verified(&lines(), "data/t", 0, 3, &model, 0) {
                if r.corrupt_replicas > 0 {
                    saw_failover = true;
                    break;
                }
            }
        }
        assert!(
            saw_failover,
            "p=0.5 over 3 replicas × 200 seeds must fail over"
        );
    }

    #[test]
    fn all_replicas_corrupt_is_an_error() {
        let model = CorruptionModel::uniform(1.0, 7);
        let e = read_block_verified(&lines(), "data/t", 4, 3, &model, 0).unwrap_err();
        let MapRedError::CorruptBlock {
            path,
            block,
            replicas,
        } = e
        else {
            panic!("expected CorruptBlock, got {e:?}");
        };
        assert_eq!((path.as_str(), block, replicas), ("data/t", 4, 3));
    }

    #[test]
    fn retry_attempts_draw_fresh_corruption() {
        // Find a (seed) whose attempt-0 read loses every replica, then show
        // some later attempt of the same block recovers — the property the
        // chain-level retry of CorruptBlock depends on.
        let mut verified = false;
        for seed in 0..300u64 {
            let model = CorruptionModel::uniform(0.75, seed);
            let first = read_block_verified(&lines(), "data/t", 0, 2, &model, 0);
            if first.is_err() {
                let recovered = (1..20)
                    .any(|a| read_block_verified(&lines(), "data/t", 0, 2, &model, a).is_ok());
                assert!(recovered, "seed {seed}: no attempt in 20 recovered");
                verified = true;
                break;
            }
        }
        assert!(verified, "p=0.75² must kill both replicas for some seed");
    }

    #[test]
    fn verified_read_is_deterministic() {
        let model = CorruptionModel::uniform(0.4, 99);
        let a = read_block_verified(&lines(), "data/t", 1, 3, &model, 2);
        let b = read_block_verified(&lines(), "data/t", 1, 3, &model, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_block_never_corrupts() {
        let model = CorruptionModel::uniform(1.0, 1);
        let r = read_block_verified(&[], "data/t", 0, 3, &model, 0).unwrap();
        assert_eq!(r.corrupt_replicas, 0);
        assert_eq!(r.block_bytes, 0);
    }

    fn frame() -> Vec<u8> {
        use ysmart_rel::{row, ColumnBatch};
        let rows: Vec<ysmart_rel::Row> = (0..50).map(|i| row![i as i64, "payload"]).collect();
        ColumnBatch::from_rows(&rows).unwrap().encode_frame()
    }

    #[test]
    fn verified_frame_read_clean_at_rate_zero() {
        let model = CorruptionModel::uniform(0.0, 1);
        let r = read_frame_verified(&frame(), "data/t", 0, 3, &model, 0).unwrap();
        assert_eq!(r.corrupt_replicas, 0);
        assert_eq!(r.block_bytes, frame().len() as u64);
    }

    #[test]
    fn verified_frame_read_detects_flips_and_fails_over() {
        let mut saw_failover = false;
        for seed in 0..200u64 {
            let model = CorruptionModel::uniform(0.5, seed);
            if let Ok(r) = read_frame_verified(&frame(), "data/t", 0, 3, &model, 0) {
                if r.corrupt_replicas > 0 {
                    saw_failover = true;
                    assert_eq!(r.collisions, 0, "frame checksums must catch the flip");
                    break;
                }
            }
        }
        assert!(
            saw_failover,
            "p=0.5 over 3 replicas × 200 seeds must fail over"
        );
    }

    #[test]
    fn all_frame_replicas_corrupt_is_an_error() {
        let model = CorruptionModel::uniform(1.0, 7);
        let e = read_frame_verified(&frame(), "data/t", 4, 3, &model, 0).unwrap_err();
        assert!(matches!(e, MapRedError::CorruptBlock { block: 4, .. }));
    }

    #[test]
    fn shared_files_are_charged_per_path_and_never_copied() {
        let mut fs = Hdfs::new();
        fs.put("tmp/a", lines());
        let shared = fs.share("tmp/a").unwrap();
        let sum = shared.checksum();
        // The same handle under more paths: one allocation, its memo with
        // it, and each path charged as a copy would be.
        fs.put_shared("tmp/c", Arc::clone(&shared));
        fs.put_shared("tmp/b", Arc::clone(&shared));
        assert!(Arc::ptr_eq(&fs.share("tmp/b").unwrap(), &shared));
        assert!(std::ptr::eq(fs.get("tmp/c").unwrap(), &**shared));
        assert_eq!(fs.checksum("tmp/b").unwrap(), sum);
        assert_eq!(fs.total_bytes(), 3 * shared.bytes());
        // Overwriting one path — by a fresh file, then by the shared one
        // again — and deleting another touch only their own charges.
        fs.put("tmp/b", vec!["short".into()]);
        fs.put_shared("tmp/b", Arc::clone(&shared));
        fs.delete("tmp/a");
        assert_eq!(fs.total_bytes(), 2 * shared.bytes());
        // A holder outlives every path; the bytes go with the last handle.
        fs.delete("tmp/b");
        fs.delete("tmp/c");
        assert_eq!(fs.total_bytes(), 0);
        assert_eq!((shared.lines.len(), Arc::strong_count(&shared)), (50, 1));
    }

    #[test]
    fn in_place_checksums_equal_the_buffered_ones() {
        let text = DataFile {
            lines: lines(),
            frames: Vec::new(),
        };
        let columnar = DataFile {
            lines: Vec::new(),
            frames: vec![frame(), Vec::new(), frame()],
        };
        for f in [&text, &columnar, &DataFile::default()] {
            assert_eq!(file_checksum(f), checksum_bytes(&file_bytes(f)));
            assert_eq!(file_bytes_len(f), file_bytes(f).len());
        }
        assert_eq!(
            block_checksum(&lines()),
            checksum_bytes(&block_bytes(&lines()))
        );
        assert_eq!(block_checksum(&[]), checksum_bytes(&[]));
    }

    #[test]
    fn file_checksum_distinguishes_formats_and_content() {
        let text = DataFile {
            lines: vec!["a".into(), "b".into()],
            frames: Vec::new(),
        };
        let text2 = DataFile {
            lines: vec!["a".into(), "c".into()],
            frames: Vec::new(),
        };
        assert_ne!(file_checksum(&text), file_checksum(&text2));
        let col = DataFile {
            lines: Vec::new(),
            frames: vec![frame()],
        };
        assert_ne!(file_checksum(&text), file_checksum(&col));
        assert_eq!(file_checksum(&col), file_checksum(&col.clone()));
    }

    #[test]
    fn memoised_checksum_tracks_overwrite_and_delete() {
        let mut fs = Hdfs::new();
        fs.put("data/t", lines());
        let fresh = |fs: &Hdfs| file_checksum(fs.get("data/t").unwrap());
        let first = fs.checksum("data/t").unwrap();
        assert_eq!(first, fresh(&fs));
        assert_eq!(fs.checksum("data/t").unwrap(), first, "memo is stable");
        // A clone carries the memo with the file, and stays independent.
        let snapshot = fs.clone();
        fs.put("data/t", vec!["other".into()]);
        assert_eq!(fs.checksum("data/t").unwrap(), fresh(&fs));
        assert_ne!(fs.checksum("data/t").unwrap(), first);
        assert_eq!(snapshot.checksum("data/t").unwrap(), first);
        fs.delete("data/t");
        assert!(matches!(
            fs.checksum("data/t"),
            Err(MapRedError::NoSuchFile(_))
        ));
        // Re-creating the path starts from nothing remembered.
        fs.put_frames("data/t", vec![frame()]);
        assert_eq!(fs.checksum("data/t").unwrap(), fresh(&fs));
    }

    #[test]
    fn tag_filters_and_read_back_agree_across_renderings() {
        use ysmart_rel::codec::encode_line;
        use ysmart_rel::{row, DataType, Value};
        // A tagged multi-output file: `[tag, k, s]` rows of two streams,
        // NULLs included — as `tag|k|s` lines and as frames whose leading
        // Int column is the tag.
        let tagged: Vec<Row> = (0..40i64)
            .map(|i| match i % 3 {
                0 => Row::new(vec![Value::Int(i % 2), Value::Int(i), Value::Null]),
                _ => row![i % 2, i, format!("s{i}")],
            })
            .collect();
        let schema = Schema::of("o", &[("k", DataType::Int), ("s", DataType::Str)]);
        let text = DataFile {
            lines: tagged.iter().map(encode_line).collect(),
            frames: Vec::new(),
        };
        let columnar = DataFile {
            lines: Vec::new(),
            frames: ysmart_rel::colbatch::encode_frames(&tagged, 16).unwrap().0,
        };
        // One stream of either rendering, tag stripped, through the filters
        // the mapper's `tag_filter` uses.
        let text_stream = |tag: i64| -> Vec<Row> {
            text.lines
                .iter()
                .filter_map(|l| untag_line(l, Some(tag)))
                .map(|payload| decode_line(payload, &schema).unwrap())
                .collect()
        };
        let frame_stream = |tag: i64| -> Vec<Row> {
            columnar
                .frames
                .iter()
                .flat_map(|f| untag_batch(&ColumnBatch::decode_frame(f).unwrap(), tag).to_rows())
                .collect()
        };
        for tag in [0, 1] {
            let want: Vec<Row> = tagged
                .iter()
                .filter(|r| r.values()[0] == Value::Int(tag))
                .map(|r| Row::new(r.values()[1..].to_vec()))
                .collect();
            assert_eq!(want.len(), 20);
            assert_eq!(text_stream(tag), want);
            assert_eq!(frame_stream(tag), want);
        }
        assert!(text_stream(7).is_empty());
        assert!(frame_stream(7).is_empty());
        // Read-back returns every record whole, in file order.
        let whole = Schema::of(
            "o",
            &[
                ("t", DataType::Int),
                ("k", DataType::Int),
                ("s", DataType::Str),
            ],
        );
        assert_eq!(text.rows(&whole).unwrap(), tagged);
        assert_eq!(columnar.rows(&whole).unwrap(), tagged);
        // Damage is a typed error on both sides, not a panic.
        let torn = DataFile {
            lines: vec!["0|1|x|\u{1}".into()],
            frames: Vec::new(),
        };
        assert!(torn.rows(&whole).is_err());
        let mut cut = columnar.clone();
        cut.frames[0].truncate(10);
        assert!(cut.rows(&whole).is_err());
    }

    #[test]
    fn columnar_file_bytes_are_frame_bytes() {
        let mut fs = Hdfs::new();
        let f = frame();
        let len = f.len() as u64;
        fs.put_frames("a", vec![f.clone(), f]);
        let file = fs.get("a").unwrap();
        assert!(file.is_columnar());
        assert_eq!(file.bytes(), 2 * len);
        assert_eq!(fs.total_bytes(), 2 * len);
    }
}
