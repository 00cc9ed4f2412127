//! Durable workload journal: a checksummed append-only WAL that makes the
//! multi-tenant scheduler crash-safe.
//!
//! The paper's whole argument is *fewer jobs per query*; a long-running
//! service built on it dies a different death — the process crashes with a
//! workload in flight, and every partially-completed chain's finished jobs
//! are lost with the in-memory cluster. ReStore (PAPERS.md) observes that
//! per-job outputs materialized in HDFS are exactly the reuse primitive;
//! this module uses that primitive for *restart safety*: every admitted
//! query, every committed job (with its materialized output, stored once
//! per epoch however many jobs commit it), and every terminal disposition
//! is appended to the journal, so a restarted process can replay the
//! workload deterministically, fast-forwarding already-journaled jobs
//! instead of re-executing them.
//!
//! # Record framing
//!
//! The journal is a byte stream: an 8-byte magic ([`JOURNAL_MAGIC`],
//! version `02`), then records framed as
//!
//! ```text
//! [u64 checksum][u32 len][payload: len bytes]
//! ```
//!
//! where `checksum = XXH64(len_le || payload)` ([`crate::hash`]), covering
//! the length field so a flipped length cannot silently mis-frame the
//! stream. All integers are little-endian; `f64`s are stored as their IEEE
//! bit patterns so metrics survive a round trip *bit-identically*.
//!
//! | tag | record | payload after the tag |
//! |---|---|---|
//! | 1 | `Admitted` | id, tenant, label, seed, deadline, submit time, caller payload |
//! | 2 | `JobDone`, inline | id, job index, attempt, output path, **content key**, the output's lines or frames, metrics |
//! | 3 | `Done` | id, disposition kind, time |
//! | 4 | `JobDone`, by reference | id, job index, attempt, output path, **content key**, metrics |
//!
//! # Outputs are stored once per epoch
//!
//! A service re-commits the same bytes constantly: a reuse-cache hit
//! journals the cached output again, and a chain re-executed past a
//! prefix-only hit writes byte-identical files. The epoch itself is the
//! content-addressed store for them. A `JobDone`'s output is keyed by its
//! *content key* — `(XXH64 of the canonical bytes, byte length)`, 16 bytes —
//! and the journal remembers the first file each key was written inline
//! with. A later `JobDone` is written by reference (tag 4: the key, no
//! bytes) **only after its file compared equal to that held one** — the
//! same allocation (`Arc::ptr_eq`, which is what a hit, a replay and a
//! restore share; see [`crate::hdfs::SharedFile`]) or, failing that, the
//! same bytes. A key shared by different bytes — a checksum collision — is
//! written inline again and never displaces the first holder, on the
//! writing and on the reading side alike, so a collision costs a copy and
//! can never restore wrong bytes. A reference is written after the content
//! it names, so any byte prefix of an epoch that contains a reference
//! contains its content: the torn-tail rule below needs no change, and a
//! reference with no earlier content can only be damage — it is refused as
//! corruption, not resolved to a guess. [`recover`] hands equal outputs
//! back as one shared [`FileRef`], and replay re-journals through the same
//! [`Journal::append`], so the epoch a recovery rebuilds is deduplicated
//! the same way.
//!
//! # Recovery
//!
//! [`recover`] walks the frames front to back:
//!
//! * a record that does not fit in the remaining bytes, or whose final
//!   frame fails its checksum, is a **torn tail** — the interrupted last
//!   append of a crashed process. It is truncated away and everything
//!   before it is recovered;
//! * a checksum mismatch or undecodable payload *followed by more data* —
//!   or a well-framed record that references content no earlier record
//!   holds — is at-rest corruption, surfaced as the typed
//!   [`MapRedError::JournalCorrupt`] instead of a panic or a guess.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use crate::error::MapRedError;
use crate::hash::checksum_bytes;
use crate::hdfs::{DataFile, FileRef, SharedFile};
use crate::metrics::JobMetrics;

/// Leading magic of every journal file (version suffix `02`: `JobDone`
/// records carry a content key and may reference earlier content). A file
/// of another version is refused as [`MapRedError::JournalCorrupt`].
pub const JOURNAL_MAGIC: &[u8; 8] = b"YSJRNL02";

/// How a journaled query's life ended — the slim, replayable projection of
/// [`crate::scheduler::Disposition`]. Recovery does not reconstruct reports
/// from these (deterministic replay re-derives them bit-identically); they
/// exist so a restarted *service* knows which requests it already answered
/// and never responds twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispositionKind {
    /// The chain ran to completion.
    Completed,
    /// Cancelled at its deadline (running or still queued).
    DeadlineCancelled,
    /// Shed at admission; nothing ran.
    Shed,
    /// Failed while running.
    Failed,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A query was accepted into an admission queue. `payload` is opaque
    /// caller data — the service stores the SQL text here so a restarted
    /// process can re-translate and resubmit the request.
    Admitted {
        /// Request id (the scheduler uses the submission index).
        id: u64,
        /// Owning tenant.
        tenant: String,
        /// Report/trace label.
        label: String,
        /// The request's scheduling seed.
        seed: u64,
        /// Deadline relative to submission, if any.
        deadline_s: Option<f64>,
        /// Submission time on the workload clock.
        submit_s: f64,
        /// Opaque caller payload (e.g. the SQL text).
        payload: String,
    },
    /// A job of an admitted chain committed: its checkpoint. Carries the
    /// materialized output so a restarted process can restore the file
    /// into the (rebuilt, in-memory) HDFS and resume the chain from here
    /// instead of re-running the job. The handle is the one HDFS holds;
    /// on disk the bytes are written once per epoch (module docs).
    JobDone {
        /// Request id.
        id: u64,
        /// Index of the job within its chain.
        job_index: u32,
        /// Which attempt committed (0 = first try).
        attempt: u32,
        /// HDFS path of the job's output.
        output_path: String,
        /// The materialized output.
        file: FileRef,
        /// The committed job's metrics, bit-exact (boxed: this variant
        /// would otherwise dwarf the others).
        metrics: Box<JobMetrics>,
    },
    /// A query reached its terminal disposition.
    Done {
        /// Request id.
        id: u64,
        /// How it ended.
        kind: DispositionKind,
        /// When, on the workload clock.
        done_s: f64,
    },
}

impl JournalRecord {
    /// The request id every record variant carries.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            JournalRecord::Admitted { id, .. }
            | JournalRecord::JobDone { id, .. }
            | JournalRecord::Done { id, .. } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload codec: hand-rolled little-endian primitives (no serde in-tree).
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// `f64`s travel as raw IEEE bits: metrics must survive bit-identically.
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_f64(out, x);
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

fn put_u64_vec(out: &mut Vec<u8>, v: &[u64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x);
    }
}

/// Bounded reader over a record payload. Every getter fails with a reason
/// string instead of panicking — malformed records become
/// [`MapRedError::JournalCorrupt`], never a crash.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Parsed<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Parsed<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Parsed<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Parsed<u32> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| "u32 field truncated".to_string())?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Parsed<u64> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| "u64 field truncated".to_string())?;
        Ok(u64::from_le_bytes(b))
    }

    fn usize(&mut self) -> Parsed<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("usize field overflows the platform: {v}"))
    }

    fn f64(&mut self) -> Parsed<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_f64(&mut self) -> Parsed<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            t => Err(format!("bad Option tag {t}")),
        }
    }

    fn bytes(&mut self) -> Parsed<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Parsed<String> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|e| format!("invalid UTF-8 in string field: {e}"))
    }

    fn u64_vec(&mut self) -> Parsed<Vec<u64>> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    fn done(&self) -> Parsed<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

/// What a job output *is*, as far as one journal epoch is concerned: the
/// XXH64 of its canonical bytes ([`crate::hdfs::file_checksum`]) and their
/// length. A key only nominates a held file for sharing — a reference is
/// written after the two files compared equal, never on the key alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ContentKey {
    checksum: u64,
    bytes: u64,
}

impl ContentKey {
    fn of(file: &SharedFile) -> Self {
        ContentKey {
            checksum: file.checksum(),
            bytes: file.bytes(),
        }
    }

    fn encode(self, out: &mut Vec<u8>) {
        put_u64(out, self.checksum);
        put_u64(out, self.bytes);
    }

    fn decode(r: &mut Reader<'_>) -> Parsed<Self> {
        Ok(ContentKey {
            checksum: r.u64()?,
            bytes: r.u64()?,
        })
    }
}

fn encode_data_file(out: &mut Vec<u8>, f: &DataFile) {
    put_u8(out, u8::from(f.is_columnar()));
    if f.is_columnar() {
        put_u32(out, f.frames.len() as u32);
        for fr in &f.frames {
            put_bytes(out, fr);
        }
    } else {
        put_u32(out, f.lines.len() as u32);
        for l in &f.lines {
            put_str(out, l);
        }
    }
}

/// Decodes an inline output written under `key`. The handle's checksum memo
/// is seeded from the key — the record's frame checksum just covered both —
/// so neither recovery nor the replay's re-journaling hashes the file again.
fn decode_data_file(r: &mut Reader<'_>, key: ContentKey) -> Parsed<FileRef> {
    let columnar = match r.u8()? {
        0 => false,
        1 => true,
        t => Err(format!("bad DataFile tag {t}"))?,
    };
    let n = r.u32()? as usize;
    let mut file = DataFile::default();
    if columnar {
        file.frames.reserve(n.min(1 << 16));
        for _ in 0..n {
            file.frames.push(r.bytes()?);
        }
    } else {
        file.lines.reserve(n.min(1 << 16));
        for _ in 0..n {
            file.lines.push(r.str()?);
        }
    }
    if file.bytes() != key.bytes {
        return Err(format!(
            "output of {} byte(s) stored under a content key of {}",
            file.bytes(),
            key.bytes
        ));
    }
    Ok(SharedFile::with_checksum(file, key.checksum))
}

/// Every [`JobMetrics`] field, in declaration order. A new field must be
/// added here (and below) or the `metrics_roundtrip_is_exhaustive` test in
/// the recovery suite fails the build's test run.
fn encode_job_metrics(out: &mut Vec<u8>, m: &JobMetrics) {
    put_str(out, &m.name);
    put_f64(out, m.map_time_s);
    put_f64(out, m.reduce_time_s);
    put_f64(out, m.startup_delay_s);
    put_u64(out, m.hdfs_read_bytes);
    put_u64(out, m.local_spill_bytes);
    put_u64(out, m.shuffle_bytes);
    put_u64(out, m.hdfs_write_bytes);
    put_u64(out, m.map_in_records);
    put_u64(out, m.map_out_records);
    put_u64(out, m.out_records);
    put_usize(out, m.map_tasks);
    put_usize(out, m.reduce_tasks);
    put_usize(out, m.failed_attempts);
    put_usize(out, m.speculative_tasks);
    put_f64(out, m.speculative_slot_s);
    put_usize(out, m.nodes_lost);
    put_usize(out, m.reexecuted_tasks);
    put_f64(out, m.wasted_s);
    put_usize(out, m.attempt);
    put_u64(out, m.corrupt_blocks_detected);
    put_u64(out, m.refetched_segments);
    put_u64(out, m.skipped_records);
    put_usize(out, m.blacklisted_nodes);
    put_f64(out, m.verify_s);
    put_u64(out, m.checksum_collisions);
    put_u64(out, m.encoded_bytes);
    put_u64(out, m.dict_entries);
    put_u64_vec(out, &m.map_dispatches);
    put_u64_vec(out, &m.reduce_dispatches);
}

fn decode_job_metrics(r: &mut Reader<'_>) -> Parsed<JobMetrics> {
    Ok(JobMetrics {
        name: r.str()?,
        map_time_s: r.f64()?,
        reduce_time_s: r.f64()?,
        startup_delay_s: r.f64()?,
        hdfs_read_bytes: r.u64()?,
        local_spill_bytes: r.u64()?,
        shuffle_bytes: r.u64()?,
        hdfs_write_bytes: r.u64()?,
        map_in_records: r.u64()?,
        map_out_records: r.u64()?,
        out_records: r.u64()?,
        map_tasks: r.usize()?,
        reduce_tasks: r.usize()?,
        failed_attempts: r.usize()?,
        speculative_tasks: r.usize()?,
        speculative_slot_s: r.f64()?,
        nodes_lost: r.usize()?,
        reexecuted_tasks: r.usize()?,
        wasted_s: r.f64()?,
        attempt: r.usize()?,
        corrupt_blocks_detected: r.u64()?,
        refetched_segments: r.u64()?,
        skipped_records: r.u64()?,
        blacklisted_nodes: r.usize()?,
        verify_s: r.f64()?,
        checksum_collisions: r.u64()?,
        encoded_bytes: r.u64()?,
        dict_entries: r.u64()?,
        map_dispatches: r.u64_vec()?,
        reduce_dispatches: r.u64_vec()?,
    })
}

const TAG_ADMITTED: u8 = 1;
const TAG_JOB_DONE: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_JOB_DONE_REF: u8 = 4;

/// How a `JobDone`'s output goes to disk: under its key, with its bytes or
/// as a reference to an equal output the epoch already holds.
struct Placed {
    key: ContentKey,
    by_reference: bool,
}

/// Encodes `rec`; `place` decides how a `JobDone`'s file is written (the
/// other variants carry none and never call it).
fn encode_record(out: &mut Vec<u8>, rec: &JournalRecord, place: impl FnOnce(&FileRef) -> Placed) {
    match rec {
        JournalRecord::Admitted {
            id,
            tenant,
            label,
            seed,
            deadline_s,
            submit_s,
            payload,
        } => {
            put_u8(out, TAG_ADMITTED);
            put_u64(out, *id);
            put_str(out, tenant);
            put_str(out, label);
            put_u64(out, *seed);
            put_opt_f64(out, *deadline_s);
            put_f64(out, *submit_s);
            put_str(out, payload);
        }
        JournalRecord::JobDone {
            id,
            job_index,
            attempt,
            output_path,
            file,
            metrics,
        } => {
            let Placed { key, by_reference } = place(file);
            put_u8(
                out,
                if by_reference {
                    TAG_JOB_DONE_REF
                } else {
                    TAG_JOB_DONE
                },
            );
            put_u64(out, *id);
            put_u32(out, *job_index);
            put_u32(out, *attempt);
            put_str(out, output_path);
            key.encode(out);
            if !by_reference {
                encode_data_file(out, file);
            }
            encode_job_metrics(out, metrics);
        }
        JournalRecord::Done { id, kind, done_s } => {
            put_u8(out, TAG_DONE);
            put_u64(out, *id);
            put_u8(
                out,
                match kind {
                    DispositionKind::Completed => 0,
                    DispositionKind::DeadlineCancelled => 1,
                    DispositionKind::Shed => 2,
                    DispositionKind::Failed => 3,
                },
            );
            put_f64(out, *done_s);
        }
    }
}

/// The outputs one epoch holds, by content key, and what holding them
/// saved. The *first* file written under a key keeps it — on the encode
/// side ([`Journal::append`]) and on the decode side ([`parse`]) alike, so a
/// reference always resolves to the file it was compared with.
#[derive(Debug, Default)]
struct Held {
    files: HashMap<ContentKey, FileRef>,
    /// `JobDone` records written with their bytes.
    stored: u64,
    /// `JobDone` records written as references.
    by_reference: u64,
    /// Output bytes those references did not write again.
    bytes_by_reference: u64,
}

impl Held {
    /// Registers an output written with its bytes; an earlier holder of
    /// the key stays.
    fn store(&mut self, key: ContentKey, file: &FileRef) {
        self.files.entry(key).or_insert_with(|| Arc::clone(file));
        self.stored += 1;
    }

    fn refer(&mut self, key: ContentKey) {
        self.by_reference += 1;
        self.bytes_by_reference += key.bytes;
    }

    /// Decides how `file` goes to disk under `key`. A reference is written
    /// only for a held file that *compared equal* — the same allocation, or
    /// the same bytes; a key shared by different bytes (a checksum
    /// collision) costs an inline copy and leaves the first holder in place.
    fn place(&mut self, key: ContentKey, file: &FileRef) -> Placed {
        let equal = |first: &FileRef| Arc::ptr_eq(first, file) || **first == **file;
        let by_reference = self.files.get(&key).is_some_and(equal);
        if by_reference {
            self.refer(key);
        } else {
            self.store(key, file);
        }
        Placed { key, by_reference }
    }
}

fn decode_record(payload: &[u8], held: &mut Held) -> Parsed<JournalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_ADMITTED => JournalRecord::Admitted {
            id: r.u64()?,
            tenant: r.str()?,
            label: r.str()?,
            seed: r.u64()?,
            deadline_s: r.opt_f64()?,
            submit_s: r.f64()?,
            payload: r.str()?,
        },
        tag @ (TAG_JOB_DONE | TAG_JOB_DONE_REF) => {
            let (id, job_index, attempt) = (r.u64()?, r.u32()?, r.u32()?);
            let output_path = r.str()?;
            let key = ContentKey::decode(&mut r)?;
            let file = if tag == TAG_JOB_DONE {
                let file = decode_data_file(&mut r, key)?;
                held.store(key, &file);
                file
            } else {
                let file = held.files.get(&key).cloned().ok_or_else(|| {
                    format!(
                        "JobDone references content {:016x}/{} that no earlier record holds",
                        key.checksum, key.bytes
                    )
                })?;
                held.refer(key);
                file
            };
            JournalRecord::JobDone {
                id,
                job_index,
                attempt,
                output_path,
                file,
                metrics: Box::new(decode_job_metrics(&mut r)?),
            }
        }
        TAG_DONE => JournalRecord::Done {
            id: r.u64()?,
            kind: match r.u8()? {
                0 => DispositionKind::Completed,
                1 => DispositionKind::DeadlineCancelled,
                2 => DispositionKind::Shed,
                3 => DispositionKind::Failed,
                t => Err(format!("bad DispositionKind tag {t}"))?,
            },
            done_s: r.f64()?,
        },
        t => Err(format!("unknown record tag {t}"))?,
    };
    r.done()?;
    Ok(rec)
}

/// Bytes of a frame's header: the checksum (`u64`), then the payload
/// length (`u32`). The checksum covers the length field *and* the payload —
/// contiguous in the stream right after it — so a flipped length cannot
/// mis-frame the stream undetected.
const FRAME_HEADER: usize = 12;
const FRAME_CHECKSUM: usize = 8;

/// What [`recover`] salvaged from a journal byte stream.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The valid records, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (what the journal should be
    /// truncated to before appending again).
    pub valid_len: usize,
    /// Bytes of torn tail discarded, if any.
    pub truncated_bytes: usize,
}

/// Parses a journal byte stream, truncating a torn tail and refusing
/// mid-stream corruption.
///
/// # Errors
///
/// [`MapRedError::JournalCorrupt`] for a bad magic, or a checksum-failed or
/// undecodable record that is *not* the final frame (a final bad frame is a
/// torn tail and is truncated instead).
pub fn recover(bytes: &[u8]) -> Result<Recovered, MapRedError> {
    parse(bytes).map(|(recovered, _)| recovered)
}

/// [`recover`], also returning what the valid prefix holds — the one walk
/// that feeds both a reopened journal's records and its dedup state.
fn parse(bytes: &[u8]) -> Result<(Recovered, Held), MapRedError> {
    let mut held = Held::default();
    let mut records = Vec::new();
    let valid_len = walk(bytes, &mut records, &mut held)?;
    let recovered = Recovered {
        records,
        valid_len,
        truncated_bytes: bytes.len() - valid_len,
    };
    Ok((recovered, held))
}

/// Walks the frames of `bytes` into `records`, resolving references
/// against `held` as it fills; returns the length of the valid prefix
/// (whatever follows is a torn tail).
fn walk(
    bytes: &[u8],
    records: &mut Vec<JournalRecord>,
    held: &mut Held,
) -> Result<usize, MapRedError> {
    if bytes.len() < JOURNAL_MAGIC.len() {
        // Empty — or a crash during the very first append tore even the
        // magic.
        return Ok(0);
    }
    if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(MapRedError::JournalCorrupt {
            offset: 0,
            reason: "bad journal magic".into(),
        });
    }
    let mut pos = JOURNAL_MAGIC.len();
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        if rem < FRAME_HEADER {
            return Ok(pos);
        }
        // `rem >= FRAME_HEADER` guarantees these slices, but a torn tail is always
        // the safe answer if the header cannot be read — never a panic.
        let (Ok(stored_b), Ok(len_b)) = (
            <[u8; 8]>::try_from(&bytes[pos..pos + FRAME_CHECKSUM]),
            <[u8; 4]>::try_from(&bytes[pos + FRAME_CHECKSUM..pos + FRAME_HEADER]),
        ) else {
            return Ok(pos);
        };
        let stored = u64::from_le_bytes(stored_b);
        let len = u32::from_le_bytes(len_b);
        let Some(payload_end) = (pos + FRAME_HEADER).checked_add(len as usize) else {
            return Ok(pos);
        };
        if payload_end > bytes.len() {
            // The frame claims more bytes than exist: an interrupted append
            // (or a flipped length that points past EOF — indistinguishable
            // from one, and handled the same safe way).
            return Ok(pos);
        }
        let payload = &bytes[pos + FRAME_HEADER..payload_end];
        let last_frame = payload_end == bytes.len();
        if checksum_bytes(&bytes[pos + FRAME_CHECKSUM..payload_end]) != stored {
            if last_frame {
                return Ok(pos);
            }
            return Err(MapRedError::JournalCorrupt {
                offset: pos,
                reason: "record checksum mismatch".into(),
            });
        }
        match decode_record(payload, held) {
            Ok(rec) => records.push(rec),
            Err(reason) => {
                return Err(MapRedError::JournalCorrupt {
                    offset: pos,
                    reason,
                })
            }
        }
        pos = payload_end;
    }
    Ok(pos)
}

/// The append-only workload journal: an in-memory byte buffer, optionally
/// mirrored to a file on [`Journal::flush`].
///
/// The buffer *is* the durable state: simulated crash tests snapshot
/// [`Journal::bytes`] at arbitrary prefixes (an append-only file's content
/// at any instant is a prefix of its final content) and recover from the
/// truncation, torn tails included.
#[derive(Debug)]
pub struct Journal {
    bytes: Vec<u8>,
    path: Option<PathBuf>,
    /// Length already persisted to `path`.
    synced: usize,
    records: usize,
    /// The outputs the current epoch's bytes hold — what a later equal
    /// `JobDone` is written as a reference to.
    held: Held,
    /// What opening over existing (sound) bytes parsed, kept until the
    /// first [`Journal::recover_and_reset`] takes it or an append outdates
    /// it.
    loaded: Option<Recovered>,
}

impl Journal {
    /// A journal with no file backing — the durable bytes live in
    /// [`Journal::bytes`] (tests and benches snapshot them directly).
    #[must_use]
    pub fn in_memory() -> Self {
        Journal {
            bytes: JOURNAL_MAGIC.to_vec(),
            path: None,
            synced: 0,
            records: 0,
            held: Held::default(),
            loaded: None,
        }
    }

    /// A journal re-opened over previously-written bytes (e.g. a snapshot
    /// taken before a simulated crash). The bytes are parsed once, here:
    /// [`Journal::recover_and_reset`] hands that parse out, and appending
    /// without a reset goes on deduplicating against what the bytes hold.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        // Corrupt bytes open as an empty state; `recover_and_reset` (or
        // `recover`) is where the typed error surfaces.
        let (loaded, held) =
            parse(&bytes).map_or_else(|_| (None, Held::default()), |(r, h)| (Some(r), h));
        Journal {
            records: loaded.as_ref().map_or(0, |r| r.records.len()),
            bytes,
            path: None,
            synced: 0,
            held,
            loaded,
        }
    }

    /// Opens (or creates) a file-backed journal, loading any existing
    /// bytes as [`Journal::from_bytes`] does.
    ///
    /// # Errors
    ///
    /// I/O failures reading the existing file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(b) if !b.is_empty() => b,
            Ok(_) => JOURNAL_MAGIC.to_vec(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => JOURNAL_MAGIC.to_vec(),
            Err(e) => return Err(e),
        };
        Ok(Journal {
            path: Some(path),
            ..Journal::from_bytes(bytes)
        })
    }

    /// The journal's bytes as written so far (magic included).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Records appended (or recovered) so far.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// `JobDone` outputs this epoch wrote with their bytes.
    #[must_use]
    pub fn outputs_stored(&self) -> u64 {
        self.held.stored
    }

    /// `JobDone` outputs this epoch wrote as references to equal content it
    /// already held, and the output bytes that saved writing again.
    #[must_use]
    pub fn outputs_by_reference(&self) -> (u64, u64) {
        (self.held.by_reference, self.held.bytes_by_reference)
    }

    /// Recovers the journal's current bytes and resets it to a fresh epoch
    /// (magic only, nothing held): the service calls this on restart,
    /// replays the returned records, and the replay re-journals them into
    /// the new epoch — so a second crash recovers just as well.
    ///
    /// # Errors
    ///
    /// [`MapRedError::JournalCorrupt`] as from [`recover`].
    pub fn recover_and_reset(&mut self) -> Result<Recovered, MapRedError> {
        let recovered = match self.loaded.take() {
            Some(loaded) => loaded,
            None => recover(&self.bytes)?,
        };
        self.bytes = JOURNAL_MAGIC.to_vec();
        self.synced = 0;
        self.records = 0;
        self.held = Held::default();
        Ok(recovered)
    }

    /// Appends one record to the in-memory buffer ([`Journal::flush`]
    /// persists it). A `JobDone` whose output equals one the epoch already
    /// holds is written as a reference to it.
    pub fn append(&mut self, rec: &JournalRecord) {
        self.append_keyed(rec, ContentKey::of);
    }

    /// [`Journal::append`] with the function that keys a `JobDone`'s output
    /// — tests force a key collision through here.
    fn append_keyed(&mut self, rec: &JournalRecord, key: impl FnOnce(&SharedFile) -> ContentKey) {
        self.loaded = None;
        // Encode in place behind a reserved header, then fill the header
        // in: an inline `JobDone` payload holds a whole job output and is
        // not worth copying to frame it.
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; FRAME_HEADER]);
        let held = &mut self.held;
        encode_record(&mut self.bytes, rec, |file| held.place(key(file), file));
        let len = (self.bytes.len() - start - FRAME_HEADER) as u32;
        self.bytes[start + FRAME_CHECKSUM..start + FRAME_HEADER]
            .copy_from_slice(&len.to_le_bytes());
        let checksum = checksum_bytes(&self.bytes[start + FRAME_CHECKSUM..]);
        self.bytes[start..start + FRAME_CHECKSUM].copy_from_slice(&checksum.to_le_bytes());
        self.records += 1;
    }

    /// Persists unsynced bytes to the backing file, if any. In-memory
    /// journals are a no-op (their buffer is the durable state).
    ///
    /// # Errors
    ///
    /// I/O failures writing the file.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if self.synced == 0 {
            // First flush of this epoch replaces the whole file, which also
            // drops any torn tail or stale previous epoch — written aside
            // and renamed over it, so a process killed mid-write leaves the
            // previous epoch's file (its only copy) intact.
            let mut tmp = path.clone().into_os_string();
            tmp.push(".tmp");
            std::fs::write(&tmp, &self.bytes)?;
            std::fs::rename(&tmp, path)?;
        } else if self.synced < self.bytes.len() {
            let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
            f.write_all(&self.bytes[self.synced..])?;
        }
        self.synced = self.bytes.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Admitted {
                id: 0,
                tenant: "alpha".into(),
                label: "t0/q17#0".into(),
                seed: 0xDEAD_BEEF,
                deadline_s: Some(1234.5),
                submit_s: 0.25,
                payload: "SELECT cid, count(*) FROM clicks GROUP BY cid".into(),
            },
            JournalRecord::JobDone {
                id: 0,
                job_index: 0,
                attempt: 2,
                output_path: "tmp/q17-0".into(),
                file: DataFile {
                    lines: vec!["1|2".into(), "3|4".into()],
                    frames: Vec::new(),
                }
                .into(),
                metrics: Box::new(JobMetrics {
                    name: "j0".into(),
                    map_time_s: 1.5,
                    reduce_time_s: 0.5,
                    attempt: 2,
                    map_dispatches: vec![3, 4],
                    ..JobMetrics::default()
                }),
            },
            JournalRecord::JobDone {
                id: 1,
                job_index: 1,
                attempt: 0,
                output_path: "out/q17".into(),
                file: DataFile {
                    lines: Vec::new(),
                    frames: vec![vec![1, 2, 3], vec![4, 5]],
                }
                .into(),
                metrics: Box::default(),
            },
            JournalRecord::Done {
                id: 0,
                kind: DispositionKind::Completed,
                done_s: 99.75,
            },
            JournalRecord::Done {
                id: 1,
                kind: DispositionKind::Shed,
                done_s: 2.0,
            },
        ]
    }

    fn journal_of(records: &[JournalRecord]) -> Journal {
        let mut j = Journal::in_memory();
        for r in records {
            j.append(r);
        }
        j
    }

    #[test]
    fn roundtrip_all_record_types() {
        let records = sample_records();
        let j = journal_of(&records);
        let rec = recover(j.bytes()).unwrap();
        assert_eq!(rec.records, records);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.valid_len, j.bytes().len());
        assert_eq!(j.record_count(), records.len());
    }

    #[test]
    fn empty_journal_recovers_empty() {
        let rec = recover(&[]).unwrap();
        assert!(rec.records.is_empty());
        let rec = recover(Journal::in_memory().bytes()).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn every_truncation_point_recovers_a_prefix() {
        // The crash model: a killed process leaves an arbitrary byte prefix
        // of its append-only journal. Every prefix must recover cleanly to
        // a record-prefix, never panic, never error — a torn tail is
        // normal, not corruption.
        let records = sample_records();
        let j = journal_of(&records);
        let bytes = j.bytes();
        // Record boundaries, to validate the prefix property exactly.
        let mut boundaries = vec![JOURNAL_MAGIC.len()];
        {
            let mut probe = Journal::in_memory();
            for r in &records {
                probe.append(r);
                boundaries.push(probe.bytes().len());
            }
        }
        for cut in 0..=bytes.len() {
            let rec = recover(&bytes[..cut]).unwrap_or_else(|e| {
                panic!(
                    "cut {cut}/{}: torn prefix must recover, got {e}",
                    bytes.len()
                )
            });
            if cut < JOURNAL_MAGIC.len() {
                // Even the magic can tear on the very first append.
                assert!(rec.records.is_empty());
                assert_eq!(rec.valid_len, 0);
                continue;
            }
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                rec.records.len(),
                whole,
                "cut {cut}: recovered records must be exactly the whole ones"
            );
            assert_eq!(rec.records[..], records[..whole]);
            assert_eq!(rec.valid_len, boundaries[whole]);
        }
    }

    #[test]
    fn mid_stream_corruption_is_typed_not_a_panic() {
        let records = sample_records();
        let j = journal_of(&records);
        let clean = j.bytes().to_vec();
        // Flip every byte (one at a time) of the *first* record's frame:
        // always followed by more data, so never classifiable as torn.
        let first_end = {
            let mut probe = Journal::in_memory();
            probe.append(&records[0]);
            probe.bytes().len()
        };
        let mut corrupt_seen = 0;
        for i in JOURNAL_MAGIC.len()..first_end {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            match recover(&bad) {
                Err(MapRedError::JournalCorrupt { .. }) => corrupt_seen += 1,
                // A flipped length field can point past EOF, which is
                // indistinguishable from a torn tail; that prefix loss is
                // safe (never wrong data), just not typed corruption.
                Ok(rec) => assert!(rec.records.len() < records.len()),
                Err(other) => panic!("flip at {i}: unexpected error {other}"),
            }
        }
        assert!(
            corrupt_seen > 0,
            "some flips must surface as JournalCorrupt"
        );
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = journal_of(&sample_records()).bytes().to_vec();
        bytes[0] = b'Z';
        assert!(matches!(
            recover(&bytes),
            Err(MapRedError::JournalCorrupt { offset: 0, .. })
        ));
        // The previous layout's files are refused the same way, not
        // misread: their `JobDone` records carry no content key.
        bytes[..8].copy_from_slice(b"YSJRNL01");
        assert!(matches!(
            recover(&bytes),
            Err(MapRedError::JournalCorrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn metrics_survive_bit_identically() {
        // Awkward floats: negative zero, subnormals, values with no short
        // decimal form. to_bits round-tripping must preserve all of them.
        let m = JobMetrics {
            name: "bits".into(),
            map_time_s: -0.0,
            reduce_time_s: f64::MIN_POSITIVE / 2.0,
            startup_delay_s: 0.1 + 0.2,
            wasted_s: 1e-300,
            verify_s: 12_345.678_901_234_567,
            speculative_slot_s: f64::MAX,
            ..JobMetrics::default()
        };
        let rec = JournalRecord::JobDone {
            id: 7,
            job_index: 3,
            attempt: 1,
            output_path: "x".into(),
            file: DataFile::default().into(),
            metrics: Box::new(m.clone()),
        };
        let j = journal_of(std::slice::from_ref(&rec));
        let back = recover(j.bytes()).unwrap().records;
        let JournalRecord::JobDone { metrics, .. } = &back[0] else {
            panic!("wrong record type");
        };
        assert_eq!(
            metrics.map_time_s.to_bits(),
            m.map_time_s.to_bits(),
            "-0.0 must stay -0.0"
        );
        assert_eq!(metrics.as_ref(), &m);
    }

    #[test]
    fn file_backed_journal_flushes_and_reopens() {
        let dir = std::env::temp_dir().join(format!("ysmart-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.bin");
        let records = sample_records();
        {
            let mut j = Journal::open(&path).unwrap();
            for r in &records[..3] {
                j.append(r);
            }
            j.flush().unwrap();
            for r in &records[3..] {
                j.append(r);
            }
            j.flush().unwrap();
        }
        let j = Journal::open(&path).unwrap();
        let rec = recover(j.bytes()).unwrap();
        assert_eq!(rec.records, records);
        let left_behind: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(left_behind.len(), 1, "only the journal: {left_behind:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_and_reset_starts_a_fresh_epoch() {
        let mut j = journal_of(&sample_records());
        let rec = j.recover_and_reset().unwrap();
        assert_eq!(rec.records.len(), 5);
        assert_eq!(j.bytes(), JOURNAL_MAGIC);
        assert_eq!(j.record_count(), 0);
    }

    // ---- outputs stored once per epoch ----------------------------------

    fn text(lines: &[&str]) -> DataFile {
        DataFile {
            lines: lines.iter().map(|l| (*l).to_string()).collect(),
            frames: Vec::new(),
        }
    }

    fn job_done(id: u64, file: FileRef) -> JournalRecord {
        JournalRecord::JobDone {
            id,
            job_index: id as u32 % 3,
            attempt: 0,
            output_path: format!("tmp/svc-q{id}-0"),
            file,
            metrics: Box::new(JobMetrics {
                name: format!("j{id}"),
                ..JobMetrics::default()
            }),
        }
    }

    fn file_of(rec: &JournalRecord) -> Option<&FileRef> {
        match rec {
            JournalRecord::JobDone { file, .. } => Some(file),
            _ => None,
        }
    }

    /// Every pair of `JobDone`s with equal content holds one allocation,
    /// and no two with different content do.
    fn assert_shared_iff_equal(records: &[JournalRecord], what: &str) {
        let files: Vec<&FileRef> = records.iter().filter_map(file_of).collect();
        for (i, a) in files.iter().enumerate() {
            for b in &files[..i] {
                assert_eq!(Arc::ptr_eq(a, b), ***a == ***b, "{what}");
            }
        }
    }

    /// Byte offsets of the frames in a journal image, magic excluded.
    fn frames_of(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut at = JOURNAL_MAGIC.len();
        let mut out = Vec::new();
        while at < bytes.len() {
            let len_at = at + FRAME_CHECKSUM;
            let len = u32::from_le_bytes(bytes[len_at..len_at + 4].try_into().unwrap()) as usize;
            out.push(at..at + FRAME_HEADER + len);
            at += FRAME_HEADER + len;
        }
        out
    }

    /// A frame's bytes with `edit` applied to its payload and the frame
    /// checksum recomputed — damage a frame check cannot see.
    fn reframed(frame: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = frame.to_vec();
        edit(&mut out[FRAME_HEADER..]);
        let sum = checksum_bytes(&out[FRAME_CHECKSUM..]);
        out[..FRAME_CHECKSUM].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Offset of the content key inside a `JobDone` payload.
    fn key_offset(rec: &JournalRecord) -> usize {
        let JournalRecord::JobDone { output_path, .. } = rec else {
            panic!("not a JobDone");
        };
        1 + 8 + 4 + 4 + 4 + output_path.len()
    }

    #[test]
    fn seeded_streams_store_each_output_once_and_recover_at_every_cut() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Repeated, near-equal (same length, one byte changed) and empty
        // outputs, text and columnar (frames are opaque bytes here).
        let pool = [
            DataFile::default(),
            text(&["1|alpha", "2|beta", "3|gamma"]),
            text(&["1|alpha", "2|bexa", "3|gamma"]),
            text(&["9|z"]),
            DataFile {
                lines: Vec::new(),
                frames: vec![vec![7; 40], vec![1, 2, 3]],
            },
            DataFile {
                lines: Vec::new(),
                frames: vec![vec![7; 40], vec![1, 2, 4]],
            },
        ];
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // A repeat arrives as the handle seen before (what a cache hit
            // or a replay commits) or as an equal copy (a re-execution).
            let mut handles: Vec<Option<FileRef>> = vec![None; pool.len()];
            let mut records = Vec::new();
            let mut distinct = std::collections::BTreeSet::new();
            let mut repeats = 0u64;
            for id in 0..30u64 {
                match rng.gen_range(0..4) {
                    0 => records.push(sample_records()[0].clone()),
                    1 => records.push(JournalRecord::Done {
                        id,
                        kind: DispositionKind::Completed,
                        done_s: id as f64,
                    }),
                    _ => {
                        let pick = rng.gen_range(0..pool.len());
                        let file = match &handles[pick] {
                            Some(seen) if rng.gen() => Arc::clone(seen),
                            _ => FileRef::from(pool[pick].clone()),
                        };
                        repeats += u64::from(!distinct.insert(pick));
                        handles[pick] = Some(Arc::clone(&file));
                        records.push(job_done(id, file));
                    }
                }
            }
            let mut journal = Journal::in_memory();
            let mut boundaries = vec![journal.bytes().len()];
            for r in &records {
                journal.append(r);
                boundaries.push(journal.bytes().len());
            }
            assert_eq!(journal.outputs_stored(), distinct.len() as u64);
            assert_eq!(journal.outputs_by_reference().0, repeats, "seed {seed}");

            let whole = recover(journal.bytes()).unwrap();
            assert_eq!(whole.records, records, "seed {seed}");
            assert_shared_iff_equal(&whole.records, "whole stream");

            // Any byte prefix that contains a reference contains its
            // content: every cut recovers exactly its whole records, with
            // every reference among them resolved.
            let bytes = journal.bytes();
            for cut in JOURNAL_MAGIC.len()..=bytes.len() {
                let got =
                    recover(&bytes[..cut]).unwrap_or_else(|e| panic!("seed {seed} cut {cut}: {e}"));
                let n = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                assert_eq!(got.records[..], records[..n], "seed {seed} cut {cut}");
                assert_eq!(got.valid_len, boundaries[n]);
                assert_shared_iff_equal(&got.records, "prefix");
            }
        }
    }

    #[test]
    fn reference_without_earlier_content_is_corrupt() {
        let shared = FileRef::from(text(&["1|2", "3|4"]));
        let records = [
            job_done(0, Arc::clone(&shared)),
            job_done(1, Arc::clone(&shared)),
            job_done(2, Arc::clone(&shared)),
        ];
        let journal = journal_of(&records);
        assert_eq!(journal.outputs_by_reference(), (2, 2 * shared.bytes()));
        let bytes = journal.bytes();
        let frames = frames_of(bytes);
        let image = |parts: &[&[u8]]| [&JOURNAL_MAGIC[..], &parts.concat()].concat();
        let corrupt_at = |image: &[u8], offset: usize| match recover(image) {
            Err(MapRedError::JournalCorrupt { offset: at, reason }) => {
                assert_eq!(at, offset, "{reason}");
                assert!(reason.contains("no earlier record holds"), "{reason}");
            }
            other => panic!("expected JournalCorrupt, got {other:?}"),
        };
        let (content, reference) = (&bytes[frames[0].clone()], &bytes[frames[1].clone()]);

        // A forged stream: the reference ahead of its content — also as the
        // final frame, where a failed checksum would have been a torn tail.
        corrupt_at(&image(&[reference, content]), JOURNAL_MAGIC.len());
        corrupt_at(&image(&[reference]), JOURNAL_MAGIC.len());

        // A reference whose key was flipped and the frame re-checksummed
        // names content nobody holds.
        let flipped = reframed(reference, |p| p[key_offset(&records[1])] ^= 1);
        corrupt_at(&image(&[content, &flipped]), frames[1].start);

        // The same flip in the content's own key: the next reference to
        // the true key finds nothing; a flipped length is caught at once.
        let flipped = reframed(content, |p| p[key_offset(&records[0])] ^= 1);
        corrupt_at(&image(&[&flipped, reference]), frames[1].start);
        let flipped = reframed(content, |p| p[key_offset(&records[0]) + 8] ^= 1);
        assert!(matches!(
            recover(&image(&[&flipped, reference])),
            Err(MapRedError::JournalCorrupt { offset: 8, .. })
        ));
    }

    #[test]
    fn colliding_keys_are_written_inline_and_restore_their_own_bytes() {
        // Two different outputs forced under one key (same length, as a
        // real collision would have): never a reference between them.
        let a = FileRef::from(text(&["1|alpha"]));
        let b = FileRef::from(text(&["1|alpha".replace('l', "L").as_str()]));
        let key = ContentKey::of(&a);
        assert_eq!(key.bytes, b.bytes());
        let records = [
            job_done(0, Arc::clone(&a)),
            job_done(1, Arc::clone(&b)),
            job_done(2, FileRef::from((**b).clone())),
            job_done(3, FileRef::from((**a).clone())),
        ];
        let mut journal = Journal::in_memory();
        for r in &records {
            journal.append_keyed(r, |_| key);
        }
        // `a` holds the key from first to last: both `b`s cost an inline
        // copy, the second `a` is a reference.
        assert_eq!(journal.outputs_stored(), 3);
        assert_eq!(journal.outputs_by_reference(), (1, a.bytes()));
        let back = recover(journal.bytes()).unwrap().records;
        assert_eq!(back[..], records[..]);
        let files: Vec<&FileRef> = back.iter().filter_map(file_of).collect();
        assert!(Arc::ptr_eq(files[0], files[3]));
        assert!(
            !Arc::ptr_eq(files[1], files[2]),
            "never shared on a key alone"
        );
    }

    #[test]
    fn reopened_journal_parses_once_and_keeps_deduplicating() {
        let dir = std::env::temp_dir().join(format!("ysmart-journal-dedup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.bin");
        let big: Vec<String> = (0..200).map(|i| format!("{i}|payload-{i}")).collect();
        let output = || {
            FileRef::from(DataFile {
                lines: big.clone(),
                frames: Vec::new(),
            })
        };
        let one_inline = {
            let mut j = Journal::open(&path).unwrap();
            j.append(&job_done(0, output()));
            j.flush().unwrap();
            j.bytes().len()
        };
        // Reopen and go on appending *without* a reset: what the file holds
        // is still what an equal output is referenced to.
        let mut j = Journal::open(&path).unwrap();
        assert_eq!((j.record_count(), j.outputs_stored()), (1, 1));
        j.append(&job_done(1, output()));
        j.flush().unwrap();
        assert_eq!(j.outputs_by_reference(), (1, output().bytes()));
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk, j.bytes());
        assert!(
            on_disk.len() < one_inline * 3 / 2,
            "{} bytes",
            on_disk.len()
        );
        let back = recover(&on_disk).unwrap().records;
        assert_eq!(back.len(), 2);
        assert!(Arc::ptr_eq(
            file_of(&back[0]).unwrap(),
            file_of(&back[1]).unwrap()
        ));

        // The reset hands out the parse `from_bytes` did, or — once an
        // append has outdated it — a fresh one; either way everything
        // written so far, and the new epoch holds nothing.
        let mut reopened = Journal::from_bytes(on_disk.clone());
        assert_eq!(reopened.recover_and_reset().unwrap().records, back);
        let mut appended = Journal::from_bytes(on_disk);
        appended.append(&job_done(2, output()));
        assert_eq!(appended.outputs_by_reference().0, 2);
        assert_eq!(appended.recover_and_reset().unwrap().records.len(), 3);
        assert_eq!((appended.outputs_stored(), appended.record_count()), (0, 0));
        appended.append(&job_done(3, output()));
        assert_eq!(
            appended.outputs_stored(),
            1,
            "a fresh epoch stores it again"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
