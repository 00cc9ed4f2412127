//! Durable workload journal: a checksummed append-only WAL that makes the
//! multi-tenant scheduler crash-safe.
//!
//! The paper's whole argument is *fewer jobs per query*; a long-running
//! service built on it dies a different death — the process crashes with a
//! workload in flight, and every partially-completed chain's finished jobs
//! are lost with the in-memory cluster. ReStore (PAPERS.md) observes that
//! per-job outputs materialized in HDFS are exactly the reuse primitive;
//! this module uses that primitive for *restart safety*: every admitted
//! query, every committed job (with its materialized output bytes), and
//! every terminal disposition is appended to the journal, so a restarted
//! process can replay the workload deterministically, fast-forwarding
//! already-journaled jobs instead of re-executing them.
//!
//! # Record framing
//!
//! The journal is a byte stream: an 8-byte magic, then records framed as
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
//! # Recovery
//!
//! [`recover`] walks the frames front to back:
//!
//! * a record that does not fit in the remaining bytes, or whose final
//!   frame fails its checksum, is a **torn tail** — the interrupted last
//!   append of a crashed process. It is truncated away and everything
//!   before it is recovered;
//! * a checksum mismatch or undecodable payload *followed by more data* is
//!   at-rest corruption, surfaced as the typed
//!   [`MapRedError::JournalCorrupt`] instead of a panic or a guess.

use std::io::Write as _;
use std::path::PathBuf;

use crate::error::MapRedError;
use crate::hash::checksum_bytes;
use crate::hdfs::DataFile;
use crate::metrics::JobMetrics;

/// Leading magic of every journal file (version suffix `01`).
pub const JOURNAL_MAGIC: &[u8; 8] = b"YSJRNL01";

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
    /// Shed at admission or during drain; nothing ran.
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
    /// materialized output bytes so a restarted process can restore the
    /// file into the (rebuilt, in-memory) HDFS and resume the chain from
    /// here instead of re-running the job.
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
        file: DataFile,
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

fn decode_data_file(r: &mut Reader<'_>) -> Parsed<DataFile> {
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
    Ok(file)
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

fn encode_record(out: &mut Vec<u8>, rec: &JournalRecord) {
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
            put_u8(out, TAG_JOB_DONE);
            put_u64(out, *id);
            put_u32(out, *job_index);
            put_u32(out, *attempt);
            put_str(out, output_path);
            encode_data_file(out, file);
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

fn decode_record(payload: &[u8]) -> Parsed<JournalRecord> {
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
        TAG_JOB_DONE => JournalRecord::JobDone {
            id: r.u64()?,
            job_index: r.u32()?,
            attempt: r.u32()?,
            output_path: r.str()?,
            file: decode_data_file(&mut r)?,
            metrics: Box::new(decode_job_metrics(&mut r)?),
        },
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
    let torn = |records, valid_len: usize| Recovered {
        records,
        valid_len,
        truncated_bytes: bytes.len() - valid_len,
    };
    if bytes.is_empty() {
        return Ok(torn(Vec::new(), 0));
    }
    if bytes.len() < JOURNAL_MAGIC.len() {
        // A crash during the very first append can tear even the magic.
        return Ok(torn(Vec::new(), 0));
    }
    if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(MapRedError::JournalCorrupt {
            offset: 0,
            reason: "bad journal magic".into(),
        });
    }
    let mut pos = JOURNAL_MAGIC.len();
    let mut records = Vec::new();
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        if rem < FRAME_HEADER {
            return Ok(torn(records, pos));
        }
        // `rem >= FRAME_HEADER` guarantees these slices, but a torn tail is always
        // the safe answer if the header cannot be read — never a panic.
        let (Ok(stored_b), Ok(len_b)) = (
            <[u8; 8]>::try_from(&bytes[pos..pos + FRAME_CHECKSUM]),
            <[u8; 4]>::try_from(&bytes[pos + FRAME_CHECKSUM..pos + FRAME_HEADER]),
        ) else {
            return Ok(torn(records, pos));
        };
        let stored = u64::from_le_bytes(stored_b);
        let len = u32::from_le_bytes(len_b);
        let Some(payload_end) = (pos + FRAME_HEADER).checked_add(len as usize) else {
            return Ok(torn(records, pos));
        };
        if payload_end > bytes.len() {
            // The frame claims more bytes than exist: an interrupted append
            // (or a flipped length that points past EOF — indistinguishable
            // from one, and handled the same safe way).
            return Ok(torn(records, pos));
        }
        let payload = &bytes[pos + FRAME_HEADER..payload_end];
        let last_frame = payload_end == bytes.len();
        if checksum_bytes(&bytes[pos + FRAME_CHECKSUM..payload_end]) != stored {
            if last_frame {
                return Ok(torn(records, pos));
            }
            return Err(MapRedError::JournalCorrupt {
                offset: pos,
                reason: "record checksum mismatch".into(),
            });
        }
        match decode_record(payload) {
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
    Ok(Recovered {
        records,
        valid_len: pos,
        truncated_bytes: 0,
    })
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
        }
    }

    /// A journal re-opened over previously-written bytes (e.g. a snapshot
    /// taken before a simulated crash). Call [`recover`] on
    /// [`Journal::bytes`] — or use [`Journal::recover_and_reset`] — before
    /// appending.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let records = recover(&bytes).map_or(0, |r| r.records.len());
        Journal {
            bytes,
            path: None,
            synced: 0,
            records,
        }
    }

    /// Opens (or creates) a file-backed journal, loading any existing
    /// bytes.
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
        let records = recover(&bytes).map_or(0, |r| r.records.len());
        Ok(Journal {
            bytes,
            path: Some(path),
            synced: 0,
            records,
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

    /// Recovers the journal's current bytes and resets it to a fresh epoch
    /// (magic only): the service calls this on restart, replays the
    /// returned records, and the replay re-journals them into the new
    /// epoch — so a second crash recovers just as well.
    ///
    /// # Errors
    ///
    /// [`MapRedError::JournalCorrupt`] as from [`recover`].
    pub fn recover_and_reset(&mut self) -> Result<Recovered, MapRedError> {
        let recovered = recover(&self.bytes)?;
        self.bytes = JOURNAL_MAGIC.to_vec();
        self.synced = 0;
        self.records = 0;
        Ok(recovered)
    }

    /// Appends one record to the in-memory buffer ([`Journal::flush`]
    /// persists it).
    pub fn append(&mut self, rec: &JournalRecord) {
        // Encode in place behind a reserved header, then fill the header
        // in: a `JobDone` payload inlines a whole job output and is not
        // worth copying to frame it.
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; FRAME_HEADER]);
        encode_record(&mut self.bytes, rec);
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
                },
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
                },
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
            file: DataFile::default(),
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
}
