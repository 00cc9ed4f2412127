//! A seeded property of a task's output: whatever mix of writers filled a
//! reducer's records, the engine packs them to exactly what the row packer
//! it replaced wrote — the same frames byte for byte and dictionary count,
//! the same text lines, the same typed error.
//!
//! A case draws a sequence of writes into one reduce task's
//! [`ReduceOutput`] — [`ReduceOutput::emit_row`],
//! [`ReduceOutput::emit_tagged_row`] and [`ReduceOutput::emit_columns`] in
//! any mix of runs — over columns mixing `Int`, `Float`, `Str`, `Bool` and
//! NULL: tagged and untagged records, records of differing widths, columns
//! that are NULL for a frame's worth of records and typed after, `Int(7)`
//! beside `Float(7.0)`, strings repeated across writes (so a column's
//! dictionary lists one twice), strings holding the field separator or a
//! line break, non-finite floats through `emit_row`, and record counts
//! around [`DEFAULT_FRAME_ROWS`]. A typed write reads its rows out of order
//! from source columns holding other cells too. The task runs under both
//! data formats, and its output file (and the job's `dict_entries`, or its
//! error) must equal the reference kept here: the records as rows — a tag
//! as the leading `Int` cell — cut into frames of [`DEFAULT_FRAME_ROWS`]
//! by [`ColumnBatch::from_cells`], or rendered a line each by
//! [`encode_cells_into`] behind `tag|`, a string holding the separator or a
//! line break failing the job.
//!
//! `cargo test -p ysmart-mapred --test output` runs 400 cases; the ignored
//! soak runs 50 000 (`-- --include-ignored`, in release). A failing case
//! names its seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_mapred::{
    run_job, Cluster, ClusterConfig, DataFormat, JobSpec, MapOutput, Mapper, ReduceOutput, Reducer,
};
use ysmart_rel::codec::{encode_cells_into, SEPARATOR};
use ysmart_rel::colbatch::DEFAULT_FRAME_ROWS;
use ysmart_rel::{row, Column, ColumnBatch, Row, Value};

/// One write into a [`ReduceOutput`].
#[derive(Debug, Clone)]
enum Write {
    /// `emit_row`, or with a tag `emit_tagged_row`.
    Row(Option<i64>, Row),
    /// `emit_columns`: rows `rows` of `cols`, behind `tags` when given.
    Columns {
        cols: Vec<Column>,
        rows: Vec<usize>,
        tags: Option<Vec<i64>>,
    },
}

impl Write {
    fn apply(&self, out: &mut ReduceOutput) {
        match self {
            Write::Row(None, row) => out.emit_row(row.clone()),
            Write::Row(Some(tag), row) => out.emit_tagged_row(*tag, row.clone()),
            Write::Columns { cols, rows, tags } => {
                let cols: Vec<&Column> = cols.iter().collect();
                out.emit_columns(rows, tags.as_deref(), &cols);
            }
        }
    }

    /// The records written, each as its row: the tag, when there is one,
    /// then the cells.
    fn rows(&self) -> Vec<(Option<i64>, Vec<Value>)> {
        match self {
            Write::Row(tag, row) => vec![(*tag, row.values().to_vec())],
            Write::Columns { cols, rows, tags } => rows
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let tag = tags.as_ref().map(|tags| tags[i]);
                    (tag, cols.iter().map(|col| col.value(r)).collect())
                })
                .collect(),
        }
    }
}

/// What a column position of a case holds: one type, a mix, or NULLs up to
/// record `from` and one type after.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Str,
    Bool,
    Mixed,
    NullUntil { from: usize, then: Then },
}

#[derive(Debug, Clone, Copy)]
enum Then {
    Float,
    Str,
}

struct Gen {
    rng: StdRng,
    /// Whether strings may hold the separator or a line break.
    separators: bool,
    /// Whether `emit_row` may write `inf` and `NaN`.
    non_finite: bool,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }

    /// A record count: a few, around one or two frames' worth, or any.
    fn count(&mut self) -> usize {
        let frame = DEFAULT_FRAME_ROWS;
        match self.below(4) {
            0 => self.below(40),
            1 => frame - 2 + self.below(5),
            2 => 2 * frame - 1 + self.below(3),
            _ => self.below(3 * frame),
        }
    }

    fn kind(&mut self, n: usize) -> Kind {
        match self.below(7) {
            0 => Kind::Int,
            1 => Kind::Float,
            2 => Kind::Str,
            3 => Kind::Bool,
            4 => Kind::Mixed,
            _ => Kind::NullUntil {
                // All NULL in the first frame, or up to anywhere.
                from: if self.chance(0.5) {
                    DEFAULT_FRAME_ROWS
                } else {
                    self.below(n + 1)
                },
                then: if self.chance(0.5) {
                    Then::Float
                } else {
                    Then::Str
                },
            },
        }
    }

    /// A cell of `kind` in record `r`, NULL one time in eight. The pools
    /// are small, so strings repeat and `7` meets `7.0`.
    fn cell(&mut self, kind: Kind, r: usize) -> Value {
        if self.chance(0.125) {
            return Value::Null;
        }
        match kind {
            Kind::Int => Value::Int(self.pick(&[-3, -1, 0, 1, 2, 7])),
            Kind::Float => Value::Float(self.pick(&[-1.5, -0.0, 0.0, 0.5, 2.0, 7.0])),
            Kind::Str if self.separators && self.chance(0.002) => {
                Value::Str(self.pick(&["a|b", "x\ny", "|"]).to_string())
            }
            Kind::Str => Value::Str(self.pick(&["", "a", "ab", "b", "7", "zz"]).to_string()),
            Kind::Bool => Value::Bool(self.chance(0.5)),
            Kind::Mixed => {
                let kind = self.pick(&[Kind::Int, Kind::Float, Kind::Str, Kind::Bool]);
                self.cell(kind, r)
            }
            Kind::NullUntil { from, .. } if r < from => Value::Null,
            Kind::NullUntil {
                then: Then::Float, ..
            } => self.cell(Kind::Float, r),
            Kind::NullUntil {
                then: Then::Str, ..
            } => self.cell(Kind::Str, r),
        }
    }

    /// A case's writes. Most cases keep one width and one tagging; the rest
    /// draw them per run of records.
    fn writes(&mut self) -> Vec<Write> {
        let n = self.count();
        let kinds: Vec<Kind> = (0..5).map(|_| self.kind(n)).collect();
        let ragged = self.chance(0.2);
        // Tagging: none, every record, or drawn per run.
        let tagging = self.below(3);
        let fixed_width = 1 + self.below(4);
        let mut writes = Vec::new();
        let mut r = 0;
        while r < n {
            let len = match self.below(3) {
                0 => 1 + self.below(8),
                1 => 1 + self.below(300),
                _ => 1 + self.below(1500),
            }
            .min(n - r);
            let width = if ragged { self.below(5) } else { fixed_width };
            let tagged = match tagging {
                0 => false,
                1 => true,
                _ => self.chance(0.5),
            };
            if self.chance(0.4) {
                for k in r..r + len {
                    let width = if ragged && self.chance(0.1) {
                        self.below(5)
                    } else {
                        width
                    };
                    let tag = tagged.then(|| self.below(3) as i64);
                    let cells = (0..width).map(|c| self.row_cell(kinds[c], k)).collect();
                    writes.push(Write::Row(tag, Row::new(cells)));
                }
            } else {
                writes.push(self.columns(&kinds[..width], r..r + len, tagged));
            }
            r += len;
        }
        writes
    }

    /// A cell written through `emit_row`: may be non-finite.
    fn row_cell(&mut self, kind: Kind, r: usize) -> Value {
        match self.cell(kind, r) {
            Value::Float(_) if self.non_finite && self.chance(0.001) => {
                Value::Float(self.pick(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]))
            }
            v => v,
        }
    }

    /// A typed write of records `records`: each record's cells at a random
    /// row of source columns that also hold other cells, of any kind.
    fn columns(&mut self, kinds: &[Kind], records: std::ops::Range<usize>, tagged: bool) -> Write {
        let len = records.len();
        let m = len + self.below(4);
        let mut at: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            at.swap(i, self.below(i + 1));
        }
        at.truncate(len);
        let cols = kinds
            .iter()
            .map(|&kind| {
                let mut cells: Vec<Value> = (0..m)
                    .map(|_| {
                        let any = self.pick(&[Kind::Int, Kind::Float, Kind::Str, Kind::Bool]);
                        self.cell(any, 0)
                    })
                    .collect();
                for (k, r) in records.clone().enumerate() {
                    cells[at[k]] = self.cell(kind, r);
                }
                Column::from_cells(m, |r| &cells[r])
            })
            .collect();
        let tags = tagged.then(|| (0..len).map(|_| self.below(3) as i64).collect());
        Write::Columns {
            cols,
            rows: at,
            tags,
        }
    }
}

/// What the packed output shows: the file's lines and frames and the job's
/// dictionary-entry count, or the job's error.
type Packed = Result<(Vec<String>, Vec<Vec<u8>>, u64), String>;

/// The reference: the records as rows, cut into frames of
/// [`DEFAULT_FRAME_ROWS`] typed by `from_cells`; `None` when a frame's rows
/// differ in width or hold a non-finite float.
fn reference_frames(rows: &[Vec<Value>]) -> Option<(Vec<Vec<u8>>, u64)> {
    let (mut frames, mut dicts) = (Vec::new(), 0);
    for chunk in rows.chunks(DEFAULT_FRAME_ROWS) {
        let width = chunk[0].len();
        if chunk.iter().any(|row| row.len() != width) {
            return None;
        }
        let batch = ColumnBatch::from_cells(chunk.len(), width, |r, c| &chunk[r][c]).ok()?;
        dicts += batch.dict_entries();
        frames.push(batch.encode_frame());
    }
    Some((frames, dicts))
}

/// The reference: a line per record, `tag|` first when tagged; a string
/// holding the separator or a line break fails the job, named.
fn reference_lines(records: &[(Option<i64>, Vec<Value>)]) -> Result<Vec<String>, String> {
    let unstorable = |v: &Value| {
        let text = |b| b == SEPARATOR as u8 || b == b'\n';
        v.as_str()
            .filter(|s| s.bytes().any(text))
            .map(str::to_string)
    };
    let mut lines = Vec::with_capacity(records.len());
    for (tag, cells) in records {
        if let Some(s) = cells.iter().find_map(unstorable) {
            return Err(format!(
                "value `{}` cannot be stored as text: it holds the field separator \
                 `{SEPARATOR}` or a line break (job out)",
                s.escape_debug()
            ));
        }
        let mut line = tag.map_or_else(String::new, |t| format!("{t}|"));
        encode_cells_into(cells, &mut line);
        lines.push(line);
    }
    Ok(lines)
}

fn reference(writes: &[Write], format: DataFormat) -> Packed {
    let records: Vec<(Option<i64>, Vec<Value>)> = writes.iter().flat_map(Write::rows).collect();
    let rows: Vec<Vec<Value>> = records
        .iter()
        .map(|(tag, cells)| {
            tag.map(Value::Int)
                .into_iter()
                .chain(cells.clone())
                .collect()
        })
        .collect();
    match reference_frames(&rows) {
        Some((frames, dicts)) if format == DataFormat::Columnar && !frames.is_empty() => {
            Ok((Vec::new(), frames, dicts))
        }
        _ => reference_lines(&records).map(|lines| (lines, Vec::new(), 0)),
    }
}

/// One pair, to one reduce task.
struct One;
impl Mapper for One {
    fn map(&mut self, _line: &str, out: &mut MapOutput) {
        out.emit(row![0i64], Row::default());
    }
}

/// Replays the case's writes into the task's output.
struct Replay(Arc<Vec<Write>>);
impl Reducer for Replay {
    fn reduce(&mut self, _key: &Row, _values: &[Row], out: &mut ReduceOutput) {
        self.0.iter().for_each(|write| write.apply(out));
    }
}

/// The writes packed by one reduce task of a job in `format`.
fn packed(writes: &Arc<Vec<Write>>, format: DataFormat) -> Packed {
    let mut c = Cluster::new(ClusterConfig {
        data_format: format,
        exec_threads: Some(1),
        ..ClusterConfig::default()
    });
    c.load_table("one", vec!["0".into()]);
    let replay = Arc::clone(writes);
    let job = JobSpec::builder("out")
        .input("data/one", || Box::new(One))
        .reducer(move || Box::new(Replay(Arc::clone(&replay))))
        .output("out/o")
        .reduce_tasks(1)
        .build();
    let metrics = run_job(&mut c, &job).map_err(|e| e.to_string())?;
    let file = c.hdfs.get("out/o").expect("an output");
    Ok((
        file.lines.clone(),
        file.frames.clone(),
        metrics.dict_entries,
    ))
}

/// Where two sequences first differ, and how, or `None`.
fn first_diff<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} items, not {}", got.len(), want.len()));
    }
    let i = got.iter().zip(want).position(|(a, b)| a != b)?;
    Some(format!("item {i}: {:?} vs {:?}", got[i], want[i]))
}

fn check_output(cases: u64) {
    // Cases whose columnar task wrote frames, fell back to text, failed.
    let (mut frames, mut text, mut failed) = (0, 0, 0);
    for seed in 0..cases {
        let case = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen {
                rng: StdRng::seed_from_u64(0x0C7B_0000 + seed),
                separators: seed % 5 == 0,
                non_finite: seed % 3 == 0,
            };
            let writes = Arc::new(g.writes());
            for format in [DataFormat::Text, DataFormat::Columnar] {
                let want = reference(&writes, format);
                if format == DataFormat::Columnar {
                    match &want {
                        Ok((_, packed, _)) if !packed.is_empty() => frames += 1,
                        Ok(_) => text += 1,
                        Err(_) => failed += 1,
                    }
                }
                match (packed(&writes, format), want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(first_diff(&got.0, &want.0), None, "{format:?} lines");
                        assert_eq!(first_diff(&got.1, &want.1), None, "{format:?} frames");
                        assert_eq!(got.2, want.2, "{format:?} dictionary entries");
                    }
                    (Err(got), Err(want)) => assert!(got.ends_with(&want), "{got} vs {want}"),
                    (Ok(got), Err(want)) => panic!("{format:?}: packed {:?}, not {want}", got.2),
                    (Err(got), Ok(_)) => panic!("{format:?}: {got}"),
                }
            }
        }));
        if case.is_err() {
            panic!("the output property fails at seed {seed}");
        }
    }
    // A sweep that never packs a frame, falls back or fails is not testing
    // the packer.
    let share = |n: u64| n * 100 / cases;
    assert!(
        share(frames) >= 30 && share(text) >= 20 && share(failed) >= 2,
        "of {cases}: {frames} framed, {text} fell back to text, {failed} failed"
    );
}

#[test]
fn task_output_packs_as_the_row_packer_did() {
    check_output(400);
}

#[test]
#[ignore = "soak: 50 000 cases, run in release"]
fn output_soak() {
    check_output(50_000);
}
