//! A seeded property of the shuffle arena: whatever mix of writers filled
//! it, an arena reads back the cells written, is charged the sizes those
//! cells give, and hands a reducer its pairs in the stable order by key
//! under `Value`'s total order: a key's values in the order they were
//! written.
//!
//! A case draws a sequence of writes — [`MapOutput::emit`] and
//! [`MapOutput::emit_columns`] in any mix —
//! over columns mixing `Int`, `Float`, `Str`, `Bool` and NULL: columns that
//! are NULL until a later write gives them a `Float` or a `Str`, `Int(7)`
//! beside `Float(7.0)`, `-0.0` beside `0.0`, pairs of differing widths, and
//! non-finite floats through `emit`. Then:
//!
//! * **read-back** — into 1–5 partitions, [`MapOutput::pairs`] renders as
//!   the cells written, routed by [`partition`], and
//!   [`MapOutput::segment_size`] is the text size and frame of those cells;
//! * **order** — replayed by the map tasks of a [`run_job`] under several
//!   task splits and reducer counts, an echo reducer sees exactly the stable
//!   sort by key of all pairs (NaN, which has no place in a total order,
//!   left out).
//!
//! `cargo test -p ysmart-mapred --test arena` runs 400 cases; the ignored
//! soak runs 50 000 (`-- --include-ignored`, in release). A failing case
//! names its seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_mapred::hash::partition;
use ysmart_mapred::{
    run_job, Cluster, ClusterConfig, JobSpec, MapOutput, Mapper, ReduceOutput, Reducer,
};
use ysmart_rel::codec::encode_line;
use ysmart_rel::colbatch::frame_stats;
use ysmart_rel::{row, Column, Row, Value};

/// One write into a [`MapOutput`].
#[derive(Debug, Clone)]
enum Write {
    Emit(Row, Row),
    /// Rows `rows` of `cols`: the first `keys` columns are the key, the
    /// rest the value, behind the row's tag when there are `tags`.
    Columns {
        cols: Vec<Column>,
        keys: usize,
        rows: Vec<usize>,
        tags: Option<Vec<i64>>,
    },
}

impl Write {
    fn apply(&self, out: &mut MapOutput) {
        match self {
            Write::Emit(key, value) => out.emit(key.clone(), value.clone()),
            Write::Columns {
                cols,
                keys,
                rows,
                tags,
            } => {
                let cols: Vec<&Column> = cols.iter().collect();
                out.emit_columns(rows, &cols[..*keys], tags.as_deref(), &cols[*keys..]);
            }
        }
    }

    /// The `(key, value)` pairs the write emits, in order.
    fn pairs(&self) -> Vec<(Vec<Value>, Vec<Value>)> {
        match self {
            Write::Emit(key, value) => vec![(key.values().to_vec(), value.values().to_vec())],
            Write::Columns {
                cols,
                keys,
                rows,
                tags,
            } => rows
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let key = cols[..*keys].iter().map(|c| c.value(r)).collect();
                    let tag = tags.as_ref().map(|tags| Value::Int(tags[i]));
                    let value = tag
                        .into_iter()
                        .chain(cols[*keys..].iter().map(|c| c.value(r)));
                    (key, value.collect())
                })
                .collect(),
        }
    }
}

/// What a column of a case holds: one type, a mix, or NULLs until write
/// `from`, then one type.
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
    /// Whether `emit` may write `inf` and `NaN`.
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

    fn kind(&mut self, writes: usize) -> Kind {
        match self.below(7) {
            0 => Kind::Int,
            1 => Kind::Float,
            2 => Kind::Str,
            3 => Kind::Bool,
            4 => Kind::Mixed,
            _ => Kind::NullUntil {
                from: self.below(writes + 1),
                then: if self.chance(0.5) {
                    Then::Float
                } else {
                    Then::Str
                },
            },
        }
    }

    /// A cell of `kind` in write `w`, NULL one time in eight. The pools are
    /// small, so keys and values tie often and `7` meets `7.0`.
    fn cell(&mut self, kind: Kind, w: usize) -> Value {
        if self.chance(0.125) {
            return Value::Null;
        }
        match kind {
            Kind::Int => Value::Int(self.pick(&[-3, -1, 0, 1, 2, 7])),
            Kind::Float => Value::Float(self.pick(&[-1.5, -0.0, 0.0, 0.5, 2.0, 7.0])),
            Kind::Str => Value::Str(self.pick(&["", "a", "ab", "b", "7"]).to_string()),
            Kind::Bool => Value::Bool(self.chance(0.5)),
            Kind::Mixed => {
                let kind = self.pick(&[Kind::Int, Kind::Float, Kind::Str, Kind::Bool]);
                self.cell(kind, w)
            }
            Kind::NullUntil { from, .. } if w < from => Value::Null,
            Kind::NullUntil {
                then: Then::Float, ..
            } => self.cell(Kind::Float, w),
            Kind::NullUntil {
                then: Then::Str, ..
            } => self.cell(Kind::Str, w),
        }
    }

    /// A row of cells of `kinds` in write `w`; through `emit`, a float may
    /// be non-finite.
    fn cells(&mut self, kinds: &[Kind], w: usize, emit: bool) -> Vec<Value> {
        kinds
            .iter()
            .map(|&kind| match self.cell(kind, w) {
                Value::Float(_) if emit && self.non_finite && self.chance(0.1) => {
                    Value::Float(self.pick(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]))
                }
                v => v,
            })
            .collect()
    }

    /// A case's writes. Most cases keep one shape — key width, value
    /// width, tagging — so their arenas are uniform; the rest draw a shape
    /// per write.
    fn writes(&mut self) -> Vec<Write> {
        let n = 1 + self.below(12);
        let kinds: Vec<Kind> = (0..6).map(|_| self.kind(n)).collect();
        let ragged = self.chance(0.3);
        let fixed = (self.below(3), self.below(4), self.chance(0.5));
        (0..n)
            .map(|w| {
                let (keys, values, tagged) = if ragged {
                    (self.below(3), self.below(4), self.chance(0.5))
                } else {
                    fixed
                };
                // A tag stands where `emit_columns` puts it: first in the
                // value, an `Int`.
                let tag = |g: &mut Gen| Value::Int(g.below(4) as i64);
                match self.below(3) {
                    0 | 1 => {
                        let key = self.cells(&kinds[..keys], w, true);
                        let tag = tagged.then(|| tag(self));
                        let rest = self.cells(&kinds[3..3 + values], w, true);
                        let value: Vec<Value> = tag.into_iter().chain(rest).collect();
                        Write::Emit(Row::new(key), Row::new(value))
                    }
                    _ => {
                        let nrows = 1 + self.below(6);
                        let used: Vec<Kind> = kinds[..keys]
                            .iter()
                            .chain(&kinds[3..3 + values])
                            .copied()
                            .collect();
                        let cols = used
                            .iter()
                            .map(|&kind| {
                                let cells: Vec<Value> =
                                    (0..nrows).map(|_| self.cell(kind, w)).collect();
                                Column::from_cells(nrows, |r| &cells[r])
                            })
                            .collect();
                        let rows: Vec<usize> =
                            (0..self.below(8)).map(|_| self.below(nrows)).collect();
                        let tags =
                            tagged.then(|| rows.iter().map(|_| self.below(4) as i64).collect());
                        Write::Columns {
                            cols,
                            keys,
                            rows,
                            tags,
                        }
                    }
                }
            })
            .collect()
    }
}

/// Read-back: the writes into `partitions` partitions, against the cells
/// they emit.
fn check_read_back(writes: &[Write], partitions: usize) {
    let mut out = MapOutput::partitioned(partitions);
    out.reserve(3);
    let mut want: Vec<Vec<(Vec<Value>, Vec<Value>)>> = vec![Vec::new(); partitions];
    for write in writes {
        write.apply(&mut out);
        for (key, value) in write.pairs() {
            let p = partition(&Row::new(key.clone()), partitions);
            want[p].push((key, value));
        }
    }
    for (p, want) in want.iter().enumerate() {
        let got: Vec<(Vec<Value>, Vec<Value>)> = out.pairs(p).collect();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "partition {p}");
        let pairs: Vec<Vec<Value>> = want.iter().map(|(k, v)| [&k[..], v].concat()).collect();
        let cells = pairs.iter().flatten().map(|v| v.size_bytes() as u64);
        let text = cells.sum::<u64>() + 2 * pairs.len() as u64;
        let width = pairs.first().map(Vec::len);
        let width = width.filter(|&w| pairs.iter().all(|pair| pair.len() == w));
        let frame = width.and_then(|w| frame_stats(pairs.len(), w, |r, c| &pairs[r][c]));
        assert_eq!(out.segment_size(p), (text, frame), "partition {p}");
    }
}

/// Line `i` of the input replays write `i`.
struct Replay(Arc<Vec<Write>>);
impl Mapper for Replay {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        self.0[line.parse::<usize>().expect("a write index")].apply(out);
    }
}

/// What the echo reducer writes per value: key, value and position in the
/// group, rendered with `Debug` so equal-comparing representations differ.
fn echo_row(key: &[Value], value: &[Value], pos: usize) -> Row {
    row![format!("{key:?}"), format!("{value:?}"), pos as i64]
}

struct Echo;
impl Reducer for Echo {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        for (pos, v) in values.iter().enumerate() {
            out.emit_row(echo_row(key.values(), v.values(), pos));
        }
    }
}

/// The echo job's output under the definition: every pair in write order,
/// stably sorted by key, grouped by key, each group shown the key of its
/// first pair, partition by partition.
fn reference_order(writes: &[Write], reducers: usize) -> Vec<String> {
    let mut all: Vec<(Vec<Value>, Vec<Value>)> = writes.iter().flat_map(Write::pairs).collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    let groups: Vec<&[(Vec<Value>, Vec<Value>)]> = all.chunk_by(|a, b| a.0 == b.0).collect();
    let mut lines = Vec::new();
    for p in 0..reducers {
        let mine = groups
            .iter()
            .filter(|g| partition(&Row::new(g[0].0.clone()), reducers) == p);
        for group in mine {
            for (pos, (_, value)) in group.iter().enumerate() {
                lines.push(encode_line(&echo_row(&group[0].0, value, pos)));
            }
        }
    }
    lines
}

/// Order: the writes replayed by the map tasks of one echo job per split
/// and reducer count, against the reference.
fn check_order(writes: &[Write]) {
    let writes = Arc::new(writes.to_vec());
    for (block_mb, reducers) in [(64.0, 1), (1e-9, 1), (1e-9, 3), (4e-7, 2)] {
        let mut c = Cluster::new(ClusterConfig {
            hdfs_block_mb: block_mb,
            exec_threads: Some(1),
            ..ClusterConfig::default()
        });
        c.hdfs
            .put("data/w", (0..writes.len()).map(|i| i.to_string()).collect());
        let replay = Arc::clone(&writes);
        let job = JobSpec::builder("echo")
            .input("data/w", move || Box::new(Replay(Arc::clone(&replay))))
            .reducer(|| Box::new(Echo))
            .output("out/echo")
            .reduce_tasks(reducers)
            .build();
        run_job(&mut c, &job).expect("the echo job runs");
        let got = &c.hdfs.get("out/echo").expect("an output").lines;
        assert_eq!(
            got,
            &reference_order(&writes, reducers),
            "block {block_mb} MB, {reducers} reducers"
        );
    }
}

fn check_arena(cases: u64) {
    for seed in 0..cases {
        let case = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen {
                rng: StdRng::seed_from_u64(0xA2E4_0000 + seed),
                non_finite: seed % 2 == 0,
            };
            let writes = g.writes();
            check_read_back(&writes, 1 + g.below(5));
            if !g.non_finite {
                check_order(&writes);
            }
        }));
        if case.is_err() {
            panic!("the arena property fails at seed {seed}");
        }
    }
}

#[test]
fn arenas_read_back_size_and_order_what_was_written() {
    check_arena(400);
}

#[test]
#[ignore = "soak: 50 000 cases, run in release"]
fn arena_soak() {
    check_arena(50_000);
}
