//! Equivalence of the common mapper's column path with its row path.
//!
//! A batch whose mapper takes the column path ([`CommonMapper::column_path`])
//! is mapped whole: visibility, tags, work and dispatch counts from the
//! branch masks, then one `MapOutput::emit_columns` that hashes partitions
//! from the typed key columns, writes cells a column at a time and sizes
//! the segments as it goes. The row path is forced on the same blueprint by
//! conjoining every selection with an always-true predicate that has no mask
//! kernel. Over generated blueprints and batches the two must agree on
//! everything a job's result and its simulated time are derived from: every
//! partition's pairs (cells, key/value split, emit order), each segment's
//! text bytes and frame size, work, per-stream dispatch counts, bad-record
//! counts.
//!
//! `cargo test` runs a few hundred cases; CI runs the `#[ignore]`d soak in
//! release mode (`--include-ignored`).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ysmart_exec::{
    CommonMapper, EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, RSource, StreamSpec,
};
use ysmart_mapred::{MapOutput, Mapper};
use ysmart_rel::colbatch::FrameStats;
use ysmart_rel::{BinOp, ColumnBatch, DataType, Expr, Row, Schema, UnOp, Value};

/// What a generated input column holds.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Ty {
    Int,
    Float,
    /// `Int` and `Float` cells that are numerically equal (`Int(7)`,
    /// `Float(7.0)`): a mixed batch column, or typed columns whose keys
    /// collide with another batch's.
    Num,
    Str,
    Bool,
}

struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.0.gen_bool(p)
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    fn value(&mut self, ty: Ty) -> Value {
        if self.chance(0.15) {
            return Value::Null;
        }
        match ty {
            Ty::Int => Value::Int(self.pick(&[-2, 0, 1, 7, 40])),
            Ty::Float => Value::Float(self.pick(&[-0.5, 0.0, 1.5, 7.0])),
            Ty::Num if self.chance(0.5) => Value::Int(self.pick(&[0, 7])),
            Ty::Num => Value::Float(self.pick(&[0.0, 7.0])),
            Ty::Str => Value::Str(self.pick(&["", "a", "b", "F", "7"]).to_string()),
            Ty::Bool => Value::Bool(self.chance(0.5)),
        }
    }

    /// A predicate with a mask kernel: column against literal or column,
    /// `IS [NOT] NULL`, literals, bare columns, `AND` / `OR` / `NOT`.
    fn predicate(&mut self, types: &[Ty], depth: usize) -> Expr {
        if depth > 0 && self.chance(0.3) {
            let (l, r) = (
                self.predicate(types, depth - 1),
                self.predicate(types, depth - 1),
            );
            return match self.below(3) {
                0 => l.and(r),
                1 => l.or(r),
                _ => Expr::Unary {
                    op: UnOp::Not,
                    operand: Box::new(l),
                },
            };
        }
        let c = self.below(types.len());
        let cmp = self.pick(&[
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ]);
        match self.below(8) {
            0 => Expr::lit(self.pick(&[Value::Bool(true), Value::Bool(false), Value::Null])),
            1 => Expr::Unary {
                op: self.pick(&[UnOp::IsNull, UnOp::IsNotNull]),
                operand: Box::new(Expr::col(c)),
            },
            2 => Expr::binary(cmp, Expr::col(c), Expr::col(self.below(types.len()))),
            3 => Expr::binary(cmp, Expr::lit(self.value(types[c])), Expr::col(c)),
            4 => Expr::col(c),
            _ => Expr::binary(cmp, Expr::col(c), Expr::lit(self.value(types[c]))),
        }
    }

    /// A duplicate-free selection of `0..n`, in random order.
    fn distinct(&mut self, n: usize, len: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            all.swap(i, self.below(i + 1));
        }
        all.truncate(len);
        all
    }
}

/// Always true, and without a mask kernel (arithmetic): conjoined with a
/// selection it changes nothing but the path a batch takes.
fn no_kernel_true() -> Expr {
    let one = Expr::binary(BinOp::Add, Expr::lit(1i64), Expr::lit(0i64));
    Expr::binary(BinOp::Eq, one, Expr::lit(1i64))
}

struct Case {
    bp: JobBlueprint,
    /// Types of input 0's columns.
    types: Vec<Ty>,
    /// Whether input 0's mapper should take the column path.
    columnar: bool,
}

fn gen_case(g: &mut Gen) -> Case {
    let types: Vec<Ty> = (0..1 + g.below(5))
        .map(|_| g.pick(&[Ty::Int, Ty::Float, Ty::Num, Ty::Str, Ty::Bool]))
        .collect();
    let width = types.len();
    let direct = g.chance(0.3);
    let nstreams = if direct { 1 } else { 2 + g.below(3) };
    // Input 0 feeds 1–3 streams; the others are foreign, fed by input 1.
    let mine = if direct {
        vec![0]
    } else {
        let n = 1 + g.below(nstreams.min(3));
        g.distinct(nstreams, n)
    };
    let mut columnar = true;
    let branches = mine
        .iter()
        .map(|&stream| MapBranch {
            stream,
            predicate: match g.below(10) {
                0..=2 => None,
                3 => {
                    columnar = false;
                    Some(Expr::binary(
                        BinOp::Gt,
                        Expr::binary(BinOp::Add, Expr::col(g.below(width)), Expr::lit(1i64)),
                        Expr::lit(1i64),
                    ))
                }
                _ => Some(g.predicate(&types, 2)),
            },
        })
        .collect();
    let key_exprs = (0..g.below(3)).map(|_| Expr::col(g.below(width))).collect();
    let value_cols = {
        let n = g.below(width + 1);
        g.distinct(width, n)
    };
    let map_only = direct && g.chance(0.3);
    // Direct mode carries stream 0's projection: plain columns of the
    // carried row, or now and then a computed one (the row path's).
    let projection: Vec<Expr> = if direct && !value_cols.is_empty() && g.chance(0.1) {
        columnar = false;
        vec![Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(1i64))]
    } else {
        let n = g.below(value_cols.len() + 1);
        g.distinct(value_cols.len(), n)
            .into_iter()
            .map(Expr::col)
            .collect()
    };
    let pad_bytes = if g.chance(0.1) { 3 } else { 0 };
    if pad_bytes > 0 && !map_only {
        columnar = false;
    }
    let schema = |name: &str, n: usize| {
        let cols: Vec<String> = (0..n).map(|c| format!("c{c}")).collect();
        let fields: Vec<(&str, DataType)> =
            cols.iter().map(|c| (c.as_str(), DataType::Int)).collect();
        Schema::of(name, &fields)
    };
    let mut inputs = vec![InputSpec {
        path: "data/x".into(),
        schema: schema("x", width),
        key_exprs,
        value_cols,
        branches,
        tag_filter: g.chance(0.2).then(|| g.below(3) as i64),
    }];
    let foreign: Vec<usize> = (0..nstreams).filter(|s| !mine.contains(s)).collect();
    if !foreign.is_empty() {
        inputs.push(InputSpec {
            path: "data/y".into(),
            schema: schema("y", 1),
            key_exprs: vec![Expr::col(0)],
            value_cols: vec![0],
            branches: foreign
                .into_iter()
                .map(|stream| MapBranch {
                    stream,
                    predicate: None,
                })
                .collect(),
            tag_filter: None,
        });
    }
    let streams = (0..nstreams)
        .map(|s| StreamSpec {
            projection: if s == 0 { projection.clone() } else { vec![] },
        })
        .collect();
    let bp = JobBlueprint {
        name: "eq".into(),
        inputs,
        streams,
        ops: if map_only {
            vec![]
        } else {
            vec![ROp {
                kind: OpKind::Pass,
                inputs: vec![RSource::Stream(0)],
                transforms: vec![],
            }]
        },
        emit: EmitSpec::Single(if map_only {
            RSource::Stream(0)
        } else {
            RSource::Op(0)
        }),
        output: "out".into(),
        reduce_tasks: None,
        combiner: None,
        map_only,
        short_circuit_streams: vec![],
        pad_bytes,
        key_cardinality: None,
    };
    bp.validate().expect("generated blueprints are consistent");
    Case {
        bp,
        types,
        columnar,
    }
}

/// The blueprint with every selection of input 0 conjoined with
/// [`no_kernel_true`]: the same pairs, through `map_record` row by row.
fn forced_row_path(bp: &JobBlueprint) -> JobBlueprint {
    let mut bp = bp.clone();
    for b in &mut bp.inputs[0].branches {
        b.predicate = Some(match b.predicate.take() {
            Some(p) => p.and(no_kernel_true()),
            None => no_kernel_true(),
        });
    }
    bp
}

/// One batch of input 0: 0–40 rows of its column types behind a leading tag
/// column when the input filters by tag, and now and then a batch of the
/// wrong width (bad records).
fn gen_batch(g: &mut Gen, case: &Case) -> ColumnBatch {
    let tag_filter = case.bp.inputs[0].tag_filter;
    let wrong_width = g.chance(0.05);
    let rows: Vec<Row> = (0..g.below(41))
        .map(|_| {
            let tag = tag_filter.map(|want| Value::Int(if g.chance(0.7) { want } else { 9 }));
            let mut cells: Vec<Value> = tag.into_iter().collect();
            cells.extend(case.types.iter().map(|&ty| g.value(ty)));
            if wrong_width {
                cells.push(Value::Int(0));
            }
            Row::new(cells)
        })
        .collect();
    ColumnBatch::from_rows(&rows).expect("finite cells of one width")
}

/// Everything the contract covers, rendered so that `Int(7)` and
/// `Float(7.0)` (equal as `Value`s) still differ: per partition its pairs
/// and its segment's sizes, then work, dispatch counts, bad records, fatal.
type Observed = (
    Vec<(String, (u64, Option<FrameStats>))>,
    u64,
    Vec<u64>,
    u64,
    Option<String>,
);

fn observed(mut out: MapOutput, partitions: usize) -> Observed {
    let parts = (0..partitions)
        .map(|p| {
            let pairs: Vec<(&[Value], &[Value])> = out.pairs(p).collect();
            (format!("{pairs:?}"), out.segment_size(p))
        })
        .collect();
    let (dispatches, fatal) = (out.take_dispatches(), out.take_fatal());
    (parts, out.work(), dispatches, out.bad_records(), fatal)
}

fn check_equivalence(cases: u64) {
    let mut column_cases = 0;
    for seed in 0..cases {
        let mut g = Gen(StdRng::seed_from_u64(0x3A99_0000 + seed));
        let case = gen_case(&mut g);
        let batches: Vec<ColumnBatch> = (0..1 + g.below(4))
            .map(|_| gen_batch(&mut g, &case))
            .collect();
        let partitions = 1 + g.below(8);
        let reserve = g.chance(0.5);
        let run = |bp: JobBlueprint| {
            let mut mapper = CommonMapper::new(Arc::new(bp), 0);
            let mut out = MapOutput::partitioned(partitions);
            for batch in &batches {
                if reserve {
                    out.reserve(batch.num_rows());
                }
                mapper.map_batch(batch, &mut out);
            }
            (mapper.column_path(), observed(out, partitions))
        };
        let (columnar, by_columns) = run(case.bp.clone());
        let (forced, by_rows) = run(forced_row_path(&case.bp));
        assert_eq!(
            columnar, case.columnar,
            "seed {seed}: which path\n{:#?}",
            case.bp
        );
        assert!(!forced, "seed {seed}: the row path is forced");
        assert_eq!(
            by_columns, by_rows,
            "seed {seed}, {partitions} partitions\n{:#?}\n{batches:?}",
            case.bp
        );
        column_cases += u64::from(columnar);
    }
    // The generator mostly draws column-path mappers; a sweep that mostly
    // compares the row path with itself is not testing anything.
    assert!(
        column_cases * 2 >= cases,
        "{column_cases} of {cases} on the column path"
    );
}

#[test]
fn column_path_matches_row_path() {
    check_equivalence(400);
}

/// The CI soak: `cargo test --release -p ysmart-exec --test
/// mapper_equivalence -- --include-ignored`.
#[test]
#[ignore = "raised case count; run in release"]
fn column_path_matches_row_path_soak() {
    check_equivalence(50_000);
}
