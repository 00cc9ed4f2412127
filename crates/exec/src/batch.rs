//! Segmented column batches: the form in which the common reducer evaluates
//! a run of key groups.
//!
//! A [`Batch`] is one source's rows — a stream, or an operator's output —
//! over a run of key groups, group `g`'s rows forming *segment* `g`; every
//! batch of a run has one segment per key group, empty where the group has
//! no row. A column is a [`Col`]: rows of a *base*, which is either a typed
//! column or cells still lying where the shuffle left them. Selecting rows —
//! a filter, a join's pairs, an aggregate's groups — composes row indices
//! and copies no cell; a kernel reading a column gathers it into a typed
//! `Column` once ([`Columnar::column`]), and only emitted rows — and rows an
//! expression without a kernel reads — ever become `Row`s
//! ([`Columnar::row`]).

use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::rc::Rc;

use ysmart_rel::colbatch::{Column, NULL_ROW};
use ysmart_rel::{Expr, RelError, Row, SortKey, SortOrder, Value};

use crate::colexpr::{eval_column, predicate_mask, value_column, Columnar};
use crate::rowop::RowOp;

/// Row indices into a base or a batch, in order ([`NULL_ROW`]: a NULL).
pub(crate) type Selection = Rc<[u32]>;

/// Where a column's cells come from, before any selection of its rows.
enum Base<'v> {
    /// Cell `off` of each of `rows` — a stream's rows, in the shuffle's
    /// arenas — gathered into a typed column the first time a kernel reads
    /// it.
    Cells {
        rows: Rc<[&'v [Value]]>,
        off: usize,
        typed: OnceCell<Column>,
    },
    /// A typed column.
    Typed(Column),
}

impl Base<'_> {
    fn typed(&self) -> &Column {
        match self {
            Base::Cells { rows, off, typed } => {
                typed.get_or_init(|| Column::from_cells(rows.len(), |r| &rows[r][*off]))
            }
            Base::Typed(col) => col,
        }
    }

    fn value(&self, i: usize) -> Value {
        match self {
            Base::Cells { rows, off, typed } => typed
                .get()
                .map_or_else(|| rows[i][*off].clone(), |col| col.value(i)),
            Base::Typed(col) => col.value(i),
        }
    }
}

/// One column of a batch: rows `rows` of a base (`None`: all of them, in
/// order; [`NULL_ROW`]: a NULL).
#[derive(Clone)]
pub(crate) struct Col<'v> {
    base: Rc<Base<'v>>,
    rows: Option<Selection>,
}

impl<'v> Col<'v> {
    /// Cell `off` of each of `rows`.
    pub(crate) fn cells(rows: &Rc<[&'v [Value]]>, off: usize) -> Self {
        let rows = Rc::clone(rows);
        let typed = OnceCell::new();
        Col {
            base: Rc::new(Base::Cells { rows, off, typed }),
            rows: None,
        }
    }

    /// A typed column.
    pub(crate) fn typed(col: Column) -> Self {
        Col {
            base: Rc::new(Base::Typed(col)),
            rows: None,
        }
    }

    fn value(&self, r: usize) -> Value {
        match self.rows.as_ref().map_or(r as u32, |rows| rows[r]) {
            NULL_ROW => Value::Null,
            i => self.base.value(i as usize),
        }
    }
}

/// One source's rows over a run of key groups, segment by segment.
#[derive(Clone)]
pub(crate) struct Batch<'v> {
    /// Segment `g` is rows `segs[g]..segs[g + 1]`.
    segs: Vec<u32>,
    cols: Vec<Col<'v>>,
    /// Per column read through a selection: those rows gathered, once.
    gathered: Vec<OnceCell<Rc<Base<'v>>>>,
}

impl Columnar for Batch<'_> {
    fn num_rows(&self) -> usize {
        self.len()
    }

    fn column(&self, i: usize) -> Option<&Column> {
        let col = self.cols.get(i)?;
        Some(match &col.rows {
            None => col.base.typed(),
            Some(rows) => self.gathered[i]
                .get_or_init(|| Rc::new(Base::Typed(col.base.typed().take(rows))))
                .typed(),
        })
    }

    /// Row `r`, built — for emitting, and for an expression without a
    /// kernel.
    fn row(&self, r: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value(r)).collect())
    }
}

impl<'v> Batch<'v> {
    /// A batch of the columns `cols` whose segment `g` is rows
    /// `segs[g]..segs[g + 1]`.
    pub(crate) fn new(segs: Vec<u32>, cols: Vec<Col<'v>>) -> Self {
        let gathered = vec![OnceCell::new(); cols.len()];
        Batch {
            segs,
            cols,
            gathered,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.segs.last().map_or(0, |&n| n as usize)
    }

    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Number of segments (key groups).
    pub(crate) fn groups(&self) -> usize {
        self.segs.len() - 1
    }

    /// Segment `g`'s rows.
    pub(crate) fn seg(&self, g: usize) -> Range<usize> {
        self.segs[g] as usize..self.segs[g + 1] as usize
    }

    /// Columns `which`, at rows `keep` of this batch ([`NULL_ROW`]: NULL):
    /// index vectors composed (once per distinct selection they sit
    /// behind), no cell copied; a column already gathered is read from its
    /// gathered rows.
    pub(crate) fn cols_at(
        &self,
        which: impl IntoIterator<Item = usize>,
        keep: &Selection,
    ) -> Vec<Col<'v>> {
        let mut composed: Vec<(Selection, Selection)> = Vec::new();
        let mut compose = |rows: &Selection| {
            if let Some((_, done)) = composed.iter().find(|(from, _)| Rc::ptr_eq(from, rows)) {
                return Rc::clone(done);
            }
            let at = |k: u32| if k == NULL_ROW { k } else { rows[k as usize] };
            let done: Selection = keep.iter().map(|&k| at(k)).collect();
            composed.push((Rc::clone(rows), Rc::clone(&done)));
            done
        };
        let mut at = |i: usize| {
            let (col, gathered) = (&self.cols[i], &self.gathered[i]);
            let (base, rows) = match (gathered.get(), &col.rows) {
                (Some(base), _) => (base, Rc::clone(keep)),
                (None, None) => (&col.base, Rc::clone(keep)),
                (None, Some(rows)) => (&col.base, compose(rows)),
            };
            Col {
                base: Rc::clone(base),
                rows: Some(rows),
            }
        };
        which.into_iter().map(&mut at).collect()
    }

    /// Rows `keep` of this batch, segmented by `segs`.
    fn select(&self, keep: Vec<u32>, segs: Vec<u32>) -> Batch<'v> {
        if keep.len() == self.len() && keep.iter().enumerate().all(|(i, &k)| k as usize == i) {
            return self.clone();
        }
        let keep: Selection = keep.into();
        Batch::new(segs, self.cols_at(0..self.width(), &keep))
    }

    /// The rows, segment by segment, for which `pass(row, index within its
    /// segment)` holds.
    pub(crate) fn filter(&self, pass: impl Fn(usize, usize) -> bool) -> Batch<'v> {
        let mut keep = Vec::new();
        let mut segs = Vec::with_capacity(self.segs.len());
        segs.push(0);
        for g in 0..self.groups() {
            let seg = self.seg(g);
            let start = seg.start;
            keep.extend(seg.filter(|&r| pass(r, r - start)).map(|r| r as u32));
            segs.push(keep.len() as u32);
        }
        self.select(keep, segs)
    }

    /// One transform of an op's chain over every segment, charging one work
    /// unit per row entering it ([`RowOp::apply`]'s accounting, group by
    /// group).
    pub(crate) fn transform(&self, op: &RowOp, work: &mut u64) -> Result<Batch<'v>, RelError> {
        *work += self.len() as u64;
        Ok(match op {
            RowOp::Filter(pred) => {
                let mask = predicate_mask(pred, self)?;
                self.filter(|r, _| mask[r] == Some(true))
            }
            RowOp::Project(exprs) => {
                let col = |e: &Expr| match e {
                    Expr::Column(i) if *i < self.width() => Ok(match self.gathered[*i].get() {
                        Some(base) => Col {
                            base: Rc::clone(base),
                            rows: None,
                        },
                        None => self.cols[*i].clone(),
                    }),
                    _ => Ok(Col::typed(value_column(e, self, None)?.into_owned())),
                };
                let cols = exprs.iter().map(col).collect::<Result<_, RelError>>()?;
                Batch::new(self.segs.clone(), cols)
            }
            RowOp::Sort(keys) => self.sort(keys),
            RowOp::Limit(n) => self.filter(|_, i| i < *n),
        })
    }

    /// Each segment stably sorted under `keys`; a key that fails on a row
    /// sorts that row as NULL, as [`ysmart_rel::sort::compare`] has it.
    fn sort(&self, keys: &[SortKey]) -> Batch<'v> {
        let key = |k: &SortKey| match eval_column(&k.expr, self) {
            Some(Ok(col)) => col,
            _ => {
                let vals: Vec<Value> = (0..self.len())
                    .map(|r| k.expr.eval(&self.row(r)).unwrap_or(Value::Null))
                    .collect();
                Cow::Owned(Column::from_cells(vals.len(), |r| &vals[r]))
            }
        };
        let keys: Vec<(Cow<'_, Column>, SortOrder)> =
            keys.iter().map(|k| (key(k), k.order)).collect();
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        for g in 0..self.groups() {
            order[self.seg(g)].sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                let ord = |(col, dir): &(Cow<'_, Column>, SortOrder)| match dir {
                    SortOrder::Asc => col.cmp_rows(a, b),
                    SortOrder::Desc => col.cmp_rows(a, b).reverse(),
                };
                keys.iter()
                    .map(ord)
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
        }
        self.select(order, self.segs.clone())
    }
}
