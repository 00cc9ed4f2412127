//! Segmented column batches: the form in which the common reducer evaluates
//! a run of key groups.
//!
//! A [`Batch`] is one source's rows — a stream, or an operator's output —
//! over a run of key groups, group `g`'s rows forming *segment* `g`; every
//! batch of a run has one segment per key group, empty where the group has
//! no row. A column is a [`Col`]: rows of a *base*, which is either a typed
//! column or a value column of the shuffle's values, still lying in their
//! arenas. Selecting rows — a filter, a join's pairs, an aggregate's groups
//! — composes row indices and copies no cell; a kernel reading a column
//! gathers it into a typed `Column` once ([`Columnar::column`]), straight
//! from the arenas' typed columns ([`GroupView::gather`]). No row is ever
//! built: an emitted batch leaves as its typed columns
//! ([`Batch::columns`]), appended to the task's output records.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::rc::Rc;

use ysmart_mapred::GroupView;
use ysmart_rel::colbatch::{Column, NULL_ROW};
use ysmart_rel::{Expr, RelError, SortKey, SortOrder};

use crate::colexpr::{eval_column, eval_mask, Columnar};
use crate::rowop::RowOp;

/// Row indices into a base or a batch, in order ([`NULL_ROW`]: a NULL).
pub(crate) type Selection = Rc<[u32]>;

/// Where a column's cells come from, before any selection of its rows.
enum Base<'v> {
    /// Cell `col` of each of the values `positions` of `values` — a
    /// stream's rows, in the shuffle's arenas — gathered into a typed
    /// column the first time a kernel reads it.
    Values {
        values: GroupView<'v>,
        positions: Selection,
        col: usize,
        typed: OnceCell<Column>,
    },
    /// A typed column.
    Typed(Column),
}

impl Base<'_> {
    fn typed(&self) -> &Column {
        match self {
            Base::Values {
                values,
                positions,
                col,
                typed,
            } => typed.get_or_init(|| values.gather(*col, positions)),
            Base::Typed(col) => col,
        }
    }

    /// Rows `rows` of the base ([`NULL_ROW`]: NULL) as a typed column: of
    /// the typed base once it is built, else gathered from the arenas at
    /// those rows alone — a join's or filter's few surviving rows of a wide
    /// stream need not type the whole stream.
    fn take(&self, rows: &[u32]) -> Column {
        match self {
            Base::Values {
                values,
                positions,
                col,
                typed,
            } if typed.get().is_none() => {
                let at = |r: u32| {
                    if r == NULL_ROW {
                        r
                    } else {
                        positions[r as usize]
                    }
                };
                let rows: Vec<u32> = rows.iter().map(|&r| at(r)).collect();
                values.gather(*col, &rows)
            }
            base => base.typed().take(rows),
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
    /// A typed column.
    pub(crate) fn typed(col: Column) -> Self {
        Col {
            base: Rc::new(Base::Typed(col)),
            rows: None,
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

    fn width(&self) -> usize {
        self.cols.len()
    }

    fn column(&self, i: usize) -> Option<&Column> {
        let col = self.cols.get(i)?;
        Some(match &col.rows {
            None => col.base.typed(),
            Some(rows) => self.gathered[i]
                .get_or_init(|| Rc::new(Base::Typed(col.base.take(rows))))
                .typed(),
        })
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

    /// Cells `cols` of the values `positions` of `values` — each value a
    /// row, each cell a column gathered the first time a kernel reads it —
    /// whose segment `g` is rows `segs[g]..segs[g + 1]`.
    pub(crate) fn gather(
        values: GroupView<'v>,
        positions: &Selection,
        cols: Range<usize>,
        segs: Vec<u32>,
    ) -> Self {
        let col = |col| Col {
            base: Rc::new(Base::Values {
                values,
                positions: Rc::clone(positions),
                col,
                typed: OnceCell::new(),
            }),
            rows: None,
        };
        Batch::new(segs, cols.map(col).collect())
    }

    pub(crate) fn len(&self) -> usize {
        self.segs.last().map_or(0, |&n| n as usize)
    }

    /// Every column, typed: how the batch is emitted.
    pub(crate) fn columns(&self) -> Vec<&Column> {
        (0..self.width())
            .map(|c| self.column(c).expect("a column"))
            .collect()
    }

    /// Row `r`, built from the typed columns.
    #[cfg(test)]
    pub(crate) fn row(&self, r: usize) -> ysmart_rel::Row {
        self.columns().iter().map(|col| col.value(r)).collect()
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
                let mask = eval_mask(pred, self).check(None)?;
                self.filter(|r, _| mask[r] == Some(true))
            }
            RowOp::Project(exprs) => self.project(exprs)?,
            RowOp::Sort(keys) => self.sort(keys),
            RowOp::Limit(n) => self.filter(|_, i| i < *n),
        })
    }

    /// A row per row of this batch, computing `exprs` — a column reference
    /// is that column, shared.
    pub(crate) fn project(&self, exprs: &[Expr]) -> Result<Batch<'v>, RelError> {
        let col = |e: &Expr| match e {
            Expr::Column(i) if *i < self.width() => Ok(self.shared(*i)),
            _ => Ok(Col::typed(eval_column(e, self).check(None)?.into_owned())),
        };
        let cols = exprs.iter().map(col).collect::<Result<_, RelError>>()?;
        Ok(Batch::new(self.segs.clone(), cols))
    }

    /// The batch's columns `columns`, in that order, shared; one past its
    /// width reads NULL, as `Row::project` has it: a source with no row in
    /// the run can be gathered with no columns, so a join with no pair can
    /// be narrower than the op's `left_width + right_width`.
    pub(crate) fn keep(&self, columns: &[usize]) -> Batch<'v> {
        let col = |&i: &usize| match i < self.width() {
            true => self.shared(i),
            false => Col::typed(Column::nulls(self.len())),
        };
        Batch::new(self.segs.clone(), columns.iter().map(col).collect())
    }

    /// Column `i`, shared: its gathered values once they exist.
    fn shared(&self, i: usize) -> Col<'v> {
        match self.gathered[i].get() {
            Some(base) => Col {
                base: Rc::clone(base),
                rows: None,
            },
            None => self.cols[i].clone(),
        }
    }

    /// Each segment stably sorted under `keys`; a key that fails on a row
    /// sorts that row as NULL (its slot in the key column), as
    /// [`ysmart_rel::sort::compare`] has it.
    fn sort(&self, keys: &[SortKey]) -> Batch<'v> {
        let keys: Vec<(Cow<'_, Column>, SortOrder)> = keys
            .iter()
            .map(|k| (eval_column(&k.expr, self).out, k.order))
            .collect();
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
