//! Job specifications: mappers, reducers, combiners and their wiring.
//!
//! A [`JobSpec`] describes one MapReduce job the way a Hadoop driver class
//! would: one mapper per input file (Hadoop's `MultipleInputs`, which join
//! jobs rely on to tag each side — §II-B), an optional combiner, an
//! optional reducer (map-only jobs write mapper output directly), and an
//! output path.
//!
//! Mappers and reducers are built per task from factories, mirroring how
//! Hadoop instantiates a fresh object per task attempt.
//!
//! A shuffle pair is a row of typed columns, not a pair of rows: [`MapOutput`]
//! routes each pair to its reduce partition as it is emitted and appends its
//! `key ⧺ value` cells to that partition's arena — one typed
//! [`Column`] per cell position, the key's columns first, then the value's
//! (led by the tag when the job tags its values) — where they stay until
//! the reduce task that consumed them is done. Everything downstream
//! addresses pairs by index: a [`Combiner`] is handed a map-side segment's
//! key groups at once, a [`Reducer`] its whole task's, each as
//! [`KeyGroups`] — a [`GroupView`] over the arenas cut at the group starts,
//! which reads a value's tag and width in place and gathers a value column
//! over any set of values into one typed column. The row-shaped entry
//! points — [`MapOutput::emit`], [`Reducer::reduce`],
//! [`Combiner::combine`] — remain what hand-written jobs implement; the
//! group-shaped ones default to them (`reduce_run` to `reduce` and
//! `combine_run` to `combine`, group by group, the values copied out as
//! rows). A mapper emits a pair whole through [`MapOutput::emit`], whose
//! cells are pushed onto the columns one by one, or a column batch whole
//! through [`MapOutput::emit_columns`], which appends each of the batch's
//! columns to the arena's in one typed copy; either way each pair's text
//! bytes are counted as it is written.
//!
//! What a task writes is [`Records`]: typed cells in a key-less arena of
//! the same kind, one [`Column`] per cell position, a record's optional
//! merged-stream tag held as its leading `Int` cell. A reducer emits into
//! its [`ReduceOutput`]'s records and a combiner returns its partial values
//! as records ([`Combined`]), a column batch at a time in one typed copy per
//! column ([`ReduceOutput::emit_columns`]) or a row whole, its cells pushed
//! one by one ([`ReduceOutput::emit_row`], what hand-written reducers call);
//! no `Row` is built per record on the batch path. Whether a task's records
//! are stored as columnar frames or as text lines is the engine's decision,
//! made in one place after the task ran, reading the records where they lie
//! — a reducer never formats its own output.

use std::ops::Range;

use ysmart_rel::codec::{encode_cell_refs_into, SEPARATOR};
use ysmart_rel::colbatch::{CellRef, Column, FrameSizer, FrameStats, NULL_ROW};
use ysmart_rel::{ColumnBatch, Row, Value};

use crate::hash::{partition_cells, partition_columns};
use crate::norm::NormArena;

/// The pairs one map task routed to one reduce partition — a shuffle
/// *arena*, stored column-major: column `c` holds cell `c` of every pair's
/// `key ⧺ value`, in emit order, typed as [`Column::push`] types it. A pair
/// is written here once and is never moved or allocated on its own: sort,
/// merge and reduce address it by index, and the whole arena is freed at
/// once by the reduce task that consumed it.
#[derive(Debug, Default)]
pub(crate) struct Pairs {
    cols: Vec<Column>,
    len: usize,
    /// `(key width, width)` of the first pair — of every pair, unless
    /// `ragged`.
    shape: (u32, u32),
    /// Per pair its `(key width, width)`, kept only once the pairs' shapes
    /// differ (the mixed-width values of some merged or hand-written
    /// mappers). A pair narrower than the arena reads NULL in the columns
    /// past its width, which nothing reads.
    ragged: Option<Vec<(u32, u32)>>,
    /// [`Pairs::text_bytes`], added to by every write.
    text_bytes: u64,
    /// Pairs there is room for ([`MapOutput::reserve`]): what a column the
    /// arena grows later makes room for.
    room: usize,
}

/// Columns and the rows of them a run of pairs is written from.
type Cells<'a> = (&'a [&'a Column], &'a [usize]);

/// A width as stored in a pair's shape.
fn width(cells: usize) -> u32 {
    u32::try_from(cells).expect("a pair holds fewer than 2^32 cells")
}

impl Pairs {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pair `i`'s `(key width, width)`.
    fn shape(&self, i: usize) -> (usize, usize) {
        let (key, width) = self.ragged.as_ref().map_or(self.shape, |shapes| shapes[i]);
        (key as usize, width as usize)
    }

    /// The columns of pair `i`'s value.
    #[inline]
    fn value_cols(&self, i: usize) -> &[Column] {
        let (key, width) = self.shape(i);
        &self.cols[key..width]
    }

    /// Value cell `c` of pair `i`, read in place.
    fn cell(&self, i: usize, c: usize) -> CellRef<'_> {
        self.value_cols(i)[c].cell(i)
    }

    /// Value column `c` of an arena whose pairs share their shape — an
    /// empty column when the values are narrower, which no caller reads.
    fn value_col(&self, c: usize) -> &Column {
        static NONE: Column = Column::Var(Vec::new());
        self.cols.get(self.shape.0 as usize + c).unwrap_or(&NONE)
    }

    /// The key cells of pair `i`, copied out.
    pub(crate) fn key(&self, i: usize) -> Vec<Value> {
        let key = self.shape(i).0;
        self.cols[..key].iter().map(|col| col.value(i)).collect()
    }

    /// The value cells of pair `i`, copied out.
    pub(crate) fn value(&self, i: usize) -> Vec<Value> {
        self.value_cols(i).iter().map(|col| col.value(i)).collect()
    }

    /// Pair `i` as one `key ⧺ value` row — its shuffle wire form.
    pub(crate) fn pair(&self, i: usize) -> Vec<Value> {
        let width = self.shape(i).1;
        self.cols[..width].iter().map(|col| col.value(i)).collect()
    }

    /// The columns every pair's cells lie in.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// The columns of pair `i`'s cells as a task writes them: all of them
    /// (a task's output record, whose key is its tag), or with `value_only`
    /// those of its value (a map-only job's output).
    pub(crate) fn record_cols(&self, i: usize, value_only: bool) -> Range<usize> {
        let (key, width) = self.shape(i);
        if value_only {
            key..width
        } else {
            0..width
        }
    }

    /// The cells of pair `i` in columns `cols`, read in place.
    pub(crate) fn cells(&self, i: usize, cols: Range<usize>) -> impl Iterator<Item = CellRef<'_>> {
        self.cols[cols].iter().map(move |col| col.cell(i))
    }

    /// Appends the text line of pair `i`'s cells as a task writes them
    /// ([`Pairs::record_cols`]). A task's tagged record is `tag|` and its
    /// cells: with none, the separator still follows the tag.
    pub(crate) fn write_line(&self, i: usize, value_only: bool, out: &mut String) {
        let cols = self.record_cols(i, value_only);
        let bare_tag = !value_only && cols.len() == 1 && self.shape(i).0 == 1;
        encode_cell_refs_into(self.cells(i, cols), out);
        if bare_tag {
            out.push(SEPARATOR);
        }
    }

    /// The tag of pair `i`: its first value cell when an `Int`, else 0.
    fn tag(&self, i: usize) -> i64 {
        match self.value_cols(i).first().map(|col| col.cell(i)) {
            Some(CellRef::Int(tag)) => tag,
            _ => 0,
        }
    }

    /// The normalized encodings of every pair's key, in emit order.
    pub(crate) fn norm_keys(&self) -> NormArena {
        NormArena::from_columns(&self.cols, self.len, |i| self.shape(i).0)
    }

    /// The width every pair shares; `None` when empty or when widths differ.
    pub(crate) fn uniform_width(&self) -> Option<usize> {
        let width = self.shape.1;
        let uniform = match &self.ragged {
            None => true,
            Some(shapes) => shapes.iter().all(|s| s.1 == width),
        };
        (uniform && !self.is_empty()).then_some(width as usize)
    }

    /// Column `c`, grown from nothing — all NULL for the pairs so far —
    /// when the arena has no column `c` yet.
    fn col(&mut self, c: usize) -> &mut Column {
        while self.cols.len() <= c {
            let mut col = Column::nulls(self.len);
            col.reserve(self.room.saturating_sub(self.len));
            self.cols.push(col);
        }
        &mut self.cols[c]
    }

    /// Records `n` pairs of `key` key cells and `width` cells in all, just
    /// written to columns `..width`, and pads the columns past them.
    fn add_pairs(&mut self, n: usize, key: usize, width: usize, text_bytes: u64) {
        for col in &mut self.cols[width..] {
            col.push_nulls(n);
        }
        let shape = (self::width(key), self::width(width));
        if self.is_empty() {
            self.shape = shape;
        } else if self.ragged.is_none() && shape != self.shape {
            self.ragged = Some(vec![self.shape; self.len]);
        }
        if let Some(shapes) = &mut self.ragged {
            shapes.resize(self.len + n, shape);
        }
        self.len += n;
        // The text framing adds a tab and a newline per pair.
        self.text_bytes += text_bytes + 2 * n as u64;
    }

    /// Appends one pair whole, a cell at a time — the writer of every
    /// row-shaped pair: a mapper's ([`MapOutput::emit`]) and a row a task
    /// writes ([`Records::push`]). The cells are moved out of both buffers,
    /// which are left empty.
    pub(crate) fn append(&mut self, key: &mut Vec<Value>, value: &mut Vec<Value>) {
        let (key_width, width) = (key.len(), key.len() + value.len());
        if let Some(last) = width.checked_sub(1) {
            self.col(last);
        }
        let mut text_bytes = 0;
        let (key_cols, value_cols) = self.cols.split_at_mut(key_width);
        for (cols, cells) in [(key_cols, key), (value_cols, value)] {
            for (col, v) in cols.iter_mut().zip(cells.drain(..)) {
                text_bytes += v.size_bytes() as u64;
                col.push(v);
            }
        }
        self.add_pairs(1, key_width, width, text_bytes);
    }

    /// Appends one pair per row of `values`, its cells read from typed
    /// columns: the matching row of the `keys` columns, then its tag when
    /// there are `tags` (one per pair), then its row of the `values`
    /// columns — each column appended to the arena's in one typed copy. The
    /// tag belongs to the value (a shuffle pair's) or, with `tag_in_key`,
    /// is the key (a task's output record's).
    fn append_columns(
        &mut self,
        (keys, key_rows): Cells<'_>,
        tags: Option<&[i64]>,
        tag_in_key: bool,
        (values, rows): Cells<'_>,
    ) {
        if rows.is_empty() {
            return;
        }
        let tagged = usize::from(tags.is_some());
        let mut text_bytes = 0;
        let key_cols = (0..).zip(keys).map(|(c, src)| (c, src, key_rows));
        let value_cols = (keys.len() + tagged..)
            .zip(values)
            .map(|(c, src)| (c, src, rows));
        for (c, src, rows) in key_cols.chain(value_cols) {
            let col = self.col(c);
            let start = col.len();
            col.append(src, rows);
            text_bytes += col.size_bytes(start..col.len());
        }
        if let Some(tags) = tags {
            text_bytes += 8 * tags.len() as u64;
            match self.col(keys.len()) {
                Column::Int { data, nulls } => {
                    data.extend_from_slice(tags);
                    nulls.resize(data.len(), false);
                }
                col => tags.iter().for_each(|&tag| col.push(Value::Int(tag))),
            }
        }
        let key = keys.len() + usize::from(tag_in_key) * tagged;
        let width = keys.len() + tagged + values.len();
        self.add_pairs(rows.len(), key, width, text_bytes);
    }

    /// The arena replacing a combined segment: one pair per `k`, its key
    /// that of pair `keys[k]` of `from`, its value record `k` of `values` —
    /// each column in one typed copy when both arenas are uniform, as a
    /// combined job's are; cell by cell otherwise.
    pub(crate) fn combined(from: &Pairs, keys: &[usize], values: &Records) -> Pairs {
        let (values, mut out) = (&values.0, Pairs::default());
        if from.ragged.is_none() && values.ragged.is_none() {
            let key_cols: Vec<&Column> = from.cols[..from.shape.0 as usize].iter().collect();
            let value_cols: Vec<&Column> = values.cols[..values.shape.1 as usize].iter().collect();
            let rows: Vec<usize> = (0..keys.len()).collect();
            out.append_columns((&key_cols, keys), None, false, (&value_cols, &rows));
        } else {
            for (r, &p) in keys.iter().enumerate() {
                out.append(&mut from.key(p), &mut values.pair(r));
            }
        }
        out
    }

    /// Bytes of the pairs in the text framing (key, tab, value, newline).
    pub(crate) fn text_bytes(&self) -> u64 {
        self.text_bytes
    }

    /// Exact size and dictionary-entry count of the pairs as one frame of
    /// `key ⧺ value` rows, read off the typed columns. `None` for an empty
    /// arena, when pair widths differ (the mixed-width values of some
    /// merged mappers) or on a non-finite float: there is no such frame. A
    /// frame's size does not depend on the order of its rows, so this holds
    /// for the sorted segment too.
    pub(crate) fn frame_stats(&self) -> Option<FrameStats> {
        let mut sizer = FrameSizer::new(self.uniform_width()?);
        let rows: Vec<usize> = (0..self.len).collect();
        for (c, col) in self.cols.iter().enumerate() {
            sizer.add_column(c, col, &rows);
        }
        sizer.finish()
    }

    /// Makes room for `additional` more pairs in every column, present and
    /// to come.
    fn reserve(&mut self, additional: usize) {
        self.room = self.room.max(self.len + additional);
        self.cols.iter_mut().for_each(|col| col.reserve(additional));
    }

    /// Gives the unused part of a mostly empty arena — the mapper dropped
    /// most records — back to the allocator; the arena lives until the
    /// reduce side is done with it. An arena filled to within its headroom
    /// keeps its size on purpose: same-sized blocks are what the allocator
    /// hands straight to the next job's arenas, while shrinking every arena
    /// by its few per cent of slack leaves holes nothing fits (measured:
    /// `serve_hot` `peak_rss_mb` +12 % after 15 cycles).
    fn trim(&mut self) {
        for col in &mut self.cols {
            if col.len() < col.capacity() / 4 * 3 {
                col.shrink_to_fit();
            }
        }
    }
}

/// A key group's values as the engine hands them to a [`Reducer`] or
/// [`Combiner`]: an indexable run of values. The values lie wherever the
/// shuffle left them — consecutive `Row`s, or pairs scattered over the
/// arenas a merge drew them from — and are read in place: a value's tag and
/// width one at a time, its cells a column over many values at once
/// ([`GroupView::gather`]); nothing is copied per value.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a>(Group<'a>);

#[derive(Debug, Clone, Copy)]
enum Group<'a> {
    Rows(&'a [Row]),
    /// Pairs `order[..]` of one arena: a group of a sorted map-side run.
    Run {
        pairs: &'a Pairs,
        order: &'a [u32],
    },
    /// `(run, pair)` positions over several arenas: a group of a shuffle
    /// merge.
    Merged {
        runs: &'a [&'a Pairs],
        at: &'a [(u32, u32)],
    },
}

impl<'a> GroupView<'a> {
    /// A view of whole rows.
    #[must_use]
    pub fn rows(rows: &'a [Row]) -> Self {
        GroupView(Group::Rows(rows))
    }

    pub(crate) fn run(pairs: &'a Pairs, order: &'a [u32]) -> Self {
        GroupView(Group::Run { pairs, order })
    }

    pub(crate) fn merged(runs: &'a [&'a Pairs], at: &'a [(u32, u32)]) -> Self {
        GroupView(Group::Merged { runs, at })
    }

    /// Number of values in the group.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.0 {
            Group::Rows(rows) => rows.len(),
            Group::Run { order, .. } => order.len(),
            Group::Merged { at, .. } => at.len(),
        }
    }

    /// Whether the group holds no value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arena and pair behind value `i`; `None` for a view of rows.
    fn pair(&self, i: usize) -> Option<(&'a Pairs, usize)> {
        match self.0 {
            Group::Rows(_) => None,
            Group::Run { pairs, order } => Some((pairs, order[i] as usize)),
            Group::Merged { runs, at } => {
                let (run, pair) = at[i];
                Some((runs[run as usize], pair as usize))
            }
        }
    }

    /// The number of cells of value `i`.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    #[must_use]
    pub fn width(&self, i: usize) -> usize {
        match (self.0, self.pair(i)) {
            (Group::Rows(rows), _) => rows[i].len(),
            (_, Some((pairs, p))) => pairs.value_cols(p).len(),
            (_, None) => unreachable!("a value of pairs"),
        }
    }

    /// The tag of value `i`: its first cell when an `Int`, else 0 — the
    /// visibility tag of a merged job's value.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    #[must_use]
    pub fn tag(&self, i: usize) -> i64 {
        match (self.0, self.pair(i)) {
            (Group::Rows(rows), _) => rows[i]
                .values()
                .first()
                .and_then(Value::as_int)
                .unwrap_or(0),
            (_, Some((pairs, p))) => pairs.tag(p),
            (_, None) => unreachable!("a value of pairs"),
        }
    }

    /// Cell `c` of each value of `positions`, in that order ([`NULL_ROW`]:
    /// a NULL), as one typed column: [`Column::from_cells`] over those
    /// cells, read where they lie — by [`Column::gather`] across the arenas'
    /// value columns when they are uniform, cell by cell otherwise.
    ///
    /// # Panics
    ///
    /// When a position is out of range or its value has no cell `c`.
    #[must_use]
    pub fn gather(&self, c: usize, positions: &[u32]) -> Column {
        let n = positions.len();
        // A NULL position reads the one cell of `pad`, a source of its own.
        let pad = Column::nulls(1);
        let pads = positions.contains(&NULL_ROW);
        match self.0 {
            Group::Run { pairs, order } if pairs.ragged.is_none() => {
                let cols = [pairs.value_col(c), &pad];
                let cols = &cols[..1 + usize::from(pads)];
                Column::gather(cols, n, |k| match positions[k] {
                    NULL_ROW => (1, 0),
                    i => (0, order[i as usize] as usize),
                })
            }
            Group::Merged { runs, at } if runs.iter().all(|r| r.ragged.is_none()) => {
                let mut cols: Vec<&Column> = runs.iter().map(|r| r.value_col(c)).collect();
                if pads {
                    cols.push(&pad);
                }
                Column::gather(&cols, n, |k| match positions[k] {
                    NULL_ROW => (runs.len(), 0),
                    i => {
                        let (run, pair) = at[i as usize];
                        (run as usize, pair as usize)
                    }
                })
            }
            _ => Column::from_cells(n, |k| match positions[k] {
                NULL_ROW => CellRef::Null,
                i => self.cell(i as usize, c),
            }),
        }
    }

    /// Cell `c` of value `i`, read in place.
    fn cell(&self, i: usize, c: usize) -> CellRef<'a> {
        match (self.0, self.pair(i)) {
            (Group::Rows(rows), _) => (&rows[i].values()[c]).into(),
            (_, Some((pairs, p))) => pairs.cell(p, c),
            (_, None) => unreachable!("a value of pairs"),
        }
    }

    /// Value `i`, copied out as a row.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> Row {
        match (self.0, self.pair(i)) {
            (Group::Rows(rows), _) => rows[i].clone(),
            (_, Some((pairs, p))) => Row::new(pairs.value(p)),
            (_, None) => unreachable!("a value of pairs"),
        }
    }

    /// Values `range` of the group, as a group of their own.
    fn slice(self, range: Range<usize>) -> Self {
        GroupView(match self.0 {
            Group::Rows(rows) => Group::Rows(&rows[range]),
            Group::Run { pairs, order } => Group::Run {
                pairs,
                order: &order[range],
            },
            Group::Merged { runs, at } => Group::Merged {
                runs,
                at: &at[range],
            },
        })
    }

    /// The values copied out as rows — the adaptor behind the default
    /// [`Reducer::reduce_run`] and [`Combiner::combine_run`].
    #[must_use]
    pub fn to_rows(self) -> Vec<Row> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }
}

/// Key groups in order — what the engine hands [`Reducer::reduce_run`]
/// (one reduce task's) and [`Combiner::combine_run`] (one map-side
/// segment's). The values of every group lie back to back in one
/// [`GroupView`] ([`KeyGroups::values`]): group `g` is the range
/// [`KeyGroups::bounds`]`(g)` of it ([`KeyGroups::group`]), shown the key
/// [`KeyGroups::key`]`(g)`.
#[derive(Debug, Clone, Copy)]
pub struct KeyGroups<'a> {
    values: GroupView<'a>,
    /// Group `g` starts at value `starts[g]` and runs to the next start
    /// (the last one to the end).
    starts: &'a [u32],
    keys: Keys<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Keys<'a> {
    /// One key row per group.
    Rows(&'a [Row]),
    /// A group's key is that of the pair behind its first value.
    Pairs,
}

impl<'a> KeyGroups<'a> {
    /// Groups of whole rows: group `g` has key `keys[g]` and the values
    /// `values[starts[g]..starts[g + 1]]` (the last to the end). A group may
    /// be empty.
    ///
    /// # Panics
    ///
    /// When there is not one key per start, or the starts do not rise from
    /// 0 within `values`.
    #[must_use]
    pub fn rows(keys: &'a [Row], values: &'a [Row], starts: &'a [u32]) -> Self {
        assert_eq!(keys.len(), starts.len(), "one key per group");
        assert!(starts.first().is_none_or(|&s| s == 0), "first group at 0");
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "rising starts");
        assert!(starts.last().is_none_or(|&s| s as usize <= values.len()));
        KeyGroups {
            values: GroupView::rows(values),
            starts,
            keys: Keys::Rows(keys),
        }
    }

    /// The groups of a shuffle merge: `(run, pair)` positions over the
    /// arenas, each group starting at one of `starts`.
    pub(crate) fn merged(runs: &'a [&'a Pairs], at: &'a [(u32, u32)], starts: &'a [u32]) -> Self {
        KeyGroups {
            values: GroupView::merged(runs, at),
            starts,
            keys: Keys::Pairs,
        }
    }

    /// The groups of a sorted map-side run: pairs `order[..]` of one
    /// arena, each group starting at one of `starts`.
    pub(crate) fn run(pairs: &'a Pairs, order: &'a [u32], starts: &'a [u32]) -> Self {
        KeyGroups {
            values: GroupView::run(pairs, order),
            starts,
            keys: Keys::Pairs,
        }
    }

    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there is no group.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Every group's values, back to back: what [`KeyGroups::bounds`]
    /// indexes.
    #[must_use]
    pub fn values(&self) -> GroupView<'a> {
        self.values
    }

    /// Where group `g`'s values lie among all the groups' values.
    ///
    /// # Panics
    ///
    /// When `g` is out of range.
    #[must_use]
    pub fn bounds(&self, g: usize) -> Range<usize> {
        let end = self
            .starts
            .get(g + 1)
            .map_or(self.values.len(), |&next| next as usize);
        self.starts[g] as usize..end
    }

    /// Group `g`'s values.
    ///
    /// # Panics
    ///
    /// When `g` is out of range.
    #[must_use]
    pub fn group(&self, g: usize) -> GroupView<'a> {
        self.values.slice(self.bounds(g))
    }

    /// Group `g`'s key, copied out.
    ///
    /// # Panics
    ///
    /// When `g` is out of range.
    #[must_use]
    pub fn key(&self, g: usize) -> Row {
        match self.keys {
            Keys::Rows(keys) => keys[g].clone(),
            Keys::Pairs => {
                let first = self.starts[g] as usize;
                let (pairs, p) = self.values.pair(first).expect("groups of pairs");
                Row::new(pairs.key(p))
            }
        }
    }
}

/// Key/value pairs emitted by a mapper, with byte and work accounting.
///
/// A pair is routed to its reduce partition *as it is emitted* and its cells
/// are appended to that partition's arena; nothing is allocated per pair and
/// nothing is re-partitioned later. The engine builds the buffer with the
/// job's reducer count; [`MapOutput::default`] is a single partition, which
/// keeps pairs in emit order.
#[derive(Debug)]
pub struct MapOutput {
    parts: Vec<Pairs>,
    work: u64,
    bad_records: u64,
    dispatches: Vec<u64>,
    fatal: Option<String>,
}

impl Default for MapOutput {
    fn default() -> Self {
        MapOutput::partitioned(1)
    }
}

impl MapOutput {
    /// A buffer routing pairs to `partitions` reduce partitions (at least
    /// one) by [`crate::hash::partition`] of their keys — what the engine
    /// builds for a job with that many reducers.
    #[must_use]
    pub fn partitioned(partitions: usize) -> Self {
        MapOutput {
            parts: (0..partitions.max(1)).map(|_| Pairs::default()).collect(),
            work: 0,
            bad_records: 0,
            dispatches: Vec::new(),
            fatal: None,
        }
    }

    /// Pre-reserves room for `additional` more pairs. The engine calls this
    /// with the task's line count (a mapper emits at most one pair per input
    /// line), so an arena does not regrow mid-task: every column of a
    /// partition's arena, present or grown later, makes room for them. The
    /// key hash spreads the pairs over `n` partitions binomially; each gets
    /// its share plus three deviations (a deviation is below the square root
    /// of the share), because an arena that outgrows its share doubles.
    pub fn reserve(&mut self, additional: usize) {
        let share = match self.parts.len() {
            1 => additional,
            n => additional / n + 3 * ((additional / n) as f64).sqrt() as usize,
        };
        for part in &mut self.parts {
            part.reserve(share);
        }
    }

    /// Emits one key/value pair whole: hashes the key to its partition and
    /// pushes the cells of both rows onto that partition's columns.
    pub fn emit(&mut self, key: Row, value: Row) {
        let (mut key, mut value) = (key.into_values(), value.into_values());
        let partition = match self.parts.len() {
            1 => 0,
            n => partition_cells(&key, n),
        };
        self.parts[partition].append(&mut key, &mut value);
    }

    /// Emits one pair per row of `rows` of a column batch, a column at a
    /// time: the key is those rows of `key_cols`, the value the row's tag
    /// (when `tags` is given, one per row) followed by those rows of
    /// `value_cols` — the pairs [`MapOutput::emit`] of each row in order
    /// would write, to the same partitions and arenas. Every row's partition
    /// is hashed straight from the typed key columns; a stable counting sort
    /// then groups the rows by partition, and each partition's rows of each
    /// column are appended to its arena's column in one typed copy.
    ///
    /// # Panics
    ///
    /// When `tags` and `rows` differ in length, or a row is out of range of
    /// a column.
    pub fn emit_columns(
        &mut self,
        rows: &[usize],
        key_cols: &[&Column],
        tags: Option<&[i64]>,
        value_cols: &[&Column],
    ) {
        assert!(
            tags.is_none_or(|t| t.len() == rows.len()),
            "one tag per row"
        );
        if let [part] = &mut self.parts[..] {
            part.append_columns((key_cols, rows), tags, false, (value_cols, rows));
            return;
        }
        let partitions = partition_columns(key_cols, rows, self.parts.len());
        let mut starts = vec![0; self.parts.len() + 1];
        for &p in &partitions {
            starts[p + 1] += 1;
        }
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        let mut next = starts.clone();
        let mut sorted_rows = vec![0; rows.len()];
        let mut sorted_tags = vec![0; tags.map_or(0, <[i64]>::len)];
        for (i, &p) in partitions.iter().enumerate() {
            sorted_rows[next[p]] = rows[i];
            if let Some(tags) = tags {
                sorted_tags[next[p]] = tags[i];
            }
            next[p] += 1;
        }
        for (p, part) in self.parts.iter_mut().enumerate() {
            let run = starts[p]..starts[p + 1];
            let (tags, rows) = (tags.map(|_| &sorted_tags[run.clone()]), &sorted_rows[run]);
            part.append_columns((key_cols, rows), tags, false, (value_cols, rows));
        }
    }

    /// Charges extra CPU work units (≈ one record operation each) beyond
    /// the per-record baseline — how a multi-branch common mapper reports
    /// its dispatch overhead to the cost model.
    pub fn add_work(&mut self, units: u64) {
        self.work += units;
    }

    /// Work units charged so far.
    #[must_use]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Reports one malformed input record the mapper skipped instead of
    /// aborting — Hadoop's skipping mode. The engine sums these against the
    /// [`crate::config::ClusterConfig::skip_bad_records`] budget and fails
    /// the job with [`crate::MapRedError::TooManyBadRecords`] when the
    /// budget is exceeded.
    pub fn record_bad(&mut self) {
        self.bad_records += 1;
    }

    /// Malformed records skipped so far.
    #[must_use]
    pub fn bad_records(&self) -> u64 {
        self.bad_records
    }

    /// Counts one record dispatched to merged output stream `stream` — how
    /// a common mapper (CMF) reports its per-branch fan-out, surfaced in
    /// [`crate::JobMetrics::map_dispatches`] and the execution trace.
    pub fn record_dispatch(&mut self, stream: usize) {
        self.record_dispatches(stream, 1);
    }

    /// Counts `n` records dispatched to `stream` at once — a batch's count.
    /// Like `n` calls of [`MapOutput::record_dispatch`], except that `n = 0`
    /// still extends the counts to `stream`: report only streams that saw a
    /// record.
    pub fn record_dispatches(&mut self, stream: usize, n: u64) {
        if self.dispatches.len() <= stream {
            self.dispatches.resize(stream + 1, 0);
        }
        self.dispatches[stream] += n;
    }

    /// Takes the per-stream dispatch counts (empty when the mapper never
    /// reported streams).
    pub fn take_dispatches(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dispatches)
    }

    /// Reports an unrecoverable evaluation error — a malformed plan, a
    /// projection index out of range, a failing expression. The engine
    /// turns it into a typed [`crate::MapRedError::User`] failure instead
    /// of the task panicking the whole chain. The first error wins.
    pub fn record_fatal(&mut self, msg: String) {
        self.fatal.get_or_insert(msg);
    }

    /// Takes the fatal error, if one was reported.
    pub fn take_fatal(&mut self) -> Option<String> {
        self.fatal.take()
    }

    /// Number of pairs emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.iter().map(Pairs::len).sum()
    }

    /// Whether nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Pairs::is_empty)
    }

    /// The pairs routed to partition `p` so far, in emit order, as `(key,
    /// value)` cells copied out of its arena.
    ///
    /// # Panics
    ///
    /// When `p` is not a partition.
    pub fn pairs(&self, p: usize) -> impl Iterator<Item = (Vec<Value>, Vec<Value>)> + '_ {
        let part = &self.parts[p];
        (0..part.len()).map(move |i| (part.key(i), part.value(i)))
    }

    /// What partition `p`'s shuffle segment is charged for: its bytes in the
    /// text framing (key, tab, value, newline) and, when its pairs form one
    /// frame of `key ⧺ value` rows, that frame's size and dictionary count.
    /// The text bytes are added up as the pairs are written; the frame is
    /// read off the arena's typed columns.
    ///
    /// # Panics
    ///
    /// When `p` is not a partition.
    #[must_use]
    pub fn segment_size(&self, p: usize) -> (u64, Option<FrameStats>) {
        (self.parts[p].text_bytes(), self.parts[p].frame_stats())
    }

    /// Consumes the buffer into its per-partition arenas, growth slack
    /// returned.
    pub(crate) fn into_parts(mut self) -> Vec<Pairs> {
        self.parts.iter_mut().for_each(Pairs::trim);
        self.parts
    }

    /// Consumes the buffer into parallel key and value rows, partition by
    /// partition and in emit order within each — the boundary back to
    /// row-at-a-time code.
    #[must_use]
    pub fn into_columns(self) -> (Vec<Row>, Vec<Row>) {
        let mut keys = Vec::with_capacity(self.len());
        let mut values = Vec::with_capacity(self.len());
        for part in &self.parts {
            for i in 0..part.len() {
                keys.push(Row::new(part.key(i)));
                values.push(Row::new(part.value(i)));
            }
        }
        (keys, values)
    }
}

/// Records of typed cells, as a task writes them: what a reducer emits
/// into its [`ReduceOutput`] and what a combiner returns ([`Combined`]).
/// They are kept as a key-less shuffle arena — one typed [`Column`] per cell
/// position, records of any widths — and written a column batch at a time
/// ([`Records::append_columns`], one typed copy per column) or a row whole
/// ([`Records::push`], its cells pushed one by one). A record's optional
/// merged-stream tag is its leading `Int` cell, held as the pair's key: its
/// frame's leading column and its text line's `tag|` prefix alike.
#[derive(Debug, Default)]
pub struct Records(Pairs);

impl Records {
    /// Appends one record whole: `row`'s cells, behind `tag` when given.
    pub fn push(&mut self, tag: Option<i64>, row: Row) {
        let mut tag: Vec<Value> = tag.map(Value::Int).into_iter().collect();
        self.0.append(&mut tag, &mut row.into_values());
    }

    /// Appends one record per row of `rows`: that row of each of `cols`,
    /// behind its tag when there are `tags` (one per row) — each column
    /// appended in one typed copy, no cell built.
    ///
    /// # Panics
    ///
    /// When `tags` and `rows` differ in length, or a row is out of range of
    /// a column.
    pub fn append_columns(&mut self, rows: &[usize], tags: Option<&[i64]>, cols: &[&Column]) {
        assert!(
            tags.is_none_or(|t| t.len() == rows.len()),
            "one tag per row"
        );
        self.0.append_columns((&[], &[]), tags, true, (cols, rows));
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there is no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Record `i`'s tag, when it has one.
    fn tag(&self, i: usize) -> Option<i64> {
        (self.0.shape(i).0 == 1).then(|| self.0.key(i)[0].as_int().expect("an `Int` tag"))
    }

    /// Record `i`'s cells behind its tag, copied out as a row.
    fn row(&self, i: usize) -> Row {
        Row::new(self.0.value(i))
    }

    /// Every record's text line — `field|field|…`, behind `tag|` when
    /// tagged — in order: what the task writes in text mode.
    fn lines(&self) -> Vec<String> {
        let line = |i| {
            let mut line = String::new();
            self.0.write_line(i, false, &mut line);
            line
        };
        (0..self.len()).map(line).collect()
    }

    /// The arena the records lie in.
    pub(crate) fn pairs(&self) -> &Pairs {
        &self.0
    }
}

/// What a combiner returns for one segment of a map task's sorted run
/// ([`Combiner::combine_run`]): the replacement values of all its key
/// groups, in group order, and per group the index at which its values
/// start among them (a group may be left with none).
#[derive(Debug, Default)]
pub struct Combined {
    /// The replacement values, untagged.
    pub values: Records,
    /// Per group, the index of its first value.
    pub starts: Vec<u32>,
}

impl Combined {
    /// The values copied out as rows, beside the group starts.
    #[must_use]
    pub fn into_rows(self) -> (Vec<Row>, Vec<u32>) {
        let values = &self.values;
        (
            (0..values.len()).map(|i| values.row(i)).collect(),
            self.starts,
        )
    }
}

/// One record of a [`ReduceOutput`], copied out ([`ReduceOutput::into_emits`]):
/// a typed row, optionally tagged with the merged-output stream it belongs
/// to (the way merged CMR jobs prefix intermediate lines with `tag|`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceEmit {
    /// Merged-output stream tag (`Some` renders as a `tag|` prefix in text
    /// mode and a leading `Int` column in columnar mode).
    pub tag: Option<i64>,
    /// The record itself.
    pub row: Row,
}

/// Records emitted by a reducer (its output file content), with work
/// accounting.
#[derive(Debug, Default)]
pub struct ReduceOutput {
    records: Records,
    work: u64,
    dispatches: Vec<u64>,
    fatal: Option<String>,
}

impl ReduceOutput {
    /// Emits one typed output row.
    pub fn emit_row(&mut self, row: Row) {
        self.records.push(None, row);
    }

    /// Emits one typed output row tagged with merged-output stream `tag` —
    /// the intermediate format of merged (CMR) jobs, whose text rendering
    /// is `tag|field|field|…`.
    pub fn emit_tagged_row(&mut self, tag: i64, row: Row) {
        self.records.push(Some(tag), row);
    }

    /// Emits one output row per row of `rows` of a column batch, a column
    /// at a time — what [`ReduceOutput::emit_row`] (or, with `tags`, one per
    /// row, [`ReduceOutput::emit_tagged_row`]) of each row in order would
    /// write: [`Records::append_columns`].
    ///
    /// # Panics
    ///
    /// As [`Records::append_columns`].
    pub fn emit_columns(&mut self, rows: &[usize], tags: Option<&[i64]>, cols: &[&Column]) {
        self.records.append_columns(rows, tags, cols);
    }

    /// Charges extra CPU work units beyond the per-record baseline — how a
    /// common reducer reports the cost of dispatching each value to several
    /// merged reducers (and how a short-circuiting hand-coded reducer shows
    /// up cheaper).
    pub fn add_work(&mut self, units: u64) {
        self.work += units;
    }

    /// Work units charged so far.
    #[must_use]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// The emissions so far, rendered to their text-mode lines —
    /// byte-identical to what a self-formatting reducer would have written.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.records.lines()
    }

    /// Number of records emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Counts one value dispatched to merged output stream `stream` — how a
    /// common reducer (post-shuffle fan-out, §VI-B) reports which merged
    /// query branch each value fed, surfaced in
    /// [`crate::JobMetrics::reduce_dispatches`] and the execution trace.
    pub fn record_dispatch(&mut self, stream: usize) {
        self.record_dispatches(stream, 1);
    }

    /// Counts `n` values dispatched to `stream` at once — the direct-mode
    /// (single stream) bulk path.
    pub fn record_dispatches(&mut self, stream: usize, n: u64) {
        if self.dispatches.len() <= stream {
            self.dispatches.resize(stream + 1, 0);
        }
        self.dispatches[stream] += n;
    }

    /// Takes the per-stream dispatch counts (empty when the reducer never
    /// reported streams).
    pub fn take_dispatches(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dispatches)
    }

    /// Reports an unrecoverable evaluation error; the engine turns it into
    /// a typed [`crate::MapRedError::User`] failure instead of the task
    /// panicking the whole chain. The first error wins.
    pub fn record_fatal(&mut self, msg: String) {
        self.fatal.get_or_insert(msg);
    }

    /// Takes the fatal error, if one was reported.
    pub fn take_fatal(&mut self) -> Option<String> {
        self.fatal.take()
    }

    /// The emissions, copied out in emit order — a read-out view for
    /// tests; the engine packs the records where they lie.
    #[must_use]
    pub fn into_emits(self) -> Vec<ReduceEmit> {
        let records = &self.records;
        let emit = |i| ReduceEmit {
            tag: records.tag(i),
            row: records.row(i),
        };
        (0..records.len()).map(emit).collect()
    }

    /// Consumes the buffer into its records.
    pub(crate) fn into_records(self) -> Records {
        self.records
    }
}

/// A map function: transforms one input record (a line) into key/value
/// pairs.
pub trait Mapper {
    /// Processes one record. Emitting nothing drops the record (selection).
    fn map(&mut self, line: &str, out: &mut MapOutput);

    /// Processes a text task's lines, in order — the entry point the
    /// engine calls, once per task. The default feeds each line to
    /// [`Mapper::map`]; a mapper that maps lines a batch at a time
    /// overrides it, and must emit what that would wherever the job does
    /// not fail.
    fn map_lines(&mut self, lines: &[&str], out: &mut MapOutput) {
        for line in lines {
            self.map(line, out);
        }
    }

    /// Processes one columnar batch. The default renders each row back to
    /// its text line and feeds [`Mapper::map`], so every line-oriented
    /// mapper works unchanged under
    /// [`crate::config::DataFormat::Columnar`]; vectorizing mappers
    /// override it to read column vectors directly.
    fn map_batch(&mut self, batch: &ColumnBatch, out: &mut MapOutput) {
        let mut line = String::new();
        for r in 0..batch.num_rows() {
            line.clear();
            ysmart_rel::codec::encode_line_into(&batch.row(r), &mut line);
            self.map(&line, out);
        }
    }
}

/// A reduce function: receives one key and all values for it.
pub trait Reducer {
    /// Processes one key group. Its values come in the shuffle's order,
    /// never sorted by value: by map task, and within a task as it emitted
    /// them (or as its combiner wrote them).
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput);

    /// Processes every key group of one reduce task, in order, where the
    /// groups lie in the shuffle — the entry point the engine calls, once
    /// per task. The default copies each group into rows and feeds
    /// [`Reducer::reduce`], so every row-oriented reducer works unchanged; a
    /// reducer that reads cells in place overrides it, and must emit what
    /// that would.
    fn reduce_run(&mut self, groups: KeyGroups<'_>, out: &mut ReduceOutput) {
        for g in 0..groups.len() {
            self.reduce(&groups.key(g), &groups.group(g).to_rows(), out);
        }
    }
}

/// A map-side combiner: pre-aggregates the key groups of map output,
/// returning replacement values. This is the "internal hash-aggregate map"
/// Hive uses in the map phase (paper footnote 2).
pub trait Combiner {
    /// Combines the values of one key into (usually fewer) values.
    fn combine(&mut self, key: &Row, values: &[Row]) -> Vec<Row>;

    /// Combines every key group of one segment of the map task's sorted
    /// run, where the groups lie — the entry point the engine calls, once
    /// per segment. Returns the replacement values of all groups in group
    /// order, as typed records, and where each group's start among them
    /// ([`Combined`]). The default copies each group into rows, feeds
    /// [`Combiner::combine`], like [`Reducer::reduce_run`], and pushes the
    /// rows it returns.
    fn combine_run(&mut self, groups: KeyGroups<'_>) -> Combined {
        let mut out = Combined::default();
        for g in 0..groups.len() {
            out.starts.push(out.values.len() as u32);
            for row in self.combine(&groups.key(g), &groups.group(g).to_rows()) {
                out.values.push(None, row);
            }
        }
        out
    }

    /// An unrecoverable error the combiner hit (combiners return values,
    /// not an output buffer, so they report errors through this hook after
    /// the run instead of panicking). The engine polls it once per task and
    /// turns `Some` into a typed [`crate::MapRedError::User`] failure.
    fn take_error(&mut self) -> Option<String> {
        None
    }
}

/// Builds a fresh [`Mapper`] per map task.
pub type MapperFactory = Box<dyn Fn() -> Box<dyn Mapper> + Send + Sync>;
/// Builds a fresh [`Reducer`] per reduce task.
pub type ReducerFactory = Box<dyn Fn() -> Box<dyn Reducer> + Send + Sync>;
/// Builds a fresh [`Combiner`] per map task.
pub type CombinerFactory = Box<dyn Fn() -> Box<dyn Combiner> + Send + Sync>;

/// One input of a job: an HDFS path and the mapper that reads it.
pub struct JobInput {
    /// HDFS path of the input file.
    pub path: String,
    /// Factory for the mapper applied to this input's records.
    pub mapper: MapperFactory,
}

impl std::fmt::Debug for JobInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobInput")
            .field("path", &self.path)
            .finish()
    }
}

/// A full MapReduce job description.
pub struct JobSpec {
    /// Job name (for metrics and figures).
    pub name: String,
    /// Inputs, each with its own mapper.
    pub inputs: Vec<JobInput>,
    /// The reducer; `None` makes this a map-only job whose mapper output
    /// values are written directly (keys discarded), like a Hadoop job with
    /// zero reduces.
    pub reducer: Option<ReducerFactory>,
    /// Optional map-side combiner.
    pub combiner: Option<CombinerFactory>,
    /// Output path in HDFS.
    pub output: String,
    /// Number of reduce tasks; `None` uses the cluster default.
    pub reduce_tasks: Option<usize>,
    /// Estimated number of distinct shuffle keys, when the translator has
    /// statistics: the engine caps the derived reduce-task count with it
    /// (more reducers than keys are pure startup overhead).
    pub key_cardinality_hint: Option<u64>,
    /// Canonical fingerprint of the logical plan *and* the identity of its
    /// inputs, when the producer of this spec (the translator) can compute
    /// one. Equal fingerprints mean equal outputs, so the cross-query
    /// result-reuse cache ([`crate::reuse`]) may substitute a cached output
    /// for execution. `None` opts the job out of reuse entirely.
    pub fingerprint: Option<u64>,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("output", &self.output)
            .field("map_only", &self.reducer.is_none())
            .field("has_combiner", &self.combiner.is_some())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl JobSpec {
    /// Starts building a job.
    #[must_use]
    pub fn builder(name: &str) -> JobSpecBuilder {
        JobSpecBuilder {
            name: name.to_string(),
            inputs: Vec::new(),
            reducer: None,
            combiner: None,
            output: format!("tmp/{name}"),
            reduce_tasks: None,
            key_cardinality_hint: None,
            fingerprint: None,
        }
    }
}

/// Builder for [`JobSpec`].
pub struct JobSpecBuilder {
    name: String,
    inputs: Vec<JobInput>,
    reducer: Option<ReducerFactory>,
    combiner: Option<CombinerFactory>,
    output: String,
    reduce_tasks: Option<usize>,
    key_cardinality_hint: Option<u64>,
    fingerprint: Option<u64>,
}

impl JobSpecBuilder {
    /// Adds an input with its mapper factory.
    #[must_use]
    pub fn input(
        mut self,
        path: &str,
        mapper: impl Fn() -> Box<dyn Mapper> + Send + Sync + 'static,
    ) -> Self {
        self.inputs.push(JobInput {
            path: path.to_string(),
            mapper: Box::new(mapper),
        });
        self
    }

    /// Sets the reducer.
    #[must_use]
    pub fn reducer(
        mut self,
        reducer: impl Fn() -> Box<dyn Reducer> + Send + Sync + 'static,
    ) -> Self {
        self.reducer = Some(Box::new(reducer));
        self
    }

    /// Sets the combiner.
    #[must_use]
    pub fn combiner(
        mut self,
        combiner: impl Fn() -> Box<dyn Combiner> + Send + Sync + 'static,
    ) -> Self {
        self.combiner = Some(Box::new(combiner));
        self
    }

    /// Sets the output path.
    #[must_use]
    pub fn output(mut self, path: &str) -> Self {
        self.output = path.to_string();
        self
    }

    /// Sets the number of reduce tasks.
    #[must_use]
    pub fn reduce_tasks(mut self, n: usize) -> Self {
        self.reduce_tasks = Some(n);
        self
    }

    /// Sets the estimated distinct-key count.
    #[must_use]
    pub fn key_cardinality_hint(mut self, n: u64) -> Self {
        self.key_cardinality_hint = Some(n);
        self
    }

    /// Sets the reuse fingerprint — only when the caller can vouch that
    /// equal fingerprints imply byte-identical outputs.
    #[must_use]
    pub fn fingerprint(mut self, fp: u64) -> Self {
        self.fingerprint = Some(fp);
        self
    }

    /// Finishes the spec.
    #[must_use]
    pub fn build(self) -> JobSpec {
        JobSpec {
            name: self.name,
            inputs: self.inputs,
            reducer: self.reducer,
            combiner: self.combiner,
            output: self.output,
            reduce_tasks: self.reduce_tasks,
            key_cardinality_hint: self.key_cardinality_hint,
            fingerprint: self.fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ysmart_rel::colbatch::frame_stats;
    use ysmart_rel::row;

    struct NullMapper;
    impl Mapper for NullMapper {
        fn map(&mut self, _line: &str, _out: &mut MapOutput) {}
    }

    #[test]
    fn builder_assembles_spec() {
        let spec = JobSpec::builder("j1")
            .input("data/t", || Box::new(NullMapper))
            .output("out/j1")
            .reduce_tasks(3)
            .build();
        assert_eq!(spec.name, "j1");
        assert_eq!(spec.inputs.len(), 1);
        assert_eq!(spec.output, "out/j1");
        assert_eq!(spec.reduce_tasks, Some(3));
        assert!(spec.reducer.is_none());
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("map_only: true"));
    }

    #[test]
    fn map_output_accumulates() {
        let mut out = MapOutput::default();
        assert!(out.is_empty());
        out.emit(row![1i64], row!["a"]);
        out.emit(row![2i64], row!["b"]);
        assert_eq!(out.len(), 2);
        out.record_bad();
        assert_eq!(out.bad_records(), 1);
        assert_eq!(out.len(), 2, "a skipped record emits nothing");
        let (keys, values) = out.into_columns();
        assert_eq!(keys, [row![1i64], row![2i64]]);
        assert_eq!(values, [row!["a"], row!["b"]]);
    }

    #[test]
    fn pairs_are_routed_at_emit() {
        let mut out = MapOutput::partitioned(3);
        out.reserve(40);
        for k in 0..40i64 {
            // Mixed widths, empty keys included.
            let width = (k % 3) as usize;
            out.emit(vec![Value::Int(k); width].into(), row![k, "v"]);
        }
        assert_eq!(out.len(), 40);
        let parts = out.into_parts();
        assert_eq!(parts.iter().map(Pairs::len).sum::<usize>(), 40);
        for (p, part) in parts.iter().enumerate() {
            assert_eq!(part.uniform_width(), None, "widths differ");
            for i in 0..part.len() {
                assert_eq!(crate::hash::partition_cells(&part.key(i), 3), p);
                let k = part.value(i)[0].as_int().unwrap();
                assert_eq!(part.key(i), vec![Value::Int(k); (k % 3) as usize]);
                assert_eq!(part.value(i), row![k, "v"].values());
                assert_eq!(part.pair(i), [part.key(i), part.value(i)].concat());
                assert_eq!(part.tag(i), k);
            }
            assert!(part.cols.iter().all(|col| col.len() == part.len()));
        }
    }

    /// A batch emitted a column at a time lands exactly where emitting its
    /// rows one by one puts them — cells, key/value split, partition, emit
    /// order within a partition — with the same segment sizes, read off the
    /// columns, as the cells they hold give.
    #[test]
    fn column_emits_match_row_emits() {
        let reread = |part: &Pairs| {
            let cells = (0..part.len()).flat_map(|i| part.pair(i));
            cells.map(|v| v.size_bytes() as u64).sum::<u64>() + 2 * part.len() as u64
        };
        let batch = ColumnBatch::from_rows(&[
            row![1i64, "a", 1.5f64],
            Row::new(vec![Value::Null, Value::Str("b".into()), Value::Null]),
            row![7i64, "a", 2.5f64],
            row![3i64, "c", 0.5f64],
            row![7i64, "d", 0.5f64],
        ])
        .unwrap();
        let cols: Vec<&Column> = batch.columns().iter().collect();
        let (rows, tags) = ([3, 0, 2, 1, 4, 2], [4, 5, 6, 7, 8, 9]);
        for n in [1, 2, 3, 8] {
            let mut by_columns = MapOutput::partitioned(n);
            by_columns.reserve(rows.len());
            by_columns.emit_columns(&rows[..2], &cols[..1], Some(&tags[..2]), &cols[1..]);
            by_columns.emit_columns(&[], &cols[..1], Some(&[]), &cols[1..]);
            by_columns.emit_columns(&rows[2..], &cols[..1], Some(&tags[2..]), &cols[1..]);
            let mut by_rows = MapOutput::partitioned(n);
            by_rows.reserve(rows.len());
            for (&r, &tag) in rows.iter().zip(&tags) {
                let row = batch.row(r).into_values();
                let value = std::iter::once(Value::Int(tag)).chain(row[1..].iter().cloned());
                by_rows.emit(Row::new(row[..1].to_vec()), value.collect());
            }
            assert_eq!(by_columns.len(), rows.len());
            for p in 0..n {
                let pairs = |out: &MapOutput| format!("{:?}", out.pairs(p).collect::<Vec<_>>());
                assert_eq!(pairs(&by_columns), pairs(&by_rows), "{n} partitions, {p}");
                assert_eq!(by_columns.segment_size(p), by_rows.segment_size(p));
                assert_eq!(by_rows.segment_size(p).0, reread(&by_rows.parts[p]));
            }
        }
        // A write of another width ends the frame, not the text size.
        let mut out = MapOutput::default();
        out.emit_columns(&[0, 1], &cols[..1], None, &cols[1..]);
        out.emit_columns(&[2], &cols[..1], None, &cols[1..2]);
        assert_eq!(out.segment_size(0), (reread(&out.parts[0]), None));
        // Pairs written whole after a column write join the same columns.
        let mut mixed = MapOutput::default();
        mixed.emit_columns(&rows, &cols[..1], None, &cols[1..]);
        mixed.emit(row![9i64], row!["z", 1.0f64]);
        let part = &mixed.parts[0];
        let pairs: Vec<Vec<Value>> = (0..part.len()).map(|i| part.pair(i)).collect();
        let frame = frame_stats(part.len(), 3, |r, c| &pairs[r][c]);
        assert!(frame.is_some());
        assert_eq!(mixed.segment_size(0), (reread(part), frame));
    }

    #[test]
    fn group_views_read_values_in_place() {
        let mut a = Pairs::default();
        a.append(&mut vec![Value::Int(1)], &mut row!["a0"].into_values());
        a.append(
            &mut vec![Value::Int(1)],
            &mut row!["a1", 2i64].into_values(),
        );
        let mut b = Pairs::default();
        b.append(&mut vec![Value::Int(1)], &mut Vec::new());
        assert_eq!(a.uniform_width(), None);
        assert_eq!(b.uniform_width(), Some(1));
        let rows = [row!["a1", 2i64], Row::default(), row!["a0"]];
        let arenas = [&a, &b];
        let views = [
            GroupView::rows(&rows),
            GroupView::merged(&arenas, &[(0, 1), (1, 0), (0, 0)]),
        ];
        for view in views {
            assert_eq!(view.len(), 3);
            assert_eq!(view.row(0), rows[0]);
            assert_eq!(view.width(1), 0);
            assert_eq!(view.tag(0), 0, "a `Str` is no tag");
            assert_eq!(view.to_rows(), rows);
            let col = view.gather(0, &[2, 0]);
            assert_eq!(
                col,
                Column::from_cells(2, |r| &[&rows[2], &rows[0]][r].values()[0])
            );
            // A `NULL_ROW` position reads NULL.
            let cells = [&rows[2].values()[0], &Value::Null, &rows[0].values()[0]];
            let col = view.gather(0, &[2, NULL_ROW, 0]);
            assert_eq!(col, Column::from_cells(3, |r| cells[r]));
        }
        let run = GroupView::run(&a, &[1, 0]);
        assert_eq!(run.to_rows(), [row!["a1", 2i64], row!["a0"]]);
        assert!(GroupView::rows(&[]).is_empty());
        // Uniform arenas gather typed, across runs, as `from_cells` types.
        let (mut c, mut d) = (Pairs::default(), Pairs::default());
        c.append(&mut vec![Value::Int(1)], &mut row![5i64, "x"].into_values());
        c.append(
            &mut vec![Value::Int(2)],
            &mut row![Value::Null, "y"].into_values(),
        );
        d.append(&mut vec![Value::Int(1)], &mut row![6i64, "y"].into_values());
        let arenas = [&c, &d];
        let view = GroupView::merged(&arenas, &[(1, 0), (0, 1), (0, 0)]);
        let ints = [Value::Int(6), Value::Null, Value::Int(5)];
        assert_eq!(
            view.gather(0, &[0, 1, 2]),
            Column::from_cells(3, |r| &ints[r])
        );
        let strs = [
            Value::Str("x".into()),
            Value::Str("y".into()),
            Value::Str("y".into()),
        ];
        let col = view.gather(1, &[2, 1, 0]);
        assert_eq!(col, Column::from_cells(3, |r| &strs[r]));
        let padded = [Value::Null, Value::Int(6), Value::Null];
        assert_eq!(
            view.gather(0, &[NULL_ROW, 0, NULL_ROW]),
            Column::from_cells(3, |r| &padded[r])
        );
        let run = GroupView::run(&c, &[1, 0]);
        assert_eq!(
            run.gather(0, &[NULL_ROW, 1]),
            Column::from_cells(2, |r| &[Value::Null, Value::Int(5)][r])
        );
        assert!(matches!(col, Column::Str { ref dict, .. } if dict.len() == 2));
    }

    #[test]
    fn reduce_output_accumulates() {
        let mut out = ReduceOutput::default();
        out.emit_row(row!["x", "y"]);
        assert_eq!(out.lines(), vec!["x|y".to_string()]);
    }

    #[test]
    fn row_emissions_render_like_hand_formatted_lines() {
        let mut out = ReduceOutput::default();
        out.emit_row(row![7i64, "a"]);
        out.emit_tagged_row(2, row![7i64, "a"]);
        out.emit_row(row![7i64, "a"]);
        assert_eq!(
            out.lines(),
            vec!["7|a".to_string(), "2|7|a".to_string(), "7|a".to_string()]
        );
        let tags: Vec<Option<i64>> = out.into_emits().iter().map(|e| e.tag).collect();
        assert_eq!(tags, [None, Some(2), None]);
    }

    #[test]
    fn default_map_batch_replays_text_lines() {
        struct Echo;
        impl Mapper for Echo {
            fn map(&mut self, line: &str, out: &mut MapOutput) {
                out.emit(row![line], Row::default());
            }
        }
        let batch = ColumnBatch::from_rows(&[row![1i64, "x"], row![2i64, "y"]]).unwrap();
        let mut out = MapOutput::default();
        Echo.map_batch(&batch, &mut out);
        assert_eq!(out.into_columns().0, [row!["1|x"], row!["2|y"]]);
    }
}
