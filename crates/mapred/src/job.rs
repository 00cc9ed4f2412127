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
//! A shuffle pair is a span of cells, not a pair of rows: [`MapOutput`]
//! routes each pair to its reduce partition as it is emitted and appends its
//! `key ⧺ value` cells to that partition's flat arena, where they stay until
//! the reduce task that consumed them is done. Everything downstream
//! addresses pairs by index: a [`Combiner`] is handed a map-side segment's
//! key groups at once, a [`Reducer`] its whole task's, each as
//! [`KeyGroups`] — a [`GroupView`] of borrowed cell slices cut at the group
//! starts. The row-shaped entry points — [`MapOutput::emit`],
//! [`Reducer::reduce`], [`Combiner::combine`] — remain what hand-written
//! jobs implement; the cell-shaped ones default to them (`reduce_run` to
//! `reduce` and `combine_run` to `combine`, group by group). A mapper emits
//! a pair whole through [`MapOutput::emit_cells`], or a column batch whole
//! through [`MapOutput::emit_columns`], which writes the same pairs a column
//! at a time; either way each pair's bytes are counted as it is written.
//!
//! A reducer emits one shape of record, [`ReduceEmit`]: a typed [`Row`]
//! with an optional merged-stream tag. Whether a task's records are stored
//! as columnar frames or as text lines is the engine's decision, made in
//! one place after the task ran — a reducer never formats its own output.

use std::ops::Range;

use ysmart_rel::codec::encode_cells_into;
use ysmart_rel::colbatch::{frame_stats, Column, FrameSizer, FrameStats};
use ysmart_rel::{ColumnBatch, Row, Value};

use crate::hash::{partition_cells, partition_columns};

/// The pairs one map task routed to one reduce partition — a shuffle
/// *arena*. Every pair's `key ⧺ value` cells lie back to back in one flat
/// vector, in emit order, with one `(key start, value start)` bound per
/// pair. A pair is written here once and is never moved or allocated on its
/// own: sort, merge and reduce address it by index, and the whole arena is
/// freed at once by the reduce task that consumed it.
#[derive(Debug, Default)]
pub(crate) struct Pairs {
    cells: Vec<Value>,
    /// Pair `i` spans `cells[bounds[i].0..bounds[i + 1].0]` (the last one to
    /// the end) and its value starts at `bounds[i].1`.
    bounds: Vec<(u32, u32)>,
    /// [`Pairs::text_bytes`], added to by every write.
    text_bytes: u64,
    /// The frame of the pairs, sized while [`Pairs::append_columns`] wrote
    /// their cells from typed columns; `None` before the first pair, and
    /// once a pair arrived whole or at another width, when
    /// [`Pairs::frame_stats`] reads it off the cells instead.
    frame: Option<FrameSizer>,
}

/// A cell offset as stored in [`Pairs::bounds`].
fn offset(cells: usize) -> u32 {
    u32::try_from(cells).expect("a shuffle arena holds fewer than 2^32 cells")
}

/// Writes cell `c` of consecutive `width`-cell pairs, one pair per call,
/// returning the cell's text bytes.
fn at_stride(pairs: &mut [Value], width: usize, c: usize) -> impl FnMut(Value) -> u64 + '_ {
    let mut slots = pairs.chunks_exact_mut(width).map(move |pair| &mut pair[c]);
    move |v| {
        let bytes = v.size_bytes() as u64;
        *slots.next().expect("one pair per row") = v;
        bytes
    }
}

impl Pairs {
    pub(crate) fn len(&self) -> usize {
        self.bounds.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    fn end(&self, i: usize) -> usize {
        self.bounds
            .get(i + 1)
            .map_or(self.cells.len(), |next| next.0 as usize)
    }

    /// The key cells of pair `i`.
    pub(crate) fn key(&self, i: usize) -> &[Value] {
        let (key, value) = self.bounds[i];
        &self.cells[key as usize..value as usize]
    }

    /// The value cells of pair `i`.
    pub(crate) fn value(&self, i: usize) -> &[Value] {
        &self.cells[self.bounds[i].1 as usize..self.end(i)]
    }

    /// Pair `i` read as one `key ⧺ value` row — its shuffle wire form.
    pub(crate) fn pair(&self, i: usize) -> &[Value] {
        &self.cells[self.bounds[i].0 as usize..self.end(i)]
    }

    /// The width every pair shares; `None` when empty or when widths differ.
    pub(crate) fn uniform_width(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        // The first pair starts at cell 0, so its end is its width.
        let width = self.end(0);
        let mut starts = self.bounds.iter().map(|b| b.0 as usize).zip(0..);
        let uniform = self.cells.len() == self.len() * width
            && starts.all(|(start, i): (usize, usize)| start == i * width);
        uniform.then_some(width)
    }

    /// Appends one pair whole — the writer of every row-shaped pair: a
    /// mapper's ([`MapOutput::emit_cells`]) and a combiner's output rows.
    /// The pair's text bytes are added as it goes in, and a first pair fixes
    /// the width ([`Pairs::reserve_cells`]).
    pub(crate) fn append(
        &mut self,
        key: impl IntoIterator<Item = Value>,
        value: impl IntoIterator<Item = Value>,
    ) {
        let start = self.cells.len();
        self.cells.extend(key);
        self.bounds.push((offset(start), offset(self.cells.len())));
        self.cells.extend(value);
        let cells = self.cells[start..].iter().map(|v| v.size_bytes() as u64);
        // The text framing adds a tab and a newline.
        self.text_bytes += cells.sum::<u64>() + 2;
        if self.len() == 1 {
            self.reserve_cells(self.cells.len());
        }
        self.frame = None;
    }

    /// The first pair fixes the width: room for pairs (see
    /// [`MapOutput::reserve`]) is now room for their cells.
    fn reserve_cells(&mut self, width: usize) {
        let cells = self.bounds.capacity() * width;
        self.cells.reserve(cells.saturating_sub(self.cells.len()));
    }

    /// Appends one pair per row of `rows`, its cells read from typed
    /// columns: `keys`, then the row's tag when there are `tags` (one per
    /// row), then `values`. The pairs' cells are written a column at a time,
    /// at stride, and the segment is sized as they go.
    fn append_columns(
        &mut self,
        rows: &[usize],
        keys: &[&Column],
        tags: Option<&[i64]>,
        values: &[&Column],
    ) {
        if rows.is_empty() {
            return;
        }
        let width = keys.len() + usize::from(tags.is_some()) + values.len();
        if self.is_empty() {
            self.bounds.reserve(rows.len());
            self.reserve_cells(width);
            self.frame = Some(FrameSizer::new(width));
        } else if self.frame.as_ref().is_some_and(|f| f.width() != width) {
            self.frame = None;
        }
        let base = self.cells.len();
        let bound = |j: usize| {
            let start = base + j * width;
            (offset(start), offset(start + keys.len()))
        };
        self.bounds.extend((0..rows.len()).map(bound));
        self.cells.resize(base + rows.len() * width, Value::Null);
        // Key and value bytes; the text framing adds a tab and a newline.
        let mut text_bytes = 2 * rows.len() as u64;
        let mut frame = self.frame.as_mut();
        let pairs = &mut self.cells[base..];
        let mut column = |c: usize, col: &Column, frame: Option<&mut FrameSizer>| {
            let mut put = at_stride(pairs, width, c);
            col.for_each_cell(rows, |cell| text_bytes += put(cell.to_value()));
            if let Some(frame) = frame {
                frame.add_column(c, col, rows);
            }
        };
        for (c, col) in keys.iter().enumerate() {
            column(c, col, frame.as_deref_mut());
        }
        let c = keys.len() + usize::from(tags.is_some());
        for (c, col) in (c..).zip(values) {
            column(c, col, frame.as_deref_mut());
        }
        if let Some(tags) = tags {
            let mut put = at_stride(pairs, width, keys.len());
            for &tag in tags {
                let v = Value::Int(tag);
                if let Some(frame) = frame.as_deref_mut() {
                    frame.add_cell(keys.len(), &v);
                }
                text_bytes += put(v);
            }
        }
        self.text_bytes += text_bytes;
    }

    /// Bytes of the pairs in the text framing (key, tab, value, newline).
    pub(crate) fn text_bytes(&self) -> u64 {
        self.text_bytes
    }

    /// Exact size and dictionary-entry count of the pairs as one frame of
    /// `key ⧺ value` rows. `None` for an empty arena, when pair widths differ
    /// (the mixed-width values of some merged mappers) or on a non-finite
    /// float: there is no such frame. A frame's size does not depend on the
    /// order of its rows, so this holds for the sorted segment too.
    pub(crate) fn frame_stats(&self) -> Option<FrameStats> {
        match &self.frame {
            Some(frame) => frame.finish(),
            None => {
                let width = self.uniform_width()?;
                frame_stats(self.len(), width, |r, c| &self.cells[r * width + c])
            }
        }
    }

    /// Gives the unused part of a mostly empty arena — the mapper dropped
    /// most records — back to the allocator; the arena lives until the
    /// reduce side is done with it. An arena filled to within its headroom
    /// keeps its size on purpose: same-sized blocks are what the allocator
    /// hands straight to the next job's arenas, while shrinking every arena
    /// by its few per cent of slack leaves holes nothing fits (measured:
    /// `serve_hot` `peak_rss_mb` +12 % after 15 cycles).
    fn trim(&mut self) {
        if self.cells.len() < self.cells.capacity() / 4 * 3 {
            self.cells.shrink_to_fit();
            self.bounds.shrink_to_fit();
        }
    }
}

/// A key group's values as the engine hands them to a [`Reducer`] or
/// [`Combiner`]: an indexable run of borrowed cell slices. The values lie
/// wherever the shuffle left them — consecutive `Row`s, or pairs scattered
/// over the arenas a merge drew them from — and are read in place; nothing
/// is gathered per group.
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

    /// The cells of value `i`.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> &'a [Value] {
        match self.0 {
            Group::Rows(rows) => rows[i].values(),
            Group::Run { pairs, order } => pairs.value(order[i] as usize),
            Group::Merged { runs, at } => {
                let (run, pair) = at[i];
                runs[run as usize].value(pair as usize)
            }
        }
    }

    /// The values in order.
    pub fn iter(self) -> impl Iterator<Item = &'a [Value]> {
        (0..self.len()).map(move |i| self.get(i))
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

    /// The key cells of the pair behind value `i`; `None` for a view of
    /// rows, which carry no key.
    fn pair_key(&self, i: usize) -> Option<&'a [Value]> {
        match self.0 {
            Group::Rows(_) => None,
            Group::Run { pairs, order } => Some(pairs.key(order[i] as usize)),
            Group::Merged { runs, at } => {
                let (run, pair) = at[i];
                Some(runs[run as usize].key(pair as usize))
            }
        }
    }

    /// The values copied out as rows — the adaptor behind the default
    /// [`Reducer::reduce_run`] and [`Combiner::combine_run`].
    #[must_use]
    pub fn to_rows(self) -> Vec<Row> {
        self.iter().map(|v| Row::new(v.to_vec())).collect()
    }
}

/// Key groups in order — what the engine hands [`Reducer::reduce_run`]
/// (one reduce task's) and [`Combiner::combine_run`] (one map-side
/// segment's). The values of every group lie back to back in one
/// [`GroupView`]: group `g` is the range [`KeyGroups::bounds`]`(g)` of it
/// ([`KeyGroups::group`]), shown the key [`KeyGroups::key`]`(g)`.
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

    /// Group `g`'s key.
    ///
    /// # Panics
    ///
    /// When `g` is out of range.
    #[must_use]
    pub fn key(&self, g: usize) -> &'a [Value] {
        match self.keys {
            Keys::Rows(keys) => keys[g].values(),
            Keys::Pairs => {
                let first = self.starts[g] as usize;
                self.values
                    .pair_key(first)
                    .expect("groups of pairs have pair keys")
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
    /// line), so an arena does not regrow mid-task: once a partition's first
    /// pair has fixed the width, room for pairs is room for their cells. The
    /// key hash spreads the pairs over `n` partitions binomially; each gets
    /// its share plus three deviations (a deviation is below the square root
    /// of the share), because an arena that outgrows its share doubles.
    pub fn reserve(&mut self, additional: usize) {
        let share = match self.parts.len() {
            1 => additional,
            n => additional / n + 3 * ((additional / n) as f64).sqrt() as usize,
        };
        for part in &mut self.parts {
            part.bounds.reserve(share);
            if !part.is_empty() {
                part.cells.reserve(share * part.end(0));
            }
        }
    }

    /// Emits one key/value pair whole: hashes the key to its partition and
    /// moves the cells of both buffers into that partition's arena, leaving
    /// them empty — a mapper that stages every pair in the same two buffers
    /// allocates nothing per pair.
    pub fn emit_cells(&mut self, key: &mut Vec<Value>, value: &mut Vec<Value>) {
        let partition = match self.parts.len() {
            1 => 0,
            n => partition_cells(key, n),
        };
        self.parts[partition].append(key.drain(..), value.drain(..));
    }

    /// Emits one key/value pair — [`MapOutput::emit_cells`] for mappers that
    /// build rows.
    pub fn emit(&mut self, key: Row, value: Row) {
        self.emit_cells(&mut key.into_values(), &mut value.into_values());
    }

    /// Emits one pair per row of `rows` of a column batch, a column at a
    /// time: the key is those rows of `key_cols`, the value the row's tag
    /// (when `tags` is given, one per row) followed by those rows of
    /// `value_cols` — the pairs [`MapOutput::emit`] of each row in order
    /// would write, to the same partitions and arenas. Every row's partition
    /// is hashed straight from the typed key columns; a stable counting sort
    /// then groups the rows by partition, and each partition's cells are
    /// written column by column at stride into its arena, which sizes its
    /// segment as they go.
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
            part.append_columns(rows, key_cols, tags, value_cols);
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
            let tags = tags.map(|_| &sorted_tags[run.clone()]);
            part.append_columns(&sorted_rows[run], key_cols, tags, value_cols);
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
    /// value)` cells where its arena holds them.
    ///
    /// # Panics
    ///
    /// When `p` is not a partition.
    pub fn pairs(&self, p: usize) -> impl Iterator<Item = (&[Value], &[Value])> + '_ {
        let part = &self.parts[p];
        (0..part.len()).map(move |i| (part.key(i), part.value(i)))
    }

    /// What partition `p`'s shuffle segment is charged for: its bytes in the
    /// text framing (key, tab, value, newline) and, when its pairs form one
    /// frame of `key ⧺ value` rows, that frame's size and dictionary count.
    /// The text bytes are added up as the pairs are written; the frame is
    /// sized as written when [`MapOutput::emit_columns`] wrote all of them,
    /// read off the cells otherwise.
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
        for part in self.parts {
            let widths: Vec<(usize, usize)> = (0..part.len())
                .map(|i| (part.key(i).len(), part.value(i).len()))
                .collect();
            let mut cells = part.cells.into_iter();
            for (key, value) in widths {
                keys.push(cells.by_ref().take(key).collect());
                values.push(cells.by_ref().take(value).collect());
            }
        }
        (keys, values)
    }
}

/// One record emitted by a reducer: a typed row, optionally tagged with the
/// merged-output stream it belongs to (the way merged CMR jobs prefix
/// intermediate lines with `tag|`).
///
/// Records stay *typed* end to end: in columnar mode they are packed into
/// binary frames without a text round-trip; in text mode they render to
/// exactly the line a self-formatting reducer would have written.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceEmit {
    /// Merged-output stream tag (`Some` renders as a `tag|` prefix in text
    /// mode and a leading `Int` column in columnar mode).
    pub tag: Option<i64>,
    /// The record itself.
    pub row: Row,
}

impl ReduceEmit {
    /// Renders this emission to its text-mode line.
    #[must_use]
    pub fn to_line(&self) -> String {
        record_line(self.tag, self.row.values())
    }
}

/// The text-mode line of one output record: `field|field|…`, behind a
/// `tag|` prefix when tagged.
pub(crate) fn record_line(tag: Option<i64>, cells: &[Value]) -> String {
    let mut line = tag.map_or_else(String::new, |t| format!("{t}|"));
    encode_cells_into(cells, &mut line);
    line
}

/// Records emitted by a reducer (its output file content), with work
/// accounting.
#[derive(Debug, Default)]
pub struct ReduceOutput {
    emits: Vec<ReduceEmit>,
    work: u64,
    dispatches: Vec<u64>,
    fatal: Option<String>,
}

impl ReduceOutput {
    /// Emits one typed output row.
    pub fn emit_row(&mut self, row: Row) {
        self.emits.push(ReduceEmit { tag: None, row });
    }

    /// Emits one typed output row tagged with merged-output stream `tag` —
    /// the intermediate format of merged (CMR) jobs, whose text rendering
    /// is `tag|field|field|…`.
    pub fn emit_tagged_row(&mut self, tag: i64, row: Row) {
        self.emits.push(ReduceEmit {
            tag: Some(tag),
            row,
        });
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

    /// The emissions so far, rendered to their text-mode lines.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.emits.iter().map(ReduceEmit::to_line).collect()
    }

    /// Number of records emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.emits.len()
    }

    /// Whether nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.emits.is_empty()
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

    /// Consumes the buffer, rendering every emission to its text line —
    /// byte-identical to what a self-formatting reducer would have written.
    #[must_use]
    pub fn into_lines(self) -> Vec<String> {
        self.emits.iter().map(ReduceEmit::to_line).collect()
    }

    /// Consumes the buffer into raw emissions, preserving emit order (the
    /// columnar output path packs them into binary frames).
    #[must_use]
    pub fn into_emits(self) -> Vec<ReduceEmit> {
        self.emits
    }
}

/// A map function: transforms one input record (a line) into key/value
/// pairs.
pub trait Mapper {
    /// Processes one record. Emitting nothing drops the record (selection).
    fn map(&mut self, line: &str, out: &mut MapOutput);

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
    /// Processes one key group.
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput);

    /// Processes every key group of one reduce task, in order, where the
    /// groups lie in the shuffle — the entry point the engine calls, once
    /// per task. The default copies each group into rows and feeds
    /// [`Reducer::reduce`], so every row-oriented reducer works unchanged; a
    /// reducer that reads cells in place overrides it, and must emit what
    /// that would.
    fn reduce_run(&mut self, groups: KeyGroups<'_>, out: &mut ReduceOutput) {
        for g in 0..groups.len() {
            let key = Row::new(groups.key(g).to_vec());
            self.reduce(&key, &groups.group(g).to_rows(), out);
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
    /// order, and per group the index at which its values start among them
    /// (a group may be left with none). The default copies each group into
    /// rows and feeds [`Combiner::combine`], like [`Reducer::reduce_run`].
    fn combine_run(&mut self, groups: KeyGroups<'_>) -> (Vec<Row>, Vec<u32>) {
        let (mut values, mut starts) = (Vec::new(), Vec::with_capacity(groups.len()));
        for g in 0..groups.len() {
            starts.push(values.len() as u32);
            let key = Row::new(groups.key(g).to_vec());
            values.extend(self.combine(&key, &groups.group(g).to_rows()));
        }
        (values, starts)
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
        let (mut key, mut value) = (Vec::new(), Vec::new());
        for k in 0..40i64 {
            // Mixed widths, empty keys included; every other pair staged in
            // reused buffers, which the emit leaves empty.
            let width = (k % 3) as usize;
            if k % 2 == 0 {
                out.emit(vec![Value::Int(k); width].into(), row![k, "v"]);
            } else {
                key.resize(width, Value::Int(k));
                value.extend(row![k, "v"].into_values());
                out.emit_cells(&mut key, &mut value);
                assert!(key.is_empty() && value.is_empty());
            }
        }
        assert_eq!(out.len(), 40);
        let parts = out.into_parts();
        assert_eq!(parts.iter().map(Pairs::len).sum::<usize>(), 40);
        for (p, part) in parts.iter().enumerate() {
            assert_eq!(part.uniform_width(), None, "widths differ");
            let mut cells = 0;
            for i in 0..part.len() {
                assert_eq!(crate::hash::partition_cells(part.key(i), 3), p);
                let k = part.value(i)[0].as_int().unwrap();
                assert_eq!(part.key(i), vec![Value::Int(k); (k % 3) as usize]);
                assert_eq!(part.value(i), row![k, "v"].values());
                assert_eq!(part.pair(i), [part.key(i), part.value(i)].concat());
                cells += part.pair(i).len();
            }
            assert_eq!(part.cells.len(), cells, "no orphan cells");
        }
    }

    /// A batch emitted a column at a time lands exactly where emitting its
    /// rows one by one puts them — cells, key/value split, partition, emit
    /// order within a partition — and every arena, written by columns, by
    /// rows or both, is sized as written to what reading the cells gives.
    #[test]
    fn column_emits_match_row_emits_and_size_as_they_write() {
        let reread = |part: &Pairs| {
            let cells = part.cells.iter().map(|v| v.size_bytes() as u64);
            cells.sum::<u64>() + 2 * part.len() as u64
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
                let framed = by_columns.parts[p].frame.is_some();
                assert_eq!(framed, !by_columns.parts[p].is_empty(), "sized as written");
                assert!(by_rows.parts[p].frame.is_none());
                assert_eq!(by_columns.segment_size(p), by_rows.segment_size(p));
                assert_eq!(by_rows.segment_size(p).0, reread(&by_rows.parts[p]));
            }
        }
        // A write of another width ends the frame, not the text size.
        let mut out = MapOutput::default();
        out.emit_columns(&[0, 1], &cols[..1], None, &cols[1..]);
        out.emit_columns(&[2], &cols[..1], None, &cols[1..2]);
        assert_eq!(out.segment_size(0), (reread(&out.parts[0]), None));
        // A pair written whole after a column write ends the frame sized as
        // written, which is then read off the cells, and adds its bytes.
        let mut mixed = MapOutput::default();
        mixed.emit_columns(&rows, &cols[..1], None, &cols[1..]);
        mixed.emit(row![9i64], row!["z", 1.0f64]);
        let part = &mixed.parts[0];
        assert!(part.frame.is_none());
        let frame = frame_stats(part.len(), 3, |r, c| &part.cells[r * 3 + c]);
        assert!(frame.is_some());
        assert_eq!(mixed.segment_size(0), (reread(part), frame));
    }

    #[test]
    fn group_views_read_values_in_place() {
        let mut a = Pairs::default();
        a.append([Value::Int(1)], row!["a0"].into_values());
        a.append([Value::Int(1)], row!["a1", 2i64].into_values());
        let mut b = Pairs::default();
        b.append([Value::Int(1)], []);
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
            assert_eq!(view.get(0), rows[0].values());
            assert_eq!(view.to_rows(), rows);
        }
        let run = GroupView::run(&a, &[1, 0]);
        assert_eq!(run.to_rows(), [row!["a1", 2i64], row!["a0"]]);
        assert!(GroupView::rows(&[]).is_empty());
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
            out.into_lines(),
            vec!["7|a".to_string(), "2|7|a".to_string(), "7|a".to_string()]
        );
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
