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
//! A reducer emits one shape of record, [`ReduceEmit`]: a typed [`Row`]
//! with an optional merged-stream tag. Whether a task's records are stored
//! as columnar frames or as text lines is the engine's decision, made in
//! one place after the task ran — a reducer never formats its own output.

use ysmart_rel::{codec::encode_line, ColumnBatch, Row};

/// Key/value pairs emitted by a mapper, with byte and work accounting.
///
/// Keys and values live in *parallel vectors* rather than a `Vec<(Row,
/// Row)>`: after the map-side sort a key group's values are a contiguous
/// `&[Row]` slice, so [`Reducer::reduce`] and [`Combiner::combine`] receive
/// borrowed group slices without any per-group cloning.
#[derive(Debug, Default)]
pub struct MapOutput {
    keys: Vec<Row>,
    values: Vec<Row>,
    work: u64,
    bad_records: u64,
    dispatches: Vec<u64>,
    fatal: Option<String>,
}

impl MapOutput {
    /// Pre-reserves room for `additional` more pairs. The engine calls
    /// this with the task's line count (a mapper emits at most one pair
    /// per input line), so the parallel vectors never regrow mid-task.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.values.reserve(additional);
    }

    /// Emits one key/value pair.
    pub fn emit(&mut self, key: Row, value: Row) {
        self.keys.push(key);
        self.values.push(value);
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
        if self.dispatches.len() <= stream {
            self.dispatches.resize(stream + 1, 0);
        }
        self.dispatches[stream] += 1;
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
        self.keys.len()
    }

    /// Whether nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys emitted so far, parallel to [`MapOutput::values`].
    #[must_use]
    pub fn keys(&self) -> &[Row] {
        &self.keys
    }

    /// The values emitted so far, parallel to [`MapOutput::keys`].
    #[must_use]
    pub fn values(&self) -> &[Row] {
        &self.values
    }

    /// Consumes the buffer into its parallel key/value columns.
    #[must_use]
    pub fn into_columns(self) -> (Vec<Row>, Vec<Row>) {
        (self.keys, self.values)
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
        record_line(self.tag, &self.row)
    }
}

/// The text-mode line of one output record: `field|field|…`, behind a
/// `tag|` prefix when tagged.
pub(crate) fn record_line(tag: Option<i64>, row: &Row) -> String {
    match tag {
        None => encode_line(row),
        Some(t) => format!("{t}|{}", encode_line(row)),
    }
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
}

/// A map-side combiner: pre-aggregates one key group of map output,
/// returning replacement values. This is the "internal hash-aggregate map"
/// Hive uses in the map phase (paper footnote 2).
pub trait Combiner {
    /// Combines the values of one key into (usually fewer) values.
    fn combine(&mut self, key: &Row, values: &[Row]) -> Vec<Row>;

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
        assert_eq!(out.keys(), &[row![1i64], row![2i64]]);
        assert_eq!(out.values(), &[row!["a"], row!["b"]]);
        out.record_bad();
        assert_eq!(out.bad_records(), 1);
        assert_eq!(out.len(), 2, "a skipped record emits nothing");
        let (keys, values) = out.into_columns();
        assert_eq!(keys.len(), 2);
        assert_eq!(values.len(), 2);
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
        assert_eq!(out.keys(), &[row!["1|x"], row!["2|y"]]);
    }
}
