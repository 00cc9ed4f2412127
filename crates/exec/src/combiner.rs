//! Map-side partial aggregation (the AGGREGATION job's combiner).
//!
//! A merging job's mapper writes each raw row as a *partial row*: `[group
//! values…, partial fields…]`. The combiner groups each key group of a map
//! task's sorted run by the extra grouping columns and folds its partial
//! rows into one per group. The reduce-side aggregation op (with
//! `merge_partials` set) merges partials, so it reads the same layout
//! whether or not a combiner ran. This is the optimisation the paper credits for Hive matching
//! hand-coded MapReduce on the simple Q-AGG query (footnote 2).
//!
//! It is the reducer's own aggregation: a segment of key groups is read as
//! one batch — cut where the reducer cuts its runs, each column gathered
//! typed from the arena as the reducer gathers a stream's — and folded by
//! `aggregate` in its partial→partial mode. The partial rows leave as the
//! folded batch's typed columns, appended to the combiner's output records
//! ([`Combined`]) in one typed copy each; no row is built.

use std::ops::Range;

use ysmart_mapred::{Combined, Combiner, KeyGroups};
use ysmart_rel::{AggFunc, Expr, Row};

use crate::aggregate::{aggregate, Mode};
use crate::batch::{Batch, Selection};
use crate::reducer::{chunks, common_width};

/// The combiner of a job whose only op is a merging `Agg`, built per map
/// task from that op's group columns and aggregates.
#[derive(Debug, Clone)]
pub struct AggCombiner {
    job: String,
    group_cols: Vec<usize>,
    aggs: Vec<(AggFunc, Option<Expr>)>,
    /// First evaluation error hit while combining — surfaced through
    /// [`Combiner::take_error`] so the engine fails the job with a typed
    /// error instead of this task panicking.
    error: Option<String>,
}

impl AggCombiner {
    /// The combiner of job `job` for an aggregation by `group_cols` (over
    /// the map-output value) computing `aggs`, all
    /// [`AggFunc::combinable`].
    #[must_use]
    pub fn new(job: &str, group_cols: &[usize], aggs: &[(AggFunc, Option<Expr>)]) -> Self {
        AggCombiner {
            job: job.to_string(),
            group_cols: group_cols.to_vec(),
            aggs: aggs.to_vec(),
            error: None,
        }
    }

    /// Groups `range` of `groups` folded as one batch into their partial
    /// rows, a segment per group. `Err` is the failure, without the job.
    fn partials<'v>(
        &self,
        groups: &KeyGroups<'v>,
        range: Range<usize>,
    ) -> Result<Batch<'v>, String> {
        let start = groups.bounds(range.start).start;
        let mut segs = vec![0];
        segs.extend(range.map(|g| (groups.bounds(g).end - start) as u32));
        let end = start + *segs.last().expect("a segment per group") as usize;
        let positions: Selection = (start as u32..end as u32).collect();
        let values = groups.values();
        let width = common_width(values, &positions, 0)
            .ok_or("combiner input has values of differing widths")?;
        let input = Batch::gather(values, &positions, 0..width, segs);
        let (group_cols, aggs) = (&self.group_cols, &self.aggs);
        aggregate(&input, group_cols, aggs, None, Mode::Combine, &mut 0)
            .map_err(|e| format!("combiner {e}"))
    }
}

impl Combiner for AggCombiner {
    /// A run of one group.
    fn combine(&mut self, key: &Row, values: &[Row]) -> Vec<Row> {
        let key = std::slice::from_ref(key);
        self.combine_run(KeyGroups::rows(key, values, &[0]))
            .into_rows()
            .0
    }

    fn combine_run(&mut self, groups: KeyGroups<'_>) -> Combined {
        let mut out = Combined::default();
        for range in chunks(&groups) {
            let first = out.values.len() as u32;
            match self.partials(&groups, range.clone()) {
                Ok(batch) => {
                    let starts = (0..range.len()).map(|seg| first + batch.seg(seg).start as u32);
                    out.starts.extend(starts);
                    let rows: Vec<usize> = (0..batch.len()).collect();
                    out.values.append_columns(&rows, None, &batch.columns());
                }
                // The job fails on the error: its groups pass through.
                Err(e) => {
                    for g in range {
                        out.starts.push(out.values.len() as u32);
                        let rows = groups.group(g).to_rows();
                        rows.into_iter().for_each(|row| out.values.push(None, row));
                    }
                    let job = &self.job;
                    self.error.get_or_insert_with(|| format!("{e} (job {job})"));
                }
            }
        }
        out
    }

    fn take_error(&mut self) -> Option<String> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::partial_row;
    use ysmart_rel::{row, Value};

    /// Each raw row's partial row, as a merging job's mapper writes it,
    /// grouped by column 0.
    fn partials_of(aggs: &[(AggFunc, Option<Expr>)], raw: &[Row]) -> Vec<Row> {
        let over = |row: &Row| {
            let cols: Vec<Expr> = (0..row.len()).map(Expr::col).collect();
            let partial = partial_row(&[0], aggs, &cols);
            let cells = partial.iter().map(|e| e.eval(row).expect("evaluates"));
            Row::new(cells.collect())
        };
        raw.iter().map(over).collect()
    }

    /// The combiner over the partial rows of `raw`, one key group.
    fn combine(aggs: &[(AggFunc, Option<Expr>)], raw: &[Row]) -> Vec<Row> {
        let mut combiner = AggCombiner::new("j", &[0], aggs);
        let out = combiner.combine(&row![1i64], &partials_of(aggs, raw));
        assert_eq!(combiner.take_error(), None);
        out
    }

    /// `aggregate` in `mode` over `rows` as one key group, grouped by
    /// column 0.
    fn aggregate_rows(aggs: &[(AggFunc, Option<Expr>)], rows: &[Row], mode: Mode) -> Vec<Row> {
        let values = ysmart_mapred::GroupView::rows(rows);
        let positions: Selection = (0..rows.len() as u32).collect();
        let width = rows.first().map_or(0, Row::len);
        let input = Batch::gather(values, &positions, 0..width, vec![0, rows.len() as u32]);
        let out = aggregate(&input, &[0], aggs, None, mode, &mut 0).expect("aggregates");
        out.seg(0).map(|r| out.row(r)).collect()
    }

    #[test]
    fn partials_are_the_reducers_fold_and_avgs_running_state() {
        let values = [row![1i64, 4i64], row![2i64, 5i64], row![1i64, Value::Null]];
        let aggs = [
            (AggFunc::Count, None),
            (AggFunc::Count, Some(Expr::col(1))),
            (AggFunc::Sum, Some(Expr::col(1))),
            (AggFunc::Avg, Some(Expr::col(1))),
            (AggFunc::Min, Some(Expr::col(1))),
        ];
        assert_eq!(
            combine(&aggs, &values),
            [
                row![1i64, 2i64, 1i64, 4i64, 4.0, 1i64, 4i64],
                row![2i64, 1i64, 1i64, 5i64, 5.0, 1i64, 5i64],
            ]
        );
    }

    /// Two map tasks' partials, merged by the reducer, are the aggregate of
    /// all their rows.
    #[test]
    fn partial_round_trip_equals_direct() {
        let xs: Vec<Row> = (1..=6).map(|x| row![1i64, x]).collect();
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let aggs = [(func, Some(Expr::col(1)))];
            let partials = [combine(&aggs, &xs[..3]), combine(&aggs, &xs[3..])].concat();
            assert_eq!(
                aggregate_rows(&aggs, &partials, Mode::Merge),
                aggregate_rows(&aggs, &xs, Mode::Complete),
                "{func}"
            );
        }
    }

    /// No value: a NULL sum, an avg of nothing — and merged, NULL both.
    #[test]
    fn sum_partial_of_empty_is_null() {
        let nulls = [row![1i64, Value::Null]];
        let aggs = [
            (AggFunc::Sum, Some(Expr::col(1))),
            (AggFunc::Avg, Some(Expr::col(1))),
        ];
        let partials = combine(&aggs, &nulls);
        assert_eq!(partials, [row![1i64, Value::Null, 0.0, 0i64]]);
        let merged = aggregate_rows(&aggs, &partials, Mode::Merge);
        assert_eq!(merged, [row![1i64, Value::Null, Value::Null]]);
    }

    #[test]
    fn count_star_counts_rows() {
        let rows = [row![1i64, Value::Null], row![1i64, 2i64]];
        assert_eq!(
            combine(&[(AggFunc::Count, None)], &rows),
            [row![1i64, 2i64]]
        );
    }

    /// Uncombined map output merges to the same answer as combined.
    #[test]
    fn the_reducer_merges_uncombined_partials() {
        let xs: Vec<Row> = (1..=4).map(|x| row![1i64, x]).collect();
        let aggs = [
            (AggFunc::Count, None),
            (AggFunc::Count, Some(Expr::col(1))),
            (AggFunc::Avg, Some(Expr::col(1))),
            (AggFunc::Max, Some(Expr::col(1))),
        ];
        assert_eq!(
            aggregate_rows(&aggs, &partials_of(&aggs, &xs), Mode::Merge),
            aggregate_rows(&aggs, &xs, Mode::Complete),
        );
    }

    #[test]
    fn a_failure_names_the_job_and_passes_the_rows_through() {
        let aggs = [(AggFunc::Sum, Some(Expr::col(1)))];
        let values = partials_of(&aggs, &[row![1i64, "x"]]);
        let mut combiner = AggCombiner::new("J1", &[0], &aggs);
        assert_eq!(combiner.combine(&row![1i64], &values), values);
        let error = combiner.take_error().expect("an error");
        assert!(
            error.starts_with("combiner partial merge failed: "),
            "{error}"
        );
        assert!(error.ends_with(" (job J1)"), "{error}");
    }
}
