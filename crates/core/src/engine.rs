//! The end-to-end YSmart engine.
//!
//! [`YSmart`] owns a catalog and a simulated cluster. `execute_sql` runs
//! the full pipeline — parse → plan → correlation analysis → job merging →
//! blueprint compilation → MapReduce execution — and returns decoded result
//! rows together with per-job metrics (the raw material of every figure in
//! §VII). With tracing on, the engine owns one [`Trace`] and absorbs each
//! executed chain's lane into it as processes of its own.

use ysmart_mapred::metrics::ChainMetrics;
use ysmart_mapred::{
    chain_seed, ChainOutcome, ChainSession, Cluster, ClusterConfig, JobChain, MapRedError, Trace,
};
use ysmart_plan::{analyze_with_stats, build_plan, Catalog, Plan, Statistics};
use ysmart_rel::codec::decode_line;
use ysmart_rel::{Row, Schema};

use crate::compile::{compile, Translation};
use crate::error::CoreError;
use crate::options::Strategy;

/// Everything a query execution produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Decoded result rows (in job-output order; sorted queries are
    /// globally ordered because sort jobs use a single reducer).
    pub rows: Vec<Row>,
    /// The result schema.
    pub schema: Schema,
    /// Per-job execution metrics in chain order.
    pub metrics: ChainMetrics,
    /// Number of MapReduce jobs executed.
    pub jobs: usize,
}

impl QueryOutcome {
    /// Total simulated execution time in seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.metrics.total_s()
    }
}

/// The translator + simulated cluster, bundled.
#[derive(Debug)]
pub struct YSmart {
    catalog: Catalog,
    /// The simulated cluster (public: benches reconfigure it between runs).
    pub cluster: Cluster,
    stats: Statistics,
    query_seq: usize,
    /// Every traced chain's lane, absorbed; `None` while tracing is off.
    trace: Option<Trace>,
}

impl YSmart {
    /// Creates an engine over a catalog and a cluster configuration.
    #[must_use]
    pub fn new(catalog: Catalog, config: ClusterConfig) -> Self {
        YSmart {
            catalog,
            cluster: Cluster::new(config),
            stats: Statistics::new(),
            query_seq: 0,
            trace: None,
        }
    }

    /// The engine's catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Turns on structured execution tracing: every chain executed from
    /// here on records spans (task attempts, shuffle fetches, verification,
    /// recovery waits, scheduling gaps) into a [`Trace`], one set of
    /// processes per chain, labelled with the chain's result path. Zero
    /// cost when off.
    pub fn enable_tracing(&mut self) {
        self.trace.get_or_insert_with(Trace::new);
    }

    /// Takes the accumulated execution trace, if tracing was enabled —
    /// export it with [`Trace::to_chrome_json`]. Tracing stays enabled with
    /// a fresh, empty trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.as_mut().map(std::mem::take)
    }

    /// Loads rows into HDFS under `data/<name>`. The table must exist in
    /// the catalog; rows are stored in the cluster's configured
    /// [`ysmart_mapred::DataFormat`] — pipe-delimited text lines, or
    /// columnar binary frames.
    ///
    /// # Errors
    ///
    /// Unknown table, or rows whose width disagrees with the schema.
    pub fn load_table(&mut self, name: &str, rows: &[Row]) -> Result<(), CoreError> {
        let schema = self.catalog.table(name)?.clone();
        for r in rows {
            if r.len() != schema.len() {
                return Err(CoreError::Translate(format!(
                    "row width {} does not match table `{name}` ({} columns)",
                    r.len(),
                    schema.len()
                )));
            }
        }
        // Table statistics feed the cost-informed PK tie-break and the
        // reduce-task cardinality caps.
        let columns: Vec<String> = schema.fields().iter().map(|f| f.name.to_string()).collect();
        self.stats
            .add_table(name, Statistics::scan_table(&columns, rows));
        self.cluster.load_table_rows(name, rows);
        Ok(())
    }

    /// Loads pre-encoded lines into HDFS under `data/<name>`. When the
    /// table is in the catalog, statistics are gathered from the decoded
    /// rows; undecodable lines simply skip statistics (execution will
    /// surface the error).
    pub fn load_table_lines(&mut self, name: &str, lines: Vec<String>) {
        if let Ok(schema) = self.catalog.table(name) {
            let rows: Option<Vec<ysmart_rel::Row>> =
                lines.iter().map(|l| decode_line(l, schema).ok()).collect();
            if let Some(rows) = rows {
                let columns: Vec<String> =
                    schema.fields().iter().map(|f| f.name.to_string()).collect();
                self.stats
                    .add_table(name, Statistics::scan_table(&columns, &rows));
            }
        }
        self.cluster.load_table(name, lines);
    }

    /// The statistics gathered from loaded tables.
    #[must_use]
    pub fn statistics(&self) -> &Statistics {
        &self.stats
    }

    /// Parses and plans a query without executing it.
    ///
    /// # Errors
    ///
    /// Parse or planning failures.
    pub fn plan(&self, sql: &str) -> Result<Plan, CoreError> {
        let query = ysmart_sql::parse(sql)?;
        Ok(build_plan(&self.catalog, &query)?)
    }

    /// Translates a query into a job pipeline under `strategy`.
    ///
    /// # Errors
    ///
    /// Parse, planning or compilation failures.
    pub fn translate(&mut self, sql: &str, strategy: Strategy) -> Result<Translation, CoreError> {
        self.query_seq += 1;
        let tag = format!("q{}-{}", self.query_seq, strategy);
        self.translate_tagged(sql, strategy, &tag)
    }

    /// Translates a query under a caller-chosen `tag`, which namespaces
    /// every intermediate and output HDFS path of the compiled jobs. The
    /// multi-tenant workload bench uses per-request tags so hundreds of
    /// instances of the same query co-exist in one cluster without
    /// clobbering each other's outputs.
    ///
    /// # Errors
    ///
    /// Parse, planning or compilation failures.
    pub fn translate_tagged(
        &mut self,
        sql: &str,
        strategy: Strategy,
        tag: &str,
    ) -> Result<Translation, CoreError> {
        let plan = self.plan(sql)?;
        let report = analyze_with_stats(&plan, Some(&self.stats));
        compile(&plan, &report, &strategy.options(), tag)
    }

    /// Builds the executable [`JobChain`] of a compiled translation without
    /// running it — for callers that schedule chains themselves (the
    /// multi-tenant scheduler) rather than going through
    /// [`YSmart::execute_translation`].
    ///
    /// Each job also gets its cross-query *reuse fingerprint* when one can
    /// be soundly computed: the blueprint's structural fingerprint (operator
    /// tree, schemas, expressions — names and paths excluded) chained with
    /// the identity of every input, where an intermediate produced by an
    /// earlier job of this same translation contributes its producer's
    /// fingerprint and a loaded base table contributes the content checksum
    /// of its current bytes in HDFS. Inputs that are neither — a `tmp/` path
    /// from outside this translation, or a table not yet loaded — opt the
    /// job (and transitively its consumers) out with `fingerprint: None`,
    /// because binding a fingerprint to bytes the job will not actually read
    /// would poison the reuse cache.
    ///
    /// # Errors
    ///
    /// Blueprint-to-jobspec materialisation failures.
    pub fn chain_for(&self, translation: &Translation) -> Result<JobChain, CoreError> {
        let mut chain = JobChain::new();
        let mut produced: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        // The data format is mixed into every fingerprint because it
        // changes the output bytes a cache hit would restore.
        let format = ysmart_mapred::hash::checksum_bytes(
            format!("{:?}", self.cluster.config.data_format).as_bytes(),
        );
        for bp in &translation.blueprints {
            let mut spec = bp.to_jobspec()?;
            if let Some(fp) = self.job_fingerprint(bp, &produced, format) {
                produced.insert(bp.output.as_str(), fp);
                spec.fingerprint = Some(fp);
            }
            chain.push(spec);
        }
        Ok(chain)
    }

    /// The full reuse fingerprint of one blueprint, or `None` when any
    /// input's identity cannot be established (see [`YSmart::chain_for`]).
    /// A base table's content checksum is the one HDFS memoises per stored
    /// file, so only the first query after a load hashes the table.
    fn job_fingerprint(
        &self,
        bp: &ysmart_exec::JobBlueprint,
        produced: &std::collections::BTreeMap<&str, u64>,
        format: u64,
    ) -> Option<u64> {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut fp = bp.structural_fingerprint() ^ format;
        for input in &bp.inputs {
            let id = if let Some(&producer) = produced.get(input.path.as_str()) {
                producer
            } else if input.path.starts_with("data/") {
                self.cluster.hdfs.checksum(&input.path).ok()?
            } else {
                return None;
            };
            fp = fp.wrapping_mul(MIX) ^ id;
        }
        Some(fp)
    }

    /// Decodes a translation's output rows from HDFS — the read-back half
    /// of [`YSmart::execute_translation`], usable after a chain ran through
    /// any path (including the multi-tenant scheduler).
    ///
    /// # Errors
    ///
    /// Missing output file (the chain did not complete) or undecodable
    /// records.
    pub fn decode_output(&self, translation: &Translation) -> Result<Vec<Row>, CoreError> {
        let file = self.cluster.hdfs.get(&translation.output_path)?;
        Ok(file.rows(&translation.output_schema)?)
    }

    /// Translates and executes a query, returning rows and metrics.
    ///
    /// # Errors
    ///
    /// Any pipeline failure, including simulated cluster failures (disk
    /// full, time limit) — check [`CoreError::is_disk_full`] /
    /// [`CoreError::is_time_limit`] for the paper's DNF cases.
    pub fn execute_sql(
        &mut self,
        sql: &str,
        strategy: Strategy,
    ) -> Result<QueryOutcome, CoreError> {
        let translation = self.translate(sql, strategy)?;
        self.execute_translation(&translation)
    }

    /// Executes an already-compiled translation.
    ///
    /// # Errors
    ///
    /// Cluster execution failures.
    pub fn execute_translation(
        &mut self,
        translation: &Translation,
    ) -> Result<QueryOutcome, CoreError> {
        let chain = self.chain_for(translation)?;
        let outcome = self.run(&chain)?;
        // Decode straight off the in-HDFS file — no clone of the output.
        let rows = self.decode_output(translation)?;
        Ok(QueryOutcome {
            rows,
            schema: translation.output_schema.clone(),
            jobs: outcome.metrics.jobs.len(),
            metrics: outcome.metrics,
        })
    }

    /// Runs a chain on the engine's cluster — [`ysmart_mapred::run_chain`],
    /// with the chain's lane absorbed into the engine's trace (failed
    /// chains' partial lanes too) when tracing is on.
    fn run(&mut self, chain: &JobChain) -> Result<ChainOutcome, MapRedError> {
        let seed = chain_seed(chain);
        let session = if self.trace.is_some() {
            ChainSession::with_tracing(seed)
        } else {
            ChainSession::new(seed)
        };
        let mut result = session.run(&mut self.cluster, chain);
        let lane = match &mut result {
            Ok(outcome) => outcome.trace.take(),
            Err(failure) => failure.trace.take(),
        };
        if let (Some(trace), Some(lane), Some(last)) = (&mut self.trace, lane, chain.jobs.last()) {
            trace.absorb(&last.output, *lane);
        }
        Ok(result?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Strategy;
    use ysmart_rel::{row, DataType, Value};

    fn engine() -> YSmart {
        let mut catalog = Catalog::new();
        catalog.add_table(
            "clicks",
            Schema::of(
                "clicks",
                &[
                    ("uid", DataType::Int),
                    ("page_id", DataType::Int),
                    ("cid", DataType::Int),
                    ("ts", DataType::Int),
                ],
            ),
        );
        let mut e = YSmart::new(catalog, ClusterConfig::default());
        let mut rows = Vec::new();
        // 3 users × 20 clicks; categories cycle 0..5.
        for uid in 0..3i64 {
            for i in 0..20i64 {
                rows.push(row![uid, i, i % 5, uid * 1000 + i]);
            }
        }
        e.load_table("clicks", &rows).unwrap();
        e
    }

    fn sorted(rows: &[Row]) -> Vec<Row> {
        let mut v = rows.to_vec();
        v.sort();
        v
    }

    #[test]
    fn simple_aggregation_all_strategies_agree() {
        let sql = "SELECT cid, count(*) FROM clicks GROUP BY cid";
        let mut reference: Option<Vec<Row>> = None;
        for strategy in Strategy::all() {
            let mut e = engine();
            let out = e.execute_sql(sql, strategy).unwrap();
            assert_eq!(out.rows.len(), 5, "{strategy}");
            match &reference {
                None => reference = Some(sorted(&out.rows)),
                Some(r) => assert_eq!(&sorted(&out.rows), r, "{strategy}"),
            }
        }
    }

    #[test]
    fn selection_projection_map_only() {
        let mut e = engine();
        let out = e
            .execute_sql("SELECT uid, ts FROM clicks WHERE cid = 0", Strategy::YSmart)
            .unwrap();
        assert_eq!(out.jobs, 1);
        assert_eq!(out.rows.len(), 3 * 4); // i % 5 == 0 for 4 of 20 per user
        assert!(out.metrics.jobs[0].reduce_time_s == 0.0, "map-only");
    }

    #[test]
    fn self_join_agg_merges_and_matches_hive() {
        let sql = "SELECT c1.uid, count(*) FROM clicks AS c1, clicks AS c2 \
                   WHERE c1.uid = c2.uid AND c1.cid = 1 AND c2.cid = 2 GROUP BY c1.uid";
        let mut e1 = engine();
        let ys = e1.execute_sql(sql, Strategy::YSmart).unwrap();
        let mut e2 = engine();
        let hive = e2.execute_sql(sql, Strategy::Hive).unwrap();
        assert_eq!(sorted(&ys.rows), sorted(&hive.rows));
        assert!(ys.jobs < hive.jobs, "{} vs {}", ys.jobs, hive.jobs);
        // YSmart reads the clicks table once; Hive reads it twice for the
        // self-join plus once more for the aggregation input.
        assert!(ys.metrics.total_hdfs_read() < hive.metrics.total_hdfs_read());
    }

    #[test]
    fn order_by_limit_returns_global_order() {
        let mut e = engine();
        let out = e
            .execute_sql(
                "SELECT uid, ts FROM clicks ORDER BY ts DESC LIMIT 4",
                Strategy::YSmart,
            )
            .unwrap();
        assert_eq!(out.rows.len(), 4);
        let ts: Vec<i64> = out
            .rows
            .iter()
            .map(|r| r.get(1).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ts, vec![2019, 2018, 2017, 2016]);
    }

    #[test]
    fn distinct_deduplicates() {
        let mut e = engine();
        let out = e
            .execute_sql("SELECT DISTINCT cid FROM clicks", Strategy::YSmart)
            .unwrap();
        assert_eq!(out.rows.len(), 5);
    }

    #[test]
    fn having_filters() {
        let mut e = engine();
        let out = e
            .execute_sql(
                "SELECT uid, count(*) AS n FROM clicks GROUP BY uid HAVING n > 100",
                Strategy::YSmart,
            )
            .unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn row_width_mismatch_rejected() {
        let mut e = engine();
        let err = e.load_table("clicks", &[row![1i64]]).unwrap_err();
        assert!(matches!(err, CoreError::Translate(_)));
    }

    #[test]
    fn left_outer_join_with_is_null() {
        let mut e = engine();
        // users with cid=1 clicks but no cid=99 clicks: everyone.
        let sql = "SELECT c1.uid FROM clicks AS c1 LEFT OUTER JOIN \
                   (SELECT uid, count(*) AS n FROM clicks WHERE cid = 99 GROUP BY uid) AS x \
                   ON c1.uid = x.uid WHERE x.n IS NULL AND c1.cid = 1";
        let out = e.execute_sql(sql, Strategy::YSmart).unwrap();
        assert_eq!(out.rows.len(), 3 * 4);
        let mut e2 = engine();
        let hive = e2.execute_sql(sql, Strategy::Hive).unwrap();
        assert_eq!(sorted(&out.rows), sorted(&hive.rows));
    }

    fn engine_columnar() -> YSmart {
        let mut catalog = Catalog::new();
        catalog.add_table(
            "clicks",
            Schema::of(
                "clicks",
                &[
                    ("uid", DataType::Int),
                    ("page_id", DataType::Int),
                    ("cid", DataType::Int),
                    ("ts", DataType::Int),
                ],
            ),
        );
        let config = ClusterConfig {
            data_format: ysmart_mapred::DataFormat::Columnar,
            ..ClusterConfig::default()
        };
        let mut e = YSmart::new(catalog, config);
        let mut rows = Vec::new();
        for uid in 0..3i64 {
            for i in 0..20i64 {
                rows.push(row![uid, i, i % 5, uid * 1000 + i]);
            }
        }
        e.load_table("clicks", &rows).unwrap();
        e
    }

    #[test]
    fn columnar_format_matches_text_results() {
        for sql in [
            "SELECT cid, count(*) FROM clicks GROUP BY cid",
            "SELECT uid, ts FROM clicks WHERE cid = 0",
            "SELECT c1.uid, count(*) FROM clicks AS c1, clicks AS c2 \
             WHERE c1.uid = c2.uid AND c1.cid = 1 AND c2.cid = 2 GROUP BY c1.uid",
            "SELECT uid, ts FROM clicks ORDER BY ts DESC LIMIT 4",
        ] {
            let text = engine().execute_sql(sql, Strategy::YSmart).unwrap();
            let col = engine_columnar()
                .execute_sql(sql, Strategy::YSmart)
                .unwrap();
            assert_eq!(sorted(&text.rows), sorted(&col.rows), "{sql}");
            assert!(
                col.metrics.jobs.iter().any(|j| j.encoded_bytes > 0),
                "columnar run must account encoded frame bytes: {sql}"
            );
            assert_eq!(
                text.metrics
                    .jobs
                    .iter()
                    .map(|j| j.encoded_bytes)
                    .sum::<u64>(),
                0,
                "text run must not report encoded bytes: {sql}"
            );
        }
    }

    #[test]
    fn chain_fingerprints_stable_across_tags_and_sensitive_to_data() {
        let sql = "SELECT cid, count(*) FROM clicks GROUP BY cid";
        let mut e = engine();
        let t1 = e.translate_tagged(sql, Strategy::YSmart, "tag-a").unwrap();
        let t2 = e.translate_tagged(sql, Strategy::YSmart, "tag-b").unwrap();
        let fp = |t: &Translation, e: &YSmart| -> Vec<Option<u64>> {
            e.chain_for(t)
                .unwrap()
                .jobs
                .iter()
                .map(|j| j.fingerprint)
                .collect()
        };
        let f1 = fp(&t1, &e);
        assert!(
            f1.iter().all(Option::is_some),
            "every job over a loaded base table fingerprints"
        );
        assert_eq!(
            f1,
            fp(&t2, &e),
            "the submission tag must not change fingerprints"
        );
        // Different base-table contents → different fingerprints.
        e.load_table("clicks", &[row![9i64, 9, 9, 9]]).unwrap();
        assert_ne!(f1, fp(&t1, &e));
        // A query over a table that is not loaded opts out, not panics.
        let mut empty = YSmart::new(engine().catalog().clone(), ClusterConfig::default());
        let t3 = empty
            .translate_tagged(sql, Strategy::YSmart, "tag-c")
            .unwrap();
        assert!(fp(&t3, &empty).iter().all(Option::is_none));
    }

    #[test]
    fn traced_queries_get_processes_of_their_own() {
        // Two multi-job Hive chains on one engine: each chain's scheduling
        // gaps sit on its own chain process, and the two queries' job
        // processes carry distinct labels.
        let sql = "SELECT c1.uid, count(*) FROM clicks AS c1, clicks AS c2 \
                   WHERE c1.uid = c2.uid AND c1.cid = 1 AND c2.cid = 2 GROUP BY c1.uid";
        let mut e = engine();
        e.enable_tracing();
        for _ in 0..2 {
            assert!(e.execute_sql(sql, Strategy::Hive).unwrap().jobs > 1);
        }
        let trace = e.take_trace().expect("tracing was on");
        let labels = trace.process_labels();
        let gap_pids: std::collections::BTreeSet<u32> = trace
            .events()
            .iter()
            .filter(|ev| ev.cat == "gap")
            .map(|ev| ev.pid)
            .collect();
        assert_eq!(gap_pids.len(), 2, "one gap process per query: {labels:?}");
        for pid in gap_pids {
            assert!(pid > 0 && labels[pid as usize - 1].ends_with("/chain"));
        }
        let jobs: Vec<&String> = labels.iter().filter(|l| !l.ends_with("/chain")).collect();
        let distinct: std::collections::BTreeSet<&&String> = jobs.iter().collect();
        assert!(jobs.len() >= 4, "{labels:?}");
        assert_eq!(distinct.len(), jobs.len(), "{labels:?}");
        assert!(
            e.take_trace().unwrap().is_empty(),
            "tracing stays on, fresh"
        );
    }

    #[test]
    fn global_avg_returns_float() {
        let mut e = engine();
        let out = e
            .execute_sql("SELECT avg(ts) FROM clicks", Strategy::YSmart)
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(matches!(out.rows[0].get(0).unwrap(), Value::Float(_)));
    }
}
