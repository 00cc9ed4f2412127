//! The five workloads: their sizes, their seeded data and their seeded
//! request streams. Everything here derives from `--seed` alone; the program
//! under test receives only what these generators produce.
//!
//! Every workload is a repetition of one fixed **cycle**: set the system up
//! from nothing, run `warmup_ops` untimed and `ops_per_cycle` timed
//! operations against it, tear it down. A run repeats cycles until
//! `--seconds` have passed. Because a cycle's inputs are fixed by the seed,
//! its exact numbers (jobs, simulated seconds, journal bytes, cache hits) do
//! not depend on how many cycles the machine had time for, and the memory a
//! long-lived engine accumulates is bounded by one cycle's worth.

use ysmart::core::Strategy;
use ysmart::datagen::{ClicksGen, ClicksSpec, TpchGen, TpchSpec};
use ysmart::mapred::ClusterConfig;
use ysmart::queries::workloads::{
    q17_sql, q18_sql, q21_sql, q21_subtree_sql, q3_sql, q_agg_sql, q_csa_sql,
};
use ysmart::rel::Row;

use crate::util::SplitMix;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The query suite through `YSmart::execute_sql` under one strategy.
    Dss(Strategy),
    /// `core::translate` only; nothing executes.
    Translate,
    /// The line protocol of `ysmart serve`, with or without `--reuse-mb`.
    Serve { reuse_mb: Option<u64> },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name `BENCHMARK.json` lists the workload under, with the reason
    /// it exists in one line.
    pub name: &'static str,
    pub kind: Kind,
    /// `TpchSpec::scale`; 1.0 is about 6 000 `lineitem` rows.
    pub tpch_scale: f64,
    /// Click-stream users (40 clicks each); 0 when the workload has none.
    pub click_users: usize,
    pub warmup_ops: usize,
    pub ops_per_cycle: usize,
}

/// `dss_merged` — the paper's headline case. The fig10 suite (`q17`, `q18`,
/// `q21`, `q-csa`) plus `q-agg` under `Strategy::YSmart` compiles to 13
/// merged jobs, so `exec`'s common mapper/reducer dispatch and
/// `mapred::engine`'s sort and shuffle do nearly all the work; translation
/// is under 0.2 % of a pass and journal, reuse and scheduler do nothing.
/// Columnar format, TPC-H scale 10 (~60 000 `lineitem` rows), 1 200 users ×
/// 40 clicks, fig10's `target_gb` and disk settings, one engine per catalog
/// that lives for the whole cycle. One op is one pass of the five queries.
const DSS_MERGED: Spec = Spec {
    name: "dss_merged",
    kind: Kind::Dss(Strategy::YSmart),
    tpch_scale: 10.0,
    click_users: 1200,
    warmup_ops: 1,
    ops_per_cycle: 8,
};

/// `dss_chained` — identical data, queries and pass count under
/// `Strategy::Hive`: 25 one-operation-one-job jobs. The same layers used
/// differently: twice the job boundaries, so `rel` frame encode/decode, HDFS
/// materialisation and per-job fixed cost dominate and CMF dispatch does
/// little. A gain for merged jobs that costs plain jobs (or the reverse)
/// shows as one row up and one row down.
const DSS_CHAINED: Spec = Spec {
    name: "dss_chained",
    kind: Kind::Dss(Strategy::Hive),
    ..DSS_MERGED
};

/// `translate` — `core::translate` of all 7 paper queries under all 5
/// strategies, 35 translations per sweep. The only workload where `sql`,
/// `plan` and `core` do all the work and `exec`/`mapred` none; its
/// `jobs_total` pins the §VII-A job-count table, so EXPLAIN or merge-rule
/// work cannot silently slow or change translation. One op is one sweep.
/// The sizes are those of the small database its set-up loads, on which the
/// translations are executed once, after timing, to verify them.
const TRANSLATE: Spec = Spec {
    name: "translate",
    kind: Kind::Translate,
    tpch_scale: 0.5,
    click_users: 40,
    warmup_ops: 1,
    ops_per_cycle: 100,
};

/// `serve_hot` — the ReStore case. `serve::Service` as `ysmart serve
/// --journal F --reuse-mb 64` builds it (`ClusterConfig::small_local()`: text
/// format, actual-size data, a few large map tasks; one worker thread), TPC-H
/// scale 2, a seeded stream of batches of 8 queries drawn from `q17`,
/// `q18(threshold)`, `q21(nation)` and `q3(nation)`, half the parameters
/// from a 4-value hot set and half from a wide set; the first 4 batches
/// warm the cache and are not timed; then 4 admissions that are
/// acknowledged and never run, a drop without `!quit`, and a reopen.
/// Execution is mostly skipped, so admission, journal append/flush, reuse
/// lookup + checksum verification and recovery replay are what is left to
/// measure. One op is one batch: 8 admissions plus `!run`.
const SERVE_HOT: Spec = Spec {
    name: "serve_hot",
    kind: Kind::Serve { reuse_mb: Some(64) },
    tpch_scale: 2.0,
    click_users: 0,
    warmup_ops: HOT_VALUES,
    ops_per_cycle: 8,
};

/// `serve_cold` — the same stream, seed and journal settings with reuse off
/// (the CLI default): the bypass for `serve_hot`. Every job executes and is
/// journaled, and it is the text data path's only workload. A reuse change
/// must move `serve_hot` and leave this row still; a journal change moves
/// both; an executor change moves this and `dss_*`.
const SERVE_COLD: Spec = Spec {
    name: "serve_cold",
    kind: Kind::Serve { reuse_mb: None },
    ..SERVE_HOT
};

/// `ClusterConfig::small_local()` with the engine's tasks run on the calling
/// thread, which every workload's engines start from. The engine's default
/// is one worker thread per core, started anew for every job; on a shared
/// 2-core host each job then ends when the slower of two threads does, and a
/// neighbour busy on one core moved the median op time of identical code by
/// 20–30 % from run to run, where the same neighbour moves one thread's by
/// 4–6 %. `exec_threads` changes wall-clock only: rows, job counts and
/// simulated seconds are the same for every setting.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        exec_threads: Some(1),
        ..ClusterConfig::small_local()
    }
}

const ALL: [Spec; 5] = [DSS_MERGED, DSS_CHAINED, TRANSLATE, SERVE_HOT, SERVE_COLD];

/// Size of a serve parameter's hot set. The stream's first `HOT_VALUES`
/// batches use each hot value once and are the serve workloads' warm-up:
/// after them a hot draw always repeats a text the service has answered.
pub const HOT_VALUES: usize = 4;
/// Queries a serve batch admits before `!run`.
pub const BATCH_QUERIES: usize = 8;
/// Admissions acknowledged after the last batch and never run before the
/// crash; recovery must hand exactly these back as pending.
pub const TAIL_QUERIES: usize = 4;

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        ALL.into_iter().find(|s| s.name == name)
    }

    /// The same workload at a size that finishes in well under a second per
    /// cycle — for `--smoke` and the drift test, not for measuring.
    pub fn smoke(self) -> Spec {
        Spec {
            tpch_scale: self.tpch_scale.min(0.5),
            click_users: self.click_users.min(40),
            ops_per_cycle: self.ops_per_cycle.min(3),
            ..self
        }
    }

    pub fn tpch(&self, seed: u64) -> TpchGen {
        TpchGen::generate(&TpchSpec {
            scale: self.tpch_scale,
            seed,
        })
    }

    pub fn clicks(&self, seed: u64) -> Vec<Row> {
        ClicksGen::generate(&self.clicks_spec(seed)).clicks
    }

    pub fn clicks_spec(&self, seed: u64) -> ClicksSpec {
        ClicksSpec {
            users: self.click_users,
            clicks_per_user: 40,
            seed,
            ..ClicksSpec::default()
        }
    }
}

/// Which catalog (and engine) a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Db {
    Tpch,
    Clicks,
}

#[derive(Debug, Clone)]
pub struct QueryText {
    pub name: &'static str,
    pub sql: String,
    pub db: Db,
    /// Whether the result is globally ordered (compared as a sequence).
    pub ordered: bool,
}

fn query(name: &'static str, sql: String, db: Db, ordered: bool) -> QueryText {
    // The serve protocol is line-based; the generators' SQL spans lines.
    let sql = sql.split_whitespace().collect::<Vec<_>>().join(" ");
    QueryText {
        name,
        sql,
        db,
        ordered,
    }
}

/// One pass of the `dss_*` workloads: fig10's four queries plus `q-agg`.
pub fn dss_queries(spec: &Spec) -> Vec<QueryText> {
    let clicks = spec.clicks_spec(0);
    vec![
        query("q17", q17_sql(), Db::Tpch, false),
        query("q18", q18_sql(250), Db::Tpch, true),
        query("q21", q21_sql("SAUDI ARABIA"), Db::Tpch, true),
        query(
            "q-csa",
            q_csa_sql(clicks.category_x, clicks.category_y),
            Db::Clicks,
            false,
        ),
        query("q-agg", q_agg_sql(), Db::Clicks, false),
    ]
}

/// One sweep of the `translate` workload: all 7 paper queries.
pub fn translate_queries() -> Vec<QueryText> {
    let clicks = ClicksSpec::default();
    vec![
        query("q17", q17_sql(), Db::Tpch, false),
        query("q18", q18_sql(250), Db::Tpch, true),
        query("q21", q21_sql("SAUDI ARABIA"), Db::Tpch, true),
        query("q21-subtree", q21_subtree_sql(), Db::Tpch, false),
        query("q3", q3_sql("CHINA"), Db::Tpch, true),
        query("q-agg", q_agg_sql(), Db::Clicks, false),
        query(
            "q-csa",
            q_csa_sql(clicks.category_x, clicks.category_y),
            Db::Clicks,
            false,
        ),
    ]
}

/// The seeded request stream of the `serve_*` workloads.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The distinct SQL texts the stream uses.
    pub queries: Vec<QueryText>,
    /// Per batch, indices into `queries`, in admission order.
    pub batches: Vec<Vec<usize>>,
    /// Admitted after the last batch, never run before the crash.
    pub tail: Vec<usize>,
}

impl Stream {
    /// Every batch holds two queries of each of the four shapes, so the job
    /// count of a stream does not depend on the seed; the seed picks the
    /// parameters and the admission order. Of each shape's two draws, one
    /// parameter comes from the hot set and one from the wide set. Wide draws
    /// never repeat: each is a text the service has not seen. Hot draws walk
    /// the hot set once during the first `HOT_VALUES` batches and repeat at
    /// random after that (`q17` takes no parameter, so it always repeats).
    /// That fixes how much of a timed batch can hit the reuse cache,
    /// whatever the seed.
    ///
    /// # Panics
    ///
    /// If the wide sets are too small for `batches` draws without repeats.
    pub fn generate(seed: u64, batches: usize, nations: &[String]) -> Stream {
        let mut rng = SplitMix(seed ^ 0x5E21_7E57);
        let mut nations: Vec<&str> = nations.iter().map(String::as_str).collect();
        rng.shuffle(&mut nations);
        let mut thresholds: Vec<i64> = (200..=330).collect();
        rng.shuffle(&mut thresholds);
        // The first four of each shuffled set are hot; the rest are wide,
        // and each shape walks its own shuffle of them.
        let (hot_nations, wide_nations) = nations.split_at(HOT_VALUES.min(nations.len()));
        let (hot_thresholds, wide_thresholds) = thresholds.split_at(HOT_VALUES);
        let mut wide_q21 = wide_nations.to_vec();
        let mut wide_q3 = wide_nations.to_vec();
        rng.shuffle(&mut wide_q21);
        rng.shuffle(&mut wide_q3);
        assert!(
            batches <= wide_nations.len() && batches <= wide_thresholds.len(),
            "{batches} batches need as many unrepeated wide parameters"
        );

        let mut stream = Stream {
            queries: Vec::new(),
            batches: Vec::new(),
            tail: Vec::new(),
        };
        let intern = |stream: &mut Stream, q: QueryText| -> usize {
            match stream.queries.iter().position(|x| x.sql == q.sql) {
                Some(i) => i,
                None => {
                    stream.queries.push(q);
                    stream.queries.len() - 1
                }
            }
        };
        let q17 = || query("q17", q17_sql(), Db::Tpch, false);
        let q18 = |t: i64| query("q18", q18_sql(t), Db::Tpch, true);
        let q21 = |n: &str| query("q21", q21_sql(n), Db::Tpch, true);
        let q3 = |n: &str| query("q3", q3_sql(n), Db::Tpch, true);
        for b in 0..batches {
            let mut hot = |n: usize| if b < n { b } else { rng.below(n) };
            let mut batch = vec![
                q17(),
                q17(),
                q18(hot_thresholds[hot(HOT_VALUES)]),
                q18(wide_thresholds[b]),
                q21(hot_nations[hot(hot_nations.len())]),
                q21(wide_q21[b]),
                q3(hot_nations[hot(hot_nations.len())]),
                q3(wide_q3[b]),
            ];
            debug_assert_eq!(batch.len(), BATCH_QUERIES);
            rng.shuffle(&mut batch);
            let ids = batch.into_iter().map(|q| intern(&mut stream, q)).collect();
            stream.batches.push(ids);
        }
        let tail = [
            q17(),
            q18(hot_thresholds[rng.below(HOT_VALUES)]),
            q21(hot_nations[rng.below(hot_nations.len())]),
            q3(hot_nations[rng.below(hot_nations.len())]),
        ];
        debug_assert_eq!(tail.len(), TAIL_QUERIES);
        stream.tail = tail.into_iter().map(|q| intern(&mut stream, q)).collect();
        stream
    }

    /// The stream as a `ysmart serve --requests` file.
    pub fn request_file(&self) -> String {
        let mut out = String::new();
        for batch in &self.batches {
            for &q in batch {
                out.push_str(&self.queries[q].sql);
                out.push('\n');
            }
            out.push_str("!run\n");
        }
        for &q in &self.tail {
            out.push_str(&self.queries[q].sql);
            out.push('\n');
        }
        out
    }
}

/// The nation names of a generated database (column `n_name`).
pub fn nation_names(db: &TpchGen) -> Vec<String> {
    db.nation
        .iter()
        .filter_map(|r| r.values().get(1)?.as_str().map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nations() -> Vec<String> {
        nation_names(&SERVE_HOT.smoke().tpch(1))
    }

    #[test]
    fn same_seed_same_request_file() {
        let n = nations();
        assert_eq!(n.len(), 25);
        let a = Stream::generate(3, 6, &n).request_file();
        assert_eq!(a, Stream::generate(3, 6, &n).request_file());
        assert_ne!(a, Stream::generate(4, 6, &n).request_file());
        assert_eq!(a.lines().filter(|l| *l == "!run").count(), 6);
        assert!(a.lines().all(|l| l == "!run" || l.starts_with("SELECT ")));
    }

    #[test]
    fn batch_composition_is_seed_invariant() {
        let n = nations();
        for seed in 0..5 {
            let s = Stream::generate(seed, 4, &n);
            for batch in &s.batches {
                let mut shapes: Vec<&str> = batch.iter().map(|&q| s.queries[q].name).collect();
                shapes.sort_unstable();
                assert_eq!(
                    shapes,
                    ["q17", "q17", "q18", "q18", "q21", "q21", "q3", "q3"]
                );
            }
            assert_eq!(s.tail.len(), TAIL_QUERIES);
        }
    }
}
