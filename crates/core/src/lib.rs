//! # ysmart-core — correlation-aware SQL-to-MapReduce translation
//!
//! The paper's primary contribution: given a logical plan and its
//! correlation report, generate the **minimal number of MapReduce jobs** by
//! applying the four merging rules of §V-B:
//!
//! * **Rule 1** — jobs with *input correlation* and *transit correlation*
//!   merge into a common job (shared table scan, shared map output);
//! * **Rule 2** — an AGGREGATION job with *job flow correlation* to its only
//!   preceding job is evaluated in that job's reduce phase;
//! * **Rule 3** — a JOIN job whose two preceding jobs were Rule-1-merged is
//!   evaluated in the common job's reduce phase;
//! * **Rule 4** — a JOIN job with JFC to one preceding job merges into it,
//!   with the other preceding job scheduled first (the "child exchange" of
//!   Fig. 7).
//!
//! [`translate`] drives the whole pipeline (drafts → merging → blueprint
//! compilation); [`YSmart`] is the end-to-end engine (catalog + simulated
//! cluster + SQL in, result rows + per-job metrics out). Five
//! [`Strategy`] presets reproduce the systems the paper compares:
//! `Hive` and `Pig` (one-operation-to-one-job), `YSmartNoJfc` (Rule 1
//! only — the middle bar of Fig. 9), `YSmart` (all rules) and `HandCoded`
//! (YSmart plus reduce-side short-circuiting, §VII-C case 4).

pub mod compile;
pub mod draft;
pub mod engine;
pub mod error;
pub mod options;

pub use compile::{compile, Translation};
pub use draft::{build_drafts, Draft};
pub use engine::{QueryOutcome, YSmart};
pub use error::CoreError;
pub use options::{Strategy, TranslateOptions};

use ysmart_plan::{analyze, build_plan, Catalog, Plan};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Parses, plans and translates a query in one call.
///
/// # Examples
///
/// ```
/// use ysmart_core::{translate, Strategy};
/// use ysmart_plan::Catalog;
/// use ysmart_rel::{DataType, Schema};
///
/// let mut catalog = Catalog::new();
/// catalog.add_table("t", Schema::of("t", &[
///     ("k", DataType::Int), ("v", DataType::Int),
/// ]));
/// // A self-join plus same-key aggregation: one YSmart job, two for Hive.
/// let sql = "SELECT a.k, count(*) FROM t AS a, t AS b \
///            WHERE a.k = b.k GROUP BY a.k";
/// let ys = translate(&catalog, sql, Strategy::YSmart, "doc").unwrap();
/// let hive = translate(&catalog, sql, Strategy::Hive, "doc").unwrap();
/// assert_eq!(ys.job_count(), 1);
/// assert_eq!(hive.job_count(), 2);
/// ```
///
/// # Errors
///
/// Parse, planning or compilation failures.
pub fn translate(
    catalog: &Catalog,
    sql: &str,
    strategy: Strategy,
    query_tag: &str,
) -> Result<Translation> {
    let query = ysmart_sql::parse(sql)?;
    let plan = build_plan(catalog, &query)?;
    translate_plan(&plan, strategy, query_tag)
}

/// Translates an already-built plan.
///
/// # Errors
///
/// Compilation failures.
pub fn translate_plan(plan: &Plan, strategy: Strategy, query_tag: &str) -> Result<Translation> {
    let report = analyze(plan);
    let opts = strategy.options();
    compile(plan, &report, &opts, query_tag)
}
