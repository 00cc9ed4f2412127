//! # ysmart-bench — the figure harness
//!
//! One binary, `ysmart-bench <figure> [flags]`, over one function per
//! figure. A figure's name is the stem of its committed `results/` file:
//!
//! | figure | reproduces |
//! |---|---|
//! | `jobcounts` | §VII-A job-count table |
//! | `fig2`  | Fig. 2(b) — Hive vs hand-coded on Q-AGG and Q-CSA |
//! | `fig9`  | Fig. 9 — Q21-subtree per-job breakdown under 4 configurations |
//! | `fig10` | Fig. 10 — small cluster: YSmart/Hive/Pig/ideal-pgsql on all queries |
//! | `fig11` | Fig. 11 — EC2 11/101 nodes, compression on/off |
//! | `fig12` | Fig. 12 — Facebook cluster, 3 concurrent Q17 instances per system |
//! | `fig13` | Fig. 13 — Facebook cluster, Q18/Q21 averages |
//! | `ablations` | DESIGN.md's design choices switched off one at a time |
//! | `faults` | recovery cost under node loss, YSmart vs Hive |
//! | `corruption` | integrity tax and corruption recovery, both storage formats |
//! | `workload` | multi-tenant overload sweep: latency/hit-rate/shed-rate vs offered load |
//! | `recovery` | crash recovery: replay cost and bit-identity vs kill point |
//! | `reuse` | cross-query result reuse: hits and avoided work vs cache capacity |
//!
//! Flags: `--smoke` (a seconds-long subset, where the figure has one),
//! `--format text|columnar` and `--trace [PATH]` (`fig10`), `--out DIR`
//! (every figure). A report always goes to stdout; `<DIR>/<figure>.txt` —
//! and `.json` when the figure has a machine-readable form — is written
//! only under `--out`.
//!
//! Each figure *executes the queries for real* on the simulated cluster,
//! checks every answer against the relational oracle (a mismatch is a
//! translator bug and panics), and only then reports simulated times.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use ysmart_core::{CoreError, QueryOutcome, Strategy, YSmart};
use ysmart_datagen::{clicks_catalog, tpch_catalog, ClicksSpec, TpchSpec};
use ysmart_mapred::{ClusterConfig, DataFormat, Trace};
use ysmart_plan::{build_plan, Catalog};
use ysmart_queries::{
    clicks_workloads, oracle_execute, rows_approx_equal, tpch_workloads, DbmsProfile,
    OracleOutcome, Workload,
};
use ysmart_rel::Row;

mod ablations;
mod corruption;
mod faults;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig2;
mod fig9;
mod jobcounts;
mod recovery;
mod reuse;
mod workload;

/// What the command line asked of a figure.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Flags {
    /// Run the figure's seconds-long subset instead of the full sweep.
    pub smoke: bool,
    /// Storage/shuffle format of the engines the figure builds.
    pub format: DataFormat,
    /// Record execution traces and write one merged Chrome-trace JSON here.
    pub trace: Option<String>,
    /// Directory that receives `<figure>.txt` (and `.json`).
    pub out: Option<PathBuf>,
}

/// A registered figure.
pub struct Figure {
    /// Command-line name and `results/` file stem.
    pub name: &'static str,
    /// The flags it takes besides `--out`.
    pub accepts: &'static [&'static str],
    run: fn(&Flags, &mut Report),
}

const SMOKE: &[&str] = &["--smoke"];

const fn fig(
    name: &'static str,
    accepts: &'static [&'static str],
    run: fn(&Flags, &mut Report),
) -> Figure {
    Figure { name, accepts, run }
}

/// Every figure, in the order of the table above.
pub static FIGURES: [Figure; 13] = [
    fig("jobcounts", &[], jobcounts::run),
    fig("fig2", &[], fig2::run),
    fig("fig9", &[], fig9::run),
    fig("fig10", &["--smoke", "--format", "--trace"], fig10::run),
    fig("fig11", &[], fig11::run),
    fig("fig12", &[], fig12::run),
    fig("fig13", &[], fig13::run),
    fig("ablations", &[], ablations::run),
    fig("faults", SMOKE, faults::run),
    fig("corruption", SMOKE, corruption::run),
    fig("workload", SMOKE, workload::run),
    fig("recovery", SMOKE, recovery::run),
    fig("reuse", SMOKE, reuse::run),
];

/// A figure's output: the text it printed and, for the sweeps, the same
/// numbers as JSON.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    json: Option<String>,
}

impl Report {
    /// Prints `line` to stdout as the figure progresses and records it.
    pub(crate) fn line(&mut self, line: &str) {
        println!("{line}");
        self.text.push_str(line);
        self.text.push('\n');
    }

    /// Attaches the machine-readable form.
    pub(crate) fn set_json(&mut self, json: String) {
        self.json = Some(json);
    }

    /// Everything printed so far.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// A command line the harness rejects; `main` prints it and exits 2.
#[derive(Debug, PartialEq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ysmart-bench: {}", self.0)?;
        writeln!(f, "usage: ysmart-bench <figure> [flags] [--out DIR]")?;
        for fig in &FIGURES {
            writeln!(f, "  {:<10} {}", fig.name, fig.accepts.join(" "))?;
        }
        write!(
            f,
            "  --format takes text|columnar, --trace an optional PATH"
        )
    }
}

/// Parses `<figure> [flags]` (the arguments after the program name).
///
/// # Errors
///
/// No or an unknown figure, a flag the figure does not take, a missing or
/// bad flag value.
pub fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(&'static Figure, Flags), UsageError> {
    let mut args = args.into_iter().peekable();
    let name = args
        .next()
        .ok_or_else(|| UsageError("no figure named".into()))?;
    let figure = FIGURES
        .iter()
        .find(|f| f.name == name)
        .ok_or_else(|| UsageError(format!("unknown figure `{name}`")))?;
    let mut flags = Flags::default();
    while let Some(flag) = args.next() {
        let takes = |f: &str| figure.accepts.contains(&f);
        match flag.as_str() {
            "--out" => {
                let dir = args
                    .next()
                    .ok_or_else(|| UsageError("--out needs a directory".into()))?;
                flags.out = Some(dir.into());
            }
            "--smoke" if takes("--smoke") => flags.smoke = true,
            "--format" if takes("--format") => {
                flags.format = match args.next().as_deref() {
                    Some("text") => DataFormat::Text,
                    Some("columnar") => DataFormat::Columnar,
                    other => {
                        return Err(UsageError(format!(
                            "--format expects `text` or `columnar`, got `{}`",
                            other.unwrap_or("")
                        )))
                    }
                };
            }
            "--trace" if takes("--trace") => {
                let path = args.next_if(|a| !a.starts_with("--"));
                flags.trace = Some(path.unwrap_or_else(|| format!("results/{name}_trace.json")));
            }
            _ => return Err(UsageError(format!("`{name}` takes no `{flag}`"))),
        }
    }
    Ok((figure, flags))
}

/// The whole program: parses `args`, runs the figure (which prints as it
/// goes), and under `--out DIR` writes the report to `DIR`.
///
/// # Errors
///
/// [`parse`]'s, or `DIR` cannot be created; nothing has run when it fails.
///
/// # Panics
///
/// When an answer disagrees with the oracle or one of the figure's own
/// assertions fails, and when a report file cannot be written.
pub fn run(args: impl IntoIterator<Item = String>) -> Result<Report, UsageError> {
    let (figure, flags) = parse(args)?;
    if let Some(dir) = &flags.out {
        // Before the sweep, not after it.
        std::fs::create_dir_all(dir)
            .map_err(|e| UsageError(format!("--out {}: {e}", dir.display())))?;
    }
    let mut report = Report::default();
    (figure.run)(&flags, &mut report);
    if let Some(dir) = &flags.out {
        for (ext, body) in [("txt", Some(&report.text)), ("json", report.json.as_ref())] {
            if let Some(body) = body {
                let path = dir.join(format!("{}.{ext}", figure.name));
                std::fs::write(&path, body)
                    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                println!("wrote {}", path.display());
            }
        }
    }
    Ok(report)
}

/// SplitMix64: the sweeps' only randomness, fully determined by the seed.
#[must_use]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) fn format_name(format: DataFormat) -> &'static str {
    match format {
        DataFormat::Text => "text",
        DataFormat::Columnar => "columnar",
    }
}

/// The TPC-H workloads at the seed every paper figure uses.
pub(crate) fn tpch(scale: f64) -> Vec<Workload> {
    tpch_workloads(&TpchSpec { scale, seed: 2024 })
}

/// The click-stream workloads at the seed every paper figure uses.
pub(crate) fn clicks(users: usize, clicks_per_user: usize) -> Vec<Workload> {
    clicks_workloads(&ClicksSpec {
        users,
        clicks_per_user,
        seed: 2024,
        ..ClicksSpec::default()
    })
}

/// Makes the engine's loaded bytes stand for `target_gb` of simulated data.
pub(crate) fn scale_to(engine: &mut YSmart, target_gb: f64) {
    let real_bytes = engine.cluster.hdfs.total_bytes().max(1);
    engine.cluster.config.size_multiplier = (target_gb * 1e9) / real_bytes as f64;
}

/// A workload together with the oracle's answer to it, computed once and
/// checked against every run of the workload, whatever the strategy or
/// cluster.
pub(crate) struct Verified<'w> {
    pub w: &'w Workload,
    oracle: OracleOutcome,
}

impl<'w> Verified<'w> {
    /// # Panics
    ///
    /// When the oracle cannot answer the workload — a generator bug.
    pub fn new(w: &'w Workload) -> Self {
        let tables: BTreeMap<String, Vec<Row>> = w
            .tables
            .iter()
            .map(|(n, r)| ((*n).to_string(), r.clone()))
            .collect();
        let oracle = ysmart_sql::parse(&w.sql)
            .map_err(CoreError::from)
            .and_then(|q| Ok(build_plan(&w.catalog, &q)?))
            .and_then(|plan| Ok(oracle_execute(&plan, &tables)?))
            .unwrap_or_else(|e| panic!("{}: the oracle failed: {e}", w.name));
        Verified { w, oracle }
    }

    /// [`Verified::new`] of the workload called `name`.
    pub fn find(workloads: &'w [Workload], name: &str) -> Self {
        let w = workloads.iter().find(|w| w.name == name);
        Self::new(w.unwrap_or_else(|| panic!("workload {name} not found")))
    }

    /// A fresh engine on `config` holding the workload's tables, its data
    /// volume scaled to `target_gb`.
    pub fn engine(&self, config: ClusterConfig, target_gb: f64) -> Result<YSmart, CoreError> {
        let mut engine = YSmart::new(self.w.catalog.clone(), config);
        self.w.load_into(&mut engine)?;
        scale_to(&mut engine, target_gb);
        Ok(engine)
    }

    /// # Panics
    ///
    /// When `rows` are not the oracle's: a translator bug, which
    /// invalidates the figure.
    pub fn check(&self, rows: &[Row], what: &dyn fmt::Display) {
        assert!(
            rows_approx_equal(rows, &self.oracle.rows, self.w.ordered),
            "{} {what}: result does not match the oracle ({} vs {} rows)",
            self.w.name,
            rows.len(),
            self.oracle.rows.len()
        );
    }

    /// Executes the workload under `strategy` on a fresh engine and checks
    /// the answer.
    ///
    /// # Errors
    ///
    /// Execution failures (the paper's DNF cases: disk full, time limit).
    pub fn run(
        &self,
        strategy: Strategy,
        config: &ClusterConfig,
        target_gb: f64,
    ) -> Result<QueryOutcome, CoreError> {
        self.run_traced(strategy, config, target_gb, false)
            .map(|(out, _)| out)
    }

    /// [`Verified::run`]; when `traced`, also returns one span per
    /// simulated event of the run.
    pub fn run_traced(
        &self,
        strategy: Strategy,
        config: &ClusterConfig,
        target_gb: f64,
        traced: bool,
    ) -> Result<(QueryOutcome, Option<Trace>), CoreError> {
        let mut engine = self.engine(config.clone(), target_gb)?;
        if traced {
            engine.enable_tracing();
        }
        let out = engine.execute_sql(&self.w.sql, strategy)?;
        self.check(&out.rows, &format_args!("under {strategy}"));
        Ok((out, engine.take_trace()))
    }

    /// The "ideal parallel PostgreSQL" time of §VII-D: the oracle's
    /// single-node simulated time at the target volume, divided by the
    /// assumed perfect parallelism (the paper runs quarter-size data on one
    /// core of four).
    pub fn pgsql_seconds(&self, target_gb: f64) -> f64 {
        let real_bytes: u64 = self
            .w
            .tables
            .iter()
            .flat_map(|(_, rows)| rows.iter())
            .map(|r| r.size_bytes() as u64 + 1)
            .sum();
        let mult = (target_gb * 1e9) / real_bytes.max(1) as f64;
        DbmsProfile::default().seconds(&OracleOutcome {
            rows: Vec::new(),
            row_ops: (self.oracle.row_ops as f64 * mult) as u64,
            bytes_scanned: (self.oracle.bytes_scanned as f64 * mult) as u64,
        })
    }
}

/// The query mix of the service figures (`workload`, `reuse`): Q17, Q18,
/// the Q21 subtree, Q-AGG and Q-CSA over one engine that holds *all* base
/// tables (TPC-H + clicks, disjoint names), so every tenant's chains share
/// a single simulated cluster.
pub(crate) struct Mix {
    /// The TPC-H workloads, then the click-stream ones.
    workloads: Vec<Workload>,
    pub target_gb: f64,
}

impl Mix {
    pub const NAMES: [&'static str; 5] = ["q17", "q18", "q21-subtree", "q-agg", "q-csa"];

    pub fn new(smoke: bool) -> Self {
        let (scale, users, clicks_per_user, target_gb) = if smoke {
            (0.05, 15, 10, 0.5)
        } else {
            (0.2, 40, 20, 2.0)
        };
        let mut workloads = tpch_workloads(&TpchSpec { scale, seed: 2026 });
        workloads.extend(clicks_workloads(&ClicksSpec {
            users,
            clicks_per_user,
            seed: 2026,
            ..ClicksSpec::default()
        }));
        Mix {
            workloads,
            target_gb,
        }
    }

    /// The five shapes, each with its oracle answer.
    pub fn shapes(&self) -> Vec<Verified<'_>> {
        let find = |n| Verified::find(&self.workloads, n);
        Self::NAMES.iter().copied().map(find).collect()
    }

    /// A fresh `ec2(10)` engine with every base table loaded and scaled.
    pub fn engine(&self, exec_threads: Option<usize>) -> YSmart {
        let mut catalog = Catalog::new();
        for (name, schema) in tpch_catalog().iter().chain(clicks_catalog().iter()) {
            catalog.add_table(name, schema.clone());
        }
        let config = ClusterConfig {
            exec_threads,
            ..ClusterConfig::ec2(10)
        };
        let mut engine = YSmart::new(catalog, config);
        // Every TPC-H workload carries all TPC-H tables, every click-stream
        // workload the clicks table: the first and the last cover both.
        let (tpch, clicks) = (
            &self.workloads[0],
            &self.workloads[self.workloads.len() - 1],
        );
        for (name, rows) in tpch.tables.iter().chain(&clicks.tables) {
            engine.load_table(name, rows).expect("load base table");
        }
        scale_to(&mut engine, self.target_gb);
        engine
    }
}

/// Formats seconds right-aligned to one decimal (`  123.4s`) for compact
/// tables.
#[must_use]
pub(crate) fn fmt_secs(s: f64) -> String {
    format!("{:>7.1}s", s)
}

/// Prints a per-job map/reduce breakdown (the bar contents of Figs. 9, 10
/// and 12).
pub(crate) fn print_breakdown(r: &mut Report, label: &str, outcome: &QueryOutcome) {
    r.line(&format!("  {label}: total {}", fmt_secs(outcome.total_s())));
    for j in &outcome.metrics.jobs {
        r.line(&format!(
            "    {:<40} map {} reduce {} (delay {})",
            j.name,
            fmt_secs(j.map_time_s),
            fmt_secs(j.reduce_time_s),
            fmt_secs(j.startup_delay_s)
        ));
    }
}

/// A row of a figure summary table.
#[derive(Debug, Clone)]
pub(crate) struct FigRow {
    /// Series label ("YSmart", "Hive c", …).
    pub label: String,
    /// Seconds, or the DNF reason.
    pub result: Result<f64, String>,
}

impl FigRow {
    /// A run's total simulated seconds, or why it did not finish — the
    /// paper's two DNF causes by name.
    pub fn of(label: impl Into<String>, run: Result<QueryOutcome, CoreError>) -> Self {
        let result = run.map(|o| o.total_s()).map_err(|e| {
            if e.is_disk_full() {
                "intermediate results exceed local disk".into()
            } else if e.is_time_limit() {
                "exceeded the time limit".into()
            } else {
                e.to_string()
            }
        });
        FigRow {
            label: label.into(),
            result,
        }
    }
}

/// Prints a summary table and speedup lines (the paper reports YSmart's
/// speedup over each competitor as a percentage).
pub(crate) fn print_summary(r: &mut Report, title: &str, rows: &[FigRow]) {
    r.line(title);
    let base = rows
        .iter()
        .find(|r| r.label.to_lowercase().contains("ysmart") && !r.label.contains("no-jfc"))
        .and_then(|r| r.result.as_ref().ok().copied());
    for row in rows {
        match &row.result {
            Ok(s) => {
                let speedup = base
                    .filter(|b| *b > 0.0 && !row.label.to_lowercase().contains("ysmart"))
                    .map(|b| {
                        format!(
                            "  ({:.0}% of YSmart speedup base: {:.2}x)",
                            s / b * 100.0,
                            s / b
                        )
                    })
                    .unwrap_or_default();
                r.line(&format!("  {:<16} {}{}", row.label, fmt_secs(*s), speedup));
            }
            Err(reason) => r.line(&format!("  {:<16}     DNF ({reason})", row.label)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_verified_catches_real_runs() {
        let ws = clicks(6, 10);
        let out = Verified::new(&ws[0])
            .run(Strategy::YSmart, &ClusterConfig::small_local(), 0.001)
            .unwrap();
        assert!(out.total_s() > 0.0);
    }

    #[test]
    fn pgsql_baseline_positive() {
        let ws = clicks(6, 10);
        assert!(Verified::new(&ws[0]).pgsql_seconds(1.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match the oracle")]
    fn a_wrong_answer_panics() {
        let ws = clicks(6, 10);
        Verified::new(&ws[0]).check(&[], &"with no rows");
    }

    #[test]
    fn fmt_and_print_helpers() {
        assert_eq!(fmt_secs(1.25), "    1.2s");
        let mut r = Report::default();
        let row = |label: &str, result| FigRow {
            label: label.into(),
            result,
        };
        print_summary(
            &mut r,
            "t",
            &[
                row("YSmart", Ok(10.0)),
                row("Hive", Ok(25.0)),
                row("Pig", Err("disk full".into())),
            ],
        );
        assert!(r.text().contains("250% of YSmart"), "{}", r.text());
        assert!(r.text().ends_with("DNF (disk full)\n"), "{}", r.text());
    }
}
