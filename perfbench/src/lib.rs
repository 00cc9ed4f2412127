//! `ysmart-perfbench` — the repository's benchmark.
//!
//! A closed loop with one client drives the system through its public
//! functions only, times the calls from outside, verifies every answer
//! against `queries::oracle_execute`, and reports end-to-end metrics from a
//! timed run and per-layer metrics from a separate traced run. See
//! `README.md` beside this crate for the metric tables and how to read them.
//!
//! ```text
//! ysmart-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ysmart-perfbench --all [--seed N] [--seconds S] [--smoke]
//! ysmart-perfbench --compare A.json B.json
//! ```
//!
//! A single-workload run prints `# key: value` context lines, one
//! `workload metric value unit` line per metric, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. It exits 1
//! when any answer was wrong and 2 — without a result line — when it could
//! not measure at all.

mod all;
mod compare;
mod cycle;
mod decomposed;
mod drives;
mod dss;
pub mod json;
mod metrics;
mod run;
mod serve;
mod span;
mod translate;
mod util;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::declared;
use run::Outcome;
use workloads::Spec;

/// `--smoke`: long enough for one cycle of every workload at smoke size.
const SMOKE_SECONDS: f64 = 0.2;

/// Files the benchmark writes all go here, inside its own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = Some(it.next().ok_or("--workload needs a name")?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?;
            }
            "--seconds" => {
                args.seconds = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a number of seconds")?,
                );
            }
            "--trace" => {
                args.trace = match it.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--compare" => {
                let a = it.next().ok_or("--compare needs two result files")?;
                let b = it.next().ok_or("--compare needs two result files")?;
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: ysmart-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \u{20}      ysmart-perfbench --all [--seed N] [--seconds S] [--smoke]\n\
         \u{20}      ysmart-perfbench --compare A.json B.json\n\
         workloads: {}",
        declared()
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::obj(outcome.metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The run's result file: the contract's result object plus what `--all`
/// and a reader need beside it.
fn result_file(outcome: &Outcome, workload: &str, args: &Args) -> Json {
    let x = &outcome.exact;
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("smoke", Json::Bool(args.smoke)),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome)),
        (
            "exact",
            Json::obj([
                ("jobs_total", Json::Num(x.jobs as f64)),
                ("sim_s_total", Json::Num(x.sim_s)),
                ("journal_bytes", Json::Num(x.journal_bytes as f64)),
                ("reuse_hits", Json::Num(x.reuse_hits as f64)),
                ("reuse_misses", Json::Num(x.reuse_misses as f64)),
                ("reuse_evictions", Json::Num(x.reuse_evictions as f64)),
            ]),
        ),
        (
            "info",
            Json::Arr(
                outcome
                    .info
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::str(*k), Json::str(v.as_str())]))
                    .collect(),
            ),
        ),
        (
            "op_ms",
            Json::Arr(outcome.op_ms.iter().map(|ms| Json::Num(*ms)).collect()),
        ),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
    ])
}

/// Where a single-workload run leaves its result file.
fn result_path(workload: &str, seed: u64, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ))
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    // A workload is one `BENCHMARK.json` names and `workloads.rs` builds.
    let known = declared().workloads.iter().find(|w| w.name == name);
    let (Some(workload), Some(spec)) = (known, Spec::by_name(name)) else {
        eprintln!("ysmart-perfbench: unknown workload `{name}`");
        usage();
        return ExitCode::from(2);
    };
    let (spec, default_seconds) = if args.smoke {
        (spec.smoke(), SMOKE_SECONDS)
    } else {
        (spec, declared().run_seconds)
    };
    let seconds = args.seconds.unwrap_or(default_seconds);
    let out = out_dir();
    let measured = std::fs::create_dir_all(&out)
        .map_err(|e| format!("{}: {e}", out.display()))
        .and_then(|()| {
            if args.trace {
                run::traced_run(spec, args.seed, seconds, &out)
            } else {
                run::timed_run(spec, args.seed, seconds, &out)
            }
        });
    let outcome = match measured {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ysmart-perfbench: {name}: {e}");
            return ExitCode::from(2);
        }
    };

    println!("# workload: {name} -- {}", workload.why);
    println!(
        "# seed: {}  seconds: {seconds}  trace: {}",
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &outcome.info {
        println!("# {k}: {v}");
    }
    for (metric, value, unit) in &outcome.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    for f in &outcome.failures {
        eprintln!("ysmart-perfbench: {name}: FAILED: {f}");
    }
    let path = result_path(name, args.seed, args.trace);
    if let Err(e) = std::fs::write(&path, format!("{}\n", result_file(&outcome, name, args))) {
        eprintln!("ysmart-perfbench: {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.failed == 0)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics_json(&outcome)),
        ])
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The command line; `main` is this and nothing else.
pub fn cli() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ysmart-perfbench: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.all {
        return all::run(args.seed, args.seconds, args.smoke);
    }
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}
