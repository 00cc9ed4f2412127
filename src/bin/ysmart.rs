//! The stand-alone SQL-to-MapReduce translator the paper's conclusion
//! promises ("will also be an independent SQL-to-MapReduce translator").
//!
//! ```text
//! ysmart --catalog schema.sql --data DIR [options] "SELECT ..."
//! ysmart --demo [options] ["SELECT ..."]
//! ysmart serve (--demo | --catalog FILE --data DIR) [options]
//!
//!   --catalog FILE     CREATE TABLE statements describing the base tables
//!   --data DIR         directory with one pipe-delimited FILE <table>.tbl
//!                      per catalog table
//!   --demo             use a built-in click-stream catalog and dataset
//!   --strategy NAME    hive | pig | ysmart-no-jfc | ysmart (default) |
//!                      hand-coded
//!   --cluster SPEC     local (default) | ec2:<workers> | facebook
//!   --target-gb N      simulate this data volume, at most 1e6 (default:
//!                      actual size)
//!   --explain          print the job pipeline instead of executing
//!   --plan             also print the logical plan and correlation report
//!
//! serve options:
//!   --journal FILE     durable workload journal; a restarted service
//!                      recovers any interrupted workload from it
//!   --requests FILE    read protocol lines from FILE instead of stdin
//!   --trace-dir DIR    export a Chrome trace per !run as the trace handle
//!   --reuse-mb N       keep up to N MB of committed job outputs cached and
//!                      fast-forward repeated queries from them
//! ```

use std::io::{BufReader, Write};
use std::process::ExitCode;

use ysmart::core::{Strategy, YSmart};
use ysmart::datagen::{ClicksGen, ClicksSpec};
use ysmart::mapred::ClusterConfig;
use ysmart::plan::{analyze, Catalog};
use ysmart::rel::codec::encode_line;
use ysmart::serve::{serve_loop, ServeOptions, Service};

struct Args {
    catalog: Option<String>,
    data: Option<String>,
    demo: bool,
    strategy: Strategy,
    cluster: ClusterConfig,
    target_gb: Option<f64>,
    explain: bool,
    plan: bool,
    serve: bool,
    journal: Option<String>,
    requests: Option<String>,
    trace_dir: Option<String>,
    reuse_mb: Option<f64>,
    sql: Option<String>,
}

/// Parses a size flag's value. Sizes scale simulated volumes and cache
/// capacities, so anything not finite and positive (`nan`, `inf`, `1e400`,
/// `-1`) is a usage error, not a number to compute with; zero is meaningful
/// only where `zero_ok` (a 0 MB cache caches nothing); a flag whose value
/// scales further arithmetic has a `max` below `f64::MAX`.
fn size_arg(flag: &str, value: Option<String>, zero_ok: bool, max: f64) -> Result<f64, String> {
    let text = value.ok_or(format!("{flag} needs a number"))?;
    match text.parse::<f64>() {
        // `max` is finite: `inf` and NaN fail the comparison.
        Ok(v) if v <= max && (v > 0.0 || (zero_ok && v == 0.0)) => Ok(v),
        _ => Err(format!(
            "bad {flag} value `{text}` (need a number {} 0 and <= {max:e})",
            if zero_ok { ">=" } else { ">" }
        )),
    }
}

/// The most data `--target-gb` simulates: a thousand times the paper's
/// largest (1 TB) data set. The flag scales every simulated byte count, so
/// it is bounded: a large enough volume overflows that arithmetic, and
/// every simulated time reads infinite.
const MAX_TARGET_GB: f64 = 1_000_000.0;

/// The most workers `--cluster ec2:<n>` accepts. Executing a query keeps
/// state per node and per slot, so the count is bounded: the paper's largest
/// EC2 run has 100 workers and the facebook preset 747 nodes.
const MAX_EC2_WORKERS: usize = 10_000;

/// Parses the worker count of `--cluster ec2:<n>`, in `1..=MAX_EC2_WORKERS`.
fn ec2_workers(text: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(n) if (1..=MAX_EC2_WORKERS).contains(&n) => Ok(n),
        _ => Err(format!(
            "bad ec2 worker count `{text}` (need 1 to {MAX_EC2_WORKERS})"
        )),
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        catalog: None,
        data: None,
        demo: false,
        strategy: Strategy::YSmart,
        cluster: ClusterConfig::small_local(),
        target_gb: None,
        explain: false,
        plan: false,
        serve: false,
        journal: None,
        requests: None,
        trace_dir: None,
        reuse_mb: None,
        sql: None,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "serve" if !args.serve && args.sql.is_none() => args.serve = true,
            "--journal" => args.journal = Some(it.next().ok_or("--journal needs a file")?),
            "--requests" => args.requests = Some(it.next().ok_or("--requests needs a file")?),
            "--trace-dir" => args.trace_dir = Some(it.next().ok_or("--trace-dir needs a dir")?),
            "--reuse-mb" => {
                args.reuse_mb = Some(size_arg("--reuse-mb", it.next(), true, f64::MAX)?)
            }
            "--catalog" => args.catalog = Some(it.next().ok_or("--catalog needs a file")?),
            "--data" => args.data = Some(it.next().ok_or("--data needs a directory")?),
            "--demo" => args.demo = true,
            "--strategy" => {
                let s = it.next().ok_or("--strategy needs a name")?;
                args.strategy = match s.as_str() {
                    "hive" => Strategy::Hive,
                    "pig" => Strategy::Pig,
                    "ysmart-no-jfc" => Strategy::YSmartNoJfc,
                    "ysmart" => Strategy::YSmart,
                    "hand-coded" => Strategy::HandCoded,
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--cluster" => {
                let s = it.next().ok_or("--cluster needs a spec")?;
                args.cluster = if s == "local" {
                    ClusterConfig::small_local()
                } else if s == "facebook" {
                    ClusterConfig::facebook(1)
                } else if let Some(n) = s.strip_prefix("ec2:") {
                    ClusterConfig::ec2(ec2_workers(n)?)
                } else {
                    return Err(format!("unknown cluster `{s}`"));
                };
            }
            "--target-gb" => {
                let gb = size_arg("--target-gb", it.next(), false, MAX_TARGET_GB)?;
                args.target_gb = Some(gb);
            }
            "--explain" => args.explain = true,
            "--plan" => args.plan = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ if args.serve => {
                return Err(format!(
                    "`ysmart serve` takes no query argument (got `{a}`); \
                     queries arrive on the protocol stream"
                ))
            }
            _ if args.sql.is_some() => {
                return Err(format!("more than one query given (second: `{a}`)"))
            }
            _ => args.sql = Some(a),
        }
    }
    if !args.demo {
        if args.catalog.is_none() {
            return Err("either --demo or --catalog is required".into());
        }
        if args.data.is_none() {
            return Err("--data is required with --catalog".into());
        }
        if !args.serve && args.sql.is_none() {
            return Err("no SQL query given".into());
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: ysmart (--demo | --catalog schema.sql --data DIR) \\\n\
         \u{20}        [--strategy hive|pig|ysmart-no-jfc|ysmart|hand-coded] \\\n\
         \u{20}        [--cluster local|ec2:<n>|facebook] [--target-gb N] \\\n\
         \u{20}        [--explain] [--plan] \"SELECT ...\"\n\
         \u{20}  ysmart serve (--demo | --catalog schema.sql --data DIR) \\\n\
         \u{20}        [--journal FILE] [--requests FILE] [--trace-dir DIR] \\\n\
         \u{20}        [--reuse-mb N]"
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            usage();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("ysmart: {msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    // A query that fails to plan or to run is no misuse of the command
    // line: its error alone, no usage text.
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ysmart: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    // ---- catalog + data -----------------------------------------------
    let (catalog, tables): (Catalog, Vec<(String, Vec<String>)>) = if args.demo {
        let spec = ClicksSpec::default();
        let stream = ClicksGen::generate(&spec);
        let lines = stream.clicks.iter().map(encode_line).collect();
        (
            ysmart::datagen::clicks_catalog(),
            vec![("clicks".to_string(), lines)],
        )
    } else {
        let catalog_file = args.catalog.as_ref().expect("checked by `parse_args`");
        let ddl = std::fs::read_to_string(catalog_file)
            .map_err(|e| format!("cannot read {catalog_file}: {e}"))?;
        let catalog = Catalog::parse_ddl(&ddl).map_err(|e| format!("{catalog_file}: {e}"))?;
        let dir = args.data.as_ref().expect("checked by `parse_args`");
        let mut tables = Vec::new();
        for (name, _) in catalog.iter() {
            let path = format!("{dir}/{name}.tbl");
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            tables.push((name.to_string(), lines));
        }
        (catalog, tables)
    };

    let mut engine = YSmart::new(catalog, args.cluster.clone());
    for (name, lines) in tables {
        engine.load_table_lines(&name, lines);
    }
    if let Some(gb) = args.target_gb {
        let real = engine.cluster.hdfs.total_bytes().max(1);
        engine.cluster.config.size_multiplier = gb * 1e9 / real as f64;
    }

    if args.serve {
        return run_serve(engine, &args);
    }

    // Without a query, `parse_args` has checked `--demo`.
    let sql = args
        .sql
        .clone()
        .unwrap_or_else(|| "SELECT cid, count(*) AS clicks FROM clicks GROUP BY cid".to_string());

    // ---- plan / correlations -------------------------------------------
    if args.plan {
        let plan = engine.plan(&sql).map_err(|e| e.to_string())?;
        println!("-- logical plan --\n{}", plan.render());
        let report = analyze(&plan);
        println!("-- correlations --");
        for info in &report.nodes {
            println!("  {} partitions by {}", info.id, info.pk);
        }
        println!("  transit-correlated: {:?}", report.transit_correlated);
        println!("  job-flow (parent<-child): {:?}", report.job_flow);
        println!();
    }

    // ---- translate -------------------------------------------------------
    let translation = engine
        .translate(&sql, args.strategy)
        .map_err(|e| e.to_string())?;
    if args.explain {
        print!("{}", translation.explain());
        return Ok(());
    }

    // ---- execute -----------------------------------------------------------
    let outcome = engine
        .execute_translation(&translation)
        .map_err(|e| e.to_string())?;
    let header: Vec<String> = outcome
        .schema
        .fields()
        .iter()
        .map(|f| f.name.to_string())
        .collect();
    println!("{}", header.join("|"));
    for row in &outcome.rows {
        println!("{}", encode_line(row));
    }
    eprintln!(
        "-- {} ({}): {} job(s), simulated {:.1}s, {} rows",
        args.strategy,
        if args.target_gb.is_some() {
            "scaled"
        } else {
            "actual size"
        },
        outcome.jobs,
        outcome.total_s(),
        outcome.rows.len()
    );
    Ok(())
}

/// `ysmart serve`: open (recovering any interrupted workload), deliver the
/// recovery responses, then drive the line protocol from stdin or the
/// request file until `!quit` or end of input.
fn run_serve(engine: YSmart, args: &Args) -> Result<(), String> {
    let mut options = ServeOptions::new(args.strategy);
    options.journal_path = args.journal.clone().map(Into::into);
    options.trace_dir = args.trace_dir.clone().map(Into::into);
    options.reuse = args
        .reuse_mb
        .map(|mb| ysmart::mapred::ReuseConfig::with_capacity((mb * 1e6) as u64));

    let (mut service, recovery) =
        Service::open(engine, options).map_err(|e| format!("serve: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for resp in recovery {
        out.write_all(resp.render().as_bytes())
            .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;

    let result = match &args.requests {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serve_loop(&mut service, BufReader::new(file), &mut out)
        }
        None => serve_loop(&mut service, std::io::stdin().lock(), &mut out),
    };
    result.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn size_flags_reject_non_finite_and_negative_values() {
        for bad in [
            "nan", "NaN", "inf", "-inf", "-1", "1e400", "-1e400", "x", "",
        ] {
            for flag in ["--target-gb", "--reuse-mb"] {
                let err = parse(&["--demo", flag, bad]).err();
                let err = err.unwrap_or_else(|| panic!("{flag} {bad:?} must be rejected"));
                assert!(err.starts_with(&format!("bad {flag} value")), "{err}");
            }
        }
        assert!(parse(&["--demo", "--target-gb"]).is_err(), "missing value");
    }

    #[test]
    fn ec2_worker_counts_are_bounded() {
        for bad in ["0", "10001", "100000000000", "-1", "x", ""] {
            let spec = format!("ec2:{bad}");
            let err = parse(&["--demo", "--cluster", &spec]).err();
            let err = err.unwrap_or_else(|| panic!("{spec} must be rejected"));
            assert!(err.starts_with("bad ec2 worker count"), "{err}");
        }
        for good in [1, 100, 10_000] {
            let args = parse(&["--demo", "--cluster", &format!("ec2:{good}")]).unwrap();
            assert_eq!(args.cluster.nodes, good);
        }
    }

    #[test]
    fn zero_is_a_cache_size_but_not_a_data_volume() {
        assert!(parse(&["--demo", "--target-gb", "0"]).is_err());
        assert!(parse(&["--demo", "--target-gb", "-0"]).is_err());
        let args = parse(&["serve", "--demo", "--reuse-mb", "0"]).unwrap();
        assert_eq!(args.reuse_mb, Some(0.0));
    }

    #[test]
    fn a_query_is_one_positional_and_serve_takes_none() {
        let args = parse(&["--demo", "SELECT a FROM t"]).unwrap();
        assert_eq!(args.sql.as_deref(), Some("SELECT a FROM t"));
        let err = parse(&["--demo", "SELECT a FROM t", "SELECT b FROM t"]).err();
        assert!(err.unwrap().starts_with("more than one query"));
        // `serve` after a query is a second positional, not the subcommand.
        assert!(parse(&["--demo", "SELECT a FROM t", "serve"]).is_err());
        for argv in [
            &["serve", "--demo", "SELECT a FROM t"][..],
            &["serve", "SELECT a FROM t", "--demo"],
            &["serve", "serve"],
        ] {
            let err = parse(argv).err().unwrap_or_else(|| panic!("{argv:?}"));
            assert!(err.starts_with("`ysmart serve` takes no query"), "{err}");
        }
        assert!(parse(&["serve", "--demo"]).unwrap().serve);
    }

    #[test]
    fn finite_positive_sizes_parse() {
        let args = parse(&["--demo", "--target-gb", "2.5", "--reuse-mb", "64"]).unwrap();
        assert_eq!((args.target_gb, args.reuse_mb), (Some(2.5), Some(64.0)));
        assert!(parse(&["--demo", "--target-gb", "1e-9"]).is_ok());
        assert!(parse(&["--demo", "--target-gb", "1000000"]).is_ok());
        assert!(parse(&["serve", "--demo", "--reuse-mb", "1e300"]).is_ok());
    }

    #[test]
    fn target_gb_is_bounded() {
        for bad in ["1000000.5", "1e7", "1e300"] {
            let err = parse(&["--demo", "--target-gb", bad]).err();
            let err = err.unwrap_or_else(|| panic!("--target-gb {bad} must be rejected"));
            assert!(err.starts_with("bad --target-gb value"), "{err}");
            assert!(err.ends_with("<= 1e6)"), "{err}");
        }
    }
}
