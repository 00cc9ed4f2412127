//! Every figure's `--smoke` mode, in-process, through the same `run` the
//! binary calls — so the sweeps' internal assertions (oracle match on every
//! run, bit-identity under recovery and reuse, the hit-rate floor, the
//! YSmart-below-Hive integrity overhead) hold under `cargo test` — and the
//! command-line contract.

use ysmart_bench::{parse, run, UsageError, FIGURES};

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_string()).collect()
}

fn smoke(figure: &str, extra: &[&str]) -> String {
    let mut args = vec![figure, "--smoke"];
    args.extend(extra);
    let report = run(argv(&args)).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    report.text().to_string()
}

#[test]
fn every_figure_is_smoke_tested_or_golden_only() {
    // A new figure with a smoke mode must get a test below.
    let with_smoke: Vec<&str> = FIGURES
        .iter()
        .filter(|f| f.accepts.contains(&"--smoke"))
        .map(|f| f.name)
        .collect();
    assert_eq!(
        with_smoke,
        [
            "fig10",
            "faults",
            "corruption",
            "workload",
            "recovery",
            "reuse"
        ]
    );
}

#[test]
fn registry_is_the_committed_results() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut stems: Vec<String> = std::fs::read_dir(dir)
        .expect("results/")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter_map(|f| f.strip_suffix(".txt").map(str::to_string))
        .collect();
    stems.sort();
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.sort_unstable();
    assert_eq!(names, stems, "scripts/golden.sh runs `results/*.txt` stems");
}

#[test]
fn jobcounts_full_run() {
    let report = run(argv(&["jobcounts"])).unwrap();
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/jobcounts.txt");
    assert_eq!(report.text(), std::fs::read_to_string(golden).unwrap());
}

#[test]
fn fig10_smoke_in_both_formats_with_trace() {
    let text = smoke("fig10", &[]);
    assert!(text.starts_with("=== Fig. 10: small local cluster (text format) ==="));
    assert!(text.contains("YSmart (2 jobs)") && text.contains("pgsql (ideal)"));

    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/fig10_smoke_trace.json");
    let _ = std::fs::remove_file(trace);
    let columnar = smoke("fig10", &["--format", "columnar", "--trace", trace]);
    assert!(columnar.contains("(columnar format)"));
    // `--trace` validated the export (parses, has map and reduce spans,
    // extent reconciles with the metrics) before writing it.
    assert!(columnar.contains("trace: ") && std::fs::metadata(trace).unwrap().len() > 0);
}

#[test]
fn faults_smoke() {
    assert!(smoke("faults", &[]).contains("--- Hive (6 jobs) ---"));
}

/// The slowest: 1 s in release, 4 s in debug.
#[test]
fn corruption_smoke() {
    assert!(smoke("corruption", &[]).contains("=== storage format: columnar ==="));
}

#[test]
fn workload_smoke() {
    assert!(smoke("workload", &[]).contains("hit-rate"));
}

#[test]
fn recovery_smoke() {
    let text = smoke("recovery", &[]);
    assert!(text.contains("kill points recovered bit-identically"));
    assert!(text.contains("typed JournalCorrupt") && text.contains("torn tail:"));
}

#[test]
fn reuse_smoke_writes_its_report_only_under_out() {
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/reuse_smoke_out");
    let _ = std::fs::remove_dir_all(dir);
    let text = smoke("reuse", &["--out", dir]);
    assert!(text.contains("capacity 0 reproduced the"));
    assert_eq!(
        std::fs::read_to_string(format!("{dir}/reuse.txt")).unwrap(),
        text
    );
    let json = std::fs::read_to_string(format!("{dir}/reuse.json")).unwrap();
    assert!(json.starts_with("{\"figure\":\"reuse\"") && !json.contains("wall"));
}

#[test]
fn bad_command_lines_are_usage_errors_not_panics() {
    let err = |args: &[&str]| match parse(argv(args)) {
        Err(UsageError(msg)) => msg,
        Ok(_) => panic!("{args:?} must be rejected"),
    };
    assert_eq!(err(&[]), "no figure named");
    assert_eq!(err(&["fig99"]), "unknown figure `fig99`");
    assert_eq!(err(&["bench", "--smoke"]), "unknown figure `bench`");
    assert_eq!(err(&["faults", "--bogus"]), "`faults` takes no `--bogus`");
    // Figures without a smoke mode must not silently run the full sweep.
    assert_eq!(err(&["fig11", "--smoke"]), "`fig11` takes no `--smoke`");
    assert_eq!(
        err(&["faults", "--format", "text"]),
        "`faults` takes no `--format`"
    );
    assert!(err(&["fig10", "--format", "bogus"]).starts_with("--format expects"));
    assert!(err(&["fig10", "--format"]).starts_with("--format expects"));
    assert_eq!(err(&["fig2", "--out"]), "--out needs a directory");
    assert_eq!(err(&["fig10", "extra"]), "`fig10` takes no `extra`");
    // `run` rejects before running anything, and the message names the figures.
    let usage = run(argv(&["fig11", "--smoke"])).unwrap_err().to_string();
    assert!(usage.contains("usage: ysmart-bench") && usage.contains("corruption"));
}

#[test]
fn flags_parse_once_for_every_figure() {
    let (fig, flags) = parse(argv(&["fig10", "--trace", "--smoke", "--out", "d"])).unwrap();
    assert_eq!(fig.name, "fig10");
    assert!(flags.smoke);
    assert_eq!(flags.trace.as_deref(), Some("d/fig10_trace.json"));
    assert_eq!(flags.out.as_deref(), Some(std::path::Path::new("d")));
    let (_, flags) = parse(argv(&[
        "fig10", "--trace", "t.json", "--format", "columnar",
    ]))
    .unwrap();
    assert_eq!(flags.trace.as_deref(), Some("t.json"));
    assert_eq!(flags.format, ysmart_mapred::DataFormat::Columnar);
    assert_eq!(
        parse(argv(&["fig13"])).unwrap().1,
        ysmart_bench::Flags::default()
    );
}

#[test]
fn a_default_trace_goes_where_the_report_goes() {
    let trace = |args: &[&str]| parse(argv(args)).unwrap().1.trace;
    // `--out` before or after `--trace`, or none.
    for args in [
        &["fig10", "--out", "o", "--trace"][..],
        &["fig10", "--trace", "--out", "o"],
    ] {
        assert_eq!(
            trace(args).as_deref(),
            Some("o/fig10_trace.json"),
            "{args:?}"
        );
    }
    assert_eq!(
        trace(&["fig10", "--trace"]).as_deref(),
        Some("results/fig10_trace.json")
    );
    // A given PATH wins, and no `--trace` writes no trace.
    let given = trace(&["fig10", "--out", "o", "--trace", "t.json"]);
    assert_eq!(given.as_deref(), Some("t.json"));
    assert_eq!(trace(&["fig10", "--out", "o"]), None);
}
