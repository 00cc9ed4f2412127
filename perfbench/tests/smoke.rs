//! The benchmark's description (`BENCHMARK.json` at the repository root) and
//! its code cannot drift: the program reads its workloads and metrics from
//! that file, and here every workload runs at smoke size, timed and traced,
//! and must emit exactly what the file names.

use std::path::Path;
use std::process::Command;

use ysmart_perfbench::json::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {v}"))
}

fn keys(v: &Json) -> Vec<&str> {
    v.fields().iter().map(|(k, _)| k.as_str()).collect()
}

/// (name, unit) of every metric in one of the JSON's metric lists.
fn declared<'a>(bench: &'a Json, list: &str) -> Vec<(&'a str, &'a str)> {
    bench
        .get(list)
        .unwrap_or_else(|| panic!("`{list}` missing"))
        .as_arr()
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_has_the_contract_shape() {
    let bench = benchmark_json();
    assert_eq!(
        keys(&bench),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = bench
        .get("paths")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let command = bench.get("command").unwrap().as_arr();
    assert!(!command.is_empty() && command.len() <= 32);
    let seconds = bench.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 runs per workload, with their set-up, verification and two
    // builds, within 3420 s. A run overshoots `seconds` by at most half a
    // cycle plus the oracle (measured at 25 s: 25.2-26.4 s on average, 27.7 s
    // at most): allow 3 s a run, and 120 s for the two 27 s builds.
    let runs = 4.0 + 22.0 * bench.get("workloads").unwrap().as_arr().len() as f64;
    assert!(
        runs * (seconds + 3.0) + 120.0 <= 3420.0,
        "{runs} runs of {seconds} s do not fit"
    );

    let mut names = Vec::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for item in bench.get(list).unwrap().as_arr() {
            let name = str_of(item, "name");
            assert!(valid_name(name), "bad name {name:?}");
            assert!(!names.contains(&name), "{name} is used twice");
            names.push(name);
        }
    }
    for w in bench.get("workloads").unwrap().as_arr() {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w}");
    }
    for m in bench.get("end_to_end").unwrap().as_arr() {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!((0.0..=0.25).contains(&bound));
    }
    for m in bench.get("per_layer").unwrap().as_arr() {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for (_, unit) in declared(&bench, "end_to_end")
        .iter()
        .chain(&declared(&bench, "per_layer"))
    {
        assert!(valid_unit(unit), "bad unit {unit:?}");
    }
    let setup = bench
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is required");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// Profiles are read from the workspace root only, and this package is its
/// own workspace: its copy of the repository's release profile must stay a
/// copy, or every wall-clock number measures a build nobody ships.
#[test]
fn release_profile_equals_the_repositorys() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = release_profile(&here.join("Cargo.toml"));
    assert!(!ours.is_empty());
    assert_eq!(ours, release_profile(&here.join("../Cargo.toml")));
}

/// Runs one workload at smoke size and returns its result line, parsed.
fn smoke_run(workload: &str, traced: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ysmart-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {traced}) exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_emits_exactly_what_the_json_names() {
    let bench = benchmark_json();
    for w in bench.get("workloads").unwrap().as_arr() {
        let workload = str_of(w, "name");
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = smoke_run(workload, traced);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let emitted: Vec<(&str, &str)> = result
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{workload} {name}"
                    );
                    (name.as_str(), str_of(m, "unit"))
                })
                .collect();
            assert_eq!(emitted, declared(&bench, list), "{workload} ({list})");
            if !traced {
                for (name, m) in result.get("metrics").unwrap().fields() {
                    let value = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(
                        value > 0.0,
                        "{workload}: end-to-end metric {name} is {value}"
                    );
                }
            }
        }
    }
}
