//! `--all`: every workload, timed and traced, one child process per run so
//! that `peak_rss_mb` is each workload's own.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::declared;
use crate::util::nproc;
use crate::{out_dir, result_path};

/// Runs this executable once for one workload and mode, waits for it, and
/// reads back its result file. `Err` is a run that could not measure.
fn child(
    name: &str,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    traced: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    // The child prints its metric lines to this process's stdout.
    let status = cmd.status().map_err(|e| e.to_string())?;
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!(
            "{name} (trace {}) ended with {status}",
            u8::from(traced)
        ));
    }
    let path = result_path(name, seed, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(seed: u64, seconds: Option<f64>, smoke: bool) -> ExitCode {
    let mut workloads = Vec::new();
    let mut correct = true;
    for name in declared().workloads.iter().map(|w| w.name.as_str()) {
        let runs = child(name, seed, seconds, smoke, false)
            .and_then(|timed| Ok((timed, child(name, seed, seconds, smoke, true)?)));
        let (timed, traced) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ysmart-perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        // The timed and the traced run did the same work, or nothing the
        // traced run says about layers applies to the timed run's numbers.
        if timed.get("exact") != traced.get("exact") {
            eprintln!(
                "ysmart-perfbench: exactness self-check failed on {name}: timed {} vs traced {}",
                timed.get("exact").unwrap_or(&Json::Null),
                traced.get("exact").unwrap_or(&Json::Null),
            );
            return ExitCode::from(2);
        }
        let count = |key: &str| {
            let sum = [&timed, &traced]
                .iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum();
            Json::Num(sum)
        };
        let ok = [&timed, &traced]
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        correct &= ok;
        workloads.push((
            name,
            Json::obj([
                ("correct", Json::Bool(ok)),
                ("attempted", count("attempted")),
                ("failed", count("failed")),
                (
                    "end_to_end",
                    timed.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("exact", timed.get("exact").cloned().unwrap_or(Json::Null)),
            ]),
        ));
    }
    let file = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Num(nproc() as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir().join(format!("all-seed{seed}.json"));
    if let Err(e) = std::fs::write(&path, format!("{file}\n")) {
        eprintln!("ysmart-perfbench: {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("# all workloads -> {}", path.display());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
