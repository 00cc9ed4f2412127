//! `--compare A.json B.json`: two `--all` result files, metric by metric,
//! against the bounds `BENCHMARK.json` fixes.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{declared, Metric};

/// Per-layer metrics `--compare` holds to a bound all the same. They are
/// what users of a service see — wrong answers, the paper's clock, journal
/// size, time to recover — but `BENCHMARK.json` can list as end-to-end only
/// what every workload reports and what is never 0, and these are 0 when all
/// is well or exist on `serve_*` alone. A pair that reads 0 on both sides
/// (the metric does not apply, or nothing failed) passes.
const ALSO_GATED: [(&str, f64); 4] = [
    ("run.failed_share", 0.0),
    ("mapred.sim_s_total", 0.0),
    ("journal.file_mb", 0.0),
    ("serve.recovery_s", 0.25),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
        }
    }
}

/// `b` against base `a`: worse (better) when it moved in the bad (good)
/// direction by more than `bound` of `a`; a bound of 0 means any move.
pub fn verdict(metric: &Metric, bound: f64, a: f64, b: f64) -> Verdict {
    if a == b {
        return Verdict::Within;
    }
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    let worsening = if metric.lower_is_better {
        change
    } else {
        -change
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match load(a_path).and_then(|a| Ok((a, load(b_path)?))) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("ysmart-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let end_to_end = declared()
        .end_to_end
        .iter()
        .map(|b| ("end_to_end", &b.metric, b.bound));
    let also_gated = ALSO_GATED.iter().map(|(name, bound)| {
        let metric = declared()
            .per_layer(name)
            .unwrap_or_else(|| panic!("BENCHMARK.json does not declare `{name}`"));
        ("per_layer", metric, *bound)
    });
    // With different seeds the inputs differ, and only `jobs_total` is built
    // to be the same for every seed; the other exact metrics say nothing.
    let same_seed = a.get("seed") == b.get("seed");
    let gated: Vec<(&str, &Metric, f64)> = end_to_end
        .chain(also_gated.filter(|(_, _, bound)| same_seed || *bound > 0.0))
        .collect();

    println!("# A = {a_path}\n# B = {b_path}");
    println!("# workload metric A B B/A bound verdict");
    let mut worse = 0;
    for workload in &declared().workloads {
        let name = &workload.name;
        let side = |file: &Json| file.get("workloads")?.get(name).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{name} missing from one side");
            worse += 1;
            continue;
        };
        for (section, metric, bound) in &gated {
            let value = |w: &Json| w.get(section)?.get(&metric.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(&wa), value(&wb)) else {
                println!("{name} {} missing from one side", metric.name);
                worse += 1;
                continue;
            };
            let v = verdict(metric, *bound, va, vb);
            worse += usize::from(v == Verdict::Worse);
            let ratio = if va == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", vb / va)
            };
            println!(
                "{name} {} {va} {vb} {ratio} (base A) {}% {}",
                metric.name,
                bound * 100.0,
                v.word(),
            );
        }
        // Jobs, simulated seconds, journal bytes and cache counters: with
        // one seed they are bit-equal or something changed.
        if same_seed {
            let same = wa.get("exact") == wb.get("exact");
            worse += usize::from(!same);
            println!(
                "{name} exact {}",
                if same { "equal" } else { "DIFFERENT (worse)" }
            );
        }
    }
    if worse == 0 {
        println!("# no metric is worse than its bound allows");
        ExitCode::SUCCESS
    } else {
        println!("# {worse} metric(s) worse");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better,
        }
    }

    #[test]
    fn lower_is_better_within_and_beyond_the_bound() {
        let m = metric(true);
        assert_eq!(verdict(&m, 0.25, 100.0, 124.0), Verdict::Within);
        assert_eq!(verdict(&m, 0.25, 100.0, 126.0), Verdict::Worse);
        assert_eq!(verdict(&m, 0.25, 100.0, 70.0), Verdict::Better);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = metric(false);
        assert_eq!(verdict(&m, 0.25, 100.0, 70.0), Verdict::Worse);
        assert_eq!(verdict(&m, 0.25, 100.0, 130.0), Verdict::Better);
    }

    #[test]
    fn a_zero_bound_catches_any_move_and_passes_none() {
        let m = metric(true);
        assert_eq!(verdict(&m, 0.0, 13.0, 13.0), Verdict::Within);
        assert_eq!(verdict(&m, 0.0, 13.0, 14.0), Verdict::Worse);
        assert_eq!(verdict(&m, 0.0, 13.0, 12.0), Verdict::Better);
        // Not applicable, or nothing failed, on both sides.
        assert_eq!(verdict(&m, 0.0, 0.0, 0.0), Verdict::Within);
        assert_eq!(verdict(&m, 0.0, 0.0, 0.001), Verdict::Worse);
    }

    #[test]
    fn the_also_gated_metrics_are_declared() {
        for (name, _) in ALSO_GATED {
            assert!(declared().per_layer(name).is_some(), "{name}");
        }
    }
}
