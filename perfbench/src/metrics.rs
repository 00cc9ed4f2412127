//! What the benchmark declares — workloads, metrics, units, directions,
//! bounds, run length — read from `BENCHMARK.json` at the repository root,
//! which is compiled into the program. That file is the only place these
//! are written down; a run that measures a name it does not declare, or
//! fails to measure one it does, is an error.

use std::sync::OnceLock;

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
}

/// An end-to-end metric and how much worse — as a share of the baseline —
/// it may get before that counts as a regression.
#[derive(Debug)]
pub struct Bounded {
    pub metric: Metric,
    pub bound: f64,
}

#[derive(Debug)]
pub struct Workload {
    pub name: String,
    /// Why the workload exists, in one line.
    pub why: String,
}

#[derive(Debug)]
pub struct Declared {
    /// How long a run measures when `--seconds` is not given.
    pub run_seconds: f64,
    pub workloads: Vec<Workload>,
    /// Measured with tracing off. Every workload reports every one of them,
    /// and none is ever 0.
    pub end_to_end: Vec<Bounded>,
    /// Measured in the traced run; layer = the part of the name before the
    /// first dot. A metric that does not apply to a workload reads 0 there.
    pub per_layer: Vec<Metric>,
}

fn text<'a>(item: &'a Json, key: &str) -> Result<&'a str, String> {
    item.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("`{key}` missing in {item}"))
}

fn number(item: &Json, key: &str) -> Result<f64, String> {
    item.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("`{key}` missing in {item}"))
}

fn metric(item: &Json) -> Result<Metric, String> {
    let lower_is_better = match text(item, "better")? {
        "lower" => true,
        "higher" => false,
        other => return Err(format!("`better` is `{other}` in {item}")),
    };
    Ok(Metric {
        name: text(item, "name")?.to_string(),
        unit: text(item, "unit")?.to_string(),
        lower_is_better,
    })
}

impl Declared {
    pub fn parse(json: &str) -> Result<Declared, String> {
        let file = Json::parse(json)?;
        let list = |key: &str| file.get(key).map(Json::as_arr).unwrap_or_default().iter();
        Ok(Declared {
            run_seconds: number(&file, "run_seconds")?,
            workloads: list("workloads")
                .map(|w| {
                    Ok(Workload {
                        name: text(w, "name")?.to_string(),
                        why: text(w, "why")?.to_string(),
                    })
                })
                .collect::<Result<_, String>>()?,
            end_to_end: list("end_to_end")
                .map(|m| {
                    Ok(Bounded {
                        metric: metric(m)?,
                        bound: number(m, "bound")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer").map(metric).collect::<Result<_, _>>()?,
        })
    }

    pub fn per_layer(&self, name: &str) -> Option<&Metric> {
        self.per_layer.iter().find(|m| m.name == name)
    }
}

/// The declarations of the `BENCHMARK.json` this program was built with.
///
/// # Panics
///
/// If that file is not what `Declared::parse` reads — a build-time input
/// gone wrong, which `tests/smoke.rs` catches.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        Declared::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_section() {
        let d = Declared::parse(
            r#"{"run_seconds": 3,
                "workloads": [{"name": "w", "why": "because"}],
                "end_to_end": [{"name": "t_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "l.n", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(d.run_seconds, 3.0);
        assert_eq!(d.workloads[0].why, "because");
        let t = &d.end_to_end[0];
        assert!(t.metric.name == "t_s" && t.metric.lower_is_better && t.bound == 0.1);
        assert!(!d.per_layer("l.n").unwrap().lower_is_better);
        assert!(d.per_layer("t_s").is_none());
    }

    #[test]
    fn rejects_a_metric_without_direction() {
        let bad = r#"{"run_seconds": 3, "per_layer": [{"name": "x", "unit": "s"}]}"#;
        assert!(Declared::parse(bad).is_err());
    }
}
