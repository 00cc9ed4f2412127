//! Fig. 12 — the Facebook production cluster: three concurrent YSmart
//! instances and three Hive instances of Q17 over 1 TB, under production
//! contention (co-running workloads steal slots, task interference slows
//! tasks, and scheduling gaps of up to 5.4 minutes separate jobs — §VII-F).
//!
//! Paper shape: YSmart beats Hive between 230% and 310% per instance, and
//! Hive's extra jobs expose it to more scheduling delay (its JOIN2 job had
//! an unexpectedly long reduce phase).

use ysmart_core::Strategy;
use ysmart_mapred::ClusterConfig;

use crate::{print_breakdown, print_summary, tpch, FigRow, Flags, Report, Verified};

/// Three concurrent instances per system of one query over 1 TB, instance
/// `i` under contention seed `seed + i` (each sees different production
/// dynamics): the rows, and the YSmart and Hive averages.
pub(crate) fn instances(
    r: &mut Report,
    v: &Verified,
    seed: u64,
    breakdown: bool,
) -> (Vec<FigRow>, f64, f64) {
    let mut rows = Vec::new();
    for instance in 0..3u64 {
        for (sys, strategy) in [("YSmart", Strategy::YSmart), ("Hive", Strategy::Hive)] {
            let config = ClusterConfig::facebook(seed + instance);
            let label = format!("{sys} {}", instance + 1);
            let run = v.run(strategy, &config, 1000.0);
            if let (true, Ok(out)) = (breakdown, &run) {
                print_breakdown(r, &label, out);
            }
            rows.push(FigRow::of(label, run));
        }
    }
    let avg = |sys: &str| {
        let xs: Vec<f64> = rows
            .iter()
            .filter(|row| row.label.starts_with(sys))
            .filter_map(|row| row.result.as_ref().ok().copied())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let (ys, hive) = (avg("YSmart"), avg("Hive"));
    (rows, ys, hive)
}

pub(crate) fn run(_: &Flags, r: &mut Report) {
    r.line("=== Fig. 12: Q17 on the Facebook production cluster, 1 TB ===");
    // A larger real instance keeps the simulated key space rich enough for
    // the production cluster's hundreds of reduce tasks (tiny key spaces
    // would create artificial reducer skew that true 1 TB data lacks).
    let workloads = tpch(8.0);
    let (rows, ys, hive) = instances(r, &Verified::find(&workloads, "q17"), 1000, true);
    print_summary(r, "--- totals ---", &rows);
    r.line(&format!(
        "average: YSmart {:.0}s, Hive {:.0}s — Hive/YSmart = {:.2}x",
        ys,
        hive,
        hive / ys
    ));
}
