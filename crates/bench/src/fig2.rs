//! Fig. 2(b) — the motivating performance gap: Hive vs a hand-coded
//! MapReduce program on the simple aggregation Q-AGG (comparable times,
//! thanks to Hive's map-side hash aggregation) and on the click-stream
//! sessionization query Q-CSA (hand-coded ≈ 3× faster).

use ysmart_core::Strategy;
use ysmart_mapred::ClusterConfig;

use crate::{clicks, FigRow, Flags, Report, Verified};

pub(crate) fn run(_: &Flags, r: &mut Report) {
    let workloads = clicks(120, 40);
    let config = ClusterConfig::small_local();
    let target_gb = 20.0;

    r.line("=== Fig. 2(b): Hive vs hand-coded, 20 GB click stream ===");
    for w in &workloads {
        r.line(&format!("-- {} --", w.name));
        let v = Verified::new(w);
        let rows = [
            ("Hive", Strategy::Hive),
            ("hand-coded", Strategy::HandCoded),
        ]
        .map(|(label, strategy)| FigRow::of(label, v.run(strategy, &config, target_gb)));
        let ratio = match (&rows[0].result, &rows[1].result) {
            (Ok(h), Ok(c)) => format!("  (Hive / hand-coded = {:.2}x)", h / c),
            _ => String::new(),
        };
        for row in &rows {
            match &row.result {
                Ok(s) => r.line(&format!("  {:<12} {:>8.1}s", row.label, s)),
                Err(e) => r.line(&format!("  {:<12} DNF ({e})", row.label)),
            }
        }
        r.line(&ratio);
    }
}
