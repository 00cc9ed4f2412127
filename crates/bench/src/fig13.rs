//! Fig. 13 — Q18 and Q21 on the Facebook production cluster: average of
//! three concurrent instances per system over 1 TB (§VII-F).
//!
//! Paper shape: average speedups of YSmart over Hive around 298% (Q18) and
//! 336% (Q21) — *larger* than on isolated clusters, because scheduling
//! gaps multiply with job count.

use crate::{fig12::instances, print_summary, tpch, Flags, Report, Verified};

pub(crate) fn run(_: &Flags, r: &mut Report) {
    r.line("=== Fig. 13: Q18/Q21 on the Facebook production cluster, 1 TB ===");
    // Scale 8 for the same reason as Fig. 12: a key space rich enough for
    // hundreds of reduce tasks.
    let workloads = tpch(8.0);
    for name in ["q18", "q21"] {
        let (rows, ys, hive) = instances(r, &Verified::find(&workloads, name), 2000, false);
        print_summary(r, &format!("{name}:"), &rows);
        r.line(&format!(
            "  {name} averages: YSmart {ys:.0}s, Hive {hive:.0}s — Hive/YSmart = {:.2}x",
            hive / ys
        ));
    }
}
