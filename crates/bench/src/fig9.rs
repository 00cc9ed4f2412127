//! Fig. 9 — breakdown of job finishing times for the Q21 "Left Outer
//! Join 1" subtree on the small local cluster with 10 GB TPC-H data
//! (§VII-C).
//!
//! Four configurations, as in the paper:
//! 1. one-operation-to-one-job (5 jobs),
//! 2. input + transit correlation only (3 jobs),
//! 3. all correlations — YSmart (1 job),
//! 4. hand-coded program (1 job with short-circuiting).
//!
//! Paper numbers for orientation: 1140 s / 773 s / 561 s / 479 s.

use ysmart_core::Strategy;
use ysmart_mapred::ClusterConfig;

use crate::{print_breakdown, print_summary, tpch, FigRow, Flags, Report, Verified};

pub(crate) fn run(_: &Flags, r: &mut Report) {
    let workloads = tpch(1.0);
    let v = Verified::find(&workloads, "q21-subtree");
    let config = ClusterConfig::small_local();
    let target_gb = 10.0;

    r.line("=== Fig. 9: Q21 subtree, small local cluster, 10 GB TPC-H ===");
    let cases = [
        ("1-op-1-job", Strategy::Hive),
        ("IC+TC only", Strategy::YSmartNoJfc),
        ("YSmart (all)", Strategy::YSmart),
        ("hand-coded", Strategy::HandCoded),
    ];
    let mut rows = Vec::new();
    for (label, strategy) in cases {
        let run = v.run(strategy, &config, target_gb);
        if let Ok(out) = &run {
            print_breakdown(r, &format!("{label} ({} jobs)", out.jobs), out);
        }
        rows.push(FigRow::of(label, run));
    }
    print_summary(r, "--- totals ---", &rows);
}
