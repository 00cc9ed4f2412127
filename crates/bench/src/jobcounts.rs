//! §VII-A job counts: how many MapReduce jobs each system generates for
//! each evaluation query — the quantity YSmart minimises.
//!
//! Paper values: Q17 Hive 4 / YSmart 2; Q-CSA Hive 6 / YSmart 2; Q21
//! subtree 5 / 3 (IC+TC only) / 1.

use ysmart_core::{Strategy, YSmart};
use ysmart_datagen::{ClicksSpec, TpchSpec};
use ysmart_mapred::ClusterConfig;
use ysmart_queries::{clicks_workloads, tpch_workloads, Workload};

use crate::{Flags, Report};

fn counts(r: &mut Report, w: &Workload) {
    let mut line = format!("{:<12}", w.name);
    let mut engine = YSmart::new(w.catalog.clone(), ClusterConfig::default());
    w.load_into(&mut engine)
        .unwrap_or_else(|e| panic!("{}: loading tables failed: {e}", w.name));
    for strategy in Strategy::all() {
        let t = engine
            .translate(&w.sql, strategy)
            .unwrap_or_else(|e| panic!("{}: {strategy} translation failed: {e}", w.name));
        line += &format!(" {:>14}", format!("{strategy}: {}", t.job_count()));
    }
    r.line(&line);
}

pub(crate) fn run(_: &Flags, r: &mut Report) {
    r.line("=== Job counts per translation strategy (§VII-A) ===");
    for w in tpch_workloads(&TpchSpec {
        scale: 0.05,
        seed: 1,
    }) {
        counts(r, &w);
    }
    for w in clicks_workloads(&ClicksSpec {
        users: 8,
        clicks_per_user: 12,
        seed: 1,
        ..ClicksSpec::default()
    }) {
        counts(r, &w);
    }
}
