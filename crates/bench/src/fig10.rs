//! Fig. 10 — small local cluster: YSmart vs Hive vs Pig vs the ideal
//! parallel PostgreSQL on Q17/Q18/Q21 (10 GB TPC-H) and Q-CSA (20 GB
//! clicks), with per-job breakdowns (§VII-D).
//!
//! Paper shape: YSmart beats Hive by 258%/190%/252%/266%; Pig trails Hive
//! and cannot finish Q-CSA (intermediate results exceed the test disk);
//! the DBMS wins the DSS queries but not the click-stream query.
//!
//! Flags:
//!
//! * `--trace [path]` — record structured execution traces for every run
//!   and write one merged Chrome-trace JSON (default `<DIR>/fig10_trace.json`
//!   under `--out DIR`, else `results/fig10_trace.json`), loadable in
//!   Perfetto / `chrome://tracing`.
//! * `--smoke` — a seconds-long subset (Q17 only, tiny scale) for CI.
//! * `--format text|columnar` — storage/shuffle format (default text).

use ysmart_core::Strategy;
use ysmart_mapred::{validate_chrome_trace, ClusterConfig, Trace};

use crate::{
    clicks, format_name, print_breakdown, print_summary, tpch, FigRow, Flags, Report, Verified,
};

fn run_query(
    r: &mut Report,
    v: &Verified,
    config: &ClusterConfig,
    target_gb: f64,
    master: &mut Option<Trace>,
) {
    let name = v.w.name;
    r.line(&format!("-- {name} ({target_gb} GB) --"));
    let mut rows = Vec::new();
    for (label, strategy) in [
        ("YSmart", Strategy::YSmart),
        ("Hive", Strategy::Hive),
        ("Pig", Strategy::Pig),
    ] {
        let run = v.run_traced(strategy, config, target_gb, master.is_some());
        let run = run.map(|(out, trace)| {
            print_breakdown(r, &format!("{label} ({} jobs)", out.jobs), &out);
            if let (Some(master), Some(trace)) = (master.as_mut(), trace) {
                // The trace's extent must reconcile with the metrics it
                // summarises — a drifting exporter is worse than none.
                let total = out.total_s();
                let drift = (trace.max_end_s() - total).abs();
                assert!(
                    drift <= 1e-6 * total.max(1.0),
                    "{name} {label}: trace extent {:.6}s vs metrics total {total:.6}s",
                    trace.max_end_s(),
                );
                master.absorb(&format!("{name}-{label}"), trace);
            }
            out
        });
        rows.push(FigRow::of(label, run));
    }
    rows.push(FigRow {
        label: "pgsql (ideal)".into(),
        result: Ok(v.pgsql_seconds(target_gb)),
    });
    print_summary(r, "  totals:", &rows);
}

fn write_trace(r: &mut Report, master: &Trace, path: &str) {
    let json = master.to_chrome_json();
    // Self-check before writing: the exporter's output must parse as
    // Chrome-trace JSON and contain both phases' spans.
    let stats = validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("exported trace is not valid Chrome-trace JSON: {e}"));
    assert!(
        stats.span_cats.get("map").copied().unwrap_or(0) >= 1,
        "trace has no map spans"
    );
    assert!(
        stats.span_cats.get("reduce").copied().unwrap_or(0) >= 1,
        "trace has no reduce spans"
    );
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create trace output directory");
        }
    }
    std::fs::write(path, &json).expect("write trace file");
    r.line(&format!(
        "trace: {} events ({} spans) across {} processes -> {path}",
        stats.events, stats.spans, stats.processes
    ));
    r.line("       open in Perfetto (ui.perfetto.dev) or chrome://tracing");
}

pub(crate) fn run(flags: &Flags, r: &mut Report) {
    r.line(&format!(
        "=== Fig. 10: small local cluster ({} format) ===",
        format_name(flags.format)
    ));
    let mut config = ClusterConfig::small_local();
    config.data_format = flags.format;
    let mut master = flags.trace.as_ref().map(|_| Trace::new());

    if flags.smoke {
        // CI-sized subset: one query at a tiny scale exercises the whole
        // pipeline (and the tracing path) in seconds.
        let workloads = tpch(0.05);
        run_query(
            r,
            &Verified::find(&workloads, "q17"),
            &config,
            0.1,
            &mut master,
        );
    } else {
        let workloads = tpch(1.0);
        for name in ["q17", "q18", "q21"] {
            run_query(
                r,
                &Verified::find(&workloads, name),
                &config,
                10.0,
                &mut master,
            );
        }

        // Q-CSA on 20 GB; the local node's 450 GB disk is the paper's limit
        // that Pig's bulkier intermediates overflow.
        let workloads = clicks(120, 40);
        let mut csa_config = config.clone();
        csa_config.disk_capacity_mb = 65_000.0; // headroom Hive fits in, Pig does not
        run_query(
            r,
            &Verified::find(&workloads, "q-csa"),
            &csa_config,
            20.0,
            &mut master,
        );
    }

    if let (Some(master), Some(path)) = (&master, &flags.trace) {
        write_trace(r, master, path);
    }
}
