//! Ablations of the design choices DESIGN.md calls out, measured in
//! simulated cluster seconds on the Q21 subtree and Q-CSA (the two queries
//! the paper studies in depth):
//!
//! * Rule 1 only vs Rules 1–4 (already Fig. 9's subject; included for
//!   completeness);
//! * shared scan on/off with merging otherwise identical;
//! * map-side combiner on/off;
//! * reduce-side short-circuiting on/off;
//! * Pig-style value padding.
//!
//! Each configuration is verified against the oracle before its time is
//! reported.

use ysmart_core::{compile, CoreError, TranslateOptions};
use ysmart_mapred::ClusterConfig;
use ysmart_plan::analyze;

use crate::{clicks, tpch, Flags, Report, Verified};

fn run_with_options(
    v: &Verified,
    opts: &TranslateOptions,
    target_gb: f64,
) -> Result<(usize, f64), CoreError> {
    let mut engine = v.engine(ClusterConfig::small_local(), target_gb)?;
    let plan = engine.plan(&v.w.sql)?;
    let translation = compile(&plan, &analyze(&plan), opts, &format!("abl-{}", v.w.name))?;
    let out = engine.execute_translation(&translation)?;
    v.check(&out.rows, &"ablation");
    Ok((out.jobs, out.total_s()))
}

pub(crate) fn run(_: &Flags, r: &mut Report) {
    let base = TranslateOptions {
        merge_ic_tc: true,
        merge_jfc: true,
        shared_scan: true,
        combiner: true,
        short_circuit: false,
        value_pad_bytes: 0,
    };
    let cases: Vec<(&str, TranslateOptions)> = vec![
        ("ysmart (baseline)", base),
        (
            "no rule 2-4 (JFC)",
            TranslateOptions {
                merge_jfc: false,
                ..base
            },
        ),
        (
            "no rule 1 (IC/TC)",
            TranslateOptions {
                merge_ic_tc: false,
                merge_jfc: false,
                ..base
            },
        ),
        (
            "no shared scan",
            TranslateOptions {
                shared_scan: false,
                merge_ic_tc: false,
                merge_jfc: false,
                ..base
            },
        ),
        (
            "no combiner",
            TranslateOptions {
                combiner: false,
                ..base
            },
        ),
        (
            "short-circuit on",
            TranslateOptions {
                short_circuit: true,
                ..base
            },
        ),
        (
            "pig-style padding",
            TranslateOptions {
                value_pad_bytes: 24,
                ..base
            },
        ),
    ];

    let (tpch, clicks) = (tpch(1.0), clicks(120, 40));
    let targets = [
        (Verified::find(&tpch, "q21-subtree"), 10.0),
        (Verified::find(&clicks, "q-csa"), 20.0),
    ];

    r.line("=== Ablations (simulated seconds, small local cluster) ===");
    for (v, gb) in &targets {
        r.line(&format!("-- {} ({gb} GB) --", v.w.name));
        for (label, opts) in &cases {
            match run_with_options(v, opts, *gb) {
                Ok((jobs, secs)) => r.line(&format!("  {label:<20} {jobs:>2} jobs {secs:>9.1}s")),
                Err(e) => r.line(&format!("  {label:<20} DNF ({e})")),
            }
        }
    }
}
