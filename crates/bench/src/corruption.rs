//! Data-integrity figure — the cost of checksums and corruption recovery,
//! YSmart vs Hive.
//!
//! Not a figure from the paper: the paper's §VII assumes intact bytes. This
//! harness flips actual bits — HDFS block replicas, shuffle segments in
//! flight, torn input records — at swept rates and measures what each
//! translation strategy pays to detect and recover. The mechanism favouring
//! YSmart is the same one behind every paper figure: fewer jobs means fewer
//! bytes checksummed, fewer blocks and segments exposed to corruption, and
//! fewer chances for a job-level retry.
//!
//! Every run is verified against the relational oracle — corruption may
//! change simulated time, never a result row, because only checksum-clean
//! canonical bytes ever reach the computation. The report has a JSON form.
//! Pass `--smoke` for a CI-sized sweep.

use ysmart_core::{FaultOptions, Strategy};
use ysmart_mapred::{ClusterConfig, DataFormat};

use crate::{clicks, fmt_secs, format_name, tpch, Flags, Report, Verified};

const RATES: [f64; 3] = [0.0, 1e-4, 1e-3];
const SMOKE_RATES: [f64; 2] = [0.0, 1e-3];
const SEEDS: u64 = 3;
const TARGET_GB: f64 = 10.0;

/// Accumulated measurements for one (system, rate) cell of the sweep.
#[derive(Default, Clone)]
struct Cell {
    runs: u64,
    total_s: f64,
    overhead_s: f64,
    verify_s: f64,
    corrupt_blocks: u64,
    refetched_segments: u64,
    skipped_records: u64,
    blacklisted_nodes: u64,
    retries: u64,
}

impl Cell {
    fn events(&self) -> u64 {
        self.corrupt_blocks + self.refetched_segments + self.skipped_records
    }
}

/// Small HDFS blocks so the workloads' real data spans enough blocks and
/// shuffle segments for per-block/per-segment corruption draws to matter.
fn cluster(format: DataFormat) -> ClusterConfig {
    ClusterConfig {
        hdfs_block_mb: 0.01,
        data_format: format,
        ..ClusterConfig::ec2(10)
    }
}

fn json_cell(rate: f64, c: &Cell) -> String {
    let n = c.runs.max(1) as f64;
    format!(
        concat!(
            "{{\"rate\":{},\"avg_total_s\":{:.3},\"avg_overhead_s\":{:.3},",
            "\"avg_verify_s\":{:.3},\"corrupt_blocks\":{},\"refetched_segments\":{},",
            "\"skipped_records\":{},\"blacklisted_nodes\":{},\"retries\":{}}}"
        ),
        rate,
        c.total_s / n,
        c.overhead_s / n,
        c.verify_s / n,
        c.corrupt_blocks,
        c.refetched_segments,
        c.skipped_records,
        c.blacklisted_nodes,
        c.retries,
    )
}

pub(crate) fn run(flags: &Flags, r: &mut Report) {
    let (rates, seeds, target_gb): (&[f64], u64, f64) = if flags.smoke {
        (&SMOKE_RATES, 1, 1.0)
    } else {
        (&RATES, SEEDS, TARGET_GB)
    };

    r.line("=== Integrity tax and corruption recovery (not in the paper) ===");
    r.line(&format!(
        "fig-10 queries, {target_gb} GB each, 11-node EC2 cluster; {seeds} seeds per rate"
    ));
    r.line("overhead = avg total vs the same system with integrity checking off");

    let mut all = tpch(1.0);
    all.extend(clicks(60, 30));
    let names: &[&str] = if flags.smoke {
        &["q17", "q18"]
    } else {
        &["q17", "q18", "q21", "q-csa"]
    };
    let workloads: Vec<Verified> = names.iter().map(|n| Verified::find(&all, n)).collect();

    let systems = [("ysmart", Strategy::YSmart), ("hive", Strategy::Hive)];
    let mut json_formats = Vec::new();

    // The whole sweep runs once per storage format: recovery must be
    // format-independent (every run is oracle-verified either way), and the
    // YSmart-vs-Hive integrity-overhead ordering must hold in both.
    for format in [DataFormat::Text, DataFormat::Columnar] {
        r.line(&format!("=== storage format: {} ===", format_name(format)));
        let mut json_systems = Vec::new();
        // Max-rate average overhead per system, for the headline comparison.
        let mut max_rate_overhead = Vec::new();

        for (sys, strategy) in systems {
            r.line(&format!("--- {sys} ---"));
            r.line("  rate        total    overhead   verify   blocks  segs  records  blisted  retries");

            // Healthy baseline: no corruption model at all, so no checksum pass
            // is charged. The delta against it prices the whole integrity
            // layer: verification plus recovery.
            let mut healthy = Vec::new();
            for v in &workloads {
                let out = v
                    .run(strategy, &cluster(format), target_gb)
                    .expect("healthy run");
                healthy.push(out.total_s());
            }

            let mut cells = Vec::new();
            for &rate in rates {
                let mut cell = Cell::default();
                for (wi, v) in workloads.iter().enumerate() {
                    for seed in 0..seeds {
                        let mut config = cluster(format);
                        FaultOptions::corrupted(rate, seed ^ (wi as u64) << 8).apply(&mut config);
                        let out = v
                            .run(strategy, &config, target_gb)
                            .expect("oracle-verified corrupted run");
                        cell.runs += 1;
                        cell.total_s += out.total_s();
                        cell.overhead_s += out.total_s() - healthy[wi];
                        cell.verify_s += out.metrics.total_verify_s();
                        for j in &out.metrics.jobs {
                            cell.corrupt_blocks += j.corrupt_blocks_detected;
                            cell.refetched_segments += j.refetched_segments;
                            cell.skipped_records += j.skipped_records;
                            cell.blacklisted_nodes += j.blacklisted_nodes as u64;
                        }
                        cell.retries += out.metrics.retries as u64;
                    }
                }
                let n = cell.runs as f64;
                r.line(&format!(
                    "  {:<9}{}  {}  {}  {:>6}  {:>4}  {:>7}  {:>7}  {:>7}",
                    rate,
                    fmt_secs(cell.total_s / n),
                    fmt_secs(cell.overhead_s / n),
                    fmt_secs(cell.verify_s / n),
                    cell.corrupt_blocks,
                    cell.refetched_segments,
                    cell.skipped_records,
                    cell.blacklisted_nodes,
                    cell.retries
                ));
                if rate > 0.0 {
                    assert!(
                        cell.events() > 0,
                        "{sys}: rate {rate} must trigger integrity events across the sweep"
                    );
                }
                cells.push((rate, cell));
            }

            let last = cells.last().expect("at least one rate");
            max_rate_overhead.push((sys, last.1.overhead_s / last.1.runs as f64));
            let rows: Vec<String> = cells.iter().map(|(rate, c)| json_cell(*rate, c)).collect();
            json_systems.push(format!(
                "{{\"system\":\"{sys}\",\"rates\":[{}]}}",
                rows.join(",")
            ));
        }

        let (ys, hv) = (max_rate_overhead[0].1, max_rate_overhead[1].1);
        r.line("");
        r.line(&format!(
            "At the highest rate, integrity overhead: YSmart {} vs Hive {} — fewer",
            fmt_secs(ys),
            fmt_secs(hv)
        ));
        r.line("jobs mean fewer bytes checksummed and fewer corruption exposures.");
        assert!(
            ys < hv,
            "{}: YSmart must pay less integrity overhead than Hive ({ys:.1}s vs {hv:.1}s)",
            format_name(format)
        );
        json_formats.push(format!(
            "{{\"format\":\"{}\",\"systems\":[{}]}}",
            format_name(format),
            json_systems.join(",")
        ));
    } // format sweep

    r.line("");
    r.line("All runs verified against the relational oracle, in both storage");
    r.line("formats: corruption changed simulated time only, never a result row.");

    let query_names: Vec<String> = workloads
        .iter()
        .map(|v| format!("\"{}\"", v.w.name))
        .collect();
    let json = format!(
        concat!(
            "{{\"figure\":\"corruption\",\"target_gb\":{},\"seeds\":{},",
            "\"queries\":[{}],\"formats\":[{}]}}\n"
        ),
        target_gb,
        seeds,
        query_names.join(","),
        json_formats.join(",")
    );
    r.set_json(json);
}
