//! Sampled-metrics scaling correctness.
//!
//! The engine executes on real (small) data and reports simulated volumes:
//! each byte/record count is the real count times
//! `ClusterConfig::size_multiplier`. These tests pin that the scaling
//! *rounds to nearest* — the old truncating `as u64` cast biased every
//! scaled field low by up to one whole unit, which compounds across jobs
//! in a chain and skews figure totals.

use proptest::prelude::*;
use ysmart_mapred::{
    run_job, Cluster, ClusterConfig, JobSpec, MapOutput, Mapper, ReduceOutput, Reducer,
};
use ysmart_rel::{row, Row};

struct KvMapper;
impl Mapper for KvMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        let (k, v) = line.split_once('|').unwrap();
        out.emit(
            row![k.parse::<i64>().unwrap()],
            row![v.parse::<i64>().unwrap()],
        );
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        let s: i64 = values
            .iter()
            .map(|v| v.get(0).unwrap().as_int().unwrap())
            .sum();
        out.emit_row(row![key.get(0).unwrap().clone(), s]);
    }
}

fn sum_job() -> JobSpec {
    JobSpec::builder("sum")
        .input("data/t", || Box::new(KvMapper))
        .reducer(|| Box::new(SumReducer))
        .output("out/sum")
        .reduce_tasks(3)
        .build()
}

fn file_bytes(lines: &[String]) -> u64 {
    lines.iter().map(|l| l.len() as u64 + 1).sum()
}

/// Nearest-rounded scaling leaves every field within half a unit of
/// `real × mult`; truncation can be off by almost a full unit.
fn close(got: u64, real: u64, mult: f64) -> bool {
    (got as f64 - real as f64 * mult).abs() <= 0.5
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every scaled byte/record field of a clean run is the real count
    /// times the multiplier, rounded to nearest — for any multiplier.
    #[test]
    fn scaled_metrics_round_to_nearest(
        pairs in prop::collection::vec((0i64..10, 0i64..100), 1..120),
        mult in 1.0f64..5e4,
    ) {
        let lines: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}|{v}")).collect();
        let in_bytes = file_bytes(&lines);
        let n = pairs.len() as u64;
        let mut c = Cluster::new(ClusterConfig {
            size_multiplier: mult,
            ..ClusterConfig::default()
        });
        c.load_table("t", lines);
        let m = run_job(&mut c, &sum_job()).unwrap();
        let out_lines = c.hdfs.get("out/sum").unwrap().lines.clone();

        prop_assert!(close(m.map_in_records, n, mult),
            "map_in_records {} vs {n} x {mult}", m.map_in_records);
        prop_assert!(close(m.map_out_records, n, mult),
            "map_out_records {} vs {n} x {mult}", m.map_out_records);
        prop_assert!(close(m.hdfs_read_bytes, in_bytes, mult),
            "hdfs_read_bytes {} vs {in_bytes} x {mult}", m.hdfs_read_bytes);
        prop_assert!(close(m.out_records, out_lines.len() as u64, mult),
            "out_records {} vs {} x {mult}", m.out_records, out_lines.len());
        prop_assert!(close(m.hdfs_write_bytes, file_bytes(&out_lines), mult),
            "hdfs_write_bytes {} vs {} x {mult}", m.hdfs_write_bytes, file_bytes(&out_lines));
    }
}

#[test]
fn fractional_multiplier_rounds_up_not_down() {
    // 3 records at x1.3 = 3.9 simulated records: truncation reported 3,
    // rounding must report 4.
    let mut c = Cluster::new(ClusterConfig {
        size_multiplier: 1.3,
        ..ClusterConfig::default()
    });
    c.load_table("t", vec!["1|10".into(), "2|20".into(), "3|30".into()]);
    let m = run_job(&mut c, &sum_job()).unwrap();
    assert_eq!(m.map_in_records, 4, "3 x 1.3 = 3.9 must round to 4");
    assert_eq!(m.map_out_records, 4);
}

#[test]
fn map_only_output_scales_rounded() {
    struct PassMapper;
    impl Mapper for PassMapper {
        fn map(&mut self, line: &str, out: &mut MapOutput) {
            let (k, v) = line.split_once('|').unwrap();
            out.emit(
                row![k.parse::<i64>().unwrap()],
                row![v.parse::<i64>().unwrap()],
            );
        }
    }
    let spec = JobSpec::builder("sel")
        .input("data/t", || Box::new(PassMapper))
        .output("out/sel")
        .build();
    let mult = 2.7;
    let mut c = Cluster::new(ClusterConfig {
        size_multiplier: mult,
        ..ClusterConfig::default()
    });
    c.load_table("t", vec!["1|5".into(), "2|7".into(), "3|9".into()]);
    let m = run_job(&mut c, &spec).unwrap();
    let out_lines = c.hdfs.get("out/sel").unwrap().lines.clone();
    assert!(close(m.out_records, out_lines.len() as u64, mult));
    assert!(close(m.hdfs_write_bytes, file_bytes(&out_lines), mult));
    // 3 x 2.7 = 8.1 -> 8 either way, but 3 records x 2.7 rounds, never
    // truncates: check against the exact nearest integer.
    assert_eq!(
        m.out_records,
        (out_lines.len() as f64 * mult).round() as u64
    );
}
