//! Directional tests of the cost model: each knob must move simulated time
//! the way its real-world counterpart would.

use ysmart_mapred::{
    run_job, Cluster, ClusterConfig, ContentionModel, JobSpec, MapOutput, Mapper, ReduceOutput,
    Reducer,
};
use ysmart_rel::{row, Row};

struct KvMapper;
impl Mapper for KvMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        let n: i64 = line.parse().unwrap();
        out.emit(row![n % 50], row![n]);
    }
}

struct CountReducer;
impl Reducer for CountReducer {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        out.emit_row(row![key.get(0).unwrap().clone(), values.len() as i64]);
    }
}

fn job() -> JobSpec {
    JobSpec::builder("j")
        .input("data/t", || Box::new(KvMapper))
        .reducer(|| Box::new(CountReducer))
        .output("out/j")
        .reduce_tasks(4)
        .build()
}

fn time_with(config: ClusterConfig) -> f64 {
    let mut c = Cluster::new(config);
    c.load_table("t", (0..5000).map(|i| i.to_string()).collect());
    run_job(&mut c, &job()).unwrap().total_s()
}

fn base() -> ClusterConfig {
    ClusterConfig {
        size_multiplier: 1e5,
        ..ClusterConfig::default()
    }
}

#[test]
fn slower_disks_slow_the_job() {
    let fast = time_with(ClusterConfig {
        disk_mbps: 500.0,
        ..base()
    });
    let slow = time_with(ClusterConfig {
        disk_mbps: 20.0,
        ..base()
    });
    assert!(slow > fast, "{slow} vs {fast}");
}

#[test]
fn slower_network_slows_shuffle_and_writes() {
    let fast = time_with(ClusterConfig {
        net_mbps: 1000.0,
        ..base()
    });
    let slow = time_with(ClusterConfig {
        net_mbps: 10.0,
        ..base()
    });
    assert!(slow > fast);
}

#[test]
fn worse_locality_costs_network_reads() {
    let local = time_with(ClusterConfig {
        locality: 1.0,
        net_mbps: 20.0,
        ..base()
    });
    let remote = time_with(ClusterConfig {
        locality: 0.0,
        net_mbps: 20.0,
        ..base()
    });
    assert!(remote > local);
}

#[test]
fn higher_replication_costs_output_writes() {
    let r1 = time_with(ClusterConfig {
        replication: 1,
        ..base()
    });
    let r3 = time_with(ClusterConfig {
        replication: 3,
        ..base()
    });
    assert!(r3 >= r1);
}

#[test]
fn more_slots_shorten_the_map_phase() {
    let small = time_with(ClusterConfig {
        nodes: 1,
        map_slots_per_node: 2,
        ..base()
    });
    let big = time_with(ClusterConfig {
        nodes: 16,
        map_slots_per_node: 4,
        ..base()
    });
    assert!(big < small);
}

#[test]
fn contention_slows_everything() {
    let isolated = time_with(base());
    let contended = time_with(ClusterConfig {
        contention: Some(ContentionModel {
            slot_share: 0.25,
            max_scheduling_gap_s: 0.0,
            task_slowdown: 2.0,
            seed: 1,
        }),
        ..base()
    });
    assert!(contended > isolated);
}

#[test]
fn more_map_tasks_with_smaller_blocks() {
    let run_tasks = |block_mb: f64| {
        let mut c = Cluster::new(ClusterConfig {
            hdfs_block_mb: block_mb,
            ..base()
        });
        c.load_table("t", (0..5000).map(|i| i.to_string()).collect());
        run_job(&mut c, &job()).unwrap().map_tasks
    };
    assert!(run_tasks(16.0) > run_tasks(256.0));
}

#[test]
fn startup_overhead_scales_with_waves() {
    let cheap = time_with(ClusterConfig {
        task_startup_s: 0.0,
        hdfs_block_mb: 8.0,
        ..base()
    });
    let pricey = time_with(ClusterConfig {
        task_startup_s: 10.0,
        hdfs_block_mb: 8.0,
        ..base()
    });
    assert!(pricey > cheap + 9.0, "{pricey} vs {cheap}");
}

#[test]
fn stragglers_slow_jobs_and_speculation_rescues_them() {
    use ysmart_mapred::StragglerModel;
    let clean = time_with(base());
    let straggling = time_with(ClusterConfig {
        stragglers: Some(StragglerModel {
            probability: 0.3,
            slowdown: 8.0,
            speculative: false,
            seed: 5,
        }),
        ..base()
    });
    let speculative = time_with(ClusterConfig {
        stragglers: Some(StragglerModel {
            probability: 0.3,
            slowdown: 8.0,
            speculative: true,
            seed: 5,
        }),
        ..base()
    });
    assert!(straggling > clean * 1.5, "{straggling} vs {clean}");
    assert!(
        speculative < straggling,
        "backup tasks must rescue stragglers: {speculative} vs {straggling}"
    );
    assert!(speculative <= clean * 1.3, "{speculative} vs {clean}");
}

#[test]
fn stragglers_never_change_results() {
    use ysmart_mapred::StragglerModel;
    let run = |stragglers| {
        let mut c = Cluster::new(ClusterConfig {
            stragglers,
            ..base()
        });
        c.load_table("t", (0..5000).map(|i| i.to_string()).collect());
        run_job(&mut c, &job()).unwrap();
        let mut lines = c.hdfs.get("out/j").unwrap().lines.clone();
        lines.sort();
        lines
    };
    let clean = run(None);
    let slow = run(Some(StragglerModel {
        probability: 0.5,
        slowdown: 10.0,
        speculative: true,
        seed: 9,
    }));
    assert_eq!(clean, slow);
}

#[test]
fn speculative_tasks_counted_in_metrics() {
    use ysmart_mapred::StragglerModel;
    let mut c = Cluster::new(ClusterConfig {
        hdfs_block_mb: 0.001, // many tasks so some straggle
        stragglers: Some(StragglerModel {
            probability: 0.4,
            slowdown: 6.0,
            speculative: true,
            seed: 3,
        }),
        ..base()
    });
    c.load_table("t", (0..5000).map(|i| i.to_string()).collect());
    let m = run_job(&mut c, &job()).unwrap();
    assert!(m.speculative_tasks > 0);
}

#[test]
fn a_task_exhausting_retries_kills_the_job() {
    use ysmart_mapred::{FailureModel, MapRedError};
    let mut c = Cluster::new(ClusterConfig {
        failures: Some(FailureModel {
            probability: 0.95,
            seed: 1,
        }),
        ..base()
    });
    c.load_table("t", (0..5000).map(|i| i.to_string()).collect());
    let e = run_job(&mut c, &job()).unwrap_err();
    assert!(matches!(e, MapRedError::TooManyFailures { .. }), "{e}");
}
