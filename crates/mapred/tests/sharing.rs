//! A committed job output is one allocation from HDFS through reuse,
//! replay and journal: a cache hit's entry, its restore under the consuming
//! chain's path and its journal record share one [`FileRef`], and the
//! journal writes the bytes once.

use std::sync::Arc;

use ysmart_mapred::journal::{recover, Journal, JournalRecord};
use ysmart_mapred::scheduler::{
    run_workload_with, QueryRequest, SchedulerConfig, TenantSpec, WorkloadRun,
};
use ysmart_mapred::{
    Cluster, ClusterConfig, FileRef, JobChain, JobSpec, MapOutput, Mapper, ReduceOutput, Reducer,
    ReuseCache, ReuseConfig,
};
use ysmart_rel::{row, Row};

struct KvMapper;
impl Mapper for KvMapper {
    fn map(&mut self, line: &str, out: &mut MapOutput) {
        let parsed = line
            .split_once('|')
            .and_then(|(k, v)| Some((k.parse::<i64>().ok()?, v.parse::<i64>().ok()?)));
        match parsed {
            Some((k, v)) => out.emit(row![k], row![v]),
            None => out.record_bad(),
        }
    }
}

/// Sums a key's values, plus one — so a chain of these never writes the
/// same bytes twice (equal outputs would, rightly, share one journal copy).
struct SumReducer;
impl Reducer for SumReducer {
    fn reduce(&mut self, key: &Row, values: &[Row], out: &mut ReduceOutput) {
        let s: i64 = values
            .iter()
            .map(|v| v.get(0).unwrap().as_int().unwrap())
            .sum();
        out.emit_row(row![key.get(0).unwrap().clone(), s + 1]);
    }
}

const JOBS: usize = 2;

/// The same two-job logical query under `tag`'s own output paths; job `j`
/// fingerprints as `j + 1` whatever the tag.
fn request(tag: &str, submit_s: f64) -> QueryRequest {
    let mut chain = JobChain::new();
    let mut input = "data/t".to_string();
    for j in 0..JOBS {
        let output = format!("tmp/{tag}-{j}");
        chain.push(
            JobSpec::builder(&format!("{tag}-j{j}"))
                .input(&input, || Box::new(KvMapper))
                .reducer(|| Box::new(SumReducer))
                .output(&output)
                .reduce_tasks(3)
                .fingerprint(j as u64 + 1)
                .build(),
        );
        input = output;
    }
    QueryRequest {
        tenant: "t".into(),
        label: tag.into(),
        chain,
        seed: 7,
        deadline_s: None,
        submit_s,
    }
}

#[test]
fn a_cache_hit_is_one_allocation_from_reuse_entry_to_journal_record() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.load_table("t", (0..500).map(|i| format!("{}|1", i % 20)).collect());
    let config = SchedulerConfig {
        max_running: 1,
        tenants: vec![TenantSpec::new("t", 16, 8)],
        trace: false,
        drain_at_s: None,
    };
    let mut journal = Journal::in_memory();
    let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
    // q0 executes and commits; q1, admitted after it finished, hits the
    // cache for its whole chain.
    let run = WorkloadRun {
        journal: Some(&mut journal),
        reuse: Some(&mut cache),
        ..WorkloadRun::default()
    };
    let requests = vec![request("q0", 0.0), request("q1", 1.0)];
    let (report, _) = run_workload_with(&mut cluster, &config, requests, run);
    assert_eq!(report.reports[1].jobs_reused, JOBS);
    assert_eq!(cache.stats().hits, JOBS as u64);

    let share = |path: &str| -> FileRef { cluster.hdfs.share(path).unwrap() };
    let mut entry = |fp: u64| -> FileRef { cache.lookup(fp, None, 2.0).unwrap().0 };
    let cached_first = entry(1);
    for j in 0..JOBS {
        let cached = entry(j as u64 + 1);
        assert!(Arc::ptr_eq(&cached, &share(&format!("tmp/q0-{j}"))));
        assert!(Arc::ptr_eq(&cached, &share(&format!("tmp/q1-{j}"))));
        // Its holders: the reuse entry, the two chains' paths, the
        // journal's epoch (which q1's commit was compared against and
        // referenced to, not copied into) — and the handles taken here.
        let handles_here = if j == 0 { 2 } else { 1 }; // + `cached_first`
        assert_eq!(Arc::strong_count(&cached), 4 + handles_here, "job {j}");
    }
    assert_eq!(journal.outputs_stored(), JOBS as u64);
    assert_eq!(journal.outputs_by_reference().0, JOBS as u64);

    // What the journal hands a restart is shared the same way.
    let files: Vec<FileRef> = recover(journal.bytes())
        .unwrap()
        .records
        .into_iter()
        .filter_map(|r| match r {
            JournalRecord::JobDone { file, .. } => Some(file),
            _ => None,
        })
        .collect();
    assert_eq!(files.len(), 2 * JOBS);
    for j in 0..JOBS {
        assert!(Arc::ptr_eq(&files[j], &files[JOBS + j]));
        assert_eq!(**files[j], **share(&format!("tmp/q1-{j}")));
    }

    // An overwrite of a shared path and deletes of its siblings leave the
    // cache's copy intact.
    cluster.hdfs.put("tmp/q0-0", vec!["overwritten".into()]);
    for path in ["tmp/q0-1", "tmp/q1-0", "tmp/q1-1"] {
        cluster.hdfs.delete(path);
    }
    assert!(Arc::ptr_eq(&entry(1), &cached_first));
    assert_eq!(**cached_first, **files[0]);
}
