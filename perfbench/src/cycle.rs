//! What one cycle of a workload reports, and the loop that repeats cycles
//! for the length of a run.

use std::collections::BTreeMap;
use std::time::Instant;

use ysmart::mapred::{ChainMetrics, ReuseStats};
use ysmart::rel::Row;

use crate::util::{median, timed};

/// The numbers of a cycle that must repeat exactly — between cycles, between
/// the timed and the traced run, and between two runs with one seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Exact {
    /// MapReduce jobs compiled (`translate`) or run / fast-forwarded.
    pub jobs: u64,
    /// `ChainMetrics::total_s` summed over the timed queries.
    pub sim_s: f64,
    /// Journal file size when the stream ends.
    pub journal_bytes: u64,
    pub reuse_hits: u64,
    pub reuse_misses: u64,
    pub reuse_evictions: u64,
}

impl Exact {
    pub fn add_chain(&mut self, m: &ChainMetrics) {
        self.jobs += m.jobs.len() as u64;
        self.sim_s += m.total_s();
    }

    pub fn set_reuse(&mut self, s: &ReuseStats) {
        self.reuse_hits = s.hits;
        self.reuse_misses = s.misses;
        self.reuse_evictions = s.evictions;
    }
}

/// One answer the program gave, kept until the run's timing is over and
/// then checked against the oracle.
#[derive(Debug)]
pub struct Answer {
    /// Index into the workload's query list.
    pub query: usize,
    pub rows: Rows,
}

#[derive(Debug)]
pub enum Rows {
    /// As `YSmart::execute_sql` returns them.
    Typed(Vec<Row>),
    /// As `serve::Response::Result` carries them: one encoded line per row,
    /// decoded with the plan's output schema before they are compared.
    Lines(Vec<String>),
}

/// Per-layer values gathered along the way: `set` for counts and gauges,
/// `sample` for timings that are reported as the median of their samples.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds a chain's per-job counters to the `mapred.*` counts.
    pub fn add_chain(&mut self, m: &ChainMetrics) {
        for j in &m.jobs {
            self.add("mapred.map_in_records", j.map_in_records as f64);
            self.add("mapred.map_out_records", j.map_out_records as f64);
            self.add("mapred.shuffle_bytes", j.shuffle_bytes as f64);
            self.add("mapred.hdfs_read_bytes", j.hdfs_read_bytes as f64);
            self.add("mapred.hdfs_write_bytes", j.hdfs_write_bytes as f64);
            self.add("mapred.encoded_bytes", j.encoded_bytes as f64);
            self.add("mapred.map_tasks", j.map_tasks as f64);
            self.add("mapred.reduce_tasks", j.reduce_tasks as f64);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another cycle's values in: gauges and counts take the later
    /// cycle's value (cycles are identical, so it is the same value), timing
    /// samples accumulate.
    pub fn absorb(&mut self, other: Layers) {
        self.values.extend(other.values);
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    /// Every value by name, timing samples reduced to their median.
    pub fn finish(mut self) -> BTreeMap<&'static str, f64> {
        for (k, v) in &self.samples {
            self.values.insert(k, median(v));
        }
        self.values
    }
}

/// Set-ups per cycle. A cycle needs one; the others are there so that
/// `setup_s` is a median over enough samples in workloads whose cycles are
/// long (`serve_cold` fits four cycles in a 20 s run).
const SETUPS_PER_CYCLE: usize = 3;

/// Sets the system up `SETUPS_PER_CYCLE` times, dropping each system before
/// building the next, and returns the last one with every set-up's seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUPS_PER_CYCLE);
    let mut system = None;
    for _ in 0..SETUPS_PER_CYCLE {
        drop(system.take());
        let (built, s) = timed(&mut setup);
        seconds.push(s);
        system = Some(built);
    }
    (system.expect("SETUPS_PER_CYCLE is at least 1"), seconds)
}

#[derive(Debug, Default)]
pub struct CycleReport {
    /// Data generation + table loading (+ `Service::open`), seconds, of
    /// every set-up of the cycle.
    pub setup_s: Vec<f64>,
    /// Wall-clock of each timed op, milliseconds, in order.
    pub op_ms: Vec<f64>,
    /// Queries the timed ops (and the serve tail) attempted.
    pub attempted: usize,
    /// Errors, refusals and failed durability checks seen inside the cycle;
    /// oracle mismatches are added when `answers` are verified.
    pub failed: usize,
    /// What went wrong, for the operator.
    pub failures: Vec<String>,
    pub exact: Exact,
    pub answers: Vec<Answer>,
    pub layers: Layers,
}

impl CycleReport {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// The report of a cycle that could not even set up: one attempt, failed.
    pub fn setup_failed(mut self, why: &str) -> CycleReport {
        self.attempted += 1;
        self.fail(format!("set-up failed: {why}"));
        self
    }
}

/// Repeats `cycle` until `seconds` have passed, always at least once. A
/// cycle is never cut short — its exact numbers need all of it — so the
/// loop starts another one only while at least half of it still fits.
pub fn repeat_for(seconds: f64, mut cycle: impl FnMut() -> CycleReport) -> Vec<CycleReport> {
    let start = Instant::now();
    let mut reports = Vec::new();
    loop {
        let before = start.elapsed().as_secs_f64();
        reports.push(cycle());
        let after = start.elapsed().as_secs_f64();
        if after + (after - before) / 2.0 > seconds {
            return reports;
        }
    }
}

/// Hard failure: cycles of one run, or the timed and the traced run, gave
/// different exact numbers. That is a determinism bug, not a measurement.
pub fn check_exact(what: &str, reference: &Exact, cycles: &[CycleReport]) -> Result<(), String> {
    for (i, c) in cycles.iter().enumerate() {
        if c.exact != *reference {
            return Err(format!(
                "exactness self-check failed: {what} cycle {i} reports {:?}, expected {reference:?}",
                c.exact
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_runs_at_least_once_and_stops() {
        let mut n = 0;
        let r = repeat_for(0.0, || {
            n += 1;
            CycleReport::default()
        });
        assert_eq!((r.len(), n), (1, 1));
        let r = repeat_for(0.05, || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            CycleReport::default()
        });
        assert!((3..=6).contains(&r.len()), "{}", r.len());
    }

    #[test]
    fn exact_mismatch_is_an_error() {
        let reference = Exact {
            jobs: 13,
            ..Exact::default()
        };
        let same = CycleReport {
            exact: reference,
            ..CycleReport::default()
        };
        assert!(check_exact("timed", &reference, &[same]).is_ok());
        assert!(check_exact("timed", &reference, &[CycleReport::default()]).is_err());
    }

    #[test]
    fn layers_reduce_samples_to_medians() {
        let mut a = Layers::default();
        a.set("hdfs.paths_after_run", 10.0);
        a.sample("serve.open_ms", 1.0);
        let mut b = Layers::default();
        b.sample("serve.open_ms", 3.0);
        b.sample("serve.open_ms", 5.0);
        a.absorb(b);
        let v = a.finish();
        assert_eq!(v["serve.open_ms"], 3.0);
        assert_eq!(v["hdfs.paths_after_run"], 10.0);
    }
}
