//! One run of one workload: the timed run that gives the end-to-end
//! metrics, or the traced run that gives the per-layer ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ysmart::core::Strategy;

use crate::cycle::{check_exact, repeat_for, CycleReport, Exact, Layers};
use crate::metrics::{declared, Metric};
use crate::span::Tracer;
use crate::translate::Catalogs;
use crate::util::{median, nproc, peak_rss_mb, quantile, tail, timed, window_means};
use crate::verify::{check_translations, Verifier};
use crate::workloads::{
    dss_queries, nation_names, translate_queries, Kind, QueryText, Spec, Stream, BATCH_QUERIES,
};
use crate::{drives, dss, serve, translate};

/// Share of `--seconds` the traced run spends on decomposed cycles; the
/// rest of its time goes to one undecomposed reference cycle and the layer
/// micro-drives.
const TRACED_SHARE: f64 = 0.2;

/// The quantile of a run's op times that `op_ms_p10` reports, and from the
/// fast end of its window throughputs `queries_per_s`. Ops of a run do the
/// same work, so their times differ by what else the machine did, which only
/// ever adds: a neighbour's busy spell of some seconds raises the times of
/// the ops it covers by 1.4–2x. The median follows whichever state most of a
/// run was in and moved by 20–30 % between runs of identical code on a busy
/// host; the tenth percentile stays with the undisturbed ops while a tenth
/// of a run is undisturbed, and moved by 3–5 %. A change to the program
/// moves every op, so it moves this as much as the median.
const UNDISTURBED: f64 = 0.10;

/// What a run measured.
pub struct Outcome {
    /// Queries (translations) attempted and how many of them failed: errors,
    /// refusals, oracle mismatches, failed durability checks.
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// The mode's metrics, in the order of `BENCHMARK.json`: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Wall-clock of every timed op, milliseconds, in order — kept in the
    /// result file so tails can be studied after the fact.
    pub op_ms: Vec<f64>,
    /// One cycle's exact numbers.
    pub exact: Exact,
    /// Context a reader needs beside the numbers: sample counts, sizes, the
    /// flush policy. (key, value) pairs, printed as `# key: value`.
    pub info: Vec<(&'static str, String)>,
}

/// Everything a cycle needs that is fixed for the whole run.
struct Context {
    spec: Spec,
    seed: u64,
    queries: Vec<QueryText>,
    /// `serve_*` only.
    stream: Option<Stream>,
    /// `serve_*` only: how often a cycle reopens the crashed journal.
    reopenings: usize,
    /// `translate` only: what the first cycle leaves for verification.
    reference: translate::Reference,
    /// Scratch directory for journal files, inside the benchmark's `out/`.
    tmp: PathBuf,
}

impl Context {
    fn new(spec: Spec, seed: u64, out_dir: &Path, reopenings: usize) -> Result<Context, String> {
        let tmp = out_dir.join(format!("tmp-{}-{}", spec.name, std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let (queries, stream) = match spec.kind {
            Kind::Dss(_) => (dss_queries(&spec), None),
            Kind::Translate => (translate_queries(), None),
            Kind::Serve { .. } => {
                let nations = nation_names(&spec.tpch(seed));
                let stream = Stream::generate(seed, spec.warmup_ops + spec.ops_per_cycle, &nations);
                let requests = out_dir.join(format!("requests-{}-seed{seed}.txt", spec.name));
                std::fs::write(&requests, stream.request_file())
                    .map_err(|e| format!("{}: {e}", requests.display()))?;
                (stream.queries.clone(), Some(stream))
            }
        };
        Ok(Context {
            spec,
            seed,
            queries,
            stream,
            reopenings,
            reference: translate::Reference::default(),
            tmp,
        })
    }

    fn cycle(&mut self, tracer: Option<&mut Tracer>) -> CycleReport {
        match self.spec.kind {
            Kind::Dss(strategy) => {
                dss::cycle(&self.spec, strategy, &self.queries, self.seed, tracer)
            }
            Kind::Translate => translate::cycle(&self.spec, self.seed, &mut self.reference, tracer),
            Kind::Serve { reuse_mb } => serve::cycle(
                &self.spec,
                reuse_mb,
                self.seed,
                self.stream.as_ref().expect("serve workloads have a stream"),
                &self.tmp,
                self.reopenings,
                tracer,
            ),
        }
    }

    /// Queries one timed op answers.
    fn queries_per_op(&self) -> usize {
        match self.spec.kind {
            Kind::Dss(_) => self.queries.len(),
            Kind::Translate => self.queries.len() * Strategy::all().len(),
            Kind::Serve { .. } => BATCH_QUERIES,
        }
    }

    /// Checks every answer of every cycle against the oracle. Returns the
    /// failures it found and the milliseconds it took.
    fn verify(&mut self, cycles: &[CycleReport]) -> (Vec<String>, f64) {
        let (failures, s) = timed(|| match self.spec.kind {
            Kind::Translate => {
                let verifier = Verifier::new(&self.spec, self.seed, &self.queries);
                check_translations(verifier, &mut self.reference)
            }
            _ => {
                let mut verifier = Verifier::new(&self.spec, self.seed, &self.queries);
                cycles
                    .iter()
                    .flat_map(|c| &c.answers)
                    .filter_map(|a| verifier.check(a).err())
                    .collect()
            }
        });
        (failures, s * 1e3)
    }
}

impl Drop for Context {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// Attempts, failures and failure messages over a run's cycles plus what
/// verification found.
fn tally(cycles: &[CycleReport], verify_failures: Vec<String>) -> (usize, usize, Vec<String>) {
    let attempted = cycles.iter().map(|c| c.attempted).sum();
    let failed = cycles.iter().map(|c| c.failed).sum::<usize>() + verify_failures.len();
    let failures = cycles
        .iter()
        .flat_map(|c| c.failures.iter().cloned())
        .chain(verify_failures)
        .collect();
    (attempted, failed, failures)
}

fn common_info(
    ctx: &Context,
    cycles: &[CycleReport],
    op_ms: &[f64],
) -> Vec<(&'static str, String)> {
    let ops = op_ms.len();
    let spread =
        [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0].map(|q| format!("{:.3}", quantile(op_ms, q)));
    let mut info = vec![
        ("nproc", nproc().to_string()),
        (
            "load",
            "closed loop, 1 client; engine tasks on the calling thread (exec_threads 1)".into(),
        ),
        ("cycles", cycles.len().to_string()),
        (
            "set-ups",
            cycles
                .iter()
                .map(|c| c.setup_s.len())
                .sum::<usize>()
                .to_string(),
        ),
        ("timed_ops", ops.to_string()),
        (
            "op_ms",
            format!("min/p10/p25/p50/p75/p90/max = {}", spread.join(" / ")),
        ),
        ("queries_per_op", ctx.queries_per_op().to_string()),
        (
            "size",
            format!(
                "tpch scale {} + {} click users; {} warm-up + {} timed ops per cycle",
                ctx.spec.tpch_scale,
                ctx.spec.click_users,
                ctx.spec.warmup_ops,
                ctx.spec.ops_per_cycle
            ),
        ),
    ];
    if matches!(ctx.spec.kind, Kind::Serve { .. }) {
        info.push((
            "flush_policy",
            "journal file under the benchmark's out/ directory; Journal::flush as shipped \
             (write on every acknowledgement, no fsync)"
                .into(),
        ));
    }
    info
}

/// The measured values as (name, value, unit) in the order `BENCHMARK.json`
/// declares them. Measuring a name that is not declared is an error, and so
/// is leaving a declared one unmeasured unless `missing` gives its value.
fn in_declared_order<'a>(
    declared: impl Iterator<Item = &'a Metric> + Clone,
    measured: &BTreeMap<&'static str, f64>,
    missing: Option<f64>,
) -> Result<Vec<(&'a str, f64, &'a str)>, String> {
    if let Some(stray) = measured
        .keys()
        .find(|k| !declared.clone().any(|m| m.name == **k))
    {
        return Err(format!(
            "`{stray}` is measured but BENCHMARK.json does not declare it"
        ));
    }
    declared
        .map(|m| {
            let value = measured.get(m.name.as_str()).copied().or(missing);
            let value = value.ok_or_else(|| {
                format!(
                    "BENCHMARK.json declares `{}` but it was not measured",
                    m.name
                )
            })?;
            Ok((m.name.as_str(), value, m.unit.as_str()))
        })
        .collect()
}

/// The timed run: tracing off, cycles for `seconds`, every end-to-end metric.
pub fn timed_run(spec: Spec, seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let mut ctx = Context::new(spec, seed, out_dir, 1)?;
    let cycles = repeat_for(seconds, || ctx.cycle(None));
    // Before the oracle runs: the harness's own memory is not the program's.
    let rss_mb = peak_rss_mb();
    let exact = cycles[0].exact;
    check_exact("timed", &exact, &cycles)?;

    let op_ms: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.op_ms.iter().copied())
        .collect();
    let setups: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.setup_s.iter().copied())
        .collect();
    // Throughput over every window of one cycle's worth of consecutive ops.
    let throughputs: Vec<f64> = window_means(&op_ms, ctx.spec.ops_per_cycle)
        .iter()
        .map(|ms| ctx.queries_per_op() as f64 / (ms / 1e3))
        .collect();
    let measured = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("op_ms_p10", quantile(&op_ms, UNDISTURBED)),
        ("queries_per_s", quantile(&throughputs, 1.0 - UNDISTURBED)),
        ("peak_rss_mb", rss_mb),
        ("jobs_total", exact.jobs as f64),
    ]);
    let metrics = in_declared_order(
        declared().end_to_end.iter().map(|b| &b.metric),
        &measured,
        None,
    )?;

    let (verify_failures, _) = ctx.verify(&cycles);
    let (attempted, failed, failures) = tally(&cycles, verify_failures);
    Ok(Outcome {
        attempted,
        failed,
        failures,
        metrics,
        exact,
        info: common_info(&ctx, &cycles, &op_ms),
        op_ms,
    })
}

/// Median duration of the spans named `span`, in `unit_per_ms` units.
fn span_median(tracer: &Tracer, span: &str, unit_per_ms: f64) -> f64 {
    median(&tracer.durations_ms(span)) * unit_per_ms
}

/// Runs the layer micro-drives on a system set up like the workload's.
fn run_drives(ctx: &Context, layers: &mut Layers, tracer: &mut Tracer) -> Result<(), String> {
    let catalogs = Catalogs::new();
    drives::plan_counts(&catalogs, &ctx.queries, layers)?;
    let (mut engine, strategy) = match ctx.spec.kind {
        Kind::Translate => return Ok(()),
        Kind::Dss(strategy) => (
            dss::setup(&ctx.spec, ctx.seed, &mut Layers::default())?.tpch,
            strategy,
        ),
        Kind::Serve { .. } => (serve::engine(&ctx.spec.tpch(ctx.seed))?, Strategy::YSmart),
    };
    let db = ctx.spec.tpch(ctx.seed);
    let schema = catalogs.tpch.table("lineitem").map_err(|e| e.to_string())?;
    let q17 = ctx
        .queries
        .iter()
        .find(|q| q.name == "q17")
        .ok_or("workload has no q17")?;

    let keys = drives::exec(&mut engine, &q17.sql, strategy, layers)?;
    drives::norm(&keys, layers);
    drives::rel(&db.lineitem, schema, layers)?;
    drives::hdfs_checksum(&engine, layers)?;
    if let Some(stream) = &ctx.stream {
        drives::journal(&ctx.tmp, &q17.sql, layers)?;
        drives::serve_translation(&engine, &ctx.queries, tracer)?;
        drives::scheduler(&mut engine, stream, layers, tracer)?;
    }
    Ok(())
}

/// The traced run: one undecomposed reference cycle, decomposed cycles for a
/// fifth of `seconds`, the layer micro-drives; every per-layer metric.
pub fn traced_run(spec: Spec, seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let mut ctx = Context::new(spec, seed, out_dir, serve::TRACED_REOPENINGS)?;
    let reference = ctx.cycle(None);
    let exact = reference.exact;
    let mut tracer = Tracer::new();
    let mut cycles = repeat_for(seconds * TRACED_SHARE, || ctx.cycle(Some(&mut tracer)));
    // The decomposed ops must be the same work as the undecomposed ones.
    check_exact("traced", &exact, &cycles)?;

    let traced_ops: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.op_ms.iter().copied())
        .collect();
    let mut all_ops = reference.op_ms.clone();
    all_ops.extend(&traced_ops);
    let overhead_pct = (median(&traced_ops) / median(&reference.op_ms) - 1.0) * 100.0;
    let traced_cycles = cycles.len();
    cycles.insert(0, reference);

    let (verify_failures, verify_ms) = ctx.verify(&cycles);
    let (attempted, failed, failures) = tally(&cycles, verify_failures);

    let mut layers = Layers::default();
    for c in &mut cycles {
        layers.absorb(std::mem::take(&mut c.layers));
    }
    run_drives(&ctx, &mut layers, &mut tracer)
        .map_err(|e| format!("layer micro-drive failed: {e}"))?;

    for (metric, span, unit_per_ms) in [
        ("sql.parse_us", "sql.parse", 1e3),
        ("plan.build_us", "plan.build_plan", 1e3),
        ("plan.analyze_us", "plan.analyze", 1e3),
        ("core.compile_us", "core.compile", 1e3),
        ("core.chain_for_us", "core.chain_for", 1e3),
        ("core.decode_output_us", "core.decode_output", 1e3),
        ("mapred.run_chain_ms", "mapred.run_chain", 1.0),
        ("mapred.job_step_ms", "mapred.step", 1.0),
    ] {
        layers.set(metric, span_median(&tracer, span, unit_per_ms));
    }
    let timed_queries = cycles[0].op_ms.len() * ctx.queries_per_op();
    layers.set(
        "core.jobs_per_query",
        exact.jobs as f64 / timed_queries.max(1) as f64,
    );
    let map_in = layers.get("mapred.map_in_records");
    if map_in > 0.0 {
        layers.set(
            "mapred.replication_rate",
            layers.get("mapred.map_out_records") / map_in,
        );
    }
    layers.set("mapred.sim_s_total", exact.sim_s);
    layers.set("oracle.verify_ms", verify_ms);
    let (tail_pct, tail_ms) = tail(&all_ops);
    layers.set("run.op_ms_tail", tail_ms);
    layers.set("run.trace_overhead_pct", overhead_pct);
    layers.set("run.failed_share", failed as f64 / attempted.max(1) as f64);

    // A metric that does not apply to the workload reads 0.
    let metrics = in_declared_order(declared().per_layer.iter(), &layers.finish(), Some(0.0))?;

    let span_file = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&span_file, tracer.to_json())
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    let mut info = common_info(&ctx, &cycles, &all_ops);
    info.push(("traced_cycles", traced_cycles.to_string()));
    info.push((
        "op_ms_tail",
        format!("p{tail_pct} of {} ops (reference + traced)", all_ops.len()),
    ));
    info.push(("span_file", span_file.display().to_string()));
    for (name, st) in tracer.self_times() {
        info.push((
            "span",
            format!(
                "{name}: {} span(s), total {:.3} ms, self {:.3} ms",
                st.count, st.total_ms, st.self_ms
            ),
        ));
    }

    Ok(Outcome {
        attempted,
        failed,
        failures,
        metrics,
        op_ms: all_ops,
        exact,
        info,
    })
}
