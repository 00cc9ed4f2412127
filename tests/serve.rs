//! End-to-end chaos test of the `ysmart serve` service: kill the process
//! at every journaled point mid-workload (simulated by truncating the
//! journal file, since a crash leaves exactly a byte prefix of the
//! append-only journal), restart, and require the combined answers to be
//! bit-identical to an uninterrupted session — every query answered
//! exactly once, never twice, never differently.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ysmart::core::{Strategy, YSmart};
use ysmart::datagen::{clicks_catalog, ClicksGen, ClicksSpec};
use ysmart::mapred::journal::{recover, JournalRecord, JOURNAL_MAGIC};
use ysmart::mapred::{validate_chrome_trace, ClusterConfig};
use ysmart::rel::codec::encode_line;
use ysmart::serve::{Response, ServeError, ServeOptions, Service};

fn demo_engine() -> YSmart {
    let spec = ClicksSpec {
        users: 12,
        clicks_per_user: 10,
        ..ClicksSpec::default()
    };
    let stream = ClicksGen::generate(&spec);
    let lines: Vec<String> = stream.clicks.iter().map(encode_line).collect();
    let mut engine = YSmart::new(clicks_catalog(), ClusterConfig::small_local());
    engine.load_table_lines("clicks", lines);
    engine
}

/// The scripted session: two runs, three queries, then a graceful quit.
const SCRIPT: &[&str] = &[
    "SELECT cid, count(*) AS clicks FROM clicks GROUP BY cid",
    "SELECT page_id, count(*) AS n FROM clicks GROUP BY page_id",
    "!run",
    "SELECT uid, count(*) AS c FROM clicks GROUP BY uid",
    "!quit",
];

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ysmart-serve-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn options(journal: PathBuf) -> ServeOptions {
    let mut o = ServeOptions::new(Strategy::YSmart);
    o.journal_path = Some(journal);
    o
}

/// A query answer with the `recovered` flag normalized away, so answers
/// from recovery compare equal to the uninterrupted originals.
fn results_of(responses: &[Response]) -> Vec<Response> {
    responses
        .iter()
        .filter(|r| matches!(r, Response::Result { .. }))
        .cloned()
        .map(|r| match r {
            Response::Result {
                id,
                label,
                header,
                rows,
                elapsed_s,
                jobs,
                recovered: _,
            } => Response::Result {
                id,
                label,
                header,
                rows,
                elapsed_s,
                jobs,
                recovered: false,
            },
            other => other,
        })
        .collect()
}

fn result_id(r: &Response) -> u64 {
    match r {
        Response::Result { id, .. } => *id,
        _ => unreachable!("results_of returns only Result"),
    }
}

/// Drives the whole script against a fresh service on `journal`; returns
/// (all responses, final journal bytes).
fn uninterrupted_session(journal: &PathBuf) -> (Vec<Response>, Vec<u8>) {
    let (mut service, recovery) =
        Service::open(demo_engine(), options(journal.clone())).expect("open");
    assert!(recovery.is_empty(), "fresh journal has nothing to recover");
    let mut responses = Vec::new();
    for line in SCRIPT {
        responses.extend(service.handle_line(line));
    }
    let bytes = std::fs::read(journal).expect("journal persisted");
    (responses, bytes)
}

/// Segments a recovered record stream the way the service does (runs of
/// `Admitted` records, then their run's records) and returns, per global
/// query id, whether the journal already holds its terminal disposition —
/// i.e. whether the crashed process had already answered it.
fn journal_ids(records: &[JournalRecord]) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let mut all = BTreeSet::new();
    let mut answered = BTreeSet::new();
    let mut batch: Vec<u64> = Vec::new();
    let mut in_run = false;
    for rec in records {
        match rec {
            JournalRecord::Admitted { id, .. } => {
                if in_run {
                    batch.clear();
                    in_run = false;
                }
                batch.push(*id);
                all.insert(*id);
            }
            JournalRecord::Done { id, .. } => {
                in_run = true;
                answered.insert(batch[*id as usize]);
            }
            JournalRecord::JobDone { .. } => in_run = true,
        }
    }
    (all, answered)
}

fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![JOURNAL_MAGIC.len()];
    let mut off = JOURNAL_MAGIC.len();
    while off + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 12 + len;
        boundaries.push(off);
    }
    boundaries
}

/// The headline guarantee, end to end: for every kill point — every
/// record boundary plus torn mid-frame cuts — a restarted service
/// delivers exactly the answers the dead process still owed, bit-identical
/// to the uninterrupted session's.
#[test]
fn killing_the_service_at_any_journal_point_loses_and_corrupts_nothing() {
    let journal = temp_path("chaos.wal");
    let _ = std::fs::remove_file(&journal);
    let (baseline, bytes) = uninterrupted_session(&journal);
    let baseline_results = results_of(&baseline);
    assert_eq!(baseline_results.len(), 3, "script answers three queries");

    let mut cuts = frame_boundaries(&bytes);
    // Torn tails: cuts inside a frame (including inside the magic).
    cuts.extend([3, 20, bytes.len() - 9, bytes.len() - 1]);
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let cut_journal = temp_path(&format!("chaos-cut-{cut}.wal"));
        std::fs::write(&cut_journal, &bytes[..cut]).expect("write prefix");
        let (all_ids, answered_before) = {
            let recovered = recover(&bytes[..cut]).expect("boundary or torn prefix");
            journal_ids(&recovered.records)
        };

        let (mut service, recovery) =
            Service::open(demo_engine(), options(cut_journal.clone())).expect("reopen");
        let mut responses = recovery;
        // The operator finishes the interrupted session: run whatever was
        // restored to the pending queue, then quit.
        responses.extend(service.handle_line("!run"));
        responses.extend(service.handle_line("!quit"));

        let got = results_of(&responses);
        let got_ids: BTreeSet<u64> = got.iter().map(result_id).collect();
        assert_eq!(
            got_ids.len(),
            got.len(),
            "kill at byte {cut}: a query was answered twice"
        );
        for r in &got {
            let id = result_id(r);
            let want = baseline_results
                .iter()
                .find(|b| result_id(b) == id)
                .unwrap_or_else(|| panic!("kill at byte {cut}: unknown query id {id}"));
            assert_eq!(r, want, "kill at byte {cut}: answer for q{id} diverged");
            assert!(
                !answered_before.contains(&id),
                "kill at byte {cut}: q{id} was answered before the kill and again after"
            );
        }
        // Everything the journal admitted is accounted for: answered
        // before the kill, or answered (identically) after recovery.
        for id in &all_ids {
            assert!(
                answered_before.contains(id) || got_ids.contains(id),
                "kill at byte {cut}: q{id} was lost"
            );
        }
        let _ = std::fs::remove_file(&cut_journal);
    }
    let _ = std::fs::remove_file(&journal);
}

/// Recovery fast-forwards journaled jobs instead of re-executing them:
/// killing after the first run's commits must replay those jobs from the
/// journal (`jobs_replayed`), not burn them again (`jobs_executed`).
#[test]
fn recovery_reexecutes_only_work_past_the_last_checkpoint() {
    let journal = temp_path("checkpoint.wal");
    let _ = std::fs::remove_file(&journal);
    let (_, bytes) = uninterrupted_session(&journal);

    // Cut right before the final record (the last Done): the first run's
    // two queries are fully journaled; the second run's job committed but
    // its disposition did not.
    let boundaries = frame_boundaries(&bytes);
    let cut = boundaries[boundaries.len() - 2];
    let commits = recover(&bytes[..cut])
        .unwrap()
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::JobDone { .. }))
        .count();
    assert!(commits >= 3, "all three single-job chains committed");
    let cut_journal = temp_path("checkpoint-cut.wal");
    std::fs::write(&cut_journal, &bytes[..cut]).expect("write prefix");

    let (service, recovery) =
        Service::open(demo_engine(), options(cut_journal.clone())).expect("reopen");
    assert_eq!(
        service.recovery_stats().jobs_replayed,
        commits,
        "every journaled commit fast-forwards"
    );
    assert_eq!(
        service.recovery_stats().jobs_executed,
        0,
        "no journaled work is re-executed"
    );
    // The interrupted query is re-answered from the replayed output.
    assert_eq!(results_of(&recovery).len(), 1);
    drop(service);
    let _ = std::fs::remove_file(&cut_journal);
    let _ = std::fs::remove_file(&journal);
}

/// Mid-stream corruption is a typed startup error, not a panic and not
/// silently wrong answers.
#[test]
fn corrupt_journal_is_a_typed_error_at_startup() {
    let journal = temp_path("corrupt.wal");
    let _ = std::fs::remove_file(&journal);
    let (_, bytes) = uninterrupted_session(&journal);

    let mut corrupt = bytes.clone();
    let mid = JOURNAL_MAGIC.len() + 14; // inside the first record's payload
    corrupt[mid] ^= 0x40;
    let corrupt_journal = temp_path("corrupt-flip.wal");
    std::fs::write(&corrupt_journal, &corrupt).expect("write corrupt");

    match Service::open(demo_engine(), options(corrupt_journal.clone())) {
        Err(ServeError::Journal(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("journal corrupt"), "typed message, got: {msg}");
        }
        Ok(_) => panic!("corrupt journal must not open"),
        Err(other) => panic!("wrong error class: {other}"),
    }
    let _ = std::fs::remove_file(&corrupt_journal);
    let _ = std::fs::remove_file(&journal);
}

/// The protocol's drain lifecycle: after `!drain`, new queries are
/// rejected with the typed draining error while already-admitted work
/// still runs to completion on `!quit`.
#[test]
fn drain_rejects_new_queries_but_completes_admitted_work() {
    let (mut service, _) =
        Service::open(demo_engine(), ServeOptions::new(Strategy::YSmart)).expect("open");
    let ack = service.handle_line(SCRIPT[0]);
    assert!(matches!(&ack[..], [Response::Info(_)]), "admission ack");
    assert!(service.is_ready());

    service.handle_line("!drain");
    assert!(!service.is_ready());
    let rejected = service.handle_line(SCRIPT[1]);
    let [Response::Rejected { error, .. }] = &rejected[..] else {
        panic!("post-drain submission must be rejected, got {rejected:?}");
    };
    assert!(
        error.contains("draining"),
        "typed draining rejection, got: {error}"
    );

    let responses = service.handle_line("!quit");
    assert_eq!(
        results_of(&responses).len(),
        1,
        "the admitted query still completes during drain: {responses:?}"
    );
}

/// Adversarial protocol input: malformed tenant prefixes, unknown tenants,
/// unknown commands and garbage SQL must all produce typed rejections —
/// never a panic, never a journal record, never a pending query.
#[test]
fn malformed_requests_are_rejected_without_panics_or_journal_writes() {
    let (mut service, _) =
        Service::open(demo_engine(), ServeOptions::new(Strategy::YSmart)).expect("open");
    let journal_len = service.journal_bytes().len();

    let rejected = [
        "@",                              // bare sigil
        "@tenant",                        // prefix without a query
        "@default ",                      // prefix with only whitespace after
        "@ SELECT cid FROM clicks",       // empty tenant name
        "@nosuch SELECT cid FROM clicks", // tenant not configured
        "SELECT nope FROM nowhere",       // SQL that does not translate
        "DROP TABLE clicks; --",          // unsupported statement
        "\u{1b}[2J\u{7}",                 // control-character garbage
    ];
    for line in rejected {
        let responses = service.handle_line(line);
        let [Response::Rejected { id, error, .. }] = &responses[..] else {
            panic!("{line:?}: expected one typed rejection, got {responses:?}");
        };
        assert!(id.is_none(), "{line:?}: rejection must not consume an id");
        assert!(!error.is_empty(), "{line:?}: error must say why");
    }
    let responses = service.handle_line("!frobnicate");
    assert!(
        matches!(&responses[..], [Response::Info(msg)] if msg.contains("unknown command")),
        "unknown commands get a help line, got {responses:?}"
    );

    assert_eq!(service.pending_count(), 0, "nothing malformed was admitted");
    assert_eq!(
        service.journal_bytes().len(),
        journal_len,
        "rejected lines must never reach the journal"
    );
    assert!(service.is_ready(), "the service shrugs it all off");

    // A well-formed query still works after the abuse, under both the
    // implicit default tenant and the explicit @default form.
    for line in [SCRIPT[0], &format!("@default {}", SCRIPT[1])] {
        let ack = service.handle_line(line);
        assert!(
            matches!(&ack[..], [Response::Info(msg)] if msg.starts_with("accepted")),
            "{line:?}: expected acceptance, got {ack:?}"
        );
    }
    assert_eq!(results_of(&service.handle_line("!run")).len(), 2);
}

/// With result reuse configured, a repeated query in a later `!run` batch
/// fast-forwards from the cache and answers with the same rows the first
/// execution produced.
#[test]
fn reuse_cache_persists_across_run_batches() {
    let mut opts = ServeOptions::new(Strategy::YSmart);
    opts.reuse = Some(ysmart::mapred::ReuseConfig::with_capacity(1 << 20));
    let (mut service, _) = Service::open(demo_engine(), opts).expect("open");

    service.handle_line(SCRIPT[0]);
    let first = results_of(&service.handle_line("!run"));
    assert_eq!(first.len(), 1);
    assert_eq!(service.reuse_stats().hits, 0, "a fresh cache has no hits");
    assert!(service.reuse_stats().insertions > 0, "commits populate it");

    service.handle_line(SCRIPT[0]);
    let second = results_of(&service.handle_line("!run"));
    assert_eq!(second.len(), 1);
    assert!(service.reuse_stats().hits > 0, "the repeat must hit");

    let (
        Response::Result {
            rows: a,
            header: ha,
            ..
        },
        Response::Result {
            rows: b,
            header: hb,
            ..
        },
    ) = (&first[0], &second[0])
    else {
        panic!("both batches answer");
    };
    assert_eq!(
        (a, ha),
        (b, hb),
        "cached answer must equal the executed one"
    );
    let status = service.status_lines();
    assert!(
        status.iter().any(|l| l.contains("reuse cache")),
        "!status reports the cache"
    );
    // The repeat's commits re-journal outputs the epoch already holds:
    // written by reference, and `!status` says how much that saved.
    let jobs = match &second[0] {
        Response::Result { jobs, .. } => *jobs,
        _ => unreachable!("results_of returns only Result"),
    };
    let journal = status
        .iter()
        .find(|l| l.starts_with("journal: "))
        .expect("!status reports the journal");
    assert!(
        journal.contains(&format!("{jobs} output(s) stored, {jobs} by reference (")),
        "{journal}"
    );
    assert!(!journal.contains("(0 byte(s) not rewritten)"), "{journal}");
    // A served batch leaves only the loaded tables in HDFS: the cache
    // holds its entries itself.
    let hdfs = &service.engine_mut().cluster.hdfs;
    let left: Vec<&str> = hdfs.paths().collect();
    assert_eq!(left, ["data/clicks"]);
    assert!(
        service.reuse_stats().bytes_cached > 0,
        "the cache keeps its entries"
    );
}

/// Without a cache, a served batch leaves only the loaded tables behind —
/// after a live `!run` and after the replay of a restart alike — and the
/// journal alone still restores every answer.
#[test]
fn served_batches_release_their_outputs() {
    let journal = temp_path("release.wal");
    let _ = std::fs::remove_file(&journal);
    let only_tables = |service: &mut Service| {
        let hdfs = &service.engine_mut().cluster.hdfs;
        let left: Vec<String> = hdfs.paths().map(String::from).collect();
        assert_eq!(left, ["data/clicks"]);
    };
    let (live, _) = uninterrupted_session(&journal);
    let (mut service, recovery) =
        Service::open(demo_engine(), options(journal.clone())).expect("reopen");
    assert!(results_of(&recovery).is_empty(), "all three were answered");
    only_tables(&mut service);
    for line in SCRIPT {
        service.handle_line(line);
    }
    only_tables(&mut service);
    assert_eq!(results_of(&live).len(), 3);
    let _ = std::fs::remove_file(&journal);
}

/// The reuse cache survives a crash: recovery replays the journaled runs
/// through the same committing path, so a restarted service's cache serves
/// hits for queries the dead process executed.
#[test]
fn reuse_cache_is_rebuilt_by_crash_recovery() {
    let journal = temp_path("reuse-recovery.wal");
    let _ = std::fs::remove_file(&journal);
    let reuse_options = |journal: PathBuf| {
        let mut o = options(journal);
        o.reuse = Some(ysmart::mapred::ReuseConfig::with_capacity(1 << 20));
        o
    };

    let first = {
        let (mut service, _) =
            Service::open(demo_engine(), reuse_options(journal.clone())).expect("open");
        service.handle_line(SCRIPT[0]);
        let first = results_of(&service.handle_line("!run"));
        assert_eq!(first.len(), 1);
        first
        // Dropped without !quit: the journal file is the crash image.
    };

    let (mut service, recovery) =
        Service::open(demo_engine(), reuse_options(journal.clone())).expect("reopen");
    assert!(
        results_of(&recovery).is_empty(),
        "the answered query is suppressed, not re-answered"
    );
    assert!(
        service.reuse_stats().insertions > 0,
        "replaying the journal repopulates the cache"
    );

    service.handle_line(SCRIPT[0]);
    let again = results_of(&service.handle_line("!run"));
    assert_eq!(again.len(), 1);
    assert!(
        service.reuse_stats().hits > 0,
        "a post-recovery repeat hits the rebuilt cache"
    );
    let (Some(Response::Result { rows: a, .. }), Some(Response::Result { rows: b, .. })) =
        (first.first(), again.first())
    else {
        panic!("both sessions answer");
    };
    assert_eq!(a, b, "pre-crash and post-recovery answers agree");
    let _ = std::fs::remove_file(&journal);
}

/// `--trace-dir`: a `!run` exports its workload trace and answers with the
/// file's path; every query's chain lane is a process of its own, labelled
/// with the query. A restart that replays the batch exports it again.
#[test]
fn trace_dir_exports_each_run_and_its_replay() {
    let dir = temp_path("traces");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = temp_path("trace.wal");
    let _ = std::fs::remove_file(&journal);
    let traced = |journal: PathBuf| {
        let mut o = options(journal);
        o.trace_dir = Some(dir.clone());
        o
    };
    let file = dir.join("run-1.trace.json");
    let handle = Response::Info(format!("trace: {}", file.display()));
    // The export the handle names: valid Chrome JSON with one chain
    // process per query label. Returns the span count per category.
    let exported = |responses: &[Response]| {
        assert!(responses.contains(&handle), "{responses:?}");
        let json = std::fs::read_to_string(&file).expect("trace file written");
        for label in ["default/q0", "default/q1"] {
            let process = format!("\"args\":{{\"name\":\"{label}/chain\"}}");
            assert_eq!(json.matches(&process).count(), 1, "{label}: {json}");
        }
        validate_chrome_trace(&json)
            .expect("valid Chrome trace")
            .span_cats
    };

    let (mut service, _) = Service::open(demo_engine(), traced(journal.clone())).expect("open");
    // Two-job queries (aggregate, then sort): each chain has a gap on its
    // own lane.
    for sql in [
        "SELECT cid, count(*) AS n FROM clicks GROUP BY cid ORDER BY n",
        "SELECT uid, count(*) AS c FROM clicks GROUP BY uid ORDER BY c",
    ] {
        service.handle_line(sql);
    }
    let live = service.handle_line("!run");
    assert_eq!(results_of(&live).len(), 2);
    let spans = exported(&live);
    assert!(spans.get("map").is_some_and(|&n| n > 0), "{spans:?}");
    assert!(spans.get("reduce").is_some_and(|&n| n > 0), "{spans:?}");
    drop(service);

    std::fs::remove_file(&file).expect("remove the live export");
    let (_, recovery) = Service::open(demo_engine(), traced(journal.clone())).expect("reopen");
    // Both answers were delivered; the replay fast-forwards their jobs
    // from the journal and traces that instead.
    assert!(results_of(&recovery).is_empty());
    let spans = exported(&recovery);
    assert!(spans.get("replay").is_some_and(|&n| n > 0), "{spans:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&journal);
}
