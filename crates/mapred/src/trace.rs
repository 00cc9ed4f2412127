//! Structured execution tracing: a span timeline of everything the
//! simulator charged time for.
//!
//! A chain session that traces ([`crate::ChainSession::with_tracing`]) owns
//! one [`Trace`], its lane, with one [`TraceEvent`] per simulated event —
//! each map/reduce task attempt, shuffle fetch, checksum verification,
//! speculative copy, node-loss re-execution, backoff wait and inter-job
//! scheduling gap — with its start and duration in *simulated* seconds. The
//! engine returns each successful attempt's spans beside its metrics
//! ([`crate::run_job_attempt`]) and the session commits them to the lane;
//! the scheduler and the `YSmart` engine merge lanes with
//! [`Trace::absorb`]. Spans are keyed by simulated time and task index,
//! never wall clock, so a trace is bit-identical across `exec_threads`
//! settings (pinned by the determinism suite).
//!
//! [`Trace::to_chrome_json`] exports the Chrome-trace `trace_events` JSON
//! format, loadable in `chrome://tracing` or <https://ui.perfetto.dev>: one
//! trace "process" per executed job (pid 0 is the chain scheduler), one
//! "thread" per cluster slot; speculative backup copies run on shadow lanes
//! above [`SPEC_LANE_BASE`].
//!
//! The exporter is hand-rolled (the workspace has no JSON dependency);
//! [`validate_chrome_trace`] is an equally dependency-free parser used by
//! the bench harness and CI to prove emitted traces actually parse.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Thread-id offset of speculative-copy shadow lanes: a backup of a task on
/// slot `s` is drawn on lane `SPEC_LANE_BASE + s`, visually beside the slot
/// it duplicates without overlapping real work.
pub const SPEC_LANE_BASE: u32 = 10_000;

/// A typed argument attached to a trace event (Chrome-trace `args`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned counter (record counts, byte counts, event tallies).
    U64(u64),
    /// Simulated seconds or other real-valued measure.
    F64(f64),
    /// Free-form label.
    Str(String),
}

/// One span or instant on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Trace process: 0 = the chain scheduler, `1..` = executed jobs in
    /// completion order (assigned by [`Trace::commit_job`]).
    pub pid: u32,
    /// Trace thread: the cluster slot the work ran on (shadow lanes ≥
    /// [`SPEC_LANE_BASE`] hold speculative copies).
    pub tid: u32,
    /// Event category — the taxonomy DESIGN.md documents (`map`, `reduce`,
    /// `fetch`, `verify`, `attempt_failed`, `reexec`, `speculative`,
    /// `write`, `gap`, `backoff`, `job_failed`, `collision`, `skip`,
    /// `dispatch`).
    pub cat: &'static str,
    /// Human-readable name shown on the span.
    pub name: String,
    /// Start, simulated seconds from chain start.
    pub start_s: f64,
    /// Duration in simulated seconds (0 and `instant` for point events).
    pub dur_s: f64,
    /// Point event (`ph:"i"`) instead of a complete span (`ph:"X"`).
    pub instant: bool,
    /// Key/value annotations.
    pub args: Vec<(String, ArgValue)>,
}

impl TraceEvent {
    /// A complete span on lane `tid`.
    #[must_use]
    pub fn span(tid: u32, cat: &'static str, name: String, start_s: f64, dur_s: f64) -> Self {
        TraceEvent {
            pid: 0,
            tid,
            cat,
            name,
            start_s,
            dur_s,
            instant: false,
            args: Vec::new(),
        }
    }

    /// A point event on lane `tid`.
    #[must_use]
    pub fn instant(tid: u32, cat: &'static str, name: String, ts_s: f64) -> Self {
        TraceEvent {
            pid: 0,
            tid,
            cat,
            name,
            start_s: ts_s,
            dur_s: 0.0,
            instant: true,
            args: Vec::new(),
        }
    }

    /// Attaches an argument (builder style).
    #[must_use]
    pub fn arg(mut self, key: impl Into<String>, value: ArgValue) -> Self {
        self.args.push((key.into(), value));
        self
    }

    /// End of the span in simulated seconds.
    #[must_use]
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }
}

/// The recorded timeline of one chain execution (or several, merged).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Labels of pids `1..`; pid 0 is always the chain scheduler.
    processes: Vec<String>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records a chain-scheduler span (pid 0, lane 0): inter-job gaps,
    /// retry backoffs, failed job attempts, admission-queue waits.
    pub fn chain_span(&mut self, cat: &'static str, name: String, start_s: f64, dur_s: f64) {
        self.events
            .push(TraceEvent::span(0, cat, name, start_s, dur_s));
    }

    /// Records a chain-scheduler instant (pid 0, lane 0): admission,
    /// deadline cancellation, load shedding.
    pub fn chain_instant(&mut self, cat: &'static str, name: String, ts_s: f64) {
        self.events.push(TraceEvent::instant(0, cat, name, ts_s));
    }

    /// Shifts every recorded event `dt_s` later on the timeline. The
    /// multi-tenant scheduler records each chain's lane in chain-local time
    /// (admission = 0) and shifts it to workload-absolute time on
    /// completion, so merged traces of co-running chains line up.
    pub fn shift_s(&mut self, dt_s: f64) {
        for e in &mut self.events {
            e.start_s += dt_s;
        }
    }

    /// Commits one successful job attempt's buffered events under a new
    /// process labelled `label`, returning the assigned pid. Events arrive
    /// with engine-local pids (ignored) and are retagged.
    pub fn commit_job(&mut self, label: String, events: Vec<TraceEvent>) -> u32 {
        self.processes.push(label);
        let pid = self.processes.len() as u32;
        self.events.extend(events.into_iter().map(|mut e| {
            e.pid = pid;
            e
        }));
        pid
    }

    /// All recorded events, in commit order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Labels of the committed job processes (pid = index + 1).
    #[must_use]
    pub fn process_labels(&self) -> &[String] {
        &self.processes
    }

    /// Latest span end across all events — with complete coverage this
    /// equals the chain's total simulated time.
    #[must_use]
    pub fn max_end_s(&self) -> f64 {
        self.events
            .iter()
            .map(TraceEvent::end_s)
            .fold(0.0, f64::max)
    }

    /// Absorbs another trace as additional processes, prefixing its labels
    /// with `prefix`. A chain's lane keeps its scheduler spans on pid 0;
    /// they become a process of their own, `<prefix>/chain`, so concurrent
    /// chains don't interleave on pid 0. A trace with nothing on pid 0 — an
    /// engine's, whose chains are processes already — adds its processes
    /// only, so merged traces nest (the bench harness absorbs one engine
    /// trace per query/strategy run into a single file).
    pub fn absorb(&mut self, prefix: &str, other: Trace) {
        if other.events.iter().any(|e| e.pid == 0) {
            self.processes.push(format!("{prefix}/chain"));
        }
        let base = self.processes.len() as u32;
        for label in other.processes {
            self.processes.push(format!("{prefix}/{label}"));
        }
        for mut e in other.events {
            e.pid += base;
            self.events.push(e);
        }
    }

    /// Serialises the trace in Chrome's `trace_events` JSON format
    /// (timestamps in microseconds, as the format requires). Deterministic:
    /// events are emitted in recorded order, metadata in (pid, tid) order.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 128 + 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
        };
        // Metadata: process and thread names.
        let mut lanes: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut pid0_used = false;
        for e in &self.events {
            lanes.insert((e.pid, e.tid));
            pid0_used |= e.pid == 0;
        }
        if pid0_used {
            push(&mut out, &mut first);
            out.push_str(
                "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{\"name\":\"chain scheduler\"}}",
            );
        }
        for (i, label) in self.processes.iter().enumerate() {
            push(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                i + 1,
                json_string(label)
            );
        }
        for (pid, tid) in lanes {
            push(&mut out, &mut first);
            let lane = if pid == 0 {
                "scheduler".to_string()
            } else if tid >= SPEC_LANE_BASE {
                format!("slot {} (speculative)", tid - SPEC_LANE_BASE)
            } else {
                format!("slot {tid}")
            };
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(&lane)
            );
        }
        // The events themselves.
        for e in &self.events {
            push(&mut out, &mut first);
            out.push_str("{\"ph\":\"");
            out.push_str(if e.instant { "i" } else { "X" });
            let _ = write!(
                out,
                "\",\"pid\":{},\"tid\":{},\"cat\":\"{}\",\"name\":{},\"ts\":{}",
                e.pid,
                e.tid,
                e.cat,
                json_string(&e.name),
                json_number(e.start_s * 1e6)
            );
            if e.instant {
                out.push_str(",\"s\":\"t\"");
            } else {
                let _ = write!(out, ",\"dur\":{}", json_number(e.dur_s * 1e6));
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:", json_string(k));
                    match v {
                        ArgValue::U64(n) => {
                            let _ = write!(out, "{n}");
                        }
                        ArgValue::F64(x) => out.push_str(&json_number(*x)),
                        ArgValue::Str(s) => out.push_str(&json_string(s)),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// JSON string literal with escaping (quotes, backslash, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as a JSON number. Rust's `Display` for `f64` never emits
/// scientific notation or leading/trailing junk, so the text is always a
/// valid JSON number; non-finite values (never produced by the simulator)
/// degrade to 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Aggregate statistics of a parsed Chrome trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// All events, metadata included.
    pub events: usize,
    /// Complete (`ph:"X"`) spans.
    pub spans: usize,
    /// Span count per category.
    pub span_cats: BTreeMap<String, usize>,
    /// Distinct non-metadata pids.
    pub processes: usize,
    /// Latest span end in (simulated) seconds.
    pub max_end_s: f64,
}

/// Parses Chrome-trace JSON (with a from-scratch JSON parser — the point is
/// to prove the emitted text parses, not to trust the emitter) and returns
/// aggregate statistics.
///
/// # Errors
///
/// A description of the first malformed construct: bad JSON syntax, a
/// missing `traceEvents` array, or an event missing required fields.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let value = JsonParser::new(json).parse()?;
    let Json::Object(top) = value else {
        return Err("top level is not an object".into());
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?;
    let Json::Array(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    let mut pids: BTreeSet<i64> = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let Json::Object(fields) = e else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(Json::Str(ph)) = get("ph") else {
            return Err(format!("event {i} has no ph"));
        };
        let Some(Json::Num(pid)) = get("pid") else {
            return Err(format!("event {i} has no pid"));
        };
        if get("name").is_none() {
            return Err(format!("event {i} has no name"));
        }
        if ph == "M" {
            continue;
        }
        pids.insert(*pid as i64);
        let Some(Json::Num(ts)) = get("ts") else {
            return Err(format!("event {i} has no ts"));
        };
        if ph == "X" {
            let Some(Json::Num(dur)) = get("dur") else {
                return Err(format!("span {i} has no dur"));
            };
            stats.spans += 1;
            if let Some(Json::Str(cat)) = get("cat") {
                *stats.span_cats.entry(cat.clone()).or_insert(0) += 1;
            }
            stats.max_end_s = stats.max_end_s.max((ts + dur) / 1e6);
        }
    }
    stats.processes = pids.len();
    Ok(stats)
}

/// Minimal JSON value tree for validation.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Recursive-descent JSON parser over the full grammar the exporter emits.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through whole.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut tr = Trace::new();
        tr.chain_span("gap", "scheduling gap".into(), 0.0, 2.0);
        let events = vec![
            TraceEvent::span(0, "map", "m0".into(), 2.0, 5.0).arg("in_records", ArgValue::U64(100)),
            TraceEvent::span(1, "map", "m1".into(), 2.0, 4.0),
            TraceEvent::span(SPEC_LANE_BASE, "speculative", "m0 backup".into(), 2.0, 5.0),
            TraceEvent::span(0, "reduce", "r0 \"quoted\"".into(), 7.0, 3.0)
                .arg("note", ArgValue::Str("tab\there".into()))
                .arg("frac", ArgValue::F64(0.25)),
            TraceEvent::instant(0, "collision", "checksum collision".into(), 7.5),
        ];
        tr.commit_job("job-a".into(), events);
        tr
    }

    #[test]
    fn export_round_trips_through_validator() {
        let tr = sample();
        let json = tr.to_chrome_json();
        let stats = validate_chrome_trace(&json).expect("emitted JSON must parse");
        assert_eq!(stats.spans, 5);
        assert_eq!(stats.span_cats.get("map"), Some(&2));
        assert_eq!(stats.processes, 2, "chain scheduler + one job");
        assert!((stats.max_end_s - tr.max_end_s()).abs() < 1e-9);
        assert!((tr.max_end_s() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn commit_assigns_sequential_pids() {
        let mut tr = Trace::new();
        let a = tr.commit_job(
            "a".into(),
            vec![TraceEvent::span(0, "map", "m".into(), 0.0, 1.0)],
        );
        let b = tr.commit_job(
            "b".into(),
            vec![TraceEvent::span(0, "map", "m".into(), 1.0, 1.0)],
        );
        assert_eq!((a, b), (1, 2));
        assert_eq!(tr.events()[0].pid, 1);
        assert_eq!(tr.events()[1].pid, 2);
    }

    #[test]
    fn absorb_offsets_pids_and_prefixes_labels() {
        let mut merged = Trace::new();
        merged.absorb("q17/YSmart", sample());
        merged.absorb("q18/Hive", sample());
        let labels = merged.process_labels();
        assert_eq!(labels[0], "q17/YSmart/chain");
        assert_eq!(labels[1], "q17/YSmart/job-a");
        assert_eq!(labels[2], "q18/Hive/chain");
        // Both chains' scheduler spans moved off pid 0.
        assert!(merged.events().iter().all(|e| e.pid != 0));
        let json = merged.to_chrome_json();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.processes, 4);
        // A merged trace has nothing on pid 0: absorbing it nests its
        // processes under the prefix and adds no empty chain process.
        let mut outer = Trace::new();
        outer.absorb("run", merged.clone());
        assert_eq!(outer.process_labels()[0], "run/q17/YSmart/chain");
        assert_eq!(outer.process_labels().len(), merged.process_labels().len());
        assert_eq!(outer.to_chrome_json().len(), json.len() + 4 * "run/".len());
    }

    #[test]
    fn string_escaping_survives_round_trip() {
        let tricky = "a\"b\\c\nd\te\u{1}f";
        let json = json_string(tricky);
        let Json::Str(back) = JsonParser::new(&json).parse().unwrap() else {
            panic!("not a string");
        };
        assert_eq!(back, tricky);
    }

    #[test]
    fn validator_rejects_malformed_input() {
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"pid\":1}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
    }

    #[test]
    fn empty_trace_exports_empty_event_list() {
        let json = Trace::new().to_chrome_json();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.spans, 0);
    }
}
