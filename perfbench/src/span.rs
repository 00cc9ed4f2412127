//! Wall-clock spans recorded from the benchmark's side of each public call.
//!
//! A span is a name, a start, an end, the span that caused it and the id of
//! the query it belongs to. Spans stay in memory and are written out once,
//! when the run ends. They never touch `mapred::trace`, which records the
//! *simulated* timeline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `sql.parse`; the layer is the part before the dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one query share this id; 0 is work outside any query.
    pub query: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count and summed self time of every span with one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    queries: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            queries: 0,
        }
    }

    /// A fresh query id (1, 2, …) for the spans of one query to share.
    pub fn next_query(&mut self) -> u32 {
        self.queries += 1;
        self.queries
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Close it with
    /// [`Tracer::exit`]; spans close in the reverse order they opened.
    pub fn enter(&mut self, name: &'static str, query: u32) {
        let now = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = now;
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, query: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, query);
        let r = f();
        self.exit();
        r
    }

    /// Durations of every span named `name`, milliseconds, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per span name: how many, their summed duration, and their summed
    /// *self* time — duration minus the part their child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += s.dur_ns() as f64 / 1e6;
            e.self_ms += s.dur_ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// The span file: one JSON array, one object per span, in start order.
    /// `id` is the span's index, `parent` an earlier span's `id` or null.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"query\": {}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.query,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("run.op", 1);
        t.span("sql.parse", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.span("sql.parse", 1, || ());
        t.exit();
        let st = t.self_times();
        assert_eq!(st["sql.parse"].count, 2);
        let op = st["run.op"];
        assert!(op.total_ms >= 3.0);
        assert!(op.self_ms <= op.total_ms - st["sql.parse"].total_ms + 1e-9);
        assert_eq!(t.durations_ms("sql.parse").len(), 2);
    }

    #[test]
    fn span_file_is_json_with_parents() {
        let mut t = Tracer::new();
        t.enter("run.op", 7);
        t.span("plan.build_plan", 7, || ());
        t.exit();
        let parsed = Json::parse(&t.to_json()).unwrap();
        let spans = parsed.as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[1].get("query"), Some(&Json::Num(7.0)));
    }
}
