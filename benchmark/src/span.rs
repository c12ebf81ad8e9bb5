//! In-memory spans of the traced pass.
//!
//! The harness records one span around each child command and around
//! each in-process call into a layer's public functions, keeps them in
//! memory, and writes them out once at the end (`trace.json`). Nothing
//! outside `benchmark/` is instrumented.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) interval. `layer` is the part of `name`
/// before the first dot — the crate the span attributes its time to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one traced pass. Single-threaded: spans nest in call
/// order and the innermost open span is the parent of the next one.
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counts taken at the same boundaries as the spans.
    pub counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Seconds of each span called `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Summed seconds of every span whose name starts with `prefix`.
    pub fn total_prefix_s(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// The `trace.json` document: every span with its self time, plus
    /// the counts.
    pub fn to_value(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "id": id,
                    "name": s.name.clone(),
                    "layer": s.layer(),
                    "workload": self.workload.clone(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "self_ns": self_ns(&self.spans, id),
                })
            })
            .collect();
        let counts: BTreeMap<String, Value> = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(*v)))
            .collect();
        serde_json::json!({
            "schema": "prs-benchmark-trace-v1",
            "workload": self.workload.clone(),
            "spans": spans,
            "counts": Value::Object(counts),
        })
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// its direct children cover. Children are clipped to the parent and
/// merged first, so overlapping or escaping children are not subtracted
/// twice.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.start_ns;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    parent.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("cli.run", 0, 100, None),
            span("core.a", 10, 40, Some(0)),
            span("simtime.b", 15, 30, Some(1)), // grandchild: not the root's child
            span("core.c", 60, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 30);
        assert_eq!(self_ns(&spans, 1), 30 - 15);
        assert_eq!(self_ns(&spans, 2), 15);
    }

    #[test]
    fn overlapping_and_escaping_children_are_merged_and_clipped() {
        let spans = vec![
            span("p", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // escapes the parent by 60
            span("d", 120, 130, Some(0)), // inside a
        ];
        // Covered: [110,170] and [190,200] = 70.
        assert_eq!(self_ns(&spans, 0), 30);
    }

    #[test]
    fn tracer_nests_in_call_order_and_names_layers() {
        let mut t = Tracer::new("w");
        t.span("cli.run", |t| {
            t.span("data.generate", |_| ());
            t.span("apps.kernel", |_| ());
        });
        t.span("obs.export.jsonl", |_| ());
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!(s[3].layer(), "obs");
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_s("apps.kernel").len(), 1);
        assert!(t.total_prefix_s("obs.export.") >= 0.0);
        let doc = t.to_value();
        assert_eq!(doc["spans"].as_array().unwrap().len(), 4);
        assert_eq!(doc["spans"][1]["layer"].as_str(), Some("data"));
    }
}
