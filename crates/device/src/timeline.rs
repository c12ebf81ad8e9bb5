//! Execution-timeline recording: devices append busy intervals (kernel,
//! transfer, task) to an attached [`Timeline`], and [`render_ascii`]
//! draws the classic runtime-paper Gantt chart — the quickest way to see
//! whether transfers overlap compute and whether the CPU and GPU finish
//! together (Equation (4)'s balance, visually).

use obs::jsonl::{write_f64, write_str};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use simtime::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One busy interval on one lane (device engine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lane name, e.g. `node0-gpu0-compute`.
    pub lane: String,
    /// Start, virtual seconds.
    pub start: f64,
    /// End, virtual seconds.
    pub end: f64,
    /// What occupied the lane (`kernel`, `h2d`, `d2h`, `cpu-task`).
    pub kind: String,
}

/// Internal storage: interned lane/kind so hot-path recording never
/// allocates a fresh `String` per interval.
#[derive(Clone)]
struct Rec {
    lane: Arc<str>,
    start: f64,
    end: f64,
    kind: Arc<str>,
}

struct TimelineInner {
    recs: Mutex<Vec<Rec>>,
    interned: Mutex<BTreeMap<String, Arc<str>>>,
}

/// A shared recorder devices append to.
#[derive(Clone)]
pub struct Timeline {
    inner: Arc<TimelineInner>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TimelineInner {
                recs: Mutex::new(Vec::new()),
                interned: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Interns a lane or kind name: allocates once per *distinct* name,
    /// returns `Arc` clones afterwards. Devices intern their lane names
    /// up front and record via [`Timeline::record_interned`].
    pub fn intern(&self, name: &str) -> Arc<str> {
        let mut table = self.inner.interned.lock();
        if let Some(a) = table.get(name) {
            return a.clone();
        }
        let a: Arc<str> = Arc::from(name);
        table.insert(name.to_string(), a.clone());
        a
    }

    /// Records one interval, interning the names (allocation-free once
    /// a name has been seen).
    pub fn record(&self, lane: &str, kind: &str, start: SimTime, end: SimTime) {
        let lane = self.intern(lane);
        let kind = self.intern(kind);
        self.record_interned(&lane, &kind, start, end);
    }

    /// Hot-path record with pre-interned names: two `Arc` clones, one
    /// vector push, no string work.
    pub fn record_interned(&self, lane: &Arc<str>, kind: &Arc<str>, start: SimTime, end: SimTime) {
        self.inner.recs.lock().push(Rec {
            lane: lane.clone(),
            start: start.as_secs_f64(),
            end: end.as_secs_f64(),
            kind: kind.clone(),
        });
    }

    /// All intervals recorded so far, sorted by `(lane, start, end)` —
    /// a canonical order independent of how device daemons interleaved
    /// their appends.
    pub fn intervals(&self) -> Vec<Interval> {
        let mut out: Vec<Interval> = self
            .inner
            .recs
            .lock()
            .iter()
            .map(|r| Interval {
                lane: r.lane.to_string(),
                start: r.start,
                end: r.end,
                kind: r.kind.to_string(),
            })
            .collect();
        out.sort_by(|a, b| {
            a.lane
                .cmp(&b.lane)
                .then_with(|| a.start.total_cmp(&b.start))
                .then_with(|| a.end.total_cmp(&b.end))
        });
        out
    }

    /// Total busy time per lane.
    pub fn busy_by_lane(&self) -> Vec<(String, f64)> {
        let mut map: BTreeMap<String, f64> = BTreeMap::new();
        for r in self.inner.recs.lock().iter() {
            *map.entry(r.lane.to_string()).or_default() += r.end - r.start;
        }
        map.into_iter().collect()
    }

    /// Returns the overlapping start-sorted neighbour pairs per lane
    /// (sharing an endpoint is not an overlap) — empty iff no two
    /// intervals on any lane overlap. Device engines are exclusive
    /// resources, so any hit is a recording bug.
    pub fn overlapping_intervals(&self) -> Vec<(Interval, Interval)> {
        let ivs = self.intervals();
        let mut bad = Vec::new();
        for w in ivs.windows(2) {
            if w[0].lane == w[1].lane && w[1].start < w[0].end - 1e-12 {
                bad.push((w[0].clone(), w[1].clone()));
            }
        }
        bad
    }

    /// Regression assert: panics (with the offending pair) if any lane
    /// carries overlapping intervals.
    pub fn assert_no_overlaps(&self) {
        let bad = self.overlapping_intervals();
        assert!(
            bad.is_empty(),
            "timeline lanes must never self-overlap; first offender: {:?}",
            bad[0]
        );
    }
}

/// Renders intervals as an ASCII Gantt chart, `width` columns wide.
/// Lanes are ordered by first appearance; overlapping intervals on one
/// lane merge visually. Interval kinds are drawn with distinct glyphs:
/// `#` kernel/cpu-task, `>` h2d, `<` d2h, `*` mixed.
pub fn render_ascii(intervals: &[Interval], width: usize) -> String {
    assert!(width >= 10);
    if intervals.is_empty() {
        return "(empty timeline)\n".to_string();
    }
    let t_end = intervals.iter().map(|i| i.end).fold(0.0, f64::max);
    let t_start = intervals.iter().map(|i| i.start).fold(f64::INFINITY, f64::min);
    let span = (t_end - t_start).max(1e-12);

    let mut lanes: Vec<String> = Vec::new();
    for iv in intervals {
        if !lanes.contains(&iv.lane) {
            lanes.push(iv.lane.clone());
        }
    }
    let name_w = lanes.iter().map(|l| l.len()).max().unwrap_or(4).max(4);

    let glyph = |kind: &str| match kind {
        "h2d" => '>',
        "d2h" => '<',
        _ => '#',
    };

    let mut out = String::new();
    out.push_str(&format!(
        "{:name_w$} |t = {:.3}ms .. {:.3}ms|\n",
        "lane",
        t_start * 1e3,
        t_end * 1e3
    ));
    for lane in &lanes {
        let mut row = vec![' '; width];
        for iv in intervals.iter().filter(|i| &i.lane == lane) {
            let a = (((iv.start - t_start) / span) * width as f64).floor() as usize;
            let b = (((iv.end - t_start) / span) * width as f64).ceil() as usize;
            let g = glyph(&iv.kind);
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width.saturating_sub(1))) {
                *cell = if *cell == ' ' || *cell == g { g } else { '*' };
            }
        }
        let row: String = row.into_iter().collect();
        out.push_str(&format!("{lane:name_w$} |{row}|\n"));
    }
    out
}

/// One cross-lane causal arrow for the Chrome-trace export: a message
/// leaving `src_lane` at `send_t` and matching a receive on `dst_lane`
/// at `recv_t`. Rendered as a flow-event pair (`ph:"s"` → `ph:"f"`)
/// anchored to two zero-ish-width slices, which trace viewers draw as
/// an arrow between the lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowArrow {
    /// Unique flow id (binds the `s` and `f` halves together).
    pub id: u64,
    /// Arrow label shown in the viewer (e.g. `msg 4096B`).
    pub name: String,
    /// Lane the message departed from.
    pub src_lane: String,
    /// Departure, virtual seconds.
    pub send_t: f64,
    /// Lane the message was received on.
    pub dst_lane: String,
    /// Receive-match, virtual seconds.
    pub recv_t: f64,
}

/// Serializes intervals in the Chrome tracing (`chrome://tracing` /
/// Perfetto) "trace event" JSON format: one complete (`X`) event per
/// interval, lanes mapped to thread names. Load the returned string from
/// a file in any trace viewer.
pub fn to_chrome_trace(intervals: &[Interval]) -> String {
    to_chrome_trace_with_flows(intervals, &[])
}

/// [`to_chrome_trace`] plus causal arrows: each [`FlowArrow`] becomes a
/// flow-start (`ph:"s"`) on the source lane and a binding flow-finish
/// (`ph:"f"`, `bp:"e"`) on the destination lane, each anchored to a
/// 1 µs `X` slice so viewers have geometry to attach the arrow to.
/// Flow lanes that carry no intervals still get thread names.
pub fn to_chrome_trace_with_flows(intervals: &[Interval], flows: &[FlowArrow]) -> String {
    /// Thread ids in order of first appearance.
    #[derive(Default)]
    struct Lanes<'a> {
        names: Vec<&'a str>,
        tids: BTreeMap<&'a str, usize>,
    }
    impl<'a> Lanes<'a> {
        fn tid(&mut self, lane: &'a str) -> usize {
            *self.tids.entry(lane).or_insert_with(|| {
                self.names.push(lane);
                self.names.len() - 1
            })
        }
    }
    let mut lanes = Lanes::default();

    let mut w = TraceWriter::default();
    for iv in intervals {
        let tid = lanes.tid(iv.lane.as_str());
        w.slice(&iv.kind, iv.start * 1e6, (iv.end - iv.start) * 1e6, tid);
    }
    for f in flows {
        let src = lanes.tid(f.src_lane.as_str());
        let dst = lanes.tid(f.dst_lane.as_str());
        let (send_us, recv_us) = (f.send_t * 1e6, f.recv_t * 1e6);
        // Anchor slices: the arrow endpoints need enclosing slices.
        w.slice(&f.name, send_us, 1.0, src);
        w.slice(&f.name, recv_us, 1.0, dst);
        w.flow_end(None, f.id, &f.name, "s", src, send_us);
        w.flow_end(Some("e"), f.id, &f.name, "f", dst, recv_us);
    }
    for (tid, lane) in lanes.names.iter().enumerate() {
        w.thread_name(lane, tid);
    }
    w.finish()
}

/// Formats the pretty-printed `{"traceEvents": [...]}` document straight
/// into one buffer — what `serde_json::to_string_pretty` renders for the
/// same events (two-space indent, members in key order), without a
/// `Value` per interval. Numbers and strings go through the bundle
/// codec's formatters.
#[derive(Default)]
struct TraceWriter {
    out: String,
}

impl TraceWriter {
    fn open(&mut self) {
        self.out.push_str(if self.out.is_empty() {
            "{\n  \"traceEvents\": [\n    {"
        } else {
            ",\n    {"
        });
    }

    /// One member of the event object being written; `first` members
    /// carry no separating comma.
    fn member(&mut self, first: bool, key: &str) -> &mut String {
        self.out.push_str(if first { "\n      \"" } else { ",\n      \"" });
        self.out.push_str(key);
        self.out.push_str("\": ");
        &mut self.out
    }

    fn tail(&mut self, name: &str, ph: &str, tid: usize) {
        write_str(self.member(false, "name"), name);
        write_str(self.member(false, "ph"), ph);
        write_f64(self.member(false, "pid"), 0.0);
        write_f64(self.member(false, "tid"), tid as f64);
    }

    /// A complete (`X`) event.
    fn slice(&mut self, name: &str, ts: f64, dur: f64, tid: usize) {
        self.open();
        write_f64(self.member(true, "dur"), dur);
        self.tail(name, "X", tid);
        write_f64(self.member(false, "ts"), ts);
        self.out.push_str("\n    }");
    }

    /// One half of a flow arrow (`ph` `s` or `f`; the finish binds with
    /// `bp`).
    fn flow_end(&mut self, bp: Option<&str>, id: u64, name: &str, ph: &str, tid: usize, ts: f64) {
        self.open();
        if let Some(bp) = bp {
            write_str(self.member(true, "bp"), bp);
        }
        write_str(self.member(bp.is_none(), "cat"), "flow");
        write_f64(self.member(false, "id"), id as f64);
        self.tail(name, ph, tid);
        write_f64(self.member(false, "ts"), ts);
        self.out.push_str("\n    }");
    }

    /// Thread-name metadata for one lane.
    fn thread_name(&mut self, lane: &str, tid: usize) {
        self.open();
        self.member(true, "args").push_str("{\n        \"name\": ");
        write_str(&mut self.out, lane);
        self.out.push_str("\n      }");
        self.tail("thread_name", "M", tid);
        self.out.push_str("\n    }");
    }

    fn finish(mut self) -> String {
        if self.out.is_empty() {
            return "{\n  \"traceEvents\": []\n}".to_string();
        }
        self.out.push_str("\n  ]\n}");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lane: &str, kind: &str, start: f64, end: f64) -> Interval {
        Interval {
            lane: lane.into(),
            start,
            end,
            kind: kind.into(),
        }
    }

    #[test]
    fn record_and_read_back() {
        let t = Timeline::new();
        t.record("gpu", "kernel", SimTime::ZERO, SimTime::from_secs(1));
        t.record("gpu", "h2d", SimTime::from_secs(1), SimTime::from_secs(2));
        let ivs = t.intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].kind, "kernel");
        assert_eq!(ivs[1].end, 2.0);
    }

    #[test]
    fn busy_by_lane_sums() {
        let t = Timeline::new();
        t.record("a", "kernel", SimTime::ZERO, SimTime::from_secs(1));
        t.record("a", "kernel", SimTime::from_secs(2), SimTime::from_secs(3));
        t.record("b", "h2d", SimTime::ZERO, SimTime::from_secs(5));
        let busy = t.busy_by_lane();
        assert_eq!(busy, vec![("a".to_string(), 2.0), ("b".to_string(), 5.0)]);
    }

    #[test]
    fn ascii_render_shows_all_lanes_and_glyphs() {
        let ivs = vec![
            iv("gpu-compute", "kernel", 0.5, 1.0),
            iv("gpu-copy", "h2d", 0.0, 0.5),
            iv("cpu", "cpu-task", 0.0, 1.0),
        ];
        let s = render_ascii(&ivs, 40);
        assert!(s.contains("gpu-compute"));
        assert!(s.contains("gpu-copy"));
        assert!(s.contains('#'));
        assert!(s.contains('>'));
        // CPU row fully busy: a long run of '#'.
        let cpu_line = s.lines().find(|l| l.starts_with("cpu ")).unwrap();
        assert!(cpu_line.matches('#').count() > 30);
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        assert!(render_ascii(&[], 40).contains("empty"));
    }

    #[test]
    fn intervals_sorted_by_lane_then_start() {
        let t = Timeline::new();
        t.record("b", "kernel", SimTime::from_secs(5), SimTime::from_secs(6));
        t.record("a", "kernel", SimTime::from_secs(3), SimTime::from_secs(4));
        t.record("a", "kernel", SimTime::from_secs(1), SimTime::from_secs(2));
        let ivs = t.intervals();
        let order: Vec<(&str, f64)> = ivs.iter().map(|i| (i.lane.as_str(), i.start)).collect();
        assert_eq!(order, vec![("a", 1.0), ("a", 3.0), ("b", 5.0)]);
    }

    #[test]
    fn interning_reuses_one_allocation_per_name() {
        let t = Timeline::new();
        let a = t.intern("node0-gpu0-compute");
        let b = t.intern("node0-gpu0-compute");
        assert!(Arc::ptr_eq(&a, &b));
        let k = t.intern("kernel");
        t.record_interned(&a, &k, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(t.intervals()[0].lane, "node0-gpu0-compute");
    }

    #[test]
    fn overlap_detection_flags_only_true_overlaps() {
        let t = Timeline::new();
        // Touching endpoints and different lanes are fine.
        t.record("a", "kernel", SimTime::ZERO, SimTime::from_secs(1));
        t.record("a", "kernel", SimTime::from_secs(1), SimTime::from_secs(2));
        t.record("b", "kernel", SimTime::ZERO, SimTime::from_secs(2));
        assert!(t.overlapping_intervals().is_empty());
        t.assert_no_overlaps();
        // A genuine overlap on one lane is caught.
        t.record("a", "kernel", SimTime::from_secs_f64(1.5), SimTime::from_secs(3));
        assert_eq!(t.overlapping_intervals().len(), 1);
    }

    #[test]
    fn shared_clone_records_to_same_store() {
        let t = Timeline::new();
        let t2 = t.clone();
        t2.record("x", "kernel", SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(t.intervals().len(), 1);
    }

    #[test]
    fn chrome_trace_has_events_and_lane_names() {
        let ivs = vec![
            iv("gpu-compute", "kernel", 0.001, 0.002),
            iv("cpu", "cpu-task", 0.0, 0.003),
        ];
        let json = to_chrome_trace(&ivs);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // 2 X events + 2 thread_name metadata events.
        assert_eq!(events.len(), 4);
        let x: Vec<_> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(x.len(), 2);
        assert_eq!(x[0]["ts"], 1000.0);
        assert_eq!(x[0]["dur"], 1000.0);
        assert!(json.contains("gpu-compute"));
    }

    #[test]
    fn chrome_trace_flows_emit_paired_s_f_events_with_anchors() {
        let ivs = vec![iv("net-rank0", "net-send", 0.0, 0.001)];
        let flows = vec![FlowArrow {
            id: 42,
            name: "msg 64B".into(),
            src_lane: "net-rank0".into(),
            send_t: 0.001,
            dst_lane: "net-rank1".into(),
            recv_t: 0.002,
        }];
        let json = to_chrome_trace_with_flows(&ivs, &flows);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // 1 interval X + 2 anchor X + s + f + 2 thread_name.
        assert_eq!(events.len(), 7);
        let s: Vec<_> = events.iter().filter(|e| e["ph"] == "s").collect();
        let f: Vec<_> = events.iter().filter(|e| e["ph"] == "f").collect();
        assert_eq!((s.len(), f.len()), (1, 1));
        assert_eq!(s[0]["id"], f[0]["id"]);
        assert_eq!(s[0]["ts"].as_f64(), Some(1000.0));
        assert_eq!(f[0]["ts"].as_f64(), Some(2000.0));
        assert_eq!(f[0]["bp"], "e");
        // The destination lane has no interval, but still gets a name.
        assert!(json.contains("net-rank1"));
        // tids differ: the arrow spans two lanes.
        assert_ne!(s[0]["tid"], f[0]["tid"]);
    }

    #[test]
    fn chrome_trace_of_empty_timeline_is_valid_json() {
        let doc: serde_json::Value = serde_json::from_str(&to_chrome_trace(&[])).unwrap();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 0);
    }

    /// The `Value`-tree rendering the direct writer replaced, kept as its
    /// oracle.
    fn chrome_trace_via_value(intervals: &[Interval], flows: &[FlowArrow]) -> String {
        fn lane_tid<'a>(lanes: &mut Vec<&'a str>, lane: &'a str) -> usize {
            match lanes.iter().position(|l| *l == lane) {
                Some(i) => i,
                None => {
                    lanes.push(lane);
                    lanes.len() - 1
                }
            }
        }
        let mut lanes: Vec<&str> = Vec::new();
        let mut events = Vec::new();
        for iv in intervals {
            let tid = lane_tid(&mut lanes, iv.lane.as_str());
            events.push(serde_json::json!({
                "name": iv.kind, "ph": "X", "ts": iv.start * 1e6,
                "dur": (iv.end - iv.start) * 1e6, "pid": 0, "tid": tid,
            }));
        }
        for f in flows {
            let src = lane_tid(&mut lanes, f.src_lane.as_str());
            let dst = lane_tid(&mut lanes, f.dst_lane.as_str());
            let (send_us, recv_us) = (f.send_t * 1e6, f.recv_t * 1e6);
            events.push(serde_json::json!({
                "name": f.name, "ph": "X", "ts": send_us, "dur": 1.0, "pid": 0, "tid": src,
            }));
            events.push(serde_json::json!({
                "name": f.name, "ph": "X", "ts": recv_us, "dur": 1.0, "pid": 0, "tid": dst,
            }));
            events.push(serde_json::json!({
                "name": f.name, "cat": "flow", "ph": "s", "id": f.id,
                "ts": send_us, "pid": 0, "tid": src,
            }));
            events.push(serde_json::json!({
                "name": f.name, "cat": "flow", "ph": "f", "bp": "e", "id": f.id,
                "ts": recv_us, "pid": 0, "tid": dst,
            }));
        }
        for (tid, lane) in lanes.iter().enumerate() {
            events.push(serde_json::json!({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": lane},
            }));
        }
        serde_json::to_string_pretty(&serde_json::json!({ "traceEvents": events })).unwrap()
    }

    #[test]
    fn chrome_trace_writer_matches_the_value_rendering_byte_for_byte() {
        let arrow = |id: u64, name: &str, src: &str, send_t: f64, dst: &str, recv_t: f64| FlowArrow {
            id,
            name: name.into(),
            src_lane: src.into(),
            send_t,
            dst_lane: dst.into(),
            recv_t,
        };
        let intervals = [
            iv("node0-gpu0-compute", "kernel", 0.07, 0.0712345678),
            iv("node0-cpu-c0", "cpu-task", -0.0, 1e10),
            iv("node0-gpu0-compute", "h2d", 5e-324, f64::MAX),
            iv("lane \"q\" \\ \n\t\u{1}é", "kind\u{1f}/", f64::NAN, f64::INFINITY),
            iv("node0-cpu-c0", "", 1.0 / 3.0, 0.5),
        ];
        let flows = [
            arrow(7, "msg 4096B", "net-rank0", 0.1, "net-rank1", 0.2),
            arrow(u64::MAX, "msg \"x\"", "node0-cpu-c0", 1e9, "only-in-flows", f64::NEG_INFINITY),
            arrow(1 << 53, "", "net-rank1", 123456.789, "net-rank0", 1e15),
        ];
        for (ivs, fls) in [
            (&intervals[..0], &flows[..0]),
            (&intervals[..], &flows[..0]),
            (&intervals[..0], &flows[..]),
            (&intervals[..], &flows[..]),
        ] {
            assert_eq!(
                to_chrome_trace_with_flows(ivs, fls),
                chrome_trace_via_value(ivs, fls)
            );
        }
    }
}
