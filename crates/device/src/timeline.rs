//! Drawing device busy time: the devices record each kernel, transfer
//! and CPU task as a profiler stack frame ([`simtime::StackCtx`]) under
//! one of the [`obs::kinds::DEVICE`] kinds, and [`render_ascii`] draws
//! those frames as the classic runtime-paper Gantt chart — the quickest
//! way to see whether transfers overlap compute and whether the CPU and
//! GPU finish together (Equation (4)'s balance, visually).
//! [`to_chrome_trace`] writes the same frames for a trace viewer.

use obs::jsonl::{write_f64, write_str};
use obs::kinds;
use simtime::StackFrame;
use std::collections::BTreeMap;
use std::io;

/// The overlapping start-sorted neighbour pairs per lane (sharing an
/// endpoint is not an overlap) — empty iff no two frames on any lane
/// overlap. Device engines are exclusive resources, so any hit is a
/// recording bug.
#[cfg(test)]
pub(crate) fn overlapping_frames(frames: &[StackFrame]) -> Vec<(StackFrame, StackFrame)> {
    let mut sorted = frames.to_vec();
    sorted.sort_by(|a, b| a.lane.cmp(&b.lane).then(a.t0.total_cmp(&b.t0)));
    sorted
        .windows(2)
        .filter(|w| w[0].lane == w[1].lane && w[1].t0 < w[0].t1 - 1e-12)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect()
}

/// Renders frames as an ASCII Gantt chart, `width` columns wide. Lanes
/// are ordered by first appearance; overlapping frames on one lane merge
/// visually. Frame kinds are drawn with distinct glyphs: `#`
/// kernel/cpu-task, `>` h2d, `<` d2h, `*` mixed.
pub fn render_ascii(frames: &[StackFrame], width: usize) -> String {
    assert!(width >= 10);
    if frames.is_empty() {
        return "(empty timeline)\n".to_string();
    }
    let t_end = frames.iter().map(|f| f.t1).fold(0.0, f64::max);
    let t_start = frames.iter().map(|f| f.t0).fold(f64::INFINITY, f64::min);
    let span = (t_end - t_start).max(1e-12);

    let mut lanes: Vec<&str> = Vec::new();
    for f in frames {
        if !lanes.contains(&&*f.lane) {
            lanes.push(&f.lane);
        }
    }
    let name_w = lanes.iter().map(|l| l.len()).max().unwrap_or(4).max(4);

    let glyph = |kind: &str| match kind {
        kinds::H2D => '>',
        kinds::D2H => '<',
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
        for f in frames.iter().filter(|f| &*f.lane == *lane) {
            let a = (((f.t0 - t_start) / span) * width as f64).floor() as usize;
            let b = (((f.t1 - t_start) / span) * width as f64).ceil() as usize;
            let g = glyph(&f.frame);
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

/// Serializes frames in the Chrome tracing (`chrome://tracing` /
/// Perfetto) "trace event" JSON format: one complete (`X`) event per
/// frame, lanes mapped to thread names. Load the returned string from a
/// file in any trace viewer.
pub fn to_chrome_trace(frames: &[StackFrame]) -> String {
    to_chrome_trace_with_flows(frames, &[])
}

/// [`to_chrome_trace`] plus causal arrows: each [`FlowArrow`] becomes a
/// flow-start (`ph:"s"`) on the source lane and a binding flow-finish
/// (`ph:"f"`, `bp:"e"`) on the destination lane, each anchored to a
/// 1 µs `X` slice so viewers have geometry to attach the arrow to.
/// Flow lanes that carry no frames still get thread names.
pub fn to_chrome_trace_with_flows(frames: &[StackFrame], flows: &[FlowArrow]) -> String {
    let mut out = Vec::new();
    write_chrome_trace_with_flows(frames, flows, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("trace events are UTF-8")
}

/// [`to_chrome_trace_with_flows`], written to `out` one event at a time:
/// nothing holds more of the document than the event being formatted.
pub fn write_chrome_trace_with_flows(
    frames: &[StackFrame],
    flows: &[FlowArrow],
    out: &mut dyn io::Write,
) -> io::Result<()> {
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

    let mut w = TraceWriter {
        out,
        buf: String::new(),
        started: false,
    };
    for f in frames {
        let tid = lanes.tid(&f.lane);
        w.slice(&f.frame, f.t0 * 1e6, (f.t1 - f.t0) * 1e6, tid)?;
    }
    for f in flows {
        let src = lanes.tid(f.src_lane.as_str());
        let dst = lanes.tid(f.dst_lane.as_str());
        let (send_us, recv_us) = (f.send_t * 1e6, f.recv_t * 1e6);
        // Anchor slices: the arrow endpoints need enclosing slices.
        w.slice(&f.name, send_us, 1.0, src)?;
        w.slice(&f.name, recv_us, 1.0, dst)?;
        w.flow_end(None, f.id, &f.name, "s", src, send_us)?;
        w.flow_end(Some("e"), f.id, &f.name, "f", dst, recv_us)?;
    }
    for (tid, lane) in lanes.names.iter().enumerate() {
        w.thread_name(lane, tid)?;
    }
    w.finish()
}

/// Formats the pretty-printed `{"traceEvents": [...]}` document event by
/// event — what `serde_json::to_string_pretty` renders for the same
/// events (two-space indent, members in key order), without a `Value`
/// per frame. Numbers and strings go through the bundle codec's
/// formatters.
struct TraceWriter<'w> {
    out: &'w mut dyn io::Write,
    /// The event being formatted.
    buf: String,
    /// Whether an event has been written.
    started: bool,
}

impl TraceWriter<'_> {
    fn open(&mut self) {
        self.buf.push_str(if self.started {
            ",\n    {"
        } else {
            "{\n  \"traceEvents\": [\n    {"
        });
        self.started = true;
    }

    /// Closes the event and writes it out.
    fn close(&mut self) -> io::Result<()> {
        self.buf.push_str("\n    }");
        self.out.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }

    /// One member of the event object being written; `first` members
    /// carry no separating comma.
    fn member(&mut self, first: bool, key: &str) -> &mut String {
        self.buf.push_str(if first { "\n      \"" } else { ",\n      \"" });
        self.buf.push_str(key);
        self.buf.push_str("\": ");
        &mut self.buf
    }

    fn tail(&mut self, name: &str, ph: &str, tid: usize) {
        write_str(self.member(false, "name"), name);
        write_str(self.member(false, "ph"), ph);
        write_f64(self.member(false, "pid"), 0.0);
        write_f64(self.member(false, "tid"), tid as f64);
    }

    /// A complete (`X`) event.
    fn slice(&mut self, name: &str, ts: f64, dur: f64, tid: usize) -> io::Result<()> {
        self.open();
        write_f64(self.member(true, "dur"), dur);
        self.tail(name, "X", tid);
        write_f64(self.member(false, "ts"), ts);
        self.close()
    }

    /// One half of a flow arrow (`ph` `s` or `f`; the finish binds with
    /// `bp`).
    fn flow_end(
        &mut self,
        bp: Option<&str>,
        id: u64,
        name: &str,
        ph: &str,
        tid: usize,
        ts: f64,
    ) -> io::Result<()> {
        self.open();
        if let Some(bp) = bp {
            write_str(self.member(true, "bp"), bp);
        }
        write_str(self.member(bp.is_none(), "cat"), "flow");
        write_f64(self.member(false, "id"), id as f64);
        self.tail(name, ph, tid);
        write_f64(self.member(false, "ts"), ts);
        self.close()
    }

    /// Thread-name metadata for one lane.
    fn thread_name(&mut self, lane: &str, tid: usize) -> io::Result<()> {
        self.open();
        self.member(true, "args").push_str("{\n        \"name\": ");
        write_str(&mut self.buf, lane);
        self.buf.push_str("\n      }");
        self.tail("thread_name", "M", tid);
        self.close()
    }

    fn finish(self) -> io::Result<()> {
        self.out.write_all(if self.started {
            b"\n  ]\n}"
        } else {
            b"{\n  \"traceEvents\": []\n}"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lane: &str, kind: &str, t0: f64, t1: f64) -> StackFrame {
        StackFrame {
            lane: lane.into(),
            frame: kind.into(),
            t0,
            t1,
        }
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
    fn overlap_detection_flags_only_true_overlaps() {
        // Touching endpoints and different lanes are fine, in any order.
        let mut frames = vec![
            iv("a", "kernel", 1.0, 2.0),
            iv("b", "kernel", 0.0, 2.0),
            iv("a", "kernel", 0.0, 1.0),
        ];
        assert!(overlapping_frames(&frames).is_empty());
        // A genuine overlap on one lane is caught.
        frames.push(iv("a", "kernel", 1.5, 3.0));
        assert_eq!(overlapping_frames(&frames).len(), 1);
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
    fn chrome_trace_via_value(frames: &[StackFrame], flows: &[FlowArrow]) -> String {
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
        for f in frames {
            let tid = lane_tid(&mut lanes, &f.lane);
            events.push(serde_json::json!({
                "name": &*f.frame, "ph": "X", "ts": f.t0 * 1e6,
                "dur": (f.t1 - f.t0) * 1e6, "pid": 0, "tid": tid,
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
