//! `prs top` — a deterministic terminal dashboard over an `--obs`
//! bundle, replayed in *virtual* time.
//!
//! The renderer is a pure function of `(events, decisions, t, window)`:
//! given the same bundle and the same snapshot instant it produces
//! byte-identical text, which is what the suite's snapshot test pins.
//! The binary drives it either once (`--snapshot <t>`) or over a series
//! of evenly spaced virtual instants (replay mode).

use insight::TraceEvent;
use obs::rollup::{rollup, RollupConfig};
use obs::{is_device_lane, kinds, lane_node, DecisionRecord, EventView};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Width of the utilization bars.
const BAR_W: usize = 24;

/// One event as an observer at some virtual instant sees it: the event
/// itself, borrowed, with a span that is still running clamped to the
/// instant (its remaining duration is the future).
struct Seen<'a> {
    event: &'a TraceEvent,
    dur: Option<f64>,
}

impl EventView for Seen<'_> {
    fn t(&self) -> f64 {
        self.event.t
    }
    fn dur(&self) -> Option<f64> {
        self.dur
    }
    fn lane(&self) -> &str {
        &self.event.lane
    }
    fn kind(&self) -> &str {
        &self.event.kind
    }
    fn iter(&self) -> Option<u64> {
        self.event.iter
    }
    fn attr(&self, key: &str) -> Option<f64> {
        self.event.attr(key)
    }
    fn each_attr(&self, f: &mut dyn FnMut(&str, f64)) {
        self.event.each_attr(f)
    }
}

/// The event stream as an observer at virtual time `t` has seen it, in
/// the stream's order: events starting later are absent, and nothing is
/// copied but the clamped durations.
fn visible_at<'a>(events: impl IntoIterator<Item = &'a TraceEvent>, t: f64) -> Vec<Seen<'a>> {
    events
        .into_iter()
        .filter(|e| e.t <= t)
        .map(|e| Seen {
            event: e,
            dur: e.dur.map(|d| d.min(t - e.t)),
        })
        .collect()
}

fn bar(frac: f64) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * BAR_W as f64).round() as usize;
    let mut s = String::with_capacity(BAR_W);
    for i in 0..BAR_W {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// A bundle prepared for replay: what every frame needs and no instant
/// changes (the horizon, each node's device lanes, whether the run was
/// elastic) is worked out once, so a multi-frame replay pays per frame
/// only for what the observer at that instant has seen.
pub struct Replay<'a> {
    events: &'a [TraceEvent],
    /// `events` in the watchdog's canonical order, sorted once: what an
    /// observer has seen by some instant is a prefix of it, so every
    /// frame hands the watchdog a stream that is already in order.
    ranked: Vec<&'a TraceEvent>,
    decisions: &'a [DecisionRecord],
    captures: &'a BTreeMap<u64, String>,
    horizon: f64,
    /// Distinct device lanes per worker node, over the whole run.
    node_lanes: BTreeMap<u64, usize>,
    elastic: bool,
}

impl<'a> Replay<'a> {
    /// Prepares `events` (in any order) for [`Self::frame`]. `captures`
    /// links a `--record`'ed bundle's incidents to their
    /// `capture-<id>.jsonl` artifacts.
    pub fn new(
        events: &'a [TraceEvent],
        decisions: &'a [DecisionRecord],
        captures: &'a BTreeMap<u64, String>,
    ) -> Self {
        let mut device_lanes: BTreeSet<&str> = BTreeSet::new();
        for e in events {
            if is_device_lane(&e.lane) {
                device_lanes.insert(&e.lane);
            }
        }
        let mut node_lanes: BTreeMap<u64, usize> = BTreeMap::new();
        for lane in device_lanes {
            if let Some(n) = lane_node(lane) {
                *node_lanes.entry(n).or_default() += 1;
            }
        }
        let mut ranked: Vec<&TraceEvent> = events.iter().collect();
        ranked.sort_by(|a, b| watch::canonical_cmp(*a, *b));
        Replay {
            events,
            ranked,
            decisions,
            captures,
            horizon: events.iter().map(|e| e.end()).fold(0.0, f64::max),
            node_lanes,
            elastic: events.iter().any(|e| e.lane == "membership"),
        }
    }

    /// Latest event end, virtual seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Renders one dashboard frame at virtual instant `t`, each section
    /// from what an observer at `t` has seen: a header with the virtual
    /// clock; per-node device-lane gauges (busy fraction over the trailing
    /// `window` seconds); the cluster rollup table (windowed utilization,
    /// queue depth, bytes in flight, straggler lag); messages currently on
    /// the wire; the membership lane of an elastic run; the watchdog's
    /// alert lane, marking incidents the flight recorder captured; and the
    /// blame verdict of the last iteration that finished by `t`.
    pub fn frame(&self, t: f64, window: f64) -> String {
        let seen = visible_at(self.events, t);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "prs top — virtual t = {t:.6}s / horizon {:.6}s  ({} of {} events)",
            self.horizon,
            seen.len(),
            self.events.len()
        );
        self.node_gauges(&mut out, &seen, t, window);
        self.rollup_table(&mut out, &seen, t);
        wire(&mut out, &seen);
        // Only elastic bundles emit the `membership` lane, so
        // fixed-cluster frames render byte-identically without it.
        if self.elastic {
            membership(&mut out, &seen);
        }
        self.alert_lane(&mut out, t);
        blame(&mut out, &seen, t);
        out
    }

    /// Per-node device gauges: busy fraction over the trailing window.
    fn node_gauges(&self, out: &mut String, seen: &[Seen], t: f64, window: f64) {
        if self.node_lanes.is_empty() {
            return;
        }
        let w0 = (t - window).max(0.0);
        let mut node_busy: BTreeMap<u64, f64> = BTreeMap::new();
        for e in seen {
            if !is_device_lane(e.lane()) || e.dur.is_none() {
                continue;
            }
            if let Some(n) = lane_node(e.lane()) {
                *node_busy.entry(n).or_insert(0.0) += e.overlap(w0, t);
            }
        }
        let _ = writeln!(out, "\nnode lanes (busy over trailing {window:.6}s):");
        let span = (t - w0).max(1e-12);
        for (n, lanes) in &self.node_lanes {
            let busy = node_busy.get(n).copied().unwrap_or(0.0);
            let frac = busy / (span * *lanes as f64);
            let _ = writeln!(
                out,
                "  node{n:<2} [{}] {:>5.1}%  ({} device lanes)",
                bar(frac),
                frac * 100.0,
                lanes
            );
        }
    }

    /// The cluster rollup table over everything seen so far.
    fn rollup_table(&self, out: &mut String, seen: &[Seen], t: f64) {
        let cfg = RollupConfig::auto(t.max(1e-9));
        let roll = rollup(seen, self.decisions, &cfg);
        let _ = writeln!(
            out,
            "\ncluster rollup (window {:.6}s, {} device lanes, {} nodes):",
            roll.window_secs, roll.device_lanes, roll.nodes
        );
        let _ = writeln!(
            out,
            "  {:>3}  {:>10}  {:>6}  {:>6}  {:>12}  {:>10}  {:>10}",
            "w", "t0", "util", "queue", "inflight_B", "lag_s", "mispredict"
        );
        for w in &roll.windows {
            let _ = writeln!(
                out,
                "  {:>3}  {:>10.6}  {:>5.1}%  {:>6.0}  {:>12.0}  {:>10.6}  {:>10.4}",
                w.index,
                w.t0,
                w.device_util * 100.0,
                w.queue_depth_peak,
                w.net_inflight_bytes,
                w.straggler_lag_secs,
                w.mispredict
            );
        }
    }

    /// The alert lane: the watchdog's verdict over everything seen so far,
    /// with a marker on each incident the flight recorder captured.
    fn alert_lane(&self, out: &mut String, t: f64) {
        let ranked = visible_at(self.ranked.iter().copied(), t);
        let watched = watch::watch(&ranked, self.decisions, &watch::WatchConfig::default());
        let firing: Vec<_> = watched
            .incidents
            .iter()
            .filter(|inc| inc.t_detect <= t)
            .collect();
        if firing.is_empty() {
            let _ = writeln!(out, "\nalerts: none firing");
            return;
        }
        let _ = writeln!(
            out,
            "\nalerts: {} alert(s) in {} incident(s):",
            watched.alerts.len(),
            firing.len()
        );
        for inc in &firing {
            let marker = self
                .captures
                .get(&(inc.id as u64))
                .map(|c| format!("  * {c}.jsonl"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  [{}] #{} {} on {} since t={:.6} ({}){marker}",
                inc.severity.as_str(),
                inc.id,
                inc.kind.as_str(),
                inc.nodes_label(),
                inc.t_detect,
                inc.blame.as_str()
            );
        }
    }
}

/// Messages on the wire: sends seen whose recv is in the future. Every
/// flow paired from `seen` was received by the frame's instant.
fn wire(out: &mut String, seen: &[Seen]) {
    let flows = insight::pair_flows(seen);
    let delivered: BTreeSet<u64> = flows.iter().map(|f| f.id).collect();
    let inflight: Vec<_> = seen
        .iter()
        .filter(|e| e.kind() == kinds::MSG_SEND)
        .filter_map(|e| e.attr("flow").map(|f| (f as u64, e.attr("bytes").unwrap_or(0.0))))
        .filter(|(id, _)| !delivered.contains(id))
        .collect();
    let inflight_bytes: f64 = inflight.iter().map(|(_, b)| b).sum::<f64>().max(0.0);
    let _ = writeln!(
        out,
        "\nwire: {} flow(s) delivered, {} in flight ({inflight_bytes:.0} B)",
        flows.len(),
        inflight.len()
    );
}

/// The elastic membership lane: cluster size at the frame's instant plus
/// the transition ledger seen so far.
fn membership(out: &mut String, seen: &[Seen]) {
    let memb: Vec<&Seen> = seen.iter().filter(|e| e.lane() == "membership").collect();
    let size = memb
        .iter()
        .filter(|e| e.kind() == kinds::CLUSTER_SIZE)
        .max_by(|a, b| a.t().total_cmp(&b.t()))
        .and_then(|e| e.attr("n"));
    let count = |kind: &str| memb.iter().filter(|e| e.kind() == kind).count();
    let [joins, drains, evicts, handoffs] = kinds::MEMBERSHIP.map(count);
    let _ = writeln!(
        out,
        "\ncluster size: {}  (joins {joins}, drains {drains}, evicts {evicts}, handoffs {handoffs})",
        size.map(|n| format!("{n:.0} node(s)")).unwrap_or_else(|| "?".to_string()),
    );
    for e in memb.iter().filter(|e| e.kind() != kinds::CLUSTER_SIZE) {
        let node = e.attr("node").map(|n| format!(" node{n:.0}")).unwrap_or_default();
        let _ = writeln!(out, "  t={:.6} {}{}", e.t(), e.kind(), node);
    }
}

/// The blame verdict of the last iteration completed by `t`.
fn blame(out: &mut String, seen: &[Seen], t: f64) {
    let analysis = insight::analyze_view(seen);
    match analysis.iterations.iter().rev().find(|it| it.end <= t) {
        Some(it) => {
            let _ = writeln!(
                out,
                "blame: iter {} -> {} (critical node {}, comm {:.6}s / compute {:.6}s)",
                it.index,
                it.blame.as_str(),
                it.critical_node,
                it.comm_secs,
                it.compute_secs
            );
        }
        None => {
            let _ = writeln!(out, "blame: (no iteration completed yet)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render_frame(events: &[TraceEvent], decisions: &[DecisionRecord], t: f64, w: f64) -> String {
        Replay::new(events, decisions, &BTreeMap::new()).frame(t, w)
    }

    fn ev(lane: &str, kind: &str, t: f64, dur: Option<f64>, iter: Option<u64>) -> TraceEvent {
        TraceEvent {
            t,
            dur,
            lane: lane.into(),
            kind: kind.into(),
            iter,
            part: None,
            block: None,
            attrs: obs::Attrs::new(),
        }
    }

    fn sample() -> Vec<TraceEvent> {
        let mut send = ev("net-rank0", "msg-send", 0.05, None, Some(0));
        send.attrs.insert("flow".into(), 7.0);
        send.attrs.insert("bytes".into(), 512.0);
        let mut recv = ev("net-rank1", "msg-recv", 0.4, None, Some(0));
        recv.attrs.insert("flow".into(), 7.0);
        vec![
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(0.3), Some(0)),
            ev("node1-cpu-c0", "cpu-task", 0.0, Some(0.1), Some(0)),
            ev("node0-sched", "map", 0.0, Some(0.3), Some(0)),
            ev("node1-sched", "map", 0.0, Some(0.1), Some(0)),
            send,
            recv,
        ]
    }

    #[test]
    fn frame_is_deterministic_and_mentions_every_section() {
        let events = sample();
        let a = render_frame(&events, &[], 0.2, 0.5);
        let b = render_frame(&events, &[], 0.2, 0.5);
        assert_eq!(a, b);
        assert!(a.contains("prs top — virtual t = 0.200000s"));
        assert!(a.contains("node0"));
        assert!(a.contains("cluster rollup"));
        assert!(a.contains("alerts:"), "alert lane missing:\n{a}");
        assert!(a.contains("1 in flight (512 B)"), "recv at 0.4 is the future:\n{a}");
    }

    #[test]
    fn straggling_node_lights_the_alert_lane() {
        // node0 runs 4x slower than node1 across many tasks.
        let mut events = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.1;
            let mut slow = ev("node0-cpu-c0", "cpu-task", t, Some(0.2), Some(0));
            slow.attrs.insert("flops".into(), 1e9);
            let mut fast = ev("node1-cpu-c0", "cpu-task", t, Some(0.05), Some(0));
            fast.attrs.insert("flops".into(), 1e9);
            events.push(slow);
            events.push(fast);
        }
        let frame = render_frame(&events, &[], 2.5, 0.5);
        assert!(frame.contains("cpu-slowdown on node0"), "{frame}");
        assert!(!frame.contains("alerts: none firing"), "{frame}");
    }

    #[test]
    fn captured_incident_carries_a_marker_in_the_alert_lane() {
        // Same straggler scenario; the bundle links incident 0 to its
        // flight-recorder capture, so the alert row names the artifact.
        let mut events = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.1;
            let mut slow = ev("node0-cpu-c0", "cpu-task", t, Some(0.2), Some(0));
            slow.attrs.insert("flops".into(), 1e9);
            let mut fast = ev("node1-cpu-c0", "cpu-task", t, Some(0.05), Some(0));
            fast.attrs.insert("flops".into(), 1e9);
            events.push(slow);
            events.push(fast);
        }
        let mut captures = BTreeMap::new();
        captures.insert(0, "capture-0".to_string());
        let frame = Replay::new(&events, &[], &captures).frame(2.5, 0.5);
        assert!(frame.contains("* capture-0.jsonl"), "{frame}");
        // Without links the frame carries no marker.
        assert!(!render_frame(&events, &[], 2.5, 0.5).contains("capture-0.jsonl"));
    }

    #[test]
    fn membership_lane_renders_only_on_elastic_bundles() {
        let plain = render_frame(&sample(), &[], 0.2, 0.5);
        assert!(!plain.contains("cluster size:"), "fixed-cluster frame grew a lane:\n{plain}");

        let mut events = sample();
        let mut size0 = ev("membership", "cluster-size", 0.0, None, None);
        size0.attrs.insert("n".into(), 2.0);
        let mut drain = ev("membership", "drain", 0.15, None, None);
        drain.attrs.insert("node".into(), 1.0);
        let mut size1 = ev("membership", "cluster-size", 0.15, None, None);
        size1.attrs.insert("n".into(), 1.0);
        events.extend([size0, drain, size1]);

        let frame = render_frame(&events, &[], 0.2, 0.5);
        assert!(
            frame.contains("cluster size: 1 node(s)  (joins 0, drains 1, evicts 0, handoffs 0)"),
            "{frame}"
        );
        assert!(frame.contains("t=0.150000 drain node1"), "{frame}");

        // Before the drain the observer still sees the original size.
        let early = render_frame(&events, &[], 0.1, 0.5);
        assert!(early.contains("cluster size: 2 node(s)"), "{early}");
    }

    #[test]
    fn snapshot_past_the_recv_shows_the_flow_delivered() {
        let events = sample();
        let s = render_frame(&events, &[], 0.5, 0.5);
        assert!(s.contains("1 flow(s) delivered, 0 in flight"), "{s}");
    }

    #[test]
    fn truncation_clamps_running_spans() {
        let events = vec![ev("node0-cpu-c0", "cpu-task", 0.0, Some(10.0), Some(0))];
        let seen = visible_at(&events, 1.0);
        assert_eq!(seen[0].dur, Some(1.0));
    }
}
