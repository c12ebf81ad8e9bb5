//! Cluster health rollups: deterministic windowed aggregation of the
//! per-node event stream into cluster-level series.
//!
//! Per-node spans and counters answer "what did node 2 do"; a scheduler
//! (or an operator watching `prs top`) needs the *cluster* view — how
//! busy is the fleet, how deep are the queues, how many bytes are on the
//! wire, how far behind is the slowest node, and how wrong was the
//! analytic model. [`rollup`] folds the event stream into fixed-width
//! virtual-time windows and computes exactly those five series. Because
//! inputs (a seeded run's events and decisions) are deterministic and
//! every fold is order-independent, `rollup.jsonl` is byte-identical
//! across reruns — the golden tests diff it directly.
//!
//! Window semantics: the horizon `[0, trace_end]` is cut into
//! `ceil(end / w)` half-open windows `[k·w, (k+1)·w)`; the last window
//! is truncated at the horizon. Spans contribute to a window by overlap;
//! point events belong to the window containing their timestamp.

use crate::audit::DecisionRecord;
use crate::bus::Event;
use crate::is_device_lane;
use crate::jsonl::EventRecord;
use crate::kinds;
use crate::metrics::MetricsRegistry;
use crate::name::Name;
use serde::Value;
use std::collections::BTreeMap;

/// Schema tag stamped into the `rollup.jsonl` meta line.
pub const ROLLUP_SCHEMA: &str = "prs-rollup-v1";

/// Read access to one span or point event, whoever owns it. The
/// aggregations over an event stream ([`rollup`], the watchdog, the
/// critical-path analysis) are written against this trait, so a parsed
/// `events.jsonl`, a live bus snapshot and a clamped "as seen at time
/// t" view all feed them without being copied into a common struct.
pub trait EventView {
    /// Start time, virtual seconds.
    fn t(&self) -> f64;
    /// Span duration; `None` for point events.
    fn dur(&self) -> Option<f64>;
    /// Lane name (`node0-cpu-c1`, `net-rank2`, `master`, ...).
    fn lane(&self) -> &str;
    /// Event kind (`cpu-task`, `kernel`, `msg-send`, ...).
    fn kind(&self) -> &str;
    /// Outer iteration tag, if any.
    fn iter(&self) -> Option<u64>;
    /// Looks up a numeric attribute by name.
    fn attr(&self, key: &str) -> Option<f64>;
    /// Every attribute, in the owner's order (canonical tie-breaks
    /// compare these).
    fn each_attr(&self, f: &mut dyn FnMut(&str, f64));
    /// Span end (start for point events).
    fn end(&self) -> f64 {
        self.t() + self.dur().unwrap_or(0.0)
    }
    /// Overlap (in seconds) between this span and `[start, end]`.
    fn overlap(&self, start: f64, end: f64) -> f64 {
        (self.end().min(end) - self.t().max(start)).max(0.0)
    }
}

impl<E: EventView + ?Sized> EventView for &E {
    fn t(&self) -> f64 {
        (**self).t()
    }
    fn dur(&self) -> Option<f64> {
        (**self).dur()
    }
    fn lane(&self) -> &str {
        (**self).lane()
    }
    fn kind(&self) -> &str {
        (**self).kind()
    }
    fn iter(&self) -> Option<u64> {
        (**self).iter()
    }
    fn attr(&self, key: &str) -> Option<f64> {
        (**self).attr(key)
    }
    fn each_attr(&self, f: &mut dyn FnMut(&str, f64)) {
        (**self).each_attr(f)
    }
}

/// An owned event with its attributes in the owner's order — the
/// plainest [`EventView`], for tests, benches and hand-built streams.
#[derive(Clone, Debug)]
pub struct RollupEvent {
    /// Start time, virtual seconds.
    pub t: f64,
    /// Span duration; `None` for point events.
    pub dur: Option<f64>,
    /// Lane name (`node0-cpu-c1`, `net-rank2`, `master`, ...).
    pub lane: Name,
    /// Event kind (`cpu-task`, `kernel`, `msg-send`, ...).
    pub kind: Name,
    /// Outer iteration tag, if any.
    pub iter: Option<u64>,
    /// Numeric attributes.
    pub attrs: Vec<(Name, f64)>,
}

impl RollupEvent {
    /// Span end (start for point events).
    pub fn end(&self) -> f64 {
        self.t + self.dur.unwrap_or(0.0)
    }

    /// Looks up a numeric attribute by name.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

impl EventView for RollupEvent {
    fn t(&self) -> f64 {
        self.t
    }
    fn dur(&self) -> Option<f64> {
        self.dur
    }
    fn lane(&self) -> &str {
        &self.lane
    }
    fn kind(&self) -> &str {
        &self.kind
    }
    fn iter(&self) -> Option<u64> {
        self.iter
    }
    fn attr(&self, key: &str) -> Option<f64> {
        RollupEvent::attr(self, key)
    }
    fn each_attr(&self, f: &mut dyn FnMut(&str, f64)) {
        for (k, v) in &self.attrs {
            f(k, *v);
        }
    }
}

impl From<&Event> for RollupEvent {
    fn from(e: &Event) -> Self {
        RollupEvent {
            t: e.t,
            dur: e.dur,
            lane: e.lane.clone().into(),
            kind: e.kind.clone().into(),
            iter: e.iteration,
            attrs: e.attrs.iter().map(|(k, v)| (Name::from(*k), *v)).collect(),
        }
    }
}

/// A strictly read `events.jsonl` line is a view too, in file order.
impl EventView for EventRecord {
    fn t(&self) -> f64 {
        self.t
    }
    fn dur(&self) -> Option<f64> {
        self.dur
    }
    fn lane(&self) -> &str {
        &self.lane
    }
    fn kind(&self) -> &str {
        &self.kind
    }
    fn iter(&self) -> Option<u64> {
        self.iter
    }
    fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.get(key)
    }
    fn each_attr(&self, f: &mut dyn FnMut(&str, f64)) {
        for (k, v) in &self.attrs {
            f(k, *v);
        }
    }
}

/// Rollup parameters.
#[derive(Clone, Copy, Debug)]
pub struct RollupConfig {
    /// Window width, virtual seconds.
    pub window_secs: f64,
}

impl RollupConfig {
    /// Picks a round window width (1/2/5 × 10^k) giving roughly a dozen
    /// windows over `horizon` seconds. Deterministic in the horizon.
    pub fn auto(horizon: f64) -> Self {
        if horizon <= 0.0 || horizon.is_nan() {
            return RollupConfig { window_secs: 1.0 };
        }
        let target = horizon / 12.0;
        let decade = 10f64.powi(target.log10().floor() as i32);
        let mut best = decade;
        for cand in [decade, 2.0 * decade, 5.0 * decade, 10.0 * decade] {
            if (horizon / cand - 12.0).abs() < (horizon / best - 12.0).abs() {
                best = cand;
            }
        }
        RollupConfig { window_secs: best }
    }
}

/// One aggregated window of cluster health.
#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    /// Window index `k` (window spans `[k·w, min((k+1)·w, horizon))`).
    pub index: usize,
    /// Window start, virtual seconds.
    pub t0: f64,
    /// Window end, virtual seconds.
    pub t1: f64,
    /// Mean busy fraction across all device lanes (CPU cores and GPU
    /// compute engines) during the window.
    pub device_util: f64,
    /// Peak sampled queue depth (`queue-sample` events) in the window.
    pub queue_depth_peak: f64,
    /// Time-averaged bytes in flight on the fabric (paired
    /// `msg-send`/`msg-recv` flows overlapping the window).
    pub net_inflight_bytes: f64,
    /// Bytes whose `msg-send` fell inside the window.
    pub net_sent_bytes: f64,
    /// Straggler lag: max − median of per-node cumulative device-busy
    /// seconds, measured at the window's end.
    pub straggler_lag_secs: f64,
    /// Mean relative roofline misprediction (`|pred−obs|/obs`) over
    /// decisions whose map stage completed in this window; 0 when none.
    pub mispredict: f64,
    /// Number of decisions attributed to this window.
    pub decisions: usize,
    /// Events starting in this window.
    pub events: usize,
    /// Events of [`kinds::is_rollup_recovery`] starting in this window.
    pub recovery: usize,
}

/// The full rollup: config echo plus one [`Window`] per slot.
#[derive(Clone, Debug)]
pub struct Rollup {
    /// Window width used, virtual seconds.
    pub window_secs: f64,
    /// Trace horizon (latest event end), virtual seconds.
    pub horizon: f64,
    /// Number of distinct device lanes seen.
    pub device_lanes: usize,
    /// Number of distinct worker nodes seen.
    pub nodes: usize,
    /// The aggregated windows, in order.
    pub windows: Vec<Window>,
    /// Flight-recorder memory accounting, when the run recorded
    /// (rendered as a `recorder` block line after the meta line).
    pub recorder: Option<crate::recorder::RecorderSummary>,
}

/// Worker node index of a `node{r}-...` lane (not of a `net-rank{r}` one).
fn node_of_lane(lane: &str) -> Option<u64> {
    lane.starts_with("node").then(|| crate::lane_node(lane))?
}

/// Overlap of `[a0, a1]` with `[b0, b1]`, clamped at zero.
fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Folds an event stream (plus the decision audit) into windowed
/// cluster-level series. Pure and order-independent: permuting `events`
/// does not change the result.
pub fn rollup<E: EventView>(
    events: &[E],
    decisions: &[DecisionRecord],
    cfg: &RollupConfig,
) -> Rollup {
    let w = cfg.window_secs.max(1e-12);
    let horizon = events.iter().map(|e| e.end()).fold(0.0_f64, f64::max);
    let count = if horizon > 0.0 { (horizon / w).ceil() as usize } else { 0 };
    let mut windows: Vec<Window> = (0..count)
        .map(|k| Window {
            index: k,
            t0: k as f64 * w,
            t1: ((k + 1) as f64 * w).min(horizon),
            device_util: 0.0,
            queue_depth_peak: 0.0,
            net_inflight_bytes: 0.0,
            net_sent_bytes: 0.0,
            straggler_lag_secs: 0.0,
            mispredict: 0.0,
            decisions: 0,
            events: 0,
            recovery: 0,
        })
        .collect();

    // Pass 1: device busy seconds per window, per-node cumulative busy,
    // queue peaks, sent bytes, event counts, flow endpoints, map ends.
    let mut device_lanes: BTreeMap<&str, ()> = BTreeMap::new();
    let mut busy_per_window: Vec<f64> = vec![0.0; count];
    // node → busy seconds per window (for cumulative progress).
    let mut node_busy: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    // flow id → (send time, bytes) and flow id → recv time.
    let mut flow_send: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut flow_recv: BTreeMap<u64, f64> = BTreeMap::new();
    // (iteration, node) → latest map-span end, for decision attribution.
    let mut map_end: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let win_of = |t: f64| -> Option<usize> {
        if count == 0 || t < 0.0 {
            return None;
        }
        Some(((t / w) as usize).min(count - 1))
    };
    for e in events {
        if let Some(k) = win_of(e.t()) {
            windows[k].events += 1;
            if kinds::is_rollup_recovery(e.kind()) {
                windows[k].recovery += 1;
            }
        }
        if e.dur().is_some() && is_device_lane(e.lane()) && kinds::is_busy(e.kind()) {
            device_lanes.insert(e.lane(), ());
            let node = node_of_lane(e.lane());
            for (k, win) in windows.iter().enumerate() {
                let o = overlap(e.t(), e.end(), win.t0, win.t1);
                if o > 0.0 {
                    busy_per_window[k] += o;
                    if let Some(n) = node {
                        node_busy.entry(n).or_insert_with(|| vec![0.0; count])[k] += o;
                    }
                }
            }
        }
        match e.kind() {
            kinds::QUEUE_SAMPLE => {
                if let (Some(k), Some(d)) = (win_of(e.t()), e.attr("depth")) {
                    if d > windows[k].queue_depth_peak {
                        windows[k].queue_depth_peak = d;
                    }
                }
            }
            kinds::MSG_SEND => {
                if let Some(flow) = e.attr("flow") {
                    let bytes = e.attr("bytes").unwrap_or(0.0);
                    flow_send.insert(flow as u64, (e.t(), bytes));
                    if let Some(k) = win_of(e.t()) {
                        windows[k].net_sent_bytes += bytes;
                    }
                }
            }
            kinds::MSG_RECV => {
                if let Some(flow) = e.attr("flow") {
                    flow_recv.insert(flow as u64, e.t());
                }
            }
            kinds::MAP => {
                if let (Some(it), Some(n)) = (e.iter(), node_of_lane(e.lane())) {
                    if e.lane().ends_with("-sched") {
                        let entry = map_end.entry((it, n)).or_insert(f64::NEG_INFINITY);
                        if e.end() > *entry {
                            *entry = e.end();
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Pass 2: utilization, in-flight bytes, straggler lag, mispredict.
    let lanes = device_lanes.len();
    for (k, win) in windows.iter_mut().enumerate() {
        let span = (win.t1 - win.t0).max(1e-12);
        if lanes > 0 {
            win.device_util = busy_per_window[k] / (lanes as f64 * span);
        }
    }
    for (flow, (t_send, bytes)) in &flow_send {
        // A send with no matching recv stays in flight to the horizon.
        let t_recv = flow_recv.get(flow).copied().unwrap_or(horizon);
        for win in windows.iter_mut() {
            let span = (win.t1 - win.t0).max(1e-12);
            let o = overlap(*t_send, t_recv, win.t0, win.t1);
            if o > 0.0 {
                win.net_inflight_bytes += bytes * o / span;
            }
        }
    }
    if node_busy.len() >= 2 {
        let mut cumulative: BTreeMap<u64, f64> = node_busy.keys().map(|&n| (n, 0.0)).collect();
        for (k, win) in windows.iter_mut().enumerate() {
            for (n, per) in &node_busy {
                *cumulative.get_mut(n).unwrap() += per[k];
            }
            let mut progress: Vec<f64> = cumulative.values().copied().collect();
            progress.sort_by(f64::total_cmp);
            let max = progress.last().copied().unwrap_or(0.0);
            win.straggler_lag_secs = max - median(&progress);
        }
    }
    for rec in decisions {
        let Some(err) = rec.map_error() else { continue };
        let key = (rec.iteration as u64, rec.node as u64);
        let Some(&end) = map_end.get(&key) else { continue };
        if let Some(k) = win_of(end.min(horizon * (1.0 - 1e-12))) {
            windows[k].mispredict += err;
            windows[k].decisions += 1;
        }
    }
    for win in windows.iter_mut() {
        if win.decisions > 0 {
            win.mispredict /= win.decisions as f64;
        }
    }

    Rollup {
        window_secs: w,
        horizon,
        device_lanes: lanes,
        nodes: node_busy.len(),
        windows,
        recorder: None,
    }
}

impl Rollup {
    /// Canonical JSONL export: a meta line followed by one line per
    /// window, keys in sorted order. Byte-identical for identical input.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut meta = BTreeMap::new();
        meta.insert("schema".to_string(), Value::String(ROLLUP_SCHEMA.to_string()));
        meta.insert("window_s".to_string(), Value::Number(self.window_secs));
        meta.insert("horizon_s".to_string(), Value::Number(self.horizon));
        meta.insert("windows".to_string(), Value::Number(self.windows.len() as f64));
        meta.insert("device_lanes".to_string(), Value::Number(self.device_lanes as f64));
        meta.insert("nodes".to_string(), Value::Number(self.nodes as f64));
        out.push_str(&Value::Object(meta).to_json_string());
        out.push('\n');
        if let Some(rec) = &self.recorder {
            let mut m = BTreeMap::new();
            m.insert("recorder".to_string(), rec.to_value());
            out.push_str(&Value::Object(m).to_json_string());
            out.push('\n');
        }
        for win in &self.windows {
            let mut m = BTreeMap::new();
            let mut num = |k: &str, v: f64| {
                m.insert(k.to_string(), Value::Number(v));
            };
            num("w", win.index as f64);
            num("t0", win.t0);
            num("t1", win.t1);
            num("util", win.device_util);
            num("queue_peak", win.queue_depth_peak);
            num("inflight_bytes", win.net_inflight_bytes);
            num("sent_bytes", win.net_sent_bytes);
            num("lag_s", win.straggler_lag_secs);
            num("mispredict", win.mispredict);
            num("decisions", win.decisions as f64);
            num("events", win.events as f64);
            num("recovery", win.recovery as f64);
            out.push_str(&Value::Object(m).to_json_string());
            out.push('\n');
        }
        out
    }

    /// Registers cluster-level summary gauges (`prs_rollup_*` families)
    /// so `metrics.prom` carries the rollup headline numbers.
    pub fn register_metrics(&self, m: &MetricsRegistry) {
        let fold = |f: fn(&Window) -> f64, init: f64, op: fn(f64, f64) -> f64| -> f64 {
            self.windows.iter().map(f).fold(init, op)
        };
        m.gauge_set("prs_rollup_window_seconds", &[], self.window_secs);
        m.gauge_set("prs_rollup_windows", &[], self.windows.len() as f64);
        m.gauge_set("prs_rollup_device_lanes", &[], self.device_lanes as f64);
        if !self.windows.is_empty() {
            let util_sum = fold(|w| w.device_util * (w.t1 - w.t0), 0.0, |a, b| a + b);
            m.gauge_set(
                "prs_rollup_device_util_mean",
                &[],
                util_sum / self.horizon.max(1e-12),
            );
            m.gauge_set(
                "prs_rollup_device_util_peak",
                &[],
                fold(|w| w.device_util, 0.0, f64::max),
            );
            m.gauge_set(
                "prs_rollup_queue_depth_peak",
                &[],
                fold(|w| w.queue_depth_peak, 0.0, f64::max),
            );
            m.gauge_set(
                "prs_rollup_net_inflight_bytes_peak",
                &[],
                fold(|w| w.net_inflight_bytes, 0.0, f64::max),
            );
            m.gauge_set(
                "prs_rollup_straggler_lag_seconds_max",
                &[],
                fold(|w| w.straggler_lag_secs, 0.0, f64::max),
            );
            m.gauge_set(
                "prs_rollup_recovery_events_total",
                &[],
                fold(|w| w.recovery as f64, 0.0, |a, b| a + b),
            );
            let (errs, n) = self
                .windows
                .iter()
                .fold((0.0, 0usize), |(s, n), w| (s + w.mispredict * w.decisions as f64, n + w.decisions));
            if n > 0 {
                m.gauge_set("prs_rollup_mispredict_mean", &[], errs / n as f64);
            }
        }
    }

    /// Sum over windows of busy device-lane seconds
    /// (`util · lanes · window length`) — the cross-check quantity the
    /// golden test compares against per-node `metrics.prom` counters.
    pub fn total_busy_lane_seconds(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.device_util * self.device_lanes as f64 * (w.t1 - w.t0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(lane: &str, kind: &str, t: f64, dur: Option<f64>) -> RollupEvent {
        RollupEvent {
            t,
            dur,
            lane: lane.into(),
            kind: kind.into(),
            iter: None,
            attrs: Vec::new(),
        }
    }

    fn with_attrs(mut e: RollupEvent, attrs: &[(&str, f64)]) -> RollupEvent {
        e.attrs = attrs.iter().map(|(k, v)| (Name::from(*k), *v)).collect();
        e
    }

    #[test]
    fn auto_window_is_round_and_covers_horizon() {
        let cfg = RollupConfig::auto(1.3);
        assert_eq!(cfg.window_secs, 0.1);
        let cfg = RollupConfig::auto(0.0);
        assert_eq!(cfg.window_secs, 1.0);
        let cfg = RollupConfig::auto(240.0);
        assert_eq!(cfg.window_secs, 20.0);
    }

    #[test]
    fn utilization_counts_device_spans_by_overlap() {
        // Two device lanes over a 2 s horizon, 1 s windows. Lane A busy
        // [0, 1.5], lane B busy [1, 2]: window 0 busy = 1.0, window 1
        // busy = 0.5 + 1.0.
        let events = vec![
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(1.5)),
            ev("node1-gpu0-compute", "kernel", 1.0, Some(1.0)),
            ev("node0-sched", "map", 0.0, Some(2.0)), // not a device lane
        ];
        let r = rollup(&events, &[], &RollupConfig { window_secs: 1.0 });
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.device_lanes, 2);
        assert!((r.windows[0].device_util - 0.5).abs() < 1e-12);
        assert!((r.windows[1].device_util - 0.75).abs() < 1e-12);
        assert!((r.total_busy_lane_seconds() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn inflight_bytes_average_over_flow_lifetime() {
        let events = vec![
            with_attrs(
                ev("net-rank0", "msg-send", 0.5, None),
                &[("flow", 42.0), ("bytes", 1000.0)],
            ),
            with_attrs(ev("net-rank1", "msg-recv", 1.5, None), &[("flow", 42.0)]),
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(2.0)),
        ];
        let r = rollup(&events, &[], &RollupConfig { window_secs: 1.0 });
        // Flow alive [0.5, 1.5]: half of each window → 500 B average.
        assert!((r.windows[0].net_inflight_bytes - 500.0).abs() < 1e-9);
        assert!((r.windows[1].net_inflight_bytes - 500.0).abs() < 1e-9);
        assert!((r.windows[0].net_sent_bytes - 1000.0).abs() < 1e-12);
        assert_eq!(r.windows[1].net_sent_bytes, 0.0);
    }

    #[test]
    fn straggler_lag_is_max_minus_median_progress() {
        // Three nodes: node 0 does 1 s of work per window, nodes 1 and 2
        // do 0.25 s. Cumulative after window 1: [2.0, 0.5, 0.5].
        let events = vec![
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(2.0)),
            ev("node1-cpu-c0", "cpu-task", 0.0, Some(0.5)),
            ev("node2-cpu-c0", "cpu-task", 1.0, Some(0.5)),
        ];
        let r = rollup(&events, &[], &RollupConfig { window_secs: 1.0 });
        assert_eq!(r.nodes, 3);
        // After window 0: [1.0, 0.5, 0.0] → max 1.0, median 0.5.
        assert!((r.windows[0].straggler_lag_secs - 0.5).abs() < 1e-12);
        // After window 1: [2.0, 0.5, 0.5] → max 2.0, median 0.5.
        assert!((r.windows[1].straggler_lag_secs - 1.5).abs() < 1e-12);
    }

    #[test]
    fn queue_peaks_and_event_counts_land_in_their_window() {
        let events = vec![
            with_attrs(ev("node0-sched", "queue-sample", 0.2, None), &[("depth", 3.0)]),
            with_attrs(ev("node0-sched", "queue-sample", 0.4, None), &[("depth", 7.0)]),
            with_attrs(ev("node0-sched", "queue-sample", 1.2, None), &[("depth", 2.0)]),
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(2.0)),
        ];
        let r = rollup(&events, &[], &RollupConfig { window_secs: 1.0 });
        assert_eq!(r.windows[0].queue_depth_peak, 7.0);
        assert_eq!(r.windows[1].queue_depth_peak, 2.0);
        assert_eq!(r.windows[0].events, 3);
        assert_eq!(r.windows[1].events, 1);
    }

    #[test]
    fn recovery_events_counted_per_window() {
        let events = vec![
            ev("node0-sched", "retry", 0.2, None),
            ev("resilience", "node-crash", 0.4, None),
            ev("node1-sched", "spec-launch", 1.3, None),
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(2.0)), // not a recovery kind
        ];
        let r = rollup(&events, &[], &RollupConfig { window_secs: 1.0 });
        assert_eq!(r.windows[0].recovery, 2);
        assert_eq!(r.windows[1].recovery, 1);
        let m = MetricsRegistry::recording();
        r.register_metrics(&m);
        assert_eq!(m.gauge("prs_rollup_recovery_events_total", &[]), Some(3.0));
        assert!(r.to_jsonl().contains("\"recovery\""));
    }

    #[test]
    fn jsonl_is_order_independent_and_tagged() {
        let events = vec![
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(1.0)),
            ev("node1-cpu-c0", "cpu-task", 0.5, Some(1.0)),
        ];
        let mut reversed = events.clone();
        reversed.reverse();
        let cfg = RollupConfig { window_secs: 0.5 };
        let a = rollup(&events, &[], &cfg).to_jsonl();
        let b = rollup(&reversed, &[], &cfg).to_jsonl();
        assert_eq!(a, b);
        assert!(a.starts_with('{'));
        assert!(a.contains(ROLLUP_SCHEMA));
        assert!(a.lines().count() == 4); // meta + 3 windows
    }

    #[test]
    fn recorder_block_renders_after_meta_when_present() {
        let events = vec![ev("node0-cpu-c0", "cpu-task", 0.0, Some(1.0))];
        let mut r = rollup(&events, &[], &RollupConfig { window_secs: 1.0 });
        assert!(!r.to_jsonl().contains("\"recorder\""));
        r.recorder = Some(crate::recorder::RecorderSummary {
            retained: 12,
            folded: 34,
            peak_retained: 20,
            bytes: 4096,
            fold_bins: 3,
            captures: 1,
            window: 5.0,
            budget: 100,
        });
        let text = r.to_jsonl();
        let second = text.lines().nth(1).unwrap();
        assert!(second.starts_with("{\"recorder\":{"), "got: {second}");
        assert!(second.contains("\"retained\":12"));
        assert!(second.contains("\"folded\":34"));
        assert!(second.contains("\"budget\":100"));
        assert_eq!(text.lines().count(), 3); // meta + recorder + 1 window
    }

    #[test]
    fn summary_gauges_register() {
        let events = vec![ev("node0-cpu-c0", "cpu-task", 0.0, Some(1.0))];
        let r = rollup(&events, &[], &RollupConfig { window_secs: 1.0 });
        let m = MetricsRegistry::recording();
        r.register_metrics(&m);
        assert_eq!(m.gauge("prs_rollup_windows", &[]), Some(1.0));
        assert_eq!(m.gauge("prs_rollup_device_util_peak", &[]), Some(1.0));
    }
}
