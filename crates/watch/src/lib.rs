//! Online health watchdog for the co-processing runtime.
//!
//! The observability stack records everything — `events.jsonl`, windowed
//! rollups, the scheduler-decision audit — but until now nothing *watched*
//! those streams: a throttled GPU, a straggling node, or a regime shift in
//! the roofline model was only visible post-mortem via `prs analyze`. This
//! crate closes the loop with three layers:
//!
//! 1. **Detectors** ([`detect`]) — pure streaming passes over the virtual-
//!    time event stream, the rollup windows, and the audit log: EWMA peer
//!    drift on per-lane map/kernel latencies, throughput-drop and
//!    comm-stall detectors over rollup windows, heartbeat-gap and
//!    recovery-storm detectors, and an Eq-(8) regime-shift detector on
//!    predicted-vs-observed split quality.
//! 2. **SLO rules** ([`slo`]) — declarative TOML rules (objective, window,
//!    burn-rate thresholds) that turn detector samples into [`Alert`]s
//!    when the burn rate stays over threshold long enough (or spikes past
//!    the fast-burn factor).
//! 3. **Incidents** ([`incident`]) — overlapping alerts across lanes are
//!    correlated into [`Incident`]s carrying a blame verdict from
//!    `insight`'s taxonomy and a fault-kind hypothesis.
//!
//! Because chaos runs inject faults from a seeded `FaultPlan`, the
//! [`score`] module can do what production alerting never can: join fired
//! incidents against exact ground truth and emit a per-fault-kind
//! precision / recall / time-to-detect matrix, deterministically.
//!
//! # Determinism
//!
//! [`watch`] consumes a *set* of events: the stream is canonically sorted
//! before any stateful pass runs, so the same recorded run — whatever the
//! engine mode or append order — produces byte-identical `alerts.jsonl`
//! and `incidents.jsonl`. The watchdog reads virtual timestamps and never
//! advances virtual time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod detect;
pub mod incident;
pub mod score;
pub mod slo;

pub use detect::{DetectorKind, LaneClass, Signal};
pub use incident::{assemble_incidents, Incident};
pub use score::{
    score_trials, FaultKind, GroundTruthFault, KindScore, TrialWatch, WatchScore,
    WATCH_SCORE_SCHEMA,
};
pub use slo::{Severity, SloRule, WatchConfig};

#[cfg(test)]
use obs::RollupEvent;
use obs::{cmp_names, DecisionRecord, EventView, MetricsRegistry};
use serde::Value;
use std::collections::BTreeMap;

/// Schema tag stamped into the `alerts.jsonl` / `incidents.jsonl` meta
/// lines.
pub const WATCH_SCHEMA: &str = "prs-watch-v1";

/// The fault hypothesis an alert (and, aggregated, an incident) carries —
/// what the detector believes went wrong, before any ground-truth join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultHint {
    /// A worker node died (heartbeat gap on a node lane).
    NodeCrash,
    /// The master died (failover observed).
    MasterCrash,
    /// A node's CPU cores are running slow relative to peers.
    CpuSlowdown,
    /// A node's GPU kernels are running slow relative to peers.
    GpuSlowdown,
    /// Elastic membership transitions are clustering in time (an
    /// oscillating autoscaler or an over-eager churn plan).
    MembershipFlap,
    /// Something is wrong but the detector cannot name the fault.
    Unknown,
}

impl FaultHint {
    /// Stable string form used in the JSONL artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultHint::NodeCrash => "node-crash",
            FaultHint::MasterCrash => "master-crash",
            FaultHint::CpuSlowdown => "cpu-slowdown",
            FaultHint::GpuSlowdown => "gpu-slowdown",
            FaultHint::MembershipFlap => "membership-flap",
            FaultHint::Unknown => "unknown",
        }
    }

    /// The scoreable fault kind, if the hint names one.
    pub fn fault_kind(&self) -> Option<FaultKind> {
        match self {
            FaultHint::NodeCrash => Some(FaultKind::NodeCrash),
            FaultHint::MasterCrash => Some(FaultKind::MasterCrash),
            FaultHint::CpuSlowdown => Some(FaultKind::CpuSlowdown),
            FaultHint::GpuSlowdown => Some(FaultKind::GpuSlowdown),
            // Flapping is a policy problem, not an injectable fault: the
            // chaos scorer has no ground-truth kind to join it against.
            FaultHint::MembershipFlap => None,
            FaultHint::Unknown => None,
        }
    }
}

/// One fired alert: an SLO rule whose burn rate tripped.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the SLO rule that fired.
    pub rule: String,
    /// Detector the rule listens to.
    pub detector: DetectorKind,
    /// Lane class of the tripping scope.
    pub class: LaneClass,
    /// Worker node the alert is scoped to, when per-node.
    pub node: Option<u64>,
    /// Page or ticket.
    pub severity: Severity,
    /// Start of the breaching streak, virtual seconds.
    pub t_start: f64,
    /// Instant the trip condition was met (the `min_samples`-th breaching
    /// sample, or the first fast-burn sample) — time-to-detect is
    /// measured here.
    pub t_fire: f64,
    /// Last breaching sample, virtual seconds.
    pub t_end: f64,
    /// Earliest suspected cause time the detector saw (for heartbeat
    /// gaps, the crash instant from the `at_s` attribute; otherwise the
    /// streak start).
    pub t_cause: f64,
    /// Worst burn rate observed while the alert was open.
    pub burn: f64,
    /// The rule's burn-rate threshold.
    pub threshold: f64,
    /// Fault hypothesis.
    pub hint: FaultHint,
}

impl Alert {
    /// JSON object for one alert; keys in BTreeMap order.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("t0".to_string(), Value::Number(self.t_start));
        m.insert("t_fire".to_string(), Value::Number(self.t_fire));
        m.insert("t1".to_string(), Value::Number(self.t_end));
        m.insert("t_cause".to_string(), Value::Number(self.t_cause));
        m.insert("rule".to_string(), Value::String(self.rule.clone()));
        m.insert(
            "detector".to_string(),
            Value::String(self.detector.as_str().to_string()),
        );
        m.insert("class".to_string(), Value::String(self.class.as_str().to_string()));
        if let Some(n) = self.node {
            m.insert("node".to_string(), Value::Number(n as f64));
        }
        m.insert(
            "severity".to_string(),
            Value::String(self.severity.as_str().to_string()),
        );
        m.insert("burn".to_string(), Value::Number(self.burn));
        m.insert("threshold".to_string(), Value::Number(self.threshold));
        m.insert("hint".to_string(), Value::String(self.hint.as_str().to_string()));
        Value::Object(m)
    }
}

/// The watchdog's full verdict over one recorded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WatchOutput {
    /// Fired alerts, canonically sorted by `(t_start, rendered bytes)`.
    pub alerts: Vec<Alert>,
    /// Correlated incidents, sorted by start time.
    pub incidents: Vec<Incident>,
}

impl WatchOutput {
    /// Canonical `alerts.jsonl`: a meta line, then one line per alert
    /// sorted by `(t_start, rendered bytes)` — byte-identical for
    /// identical input sets.
    pub fn alerts_jsonl(&self) -> String {
        let mut meta = BTreeMap::new();
        meta.insert("schema".to_string(), Value::String(WATCH_SCHEMA.to_string()));
        meta.insert("alerts".to_string(), Value::Number(self.alerts.len() as f64));
        let mut out = Value::Object(meta).to_json_string();
        out.push('\n');
        let mut lines: Vec<(f64, String)> = self
            .alerts
            .iter()
            .map(|a| (a.t_start, a.to_value().to_json_string()))
            .collect();
        lines.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, l) in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Canonical `incidents.jsonl`: a meta line, then one line per
    /// incident in id order.
    pub fn incidents_jsonl(&self) -> String {
        let mut meta = BTreeMap::new();
        meta.insert("schema".to_string(), Value::String(WATCH_SCHEMA.to_string()));
        meta.insert(
            "incidents".to_string(),
            Value::Number(self.incidents.len() as f64),
        );
        let mut out = Value::Object(meta).to_json_string();
        out.push('\n');
        for inc in &self.incidents {
            out.push_str(&inc.to_value().to_json_string());
            out.push('\n');
        }
        out
    }

    /// Registers the `prs_watch_alerts_total` / `prs_watch_incidents_total`
    /// counter families so `metrics.prom` carries the watchdog headline.
    pub fn register_metrics(&self, m: &MetricsRegistry) {
        for a in &self.alerts {
            m.counter_add(
                "prs_watch_alerts_total",
                &[
                    ("detector", a.detector.as_str()),
                    ("rule", &a.rule),
                    ("severity", a.severity.as_str()),
                ],
                1.0,
            );
        }
        for i in &self.incidents {
            m.counter_add(
                "prs_watch_incidents_total",
                &[("blame", i.blame.as_str()), ("kind", i.kind.as_str())],
                1.0,
            );
        }
    }
}

/// Canonical total order on events: `(t, lane, kind, dur, iter,
/// attrs)`. Two runs that record the same event *set* — in any append
/// order, under any engine mode — sort to the same sequence, which is
/// what makes every stateful detector pass deterministic. A caller that
/// watches growing prefixes of one stream (`prs top`) sorts it by this
/// once; [`watch`] then finds each prefix already in order.
pub fn canonical_cmp<E: EventView>(a: &E, b: &E) -> std::cmp::Ordering {
    a.t()
        .total_cmp(&b.t())
        .then_with(|| cmp_names(a.lane(), b.lane()))
        .then_with(|| cmp_names(a.kind(), b.kind()))
        .then_with(|| {
            a.dur()
                .unwrap_or(-1.0)
                .total_cmp(&b.dur().unwrap_or(-1.0))
        })
        .then_with(|| a.iter().cmp(&b.iter()))
        .then_with(|| {
            let fmt = |e: &E| {
                let mut pairs = Vec::new();
                e.each_attr(&mut |k, v| pairs.push(format!("{k}={v:?}")));
                pairs.join(",")
            };
            fmt(a).cmp(&fmt(b))
        })
}

/// Runs the full watchdog — detectors, SLO burn-rate evaluation, incident
/// assembly — over one recorded run. Pure: permuting `events` or
/// `decisions` does not change the output. The events are read in place
/// (any [`EventView`]: parsed `events.jsonl` records and the bus's own
/// records serve as they are); only an index of them is sorted, and the
/// rollup behind the windowed detectors is built once per window width.
pub fn watch<E: EventView>(
    events: &[E],
    decisions: &[DecisionRecord],
    cfg: &WatchConfig,
) -> WatchOutput {
    let mut stream: Vec<&E> = events.iter().collect();
    stream.sort_by(|a, b| canonical_cmp(*a, *b));
    let horizon = stream.iter().map(|e| e.end()).fold(0.0_f64, f64::max);

    let mut alerts: Vec<Alert> = Vec::new();
    let mut rollups = detect::Rollups::default();
    for rule in cfg.rules.iter().filter(|r| r.enabled) {
        let signals = detect::signals_for_rule(&stream, decisions, horizon, rule, &mut rollups);
        alerts.extend(slo::evaluate_rule(rule, &signals));
    }
    // Canonical alert order: by streak start, then rendered bytes (each
    // alert rendered once, not once per comparison).
    let mut rendered: Vec<(String, Alert)> = alerts
        .into_iter()
        .map(|a| (a.to_value().to_json_string(), a))
        .collect();
    rendered.sort_by(|a, b| a.1.t_start.total_cmp(&b.1.t_start).then_with(|| a.0.cmp(&b.0)));
    let alerts: Vec<Alert> = rendered.into_iter().map(|(_, a)| a).collect();
    let merge_gap = if cfg.merge_gap_s > 0.0 {
        cfg.merge_gap_s
    } else {
        // Auto: one auto-rollup window over the horizon.
        obs::RollupConfig::auto(horizon.max(1e-9)).window_secs
    };
    let incidents = assemble_incidents(&alerts, merge_gap);
    WatchOutput { alerts, incidents }
}

/// The incident→recorder trigger hook: for every assembled incident,
/// freeze the surrounding window — pre-roll back to the suspected cause
/// minus half the exact window, post-roll one fold period past the last
/// breaching sample — and emit one self-contained [`obs::Capture`] per
/// incident, linking it back via [`Incident::capture`].
///
/// Windows are derived from canonically-sorted incidents and the capture
/// reads the recorder's settled, deterministic retained/fold state, so
/// the artifacts are byte-identical across engines and repeat runs. When
/// the recorder is disabled this is a no-op returning no captures.
pub fn capture_incidents(out: &mut WatchOutput, recorder: &obs::Recorder) -> Vec<obs::Capture> {
    if !recorder.is_enabled() {
        return Vec::new();
    }
    let cfg = recorder.config();
    let pre = cfg.window * 0.5;
    let post = cfg.rollup_period.max(cfg.window * 0.1);
    let mut captures = Vec::with_capacity(out.incidents.len());
    for inc in &mut out.incidents {
        let t0 = (inc.t_cause.min(inc.t_start) - pre).max(0.0);
        let t1 = inc.t_end + post;
        recorder.freeze(t0, t1);
        if let Some(c) = recorder.capture(inc.id as u64, t0, t1) {
            inc.capture = Some(c.name.clone());
            captures.push(c);
        }
    }
    captures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(lane: &str, kind: &str, t: f64, dur: Option<f64>, attrs: &[(&str, f64)]) -> RollupEvent {
        RollupEvent {
            t,
            dur,
            lane: lane.into(),
            kind: kind.into(),
            iter: None,
            attrs: attrs.iter().map(|(k, v)| ((*k).into(), *v)).collect(),
        }
    }

    /// Two homogeneous nodes trading equal-speed tasks: nothing fires.
    #[test]
    fn healthy_stream_fires_no_alerts() {
        let mut events = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.1;
            events.push(ev("node0-cpu-c0", "cpu-task", t, Some(0.05), &[("flops", 1e9)]));
            events.push(ev("node1-cpu-c0", "cpu-task", t, Some(0.05), &[("flops", 1e9)]));
        }
        let out = watch(&events, &[], &WatchConfig::default());
        assert!(out.alerts.is_empty(), "{:?}", out.alerts);
        assert!(out.incidents.is_empty());
    }

    /// A node 3x slower than its peer trips the cpu drift rule, and the
    /// incident names the straggler.
    #[test]
    fn cpu_drift_fires_and_assembles_an_incident() {
        let mut events = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.1;
            events.push(ev("node0-cpu-c0", "cpu-task", t, Some(0.15), &[("flops", 1e9)]));
            events.push(ev("node1-cpu-c0", "cpu-task", t, Some(0.05), &[("flops", 1e9)]));
        }
        let out = watch(&events, &[], &WatchConfig::default());
        assert!(
            out.alerts.iter().any(|a| a.hint == FaultHint::CpuSlowdown && a.node == Some(0)),
            "{:?}",
            out.alerts
        );
        assert_eq!(out.incidents.len(), 1);
        assert_eq!(out.incidents[0].kind, FaultHint::CpuSlowdown);
        assert_eq!(out.incidents[0].blame, insight::Blame::Straggler);
    }

    /// The output is a pure function of the event *set*.
    #[test]
    fn output_is_order_independent() {
        let mut events = Vec::new();
        for i in 0..16 {
            let t = i as f64 * 0.1;
            events.push(ev("node0-cpu-c0", "cpu-task", t, Some(0.2), &[("flops", 1e9)]));
            events.push(ev("node1-cpu-c0", "cpu-task", t, Some(0.05), &[("flops", 1e9)]));
        }
        events.push(ev("resilience", "node-crash", 1.7, None, &[("at_s", 1.6), ("node", 0.0)]));
        let cfg = WatchConfig::default();
        let fwd = watch(&events, &[], &cfg);
        let mut rev = events.clone();
        rev.reverse();
        let bwd = watch(&rev, &[], &cfg);
        assert_eq!(fwd.alerts_jsonl(), bwd.alerts_jsonl());
        assert_eq!(fwd.incidents_jsonl(), bwd.incidents_jsonl());
        assert!(fwd.alerts_jsonl().contains(WATCH_SCHEMA));
    }

    /// Each incident freezes its window and links exactly one capture.
    #[test]
    fn incidents_link_exactly_one_capture_each() {
        let bus = obs::EventBus::recording();
        let mut events = Vec::new();
        for i in 0..16 {
            let t = i as f64 * 0.1;
            for (lane, dur) in [("node0-cpu-c0", 0.2), ("node1-cpu-c0", 0.05)] {
                bus.span(
                    lane,
                    "cpu-task",
                    simtime::SimTime::from_secs_f64(t),
                    simtime::SimTime::from_secs_f64(t + dur),
                )
                .unwrap()
                .attr("flops", 1e9)
                .commit();
                events.push(ev(lane, "cpu-task", t, Some(dur), &[("flops", 1e9)]));
            }
        }
        let recorder = obs::Recorder::shadow(obs::RecorderConfig {
            window: 1.0,
            budget: 1024,
            rollup_period: 0.5,
        });
        recorder.settle(&bus);
        let mut out = watch(&events, &[], &WatchConfig::default());
        assert!(!out.incidents.is_empty());
        let captures = capture_incidents(&mut out, &recorder);
        assert_eq!(captures.len(), out.incidents.len());
        for (inc, cap) in out.incidents.iter().zip(&captures) {
            assert_eq!(inc.capture.as_deref(), Some(cap.name.as_str()));
            assert_eq!(cap.incident, inc.id as u64);
            assert!(!cap.events.is_empty(), "window holds exact events");
            assert!(
                inc.to_value().to_json_string().contains("\"capture\":\"capture-"),
                "incidents.jsonl carries the link"
            );
        }
        // Disabled recorder: a clean no-op, incidents stay unlinked.
        let mut out2 = watch(&events, &[], &WatchConfig::default());
        assert!(capture_incidents(&mut out2, &obs::Recorder::disabled()).is_empty());
        assert!(out2.incidents.iter().all(|i| i.capture.is_none()));
    }

    /// Metric families register one count per alert / incident.
    #[test]
    fn watch_metric_families_register() {
        let mut events = Vec::new();
        for i in 0..16 {
            let t = i as f64 * 0.1;
            events.push(ev("node0-cpu-c0", "cpu-task", t, Some(0.2), &[("flops", 1e9)]));
            events.push(ev("node1-cpu-c0", "cpu-task", t, Some(0.05), &[("flops", 1e9)]));
        }
        let out = watch(&events, &[], &WatchConfig::default());
        assert!(!out.alerts.is_empty());
        let m = MetricsRegistry::recording();
        out.register_metrics(&m);
        let text = m.to_prometheus();
        assert!(text.contains("prs_watch_alerts_total"), "{text}");
        assert!(text.contains("prs_watch_incidents_total"), "{text}");
    }
}
