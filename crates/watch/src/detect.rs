//! Streaming detectors: pure passes over the canonically-sorted event
//! stream that emit per-sample [`Signal`]s for the SLO layer to judge.
//!
//! Each detector answers one question about cluster health:
//!
//! - [`DetectorKind::LatencyDrift`] — is one node's seconds-per-flop on
//!   its map tasks / kernels drifting away from the peer median? The
//!   comparison is *cross-sectional* (against peers at the same instant),
//!   not temporal, so a node that was slow from t = 0 — the shape every
//!   seeded slowdown window takes — is still caught.
//! - [`DetectorKind::HeartbeatGap`] — did the runtime's heartbeat
//!   machinery confirm a dead node or master? These signals re-surface
//!   the `resilience`-lane events as alerts with the crash instant
//!   attached, so time-to-detect is the real heartbeat detection delay.
//! - [`DetectorKind::RecoveryStorm`] — are recovery actions (retries,
//!   reassignments, requeues, crashes, restores) clustering in time?
//! - [`DetectorKind::ThroughputDrop`] — did windowed device utilization
//!   collapse against its own trailing EWMA?
//! - [`DetectorKind::CommStall`] — are bytes stuck on the wire while the
//!   devices sit idle?
//! - [`DetectorKind::RegimeShift`] — is the Eq-(8) roofline prediction
//!   error (`|pred − obs| / obs` from the audit log) drifting away from
//!   the node's *own* earlier error? The ratio is self-relative, so a
//!   model that is consistently biased stays quiet and only a change in
//!   prediction quality fires.
//! - [`DetectorKind::MembershipFlap`] — are elastic-membership
//!   transitions (joins, drains, evictions, deadline handoffs) clustering
//!   in time? A planned drain or scale-out is one event per window and
//!   stays quiet; an autoscaler oscillating or an operator fat-fingering
//!   a plan shows up as several transitions inside one window. The
//!   `membership` lane only exists on elastic runs, so fixed-cluster
//!   bundles can never alert here.
//!
//! Detectors never alert by themselves: they emit every sample and leave
//! thresholding, burn rates, and streak logic to [`crate::slo`].

use crate::slo::SloRule;
#[cfg(test)]
use obs::rollup::RollupEvent;
use obs::rollup::{rollup, RollupConfig};
use obs::{lane_node as node_of_lane, EventView};
use obs::DecisionRecord;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The detector catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// Per-node map/kernel latency vs the peer median (EWMA smoothed).
    LatencyDrift,
    /// Confirmed heartbeat gaps: node/master death events.
    HeartbeatGap,
    /// Burst of recovery-path events inside one window.
    RecoveryStorm,
    /// Windowed device utilization collapsing against its trailing EWMA.
    ThroughputDrop,
    /// In-flight bytes with idle devices across consecutive windows.
    CommStall,
    /// Roofline prediction error drifting out of regime (Eq 8).
    RegimeShift,
    /// Burst of elastic-membership transitions inside one window.
    MembershipFlap,
}

impl DetectorKind {
    /// Stable string form used in rules and artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            DetectorKind::LatencyDrift => "latency-drift",
            DetectorKind::HeartbeatGap => "heartbeat-gap",
            DetectorKind::RecoveryStorm => "recovery-storm",
            DetectorKind::ThroughputDrop => "throughput-drop",
            DetectorKind::CommStall => "comm-stall",
            DetectorKind::RegimeShift => "regime-shift",
            DetectorKind::MembershipFlap => "membership-flap",
        }
    }

    /// Parses the string form (as written in SLO rule TOML).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "latency-drift" => DetectorKind::LatencyDrift,
            "heartbeat-gap" => DetectorKind::HeartbeatGap,
            "recovery-storm" => DetectorKind::RecoveryStorm,
            "throughput-drop" => DetectorKind::ThroughputDrop,
            "comm-stall" => DetectorKind::CommStall,
            "regime-shift" => DetectorKind::RegimeShift,
            "membership-flap" => DetectorKind::MembershipFlap,
            _ => return None,
        })
    }
}

/// Which slice of the cluster a signal (or rule) is scoped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneClass {
    /// CPU core lanes of one node.
    Cpu,
    /// GPU compute lanes of one node.
    Gpu,
    /// A whole worker node.
    Node,
    /// The master scheduler.
    Master,
    /// Cluster-wide aggregate.
    Cluster,
}

impl LaneClass {
    /// Stable string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            LaneClass::Cpu => "cpu",
            LaneClass::Gpu => "gpu",
            LaneClass::Node => "node",
            LaneClass::Master => "master",
            LaneClass::Cluster => "cluster",
        }
    }

    /// Parses the string form; `"any"` maps to `None` (no filter).
    pub fn parse(s: &str) -> Option<Option<Self>> {
        Some(Some(match s {
            "cpu" => LaneClass::Cpu,
            "gpu" => LaneClass::Gpu,
            "node" => LaneClass::Node,
            "master" => LaneClass::Master,
            "cluster" => LaneClass::Cluster,
            "any" => return Some(None),
            _ => return None,
        }))
    }
}

/// One detector sample: a measurement at a virtual instant, scoped to a
/// node (or the cluster). The SLO layer divides `value` by the rule's
/// objective to get the burn rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Sample instant, virtual seconds.
    pub t: f64,
    /// Suspected cause instant (crash time for heartbeat gaps; otherwise
    /// equals `t`).
    pub t_cause: f64,
    /// Node scope, `None` for cluster-wide samples.
    pub node: Option<u64>,
    /// Lane class the sample describes.
    pub class: LaneClass,
    /// The measurement, in the detector's unit.
    pub value: f64,
}

/// Event kinds that count toward a recovery storm. `checkpoint` is
/// healthy bookkeeping and the speculation kinds fire on healthy runs
/// too, so neither may page an operator.
const STORM_KINDS: [&str; 9] = [
    "retry",
    "reassign",
    "gpu-crash",
    "gpu-daemon-down",
    "block-requeued",
    "crashed-kernel",
    "node-crash",
    "master-failover",
    "restore",
];

#[cfg(test)]
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

/// The window width a windowed rule asks for: its own, or one auto
/// rollup window over the horizon.
fn rule_window(rule: &SloRule, horizon: f64) -> f64 {
    if rule.window_s > 0.0 {
        rule.window_s
    } else {
        RollupConfig::auto(horizon.max(1e-9)).window_secs
    }
}

/// The rollups of one stream, one per distinct window width: every rule
/// that reads rollup windows at a width shares the one built for it.
#[derive(Default)]
pub(crate) struct Rollups(Vec<(f64, obs::Rollup)>);

impl Rollups {
    fn at<E: EventView>(
        &mut self,
        events: &[E],
        decisions: &[DecisionRecord],
        window_secs: f64,
    ) -> &obs::Rollup {
        let at = match self.0.iter().position(|(w, _)| w.to_bits() == window_secs.to_bits()) {
            Some(at) => at,
            None => {
                let roll = rollup(events, decisions, &RollupConfig { window_secs });
                self.0.push((window_secs, roll));
                self.0.len() - 1
            }
        };
        &self.0[at].1
    }
}

/// Dispatches one rule to its detector. `events` must already be in
/// canonical order (see `crate::watch`); `rollups` is the cache shared
/// by every rule evaluated over these `events` and `decisions`.
pub(crate) fn signals_for_rule<E: EventView>(
    events: &[E],
    decisions: &[DecisionRecord],
    horizon: f64,
    rule: &SloRule,
    rollups: &mut Rollups,
) -> Vec<Signal> {
    let windows = |rollups| Rollups::at(rollups, events, decisions, rule_window(rule, horizon));
    match rule.detector {
        DetectorKind::LatencyDrift => latency_drift(events, rule),
        DetectorKind::HeartbeatGap => heartbeat_gap(events),
        DetectorKind::RecoveryStorm => recovery_storm(events, horizon, rule),
        DetectorKind::ThroughputDrop => throughput_drop(windows(rollups), rule),
        DetectorKind::CommStall => comm_stall(windows(rollups)),
        DetectorKind::RegimeShift => regime_shift(events, decisions, rule),
        DetectorKind::MembershipFlap => membership_flap(events, horizon, rule),
    }
}

/// Membership-lane transition kinds that count toward a flap. The
/// `cluster-size` gauge event rides along with every transition and is
/// excluded so a single drain is one count, not two.
const FLAP_KINDS: [&str; 4] = ["join", "drain", "evict", "handoff"];

/// Membership flap: count of membership-lane transitions per fixed
/// window (same bucketing as [`recovery_storm`]). The lane is only
/// emitted by the elastic driver, so the detector is silent on every
/// fixed-cluster bundle.
fn membership_flap<E: EventView>(
    events: &[E], horizon: f64, rule: &SloRule) -> Vec<Signal> {
    let w = rule_window(rule, horizon);
    let mut buckets: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for e in events {
        if e.lane() != "membership" || !FLAP_KINDS.contains(&e.kind()) {
            continue;
        }
        let k = (e.t() / w) as usize;
        let entry = buckets.entry(k).or_insert((0, e.t()));
        entry.0 += 1;
        if e.t() < entry.1 {
            entry.1 = e.t();
        }
    }
    buckets
        .into_iter()
        .map(|(k, (count, first_t))| Signal {
            t: ((k + 1) as f64 * w).min(horizon.max(first_t)),
            t_cause: first_t,
            node: None,
            class: LaneClass::Cluster,
            value: count as f64,
        })
        .collect()
}

/// The `cpu-task` / `kernel` spans a latency-drift rule samples, as
/// `(node, seconds per flop, span end)`.
fn drift_samples<E: EventView>(
    events: &[E],
    class: LaneClass,
) -> impl Iterator<Item = (u64, f64, f64)> + '_ {
    let want_kind = match class {
        LaneClass::Gpu => "kernel",
        _ => "cpu-task",
    };
    events.iter().filter_map(move |e| {
        if e.kind() != want_kind {
            return None;
        }
        let (dur, node, flops) = (e.dur()?, node_of_lane(e.lane())?, e.attr("flops")?);
        if flops < 1.0 || dur <= 0.0 {
            return None;
        }
        Some((node, dur / flops, e.end()))
    })
}

/// Cross-sectional latency drift: per-node EWMA of seconds-per-flop on
/// `cpu-task` (class `cpu`) or `kernel` (class `gpu`) spans, compared
/// against the median EWMA of the *other* nodes at the same instant.
/// A healthy homogeneous cluster sits at ratio ≈ 1; a node stretched by
/// a slowdown window reports ≈ the injected factor.
///
/// The EWMAs of the nodes with two or more samples are kept ranked by
/// `(value, node)`: a sample moves its own node's entry (binary search,
/// remove, insert) and reads the peer median by index around it, instead
/// of collecting and sorting every peer again. The median is that of the
/// same multiset of values, so which of two equal EWMAs ranks first
/// cannot change it.
fn latency_drift<E: EventView>(events: &[E], rule: &SloRule) -> Vec<Signal> {
    let class = rule.class.unwrap_or(LaneClass::Cpu);
    let alpha = rule.alpha.clamp(0.0, 1.0);
    let mut ewma: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    let mut ranked: Vec<(f64, u64)> = Vec::new();
    let rank = |ranked: &[(f64, u64)], key: (f64, u64)| {
        ranked.binary_search_by(|(v, n)| v.total_cmp(&key.0).then(n.cmp(&key.1)))
    };
    let mut signals = Vec::new();
    for (node, spf, end) in drift_samples(events, class) {
        let entry = ewma.entry(node).or_insert((spf, 0));
        let (old, seen) = *entry;
        entry.0 = alpha * spf + (1.0 - alpha) * old;
        entry.1 += 1;
        if entry.1 < 2 {
            continue;
        }
        let mine = entry.0;
        if seen >= 2 {
            let at = rank(&ranked, (old, node)).expect("a ranked node keeps its entry");
            ranked.remove(at);
        }
        let at = rank(&ranked, (mine, node)).unwrap_or_else(|at| at);
        ranked.insert(at, (mine, node));
        // The peers are `ranked` without the entry at `at`.
        let peers = ranked.len() - 1;
        if peers == 0 {
            continue;
        }
        let peer = |i: usize| ranked[i + usize::from(i >= at)].0;
        let peer_med = if peers % 2 == 1 {
            peer(peers / 2)
        } else {
            0.5 * (peer(peers / 2 - 1) + peer(peers / 2))
        };
        if peer_med <= 0.0 {
            continue;
        }
        signals.push(Signal {
            t: end,
            t_cause: end,
            node: Some(node),
            class,
            value: mine / peer_med,
        });
    }
    signals
}

/// The oracle [`latency_drift`] is checked against: collect every peer's
/// EWMA and sort them, for every sample.
#[cfg(test)]
fn latency_drift_by_sorting<E: EventView>(events: &[E], rule: &SloRule) -> Vec<Signal> {
    let class = rule.class.unwrap_or(LaneClass::Cpu);
    let alpha = rule.alpha.clamp(0.0, 1.0);
    let mut ewma: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    let mut signals = Vec::new();
    for (node, spf, end) in drift_samples(events, class) {
        let entry = ewma.entry(node).or_insert((spf, 0));
        entry.0 = alpha * spf + (1.0 - alpha) * entry.0;
        entry.1 += 1;
        if entry.1 < 2 {
            continue;
        }
        let mine = entry.0;
        let mut peers: Vec<f64> = ewma
            .iter()
            .filter(|(n, (_, count))| **n != node && *count >= 2)
            .map(|(_, (v, _))| *v)
            .collect();
        if peers.is_empty() {
            continue;
        }
        peers.sort_by(f64::total_cmp);
        let peer_med = median(&peers);
        if peer_med <= 0.0 {
            continue;
        }
        signals.push(Signal {
            t: end,
            t_cause: end,
            node: Some(node),
            class,
            value: mine / peer_med,
        });
    }
    signals
}

/// Confirmed heartbeat gaps: every `node-crash` / `master-failover`
/// event on the `resilience` lane becomes one signal whose value is the
/// detection gap (event time minus the crash instant in `at_s`).
fn heartbeat_gap<E: EventView>(events: &[E]) -> Vec<Signal> {
    events
        .iter()
        .filter_map(|e| {
            let (class, node) = match e.kind() {
                "node-crash" => (LaneClass::Node, e.attr("node").map(|n| n as u64)),
                "master-failover" => (LaneClass::Master, None),
                _ => return None,
            };
            let at = e.attr("at_s").unwrap_or(e.t());
            Some(Signal {
                t: e.t(),
                t_cause: at,
                node,
                class,
                value: (e.t() - at).max(0.0),
            })
        })
        .collect()
}

/// Recovery storm: count of [`STORM_KINDS`] events per fixed window.
fn recovery_storm<E: EventView>(
    events: &[E], horizon: f64, rule: &SloRule) -> Vec<Signal> {
    let w = rule_window(rule, horizon);
    let mut buckets: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for e in events {
        if !STORM_KINDS.contains(&e.kind()) {
            continue;
        }
        let k = (e.t() / w) as usize;
        let entry = buckets.entry(k).or_insert((0, e.t()));
        entry.0 += 1;
        if e.t() < entry.1 {
            entry.1 = e.t();
        }
    }
    buckets
        .into_iter()
        .map(|(k, (count, first_t))| Signal {
            t: ((k + 1) as f64 * w).min(horizon.max(first_t)),
            t_cause: first_t,
            node: None,
            class: LaneClass::Cluster,
            value: count as f64,
        })
        .collect()
}

/// Throughput drop: each window's device utilization against the EWMA of
/// the preceding windows. The final (possibly truncated) window is the
/// job winding down and is skipped; so are windows whose baseline never
/// saw real load.
fn throughput_drop(roll: &obs::Rollup, rule: &SloRule) -> Vec<Signal> {
    let alpha = rule.alpha.clamp(0.0, 1.0);
    let mut signals = Vec::new();
    let mut baseline: Option<f64> = None;
    let n = roll.windows.len();
    for (k, win) in roll.windows.iter().enumerate() {
        if let Some(base) = baseline {
            // Ignore the wind-down tail and idle baselines.
            if k + 1 < n && k >= 2 && base >= 0.15 {
                signals.push(Signal {
                    t: win.t1,
                    t_cause: win.t0,
                    node: None,
                    class: LaneClass::Cluster,
                    value: base / win.device_util.max(1e-6),
                });
            }
        }
        baseline = Some(match baseline {
            Some(base) => alpha * win.device_util + (1.0 - alpha) * base,
            None => win.device_util,
        });
    }
    signals
}

/// Comm stall: bytes in flight while the devices sit essentially idle.
/// The value is `0.05 / util` when traffic is pending (≥ 1 once
/// utilization drops under 5%), 0 otherwise.
fn comm_stall(roll: &obs::Rollup) -> Vec<Signal> {
    roll.windows
        .iter()
        .map(|win| Signal {
            t: win.t1,
            t_cause: win.t0,
            node: None,
            class: LaneClass::Cluster,
            value: if win.net_inflight_bytes > 0.0 {
                0.05 / win.device_util.max(1e-6)
            } else {
                0.0
            },
        })
        .collect()
}

/// Eq-(8) regime shift: per-node *self-relative* drift of the audited
/// roofline map-time error, sampled at each decision's map-stage
/// completion (located via the scheduler-lane `map` spans, same
/// attribution the rollup uses). The signal is prequential — each
/// sample's error divided by the EWMA of the node's *earlier* errors —
/// so a model that is consistently wrong by the same margin stays quiet
/// and only a *change* in prediction quality (the split leaving its
/// regime) raises the burn rate.
fn regime_shift<E: EventView>(
    events: &[E],
    decisions: &[DecisionRecord],
    rule: &SloRule,
) -> Vec<Signal> {
    // (iteration, node) → latest sched-lane map-span end.
    let mut map_end: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for e in events {
        if e.kind() == "map" && e.lane().ends_with("-sched") {
            if let (Some(it), Some(n)) = (e.iter(), node_of_lane(e.lane())) {
                let entry = map_end.entry((it, n)).or_insert(f64::NEG_INFINITY);
                if e.end() > *entry {
                    *entry = e.end();
                }
            }
        }
    }
    // Decisions ordered by completion time (ties: iteration, node).
    let mut samples: Vec<(f64, u64, f64)> = decisions
        .iter()
        .filter_map(|d| {
            let err = d.map_error()?;
            let end = *map_end.get(&(d.iteration as u64, d.node as u64))?;
            Some((end, d.node as u64, err))
        })
        .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let alpha = rule.alpha.clamp(0.0, 1.0);
    // Guard against a near-perfect baseline turning a tiny absolute
    // wobble into a huge ratio.
    const ERR_FLOOR: f64 = 0.01;
    let mut ewma: BTreeMap<u64, f64> = BTreeMap::new();
    let mut signals = Vec::new();
    for (end, node, err) in samples {
        match ewma.entry(node) {
            Entry::Vacant(slot) => {
                // First sample seeds the node's baseline; by definition
                // there is no earlier regime to have shifted from.
                slot.insert(err.max(ERR_FLOOR));
            }
            Entry::Occupied(mut slot) => {
                let baseline = *slot.get();
                signals.push(Signal {
                    t: end,
                    t_cause: end,
                    node: Some(node),
                    class: LaneClass::Node,
                    value: err / baseline,
                });
                *slot.get_mut() = (alpha * err + (1.0 - alpha) * baseline).max(ERR_FLOOR);
            }
        }
    }
    signals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::WatchConfig;

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

    fn rule_for(kind: DetectorKind) -> SloRule {
        WatchConfig::default()
            .rules
            .into_iter()
            .find(|r| r.detector == kind)
            .expect("default rule exists")
    }

    #[test]
    fn latency_drift_reports_the_injected_factor() {
        let mut events = Vec::new();
        for i in 0..10 {
            let t = i as f64;
            events.push(ev("node0-cpu-c0", "cpu-task", t, Some(0.3), &[("flops", 1e9)]));
            events.push(ev("node1-cpu-c0", "cpu-task", t, Some(0.1), &[("flops", 1e9)]));
        }
        let rule = rule_for(DetectorKind::LatencyDrift);
        let sig = latency_drift(&events, &rule);
        let last = sig.iter().rfind(|s| s.node == Some(0)).unwrap();
        assert!((last.value - 3.0).abs() < 0.2, "ratio {}", last.value);
        let peer = sig.iter().rfind(|s| s.node == Some(1)).unwrap();
        assert!(peer.value < 1.0);
    }

    /// A seeded stream of `cpu-task` spans over `nodes` nodes whose
    /// durations and flops come from a few values, so equal EWMAs are
    /// common; some spans are ones the detector must pass over.
    fn drift_stream(seed: u64, nodes: u64, len: usize) -> Vec<RollupEvent> {
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        (0..len)
            .map(|i| {
                let lane = format!("node{}-cpu-c{}", draw(nodes), draw(2));
                let dur = match draw(12) {
                    0 => None,
                    1 => Some(0.0),
                    d => Some([0.05, 0.1, 0.1, 0.25, 0.4][d as usize % 5]),
                };
                let flops = [0.5, 1e6, 1e6, 2e6, 4e6][draw(5) as usize];
                let kind = if draw(10) == 0 { "kernel" } else { "cpu-task" };
                ev(&lane, kind, i as f64 * 0.01, dur, &[("flops", flops)])
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The ranked vector and the sort-per-sample oracle emit the same
        /// signals, bit for bit: few nodes, many nodes, nodes reaching
        /// their second sample mid-stream, and the `alpha` extremes
        /// (0 freezes every EWMA at its first sample, 1 makes it the last
        /// sample — both full of ties).
        #[test]
        fn ranked_peer_median_matches_sorting_every_sample(
            seed in proptest::prelude::any::<u64>(),
            nodes in proptest::prop_oneof![1u64..=3, proptest::prelude::Just(128u64)],
            alpha in proptest::prop_oneof![
                proptest::prelude::Just(0.0),
                proptest::prelude::Just(0.3),
                proptest::prelude::Just(1.0)
            ],
        ) {
            let events = drift_stream(seed, nodes, if nodes > 3 { 900 } else { 120 });
            let mut rule = rule_for(DetectorKind::LatencyDrift);
            rule.alpha = alpha;
            let bits = |signals: Vec<Signal>| -> Vec<(u64, u64, Option<u64>, LaneClass, u64)> {
                signals
                    .iter()
                    .map(|s| (s.t.to_bits(), s.t_cause.to_bits(), s.node, s.class, s.value.to_bits()))
                    .collect()
            };
            let got = bits(latency_drift(&events, &rule));
            let want = bits(latency_drift_by_sorting(&events, &rule));
            proptest::prop_assert!(nodes == 1 || !want.is_empty());
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn single_node_never_drifts() {
        let events: Vec<_> = (0..10)
            .map(|i| ev("node0-cpu-c0", "cpu-task", i as f64, Some(0.3), &[("flops", 1e9)]))
            .collect();
        assert!(latency_drift(&events, &rule_for(DetectorKind::LatencyDrift)).is_empty());
    }

    #[test]
    fn heartbeat_gap_measures_detection_delay() {
        let events = vec![
            ev("resilience", "node-crash", 2.5, None, &[("at_s", 2.0), ("node", 1.0)]),
            ev("resilience", "master-failover", 4.0, None, &[("at_s", 3.0)]),
        ];
        let sig = heartbeat_gap(&events);
        assert_eq!(sig.len(), 2);
        assert_eq!(sig[0].node, Some(1));
        assert!((sig[0].value - 0.5).abs() < 1e-12);
        assert_eq!(sig[0].t_cause, 2.0);
        assert_eq!(sig[1].class, LaneClass::Master);
    }

    #[test]
    fn recovery_storm_counts_per_window() {
        let events = vec![
            ev("node0-sched", "retry", 0.1, None, &[]),
            ev("node0-sched", "reassign", 0.2, None, &[]),
            ev("node1-sched", "retry", 0.3, None, &[]),
            ev("master", "checkpoint", 0.4, None, &[]), // healthy: excluded
            ev("node0-sched", "spec-launch", 0.5, None, &[]), // healthy: excluded
        ];
        let mut rule = rule_for(DetectorKind::RecoveryStorm);
        rule.window_s = 1.0;
        let sig = recovery_storm(&events, 1.0, &rule);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].value, 3.0);
        assert!((sig[0].t_cause - 0.1).abs() < 1e-12);
    }

    #[test]
    fn throughput_drop_flags_a_collapsed_window() {
        // Busy-busy-busy-idle-busy on one lane, 1 s windows.
        let events = vec![
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(3.0), &[]),
            ev("node0-cpu-c0", "cpu-task", 4.0, Some(1.0), &[]),
        ];
        let mut rule = rule_for(DetectorKind::ThroughputDrop);
        rule.window_s = 1.0;
        let roll = rollup(&events, &[], &RollupConfig { window_secs: rule_window(&rule, 5.0) });
        let sig = throughput_drop(&roll, &rule);
        let worst = sig.iter().map(|s| s.value).fold(0.0, f64::max);
        assert!(worst > 100.0, "idle window vs busy baseline: {worst}");
    }

    #[test]
    fn membership_flap_counts_transitions_per_window() {
        let events = vec![
            ev("membership", "drain", 0.1, None, &[("node", 2.0)]),
            ev("membership", "cluster-size", 0.1, None, &[("nodes", 2.0)]), // gauge: excluded
            ev("membership", "join", 0.3, None, &[("node", 3.0)]),
            ev("membership", "evict", 0.6, None, &[("node", 1.0)]),
            ev("resilience", "node-crash", 0.7, None, &[]), // wrong lane
            ev("membership", "handoff", 1.4, None, &[("node", 0.0)]),
        ];
        let mut rule = rule_for(DetectorKind::MembershipFlap);
        rule.window_s = 1.0;
        let sig = membership_flap(&events, 2.0, &rule);
        assert_eq!(sig.len(), 2);
        assert_eq!(sig[0].value, 3.0, "drain+join+evict in window 0");
        assert!((sig[0].t_cause - 0.1).abs() < 1e-12);
        assert_eq!(sig[0].class, LaneClass::Cluster);
        assert_eq!(sig[1].value, 1.0, "lone handoff in window 1");
    }

    #[test]
    fn membership_flap_is_silent_without_the_lane() {
        // A fixed-cluster bundle full of recovery traffic: no membership
        // lane, no signals, zero fault-free flap alerts by construction.
        let events = vec![
            ev("node0-sched", "retry", 0.1, None, &[]),
            ev("resilience", "node-crash", 0.5, None, &[]),
            ev("node0-cpu-c0", "cpu-task", 1.0, Some(0.5), &[]),
        ];
        let rule = rule_for(DetectorKind::MembershipFlap);
        assert!(membership_flap(&events, 2.0, &rule).is_empty());
    }

    #[test]
    fn regime_shift_tracks_map_error() {
        let mut events = vec![
            ev("node0-sched", "map", 0.0, Some(1.0), &[]),
            ev("node0-sched", "map", 2.0, Some(1.0), &[]),
        ];
        events[0].iter = Some(0);
        events[1].iter = Some(1);
        let mut d = obs::DecisionRecord {
            node: 0,
            iteration: 0,
            mode: "static".into(),
            trigger: "initial".into(),
            ai_cpu: 0.0,
            ai_gpu: 0.0,
            cpu_ridge: 0.0,
            gpu_ridge: 0.0,
            regime: "r".into(),
            gpus_total: 1,
            gpus_usable: 1,
            cpu_fraction: 0.5,
            block_items: 0,
            items: 10,
            bytes: 10,
            predicted_cpu_secs: 1.0,
            predicted_gpu_secs: 1.0,
            predicted_map_secs: 1.0,
            observed_cpu_secs: Some(2.0),
            observed_gpu_secs: Some(2.0),
            observed_map_secs: Some(2.0),
        };
        d.observed_map_secs = Some(2.0); // err = 0.5 — seeds the baseline
        let mut shifted = d.clone();
        shifted.iteration = 1;
        shifted.observed_map_secs = Some(10.0); // err = 0.9
        let sig = regime_shift(&events, &[d, shifted], &rule_for(DetectorKind::RegimeShift));
        // First decision only seeds the node's baseline; the second emits
        // the self-relative ratio 0.9 / 0.5.
        assert_eq!(sig.len(), 1);
        assert!((sig[0].value - 1.8).abs() < 1e-12, "{}", sig[0].value);
        assert_eq!(sig[0].node, Some(0));
    }
}
