//! Per-iteration span-DAG reconstruction, critical path, and blame.
//!
//! The runtime's stage spans (`map` / `shuffle` / `reduce` / `update` on
//! each `node{r}-sched` lane, tagged with the iteration) give the DAG's
//! coarse structure: stages are barrier-ordered, and within a stage the
//! per-node windows run in parallel. Device spans (`cpu-task`, `kernel`,
//! transfers) and network spans nest inside those windows by time
//! containment, which is exact here because the simulator's virtual clock
//! leaves no skew. The critical path is therefore: for each stage, the
//! node whose window ends last; inside the critical `map` window, the
//! device class whose last block arrives last.

use crate::trace::{pair_flows, Flow, TraceEvent};
use obs::kinds::{self, STAGES};
use obs::EventView;
use std::collections::{BTreeMap, BTreeSet};

/// A node's map window is a straggler when it exceeds the cluster median
/// by this factor.
pub const STRAGGLER_FACTOR: f64 = 1.5;

/// Who the iteration's makespan is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// Critical map window ended on a CPU core lane.
    CpuBound,
    /// Critical map window ended on a GPU lane.
    GpuBound,
    /// Communication stages (shuffle + update) outweigh compute stages.
    CommBound,
    /// One node's map window far exceeds the cluster median.
    Straggler,
    /// A fault-handling event fired inside the iteration window.
    Recovery,
}

impl Blame {
    /// Stable string form used in `report.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Blame::CpuBound => "cpu-bound",
            Blame::GpuBound => "gpu-bound",
            Blame::CommBound => "comm-bound",
            Blame::Straggler => "straggler",
            Blame::Recovery => "recovery",
        }
    }
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Stage this hop belongs to.
    pub stage: String,
    /// Node whose window ends the stage.
    pub node: u64,
    /// Most specific responsible lane (a device lane for `map`, the
    /// node's scheduler lane otherwise).
    pub lane: String,
    /// Segment window, virtual seconds.
    pub start: f64,
    /// Segment end.
    pub end: f64,
}

/// Busy/idle accounting for one lane inside one iteration window.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSlack {
    /// Lane name.
    pub lane: String,
    /// Seconds of span overlap with the iteration window.
    pub busy: f64,
    /// Iteration length minus busy time.
    pub slack: f64,
}

/// Everything the analyzer derives about one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationAnalysis {
    /// Iteration index.
    pub index: u64,
    /// Earliest stage start across nodes.
    pub start: f64,
    /// Latest stage end across nodes.
    pub end: f64,
    /// Global window length per stage (latest end − earliest start).
    pub stages: BTreeMap<String, f64>,
    /// Node owning the longest critical contribution (the map stage's
    /// critical node).
    pub critical_node: u64,
    /// Makespan attribution.
    pub blame: Blame,
    /// Stage-by-stage critical path.
    pub path: Vec<PathSegment>,
    /// Per-lane busy/slack, sorted by lane name.
    pub lane_slack: Vec<LaneSlack>,
    /// Count of recovery-kind events inside the window.
    pub recovery_events: u64,
    /// Shuffle + update stage seconds (the communication share).
    pub comm_secs: f64,
    /// Map + reduce stage seconds (the compute share).
    pub compute_secs: f64,
    /// Cross-node flows (`msg-send`/`msg-recv` pairs) received inside
    /// this iteration's window.
    pub flow_count: u64,
    /// Total bytes those flows carried.
    pub flow_bytes: f64,
    /// Per-node inbound in-flight seconds overlapping the node's *map*
    /// window — how long each node's map stage spent with bytes bound
    /// for it still on the wire. These are the true cross-node DAG
    /// edges the straggler-vs-comm-bound verdict keys on.
    pub comm_wait_by_node: BTreeMap<u64, f64>,
}

impl IterationAnalysis {
    /// Iteration wall (virtual) length.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The full analysis of a trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// Per-iteration results, ordered by index.
    pub iterations: Vec<IterationAnalysis>,
    /// First event start.
    pub trace_start: f64,
    /// Last event end.
    pub trace_end: f64,
}

impl Analysis {
    /// Count of iterations blamed on each cause, keyed by
    /// [`Blame::as_str`].
    pub fn blame_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for it in &self.iterations {
            *out.entry(it.blame.as_str()).or_insert(0) += 1;
        }
        out
    }
}

pub use obs::lane_node as node_of_lane;

fn is_cpu_lane(lane: &str) -> bool {
    lane.contains("-cpu-")
}

fn is_gpu_lane(lane: &str) -> bool {
    lane.contains("-gpu")
}

/// Reconstructs the per-iteration DAG and extracts critical path, slack,
/// and blame. Events may be in any order; only stage spans carry
/// iteration tags, so device and network spans are attributed by time
/// containment.
pub fn analyze(events: &[TraceEvent]) -> Analysis {
    analyze_view(events)
}

/// [`analyze`] over any [`EventView`] — a clamped "as seen at time t"
/// view, say — without first copying it into [`TraceEvent`]s.
pub fn analyze_view<E: EventView>(events: &[E]) -> Analysis {
    let mut analysis = Analysis::default();
    if events.is_empty() {
        return analysis;
    }
    analysis.trace_start = events.iter().map(|e| e.t()).fold(f64::INFINITY, f64::min);
    analysis.trace_end = events.iter().map(|e| e.end()).fold(0.0, f64::max);

    // Cross-node causal edges, paired once for the whole trace.
    let flows: Vec<Flow> = pair_flows(events);

    // Stage windows: (iter, stage, node) -> (start, end).
    let mut windows: BTreeMap<(u64, usize, u64), (f64, f64)> = BTreeMap::new();
    for e in events {
        let (Some(iter), Some(node)) = (e.iter(), node_of_lane(e.lane())) else {
            continue;
        };
        let Some(stage) = STAGES.iter().position(|s| *s == e.kind()) else {
            continue;
        };
        if !e.lane().ends_with("-sched") {
            continue;
        }
        let entry = windows
            .entry((iter, stage, node))
            .or_insert((e.t(), e.end()));
        entry.0 = entry.0.min(e.t());
        entry.1 = entry.1.max(e.end());
    }

    let iters: BTreeSet<u64> = windows.keys().map(|k| k.0).collect();
    for iter in iters {
        let per_stage: Vec<Vec<(u64, f64, f64)>> = (0..STAGES.len())
            .map(|s| {
                windows
                    .range((iter, s, 0)..=(iter, s, u64::MAX))
                    .map(|(&(_, _, node), &(a, b))| (node, a, b))
                    .collect()
            })
            .collect();

        let start = per_stage
            .iter()
            .flatten()
            .map(|w| w.1)
            .fold(f64::INFINITY, f64::min);
        let end = per_stage.iter().flatten().map(|w| w.2).fold(0.0, f64::max);
        if !start.is_finite() {
            continue;
        }

        // Global stage windows and critical node per stage.
        let mut stages = BTreeMap::new();
        let mut path = Vec::new();
        for (s, nodes) in per_stage.iter().enumerate() {
            if nodes.is_empty() {
                continue;
            }
            let s_start = nodes.iter().map(|w| w.1).fold(f64::INFINITY, f64::min);
            let (crit_node, _, s_end) = *nodes
                .iter()
                .max_by(|a, b| a.2.total_cmp(&b.2).then_with(|| b.0.cmp(&a.0)))
                .unwrap();
            stages.insert(STAGES[s].to_string(), s_end - s_start);
            let mut lane = format!("node{crit_node}-sched");
            if STAGES[s] == kinds::MAP {
                if let Some(l) = last_device_lane(events, crit_node, s_start, s_end) {
                    lane = l;
                }
            }
            path.push(PathSegment {
                stage: STAGES[s].to_string(),
                node: crit_node,
                lane,
                start: s_start,
                end: s_end,
            });
        }

        let map_seg = path.iter().find(|p| p.stage == kinds::MAP);
        let critical_node = map_seg.map(|p| p.node).unwrap_or(0);

        // Recovery events inside the window (tagged or by containment).
        let recovery_events = events
            .iter()
            .filter(|e| kinds::is_blamed(e.kind()))
            .filter(|e| {
                e.iter() == Some(iter) || (e.iter().is_none() && e.t() >= start && e.t() <= end)
            })
            .count() as u64;

        let comm_secs = stages.get(kinds::SHUFFLE).copied().unwrap_or(0.0)
            + stages.get(kinds::UPDATE).copied().unwrap_or(0.0);
        let compute_secs = stages.get(kinds::MAP).copied().unwrap_or(0.0)
            + stages.get(kinds::REDUCE).copied().unwrap_or(0.0);

        // Inbound in-flight seconds overlapping each node's map window:
        // the flow-edge evidence that a long map window was spent
        // waiting on a slow *sender*, not on slow local compute.
        let mut comm_wait_by_node: BTreeMap<u64, f64> = BTreeMap::new();
        for &(node, a, b) in &per_stage[0] {
            let wait: f64 = flows
                .iter()
                .filter(|f| f.dst_node == Some(node))
                .map(|f| (f.recv_t.min(b) - f.send_t.max(a)).max(0.0))
                .sum();
            comm_wait_by_node.insert(node, wait);
        }
        let (flow_count, flow_bytes) = flows
            .iter()
            .filter(|f| f.recv_t >= start && f.recv_t <= end)
            .fold((0u64, 0.0), |(n, b), f| (n + 1, b + f.bytes));

        let blame = classify(
            events,
            &per_stage[0],
            map_seg,
            recovery_events,
            comm_secs,
            compute_secs,
            &comm_wait_by_node,
        );

        // Per-lane slack against the iteration window. Scheduler lanes
        // are containers, not resources — skip them.
        let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
        for e in events {
            if e.dur().is_none() || e.lane().ends_with("-sched") || e.lane() == "master" {
                continue;
            }
            let o = e.overlap(start, end);
            if o > 0.0 {
                *busy.entry(e.lane()).or_insert(0.0) += o;
            }
        }
        let lane_slack = busy
            .into_iter()
            .map(|(lane, busy)| LaneSlack {
                lane: lane.to_string(),
                busy,
                slack: (end - start) - busy,
            })
            .collect();

        analysis.iterations.push(IterationAnalysis {
            index: iter,
            start,
            end,
            stages,
            critical_node,
            blame,
            path,
            lane_slack,
            recovery_events,
            comm_secs,
            compute_secs,
            flow_count,
            flow_bytes,
            comm_wait_by_node,
        });
    }
    analysis
}

/// The device lane on `node` whose last span inside `[start, end]` ends
/// last — the true tail of the map stage.
fn last_device_lane<E: EventView>(
    events: &[E],
    node: u64,
    start: f64,
    end: f64,
) -> Option<String> {
    let eps = 1e-12;
    events
        .iter()
        .filter(|e| e.dur().is_some())
        .filter(|e| node_of_lane(e.lane()) == Some(node))
        .filter(|e| is_cpu_lane(e.lane()) || is_gpu_lane(e.lane()))
        .filter(|e| e.t() >= start - eps && e.end() <= end + eps)
        .max_by(|a, b| {
            a.end()
                .total_cmp(&b.end())
                .then_with(|| b.lane().cmp(a.lane()))
        })
        .map(|e| e.lane().to_string())
}

#[allow(clippy::too_many_arguments)]
fn classify<E: EventView>(
    events: &[E],
    map_windows: &[(u64, f64, f64)],
    map_seg: Option<&PathSegment>,
    recovery_events: u64,
    comm_secs: f64,
    compute_secs: f64,
    comm_wait_by_node: &BTreeMap<u64, f64>,
) -> Blame {
    if recovery_events > 0 {
        return Blame::Recovery;
    }
    // Straggler: one node's map window much longer than the median —
    // unless the flow edges show the excess was spent waiting on
    // inbound bytes, in which case the *senders* (the network) own the
    // time and the verdict is comm-bound, not straggler.
    if map_windows.len() > 1 {
        let mut durs: Vec<f64> = map_windows.iter().map(|w| w.2 - w.1).collect();
        durs.sort_by(f64::total_cmp);
        let median = durs[durs.len() / 2];
        let max = *durs.last().unwrap();
        if median > 0.0 && max > STRAGGLER_FACTOR * median {
            let slowest = map_windows
                .iter()
                .max_by(|a, b| (a.2 - a.1).total_cmp(&(b.2 - b.1)).then_with(|| b.0.cmp(&a.0)))
                .map(|w| w.0);
            let wait = slowest
                .and_then(|n| comm_wait_by_node.get(&n))
                .copied()
                .unwrap_or(0.0);
            if wait >= 0.5 * (max - median) {
                return Blame::CommBound;
            }
            return Blame::Straggler;
        }
    }
    if comm_secs > compute_secs {
        return Blame::CommBound;
    }
    // CPU vs GPU: which device class holds the tail of the critical map
    // window.
    if let Some(seg) = map_seg {
        if let Some(lane) = last_device_lane(events, seg.node, seg.start, seg.end) {
            if is_gpu_lane(&lane) {
                return Blame::GpuBound;
            }
        }
    }
    Blame::CpuBound
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Two nodes, one iteration: node 1's map ends last and its tail is a
    /// kernel, so the iteration is gpu-bound with node 1 critical.
    #[test]
    fn critical_path_tracks_latest_node_and_device() {
        let events = vec![
            ev("node0-sched", "map", 0.0, Some(1.0), Some(0)),
            ev("node1-sched", "map", 0.0, Some(1.2), Some(0)),
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(0.9), None),
            ev("node1-cpu-c0", "cpu-task", 0.0, Some(0.8), None),
            ev("node1-gpu0-compute", "kernel", 0.1, Some(1.05), None),
            ev("node0-sched", "shuffle", 1.2, Some(0.1), Some(0)),
            ev("node1-sched", "shuffle", 1.2, Some(0.1), Some(0)),
            ev("node0-sched", "reduce", 1.3, Some(0.2), Some(0)),
            ev("node1-sched", "reduce", 1.3, Some(0.15), Some(0)),
            ev("node0-sched", "update", 1.5, Some(0.05), Some(0)),
            ev("node1-sched", "update", 1.5, Some(0.05), Some(0)),
        ];
        let a = analyze(&events);
        assert_eq!(a.iterations.len(), 1);
        let it = &a.iterations[0];
        assert_eq!(it.index, 0);
        assert_eq!(it.critical_node, 1);
        assert_eq!(it.blame, Blame::GpuBound);
        assert_eq!(it.path.len(), 4);
        assert_eq!(it.path[0].stage, "map");
        assert_eq!(it.path[0].lane, "node1-gpu0-compute");
        // Shuffle windows tie across nodes; the lower node id wins.
        assert_eq!(it.path[1].node, 0);
        assert!((it.duration() - 1.55).abs() < 1e-12);
        // Lane slack: 3 device lanes participated (sched lanes excluded).
        assert_eq!(it.lane_slack.len(), 3);
        let c0: &LaneSlack = &it.lane_slack[0];
        assert_eq!(c0.lane, "node0-cpu-c0");
        assert!((c0.busy - 0.9).abs() < 1e-12);
        assert!((c0.slack - (1.55 - 0.9)).abs() < 1e-12);
    }

    #[test]
    fn recovery_beats_other_blames() {
        let mut events = vec![
            ev("node0-sched", "map", 0.0, Some(1.0), Some(0)),
            ev("node0-cpu-c0", "cpu-task", 0.0, Some(1.0), None),
        ];
        events.push(ev("node0-sched", "gpu-crash", 0.5, None, None));
        let a = analyze(&events);
        assert_eq!(a.iterations[0].blame, Blame::Recovery);
        assert_eq!(a.iterations[0].recovery_events, 1);
    }

    #[test]
    fn comm_bound_when_shuffle_dominates() {
        let events = vec![
            ev("node0-sched", "map", 0.0, Some(0.1), Some(2)),
            ev("node0-sched", "shuffle", 0.1, Some(0.5), Some(2)),
            ev("node0-sched", "reduce", 0.6, Some(0.05), Some(2)),
            ev("node0-sched", "update", 0.65, Some(0.1), Some(2)),
        ];
        let a = analyze(&events);
        assert_eq!(a.iterations[0].index, 2);
        assert_eq!(a.iterations[0].blame, Blame::CommBound);
        assert!((a.iterations[0].comm_secs - 0.6).abs() < 1e-12);
    }

    #[test]
    fn straggler_detected_against_median() {
        let events = vec![
            ev("node0-sched", "map", 0.0, Some(0.1), Some(0)),
            ev("node1-sched", "map", 0.0, Some(0.1), Some(0)),
            ev("node2-sched", "map", 0.0, Some(0.9), Some(0)),
        ];
        let a = analyze(&events);
        assert_eq!(a.iterations[0].blame, Blame::Straggler);
        assert_eq!(a.iterations[0].critical_node, 2);
    }

    fn flow_ev(lane: &str, kind: &str, t: f64, flow: f64, bytes: f64) -> TraceEvent {
        let mut e = ev(lane, kind, t, None, None);
        e.attrs.insert("flow".into(), flow);
        if kind == "msg-send" {
            e.attrs.insert("bytes".into(), bytes);
        }
        e
    }

    /// The jitter-window scenario in miniature: node 2's map window
    /// looks like a straggler (0.9 s vs a 0.1 s median), but the flow
    /// edges show 0.8 s of that window was spent with inbound bytes
    /// still on the wire — the verdict flips to comm-bound. Removing
    /// the flow events restores the straggler verdict (previous test).
    #[test]
    fn flow_edges_flip_straggler_to_comm_bound() {
        let events = vec![
            ev("node0-sched", "map", 0.0, Some(0.1), Some(0)),
            ev("node1-sched", "map", 0.0, Some(0.1), Some(0)),
            ev("node2-sched", "map", 0.0, Some(0.9), Some(0)),
            flow_ev("net-rank0", "msg-send", 0.0, 77.0, 4096.0),
            flow_ev("net-rank2", "msg-recv", 0.8, 77.0, 0.0),
        ];
        let a = analyze(&events);
        let it = &a.iterations[0];
        assert_eq!(it.blame, Blame::CommBound, "inbound flow wait owns the excess");
        assert_eq!(it.flow_count, 1);
        assert_eq!(it.flow_bytes, 4096.0);
        assert!((it.comm_wait_by_node[&2] - 0.8).abs() < 1e-12);
        assert_eq!(it.comm_wait_by_node[&0], 0.0);
    }

    /// A flow landing on a *fast* node must not excuse a genuinely slow
    /// straggler.
    #[test]
    fn flows_to_other_nodes_do_not_flip_the_verdict() {
        let events = vec![
            ev("node0-sched", "map", 0.0, Some(0.1), Some(0)),
            ev("node1-sched", "map", 0.0, Some(0.1), Some(0)),
            ev("node2-sched", "map", 0.0, Some(0.9), Some(0)),
            flow_ev("net-rank2", "msg-send", 0.0, 78.0, 4096.0),
            flow_ev("net-rank0", "msg-recv", 0.05, 78.0, 0.0),
        ];
        let a = analyze(&events);
        assert_eq!(a.iterations[0].blame, Blame::Straggler);
    }

    #[test]
    fn lane_parsing() {
        assert_eq!(node_of_lane("node12-gpu0-compute"), Some(12));
        assert_eq!(node_of_lane("net-rank3"), Some(3));
        assert_eq!(node_of_lane("master"), None);
    }

    #[test]
    fn empty_trace_is_empty_analysis() {
        let a = analyze(&[]);
        assert!(a.iterations.is_empty());
        assert_eq!(a.blame_counts().len(), 0);
    }
}
