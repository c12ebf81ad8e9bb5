//! Incident assembly: correlating overlapping alerts into one operator-
//! facing object with a blame verdict and a fault-kind hypothesis.
//!
//! Alerts that overlap in time (within a merge gap) are assumed to share
//! a cause: a node crash fires the heartbeat rule, then a recovery storm,
//! then often a throughput dip while the survivors re-shard. Instead of
//! paging three times, the assembler clusters the alerts on the virtual
//! timeline and emits a single [`Incident`] whose blame verdict reuses
//! `insight`'s bottleneck taxonomy.

use crate::{Alert, FaultHint};
use crate::detect::{DetectorKind, LaneClass};
use crate::slo::Severity;
use insight::Blame;
use serde::Value;
use std::collections::BTreeMap;

/// A correlated cluster of alerts with one diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Incident id, dense from 0 in start-time order.
    pub id: usize,
    /// Earliest alert streak start, virtual seconds.
    pub t_start: f64,
    /// Latest alert streak end, virtual seconds.
    pub t_end: f64,
    /// Earliest alert fire instant — the cluster's time-to-detect anchor.
    pub t_detect: f64,
    /// Earliest suspected cause instant across the member alerts.
    pub t_cause: f64,
    /// Worker nodes implicated by per-node alerts, sorted and deduped.
    pub nodes: Vec<u64>,
    /// Blame verdict from `insight`'s taxonomy.
    pub blame: Blame,
    /// Primary fault hypothesis (highest-priority member hint).
    pub kind: FaultHint,
    /// Every distinct member hint, sorted — scoring matches against the
    /// full set so one merged incident can cover co-injected faults.
    pub hints: Vec<FaultHint>,
    /// Indices into the run's canonical alert vector.
    pub alerts: Vec<usize>,
    /// Worst member severity.
    pub severity: Severity,
    /// Flight-recorder capture artifact stem (`capture-<id>`) once the
    /// incident window has been frozen and captured; `None` when the run
    /// did not record.
    pub capture: Option<String>,
}

impl Incident {
    /// The nodes the incident implicates as operators read them:
    /// `cluster` when no per-node alert fired, else `node0,node2`.
    pub fn nodes_label(&self) -> String {
        if self.nodes.is_empty() {
            return "cluster".to_string();
        }
        let nodes: Vec<String> = self.nodes.iter().map(|n| format!("node{n}")).collect();
        nodes.join(",")
    }

    /// JSON object for one incident; keys in BTreeMap order.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Value::Number(self.id as f64));
        m.insert("t0".to_string(), Value::Number(self.t_start));
        m.insert("t1".to_string(), Value::Number(self.t_end));
        m.insert("t_detect".to_string(), Value::Number(self.t_detect));
        m.insert("t_cause".to_string(), Value::Number(self.t_cause));
        m.insert(
            "nodes".to_string(),
            Value::Array(self.nodes.iter().map(|n| Value::Number(*n as f64)).collect()),
        );
        m.insert("blame".to_string(), Value::String(self.blame.as_str().to_string()));
        m.insert("kind".to_string(), Value::String(self.kind.as_str().to_string()));
        m.insert(
            "hints".to_string(),
            Value::Array(
                self.hints
                    .iter()
                    .map(|h| Value::String(h.as_str().to_string()))
                    .collect(),
            ),
        );
        m.insert(
            "alerts".to_string(),
            Value::Array(self.alerts.iter().map(|i| Value::Number(*i as f64)).collect()),
        );
        m.insert(
            "severity".to_string(),
            Value::String(self.severity.as_str().to_string()),
        );
        if let Some(capture) = &self.capture {
            m.insert("capture".to_string(), Value::String(capture.clone()));
        }
        Value::Object(m)
    }
}

/// Blame priority: confirmed recovery activity outranks everything (the
/// cluster *was* repairing itself), then straggling compute, then the
/// wire, then device-binding diagnoses from the drift/regime detectors.
fn blame_for(alerts: &[&Alert]) -> Blame {
    let has = |f: &dyn Fn(&Alert) -> bool| alerts.iter().any(|a| f(a));
    if has(&|a| {
        matches!(a.detector, DetectorKind::HeartbeatGap | DetectorKind::RecoveryStorm)
    }) {
        Blame::Recovery
    } else if has(&|a| {
        (a.detector == DetectorKind::LatencyDrift && a.class == LaneClass::Cpu)
            || a.detector == DetectorKind::ThroughputDrop
    }) {
        Blame::Straggler
    } else if has(&|a| a.detector == DetectorKind::CommStall) {
        Blame::CommBound
    } else if has(&|a| a.detector == DetectorKind::LatencyDrift && a.class == LaneClass::Gpu) {
        Blame::GpuBound
    } else {
        Blame::CpuBound // regime-shift: the roofline split is off
    }
}

/// Clusters canonically-sorted alerts whose `[t_start, t_end]` intervals
/// come within `merge_gap` of each other, and diagnoses each cluster.
pub fn assemble_incidents(alerts: &[Alert], merge_gap: f64) -> Vec<Incident> {
    let mut incidents: Vec<Incident> = Vec::new();
    let mut cluster: Vec<usize> = Vec::new();
    let mut cluster_end = f64::NEG_INFINITY;

    let flush = |cluster: &mut Vec<usize>, incidents: &mut Vec<Incident>| {
        if cluster.is_empty() {
            return;
        }
        let members: Vec<&Alert> = cluster.iter().map(|i| &alerts[*i]).collect();
        let mut nodes: Vec<u64> = members.iter().filter_map(|a| a.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut hints: Vec<FaultHint> = members.iter().map(|a| a.hint).collect();
        hints.sort();
        hints.dedup();
        incidents.push(Incident {
            id: incidents.len(),
            t_start: members.iter().map(|a| a.t_start).fold(f64::INFINITY, f64::min),
            t_end: members.iter().map(|a| a.t_end).fold(f64::NEG_INFINITY, f64::max),
            t_detect: members.iter().map(|a| a.t_fire).fold(f64::INFINITY, f64::min),
            t_cause: members.iter().map(|a| a.t_cause).fold(f64::INFINITY, f64::min),
            nodes,
            blame: blame_for(&members),
            // FaultHint declaration order is the priority order:
            // node-crash > master-crash > cpu-slowdown > gpu-slowdown.
            kind: members.iter().map(|a| a.hint).min().unwrap_or(FaultHint::Unknown),
            hints,
            alerts: std::mem::take(cluster),
            severity: members.iter().map(|a| a.severity).max().unwrap_or(Severity::Ticket),
            capture: None,
        });
    };

    for (i, a) in alerts.iter().enumerate() {
        if !cluster.is_empty() && a.t_start > cluster_end + merge_gap {
            flush(&mut cluster, &mut incidents);
            cluster_end = f64::NEG_INFINITY;
        }
        cluster.push(i);
        cluster_end = cluster_end.max(a.t_end);
    }
    flush(&mut cluster, &mut incidents);
    incidents
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn alert(rule: &str, detector: DetectorKind, class: LaneClass, node: Option<u64>,
             t0: f64, t1: f64, hint: FaultHint, severity: Severity) -> Alert {
        Alert {
            rule: rule.to_string(),
            detector,
            class,
            node,
            severity,
            t_start: t0,
            t_fire: t0,
            t_end: t1,
            t_cause: t0,
            burn: 2.0,
            threshold: 1.0,
            hint,
        }
    }

    #[test]
    fn overlapping_alerts_merge_and_recovery_outranks_drift() {
        let alerts = vec![
            alert("node-heartbeat-gap", DetectorKind::HeartbeatGap, LaneClass::Node,
                  Some(1), 2.0, 2.0, FaultHint::NodeCrash, Severity::Page),
            alert("cpu-latency-drift", DetectorKind::LatencyDrift, LaneClass::Cpu,
                  Some(0), 2.5, 4.0, FaultHint::CpuSlowdown, Severity::Page),
        ];
        let incs = assemble_incidents(&alerts, 1.0);
        assert_eq!(incs.len(), 1);
        let inc = &incs[0];
        assert_eq!(inc.blame, Blame::Recovery);
        assert_eq!(inc.kind, FaultHint::NodeCrash);
        assert_eq!(inc.hints, vec![FaultHint::NodeCrash, FaultHint::CpuSlowdown]);
        assert_eq!(inc.nodes, vec![0, 1]);
        assert_eq!(inc.severity, Severity::Page);
        assert_eq!(inc.t_start, 2.0);
        assert_eq!(inc.t_end, 4.0);
    }

    #[test]
    fn gap_splits_incidents_and_ids_are_dense() {
        let alerts = vec![
            alert("a", DetectorKind::CommStall, LaneClass::Cluster, None,
                  0.0, 1.0, FaultHint::Unknown, Severity::Ticket),
            alert("b", DetectorKind::CommStall, LaneClass::Cluster, None,
                  5.0, 6.0, FaultHint::Unknown, Severity::Ticket),
        ];
        let incs = assemble_incidents(&alerts, 1.0);
        assert_eq!(incs.len(), 2);
        assert_eq!(incs[0].id, 0);
        assert_eq!(incs[1].id, 1);
        assert_eq!(incs[0].blame, Blame::CommBound);
        assert_eq!(incs[0].alerts, vec![0]);
        assert_eq!(incs[1].alerts, vec![1]);
    }

    #[test]
    fn empty_alerts_make_no_incidents() {
        assert!(assemble_incidents(&[], 1.0).is_empty());
    }
}
