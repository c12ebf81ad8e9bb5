//! Deterministic rendering of an [`Analysis`]:
//! `report.json`, `critical_path.json`, and the human summary table.
//!
//! Both JSON artifacts are built as key-sorted object trees and printed
//! with the workspace's canonical JSON writer, so a seeded run renders
//! byte-identically every time — the golden tests diff these strings
//! directly.

use crate::critical::{Analysis, IterationAnalysis};
use obs::kinds;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// Schema tag stamped into `report.json`.
pub const REPORT_SCHEMA: &str = "prs-insight-report-v1";
/// Schema tag stamped into `critical_path.json`.
pub const CRITICAL_PATH_SCHEMA: &str = "prs-insight-critical-path-v1";

fn iteration_value(it: &IterationAnalysis) -> Value {
    let stages: Value = Value::Object(
        it.stages
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(*v)))
            .collect(),
    );
    let slack: Vec<Value> = it
        .lane_slack
        .iter()
        .map(|l| {
            json!({
                "lane": l.lane.clone(),
                "busy_s": l.busy,
                "slack_s": l.slack,
            })
        })
        .collect();
    let comm_wait: Value = Value::Object(
        it.comm_wait_by_node
            .iter()
            .map(|(n, w)| (format!("node{n}"), Value::Number(*w)))
            .collect(),
    );
    json!({
        "iter": it.index,
        "start_s": it.start,
        "end_s": it.end,
        "duration_s": it.duration(),
        "blame": it.blame.as_str(),
        "critical_node": it.critical_node,
        "stages_s": stages,
        "comm_s": it.comm_secs,
        "compute_s": it.compute_secs,
        "recovery_events": it.recovery_events,
        "flows": it.flow_count as f64,
        "flow_bytes": it.flow_bytes,
        "comm_wait_s": comm_wait,
        "lane_slack": Value::Array(slack),
    })
}

/// `report.json` text: per-iteration blame, stage windows, and lane
/// slack.
pub fn report_json(a: &Analysis) -> String {
    let iters: Vec<Value> = a.iterations.iter().map(iteration_value).collect();
    let blame: Value = Value::Object(
        a.blame_counts()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Number(v as f64)))
            .collect(),
    );
    let v = json!({
        "schema": REPORT_SCHEMA,
        "trace_start_s": a.trace_start,
        "trace_end_s": a.trace_end,
        "iterations": Value::Array(iters),
        "blame_counts": blame,
    });
    v.to_json_string_pretty() + "\n"
}

/// `critical_path.json` text: the stage-by-stage critical chain of each
/// iteration.
pub fn critical_path_json(a: &Analysis) -> String {
    let iters: Vec<Value> = a
        .iterations
        .iter()
        .map(|it| {
            let segs: Vec<Value> = it
                .path
                .iter()
                .map(|s| {
                    json!({
                        "stage": s.stage.clone(),
                        "node": s.node,
                        "lane": s.lane.clone(),
                        "start_s": s.start,
                        "end_s": s.end,
                        "duration_s": s.end - s.start,
                    })
                })
                .collect();
            json!({ "iter": it.index, "segments": Value::Array(segs) })
        })
        .collect();
    let v = json!({
        "schema": CRITICAL_PATH_SCHEMA,
        "iterations": Value::Array(iters),
    });
    v.to_json_string_pretty() + "\n"
}

fn fmt_ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

/// Human summary: one row per iteration plus blame totals.
pub fn summary_table(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>5}  {:<10}  critical lane",
        "iter", "total ms", "map ms", "comm ms", "reduce ms", "node", "blame"
    );
    for it in &a.iterations {
        let map = it.stages.get(kinds::MAP).copied().unwrap_or(0.0);
        let reduce = it.stages.get(kinds::REDUCE).copied().unwrap_or(0.0);
        let lane = it
            .path
            .iter()
            .find(|p| p.stage == kinds::MAP)
            .map(|p| p.lane.as_str())
            .unwrap_or("-");
        let _ = writeln!(
            out,
            "{:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>5}  {:<10}  {}",
            it.index,
            fmt_ms(it.duration()),
            fmt_ms(map),
            fmt_ms(it.comm_secs),
            fmt_ms(reduce),
            it.critical_node,
            it.blame.as_str(),
            lane,
        );
    }
    let counts = a.blame_counts();
    if !counts.is_empty() {
        let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{k}×{v}")).collect();
        let _ = writeln!(out, "blame: {}", summary.join("  "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::analyze;
    use crate::trace::TraceEvent;

    fn sample() -> Analysis {
        let ev = |lane: &str, kind: &str, t: f64, dur: f64, iter: u64| TraceEvent {
            t,
            dur: Some(dur),
            lane: lane.into(),
            kind: kind.into(),
            iter: Some(iter),
            part: None,
            block: None,
            attrs: obs::Attrs::new(),
        };
        analyze(&[
            ev("node0-sched", "map", 0.0, 1.0, 0),
            ev("node0-sched", "shuffle", 1.0, 0.1, 0),
            ev("node0-sched", "reduce", 1.1, 0.2, 0),
            ev("node0-sched", "update", 1.3, 0.1, 0),
        ])
    }

    #[test]
    fn renders_are_deterministic_and_tagged() {
        let a = sample();
        let r1 = report_json(&a);
        let r2 = report_json(&a);
        assert_eq!(r1, r2);
        assert!(r1.contains(REPORT_SCHEMA));
        let c = critical_path_json(&a);
        assert!(c.contains(CRITICAL_PATH_SCHEMA));
        assert!(c.contains("\"stage\": \"map\""));
        // Round-trip through the JSON parser to prove well-formedness.
        assert!(serde_json::from_str(&r1).is_ok());
        assert!(serde_json::from_str(&c).is_ok());
    }

    #[test]
    fn summary_lists_each_iteration() {
        let a = sample();
        let s = summary_table(&a);
        assert!(s.contains("cpu-bound"));
        assert!(s.contains("blame: cpu-bound×1"));
    }
}
