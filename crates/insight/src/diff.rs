//! Differential regression attribution between two runs.
//!
//! Given two obs bundles (baseline and candidate), [`diff`] aligns their
//! iterations by index, decomposes the virtual-makespan delta into
//! per-phase / per-node / per-blame contributions, and reports appeared
//! and disappeared iterations plus critical-path blame shifts. The
//! decomposition is *exact*: setup + per-stage deltas + inter-iteration
//! gaps + appeared − disappeared + tail + residual sums to the total
//! delta, so "unattributed" is a first-class number rather than silent
//! slop.
//!
//! Everything is pure arithmetic over `f64` virtual timestamps from the
//! deterministic engine, and every container is a `BTreeMap` or a
//! stably-sorted `Vec`, so a seeded pair of runs produces a
//! byte-identical `diff.json` on every engine mode and repeat.

use std::collections::BTreeMap;

use crate::critical::{analyze, Analysis, IterationAnalysis};
use crate::trace::TraceEvent;

/// Schema tag stamped into `diff.json`.
pub const DIFF_SCHEMA: &str = "prs-diff-v1";

const STAGES: [&str; 4] = ["map", "shuffle", "reduce", "update"];

/// One aligned per-iteration per-stage contribution to the makespan
/// delta.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDelta {
    /// Iteration index (present on both sides).
    pub iter: u64,
    /// Stage name (`map` / `shuffle` / `reduce` / `update`).
    pub stage: String,
    /// Baseline global stage window, seconds.
    pub base_s: f64,
    /// Candidate global stage window, seconds.
    pub cand_s: f64,
    /// `cand_s - base_s`.
    pub delta_s: f64,
    /// Critical node of the slower side's stage window, when the
    /// critical path recorded one.
    pub node: Option<u64>,
}

/// A critical-path blame shift on one aligned iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameShift {
    /// Iteration index.
    pub iter: u64,
    /// Baseline blame label.
    pub base: String,
    /// Candidate blame label.
    pub cand: String,
}

/// The full decomposition of a makespan delta between two runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diff {
    /// Baseline virtual makespan (last event end), seconds.
    pub base_makespan: f64,
    /// Candidate virtual makespan, seconds.
    pub cand_makespan: f64,
    /// `cand_makespan - base_makespan`.
    pub delta: f64,
    /// Signed contribution per phase: the four stages plus `setup`
    /// (time before the first iteration), `recovery` (inter-iteration
    /// gaps adjoining fault handling), `other` (benign gaps, stage
    /// overlap residue, post-loop tail), `appeared` / `disappeared`
    /// (iterations present on one side only), and `unattributed`
    /// (float residue; near zero by construction).
    pub by_phase: BTreeMap<String, f64>,
    /// Signed contribution per worker node, from stage deltas whose
    /// slower side named a critical node.
    pub by_node: BTreeMap<u64, f64>,
    /// Signed contribution per blame label of the slower side's
    /// iteration (whole-iteration deltas).
    pub by_blame: BTreeMap<String, f64>,
    /// Aligned per-stage deltas, largest absolute contribution first.
    pub stage_deltas: Vec<StageDelta>,
    /// Iterations whose critical-path blame changed.
    pub blame_shifts: Vec<BlameShift>,
    /// Iteration indices only the candidate ran.
    pub appeared: Vec<u64>,
    /// Iteration indices only the baseline ran.
    pub disappeared: Vec<u64>,
}

impl Diff {
    /// The phase with the largest positive contribution to a slowdown
    /// (or the most negative for a speedup), excluding the bookkeeping
    /// buckets. `None` when the delta is exactly zero.
    pub fn top_phase(&self) -> Option<(&str, f64)> {
        let sign = if self.delta >= 0.0 { 1.0 } else { -1.0 };
        self.by_phase
            .iter()
            .filter(|(k, _)| k.as_str() != "unattributed")
            .max_by(|a, b| (sign * a.1).total_cmp(&(sign * b.1)).then(b.0.cmp(a.0)))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// The node driving the [`top_phase`](Self::top_phase): the largest
    /// same-sign contributor to that phase's stage deltas. A slow node
    /// stretches its *neighbors'* downstream stage windows too (they
    /// wait), so the overall `by_node` totals can tie; scoping to the
    /// dominant phase points at the perturbed node, not its victim.
    /// Falls back to the global `by_node` maximum when the top phase
    /// has no per-stage deltas (setup / recovery / other).
    pub fn top_node(&self) -> Option<(u64, f64)> {
        let sign = if self.delta >= 0.0 { 1.0 } else { -1.0 };
        let rank = |a: &(&u64, &f64), b: &(&u64, &f64)| {
            (sign * *a.1).total_cmp(&(sign * *b.1)).then(b.0.cmp(a.0))
        };
        if let Some((phase, _)) = self.top_phase() {
            let mut per: BTreeMap<u64, f64> = BTreeMap::new();
            for d in self.stage_deltas.iter().filter(|d| d.stage == phase) {
                if let Some(n) = d.node {
                    *per.entry(n).or_insert(0.0) += d.delta_s;
                }
            }
            if let Some((k, v)) = per.iter().max_by(|a, b| rank(a, b)) {
                return Some((*k, *v));
            }
        }
        self.by_node.iter().max_by(|a, b| rank(a, b)).map(|(k, v)| (*k, *v))
    }

    /// Fraction of the total delta explained by `(phase, node)` — the
    /// acceptance metric for injected perturbations. 0 when the delta
    /// is zero.
    pub fn attribution_share(&self, phase: &str, node: u64) -> f64 {
        if self.delta == 0.0 {
            return 0.0;
        }
        let phase_part = self.by_phase.get(phase).copied().unwrap_or(0.0);
        let node_part = self.by_node.get(&node).copied().unwrap_or(0.0);
        (phase_part.min(node_part)) / self.delta
    }

    /// Deterministic `diff.json` document (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        let by_node: BTreeMap<String, serde_json::Value> = self
            .by_node
            .iter()
            .map(|(k, v)| (format!("node{k}"), serde_json::json!(*v)))
            .collect();
        let stage_deltas: Vec<serde_json::Value> = self
            .stage_deltas
            .iter()
            .map(|d| {
                serde_json::json!({
                    "iter": d.iter,
                    "stage": d.stage.clone(),
                    "base_s": d.base_s,
                    "cand_s": d.cand_s,
                    "delta_s": d.delta_s,
                    "node": match d.node {
                        Some(n) => serde_json::json!(n),
                        None => serde_json::Value::Null,
                    },
                })
            })
            .collect();
        let blame_shifts: Vec<serde_json::Value> = self
            .blame_shifts
            .iter()
            .map(|s| {
                serde_json::json!({
                    "iter": s.iter,
                    "base": s.base.clone(),
                    "cand": s.cand.clone(),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "schema": DIFF_SCHEMA,
            "base_makespan_s": self.base_makespan,
            "cand_makespan_s": self.cand_makespan,
            "delta_s": self.delta,
            "by_phase": self.by_phase.clone(),
            "by_node": by_node,
            "by_blame": self.by_blame.clone(),
            "stage_deltas": stage_deltas,
            "blame_shifts": blame_shifts,
            "appeared": self.appeared.clone(),
            "disappeared": self.disappeared.clone(),
        });
        let mut s = serde_json::to_string_pretty(&doc)
            .expect("diff.json serialization is infallible");
        s.push('\n');
        s
    }

    /// Human-readable terminal table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let pct = if self.base_makespan > 0.0 {
            100.0 * self.delta / self.base_makespan
        } else {
            0.0
        };
        out.push_str(&format!(
            "virtual makespan  {:>12.6}s -> {:>12.6}s   delta {:+.6}s ({:+.2}%)\n",
            self.base_makespan, self.cand_makespan, self.delta, pct
        ));
        out.push_str("\nphase contributions:\n");
        for (phase, d) in &self.by_phase {
            let share = if self.delta != 0.0 { 100.0 * d / self.delta } else { 0.0 };
            out.push_str(&format!("  {:<14} {:+12.6}s  {:6.1}%\n", phase, d, share));
        }
        if !self.by_node.is_empty() {
            out.push_str("\nnode contributions:\n");
            for (node, d) in &self.by_node {
                out.push_str(&format!("  node{:<10} {:+12.6}s\n", node, d));
            }
        }
        if !self.by_blame.is_empty() {
            out.push_str("\nblame contributions:\n");
            for (blame, d) in &self.by_blame {
                out.push_str(&format!("  {:<14} {:+12.6}s\n", blame, d));
            }
        }
        if !self.blame_shifts.is_empty() {
            out.push_str("\nblame shifts:\n");
            for s in &self.blame_shifts {
                out.push_str(&format!("  iter {:<4} {} -> {}\n", s.iter, s.base, s.cand));
            }
        }
        if !self.appeared.is_empty() {
            out.push_str(&format!("\nappeared iterations: {:?}\n", self.appeared));
        }
        if !self.disappeared.is_empty() {
            out.push_str(&format!("disappeared iterations: {:?}\n", self.disappeared));
        }
        if let (Some((phase, pd)), top_node) = (self.top_phase(), self.top_node()) {
            out.push_str(&format!("\nprimary suspect: phase `{phase}` ({pd:+.6}s)"));
            if let Some((node, nd)) = top_node {
                out.push_str(&format!(" on node{node} ({nd:+.6}s)"));
            }
            out.push('\n');
        }
        out
    }
}

fn stage_node(it: &IterationAnalysis, stage: &str) -> Option<u64> {
    it.path.iter().find(|seg| seg.stage == stage).map(|seg| seg.node)
}

/// Per-`(iter, stage)` node whose *own* stage window grew the most
/// between the two runs. The global stage window can stretch on a node
/// that merely waited (its neighbor's map ran long, so its shuffle
/// window widened); charging the node whose local window actually grew
/// points at the perturbed node instead of its victim.
fn node_growth_hints(
    base: &[TraceEvent],
    cand: &[TraceEvent],
) -> BTreeMap<(u64, String), u64> {
    let lengths = |events: &[TraceEvent]| {
        let mut out: BTreeMap<(u64, String, u64), f64> = BTreeMap::new();
        for e in events {
            let (Some(iter), Some(dur)) = (e.iter, e.dur) else { continue };
            if !e.lane.ends_with("-sched") || !STAGES.contains(&e.kind.as_str()) {
                continue;
            }
            let Some(node) = obs::lane_node(&e.lane) else { continue };
            *out.entry((iter, e.kind.to_string(), node)).or_insert(0.0) += dur;
        }
        out
    };
    let b = lengths(base);
    let c = lengths(cand);
    let mut best: BTreeMap<(u64, String), (u64, f64)> = BTreeMap::new();
    for (key, cand_len) in &c {
        let (iter, stage, node) = key;
        let growth = cand_len - b.get(key).copied().unwrap_or(0.0);
        let entry = best.entry((*iter, stage.clone())).or_insert((*node, f64::NEG_INFINITY));
        // Strict > keeps the lowest node rank on exact ties.
        if growth > entry.1 {
            *entry = (*node, growth);
        }
    }
    best.into_iter()
        .filter(|(_, (_, growth))| *growth > 0.0)
        .map(|(key, (node, _))| (key, node))
        .collect()
}

fn iter_map(a: &Analysis) -> BTreeMap<u64, &IterationAnalysis> {
    a.iterations.iter().map(|it| (it.index, it)).collect()
}

/// Decomposes the makespan delta between two analyzed runs. See the
/// module docs for the bucket definitions. Stage deltas are charged to
/// the slower side's critical node; [`diff_events`] sharpens that with
/// per-node growth computed from the raw events.
pub fn diff(base: &Analysis, cand: &Analysis) -> Diff {
    diff_with_hints(base, cand, &BTreeMap::new())
}

fn diff_with_hints(
    base: &Analysis,
    cand: &Analysis,
    hints: &BTreeMap<(u64, String), u64>,
) -> Diff {
    let mut out = Diff {
        base_makespan: base.trace_end,
        cand_makespan: cand.trace_end,
        delta: cand.trace_end - base.trace_end,
        ..Diff::default()
    };
    for phase in ["setup", "map", "shuffle", "reduce", "update", "recovery", "other"] {
        out.by_phase.insert(phase.to_string(), 0.0);
    }

    let b = iter_map(base);
    let c = iter_map(cand);

    // Setup: trace start to first iteration start (whole trace when a
    // side never reached an iteration).
    let setup = |a: &Analysis| {
        a.iterations
            .first()
            .map_or(a.trace_end - a.trace_start, |it| it.start - a.trace_start)
    };
    *out.by_phase.get_mut("setup").unwrap() += setup(cand) - setup(base);

    // Walk the union of iteration indices in order. For each index
    // track the *chargeable length*: the preceding gap (from the
    // previous shared timeline point) plus the iteration window.
    let mut indices: Vec<u64> = b.keys().chain(c.keys()).copied().collect();
    indices.sort_unstable();
    indices.dedup();
    let mut prev_end_b = base.iterations.first().map_or(base.trace_end, |it| it.start);
    let mut prev_end_c = cand.iterations.first().map_or(cand.trace_end, |it| it.start);
    for idx in indices {
        match (b.get(&idx), c.get(&idx)) {
            (Some(ib), Some(ic)) => {
                // Preceding gap (recovery delays and scheduler idle
                // live here, between iteration windows).
                let gap_b = (ib.start - prev_end_b).max(0.0);
                let gap_c = (ic.start - prev_end_c).max(0.0);
                let gap_delta = gap_c - gap_b;
                let faulty =
                    ib.recovery_events > 0 || ic.recovery_events > 0;
                let bucket = if faulty { "recovery" } else { "other" };
                *out.by_phase.get_mut(bucket).unwrap() += gap_delta;

                // Stage deltas, attributed to the slower side's
                // critical node for that stage.
                let mut stage_sum = 0.0;
                for stage in STAGES {
                    let bs = ib.stages.get(stage).copied().unwrap_or(0.0);
                    let cs = ic.stages.get(stage).copied().unwrap_or(0.0);
                    let d = cs - bs;
                    stage_sum += d;
                    let slower = if cs >= bs { ic } else { ib };
                    let node = hints
                        .get(&(idx, stage.to_string()))
                        .copied()
                        .or_else(|| stage_node(slower, stage));
                    if d != 0.0 {
                        *out.by_phase.get_mut(stage).unwrap() += d;
                        if let Some(n) = node {
                            *out.by_node.entry(n).or_insert(0.0) += d;
                        }
                        out.stage_deltas.push(StageDelta {
                            iter: idx,
                            stage: stage.to_string(),
                            base_s: bs,
                            cand_s: cs,
                            delta_s: d,
                            node,
                        });
                    }
                }
                // Stage windows can overlap or leave intra-iteration
                // slack; the part of the iteration delta the stages do
                // not explain is benign residue.
                let iter_delta = (ic.end - ic.start) - (ib.end - ib.start);
                *out.by_phase.get_mut("other").unwrap() += iter_delta - stage_sum;

                let slower = if (ic.end - ic.start) >= (ib.end - ib.start) { ic } else { ib };
                *out
                    .by_blame
                    .entry(slower.blame.as_str().to_string())
                    .or_insert(0.0) += iter_delta;
                if ib.blame != ic.blame {
                    out.blame_shifts.push(BlameShift {
                        iter: idx,
                        base: ib.blame.as_str().to_string(),
                        cand: ic.blame.as_str().to_string(),
                    });
                }
                prev_end_b = ib.end;
                prev_end_c = ic.end;
            }
            (None, Some(ic)) => {
                out.appeared.push(idx);
                let gap_c = (ic.start - prev_end_c).max(0.0);
                *out.by_phase.entry("appeared".to_string()).or_insert(0.0) +=
                    gap_c + (ic.end - ic.start);
                prev_end_c = ic.end;
            }
            (Some(ib), None) => {
                out.disappeared.push(idx);
                let gap_b = (ib.start - prev_end_b).max(0.0);
                *out.by_phase.entry("disappeared".to_string()).or_insert(0.0) -=
                    gap_b + (ib.end - ib.start);
                prev_end_b = ib.end;
            }
            (None, None) => unreachable!("index came from one of the maps"),
        }
    }

    // Post-loop tail (teardown, trailing events past the last
    // iteration window).
    let tail_b = base.trace_end - prev_end_b;
    let tail_c = cand.trace_end - prev_end_c;
    *out.by_phase.get_mut("other").unwrap() += tail_c - tail_b;

    // Exactness check: whatever float residue remains is reported, not
    // hidden.
    let attributed: f64 = out.by_phase.values().sum();
    let residual = out.delta - attributed;
    if residual.abs() > 1e-9 {
        out.by_phase.insert("unattributed".to_string(), residual);
    }

    out.stage_deltas.sort_by(|a, b| {
        b.delta_s
            .abs()
            .total_cmp(&a.delta_s.abs())
            .then(a.iter.cmp(&b.iter))
            .then(a.stage.cmp(&b.stage))
    });
    out
}

/// Analyzes both event streams and diffs them, attributing each stage
/// delta to the node whose own stage window grew the most (falling back
/// to the slower side's critical node when no per-node spans exist).
pub fn diff_events(base: &[TraceEvent], cand: &[TraceEvent]) -> Diff {
    diff_with_hints(&analyze(base), &analyze(cand), &node_growth_hints(base, cand))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: &str, kind: &str, iter: u64, t: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            t,
            dur: Some(dur),
            lane: lane.into(),
            kind: kind.into(),
            iter: Some(iter),
            part: None,
            block: None,
            attrs: obs::Attrs::new(),
        }
    }

    /// One iteration of stage spans on `node{n}-sched` starting at `t0`,
    /// with the given stage lengths.
    fn iteration(events: &mut Vec<TraceEvent>, n: u64, iter: u64, t0: f64, lens: [f64; 4]) -> f64 {
        let lane = format!("node{n}-sched");
        let mut t = t0;
        for (stage, len) in STAGES.iter().zip(lens) {
            events.push(span(&lane, stage, iter, t, len));
            t += len;
        }
        t
    }

    fn run(stage_lens: &[[f64; 4]]) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut t = 0.5; // setup
        for (i, lens) in stage_lens.iter().enumerate() {
            t = iteration(&mut events, 0, i as u64, t, *lens);
        }
        events
    }

    #[test]
    fn identical_runs_diff_to_zero() {
        let e = run(&[[1.0, 0.5, 0.25, 0.25]; 3]);
        let d = diff_events(&e, &e);
        assert_eq!(d.delta, 0.0);
        assert!(d.by_phase.values().all(|v| *v == 0.0));
        assert!(d.stage_deltas.is_empty());
        assert!(d.blame_shifts.is_empty());
    }

    #[test]
    fn map_slowdown_is_attributed_to_map_on_the_critical_node() {
        let base = run(&[[1.0, 0.5, 0.25, 0.25]; 3]);
        let mut lens = [[1.0, 0.5, 0.25, 0.25]; 3];
        lens[1][0] = 2.0; // iteration 1's map doubles
        let cand = run(&lens);
        let d = diff_events(&base, &cand);
        assert!((d.delta - 1.0).abs() < 1e-9, "delta {}", d.delta);
        assert!((d.by_phase["map"] - 1.0).abs() < 1e-9);
        assert_eq!(d.top_phase().map(|(p, _)| p), Some("map"));
        assert!(d.attribution_share("map", 0) > 0.99);
        assert_eq!(d.stage_deltas[0].iter, 1);
        assert_eq!(d.stage_deltas[0].stage, "map");
    }

    #[test]
    fn appeared_and_disappeared_iterations_are_reported() {
        let base = run(&[[1.0, 0.5, 0.25, 0.25]; 4]);
        let cand = run(&[[1.0, 0.5, 0.25, 0.25]; 2]);
        let d = diff_events(&base, &cand);
        assert_eq!(d.disappeared, vec![2, 3]);
        assert!(d.appeared.is_empty());
        assert!(d.by_phase["disappeared"] < 0.0);
        assert!((d.delta + 4.0).abs() < 1e-9);
    }

    #[test]
    fn decomposition_is_exact() {
        let base = run(&[[1.0, 0.5, 0.25, 0.25], [1.5, 0.5, 0.25, 0.25]]);
        let cand = run(&[[1.2, 0.7, 0.25, 0.25], [1.5, 0.5, 0.5, 0.25], [2.0, 0.5, 0.25, 0.25]]);
        let d = diff_events(&base, &cand);
        let attributed: f64 = d.by_phase.values().sum();
        assert!((attributed - d.delta).abs() < 1e-9);
    }

    #[test]
    fn json_is_deterministic_and_carries_the_schema() {
        let base = run(&[[1.0, 0.5, 0.25, 0.25]; 2]);
        let cand = run(&[[1.3, 0.5, 0.25, 0.25]; 2]);
        let d1 = diff_events(&base, &cand);
        let d2 = diff_events(&base, &cand);
        assert_eq!(d1.to_json(), d2.to_json());
        assert!(d1.to_json().contains("\"schema\": \"prs-diff-v1\""));
        assert!(d1.table().contains("primary suspect"));
    }
}
