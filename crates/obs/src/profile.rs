//! Deterministic virtual-time sampling profiler.
//!
//! The sampler walks the recorded stack frames ([`simtime::StackCtx`])
//! at a fixed *virtual* period — instants `t_k = (k + 0.5) · period` —
//! and folds, for every lane with at least one live frame, the lane's
//! frame stack (by containment: outer frames started earlier and end
//! later) into collapsed-stack counts. Everything is a pure function of
//! the frame set, the horizon, and the period: no wall clock, no
//! randomness, so a seeded run reproduces byte-identical
//! `profile.folded` / `profile.json` artifacts under every engine mode.
//!
//! Two frame sources feed the same fold:
//!
//! - live: [`FrameSet::from_stack`] snapshots the `StackCtx` carried by
//!   [`crate::Obs`], which the runtime's daemons populate as they emit
//!   their obs spans (`stacks.jsonl` persists this in the bundle);
//! - offline: `prs profile` reads them back from a bundle's
//!   `stacks.jsonl` ([`FrameSet::parse_stacks_jsonl`]).
//!
//! Samples are attributed three ways: by **lane class** (cpu / gpu /
//! net / sched / master / recovery — the same axes as the insight
//! layer's blame taxonomy), by **node**, and by **phase** — the
//! map/shuffle/reduce/update stage window active on the sample's node
//! at that instant (`setup` before the first stage, `recovery` on the
//! resilience lane, `control` on the master lane).

use crate::jsonl::{as_u64, read_lines, JsonlError, Line, ObjectWriter, ScanError, Scanner};
use crate::kinds::STAGES;
use crate::lane_node;
use serde::Value;
use simtime::{StackCtx, StackFrame};
use std::collections::{BTreeMap, BTreeSet};
use std::io;

/// Schema tag embedded in `profile.json`.
pub const PROFILE_SCHEMA: &str = "prs-profile-v1";
/// Schema tag on the `stacks.jsonl` meta line.
pub const STACKS_SCHEMA: &str = "prs-stacks-v1";
/// Default sampling period: 100 virtual microseconds.
pub const DEFAULT_PERIOD_S: f64 = 1e-4;

/// A canonically ordered set of profiler frames.
#[derive(Clone, Debug, Default)]
pub struct FrameSet {
    frames: Vec<StackFrame>,
}

impl FrameSet {
    /// Snapshots a live [`StackCtx`] (already canonically ordered).
    pub fn from_stack(stack: &StackCtx) -> Self {
        FrameSet {
            frames: stack.frames(),
        }
    }

    /// Builds a set from arbitrary frames, dropping empty intervals and
    /// sorting into canonical (containment) order.
    pub fn from_frames(mut frames: Vec<StackFrame>) -> Self {
        frames.retain(|f| f.t1 > f.t0);
        frames.sort_by(|a, b| {
            a.t0.total_cmp(&b.t0)
                .then(b.t1.total_cmp(&a.t1))
                .then_with(|| a.lane.cmp(&b.lane))
                .then_with(|| a.frame.cmp(&b.frame))
        });
        FrameSet { frames }
    }

    /// The frames, canonically ordered.
    pub fn frames(&self) -> &[StackFrame] {
        &self.frames
    }

    /// True when the set holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Latest frame end — the natural sampling horizon when the run's
    /// makespan is not known.
    pub fn horizon(&self) -> f64 {
        self.frames.iter().fold(0.0, |h, f| h.max(f.t1))
    }

    /// Canonical `stacks.jsonl`: a meta line carrying the schema tag,
    /// then one line per frame in canonical order. Empty sets render
    /// nothing (matching the other exporters' disabled behavior).
    pub fn to_stacks_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_stacks_jsonl(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("frame lines are UTF-8")
    }

    /// [`Self::to_stacks_jsonl`], written to `out` one line at a time.
    pub fn write_stacks_jsonl(&self, out: &mut dyn io::Write) -> io::Result<()> {
        if self.frames.is_empty() {
            return Ok(());
        }
        let mut line = String::new();
        let mut meta = ObjectWriter::begin(&mut line);
        meta.num("frames", self.frames.len() as f64);
        meta.str("schema", STACKS_SCHEMA);
        meta.end();
        line.push('\n');
        out.write_all(line.as_bytes())?;
        for f in &self.frames {
            line.clear();
            let mut o = ObjectWriter::begin(&mut line);
            o.str("frame", &f.frame);
            o.str("lane", &f.lane);
            o.num("t0", f.t0);
            o.num("t1", f.t1);
            o.end();
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Parses a `stacks.jsonl` rendering under [`read_lines`]' rule: a
    /// line carrying a `schema` key is the meta line (its `frames` member
    /// the count), every other line must be a frame object.
    pub fn parse_stacks_jsonl(text: &str) -> Result<Self, JsonlError> {
        let mut frames = Vec::new();
        read_lines("stacks.jsonl", text, |line| frame_line(line, &mut frames))?;
        Ok(FrameSet::from_frames(frames))
    }
}

/// One line of `stacks.jsonl`: the meta line, or a frame pushed onto
/// `out`. `Err` says what is wrong: not JSON, or a member missing
/// (anything but an object lacks them all).
fn frame_line(line: &str, out: &mut Vec<StackFrame>) -> Result<Line, String> {
    let mut sc = Scanner::new(line);
    let (mut lane, mut frame, mut t0, mut t1) = (None, None, None, None);
    let mut meta = false;
    let mut declared = None;
    let mut scan = || -> Result<(), ScanError> {
        if !sc.begin_object() {
            sc.skip_value()?;
            return sc.end();
        }
        while let Some(key) = sc.next_key()? {
            match key.as_ref() {
                "lane" => lane = sc.string()?,
                "frame" => frame = sc.string()?,
                "t0" => t0 = sc.number()?,
                "t1" => t1 = sc.number()?,
                "schema" => {
                    meta = true;
                    sc.skip_value()?;
                }
                "frames" => declared = sc.number()?.and_then(as_u64),
                _ => sc.skip_value()?,
            }
        }
        sc.end()
    };
    scan().map_err(|e| e.to_string())?;
    if meta {
        return Ok(Line::Meta(declared));
    }
    let missing = |key: &str| format!("missing '{key}'");
    out.push(StackFrame {
        lane: lane.ok_or_else(|| missing("lane"))?.into(),
        frame: frame.ok_or_else(|| missing("frame"))?.into(),
        t0: t0.ok_or_else(|| missing("t0"))?,
        t1: t1.ok_or_else(|| missing("t1"))?,
    });
    Ok(Line::Record)
}

/// The lane's blame class — the same axes the insight layer attributes
/// verdicts to.
fn lane_class(lane: &str) -> &'static str {
    if lane.contains("-gpu") {
        "gpu"
    } else if lane.contains("-cpu-") {
        "cpu"
    } else if lane.ends_with("-sched") {
        "sched"
    } else if lane.starts_with("net-") {
        "net"
    } else if lane == "master" {
        "master"
    } else if lane == "resilience" {
        "recovery"
    } else {
        "other"
    }
}

/// Per-phase sample counts, split by lane class and node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseProfile {
    /// Total samples attributed to the phase.
    pub samples: u64,
    /// Samples by lane class (`cpu`, `gpu`, `net`, ...).
    pub by_class: BTreeMap<&'static str, u64>,
    /// Samples by node rank (lanes with no node rank are omitted).
    pub by_node: BTreeMap<u64, u64>,
}

/// Per-frame-name sample counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameProfile {
    /// Samples where the frame was innermost on its lane.
    pub self_samples: u64,
    /// Samples where the frame was anywhere on a lane's stack.
    pub total_samples: u64,
}

/// A folded virtual-time profile: the deterministic aggregate of
/// sampling a [`FrameSet`] at a fixed period.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Sampling period, virtual seconds.
    pub period_s: f64,
    /// Sampling horizon, virtual seconds.
    pub horizon_s: f64,
    /// Number of sampling instants inside the horizon.
    pub instants: u64,
    /// Total samples taken (one per lane with a live frame, per instant).
    pub samples: u64,
    /// Collapsed stacks: `lane;frame;...` → sample count.
    pub folded: BTreeMap<String, u64>,
    /// Samples by lane class.
    pub lane_classes: BTreeMap<&'static str, u64>,
    /// Samples by lane.
    pub lanes: BTreeMap<String, u64>,
    /// Samples by phase (`setup`, the four stages, `recovery`, ...).
    pub phases: BTreeMap<String, PhaseProfile>,
    /// Self/total samples by frame name.
    pub frames: BTreeMap<String, FrameProfile>,
}

/// How many instants `(k + 0.5) · period_s` fall below `horizon_s`.
fn sample_instants(horizon_s: f64, period_s: f64) -> f64 {
    (horizon_s / period_s - 0.5).ceil().max(0.0)
}

/// The work [`profile`] of `set` does at `period_s`: every lane is
/// sampled at every instant. An `f64`, so an absurdly short period
/// yields a count to refuse instead of saturating `u64`.
pub fn lane_instants(set: &FrameSet, horizon_s: f64, period_s: f64) -> f64 {
    let lanes: BTreeSet<&str> = set.frames.iter().map(|f| &*f.lane).collect();
    sample_instants(horizon_s.max(set.horizon()), period_s) * lanes.len() as f64
}

/// Samples `set` at instants `(k + 0.5) · period_s` for `k = 0, 1, ...`
/// strictly below `horizon_s`, folding each lane's live frame stack.
pub fn profile(set: &FrameSet, horizon_s: f64, period_s: f64) -> Profile {
    assert!(
        period_s.is_finite() && period_s > 0.0,
        "sampling period must be positive, got {period_s}"
    );
    let horizon_s = horizon_s.max(set.horizon());
    let instants = sample_instants(horizon_s, period_s) as u64;

    // Group frames per lane, preserving canonical (containment) order.
    let mut by_lane: BTreeMap<&str, Vec<&StackFrame>> = BTreeMap::new();
    for f in set.frames() {
        by_lane.entry(&f.lane).or_default().push(f);
    }

    // Per-node stage timelines from the scheduler lanes: phase lookup
    // for device/net samples on the same node. Stage windows on one
    // sched lane are sequential, so a sorted scan suffices.
    let mut stage_windows: BTreeMap<u64, Vec<(f64, f64, &str)>> = BTreeMap::new();
    for f in set.frames() {
        if f.lane.ends_with("-sched") {
            if let (Some(node), Some(stage)) = (
                lane_node(&f.lane),
                STAGES.iter().find(|s| **s == &*f.frame).copied(),
            ) {
                stage_windows.entry(node).or_default().push((f.t0, f.t1, stage));
            }
        }
    }
    let stage_at = |node: u64, t: f64| -> Option<&str> {
        let windows = stage_windows.get(&node)?;
        let mut hit = None;
        for &(t0, t1, stage) in windows {
            if t0 > t {
                break;
            }
            if t < t1 {
                hit = Some(stage);
            }
        }
        hit
    };
    let first_stage_start =
        |node: u64| -> Option<f64> { stage_windows.get(&node)?.first().map(|w| w.0) };

    let mut prof = Profile {
        period_s,
        horizon_s,
        instants,
        ..Profile::default()
    };

    for (lane, frames) in &by_lane {
        let class = lane_class(lane);
        let node = lane_node(lane);
        let mut active: Vec<&StackFrame> = Vec::new();
        let mut next = 0usize;
        let mut key = String::new();
        for k in 0..instants {
            let t = (k as f64 + 0.5) * period_s;
            while next < frames.len() && frames[next].t0 <= t {
                active.push(frames[next]);
                next += 1;
            }
            active.retain(|f| f.t1 > t);
            if active.is_empty() {
                continue;
            }

            prof.samples += 1;
            *prof.lane_classes.entry(class).or_default() += 1;
            *prof.lanes.entry(lane.to_string()).or_default() += 1;

            key.clear();
            key.push_str(lane);
            for (depth, f) in active.iter().enumerate() {
                key.push(';');
                key.push_str(&f.frame);
                let rec = prof.frames.entry(f.frame.to_string()).or_default();
                if depth + 1 == active.len() {
                    rec.self_samples += 1;
                }
                // `total` counts stacks containing the frame, not
                // occurrences, so recursive nests don't double-count.
                if active[..depth].iter().all(|g| g.frame != f.frame) {
                    rec.total_samples += 1;
                }
            }
            *prof.folded.entry(key.clone()).or_default() += 1;

            let phase: String = match class {
                "recovery" => "recovery".to_string(),
                "master" => "control".to_string(),
                _ => match node {
                    Some(n) => match stage_at(n, t) {
                        Some(stage) => stage.to_string(),
                        None => {
                            if first_stage_start(n).is_none_or(|s| t < s) {
                                "setup".to_string()
                            } else {
                                "other".to_string()
                            }
                        }
                    },
                    None => "other".to_string(),
                },
            };
            let ph = prof.phases.entry(phase).or_default();
            ph.samples += 1;
            *ph.by_class.entry(class).or_default() += 1;
            if let Some(n) = node {
                *ph.by_node.entry(n).or_default() += 1;
            }
        }
    }
    prof
}

impl Profile {
    /// Collapsed-stack rendering (`lane;frame;... count`), one line per
    /// distinct stack in lexicographic order — the format flamegraph
    /// tooling consumes directly.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Deterministic JSON summary (`profile.json`).
    pub fn to_json(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("schema".to_string(), Value::String(PROFILE_SCHEMA.to_string()));
        m.insert("period_s".to_string(), Value::Number(self.period_s));
        m.insert("horizon_s".to_string(), Value::Number(self.horizon_s));
        m.insert("instants".to_string(), Value::Number(self.instants as f64));
        m.insert("samples".to_string(), Value::Number(self.samples as f64));
        m.insert(
            "lane_classes".to_string(),
            Value::Object(
                self.lane_classes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Number(*v as f64)))
                    .collect(),
            ),
        );
        m.insert(
            "lanes".to_string(),
            Value::Object(
                self.lanes
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                    .collect(),
            ),
        );
        m.insert(
            "phases".to_string(),
            Value::Object(
                self.phases
                    .iter()
                    .map(|(phase, p)| {
                        let mut o = BTreeMap::new();
                        o.insert("samples".to_string(), Value::Number(p.samples as f64));
                        o.insert(
                            "by_class".to_string(),
                            Value::Object(
                                p.by_class
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), Value::Number(*v as f64)))
                                    .collect(),
                            ),
                        );
                        o.insert(
                            "by_node".to_string(),
                            Value::Object(
                                p.by_node
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), Value::Number(*v as f64)))
                                    .collect(),
                            ),
                        );
                        (phase.clone(), Value::Object(o))
                    })
                    .collect(),
            ),
        );
        m.insert(
            "frames".to_string(),
            Value::Object(
                self.frames
                    .iter()
                    .map(|(name, f)| {
                        let mut o = BTreeMap::new();
                        o.insert("self".to_string(), Value::Number(f.self_samples as f64));
                        o.insert("total".to_string(), Value::Number(f.total_samples as f64));
                        (name.clone(), Value::Object(o))
                    })
                    .collect(),
            ),
        );
        let mut out = Value::Object(m).to_json_string_pretty();
        out.push('\n');
        out
    }

    /// Frame names ranked by self samples (descending), name ascending
    /// on ties — the `prs profile --top N` ordering.
    pub fn ranked_frames(&self) -> Vec<(&str, &FrameProfile)> {
        let mut rows: Vec<(&str, &FrameProfile)> =
            self.frames.iter().map(|(k, v)| (k.as_str(), v)).collect();
        rows.sort_by(|a, b| b.1.self_samples.cmp(&a.1.self_samples).then(a.0.cmp(b.0)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(lane: &str, name: &str, t0: f64, t1: f64) -> StackFrame {
        StackFrame {
            lane: lane.into(),
            frame: name.into(),
            t0,
            t1,
        }
    }

    /// node0: a map stage [0, 1) on the sched lane, a kernel [0.2, 0.8)
    /// nested under a gpu-task on the gpu lane.
    fn sample_set() -> FrameSet {
        FrameSet::from_frames(vec![
            frame("node0-sched", "map", 0.0, 1.0),
            frame("node0-gpu0-compute", "gpu-task", 0.1, 0.9),
            frame("node0-gpu0-compute", "kernel", 0.2, 0.8),
        ])
    }

    #[test]
    fn folding_counts_midpoint_samples() {
        let prof = profile(&sample_set(), 1.0, 0.1);
        assert_eq!(prof.instants, 10);
        // sched lane live for all 10 instants; gpu lane for the 8
        // instants in [0.1, 0.9).
        assert_eq!(prof.samples, 18);
        assert_eq!(prof.folded["node0-sched;map"], 10);
        assert_eq!(prof.folded["node0-gpu0-compute;gpu-task;kernel"], 6);
        assert_eq!(prof.folded["node0-gpu0-compute;gpu-task"], 2);
        assert_eq!(prof.lane_classes["gpu"], 8);
        assert_eq!(prof.lane_classes["sched"], 10);
    }

    #[test]
    fn self_vs_total_split() {
        let prof = profile(&sample_set(), 1.0, 0.1);
        let task = &prof.frames["gpu-task"];
        assert_eq!(task.total_samples, 8);
        assert_eq!(task.self_samples, 2); // kernel is innermost for 6
        let kernel = &prof.frames["kernel"];
        assert_eq!(kernel.self_samples, 6);
        assert_eq!(kernel.total_samples, 6);
    }

    #[test]
    fn phases_attribute_device_samples_to_the_stage_window() {
        let prof = profile(&sample_set(), 1.0, 0.1);
        let map = &prof.phases["map"];
        assert_eq!(map.samples, 18);
        assert_eq!(map.by_class["gpu"], 8);
        assert_eq!(map.by_node[&0], 18);
    }

    #[test]
    fn pre_stage_work_lands_in_setup() {
        let set = FrameSet::from_frames(vec![
            frame("node1-sched", "map", 0.5, 1.0),
            frame("net-rank1", "net-send", 0.0, 0.4),
        ]);
        let prof = profile(&set, 1.0, 0.1);
        assert_eq!(prof.phases["setup"].by_class["net"], 4);
        assert_eq!(prof.phases["map"].by_class["sched"], 5);
    }

    #[test]
    fn resilience_lane_is_its_own_phase_and_class() {
        let set = FrameSet::from_frames(vec![frame("resilience", "recovery", 0.0, 0.5)]);
        let prof = profile(&set, 0.5, 0.1);
        assert_eq!(prof.lane_classes["recovery"], 5);
        assert_eq!(prof.phases["recovery"].samples, 5);
    }

    #[test]
    fn stacks_jsonl_round_trips_and_carries_schema() {
        let set = sample_set();
        let jsonl = set.to_stacks_jsonl();
        let first = jsonl.lines().next().unwrap();
        assert!(first.contains("\"schema\":\"prs-stacks-v1\""));
        let parsed = FrameSet::parse_stacks_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.frames(), set.frames());
        assert_eq!(parsed.to_stacks_jsonl(), jsonl);
    }

    #[test]
    fn empty_set_renders_nothing_and_parses_back() {
        let set = FrameSet::default();
        assert_eq!(set.to_stacks_jsonl(), "");
        assert!(FrameSet::parse_stacks_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn profile_is_a_pure_function_of_its_inputs() {
        let a = profile(&sample_set(), 1.0, 0.1);
        let b = profile(&sample_set(), 1.0, 0.1);
        assert_eq!(a, b);
        assert_eq!(a.to_folded(), b.to_folded());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("prs-profile-v1"));
    }

    #[test]
    fn ranked_frames_order_by_self_samples() {
        let prof = profile(&sample_set(), 1.0, 0.1);
        let ranked = prof.ranked_frames();
        assert_eq!(ranked[0].0, "map");
        assert_eq!(ranked[1].0, "kernel");
        assert_eq!(ranked[2].0, "gpu-task");
    }
}
