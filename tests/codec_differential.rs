//! The bundle codec against the `serde_json::Value` path on *recorded*
//! bundles: an 8-node dynamic run and a faulted 2-node run are exported,
//! then read back both ways. The generated-input half of this
//! differential lives in `crates/obs/tests/codec_differential.rs`; this
//! half makes sure nothing the real exporters write (flow ids above
//! 2^53, recovery kinds, sub-microsecond durations) reads differently.

use insight::TraceEvent;
use obs::{AuditLog, DecisionRecord, Frame, FrameSet, JsonlError};
use prs_core::{
    run_iterative_observed, ClusterSpec, DeviceClass, FaultPlan, IterativeApp, JobConfig, Key, Obs,
    SpmdApp,
};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

struct HistApp {
    n: usize,
}

impl SpmdApp for HistApp {
    type Inter = u64;
    type Output = u64;
    fn num_items(&self) -> usize {
        self.n
    }
    fn item_bytes(&self) -> u64 {
        64
    }
    fn workload(&self) -> Workload {
        Workload::uniform(200.0, DataResidency::Resident)
    }
    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        range.map(|i| ((i as u64 * 2654435761) % 8, 1)).collect()
    }
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        self.cpu_map(node, range)
    }
    fn reduce(&self, _d: DeviceClass, _k: Key, v: Vec<u64>) -> u64 {
        v.iter().sum()
    }
    fn combine(&self, _k: Key, v: Vec<u64>) -> Vec<u64> {
        vec![v.iter().sum()]
    }
}

impl IterativeApp for HistApp {
    fn update(&self, _outputs: &[(Key, u64)]) -> bool {
        false
    }
}

fn record(spec: &ClusterSpec, config: JobConfig) -> Obs {
    let obs = Obs::recording();
    run_iterative_observed(spec, Arc::new(HistApp { n: 160_000 }), config, obs.clone()).unwrap();
    obs
}

fn bundles() -> Vec<(&'static str, Obs)> {
    let faults = FaultPlan::seeded(42)
        .crash_gpu(1, 0, 0.05)
        .slow_cpu(0, 0.0, 0.5, 2.0)
        .with_random_jitter(2, 3, 1.0, 0.001);
    vec![
        (
            "8-node dynamic",
            record(
                &ClusterSpec::delta(8),
                JobConfig::dynamic(2_000).with_iterations(2),
            ),
        ),
        (
            "2-node faulted",
            record(
                &ClusterSpec::delta(2).with_faults(faults),
                JobConfig::static_analytic()
                    .with_iterations(2)
                    .with_partition_timeout(0.2, 2),
            ),
        ),
    ]
}

/// `insight::parse_events_jsonl` as it was: a `Value` per line. `Err` is
/// the 1-based line it fails on.
fn value_path_events(text: &str) -> Result<Vec<TraceEvent>, usize> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|_| i + 1)?;
        let obj = v.as_object().ok_or(i + 1)?;
        if obj.contains_key("schema") {
            continue;
        }
        let num = |key: &str| obj.get(key).and_then(Value::as_f64);
        let int = |key: &str| obj.get(key).and_then(Value::as_u64);
        let text = |key: &str| obj.get(key).and_then(Value::as_str).map(str::to_string);
        let mut attrs = BTreeMap::new();
        if let Some(a) = obj.get("attrs").and_then(Value::as_object) {
            for (k, v) in a {
                if let Some(f) = v.as_f64() {
                    attrs.insert(k.clone(), f);
                }
            }
        }
        out.push(TraceEvent {
            t: num("t").ok_or(i + 1)?,
            dur: num("dur"),
            lane: text("lane").ok_or(i + 1)?,
            kind: text("kind").ok_or(i + 1)?,
            iter: int("iter"),
            part: int("part"),
            block: int("block"),
            attrs,
        });
    }
    out.sort_by(|a, b| {
        a.t.total_cmp(&b.t)
            .then_with(|| a.end().total_cmp(&b.end()))
            .then_with(|| a.lane.cmp(&b.lane))
            .then_with(|| a.kind.cmp(&b.kind))
    });
    Ok(out)
}

fn value_path_frames(text: &str) -> Vec<Frame> {
    text.lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .filter(|v: &Value| v.get("schema").is_none())
        .map(|v| Frame {
            lane: v["lane"].as_str().unwrap().to_string(),
            frame: v["frame"].as_str().unwrap().to_string(),
            t0: v["t0"].as_f64().unwrap(),
            t1: v["t1"].as_f64().unwrap(),
        })
        .collect()
}

#[test]
fn recorded_bundles_read_the_same_through_the_codec_and_the_value_path() {
    for (name, obs) in bundles() {
        let events = obs.bus.to_jsonl();
        let parsed = insight::parse_events_jsonl(&events).unwrap();
        assert!(parsed.len() > 500, "{name}: a real run emits real traffic");
        assert_eq!(
            parsed,
            value_path_events(&events).unwrap(),
            "{name}: events.jsonl"
        );
        // The live snapshot holds the same events; ties in the canonical
        // order fall to append order there and to file order here.
        let by_bytes = |mut v: Vec<TraceEvent>| {
            v.sort_by_cached_key(|e| format!("{e:?}"));
            v
        };
        assert_eq!(
            by_bytes(parsed.clone()),
            by_bytes(insight::from_bus(&obs.bus)),
            "{name}: live bus"
        );
        assert_eq!(
            obs::jsonl::events_horizon(&events).unwrap(),
            parsed.iter().map(TraceEvent::end).fold(0.0, f64::max),
            "{name}: horizon pass"
        );

        let set = FrameSet::from_stack(&obs.stack);
        let stacks = set.to_stacks_jsonl();
        let frames = FrameSet::parse_stacks_jsonl(&stacks).unwrap();
        assert!(frames.frames().len() > 100, "{name}: stack frames recorded");
        assert_eq!(
            frames.frames(),
            FrameSet::from_frames(value_path_frames(&stacks)).frames(),
            "{name}: stacks.jsonl"
        );
        assert_eq!(
            frames.to_stacks_jsonl(),
            stacks,
            "{name}: stacks round trip"
        );

        let decisions = obs.audit.to_jsonl();
        let want: Vec<DecisionRecord> = decisions
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .filter_map(|v| DecisionRecord::from_value(&v))
            .collect();
        assert!(!want.is_empty(), "{name}: decisions audited");
        assert_eq!(
            AuditLog::parse_jsonl(&decisions),
            want,
            "{name}: decisions.jsonl"
        );
    }
}

#[test]
fn a_recorded_bundle_cut_short_is_refused_where_the_value_path_fails_or_sooner() {
    let (_, obs) = bundles().remove(0);
    let events = obs.bus.to_jsonl();
    let lines: Vec<&str> = events.lines().collect();
    let total = (lines.len() - 1) as u64;
    // Cut between lines: every line parses, the `Value` path would have
    // analysed the prefix; the meta line's count gives the cut away.
    for keep in [1, 2, lines.len() / 2, lines.len() - 1] {
        let cut = lines[..keep].join("\n") + "\n";
        assert!(value_path_events(&cut).is_ok());
        assert_eq!(
            insight::parse_events_jsonl(&cut).unwrap_err(),
            JsonlError::Count {
                file: "events.jsonl",
                declared: total,
                read: keep as u64 - 1
            }
        );
    }
    // Cut inside a line: both fail, on the same line.
    for keep in [2, lines.len() / 3, lines.len() - 1] {
        let prefix = lines[..keep].join("\n");
        for cut_at in [1, lines[keep].len() / 2, lines[keep].len() - 1] {
            let cut = format!("{prefix}\n{}", &lines[keep][..cut_at]);
            let want = value_path_events(&cut).unwrap_err();
            match insight::parse_events_jsonl(&cut).unwrap_err() {
                JsonlError::Line { line, .. } => assert_eq!(line, want),
                other => panic!("expected a line error, got {other}"),
            }
        }
    }
    // Without its meta line the same prefix is a bundle of its own.
    let headless = lines[1..lines.len() / 2].join("\n");
    assert_eq!(
        insight::parse_events_jsonl(&headless).unwrap(),
        value_path_events(&headless).unwrap()
    );
}
