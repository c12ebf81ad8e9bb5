//! The bundle codec against the `serde_json::Value` path on *recorded*
//! bundles: an 8-node dynamic run and a faulted 2-node run are exported,
//! then read back both ways. The generated-input half of this
//! differential lives in `crates/obs/tests/codec_differential.rs`; this
//! half makes sure nothing the real exporters write (flow ids above
//! 2^53, recovery kinds, sub-microsecond durations) reads differently.
//!
//! It also holds the interned event to what it replaced: names spelled
//! two ways intern to one handle, every equal name of a load shares one
//! allocation (the gate that can see what the interning is for), and one
//! run read three ways — the bus's own records, its parsed export,
//! `RollupEvent`s — renders every derived artifact to the same bytes.

use insight::TraceEvent;
use obs::rollup::{rollup, RollupConfig, RollupEvent};
use obs::{AuditLog, DecisionRecord, EventView, FrameSet, JsonlError, Name};
use prs_core::{run_iterative_observed, ClusterSpec, FaultPlan, JobConfig, Obs};
use prs_suite::hist;
use roofline::model::DataResidency;
use serde_json::Value;
use simtime::StackFrame;
use std::collections::BTreeMap;

fn record(spec: &ClusterSpec, config: JobConfig) -> Obs {
    let obs = Obs::recording();
    let app = hist(160_000, 8, 200.0, DataResidency::Resident);
    run_iterative_observed(spec, app, config, obs.clone()).unwrap();
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

/// `insight::parse_events_jsonl` as it was: a `Value` per line, a `String`
/// per name and a `BTreeMap` per event, converted at the end. `Err` is the
/// 1-based line it fails on.
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
            lane: text("lane").ok_or(i + 1)?.into(),
            kind: text("kind").ok_or(i + 1)?.into(),
            iter: int("iter"),
            part: int("part"),
            block: int("block"),
            attrs: attrs.into_iter().collect(),
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

fn value_path_frames(text: &str) -> Vec<StackFrame> {
    text.lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .filter(|v: &Value| v.get("schema").is_none())
        .map(|v| StackFrame {
            lane: v["lane"].as_str().unwrap().into(),
            frame: v["frame"].as_str().unwrap().into(),
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

#[test]
fn escaped_names_repeated_keys_and_displaced_attrs_read_like_the_value_path() {
    // One lane spelled three ways, a kind with an embedded quote spelled
    // two ways, an `attrs` member given twice, a key given twice inside
    // it, and a string displacing a number under one key.
    let text = r#"{"events":5,"schema":"prs-events-v1"}
{"attrs":{"flops":1,"bytes":8,"flops":2},"dur":0.5,"kind":"ma\"p","lane":"node0-sched","t":1}
{"attrs":{"bytes":8},"attrs":{"flops":3},"dur":0.5,"kind":"ma\u0022p","lane":"\u006eode0-sched","t":2}
{"attrs":{"bytes":5,"flops":4,"bytes":"x"},"kind":"map","lane":"n\u006fde0-sched","t":3}
{"attrs":{"wait_s":"x","wait_s":0.25},"kind":"map","lane":"node0\u002Dsched","t":4}
{"attrs":{},"kind":"m\u0061p","lane":"master","t":5}
"#;
    let got = insight::parse_events_jsonl(text).unwrap();
    assert_eq!(got, value_path_events(text).unwrap());
    let attrs = |e: &TraceEvent| -> Vec<(String, f64)> {
        e.attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    };
    assert_eq!(attrs(&got[0]), [("bytes".to_string(), 8.0), ("flops".to_string(), 2.0)]);
    assert_eq!(attrs(&got[1]), [("flops".to_string(), 3.0)], "the last `attrs` member wins");
    assert_eq!(attrs(&got[2]), [("flops".to_string(), 4.0)], "a string displaces the number");
    assert_eq!(attrs(&got[3]), [("wait_s".to_string(), 0.25)]);
    assert!(got[4].attrs.is_empty());
    // However a name is spelled, it is one `Name`.
    for e in &got[..4] {
        assert_eq!(e.lane, "node0-sched");
        assert!(Name::ptr_eq(&e.lane, &got[0].lane));
    }
    assert_eq!(got[0].kind, "ma\"p");
    assert!(Name::ptr_eq(&got[0].kind, &got[1].kind));
    assert!(Name::ptr_eq(&got[2].kind, &got[4].kind));
    let key = |e: &TraceEvent, k: &str| e.attrs.iter().find(|(n, _)| n == k).unwrap().0.clone();
    assert!(Name::ptr_eq(&key(&got[0], "flops"), &key(&got[2], "flops")));
}

/// Every name of a load, by text, must be one allocation.
fn assert_one_allocation_per_name(events: &[TraceEvent], what: &str) -> BTreeMap<String, Name> {
    let mut seen: BTreeMap<String, Name> = BTreeMap::new();
    let mut uses = 0usize;
    for e in events {
        let keys = e.attrs.iter().map(|(k, _)| k);
        for name in [&e.lane, &e.kind].into_iter().chain(keys) {
            uses += 1;
            let first = seen.entry(name.to_string()).or_insert_with(|| name.clone());
            assert!(Name::ptr_eq(first, name), "{what}: {name:?} is allocated twice");
        }
    }
    assert!(uses > 20 * seen.len(), "{what}: {uses} uses of {} names", seen.len());
    seen
}

#[test]
fn a_load_allocates_one_string_per_distinct_name() {
    for (name, obs) in bundles() {
        let parsed = insight::parse_events_jsonl(&obs.bus.to_jsonl()).unwrap();
        assert_one_allocation_per_name(&parsed, &format!("{name}: parsed"));
        let live = insight::from_bus(&obs.bus);
        let names = assert_one_allocation_per_name(&live, &format!("{name}: from_bus"));
        // ... and a snapshot's lanes and kinds are `Arc`s the bus already
        // holds (the first one seen, where devices brought their own),
        // not copies.
        obs.bus.with_events(|events| {
            let mut adopted: BTreeMap<&str, bool> = BTreeMap::new();
            for e in events {
                for arc in [e.lane_arc(), e.kind_arc()] {
                    *adopted.entry(arc).or_default() |= names[&**arc].shares(arc);
                }
            }
            assert!(adopted.len() > 20 && adopted.values().all(|shared| *shared), "{name}: {adopted:?}");
        });
    }
}

/// Everything `prs run --obs` and the analyzers derive from an event
/// stream, rendered.
fn derived_artifacts<E: EventView>(events: &[E], decisions: &[DecisionRecord]) -> [String; 5] {
    let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
    let watched = watch::watch(events, decisions, &watch::WatchConfig::default());
    let fitted = insight::fit_from_events(
        roofline::profiles::DeviceProfile::delta_node(),
        insight::DEFAULT_ALPHA,
        events,
    );
    [
        rollup(events, decisions, &RollupConfig::auto(horizon.max(1e-9))).to_jsonl(),
        watched.alerts_jsonl(),
        watched.incidents_jsonl(),
        insight::report_json(&insight::analyze_view(events)),
        insight::profile_toml::to_toml(&fitted),
    ]
}

fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
    items
}

#[test]
fn one_run_seen_three_ways_derives_the_same_bytes() {
    for (name, obs) in bundles() {
        // A span whose `flops` is given twice: every view must see the
        // last value, under the sorted key order of its exported line.
        let t = simtime::SimTime::from_secs_f64;
        obs.bus
            .span("node0-cpu-c0", "cpu-task", t(0.0701), t(0.0702))
            .unwrap()
            .attr("flops", 1.0)
            .attr("bytes", 4096.0)
            .attr("flops", 3.0e6)
            .commit();
        let decisions = obs.audit.records();
        let text = obs.bus.to_jsonl();
        let parsed = insight::parse_events_jsonl(&text).unwrap();
        let want = derived_artifacts(&parsed, &decisions);
        assert!(want[0].lines().count() > 5 && want[3].len() > 500, "{name}: real artifacts");

        let rolled: Vec<RollupEvent> = parsed
            .iter()
            .map(|e| RollupEvent {
                t: e.t,
                dur: e.dur,
                lane: e.lane.clone(),
                kind: e.kind.clone(),
                iter: e.iter,
                attrs: e.attrs.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            })
            .collect();
        assert_eq!(derived_artifacts(&rolled, &decisions), want, "{name}: RollupEvents");

        obs.bus.with_events(|events| {
            let view = insight::canonical_view(events);
            assert_eq!(derived_artifacts(&view, &decisions), want, "{name}: the bus's own records");
            let permuted = shuffled(events.iter().collect::<Vec<_>>(), 0x5eed);
            let view = insight::canonical_view(&permuted);
            assert_eq!(derived_artifacts(&view, &decisions), want, "{name}: permuted bus");
        });
        assert_eq!(
            derived_artifacts(&insight::from_bus(&obs.bus), &decisions),
            want,
            "{name}: bus snapshot"
        );
        let mut lines: Vec<&str> = text.lines().collect();
        let body = shuffled(lines.split_off(1), 0xfeed);
        let permuted = format!("{}\n{}\n", lines[0], body.join("\n"));
        let reparsed = insight::parse_events_jsonl(&permuted).unwrap();
        assert_eq!(derived_artifacts(&reparsed, &decisions), want, "{name}: permuted file");
    }
}
