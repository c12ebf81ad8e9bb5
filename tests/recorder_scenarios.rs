//! End-to-end flight-recorder scenarios: the bounded-memory recorder
//! rides real runtime traces and the chaos grid, and this suite pins
//! the properties the postmortem pipeline depends on:
//!
//! - the seed-7 scored grid's captures and postmortems render
//!   byte-identically under every engine mode and across repeat runs;
//! - every scored incident links to exactly one capture, and every
//!   capture belongs to exactly one incident;
//! - recording never perturbs the run (report and score bytes match the
//!   unrecorded grid, virtual clocks are bit-identical) and the
//!   recorder's resident-event count stays under its budget;
//! - an injected GPU slowdown's postmortem names the faulted node and
//!   fault kind, agreeing with the injected ground truth.

use obs::rollup::RollupEvent;
use obs::{Obs, RecorderConfig};
use prs_core::{
    ground_truth_from_plan, run_chaos, run_iterative_observed, ChaosConfig, ChaosWatch,
    ClusterSpec, EngineMode, FaultPlan, JobConfig, TrialRecording,
};
use prs_suite::HistApp;
use roofline::model::DataResidency;
use std::collections::BTreeSet;
use std::sync::Arc;
use watch::{FaultKind, WatchConfig};

fn hist() -> Arc<HistApp> {
    prs_suite::hist(120_000, 10, 100.0, DataResidency::Staged)
}

/// The acceptance grid: 32 scored seed-7 trials with recording armed.
fn grid(engine: EngineMode) -> (prs_core::ChaosReport, watch::WatchScore, Vec<TrialRecording>) {
    recorded(&ChaosConfig { trials: 32, seed: 7, engine }, &WatchConfig::default())
}

/// The recorded grid, with the score its watch always yields.
fn recorded(
    cfg: &ChaosConfig,
    rules: &WatchConfig,
) -> (prs_core::ChaosReport, watch::WatchScore, Vec<TrialRecording>) {
    let (report, score, recordings) = run_chaos(cfg, ChaosWatch::Recorded(rules));
    (report, score.expect("a recorded grid is scored"), recordings)
}

/// Renders everything a recorded trial writes to disk — every capture's
/// JSONL plus the postmortem document — into one comparable string.
fn render(recordings: &[TrialRecording]) -> String {
    let mut out = String::new();
    for rec in recordings {
        out.push_str(&format!("== trial {} ==\n", rec.index));
        for c in &rec.captures {
            out.push_str(&c.file_name());
            out.push('\n');
            out.push_str(&c.to_jsonl());
        }
        out.push_str(&rec.postmortem.to_json_string());
        out.push('\n');
    }
    out
}

#[test]
fn seed7_grid_recordings_byte_identical_across_engines_and_repeats() {
    let (_, _, reference) = grid(EngineMode::LegacyHeap);
    let reference = render(&reference);
    assert!(!reference.is_empty(), "the scored grid must record trials");
    for mode in [EngineMode::Calendar, EngineMode::Parallel] {
        let (_, _, got) = grid(mode);
        assert_eq!(
            render(&got),
            reference,
            "captures/postmortems diverged under the {mode} engine"
        );
    }
    // Repeat run under the sharded engine: stable across process reuse.
    let (_, _, again) = grid(EngineMode::Parallel);
    assert_eq!(render(&again), reference, "repeat run diverged");
}

#[test]
fn every_scored_incident_links_to_exactly_one_capture() {
    let (_, score, recordings) = grid(EngineMode::Calendar);
    assert!(score.trials > 0);
    let mut total_incidents = 0;
    for rec in &recordings {
        let entries = rec.postmortem.as_object().unwrap()["incidents"]
            .as_array()
            .expect("postmortem has an incidents array");
        // One capture per incident, each linked exactly once.
        assert_eq!(
            rec.captures.len(),
            entries.len(),
            "trial {}: capture count != incident count",
            rec.index
        );
        let mut linked = BTreeSet::new();
        for e in entries {
            let e = e.as_object().unwrap();
            let cap = e["capture"].as_str().expect("incident entry links a capture");
            assert!(linked.insert(cap.to_string()), "capture {cap} linked twice");
            // The incident row itself carries the link too, so
            // `incidents.jsonl` points at the artifact.
            let inc = e["incident"].as_object().unwrap();
            assert_eq!(inc["capture"].as_str(), Some(cap));
        }
        let names: BTreeSet<String> = rec.captures.iter().map(|c| c.name.clone()).collect();
        assert_eq!(
            linked, names,
            "trial {}: linked captures != emitted captures",
            rec.index
        );
        total_incidents += entries.len();
    }
    assert!(total_incidents > 0, "the seed-7 grid must open incidents");
}

#[test]
fn recording_never_perturbs_the_grid_and_stays_under_budget() {
    let cfg = ChaosConfig { trials: 8, seed: 7, engine: EngineMode::Calendar };
    let rules = WatchConfig::default();
    let (plain_report, plain_score, _) = run_chaos(&cfg, ChaosWatch::Scored(&rules));
    let (rec_report, rec_score, recordings) = recorded(&cfg, &rules);
    // The recorder is a pure observer: report and score bytes match the
    // unrecorded grid exactly.
    assert_eq!(rec_report.to_json().to_json_string(), plain_report.to_json().to_json_string());
    assert_eq!(Some(rec_score.to_json()), plain_score.map(|s| s.to_json()));
    let budget = RecorderConfig::enabled().budget;
    for rec in &recordings {
        assert!(
            rec.recorder.peak_retained <= budget,
            "trial {}: peak retained {} exceeds budget {budget}",
            rec.index,
            rec.recorder.peak_retained
        );
        assert!(rec.total_virtual_secs.is_finite() && rec.total_virtual_secs > 0.0);
    }
}

#[test]
fn recording_keeps_the_virtual_clock_bit_identical() {
    // The same faulted run with and without the recorder: every virtual
    // timestamp the bus carries must agree to the bit.
    let plan = FaultPlan::seeded(11).slow_cpu(0, 0.0, 1e9, 4.0);
    let spec = ClusterSpec::delta(3).with_faults(plan);
    let config = JobConfig::static_analytic().with_iterations(3);
    let run = |obs: Obs| {
        let r = run_iterative_observed(&spec, hist(), config, obs.clone()).expect("run completes");
        let m = r.metrics;
        (obs.bus.to_jsonl(), (m.compute_seconds.to_bits(), m.total_seconds.to_bits()))
    };
    let (plain_events, plain_bits) = run(Obs::recording());
    // Nor does the plain recording differ from the unobserved run.
    assert_eq!(run(Obs::disabled()).1, plain_bits, "observing moved the virtual clock");
    // Shadow mode: full bus retained, so the event log is comparable.
    let (rec_events, rec_bits) =
        run(Obs::recording_with_recorder(RecorderConfig::enabled(), false));
    assert_eq!(plain_events, rec_events, "recording changed the event stream");
    assert_eq!(plain_bits, rec_bits, "recording moved the virtual clock");
    // Bounded mode trims the bus but must not move the clock either.
    let (_, bounded_bits) =
        run(Obs::recording_with_recorder(RecorderConfig::enabled(), true));
    assert_eq!(plain_bits, bounded_bits, "bounded recording moved the virtual clock");
}

#[test]
fn bounded_mode_runs_in_budget_resident_events() {
    let cfg = RecorderConfig { window: 0.0001, budget: 512, rollup_period: 0.0001 };
    let obs = Obs::recording_with_recorder(cfg, true);
    run_iterative_observed(
        &ClusterSpec::delta(3),
        hist(),
        JobConfig::static_analytic().with_iterations(4),
        obs.clone(),
    )
    .expect("run completes");
    let summary = obs.recorder.summary();
    assert!(
        obs.bus.resident_len() <= cfg.budget,
        "bus holds {} resident events, budget {}",
        obs.bus.resident_len(),
        cfg.budget
    );
    assert!(summary.retained <= cfg.budget);
    assert!(summary.folded > 0, "evicted history must fold, not vanish");
    assert!(obs.bus.len() > obs.bus.resident_len(), "something must have been trimmed");
}

#[test]
fn injected_gpu_fault_postmortem_names_the_node_and_kind() {
    let plan = FaultPlan::seeded(11).slow_gpu(1, 0, 0.0, 1e9, 4.0);
    let truth = ground_truth_from_plan(&plan);
    let injected: Vec<_> = truth
        .iter()
        .filter(|f| f.kind == FaultKind::GpuSlowdown)
        .collect();
    assert_eq!(injected.len(), 1, "the plan injects one scoreable GPU fault");
    assert_eq!(injected[0].node, Some(1));

    // Generous window so the whole faulted run stays exact.
    let rec_cfg = RecorderConfig { window: 1e9, budget: 1 << 20, rollup_period: 0.5 };
    let obs = Obs::recording_with_recorder(rec_cfg, false);
    run_iterative_observed(
        &ClusterSpec::delta(3).with_faults(plan),
        hist(),
        JobConfig::static_analytic().with_iterations(3),
        obs.clone(),
    )
    .expect("run completes");

    let events: Vec<RollupEvent> = obs.bus.events().iter().map(RollupEvent::from).collect();
    let mut out = watch::watch(&events, &obs.audit.records(), &WatchConfig::default());
    let gpu_incident = out
        .incidents
        .iter()
        .position(|i| i.kind.as_str() == "gpu-slowdown")
        .expect("a 4x GPU slowdown must raise a gpu-slowdown incident");
    let incident_id = out.incidents[gpu_incident].id;

    let frames = obs::FrameSet::from_stack(&obs.stack);
    let (captures, pm) =
        watch::capture_postmortem(&mut out, &obs.recorder, &obs.audit.records(), &frames);
    assert_eq!(captures.len(), out.incidents.len());

    let entry = pm.as_object().unwrap()["incidents"]
        .as_array()
        .unwrap()
        .iter()
        .find(|e| {
            e.as_object().unwrap()["incident"].as_object().unwrap()["id"].as_u64()
                == Some(incident_id as u64)
        })
        .expect("postmortem entry for the GPU incident")
        .as_object()
        .unwrap()
        .clone();
    let blame = entry["primary_blame"].as_object().unwrap();
    assert_eq!(blame["kind"].as_str(), Some("gpu-slowdown"), "postmortem names the kind");
    assert_eq!(blame["node"].as_f64(), Some(1.0), "postmortem names the faulted node");

    // The human report names both too.
    let text = insight::postmortem::summary(&pm);
    assert!(text.contains("gpu-slowdown"), "{text}");
    assert!(text.contains("node 1"), "{text}");
}
