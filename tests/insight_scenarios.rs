//! Insight-layer scenario suite: the analyzer's promises over real
//! runtime executions.
//!
//! 1. *Determinism* — the same seeded scenario produces byte-identical
//!    `report.json` / `critical_path.json` artifacts across independent
//!    runs, whether the events come from a live bus or a re-parsed
//!    `events.jsonl` export.
//! 2. *Faithful blame* — the iteration in which a GPU dies is blamed
//!    `recovery`; fault-free iterations are not.
//! 3. *Structural sanity* — stage windows cover the iteration, the
//!    critical path walks map → shuffle → reduce → update, and lane
//!    slack never goes negative.

use prs_core::obs::EventView;
use prs_core::{run_iterative, run_iterative_observed, ClusterSpec, FaultPlan, JobConfig, Obs};
use prs_suite::hist;
use roofline::model::DataResidency;

/// Runs the seeded GPU-crash scenario and returns the recorded bus.
fn crash_scenario() -> Obs {
    let mk = || hist(400_000, 16, 500.0, DataResidency::Resident);
    let config = JobConfig::static_analytic().with_iterations(2);
    // Crash node 0's GPU mid-way through iteration 0's map stage.
    let clean = run_iterative(&ClusterSpec::delta(2), mk(), config).unwrap();
    let crash_at = clean.metrics.setup_seconds + 0.4 * clean.metrics.iterations[0].map;
    let spec = ClusterSpec::delta(2).with_faults(FaultPlan::seeded(1).crash_gpu(0, 0, crash_at));
    let obs = Obs::recording();
    run_iterative_observed(&spec, mk(), config, obs.clone()).unwrap();
    obs
}

#[test]
fn analysis_artifacts_are_byte_identical_across_runs() {
    let render = || {
        let obs = crash_scenario();
        let events = insight::from_bus(&obs.bus);
        let analysis = insight::analyze(&events);
        (
            insight::report_json(&analysis),
            insight::critical_path_json(&analysis),
        )
    };
    let (report_a, path_a) = render();
    let (report_b, path_b) = render();
    assert_eq!(report_a, report_b, "report.json must be byte-identical");
    assert_eq!(path_a, path_b, "critical_path.json must be byte-identical");
    // Schema headers are pinned so downstream tooling can dispatch.
    assert!(report_a.contains("prs-insight-report-v1"));
    assert!(path_a.contains("prs-insight-critical-path-v1"));
}

#[test]
fn exported_jsonl_round_trips_to_the_same_analysis() {
    let obs = crash_scenario();
    let live = insight::analyze(&insight::from_bus(&obs.bus));
    let reparsed =
        insight::analyze(&insight::parse_events_jsonl(&obs.bus.to_jsonl()).unwrap());
    assert_eq!(
        insight::report_json(&live),
        insight::report_json(&reparsed),
        "a trace read back from events.jsonl must analyze identically"
    );
}

#[test]
fn gpu_death_iteration_is_blamed_recovery() {
    let obs = crash_scenario();
    let analysis = insight::analyze(&insight::from_bus(&obs.bus));
    assert_eq!(analysis.iterations.len(), 2);
    let it0 = &analysis.iterations[0];
    let it1 = &analysis.iterations[1];
    assert_eq!(
        it0.blame,
        insight::Blame::Recovery,
        "the crash fires inside iteration 0's map window"
    );
    assert!(it0.recovery_events > 0);
    assert_ne!(
        it1.blame,
        insight::Blame::Recovery,
        "iteration 1 runs on the survivors without new faults"
    );
    assert_eq!(it1.recovery_events, 0);
    let counts = analysis.blame_counts();
    assert_eq!(counts.get("recovery"), Some(&1));
    // The summary table surfaces the same verdicts.
    let table = insight::summary_table(&analysis);
    assert!(table.contains("recovery"), "table: {table}");
}

#[test]
fn critical_path_and_slack_are_structurally_sound() {
    let obs = crash_scenario();
    let analysis = insight::analyze(&insight::from_bus(&obs.bus));
    for it in &analysis.iterations {
        // Full stage walk, barrier-ordered.
        let stages: Vec<&str> = it.path.iter().map(|p| p.stage.as_str()).collect();
        assert_eq!(stages, ["map", "shuffle", "reduce", "update"]);
        for pair in it.path.windows(2) {
            assert!(
                pair[1].end >= pair[0].end,
                "stage ends must be monotone: {pair:?}"
            );
        }
        assert!(it.duration() > 0.0);
        assert!(it.compute_secs > 0.0);
        // Stage windows nest inside the iteration window.
        for p in &it.path {
            assert!(p.start >= it.start - 1e-12 && p.end <= it.end + 1e-12);
        }
        for ls in &it.lane_slack {
            assert!(ls.busy >= 0.0, "{}: busy {}", ls.lane, ls.busy);
            assert!(
                ls.slack >= -1e-9,
                "{}: slack {} (busy beyond the window)",
                ls.lane,
                ls.slack
            );
            assert!(!ls.lane.ends_with("-sched") && ls.lane != "master");
        }
    }
}

#[test]
fn fault_free_high_ai_run_is_gpu_bound_and_spans_carry_work_attrs() {
    let obs = Obs::recording();
    run_iterative_observed(
        &ClusterSpec::delta(2),
        hist(400_000, 16, 500.0, DataResidency::Resident),
        JobConfig::static_analytic().with_iterations(2),
        obs.clone(),
    )
    .unwrap();
    let events = insight::from_bus(&obs.bus);
    let analysis = insight::analyze(&events);
    for it in &analysis.iterations {
        assert!(
            matches!(it.blame, insight::Blame::GpuBound | insight::Blame::CpuBound),
            "fault-free run must be compute-bound, got {:?}",
            it.blame
        );
    }
    // The instrumentation threads flop/byte counts through compute spans —
    // this is what the calibration engine fits from.
    let with_work: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "cpu-task" || e.kind == "kernel")
        .collect();
    assert!(!with_work.is_empty());
    for e in &with_work {
        assert!(e.attr("flops").is_some_and(|f| f > 0.0), "{e:?}");
        assert!(e.attr("bytes").is_some_and(|b| b > 0.0), "{e:?}");
    }
}
