//! Profiler and differential-attribution scenarios over seeded bundles.
//!
//! Three properties pin the tentpole's end-to-end behavior:
//!
//! 1. a seeded run's `stacks.jsonl` / `profile.folded` / `profile.json`
//!    are byte-stable across repeats and round-trip through the JSONL
//!    export (live recording and offline parsing profile identically);
//! 2. an injected GPU slowdown is *attributed*: `insight::diff` lays
//!    >= 90% of the makespan delta on the perturbed node's map phase;
//! 3. recovery after a node crash shows up as its own profile lane
//!    (`resilience`) with non-zero virtual-time samples.

use obs::Obs;
use prs_core::{run_epochs, run_iterative_observed, ClusterSpec, EpochOptions, FaultPlan, JobConfig};
use prs_suite::HistApp;
use roofline::model::DataResidency;
use std::sync::Arc;

fn hist() -> Arc<HistApp> {
    prs_suite::hist(120_000, 10, 100.0, DataResidency::Staged)
}

/// Runs one observed scenario and renders the profiler artifacts.
fn profile_run(spec: &ClusterSpec, config: JobConfig) -> (Obs, obs::FrameSet, obs::Profile) {
    let obs = Obs::recording();
    run_iterative_observed(spec, hist(), config, obs.clone()).unwrap();
    let set = obs::FrameSet::from_stack(&obs.stack);
    let horizon = insight::from_bus(&obs.bus)
        .iter()
        .map(insight::TraceEvent::end)
        .fold(0.0, f64::max);
    let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
    (obs, set, prof)
}

/// Seeded golden bundle: repeat runs render byte-identical profiler
/// artifacts, the stacks export round-trips, and the samples land where
/// the paper's pipeline spends its time (the map stage).
#[test]
fn seeded_profile_artifacts_are_byte_stable_and_non_vacuous() {
    let spec = ClusterSpec::delta(2)
        .with_faults(FaultPlan::seeded(42).with_random_jitter(2, 3, 1.0, 0.001));
    let config = JobConfig::static_analytic().with_iterations(2);
    let (_, set_a, prof_a) = profile_run(&spec, config);
    let (_, set_b, prof_b) = profile_run(&spec, config);

    assert_eq!(set_a.to_stacks_jsonl(), set_b.to_stacks_jsonl(), "stacks.jsonl not repeat-stable");
    assert_eq!(prof_a.to_folded(), prof_b.to_folded(), "profile.folded not repeat-stable");
    assert_eq!(prof_a.to_json(), prof_b.to_json(), "profile.json not repeat-stable");

    // Round-trip: parsing the export reproduces the live frame set.
    let parsed = obs::FrameSet::parse_stacks_jsonl(&set_a.to_stacks_jsonl()).unwrap();
    assert_eq!(parsed.frames(), set_a.frames(), "stacks.jsonl must round-trip losslessly");
    let reprof = obs::profile(&parsed, prof_a.horizon_s, prof_a.period_s);
    assert_eq!(reprof.to_json(), prof_a.to_json(), "offline re-profile must match the live one");

    // Golden structure: real samples, map-dominated, schema pinned.
    assert!(prof_a.samples > 0, "a recorded run must produce samples");
    let map = prof_a.phases.get("map").expect("map phase present");
    let best = prof_a.phases.values().map(|p| p.samples).max().unwrap();
    assert_eq!(map.samples, best, "the map stage dominates this workload");
    assert!(prof_a.to_json().contains("\"schema\": \"prs-profile-v1\""));
    assert!(set_a.to_stacks_jsonl().contains("\"schema\":\"prs-stacks-v1\""));
}

/// The acceptance scenario: a seeded pair differing only by an injected
/// GPU slowdown window on node 1. `insight::diff` must attribute at
/// least 90% of the makespan delta to that node's map phase.
#[test]
fn gpu_slowdown_is_attributed_to_the_injected_node_and_phase() {
    let config = JobConfig::static_analytic().with_iterations(3);
    let clean = ClusterSpec::delta(2);
    let slowed = ClusterSpec::delta(2)
        .with_faults(FaultPlan::seeded(9).slow_gpu(1, 0, 0.0, 1e9, 4.0));

    let events = |spec: &ClusterSpec| {
        let obs = Obs::recording();
        run_iterative_observed(spec, hist(), config, obs.clone()).unwrap();
        insight::from_bus(&obs.bus)
    };
    let base = events(&clean);
    let cand = events(&slowed);
    let d = insight::diff_events(&base, &cand);

    assert!(d.delta > 0.0, "a 4x GPU slowdown must stretch the makespan");
    let share = d.attribution_share("map", 1);
    assert!(
        share >= 0.90,
        "diff must attribute >= 90% of the delta to node 1's map phase, got {:.1}% \
         (by_phase: {:?}, by_node: {:?})",
        share * 100.0,
        d.by_phase,
        d.by_node
    );
    assert_eq!(d.top_phase().map(|(p, _)| p), Some("map"));
    assert_eq!(d.top_node().map(|(n, _)| n), Some(1));
    // The artifact itself is deterministic and self-identifying.
    let again = insight::diff_events(&base, &cand);
    assert_eq!(d.to_json(), again.to_json(), "diff.json must be repeat-stable");
    assert!(d.to_json().contains("\"schema\": \"prs-diff-v1\""));
}

/// A node crash routes through the resilient driver; the paid recovery
/// delay must surface as a distinct `resilience` lane in the profile,
/// classified under the `recovery` phase.
#[test]
fn recovery_time_is_a_distinct_profile_lane() {
    let config = JobConfig::static_analytic().with_iterations(4).with_checkpoint_interval(1);
    // Place the crash from the clean run's stage clocks, inside
    // iteration 3 (after the iteration-2 checkpoint exists).
    let clean_obs = Obs::recording();
    let clean = run_iterative_observed(&ClusterSpec::delta(3), hist(), config, clean_obs).unwrap();
    let it = &clean.metrics.iterations;
    let crash_at =
        clean.metrics.setup_seconds + it[0].total() + it[1].total() + 0.5 * it[2].total();

    let spec = ClusterSpec::delta(3).with_faults(FaultPlan::seeded(6).crash_node(2, crash_at));
    let obs = Obs::recording();
    let outcome = run_epochs(
        &spec,
        hist(),
        config,
        EpochOptions { obs: obs.clone(), ..Default::default() },
    )
    .unwrap();
    assert_eq!(outcome.metrics.recovery.node_crashes, 1);

    let set = obs::FrameSet::from_stack(&obs.stack);
    let prof = obs::profile(&set, set.horizon(), obs::profile::DEFAULT_PERIOD_S);
    assert!(
        prof.lanes.contains_key("resilience"),
        "recovery must appear as its own lane, got lanes {:?}",
        prof.lanes.keys().collect::<Vec<_>>()
    );
    let recovery = prof.phases.get("recovery").expect("recovery phase present");
    assert!(
        recovery.samples > 0,
        "the detection delay is virtual time and must be sampled"
    );
    assert_eq!(
        recovery.by_class.get("recovery").copied().unwrap_or(0),
        recovery.samples,
        "recovery-phase samples all come from the resilience lane"
    );
    // And the folded output names the lane for flamegraph tooling.
    assert!(prof.to_folded().contains("resilience;recovery"));
}
