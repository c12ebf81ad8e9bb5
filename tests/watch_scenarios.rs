//! End-to-end watchdog scenarios: real runtime traces (not synthetic
//! event lists) flow through `watch::watch` and the chaos scoring
//! harness, pinning the detector → SLO → incident pipeline against the
//! behaviours the seeded grid relies on:
//!
//! - a fault-free run is completely alert-free under the default rules;
//! - an injected CPU slowdown surfaces as a `cpu-slowdown` incident
//!   blamed on the straggling node;
//! - the forced crash trials of the chaos grid are detected with zero
//!   fault-free alerts and non-negative time-to-detect;
//! - TOML rule files actually change what fires;
//! - the online subscription path sees exactly the events the full
//!   stream sees.

use obs::rollup::RollupEvent;
use obs::Obs;
use prs_core::{
    run_chaos_scored, run_iterative_observed, ChaosConfig, ClusterSpec, DeviceClass, EngineMode,
    FaultPlan, IterativeApp, JobConfig, Key, SpmdApp,
};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;
use watch::{FaultKind, WatchConfig};

/// Deterministic value histogram (same shape as the fault suite).
struct HistApp {
    n: usize,
    k: u64,
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
        Workload::uniform(100.0, DataResidency::Staged)
    }
    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        range.map(|i| ((i as u64 * 2654435761) % self.k, 1)).collect()
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

fn hist() -> Arc<HistApp> {
    Arc::new(HistApp { n: 120_000, k: 10 })
}

/// Runs one observed job and feeds the recorded trace to the watchdog.
fn watch_run(spec: &ClusterSpec, config: JobConfig, rules: &WatchConfig) -> watch::WatchOutput {
    let obs = Obs::recording();
    run_iterative_observed(spec, hist(), config, obs.clone()).expect("run completes");
    let events: Vec<RollupEvent> = obs.bus.events().iter().map(Into::into).collect();
    watch::watch(&events, &obs.audit.records(), rules)
}

#[test]
fn fault_free_run_is_alert_free() {
    let out = watch_run(
        &ClusterSpec::delta(3),
        JobConfig::static_analytic().with_iterations(3),
        &WatchConfig::default(),
    );
    assert!(out.alerts.is_empty(), "healthy run fired: {:?}", out.alerts);
    assert!(out.incidents.is_empty());
    // The artifacts still render (meta line only) so exporters stay total.
    assert!(out.alerts_jsonl().contains("prs-watch-v1"));
    assert!(out.incidents_jsonl().contains("prs-watch-v1"));
}

#[test]
fn injected_cpu_slowdown_becomes_a_straggler_incident() {
    let spec = ClusterSpec::delta(3).with_faults(FaultPlan::seeded(11).slow_cpu(0, 0.0, 1e9, 4.0));
    let out = watch_run(
        &spec,
        JobConfig::static_analytic().with_iterations(3),
        &WatchConfig::default(),
    );
    let incident = out
        .incidents
        .iter()
        .find(|i| i.kind.as_str() == "cpu-slowdown")
        .expect("a 4x CPU slowdown must raise a cpu-slowdown incident");
    assert!(incident.nodes.contains(&0), "wrong culprit: {:?}", incident.nodes);
    assert_eq!(incident.blame.as_str(), "straggler");
}

#[test]
fn chaos_grid_forced_crashes_are_detected_with_zero_false_positives() {
    // Trials 0 and 1 of the grid force a node crash and a master crash.
    let (_, score) = run_chaos_scored(
        &ChaosConfig {
            trials: 2,
            seed: 7,
            engine: EngineMode::LegacyHeap,
        },
        &WatchConfig::default(),
    );
    assert_eq!(score.fault_free_alerts, 0, "baseline runs must stay silent");
    for kind in [FaultKind::NodeCrash, FaultKind::MasterCrash] {
        let ks = score.kinds.get(&kind).expect("kind present");
        assert!(ks.injected >= 1, "{kind:?} not injected by the forced trials");
        assert_eq!(ks.detected, ks.injected, "{kind:?} missed");
        assert!(
            ks.median_ttd().unwrap_or(f64::NAN) >= 0.0,
            "{kind:?} time-to-detect must be non-negative"
        );
    }
    assert!(score.meets_floors(), "forced-crash grid must meet the floors");
}

#[test]
fn toml_rules_control_what_fires() {
    // Only the heartbeat rules survive: the same straggler trace that
    // fires the drift detector above must now stay quiet.
    let rules = WatchConfig::from_toml(
        r#"
        merge_gap_s = 0.5

        [[rule]]
        name = "node-heartbeat-gap"
        detector = "heartbeat-gap"
        class = "node"
        objective = 1e-9
        severity = "page"
        "#,
    )
    .expect("valid rules file");
    assert_eq!(rules.rules.len(), 1);
    let spec = ClusterSpec::delta(3).with_faults(FaultPlan::seeded(11).slow_cpu(0, 0.0, 1e9, 4.0));
    let out = watch_run(&spec, JobConfig::static_analytic().with_iterations(3), &rules);
    assert!(
        out.alerts.is_empty(),
        "no drift rule configured, yet fired: {:?}",
        out.alerts
    );
}

#[test]
fn online_subscription_sees_the_full_stream() {
    let obs = Obs::recording();
    let mut sub = obs.bus.subscribe();
    let spec = ClusterSpec::delta(2);
    let config = JobConfig::static_analytic().with_iterations(2);
    let watched = run_iterative_observed(&spec, hist(), config, obs.clone()).expect("run completes");
    // An attached subscriber is host-side only: the clock is the
    // unobserved run's to the bit.
    let bare = run_iterative_observed(&spec, hist(), config, Obs::disabled()).expect("run completes");
    assert_eq!(
        watched.metrics.total_seconds.to_bits(),
        bare.metrics.total_seconds.to_bits(),
        "watching must not advance virtual time"
    );
    let polled: Vec<RollupEvent> = sub.poll().iter().map(Into::into).collect();
    let full: Vec<RollupEvent> = obs.bus.events().iter().map(Into::into).collect();
    assert_eq!(polled.len(), full.len());
    let rules = WatchConfig::default();
    let a = watch::watch(&polled, &obs.audit.records(), &rules);
    let b = watch::watch(&full, &obs.audit.records(), &rules);
    assert_eq!(a.alerts_jsonl(), b.alerts_jsonl());
    assert_eq!(a.incidents_jsonl(), b.incidents_jsonl());
    // Nothing left behind after the drain.
    assert!(sub.poll().is_empty());
}
