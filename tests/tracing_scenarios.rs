//! Cross-node causal-tracing scenario suite.
//!
//! Pins the four properties the tracing layer promises on top of real
//! runtime executions, faults included:
//!
//! 1. *Flow conservation* — every `msg-recv` pairs with exactly one
//!    `msg-send` carrying the same `flow` id, no orphans on either side,
//!    and causality holds (`recv_t >= send_t`) — across all six fault
//!    scenarios, including network partition and jitter windows.
//! 2. *Rollup determinism* — the windowed cluster rollup of a seeded
//!    4-node run renders byte-identically across reruns, and its busy-
//!    second total agrees with the per-device utilization gauges in the
//!    metrics registry.
//! 3. *`prs top` determinism* — a snapshot frame at a fixed virtual
//!    instant is byte-identical across two independent seeded runs.
//! 4. *Zero overhead* — tracing disabled leaves the virtual clock of a
//!    faulty run bit-identical to the instrumented one.

use obs::rollup::{rollup, RollupConfig, RollupEvent};
use obs::Obs;
use prs_core::{run_iterative_observed, ClusterSpec, FaultPlan, JobConfig};
use prs_suite::hist;
use roofline::model::DataResidency;
use std::collections::BTreeMap;

/// The six seeded fault scenarios of `fault_scenarios.rs`, rebuilt as
/// `(name, spec, config)` tuples so one property can sweep all of them.
fn scenarios() -> Vec<(&'static str, ClusterSpec, JobConfig)> {
    vec![
        (
            "gpu-crash",
            ClusterSpec::delta(2).with_faults(FaultPlan::seeded(1).crash_gpu(0, 0, 0.05)),
            JobConfig::static_analytic().with_iterations(2),
        ),
        (
            "straggler-reassign",
            ClusterSpec::delta(2)
                .with_faults(FaultPlan::seeded(2).stall_node(1, 0.0, 10.0, 5.0)),
            JobConfig::static_analytic().with_partition_timeout(0.1, 1),
        ),
        (
            "partition-and-jitter",
            ClusterSpec::delta(3).with_faults(
                FaultPlan::seeded(3)
                    .jitter_link(Some(0), None, 0.0, 1.0, 0.002)
                    .partition_link(Some(1), Some(2), 0.0, 0.05)
                    .with_random_jitter(3, 4, 1.0, 0.001),
            ),
            JobConfig::static_analytic().with_iterations(2),
        ),
        (
            "combined-faults",
            ClusterSpec::delta(2).with_faults(
                FaultPlan::seeded(42)
                    .crash_gpu(1, 0, 0.05)
                    .slow_cpu(0, 0.0, 0.5, 2.0)
                    .with_random_jitter(2, 3, 1.0, 0.001),
            ),
            JobConfig::static_analytic()
                .with_iterations(2)
                .with_partition_timeout(0.2, 2),
        ),
        (
            "dynamic-gpu-crash",
            ClusterSpec::delta(2).with_faults(FaultPlan::seeded(4).crash_gpu(0, 0, 0.05)),
            JobConfig::dynamic(2_000).with_iterations(2),
        ),
        (
            "slowdown-windows",
            ClusterSpec::delta(2).with_faults(
                FaultPlan::seeded(5)
                    .slow_cpu(0, 0.0, 1.0, 3.0)
                    .slow_gpu(1, 0, 0.0, 1.0, 2.0),
            ),
            JobConfig::static_analytic().with_iterations(2),
        ),
    ]
}

fn observed_run(spec: &ClusterSpec, config: JobConfig) -> Obs {
    let obs = Obs::recording();
    run_iterative_observed(
        spec,
        hist(120_000, 10, 100.0, DataResidency::Staged),
        config,
        obs.clone(),
    )
    .unwrap();
    obs
}

/// Property: flow conservation. For every scenario, group the message
/// point events by `flow` attr — each id must appear exactly once as a
/// send and exactly once as a recv, with `recv_t >= send_t`. Partition
/// and jitter windows delay messages; they must never drop or duplicate
/// them.
#[test]
fn every_msg_recv_pairs_with_exactly_one_msg_send() {
    for (name, spec, config) in scenarios() {
        let obs = observed_run(&spec, config);
        let mut sends: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut recvs: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for e in obs.bus.events() {
            let Some((_, flow)) = e.attrs.iter().find(|(k, _)| *k == "flow") else {
                continue;
            };
            match &*e.kind {
                "msg-send" => sends.entry(*flow as u64).or_default().push(e.t),
                "msg-recv" => recvs.entry(*flow as u64).or_default().push(e.t),
                _ => {}
            }
        }
        assert!(
            sends.len() > 4,
            "[{name}] a multi-node run must emit real message flows, got {}",
            sends.len()
        );
        for (flow, times) in &recvs {
            assert!(
                sends.contains_key(flow),
                "[{name}] orphan msg-recv: flow {flow} was never sent"
            );
            assert_eq!(times.len(), 1, "[{name}] flow {flow} received more than once");
        }
        for (flow, times) in &sends {
            assert_eq!(times.len(), 1, "[{name}] flow {flow} sent more than once");
            let recv = recvs.get(flow);
            assert!(
                recv.is_some(),
                "[{name}] orphan msg-send: flow {flow} was never received"
            );
            assert!(
                recv.unwrap()[0] >= times[0],
                "[{name}] flow {flow} received before it was sent: {} < {}",
                recv.unwrap()[0],
                times[0]
            );
        }
    }
}

fn rollup_of(obs: &Obs) -> obs::rollup::Rollup {
    let events: Vec<RollupEvent> = obs.bus.events().iter().map(RollupEvent::from).collect();
    let horizon = events.iter().map(RollupEvent::end).fold(0.0, f64::max);
    rollup(
        &events,
        &obs.audit.records(),
        &RollupConfig::auto(horizon.max(1e-9)),
    )
}

/// Property: the rollup of a seeded 4-node run is deterministic (byte-
/// identical JSONL across reruns) and its busy-lane-seconds total agrees
/// with the per-device utilization gauges the runtime writes into the
/// metrics registry.
#[test]
fn rollup_is_byte_identical_and_agrees_with_device_utilization_gauges() {
    let run = || {
        observed_run(
            &ClusterSpec::delta(4)
                .with_faults(FaultPlan::seeded(7).with_random_jitter(4, 3, 1.0, 0.001)),
            JobConfig::static_analytic().with_iterations(2),
        )
    };
    let a = run();
    let b = run();
    let ra = rollup_of(&a);
    let rb = rollup_of(&b);
    assert_eq!(ra.to_jsonl(), rb.to_jsonl(), "rollup.jsonl must replay byte-identically");
    assert!(!ra.windows.is_empty());
    assert!(ra.device_lanes > 0 && ra.nodes == 4);

    // Cross-check against metrics.prom: utilization gauges are busy /
    // (lanes x total), so inverting them reproduces busy seconds.
    let samples = obs::MetricsRegistry::parse_samples(&a.metrics.to_prometheus());
    let total = samples
        .iter()
        .find(|(k, _)| k == "prs_total_seconds")
        .map(|(_, v)| *v)
        .unwrap();
    let cores = roofline::profiles::DeviceProfile::delta_node().cpu.cores as f64;
    let mut gauge_busy = 0.0;
    for (key, v) in &samples {
        if !key.starts_with("prs_device_utilization") {
            continue;
        }
        if key.contains("-cpu\"") {
            gauge_busy += v * cores * total;
        } else {
            gauge_busy += v * total;
        }
    }
    let rollup_busy = ra.total_busy_lane_seconds();
    assert!(
        (rollup_busy - gauge_busy).abs() <= 1e-6 * gauge_busy.max(1e-9),
        "rollup busy {rollup_busy} s disagrees with utilization gauges {gauge_busy} s"
    );
}

/// Property: a `prs top` snapshot frame is a pure function of the
/// bundle — two independent seeded runs render byte-identical frames at
/// the same virtual instant.
#[test]
fn top_snapshot_frame_is_byte_identical_across_seeded_runs() {
    let frame = || {
        let obs = observed_run(
            &ClusterSpec::delta(4)
                .with_faults(FaultPlan::seeded(7).with_random_jitter(4, 3, 1.0, 0.001)),
            JobConfig::static_analytic().with_iterations(2),
        );
        let events = insight::from_bus(&obs.bus);
        let decisions = obs.audit.records();
        let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
        (
            prs_cli::top::Replay::new(&events, &decisions, &Default::default())
                .frame(horizon * 0.9, horizon / 8.0),
            horizon,
        )
    };
    let (fa, ha) = frame();
    let (fb, hb) = frame();
    assert_eq!(ha.to_bits(), hb.to_bits());
    assert_eq!(fa, fb, "snapshot frames must be byte-identical");
    assert!(fa.contains("cluster rollup"));
    assert!(fa.contains("node0"));
}

/// Property: tracing is free. A faulty run with all recording disabled
/// finishes at the bit-identical virtual instant of the instrumented
/// run — message tracing must never advance the clock.
#[test]
fn tracing_disabled_leaves_faulty_virtual_time_bit_identical() {
    let (_, spec, config) = scenarios().swap_remove(3); // combined-faults
    let mk = || hist(120_000, 10, 100.0, DataResidency::Staged);
    let bare = run_iterative_observed(&spec, mk(), config, Obs::disabled()).unwrap();
    let obs = Obs::recording();
    let traced = run_iterative_observed(&spec, mk(), config, obs.clone()).unwrap();
    assert!(!obs.bus.is_empty());
    assert_eq!(
        bare.metrics.total_seconds.to_bits(),
        traced.metrics.total_seconds.to_bits(),
        "recording flows must not move the virtual clock"
    );
    assert_eq!(bare.outputs, traced.outputs);
}
