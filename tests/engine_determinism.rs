//! Differential determinism suite for the engine rework.
//!
//! The engine contract (docs/engine.md) says the three queue disciplines —
//! legacy heap, calendar, sharded-parallel — are *observationally
//! indistinguishable*: same virtual clocks (to the bit), same event
//! orders, same exporter artifacts, for every scenario the runtime can
//! produce. This suite runs the existing fault/chaos/tracing scenarios
//! under all of [`EngineMode::ALL`] and diffs everything a user could
//! ever diff:
//!
//! 1. the final virtual makespan, compared by `f64::to_bits`;
//! 2. the engine event count (`JobMetrics::sim_events`);
//! 3. the application outputs;
//! 4. the rendered `events.jsonl`, `metrics.prom`, and `decisions.jsonl`
//!    observability artifacts, byte for byte;
//! 5. the watchdog's `alerts.jsonl` and `incidents.jsonl`, byte for byte;
//! 6. the chaos harness's `chaos_report.json` and the scored grid's
//!    `watch_score.json`, byte for byte;
//! 7. the profiler's `stacks.jsonl` / `profile.folded` / `profile.json`
//!    and the differential attribution's `diff.json`, byte for byte;
//! 8. repeated runs under one mode (no hidden global state);
//! 9. the elastic-membership driver: a non-empty churn plan (and the
//!    churn chaos grid's `churn_report.json`) renders byte-identical
//!    artifacts, epoch ledgers and cluster-size traces on every engine.

use obs::Obs;
use prs_core::{
    run_chaos, run_chaos_churn, run_epochs, run_iterative, run_iterative_observed, ChaosConfig,
    ChaosWatch, ClusterSpec, EngineMode, EpochOptions, FaultPlan, JobConfig, Key, MembershipPlan,
};
use prs_suite::HistApp;
use roofline::model::DataResidency;
use std::sync::Arc;

fn hist() -> Arc<HistApp> {
    prs_suite::hist(120_000, 10, 100.0, DataResidency::Staged)
}

/// The seeded scenarios of the fault/tracing suites, plus a clean run, as
/// `(name, spec, config)` tuples so every property sweeps all of them.
fn scenarios() -> Vec<(&'static str, ClusterSpec, JobConfig)> {
    vec![
        (
            "clean",
            ClusterSpec::delta(3),
            JobConfig::static_analytic().with_iterations(2),
        ),
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
    ]
}

/// Everything observable from one run: clock bits, event count, outputs,
/// and the three rendered exporter artifacts.
struct RunArtifacts {
    makespan_bits: u64,
    sim_events: u64,
    outputs: Vec<(Key, u64)>,
    events_jsonl: String,
    metrics_prom: String,
    decisions_jsonl: String,
    alerts_jsonl: String,
    incidents_jsonl: String,
    stacks_jsonl: String,
    profile_folded: String,
    profile_json: String,
}

fn run_under(spec: &ClusterSpec, config: JobConfig, mode: EngineMode) -> RunArtifacts {
    let obs = Obs::recording();
    let result = run_iterative_observed(spec, hist(), config.with_engine(mode), obs.clone())
        .expect("scenario must complete under every engine");
    let roll_events: Vec<obs::rollup::RollupEvent> =
        obs.bus.events().iter().map(obs::rollup::RollupEvent::from).collect();
    let watched = watch::watch(&roll_events, &obs.audit.records(), &watch::WatchConfig::default());
    let set = obs::FrameSet::from_stack(&obs.stack);
    let horizon = insight::from_bus(&obs.bus)
        .iter()
        .map(insight::TraceEvent::end)
        .fold(0.0, f64::max);
    let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
    RunArtifacts {
        makespan_bits: result.metrics.total_seconds.to_bits(),
        sim_events: result.metrics.sim_events,
        outputs: result.outputs,
        events_jsonl: obs.bus.to_jsonl(),
        metrics_prom: obs.metrics.to_prometheus(),
        decisions_jsonl: obs.audit.to_jsonl(),
        alerts_jsonl: watched.alerts_jsonl(),
        incidents_jsonl: watched.incidents_jsonl(),
        stacks_jsonl: set.to_stacks_jsonl(),
        profile_folded: prof.to_folded(),
        profile_json: prof.to_json(),
    }
}

fn assert_identical(name: &str, mode: EngineMode, got: &RunArtifacts, want: &RunArtifacts) {
    assert_eq!(
        got.makespan_bits, want.makespan_bits,
        "[{name}/{mode}] virtual makespan diverged: {} vs {}",
        f64::from_bits(got.makespan_bits),
        f64::from_bits(want.makespan_bits),
    );
    assert_eq!(got.sim_events, want.sim_events, "[{name}/{mode}] event count diverged");
    assert_eq!(got.outputs, want.outputs, "[{name}/{mode}] outputs diverged");
    assert_eq!(
        got.events_jsonl, want.events_jsonl,
        "[{name}/{mode}] events.jsonl is not byte-identical"
    );
    assert_eq!(
        got.metrics_prom, want.metrics_prom,
        "[{name}/{mode}] metrics.prom is not byte-identical"
    );
    assert_eq!(
        got.decisions_jsonl, want.decisions_jsonl,
        "[{name}/{mode}] decisions.jsonl is not byte-identical"
    );
    assert_eq!(
        got.alerts_jsonl, want.alerts_jsonl,
        "[{name}/{mode}] alerts.jsonl is not byte-identical"
    );
    assert_eq!(
        got.incidents_jsonl, want.incidents_jsonl,
        "[{name}/{mode}] incidents.jsonl is not byte-identical"
    );
    assert_eq!(
        got.stacks_jsonl, want.stacks_jsonl,
        "[{name}/{mode}] stacks.jsonl is not byte-identical"
    );
    assert_eq!(
        got.profile_folded, want.profile_folded,
        "[{name}/{mode}] profile.folded is not byte-identical"
    );
    assert_eq!(
        got.profile_json, want.profile_json,
        "[{name}/{mode}] profile.json is not byte-identical"
    );
}

/// The core differential property: every scenario, every engine, every
/// artifact — bit-identical to the legacy heap reference.
#[test]
fn all_scenarios_bit_identical_across_engines() {
    for (name, spec, config) in scenarios() {
        let reference = run_under(&spec, config, EngineMode::LegacyHeap);
        assert!(
            reference.sim_events > 0,
            "[{name}] reference run processed no events"
        );
        for mode in [EngineMode::Calendar, EngineMode::Parallel] {
            let got = run_under(&spec, config, mode);
            assert_identical(name, mode, &got, &reference);
        }
    }
}

/// Repeat-run stability: the parallel engine run twice (fresh threads,
/// fresh shard queues) renders identical artifacts — no hidden
/// scheduling nondeterminism leaks through the lookahead windows.
#[test]
fn parallel_engine_is_stable_across_repeated_runs() {
    let (name, spec, config) = scenarios().remove(4); // combined-faults
    let a = run_under(&spec, config, EngineMode::Parallel);
    let b = run_under(&spec, config, EngineMode::Parallel);
    assert_identical(name, EngineMode::Parallel, &b, &a);
}

/// The 1000-node test's c-means job (one block or so per device, so what
/// runs is the engine, the daemons and the tree collectives) at `nodes`
/// nodes, with its `(sim_events, sim_handoffs, sim_switches)`.
fn scale_job_counts(nodes: usize) -> (u64, u64, u64) {
    let m = scale_job(nodes, 20_000);
    (m.sim_events, m.sim_handoffs, m.sim_switches)
}

/// One iteration of micro-profile c-means over `points` 8-dimensional
/// points on `nodes` nodes.
fn scale_job(nodes: usize, points: usize) -> prs_core::JobMetrics {
    let points = Arc::new(prs_data::gaussian::clustering_workload(points, 8, 8, 42).points);
    let app = Arc::new(prs_apps::CMeans::new(points, 8, 2.0, 1e-3, 42));
    let spec = ClusterSpec::homogeneous(
        nodes,
        roofline::profiles::DeviceProfile::micro_node(),
        netsim::NetworkParams::infiniband_qdr(),
    );
    let config = JobConfig::static_analytic().with_iterations(1).with_streams(1);
    run_iterative(&spec, app, config).expect("the scale run completes").metrics
}

/// The process model's hand-off law at the paper's target scale: the
/// 1000-node c-means job delivers fewer hand-offs than it fires events,
/// because a process whose own wake is next resumes inline, and switches
/// stacks on none of them, because every process of a job — the master,
/// the 1000 sub-task schedulers, their device daemons and transfer
/// children — is a task polled inline by the event loop. All three counts
/// are deterministic and engine-independent (`simtime::stress` and
/// `handoff_protocol` hold that). The events and hand-offs are pinned as
/// captured on commit 12e7c1d, and held when the sub-task schedulers and
/// the master became tasks: more of either per event than this, or any
/// stack switch, is a process-model regression on any host.
#[test]
fn thousand_node_job_hands_off_less_than_once_per_event() {
    let (events, handoffs, switches) = scale_job_counts(1000);
    assert!(
        handoffs < events,
        "{handoffs} hand-offs for {events} events: one per event or more"
    );
    assert!(
        switches == 0,
        "{switches} stack switches for {handoffs} hand-offs: a product process is stackful"
    );
    assert_eq!((events, handoffs, switches), (101_691, 75_859, 0));
}

/// ROADMAP 5(b)'s precondition: the same job at 10 000 nodes runs. Its
/// 50 001 processes once exceeded `vm.max_map_count` (two mappings per
/// stack); now none of them has a stack. Its events and hand-offs are
/// pinned as captured when the daemons became tasks. Release only: the
/// debug build takes minutes.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn ten_thousand_node_job_completes() {
    let (events, handoffs, switches) = scale_job_counts(10_000);
    assert_eq!((events, handoffs, switches), (793_373, 562_328, 0));
}

/// A job past the stackful ceiling: 33 000 nodes, 24 points each, one
/// iteration. While each node's sub-task scheduler had a 1 MiB coroutine
/// stack, two mappings per stack ran the process out of
/// `vm.max_map_count` partway through the spawn and the job failed. With
/// every process a task it completes. Ignored by default (about half a
/// minute and a few hundred MiB in release); run it with `--ignored`.
#[test]
#[ignore]
fn thirty_three_thousand_node_job_completes() {
    const NODES: usize = 33_000;
    let m = scale_job(NODES, 24 * NODES);
    assert_eq!(m.iterations.len(), 1);
    assert_eq!(m.sim_switches, 0);
}

/// Regression for the tie-break hazard the rework fixed: events landing
/// on the *same virtual instant* from *different nodes* (shards) fire in
/// stable scheduling order — the `(time, seq)` key — under every engine.
/// Before the rework, same-time events popped in heap-sift accident
/// order, which varied with queue layout; this ordering assertion fails
/// under any such discipline.
#[test]
fn same_instant_cross_node_events_fire_in_scheduling_order() {
    use simtime::{EngineConfig, Sim, SimTime};
    const NODES: usize = 8;
    for mode in EngineMode::ALL {
        let mut sim = Sim::with_config(EngineConfig {
            mode,
            shards: NODES,
            lookahead: SimTime::from_micros(1.0),
        });
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        for node in 0..NODES {
            let order = order.clone();
            // Spawned in ascending node order, every process wakes at the
            // identical instant t = 1s.
            sim.spawn_on(node, &format!("n{node}"), move |ctx| {
                ctx.hold(SimTime::from_secs(1));
                order.lock().unwrap().push(node);
            });
        }
        sim.run().expect("tie-break scenario cannot deadlock");
        assert_eq!(
            *order.lock().unwrap(),
            (0..NODES).collect::<Vec<_>>(),
            "[{mode}] same-instant cross-node wakes must fire in (time, seq) order"
        );
    }
}

/// The differential attribution artifact is a pure function of its two
/// input bundles: diffing a clean run against a faulty one renders a
/// byte-identical `diff.json` whichever engine produced either side,
/// and the profiler's samples are non-vacuous on every scenario.
#[test]
fn diff_json_byte_identical_across_engines() {
    let scenarios = scenarios();
    let (_, clean_spec, clean_config) = &scenarios[0];
    let (_, faulty_spec, faulty_config) = &scenarios[4]; // combined-faults
    let diff_under = |base_mode: EngineMode, cand_mode: EngineMode| {
        let base = run_under(clean_spec, *clean_config, base_mode);
        let cand = run_under(faulty_spec, *faulty_config, cand_mode);
        let base_ev = insight::parse_events_jsonl(&base.events_jsonl).unwrap();
        let cand_ev = insight::parse_events_jsonl(&cand.events_jsonl).unwrap();
        insight::diff_events(&base_ev, &cand_ev).to_json()
    };
    let reference = diff_under(EngineMode::LegacyHeap, EngineMode::LegacyHeap);
    assert!(reference.contains("\"schema\": \"prs-diff-v1\""));
    for mode in [EngineMode::Calendar, EngineMode::Parallel] {
        assert_eq!(
            diff_under(mode, mode),
            reference,
            "diff.json diverged when both bundles came from the {mode} engine"
        );
    }
    assert_eq!(
        diff_under(EngineMode::Calendar, EngineMode::Parallel),
        reference,
        "diff.json diverged across mixed-engine bundle pairs"
    );
    assert_eq!(
        diff_under(EngineMode::LegacyHeap, EngineMode::LegacyHeap),
        reference,
        "diff.json is not repeat-stable"
    );
}

/// The chaos harness's rendered report is a pure function of
/// `(trials, seed)` — the engine that executed the trials must not leak
/// into `chaos_report.json`.
#[test]
fn chaos_report_byte_identical_across_engines() {
    let report = |engine: EngineMode| {
        let cfg = ChaosConfig { trials: 6, seed: 7, engine };
        run_chaos(&cfg, ChaosWatch::Off).0.to_json().to_string()
    };
    let reference = report(EngineMode::LegacyHeap);
    for mode in [EngineMode::Calendar, EngineMode::Parallel] {
        assert_eq!(
            report(mode),
            reference,
            "chaos_report.json diverged under the {mode} engine"
        );
    }
}

/// Same contract for the scored grid: attaching the watchdog must not
/// perturb the chaos report, and `watch_score.json` itself is a pure
/// function of `(trials, seed)` — engine-independent and repeat-stable.
#[test]
fn watch_score_byte_identical_across_engines() {
    let rules = watch::WatchConfig::default();
    let scored = |engine: EngineMode| {
        let cfg = ChaosConfig { trials: 6, seed: 7, engine };
        let (report, score, _) = run_chaos(&cfg, ChaosWatch::Scored(&rules));
        (report.to_json().to_string(), score.map(|s| s.to_json()))
    };
    let cfg = ChaosConfig { trials: 6, seed: 7, engine: EngineMode::LegacyHeap };
    let plain = run_chaos(&cfg, ChaosWatch::Off).0.to_json().to_string();
    let (ref_report, ref_score) = scored(EngineMode::LegacyHeap);
    assert_eq!(
        ref_report, plain,
        "attaching the watchdog perturbed chaos_report.json"
    );
    for mode in [EngineMode::Calendar, EngineMode::Parallel] {
        let (report, score) = scored(mode);
        assert_eq!(report, ref_report, "scored chaos report diverged under {mode}");
        assert_eq!(score, ref_score, "watch_score.json diverged under the {mode} engine");
    }
    let (repeat_report, repeat_score) = scored(EngineMode::LegacyHeap);
    assert_eq!(repeat_report, ref_report, "scored chaos report is not repeat-stable");
    assert_eq!(repeat_score, ref_score, "watch_score.json is not repeat-stable");
}

/// Same contract once more for the flight recorder: arming it must not
/// perturb the scored grid, and every capture JSONL and postmortem
/// document it emits is a pure function of `(trials, seed)` — the
/// engine that pumped the recorder must not leak into the artifacts.
#[test]
fn recorded_captures_and_postmortems_byte_identical_across_engines() {
    let rules = watch::WatchConfig::default();
    let recorded = |engine: EngineMode| {
        let cfg = ChaosConfig { trials: 6, seed: 7, engine };
        let (report, score, recordings) = run_chaos(&cfg, ChaosWatch::Recorded(&rules));
        let mut artifacts = String::new();
        for rec in &recordings {
            for c in &rec.captures {
                artifacts.push_str(&c.file_name());
                artifacts.push('\n');
                artifacts.push_str(&c.to_jsonl());
            }
            artifacts.push_str(&rec.postmortem.to_json_string());
            artifacts.push('\n');
        }
        (report.to_json().to_string(), score.map(|s| s.to_json()), artifacts)
    };
    let cfg = ChaosConfig { trials: 6, seed: 7, engine: EngineMode::LegacyHeap };
    let (plain_report, plain_score, _) = run_chaos(&cfg, ChaosWatch::Scored(&rules));
    let (ref_report, ref_score, ref_artifacts) = recorded(EngineMode::LegacyHeap);
    assert_eq!(
        ref_report,
        plain_report.to_json().to_string(),
        "arming the recorder perturbed chaos_report.json"
    );
    assert_eq!(
        ref_score,
        plain_score.map(|s| s.to_json()),
        "arming the recorder perturbed watch_score.json"
    );
    assert!(
        ref_artifacts.contains("prs-capture-v1") && ref_artifacts.contains("prs-postmortem-v1"),
        "the seed-7 grid must emit captures and postmortems"
    );
    for mode in [EngineMode::Calendar, EngineMode::Parallel] {
        let (report, score, artifacts) = recorded(mode);
        assert_eq!(report, ref_report, "recorded chaos report diverged under {mode}");
        assert_eq!(score, ref_score, "recorded watch score diverged under {mode}");
        assert_eq!(artifacts, ref_artifacts, "captures/postmortems diverged under {mode}");
    }
    let (_, _, repeat) = recorded(EngineMode::LegacyHeap);
    assert_eq!(repeat, ref_artifacts, "recorded artifacts are not repeat-stable");
}

/// Runs the elastic-membership driver through a non-empty churn plan
/// (scale-out, graceful drain, forced evict) and collects the same
/// artifact bundle as `run_under`, plus the membership ledger and the
/// cluster-size trace rendered to comparable strings.
fn run_elastic_under(mode: EngineMode) -> (RunArtifacts, String, String) {
    let spec = ClusterSpec::delta(3);
    let config = JobConfig::static_analytic()
        .with_iterations(3)
        .with_checkpoint_interval(1)
        .with_engine(mode);
    // Schedule the churn relative to the fixed-cluster span so every
    // event lands mid-run regardless of workload constants.
    let span = run_iterative(&spec, hist(), config)
        .expect("fixed-cluster baseline must complete")
        .metrics
        .total_seconds;
    let plan = MembershipPlan::seeded(9)
        .scale_out(1, 0.25 * span)
        .drain(2, 0.45 * span, 10.0 * span)
        .evict(1, 0.70 * span);
    let obs = Obs::recording();
    let out = run_epochs(
        &spec,
        hist(),
        config,
        EpochOptions { membership: plan, obs: obs.clone(), ..Default::default() },
    )
    .expect("churn scenario must complete under every engine");
    let roll_events: Vec<obs::rollup::RollupEvent> =
        obs.bus.events().iter().map(obs::rollup::RollupEvent::from).collect();
    let watched = watch::watch(&roll_events, &obs.audit.records(), &watch::WatchConfig::default());
    let set = obs::FrameSet::from_stack(&obs.stack);
    let horizon = insight::from_bus(&obs.bus)
        .iter()
        .map(insight::TraceEvent::end)
        .fold(0.0, f64::max);
    let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
    let artifacts = RunArtifacts {
        makespan_bits: out.total_virtual_secs.to_bits(),
        sim_events: out.metrics.sim_events,
        outputs: out.outputs,
        events_jsonl: obs.bus.to_jsonl(),
        metrics_prom: obs.metrics.to_prometheus(),
        decisions_jsonl: obs.audit.to_jsonl(),
        alerts_jsonl: watched.alerts_jsonl(),
        incidents_jsonl: watched.incidents_jsonl(),
        stacks_jsonl: set.to_stacks_jsonl(),
        profile_folded: prof.to_folded(),
        profile_json: prof.to_json(),
    };
    // Bit-exact renderings: clock values go through `to_bits` so the
    // comparison cannot be forgiving about last-ulp drift.
    let ledger = format!("{:?}", out.membership);
    let mut trace = String::new();
    for (t, n) in &out.cluster_sizes {
        trace.push_str(&format!("{:016x}:{n} ", t.to_bits()));
    }
    for e in &out.attempts {
        trace.push_str(&format!(
            "[{} n={} it={} {:016x}..{:016x} {}] ",
            e.epoch,
            e.nodes,
            e.base_iteration,
            e.base_secs.to_bits(),
            e.end_secs.to_bits(),
            e.disposition
        ));
    }
    (artifacts, ledger, trace)
}

/// The elastic driver under a non-empty churn plan is part of the same
/// determinism contract: every rendered artifact, the membership ledger
/// and the cluster-size/epoch trace are bit-identical on every engine
/// and across repeated runs.
#[test]
fn elastic_churn_run_bit_identical_across_engines() {
    let (reference, ref_ledger, ref_trace) = run_elastic_under(EngineMode::LegacyHeap);
    // The plan must actually exercise churn, or the property is vacuous.
    assert!(
        ref_ledger.contains("joins: 1") && ref_ledger.contains("drains: 1"),
        "seed-9 plan must admit one joiner and drain one node: {ref_ledger}"
    );
    assert!(
        ref_trace.contains("evict"),
        "seed-9 plan must force one eviction: {ref_trace}"
    );
    assert!(
        reference.events_jsonl.contains("\"membership\""),
        "elastic run must emit the membership lane"
    );
    for mode in [EngineMode::Calendar, EngineMode::Parallel] {
        let (got, ledger, trace) = run_elastic_under(mode);
        assert_identical("elastic-churn", mode, &got, &reference);
        assert_eq!(ledger, ref_ledger, "[elastic-churn/{mode}] membership ledger diverged");
        assert_eq!(trace, ref_trace, "[elastic-churn/{mode}] cluster-size trace diverged");
    }
    let (repeat, repeat_ledger, repeat_trace) = run_elastic_under(EngineMode::LegacyHeap);
    assert_identical("elastic-churn-repeat", EngineMode::LegacyHeap, &repeat, &reference);
    assert_eq!(repeat_ledger, ref_ledger, "membership ledger is not repeat-stable");
    assert_eq!(repeat_trace, ref_trace, "cluster-size trace is not repeat-stable");
}

/// Same contract for the churn chaos grid: `churn_report.json` is a pure
/// function of `(trials, seed)` — the engine that executed the grid must
/// not leak into the rendered report.
#[test]
fn churn_report_byte_identical_across_engines() {
    let report = |engine: EngineMode| {
        run_chaos_churn(&ChaosConfig {
            trials: 4,
            seed: 7,
            engine,
        })
        .to_json()
        .to_string()
    };
    let reference = report(EngineMode::LegacyHeap);
    assert!(
        reference.contains("\"all_passed\":true"),
        "the seed-7 churn grid must converge on the reference engine"
    );
    for mode in [EngineMode::Calendar, EngineMode::Parallel] {
        assert_eq!(
            report(mode),
            reference,
            "churn_report.json diverged under the {mode} engine"
        );
    }
    assert_eq!(report(EngineMode::LegacyHeap), reference, "churn_report.json is not repeat-stable");
}
