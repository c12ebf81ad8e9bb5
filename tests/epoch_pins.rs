//! Byte pins for the epoch driver: for every kind of epoch boundary the
//! driver classifies (crash, master failover, drain, handoff, evict,
//! scale-out, autoscale evaluation) one seeded scenario whose rendered
//! artifacts, outputs, clock and epoch trace are hashed and compared
//! with constants captured on commit 7493b67 — the three crash scenarios
//! through `run_resilient_observed`, the rest through
//! `run_elastic_observed` — before the two loops became `run_epochs`. A
//! refactor of the driver must leave every constant alone; do not
//! regenerate them for a host-side change. The `timeline` pins (the Gantt
//! chart and the Chrome trace of the final attempt's `JobMetrics::timeline`)
//! were captured on commit 198c3f0, while device busy time still had a
//! recorder of its own.
//!
//! The `analysis`, `rollup`, `watch`, `profile` and `calibration` pins
//! hash what each reader of the event vocabulary renders from the same
//! bus; they and the `gpu_crash_and_stall` scenario (the only one whose
//! bus carries a GPU crash, a cut-short kernel, retries and
//! reassignments) were captured on commit 1477bc1, before the event kinds
//! moved into `obs::kinds`.
//!
//! The grid pins hash the files `prs chaos` writes at its defaults
//! (seed 7): `chaos_report.json` over 32 trials, `churn_report.json` over
//! 16, `watch_score.json` over 32 with the default rules, and every
//! `--record` trial directory. They were captured on commit 7fe4b34,
//! before the checkpoint lost its codec and its store.

use device::{render_ascii, to_chrome_trace};
use obs::rollup::{rollup, RollupConfig};
use obs::EventView;
use prs_core::{
    run_chaos, run_chaos_churn, run_epochs, run_iterative, run_iterative_observed, AutoscalePolicy,
    ChaosConfig, ChaosWatch, ClusterSpec, ElasticOutcome, EpochOptions, FaultPlan, JobConfig,
    JobMetrics, MembershipPlan, Obs,
};
use prs_suite::{fnv1a, ChainApp};
use std::collections::BTreeSet;
use std::sync::Arc;

fn chain() -> Arc<ChainApp> {
    prs_suite::chain(60_000, 8)
}

/// What one scenario pins. `clock` is `total_virtual_secs.to_bits()`
/// itself; the rest are FNV-1a hashes of the rendered bytes. The last
/// five hash what each reader of the event vocabulary renders from the
/// scenario's bus: `prs analyze`'s `report.json`, the rollup JSONL,
/// the watchdog's alerts and incidents, the profiler's folded stacks
/// and JSON, and the calibrated profile's TOML.
#[derive(Debug, PartialEq)]
struct Pin {
    events: u64,
    metrics: u64,
    decisions: u64,
    outputs: u64,
    clock: u64,
    trace: u64,
    timeline: u64,
    analysis: u64,
    rollup: u64,
    watch: u64,
    profile: u64,
    calibration: u64,
}

/// One seeded run through the epoch driver.
struct Scenario {
    spec: ClusterSpec,
    config: JobConfig,
    membership: MembershipPlan,
    autoscale: Option<AutoscalePolicy>,
}

impl Scenario {
    fn new(spec: ClusterSpec, config: JobConfig, membership: MembershipPlan) -> Self {
        Scenario { spec, config, membership, autoscale: None }
    }

    /// Runs the scenario with every sink recording.
    fn run(&self) -> (Obs, ElasticOutcome<u64>) {
        let obs = Obs::recording();
        let opts = EpochOptions {
            membership: self.membership.clone(),
            autoscale: self.autoscale,
            obs: obs.clone(),
        };
        let out = run_epochs(&self.spec, chain(), self.config, opts).unwrap();
        (obs, out)
    }
}

/// Runs one scenario and renders the pinned quantities. The epoch trace
/// is one `[epoch n it base..end disposition]` group per epoch followed
/// by the `time:nodes` cluster-size history, clock values as bits.
fn pin(scenario: &Scenario) -> Pin {
    let (obs, out) = scenario.run();
    let mut trace = String::new();
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
    for (t, n) in &out.cluster_sizes {
        trace.push_str(&format!("{:016x}:{n} ", t.to_bits()));
    }
    let timeline = &out.metrics.timeline;
    let decisions = obs.audit.records();
    let (horizon, rollup, watch, calibration) = obs.bus.with_events(|events| {
        let events = insight::canonical_view(events);
        let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
        let watched = watch::watch(&events, &decisions, &watch::WatchConfig::default());
        let base = roofline::profiles::DeviceProfile::delta_node();
        let fitted = insight::fit_from_events(base, insight::DEFAULT_ALPHA, &events);
        (
            horizon,
            rollup(&events, &decisions, &RollupConfig::auto(horizon.max(1e-9))).to_jsonl(),
            watched.alerts_jsonl() + &watched.incidents_jsonl(),
            insight::profile_toml::to_toml(&fitted),
        )
    });
    let profile = obs::profile(
        &obs::FrameSet::from_stack(&obs.stack),
        horizon,
        obs::profile::DEFAULT_PERIOD_S,
    );
    Pin {
        events: fnv1a(obs.bus.to_jsonl().bytes()),
        metrics: fnv1a(obs.metrics.to_prometheus().bytes()),
        decisions: fnv1a(obs.audit.to_jsonl().bytes()),
        outputs: fnv1a(out.outputs.iter().flat_map(|(k, v)| [k.to_le_bytes(), v.to_le_bytes()].concat())),
        clock: out.total_virtual_secs.to_bits(),
        trace: fnv1a(trace.bytes()),
        timeline: fnv1a(render_ascii(timeline, 100).bytes().chain(to_chrome_trace(timeline).bytes())),
        analysis: fnv1a(insight::report_json(&insight::analyze(&insight::from_bus(&obs.bus))).bytes()),
        rollup: fnv1a(rollup.bytes()),
        watch: fnv1a(watch.bytes()),
        profile: fnv1a(profile.to_folded().bytes().chain(profile.to_json().bytes())),
        calibration: fnv1a(calibration.bytes()),
    }
}

fn checkpointed(iterations: usize) -> JobConfig {
    JobConfig::static_analytic().with_iterations(iterations).with_checkpoint_interval(1)
}

/// Metrics of the fault-free fixed-cluster run the scenarios place their
/// events against.
fn clean(nodes: usize, config: JobConfig) -> JobMetrics {
    run_iterative(&ClusterSpec::delta(nodes), chain(), config).unwrap().metrics
}

/// Virtual time `frac` of the way through iteration `i` of the clean run.
fn inside_iteration(m: &JobMetrics, i: usize, frac: f64) -> f64 {
    m.setup_seconds
        + m.iterations[..i].iter().map(|s| s.total()).sum::<f64>()
        + frac * m.iterations[i].total()
}

/// The scenarios, one per kind of epoch boundary (and one that crosses
/// none), each pinned by the test of the same name.
mod scenario {
    use super::*;

    pub fn worker_crash() -> Scenario {
        let config = checkpointed(4);
        let at = inside_iteration(&clean(3, config), 2, 0.5);
        let spec = ClusterSpec::delta(3).with_faults(FaultPlan::seeded(6).crash_node(2, at));
        Scenario::new(spec, config, MembershipPlan::default())
    }

    pub fn master_crash() -> Scenario {
        let config = checkpointed(4);
        let at = inside_iteration(&clean(2, config), 2, 0.5);
        let spec = ClusterSpec::delta(2).with_faults(FaultPlan::seeded(7).crash_master(at));
        Scenario::new(spec, config, MembershipPlan::default())
    }

    pub fn crash_with_speculation() -> Scenario {
        // A straggling CPU keeps the backup volley busy on both sides of
        // the crash, so the speculation counters cross an epoch boundary.
        let config = JobConfig::dynamic(2_000)
            .with_iterations(4)
            .with_checkpoint_interval(2)
            .with_speculation(1.5);
        let m = clean(3, config);
        let faults = FaultPlan::seeded(8)
            .slow_cpu(1, 0.0, 2.0 * m.total_seconds, 3.0)
            .crash_node(0, inside_iteration(&m, 2, 0.25));
        Scenario::new(ClusterSpec::delta(3).with_faults(faults), config, MembershipPlan::default())
    }

    pub fn drain() -> Scenario {
        let config = checkpointed(4);
        let plan = MembershipPlan::seeded(1).drain(2, inside_iteration(&clean(3, config), 2, 0.5), 10.0);
        Scenario::new(ClusterSpec::delta(3), config, plan)
    }

    pub fn blown_deadline_handoff() -> Scenario {
        let config = checkpointed(4);
        let plan = MembershipPlan::seeded(2).drain(2, inside_iteration(&clean(3, config), 2, 0.5), 0.0);
        Scenario::new(ClusterSpec::delta(3), config, plan)
    }

    pub fn evict() -> Scenario {
        let config = checkpointed(4);
        let plan = MembershipPlan::seeded(1).evict(2, inside_iteration(&clean(3, config), 2, 0.5));
        Scenario::new(ClusterSpec::delta(3), config, plan)
    }

    pub fn scale_out() -> Scenario {
        let config = JobConfig::static_analytic().with_iterations(4);
        let plan = MembershipPlan::seeded(3).scale_out(1, inside_iteration(&clean(2, config), 1, 0.5));
        Scenario::new(ClusterSpec::delta(2), config, plan)
    }

    pub fn crash_mid_drain() -> Scenario {
        let config = checkpointed(4);
        let m = clean(3, config);
        let plan = MembershipPlan::seeded(5).drain(2, inside_iteration(&m, 2, 0.5), 10.0);
        let faults = FaultPlan::seeded(5).crash_node(2, inside_iteration(&m, 2, 0.75));
        Scenario::new(ClusterSpec::delta(3).with_faults(faults), config, plan)
    }

    pub fn autoscale_grow() -> Scenario {
        let policy = AutoscalePolicy {
            eval_interval_iters: 1,
            min_nodes: 1,
            max_nodes: 3,
            grow_above_secs: 0.0,
            shrink_below_secs: 0.0,
            grow_streak: 1,
            shrink_streak: 1,
            cooldown_evals: 0,
        };
        let config = JobConfig::static_analytic().with_iterations(5);
        let mut s = Scenario::new(ClusterSpec::delta(1), config, MembershipPlan::seeded(6));
        s.autoscale = Some(policy);
        s
    }

    /// No epoch boundary: node 0's GPU dies mid-map, cutting a kernel
    /// short, while node 1 sits on its assignments past the partition
    /// deadline, so the master retries and then reassigns them.
    pub fn gpu_crash_and_stall() -> Scenario {
        let config = checkpointed(3).with_partition_timeout(0.05, 1);
        let stall = FaultPlan::seeded(9).stall_node(1, 0.0, clean(2, config).setup_seconds, 1.0);
        let stalled = ClusterSpec::delta(2).with_faults(stall.clone());
        let m = run_iterative_observed(&stalled, chain(), config, Obs::recording()).unwrap().metrics;
        let from = inside_iteration(&m, 1, 0.0);
        let kernel = m
            .timeline
            .iter()
            .find(|f| &*f.lane == "node0-gpu0-compute" && &*f.frame == "kernel" && f.t0 > from)
            .unwrap();
        let faults = stall.crash_gpu(0, 0, 0.5 * (kernel.t0 + kernel.t1));
        Scenario::new(ClusterSpec::delta(2).with_faults(faults), config, MembershipPlan::default())
    }
}

#[test]
fn worker_crash() {
    assert_eq!(pin(&scenario::worker_crash()), WORKER_CRASH);
}

#[test]
fn master_crash() {
    assert_eq!(pin(&scenario::master_crash()), MASTER_CRASH);
}

#[test]
fn crash_with_speculation() {
    assert_eq!(pin(&scenario::crash_with_speculation()), CRASH_WITH_SPECULATION);
}

#[test]
fn drain() {
    assert_eq!(pin(&scenario::drain()), DRAIN);
}

#[test]
fn blown_deadline_handoff() {
    assert_eq!(pin(&scenario::blown_deadline_handoff()), HANDOFF);
}

#[test]
fn evict() {
    assert_eq!(pin(&scenario::evict()), EVICT);
}

#[test]
fn scale_out() {
    assert_eq!(pin(&scenario::scale_out()), SCALE_OUT);
}

#[test]
fn crash_mid_drain() {
    assert_eq!(pin(&scenario::crash_mid_drain()), CRASH_MID_DRAIN);
}

#[test]
fn autoscale_grow() {
    assert_eq!(pin(&scenario::autoscale_grow()), AUTOSCALE_GROW);
}

#[test]
fn gpu_crash_and_stall() {
    assert_eq!(pin(&scenario::gpu_crash_and_stall()), GPU_CRASH_AND_STALL);
}

/// The event vocabulary is closed and live: the kinds the scenarios put
/// on their buses are exactly the kinds `obs::kinds` names, so no
/// producer emits an unnamed kind and no named kind is dead. The fault
/// suite checks the first half on each of its runs, and the chaos and
/// churn harness on every trial of the seed-7 grids below.
#[test]
fn every_emitted_kind_is_named_and_every_named_kind_is_emitted() {
    let scenarios = [
        scenario::worker_crash,
        scenario::master_crash,
        scenario::crash_with_speculation,
        scenario::drain,
        scenario::blown_deadline_handoff,
        scenario::evict,
        scenario::scale_out,
        scenario::crash_mid_drain,
        scenario::autoscale_grow,
        scenario::gpu_crash_and_stall,
    ];
    let mut emitted = BTreeSet::new();
    for scenario in scenarios {
        let (obs, _) = scenario().run();
        emitted.extend(obs.bus.events().iter().map(|e| e.kind.to_string()));
    }
    let named: BTreeSet<String> = obs::kinds::ALL.iter().map(|k| k.to_string()).collect();
    assert_eq!(emitted, named);
}

/// A JSON document as `prs` writes it: pretty, with a final newline.
fn json_file(doc: &serde_json::Value) -> String {
    serde_json::to_string_pretty(doc).unwrap() + "\n"
}

fn grid(trials: usize) -> ChaosConfig {
    ChaosConfig { trials, seed: 7, ..ChaosConfig::default() }
}

#[test]
fn chaos_grid() {
    let (report, _, _) = run_chaos(&grid(32), ChaosWatch::Off);
    assert!(report.all_passed());
    assert_eq!(fnv1a(json_file(&report.to_json()).bytes()), CHAOS_REPORT);
}

#[test]
fn churn_grid() {
    let report = run_chaos_churn(&grid(16));
    assert!(report.all_passed());
    assert_eq!(fnv1a(json_file(&report.to_json()).bytes()), CHURN_REPORT);
}

#[test]
fn scored_grid() {
    let rules = watch::WatchConfig::default();
    let (report, score, _) = run_chaos(&grid(32), ChaosWatch::Scored(&rules));
    assert_eq!(fnv1a(json_file(&report.to_json()).bytes()), CHAOS_REPORT);
    assert_eq!(score.map(|s| fnv1a(s.to_json().bytes())), Some(WATCH_SCORE));
}

/// Every file `prs chaos --score-watch --record` writes, in the order it
/// writes them, each preceded by its path under the records directory.
#[test]
fn recorded_grid() {
    let rules = watch::WatchConfig::default();
    let (_, _, recordings) = run_chaos(&grid(32), ChaosWatch::Recorded(&rules));
    let files = recordings.iter().flat_map(|rec| rec.files());
    let bytes = files.flat_map(|(path, text)| format!("{path}\n{text}").into_bytes());
    assert_eq!(fnv1a(bytes), RECORDED_TRIALS);
}

const WORKER_CRASH: Pin = Pin {
    events: 0x87ff678e0cb9f9d4,
    metrics: 0x519d172d2eceaebc,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fd7d42b9cf73618,
    trace: 0x31069d95c1c209ce,
    timeline: 0xbe0f4446ea38d466,
    analysis: 0xf9a2efffb47db550,
    rollup: 0xdeae073095a036a7,
    watch: 0x75deac315d763ee4,
    profile: 0x2e53561f9ec7e3c2,
    calibration: 0x704e299fe24047ac,
};
const MASTER_CRASH: Pin = Pin {
    events: 0xbbfab143d61612e9,
    metrics: 0x46cefc3c21a2b2b4,
    decisions: 0xd24129f2da64b028,
    outputs: 0x3257196a890f9a79,
    clock: 0x3febead860911a2d,
    trace: 0xc4ebfd2d40eb65a5,
    timeline: 0xbe0f4446ea38d466,
    analysis: 0x33cf4f5188fa3dcb,
    rollup: 0x430e3cc5f77caea7,
    watch: 0x79efb1ec2d060b8f,
    profile: 0x8d06c0c7a057d978,
    calibration: 0xd2a9262880dea620,
};
const CRASH_WITH_SPECULATION: Pin = Pin {
    events: 0xe5e6d7bc0e9954b3,
    metrics: 0xdbe8100419e8c392,
    decisions: 0x5dc600d2974bd07a,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fd7fdf50f4f6e33,
    trace: 0x404e2f067d720edd,
    timeline: 0x327d2e064e04be2b,
    analysis: 0xf61ccf0e02df14b4,
    rollup: 0x046ef08395f87600,
    watch: 0xd47e1ca740dee9d2,
    profile: 0x5e3be56c309ffe98,
    calibration: 0xc754c5729d180dc1,
};
const DRAIN: Pin = Pin {
    events: 0x59e429573fbf8084,
    metrics: 0x6fd0e1b66956e66b,
    decisions: 0x1393038806df23aa,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc25a217a50e5a2,
    trace: 0x825fdaedea1cec9d,
    timeline: 0x5349fbd158f2bc6c,
    analysis: 0x542a3b1c798d9333,
    rollup: 0xbd6f217cee7a01bd,
    watch: 0xb66933d7151a8685,
    profile: 0x7077427c94e5a19e,
    calibration: 0xf110dedcb4ede5fd,
};
const HANDOFF: Pin = Pin {
    events: 0x75e5f08d067520f1,
    metrics: 0xc8b9ceabb432b6e3,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc279e5d47aca38,
    trace: 0x70bfc85d4c4f162a,
    timeline: 0xbe0f4446ea38d466,
    analysis: 0xeb5148592489af1f,
    rollup: 0x172697dfb62ccf5a,
    watch: 0xb66933d7151a8685,
    profile: 0xdef38f2f571b4857,
    calibration: 0x704e299fe24047ac,
};
const EVICT: Pin = Pin {
    events: 0xb7cf66ddce8bef1e,
    metrics: 0x78a615e4acdf4056,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc279e5d47aca38,
    trace: 0xe8df98ae723f111d,
    timeline: 0xbe0f4446ea38d466,
    analysis: 0xeb5148592489af1f,
    rollup: 0x172697dfb62ccf5a,
    watch: 0xb66933d7151a8685,
    profile: 0xdef38f2f571b4857,
    calibration: 0x704e299fe24047ac,
};
const SCALE_OUT: Pin = Pin {
    events: 0x4920eb3c4c02c959,
    metrics: 0xa681404a77ab957c,
    decisions: 0x8db055ebfc6db790,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc25fd5c08f5237,
    trace: 0x2e89918c66a53cec,
    timeline: 0xb67960cb97923330,
    analysis: 0x9ca605ca72a0c298,
    rollup: 0x8e1803d603f4ae35,
    watch: 0xb66933d7151a8685,
    profile: 0x230689fc83f7bcfc,
    calibration: 0x4278cca5732570d0,
};
const CRASH_MID_DRAIN: Pin = Pin {
    events: 0x62df696352f36d26,
    metrics: 0x41f2436c5aeeadf8,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fd7d0ddf7fba4ca,
    trace: 0xc0b31c3841ac346f,
    timeline: 0xbe0f4446ea38d466,
    analysis: 0x81dfcb0e9a7de3e1,
    rollup: 0x09cf0b3712975fde,
    watch: 0xe247e6c450053e5c,
    profile: 0xd60e32d26754cfe4,
    calibration: 0x704e299fe24047ac,
};
const AUTOSCALE_GROW: Pin = Pin {
    events: 0x26c22f3bf22e94bb,
    metrics: 0x4728ae3bdcd48991,
    decisions: 0x372da2f3218869c1,
    outputs: 0xa2b088b1b109567a,
    clock: 0x3fd6b717cfe4d8b4,
    trace: 0xc5e6fdf0b61dd866,
    timeline: 0x0b47a6efae84229a,
    analysis: 0xfc3baae1d4906bec,
    rollup: 0x5539fe3839def13e,
    watch: 0xb66933d7151a8685,
    profile: 0xcecfac6c99ea90b0,
    calibration: 0x03aa238cfbfd346b,
};
const GPU_CRASH_AND_STALL: Pin = Pin {
    events: 0x4c1744fefb37799e,
    metrics: 0x8f0fdb4d6e561cfe,
    decisions: 0x3cdd364cd6972097,
    outputs: 0x7c9c6324a69187b5,
    clock: 0x3ff01483b471fdc2,
    trace: 0x3ecb9f7da135da2f,
    timeline: 0x1d97f47f32928872,
    analysis: 0x717b9d2c2653bc67,
    rollup: 0xc050321afce5e5d5,
    watch: 0x1b6cc9059dd68900,
    profile: 0x3f0e28754db9b8a2,
    calibration: 0xd79c85363856b12e,
};
const CHAOS_REPORT: u64 = 0x72a9c3573b0b15b3;
const CHURN_REPORT: u64 = 0xd881d89ba027dcc0;
const WATCH_SCORE: u64 = 0xf8d94aee0d5dfba9;
const RECORDED_TRIALS: u64 = 0x883df037ed38e669;
