//! Byte pins for the per-node sub-task scheduler: one seeded scenario per
//! branch it can take (each scheduling mode, multi-GPU and multi-stream,
//! resident staging and re-staging, context per task, GPU reduce, no
//! combiner, ordered reduce input, online calibration, the speculation
//! volley, GPU crashes in the map and the reduce stage, the master's
//! retry → reassign ladder, the bounded recorder's per-iteration pump),
//! each hashing the clock, the engine's event and hand-off counts, the
//! outputs, every iteration's `StageTimes`, the split and task counters,
//! the recovery counters and the four rendered artifacts — plus the
//! per-iteration stage seconds of the nine `--app`s on four micro nodes,
//! each built and driven by its `prs_apps::catalog` entry as `prs run`
//! does, and their final outputs bit for bit with the combiner on and
//! off.
//! The constants were captured on commit b044449, while the scheduler
//! was still the single `worker_body` function; a refactor of the
//! scheduler must leave every one alone. Do not regenerate them for a
//! host-side change. The `timeline` pins (the Gantt chart and the Chrome
//! trace of `JobMetrics::timeline`) were captured on commit 198c3f0,
//! while device busy time still had a recorder of its own.

use device::{render_ascii, to_chrome_trace};
use obs::{FrameSet, Obs, RecorderConfig};
use prs_apps::catalog::{Drive, Shape, CATALOG};
use prs_core::{
    run_iterative_observed, ClusterSpec, DeviceClass, FaultPlan, JobConfig, JobMetrics, JobResult,
};
use prs_suite::{fnv1a, fnv_words, HistApp};
use roofline::model::DataResidency;
use roofline::profiles::DeviceProfile;
use simtime::StackCtx;
use std::sync::Arc;

fn hist(residency: DataResidency) -> HistApp {
    HistApp::new(120_000, 10, 100.0, residency)
}

/// What one scenario pins. `clock` is `total_seconds.to_bits()` itself;
/// the rest are FNV-1a hashes.
#[derive(PartialEq)]
struct Pin {
    clock: u64,
    /// `sim_events`, `sim_handoffs`.
    sim: u64,
    outputs: u64,
    /// Every iteration's map/shuffle/reduce/update seconds, as bits.
    stages: u64,
    /// `cpu_fractions`, `cpu_map_tasks`/`gpu_map_tasks`, the recovery
    /// counters and the recorder's accounting.
    counters: u64,
    events: u64,
    metrics: u64,
    decisions: u64,
    stacks: u64,
    /// The Gantt chart and the Chrome trace of `JobMetrics::timeline`.
    timeline: u64,
}

impl std::fmt::Debug for Pin {
    /// Prints the literal to paste when a new scenario is captured.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pin {{\n    clock: {:#018x},\n    sim: {:#018x},\n    outputs: {:#018x},\n    \
             stages: {:#018x},\n    counters: {:#018x},\n    events: {:#018x},\n    \
             metrics: {:#018x},\n    decisions: {:#018x},\n    stacks: {:#018x},\n    \
             timeline: {:#018x},\n}}",
            self.clock,
            self.sim,
            self.outputs,
            self.stages,
            self.counters,
            self.events,
            self.metrics,
            self.decisions,
            self.stacks,
            self.timeline
        )
    }
}

fn stage_bits(m: &JobMetrics) -> impl Iterator<Item = u64> + '_ {
    m.iterations
        .iter()
        .flat_map(|s| [s.map, s.shuffle, s.reduce, s.update].map(f64::to_bits))
}

fn timeline_pin(m: &JobMetrics) -> u64 {
    fnv1a(render_ascii(&m.timeline, 100).bytes().chain(to_chrome_trace(&m.timeline).bytes()))
}

/// An `Obs` that records the profiler's stack frames and nothing else.
fn stack_only() -> Obs {
    Obs { stack: StackCtx::recording(), ..Obs::disabled() }
}

fn pin_of(r: &JobResult<u64>, obs: &Obs) -> Pin {
    let m = &r.metrics;
    let counters = format!(
        "{:?} {} {} {:?} {:?}",
        m.cpu_fractions.iter().map(|p| p.map(f64::to_bits)).collect::<Vec<_>>(),
        m.cpu_map_tasks,
        m.gpu_map_tasks,
        (m.recovery, m.recovery.seconds_lost_to_faults.to_bits()),
        obs.recorder.summary(),
    );
    Pin {
        clock: m.total_seconds.to_bits(),
        sim: fnv_words([m.sim_events, m.sim_handoffs]),
        outputs: fnv_words(r.outputs.iter().flat_map(|(k, v)| [*k, *v])),
        stages: fnv_words(stage_bits(m)),
        counters: fnv1a(counters.bytes()),
        events: fnv1a(obs.bus.to_jsonl().bytes()),
        metrics: fnv1a(obs.metrics.to_prometheus().bytes()),
        decisions: fnv1a(obs.audit.to_jsonl().bytes()),
        stacks: fnv1a(FrameSet::from_stack(&obs.stack).to_stacks_jsonl().bytes()),
        timeline: timeline_pin(m),
    }
}

fn run(spec: &ClusterSpec, app: HistApp, config: JobConfig) -> (JobResult<u64>, Pin) {
    run_with(spec, app, config, Obs::recording())
}

fn run_with(spec: &ClusterSpec, app: HistApp, config: JobConfig, obs: Obs) -> (JobResult<u64>, Pin) {
    let r = run_iterative_observed(spec, Arc::new(app), config, obs.clone()).expect("job runs");
    let pin = pin_of(&r, &obs);
    (r, pin)
}

/// Virtual time `frac` of the way through `stage` of iteration `i` of a
/// clean run (`stage`: 0 map, 1 shuffle, 2 reduce, 3 update).
fn inside_stage(m: &JobMetrics, i: usize, stage: usize, frac: f64) -> f64 {
    let s = &m.iterations[i];
    let stages = [s.map, s.shuffle, s.reduce, s.update];
    m.setup_seconds
        + m.iterations[..i].iter().map(|s| s.total()).sum::<f64>()
        + stages[..stage].iter().sum::<f64>()
        + frac * stages[stage]
}

const STAGED: DataResidency = DataResidency::Staged;
const RESIDENT: DataResidency = DataResidency::Resident;

#[test]
fn static_eq8_three_iterations() {
    let config = JobConfig::static_analytic().with_iterations(3);
    assert_eq!(run(&ClusterSpec::delta(3), hist(STAGED), config).1, STATIC_EQ8);
}

#[test]
fn static_p_override() {
    let config = JobConfig::static_with_p(0.3).with_iterations(2);
    assert_eq!(run(&ClusterSpec::delta(3), hist(STAGED), config).1, P_OVERRIDE);
}

#[test]
fn cpu_only() {
    let config = JobConfig::cpu_only().with_iterations(2);
    assert_eq!(run(&ClusterSpec::delta(3), hist(STAGED), config).1, CPU_ONLY);
}

#[test]
fn gpu_only() {
    let config = JobConfig::gpu_only().with_iterations(2);
    assert_eq!(run(&ClusterSpec::delta(3), hist(STAGED), config).1, GPU_ONLY);
}

#[test]
fn dynamic_blocks() {
    let config = JobConfig::dynamic(2000).with_iterations(2);
    assert_eq!(run(&ClusterSpec::delta(3), hist(STAGED), config).1, DYNAMIC);
}

#[test]
fn two_gpus_two_streams() {
    let config = JobConfig::static_analytic().with_iterations(2).with_gpus(2).with_streams(2);
    assert_eq!(run(&ClusterSpec::delta(3), hist(RESIDENT), config).1, TWO_GPUS);
}

#[test]
fn resident_cached() {
    let config = JobConfig::static_analytic().with_iterations(2);
    assert_eq!(run(&ClusterSpec::delta(3), hist(RESIDENT), config).1, RESIDENT_CACHED);
}

#[test]
fn resident_restaged_every_iteration() {
    let mut config = JobConfig::static_analytic().with_iterations(2);
    config.cache_resident_data = false;
    assert_eq!(run(&ClusterSpec::delta(3), hist(RESIDENT), config).1, RESIDENT_RESTAGED);
}

#[test]
fn context_per_task() {
    let mut config = JobConfig::static_analytic().with_iterations(2);
    config.context_per_task = true;
    assert_eq!(run(&ClusterSpec::delta(2), hist(STAGED), config).1, CONTEXT_PER_TASK);
}

#[test]
fn reduce_on_gpu() {
    let mut config = JobConfig::static_analytic().with_iterations(2);
    config.reduce_device = DeviceClass::Gpu;
    assert_eq!(run(&ClusterSpec::delta(3), hist(STAGED), config).1, REDUCE_ON_GPU);
}

#[test]
fn no_combiner() {
    let mut config = JobConfig::static_analytic().with_iterations(2);
    config.use_combiner = false;
    let app = HistApp { n: 20_000, ..hist(STAGED) };
    assert_eq!(run(&ClusterSpec::delta(3), app, config).1, NO_COMBINER);
}

#[test]
fn ordered_reduce_input() {
    let config = JobConfig::static_analytic().with_iterations(2);
    let app = HistApp { ordered: true, ..hist(STAGED) };
    let (r, pin) = run(&ClusterSpec::delta(3), app, config);
    assert!(r.outputs.iter().any(|(_, v)| *v != 0));
    assert_eq!(pin, ORDERED);
}

#[test]
fn online_calibration() {
    // A slow GPU the configured profile does not know about, so the fit
    // moves the split between iterations.
    let faults = FaultPlan::seeded(3).slow_gpu(1, 0, 0.0, 1e9, 3.0);
    let spec = ClusterSpec::delta(2).with_faults(faults);
    let config = JobConfig::static_analytic().with_iterations(4).with_online_calibration(0.5);
    let (r, pin) = run(&spec, hist(RESIDENT), config);
    let p = &r.metrics.cpu_fractions;
    assert_ne!(p[0], p[1], "the faulted node must have moved its split: {p:?}");
    assert_eq!(pin, ONLINE_CALIBRATION);
}

#[test]
fn speculation_under_a_slow_cpu() {
    let faults = FaultPlan::seeded(4).slow_cpu(1, 0.0, 1e9, 3.0);
    let spec = ClusterSpec::delta(2).with_faults(faults);
    let config = JobConfig::static_analytic().with_iterations(2).with_speculation(1.5);
    let (r, pin) = run(&spec, hist(STAGED), config);
    let rec = r.metrics.recovery;
    assert!(
        rec.speculative_launched > 0 && rec.speculative_won > 0 && rec.speculative_wasted > 0,
        "every speculation outcome must occur: {rec:?}"
    );
    assert_eq!(pin, SPECULATION);
}

/// A crash `frac` of the way through `stage` of the first iteration of
/// `config`'s clean run on two Delta nodes, aimed at node 0's GPU 0.
fn gpu_crash(app: fn() -> HistApp, config: JobConfig, stage: usize, frac: f64) -> (JobResult<u64>, Pin) {
    let clean = run(&ClusterSpec::delta(2), app(), config).0;
    let at = inside_stage(&clean.metrics, 0, stage, frac);
    let spec = ClusterSpec::delta(2).with_faults(FaultPlan::seeded(1).crash_gpu(0, 0, at));
    let (r, pin) = run(&spec, app(), config);
    assert_eq!(r.outputs, clean.outputs, "recovered outputs must equal the clean run's");
    assert_eq!(r.metrics.recovery.gpu_daemon_crashes, 1);
    (r, pin)
}

fn crash_app() -> HistApp {
    HistApp { n: 400_000, k: 16, ai: 500.0, ..hist(RESIDENT) }
}

#[test]
fn gpu_crash_under_static() {
    let config = JobConfig::static_analytic().with_iterations(2);
    let (r, pin) = gpu_crash(crash_app, config, 0, 0.4);
    // More blocks moved than daemons died: the backlog was drained too.
    assert!(r.metrics.recovery.blocks_requeued > config.gpu_streams as u64);
    assert_eq!(r.metrics.cpu_fractions[0], Some(1.0), "the survivor split excludes the dead GPU");
    assert_eq!(pin, GPU_CRASH_STATIC);
}

#[test]
fn gpu_crash_under_dynamic() {
    let config = JobConfig::dynamic(5000).with_iterations(2);
    let (r, pin) = gpu_crash(crash_app, config, 0, 0.4);
    assert!(r.metrics.recovery.blocks_requeued > 0);
    assert_eq!(pin, GPU_CRASH_DYNAMIC);
}

#[test]
fn gpu_crash_during_a_gpu_reduce() {
    fn app() -> HistApp {
        HistApp { reduce_flops: 2e10, ..crash_app() }
    }
    let mut config = JobConfig::static_analytic().with_iterations(2);
    config.reduce_device = DeviceClass::Gpu;
    let (r, pin) = gpu_crash(app, config, 2, 0.5);
    assert!(r.metrics.recovery.blocks_requeued > 0, "the interrupted reduce moves to the CPU");
    assert_eq!(pin, GPU_CRASH_REDUCE);
}

#[test]
fn stall_retry_reassign() {
    let faults = FaultPlan::seeded(2).stall_node(1, 0.0, 10.0, 5.0);
    let spec = ClusterSpec::delta(2).with_faults(faults);
    let config = JobConfig::static_analytic().with_iterations(2).with_partition_timeout(0.1, 1);
    let (r, pin) = run(&spec, hist(STAGED), config);
    let rec = r.metrics.recovery;
    assert_eq!((rec.retries, rec.reassignments), (2, 2), "{rec:?}");
    assert_eq!(pin, STALL_RETRY_REASSIGN);
}

#[test]
fn bounded_recorder_pump() {
    let cfg = RecorderConfig { window: 0.0001, budget: 512, rollup_period: 0.0001 };
    let obs = Obs::recording_with_recorder(cfg, true);
    let config = JobConfig::static_analytic().with_iterations(4);
    let (_, pin) = run_with(&ClusterSpec::delta(3), hist(STAGED), config, obs.clone());
    assert!(obs.recorder.summary().folded > 0, "the pump must have evicted something");
    assert_eq!(pin, BOUNDED_RECORDER);
}

/// Per-iteration stage seconds (as bits) and the clock of each catalog
/// app, run the way `prs run` runs it — three iterations at most, at a
/// small shape on four micro nodes — and the Gantt chart and Chrome trace
/// of each run.
#[test]
fn stage_times_of_the_nine_apps() {
    let shape = Shape { points: 4000, dims: 8, clusters: 3 };
    let spec = ClusterSpec::homogeneous(
        4,
        DeviceProfile::micro_node(),
        netsim::NetworkParams::infiniband_qdr(),
    );
    let config = JobConfig::static_analytic().with_iterations(3);
    let (stages, timelines): (Vec<u64>, Vec<u64>) = CATALOG
        .iter()
        .map(|app| {
            let ran = app.run(shape, 42, &spec, config, Drive::Plain(stack_only()));
            let m = ran.expect("job runs").metrics;
            (fnv_words(stage_bits(&m).chain([m.total_seconds.to_bits()])), timeline_pin(&m))
        })
        .unzip();
    assert_eq!(stages, NINE_APPS, "{stages:#018x?}");
    assert_eq!(timelines, NINE_APPS_TIMELINE, "{timelines:#018x?}");
}

/// The final outputs of each catalog app, bit for bit (`Ran::digest`),
/// with the combiner on and off: two iterations on four micro nodes at
/// `p = 0.5`, so every partition maps as eight CPU blocks and four GPU
/// blocks.
#[test]
fn outputs_of_the_nine_apps() {
    let shape = Shape { points: 4000, dims: 8, clusters: 3 };
    let spec = ClusterSpec::homogeneous(
        4,
        DeviceProfile::micro_node(),
        netsim::NetworkParams::infiniband_qdr(),
    );
    let on = JobConfig::static_with_p(0.5).with_iterations(2);
    let off = JobConfig { use_combiner: false, ..on };
    let digests: Vec<[u64; 2]> = CATALOG
        .iter()
        .map(|app| {
            [on, off].map(|config| {
                let ran = app.run(shape, 42, &spec, config, Drive::Plain(Obs::disabled()));
                ran.expect("job runs").digest
            })
        })
        .collect();
    assert_eq!(digests, NINE_APPS_OUTPUTS, "{digests:#018x?}");
}

const STATIC_EQ8: Pin = Pin {
    clock: 0x3fb325b95f498c03,
    sim: 0x0d6ebf174ddeb2d9,
    outputs: 0x4650c05a45818038,
    stages: 0x0fbbe151c4d9c288,
    counters: 0xa627b4e894449689,
    events: 0x21c52999174d4059,
    metrics: 0xe36939f144abde73,
    decisions: 0x6d1834688005927a,
    stacks: 0x0555c374594620da,
    timeline: 0x82821cab2c299741,
};
const P_OVERRIDE: Pin = Pin {
    clock: 0x3fb32bff71dbd1bc,
    sim: 0x9582ac2fbf576009,
    outputs: 0x4650c05a45818038,
    stages: 0xf5d9423d539bf731,
    counters: 0x89b5b60dbb10ecbb,
    events: 0x64d19382e88e8bf8,
    metrics: 0x40dfd4813f383683,
    decisions: 0xdaa82e2f5638140f,
    stacks: 0x9a70ec6ebb7a7db4,
    timeline: 0xee165d57f2fa60bc,
};
const CPU_ONLY: Pin = Pin {
    clock: 0x3f7118cd2d67e1e3,
    sim: 0x59c8b545fc0c5111,
    outputs: 0x4650c05a45818038,
    stages: 0x58a0d3653bbde4e8,
    counters: 0x6dd6c7a7b0108cba,
    events: 0x581da9630ed3f6e5,
    metrics: 0x18bc3293a0657bd3,
    decisions: 0x1d9601059c803124,
    stacks: 0x4454eb153ed83b5e,
    timeline: 0x174a9cefaf11c02e,
};
const GPU_ONLY: Pin = Pin {
    clock: 0x3fb380851932b7c8,
    sim: 0xe92a8ddc9b67c6f3,
    outputs: 0x4650c05a45818038,
    stages: 0xc3d1cdaeb56e6515,
    counters: 0xf6a7cb3ed8220981,
    events: 0x38a3d1378f32dd5c,
    metrics: 0x16dc65b8feca4acd,
    decisions: 0x52cc675870cfe47b,
    stacks: 0xe81125012352232a,
    timeline: 0x0270e0d2b3247505,
};
const DYNAMIC: Pin = Pin {
    clock: 0x3fb2a2497560dafd,
    sim: 0xfc5021ae04219f95,
    outputs: 0x4650c05a45818038,
    stages: 0xa1234cda70d023ba,
    counters: 0xaf8a6bc312c7e14b,
    events: 0x51a00e6d6b7052d6,
    metrics: 0xa3308f2bad020c67,
    decisions: 0x63b6bc3e2f802696,
    stacks: 0x60994d89bc50ac4d,
    timeline: 0x0440497e58ea4aba,
};
const TWO_GPUS: Pin = Pin {
    clock: 0x3fb2fac1a54856ba,
    sim: 0x89c0f1b3ee0651c9,
    outputs: 0x4650c05a45818038,
    stages: 0xd536db718965b129,
    counters: 0xece8e6b4e6a2b077,
    events: 0xfbe3fa38b3e2d154,
    metrics: 0xe64253c29fa05bca,
    decisions: 0x450b161a4ffe1c21,
    stacks: 0x57d3310e3ff29c3c,
    timeline: 0x014a841834039b63,
};
const RESIDENT_CACHED: Pin = Pin {
    clock: 0x3fb3030c4c37f146,
    sim: 0xa048c20c46b498f1,
    outputs: 0x4650c05a45818038,
    stages: 0x52ca0cf3e6e69f65,
    counters: 0xe1dd7581a95adb84,
    events: 0xa325b5215d1ab414,
    metrics: 0xc2c4a7bb6a6a991c,
    decisions: 0x7714a2970e8426d5,
    stacks: 0x0ce2e745cf0ec55c,
    timeline: 0x6d04f15c2d030322,
};
const RESIDENT_RESTAGED: Pin = Pin {
    clock: 0x3fb3bfa28f75005a,
    sim: 0x3f1c3b88aaef2ab1,
    outputs: 0x4650c05a45818038,
    stages: 0xb2be56ea7435545d,
    counters: 0xe1dd7581a95adb84,
    events: 0x115e66b2b9f65ead,
    metrics: 0x9aa807ef0874df9b,
    decisions: 0x9ac0c8bb3b0f31b3,
    stacks: 0xa47ed4e93733dbbc,
    timeline: 0x1b84a42335958d08,
};
const CONTEXT_PER_TASK: Pin = Pin {
    clock: 0x3fe2059a6d8f0d7f,
    sim: 0x4c103d848d0185ff,
    outputs: 0x4650c05a45818038,
    stages: 0xbff3cff0d490de8d,
    counters: 0xdcacc64f430ba4a2,
    events: 0xebd0efd8ae6c17f3,
    metrics: 0xbe0f91afbc3681cd,
    decisions: 0xd37af733d8686c52,
    stacks: 0xf14531312fcd43e3,
    timeline: 0x4aa88c788172ff16,
};
const REDUCE_ON_GPU: Pin = Pin {
    clock: 0x3fb2bf499bf38d50,
    sim: 0x5c2b42ccf5eb8eb7,
    outputs: 0x4650c05a45818038,
    stages: 0xb2937de6a6ba9649,
    counters: 0xc1548c22a3cd3f7c,
    events: 0xc5b92317c9f289d3,
    metrics: 0x600c17e595d75830,
    decisions: 0x833d84040f5b3aa1,
    stacks: 0x3bca5d473e0099d9,
    timeline: 0x5c9c342e611d27d0,
};
const NO_COMBINER: Pin = Pin {
    clock: 0x3fb2732b8c0aee15,
    sim: 0x3062a1b5f188e41a,
    outputs: 0x22299f3c239c3144,
    stages: 0xb709f39579b11602,
    counters: 0xc1548c22a3cd3f7c,
    events: 0x1b8358ba07c6cee1,
    metrics: 0xbf0b6b55ffe401bf,
    decisions: 0xe6a35fc9143dc881,
    stacks: 0xd0edb3ccd3ff7425,
    timeline: 0xd69fcff01d295dc1,
};
const ORDERED: Pin = Pin {
    clock: 0x3fb2bd76c64ec92a,
    sim: 0x33d37f71624e6842,
    outputs: 0xcb266a62be0499f8,
    stages: 0xcf0624c9cbd51a5d,
    counters: 0xc1548c22a3cd3f7c,
    events: 0xf9fc9c3a1f6da393,
    metrics: 0x9c0b1aa73ae987fb,
    decisions: 0x134c424a946e5aa1,
    stacks: 0x90ab4e38e9b3cabb,
    timeline: 0x60040a0006f9483f,
};
const ONLINE_CALIBRATION: Pin = Pin {
    clock: 0x3fb478330bceb929,
    sim: 0x9ea3b0e4925626dc,
    outputs: 0x4650c05a45818038,
    stages: 0x6765d5f495181477,
    counters: 0x4139ad170897ed40,
    events: 0x249aacfe9b54820b,
    metrics: 0x76d7360e70ad8490,
    decisions: 0xcfaa1658d23a4c15,
    stacks: 0x146b64f4b7c470ad,
    timeline: 0xdd3e5c70d62f9a81,
};
const SPECULATION: Pin = Pin {
    clock: 0x3fb4a6eb135140d0,
    sim: 0x270db79e6538c76c,
    outputs: 0x4650c05a45818038,
    stages: 0xae393b4c2dd4baad,
    counters: 0xe51cfedc90d98010,
    events: 0x50e775d254c3b52d,
    metrics: 0x34789aa51aa734f8,
    decisions: 0x08b16160e66979e4,
    stacks: 0x2e1018556ce33ea8,
    timeline: 0x4237c1a2a9b1841f,
};
const GPU_CRASH_STATIC: Pin = Pin {
    clock: 0x3fca38279439bec1,
    sim: 0x5dcae79426add747,
    outputs: 0x71874ca149015a75,
    stages: 0xf67587aa99aca9fe,
    counters: 0x6ec295b388bfb283,
    events: 0x3d3bd8cda37928da,
    metrics: 0xbba07f42cce05656,
    decisions: 0x590f695fa2711574,
    stacks: 0x3667ff5042e338c5,
    timeline: 0x699b615ac26d42d3,
};
const GPU_CRASH_DYNAMIC: Pin = Pin {
    clock: 0x3fc4456562704509,
    sim: 0x43f9905c4f8b2cd1,
    outputs: 0x71874ca149015a75,
    stages: 0x673b8f5bf597529d,
    counters: 0x89f0c2d153cfc6e4,
    events: 0x6ebcd915050b2d84,
    metrics: 0xe212593be74bf17d,
    decisions: 0x85c019ef69defedc,
    stacks: 0x1c25c2f07aca27c7,
    timeline: 0x20430adea7e456a3,
};
const GPU_CRASH_REDUCE: Pin = Pin {
    clock: 0x400f46b7e4a6e5d9,
    sim: 0xd9137a28ae9daad5,
    outputs: 0x71874ca149015a75,
    stages: 0xad6987202badc381,
    counters: 0x848912e7918b5047,
    events: 0xfa30e32e54954ab5,
    metrics: 0xeecbbb7f81c37924,
    decisions: 0x1eb2d5abd9a64be1,
    stacks: 0xa38e6079d9b296ff,
    timeline: 0xf90f5436970ee98a,
};
const STALL_RETRY_REASSIGN: Pin = Pin {
    clock: 0x4024042b639c3f78,
    sim: 0x79d25b787b770114,
    outputs: 0x4650c05a45818038,
    stages: 0x663d35d8f7e6a355,
    counters: 0x2df483b41401f854,
    events: 0xc77ad6dcf8b12124,
    metrics: 0x8c5a152bc1a56f12,
    decisions: 0xa044e4fb8e71b4b6,
    stacks: 0xcdb89fc973d07c36,
    timeline: 0x447f9ce9065f800e,
};
const BOUNDED_RECORDER: Pin = Pin {
    clock: 0x3fb38e5f162fc918,
    sim: 0x88a81873241674ea,
    outputs: 0x4650c05a45818038,
    stages: 0xad102295503258f5,
    counters: 0x57a6fdcc3fc7fffc,
    events: 0xcbf29ce484222325,
    metrics: 0x98e496ab5d9bf21f,
    decisions: 0x127d32b52095ed65,
    stacks: 0x73973bec019a92f2,
    timeline: 0xa1eb4303c3dec739,
};
/// cmeans, kmeans, gmm, da, gemv, spmv, dgemm, wordcount, fft.
const NINE_APPS: [u64; 9] = [
    0x8ea0826697eae728,
    0x5a9208b65f7519e9,
    0xdf8f2839baa0b887,
    0xe02b605e0560e362,
    0x22a59f9d19b3aff6,
    0x82d068525955ee67,
    0x417637f3bb8a68a0,
    0xa6a5575e29fdc36d,
    0x8734883521677e51,
];
/// The timeline pins of the same nine runs.
const NINE_APPS_TIMELINE: [u64; 9] = [
    0x1d1cb274d1bed707,
    0x3b51e4b34d9b2c0d,
    0x8277d034bbb1cba9,
    0xb7ca9d54140f3a07,
    0x4eb0581770152e7f,
    0x4b1c1b8e003c0677,
    0xc48b788f35223653,
    0x43372b53399801d1,
    0x9911cd920ed9bb01,
];
/// The output digests of the same nine apps at `p = 0.5`, combiner on
/// and off.
const NINE_APPS_OUTPUTS: [[u64; 2]; 9] = [
    [0x4e698cc402cf5d30, 0x53218f9860bdb8c4], // cmeans
    [0x6c8bfdd3c61e7783, 0x8ffe740e1e057743], // kmeans
    [0x409c9eb57668ba80, 0x075510730989865d], // gmm
    [0xddd1923ea50d88b6, 0x300997e477daf37d], // da
    [0xf96063126d3a6a5a, 0xf96063126d3a6a5a], // gemv
    [0xdb02d390ff0b6a6d, 0xdb02d390ff0b6a6d], // spmv
    [0x6c574b2d8b905303, 0x6c574b2d8b905303], // dgemm
    [0x94318f7474935bae, 0x94318f7474935bae], // wordcount
    [0x43299f0d883b390d, 0xd8a539f7ea73a683], // fft
];
