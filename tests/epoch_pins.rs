//! Byte pins for the epoch driver: for every kind of epoch boundary the
//! driver classifies (crash, master failover, drain, handoff, evict,
//! scale-out, autoscale evaluation) one seeded scenario whose rendered
//! artifacts, outputs, clock and epoch trace are hashed and compared
//! with constants captured on commit 7493b67 — the three crash scenarios
//! through `run_resilient_observed`, the rest through
//! `run_elastic_observed` — before the two loops became `run_epochs`. A
//! refactor of the driver must leave every constant alone; do not
//! regenerate them for a host-side change.

use prs_core::{
    run_epochs, run_iterative, AutoscalePolicy, CheckpointableApp, ClusterSpec, DeviceClass,
    EpochOptions, FaultPlan, IterativeApp, JobConfig, JobMetrics, Key, MembershipPlan, Obs, SpmdApp,
};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::{Arc, RwLock};

/// State-chained histogram (the fault and membership suites' fixture):
/// map output depends on the model state carried across iterations, so a
/// wrong restore or a lost update changes the final outputs.
struct ChainApp {
    n: usize,
    k: u64,
    state: RwLock<u64>,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SpmdApp for ChainApp {
    type Inter = u64;
    type Output = u64;
    fn num_items(&self) -> usize {
        self.n
    }
    fn item_bytes(&self) -> u64 {
        64
    }
    fn workload(&self) -> Workload {
        Workload::uniform(50.0, DataResidency::Staged)
    }
    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        let acc = *self.state.read().unwrap();
        range.map(|i| (i as u64 % self.k, mix(i as u64 ^ acc))).collect()
    }
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        self.cpu_map(node, range)
    }
    fn reduce(&self, _d: DeviceClass, _k: Key, v: Vec<u64>) -> u64 {
        v.iter().fold(0u64, |a, b| a.wrapping_add(*b))
    }
    fn combine(&self, _k: Key, v: Vec<u64>) -> Vec<u64> {
        vec![v.iter().fold(0u64, |a, b| a.wrapping_add(*b))]
    }
}

impl IterativeApp for ChainApp {
    fn update(&self, outputs: &[(Key, u64)]) -> bool {
        let mut s = self.state.write().unwrap();
        for (k, v) in outputs {
            *s = mix(*s ^ k.wrapping_add(v.rotate_left(7)));
        }
        false
    }
}

impl CheckpointableApp for ChainApp {
    fn save_state(&self) -> Vec<u8> {
        self.state.read().unwrap().to_le_bytes().to_vec()
    }
    fn restore_state(&self, bytes: &[u8]) {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        *self.state.write().unwrap() = u64::from_le_bytes(buf);
    }
}

fn chain() -> Arc<ChainApp> {
    Arc::new(ChainApp { n: 60_000, k: 8, state: RwLock::new(0x9e37_79b9_7f4a_7c15) })
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// What one scenario pins. `clock` is `total_virtual_secs.to_bits()`
/// itself; the rest are FNV-1a hashes of the rendered bytes.
#[derive(Debug, PartialEq)]
struct Pin {
    events: u64,
    metrics: u64,
    decisions: u64,
    outputs: u64,
    clock: u64,
    trace: u64,
}

/// Runs one scenario and renders the pinned quantities. The epoch trace
/// is one `[epoch n it base..end disposition]` group per epoch followed
/// by the `time:nodes` cluster-size history, clock values as bits.
fn pin(
    spec: &ClusterSpec,
    config: JobConfig,
    membership: MembershipPlan,
    autoscale: Option<AutoscalePolicy>,
) -> Pin {
    let obs = Obs::recording();
    let opts = EpochOptions { membership, autoscale, obs: obs.clone(), ..EpochOptions::default() };
    let out = run_epochs(spec, chain(), config, opts).unwrap();
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
    Pin {
        events: fnv1a(obs.bus.to_jsonl().bytes()),
        metrics: fnv1a(obs.metrics.to_prometheus().bytes()),
        decisions: fnv1a(obs.audit.to_jsonl().bytes()),
        outputs: fnv1a(out.outputs.iter().flat_map(|(k, v)| [k.to_le_bytes(), v.to_le_bytes()].concat())),
        clock: out.total_virtual_secs.to_bits(),
        trace: fnv1a(trace.bytes()),
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

#[test]
fn worker_crash() {
    let config = checkpointed(4);
    let at = inside_iteration(&clean(3, config), 2, 0.5);
    let spec = ClusterSpec::delta(3).with_faults(FaultPlan::seeded(6).crash_node(2, at));
    assert_eq!(pin(&spec, config, MembershipPlan::default(), None), WORKER_CRASH);
}

#[test]
fn master_crash() {
    let config = checkpointed(4);
    let at = inside_iteration(&clean(2, config), 2, 0.5);
    let spec = ClusterSpec::delta(2).with_faults(FaultPlan::seeded(7).crash_master(at));
    assert_eq!(pin(&spec, config, MembershipPlan::default(), None), MASTER_CRASH);
}

#[test]
fn crash_with_speculation() {
    // A straggling CPU keeps the backup volley busy on both sides of the
    // crash, so the speculation counters cross an epoch boundary.
    let config = JobConfig::dynamic(2_000)
        .with_iterations(4)
        .with_checkpoint_interval(2)
        .with_speculation(1.5);
    let m = clean(3, config);
    let faults = FaultPlan::seeded(8)
        .slow_cpu(1, 0.0, 2.0 * m.total_seconds, 3.0)
        .crash_node(0, inside_iteration(&m, 2, 0.25));
    let spec = ClusterSpec::delta(3).with_faults(faults);
    assert_eq!(pin(&spec, config, MembershipPlan::default(), None), CRASH_WITH_SPECULATION);
}

#[test]
fn drain() {
    let config = checkpointed(4);
    let plan = MembershipPlan::seeded(1).drain(2, inside_iteration(&clean(3, config), 2, 0.5), 10.0);
    assert_eq!(pin(&ClusterSpec::delta(3), config, plan, None), DRAIN);
}

#[test]
fn blown_deadline_handoff() {
    let config = checkpointed(4);
    let plan = MembershipPlan::seeded(2).drain(2, inside_iteration(&clean(3, config), 2, 0.5), 0.0);
    assert_eq!(pin(&ClusterSpec::delta(3), config, plan, None), HANDOFF);
}

#[test]
fn evict() {
    let config = checkpointed(4);
    let plan = MembershipPlan::seeded(1).evict(2, inside_iteration(&clean(3, config), 2, 0.5));
    assert_eq!(pin(&ClusterSpec::delta(3), config, plan, None), EVICT);
}

#[test]
fn scale_out() {
    let config = JobConfig::static_analytic().with_iterations(4);
    let plan = MembershipPlan::seeded(3).scale_out(1, inside_iteration(&clean(2, config), 1, 0.5));
    assert_eq!(pin(&ClusterSpec::delta(2), config, plan, None), SCALE_OUT);
}

#[test]
fn crash_mid_drain() {
    let config = checkpointed(4);
    let m = clean(3, config);
    let plan = MembershipPlan::seeded(5).drain(2, inside_iteration(&m, 2, 0.5), 10.0);
    let faults = FaultPlan::seeded(5).crash_node(2, inside_iteration(&m, 2, 0.75));
    let spec = ClusterSpec::delta(3).with_faults(faults);
    assert_eq!(pin(&spec, config, plan, None), CRASH_MID_DRAIN);
}

#[test]
fn autoscale_grow() {
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
    let plan = MembershipPlan::seeded(6);
    assert_eq!(
        pin(&ClusterSpec::delta(1), config, plan, Some(policy)),
        AUTOSCALE_GROW
    );
}

const WORKER_CRASH: Pin = Pin {
    events: 0x87ff678e0cb9f9d4,
    metrics: 0x519d172d2eceaebc,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fd7d42b9cf73618,
    trace: 0x31069d95c1c209ce,
};
const MASTER_CRASH: Pin = Pin {
    events: 0xbbfab143d61612e9,
    metrics: 0x46cefc3c21a2b2b4,
    decisions: 0xd24129f2da64b028,
    outputs: 0x3257196a890f9a79,
    clock: 0x3febead860911a2d,
    trace: 0xc4ebfd2d40eb65a5,
};
const CRASH_WITH_SPECULATION: Pin = Pin {
    events: 0xe5e6d7bc0e9954b3,
    metrics: 0xdbe8100419e8c392,
    decisions: 0x5dc600d2974bd07a,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fd7fdf50f4f6e33,
    trace: 0x404e2f067d720edd,
};
const DRAIN: Pin = Pin {
    events: 0x59e429573fbf8084,
    metrics: 0x6fd0e1b66956e66b,
    decisions: 0x1393038806df23aa,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc25a217a50e5a2,
    trace: 0x825fdaedea1cec9d,
};
const HANDOFF: Pin = Pin {
    events: 0x75e5f08d067520f1,
    metrics: 0xc8b9ceabb432b6e3,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc279e5d47aca38,
    trace: 0x70bfc85d4c4f162a,
};
const EVICT: Pin = Pin {
    events: 0xb7cf66ddce8bef1e,
    metrics: 0x78a615e4acdf4056,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc279e5d47aca38,
    trace: 0xe8df98ae723f111d,
};
const SCALE_OUT: Pin = Pin {
    events: 0x4920eb3c4c02c959,
    metrics: 0xa681404a77ab957c,
    decisions: 0x8db055ebfc6db790,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fc25fd5c08f5237,
    trace: 0x2e89918c66a53cec,
};
const CRASH_MID_DRAIN: Pin = Pin {
    events: 0x62df696352f36d26,
    metrics: 0x41f2436c5aeeadf8,
    decisions: 0x0a04c5e01989beff,
    outputs: 0x3257196a890f9a79,
    clock: 0x3fd7d0ddf7fba4ca,
    trace: 0xc0b31c3841ac346f,
};
const AUTOSCALE_GROW: Pin = Pin {
    events: 0x26c22f3bf22e94bb,
    metrics: 0x4728ae3bdcd48991,
    decisions: 0x372da2f3218869c1,
    outputs: 0xa2b088b1b109567a,
    clock: 0x3fd6b717cfe4d8b4,
    trace: 0xc5e6fdf0b61dd866,
};
