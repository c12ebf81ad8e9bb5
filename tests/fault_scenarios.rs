//! Deterministic failure-scenario suite: every test injects a seeded
//! [`FaultPlan`] and pins down both the *correctness* of the recovery
//! (outputs identical to the fault-free run, bit for bit) and its
//! *accounting* (the recovery counters match the injected plan exactly,
//! and the same seed replays to the same metrics).

use prs_core::{
    run_epochs, run_iterative, CheckpointStore, CheckpointableApp, ClusterSpec, DeviceClass,
    EpochOptions, FaultPlan, IterativeApp, JobConfig, Key, MemStore, SpmdApp,
};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::{Arc, RwLock};

/// Deterministic value histogram: device- and partitioning-independent
/// integer outputs, so any divergence under faults is a real bug.
struct HistApp {
    n: usize,
    k: u64,
    ai: f64,
    residency: DataResidency,
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
        Workload::uniform(self.ai, self.residency)
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
        false // run to the configured iteration cap
    }
}

fn hist(n: usize, k: u64, ai: f64, residency: DataResidency) -> Arc<HistApp> {
    Arc::new(HistApp { n, k, ai, residency })
}

/// A GPU daemon crash mid-iteration: the job completes on the CPU cores
/// with outputs identical to the fault-free run, the interrupted blocks
/// are re-queued, and the next iteration's static split excludes the dead
/// device.
#[test]
fn gpu_crash_mid_iteration_completes_on_cpu_with_identical_outputs() {
    let mk = || hist(400_000, 16, 500.0, DataResidency::Resident);
    let config = JobConfig::static_analytic().with_iterations(2);

    let clean = run_iterative(&ClusterSpec::delta(2), mk(), config).unwrap();
    assert!(clean.metrics.recovery.is_clean());

    // Aim the crash at 40% through node 0's first map stage; the
    // deterministic clock makes the fault-free run a reliable ruler.
    let crash_at = clean.metrics.setup_seconds + 0.4 * clean.metrics.iterations[0].map;
    let spec = ClusterSpec::delta(2)
        .with_faults(FaultPlan::seeded(1).crash_gpu(0, 0, crash_at));
    let faulty = run_iterative(&spec, mk(), config).unwrap();

    assert_eq!(
        faulty.outputs, clean.outputs,
        "recovered outputs must be identical to the fault-free run"
    );
    let r = faulty.metrics.recovery;
    assert_eq!(r.gpu_daemon_crashes, 1, "exactly one daemon died: {r:?}");
    assert!(r.blocks_requeued > 0, "in-flight blocks must be re-queued: {r:?}");
    assert!(r.seconds_lost_to_faults >= 0.0);
    // The surviving iteration runs CPU-only on node 0 (p recomputed to 1)
    // while node 1 keeps its analytic split.
    assert_eq!(faulty.metrics.cpu_fractions[0], Some(1.0));
    assert!(faulty.metrics.cpu_fractions[1].unwrap() < 1.0);
    // Doing the GPU's share on the cores cannot be faster.
    assert!(faulty.metrics.compute_seconds >= clean.metrics.compute_seconds);
}

/// A stalled node misses the acknowledgement deadline: with timeouts
/// configured the master reassigns its partitions (with exactly the
/// planned retry/reassignment counts); without timeouts it just waits and
/// no recovery is recorded. Both runs produce the fault-free outputs.
#[test]
fn straggler_triggers_reassignment_only_under_timeout_config() {
    let mk = || hist(100_000, 8, 50.0, DataResidency::Staged);
    // Node 1 sits on every assignment for 5 virtual seconds.
    let plan = || FaultPlan::seeded(2).stall_node(1, 0.0, 10.0, 5.0);
    let clean = run_iterative(&ClusterSpec::delta(2), mk(), JobConfig::static_analytic()).unwrap();

    // With a 100 ms deadline and one retry: each of node 1's two
    // partitions times out twice (initial + retry) and is then reassigned
    // to node 0 — counters follow from the plan arithmetic alone.
    let strict = JobConfig::static_analytic().with_partition_timeout(0.1, 1);
    let spec = ClusterSpec::delta(2).with_faults(plan());
    let reassigned = run_iterative(&spec, mk(), strict).unwrap();
    assert_eq!(reassigned.outputs, clean.outputs);
    let r = reassigned.metrics.recovery;
    assert_eq!(r.retries, 2, "one retry per stalled partition: {r:?}");
    assert_eq!(r.reassignments, 2, "each stalled partition moves once: {r:?}");
    assert_eq!(r.gpu_daemon_crashes, 0);
    assert_eq!(r.blocks_requeued, 0);
    assert!(
        (r.seconds_lost_to_faults - 0.4).abs() < 1e-9,
        "four 100 ms timeout windows burned: {r:?}"
    );

    // Without a timeout the master waits out the stall: no recovery
    // actions, same outputs, and the stall shows up as setup time instead.
    let patient = run_iterative(&spec, mk(), JobConfig::static_analytic()).unwrap();
    assert_eq!(patient.outputs, clean.outputs);
    assert!(patient.metrics.recovery.is_clean());
    assert!(patient.metrics.setup_seconds > clean.metrics.setup_seconds + 4.0);
}

/// Transient network jitter and a shuffle-window partition slow the run
/// down but never change its outputs.
#[test]
fn network_disruptions_delay_but_do_not_corrupt() {
    let mk = || hist(200_000, 12, 20.0, DataResidency::Staged);
    let config = JobConfig::static_analytic();
    let clean = run_iterative(&ClusterSpec::delta(3), mk(), config).unwrap();

    let horizon = clean.metrics.total_seconds.max(1.0);
    let plan = FaultPlan::seeded(3)
        .jitter_link(Some(0), None, 0.0, horizon, 0.002)
        .partition_link(Some(1), Some(2), 0.0, 0.5 * horizon)
        .with_random_jitter(3, 4, horizon, 0.001);
    let spec = ClusterSpec::delta(3).with_faults(plan);
    let faulty = run_iterative(&spec, mk(), config).unwrap();

    assert_eq!(faulty.outputs, clean.outputs);
    assert!(faulty.metrics.total_seconds >= clean.metrics.total_seconds);
    // Network faults need no scheduler recovery — only patience.
    assert!(faulty.metrics.recovery.is_clean());
}

/// The whole point of seeded plans: the same scenario replays to
/// *identical* metrics — recovery counters, timings, outputs — across
/// independent invocations.
#[test]
fn same_seed_reproduces_identical_metrics_twice() {
    let run = || {
        let crash_at = 0.05; // early: lands in setup or the first map
        let spec = ClusterSpec::delta(2).with_faults(
            FaultPlan::seeded(42)
                .crash_gpu(1, 0, crash_at)
                .slow_cpu(0, 0.0, 0.5, 2.0)
                .with_random_jitter(2, 3, 1.0, 0.001),
        );
        let config = JobConfig::static_analytic()
            .with_iterations(2)
            .with_partition_timeout(0.2, 2);
        run_iterative(&spec, hist(150_000, 8, 200.0, DataResidency::Resident), config).unwrap()
    };

    let a = run();
    let b = run();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.metrics.recovery, b.metrics.recovery);
    assert_eq!(a.metrics.total_seconds, b.metrics.total_seconds);
    assert_eq!(a.metrics.setup_seconds, b.metrics.setup_seconds);
    assert_eq!(a.metrics.compute_seconds, b.metrics.compute_seconds);
    assert_eq!(a.metrics.cpu_map_tasks, b.metrics.cpu_map_tasks);
    assert_eq!(a.metrics.gpu_map_tasks, b.metrics.gpu_map_tasks);

    // And the scenario is not a no-op: the crash happened before the
    // first map, so node 1's census routed every iteration to its cores.
    assert_eq!(a.metrics.cpu_fractions[1], Some(1.0));
    assert!(a.metrics.cpu_fractions[0].unwrap() < 1.0);
}

/// Dynamic (shared-queue) mode degrades gracefully too: dead GPU daemons
/// bounce their blocks back into the shared queue and the CPU pollers
/// absorb them.
#[test]
fn dynamic_mode_survives_gpu_crash() {
    let mk = || hist(120_000, 10, 100.0, DataResidency::Staged);
    let config = JobConfig::dynamic(2_000);
    let clean = run_iterative(&ClusterSpec::delta(1), mk(), config).unwrap();

    let crash_at = clean.metrics.setup_seconds + 0.3 * clean.metrics.iterations[0].map;
    let spec = ClusterSpec::delta(1).with_faults(FaultPlan::seeded(4).crash_gpu(0, 0, crash_at));
    let faulty = run_iterative(&spec, mk(), config).unwrap();

    assert_eq!(faulty.outputs, clean.outputs);
    assert_eq!(faulty.metrics.recovery.gpu_daemon_crashes, 1);
    assert!(faulty.metrics.compute_seconds >= clean.metrics.compute_seconds);
}

/// An iterative app whose map output depends on the model state carried
/// from the previous iteration: a botched checkpoint restore corrupts
/// every later iteration, so final-output equality pins the entire
/// recovery path, not just the last reduce. The reduce is an
/// order-insensitive wrapping sum, so recovered runs must match the
/// fault-free run bit for bit.
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
        false // run to the configured iteration cap
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

fn chain(n: usize, k: u64) -> Arc<ChainApp> {
    Arc::new(ChainApp { n, k, state: RwLock::new(0x9e37_79b9_7f4a_7c15) })
}

/// A whole worker node dies mid-run: the resilient driver restores the
/// last checkpoint, drops the dead node, and finishes on the survivors
/// with final outputs and model state bit-identical to the fault-free
/// run.
#[test]
fn worker_crash_resumes_from_checkpoint_bit_identical() {
    let config = JobConfig::static_analytic().with_iterations(4).with_checkpoint_interval(1);
    let clean_app = chain(60_000, 8);
    let clean = run_iterative(&ClusterSpec::delta(3), clean_app.clone(), config).unwrap();
    let clean_state = clean_app.save_state();

    // Node 2 dies inside iteration 3, after the iteration-2 checkpoint
    // exists (setup can dominate the makespan, so place the crash from
    // the stage clocks rather than a fraction of the total).
    let it = &clean.metrics.iterations;
    let crash_at =
        clean.metrics.setup_seconds + it[0].total() + it[1].total() + 0.5 * it[2].total();
    let spec =
        ClusterSpec::delta(3).with_faults(FaultPlan::seeded(6).crash_node(2, crash_at));
    let app = chain(60_000, 8);
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let outcome = run_epochs(&spec, app.clone(), config, EpochOptions { store, ..Default::default() }).unwrap();

    assert_eq!(
        outcome.outputs, clean.outputs,
        "recovered outputs must be bit-identical to the fault-free run"
    );
    assert_eq!(
        app.save_state(),
        clean_state,
        "final model state must be bit-identical to the fault-free run"
    );
    let r = &outcome.metrics.recovery;
    assert_eq!(r.node_crashes, 1, "{r:?}");
    assert_eq!(r.master_failovers, 0, "{r:?}");
    assert_eq!(r.restores, 1, "{r:?}");
    assert!(r.checkpoints_written > 0, "{r:?}");
    assert!(r.seconds_lost_to_faults > 0.0, "{r:?}");
    assert_eq!(outcome.attempts.len(), 2, "one crash -> two epochs");
    assert_eq!(outcome.attempts[0].disposition, "node-crash");
    assert_eq!(outcome.attempts[0].nodes, 3);
    assert_eq!(outcome.attempts[1].disposition, "completed");
    assert_eq!(outcome.attempts[1].nodes, 2, "the dead node must be dropped");
    assert!(
        outcome.attempts[1].base_iteration > 0,
        "the second epoch must resume from a checkpoint, not from scratch"
    );
    assert!(outcome.total_virtual_secs > clean.metrics.total_seconds);
}

/// The master dies mid-run: the standby replays the checkpoint log, pays
/// the failover delay, and the rerun on the full cluster converges to the
/// fault-free result bit for bit.
#[test]
fn master_crash_resumes_from_checkpoint_bit_identical() {
    let config = JobConfig::static_analytic().with_iterations(4).with_checkpoint_interval(1);
    let clean = run_iterative(&ClusterSpec::delta(2), chain(60_000, 8), config).unwrap();

    let it = &clean.metrics.iterations;
    let crash_at =
        clean.metrics.setup_seconds + it[0].total() + it[1].total() + 0.5 * it[2].total();
    let spec = ClusterSpec::delta(2).with_faults(FaultPlan::seeded(7).crash_master(crash_at));
    let app = chain(60_000, 8);
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let outcome = run_epochs(&spec, app, config, EpochOptions { store, ..Default::default() }).unwrap();

    assert_eq!(outcome.outputs, clean.outputs);
    let r = &outcome.metrics.recovery;
    assert_eq!(r.master_failovers, 1, "{r:?}");
    assert_eq!(r.node_crashes, 0, "{r:?}");
    assert_eq!(r.restores, 1, "{r:?}");
    assert_eq!(outcome.attempts.len(), 2);
    // No worker died: both epochs run on the full cluster.
    assert!(outcome.attempts.iter().all(|a| a.nodes == 2));
    // Epoch clocks are monotone and cumulative time includes the failover.
    assert!(outcome.attempts[1].base_secs > outcome.attempts[0].end_secs);
    assert_eq!(outcome.total_virtual_secs, outcome.attempts[1].end_secs);
}

/// Master crash recovery without checkpointing is rejected up front: the
/// standby has no log to replay.
#[test]
fn master_crash_without_checkpointing_is_invalid_config() {
    let spec = ClusterSpec::delta(2).with_faults(FaultPlan::seeded(8).crash_master(0.01));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let err = run_epochs(
        &spec,
        chain(10_000, 4),
        JobConfig::static_analytic(),
        EpochOptions { store, ..Default::default() },
    );
    assert!(err.is_err(), "missing checkpoint interval must be rejected");
}

/// A slowdown window (straggling devices, not dead ones) needs no
/// recovery actions but must stretch the run.
#[test]
fn slowdown_windows_stretch_without_recovery_actions() {
    let mk = || hist(150_000, 8, 80.0, DataResidency::Staged);
    let config = JobConfig::static_analytic();
    let clean = run_iterative(&ClusterSpec::delta(2), mk(), config).unwrap();

    let horizon = clean.metrics.total_seconds.max(1.0);
    let spec = ClusterSpec::delta(2).with_faults(
        FaultPlan::seeded(5)
            .slow_cpu(0, 0.0, horizon, 3.0)
            .slow_gpu(1, 0, 0.0, horizon, 2.0),
    );
    let faulty = run_iterative(&spec, mk(), config).unwrap();

    assert_eq!(faulty.outputs, clean.outputs);
    assert!(faulty.metrics.recovery.is_clean());
    assert!(
        faulty.metrics.compute_seconds > clean.metrics.compute_seconds,
        "3x CPU / 2x GPU slowdown must show up in the makespan: {} vs {}",
        faulty.metrics.compute_seconds,
        clean.metrics.compute_seconds
    );
}
