//! The epoch-based resilient driver: runs an iterative job through
//! scheduled whole-node and master crashes by cutting the run into
//! recovery epochs at iteration boundaries.
//!
//! Collectives cannot survive a participant dying mid-operation, so a
//! process crash cannot be simulated inside one [`crate::run_iterative`]
//! attempt. Instead the driver arms the attempt with the epoch's first
//! scheduled crash time: the sub-task schedulers abort at the first
//! iteration boundary at or after it, *before* the model update runs, so
//! the interrupted iteration leaves no trace in the application state.
//! The driver then restores the last [`Checkpoint`](crate::Checkpoint)
//! (or the initial model state when none exists yet), charges the
//! heartbeat detection delay
//! (plus standby failover for a master loss), removes the dead node from
//! the cluster, rebases the remaining fault plan, and reruns the
//! remaining iterations on the survivors.
//!
//! For order-insensitive exact reduces (integer sums and the like) the
//! recovered run's final outputs are bit-identical to a fault-free run of
//! the same job — the invariant the chaos harness pins.

use crate::api::CheckpointableApp;
use crate::checkpoint::CheckpointStore;
use crate::cluster::ClusterSpec;
use crate::config::JobConfig;
use crate::faults::CrashEvent;
use crate::job::{
    partition_plan, run_with_update, CheckpointHooks, JobError, RunHooks, UpdateFn,
};
use crate::metrics::JobMetrics;
use netsim::HeartbeatMonitor;
use obs::Obs;
use simtime::SimTime;
use std::sync::Arc;

/// One recovery epoch of a resilient run: which cluster it ran on, where
/// it started, and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSummary {
    /// Epoch index (0 = the initial attempt).
    pub epoch: usize,
    /// Surviving node count during this epoch.
    pub nodes: usize,
    /// Cumulative iterations completed before the epoch started.
    pub base_iteration: u64,
    /// Cumulative virtual seconds consumed before the epoch started.
    pub base_secs: f64,
    /// Cumulative virtual seconds when the epoch's simulation ended.
    pub end_secs: f64,
    /// True when the epoch was cut short by a scheduled crash.
    pub interrupted: bool,
    /// The crash that ended the epoch, if any.
    pub crash: Option<CrashEvent>,
}

/// A completed resilient run: final outputs plus the merged measurements
/// and the per-epoch recovery history.
#[derive(Debug)]
pub struct ResilientOutcome<O> {
    /// Final reduce outputs, sorted by key — bit-identical to the
    /// fault-free run for order-insensitive exact reduces.
    pub outputs: Vec<(crate::api::Key, O)>,
    /// The final epoch's metrics with `recovery` replaced by the merge of
    /// every epoch's counters and `total_seconds` by the cumulative
    /// virtual time (including detection and failover delays).
    pub metrics: JobMetrics,
    /// One entry per recovery epoch, in order.
    pub attempts: Vec<AttemptSummary>,
    /// Cumulative virtual seconds across all epochs, including the
    /// heartbeat detection and master failover delays between them.
    pub total_virtual_secs: f64,
}

/// Runs an iterative, checkpointable job to completion through the
/// scheduled node/master crashes in `spec.faults` (see the module docs).
pub fn run_resilient<A: CheckpointableApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    store: Arc<dyn CheckpointStore>,
) -> Result<ResilientOutcome<A::Output>, JobError> {
    run_resilient_observed(spec, app, config, store, Obs::disabled())
}

/// Like [`run_resilient`], with a live [`Obs`] bundle. The bundle is
/// shared across epochs: bus events, metrics, and the audit log
/// accumulate over the whole recovery history, and the driver adds its
/// own `node-crash` / `master-failover` / `restore` events on the
/// `resilience` lane at cumulative virtual timestamps.
pub fn run_resilient_observed<A: CheckpointableApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    store: Arc<dyn CheckpointStore>,
    obs: Obs,
) -> Result<ResilientOutcome<A::Output>, JobError> {
    if let Err(msg) = spec.faults.validate() {
        return Err(JobError::InvalidConfig(format!("fault plan: {msg}")));
    }
    if spec.faults.node_crashes.len() >= spec.len() {
        return Err(JobError::InvalidConfig(format!(
            "{} node crashes scheduled but the cluster has only {} nodes — \
             at least one must survive",
            spec.faults.node_crashes.len(),
            spec.len()
        )));
    }
    if !spec.faults.master_crashes.is_empty() && config.checkpoint_interval_iters == 0 {
        return Err(JobError::InvalidConfig(
            "master crash recovery requires checkpointing (checkpoint_interval_iters >= 1): \
             the standby master replays the checkpoint log"
                .into(),
        ));
    }
    if let Some(max) = spec.faults.max_node_ref() {
        if max >= spec.len() {
            return Err(JobError::InvalidConfig(format!(
                "fault plan references node {max} but the cluster has {} nodes",
                spec.len()
            )));
        }
    }

    let monitor = HeartbeatMonitor::default();
    // Snapshot for a crash before the first checkpoint: recovery restarts
    // from the initial model state.
    let initial_state = app.save_state();

    let mut profiles = spec.nodes.clone();
    // Stable id simulated at each rank: ids never shift as nodes are
    // removed, so fault plans, lane names, and blame stay attributed to
    // the same physical node across epochs.
    let mut node_ids: Vec<usize> = (0..profiles.len()).collect();
    let mut plan = spec.faults.clone();
    let mut base_iteration: u64 = 0;
    let mut base_secs: f64 = 0.0;
    let mut merged = crate::metrics::RecoveryCounters::default();
    let mut attempts: Vec<AttemptSummary> = Vec::new();
    let mut sim_events: u64 = 0;
    let mut sim_handoffs: u64 = 0;

    // Each interrupted epoch consumes at least one crash from the finite
    // plan, so at most `crashes + 1` attempts run; overrunning the budget
    // means a rebasing bug and panics at the loop's end.
    let max_epochs = spec.faults.node_crashes.len() + spec.faults.master_crashes.len() + 1;
    for epoch in 0..max_epochs {
        let attempt_spec = ClusterSpec {
            nodes: profiles.clone(),
            network: spec.network,
            overheads: spec.overheads,
            faults: plan.sans_crashes().project(&node_ids),
        };
        let remaining = config.max_iterations - base_iteration as usize;
        let mut attempt_config = config;
        attempt_config.max_iterations = remaining;

        let crash = plan.earliest_crash();
        let checkpoint = (config.checkpoint_interval_iters >= 1).then(|| {
            let save_app = app.clone();
            CheckpointHooks {
                interval: config.checkpoint_interval_iters as u64,
                store: store.clone(),
                save_state: Arc::new(move || save_app.save_state()),
                base_iteration,
                base_secs,
                partition_map: partition_plan(
                    &profiles,
                    &app.workload(),
                    app.num_items(),
                    &attempt_config,
                )
                .into_iter()
                .map(|(rank, r)| (rank as u32, r.start as u64, r.end as u64))
                .collect(),
                rng_seed: plan.seed,
            }
        });
        let hooks = RunHooks {
            abort_at: crash.map(|c| c.at_secs()),
            checkpoint,
            node_ids: Some(Arc::new(node_ids.clone())),
            ..RunHooks::default()
        };
        let update_app = app.clone();
        let update: UpdateFn<A> = Arc::new(move |outputs| update_app.update(outputs));
        let result = run_with_update(&attempt_spec, app.clone(), attempt_config, update, obs.clone(), hooks)?;

        let end_local = result.metrics.total_seconds;
        merged = merged.merged(&result.metrics.recovery);
        sim_events += result.metrics.sim_events;
        sim_handoffs += result.metrics.sim_handoffs;
        let interrupted = result.metrics.interrupted;
        attempts.push(AttemptSummary {
            epoch,
            nodes: profiles.len(),
            base_iteration,
            base_secs,
            end_secs: base_secs + end_local,
            interrupted,
            crash: if interrupted { crash } else { None },
        });

        if !interrupted {
            let total_virtual_secs = base_secs + end_local;
            let mut metrics = result.metrics;
            metrics.recovery = merged;
            metrics.total_seconds = total_virtual_secs;
            metrics.sim_events = sim_events;
            metrics.sim_handoffs = sim_handoffs;
            return Ok(ResilientOutcome {
                outputs: result.outputs,
                metrics,
                attempts,
                total_virtual_secs,
            });
        }

        // ---- Recovery. ----
        let crash = crash.expect("an attempt only aborts at a scheduled crash time");
        let crash_cumulative = base_secs + crash.at_secs();
        // The sim ran to the abort boundary; detection runs off the
        // heartbeat cadence from the crash instant, and a master loss
        // additionally pays the standby promotion delay.
        let recovery_delay = match crash {
            CrashEvent::Node { .. } => monitor.detection_delay(crash_cumulative),
            CrashEvent::Master { .. } => monitor.master_failover_delay(crash_cumulative),
        };
        let new_base = base_secs + end_local + recovery_delay;

        // Restore: last checkpoint, or the initial model state when the
        // crash predates the first checkpoint.
        let restored = store
            .latest()
            .map_err(|e| JobError::InvalidConfig(format!("checkpoint store: {e}")))?;
        let resume_secs = match &restored {
            Some(ckpt) => {
                app.restore_state(&ckpt.app_state);
                base_iteration = ckpt.iteration;
                ckpt.virtual_secs
            }
            None => {
                app.restore_state(&initial_state);
                base_iteration = 0;
                0.0
            }
        };
        merged.seconds_lost_to_faults += new_base - resume_secs;
        merged.restores += 1;
        let kind = match crash {
            CrashEvent::Node { node, .. } => {
                merged.node_crashes += 1;
                plan = plan.without_node(node);
                let pos = node_ids
                    .iter()
                    .position(|&id| id == node)
                    .expect("crashed node is in the surviving set");
                profiles.remove(pos);
                node_ids.remove(pos);
                "node-crash"
            }
            CrashEvent::Master { .. } => {
                merged.master_failovers += 1;
                "master-failover"
            }
        };
        plan = plan.rebased(new_base - base_secs);
        let now = SimTime::from_secs_f64(new_base);
        // Profiler stack: recovery shows up as its own lane, spanning
        // from the abort boundary to the restored run's new time base.
        obs.stack
            .frame("resilience", "recovery", SimTime::from_secs_f64(base_secs + end_local), now);
        if let Some(d) = obs.bus.event("resilience", kind, now) {
            let d = d.attr("at_s", crash_cumulative);
            let d = match crash {
                CrashEvent::Node { node, .. } => d.attr("node", node as f64),
                CrashEvent::Master { .. } => d,
            };
            d.commit();
        }
        if let Some(d) = obs.bus.event("resilience", "restore", now) {
            d.attr("iteration", base_iteration as f64)
                .attr("resume_s", resume_secs)
                .commit();
        }
        let action = match crash {
            CrashEvent::Node { .. } => "node_crash",
            CrashEvent::Master { .. } => "master_failover",
        };
        obs.metrics
            .counter_add("prs_recovery_total", &[("action", action)], 1.0);
        obs.metrics
            .counter_add("prs_recovery_total", &[("action", "restore")], 1.0);
        base_secs = new_base;
    }
    unreachable!("every scheduled crash was consumed without an uninterrupted final epoch")
}
