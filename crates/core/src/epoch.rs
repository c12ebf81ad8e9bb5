//! The epoch driver: runs an iterative, checkpointable job through
//! scheduled crashes and membership churn by cutting it into epochs at
//! iteration boundaries.
//!
//! Collectives cannot survive a participant leaving mid-operation, so
//! neither a crash nor a membership change can happen inside one
//! simulation. Each epoch is one [`crate::job`] attempt on the current
//! cluster, and [`run_epochs`] is the one loop around it: arm the
//! attempt with the earliest pending events, run it, classify the
//! boundary it stopped at, restore the last checkpoint if the boundary
//! discarded an iteration, rebase both plans onto the next epoch's
//! clock. `docs/resilience.md` ("The epoch driver") states each step.
//!
//! For order-insensitive exact reduces the final outputs are
//! bit-identical to a fault-free fixed-cluster run — the invariant the
//! chaos grids pin.

use crate::api::{CheckpointableApp, Key};
use crate::checkpoint::{CheckpointStore, MemStore};
use crate::cluster::ClusterSpec;
use crate::config::JobConfig;
use crate::faults::{CrashEvent, FaultPlan};
use crate::job::{partition_plan, run_with_update, CheckpointHooks, JobError, RunHooks, UpdateFn};
use crate::membership::{AutoscalePolicy, MembershipCounters, MembershipEvent, MembershipPlan};
use crate::metrics::{JobMetrics, RecoveryCounters};
use netsim::HeartbeatMonitor;
use obs::Obs;
use roofline::DeviceProfile;
use serde_json::json;
use simtime::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// First send of a failed join handshake is retried after this long;
/// each further retry doubles the wait (exponential backoff).
const JOIN_BACKOFF_BASE_SECS: f64 = 0.05;
/// Join attempts before the driver gives up. Partition windows are
/// finite (validation), so a handshake always succeeds eventually; the
/// cap is a defensive bound, not a tuning knob.
const JOIN_MAX_ATTEMPTS: usize = 32;

/// What [`run_epochs`] takes besides the cluster, the application and the
/// job config. Every default is the identity: an unused in-memory store,
/// no churn, no autoscaler, no observation.
pub struct EpochOptions {
    /// Where checkpoints go. Written only when
    /// `config.checkpoint_interval_iters >= 1`.
    pub store: Arc<dyn CheckpointStore>,
    /// Scheduled scale-out / drain / evict events.
    pub membership: MembershipPlan,
    /// Hysteresis autoscaler, evaluated every `eval_interval_iters`
    /// iteration boundaries.
    pub autoscale: Option<AutoscalePolicy>,
    /// Shared across epochs: bus events, metrics and the audit log
    /// accumulate over the whole run at cumulative virtual timestamps.
    pub obs: Obs,
}

impl Default for EpochOptions {
    fn default() -> Self {
        EpochOptions {
            store: Arc::new(MemStore::new()),
            membership: MembershipPlan::default(),
            autoscale: None,
            obs: Obs::disabled(),
        }
    }
}

/// One epoch of a run and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticEpoch {
    /// Epoch index (0 = the initial attempt).
    pub epoch: usize,
    /// Cluster size during this epoch.
    pub nodes: usize,
    /// Cumulative iterations completed before the epoch started.
    pub base_iteration: u64,
    /// Cumulative virtual seconds consumed before the epoch started.
    pub base_secs: f64,
    /// Cumulative virtual seconds when the epoch's simulation ended.
    pub end_secs: f64,
    /// How the epoch ended: `completed`, `autoscale-eval`, `drain`,
    /// `scale-out`, `handoff`, `evict`, `node-crash`, or
    /// `master-failover`.
    pub disposition: &'static str,
}

/// A completed run: final outputs plus merged measurements, the
/// membership ledger, and the cluster-size history.
#[derive(Debug)]
pub struct ElasticOutcome<O> {
    /// Final reduce outputs, sorted by key.
    pub outputs: Vec<(Key, O)>,
    /// The final epoch's metrics with `recovery` replaced by the merge
    /// of every epoch's counters and `total_seconds` by the cumulative
    /// virtual time (including detection, failover and join delays).
    pub metrics: JobMetrics,
    /// One entry per epoch, in order.
    pub attempts: Vec<ElasticEpoch>,
    /// The membership state machine's ledger.
    pub membership: MembershipCounters,
    /// Cumulative virtual seconds across all epochs.
    pub total_virtual_secs: f64,
    /// `(virtual_secs, nodes)` at the start and after every size change.
    pub cluster_sizes: Vec<(f64, usize)>,
}

/// Checks the plans against the cluster and each other before any
/// simulation starts.
fn validate(spec: &ClusterSpec, config: &JobConfig, opts: &EpochOptions) -> Result<(), JobError> {
    let invalid = |msg: String| Err(JobError::InvalidConfig(msg));
    let (faults, churn) = (&spec.faults, &opts.membership);
    if let Err(msg) = faults.validate() {
        return invalid(format!("fault plan: {msg}"));
    }
    if let Err(msg) = churn.validate() {
        return invalid(format!("membership plan: {msg}"));
    }
    if let Some(Err(msg)) = opts.autoscale.map(|p| p.validate()) {
        return invalid(format!("autoscale policy: {msg}"));
    }
    let capacity = spec.len() + churn.total_scale_out();
    if let Some(max) = churn.max_node_ref().filter(|&max| max >= capacity) {
        return invalid(format!(
            "membership plan references node {max} but at most {capacity} stable ids \
             ever exist ({} initial + {} scaled out)",
            spec.len(),
            churn.total_scale_out()
        ));
    }
    if churn.drains.len() + churn.evicts.len() + faults.node_crashes.len() >= capacity {
        return invalid(format!(
            "{} drains + {} evicts + {} node crashes scheduled but at most {capacity} nodes \
             ever exist — at least one must survive",
            churn.drains.len(),
            churn.evicts.len(),
            faults.node_crashes.len()
        ));
    }
    if !faults.master_crashes.is_empty() && config.checkpoint_interval_iters == 0 {
        return invalid(
            "master crash recovery requires checkpointing (checkpoint_interval_iters >= 1): \
             the standby master replays the checkpoint log"
                .into(),
        );
    }
    if let Some(max) = faults.max_node_ref().filter(|&max| max >= capacity) {
        return invalid(format!(
            "fault plan references node {max} but at most {capacity} stable ids ever exist"
        ));
    }
    Ok(())
}

/// Everything that changes from one epoch to the next.
struct Epochs<'a, A> {
    spec: &'a ClusterSpec,
    app: Arc<A>,
    store: Arc<dyn CheckpointStore>,
    obs: Obs,
    monitor: HeartbeatMonitor,
    /// Snapshot for a rollback before the first checkpoint exists.
    initial_state: Vec<u8>,
    /// True when a membership plan or an autoscaler is attached: the
    /// `membership` lane and the `prs_cluster_size` gauge are emitted.
    /// Crash-only runs leave both out of their artifacts.
    elastic: bool,
    /// The live cluster, and the stable id simulated at each rank. Ids
    /// never shift as nodes leave, so fault plans, lane names and blame
    /// stay attributed to the same physical node across epochs.
    profiles: Vec<DeviceProfile>,
    node_ids: Vec<usize>,
    next_id: usize,
    /// Both plans, on the current epoch's clock.
    faults: FaultPlan,
    churn: MembershipPlan,
    base_iteration: u64,
    base_secs: f64,
    recovery: RecoveryCounters,
    membership: MembershipCounters,
    cluster_sizes: Vec<(f64, usize)>,
    // Autoscaler hysteresis.
    grow_run: usize,
    shrink_run: usize,
    cooldown: usize,
    eval_index: usize,
}

/// One attempt, ready to run, plus the events it was armed with.
struct Armed {
    spec: ClusterSpec,
    config: JobConfig,
    hooks: RunHooks,
    crash: Option<CrashEvent>,
    memb: Option<MembershipEvent>,
    /// An abort belongs to the crash, not to an eviction.
    crash_wins: bool,
}

/// How an epoch ended and the cumulative time the next one starts at.
type Boundary = Result<(&'static str, f64), JobError>;

impl<A: CheckpointableApp> Epochs<'_, A> {
    fn arm(&self, config: &JobConfig, autoscale: Option<&AutoscalePolicy>) -> Armed {
        let spec = ClusterSpec {
            nodes: self.profiles.clone(),
            network: self.spec.network,
            overheads: self.spec.overheads,
            faults: self.faults.sans_crashes().project(&self.node_ids),
        };
        let remaining = config.max_iterations - self.base_iteration as usize;
        let mut attempt = *config;
        attempt.max_iterations =
            autoscale.map_or(remaining, |p| remaining.min(p.eval_interval_iters));

        let crash = self.faults.earliest_crash();
        let memb = self.churn.earliest_event();
        // Evictions share the crash-abort mechanism (the iteration in
        // flight is lost either way); the earlier of the two arms the
        // abort, and a tie goes to the crash (the bigger loss). Drains
        // and scale-outs pause gracefully instead.
        let crash_at = crash.map(|c| c.at_secs());
        let evict_at = match memb {
            Some(MembershipEvent::Evict(e)) => Some(e.at_secs),
            _ => None,
        };
        let (abort_at, crash_wins) = match (crash_at, evict_at) {
            (Some(c), Some(e)) => (Some(c.min(e)), c <= e),
            (c, e) => (c.or(e), c.is_some()),
        };
        let (finish_at, finish_deadline) = match memb {
            Some(MembershipEvent::Drain(d)) => (Some(d.at_secs), Some(d.at_secs + d.deadline_secs)),
            Some(MembershipEvent::ScaleOut(s)) => (Some(s.at_secs), None),
            _ => (None, None),
        };
        let checkpoint = (config.checkpoint_interval_iters >= 1).then(|| {
            let save_app = self.app.clone();
            CheckpointHooks {
                interval: config.checkpoint_interval_iters as u64,
                store: self.store.clone(),
                save_state: Arc::new(move || save_app.save_state()),
                base_iteration: self.base_iteration,
                base_secs: self.base_secs,
                partition_map: partition_plan(
                    &self.profiles,
                    &self.app.workload(),
                    self.app.num_items(),
                    &attempt,
                )
                .into_iter()
                .map(|(rank, r)| (rank as u32, r.start as u64, r.end as u64))
                .collect(),
                rng_seed: self.faults.seed,
            }
        });
        let hooks = RunHooks {
            abort_at,
            checkpoint,
            finish_at,
            finish_deadline,
            node_ids: Some(Arc::new(self.node_ids.clone())),
        };
        Armed {
            spec,
            config: attempt,
            hooks,
            crash,
            memb,
            crash_wins,
        }
    }

    /// Rolls the application back to the last checkpoint (or the initial
    /// model state when none exists yet) and charges the virtual time
    /// between it and `until`. Returns the checkpoint's clock.
    fn restore(&mut self, until: f64) -> Result<f64, JobError> {
        let restored = self
            .store
            .latest()
            .map_err(|e| JobError::InvalidConfig(format!("checkpoint store: {e}")))?;
        let (state, iteration, resume_secs) = match &restored {
            Some(ckpt) => (&ckpt.app_state, ckpt.iteration, ckpt.virtual_secs),
            None => (&self.initial_state, 0, 0.0),
        };
        self.app.restore_state(state);
        self.base_iteration = iteration;
        self.recovery.seconds_lost_to_faults += until - resume_secs;
        self.recovery.restores += 1;
        Ok(resume_secs)
    }

    /// Takes stable id `id` out of the live cluster. `Ok(false)` when it
    /// is not a member (it never joined, or already left).
    fn remove_node(&mut self, id: usize, what: &str) -> Result<bool, JobError> {
        let Some(pos) = self.node_ids.iter().position(|&n| n == id) else {
            return Ok(false);
        };
        if self.profiles.len() == 1 {
            return Err(JobError::InvalidConfig(format!(
                "{what} of node {id} would leave the cluster empty"
            )));
        }
        self.profiles.remove(pos);
        self.node_ids.remove(pos);
        Ok(true)
    }

    fn membership_event(&self, kind: &str, node: usize, at: f64) {
        if let Some(d) = self
            .obs
            .bus
            .event("membership", kind, SimTime::from_secs_f64(at))
        {
            d.attr("node", node as f64).commit();
        }
        self.obs
            .metrics
            .counter_add("prs_membership_total", &[("event", kind)], 1.0);
    }

    /// Records a departure on the membership lane and in the size trace.
    fn departed(&mut self, kind: &str, node: usize, at: f64) {
        self.membership_event(kind, node, at);
        self.resized(at);
    }

    /// Records the cluster size after a change at cumulative time `at`.
    fn resized(&mut self, at: f64) {
        let n = self.profiles.len();
        self.cluster_sizes.push((at, n));
        if self.elastic {
            let now = SimTime::from_secs_f64(at);
            if let Some(d) = self.obs.bus.event("membership", "cluster-size", now) {
                d.attr("n", n as f64).commit();
            }
            self.obs
                .metrics
                .gauge_set("prs_cluster_size", &[], n as f64);
        }
    }

    /// Admits `count` nodes through the join handshake, starting at the
    /// boundary `end_local` seconds into the epoch. Send times are checked
    /// against the current plan's partition windows; returns the
    /// cumulative time the cluster resumes at.
    fn join(&mut self, count: usize, end_local: f64) -> Result<f64, JobError> {
        let rtt = 2.0 * self.spec.network.latency.as_secs_f64();
        let mut send = end_local;
        let mut backoff = JOIN_BACKOFF_BASE_SECS;
        let mut retries: u64 = 0;
        while self
            .faults
            .link_faults
            .iter()
            .any(|f| f.partition && send < f.until_secs && send + rtt > f.from_secs)
        {
            retries += 1;
            if retries as usize >= JOIN_MAX_ATTEMPTS {
                return Err(JobError::InvalidConfig(format!(
                    "join handshake still blocked after {JOIN_MAX_ATTEMPTS} attempts — \
                     is a partition window unbounded?"
                )));
            }
            send += backoff;
            backoff *= 2.0;
        }
        let boundary = self.base_secs + end_local;
        let complete = self.base_secs + send + rtt;
        let waited = complete - boundary;
        self.membership.joins += count as u64;
        self.membership.join_retries += retries * count as u64;
        self.membership.secs_waiting_joins += waited;
        if waited > 0.0 {
            self.obs.stack.frame(
                "membership",
                "join",
                SimTime::from_secs_f64(boundary),
                SimTime::from_secs_f64(complete),
            );
        }
        for _ in 0..count {
            self.profiles.push(self.spec.nodes[0].clone());
            self.node_ids.push(self.next_id);
            self.membership_event("join", self.next_id, complete);
            self.next_id += 1;
        }
        self.resized(complete);
        Ok(complete)
    }

    /// A membership event came due at the boundary `end_local` seconds
    /// into the epoch. `discarded` is false for a graceful pause (the last
    /// update *was* applied, nothing rolls back) and true when the
    /// iteration in flight was lost: a drain whose deadline blew hands
    /// off through the checkpoint, an eviction rolls back like a crash.
    /// The master drove either removal, so no detection delay is charged.
    fn churned(&mut self, ev: MembershipEvent, discarded: bool, end_local: f64) -> Boundary {
        let boundary = self.base_secs + end_local;
        if discarded {
            self.restore(boundary)?;
        }
        let (kind, new_base) = match (ev, discarded) {
            (MembershipEvent::Drain(d), false) => {
                if self.remove_node(d.node, "drain")? {
                    self.membership.drains += 1;
                    self.departed("drain", d.node, boundary);
                }
                ("drain", boundary)
            }
            (MembershipEvent::Drain(d), true) => {
                self.remove_node(d.node, "drain")?;
                self.membership.handoffs += 1;
                self.departed("handoff", d.node, boundary);
                ("handoff", boundary)
            }
            (MembershipEvent::Evict(e), true) => {
                self.remove_node(e.node, "eviction")?;
                self.faults = self.faults.without_node(e.node);
                self.membership.evictions += 1;
                self.departed("evict", e.node, boundary);
                ("evict", boundary)
            }
            (MembershipEvent::ScaleOut(s), false) => ("scale-out", self.join(s.count, end_local)?),
            (ev, _) => {
                return Err(JobError::InvalidConfig(format!(
                    "internal: {ev:?} surfaced as the wrong kind of boundary"
                )));
            }
        };
        self.churn = self.churn.consumed(&ev);
        Ok((kind, new_base))
    }

    /// A node or master crash: the sim ran to the abort boundary;
    /// detection runs off the heartbeat cadence from the crash instant,
    /// and a master loss additionally pays the standby promotion delay.
    /// A node that crashes mid-drain takes its pending drain with it.
    fn crashed(&mut self, crash: CrashEvent, boundary: f64) -> Boundary {
        let at = self.base_secs + crash.at_secs();
        let (delay, kind, action) = match crash {
            CrashEvent::Node { .. } => {
                (self.monitor.detection_delay(at), "node-crash", "node_crash")
            }
            CrashEvent::Master { .. } => (
                self.monitor.master_failover_delay(at),
                "master-failover",
                "master_failover",
            ),
        };
        let new_base = boundary + delay;
        let resume_secs = self.restore(new_base)?;
        let node = match crash {
            CrashEvent::Node { node, .. } => {
                self.recovery.node_crashes += 1;
                self.faults = self.faults.without_node(node);
                self.churn = self.churn.without_node(node);
                if self.remove_node(node, "crash")? {
                    self.resized(new_base);
                }
                Some(node)
            }
            CrashEvent::Master { .. } => {
                self.recovery.master_failovers += 1;
                None
            }
        };
        let now = SimTime::from_secs_f64(new_base);
        // Profiler stack: recovery is its own lane, from the abort
        // boundary to the restored run's new time base.
        self.obs.stack.frame(
            "resilience",
            "recovery",
            SimTime::from_secs_f64(boundary),
            now,
        );
        if let Some(d) = self.obs.bus.event("resilience", kind, now) {
            let d = d.attr("at_s", at);
            match node {
                Some(n) => d.attr("node", n as f64),
                None => d,
            }
            .commit();
        }
        if let Some(d) = self.obs.bus.event("resilience", "restore", now) {
            d.attr("iteration", self.base_iteration as f64)
                .attr("resume_s", resume_secs)
                .commit();
        }
        for action in [action, "restore"] {
            self.obs
                .metrics
                .counter_add("prs_recovery_total", &[("action", action)], 1.0);
        }
        Ok((kind, new_base))
    }

    /// One autoscaler evaluation at an iteration boundary. Every
    /// evaluation — held or acted on — is audited with its full inputs.
    fn autoscale_eval(
        &mut self,
        policy: &AutoscalePolicy,
        mean_iter_s: f64,
        end_local: f64,
    ) -> Boundary {
        let boundary = self.base_secs + end_local;
        let nodes = self.profiles.len();
        let mut action = "hold";
        if self.cooldown > 0 {
            self.cooldown -= 1;
            action = "cooldown";
        } else if mean_iter_s > policy.grow_above_secs {
            self.grow_run += 1;
            self.shrink_run = 0;
            if self.grow_run >= policy.grow_streak && nodes < policy.max_nodes {
                action = "grow";
            }
        } else if mean_iter_s < policy.shrink_below_secs {
            self.shrink_run += 1;
            self.grow_run = 0;
            if self.shrink_run >= policy.shrink_streak && nodes > policy.min_nodes {
                action = "shrink";
            }
        } else {
            self.grow_run = 0;
            self.shrink_run = 0;
        }
        // The keys avoid `node`+`iter` so trace tooling keeps seeing only
        // scheduling decisions.
        let line = json!({
            "action": action,
            "at_iter": self.base_iteration,
            "cooldown": self.cooldown,
            "eval": self.eval_index,
            "grow_above_s": policy.grow_above_secs,
            "grow_streak": self.grow_run,
            "mean_iter_s": mean_iter_s,
            "nodes": nodes,
            "shrink_below_s": policy.shrink_below_secs,
            "shrink_streak": self.shrink_run,
            "t_s": boundary,
            "trigger": "autoscale-eval",
        });
        self.obs.audit.scale_line(line.to_json_string());
        self.eval_index += 1;
        let new_base = match action {
            "grow" => {
                let resumed = self.join(1, end_local)?;
                self.membership.grow_decisions += 1;
                self.grow_run = 0;
                self.cooldown = policy.cooldown_evals;
                resumed
            }
            "shrink" => {
                // At an iteration boundary nothing is in flight, so a
                // shrink is a drain that completes instantly. The newest
                // node goes first (LIFO keeps the longest-lived
                // calibration history).
                let id = *self
                    .node_ids
                    .iter()
                    .max()
                    .expect("a shrinking cluster is non-empty");
                self.remove_node(id, "shrink")?;
                self.membership.drains += 1;
                self.membership.shrink_decisions += 1;
                self.departed("drain", id, boundary);
                self.shrink_run = 0;
                self.cooldown = policy.cooldown_evals;
                boundary
            }
            _ => boundary,
        };
        Ok(("autoscale-eval", new_base))
    }
}

/// Runs an iterative, checkpointable job to completion through the
/// crashes scheduled in `spec.faults` and the churn in `opts` (see the
/// module docs for the loop). With a live [`Obs`] the driver adds
/// `node-crash` / `master-failover` / `restore` events on the
/// `resilience` lane and `prs_recovery_total` counters; with a membership
/// plan or an autoscaler attached it also adds `join` / `drain` / `evict`
/// / `handoff` / `cluster-size` events on the `membership` lane,
/// `prs_membership_total`, the `prs_cluster_size` gauge, and one
/// `decisions.jsonl` line per autoscaler evaluation.
pub fn run_epochs<A: CheckpointableApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    opts: EpochOptions,
) -> Result<ElasticOutcome<A::Output>, JobError> {
    validate(spec, &config, &opts)?;
    // Every epoch either completes >= 1 iteration or consumes one finite
    // scheduled event, so the budget is a loose upper bound; overrunning
    // it means a rebasing bug.
    let max_epochs = config.max_iterations
        + spec.faults.node_crashes.len()
        + spec.faults.master_crashes.len()
        + opts.membership.scale_outs.len()
        + opts.membership.drains.len()
        + opts.membership.evicts.len()
        + 2;
    let autoscale = opts.autoscale;
    let mut st = Epochs {
        spec,
        initial_state: app.save_state(),
        app: app.clone(),
        store: opts.store,
        obs: opts.obs,
        monitor: HeartbeatMonitor::default(),
        elastic: !opts.membership.is_empty() || autoscale.is_some(),
        profiles: spec.nodes.clone(),
        node_ids: (0..spec.len()).collect(),
        next_id: spec.len(),
        faults: spec.faults.clone(),
        churn: opts.membership,
        base_iteration: 0,
        base_secs: 0.0,
        recovery: RecoveryCounters::default(),
        membership: MembershipCounters::default(),
        cluster_sizes: vec![(0.0, spec.len())],
        grow_run: 0,
        shrink_run: 0,
        cooldown: 0,
        eval_index: 0,
    };
    let converged = Arc::new(AtomicBool::new(false));
    let mut attempts: Vec<ElasticEpoch> = Vec::new();
    let mut sim_events: u64 = 0;
    let mut sim_handoffs: u64 = 0;

    for epoch in 0..max_epochs {
        let armed = st.arm(&config, autoscale.as_ref());
        let (update_app, conv) = (app.clone(), converged.clone());
        let update: UpdateFn<A> = Arc::new(move |outputs| {
            let done = update_app.update(outputs);
            if done {
                conv.store(true, Ordering::Relaxed);
            }
            done
        });
        let result = run_with_update(
            &armed.spec,
            app.clone(),
            armed.config,
            update,
            st.obs.clone(),
            armed.hooks,
        )?;

        let m = &result.metrics;
        let end_local = m.total_seconds;
        let boundary = st.base_secs + end_local;
        st.recovery = st.recovery.merged(&m.recovery);
        sim_events += m.sim_events;
        sim_handoffs += m.sim_handoffs;
        let iters_run = m.iterations.len() as u64;
        let mut entry = ElasticEpoch {
            epoch,
            nodes: st.profiles.len(),
            base_iteration: st.base_iteration,
            base_secs: st.base_secs,
            end_secs: boundary,
            disposition: "completed",
        };

        // An uninterrupted attempt applied its updates; an interrupted one
        // rolls back and takes its iteration count from the checkpoint.
        if !m.interrupted {
            st.base_iteration += iters_run;
        }
        // An abort is the crash's unless a drain deadline blew or the
        // eviction was due first.
        let by_membership = m.paused || (m.interrupted && (m.handoff || !armed.crash_wins));
        let unarmed =
            || JobError::InvalidConfig("internal: boundary without an armed event".into());
        let (disposition, new_base) = if by_membership {
            st.churned(armed.memb.ok_or_else(unarmed)?, m.interrupted, end_local)?
        } else if m.interrupted {
            st.crashed(armed.crash.ok_or_else(unarmed)?, boundary)?
        } else {
            // The attempt ran to its iteration cap: either the job is
            // done, or this is an autoscaler evaluation boundary.
            let done = converged.load(Ordering::Relaxed)
                || st.base_iteration as usize >= config.max_iterations;
            match &autoscale {
                Some(policy) if !done => {
                    let mean_iter_s = match iters_run {
                        0 => 0.0,
                        n => m.compute_seconds / n as f64,
                    };
                    st.autoscale_eval(policy, mean_iter_s, end_local)?
                }
                _ => {
                    attempts.push(entry);
                    let mut metrics = result.metrics;
                    metrics.recovery = st.recovery;
                    metrics.total_seconds = boundary;
                    metrics.sim_events = sim_events;
                    metrics.sim_handoffs = sim_handoffs;
                    return Ok(ElasticOutcome {
                        outputs: result.outputs,
                        metrics,
                        attempts,
                        membership: st.membership,
                        total_virtual_secs: boundary,
                        cluster_sizes: st.cluster_sizes,
                    });
                }
            }
        };

        entry.disposition = disposition;
        attempts.push(entry);
        st.faults = st.faults.rebased(new_base - st.base_secs);
        st.churn = st.churn.rebased(new_base - st.base_secs);
        st.base_secs = new_base;
    }
    Err(JobError::InvalidConfig(format!(
        "epoch driver exceeded its epoch budget ({max_epochs}) — rebasing bug?"
    )))
}
