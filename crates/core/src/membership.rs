//! Elastic cluster membership: seeded, serializable churn plans and the
//! epoch-based elastic driver that executes them.
//!
//! A [`MembershipPlan`] is the membership counterpart of
//! [`crate::FaultPlan`]: a deterministic schedule of scale-out,
//! graceful-drain, and forced-evict events in virtual time, threaded
//! through the same epoch machinery the resilient driver uses. Planned
//! churn degrades *gracefully* where a crash cannot: a draining node
//! stops receiving new work at the event's iteration boundary and its
//! in-flight results are kept (no rollback); only a blown drain deadline
//! falls back to the checkpoint-handoff path. Scale-out admits nodes
//! through a join handshake with retry + exponential backoff over lossy
//! links, and Equation (8) is re-solved over the surviving set at the
//! next iteration boundary simply because every epoch re-partitions over
//! the current profile list.
//!
//! Node references in a plan live in the *stable id* space: a node keeps
//! the id it was born with for the job's whole lifetime, however many
//! lower-id nodes leave first, and scale-out assigns fresh ids past the
//! largest ever used. The driver projects stable ids onto each attempt's
//! contiguous rank space with [`crate::FaultPlan::project`].
//!
//! An empty plan (and no autoscaler) delegates to
//! [`crate::run_resilient_observed`] untouched — the empty-plan path is
//! bit-identical to a fixed-cluster run by construction.

use crate::api::CheckpointableApp;
use crate::checkpoint::CheckpointStore;
use crate::cluster::ClusterSpec;
use crate::config::JobConfig;
use crate::faults::CrashEvent;
use crate::job::{partition_plan, run_with_update, CheckpointHooks, JobError, RunHooks, UpdateFn};
use crate::metrics::JobMetrics;
use crate::resilient::run_resilient_observed;
use netsim::HeartbeatMonitor;
use obs::Obs;
use serde::{Deserialize, Serialize, Value};
use simtime::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// First send of a failed join handshake is retried after this long;
/// each further retry doubles the wait (exponential backoff).
const JOIN_BACKOFF_BASE_SECS: f64 = 0.05;
/// Join attempts before the driver gives up. Partition windows are
/// finite (validation), so a handshake always succeeds eventually; the
/// cap is a defensive bound, not a tuning knob.
const JOIN_MAX_ATTEMPTS: usize = 32;

/// Admit `count` new nodes at a fixed virtual time. The new nodes clone
/// the cluster's node-0 profile (homogeneous growth) and receive fresh
/// stable ids past the largest ever assigned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleOut {
    /// How many nodes join together.
    pub count: usize,
    /// Join time (virtual seconds, cumulative across epochs).
    pub at_secs: f64,
}

/// Gracefully remove one node: from the first iteration boundary at or
/// after `at_secs` the master stops scheduling onto it and its in-flight
/// results are kept. If the boundary has not been reached
/// `deadline_secs` after the drain began, the node checkpoint-hands-off
/// instead (rollback to the last checkpoint, no detection delay).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Drain {
    /// Stable node id to drain.
    pub node: usize,
    /// Drain start (virtual seconds, cumulative across epochs).
    pub at_secs: f64,
    /// Grace window before the checkpoint-handoff path kicks in.
    pub deadline_secs: f64,
}

/// Forcibly evict one node at a fixed virtual time: the master cuts it
/// off without a handshake, so the interrupted iteration rolls back to
/// the last checkpoint — but unlike a crash there is no heartbeat
/// detection delay (the master initiated the removal and knows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evict {
    /// Stable node id to evict.
    pub node: usize,
    /// Eviction time (virtual seconds, cumulative across epochs).
    pub at_secs: f64,
}

/// One pending membership event (see [`MembershipPlan::earliest_event`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MembershipEvent {
    /// A forced eviction fires.
    Evict(Evict),
    /// A graceful drain begins.
    Drain(Drain),
    /// New nodes join.
    ScaleOut(ScaleOut),
}

impl MembershipEvent {
    /// The event's virtual time.
    pub fn at_secs(&self) -> f64 {
        match self {
            MembershipEvent::Evict(e) => e.at_secs,
            MembershipEvent::Drain(d) => d.at_secs,
            MembershipEvent::ScaleOut(s) => s.at_secs,
        }
    }

    /// Deterministic ordering rank for same-instant ties: evictions are
    /// the most disruptive and go first, then drains, then scale-outs;
    /// within a kind the lowest node id (or count) wins.
    fn order_key(&self) -> (f64, u8, usize) {
        match self {
            MembershipEvent::Evict(e) => (e.at_secs, 0, e.node),
            MembershipEvent::Drain(d) => (d.at_secs, 1, d.node),
            MembershipEvent::ScaleOut(s) => (s.at_secs, 2, s.count),
        }
    }
}

/// A complete, deterministic membership scenario for one job run — the
/// churn counterpart of [`crate::FaultPlan`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MembershipPlan {
    /// Scenario seed/label (reserved for derived-churn generators; the
    /// explicit event lists below are the plan's only behavior today).
    pub seed: u64,
    /// Scale-out events.
    pub scale_outs: Vec<ScaleOut>,
    /// Graceful drains.
    pub drains: Vec<Drain>,
    /// Forced evictions.
    pub evicts: Vec<Evict>,
}

impl MembershipPlan {
    /// An empty plan (no churn) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        MembershipPlan {
            seed,
            ..MembershipPlan::default()
        }
    }

    /// True when the plan schedules nothing — the bit-identity fast path.
    pub fn is_empty(&self) -> bool {
        self.scale_outs.is_empty() && self.drains.is_empty() && self.evicts.is_empty()
    }

    /// Total nodes admitted by all scale-out events.
    pub fn total_scale_out(&self) -> usize {
        self.scale_outs.iter().map(|s| s.count).sum()
    }

    /// Adds a scale-out event (builder style).
    pub fn scale_out(mut self, count: usize, at_secs: f64) -> Self {
        self.scale_outs.push(ScaleOut { count, at_secs });
        self
    }

    /// Adds a graceful drain.
    pub fn drain(mut self, node: usize, at_secs: f64, deadline_secs: f64) -> Self {
        self.drains.push(Drain {
            node,
            at_secs,
            deadline_secs,
        });
        self
    }

    /// Adds a forced eviction.
    pub fn evict(mut self, node: usize, at_secs: f64) -> Self {
        self.evicts.push(Evict { node, at_secs });
        self
    }

    /// The earliest pending event, with deterministic same-instant
    /// tie-breaking (see `MembershipEvent::order_key`).
    pub fn earliest_event(&self) -> Option<MembershipEvent> {
        let mut best: Option<MembershipEvent> = None;
        let mut consider = |cand: MembershipEvent| {
            if best.as_ref().is_none_or(|cur| {
                let (ta, ka, na) = cand.order_key();
                let (tb, kb, nb) = cur.order_key();
                (ta, ka, na) < (tb, kb, nb)
            }) {
                best = Some(cand);
            }
        };
        for e in &self.evicts {
            consider(MembershipEvent::Evict(*e));
        }
        for d in &self.drains {
            consider(MembershipEvent::Drain(*d));
        }
        for s in &self.scale_outs {
            consider(MembershipEvent::ScaleOut(*s));
        }
        best
    }

    /// Removes the first event equal to `ev` — the driver consumes each
    /// processed event explicitly, so two events between the same pair
    /// of iteration boundaries are handled one epoch at a time rather
    /// than silently dropped together.
    pub fn consumed(&self, ev: &MembershipEvent) -> MembershipPlan {
        let mut out = self.clone();
        match ev {
            MembershipEvent::Evict(e) => {
                if let Some(i) = out.evicts.iter().position(|x| x == e) {
                    out.evicts.remove(i);
                }
            }
            MembershipEvent::Drain(d) => {
                if let Some(i) = out.drains.iter().position(|x| x == d) {
                    out.drains.remove(i);
                }
            }
            MembershipEvent::ScaleOut(s) => {
                if let Some(i) = out.scale_outs.iter().position(|x| x == s) {
                    out.scale_outs.remove(i);
                }
            }
        }
        out
    }

    /// Shifts every event back by `base_secs` (the virtual time the last
    /// epoch consumed), clamping to zero rather than dropping: an event
    /// whose time already passed but was not yet processed fires at the
    /// next boundary instead of vanishing. Compare
    /// [`crate::FaultPlan::rebased`], which drops past faults — a fault
    /// that did not fire can no longer happen, but a membership order
    /// still stands.
    pub fn rebased(&self, base_secs: f64) -> MembershipPlan {
        assert!(base_secs >= 0.0 && base_secs.is_finite());
        let mut out = MembershipPlan::seeded(self.seed);
        for s in &self.scale_outs {
            out.scale_outs.push(ScaleOut {
                at_secs: (s.at_secs - base_secs).max(0.0),
                ..*s
            });
        }
        for d in &self.drains {
            out.drains.push(Drain {
                at_secs: (d.at_secs - base_secs).max(0.0),
                ..*d
            });
        }
        for e in &self.evicts {
            out.evicts.push(Evict {
                at_secs: (e.at_secs - base_secs).max(0.0),
                ..*e
            });
        }
        out
    }

    /// Drops every drain/evict referencing the departed node `id` — a
    /// node that crashed mid-drain has no drain left to finish.
    pub fn without_node(&self, id: usize) -> MembershipPlan {
        let mut out = self.clone();
        out.drains.retain(|d| d.node != id);
        out.evicts.retain(|e| e.node != id);
        out
    }

    /// Largest stable node id referenced by a drain/evict, for validation.
    pub fn max_node_ref(&self) -> Option<usize> {
        self.drains
            .iter()
            .map(|d| d.node)
            .chain(self.evicts.iter().map(|e| e.node))
            .max()
    }

    /// Checks internal consistency: finite non-negative times, positive
    /// scale-out counts, non-negative drain deadlines, and no node
    /// drained or evicted twice (each removal is final).
    pub fn validate(&self) -> Result<(), String> {
        let time = |t: f64, what: &str| -> Result<(), String> {
            if !t.is_finite() || t < 0.0 {
                return Err(format!("{what} time {t} must be finite and >= 0"));
            }
            Ok(())
        };
        for s in &self.scale_outs {
            time(s.at_secs, "scale-out")?;
            if s.count == 0 {
                return Err("scale-out count must be >= 1".into());
            }
        }
        for d in &self.drains {
            time(d.at_secs, "drain")?;
            if !d.deadline_secs.is_finite() || d.deadline_secs < 0.0 {
                return Err(format!(
                    "drain deadline {} must be finite and >= 0",
                    d.deadline_secs
                ));
            }
        }
        for e in &self.evicts {
            time(e.at_secs, "evict")?;
        }
        let mut removed: Vec<usize> = self
            .drains
            .iter()
            .map(|d| d.node)
            .chain(self.evicts.iter().map(|e| e.node))
            .collect();
        removed.sort_unstable();
        for w in removed.windows(2) {
            if w[0] == w[1] {
                return Err(format!(
                    "node {} is drained/evicted more than once — each removal is final",
                    w[0]
                ));
            }
        }
        Ok(())
    }

    /// Parses the membership plan TOML format (see `docs/elasticity.md`):
    ///
    /// ```toml
    /// seed = 7
    /// [[scale_out]]
    /// at_s = 0.5
    /// count = 1
    /// [[drain]]
    /// node = 2
    /// at_s = 0.4
    /// deadline_s = 0.2
    /// [[evict]]
    /// node = 1
    /// at_s = 0.6
    /// ```
    pub fn from_toml(text: &str) -> Result<MembershipPlan, String> {
        enum Section {
            Top,
            ScaleOut,
            Drain,
            Evict,
        }
        let mut plan = MembershipPlan::default();
        let mut section = Section::Top;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            match line {
                "[[scale_out]]" => {
                    plan.scale_outs.push(ScaleOut {
                        count: 1,
                        at_secs: 0.0,
                    });
                    section = Section::ScaleOut;
                    continue;
                }
                "[[drain]]" => {
                    plan.drains.push(Drain {
                        node: 0,
                        at_secs: 0.0,
                        deadline_secs: 0.0,
                    });
                    section = Section::Drain;
                    continue;
                }
                "[[evict]]" => {
                    plan.evicts.push(Evict {
                        node: 0,
                        at_secs: 0.0,
                    });
                    section = Section::Evict;
                    continue;
                }
                _ if line.starts_with('[') => {
                    return Err(format!("line {lineno}: unknown section `{line}`"));
                }
                _ => {}
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let key = k.trim();
            let num: f64 = v
                .trim()
                .parse()
                .map_err(|_| format!("line {lineno}: `{key}` wants a number"))?;
            let unsigned = |n: f64| -> Result<usize, String> {
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(format!("line {lineno}: `{key}` wants a non-negative integer"));
                }
                Ok(n as usize)
            };
            match (&section, key) {
                (Section::Top, "seed") => plan.seed = unsigned(num)? as u64,
                (Section::ScaleOut, "count") => {
                    plan.scale_outs.last_mut().unwrap().count = unsigned(num)?;
                }
                (Section::ScaleOut, "at_s") => {
                    plan.scale_outs.last_mut().unwrap().at_secs = num;
                }
                (Section::Drain, "node") => plan.drains.last_mut().unwrap().node = unsigned(num)?,
                (Section::Drain, "at_s") => plan.drains.last_mut().unwrap().at_secs = num,
                (Section::Drain, "deadline_s") => {
                    plan.drains.last_mut().unwrap().deadline_secs = num;
                }
                (Section::Evict, "node") => plan.evicts.last_mut().unwrap().node = unsigned(num)?,
                (Section::Evict, "at_s") => plan.evicts.last_mut().unwrap().at_secs = num,
                _ => return Err(format!("line {lineno}: unknown key `{key}` in this section")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Hysteresis-based autoscaler: grows the cluster when iterations run
/// slow (queue pressure / stragglers) for `grow_streak` consecutive
/// evaluations, shrinks it after `shrink_streak` consecutive idle
/// windows, and refuses to flap by sitting out `cooldown_evals`
/// evaluations after every action. Evaluations happen every
/// `eval_interval_iters` iteration boundaries; every decision — held or
/// acted on — lands in `decisions.jsonl` with its full inputs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Iterations between policy evaluations (>= 1).
    pub eval_interval_iters: usize,
    /// Never shrink below this many nodes.
    pub min_nodes: usize,
    /// Never grow past this many nodes.
    pub max_nodes: usize,
    /// Mean per-iteration seconds above which an evaluation votes grow.
    pub grow_above_secs: f64,
    /// Mean per-iteration seconds below which an evaluation votes shrink.
    pub shrink_below_secs: f64,
    /// Consecutive grow votes required before acting.
    pub grow_streak: usize,
    /// Consecutive shrink votes required before acting.
    pub shrink_streak: usize,
    /// Evaluations to sit out after an action (hysteresis).
    pub cooldown_evals: usize,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            eval_interval_iters: 2,
            min_nodes: 1,
            max_nodes: 8,
            grow_above_secs: 0.5,
            shrink_below_secs: 0.05,
            grow_streak: 2,
            shrink_streak: 2,
            cooldown_evals: 1,
        }
    }
}

impl AutoscalePolicy {
    /// Checks the policy's knobs for consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.eval_interval_iters == 0 {
            return Err("autoscale eval interval must be >= 1 iteration".into());
        }
        if self.min_nodes == 0 {
            return Err("autoscale min_nodes must be >= 1".into());
        }
        if self.max_nodes < self.min_nodes {
            return Err(format!(
                "autoscale max_nodes {} < min_nodes {}",
                self.max_nodes, self.min_nodes
            ));
        }
        if !self.grow_above_secs.is_finite() || !self.shrink_below_secs.is_finite() {
            return Err("autoscale thresholds must be finite".into());
        }
        if self.shrink_below_secs > self.grow_above_secs {
            return Err(format!(
                "autoscale shrink_below_secs {} > grow_above_secs {} — the dead band is inverted",
                self.shrink_below_secs, self.grow_above_secs
            ));
        }
        if self.grow_streak == 0 || self.shrink_streak == 0 {
            return Err("autoscale streaks must be >= 1".into());
        }
        Ok(())
    }
}

/// What the membership state machine did over a whole elastic run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MembershipCounters {
    /// Nodes admitted through the join handshake.
    pub joins: u64,
    /// Join handshake sends lost to partition windows and retried.
    pub join_retries: u64,
    /// Graceful drains completed (in-flight work kept).
    pub drains: u64,
    /// Forced evictions (rollback, no detection delay).
    pub evictions: u64,
    /// Drains whose deadline blew: checkpoint-handoff rollbacks.
    pub handoffs: u64,
    /// Autoscaler grow actions taken.
    pub grow_decisions: u64,
    /// Autoscaler shrink actions taken.
    pub shrink_decisions: u64,
    /// Virtual seconds the whole cluster spent waiting on join
    /// handshakes (charged once per scale-out, not per joiner).
    pub secs_waiting_joins: f64,
}

/// One epoch of an elastic run and how it ended.
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

/// A completed elastic run: final outputs plus merged measurements, the
/// membership ledger, and the cluster-size history.
#[derive(Debug)]
pub struct ElasticOutcome<O> {
    /// Final reduce outputs, sorted by key.
    pub outputs: Vec<(crate::api::Key, O)>,
    /// The final epoch's metrics with `recovery` replaced by the merge
    /// of every epoch's counters and `total_seconds` by the cumulative
    /// virtual time.
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

/// Runs an iterative, checkpointable job through the scheduled
/// membership churn in `mplan` (and any crash faults in `spec.faults`).
pub fn run_elastic<A: CheckpointableApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    store: Arc<dyn CheckpointStore>,
    mplan: &MembershipPlan,
    autoscale: Option<&AutoscalePolicy>,
) -> Result<ElasticOutcome<A::Output>, JobError> {
    run_elastic_observed(spec, app, config, store, mplan, autoscale, Obs::disabled())
}

/// Like [`run_elastic`], with a live [`Obs`] bundle: the driver adds
/// `join` / `drain` / `evict` / `handoff` / `cluster-size` events on the
/// `membership` lane at cumulative virtual timestamps,
/// `prs_membership_total` counters and the `prs_cluster_size` gauge, and
/// autoscaler decision lines (with full inputs) in the audit log's
/// `decisions.jsonl` export.
#[allow(clippy::too_many_lines)]
pub fn run_elastic_observed<A: CheckpointableApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    store: Arc<dyn CheckpointStore>,
    mplan: &MembershipPlan,
    autoscale: Option<&AutoscalePolicy>,
    obs: Obs,
) -> Result<ElasticOutcome<A::Output>, JobError> {
    // The bit-identity fast path: no churn, no autoscaler — the elastic
    // driver adds nothing and must cost nothing.
    if mplan.is_empty() && autoscale.is_none() {
        let out = run_resilient_observed(spec, app, config, store, obs)?;
        let attempts: Vec<ElasticEpoch> = out
            .attempts
            .iter()
            .map(|a| ElasticEpoch {
                epoch: a.epoch,
                nodes: a.nodes,
                base_iteration: a.base_iteration,
                base_secs: a.base_secs,
                end_secs: a.end_secs,
                disposition: if a.interrupted {
                    match a.crash {
                        Some(CrashEvent::Node { .. }) => "node-crash",
                        Some(CrashEvent::Master { .. }) | None => "master-failover",
                    }
                } else {
                    "completed"
                },
            })
            .collect();
        // The size trace still reflects crash departures (a size change
        // takes effect at the next epoch's base, after the detection
        // delay); only the *observability artifacts* must stay
        // bit-identical to the plain resilient run, and this is a pure
        // reconstruction from the attempt summaries.
        let mut cluster_sizes = vec![(0.0, spec.len())];
        for pair in attempts.windows(2) {
            if pair[0].disposition == "node-crash" {
                cluster_sizes.push((pair[1].base_secs, pair[1].nodes));
            }
        }
        return Ok(ElasticOutcome {
            outputs: out.outputs,
            metrics: out.metrics,
            attempts,
            membership: MembershipCounters::default(),
            total_virtual_secs: out.total_virtual_secs,
            cluster_sizes,
        });
    }

    if let Err(msg) = spec.faults.validate() {
        return Err(JobError::InvalidConfig(format!("fault plan: {msg}")));
    }
    if let Err(msg) = mplan.validate() {
        return Err(JobError::InvalidConfig(format!("membership plan: {msg}")));
    }
    if let Some(policy) = autoscale {
        if let Err(msg) = policy.validate() {
            return Err(JobError::InvalidConfig(format!("autoscale policy: {msg}")));
        }
    }
    let capacity = spec.len() + mplan.total_scale_out();
    if let Some(max) = mplan.max_node_ref() {
        if max >= capacity {
            return Err(JobError::InvalidConfig(format!(
                "membership plan references node {max} but at most {capacity} stable ids \
                 ever exist ({} initial + {} scaled out)",
                spec.len(),
                mplan.total_scale_out()
            )));
        }
    }
    if mplan.drains.len() + mplan.evicts.len() + spec.faults.node_crashes.len() >= capacity {
        return Err(JobError::InvalidConfig(format!(
            "{} drains + {} evicts + {} node crashes scheduled but at most {capacity} nodes \
             ever exist — at least one must survive",
            mplan.drains.len(),
            mplan.evicts.len(),
            spec.faults.node_crashes.len()
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
        if max >= capacity {
            return Err(JobError::InvalidConfig(format!(
                "fault plan references node {max} but at most {capacity} stable ids ever exist"
            )));
        }
    }

    let monitor = HeartbeatMonitor::default();
    let initial_state = app.save_state();
    let rtt = 2.0 * spec.network.latency.as_secs_f64();

    let mut profiles = spec.nodes.clone();
    let mut node_ids: Vec<usize> = (0..profiles.len()).collect();
    let mut next_id = profiles.len();
    let mut plan = spec.faults.clone();
    let mut mplan = mplan.clone();
    let mut base_iteration: u64 = 0;
    let mut base_secs: f64 = 0.0;
    let mut merged = crate::metrics::RecoveryCounters::default();
    let mut membership = MembershipCounters::default();
    let mut attempts: Vec<ElasticEpoch> = Vec::new();
    let mut cluster_sizes: Vec<(f64, usize)> = vec![(0.0, profiles.len())];
    let mut sim_events: u64 = 0;
    let mut sim_handoffs: u64 = 0;

    // Autoscaler state.
    let mut grow_run: usize = 0;
    let mut shrink_run: usize = 0;
    let mut cooldown: usize = 0;
    let mut eval_index: usize = 0;
    let converged = Arc::new(AtomicBool::new(false));

    let membership_event = |obs: &Obs, kind: &str, at: f64, node: Option<usize>| {
        if let Some(d) = obs.bus.event("membership", kind, SimTime::from_secs_f64(at)) {
            let d = match node {
                Some(n) => d.attr("node", n as f64),
                None => d,
            };
            d.commit();
        }
        obs.metrics
            .counter_add("prs_membership_total", &[("event", kind)], 1.0);
    };
    let cluster_size_event = |obs: &Obs, at: f64, n: usize| {
        if let Some(d) = obs.bus.event("membership", "cluster-size", SimTime::from_secs_f64(at)) {
            d.attr("n", n as f64).commit();
        }
        obs.metrics.gauge_set("prs_cluster_size", &[], n as f64);
    };

    // Every epoch either completes >= 1 iteration or consumes one finite
    // scheduled event, so the budget is a loose upper bound; overrunning
    // it means a rebasing bug.
    let max_epochs = config.max_iterations
        + spec.faults.node_crashes.len()
        + spec.faults.master_crashes.len()
        + mplan.scale_outs.len()
        + mplan.drains.len()
        + mplan.evicts.len()
        + 2;
    for epoch in 0..max_epochs {
        let attempt_spec = ClusterSpec {
            nodes: profiles.clone(),
            network: spec.network,
            overheads: spec.overheads,
            faults: plan.sans_crashes().project(&node_ids),
        };
        let remaining = config.max_iterations - base_iteration as usize;
        let mut attempt_config = config;
        attempt_config.max_iterations = match autoscale {
            Some(policy) => remaining.min(policy.eval_interval_iters),
            None => remaining,
        };

        let crash = plan.earliest_crash();
        let memb = mplan.earliest_event();
        // Evictions share the crash-abort mechanism (the iteration in
        // flight is lost either way); the earlier of the two arms the
        // abort, and a tie goes to the crash (the bigger loss). Drains
        // and scale-outs pause gracefully instead.
        let evict_at = match memb {
            Some(MembershipEvent::Evict(e)) => Some(e.at_secs),
            _ => None,
        };
        let crash_wins = match (crash, evict_at) {
            (Some(c), Some(e)) => c.at_secs() <= e,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let abort_at = match (crash.map(|c| c.at_secs()), evict_at) {
            (Some(c), Some(e)) => Some(c.min(e)),
            (Some(c), None) => Some(c),
            (None, Some(e)) => Some(e),
            (None, None) => None,
        };
        let (finish_at, finish_deadline) = match memb {
            Some(MembershipEvent::Drain(d)) => (Some(d.at_secs), Some(d.at_secs + d.deadline_secs)),
            Some(MembershipEvent::ScaleOut(s)) => (Some(s.at_secs), None),
            _ => (None, None),
        };

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
            abort_at,
            checkpoint,
            finish_at,
            finish_deadline,
            node_ids: Some(Arc::new(node_ids.clone())),
        };
        let update_app = app.clone();
        let conv = converged.clone();
        let update: UpdateFn<A> = Arc::new(move |outputs| {
            let done = update_app.update(outputs);
            if done {
                conv.store(true, Ordering::Relaxed);
            }
            done
        });
        let result =
            run_with_update(&attempt_spec, app.clone(), attempt_config, update, obs.clone(), hooks)?;

        let end_local = result.metrics.total_seconds;
        let boundary = base_secs + end_local;
        merged = merged.merged(&result.metrics.recovery);
        sim_events += result.metrics.sim_events;
        sim_handoffs += result.metrics.sim_handoffs;
        let iters_run = result.metrics.iterations.len() as u64;
        let mut epoch_entry = ElasticEpoch {
            epoch,
            nodes: profiles.len(),
            base_iteration,
            base_secs,
            end_secs: boundary,
            disposition: "completed",
        };

        // A shared closure would borrow half the driver state; a macro
        // keeps the three rollback paths (handoff, evict, crash) on the
        // exact restore logic the resilient driver uses.
        macro_rules! restore {
            () => {{
                let restored = store
                    .latest()
                    .map_err(|e| JobError::InvalidConfig(format!("checkpoint store: {e}")))?;
                match &restored {
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
                }
            }};
        }
        // Admits `count` nodes through the join handshake at `boundary`
        // (epoch-local send times checked against the current rebased
        // plan's partition windows) and returns the cumulative time the
        // cluster resumes at.
        macro_rules! join_nodes {
            ($count:expr) => {{
                let count: usize = $count;
                let mut send = end_local;
                let mut backoff = JOIN_BACKOFF_BASE_SECS;
                let mut retries: u64 = 0;
                loop {
                    let blocked = plan.link_faults.iter().any(|f| {
                        f.partition && send < f.until_secs && send + rtt > f.from_secs
                    });
                    if !blocked {
                        break;
                    }
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
                let complete = base_secs + send + rtt;
                let waited = complete - boundary;
                membership.joins += count as u64;
                membership.join_retries += retries * count as u64;
                membership.secs_waiting_joins += waited;
                if waited > 0.0 {
                    obs.stack.frame(
                        "membership",
                        "join",
                        SimTime::from_secs_f64(boundary),
                        SimTime::from_secs_f64(complete),
                    );
                }
                for _ in 0..count {
                    profiles.push(spec.nodes[0].clone());
                    node_ids.push(next_id);
                    membership_event(&obs, "join", complete, Some(next_id));
                    next_id += 1;
                }
                cluster_sizes.push((complete, profiles.len()));
                cluster_size_event(&obs, complete, profiles.len());
                complete
            }};
        }

        let new_base: f64;
        if result.metrics.paused {
            // Graceful membership boundary: the last update WAS applied,
            // nothing rolls back.
            base_iteration += iters_run;
            match memb.expect("an attempt only pauses at an armed membership event") {
                MembershipEvent::Drain(d) => {
                    epoch_entry.disposition = "drain";
                    if let Some(pos) = node_ids.iter().position(|&id| id == d.node) {
                        if profiles.len() == 1 {
                            return Err(JobError::InvalidConfig(format!(
                                "drain of node {} would leave the cluster empty",
                                d.node
                            )));
                        }
                        profiles.remove(pos);
                        node_ids.remove(pos);
                        membership.drains += 1;
                        membership_event(&obs, "drain", boundary, Some(d.node));
                        cluster_sizes.push((boundary, profiles.len()));
                        cluster_size_event(&obs, boundary, profiles.len());
                    }
                    mplan = mplan.consumed(&MembershipEvent::Drain(d));
                    new_base = boundary;
                }
                MembershipEvent::ScaleOut(s) => {
                    epoch_entry.disposition = "scale-out";
                    new_base = join_nodes!(s.count);
                    mplan = mplan.consumed(&MembershipEvent::ScaleOut(s));
                }
                MembershipEvent::Evict(_) => {
                    return Err(JobError::InvalidConfig(
                        "internal: eviction surfaced as a graceful pause".into(),
                    ));
                }
            }
        } else if result.metrics.interrupted && result.metrics.handoff {
            // Drain deadline blown: checkpoint handoff. The master drove
            // the removal, so no detection delay is charged.
            epoch_entry.disposition = "handoff";
            let Some(MembershipEvent::Drain(d)) = memb else {
                return Err(JobError::InvalidConfig(
                    "internal: handoff abort without an armed drain".into(),
                ));
            };
            let resume_secs = restore!();
            merged.seconds_lost_to_faults += boundary - resume_secs;
            merged.restores += 1;
            if let Some(pos) = node_ids.iter().position(|&id| id == d.node) {
                if profiles.len() == 1 {
                    return Err(JobError::InvalidConfig(format!(
                        "drain of node {} would leave the cluster empty",
                        d.node
                    )));
                }
                profiles.remove(pos);
                node_ids.remove(pos);
            }
            membership.handoffs += 1;
            membership_event(&obs, "handoff", boundary, Some(d.node));
            cluster_sizes.push((boundary, profiles.len()));
            cluster_size_event(&obs, boundary, profiles.len());
            mplan = mplan.consumed(&MembershipEvent::Drain(d));
            new_base = boundary;
        } else if result.metrics.interrupted && !crash_wins {
            // Forced eviction: rollback like a crash, but the master
            // initiated it, so detection is free.
            epoch_entry.disposition = "evict";
            let Some(MembershipEvent::Evict(e)) = memb else {
                return Err(JobError::InvalidConfig(
                    "internal: evict abort without an armed eviction".into(),
                ));
            };
            let resume_secs = restore!();
            merged.seconds_lost_to_faults += boundary - resume_secs;
            merged.restores += 1;
            if let Some(pos) = node_ids.iter().position(|&id| id == e.node) {
                if profiles.len() == 1 {
                    return Err(JobError::InvalidConfig(format!(
                        "eviction of node {} would leave the cluster empty",
                        e.node
                    )));
                }
                profiles.remove(pos);
                node_ids.remove(pos);
            }
            plan = plan.without_node(e.node);
            membership.evictions += 1;
            membership_event(&obs, "evict", boundary, Some(e.node));
            cluster_sizes.push((boundary, profiles.len()));
            cluster_size_event(&obs, boundary, profiles.len());
            mplan = mplan.consumed(&MembershipEvent::Evict(e));
            new_base = boundary;
        } else if result.metrics.interrupted {
            // A real crash — the resilient driver's recovery path,
            // including the heartbeat detection delay. A node can crash
            // mid-drain: its pending drain/evict events die with it.
            let crash = crash.expect("an interrupted attempt without handoff has an armed crash");
            let crash_cumulative = base_secs + crash.at_secs();
            let recovery_delay = match crash {
                CrashEvent::Node { .. } => monitor.detection_delay(crash_cumulative),
                CrashEvent::Master { .. } => monitor.master_failover_delay(crash_cumulative),
            };
            let resume_secs = restore!();
            new_base = boundary + recovery_delay;
            merged.seconds_lost_to_faults += new_base - resume_secs;
            merged.restores += 1;
            let kind = match crash {
                CrashEvent::Node { node, .. } => {
                    merged.node_crashes += 1;
                    plan = plan.without_node(node);
                    mplan = mplan.without_node(node);
                    let pos = node_ids
                        .iter()
                        .position(|&id| id == node)
                        .expect("crashed node is in the surviving set");
                    profiles.remove(pos);
                    node_ids.remove(pos);
                    cluster_sizes.push((new_base, profiles.len()));
                    cluster_size_event(&obs, new_base, profiles.len());
                    epoch_entry.disposition = "node-crash";
                    "node-crash"
                }
                CrashEvent::Master { .. } => {
                    merged.master_failovers += 1;
                    epoch_entry.disposition = "master-failover";
                    "master-failover"
                }
            };
            let now = SimTime::from_secs_f64(new_base);
            obs.stack
                .frame("resilience", "recovery", SimTime::from_secs_f64(boundary), now);
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
        } else {
            // The attempt ran to its iteration cap: either the job is
            // done, or this is an autoscaler evaluation boundary.
            base_iteration += iters_run;
            if converged.load(Ordering::Relaxed)
                || base_iteration as usize >= config.max_iterations
            {
                attempts.push(epoch_entry);
                let total_virtual_secs = boundary;
                let mut metrics = result.metrics;
                metrics.recovery = merged;
                metrics.total_seconds = total_virtual_secs;
                metrics.sim_events = sim_events;
                metrics.sim_handoffs = sim_handoffs;
                return Ok(ElasticOutcome {
                    outputs: result.outputs,
                    metrics,
                    attempts,
                    membership,
                    total_virtual_secs,
                    cluster_sizes,
                });
            }
            epoch_entry.disposition = "autoscale-eval";
            let policy = autoscale.expect("only autoscale-capped attempts stop before the job ends");
            let mean_iter_s = if iters_run == 0 {
                0.0
            } else {
                result.metrics.compute_seconds / iters_run as f64
            };
            let mut action = "hold";
            if cooldown > 0 {
                cooldown -= 1;
                action = "cooldown";
            } else if mean_iter_s > policy.grow_above_secs {
                grow_run += 1;
                shrink_run = 0;
                if grow_run >= policy.grow_streak && profiles.len() < policy.max_nodes {
                    action = "grow";
                }
            } else if mean_iter_s < policy.shrink_below_secs {
                shrink_run += 1;
                grow_run = 0;
                if shrink_run >= policy.shrink_streak && profiles.len() > policy.min_nodes {
                    action = "shrink";
                }
            } else {
                grow_run = 0;
                shrink_run = 0;
            }
            // Every evaluation is audited with its full inputs — the
            // keys avoid `node`+`iter` so trace tooling keeps seeing
            // only scheduling decisions.
            let mut m = BTreeMap::new();
            m.insert("action".to_string(), Value::String(action.to_string()));
            m.insert("at_iter".to_string(), Value::Number(base_iteration as f64));
            m.insert("cooldown".to_string(), Value::Number(cooldown as f64));
            m.insert("eval".to_string(), Value::Number(eval_index as f64));
            m.insert(
                "grow_above_s".to_string(),
                Value::Number(policy.grow_above_secs),
            );
            m.insert("grow_streak".to_string(), Value::Number(grow_run as f64));
            m.insert("mean_iter_s".to_string(), Value::Number(mean_iter_s));
            m.insert("nodes".to_string(), Value::Number(profiles.len() as f64));
            m.insert(
                "shrink_below_s".to_string(),
                Value::Number(policy.shrink_below_secs),
            );
            m.insert("shrink_streak".to_string(), Value::Number(shrink_run as f64));
            m.insert("t_s".to_string(), Value::Number(boundary));
            m.insert(
                "trigger".to_string(),
                Value::String("autoscale-eval".to_string()),
            );
            obs.audit.scale_line(Value::Object(m).to_json_string());
            eval_index += 1;
            match action {
                "grow" => {
                    new_base = join_nodes!(1);
                    membership.grow_decisions += 1;
                    grow_run = 0;
                    cooldown = policy.cooldown_evals;
                }
                "shrink" => {
                    // At an iteration boundary nothing is in flight, so a
                    // shrink is a drain that completes instantly. The
                    // newest node goes first (LIFO keeps the longest-lived
                    // calibration history).
                    let (pos, _) = node_ids
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &id)| id)
                        .expect("a shrinking cluster is non-empty");
                    let id = node_ids[pos];
                    profiles.remove(pos);
                    node_ids.remove(pos);
                    membership.drains += 1;
                    membership.shrink_decisions += 1;
                    membership_event(&obs, "drain", boundary, Some(id));
                    cluster_sizes.push((boundary, profiles.len()));
                    cluster_size_event(&obs, boundary, profiles.len());
                    shrink_run = 0;
                    cooldown = policy.cooldown_evals;
                    new_base = boundary;
                }
                _ => new_base = boundary,
            }
        }

        attempts.push(epoch_entry);
        plan = plan.rebased(new_base - base_secs);
        mplan = mplan.rebased(new_base - base_secs);
        base_secs = new_base;
    }
    Err(JobError::InvalidConfig(format!(
        "elastic driver exceeded its epoch budget ({max_epochs}) — rebasing bug?"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_validate() {
        let plan = MembershipPlan::seeded(7)
            .scale_out(2, 0.5)
            .drain(1, 0.4, 0.2)
            .evict(2, 0.6);
        assert!(!plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.total_scale_out(), 2);
        assert_eq!(plan.max_node_ref(), Some(2));
        assert!(MembershipPlan::seeded(1).is_empty());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(MembershipPlan::default().scale_out(0, 1.0).validate().is_err());
        assert!(MembershipPlan::default().scale_out(1, -1.0).validate().is_err());
        assert!(MembershipPlan::default().drain(0, 1.0, -0.5).validate().is_err());
        assert!(MembershipPlan::default()
            .evict(0, f64::NAN)
            .validate()
            .is_err());
        // A node can only leave once.
        assert!(MembershipPlan::default()
            .drain(1, 1.0, 0.1)
            .evict(1, 2.0)
            .validate()
            .is_err());
    }

    #[test]
    fn earliest_event_orders_deterministically() {
        let plan = MembershipPlan::default()
            .scale_out(1, 1.0)
            .drain(2, 1.0, 0.5)
            .evict(3, 1.0);
        // Same instant: evict < drain < scale-out.
        assert_eq!(
            plan.earliest_event(),
            Some(MembershipEvent::Evict(Evict {
                node: 3,
                at_secs: 1.0
            }))
        );
        let plan = MembershipPlan::default().scale_out(1, 0.5).drain(2, 1.0, 0.5);
        assert_eq!(
            plan.earliest_event(),
            Some(MembershipEvent::ScaleOut(ScaleOut {
                count: 1,
                at_secs: 0.5
            }))
        );
        assert_eq!(MembershipPlan::default().earliest_event(), None);
    }

    #[test]
    fn consumed_removes_exactly_one_event() {
        let plan = MembershipPlan::default().drain(1, 1.0, 0.5).drain(2, 2.0, 0.5);
        let ev = plan.earliest_event().unwrap();
        let rest = plan.consumed(&ev);
        assert_eq!(rest.drains.len(), 1);
        assert_eq!(rest.drains[0].node, 2);
    }

    #[test]
    fn rebase_clamps_instead_of_dropping() {
        let plan = MembershipPlan::seeded(3)
            .scale_out(1, 0.5)
            .drain(1, 2.0, 0.25)
            .evict(2, 3.0);
        let r = plan.rebased(1.0);
        assert_eq!(r.seed, 3);
        // A passed-but-unprocessed event fires at the next boundary
        // rather than vanishing.
        assert_eq!(r.scale_outs[0].at_secs, 0.0);
        assert_eq!(r.drains[0].at_secs, 1.0);
        assert_eq!(r.drains[0].deadline_secs, 0.25);
        assert_eq!(r.evicts[0].at_secs, 2.0);
    }

    #[test]
    fn without_node_drops_that_nodes_events() {
        let plan = MembershipPlan::default()
            .drain(1, 1.0, 0.5)
            .evict(2, 2.0)
            .scale_out(1, 3.0);
        let r = plan.without_node(1);
        assert!(r.drains.is_empty());
        assert_eq!(r.evicts.len(), 1);
        assert_eq!(r.scale_outs.len(), 1);
    }

    #[test]
    fn toml_round_trip_and_errors() {
        let text = "\
seed = 7
# churn scenario
[[scale_out]]
at_s = 0.5
count = 2
[[drain]]
node = 2
at_s = 0.4
deadline_s = 0.2
[[evict]]
node = 1
at_s = 0.6
";
        let plan = MembershipPlan::from_toml(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.scale_outs, vec![ScaleOut { count: 2, at_secs: 0.5 }]);
        assert_eq!(
            plan.drains,
            vec![Drain {
                node: 2,
                at_secs: 0.4,
                deadline_secs: 0.2
            }]
        );
        assert_eq!(plan.evicts, vec![Evict { node: 1, at_secs: 0.6 }]);
        assert!(MembershipPlan::from_toml("").unwrap().is_empty());
        assert!(MembershipPlan::from_toml("[server]\n").is_err());
        assert!(MembershipPlan::from_toml("[[drain]]\nnode = -1\n").is_err());
        assert!(MembershipPlan::from_toml("[[drain]]\nwhat = 1\n").is_err());
        assert!(MembershipPlan::from_toml("node = 1\n").is_err());
        // Validation runs on the parsed plan too.
        assert!(MembershipPlan::from_toml("[[scale_out]]\ncount = 0\n").is_err());
    }

    #[test]
    fn autoscale_policy_validates() {
        assert!(AutoscalePolicy::default().validate().is_ok());
        let bad = [
            AutoscalePolicy {
                eval_interval_iters: 0,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                min_nodes: 0,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                max_nodes: 1,
                min_nodes: 2,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                shrink_below_secs: 2.0,
                grow_above_secs: 1.0,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                grow_streak: 0,
                ..AutoscalePolicy::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?} must fail validation");
        }
    }
}
