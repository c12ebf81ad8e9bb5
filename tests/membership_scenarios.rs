//! Elastic-membership scenario suite: seeded churn plans executed by the
//! epoch driver, pinning the drain-vs-evict semantics, crash-mid-drain
//! composition with the fault plan, the autoscaler's audited decisions,
//! and the empty-plan bit-identity contract with the fixed-cluster path.

use prs_apps::{CMeans, DaKmeans, KMeans};
use prs_core::{
    run_epochs, run_iterative, run_iterative_observed, AutoscalePolicy, CheckpointableApp,
    ClusterSpec, EpochOptions, FaultPlan, JobConfig, MembershipPlan, Obs,
};
use prs_data::gaussian::clustering_workload;
use prs_suite::chain;
use std::sync::Arc;

/// Epoch options for a churn plan: no autoscaler.
fn churn(plan: &MembershipPlan) -> EpochOptions {
    EpochOptions { membership: plan.clone(), ..EpochOptions::default() }
}

/// [`churn`] with an autoscaler and a recording bundle attached.
fn observed(plan: &MembershipPlan, autoscale: Option<AutoscalePolicy>, obs: &Obs) -> EpochOptions {
    EpochOptions { autoscale, obs: obs.clone(), ..churn(plan) }
}

/// Virtual time of the middle of iteration `i` on the clean run's clock.
fn mid_iteration(clean: &prs_core::JobMetrics, i: usize) -> f64 {
    clean.setup_seconds
        + clean.metrics_prefix(i)
        + 0.5 * clean.iterations[i].total()
}

trait MetricsExt {
    fn metrics_prefix(&self, i: usize) -> f64;
}
impl MetricsExt for prs_core::JobMetrics {
    fn metrics_prefix(&self, i: usize) -> f64 {
        self.iterations[..i].iter().map(|s| s.total()).sum()
    }
}

/// The identity contract: the epoch driver with default options (no
/// churn, no autoscaler, no faults) is the fixed-cluster iterative run.
/// Without checkpointing every artifact is byte-identical; with it the
/// clock, outputs, model state and decision audit still are, and the bus
/// and metrics differ only by the `checkpoint` records themselves (all
/// checked on commit 7493b67 against `run_resilient_observed`). Held for
/// the state-chained fixture and for the three center-based clustering
/// apps, whose checkpoint codec is the one `Centers` implementation.
#[test]
fn empty_plan_is_bit_identical_to_fixed_cluster() {
    assert_empty_plan_identity(|| chain(40_000, 8));
    let pts = Arc::new(clustering_workload(6_000, 8, 4, 3).points);
    assert_empty_plan_identity(|| Arc::new(CMeans::new(pts.clone(), 4, 2.0, 1e-12, 3)));
    assert_empty_plan_identity(|| Arc::new(KMeans::new(pts.clone(), 4, 1e-12, 3)));
    assert_empty_plan_identity(|| Arc::new(DaKmeans::new(pts.clone(), 4, 0.8, 1e-3)));
}

fn assert_empty_plan_identity<A>(make: impl Fn() -> Arc<A>)
where
    A: CheckpointableApp,
    A::Output: PartialEq + std::fmt::Debug,
{
    let spec = ClusterSpec::delta(2);
    for checkpointing in [false, true] {
        let mut config = JobConfig::static_analytic().with_iterations(3);
        if checkpointing {
            config = config.with_checkpoint_interval(1);
        }
        let (obs_a, a_app) = (Obs::recording(), make());
        let a = run_iterative_observed(&spec, a_app.clone(), config, obs_a.clone()).unwrap();

        let (obs_b, b_app) = (Obs::recording(), make());
        let opts = EpochOptions { obs: obs_b.clone(), ..EpochOptions::default() };
        let b = run_epochs(&spec, b_app.clone(), config, opts).unwrap();

        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a_app.save_state(), b_app.save_state());
        assert_eq!(
            a.metrics.total_seconds.to_bits(),
            b.total_virtual_secs.to_bits(),
            "empty-plan virtual clock must be bit-identical"
        );
        assert_eq!(obs_a.audit.to_jsonl(), obs_b.audit.to_jsonl());
        if !checkpointing {
            assert_eq!(obs_a.bus.to_jsonl(), obs_b.bus.to_jsonl());
            assert_eq!(obs_a.metrics.to_prometheus(), obs_b.metrics.to_prometheus());
        }
        assert_eq!(b.metrics.recovery.checkpoints_written, if checkpointing { 3 } else { 0 });
        assert!(b.membership == prs_core::MembershipCounters::default());
        assert_eq!(b.cluster_sizes, vec![(0.0, 2)]);
        assert_eq!(b.attempts.len(), 1);
    }
}

/// Drain-vs-evict golden: the same node leaving at the same instant keeps
/// its in-flight iteration under a graceful drain (no rollback) but loses
/// it under a forced evict (checkpoint restore) — with final outputs
/// bit-identical to the fault-free run either way.
#[test]
fn drain_keeps_progress_where_evict_rolls_back() {
    let config = JobConfig::static_analytic().with_iterations(4).with_checkpoint_interval(1);
    let clean = run_iterative(&ClusterSpec::delta(3), chain(60_000, 8), config).unwrap();
    let leave_at = mid_iteration(&clean.metrics, 2);

    let drain_plan = MembershipPlan::seeded(1).drain(2, leave_at, 10.0);
    let drained_app = chain(60_000, 8);
    let drained = run_epochs(&ClusterSpec::delta(3), drained_app.clone(), config, churn(&drain_plan))
    .unwrap();
    assert_eq!(drained.outputs, clean.outputs, "drained run must converge identically");
    let m = &drained.membership;
    assert_eq!((m.drains, m.evictions, m.handoffs), (1, 0, 0), "{m:?}");
    assert_eq!(drained.metrics.recovery.restores, 0, "a graceful drain never rolls back");
    assert_eq!(
        drained.attempts.iter().map(|a| a.disposition).collect::<Vec<_>>(),
        vec!["drain", "completed"]
    );
    // The drain epoch's completed iterations are kept.
    assert!(drained.attempts[1].base_iteration >= 3);
    assert_eq!(drained.attempts[1].nodes, 2);
    assert_eq!(drained.cluster_sizes.len(), 2);
    assert_eq!(drained.cluster_sizes[1].1, 2);

    let evict_plan = MembershipPlan::seeded(1).evict(2, leave_at);
    let evicted_app = chain(60_000, 8);
    let evicted = run_epochs(&ClusterSpec::delta(3), evicted_app.clone(), config, churn(&evict_plan))
    .unwrap();
    assert_eq!(evicted.outputs, clean.outputs, "evicted run must converge identically");
    assert_eq!(evicted_app.save_state(), drained_app.save_state());
    let m = &evicted.membership;
    assert_eq!((m.drains, m.evictions, m.handoffs), (0, 1, 0), "{m:?}");
    assert_eq!(evicted.metrics.recovery.restores, 1, "an evict rolls back to the checkpoint");
    assert!(evicted.metrics.recovery.seconds_lost_to_faults > 0.0);
    assert_eq!(
        evicted.attempts.iter().map(|a| a.disposition).collect::<Vec<_>>(),
        vec!["evict", "completed"]
    );
    // The evict discards the interrupted iteration, so it pays more
    // virtual time than the drain for the same departure.
    assert!(evicted.total_virtual_secs > drained.total_virtual_secs);
}

/// A drain whose deadline cannot be met falls back to checkpoint-handoff:
/// the epoch rolls back like an evict, but the ledger records a handoff
/// and no heartbeat detection delay is charged.
#[test]
fn blown_drain_deadline_takes_the_handoff_path() {
    let config = JobConfig::static_analytic().with_iterations(4).with_checkpoint_interval(1);
    let clean = run_iterative(&ClusterSpec::delta(3), chain(60_000, 8), config).unwrap();
    let leave_at = mid_iteration(&clean.metrics, 2);

    // Zero grace: the first boundary at/after the drain start is already
    // past the deadline.
    let plan = MembershipPlan::seeded(2).drain(2, leave_at, 0.0);
    let app = chain(60_000, 8);
    let out = run_epochs(&ClusterSpec::delta(3), app, config, churn(&plan)).unwrap();
    assert_eq!(out.outputs, clean.outputs);
    let m = &out.membership;
    assert_eq!((m.drains, m.evictions, m.handoffs), (0, 0, 1), "{m:?}");
    assert_eq!(out.metrics.recovery.restores, 1);
    assert_eq!(
        out.attempts.iter().map(|a| a.disposition).collect::<Vec<_>>(),
        vec!["handoff", "completed"]
    );
    assert_eq!(out.attempts[1].nodes, 2);
}

/// Scale-out admits a node through the join handshake: the cluster grows
/// at the boundary, Equation (8) re-splits over three profiles, and the
/// job finishes with outputs identical to the fixed two-node run.
#[test]
fn scale_out_joins_and_resplits() {
    let config = JobConfig::static_analytic().with_iterations(4);
    let clean = run_iterative(&ClusterSpec::delta(2), chain(60_000, 8), config).unwrap();
    let join_at = mid_iteration(&clean.metrics, 1);

    let plan = MembershipPlan::seeded(3).scale_out(1, join_at);
    let app = chain(60_000, 8);
    let out = run_epochs(&ClusterSpec::delta(2), app, config, churn(&plan)).unwrap();
    assert_eq!(out.outputs, clean.outputs);
    let m = &out.membership;
    assert_eq!(m.joins, 1, "{m:?}");
    assert_eq!(m.join_retries, 0, "a healthy fabric admits on the first try");
    assert!(m.secs_waiting_joins > 0.0, "one handshake round-trip is charged");
    assert_eq!(
        out.attempts.iter().map(|a| a.disposition).collect::<Vec<_>>(),
        vec!["scale-out", "completed"]
    );
    assert_eq!(out.attempts[1].nodes, 3);
    assert_eq!(out.cluster_sizes.last().unwrap().1, 3);
    // Eq (8) ran over the new membership: the final epoch reports a CPU
    // fraction per surviving profile.
    assert_eq!(out.metrics.cpu_fractions.len(), 3);
}

/// A lossy fabric delays the join: handshake sends that land inside a
/// partition window are lost and retried with exponential backoff, and
/// the wait is charged to the virtual clock.
#[test]
fn join_handshake_retries_through_partition_windows() {
    let config = JobConfig::static_analytic().with_iterations(4);
    let clean = run_iterative(&ClusterSpec::delta(2), chain(60_000, 8), config).unwrap();
    let join_at = mid_iteration(&clean.metrics, 1);
    // The join fires at the first boundary at/after `join_at`.
    let boundary = clean.metrics.setup_seconds + clean.metrics.metrics_prefix(2);

    let plan = MembershipPlan::seeded(4).scale_out(1, join_at);
    // Partition the *joiner's* link (stable id 2 — the next id assigned)
    // across the join boundary: the running pair never sees it (id 2 is
    // projected out of their attempts), but handshake sends are lost
    // until the window closes.
    let faults = FaultPlan::seeded(4).partition_link(Some(2), None, 0.0, boundary + 0.2);
    let spec = ClusterSpec::delta(2).with_faults(faults);
    let app = chain(60_000, 8);
    let out = run_epochs(&spec, app, config, churn(&plan)).unwrap();
    assert_eq!(out.outputs, clean.outputs);
    let m = &out.membership;
    assert_eq!(m.joins, 1, "{m:?}");
    assert!(m.join_retries > 0, "the partition must cost retries: {m:?}");
    assert!(
        m.secs_waiting_joins > 2.0 * 0.05,
        "backoff waits must be charged: {m:?}"
    );
}

/// Churn composes with the chaos-grade fault path: the drained node
/// crashes *inside* its drain window, so the crash wins, recovery goes
/// through the checkpoint, and the dead node's pending drain dies with it.
#[test]
fn crash_mid_drain_recovers_via_checkpoint() {
    let config = JobConfig::static_analytic().with_iterations(4).with_checkpoint_interval(1);
    let clean_app = chain(60_000, 8);
    let clean = run_iterative(&ClusterSpec::delta(3), clean_app.clone(), config).unwrap();
    let drain_at = mid_iteration(&clean.metrics, 2);
    // Crash strictly inside the drain window, before its boundary.
    let crash_at = drain_at + 0.25 * clean.metrics.iterations[2].total();

    let plan = MembershipPlan::seeded(5).drain(2, drain_at, 10.0);
    let spec = ClusterSpec::delta(3).with_faults(FaultPlan::seeded(5).crash_node(2, crash_at));
    let app = chain(60_000, 8);
    let out = run_epochs(&spec, app.clone(), config, churn(&plan)).unwrap();

    assert_eq!(out.outputs, clean.outputs, "crash-mid-drain must still converge bit-identically");
    assert_eq!(app.save_state(), clean_app.save_state());
    let r = &out.metrics.recovery;
    assert_eq!(r.node_crashes, 1, "{r:?}");
    assert_eq!(r.restores, 1, "{r:?}");
    let m = &out.membership;
    assert_eq!(
        (m.drains, m.evictions, m.handoffs),
        (0, 0, 0),
        "the dead node has no drain left to finish: {m:?}"
    );
    assert_eq!(
        out.attempts.iter().map(|a| a.disposition).collect::<Vec<_>>(),
        vec!["node-crash", "completed"]
    );
    assert_eq!(out.attempts[1].nodes, 2);
}

/// The autoscaler grows under sustained queue pressure and audits every
/// evaluation — held or acted on — into `decisions.jsonl` with its full
/// inputs.
#[test]
fn autoscaler_grows_under_pressure_with_audited_decisions() {
    let config = JobConfig::static_analytic().with_iterations(5);
    let policy = AutoscalePolicy {
        eval_interval_iters: 1,
        min_nodes: 1,
        max_nodes: 3,
        grow_above_secs: 0.0, // every iteration looks slow
        shrink_below_secs: 0.0,
        grow_streak: 1,
        shrink_streak: 1,
        cooldown_evals: 0,
    };
    let obs = Obs::recording();
    let app = chain(60_000, 8);
    let opts = observed(&MembershipPlan::seeded(6), Some(policy), &obs);
    let out = run_epochs(&ClusterSpec::delta(1), app, config, opts).unwrap();

    let m = &out.membership;
    assert_eq!(m.grow_decisions, 2, "grows to max_nodes then holds: {m:?}");
    assert_eq!(m.joins, 2, "{m:?}");
    assert_eq!(
        out.cluster_sizes.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    // Output correctness is unaffected by when the cluster grew.
    let clean = run_iterative(&ClusterSpec::delta(1), chain(60_000, 8), config).unwrap();
    assert_eq!(out.outputs, clean.outputs);

    let jsonl = obs.audit.to_jsonl();
    assert!(jsonl.contains("\"action\":\"grow\""), "{jsonl}");
    assert!(jsonl.contains("\"action\":\"hold\""), "{jsonl}");
    for key in [
        "mean_iter_s",
        "grow_above_s",
        "shrink_below_s",
        "grow_streak",
        "shrink_streak",
        "cooldown",
        "nodes",
        "at_iter",
        "t_s",
    ] {
        assert!(jsonl.contains(&format!("\"{key}\":")), "decision inputs must include {key}");
    }
    // Scale lines are invisible to the trace parser.
    let parsed = obs::AuditLog::parse_jsonl(&jsonl);
    assert!(parsed.iter().all(|r| !r.trigger.contains("autoscale")));
}

/// Idle windows shrink the cluster, and the cooldown makes the policy
/// flap-resistant: after each action the next evaluation is sat out.
#[test]
fn autoscaler_shrinks_on_idle_with_cooldown_hysteresis() {
    let config = JobConfig::static_analytic().with_iterations(6);
    let policy = AutoscalePolicy {
        eval_interval_iters: 1,
        min_nodes: 1,
        max_nodes: 4,
        grow_above_secs: f64::MAX, // nothing ever looks slow
        shrink_below_secs: f64::MAX,
        grow_streak: 1,
        shrink_streak: 1,
        cooldown_evals: 1,
    };
    let obs = Obs::recording();
    let app = chain(60_000, 8);
    let opts = observed(&MembershipPlan::seeded(7), Some(policy), &obs);
    let out = run_epochs(&ClusterSpec::delta(3), app, config, opts).unwrap();

    let m = &out.membership;
    assert_eq!(m.shrink_decisions, 2, "3 -> 2 -> 1 with cooldowns between: {m:?}");
    assert_eq!(m.drains, 2, "a shrink is an instant drain: {m:?}");
    assert_eq!(out.cluster_sizes.last().unwrap().1, 1);
    let jsonl = obs.audit.to_jsonl();
    assert!(jsonl.contains("\"action\":\"cooldown\""), "hysteresis must be visible: {jsonl}");
    assert!(jsonl.contains("\"action\":\"shrink\""), "{jsonl}");
    // Outputs still match a fixed-cluster run.
    let clean = run_iterative(&ClusterSpec::delta(3), chain(60_000, 8), config).unwrap();
    assert_eq!(out.outputs, clean.outputs);
}

/// Repeat runs of the same churn scenario are byte-identical across every
/// artifact — the determinism contract extended to elastic runs.
#[test]
fn repeat_churn_runs_are_byte_identical() {
    let run = || {
        let config =
            JobConfig::static_analytic().with_iterations(5).with_checkpoint_interval(1);
        let plan = MembershipPlan::seeded(8)
            .scale_out(1, 0.02)
            .drain(0, 0.06, 10.0)
            .evict(1, 0.10);
        let obs = Obs::recording();
        let app = chain(50_000, 8);
        let out =
            run_epochs(&ClusterSpec::delta(3), app, config, observed(&plan, None, &obs)).unwrap();
        (
            out.outputs.clone(),
            out.total_virtual_secs.to_bits(),
            out.cluster_sizes.clone(),
            obs.bus.to_jsonl(),
            obs.metrics.to_prometheus(),
            obs.audit.to_jsonl(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "virtual clock must replay bit-identically");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3, "bus export must be byte-identical");
    assert_eq!(a.4, b.4, "metrics export must be byte-identical");
    assert_eq!(a.5, b.5, "audit export must be byte-identical");
}

/// Membership lane artifacts: churn emits `membership` lane events and
/// `prs_membership_total` / `prs_cluster_size` metric families.
#[test]
fn churn_emits_membership_lane_and_metric_families() {
    let config = JobConfig::static_analytic().with_iterations(4).with_checkpoint_interval(1);
    let clean = run_iterative(&ClusterSpec::delta(3), chain(60_000, 8), config).unwrap();
    let plan = MembershipPlan::seeded(9)
        .drain(2, mid_iteration(&clean.metrics, 1), 10.0)
        .scale_out(1, mid_iteration(&clean.metrics, 2));
    let obs = Obs::recording();
    let app = chain(60_000, 8);
    run_epochs(&ClusterSpec::delta(3), app, config, observed(&plan, None, &obs)).unwrap();

    let events = obs.bus.events();
    let membership: Vec<_> = events.iter().filter(|e| &*e.lane == "membership").collect();
    assert!(
        membership.iter().any(|e| &*e.kind == "drain"),
        "drain event missing from the membership lane"
    );
    assert!(membership.iter().any(|e| &*e.kind == "join"));
    assert!(membership.iter().any(|e| &*e.kind == "cluster-size"));
    let prom = obs.metrics.to_prometheus();
    assert!(prom.contains("prs_membership_total"), "{prom}");
    assert!(prom.contains("prs_cluster_size"), "{prom}");
    assert_eq!(
        obs.metrics.counter("prs_membership_total", &[("event", "drain")]),
        Some(1.0)
    );
    assert_eq!(obs.metrics.gauge("prs_cluster_size", &[]), Some(3.0));
}

/// Invalid elastic configurations are rejected up front with useful
/// messages rather than failing mid-run.
#[test]
fn invalid_membership_configs_are_rejected() {
    let config = JobConfig::static_analytic().with_iterations(2);
    // Reference past the largest stable id that will ever exist.
    let plan = MembershipPlan::seeded(1).drain(5, 0.1, 1.0);
    assert!(run_epochs(&ClusterSpec::delta(2), chain(1_000, 4), config, churn(&plan))
        .is_err());
    // Removing every node that ever exists.
    let plan = MembershipPlan::seeded(1).drain(0, 0.1, 1.0).evict(1, 0.2);
    assert!(run_epochs(&ClusterSpec::delta(2), chain(1_000, 4), config, churn(&plan))
        .is_err());
    // Broken autoscale policy.
    let policy = AutoscalePolicy { eval_interval_iters: 0, ..AutoscalePolicy::default() };
    let opts = observed(&MembershipPlan::seeded(1), Some(policy), &Obs::disabled());
    assert!(run_epochs(&ClusterSpec::delta(2), chain(1_000, 4), config, opts).is_err());
}
