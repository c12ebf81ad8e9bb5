//! Observability scenario suite: pins down the three properties the
//! `obs` crate promises on top of real runtime executions.
//!
//! 1. *Determinism* — the same seeded scenario exports byte-identical
//!    `events.jsonl` / `metrics.prom` / `decisions.jsonl` artifacts.
//! 2. *Faithful accounting* — recovery actions (master retries and
//!    reassignments, GPU daemon deaths, re-queued blocks) appear in the
//!    event stream with counts that match [`RecoveryCounters`] exactly,
//!    and survivor recomputes show up in the decision audit.
//! 3. *Zero virtual overhead* — recording never advances virtual time,
//!    so an instrumented run's clock is bit-identical to a bare one.

use prs_core::{run_iterative, run_iterative_observed, ClusterSpec, FaultPlan, JobConfig, Obs};
use prs_suite::hist;
use roofline::model::DataResidency;

fn count_kind(obs: &Obs, kind: &str) -> u64 {
    obs.bus.events().iter().filter(|e| &*e.kind == kind).count() as u64
}

/// The same seeded scenario — faults included — must export
/// byte-identical artifacts across independent invocations. This is the
/// property that makes traces diffable and regressions bisectable.
#[test]
fn seeded_runs_export_byte_identical_artifacts() {
    let run = || {
        let spec = ClusterSpec::delta(2).with_faults(
            FaultPlan::seeded(42)
                .crash_gpu(1, 0, 0.05)
                .slow_cpu(0, 0.0, 0.5, 2.0)
                .with_random_jitter(2, 3, 1.0, 0.001),
        );
        let config = JobConfig::static_analytic()
            .with_iterations(2)
            .with_partition_timeout(0.2, 2);
        let obs = Obs::recording();
        let result = run_iterative_observed(
            &spec,
            hist(150_000, 8, 200.0, DataResidency::Resident),
            config,
            obs.clone(),
        )
        .unwrap();
        (result, obs)
    };

    let (ra, a) = run();
    let (rb, b) = run();
    assert_eq!(ra.outputs, rb.outputs);
    let events = a.bus.to_jsonl();
    assert_eq!(events, b.bus.to_jsonl(), "events.jsonl must replay byte-identically");
    assert_eq!(
        a.metrics.to_prometheus(),
        b.metrics.to_prometheus(),
        "metrics.prom must replay byte-identically"
    );
    let decisions = a.audit.to_jsonl();
    assert_eq!(decisions, b.audit.to_jsonl(), "decisions.jsonl must replay byte-identically");
    // And the artifacts are not vacuously equal.
    assert!(events.lines().count() > 100, "a two-node run emits real traffic");
    assert!(decisions.lines().count() >= 2, "one audit record per node per iteration");
    // Each exporter self-identifies with a pinned schema tag (readers
    // key meta-line skipping on it).
    assert!(
        events.lines().next().unwrap().contains("\"schema\":\"prs-events-v1\""),
        "events.jsonl leads with its schema meta line"
    );
    assert!(
        decisions.lines().next().unwrap().contains("\"schema\":\"prs-decisions-v1\""),
        "decisions.jsonl leads with its schema meta line"
    );
    assert_eq!(
        a.metrics.to_prometheus().lines().next(),
        Some("# schema: prs-metrics-v1"),
        "metrics.prom leads with its schema comment"
    );
    assert_eq!(obs::EVENTS_SCHEMA, "prs-events-v1");
    assert_eq!(obs::DECISIONS_SCHEMA, "prs-decisions-v1");
    assert_eq!(obs::METRICS_SCHEMA, "prs-metrics-v1");
    assert_eq!(obs::PROFILE_SCHEMA, "prs-profile-v1");
    assert_eq!(obs::STACKS_SCHEMA, "prs-stacks-v1");
    assert_eq!(insight::DIFF_SCHEMA, "prs-diff-v1");
}

/// Master-level recovery under a stalled node: the `retry` and
/// `reassign` events on the `master` lane must match the recovery
/// counters one for one — they are emitted in the very branches that
/// increment the counters, and this pins that invariant from outside.
#[test]
fn straggler_recovery_appears_in_the_event_stream() {
    let spec = ClusterSpec::delta(2)
        .with_faults(FaultPlan::seeded(2).stall_node(1, 0.0, 10.0, 5.0));
    let config = JobConfig::static_analytic().with_partition_timeout(0.1, 1);
    let obs = Obs::recording();
    let result =
        run_iterative_observed(&spec, hist(100_000, 8, 50.0, DataResidency::Staged), config, obs.clone())
            .unwrap();

    let r = result.metrics.recovery;
    assert_eq!(r.retries, 2, "scenario arithmetic: one retry per stalled partition");
    assert_eq!(r.reassignments, 2);
    assert_eq!(count_kind(&obs, "retry"), r.retries);
    assert_eq!(count_kind(&obs, "reassign"), r.reassignments);
    // The registry's recovery counters are the same numbers again.
    assert_eq!(
        obs.metrics.counter("prs_recovery_total", &[("action", "retry")]),
        Some(r.retries as f64)
    );
    assert_eq!(
        obs.metrics.counter("prs_recovery_total", &[("action", "reassignment")]),
        Some(r.reassignments as f64)
    );
    // Recovery events live on the master lane and carry source/target.
    for e in obs.bus.events().iter().filter(|e| &*e.kind == "reassign") {
        assert_eq!(&*e.lane, "master");
        assert!(e.attrs.iter().any(|(k, _)| *k == "from"));
        assert!(e.attrs.iter().any(|(k, _)| *k == "to"));
    }
}

/// A GPU daemon crash mid-map: the death, the re-queued blocks, and the
/// survivor recompute all surface as structured events / audit records
/// with counts matching [`RecoveryCounters`].
#[test]
fn gpu_crash_surfaces_as_events_and_survivor_audit() {
    let mk = || hist(400_000, 16, 500.0, DataResidency::Resident);
    let config = JobConfig::static_analytic().with_iterations(2);
    let clean = run_iterative(&ClusterSpec::delta(2), mk(), config).unwrap();

    let crash_at = clean.metrics.setup_seconds + 0.4 * clean.metrics.iterations[0].map;
    let spec =
        ClusterSpec::delta(2).with_faults(FaultPlan::seeded(1).crash_gpu(0, 0, crash_at));
    let obs = Obs::recording();
    let faulty = run_iterative_observed(&spec, mk(), config, obs.clone()).unwrap();
    assert_eq!(faulty.outputs, clean.outputs);

    let r = faulty.metrics.recovery;
    assert_eq!(r.gpu_daemon_crashes, 1);
    assert!(r.blocks_requeued > 0);
    assert_eq!(count_kind(&obs, "gpu-crash"), r.gpu_daemon_crashes);
    assert_eq!(count_kind(&obs, "block-requeued"), r.blocks_requeued);
    assert_eq!(
        obs.metrics.counter("prs_recovery_total", &[("action", "gpu_daemon_crash")]),
        Some(r.gpu_daemon_crashes as f64)
    );
    assert_eq!(
        obs.metrics.counter("prs_recovery_total", &[("action", "block_requeued")]),
        Some(r.blocks_requeued as f64)
    );

    // Iteration 1 on node 0 runs on the survivors: the audit log records
    // the recompute with the reduced census and the CPU-only outcome.
    let recompute: Vec<_> = obs
        .audit
        .records()
        .into_iter()
        .filter(|d| d.trigger == "survivor-recompute")
        .collect();
    assert!(!recompute.is_empty(), "GPU death must trigger an audited recompute");
    for d in &recompute {
        assert_eq!(d.node, 0);
        assert!(d.gpus_usable < d.gpus_total);
        assert_eq!(d.cpu_fraction, 1.0, "all GPUs on node 0 died: p recomputes to 1");
        assert!(d.observed_map_secs.is_some(), "completed decisions carry observed times");
    }
}

/// Recording must not perturb the simulation: an instrumented run's
/// virtual clock is bit-identical to a bare one, even under faults.
#[test]
fn observation_leaves_faulty_runs_bit_identical() {
    let mk = || hist(120_000, 10, 100.0, DataResidency::Staged);
    let spec = ClusterSpec::delta(2)
        .with_faults(FaultPlan::seeded(7).crash_gpu(0, 0, 0.05).slow_cpu(1, 0.0, 0.5, 1.5));
    let config = JobConfig::static_analytic().with_iterations(2).with_partition_timeout(0.5, 1);

    let bare = run_iterative(&spec, mk(), config).unwrap();
    let observed = run_iterative_observed(&spec, mk(), config, Obs::recording()).unwrap();

    assert_eq!(bare.outputs, observed.outputs);
    assert_eq!(
        bare.metrics.total_seconds.to_bits(),
        observed.metrics.total_seconds.to_bits(),
        "recording must never advance virtual time"
    );
    assert_eq!(
        bare.metrics.compute_seconds.to_bits(),
        observed.metrics.compute_seconds.to_bits()
    );
    assert_eq!(bare.metrics.recovery, observed.metrics.recovery);
}
