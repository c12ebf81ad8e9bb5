//! Online-calibration convergence suite: when the configured hardware
//! profile is wrong, `--calibrate online` must learn the truth.
//!
//! The simulator's hardware timing and the scheduler's analytic model
//! share one `DeviceProfile`, so "deliberately wrong profile" is staged
//! with a whole-run `slow_gpu` fault: node 0's GPU takes 2× the modeled
//! time, i.e. the configured profile over-predicts its speed by 2×.
//! Under online calibration the EWMA fit must drive the audited
//! `|predicted − observed| / observed` map-time error down each
//! iteration and steer Equation (8)'s split toward the one a truthful
//! profile would have produced, while the un-faulted node stays at the
//! configured split.

use prs_core::{run_iterative_observed, ClusterSpec, FaultPlan, JobConfig, Obs};
use prs_suite::hist;
use roofline::model::DataResidency;
use roofline::profiles::DeviceProfile;
use roofline::schedule::{split_multi_gpu, Workload};

const ITERS: usize = 8;

/// Runs the wrong-profile scenario, calibrating online with `alpha` when
/// one is given, and returns the job's `total_seconds` and, per node, the
/// `(cpu_fraction, map_error)` sequence over the iterations.
fn run_with(alpha: Option<f64>) -> (f64, Vec<Vec<(f64, f64)>>) {
    // Node 0's GPU runs at half the configured speed for the whole job.
    let spec = ClusterSpec::delta(2)
        .with_faults(FaultPlan::seeded(3).slow_gpu(0, 0, 0.0, 1e9, 2.0));
    let mut config = JobConfig::static_analytic().with_iterations(ITERS);
    if let Some(alpha) = alpha {
        config = config.with_online_calibration(alpha);
    }
    let obs = Obs::recording();
    let result = run_iterative_observed(
        &spec,
        hist(400_000, 16, 500.0, DataResidency::Resident),
        config,
        obs.clone(),
    )
    .unwrap();
    let mut per_node = vec![Vec::new(); 2];
    for rec in obs.audit.records() {
        let err = rec.map_error().expect("completed decision");
        per_node[rec.node].push((rec.cpu_fraction, err));
    }
    (result.metrics.total_seconds, per_node)
}

/// The split a truthful profile would compute for node 0: the slowdown
/// halves the GPU's effective roofline.
fn true_p(w: &Workload) -> f64 {
    let mut slowed = DeviceProfile::delta_node();
    slowed.gpus[0].peak_flops /= 2.0;
    slowed.gpus[0].dram_bw /= 2.0;
    split_multi_gpu(&slowed, w, 1).cpu_fraction
}

#[test]
fn online_calibration_converges_on_the_faulted_node() {
    let (_, per_node) = run_with(Some(0.5));
    let node0 = &per_node[0];
    assert_eq!(node0.len(), ITERS);

    let w = Workload::uniform(500.0, DataResidency::Resident);
    let p_configured = split_multi_gpu(&DeviceProfile::delta_node(), &w, 1).cpu_fraction;
    assert!((p_configured - 0.1120690).abs() < 1e-6, "golden Eq (8) split");

    // Iteration 0 has no observations yet: the fit equals the seed.
    assert!(
        (node0[0].0 - p_configured).abs() < 1e-9,
        "first split must come from the configured profile, got {}",
        node0[0].0
    );

    // The audited model error shrinks strictly, iteration over iteration.
    let errs: Vec<f64> = node0.iter().map(|(_, e)| e).copied().collect();
    for pair in errs.windows(2) {
        assert!(
            pair[1] < pair[0],
            "model error must shrink monotonically: {errs:?}"
        );
    }

    // Acceptance bound: mean error over the last three iterations under
    // half the mean over the first three.
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first3 = mean(&errs[..3]);
    let last3 = mean(&errs[ITERS - 3..]);
    assert!(
        last3 < 0.5 * first3,
        "last-3 mean {last3:.4} must undercut half of first-3 mean {first3:.4}"
    );

    // The split converges to the truthful profile's static answer.
    let p_final = node0.last().unwrap().0;
    let p_true = true_p(&w);
    assert!((p_true - 130.0 / 645.0).abs() < 1e-9, "2× slower GPU peaks at 515 Gflop/s");
    assert!(
        (p_final - p_true).abs() / p_true < 0.05,
        "final p {p_final:.4} must land within 5% of the true split {p_true:.4}"
    );
}

#[test]
fn unfaulted_node_stays_at_the_configured_split() {
    let (_, per_node) = run_with(Some(0.5));
    let node1 = &per_node[1];
    assert_eq!(node1.len(), ITERS);
    let w = Workload::uniform(500.0, DataResidency::Resident);
    let p_configured = split_multi_gpu(&DeviceProfile::delta_node(), &w, 1).cpu_fraction;
    for (p, err) in node1 {
        // Node 1's hardware matches its profile: the fit is a fixed point
        // up to scheduling overheads the model does not charge.
        assert!(
            (p - p_configured).abs() < 0.05,
            "node 1 split {p:.4} drifted from configured {p_configured:.4}"
        );
        assert!(*err < 0.25, "node 1 model error {err:.4} should stay small");
    }
}

#[test]
fn static_model_stays_wrong_without_calibration() {
    // Control: with calibration off, the faulted node's model error never
    // improves — the analytic model keeps trusting the bad profile.
    let (_, per_node) = run_with(None);
    let node0 = &per_node[0];
    assert_eq!(node0.len(), ITERS);
    let first = node0[0].1;
    let last = node0[ITERS - 1].1;
    assert!(
        (last - first).abs() < 0.05 * first.max(1e-12),
        "static errors should stay flat: first {first:.4}, last {last:.4}"
    );
    // Every iteration uses the same configured split.
    for (p, _) in &node0[1..] {
        assert!((p - node0[0].0).abs() < 1e-12);
    }
}

/// The frozen-fit law: with `alpha = 0` the EWMA never leaves the
/// configured profile, so every re-solve of Equation (8) returns the
/// static split and the calibrated run's virtual clock is the
/// uncalibrated run's to the bit — on the scenario where `alpha = 0.5`
/// does move both.
#[test]
fn zero_alpha_freezes_the_fit_and_the_virtual_clock() {
    let (bare_secs, bare) = run_with(None);
    let (frozen_secs, frozen) = run_with(Some(0.0));
    assert_eq!(
        frozen_secs.to_bits(),
        bare_secs.to_bits(),
        "alpha = 0 moved the clock: {frozen_secs} vs {bare_secs}"
    );
    assert_eq!(frozen, bare, "alpha = 0 moved a split or a predicted map time");
    let (moved_secs, moved) = run_with(Some(0.5));
    assert_ne!(moved_secs.to_bits(), bare_secs.to_bits(), "the scenario must be able to move");
    assert_ne!(moved[0], bare[0]);
}
