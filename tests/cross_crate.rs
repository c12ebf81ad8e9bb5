//! Cross-crate integration tests: behaviours that only show up when the
//! whole stack (simtime -> device/netsim -> prs-core -> apps/baselines)
//! is wired together — output equivalence between runtimes, end-to-end
//! determinism, and failure injection.

use prs_apps::{BatchFft, CMeans, DaKmeans, KMeans, WordCount};
use prs_baselines::run_mpi_gpu;
use prs_core::{run_iterative, run_job, CheckpointableApp, ClusterSpec, JobConfig, JobError};
use prs_data::gaussian::{clustering_workload, MixtureSpec};
use prs_data::matrix::MatrixF32;
use prs_suite::fnv1a;
use std::sync::Arc;

fn ring_points(n: usize) -> Arc<MatrixF32> {
    let spec = MixtureSpec::ring(3, 3, 30.0, 1.0);
    Arc::new(prs_data::generate(&spec, n, 5).points)
}

/// The PRS and the bare-MPI baseline drive the same app to (numerically)
/// the same model: centers agree to float tolerance.
#[test]
fn prs_and_mpi_baseline_agree_on_cmeans_centers() {
    let pts = ring_points(2000);
    let prs_app = Arc::new(CMeans::new(pts.clone(), 3, 2.0, 1e-12, 9));
    run_iterative(
        &ClusterSpec::delta(2),
        prs_app.clone(),
        JobConfig::static_analytic().with_iterations(5),
    )
    .unwrap();

    let mpi_app = Arc::new(CMeans::new(pts, 3, 2.0, 1e-12, 9));
    run_mpi_gpu(&ClusterSpec::delta(2), mpi_app.clone(), 5);

    let a = prs_app.centers();
    let b = mpi_app.centers();
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(
            (x - y).abs() < 1e-3,
            "centers diverged between runtimes: {x} vs {y}"
        );
    }
}

/// End-to-end determinism: an identical full-stack job produces identical
/// virtual timings and outputs across repeated runs.
#[test]
fn full_stack_runs_are_bit_deterministic() {
    let run = || {
        let app = Arc::new(WordCount::synthetic(30_000, 40, 8));
        let r = run_job(&ClusterSpec::delta(3), app, JobConfig::dynamic(777)).unwrap();
        (
            r.outputs,
            r.metrics.total_seconds.to_bits(),
            r.metrics.compute_seconds.to_bits(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "virtual end time must be bit-identical");
    assert_eq!(a.2, b.2);
}

/// Failure injection: a resident working set that exceeds GPU memory is a
/// loud, diagnosable error — refused by validation before the clock
/// starts, naming the node and both sizes — not a silent mis-timing (and
/// no longer a panic inside the staging process).
#[test]
fn oversized_resident_working_set_fails_loudly() {
    struct Huge;
    impl prs_core::SpmdApp for Huge {
        type Inter = u64;
        type Output = u64;
        fn num_items(&self) -> usize {
            1 << 20
        }
        fn item_bytes(&self) -> u64 {
            1 << 20 // 1 TB total: cannot fit a 6 GB C2070
        }
        fn workload(&self) -> roofline::schedule::Workload {
            roofline::schedule::Workload::uniform(
                500.0,
                roofline::model::DataResidency::Resident,
            )
        }
        fn cpu_map(&self, _: usize, r: std::ops::Range<usize>) -> Vec<(prs_core::Key, u64)> {
            vec![(0, r.len() as u64)]
        }
        fn gpu_map(&self, n: usize, r: std::ops::Range<usize>) -> Vec<(prs_core::Key, u64)> {
            self.cpu_map(n, r)
        }
        fn reduce(&self, _: prs_core::DeviceClass, _: prs_core::Key, v: Vec<u64>) -> u64 {
            v.iter().sum()
        }
    }
    let err = run_job(&ClusterSpec::delta(1), Arc::new(Huge), JobConfig::static_analytic())
        .unwrap_err();
    match err {
        JobError::InvalidConfig(msg) => {
            let (asked, there) = (1u64 << 40, 6u64 << 30);
            assert!(
                msg.contains("node 0")
                    && msg.contains(&format!("{asked} bytes"))
                    && msg.contains(&format!("{there} bytes")),
                "unexpected message: {msg}"
            );
        }
        other => panic!("expected the config to be refused, got {other:?}"),
    }
}

/// The FFT app's Parseval invariant survives the full distributed path
/// (splitting, shuffling, reduction).
#[test]
fn fft_parseval_holds_through_the_runtime() {
    let app = Arc::new(BatchFft::synthetic(256, 256, 4));
    let expected = 256.0 * app.total_time_energy();
    let result = run_job(&ClusterSpec::delta(3), app, JobConfig::static_analytic()).unwrap();
    let spectral: f64 = result.outputs.iter().map(|(_, e)| e).sum();
    assert!(
        (spectral - expected).abs() < 1e-6 * expected,
        "{spectral} vs {expected}"
    );
}

/// DA clustering through the runtime is seed-free: two full runs land on
/// identical centers.
#[test]
fn da_clustering_is_deterministic_through_the_runtime() {
    let pts = ring_points(1200);
    let run = || {
        let app = Arc::new(DaKmeans::new(pts.clone(), 3, 0.8, 1e-3));
        run_iterative(
            &ClusterSpec::delta(2),
            app.clone(),
            JobConfig::static_analytic().with_iterations(300),
        )
        .unwrap();
        app.centers()
    };
    assert_eq!(run(), run());
}

/// Dynamic scheduling load-balances: with a shared queue, both device
/// classes execute map tasks.
#[test]
fn dynamic_mode_uses_both_device_classes() {
    let app = Arc::new(WordCount::synthetic(200_000, 30, 2));
    let result = run_job(&ClusterSpec::delta(1), app, JobConfig::dynamic(2000)).unwrap();
    assert!(result.metrics.cpu_map_tasks > 0, "CPU got tasks");
    assert!(result.metrics.gpu_map_tasks > 0, "GPU got tasks");
}

fn center_hash(centers: &MatrixF32) -> u64 {
    fnv1a(centers.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn bits(history: &[f64]) -> Vec<u64> {
    history.iter().map(|v| v.to_bits()).collect()
}

/// Numerics pinned across commits: these constants were taken on the
/// commit *before* the center-based apps moved to the shared center panel
/// (`CenterPanel` in `crates/apps/src/common.rs`). A kernel change may
/// move layout and host time, never a bit of these (DESIGN.md, "Kernel
/// numerics contract"); do not regenerate them to make a kernel change
/// pass.
#[test]
fn clustering_numerics_are_pinned_across_commits() {
    let pts = Arc::new(clustering_workload(5000, 32, 8, 17).points);
    let cluster = ClusterSpec::delta(2);
    let three = || JobConfig::static_analytic().with_iterations(3);

    for (fuzzifier, objective, state) in [
        (2.0, PINNED_CMEANS_M2_OBJECTIVE, PINNED_CMEANS_M2_STATE),
        (3.0, PINNED_CMEANS_M3_OBJECTIVE, PINNED_CMEANS_M3_STATE),
    ] {
        let app = Arc::new(CMeans::new(pts.clone(), 8, fuzzifier, 1e-12, 17));
        run_iterative(&cluster, app.clone(), three()).unwrap();
        assert_eq!(bits(&app.objective_history()), objective, "m = {fuzzifier}");
        assert_eq!(fnv1a(app.save_state()), state, "m = {fuzzifier}");
    }

    let app = Arc::new(KMeans::new(pts.clone(), 8, 1e-12, 17));
    run_iterative(&cluster, app.clone(), three()).unwrap();
    assert_eq!(bits(&app.objective_history()), PINNED_KMEANS_SSE);
    assert_eq!(center_hash(&app.centers()), PINNED_KMEANS_CENTERS);

    // Sixty sweeps take DA well down its cooling schedule, where most
    // responsibilities fall under the 1e-12 cut-off.
    let app = Arc::new(DaKmeans::new(pts, 8, 0.8, 1e-3));
    let sixty = JobConfig::static_analytic().with_iterations(60);
    run_iterative(&cluster, app.clone(), sixty).unwrap();
    assert_eq!(app.temperature().to_bits(), PINNED_DA_TEMPERATURE);
    assert_eq!(center_hash(&app.centers()), PINNED_DA_CENTERS);
}

const PINNED_CMEANS_M2_OBJECTIVE: [u64; 3] =
    [0x410cefcce07a1b29, 0x4102a6683cd654ff, 0x4101b9ccfd061d6a];
const PINNED_CMEANS_M2_STATE: u64 = 0xf6d96af7704f4e36;
const PINNED_CMEANS_M3_OBJECTIVE: [u64; 3] =
    [0x40dfe3667e40e893, 0x40d58fc548261a5a, 0x40d4743a0b2bc43d];
const PINNED_CMEANS_M3_STATE: u64 = 0x1c2b6c9a9879ad39;
const PINNED_KMEANS_SSE: [u64; 3] =
    [0x41339c941856d0e4, 0x411737807f118f78, 0x410d8d3eb219388a];
const PINNED_KMEANS_CENTERS: u64 = 0x38db0418c9eca345;
const PINNED_DA_TEMPERATURE: u64 = 0x3f9784469327613d;
const PINNED_DA_CENTERS: u64 = 0xfd8640dd94db517d;
