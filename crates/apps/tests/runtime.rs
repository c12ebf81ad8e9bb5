//! End-to-end tests: every application through the full PRS runtime
//! (master → workers → device daemons → shuffle → reduce → update) on
//! small simulated clusters, checked against serial references.

use prs_apps::{serial_cmeans, CMeans, CsrMatrix, Dgemm, Gemv, Gmm, KMeans, Spmv, WordCount};
use prs_core::{run_iterative, run_job, run_job_observed, ClusterSpec, JobConfig, Obs};
use prs_data::gaussian::MixtureSpec;
use prs_data::matrix::{gemm_seq, gemv_seq, MatrixF32};
use prs_data::rng::SplitMix64;
use std::sync::Arc;

fn ring_points(n: usize, k: usize, seed: u64) -> Arc<MatrixF32> {
    let spec = MixtureSpec::ring(k, 3, 40.0, 1.0);
    Arc::new(prs_data::generate(&spec, n, seed).points)
}

#[test]
fn gemv_on_prs_matches_serial_exactly() {
    let mut rng = SplitMix64::new(4);
    let a = Arc::new(MatrixF32::from_fn(300, 50, |_, _| rng.next_f32() - 0.5));
    let x: Arc<Vec<f32>> = Arc::new((0..50).map(|_| rng.next_f32()).collect());
    let mut expect = vec![0.0f32; 300];
    gemv_seq(&a, &x, &mut expect);

    let app = Arc::new(Gemv::new(a, x));
    let result = run_job(&ClusterSpec::delta(3), app.clone(), JobConfig::static_analytic())
        .expect("job runs");
    let y = app.assemble(&result.outputs);
    assert_eq!(y, expect, "per-row determinism makes this bit-exact");
}

#[test]
fn gemv_scheduling_modes_agree() {
    let mut rng = SplitMix64::new(5);
    let a = Arc::new(MatrixF32::from_fn(200, 40, |_, _| rng.next_f32()));
    let x: Arc<Vec<f32>> = Arc::new((0..40).map(|_| rng.next_f32()).collect());
    let mk = |cfg| {
        let app = Arc::new(Gemv::new(a.clone(), x.clone()));
        let r = run_job(&ClusterSpec::delta(2), app.clone(), cfg).unwrap();
        app.assemble(&r.outputs)
    };
    let y_static = mk(JobConfig::static_analytic());
    let y_dynamic = mk(JobConfig::dynamic(17));
    let y_gpu = mk(JobConfig::gpu_only());
    assert_eq!(y_static, y_dynamic);
    assert_eq!(y_static, y_gpu);
}

#[test]
fn wordcount_on_prs_matches_serial() {
    let app = Arc::new(WordCount::synthetic(20_000, 25, 9));
    let expect = app.serial_counts();
    let result = run_job(&ClusterSpec::delta(4), app.clone(), JobConfig::static_analytic())
        .expect("job runs");
    let mut counts = vec![0u64; 25];
    for (k, c) in &result.outputs {
        counts[*k as usize] += c;
    }
    assert_eq!(counts, expect);
}

#[test]
fn dgemm_on_prs_matches_reference() {
    let mut rng = SplitMix64::new(6);
    let a = Arc::new(MatrixF32::from_fn(60, 40, |_, _| rng.next_f32() - 0.5));
    let b = Arc::new(MatrixF32::from_fn(40, 30, |_, _| rng.next_f32() - 0.5));
    let mut expect = MatrixF32::zeros(60, 30);
    gemm_seq(&a, &b, &mut expect);

    let app = Arc::new(Dgemm::new(a, b));
    let result = run_job(&ClusterSpec::delta(2), app.clone(), JobConfig::static_analytic())
        .expect("job runs");
    let c = app.assemble(&result.outputs);
    for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
        assert!((x - y).abs() < 1e-4);
    }
}

#[test]
fn cmeans_on_prs_converges_like_serial() {
    let pts = ring_points(1200, 3, 7);
    let (serial_centers, serial_hist) = serial_cmeans(&pts, 3, 2.0, 1e-3, 13, 40);

    let app = Arc::new(CMeans::new(pts.clone(), 3, 2.0, 1e-3, 13));
    let result = run_iterative(
        &ClusterSpec::delta(2),
        app.clone(),
        JobConfig::static_analytic().with_iterations(40),
    )
    .expect("job runs");

    // Same math, different (deterministic) summation trees: centers agree
    // to float tolerance and iteration counts match.
    assert_eq!(result.metrics.iterations.len(), serial_hist.len());
    let prs_centers = app.centers();
    for j in 0..3 {
        for (a, b) in prs_centers.row(j).iter().zip(serial_centers.row(j)) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }
    // Objective decreases monotonically on the PRS run too.
    let hist = app.objective_history();
    for w in hist.windows(2) {
        assert!(w[1] <= w[0] * (1.0 + 1e-9));
    }
}

#[test]
fn kmeans_on_prs_recovers_clusters() {
    let pts = ring_points(2000, 4, 8);
    let app = Arc::new(KMeans::new(pts.clone(), 4, 1e-3, 17));
    run_iterative(
        &ClusterSpec::delta(2),
        app.clone(),
        JobConfig::static_analytic().with_iterations(60),
    )
    .expect("job runs");
    let labels = app.labels(&pts);
    let mut seen = [false; 4];
    for &l in &labels {
        seen[l as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "all clusters populated");
    assert!(app.objective_history().len() >= 2);
}

#[test]
fn gmm_on_prs_increases_likelihood() {
    let spec = MixtureSpec::ring(2, 2, 30.0, 1.5);
    let pts = Arc::new(prs_data::generate(&spec, 1500, 3).points);
    let app = Arc::new(Gmm::new(pts, 2, 1e-7, 11));
    let result = run_iterative(
        &ClusterSpec::delta(2),
        app.clone(),
        JobConfig::static_analytic().with_iterations(30),
    )
    .expect("job runs");
    let hist = app.log_likelihood_history();
    assert!(hist.len() >= 3);
    for w in hist.windows(2) {
        assert!(w[1] >= w[0] - 1e-6 * w[0].abs(), "LL decreased");
    }
    assert!(result.metrics.gpu_map_tasks > 0, "high AI: GPU does work");
    // Equation (8) on Delta at high AI: ~11.2 % of work to the CPU.
    let p = result.metrics.cpu_fraction.unwrap();
    assert!((p - 0.112).abs() < 0.01, "p = {p}");
}

#[test]
fn cmeans_weak_scaling_is_roughly_flat() {
    // Gflops/node should stay roughly constant from 1 to 4 nodes when the
    // per-node workload is fixed (Figure 6's linear weak scaling).
    let per_node = 6000;
    let mut rates = Vec::new();
    for nodes in [1usize, 2, 4] {
        let pts = ring_points(per_node * nodes, 3, 29);
        let app = Arc::new(CMeans::new(pts, 3, 2.0, 1e-9, 5));
        let result = run_iterative(
            &ClusterSpec::delta(nodes),
            app,
            JobConfig::static_analytic().with_iterations(3),
        )
        .unwrap();
        rates.push(result.metrics.gflops_per_node());
    }
    for r in &rates {
        assert!(*r > 0.0);
    }
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rates.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min < 1.35,
        "weak scaling not flat: {rates:?} (max/min = {})",
        max / min
    );
}

#[test]
fn dgemm_agrees_across_modes_and_multi_gpu() {
    let mut rng = SplitMix64::new(12);
    let a = Arc::new(MatrixF32::from_fn(48, 32, |_, _| rng.next_f32() - 0.5));
    let b = Arc::new(MatrixF32::from_fn(32, 24, |_, _| rng.next_f32() - 0.5));
    let run = |cfg| {
        let app = Arc::new(Dgemm::new(a.clone(), b.clone()));
        let r = run_job(&ClusterSpec::delta(2), app.clone(), cfg).unwrap();
        app.assemble(&r.outputs)
    };
    let reference = run(JobConfig::static_analytic());
    for cfg in [
        JobConfig::dynamic(7),
        JobConfig::static_analytic().with_gpus(2),
        JobConfig::gpu_only().with_streams(4),
        JobConfig::cpu_only(),
    ] {
        assert_eq!(run(cfg), reference, "config {cfg:?}");
    }
}

#[test]
fn gmm_converges_under_dynamic_scheduling() {
    let spec_data = MixtureSpec::ring(2, 2, 25.0, 1.0);
    let pts = Arc::new(prs_data::generate(&spec_data, 800, 9).points);
    let app = Arc::new(Gmm::new(pts, 2, 1e-7, 3));
    run_iterative(
        &ClusterSpec::delta(2),
        app.clone(),
        JobConfig::dynamic(100).with_iterations(25),
    )
    .unwrap();
    let hist = app.log_likelihood_history();
    assert!(hist.len() >= 2);
    for w in hist.windows(2) {
        assert!(w[1] >= w[0] - 1e-6 * w[0].abs());
    }
}

#[test]
fn wordcount_on_bigred2_cluster() {
    // The second hardware profile end to end.
    let app = Arc::new(WordCount::synthetic(10_000, 15, 4));
    let expect = app.serial_counts();
    let result = run_job(
        &ClusterSpec::bigred2(3),
        app,
        JobConfig::static_analytic(),
    )
    .unwrap();
    let mut counts = vec![0u64; 15];
    for (k, c) in &result.outputs {
        counts[*k as usize] += c;
    }
    assert_eq!(counts, expect);
    // WordCount AI=0.1 staged: the Opteron complex takes nearly all work.
    assert!(result.metrics.cpu_fraction.unwrap() > 0.9);
}

#[test]
fn spmv_on_prs_matches_reference_across_modes() {
    let m = Arc::new(CsrMatrix::synthetic(5000, 800, 6, 21));
    let mut rng = SplitMix64::new(22);
    let x: Arc<Vec<f32>> = Arc::new((0..800).map(|_| rng.next_f32() - 0.5).collect());
    let expect = m.spmv_ref(&x);
    for cfg in [
        JobConfig::static_analytic(),
        JobConfig::dynamic(333),
        JobConfig::gpu_only(),
    ] {
        let app = Arc::new(Spmv::new(m.clone(), x.clone()));
        let r = run_job(&ClusterSpec::delta(2), app.clone(), cfg).unwrap();
        let y = app.assemble(&r.outputs);
        assert_eq!(y.len(), expect.len());
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}

#[test]
fn spmv_prefers_the_cpu_like_the_low_band_should() {
    let m = Arc::new(CsrMatrix::synthetic(20_000, 2000, 8, 5));
    let x: Arc<Vec<f32>> = Arc::new(vec![1.0; 2000]);
    let app = Arc::new(Spmv::new(m, x));
    let r = run_job(&ClusterSpec::delta(1), app, JobConfig::static_analytic()).unwrap();
    // AI = 0.25 staged: nearly everything should land on the CPU.
    assert!(r.metrics.cpu_fraction.unwrap() > 0.95);
    assert!(r.metrics.cpu_map_tasks > r.metrics.gpu_map_tasks);
}

#[test]
fn gpu_plus_cpu_beats_gpu_only_for_gemv() {
    // The §IV.B headline: for low-AI staged GEMV the CPU+GPU configuration
    // is many times faster than GPU-only.
    // Large enough that bandwidth terms dominate fixed overheads
    // (an 80 MB matrix, ~1/18th of the paper's 35000x10000).
    let mut rng = SplitMix64::new(10);
    let a = Arc::new(MatrixF32::from_fn(20_000, 1000, |_, _| rng.next_f32()));
    let x: Arc<Vec<f32>> = Arc::new((0..1000).map(|_| rng.next_f32()).collect());
    let both = run_job(
        &ClusterSpec::delta(1),
        Arc::new(Gemv::new(a.clone(), x.clone())),
        JobConfig::static_analytic(),
    )
    .unwrap();
    let gpu_only = run_job(
        &ClusterSpec::delta(1),
        Arc::new(Gemv::new(a, x)),
        JobConfig::gpu_only(),
    )
    .unwrap();
    let speedup = gpu_only.metrics.compute_seconds / both.metrics.compute_seconds;
    assert!(
        speedup > 3.0,
        "expected large GEMV speedup from adding the CPU, got {speedup:.2}x"
    );
}

/// The whole keyed path — generator stream, map blocks, combine, shuffle
/// into buckets, reduce grouping — as one hash per configuration: FNV-1a
/// over every `(key, output)`, then `sim_events`, the number of network
/// messages and their wire bytes. The constants were taken on commit
/// d804ce4, before the weighted-draw table, the hash-free `cpu_map` and
/// the sort-grouped combine/reduce replaced what computed them; a
/// host-side change to any of those may not move one.
#[test]
fn wordcount_job_is_pinned_across_commits() {
    let spec = ClusterSpec::homogeneous(
        16,
        roofline::profiles::DeviceProfile::micro_node(),
        netsim::NetworkParams::infiniband_qdr(),
    );
    let mut got = Vec::new();
    for seed in [42u64, 7] {
        let app = Arc::new(WordCount::synthetic(200_000, 800, seed));
        for dynamic in [false, true] {
            for use_combiner in [true, false] {
                let mut config = if dynamic {
                    JobConfig::dynamic(100)
                } else {
                    JobConfig::static_analytic()
                };
                config.use_combiner = use_combiner;
                let obs = Obs::recording();
                let r = run_job_observed(&spec, app.clone(), config, obs.clone())
                    .expect("job runs");
                let (msgs, wire) = obs.bus.with_events(|events| {
                    let sends = events.iter().filter(|e| e.kind() == "msg-send");
                    // The master's control messages carry no `bytes`.
                    let bytes = sends
                        .clone()
                        .flat_map(|e| e.attrs().find(|(k, _)| *k == "bytes"))
                        .map(|(_, b)| b as u64);
                    (sends.count() as u64, bytes.sum::<u64>())
                });
                let words = r
                    .outputs
                    .iter()
                    .flat_map(|(k, c)| [*k, *c])
                    .chain([r.metrics.sim_events, msgs, wire]);
                let hash = words
                    .flat_map(u64::to_le_bytes)
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                got.push(hash);
            }
        }
    }
    assert_eq!(got, PINNED_WORDCOUNT_JOBS, "{got:#018x?}");
}

/// Seeds 42 then 7 × `{static, dynamic:100}` × combiner `{on, off}`.
const PINNED_WORDCOUNT_JOBS: [u64; 8] = [
    0xa6e6_e01d_a172_5ff5,
    0xae26_53d4_2e72_4ead,
    0x4f50_4c61_b47a_f2e3,
    0x9083_bab2_b388_870b,
    0xe2b3_dd5c_9f5c_2d2f,
    0xd35a_bd7b_abca_8ed6,
    0x9420_a415_408a_5deb,
    0xf33d_aba6_d3ce_2286,
];
