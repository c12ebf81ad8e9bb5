//! # prs-core — the PRS heterogeneous MapReduce runtime
//!
//! The paper's primary contribution, reproduced: a parallel runtime system
//! that co-processes SPMD computation on CPUs and GPUs clusters.
//!
//! - [`api`] — the heterogeneous MapReduce programming model (CPU and GPU
//!   flavours of map/reduce/combine — paper Table 1).
//! - [`config`] — job configuration: static (analytic, Equation (8)) vs
//!   dynamic (polling) scheduling, granularities, streams, caching.
//! - [`cluster`] — the cluster description (profiles + fabric).
//! - [`job`] — orchestration: the entry points, the master task scheduler
//!   and the run summary; the per-node sub-task scheduler (one method per
//!   stage of the paper's superstep) and the CPU/GPU device daemons live
//!   beside it in `worker.rs`.
//! - [`metrics`] — per-stage timing and device counters.
//! - [`faults`] — deterministic fault injection (GPU crashes, stragglers,
//!   network disruptions, whole-node and master crashes) and the
//!   scheduler's recovery machinery.
//! - [`epoch`] — the epoch driver: one loop that carries an iterative job
//!   through node and master crashes, membership churn and autoscaler
//!   decisions by restoring the latest iteration checkpoint (the model
//!   state, its iteration and its clock) on the current cluster.
//! - [`membership`] — elastic cluster membership: seeded churn plans
//!   (scale-out / drain / evict) and the hysteresis autoscaler policy.
//! - [`chaos`] — a seeded chaos harness sampling fault plans across
//!   cluster shapes and asserting recovery invariants.
//!
//! ```
//! use prs_core::{run_job, ClusterSpec, DeviceClass, JobConfig, Key, SpmdApp};
//! use roofline::model::DataResidency;
//! use roofline::schedule::Workload;
//! use std::sync::Arc;
//!
//! /// Count odd and even items — the smallest possible SPMD app.
//! struct Parity(usize);
//!
//! impl SpmdApp for Parity {
//!     type Inter = u64;
//!     type Output = u64;
//!     fn num_items(&self) -> usize { self.0 }
//!     fn item_bytes(&self) -> u64 { 8 }
//!     fn workload(&self) -> Workload {
//!         Workload::uniform(2.0, DataResidency::Staged)
//!     }
//!     fn cpu_map(&self, _n: usize, r: std::ops::Range<usize>) -> Vec<(Key, u64)> {
//!         r.map(|i| ((i % 2) as Key, 1)).collect()
//!     }
//!     fn gpu_map(&self, n: usize, r: std::ops::Range<usize>) -> Vec<(Key, u64)> {
//!         self.cpu_map(n, r)
//!     }
//!     fn reduce(&self, _d: DeviceClass, _k: Key, v: Vec<u64>) -> u64 {
//!         v.iter().sum()
//!     }
//! }
//!
//! let result = run_job(
//!     &ClusterSpec::delta(2),
//!     Arc::new(Parity(100)),
//!     JobConfig::static_analytic(),
//! ).unwrap();
//! assert_eq!(result.outputs, vec![(0, 50), (1, 50)]);
//! println!("done in {:.3}s (virtual)", result.metrics.total_seconds);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod chaos;
pub mod cluster;
pub mod config;
pub mod epoch;
pub mod faults;
pub mod job;
pub mod membership;
pub mod metrics;
mod task;
mod timeline;
mod worker;

pub use api::{CheckpointableApp, DeviceClass, IterativeApp, Key, SpmdApp};
pub use chaos::{
    ground_truth_from_plan, run_chaos, run_chaos_churn, ChaosConfig, ChaosReport, ChaosTrial,
    ChaosWatch, ChurnReport, ChurnTrial, TrialRecording,
};
pub use cluster::ClusterSpec;
pub use config::{CalibrationMode, JobConfig, SchedulingMode};
pub use simtime::{EngineConfig, EngineMode};
pub use faults::{
    CpuSlowdown, CrashEvent, FaultPlan, GpuCrash, GpuSlowdown, LinkFault, MasterCrash, NodeCrash,
    NodeStall,
};
pub use job::{
    check_config, run_iterative, run_iterative_observed, run_job, run_job_observed, JobError,
    JobResult,
};
pub use epoch::{run_epochs, ElasticEpoch, ElasticOutcome, EpochOptions};
pub use membership::{
    AutoscalePolicy, Drain, Evict, MembershipCounters, MembershipEvent, MembershipPlan, ScaleOut,
    MAX_SCALE_OUT_NODES,
};
pub use metrics::{JobMetrics, RecoveryCounters, StageTimes};
pub use obs::Obs;
pub use obs;

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;
    use roofline::model::DataResidency;
    use roofline::schedule::Workload;
    use std::ops::Range;
    use std::sync::Arc;

    /// Histogram of item values modulo `k` — exercises map, combine,
    /// shuffle and reduce with verifiable output.
    struct ModCount {
        n: usize,
        k: u64,
        residency: DataResidency,
        ai: f64,
    }

    impl ModCount {
        fn new(n: usize, k: u64) -> Arc<Self> {
            Arc::new(ModCount {
                n,
                k,
                residency: DataResidency::Staged,
                ai: 2.0,
            })
        }

        fn resident(n: usize, k: u64, ai: f64) -> Arc<Self> {
            Arc::new(ModCount {
                n,
                k,
                residency: DataResidency::Resident,
                ai,
            })
        }
    }

    impl SpmdApp for ModCount {
        type Inter = u64;
        type Output = u64;

        fn num_items(&self) -> usize {
            self.n
        }
        fn item_bytes(&self) -> u64 {
            8
        }
        fn workload(&self) -> Workload {
            Workload::uniform(self.ai, self.residency)
        }
        fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
            range.map(|i| (i as u64 % self.k, 1)).collect()
        }
        fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
            self.cpu_map(node, range)
        }
        fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<u64>) -> u64 {
            values.iter().sum()
        }
        fn combine(&self, _key: Key, values: Vec<u64>) -> Vec<u64> {
            vec![values.iter().sum()]
        }
    }

    fn expected_counts(n: usize, k: u64) -> Vec<(Key, u64)> {
        (0..k)
            .map(|r| (r, (n as u64 - r).div_ceil(k)))
            .collect()
    }

    #[test]
    fn static_job_produces_correct_histogram() {
        let result = run_job(
            &ClusterSpec::delta(2),
            ModCount::new(1000, 7),
            JobConfig::static_analytic(),
        )
        .unwrap();
        assert_eq!(result.outputs, expected_counts(1000, 7));
    }

    #[test]
    fn all_scheduling_modes_agree_on_outputs() {
        let configs = [
            JobConfig::static_analytic(),
            JobConfig::static_with_p(0.3),
            JobConfig::dynamic(64),
            JobConfig::gpu_only(),
            JobConfig::cpu_only(),
        ];
        let expect = expected_counts(503, 5);
        for cfg in configs {
            let result = run_job(&ClusterSpec::delta(3), ModCount::new(503, 5), cfg).unwrap();
            assert_eq!(result.outputs, expect, "config {cfg:?}");
        }
    }

    #[test]
    fn single_node_cluster_works() {
        let result = run_job(
            &ClusterSpec::delta(1),
            ModCount::new(100, 3),
            JobConfig::static_analytic(),
        )
        .unwrap();
        assert_eq!(result.outputs, expected_counts(100, 3));
    }

    #[test]
    fn static_split_records_analytic_p() {
        // AI=2 staged on Delta: Equation (8) gives ~97.3 % to the CPU.
        let result = run_job(
            &ClusterSpec::delta(2),
            ModCount::new(2000, 4),
            JobConfig::static_analytic(),
        )
        .unwrap();
        let p = result.metrics.cpu_fraction.unwrap();
        assert!((p - 0.973).abs() < 0.005, "p = {p}");
        // With p ~ 0.97 most map tasks run on the CPU.
        assert!(result.metrics.cpu_map_tasks > result.metrics.gpu_map_tasks);
    }

    #[test]
    fn high_intensity_resident_prefers_gpu() {
        let result = run_job(
            &ClusterSpec::delta(2),
            ModCount::resident(2000, 4, 500.0),
            JobConfig::static_analytic(),
        )
        .unwrap();
        let p = result.metrics.cpu_fraction.unwrap();
        assert!((p - 0.112).abs() < 0.005, "p = {p}");
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let result = run_job(
            &ClusterSpec::delta(2),
            ModCount::new(5000, 8),
            JobConfig::static_analytic(),
        )
        .unwrap();
        let m = &result.metrics;
        assert_eq!(m.iterations.len(), 1);
        assert!(m.total_seconds > 0.0);
        assert!(m.setup_seconds >= 0.0);
        assert!(m.compute_seconds > 0.0);
        assert!(m.total_seconds >= m.compute_seconds);
        assert!(m.iterations[0].map > 0.0);
        assert!(m.total_flops() > 0.0);
        assert_eq!(m.cpu_stats.len(), 2);
        assert_eq!(m.gpu_stats.len(), 2);
    }

    #[test]
    fn gpu_only_executes_nothing_on_cpu() {
        let result = run_job(
            &ClusterSpec::delta(2),
            ModCount::new(1000, 4),
            JobConfig::gpu_only(),
        )
        .unwrap();
        assert_eq!(result.metrics.cpu_map_tasks, 0);
        assert!(result.metrics.gpu_map_tasks > 0);
        assert!(result.metrics.cpu_stats.iter().all(|s| s.tasks == 0));
    }

    #[test]
    fn cpu_only_runs_on_cpu_and_needs_no_gpu() {
        let prof = roofline::DeviceProfile::cpu_only("plain", 8, 80e9, 20e9);
        let spec = ClusterSpec::homogeneous(2, prof, netsim::NetworkParams::infiniband_qdr());
        let result = run_job(&spec, ModCount::new(500, 4), JobConfig::cpu_only()).unwrap();
        assert_eq!(result.outputs, expected_counts(500, 4));
        assert_eq!(result.metrics.gpu_map_tasks, 0);
    }

    #[test]
    fn gpu_mode_on_cpu_only_cluster_is_rejected() {
        let prof = roofline::DeviceProfile::cpu_only("plain", 8, 80e9, 20e9);
        let spec = ClusterSpec::homogeneous(1, prof, netsim::NetworkParams::infiniband_qdr());
        let err = run_job(&spec, ModCount::new(100, 2), JobConfig::gpu_only()).unwrap_err();
        assert!(matches!(err, JobError::InvalidConfig(_)));
    }

    #[test]
    fn empty_input_is_rejected() {
        let err = run_job(
            &ClusterSpec::delta(1),
            ModCount::new(0, 2),
            JobConfig::static_analytic(),
        )
        .unwrap_err();
        assert!(matches!(err, JobError::InvalidConfig(_)));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let r = run_job(
                &ClusterSpec::delta(3),
                ModCount::new(3000, 6),
                JobConfig::dynamic(100),
            )
            .unwrap();
            (r.outputs, r.metrics.total_seconds)
        };
        assert_eq!(run(), run());
    }

    /// Iterative app: averages converge geometrically toward zero.
    struct Damping {
        n: usize,
        state: RwLock<f64>,
        iters: RwLock<usize>,
    }

    impl SpmdApp for Damping {
        type Inter = f64;
        type Output = f64;

        fn num_items(&self) -> usize {
            self.n
        }
        fn item_bytes(&self) -> u64 {
            8
        }
        fn workload(&self) -> Workload {
            Workload::uniform(100.0, DataResidency::Resident)
        }
        fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, f64)> {
            let s = *self.state.read();
            vec![(0, s * range.len() as f64)]
        }
        fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, f64)> {
            self.cpu_map(node, range)
        }
        fn reduce(&self, _d: DeviceClass, _k: Key, values: Vec<f64>) -> f64 {
            values.iter().sum()
        }
    }

    impl IterativeApp for Damping {
        fn update(&self, outputs: &[(Key, f64)]) -> bool {
            let total: f64 = outputs.iter().map(|(_, v)| v).sum();
            let mean = total / self.n as f64;
            *self.state.write() = mean / 2.0;
            *self.iters.write() += 1;
            mean / 2.0 < 0.01
        }
    }

    #[test]
    fn iterative_job_converges_before_cap() {
        let app = Arc::new(Damping {
            n: 64,
            state: RwLock::new(1.0),
            iters: RwLock::new(0),
        });
        let result = run_iterative(
            &ClusterSpec::delta(2),
            app.clone(),
            JobConfig::static_analytic().with_iterations(50),
        )
        .unwrap();
        // mean halves each iteration from 1.0: below 0.01 after 7 updates.
        assert_eq!(*app.iters.read(), 7);
        assert_eq!(result.metrics.iterations.len(), 7);
    }

    #[test]
    fn iteration_cap_is_honored() {
        let app = Arc::new(Damping {
            n: 64,
            state: RwLock::new(1.0),
            iters: RwLock::new(0),
        });
        let result = run_iterative(
            &ClusterSpec::delta(1),
            app.clone(),
            JobConfig::static_analytic().with_iterations(3),
        )
        .unwrap();
        assert_eq!(*app.iters.read(), 3);
        assert_eq!(result.metrics.iterations.len(), 3);
    }

    #[test]
    fn calibration_requires_plain_static_scheduling() {
        for cfg in [
            JobConfig::dynamic(64).with_online_calibration(0.3),
            JobConfig::static_with_p(0.3).with_online_calibration(0.3),
            JobConfig::gpu_only().with_online_calibration(0.3),
        ] {
            let err = run_job(&ClusterSpec::delta(1), ModCount::new(100, 2), cfg).unwrap_err();
            assert!(matches!(err, JobError::InvalidConfig(_)), "config {cfg:?}");
        }
    }

    #[test]
    fn calibrated_iterative_job_stays_correct_and_deterministic() {
        let run = || {
            let app = Arc::new(Damping {
                n: 64,
                state: RwLock::new(1.0),
                iters: RwLock::new(0),
            });
            let r = run_iterative(
                &ClusterSpec::delta(2),
                app,
                JobConfig::static_analytic()
                    .with_online_calibration(0.5)
                    .with_iterations(50),
            )
            .unwrap();
            (r.outputs.clone(), r.metrics.total_seconds, r.metrics.iterations.len())
        };
        let (outputs, total, iters) = run();
        assert_eq!(iters, 7, "calibration must not change convergence");
        assert!(!outputs.is_empty());
        assert_eq!(run(), (outputs, total, iters));
    }

    #[test]
    fn calibrated_decisions_use_calibrated_trigger_after_first_iteration() {
        let app = Arc::new(Damping {
            n: 64,
            state: RwLock::new(1.0),
            iters: RwLock::new(0),
        });
        let obs = Obs::recording();
        run_iterative_observed(
            &ClusterSpec::delta(1),
            app,
            JobConfig::static_analytic()
                .with_online_calibration(0.5)
                .with_iterations(3),
            obs.clone(),
        )
        .unwrap();
        let records = obs.audit.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].trigger, "initial");
        assert!(records[1..].iter().all(|r| r.trigger == "calibrated"));
        // The fitted split must stay a valid fraction.
        assert!(records.iter().all(|r| (0.0..=1.0).contains(&r.cpu_fraction)));
    }

    #[test]
    fn resident_caching_moves_staging_out_of_iterations() {
        let mk = || ModCount::resident(200_000, 4, 500.0);
        let cached = run_job(
            &ClusterSpec::delta(1),
            mk(),
            JobConfig {
                cache_resident_data: true,
                ..JobConfig::static_analytic()
            },
        )
        .unwrap();
        let uncached = run_job(
            &ClusterSpec::delta(1),
            mk(),
            JobConfig {
                cache_resident_data: false,
                ..JobConfig::static_analytic()
            },
        )
        .unwrap();
        // Caching pays staging in setup; disabling it pays per iteration.
        assert!(cached.metrics.setup_seconds > uncached.metrics.setup_seconds);
        assert!(cached.metrics.iterations[0].map < uncached.metrics.iterations[0].map);
        assert_eq!(cached.outputs, uncached.outputs);
    }

    #[test]
    fn per_task_contexts_cost_more() {
        let mk = || ModCount::new(10_000, 4);
        let funneled = run_job(&ClusterSpec::delta(1), mk(), JobConfig::gpu_only()).unwrap();
        let per_task = run_job(
            &ClusterSpec::delta(1),
            mk(),
            JobConfig {
                context_per_task: true,
                ..JobConfig::gpu_only()
            },
        )
        .unwrap();
        assert!(per_task.metrics.compute_seconds > funneled.metrics.compute_seconds);
        assert_eq!(per_task.outputs, funneled.outputs);
    }

    /// Emits (bucket, item-id) pairs and reduces to the MEDIAN id — only
    /// correct if the runtime honors `compare()` and sorts the values.
    struct MedianApp {
        n: usize,
    }

    impl SpmdApp for MedianApp {
        type Inter = u64;
        type Output = u64;
        fn num_items(&self) -> usize {
            self.n
        }
        fn item_bytes(&self) -> u64 {
            8
        }
        fn workload(&self) -> Workload {
            Workload::uniform(2.0, DataResidency::Staged)
        }
        fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
            // Scramble the emission order deliberately.
            let mut v: Vec<(Key, u64)> = range.map(|i| (0, i as u64)).collect();
            v.reverse();
            v
        }
        fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
            self.cpu_map(node, range)
        }
        fn compare(&self, a: &u64, b: &u64) -> Option<std::cmp::Ordering> {
            Some(a.cmp(b))
        }
        fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<u64>) -> u64 {
            // Requires sorted input: the median is the middle element.
            assert!(
                values.windows(2).all(|w| w[0] <= w[1]),
                "reduce input must be sorted when compare() is defined"
            );
            values[values.len() / 2]
        }
    }

    #[test]
    fn compare_sorts_reduce_input_across_the_cluster() {
        // 1001 items in one bucket from 3 nodes: median is 500 only if the
        // shuffle-gathered values were globally sorted.
        let result = run_job(
            &ClusterSpec::delta(3),
            Arc::new(MedianApp { n: 1001 }),
            JobConfig::dynamic(37),
        )
        .unwrap();
        assert_eq!(result.outputs, vec![(0, 500)]);
    }

    #[test]
    fn two_gpus_scale_high_ai_throughput() {
        // Delta nodes carry two C2070s; engaging both nearly doubles the
        // GPU side for a high-AI resident workload.
        let mk = || ModCount::resident(2_000_000, 4, 500.0);
        let one = run_job(&ClusterSpec::delta(1), mk(), JobConfig::static_analytic()).unwrap();
        let two = run_job(
            &ClusterSpec::delta(1),
            mk(),
            JobConfig::static_analytic().with_gpus(2),
        )
        .unwrap();
        assert_eq!(one.outputs, two.outputs);
        let speedup = one.metrics.compute_seconds / two.metrics.compute_seconds;
        assert!(
            speedup > 1.6 && speedup < 2.1,
            "expected ~1.9x from the second GPU, got {speedup:.2}"
        );
        // The split followed the multi-GPU Equation (8).
        let p = two.metrics.cpu_fraction.unwrap();
        assert!((p - 130.0 / 2190.0).abs() < 0.01, "p = {p}");
        // Both GPUs actually executed kernels.
        let g = &two.metrics.gpu_stats[0];
        assert!(g[0].kernels > 0 && g[1].kernels > 0);
    }

    #[test]
    fn degenerate_configs_are_rejected_with_clear_errors() {
        let cases: Vec<(JobConfig, &str)> = vec![
            (
                JobConfig {
                    partitions_per_node: 0,
                    ..JobConfig::static_analytic()
                },
                "partitions_per_node",
            ),
            (
                JobConfig {
                    gpu_streams: 0,
                    ..JobConfig::static_analytic()
                },
                "gpu_streams",
            ),
            (
                JobConfig {
                    blocks_per_core: 0,
                    ..JobConfig::static_analytic()
                },
                "blocks_per_core",
            ),
            (
                JobConfig {
                    gpu_blocks_per_partition: 0,
                    ..JobConfig::static_analytic()
                },
                "gpu_blocks_per_partition",
            ),
            (
                JobConfig {
                    max_iterations: 0,
                    ..JobConfig::static_analytic()
                },
                "max_iterations",
            ),
            (
                JobConfig {
                    scheduling: SchedulingMode::Static {
                        p_override: Some(f64::NAN),
                    },
                    ..JobConfig::static_analytic()
                },
                "out of [0,1]",
            ),
            (
                JobConfig {
                    scheduling: SchedulingMode::Dynamic { block_items: 0 },
                    ..JobConfig::static_analytic()
                },
                "block_items",
            ),
        ];
        for (cfg, needle) in cases {
            let err = run_job(&ClusterSpec::delta(1), ModCount::new(100, 2), cfg).unwrap_err();
            match err {
                JobError::InvalidConfig(msg) => {
                    assert!(msg.contains(needle), "'{msg}' should mention '{needle}'")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn cpu_only_ignores_gpu_stream_validation() {
        // gpu_streams = 0 is fine when no GPU is engaged.
        let cfg = JobConfig {
            gpu_streams: 0,
            gpu_blocks_per_partition: 0,
            ..JobConfig::cpu_only()
        };
        let r = run_job(&ClusterSpec::delta(1), ModCount::new(100, 2), cfg).unwrap();
        assert_eq!(r.outputs, expected_counts(100, 2));
    }

    #[test]
    fn requesting_more_gpus_than_installed_is_rejected() {
        let err = run_job(
            &ClusterSpec::delta(1),
            ModCount::new(100, 2),
            JobConfig::static_analytic().with_gpus(3),
        )
        .unwrap_err();
        assert!(matches!(err, JobError::InvalidConfig(_)));
    }

    #[test]
    fn a_resident_share_larger_than_gpu_memory_is_rejected_before_the_clock_starts() {
        // 2000 items x 8 bytes over two nodes: 8000 resident bytes a node.
        let mut spec = ClusterSpec::delta(2);
        spec.nodes[1].gpus[0].mem_bytes = 1000;
        let mk = || ModCount::resident(2000, 4, 500.0);
        let err = run_job(&spec, mk(), JobConfig::static_analytic()).unwrap_err();
        match err {
            JobError::InvalidConfig(msg) => {
                for needle in ["node 1", "8000 bytes", "1000 bytes"] {
                    assert!(msg.contains(needle), "'{msg}' should mention '{needle}'");
                }
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Only a cached resident copy on an engaged GPU has to fit.
        let uncached = JobConfig {
            cache_resident_data: false,
            ..JobConfig::static_analytic()
        };
        for ok in [uncached, JobConfig::cpu_only()] {
            run_job(&spec, mk(), ok).unwrap();
        }
        run_job(&spec, ModCount::new(2000, 4), JobConfig::static_analytic()).unwrap();
        spec.nodes[1].gpus.swap(0, 1);
        run_job(&spec, mk(), JobConfig::static_analytic()).unwrap();
    }

    /// App with tunable intermediate wire size, for stage-cost tests.
    struct FatInter {
        n: usize,
        inter_bytes: u64,
    }

    impl SpmdApp for FatInter {
        type Inter = u64;
        type Output = u64;
        fn num_items(&self) -> usize {
            self.n
        }
        fn item_bytes(&self) -> u64 {
            8
        }
        fn workload(&self) -> Workload {
            Workload::uniform(10.0, DataResidency::Staged)
        }
        fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
            vec![(range.start as Key % 16, range.len() as u64)]
        }
        fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
            self.cpu_map(node, range)
        }
        fn reduce(&self, _d: DeviceClass, _k: Key, v: Vec<u64>) -> u64 {
            v.iter().sum()
        }
        fn inter_bytes(&self, _v: &u64) -> u64 {
            self.inter_bytes
        }
        fn output_bytes(&self, _v: &u64) -> u64 {
            self.inter_bytes
        }
    }

    #[test]
    fn shuffle_time_grows_with_intermediate_size() {
        let run = |bytes: u64| {
            run_job(
                &ClusterSpec::delta(4),
                Arc::new(FatInter {
                    n: 100_000,
                    inter_bytes: bytes,
                }),
                JobConfig::static_analytic(),
            )
            .unwrap()
            .metrics
            .iterations[0]
        };
        let small = run(64);
        let big = run(4 << 20);
        assert!(
            big.shuffle > small.shuffle * 10.0,
            "4 MB intermediates must dominate the shuffle: {} vs {}",
            big.shuffle,
            small.shuffle
        );
        // The map stage also grows (its tail is the GPU->CPU intermediate
        // copy), but the shuffle's growth must be of the same order as the
        // data growth, not constant.
        assert!(big.shuffle > 1e-3, "4 MB x 16 keys over IB takes real time");
    }

    #[test]
    fn update_time_grows_with_cluster_size() {
        // The allgather of outputs costs more on more nodes (same total
        // output volume, more rounds/links).
        let run = |nodes: usize| {
            run_job(
                &ClusterSpec::delta(nodes),
                Arc::new(FatInter {
                    n: 100_000,
                    inter_bytes: 1 << 20,
                }),
                JobConfig::static_analytic(),
            )
            .unwrap()
            .metrics
            .iterations[0]
        };
        let two = run(2);
        let eight = run(8);
        assert!(
            eight.update > two.update,
            "8-node gather should cost more: {} vs {}",
            eight.update,
            two.update
        );
    }

    #[test]
    fn more_partitions_mean_more_dispatched_tasks() {
        let run = |parts: usize| {
            run_job(
                &ClusterSpec::delta(2),
                ModCount::new(10_000, 4),
                JobConfig {
                    partitions_per_node: parts,
                    ..JobConfig::static_analytic()
                },
            )
            .unwrap()
            .metrics
        };
        let few = run(1);
        let many = run(4);
        assert!(many.cpu_map_tasks + many.gpu_map_tasks
            > few.cpu_map_tasks + few.gpu_map_tasks);
        // Outputs identical regardless.
    }

    #[test]
    fn observed_run_populates_all_three_sinks() {
        let obs = Obs::recording();
        let result = run_job_observed(
            &ClusterSpec::delta(2),
            ModCount::new(1000, 7),
            JobConfig::static_analytic(),
            obs.clone(),
        )
        .unwrap();
        assert_eq!(result.outputs, expected_counts(1000, 7));
        // Event bus saw the master, the sub-task schedulers, and devices.
        let jsonl = obs.bus.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"assign\""), "master assigns");
        assert!(jsonl.contains("\"kind\":\"map\""), "worker stage spans");
        assert!(jsonl.contains("\"kind\":\"cpu-task\""), "CPU daemon spans");
        assert!(jsonl.contains("\"kind\":\"net-send\""), "comm layer spans");
        // Audit: one completed decision per node per iteration.
        let recs = obs.audit.records();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.observed_map_secs.is_some()));
        assert!(recs.iter().all(|r| r.map_error().is_some()));
        // Registry summaries match the returned metrics.
        assert_eq!(
            obs.metrics.gauge("prs_total_seconds", &[]),
            Some(result.metrics.total_seconds)
        );
        assert_eq!(
            obs.metrics.counter("prs_map_tasks_total", &[("device", "cpu")]),
            Some(result.metrics.cpu_map_tasks as f64)
        );
        assert!(obs
            .metrics
            .gauge("prs_queue_depth_peak", &[("node", "0"), ("queue", "cpu")])
            .is_some());
    }

    #[test]
    fn observation_leaves_virtual_time_bit_identical() {
        let mk = || ModCount::new(2000, 4);
        let base = run_job(&ClusterSpec::delta(2), mk(), JobConfig::static_analytic()).unwrap();
        let seen = run_job_observed(
            &ClusterSpec::delta(2),
            mk(),
            JobConfig::static_analytic(),
            Obs::recording(),
        )
        .unwrap();
        assert_eq!(
            base.metrics.total_seconds.to_bits(),
            seen.metrics.total_seconds.to_bits()
        );
        assert_eq!(base.outputs, seen.outputs);
    }

    #[test]
    fn dynamic_mode_audits_the_analytic_reference_fraction() {
        let obs = Obs::recording();
        run_job_observed(
            &ClusterSpec::delta(1),
            ModCount::new(1000, 4),
            JobConfig::dynamic(64),
            obs.clone(),
        )
        .unwrap();
        let recs = obs.audit.records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.mode, "dynamic");
        assert_eq!(r.block_items, 64);
        // NaN would poison the JSON export; dynamic decisions carry the
        // analytic Equation (8) fraction as the model reference.
        assert!(r.cpu_fraction.is_finite());
        assert!((0.0..=1.0).contains(&r.cpu_fraction));
    }

    #[test]
    fn analytic_split_beats_bad_static_splits() {
        // For a high-AI resident app the analytic p (~0.112) should beat
        // a grossly wrong split (CPU-heavy) in makespan.
        let mk = || ModCount::resident(500_000, 4, 500.0);
        let analytic = run_job(
            &ClusterSpec::delta(1),
            mk(),
            JobConfig::static_analytic(),
        )
        .unwrap();
        let bad = run_job(&ClusterSpec::delta(1), mk(), JobConfig::static_with_p(0.9)).unwrap();
        assert!(
            analytic.metrics.compute_seconds < bad.metrics.compute_seconds,
            "analytic {} vs bad {}",
            analytic.metrics.compute_seconds,
            bad.metrics.compute_seconds
        );
    }
}
