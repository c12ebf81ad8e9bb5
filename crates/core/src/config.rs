//! Job configuration: the paper's "job configuration stage", where users
//! specify scheduling parameters (§III.A.2).

use crate::api::DeviceClass;
use serde::{Deserialize, Serialize};
use simtime::EngineMode;

/// How the sub-task scheduler divides a partition between devices
/// (paper §III.B.2's two options, plus degenerate single-device modes
/// used for baselines and the Figure-6 GPU-only bars).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulingMode {
    /// Static split by the analytic model (Equation (8)), optionally
    /// overriding the computed CPU fraction (used for profiling sweeps).
    Static {
        /// When set, use this CPU fraction instead of Equation (8).
        p_override: Option<f64>,
    },
    /// Dynamic polling: the partition is cut into fixed-size blocks that
    /// idle device daemons pull from a shared queue.
    Dynamic {
        /// Records per block.
        block_items: usize,
    },
    /// All work on the CPU cores.
    CpuOnly,
    /// All work on the GPU.
    GpuOnly,
}

/// Whether the scheduler's hardware model learns from observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CalibrationMode {
    /// Trust the configured `DeviceProfile` for the whole job (the
    /// paper's behaviour: the analytic model needs no test runs).
    Off,
    /// EWMA-fit per-device throughput from each iteration's observed map
    /// times and re-solve Equation (8) at every iteration boundary
    /// against the fitted profile (StarPU-style history feedback).
    Online {
        /// EWMA smoothing factor in `[0, 1]`: weight of the newest
        /// sample. 0 freezes the fit (useful to measure plumbing
        /// overhead), 1 jumps to the last observation.
        alpha: f64,
    },
}

/// Full job configuration with the paper's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Scheduling strategy.
    pub scheduling: SchedulingMode,
    /// Partitions handed out by the master, as a multiple of the node
    /// count ("whose default number is twice that of the fat nodes").
    pub partitions_per_node: usize,
    /// CPU blocks per core within a sub-partition ("numbers are several
    /// times those of the CPU cores").
    pub blocks_per_core: u32,
    /// Concurrent CUDA streams per GPU.
    pub gpu_streams: usize,
    /// GPUs engaged per fat node (the paper's experiments use 1; Delta
    /// nodes carry 2 C2070s). Each GPU gets its own daemon.
    pub gpus_per_node: usize,
    /// GPU blocks a sub-partition is cut into (≥ streams to keep the
    /// pipeline full).
    pub gpu_blocks_per_partition: usize,
    /// Apply the app's combiner before the shuffle.
    pub use_combiner: bool,
    /// Device class that runs reduce tasks.
    pub reduce_device: DeviceClass,
    /// Iteration cap for [`crate::api::IterativeApp`] jobs (1 = single
    /// map/reduce pass).
    pub max_iterations: usize,
    /// Create a fresh GPU context per task instead of one per daemon —
    /// the anti-pattern §III.C.3 argues against; kept as an ablation knob
    /// (A4).
    pub context_per_task: bool,
    /// Cache loop-invariant resident data in GPU memory across iterations
    /// (§III.C.3). Disabling re-stages it every iteration (ablation A4).
    pub cache_resident_data: bool,
    /// Weight the master's per-node partitions by each node's aggregate
    /// roofline rate (the §V(c) heterogeneous-fat-nodes extension).
    /// Disabled, every node receives an equal share.
    pub hetero_aware_partitioning: bool,
    /// Record every device busy interval into
    /// [`crate::JobMetrics::timeline`] (Gantt observability; small
    /// overhead in host time, none in virtual time).
    pub record_timeline: bool,
    /// Online roofline recalibration (§III.B.2 extension): when
    /// `Online`, each worker EWMA-fits its device profile from observed
    /// map times and re-solves Equation (8) against the fitted profile
    /// at every iteration boundary. Requires `Static` scheduling with
    /// no `p_override`.
    pub calibration: CalibrationMode,
    /// Master-side deadline (virtual seconds) for a node to acknowledge a
    /// partition assignment. `None` disables straggler detection: the
    /// master waits forever (the seed's original behaviour).
    pub partition_timeout_secs: Option<f64>,
    /// Re-sends to the same node after a timeout before the partition is
    /// reassigned to the next surviving node.
    pub max_partition_retries: u32,
    /// Speculative backup tasks: when a map block's straggler lag exceeds
    /// this multiple of its Equation-(8) predicted time, the sub-task
    /// scheduler launches a backup copy on the fastest idle device class;
    /// first completion wins, the loser is cancelled. `None` disables
    /// speculation entirely (bit-identical to the seed's behaviour).
    pub speculation_lag_multiplier: Option<f64>,
    /// Iterations between checkpoints when running under the epoch
    /// driver (`run_epochs`): rank 0 snapshots the model state after
    /// every `n`-th global reduce. 0 disables checkpointing.
    pub checkpoint_interval_iters: usize,
    /// Simulation engine the job runs on (see `docs/engine.md`). All modes
    /// produce bit-identical virtual clocks, event orders, and exporter
    /// artifacts; `Parallel` additionally shards per-node event queues and
    /// steps them within the network's α-latency lookahead window.
    pub engine: EngineMode,
    /// Flight-recorder retention policy (see `obs::recorder`). The
    /// default is disabled (`budget == 0`); when enabled the drivers
    /// pump `Obs::recorder` at every iteration boundary so resident
    /// telemetry stays bounded and incident windows can be captured.
    pub recorder: obs::RecorderConfig,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            scheduling: SchedulingMode::Static { p_override: None },
            partitions_per_node: 2,
            blocks_per_core: 4,
            gpu_streams: 2,
            gpus_per_node: 1,
            gpu_blocks_per_partition: 4,
            use_combiner: true,
            reduce_device: DeviceClass::Cpu,
            max_iterations: 1,
            context_per_task: false,
            cache_resident_data: true,
            hetero_aware_partitioning: true,
            record_timeline: false,
            calibration: CalibrationMode::Off,
            partition_timeout_secs: None,
            max_partition_retries: 2,
            speculation_lag_multiplier: None,
            checkpoint_interval_iters: 0,
            engine: EngineMode::Calendar,
            recorder: obs::RecorderConfig::disabled(),
        }
    }
}

impl JobConfig {
    /// Static scheduling with Equation (8).
    pub fn static_analytic() -> Self {
        JobConfig::default()
    }

    /// Static scheduling with a fixed CPU fraction (profiling sweeps).
    pub fn static_with_p(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        JobConfig {
            scheduling: SchedulingMode::Static { p_override: Some(p) },
            ..JobConfig::default()
        }
    }

    /// Dynamic polling with the given block granularity.
    pub fn dynamic(block_items: usize) -> Self {
        assert!(block_items > 0);
        JobConfig {
            scheduling: SchedulingMode::Dynamic { block_items },
            ..JobConfig::default()
        }
    }

    /// GPU-only execution (Figure 6 red bars).
    pub fn gpu_only() -> Self {
        JobConfig {
            scheduling: SchedulingMode::GpuOnly,
            ..JobConfig::default()
        }
    }

    /// CPU-only execution.
    pub fn cpu_only() -> Self {
        JobConfig {
            scheduling: SchedulingMode::CpuOnly,
            ..JobConfig::default()
        }
    }

    /// Builder-style iteration cap.
    pub fn with_iterations(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.max_iterations = n;
        self
    }

    /// Builder-style GPU count per node.
    pub fn with_gpus(mut self, gpus: usize) -> Self {
        assert!(gpus >= 1);
        self.gpus_per_node = gpus;
        self
    }

    /// Builder-style stream count.
    pub fn with_streams(mut self, streams: usize) -> Self {
        assert!(streams >= 1);
        self.gpu_streams = streams;
        self.gpu_blocks_per_partition = self.gpu_blocks_per_partition.max(streams);
        self
    }

    /// Builder-style online roofline recalibration with EWMA smoothing
    /// factor `alpha` (see [`CalibrationMode::Online`]).
    pub fn with_online_calibration(mut self, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "alpha must be in [0,1]"
        );
        self.calibration = CalibrationMode::Online { alpha };
        self
    }

    /// Builder-style straggler detection: acknowledgement deadline and
    /// per-node retry budget before reassignment.
    pub fn with_partition_timeout(mut self, secs: f64, retries: u32) -> Self {
        assert!(secs.is_finite() && secs > 0.0, "timeout must be positive");
        self.partition_timeout_secs = Some(secs);
        self.max_partition_retries = retries;
        self
    }

    /// Builder-style speculative execution: launch a backup copy of any
    /// map block running longer than `multiplier ×` its predicted time
    /// (must be > 1 — a backup at or below the predicted time would race
    /// every healthy block).
    pub fn with_speculation(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 1.0,
            "speculation multiplier must be > 1"
        );
        self.speculation_lag_multiplier = Some(multiplier);
        self
    }

    /// Builder-style checkpoint cadence for the epoch driver: snapshot
    /// after every `n`-th global reduce (`n ≥ 1`).
    pub fn with_checkpoint_interval(mut self, n: usize) -> Self {
        assert!(n >= 1, "checkpoint interval must be >= 1");
        self.checkpoint_interval_iters = n;
        self
    }

    /// Builder-style simulation engine selection. Every mode is
    /// bit-identical in outcome; this only changes how the event queue is
    /// organized and stepped (see [`EngineMode`]).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Builder-style flight-recorder policy. Enabling it never changes
    /// virtual time — drivers pump the recorder outside the simulation —
    /// it only bounds resident telemetry and arms incident capture.
    pub fn with_recorder(mut self, recorder: obs::RecorderConfig) -> Self {
        self.recorder = recorder;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = JobConfig::default();
        assert_eq!(c.partitions_per_node, 2);
        assert!(matches!(
            c.scheduling,
            SchedulingMode::Static { p_override: None }
        ));
        assert!(c.blocks_per_core >= 2);
    }

    #[test]
    fn builders() {
        let c = JobConfig::static_with_p(0.25);
        assert!(matches!(
            c.scheduling,
            SchedulingMode::Static {
                p_override: Some(p)
            } if p == 0.25
        ));
        let c = JobConfig::dynamic(1000).with_iterations(5).with_streams(8);
        assert_eq!(c.max_iterations, 5);
        assert_eq!(c.gpu_streams, 8);
        assert!(c.gpu_blocks_per_partition >= 8);
        let c = JobConfig::default().with_partition_timeout(0.25, 3);
        assert_eq!(c.partition_timeout_secs, Some(0.25));
        assert_eq!(c.max_partition_retries, 3);
        let c = JobConfig::default().with_online_calibration(0.3);
        assert!(matches!(
            c.calibration,
            CalibrationMode::Online { alpha } if alpha == 0.3
        ));
        let c = JobConfig::default()
            .with_speculation(2.5)
            .with_checkpoint_interval(2);
        assert_eq!(c.speculation_lag_multiplier, Some(2.5));
        assert_eq!(c.checkpoint_interval_iters, 2);
        let c = JobConfig::default().with_engine(EngineMode::Parallel);
        assert_eq!(c.engine, EngineMode::Parallel);
    }

    #[test]
    fn engine_defaults_to_calendar() {
        assert_eq!(JobConfig::default().engine, EngineMode::Calendar);
    }

    #[test]
    fn resilience_knobs_default_off() {
        let c = JobConfig::default();
        assert_eq!(c.speculation_lag_multiplier, None);
        assert_eq!(c.checkpoint_interval_iters, 0);
    }

    #[test]
    #[should_panic(expected = "speculation multiplier must be > 1")]
    fn speculation_multiplier_validated() {
        let _ = JobConfig::default().with_speculation(1.0);
    }

    #[test]
    fn calibration_defaults_off() {
        assert_eq!(JobConfig::default().calibration, CalibrationMode::Off);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn calibration_alpha_validated() {
        let _ = JobConfig::default().with_online_calibration(1.5);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn p_override_validated() {
        let _ = JobConfig::static_with_p(1.5);
    }
}
