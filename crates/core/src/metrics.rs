//! Job metrics: per-stage virtual-time accounting and per-device work
//! counters, the raw material for every table and figure.

use device::cpu::CpuStats;
use device::gpu::GpuStats;
use serde::{Deserialize, Serialize};
use simtime::StackFrame;

/// Per-node, per-iteration stage durations (virtual seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Map stage (dispatch + device execution + local collection).
    pub map: f64,
    /// Shuffle (all-to-all exchange).
    pub shuffle: f64,
    /// Reduce stage.
    pub reduce: f64,
    /// Global gather/allgather + model update.
    pub update: f64,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total(&self) -> f64 {
        self.map + self.shuffle + self.reduce + self.update
    }

    /// Componentwise max (used to aggregate across nodes).
    pub fn max(&self, other: &StageTimes) -> StageTimes {
        StageTimes {
            map: self.map.max(other.map),
            shuffle: self.shuffle.max(other.shuffle),
            reduce: self.reduce.max(other.reduce),
            update: self.update.max(other.update),
        }
    }
}

/// Fault-recovery accounting: what the two-level scheduler did to keep a
/// job running through the injected failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCounters {
    /// Partition assignments re-sent to the same node after an
    /// acknowledgement timeout.
    pub retries: u64,
    /// Partition assignments moved to a different node after the retry
    /// budget ran out.
    pub reassignments: u64,
    /// Map/reduce blocks re-queued from a crashed GPU onto surviving
    /// devices.
    pub blocks_requeued: u64,
    /// GPU daemons observed dead (at most one per engaged GPU).
    pub gpu_daemon_crashes: u64,
    /// Virtual wall-clock charged to faults: timeout waits at the master,
    /// kernel time lost in crashed launches, and epochs discarded by
    /// checkpoint rollback.
    pub seconds_lost_to_faults: f64,
    /// Speculative backup map tasks launched against stragglers.
    pub speculative_launched: u64,
    /// Backups that finished before their primary (the race was worth it).
    pub speculative_won: u64,
    /// Backups that lost the race or were cancelled in the queue. Always
    /// `speculative_launched == speculative_won + speculative_wasted` once
    /// a run completes.
    pub speculative_wasted: u64,
    /// Whole-node crashes survived via checkpoint restore.
    pub node_crashes: u64,
    /// Master crashes survived via standby failover + checkpoint replay.
    pub master_failovers: u64,
    /// Checkpoints serialized by the master after global reduces.
    pub checkpoints_written: u64,
    /// Recovery epochs that restored state from a checkpoint (or from the
    /// initial model state when no checkpoint existed yet). Evict and
    /// handoff rollbacks bump it too but emit no `restore` event: only
    /// crashes and master failovers put one on the bus.
    pub restores: u64,
}

impl RecoveryCounters {
    /// True when the run needed no recovery at all. Checkpoints written on
    /// a healthy run are not recovery actions and do not count.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.reassignments == 0
            && self.blocks_requeued == 0
            && self.gpu_daemon_crashes == 0
            && self.seconds_lost_to_faults == 0.0
            && self.speculative_launched == 0
            && self.speculative_won == 0
            && self.speculative_wasted == 0
            && self.node_crashes == 0
            && self.master_failovers == 0
            && self.restores == 0
    }

    /// True when every speculative backup has been resolved as either won
    /// or wasted — the reconciliation invariant the chaos harness pins.
    pub fn speculation_reconciles(&self) -> bool {
        self.speculative_launched == self.speculative_won + self.speculative_wasted
    }

    /// Field-wise sum, used by the epoch driver to merge the counters
    /// of successive recovery epochs.
    pub fn merged(&self, other: &RecoveryCounters) -> RecoveryCounters {
        RecoveryCounters {
            retries: self.retries + other.retries,
            reassignments: self.reassignments + other.reassignments,
            blocks_requeued: self.blocks_requeued + other.blocks_requeued,
            gpu_daemon_crashes: self.gpu_daemon_crashes + other.gpu_daemon_crashes,
            seconds_lost_to_faults: self.seconds_lost_to_faults + other.seconds_lost_to_faults,
            speculative_launched: self.speculative_launched + other.speculative_launched,
            speculative_won: self.speculative_won + other.speculative_won,
            speculative_wasted: self.speculative_wasted + other.speculative_wasted,
            node_crashes: self.node_crashes + other.node_crashes,
            master_failovers: self.master_failovers + other.master_failovers,
            checkpoints_written: self.checkpoints_written + other.checkpoints_written,
            restores: self.restores + other.restores,
        }
    }
}

/// Everything measured about one job run.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// End-to-end virtual time, including setup.
    pub total_seconds: f64,
    /// Simulation events processed by the engine during the run — the
    /// numerator of the repo benchmark's `simtime.events_per_s`
    /// (`benchmark/run.sh`). Bit-identical across engine modes (the
    /// determinism contract), and summed across epochs by the epoch driver.
    pub sim_events: u64,
    /// Of those events, the wakes that moved the engine's execution token
    /// from one process thread to another (`simtime::SimReport::handoffs`)
    /// — the host-cost driver; `tests/engine_determinism.rs` pins it below
    /// `sim_events` on the 1000-node job. Engine-independent and summed
    /// across epochs like `sim_events`.
    pub sim_handoffs: u64,
    /// Of those hand-offs, the ones that switched stacks: the ones whose
    /// target is a stackful process (`simtime::SimReport::switches`) —
    /// the node's sub-task scheduler or the master, not a device daemon.
    /// Summed across epochs like `sim_events`.
    pub sim_switches: u64,
    /// One-off setup time (partitioning messages, resident-data staging) —
    /// excluded from iteration time like the paper's "one-off overhead".
    pub setup_seconds: f64,
    /// Sum over iterations of the per-iteration makespan (max across
    /// nodes).
    pub compute_seconds: f64,
    /// Per-iteration stage breakdown (max across nodes).
    pub iterations: Vec<StageTimes>,
    /// CPU fraction on node 0 (static modes), if any — convenience for
    /// homogeneous clusters.
    pub cpu_fraction: Option<f64>,
    /// Per-node CPU fractions (static modes); on heterogeneous clusters
    /// Equation (8) yields a different split on each profile.
    pub cpu_fractions: Vec<Option<f64>>,
    /// Per-node CPU counters at job end.
    pub cpu_stats: Vec<CpuStats>,
    /// Per-node, per-GPU counters at job end.
    pub gpu_stats: Vec<Vec<GpuStats>>,
    /// Map tasks executed on CPU / GPU (whole job).
    pub cpu_map_tasks: u64,
    /// Map tasks executed on the GPU.
    pub gpu_map_tasks: u64,
    /// Device busy intervals: the frames of the [`obs::kinds::DEVICE`] kinds
    /// this run recorded on its `Obs`'s profiler stack, sorted by lane,
    /// start and end — empty when the stack does not record. Render with
    /// [`device::render_ascii`] or [`device::to_chrome_trace`].
    pub timeline: Vec<StackFrame>,
    /// Fault-recovery actions taken during the run (all zero on a healthy
    /// cluster).
    pub recovery: RecoveryCounters,
    /// True when the attempt was cut short by a scheduled process crash
    /// (node or master loss): the final iteration's update was not applied
    /// and `outputs` are empty. The epoch driver resumes such runs
    /// from the last checkpoint.
    pub interrupted: bool,
    /// True when `interrupted` was caused by a drain deadline expiring
    /// rather than a crash: the departing node checkpoint-handed-off its
    /// work, so the epoch driver restores without a detection delay.
    pub handoff: bool,
    /// True when the attempt stopped gracefully at a membership boundary
    /// (drain or scale-out): the final iteration's update *was* applied
    /// and the epoch driver continues from the live model state.
    pub paused: bool,
}

impl JobMetrics {
    /// Total flops executed across the cluster.
    pub fn total_flops(&self) -> f64 {
        let cpu: f64 = self.cpu_stats.iter().map(|s| s.flops).sum();
        let gpu: f64 = self
            .gpu_stats
            .iter()
            .flat_map(|node| node.iter())
            .map(|s| s.flops)
            .sum();
        cpu + gpu
    }

    /// The paper's Figure-6 metric: sustained Gflops per node over the
    /// measured (non-setup) computation.
    pub fn gflops_per_node(&self) -> f64 {
        let nodes = self.cpu_stats.len().max(1) as f64;
        if self.compute_seconds <= 0.0 {
            return 0.0;
        }
        self.total_flops() / self.compute_seconds / nodes / 1e9
    }

    /// Mean per-iteration time.
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.compute_seconds / self.iterations.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_total_and_max() {
        let a = StageTimes {
            map: 1.0,
            shuffle: 0.5,
            reduce: 0.25,
            update: 0.25,
        };
        assert_eq!(a.total(), 2.0);
        let b = StageTimes {
            map: 0.5,
            shuffle: 1.0,
            reduce: 0.0,
            update: 0.0,
        };
        let m = a.max(&b);
        assert_eq!(m.map, 1.0);
        assert_eq!(m.shuffle, 1.0);
    }

    #[test]
    fn gflops_per_node_accounts_nodes_and_time() {
        let mut m = JobMetrics {
            compute_seconds: 2.0,
            ..Default::default()
        };
        m.cpu_stats = vec![
            CpuStats {
                flops: 4e9,
                ..Default::default()
            };
            2
        ];
        m.gpu_stats = vec![vec![], vec![]];
        // 8 Gflop over 2 s over 2 nodes = 2 Gflops/node.
        assert!((m.gflops_per_node() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = JobMetrics::default();
        assert_eq!(m.gflops_per_node(), 0.0);
        assert_eq!(m.seconds_per_iteration(), 0.0);
        assert_eq!(m.total_flops(), 0.0);
        assert!(m.recovery.is_clean());
    }

    #[test]
    fn recovery_counters_detect_activity() {
        let r = RecoveryCounters {
            blocks_requeued: 3,
            ..Default::default()
        };
        assert!(!r.is_clean());
        let r = RecoveryCounters {
            speculative_launched: 1,
            ..Default::default()
        };
        assert!(!r.is_clean());
        // Checkpoints alone are bookkeeping, not recovery.
        let r = RecoveryCounters {
            checkpoints_written: 4,
            ..Default::default()
        };
        assert!(r.is_clean());
    }

    #[test]
    fn speculation_reconciliation() {
        let mut r = RecoveryCounters {
            speculative_launched: 3,
            speculative_won: 1,
            speculative_wasted: 2,
            ..Default::default()
        };
        assert!(r.speculation_reconciles());
        r.speculative_wasted = 1;
        assert!(!r.speculation_reconciles());
    }

    #[test]
    fn merged_sums_fieldwise() {
        let a = RecoveryCounters {
            retries: 1,
            speculative_launched: 2,
            node_crashes: 1,
            seconds_lost_to_faults: 0.5,
            ..Default::default()
        };
        let b = RecoveryCounters {
            retries: 2,
            speculative_launched: 1,
            master_failovers: 1,
            checkpoints_written: 3,
            seconds_lost_to_faults: 0.25,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.retries, 3);
        assert_eq!(m.speculative_launched, 3);
        assert_eq!(m.node_crashes, 1);
        assert_eq!(m.master_failovers, 1);
        assert_eq!(m.checkpoints_written, 3);
        assert!((m.seconds_lost_to_faults - 0.75).abs() < 1e-12);
    }
}
