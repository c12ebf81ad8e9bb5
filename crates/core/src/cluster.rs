//! Cluster description: how many fat nodes, of what profile, connected by
//! what fabric.

use crate::faults::FaultPlan;
use device::OverheadModel;
use netsim::NetworkParams;
use roofline::DeviceProfile;
use serde::{Deserialize, Serialize};

/// The simulated cluster a job runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Per-node hardware profiles; length = node count. Homogeneous
    /// clusters repeat one profile (the case the paper evaluates);
    /// heterogeneous mixes exercise the §V(c) extension.
    pub nodes: Vec<DeviceProfile>,
    /// Interconnect parameters.
    pub network: NetworkParams,
    /// Software-stack overheads.
    pub overheads: OverheadModel,
    /// Injected failure scenario (empty by default — a healthy cluster).
    pub faults: FaultPlan,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` nodes.
    pub fn homogeneous(n: usize, profile: DeviceProfile, network: NetworkParams) -> Self {
        assert!(n > 0);
        ClusterSpec {
            nodes: vec![profile; n],
            network,
            overheads: OverheadModel::default(),
            faults: FaultPlan::default(),
        }
    }

    /// `n` Delta nodes on QDR InfiniBand — the paper's main testbed.
    pub fn delta(n: usize) -> Self {
        Self::homogeneous(
            n,
            DeviceProfile::delta_node(),
            NetworkParams::infiniband_qdr(),
        )
    }

    /// `n` BigRed2 nodes on QDR InfiniBand.
    pub fn bigred2(n: usize) -> Self {
        Self::homogeneous(
            n,
            DeviceProfile::bigred2_node(),
            NetworkParams::infiniband_qdr(),
        )
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty spec (never valid for running jobs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Installs a failure scenario (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_cluster_shape() {
        let c = ClusterSpec::delta(4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.nodes[0].name, "Delta");
        assert!(!c.is_empty());
    }

    #[test]
    fn faults_default_empty_and_builder_installs() {
        let c = ClusterSpec::delta(2);
        assert!(c.faults.is_empty());
        let c = c.with_faults(FaultPlan::default().crash_gpu(1, 0, 0.5));
        assert_eq!(c.faults.gpu_crashes.len(), 1);
    }
}
