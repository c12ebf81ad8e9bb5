//! A fat node: the CPU complex plus its GPUs and host memory, assembled
//! from a [`DeviceProfile`].

use crate::cost::OverheadModel;
use crate::cpu::CpuPool;
use crate::gpu::Gpu;
use crate::memory::MemorySpace;
use roofline::profiles::DeviceProfile;
use std::sync::Arc;

/// One simulated cluster node with heterogeneous devices (paper Figure 1's
/// "fat node").
pub struct FatNode {
    /// Node index within the cluster.
    pub rank: usize,
    /// The hardware description this node was built from.
    pub profile: DeviceProfile,
    /// The software-stack overhead model shared by all devices.
    pub overheads: OverheadModel,
    /// Host DRAM.
    pub host_mem: MemorySpace,
    /// The CPU core pool.
    pub cpu: Arc<CpuPool>,
    /// Installed GPUs.
    pub gpus: Vec<Arc<Gpu>>,
}

impl FatNode {
    /// Builds node `rank` from `profile` with the given software overheads.
    pub fn new(rank: usize, profile: DeviceProfile, overheads: OverheadModel) -> Arc<Self> {
        let host_mem = MemorySpace::new(&format!("node{rank}-dram"), profile.cpu.mem_bytes);
        let cpu = CpuPool::new(&format!("node{rank}-cpu"), profile.cpu.clone());
        let gpus = profile
            .gpus
            .iter()
            .enumerate()
            .map(|(i, g)| {
                Gpu::new(
                    &format!("node{rank}-gpu{i}"),
                    g.clone(),
                    profile.cpu.dram_bw,
                    overheads,
                )
            })
            .collect();
        Arc::new(FatNode {
            rank,
            profile,
            overheads,
            host_mem,
            cpu,
            gpus,
        })
    }

    /// The GPU the paper's experiments use (the first one), if any.
    pub fn gpu(&self) -> Option<&Arc<Gpu>> {
        self.gpus.first()
    }

    /// Builds a homogeneous cluster of `n` nodes.
    pub fn cluster(n: usize, profile: &DeviceProfile, overheads: OverheadModel) -> Vec<Arc<Self>> {
        (0..n)
            .map(|rank| FatNode::new(rank, profile.clone(), overheads))
            .collect()
    }

    /// Attaches one structured-observability bundle to every device on
    /// the node.
    pub fn attach_obs(&self, obs: &obs::Obs) {
        self.cpu.attach_obs(obs.clone());
        for gpu in &self.gpus {
            gpu.attach_obs(obs.clone());
        }
    }

    /// Total flops executed on this node so far (CPU + all GPUs).
    pub fn total_flops(&self) -> f64 {
        self.cpu.stats().flops + self.gpus.iter().map(|g| g.stats().flops).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_node_has_two_gpus_and_twelve_cores() {
        let node = FatNode::new(0, DeviceProfile::delta_node(), OverheadModel::default());
        assert_eq!(node.gpus.len(), 2);
        assert_eq!(node.cpu.spec.cores, 12);
        assert_eq!(node.host_mem.capacity(), 192 << 30);
        assert!(node.gpu().is_some());
    }

    #[test]
    fn cpu_only_node_has_no_gpu() {
        let prof = DeviceProfile::cpu_only("plain", 8, 80e9, 20e9);
        let node = FatNode::new(0, prof, OverheadModel::default());
        assert!(node.gpu().is_none());
    }

    #[test]
    fn cluster_assigns_ranks() {
        let nodes = FatNode::cluster(4, &DeviceProfile::delta_node(), OverheadModel::default());
        assert_eq!(nodes.len(), 4);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.rank, i);
        }
    }

    #[test]
    fn total_flops_starts_at_zero() {
        let node = FatNode::new(0, DeviceProfile::delta_node(), OverheadModel::default());
        assert_eq!(node.total_flops(), 0.0);
    }
}
