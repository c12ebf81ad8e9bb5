//! Quickstart: write a heterogeneous MapReduce application in ~40 lines
//! and run it on a simulated 2-node GPU+CPU cluster.
//!
//! ```sh
//! cargo run -p prs-suite --example quickstart
//! ```

use prs_core::{run_job, ClusterSpec, DeviceClass, JobConfig, Key, SpmdApp};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

/// Histogram of byte values — the "hello world" of MapReduce.
struct ByteHistogram {
    data: Arc<Vec<u8>>,
}

impl SpmdApp for ByteHistogram {
    type Inter = u64;
    type Output = u64;

    fn num_items(&self) -> usize {
        self.data.len()
    }

    fn item_bytes(&self) -> u64 {
        1
    }

    fn workload(&self) -> Workload {
        // A couple of operations per byte, data staged to the GPU per
        // task: Equation (8) will route almost everything to the CPU.
        Workload::uniform(2.0, DataResidency::Staged)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        let mut counts = [0u64; 256];
        for i in range {
            counts[self.data[i] as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b as Key, c))
            .collect()
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        // Same kernel, GPU flavour (paper Table 1's gpu_device_map).
        self.cpu_map(node, range)
    }

    fn reduce(&self, _device: DeviceClass, _key: Key, values: Vec<u64>) -> u64 {
        values.iter().sum()
    }

    fn combine_into(&self, _key: Key, acc: &mut u64, next: u64) -> Option<u64> {
        *acc += next;
        None
    }
}

fn main() {
    // 16 MB of synthetic data.
    let data: Arc<Vec<u8>> = Arc::new((0..16 << 20).map(|i| (i * 31 % 251) as u8).collect());
    let total = data.len() as u64;
    let app = Arc::new(ByteHistogram { data });

    // Two "Delta" fat nodes (C2070 GPU + 12-core Xeon) on InfiniBand.
    let cluster = ClusterSpec::delta(2);
    let result = run_job(&cluster, app, JobConfig::static_analytic()).expect("job runs");

    let counted: u64 = result.outputs.iter().map(|(_, c)| c).sum();
    assert_eq!(counted, total, "every byte counted exactly once");

    println!("byte-histogram over {total} bytes on 2 simulated fat nodes");
    println!("  distinct byte values : {}", result.outputs.len());
    println!(
        "  CPU fraction (Eq 8)  : {:.1}%  <- low intensity + PCI-E staging favor the CPU",
        result.metrics.cpu_fraction.unwrap_or(f64::NAN) * 100.0
    );
    println!(
        "  map tasks CPU / GPU  : {} / {}",
        result.metrics.cpu_map_tasks, result.metrics.gpu_map_tasks
    );
    println!(
        "  virtual runtime      : {:.3} ms ({} iteration)",
        result.metrics.compute_seconds * 1e3,
        result.metrics.iterations.len()
    );
}
