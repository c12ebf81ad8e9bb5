//! The user-facing programming model: the heterogeneous MapReduce
//! interface of paper Table 1, in Rust form.
//!
//! An application implements [`SpmdApp`] with *both* a CPU and a GPU
//! flavour of its map (and optionally reduce) function, mirroring
//! `cpu_mapreduce` / `gpu_device_mapreduce` / `gpu_host_mapreduce` in the
//! paper — the runtime decides at schedule time which flavour a block
//! runs. Iterative applications additionally implement [`IterativeApp`].

use device::WorkProfile;
use roofline::schedule::Workload;
use std::ops::Range;

/// Intermediate key: the shuffle routes on this.
pub type Key = u64;

/// Which device class executes a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DeviceClass {
    /// Host CPU cores.
    Cpu,
    /// A GPU accelerator.
    Gpu,
}

/// A SPMD application runnable by the PRS.
///
/// The input is a logical array of `num_items` records (the data itself
/// lives inside the implementor — typically behind an `Arc` — mirroring
/// the paper's "value object stores the pointers of input matrices in GPU
/// or CPU memory"). The runtime only manipulates index ranges.
pub trait SpmdApp: Send + Sync + 'static {
    /// Intermediate value type emitted by map.
    type Inter: Send + Clone + 'static;
    /// Output type produced by reduce.
    type Output: Send + Clone + 'static;

    /// Total number of input records.
    fn num_items(&self) -> usize;

    /// Bytes per input record (drives PCI-E staging and partition sizes).
    fn item_bytes(&self) -> u64;

    /// Arithmetic intensity and GPU data residency, for Equation (8).
    fn workload(&self) -> Workload;

    /// The C/C++ map flavour: processes `range` of the input on a CPU core
    /// of node `node`, emitting intermediate key/value pairs.
    fn cpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, Self::Inter)>;

    /// The CUDA map flavour: same contract, executed under the simulated
    /// GPU's compute engine.
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, Self::Inter)>;

    /// Reduces all intermediate values of one key. (The paper also allows
    /// a GPU reduce; apps for which that matters can branch on `device`.)
    fn reduce(&self, device: DeviceClass, key: Key, values: Vec<Self::Inter>) -> Self::Output;

    /// Optional combiner (paper Table 1's `combine()`), applied
    /// node-locally per device class before the shuffle: folds `next`
    /// into `acc`, the last value kept for `key`, and returns `None`, or
    /// returns `Some(next)` to keep `next` beside an untouched `acc`.
    /// Default: `Some(next)`, pass-through.
    ///
    /// The law: a left fold in arrival order.
    fn combine_into(
        &self,
        _key: Key,
        _acc: &mut Self::Inter,
        next: Self::Inter,
    ) -> Option<Self::Inter> {
        Some(next)
    }

    /// The fold of [`SpmdApp::combine_into`] over `values`, in order:
    /// pass-through returns `values` as they are, a combiner that folds
    /// every value returns one. Derived; the runtime never calls it.
    fn combine(&self, key: Key, values: Vec<Self::Inter>) -> Vec<Self::Inter> {
        let mut kept: Vec<Self::Inter> = Vec::with_capacity(values.len());
        for next in values {
            let next = match kept.last_mut() {
                Some(acc) => self.combine_into(key, acc, next),
                None => Some(next),
            };
            kept.extend(next);
        }
        kept
    }

    /// Optional value comparator (paper Table 1's `compare()`): when
    /// implemented, the runtime sorts each key's gathered values with it
    /// before calling [`SpmdApp::reduce`], so reducers can rely on
    /// ordered input (the classic MapReduce secondary-sort contract).
    /// Default: no ordering guarantee beyond (source rank, send order).
    fn compare(&self, _a: &Self::Inter, _b: &Self::Inter) -> Option<std::cmp::Ordering> {
        None
    }

    /// Roofline work of mapping `items` records (device-independent: the
    /// per-device rate difference comes from the device model).
    fn map_work(&self, items: usize) -> WorkProfile {
        let bytes = items as f64 * self.item_bytes() as f64;
        let w = self.workload();
        WorkProfile {
            flops: bytes * w.ai_cpu,
            dram_bytes: bytes,
        }
    }

    /// Roofline work of reducing `n_values` intermediates of one key.
    fn reduce_work(&self, n_values: usize) -> WorkProfile {
        // Default: reductions touch each intermediate once at low intensity.
        let bytes = n_values as f64 * 64.0;
        WorkProfile {
            flops: 2.0 * bytes,
            dram_bytes: bytes,
        }
    }

    /// Wire size of one intermediate value (shuffle timing).
    fn inter_bytes(&self, _value: &Self::Inter) -> u64 {
        64
    }

    /// Wire size of one output value (gather/allgather timing).
    fn output_bytes(&self, _value: &Self::Output) -> u64 {
        64
    }
}

/// Extension for iterative applications (C-means, GMM, K-means): the
/// runtime loops map→reduce→update until convergence or an iteration cap,
/// caching loop-invariant data in GPU memory across iterations
/// (paper §III.C.3).
pub trait IterativeApp: SpmdApp {
    /// Consumes the globally gathered outputs of one iteration, updates
    /// internal model state (centers, mixture parameters, ...), and
    /// returns `true` when converged. Called identically on every node
    /// with identically ordered outputs, so state stays replicated.
    fn update(&self, outputs: &[(Key, Self::Output)]) -> bool;
}

/// Extension for iterative applications whose model state can be
/// checkpointed and restored, enabling the epoch-based recovery driver
/// (`run_epochs`) to resume a crashed job from the last iteration
/// boundary.
///
/// The byte format is the app's own business — the runtime treats it as
/// opaque — but it must be **deterministic** (identical state ⇒ identical
/// bytes) and `restore_state(save_state())` must reproduce the state
/// exactly, bit for bit, or resumed runs will diverge from fault-free
/// ones.
pub trait CheckpointableApp: IterativeApp {
    /// Serializes the mutable model state (centers, mixture parameters,
    /// convergence trackers, ...) — not the immutable input data, which
    /// every node reloads on restart.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state previously produced by
    /// [`CheckpointableApp::save_state`]. Panics or garbage-in is
    /// acceptable for bytes this app never emitted.
    fn restore_state(&self, bytes: &[u8]);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use roofline::model::DataResidency;
    use std::sync::Arc;

    /// The runtime's unit-test app: a histogram of item values modulo
    /// `k`, which exercises map, combine, shuffle and reduce with
    /// verifiable output.
    pub(crate) struct ModCount {
        pub(crate) n: usize,
        pub(crate) k: u64,
        pub(crate) ai: f64,
        pub(crate) residency: DataResidency,
    }

    impl ModCount {
        /// Staged, at intensity 2.
        pub(crate) fn new(n: usize, k: u64) -> Arc<Self> {
            Arc::new(ModCount { n, k, ai: 2.0, residency: DataResidency::Staged })
        }

        pub(crate) fn resident(n: usize, k: u64, ai: f64) -> Arc<Self> {
            Arc::new(ModCount { n, k, ai, residency: DataResidency::Resident })
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
        fn combine_into(&self, _key: Key, acc: &mut u64, next: u64) -> Option<u64> {
            *acc += next;
            None
        }
    }

    /// 100 items over 4 keys, staged at intensity 1.
    fn app() -> ModCount {
        ModCount { n: 100, k: 4, ai: 1.0, residency: DataResidency::Staged }
    }

    #[test]
    fn default_map_work_uses_workload_intensity() {
        let app = app();
        let w = app.map_work(10);
        assert_eq!(w.dram_bytes, 80.0);
        assert_eq!(w.flops, 80.0);
        assert_eq!(w.intensity(), 1.0);
    }

    #[test]
    fn default_sizes_are_reasonable() {
        let app = app();
        assert_eq!(app.inter_bytes(&1), 64);
        assert_eq!(app.output_bytes(&1), 64);
        let rw = app.reduce_work(10);
        assert!(rw.flops > 0.0);
    }

    #[test]
    fn combiner_compresses() {
        let app = app();
        let combined = app.combine(0, vec![1, 1, 1]);
        assert_eq!(combined, vec![3]);
    }
}
