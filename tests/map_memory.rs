//! How many map intermediates a job holds at once. Every value of the
//! fixture app books itself live from its creation (or clone) to its
//! drop, in a counter of the thread the simulation runs on, and the test
//! reads the counter's peak over a whole job.
//!
//! A node folds each map block into its running partials as the block
//! lands, and a block's output exists only from its kernel's end until
//! the node drains it. So a node holds at most its two sides' partials
//! and the block in hand: three values per key, whatever its block
//! count.

use prs_core::{run_job, ClusterSpec, DeviceClass, JobConfig, Key, SpmdApp};
use roofline::model::DataResidency;
use roofline::profiles::DeviceProfile;
use roofline::schedule::Workload;
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// An intermediate count that is live from creation to drop.
struct Counted(u64);

impl Counted {
    fn new(count: u64) -> Self {
        let live = LIVE.get() + 1;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
        Counted(count)
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(self.0)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        LIVE.set(LIVE.get() - 1);
    }
}

/// Every block emits one value for each of `keys` keys: how many items
/// it mapped. The combiner adds into the held value, making none.
struct EveryKey {
    n: usize,
    keys: u64,
}

impl SpmdApp for EveryKey {
    type Inter = Counted;
    type Output = u64;

    fn num_items(&self) -> usize {
        self.n
    }
    fn item_bytes(&self) -> u64 {
        64
    }
    fn workload(&self) -> Workload {
        // Kernels long against the 5 µs dispatch step: no block lands
        // while its node is still dispatching.
        Workload::uniform(10_000.0, DataResidency::Staged)
    }
    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, Counted)> {
        (0..self.keys).map(|k| (k, Counted::new(range.len() as u64))).collect()
    }
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, Counted)> {
        self.cpu_map(node, range)
    }
    fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<Counted>) -> u64 {
        values.iter().map(|c| c.0).sum()
    }
    fn combine_into(&self, _key: Key, acc: &mut Counted, next: Counted) -> Option<Counted> {
        acc.0 += next.0;
        None
    }
}

/// 64 nodes, each mapping its two partitions as eight CPU and four GPU
/// blocks apiece: 24 blocks per node, each carrying every key.
#[test]
fn a_node_holds_at_most_three_map_values_per_key() {
    let (nodes, keys, n) = (64, 4, 64 * 2 * 400);
    let spec = ClusterSpec::homogeneous(
        nodes,
        DeviceProfile::micro_node(),
        netsim::NetworkParams::infiniband_qdr(),
    );
    let config = JobConfig::static_with_p(0.5);
    let app = Arc::new(EveryKey { n, keys });
    PEAK.set(0);
    let r = run_job(&spec, app, config).expect("job runs");
    let m = &r.metrics;
    assert_eq!((m.cpu_map_tasks, m.gpu_map_tasks), (16 * nodes as u64, 8 * nodes as u64));
    let counts: Vec<(Key, u64)> = r.outputs;
    assert_eq!(counts, (0..keys).map(|k| (k, n as u64)).collect::<Vec<_>>());
    assert_eq!(LIVE.get(), 0, "every intermediate is dropped by the job's end");
    let bound = 3 * nodes * keys as usize;
    let peak = PEAK.get();
    assert!(peak <= bound, "peak {peak} live intermediates, bound {bound}");
}
