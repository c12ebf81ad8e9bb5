//! # prs-baselines — the comparator runtimes of paper Table 3
//!
//! Three alternative ways of running the same [`prs_core::IterativeApp`]s,
//! used to put the PRS numbers in context:
//!
//! - [`run_mpi_gpu`] — a hand-rolled MPI + one-GPU-per-node program: one
//!   kernel per node per iteration, partials allreduced directly. No task
//!   scheduler, no shuffle, no per-block dispatch — the leanest possible
//!   runtime, and the fastest row of Table 3.
//! - [`run_mpi_cpu`] — MPI + all CPU cores per node, one block per core.
//! - [`run_mahout_like`] — a Hadoop-style iterative MapReduce cost model:
//!   per-iteration job startup, HDFS-style disk I/O around every stage,
//!   heavy per-task overhead. Reproduces the *structure* that makes Mahout
//!   two orders of magnitude slower in Table 3 (see DESIGN.md §2 for the
//!   substitution).
//!
//! All three execute the application's real kernels, so their outputs are
//! directly comparable to PRS runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use device::FatNode;
use netsim::{CollectiveSeq, Network};
use parking_lot::Mutex;
use prs_core::{ClusterSpec, DeviceClass, IterativeApp, Key};
use serde::{Deserialize, Serialize};
use simtime::{Sim, SimCtx, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Timing summary of a baseline run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineResult {
    /// One-off setup (data staging, context creation), virtual seconds.
    pub setup_seconds: f64,
    /// Sum of per-iteration times, virtual seconds.
    pub compute_seconds: f64,
    /// Iterations executed.
    pub iterations: usize,
}

impl BaselineResult {
    /// Mean per-iteration time.
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.compute_seconds / self.iterations as f64
        }
    }
}

/// Per-node contiguous shares of `[0, total)`.
fn node_ranges(total: usize, nodes: usize) -> Vec<Range<usize>> {
    let base = total / nodes;
    let extra = total % nodes;
    let mut out = Vec::with_capacity(nodes);
    let mut start = 0;
    for i in 0..nodes {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Merges pairs by key with the app's reduce, producing outputs.
fn reduce_pairs<A: IterativeApp>(
    app: &A,
    device: DeviceClass,
    pairs: Vec<(Key, A::Inter)>,
) -> Vec<(Key, A::Output)> {
    let mut grouped: BTreeMap<Key, Vec<A::Inter>> = BTreeMap::new();
    for (k, v) in pairs {
        grouped.entry(k).or_default().push(v);
    }
    grouped
        .into_iter()
        .map(|(k, vals)| (k, app.reduce(device, k, vals)))
        .collect()
}

/// The common SPMD skeleton all three baselines share: per iteration, each
/// rank produces local pairs via `map_local`, pairs are allgathered,
/// rank 0 reduces + updates, and the verdict is broadcast.
fn spmd_driver<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    iterations: usize,
    device: DeviceClass,
    setup: impl Fn(&SimCtx, &Arc<FatNode>, Range<usize>) + Send + Sync + 'static,
    map_local: impl Fn(&SimCtx, &Arc<FatNode>, Range<usize>, usize) -> Vec<(Key, A::Inter)>
        + Send
        + Sync
        + 'static,
) -> BaselineResult {
    let n = spec.len();
    let nodes: Vec<Arc<FatNode>> = spec
        .nodes
        .iter()
        .enumerate()
        .map(|(r, p)| FatNode::new(r, p.clone(), spec.overheads))
        .collect();
    let network = Network::new("mpi", n, spec.network);
    let ranges = node_ranges(app.num_items(), n);

    let timing = Arc::new(Mutex::new((0.0f64, Vec::<f64>::new())));
    let mut sim = Sim::new();
    let setup = Arc::new(setup);
    let map_local = Arc::new(map_local);
    for rank in 0..n {
        let node = nodes[rank].clone();
        let comm = network.communicator(rank);
        let app = app.clone();
        let range = ranges[rank].clone();
        let timing = timing.clone();
        let setup = setup.clone();
        let map_local = map_local.clone();
        sim.spawn(&format!("rank{rank}"), move |ctx| {
            let seq = CollectiveSeq::new();
            let coll = comm.collectives(&seq);
            setup(ctx, &node, range.clone());
            coll.barrier(ctx);
            if rank == 0 {
                timing.lock().0 = ctx.now().as_secs_f64();
            }
            for iter in 0..iterations {
                let t0 = ctx.now();
                let pairs = map_local(ctx, &node, range.clone(), iter);
                let bytes: u64 = pairs.iter().map(|(_, v)| app.inter_bytes(v)).sum();
                let all: Vec<Vec<(Key, A::Inter)>> = coll.allgather(ctx, bytes.max(1), pairs);
                let merged: Vec<(Key, A::Inter)> = all.into_iter().flatten().collect();
                let verdict = if rank == 0 {
                    let outputs = reduce_pairs(app.as_ref(), device, merged);
                    Some(app.update(&outputs))
                } else {
                    None
                };
                let converged = coll.bcast(ctx, 0, 1, verdict);
                if rank == 0 {
                    timing.lock().1.push((ctx.now() - t0).as_secs_f64());
                }
                if converged {
                    break;
                }
            }
        });
    }
    sim.run().expect("baseline simulation runs to completion");
    let (setup_seconds, iters) = {
        let t = timing.lock();
        (t.0, t.1.clone())
    };
    BaselineResult {
        setup_seconds,
        compute_seconds: iters.iter().sum(),
        iterations: iters.len(),
    }
}

/// Hand-rolled MPI + one GPU per node: one resident kernel per iteration.
pub fn run_mpi_gpu<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    iterations: usize,
) -> BaselineResult {
    assert!(
        spec.nodes.iter().all(|p| !p.gpus.is_empty()),
        "MPI/GPU baseline needs a GPU on every node"
    );
    let setup_app = app.clone();
    let map_app = app.clone();
    spmd_driver(
        spec,
        app,
        iterations,
        DeviceClass::Gpu,
        move |ctx, node, range| {
            let gpu = node.gpu().expect("checked");
            let bytes = range.len() as u64 * setup_app.item_bytes();
            let _context = gpu.create_context(ctx);
            if bytes > 0 {
                gpu.memory.alloc(bytes).expect("fits in GPU memory");
                gpu.transfer_h2d(ctx, bytes);
            }
        },
        move |ctx, node, range, _| {
            let gpu = node.gpu().expect("checked");
            let work = map_app.map_work(range.len());
            let pairs = gpu.launch(ctx, &work, || map_app.gpu_map(node.rank, range.clone()));
            let pairs = combine_local(map_app.as_ref(), pairs);
            let bytes: u64 = pairs.iter().map(|(_, v)| map_app.inter_bytes(v)).sum();
            gpu.transfer_d2h(ctx, bytes);
            pairs
        },
    )
}

/// Hand-rolled MPI using all CPU cores per node: one block per core.
pub fn run_mpi_cpu<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    iterations: usize,
) -> BaselineResult {
    let map_app = app.clone();
    spmd_driver(
        spec,
        app,
        iterations,
        DeviceClass::Cpu,
        |_, _, _| {},
        move |ctx, node, range, _| {
            // One block per core, run as child processes so cores fill in
            // parallel; results merged in block order (deterministic).
            type BlockResults<I> = Arc<Mutex<Vec<Option<Vec<(Key, I)>>>>>;
            let cores = node.cpu.spec.cores as usize;
            let blocks = split_even(range, cores);
            let results: BlockResults<A::Inter> =
                Arc::new(Mutex::new(vec![None; blocks.len()]));
            let mut handles = Vec::new();
            for (i, block) in blocks.into_iter().enumerate() {
                let node = node.clone();
                let app = map_app.clone();
                let results = results.clone();
                handles.push(ctx.spawn(&format!("blk{i}"), move |cctx| {
                    let work = app.map_work(block.len());
                    let pairs = node
                        .cpu
                        .run_task(cctx, &work, || app.cpu_map(node.rank, block.clone()));
                    results.lock()[i] = Some(pairs);
                }));
            }
            ctx.join_all(&handles);
            let collected: Vec<(Key, A::Inter)> = results
                .lock()
                .iter_mut()
                .flat_map(|slot| slot.take().expect("block finished"))
                .collect();
            combine_local(map_app.as_ref(), collected)
        },
    )
}

fn split_even(range: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    let len = range.len();
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::new();
    let mut start = range.start;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size > 0 {
            out.push(start..start + size);
            start += size;
        }
    }
    out
}

fn combine_local<A: IterativeApp>(app: &A, pairs: Vec<(Key, A::Inter)>) -> Vec<(Key, A::Inter)> {
    let mut grouped: BTreeMap<Key, Vec<A::Inter>> = BTreeMap::new();
    for (k, v) in pairs {
        grouped.entry(k).or_default().push(v);
    }
    let mut out = Vec::new();
    for (k, vals) in grouped {
        for v in app.combine(k, vals) {
            out.push((k, v));
        }
    }
    out
}

/// Cost parameters of the Hadoop/Mahout-style runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MahoutParams {
    /// Per-iteration MapReduce job launch overhead (JVM spin-up, task
    /// scheduling) — the dominant term at Table-3 scales.
    pub job_startup: SimTime,
    /// HDFS-style disk bandwidth every stage's input/output crosses.
    pub disk_bw: f64,
    /// Fixed per-map-task overhead.
    pub task_overhead: SimTime,
    /// Map tasks per node per iteration.
    pub tasks_per_node: usize,
}

impl Default for MahoutParams {
    fn default() -> Self {
        MahoutParams {
            job_startup: SimTime::from_secs(25),
            disk_bw: 100e6,
            task_overhead: SimTime::from_millis(300.0),
            tasks_per_node: 16,
        }
    }
}

/// Hadoop-style iterative MapReduce on the CPU cores: every iteration is a
/// fresh job (startup cost), all data crosses "disk" on the way in and the
/// intermediates on the way out.
pub fn run_mahout_like<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    iterations: usize,
    params: MahoutParams,
) -> BaselineResult {
    let map_app = app.clone();
    spmd_driver(
        spec,
        app,
        iterations,
        DeviceClass::Cpu,
        |_, _, _| {},
        move |ctx, node, range, _| {
            // Job startup hits every iteration (no iterative caching in
            // classic Hadoop).
            ctx.hold(params.job_startup);
            let blocks = split_even(range, params.tasks_per_node);
            let mut pairs: Vec<(Key, A::Inter)> = Vec::new();
            for block in blocks {
                ctx.hold(params.task_overhead);
                // HDFS read of the block.
                let bytes = block.len() as f64 * map_app.item_bytes() as f64;
                ctx.hold(SimTime::from_secs_f64(bytes / params.disk_bw));
                let work = map_app.map_work(block.len());
                let out = node
                    .cpu
                    .run_task(ctx, &work, || map_app.cpu_map(node.rank, block.clone()));
                pairs.extend(out);
            }
            let pairs = combine_local(map_app.as_ref(), pairs);
            // Spill intermediates to disk (write + later read).
            let inter: u64 = pairs.iter().map(|(_, v)| map_app.inter_bytes(v)).sum();
            ctx.hold(SimTime::from_secs_f64(
                2.0 * inter as f64 / params.disk_bw,
            ));
            pairs
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_apps::CMeans;
    use prs_data::gaussian::MixtureSpec;
    use prs_data::matrix::MatrixF32;

    fn points(n: usize) -> Arc<MatrixF32> {
        let spec = MixtureSpec::ring(3, 4, 30.0, 1.0);
        Arc::new(prs_data::generate(&spec, n, 17).points)
    }

    fn cmeans(n: usize) -> Arc<CMeans> {
        Arc::new(CMeans::new(points(n), 3, 2.0, 1e-9, 5))
    }

    #[test]
    fn node_ranges_cover_input() {
        let r = node_ranges(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn mpi_gpu_runs_and_times_iterations() {
        let res = run_mpi_gpu(&ClusterSpec::delta(2), cmeans(2000), 3);
        assert_eq!(res.iterations, 3);
        assert!(res.compute_seconds > 0.0);
        assert!(res.setup_seconds > 0.0, "context + staging cost time");
    }

    #[test]
    fn mpi_cpu_runs() {
        let res = run_mpi_cpu(&ClusterSpec::delta(2), cmeans(2000), 3);
        assert_eq!(res.iterations, 3);
        assert!(res.compute_seconds > 0.0);
    }

    #[test]
    fn mahout_is_dominated_by_job_startup() {
        let params = MahoutParams::default();
        let res = run_mahout_like(&ClusterSpec::delta(2), cmeans(2000), 2, params);
        assert_eq!(res.iterations, 2);
        assert!(
            res.seconds_per_iteration() >= params.job_startup.as_secs_f64(),
            "{res:?}"
        );
    }

    #[test]
    fn table3_ordering_holds() {
        // MPI/GPU < MPI/CPU << Mahout for the same app and cluster, at the
        // paper's Table-3 workload shape (D=100, K=10) where bandwidth and
        // compute terms dominate fixed overheads.
        let pts = Arc::new(prs_data::gaussian::clustering_workload(50_000, 100, 10, 23).points);
        let mk = || Arc::new(CMeans::new(pts.clone(), 10, 2.0, 1e-9, 5));
        let gpu = run_mpi_gpu(&ClusterSpec::delta(2), mk(), 2);
        let cpu = run_mpi_cpu(&ClusterSpec::delta(2), mk(), 2);
        let mahout = run_mahout_like(&ClusterSpec::delta(2), mk(), 2, MahoutParams::default());
        assert!(
            gpu.compute_seconds < cpu.compute_seconds,
            "gpu {} vs cpu {}",
            gpu.compute_seconds,
            cpu.compute_seconds
        );
        assert!(cpu.compute_seconds * 10.0 < mahout.compute_seconds);
    }

    #[test]
    fn baselines_actually_update_the_model() {
        let app = cmeans(1500);
        run_mpi_gpu(&ClusterSpec::delta(1), app.clone(), 4);
        assert_eq!(app.objective_history().len(), 4);
        for w in app.objective_history().windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "objective must decrease");
        }
    }
}
