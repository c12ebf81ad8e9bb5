//! Job orchestration: the entry points, the simulated cluster a job runs
//! on, the master task scheduler (the first level of paper §III's
//! two-level scheduler) and the summary of a finished run. The per-node
//! second level lives in `worker.rs`.

use crate::api::{DeviceClass, IterativeApp, Key, SpmdApp};
use crate::cluster::ClusterSpec;
use crate::config::{CalibrationMode, JobConfig, SchedulingMode};
use crate::faults::FaultPlan;
use crate::metrics::{JobMetrics, RecoveryCounters, StageTimes};
use crate::task::split_range;
use crate::timeline::device_timeline;
use crate::worker::{
    cpu_poller, gpu_stream_worker, record_recovery, JobShared, NodePorts, RecoveryAction, Worker,
};
use device::{CompletionBoard, FatNode};
use netsim::Network;
use obs::{kinds, trace_ctx, Obs};
use parking_lot::Mutex;
use roofline::model::DataResidency;
use roofline::profiles::DeviceProfile;
use roofline::schedule::{partition_across_nodes, Workload};
use simtime::{Channel, EngineConfig, Sim, SimCtx, SimError, SimReport, SimTime};
use std::ops::Range;
use std::sync::Arc;

/// Why a job could not run (or crashed mid-simulation).
#[derive(Debug)]
pub enum JobError {
    /// The configuration is inconsistent with the cluster or application.
    InvalidConfig(String),
    /// The underlying simulation failed (deadlock, panic, event limit, no
    /// stack left for a simulated process).
    Sim(SimError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::InvalidConfig(msg) => write!(f, "invalid job config: {msg}"),
            JobError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A completed job: the reduce outputs (gathered, sorted by key) plus all
/// measurements.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Final outputs, sorted by key.
    pub outputs: Vec<(Key, O)>,
    /// Everything measured.
    pub metrics: JobMetrics,
}

/// Runs a single map/shuffle/reduce pass of `app` on `spec`.
pub fn run_job<A: SpmdApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
) -> Result<JobResult<A::Output>, JobError> {
    run_job_observed(spec, app, config, Obs::disabled())
}

/// Like [`run_job`], with a live [`Obs`] bundle attached to every layer:
/// device daemons, comm fabric, the master scheduler, and the per-node
/// sub-task schedulers (including the decision audit log). Recording
/// never advances virtual time, so the metrics are bit-identical to an
/// unobserved run.
pub fn run_job_observed<A: SpmdApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    obs: Obs,
) -> Result<JobResult<A::Output>, JobError> {
    run_with_update(spec, app, config, Arc::new(|_| true), obs, RunHooks::default())
}

/// Runs an iterative job: map/shuffle/reduce, then [`IterativeApp::update`]
/// on the gathered outputs, looping until convergence or
/// `config.max_iterations`.
pub fn run_iterative<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
) -> Result<JobResult<A::Output>, JobError> {
    run_iterative_observed(spec, app, config, Obs::disabled())
}

/// Like [`run_iterative`], with a live [`Obs`] bundle (see
/// [`run_job_observed`]).
pub fn run_iterative_observed<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    obs: Obs,
) -> Result<JobResult<A::Output>, JobError> {
    let hook = app.clone();
    run_with_update(
        spec,
        app,
        config,
        Arc::new(move |outputs| hook.update(outputs)),
        obs,
        RunHooks::default(),
    )
}

pub(crate) type UpdateFn<A> =
    Arc<dyn Fn(&[(Key, <A as SpmdApp>::Output)]) -> bool + Send + Sync>;

pub(crate) enum CtrlMsg {
    /// A partition assignment. `id` is unique per *attempt*: a re-sent or
    /// reassigned partition carries a fresh id, so a late acknowledgement
    /// of an abandoned attempt can never confirm the wrong placement.
    Partition { id: u64, range: Range<usize> },
    /// End of assignment: the ids this node must actually execute (its
    /// other received assignments were reassigned elsewhere meanwhile).
    Done { confirmed: Vec<u64> },
}

/// What one node's sub-task scheduler reports when it exits.
#[derive(Default)]
pub(crate) struct NodeReport {
    /// Stage seconds of every completed iteration.
    pub iters: Vec<StageTimes>,
    pub setup_end: f64,
    /// The last static CPU fraction used (`None` in dynamic mode).
    pub p_used: Option<f64>,
    /// Claimed map blocks per device class (`DeviceClass as usize`).
    pub map_tasks: [u64; 2],
}

/// What the simulation hands back to the caller: every node's report
/// plus, from rank 0, the job's outputs and how the attempt ended.
pub(crate) struct Collected<O> {
    pub nodes: Vec<NodeReport>,
    pub outputs: Vec<(Key, O)>,
    pub interrupted: bool,
    pub handoff: bool,
    pub paused: bool,
}

/// An iteration checkpoint: exactly what a restore reads back.
pub(crate) struct Checkpoint {
    /// Completed iterations, cumulative across recovery epochs (resume
    /// starts at this iteration).
    pub iteration: u64,
    /// Cumulative virtual clock (seconds) at the checkpointed reduce.
    pub virtual_secs: f64,
    /// Opaque application model state
    /// ([`crate::api::CheckpointableApp::save_state`]).
    pub app_state: Vec<u8>,
}

/// Checkpoint cadence and slot for one attempt, armed by the epoch
/// driver. Rank 0's sub-task scheduler overwrites `latest` after every
/// `interval`-th *cumulative* iteration (host-side only — writing never
/// advances the virtual clock).
pub(crate) struct CheckpointHooks {
    /// Cumulative iterations between checkpoints (>= 1).
    pub interval: u64,
    /// The epoch driver's latest-checkpoint slot.
    pub latest: Arc<Mutex<Checkpoint>>,
    /// Serializes the application's model state.
    pub save_state: Arc<dyn Fn() -> Vec<u8> + Send + Sync>,
    /// Iterations completed before this attempt started (checkpoint
    /// `iteration` fields are cumulative across recovery epochs).
    pub base_iteration: u64,
    /// Cumulative virtual seconds consumed before this attempt started.
    pub base_secs: f64,
}

/// Driver-side hooks for one simulation attempt (recovery epoch). The
/// plain entry points run with `RunHooks::default()`; the epoch
/// driver arms the epoch's first scheduled crash time and the checkpoint
/// slot.
#[derive(Default)]
pub(crate) struct RunHooks {
    /// Abort the attempt at the first iteration boundary at or after this
    /// virtual time (attempt-local seconds) — how a node/master crash
    /// manifests inside one epoch's simulation.
    pub abort_at: Option<f64>,
    /// Checkpointing, when armed.
    pub checkpoint: Option<CheckpointHooks>,
    /// Pause the attempt at the first iteration boundary at or after this
    /// virtual time (attempt-local seconds) — how a scheduled membership
    /// change (drain start, scale-out admission) manifests inside one
    /// epoch. Unlike `abort_at`, the boundary's model update is applied
    /// before the pause.
    pub finish_at: Option<f64>,
    /// Drain deadline (attempt-local seconds): a paused boundary *past*
    /// this instant means the drain overran its grace window, so the
    /// attempt aborts instead (checkpoint handoff) and the update is
    /// discarded.
    pub finish_deadline: Option<f64>,
    /// Stable node id simulated at each rank. `None` means the identity
    /// mapping (a fixed cluster). Lane names, stack frames, and audit
    /// rows use the stable id so evicted nodes never shift the
    /// attribution of later events; collectives and channels stay in the
    /// contiguous rank space.
    pub node_ids: Option<Arc<Vec<usize>>>,
}

/// The master's partition plan: each node's contiguous share of the input
/// (heterogeneity-weighted when configured), cut into
/// `partitions_per_node` partitions. Pure function of the cluster and
/// config — shared by the master loop and the GPU-memory check in
/// validation, so the checked plan always matches the real one.
fn partition_plan(
    profiles: &[DeviceProfile],
    workload: &Workload,
    total_items: usize,
    config: &JobConfig,
) -> Vec<(usize, Range<usize>)> {
    let weights = if config.hetero_aware_partitioning {
        partition_across_nodes(profiles, workload, total_items as u64)
    } else {
        let n = profiles.len() as u64;
        let base = total_items as u64 / n;
        let extra = total_items as u64 % n;
        (0..n).map(|i| base + u64::from(i < extra)).collect()
    };
    let mut plan: Vec<(usize, Range<usize>)> = Vec::new();
    let mut start = 0usize;
    for (rank, &items) in weights.iter().enumerate() {
        let node_range = start..start + items as usize;
        start = node_range.end;
        for part in split_range(node_range, config.partitions_per_node) {
            plan.push((rank, part));
        }
    }
    plan
}

fn validate<A: SpmdApp>(spec: &ClusterSpec, app: &A, config: &JobConfig) -> Result<(), JobError> {
    check_config(spec, config)?;
    if app.num_items() == 0 {
        return Err(JobError::InvalidConfig("application has no input".into()));
    }
    check_resident_fit(spec, app, config)
}

/// The checks every job makes of its configuration against its cluster
/// before it starts, leaving out those that need the application's input
/// (an empty input, a resident share larger than GPU memory). A front end
/// calls it to tell a bad argument from a job that ran and failed: every
/// error it returns is one a run of the same `config` on `spec` returns.
pub fn check_config(spec: &ClusterSpec, config: &JobConfig) -> Result<(), JobError> {
    if spec.is_empty() {
        return Err(JobError::InvalidConfig("cluster has no nodes".into()));
    }
    let needs_gpu = !matches!(config.scheduling, SchedulingMode::CpuOnly);
    if needs_gpu {
        if config.gpus_per_node == 0 {
            return Err(JobError::InvalidConfig("gpus_per_node must be >= 1".into()));
        }
        if let Some(bad) = spec
            .nodes
            .iter()
            .find(|n| n.gpus.len() < config.gpus_per_node)
        {
            return Err(JobError::InvalidConfig(format!(
                "scheduling mode needs {} GPU(s) but node profile '{}' has {}",
                config.gpus_per_node,
                bad.name,
                bad.gpus.len()
            )));
        }
    }
    if config.partitions_per_node == 0 {
        return Err(JobError::InvalidConfig(
            "partitions_per_node must be >= 1".into(),
        ));
    }
    if config.gpu_streams == 0 && needs_gpu {
        return Err(JobError::InvalidConfig("gpu_streams must be >= 1".into()));
    }
    if config.blocks_per_core == 0 {
        return Err(JobError::InvalidConfig("blocks_per_core must be >= 1".into()));
    }
    if config.gpu_blocks_per_partition == 0 && needs_gpu {
        return Err(JobError::InvalidConfig(
            "gpu_blocks_per_partition must be >= 1".into(),
        ));
    }
    if config.max_iterations == 0 {
        return Err(JobError::InvalidConfig("max_iterations must be >= 1".into()));
    }
    if let SchedulingMode::Static {
        p_override: Some(p),
    } = config.scheduling
    {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(JobError::InvalidConfig(format!(
                "static CPU fraction {p} out of [0,1]"
            )));
        }
    }
    if let SchedulingMode::Dynamic { block_items } = config.scheduling {
        if block_items == 0 {
            return Err(JobError::InvalidConfig(
                "dynamic block_items must be >= 1".into(),
            ));
        }
    }
    if let Some(t) = config.partition_timeout_secs {
        if !t.is_finite() || t <= 0.0 {
            return Err(JobError::InvalidConfig(format!(
                "partition_timeout_secs {t} must be positive and finite"
            )));
        }
    }
    if let CalibrationMode::Online { alpha } = config.calibration {
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(JobError::InvalidConfig(format!(
                "calibration alpha {alpha} out of [0,1]"
            )));
        }
        // Calibration re-solves Equation (8); it is meaningless where the
        // split is pinned (override) or emerges from polling (dynamic).
        if !matches!(
            config.scheduling,
            SchedulingMode::Static { p_override: None }
        ) {
            return Err(JobError::InvalidConfig(
                "online calibration requires Static scheduling without p_override".into(),
            ));
        }
    }
    if let Some(m) = config.speculation_lag_multiplier {
        if !m.is_finite() || m <= 1.0 {
            return Err(JobError::InvalidConfig(format!(
                "speculation_lag_multiplier {m} must be finite and > 1"
            )));
        }
    }
    if let Err(msg) = spec.faults.validate() {
        return Err(JobError::InvalidConfig(format!("fault plan: {msg}")));
    }
    if spec.faults.has_crash_faults() {
        return Err(JobError::InvalidConfig(
            "node/master crash faults require the epoch driver \
             (run_epochs); the plain drivers cannot survive them"
                .into(),
        ));
    }
    if let Some(max) = spec.faults.max_node_ref() {
        if max >= spec.len() {
            return Err(JobError::InvalidConfig(format!(
                "fault plan references node {max} but the cluster has {} nodes",
                spec.len()
            )));
        }
    }
    Ok(())
}

/// A `Resident` workload cached in GPU memory puts a copy of the node's
/// whole home share on every engaged GPU; refuse a share that cannot fit
/// before the clock starts. (A partition reassigned onto a node later is
/// the one case only the in-simulation allocation can see.)
fn check_resident_fit<A: SpmdApp>(
    spec: &ClusterSpec,
    app: &A,
    config: &JobConfig,
) -> Result<(), JobError> {
    let workload = app.workload();
    let cached = workload.residency == DataResidency::Resident && config.cache_resident_data;
    if !cached || matches!(config.scheduling, SchedulingMode::CpuOnly) {
        return Ok(());
    }
    let mut share = vec![0u64; spec.len()];
    for (rank, part) in partition_plan(&spec.nodes, &workload, app.num_items(), config) {
        share[rank] += part.len() as u64 * app.item_bytes();
    }
    for (rank, (node, bytes)) in spec.nodes.iter().zip(share).enumerate() {
        let engaged = node.gpus.iter().take(config.gpus_per_node);
        if let Some(mem) = engaged.map(|g| g.mem_bytes).find(|&mem| bytes > mem) {
            return Err(JobError::InvalidConfig(format!(
                "node {rank}'s resident working set is {bytes} bytes but its GPU memory \
                 holds {mem} bytes"
            )));
        }
    }
    Ok(())
}

/// The simulated cluster one attempt runs on.
struct Cluster {
    nodes: Vec<Arc<FatNode>>,
    network: Arc<Network>,
    faults: FaultPlan,
}

/// Builds the fat nodes and the fabric, attaches the observability sinks,
/// and arms the failure scenario on every layer before the clock starts.
fn build_cluster(spec: &ClusterSpec, obs: &Obs, hooks: &RunHooks) -> Cluster {
    let n = spec.len();
    // Stable node ids: lane names and attribution follow the id, while
    // channels/collectives use the contiguous rank. Identity on plain
    // fixed-cluster runs, so their artifacts are byte-unchanged.
    if let Some(ids) = &hooks.node_ids {
        assert_eq!(ids.len(), n, "node_ids must map every rank exactly once");
    }
    let node_id = |rank: usize| hooks.node_ids.as_ref().map_or(rank, |ids| ids[rank]);
    let nodes: Vec<Arc<FatNode>> = spec
        .nodes
        .iter()
        .enumerate()
        .map(|(rank, prof)| FatNode::new(node_id(rank), prof.clone(), spec.overheads))
        .collect();
    let faults = spec.faults.clone();
    for (rank, node) in nodes.iter().enumerate() {
        if obs.is_enabled() {
            node.attach_obs(obs);
        }
        // Device slowdown/crash state, then fabric disruption windows.
        node.cpu.set_slowdowns(faults.cpu_windows(rank));
        for (g, gpu) in node.gpus.iter().enumerate() {
            gpu.set_crash_at(faults.gpu_crash_at(rank, g));
            gpu.set_slowdowns(faults.gpu_windows(rank, g));
        }
    }
    let network = Network::new("data", n, spec.network);
    network.set_disruptions(faults.link_disruptions());
    if obs.is_enabled() {
        network.attach_obs(obs.clone());
    }
    Cluster {
        nodes,
        network,
        faults,
    }
}

pub(crate) fn run_with_update<A: SpmdApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    update: UpdateFn<A>,
    obs: Obs,
    hooks: RunHooks,
) -> Result<JobResult<A::Output>, JobError> {
    validate(spec, app.as_ref(), &config)?;
    // The stack may be shared with earlier runs (the epoch driver's
    // attempts): this run's device timeline is what it appends.
    let stack_mark = obs.stack.len();
    let n = spec.len();
    // Shard layout for the parallel engine: the master (plus any
    // `Sim::schedule` timers) on shard 0, each node's processes on shard
    // `1 + rank`. Lookahead is the network's α latency — a batching knob
    // only; sequential and parallel runs are bit-identical regardless.
    let mut sim = Sim::with_config(EngineConfig {
        mode: config.engine,
        shards: n + 1,
        lookahead: spec.network.conservative_lookahead(),
    });
    let cluster = build_cluster(spec, &obs, &hooks);
    let job = Arc::new(JobShared {
        app,
        config,
        update,
        obs,
        hooks,
        recovery: Mutex::new(RecoveryCounters::default()),
        collect: Mutex::new(Collected {
            nodes: (0..n).map(|_| NodeReport::default()).collect(),
            outputs: Vec::new(),
            interrupted: false,
            handoff: false,
            paused: false,
        }),
    });

    let ctrl: Vec<Channel<CtrlMsg>> = (0..n).map(|r| Channel::new(&format!("ctrl{r}"))).collect();
    // Acknowledgement path from the sub-task schedulers back to the
    // master: (rank, attempt id).
    let acks: Channel<(usize, u64)> = Channel::new("acks");
    {
        let (job, spec, ctrl, acks) = (job.clone(), spec.clone(), ctrl.clone(), acks.clone());
        sim.spawn("master", move |ctx| {
            master_body(ctx, &job, &spec, &ctrl, &acks)
        });
    }
    for (rank, ctrl) in ctrl.into_iter().enumerate() {
        spawn_node(&mut sim, rank, &cluster, &job, ctrl, acks.clone());
    }

    let report = sim.run().map_err(JobError::Sim)?;

    // The simulation is over: every event is committed, so the recorder
    // can settle — final ingest, then window/budget eviction over the
    // complete (fully deterministic) set.
    job.obs.recorder.settle(&job.obs.bus);
    let job = Arc::try_unwrap(job)
        .ok()
        .expect("all simulation processes have finished");
    Ok(summarize(job, &cluster, &report, stack_mark))
}

/// The master: the first-level task scheduler. Every partition assignment
/// must be acknowledged; with `partition_timeout_secs` set, a node that
/// misses the deadline is retried `max_partition_retries` times, then
/// the partition is reassigned round-robin to the next node — the
/// paper's master augmented with straggler resilience.
fn master_body<A: SpmdApp>(
    ctx: &SimCtx,
    job: &JobShared<A>,
    spec: &ClusterSpec,
    ctrl: &[Channel<CtrlMsg>],
    acks: &Channel<(usize, u64)>,
) {
    let (config, obs, latency) = (&job.config, &job.obs, spec.network.latency);
    let recover = |action| record_recovery(ctx.now(), &job.recovery, obs, "master", action);
    let plan = partition_plan(
        &spec.nodes,
        &job.app.workload(),
        job.app.num_items(),
        config,
    );
    let n = ctrl.len();
    let timeout = config.partition_timeout_secs.map(SimTime::from_secs_f64);
    let mut confirmed: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut next_id = 0u64;
    for (home, part) in plan {
        let mut target = home;
        let mut attempts = 0u32;
        let mut hops = 0usize;
        loop {
            let id = next_id;
            next_id += 1;
            ctx.hold(spec.overheads.task_dispatch);
            let range = part.clone();
            ctrl[target].send_delayed(ctx, CtrlMsg::Partition { id, range }, latency);
            if let Some(d) = obs.bus.event("master", kinds::ASSIGN, ctx.now()) {
                d.partition(id as usize)
                    .attr("target", target as f64)
                    .attr("items", part.len() as f64)
                    .commit();
            }
            // Control-plane flow: pairs with the worker's `msg-recv` on
            // its sched lane. The attempt id is unique per send, so
            // retries/reassignments each get their own flow and
            // conservation holds exactly.
            if let Some(d) = obs.bus.event("master", kinds::MSG_SEND, ctx.now()) {
                let flow = trace_ctx::flow_id(trace_ctx::CONTROL_RANK, target as u64, id);
                d.partition(id as usize)
                    .attr("flow", flow as f64)
                    .attr("dst", target as f64)
                    .attr("items", part.len() as f64)
                    .commit();
            }
            // After two full passes over the cluster every node has had
            // its retry budget twice; at that point the master waits
            // unconditionally — termination beats detection.
            let patience = timeout.filter(|_| hops < 2 * n);
            if await_ack(ctx, acks, id, patience.map(|t| ctx.now() + t)) {
                confirmed[target].push(id);
                break;
            }
            let Some(waited) = patience else {
                break; // ack channel closed: simulation is ending
            };
            job.recovery.lock().seconds_lost_to_faults += waited.as_secs_f64();
            if attempts < config.max_partition_retries {
                attempts += 1;
                recover(RecoveryAction::Retry {
                    partition: id,
                    target,
                    attempt: attempts,
                });
            } else {
                attempts = 0;
                hops += 1;
                let from = target;
                target = (target + 1) % n;
                recover(RecoveryAction::Reassign {
                    partition: id,
                    from,
                    to: target,
                });
            }
        }
    }
    for (ch, confirmed) in ctrl.iter().zip(confirmed) {
        ch.send_delayed(ctx, CtrlMsg::Done { confirmed }, latency);
    }
}

/// Waits for the acknowledgement of attempt `id` — until `deadline`, or
/// for as long as the channel stays open without one — skipping stale
/// acks of abandoned attempts. False when none came.
fn await_ack(
    ctx: &SimCtx,
    acks: &Channel<(usize, u64)>,
    id: u64,
    deadline: Option<SimTime>,
) -> bool {
    loop {
        let ack = match deadline {
            None => acks.recv(ctx),
            Some(deadline) => acks.recv_deadline(ctx, deadline).msg(),
        };
        match ack {
            Some((_, aid)) if aid == id => return true,
            Some(_) => continue,
            None => return false,
        }
    }
}

/// One node's runtime: its task queues, its device daemons and its
/// sub-task scheduler.
fn spawn_node<A: SpmdApp>(
    sim: &mut Sim,
    rank: usize,
    cluster: &Cluster,
    job: &Arc<JobShared<A>>,
    ctrl: Channel<CtrlMsg>,
    acks: Channel<(usize, u64)>,
) {
    let config = &job.config;
    let cpu_q = Channel::new(&format!("n{rank}-cpuq"));
    // In dynamic mode both device classes poll one shared queue; in
    // the static modes each class has its own.
    let gpu_q = match config.scheduling {
        SchedulingMode::Dynamic { .. } => cpu_q.clone(),
        _ => Channel::new(&format!("n{rank}-gpuq")),
    };
    let ports = Arc::new(NodePorts {
        node: cluster.nodes[rank].clone(),
        cpu_q,
        gpu_q,
        results: Channel::new(&format!("n{rank}-results")),
        ready: Channel::new(&format!("n{rank}-ready")),
        board: CompletionBoard::new(),
    });

    if !matches!(config.scheduling, SchedulingMode::GpuOnly) {
        for core in 0..ports.node.cpu.spec.cores {
            let (app, ports) = (job.app.clone(), ports.clone());
            sim.spawn_task_on(1 + rank, &format!("n{rank}-cpu{core}"), move |ctx| {
                cpu_poller(ctx, app, ports)
            });
        }
    }
    if !matches!(config.scheduling, SchedulingMode::CpuOnly) {
        for g in 0..config.gpus_per_node {
            for stream in 0..config.gpu_streams {
                let (job, ports) = (job.clone(), ports.clone());
                sim.spawn_task_on(1 + rank, &format!("n{rank}-gpu{g}-s{stream}"), move |ctx| {
                    gpu_stream_worker(ctx, job, ports, g)
                });
            }
        }
    }

    let comm = cluster.network.communicator(rank);
    let stalls = cluster.faults.stalls_for(rank);
    let worker = Worker::new(rank, job.clone(), ports, comm, ctrl, acks, stalls);
    sim.spawn_on(1 + rank, &format!("n{rank}-worker"), move |ctx| {
        worker.run(ctx)
    });
}

/// Folds what the nodes reported into the job's result: per-iteration
/// stage times are the slowest node's, set-up ends when the last node's
/// does, and the device timeline is what the stack gained past
/// `stack_mark`.
fn summarize<A: SpmdApp>(
    job: JobShared<A>,
    cluster: &Cluster,
    report: &SimReport,
    stack_mark: usize,
) -> JobResult<A::Output> {
    let Collected {
        nodes: reports,
        outputs,
        interrupted,
        handoff,
        paused,
    } = job.collect.into_inner();
    let iterations_done = reports.iter().map(|r| r.iters.len()).max().unwrap_or(0);
    let iterations: Vec<StageTimes> = (0..iterations_done)
        .map(|it| {
            let ran = reports.iter().filter_map(|r| r.iters.get(it));
            ran.fold(StageTimes::default(), |acc, s| acc.max(s))
        })
        .collect();
    let map_tasks = |class: DeviceClass| reports.iter().map(|r| r.map_tasks[class as usize]).sum();
    let cpu_fractions: Vec<Option<f64>> = reports.iter().map(|r| r.p_used).collect();

    let nodes = &cluster.nodes;
    let metrics = JobMetrics {
        total_seconds: report.end_time.as_secs_f64(),
        sim_events: report.events_processed,
        sim_handoffs: report.handoffs,
        sim_switches: report.switches,
        setup_seconds: reports.iter().map(|r| r.setup_end).fold(0.0, f64::max),
        compute_seconds: iterations.iter().map(|s| s.total()).sum(),
        iterations,
        cpu_fraction: cpu_fractions.first().copied().flatten(),
        cpu_fractions,
        cpu_stats: nodes.iter().map(|n| n.cpu.stats()).collect(),
        gpu_stats: nodes
            .iter()
            .map(|n| n.gpus.iter().map(|g| g.stats()).collect())
            .collect(),
        cpu_map_tasks: map_tasks(DeviceClass::Cpu),
        gpu_map_tasks: map_tasks(DeviceClass::Gpu),
        timeline: device_timeline(&job.obs.stack, stack_mark),
        recovery: job.recovery.into_inner(),
        interrupted,
        handoff,
        paused,
    };
    if job.obs.metrics.is_enabled() {
        fill_registry(&job.obs, nodes, &metrics);
    }
    JobResult { outputs, metrics }
}

/// Populates the end-of-run summary series in the metrics registry from
/// the finished [`JobMetrics`]: per-device utilization, task and flop
/// totals, recovery counters, and job-level timing gauges. Kept out of
/// the simulation so it costs nothing while the virtual clock runs.
fn fill_registry(obs: &Obs, nodes: &[Arc<FatNode>], metrics: &JobMetrics) {
    let m = &obs.metrics;
    let total = metrics.total_seconds;
    for node in nodes.iter() {
        let cpu = node.cpu.stats();
        // Stable node id, not the positional rank: on an elastic cluster
        // the summary series must name the same device the event lanes do.
        let r = node.rank;
        let name = format!("node{r}-cpu");
        m.counter_add("prs_tasks_total", &[("device", &name)], cpu.tasks as f64);
        m.counter_add("prs_flops_total", &[("device", &name)], cpu.flops);
        let cores = node.cpu.spec.cores as f64;
        if total > 0.0 && cores > 0.0 {
            m.gauge_set(
                "prs_device_utilization",
                &[("device", &name)],
                cpu.core_busy / (cores * total),
            );
        }
        for (g, gpu) in node.gpus.iter().enumerate() {
            let gs = gpu.stats();
            let gname = format!("node{r}-gpu{g}");
            m.counter_add("prs_tasks_total", &[("device", &gname)], gs.kernels as f64);
            m.counter_add("prs_flops_total", &[("device", &gname)], gs.flops);
            if total > 0.0 {
                m.gauge_set(
                    "prs_device_utilization",
                    &[("device", &gname)],
                    gs.compute_busy / total,
                );
            }
        }
    }
    let rec = &metrics.recovery;
    for (action, count) in [
        ("retry", rec.retries),
        ("reassignment", rec.reassignments),
        ("gpu_daemon_crash", rec.gpu_daemon_crashes),
        ("block_requeued", rec.blocks_requeued),
        ("speculative_launched", rec.speculative_launched),
        ("speculative_won", rec.speculative_won),
        ("speculative_wasted", rec.speculative_wasted),
        ("node_crash", rec.node_crashes),
        ("master_failover", rec.master_failovers),
        ("checkpoint_written", rec.checkpoints_written),
        ("restore", rec.restores),
    ] {
        m.counter_add("prs_recovery_total", &[("action", action)], count as f64);
    }
    m.gauge_set("prs_seconds_lost_to_faults", &[], rec.seconds_lost_to_faults);
    m.gauge_set("prs_total_seconds", &[], metrics.total_seconds);
    m.gauge_set("prs_setup_seconds", &[], metrics.setup_seconds);
    m.gauge_set("prs_compute_seconds", &[], metrics.compute_seconds);
    m.gauge_set("prs_iterations", &[], metrics.iterations.len() as f64);
    m.counter_add("prs_map_tasks_total", &[("device", "cpu")], metrics.cpu_map_tasks as f64);
    m.counter_add("prs_map_tasks_total", &[("device", "gpu")], metrics.gpu_map_tasks as f64);
}
