//! The per-node half of the two-level scheduler: the sub-task scheduler
//! ([`Worker`]) written as the paper's superstep — configure, map on both
//! device classes, combine and copy back, shuffle, reduce, global gather
//! and update (§III.A.2, Figures 1 and 2) — with the CPU and GPU device
//! daemons it feeds beside it.

#![warn(clippy::too_many_lines)]

use crate::api::{DeviceClass, Key, SpmdApp};
use crate::checkpoint::Checkpoint;
use crate::config::{CalibrationMode, JobConfig, SchedulingMode};
use crate::faults::NodeStall;
use crate::job::{CheckpointHooks, Collected, CtrlMsg, NodeReport, RunHooks, UpdateFn};
use crate::metrics::{RecoveryCounters, StageTimes};
use crate::task::{split_fixed, split_range, Task, TaskResult};
use device::{CompletionBoard, FatNode, Gpu};
use insight::CalibrationProfile;
use netsim::{shuffle, CollectiveSeq, Collectives, Communicator, ShuffleItem};
use obs::{trace_ctx, DecisionId, DecisionRecord, Obs, TraceCtx};
use parking_lot::Mutex;
use roofline::model::DataResidency;
use roofline::profiles::DeviceProfile;
use roofline::schedule::{device_time, split_multi_gpu, Workload};
use simtime::{Channel, RecvOutcome, SimCtx, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// What every simulated process of one job shares.
pub(crate) struct JobShared<A: SpmdApp> {
    pub app: Arc<A>,
    pub config: JobConfig,
    pub update: UpdateFn<A>,
    pub obs: Obs,
    pub hooks: RunHooks,
    pub recovery: Mutex<RecoveryCounters>,
    pub collect: Mutex<Collected<A::Output>>,
}

/// One node's device-side plumbing, shared by its sub-task scheduler and
/// its daemons.
pub(crate) struct NodePorts<A: SpmdApp> {
    pub node: Arc<FatNode>,
    /// Polled by the CPU daemons (and, in dynamic mode, by every daemon).
    pub cpu_q: Channel<Task<A::Inter>>,
    /// Polled by the GPU daemons; the same channel as `cpu_q` in dynamic
    /// mode, where both device classes pull from one shared queue.
    pub gpu_q: Channel<Task<A::Inter>>,
    pub results: Channel<TaskResult<A::Inter, A::Output>>,
    /// One message per GPU stream daemon whose context is up.
    pub ready: Channel<()>,
    /// First-completion-wins scoreboard arbitrating speculative backup
    /// copies against their primaries (host-side only).
    pub board: CompletionBoard,
}

/// A recovery (or resilience-bookkeeping) action taken by the runtime.
///
/// Every path funnels through [`record_recovery`] so the
/// [`RecoveryCounters`] and the event bus can never drift apart — the
/// `prs top` recovery blame is only as good as this single choke point.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecoveryAction {
    /// A partition assignment re-sent to the same node after a timeout.
    Retry {
        /// Attempt id of the timed-out assignment.
        partition: u64,
        /// The unresponsive node.
        target: usize,
        /// Retry number (1-based).
        attempt: u32,
    },
    /// A partition moved to the next node after the retry budget ran out.
    Reassign {
        /// Attempt id of the abandoned assignment.
        partition: u64,
        /// The node that missed its deadline.
        from: usize,
        /// The node receiving the partition next.
        to: usize,
    },
    /// First death report from a GPU's daemons: the card itself died.
    GpuCrash {
        /// GPU index within the node.
        gpu: usize,
    },
    /// One GPU stream daemon died (fires per daemon, with the kernel time
    /// its in-flight launch lost).
    GpuDaemonDown {
        /// GPU index within the node.
        gpu: usize,
        /// Virtual seconds of kernel work lost.
        lost_secs: f64,
    },
    /// A task re-queued from a dead GPU onto surviving devices.
    BlockRequeued {
        /// GPU index the task was rescued from.
        gpu: usize,
    },
    /// A speculative backup launched against a straggling map block.
    SpecLaunch {
        /// The racing task id.
        task: u64,
    },
    /// A speculative backup finished before its primary.
    SpecWin {
        /// The racing task id.
        task: u64,
    },
    /// A speculative backup lost the race or was cancelled in the queue.
    SpecWasted {
        /// The racing task id.
        task: u64,
    },
    /// A checkpoint serialized after a global reduce (bookkeeping, not
    /// recovery — [`RecoveryCounters::is_clean`] ignores it).
    CheckpointWritten {
        /// Cumulative iteration the checkpoint captures.
        iteration: u64,
    },
}

impl RecoveryAction {
    fn count(self, r: &mut RecoveryCounters) {
        use RecoveryAction::*;
        match self {
            Retry { .. } => r.retries += 1,
            Reassign { .. } => r.reassignments += 1,
            GpuCrash { .. } => r.gpu_daemon_crashes += 1,
            GpuDaemonDown { lost_secs, .. } => r.seconds_lost_to_faults += lost_secs,
            BlockRequeued { .. } => r.blocks_requeued += 1,
            SpecLaunch { .. } => r.speculative_launched += 1,
            SpecWin { .. } => r.speculative_won += 1,
            SpecWasted { .. } => r.speculative_wasted += 1,
            CheckpointWritten { .. } => r.checkpoints_written += 1,
        }
    }

    /// The event this action shows up as: its kind (the string the
    /// insight layer's blame attribution matches on), the partition it
    /// is tagged with, and its attributes in emission order.
    fn event(self) -> (&'static str, Option<u64>, Vec<(&'static str, f64)>) {
        use RecoveryAction::*;
        let n = |x: usize| x as f64;
        match self {
            Retry {
                partition,
                target,
                attempt,
            } => {
                let attrs = vec![("target", n(target)), ("attempt", f64::from(attempt))];
                ("retry", Some(partition), attrs)
            }
            Reassign {
                partition,
                from,
                to,
            } => (
                "reassign",
                Some(partition),
                vec![("from", n(from)), ("to", n(to))],
            ),
            GpuCrash { gpu } => ("gpu-crash", None, vec![("gpu", n(gpu))]),
            GpuDaemonDown { gpu, lost_secs } => (
                "gpu-daemon-down",
                None,
                vec![("gpu", n(gpu)), ("lost_s", lost_secs)],
            ),
            BlockRequeued { gpu } => ("block-requeued", None, vec![("gpu", n(gpu))]),
            SpecLaunch { task } => ("spec-launch", None, vec![("task", task as f64)]),
            SpecWin { task } => ("spec-win", None, vec![("task", task as f64)]),
            SpecWasted { task } => ("spec-wasted", None, vec![("task", task as f64)]),
            CheckpointWritten { iteration } => {
                ("checkpoint", None, vec![("iteration", iteration as f64)])
            }
        }
    }
}

/// The single choke point pairing every recovery counter bump with its
/// event-bus emission on `lane`.
pub(crate) fn record_recovery(
    now: SimTime,
    recovery: &Mutex<RecoveryCounters>,
    obs: &Obs,
    lane: &str,
    action: RecoveryAction,
) {
    action.count(&mut recovery.lock());
    if !obs.bus.is_enabled() {
        return;
    }
    let (kind, partition, attrs) = action.event();
    if let Some(mut draft) = obs.bus.event(lane, kind, now) {
        if let Some(p) = partition {
            draft = draft.partition(p as usize);
        }
        for (name, value) in attrs {
            draft = draft.attr(name, value);
        }
        draft.commit();
    }
}

/// A CPU daemon: one per core (the paper's "one mapper or reducer on each
/// CPU core"), polling the node's CPU queue until it closes.
pub(crate) fn cpu_poller<A: SpmdApp>(ctx: &SimCtx, app: &A, ports: &NodePorts<A>) {
    let (node, device) = (&ports.node, DeviceClass::Cpu);
    while let Some(task) = ports.cpu_q.recv(ctx) {
        let result = match task {
            // A queued copy whose race is already decided is skipped
            // without touching the device (checking the board costs no
            // virtual time).
            Task::Map {
                id, speculative, ..
            } if ports.board.is_claimed(id) => TaskResult::Cancelled { id, speculative },
            Task::Map {
                id,
                range,
                speculative,
            } => {
                let work = app.map_work(range.len());
                let pairs = node
                    .cpu
                    .run_task(ctx, &work, || app.cpu_map(node.rank, range.clone()));
                TaskResult::Map {
                    id,
                    device,
                    pairs,
                    speculative,
                }
            }
            Task::Reduce { key, values } => {
                let work = app.reduce_work(values.len());
                let output = node
                    .cpu
                    .run_task(ctx, &work, || app.reduce(device, key, values));
                TaskResult::Reduce { key, output }
            }
        };
        ports.results.send(ctx, result);
    }
}

/// A GPU stream daemon ("one daemon thread for each GPU card", times
/// `gpu_streams`). Graceful degradation: the first task its dead card
/// cannot finish goes straight back to the sub-task scheduler, with the
/// virtual seconds of kernel work the crash cost, and the daemon exits.
pub(crate) fn gpu_stream_worker<A: SpmdApp>(
    ctx: &SimCtx,
    job: &JobShared<A>,
    ports: &NodePorts<A>,
    gpu_index: usize,
) {
    let (app, gpu, device) = (
        job.app.as_ref(),
        &ports.node.gpus[gpu_index],
        DeviceClass::Gpu,
    );
    // The funneled design: one context for the daemon's whole life,
    // created during job setup (the worker waits for readiness before the
    // timed iterations start).
    let _daemon_context = (!job.config.context_per_task).then(|| gpu.create_context(ctx));
    let staged = app.workload().residency == DataResidency::Staged;
    ports.ready.send(ctx, ());
    while let Some(task) = ports.gpu_q.recv(ctx) {
        let crashed = gpu.is_crashed(ctx.now());
        if !crashed && job.config.context_per_task {
            let _per_task = gpu.create_context(ctx);
        }
        // The task is only borrowed while it runs, so an interrupted one
        // goes back intact.
        let result = match task {
            _ if crashed => Err(SimTime::ZERO),
            Task::Map {
                id, speculative, ..
            } if ports.board.is_claimed(id) => Ok(TaskResult::Cancelled { id, speculative }),
            Task::Map {
                id,
                ref range,
                speculative,
            } => {
                if staged {
                    gpu.transfer_h2d(ctx, range.len() as u64 * app.item_bytes());
                }
                let work = app.map_work(range.len());
                gpu.try_launch(ctx, &work, || app.gpu_map(ports.node.rank, range.clone()))
                    .map(|pairs| TaskResult::Map {
                        id,
                        device,
                        pairs,
                        speculative,
                    })
                    .map_err(|dead| dead.lost)
            }
            Task::Reduce { key, ref values } => {
                let work = app.reduce_work(values.len());
                gpu.try_launch(ctx, &work, || app.reduce(device, key, values.clone()))
                    .map(|output| TaskResult::Reduce { key, output })
                    .map_err(|dead| dead.lost)
            }
        };
        match result {
            Ok(result) => ports.results.send(ctx, result),
            Err(lost) => {
                let (gpu, task, lost) = (gpu_index, Some(task), lost.as_secs_f64());
                ports
                    .results
                    .send(ctx, TaskResult::GpuDown { gpu, task, lost });
                return;
            }
        }
    }
}

/// One `(key, values)` per run of equal keys in `sorted`, values in the
/// order they stand there. Over a list stably sorted by key this is the
/// grouping a `BTreeMap<Key, Vec<_>>` filled in the list's original order
/// yields: keys ascending, each key's values in arrival order.
fn key_runs<V>(sorted: impl IntoIterator<Item = (Key, V)>) -> impl Iterator<Item = (Key, Vec<V>)> {
    let mut rest = sorted.into_iter().peekable();
    std::iter::from_fn(move || {
        let (key, first) = rest.next()?;
        let mut values = vec![first];
        while let Some((_, v)) = rest.next_if(|(k, _)| *k == key) {
            values.push(v);
        }
        Some((key, values))
    })
}

/// Groups pairs by key and applies the combiner, "sorted in memory" like
/// the paper's intermediates. The sort is stable, and it is the cached-key
/// one because that sorts `(key, position)`s on the heap: `sort_by_key`'s
/// 4 KiB stack scratch is one more page touched on every worker's
/// coroutine stack (4 MiB of a 1000-node run's 53).
fn combine_pairs<A: SpmdApp>(app: &A, mut pairs: Vec<(Key, A::Inter)>) -> Vec<(Key, A::Inter)> {
    pairs.sort_by_cached_key(|(k, _)| *k);
    key_runs(pairs)
        .flat_map(|(k, vals)| app.combine(k, vals).into_iter().map(move |v| (k, v)))
        .collect()
}

/// Which of a node's two task queues.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Queue {
    /// The CPU daemons' queue — the one shared queue in dynamic mode.
    Cpu,
    /// The GPU daemons' own queue.
    Gpu,
}

/// The queue that serves work meant for device class `class` now. The
/// single-device modes have one live daemon class and dynamic mode one
/// shared queue; a static split honours `class`, falling back to the CPU
/// when every GPU on the node is dead.
fn queue_for(mode: SchedulingMode, class: DeviceClass, gpu_usable: usize) -> Queue {
    match (mode, class) {
        (SchedulingMode::Dynamic { .. } | SchedulingMode::CpuOnly, _) => Queue::Cpu,
        (SchedulingMode::GpuOnly, _) => Queue::Gpu,
        (SchedulingMode::Static { .. }, DeviceClass::Gpu) if gpu_usable > 0 => Queue::Gpu,
        (SchedulingMode::Static { .. }, _) => Queue::Cpu,
    }
}

/// A static split of one partition: the leading `p` of it (rounded to
/// whole records) for the CPU cores, the rest for the GPUs.
fn split_part(part: &Range<usize>, p: f64) -> (Range<usize>, Range<usize>) {
    let cpu_items = (p * part.len() as f64).round() as usize;
    let cut = part.start + cpu_items;
    (part.start..cut, cut..part.end)
}

/// The four timed stages of an iteration.
#[derive(Clone, Copy)]
enum Stage {
    Map,
    Shuffle,
    Reduce,
    Update,
}

const STAGES: [(Stage, &str); 4] = [
    (Stage::Map, "map"),
    (Stage::Shuffle, "shuffle"),
    (Stage::Reduce, "reduce"),
    (Stage::Update, "update"),
];

/// One iteration's five timed boundaries — its start and the end of each
/// [`Stage`] — and the only producer of what is derived from them: the
/// iteration's [`StageTimes`], its stage spans and its profiler frames.
struct StageClock {
    marks: [SimTime; 5],
}

impl StageClock {
    fn start(t0: SimTime) -> Self {
        StageClock { marks: [t0; 5] }
    }

    /// Stamps the end of `stage`; stages end in order and never before
    /// they began.
    fn end(&mut self, stage: Stage, now: SimTime) {
        debug_assert!(
            now >= self.marks[stage as usize],
            "stage boundaries are monotone"
        );
        self.marks[stage as usize + 1] = now;
    }

    fn times(&self) -> StageTimes {
        let secs = |s: Stage| (self.marks[s as usize + 1] - self.marks[s as usize]).as_secs_f64();
        StageTimes {
            map: secs(Stage::Map),
            shuffle: secs(Stage::Shuffle),
            reduce: secs(Stage::Reduce),
            update: secs(Stage::Update),
        }
    }

    /// One span per stage on `lane`, and the profiler stack: an outer
    /// per-iteration frame with the four stage frames nested inside it by
    /// containment.
    fn emit(&self, obs: &Obs, lane: &str, iter: usize) {
        if !(obs.bus.is_enabled() || obs.stack.is_enabled()) {
            return;
        }
        let [t0, .., t_end] = self.marks;
        obs.stack.frame(lane, "iteration", t0, t_end);
        for (stage, kind) in STAGES {
            let (start, end) = (self.marks[stage as usize], self.marks[stage as usize + 1]);
            if let Some(d) = obs.bus.span(lane, kind, start, end) {
                d.iteration(iter).commit();
            }
            obs.stack.frame(lane, kind, start, end);
        }
    }
}

/// Rank 0's per-iteration decision, broadcast so every node agrees on
/// whether to continue, stop, or abandon the attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// Not converged: run another iteration.
    Continue,
    /// Converged: this iteration's outputs are final.
    Converged,
    /// The attempt hit its scheduled crash time (or blew a drain
    /// deadline): the iteration's update is discarded and the
    /// epoch driver takes over.
    Aborted,
    /// The attempt reached a scheduled membership boundary gracefully:
    /// the iteration's update *was* applied and the epoch driver
    /// continues from the live model state on the new cluster.
    Paused,
}

/// One iteration's scheduling decision.
#[derive(Clone, Copy)]
struct Split {
    /// GPUs with a live daemon and no crash so far.
    gpu_usable: usize,
    /// CPU fraction in force (`NaN` in dynamic mode: decided by polling).
    p_eff: f64,
    /// The audit row to complete once the map stage has drained.
    decision: Option<DecisionId>,
}

/// One device class's share of a map stage: the pairs it emitted and when
/// its last block landed (the observed per-device map completion time of
/// the decision audit).
struct Side<I> {
    pairs: Vec<(Key, I)>,
    last_end: Option<SimTime>,
}

/// Both classes' shares, indexed by `DeviceClass as usize`.
type Mapped<I> = [Side<I>; 2];

type Outputs<A> = Vec<(Key, <A as SpmdApp>::Output)>;

/// A node's sub-task scheduler.
pub(crate) struct Worker<A: SpmdApp> {
    rank: usize,
    job: Arc<JobShared<A>>,
    ports: Arc<NodePorts<A>>,
    comm: Communicator,
    seq: CollectiveSeq,
    ctrl: Channel<CtrlMsg>,
    acks: Channel<(usize, u64)>,
    stalls: Vec<NodeStall>,
    /// The scheduler's own event lane and metric label, keyed by the
    /// stable node id (== rank on a fixed cluster) so attribution survives
    /// elastic membership changes.
    sched_lane: Arc<str>,
    rank_label: String,
    queue_sample: Arc<str>,
    workload: Workload,
    /// Static split fraction per Equation (8) (or override / degenerate).
    p: f64,
    /// Online calibration state: an EWMA fit of this node's profile,
    /// seeded from the configured one and updated after every map stage.
    calib: Option<CalibrationProfile>,
    /// Surviving GPU stream daemons per engaged GPU; decremented as
    /// `TaskResult::GpuDown` reports come in.
    alive: Vec<usize>,
    partitions: Vec<Range<usize>>,
    /// The lowest confirmed attempt id: this worker's trace root.
    root_part: u64,
    my_items: usize,
    my_bytes: u64,
    /// The split in force this iteration.
    split: Split,
    /// Node-unique map-task ids, monotone across iterations so the
    /// completion board never sees an id reused.
    next_task_id: u64,
    /// In-flight primaries while speculation is armed: id → block and the
    /// device class it was dispatched to, so the backup volley can
    /// re-dispatch the stragglers on the opposite class.
    outstanding: BTreeMap<u64, (Range<usize>, DeviceClass)>,
    /// Flight-recorder stability watermark: other ranks emit iteration
    /// i-1's stage spans at the same virtual instant this rank begins
    /// iteration i, and engine scheduling may order them after our pump —
    /// so eviction lags one full iteration behind. Everything below the
    /// *previous* iteration's start is committed on every engine.
    recorder_stable_before: f64,
    recorder_prev_t0: f64,
    /// Filled in while the job runs, published once at exit.
    report: NodeReport,
    handoff: bool,
}

impl<A: SpmdApp> Worker<A> {
    pub(crate) fn new(
        rank: usize,
        job: Arc<JobShared<A>>,
        ports: Arc<NodePorts<A>>,
        comm: Communicator,
        ctrl: Channel<CtrlMsg>,
        acks: Channel<(usize, u64)>,
        stalls: Vec<NodeStall>,
    ) -> Self {
        let (node, config) = (&ports.node, &job.config);
        let workload = job.app.workload();
        let p = match config.scheduling {
            SchedulingMode::Static { p_override } => p_override.unwrap_or_else(|| {
                split_multi_gpu(&node.profile, &workload, config.gpus_per_node).cpu_fraction
            }),
            SchedulingMode::CpuOnly => 1.0,
            SchedulingMode::GpuOnly => 0.0,
            SchedulingMode::Dynamic { .. } => f64::NAN, // decided by polling
        };
        let calib = match config.calibration {
            CalibrationMode::Online { alpha } => {
                Some(CalibrationProfile::new(node.profile.clone(), alpha))
            }
            CalibrationMode::Off => None,
        };
        let alive = match config.scheduling {
            SchedulingMode::CpuOnly => Vec::new(),
            _ => vec![config.gpu_streams; config.gpus_per_node],
        };
        Worker {
            rank,
            comm,
            seq: CollectiveSeq::new(),
            ctrl,
            acks,
            stalls,
            sched_lane: job.obs.bus.intern(&format!("node{}-sched", node.rank)),
            rank_label: node.rank.to_string(),
            queue_sample: job.obs.bus.intern("queue-sample"),
            workload,
            p,
            calib,
            alive,
            partitions: Vec::new(),
            root_part: rank as u64,
            my_items: 0,
            my_bytes: 0,
            split: Split {
                gpu_usable: 0,
                p_eff: p,
                decision: None,
            },
            next_task_id: 0,
            outstanding: BTreeMap::new(),
            recorder_stable_before: 0.0,
            recorder_prev_t0: 0.0,
            report: NodeReport::default(),
            handoff: false,
            job,
            ports,
        }
    }

    /// The superstep machine: set up once, then iterate map → combine →
    /// shuffle → reduce → gather and decide until rank 0's verdict (or the
    /// iteration cap) ends the attempt.
    pub(crate) fn run(mut self, ctx: &SimCtx) {
        self.setup(ctx);
        let max_iterations = self.job.config.max_iterations;
        let mut final_outputs = None;
        let (mut interrupted, mut paused) = (false, false);
        for iter in 0..max_iterations {
            let t0 = ctx.now();
            let mut clock = StageClock::start(t0);
            // Every message this iteration sends (shuffle, collectives)
            // carries this causal root, so cross-node flow events get
            // deterministic trace/span ids and iteration tags.
            self.comm
                .set_trace_ctx(TraceCtx::root(iter as u64, self.root_part));

            self.plan_split(ctx, iter);
            let mut mapped = self.map(ctx, t0);
            self.combine_and_copy_back(ctx, &mut mapped);
            clock.end(Stage::Map, ctx.now());
            self.observe_map(&mapped, t0, ctx.now());

            let arrived = self.shuffle(ctx, mapped);
            clock.end(Stage::Shuffle, ctx.now());

            let outputs = self.reduce(ctx, arrived);
            clock.end(Stage::Reduce, ctx.now());

            let (global, verdict) = self.gather_and_decide(ctx, iter, outputs);
            clock.end(Stage::Update, ctx.now());

            // An aborted attempt stops here: the iteration is not recorded
            // (its update never happened) and the epoch driver resumes
            // from the last checkpoint.
            if verdict == Verdict::Aborted {
                interrupted = true;
                break;
            }
            self.record(iter, &clock);
            if verdict == Verdict::Converged || iter + 1 == max_iterations {
                final_outputs = Some(global);
                break;
            }
            // A graceful membership pause: the update above was applied
            // (and recorded), so the epoch driver resumes from the live
            // model state — no rollback, no recovery delay.
            if verdict == Verdict::Paused {
                paused = true;
                break;
            }
        }

        // Shut the daemons down.
        self.ports.cpu_q.close(ctx);
        self.ports.gpu_q.close(ctx);

        let mut c = self.job.collect.lock();
        c.nodes[self.rank] = self.report;
        if self.rank == 0 {
            c.outputs = final_outputs.unwrap_or_default();
            c.interrupted = interrupted;
            c.handoff = self.handoff;
            c.paused = paused;
        }
    }

    fn coll(&self) -> Collectives<'_> {
        self.comm.collectives(&self.seq)
    }

    fn uses_gpu(&self) -> bool {
        !matches!(self.job.config.scheduling, SchedulingMode::CpuOnly)
    }

    /// Whether the GPUs hold (a copy of) this node's whole share of a
    /// loop-invariant input.
    fn keeps_resident_copy(&self) -> bool {
        self.uses_gpu() && self.workload.residency == DataResidency::Resident && self.my_bytes > 0
    }

    /// The profile the split is solved against: the fitted one under
    /// online calibration, the configured one otherwise.
    fn profile(&self) -> &DeviceProfile {
        match &self.calib {
            Some(cal) => cal.profile(),
            None => &self.ports.node.profile,
        }
    }

    /// The channel behind [`queue_for`] for this iteration's GPU census.
    fn queue_for(&self, class: DeviceClass) -> &Channel<Task<A::Inter>> {
        match queue_for(self.job.config.scheduling, class, self.split.gpu_usable) {
            Queue::Cpu => &self.ports.cpu_q,
            Queue::Gpu => &self.ports.gpu_q,
        }
    }

    fn recover(&self, ctx: &SimCtx, action: RecoveryAction) {
        let job = &self.job;
        record_recovery(ctx.now(), &job.recovery, &job.obs, &self.sched_lane, action);
    }

    /// Runs `transfer` against every engaged GPU at once — one child
    /// process per card, named `{name}-gpu{g}` — and waits for all of them.
    fn on_each_gpu(
        &self,
        ctx: &SimCtx,
        name: &str,
        transfer: impl Fn(&Gpu, &SimCtx) + Copy + Send + 'static,
    ) {
        let handles: Vec<_> = (0..self.job.config.gpus_per_node)
            .map(|g| {
                let gpu = self.ports.node.gpus[g].clone();
                ctx.spawn(&format!("{name}-gpu{g}"), move |cctx| transfer(&gpu, cctx))
            })
            .collect();
        ctx.join_all(&handles);
    }

    /// Job configuration: take the master's partition assignments, wait
    /// for the GPU daemons, stage resident data, and line up with the
    /// other nodes.
    fn setup(&mut self, ctx: &SimCtx) {
        self.receive_assignments(ctx);
        self.my_items = self.partitions.iter().map(|r| r.len()).sum();
        self.my_bytes = self.my_items as u64 * self.job.app.item_bytes();
        let config = &self.job.config;
        // Wait for every GPU stream daemon to finish context creation so
        // the one-off context cost stays out of the timed iterations.
        if self.uses_gpu() {
            for _ in 0..config.gpus_per_node * config.gpu_streams {
                self.ports.ready.recv(ctx).expect("gpu daemon readiness");
            }
        }
        // Resident data: stage the node's whole share once, outside the
        // timed iterations (the paper's amortized one-off overhead). The
        // event matrix is replicated into every engaged GPU's memory
        // (each card needs its own copy); staging proceeds in parallel.
        if config.cache_resident_data && self.keeps_resident_copy() {
            let my_bytes = self.my_bytes;
            self.on_each_gpu(ctx, "stage", move |gpu, cctx| {
                // `validate` refuses a home share that does not fit; only
                // partitions reassigned onto this node can overflow here.
                gpu.memory
                    .alloc(my_bytes)
                    .expect("resident working set must fit in GPU memory");
                gpu.transfer_h2d(cctx, my_bytes);
            });
        }
        self.coll().barrier(ctx);
        self.report.setup_end = ctx.now().as_secs_f64();
    }

    /// Receives partition assignments from the master, acknowledges each
    /// one (an active stall window delays the ack — how a straggling node
    /// looks from the master), and keeps only the assignments the master
    /// finally confirms: anything else was reassigned to another node
    /// after we missed the deadline.
    fn receive_assignments(&mut self, ctx: &SimCtx) {
        let latency = self.comm.params().latency;
        let mut assigned: BTreeMap<u64, Range<usize>> = BTreeMap::new();
        loop {
            match self.ctrl.recv(ctx) {
                Some(CtrlMsg::Partition { id, range }) => {
                    // The master's control-plane flow lands here; pair its
                    // `msg-send` at the instant the assignment is matched.
                    let bus = &self.job.obs.bus;
                    if let Some(d) = bus.event(&self.sched_lane, "msg-recv", ctx.now()) {
                        let src = trace_ctx::CONTROL_RANK;
                        d.partition(id as usize)
                            .attr("flow", trace_ctx::flow_id(src, self.rank as u64, id) as f64)
                            .attr("src", src as f64)
                            .commit();
                    }
                    let now = ctx.now().as_secs_f64();
                    let delay: f64 = self
                        .stalls
                        .iter()
                        .filter(|s| now >= s.from_secs && now < s.until_secs)
                        .map(|s| s.ack_delay_secs)
                        .sum();
                    if delay > 0.0 {
                        ctx.hold(SimTime::from_secs_f64(delay));
                    }
                    self.acks.send_delayed(ctx, (self.rank, id), latency);
                    assigned.insert(id, range);
                }
                Some(CtrlMsg::Done { confirmed }) => {
                    // The lowest confirmed attempt id doubles as the trace
                    // root partition (deterministic; stays the rank if
                    // nothing was confirmed).
                    self.root_part = confirmed.iter().copied().min().unwrap_or(self.root_part);
                    self.partitions = confirmed
                        .iter()
                        .filter_map(|id| assigned.remove(id))
                        .collect();
                    return;
                }
                None => return,
            }
        }
    }

    /// Surviving-device census, the split it implies, and the audit row
    /// that records both. Un-cached resident data is re-staged first
    /// (ablation A4), inside the timed map stage.
    fn plan_split(&mut self, ctx: &SimCtx, iter: usize) {
        let config = &self.job.config;
        if !config.cache_resident_data && self.keeps_resident_copy() {
            let my_bytes = self.my_bytes;
            self.on_each_gpu(ctx, "restage", move |gpu, cctx| {
                gpu.transfer_h2d(cctx, my_bytes)
            });
        }
        // A crashed GPU is excluded from the static split, so the
        // remaining devices absorb its share — the per-node scheduler's
        // graceful degradation.
        let node = &self.ports.node;
        let gpu_usable = (0..self.alive.len())
            .filter(|&g| self.alive[g] > 0 && !node.gpus[g].is_crashed(ctx.now()))
            .count();
        let p_eff = match config.scheduling {
            SchedulingMode::Static { p_override } => {
                if gpu_usable == 0 {
                    1.0
                } else if let Some(cal) = self.calib.as_ref() {
                    // Equation (8) against the fitted profile (identical to
                    // the configured split until the first observation).
                    cal.split(&self.workload, gpu_usable).cpu_fraction
                } else if gpu_usable == config.gpus_per_node {
                    self.p
                } else {
                    // Equation (8) re-evaluated over the surviving device
                    // profile (a fixed override is honored as given).
                    p_override.unwrap_or_else(|| {
                        split_multi_gpu(&node.profile, &self.workload, gpu_usable).cpu_fraction
                    })
                }
            }
            _ => self.p,
        };
        self.split = Split {
            gpu_usable,
            p_eff,
            decision: None,
        };
        self.split.decision = self.audit_decision(iter);
    }

    /// The analytic prediction backing both the decision audit and the
    /// speculation deadline: the CPU fraction actually used, the Equation
    /// (1)–(11) regime that fires for this node, and the
    /// roofline-predicted per-device map seconds for this node's share.
    ///
    /// Degenerate device populations get pseudo-regimes: `CpuOnly` when no
    /// GPU side exists (CPU-only mode, a GPU-less profile, or every GPU
    /// dead) and `GpuOnly` when the CPU side is pinned off. Dynamic mode has
    /// no a-priori `p` (it emerges from polling), so the analytic Equation
    /// (8) fraction serves as the reference point.
    fn predict(&self) -> (f64, String, f64, f64) {
        let (profile, workload) = (self.profile(), &self.workload);
        let Split {
            gpu_usable, p_eff, ..
        } = self.split;
        let bytes_f = self.my_bytes as f64;
        let gpu_side = self.uses_gpu() && !profile.gpus.is_empty() && gpu_usable > 0;
        if workload.ai_cpu <= 0.0 || workload.ai_gpu <= 0.0 {
            // The roofline model needs positive arithmetic intensity; report
            // the split without predictions rather than asserting.
            let p = if p_eff.is_finite() { p_eff } else { 0.5 };
            return (p, "Unmodeled".to_string(), 0.0, 0.0);
        }
        if !gpu_side {
            let flops = profile.cpu_roofline().attainable_flops(workload.ai_cpu);
            let secs = device_time(bytes_f, workload.ai_cpu, flops);
            return (1.0, "CpuOnly".to_string(), secs, 0.0);
        }
        let d = split_multi_gpu(profile, workload, gpu_usable);
        if matches!(self.job.config.scheduling, SchedulingMode::GpuOnly) {
            let secs = device_time(bytes_f, workload.ai_gpu, d.gpu_flops);
            return (0.0, "GpuOnly".to_string(), 0.0, secs);
        }
        let p = if p_eff.is_finite() {
            p_eff
        } else {
            d.cpu_fraction
        };
        (
            p,
            format!("{:?}", d.regime),
            device_time(p * bytes_f, workload.ai_cpu, d.cpu_flops),
            device_time((1.0 - p) * bytes_f, workload.ai_gpu, d.gpu_flops),
        )
    }

    /// Records this iteration's scheduling decision — its inputs
    /// (arithmetic intensities, ridge points, surviving-device census),
    /// the regime that fired, the chosen split, and the predicted
    /// per-device map time — in the audit log, before dispatch. Returns a
    /// handle completed with observed times after the map stage. Under
    /// online calibration the audited profile (ridges, predictions) is the
    /// fitted one — the model the split actually used.
    fn audit_decision(&self, iter: usize) -> Option<DecisionId> {
        let (obs, config, workload) = (&self.job.obs, &self.job.config, &self.workload);
        if !obs.audit.is_enabled() {
            return None;
        }
        let profile = self.profile();
        let uses_gpu = self.uses_gpu();
        let gpus_usable = self.split.gpu_usable;
        let (mode, block_items) = match config.scheduling {
            SchedulingMode::Static { .. } => ("static", 0),
            SchedulingMode::Dynamic { block_items } => ("dynamic", block_items),
            SchedulingMode::CpuOnly => ("cpu-only", 0),
            SchedulingMode::GpuOnly => ("gpu-only", 0),
        };
        let calibrated = self.calib.as_ref().is_some_and(|c| c.total_samples() > 0);
        let trigger = match config.scheduling {
            SchedulingMode::Static {
                p_override: Some(_),
            } => "override",
            _ if uses_gpu && gpus_usable < config.gpus_per_node => "survivor-recompute",
            _ if calibrated => "calibrated",
            _ => "initial",
        };
        let (p, regime, pred_cpu, pred_gpu) = self.predict();
        obs.audit.begin(DecisionRecord {
            node: self.ports.node.rank,
            iteration: iter,
            mode: mode.to_string(),
            trigger: trigger.to_string(),
            ai_cpu: workload.ai_cpu,
            ai_gpu: workload.ai_gpu,
            cpu_ridge: profile.cpu_ridge(),
            gpu_ridge: if profile.gpus.is_empty() {
                0.0
            } else {
                profile.gpu_ridge(workload.residency)
            },
            regime,
            gpus_total: if uses_gpu { config.gpus_per_node } else { 0 },
            gpus_usable,
            cpu_fraction: p,
            block_items,
            items: self.my_items,
            bytes: self.my_bytes,
            predicted_cpu_secs: pred_cpu,
            predicted_gpu_secs: pred_gpu,
            predicted_map_secs: pred_cpu.max(pred_gpu),
            observed_cpu_secs: None,
            observed_gpu_secs: None,
            observed_map_secs: None,
        })
    }

    /// MAP: second-level scheduling of blocks onto device daemons, then
    /// the drain that resolves every race before the combiner runs.
    fn map(&mut self, ctx: &SimCtx, t0: SimTime) -> Mapped<A::Inter> {
        let config = self.job.config;
        let first_id = self.next_task_id;
        let claimed_before: u64 = self.report.map_tasks.iter().sum();
        let cpu_blocks =
            (self.ports.node.cpu.spec.cores as usize) * (config.blocks_per_core as usize);
        for i in 0..self.partitions.len() {
            let part = self.partitions[i].clone();
            match config.scheduling {
                SchedulingMode::Dynamic { block_items } => {
                    for block in split_fixed(part, block_items) {
                        self.dispatch_map(ctx, block, DeviceClass::Cpu);
                    }
                }
                _ => {
                    let (cpu_range, gpu_range) = split_part(&part, self.split.p_eff);
                    if !cpu_range.is_empty() {
                        for block in split_range(cpu_range, cpu_blocks) {
                            self.dispatch_map(ctx, block, DeviceClass::Cpu);
                        }
                    }
                    if !gpu_range.is_empty() {
                        for block in split_range(gpu_range, config.gpu_blocks_per_partition) {
                            self.dispatch_map(ctx, block, DeviceClass::Gpu);
                        }
                    }
                }
            }
        }
        let primaries = self.next_task_id - first_id;
        let mapped = self.drain_map(ctx, primaries, self.speculation_deadline(t0));
        debug_assert_eq!(
            self.report.map_tasks.iter().sum::<u64>() - claimed_before,
            primaries,
            "every primary map task is claimed exactly once"
        );
        debug_assert!(
            self.outstanding.is_empty(),
            "no primary outlives the map stage"
        );
        mapped
    }

    /// Sends one primary map block to the queue serving `class`, keeping a
    /// high-water mark of the second-level queue backlog as it goes.
    fn dispatch_map(&mut self, ctx: &SimCtx, block: Range<usize>, class: DeviceClass) {
        let id = self.next_task_id;
        self.next_task_id += 1;
        if self.job.config.speculation_lag_multiplier.is_some() {
            self.outstanding.insert(id, (block.clone(), class));
        }
        ctx.hold(self.ports.node.overheads.task_dispatch);
        let queue = self.queue_for(class);
        queue.send(
            ctx,
            Task::Map {
                id,
                range: block,
                speculative: false,
            },
        );
        let obs = &self.job.obs;
        if !(obs.metrics.is_enabled() || obs.bus.is_enabled()) {
            return;
        }
        let (label, code) = match (self.job.config.scheduling, class) {
            (SchedulingMode::Dynamic { .. }, _) => ("shared", 0.0),
            (_, DeviceClass::Cpu) => ("cpu", 1.0),
            (_, DeviceClass::Gpu) => ("gpu", 2.0),
        };
        let depth = queue.len() as f64;
        let labels = [("node", self.rank_label.as_str()), ("queue", label)];
        obs.metrics
            .gauge_max("prs_queue_depth_peak", &labels, depth);
        // The same sample as a point event, so rollups can window
        // queue backlog over time (the gauge only keeps the peak).
        if let Some(d) = obs
            .bus
            .event_interned(&self.sched_lane, &self.queue_sample, ctx.now())
        {
            d.attr("depth", depth).attr("queue", code).commit();
        }
    }

    /// Speculation deadline: `multiplier ×` the Equation-(8) predicted
    /// map time for this node's share. Blocks still outstanding at the
    /// deadline get one backup volley on the opposite device class;
    /// first completion wins on the board, the loser is wasted.
    fn speculation_deadline(&self, t0: SimTime) -> Option<SimTime> {
        let mult = self.job.config.speculation_lag_multiplier?;
        let (_, _, pred_cpu, pred_gpu) = self.predict();
        let predicted = pred_cpu.max(pred_gpu);
        (predicted > 0.0).then(|| t0 + SimTime::from_secs_f64(mult * predicted))
    }

    /// Collects map results until every dispatched copy — primary or
    /// backup — has reported exactly one `Map` or `Cancelled`, firing the
    /// backup volley if `volley_at` passes with primaries still out.
    fn drain_map(
        &mut self,
        ctx: &SimCtx,
        primaries: u64,
        mut volley_at: Option<SimTime>,
    ) -> Mapped<A::Inter> {
        let mut mapped = [(); 2].map(|()| Side {
            pairs: Vec::new(),
            last_end: None,
        });
        let mut seen = 0u64;
        let mut expected = primaries;
        while seen < expected {
            let outcome = match volley_at {
                Some(deadline) if !self.outstanding.is_empty() => {
                    match self.ports.results.recv_deadline(ctx, deadline) {
                        RecvOutcome::Msg(r) => Some(r),
                        RecvOutcome::Closed => None,
                        RecvOutcome::TimedOut => {
                            volley_at = None;
                            expected += self.launch_backups(ctx);
                            continue;
                        }
                    }
                }
                _ => self.ports.results.recv(ctx),
            };
            match outcome.expect("results channel open") {
                TaskResult::Map {
                    id,
                    device,
                    pairs,
                    speculative,
                } => {
                    seen += 1;
                    if self.ports.board.claim(id) {
                        self.outstanding.remove(&id);
                        self.report.map_tasks[device as usize] += 1;
                        mapped[device as usize].pairs.extend(pairs);
                        mapped[device as usize].last_end = Some(ctx.now());
                        if speculative {
                            self.recover(ctx, RecoveryAction::SpecWin { task: id });
                        }
                    } else if speculative {
                        // The backup lost the race: its pairs are dropped
                        // (the primary's copy is already in).
                        self.recover(ctx, RecoveryAction::SpecWasted { task: id });
                    }
                    // A losing *primary* needs no counter: its backup
                    // already recorded the win.
                }
                TaskResult::Cancelled { id, speculative } => {
                    seen += 1;
                    if speculative {
                        self.recover(ctx, RecoveryAction::SpecWasted { task: id });
                    }
                }
                TaskResult::GpuDown { gpu, task, lost } => self.gpu_down(ctx, gpu, task, lost),
                TaskResult::Reduce { .. } => unreachable!("no reduce tasks dispatched yet"),
            }
        }
        mapped
    }

    /// The backup volley: one speculative copy of every outstanding
    /// primary, on the opposite device class. Returns how many it sent.
    fn launch_backups(&self, ctx: &SimCtx) -> u64 {
        for (&id, (range, class)) in &self.outstanding {
            let opposite = match class {
                DeviceClass::Cpu => DeviceClass::Gpu,
                DeviceClass::Gpu => DeviceClass::Cpu,
            };
            ctx.hold(self.ports.node.overheads.task_dispatch);
            let backup = Task::Map {
                id,
                range: range.clone(),
                speculative: true,
            };
            self.queue_for(opposite).send(ctx, backup);
            self.recover(ctx, RecoveryAction::SpecLaunch { task: id });
        }
        self.outstanding.len() as u64
    }

    /// Reaction to a GPU daemon death: account for it, re-queue the
    /// interrupted task onto a surviving device class, and — once the
    /// node's last GPU daemon is gone under a static split — drain the GPU
    /// backlog over to the CPU queue so no block is stranded.
    ///
    /// GPU-only jobs can only bounce work to other GPU daemons; if none
    /// survive, the simulation deadlocks and `run_job` reports
    /// [`crate::JobError::Sim`] — there is no device left that could make
    /// progress.
    fn gpu_down(&mut self, ctx: &SimCtx, gpu: usize, task: Option<Task<A::Inter>>, lost: f64) {
        // First report from this GPU's daemons: the card itself died.
        let first_down = self.alive[gpu] == self.job.config.gpu_streams;
        self.recover(
            ctx,
            RecoveryAction::GpuDaemonDown {
                gpu,
                lost_secs: lost,
            },
        );
        if first_down {
            self.recover(ctx, RecoveryAction::GpuCrash { gpu });
        }
        self.alive[gpu] = self.alive[gpu].saturating_sub(1);
        let survivors = self.queue_for(DeviceClass::Cpu);
        if let Some(t) = task {
            self.recover(ctx, RecoveryAction::BlockRequeued { gpu });
            survivors.send(ctx, t);
        }
        let split_queues = matches!(self.job.config.scheduling, SchedulingMode::Static { .. });
        if split_queues && self.alive.iter().all(|&s| s == 0) {
            // recv_deadline at `now` is a non-blocking drain of the backlog.
            while let RecvOutcome::Msg(t) = self.ports.gpu_q.recv_deadline(ctx, ctx.now()) {
                self.recover(ctx, RecoveryAction::BlockRequeued { gpu });
                survivors.send(ctx, t);
            }
        }
    }

    /// The combiner runs device-locally (in GPU memory for GPU output),
    /// *before* the device-to-host copy, like the paper's in-GPU
    /// sort/merge of intermediates; then "the intermediate data located in
    /// GPU memory will be copied/sorted to/in CPU memory after all map
    /// tasks on local node are done."
    fn combine_and_copy_back(&self, ctx: &SimCtx, mapped: &mut Mapped<A::Inter>) {
        let app = self.job.app.as_ref();
        if self.job.config.use_combiner {
            for side in mapped.iter_mut() {
                side.pairs = combine_pairs(app, std::mem::take(&mut side.pairs));
            }
        }
        let gpu_pairs = &mapped[DeviceClass::Gpu as usize].pairs;
        if !gpu_pairs.is_empty() {
            let inter_bytes: u64 = gpu_pairs.iter().map(|(_, v)| app.inter_bytes(v)).sum();
            let share = inter_bytes / self.job.config.gpus_per_node as u64;
            self.on_each_gpu(ctx, "d2h", move |gpu, cctx| {
                gpu.transfer_d2h(cctx, share.max(1))
            });
        }
    }

    /// Completes the audit row with the observed per-device map times and
    /// feeds them back into the EWMA fit: each side's effective throughput
    /// is its share of the flops over the wall time its last block took
    /// to land.
    fn observe_map(&mut self, mapped: &Mapped<A::Inter>, t0: SimTime, t_map: SimTime) {
        let observed = |side: &Side<_>| side.last_end.map_or(0.0, |t| (t - t0).as_secs_f64());
        let obs_cpu = observed(&mapped[DeviceClass::Cpu as usize]);
        let obs_gpu = observed(&mapped[DeviceClass::Gpu as usize]);
        let Split {
            gpu_usable,
            p_eff,
            decision,
        } = self.split;
        if let Some(id) = decision {
            let audit = &self.job.obs.audit;
            audit.complete(id, obs_cpu, obs_gpu, (t_map - t0).as_secs_f64());
        }
        let workload = &self.workload;
        if let Some(cal) = self.calib.as_mut() {
            let bytes_f = self.my_bytes as f64;
            let cpu_bytes = p_eff * bytes_f;
            if obs_cpu > 0.0 && cpu_bytes > 0.0 && workload.ai_cpu > 0.0 {
                cal.observe_cpu_rate(workload.ai_cpu, cpu_bytes * workload.ai_cpu / obs_cpu);
            }
            let gpu_bytes = (1.0 - p_eff) * bytes_f;
            if obs_gpu > 0.0 && gpu_bytes > 0.0 && workload.ai_gpu > 0.0 && gpu_usable > 0 {
                let rate = gpu_bytes * workload.ai_gpu / obs_gpu / gpu_usable as f64;
                cal.observe_gpu_rate(workload.ai_gpu, rate);
            }
        }
    }

    /// SHUFFLE: every pair travels to the node owning its key's bucket.
    fn shuffle(&self, ctx: &SimCtx, mapped: Mapped<A::Inter>) -> Vec<ShuffleItem<(Key, A::Inter)>> {
        let app = self.job.app.as_ref();
        let [cpu, gpu] = mapped;
        let pairs = cpu.pairs.into_iter().chain(gpu.pairs);
        let items = pairs
            .map(|(k, v)| ShuffleItem {
                bucket: k,
                bytes: app.inter_bytes(&v),
                value: (k, v),
            })
            .collect();
        shuffle(&self.comm, &self.seq, ctx, items)
    }

    /// REDUCE: one task per key on the configured reduce device.
    fn reduce(&mut self, ctx: &SimCtx, arrived: Vec<ShuffleItem<(Key, A::Inter)>>) -> Outputs<A> {
        // The shuffle returns its items grouped: bucket (here the key)
        // ascending, stable source order inside one.
        debug_assert!(arrived.is_sorted_by_key(|item| item.bucket));
        let app = self.job.app.as_ref();
        let queue = self.queue_for(self.job.config.reduce_device);
        let mut n_reduces = 0usize;
        for (key, mut values) in key_runs(arrived.into_iter().map(|item| item.value)) {
            n_reduces += 1;
            // Table 1's compare(): give reducers sorted values when the
            // app defines an order.
            if values.len() > 1 && app.compare(&values[0], &values[0]).is_some() {
                values.sort_by(|a, b| {
                    app.compare(a, b)
                        .expect("comparator defined for all values")
                });
            }
            ctx.hold(self.ports.node.overheads.task_dispatch);
            queue.send(ctx, Task::Reduce { key, values });
        }
        let mut outputs: Outputs<A> = Vec::with_capacity(n_reduces);
        while outputs.len() < n_reduces {
            match self.ports.results.recv(ctx).expect("results channel open") {
                TaskResult::Reduce { key, output } => outputs.push((key, output)),
                TaskResult::GpuDown { gpu, task, lost } => self.gpu_down(ctx, gpu, task, lost),
                TaskResult::Map { .. } => unreachable!("map stage already drained"),
                TaskResult::Cancelled { .. } => {
                    unreachable!("every map race is resolved before reduce dispatch")
                }
            }
        }
        outputs.sort_by_key(|(k, _)| *k);
        outputs
    }

    /// GLOBAL GATHER + UPDATE: every rank contributes its outputs, rank 0
    /// decides the iteration's fate, and the verdict is broadcast so
    /// replicated app state is written exactly once per iteration.
    fn gather_and_decide(
        &mut self,
        ctx: &SimCtx,
        iter: usize,
        outputs: Outputs<A>,
    ) -> (Outputs<A>, Verdict) {
        let app = self.job.app.as_ref();
        let out_bytes: u64 = outputs.iter().map(|(_, o)| app.output_bytes(o)).sum();
        let gathered = self.coll().allgather(ctx, out_bytes.max(1), outputs);
        // Every rank takes part in the exchange, but only rank 0 reads its
        // result (for the update, and as the job's outputs): the others
        // let theirs go unassembled — now, not after blocking in the
        // broadcast below with every other rank's copy still around.
        let mut global: Outputs<A> = Vec::new();
        let mut verdict = None;
        if self.rank == 0 {
            global.extend(gathered.into_iter().flatten());
            global.sort_by_key(|(k, _)| *k);
            verdict = Some(self.decide(ctx, iter, &global));
        } else {
            drop(gathered);
        }
        let verdict = self.coll().bcast(ctx, 0, 1, verdict);
        (global, verdict)
    }

    /// Rank 0's verdict. A scheduled crash aborts BEFORE the model update
    /// runs: the interrupted iteration leaves no trace in the application
    /// state, so restoring the last checkpoint is exact. Otherwise the
    /// update is applied and, on the configured cadence, a checkpoint is
    /// serialized (host-side only — writing costs no virtual time).
    fn decide(&mut self, ctx: &SimCtx, iter: usize, global: &Outputs<A>) -> Verdict {
        let hooks = &self.job.hooks;
        let now_s = ctx.now().as_secs_f64();
        let membership_due = hooks.finish_at.is_some_and(|t| now_s >= t);
        if hooks.abort_at.is_some_and(|t| now_s >= t) {
            // A crash beats a pending drain: a node can die mid-drain
            // and the epoch driver must see the crash, not the
            // graceful departure.
            return Verdict::Aborted;
        }
        if membership_due && hooks.finish_deadline.is_some_and(|d| now_s > d) {
            // The drain overran its grace window: abort (the update is
            // discarded) and checkpoint-hand-off to the survivors.
            self.handoff = true;
            return Verdict::Aborted;
        }
        let verdict = if (self.job.update)(global) {
            Verdict::Converged
        } else if membership_due {
            Verdict::Paused
        } else {
            Verdict::Continue
        };
        if let Some(ck) = &hooks.checkpoint {
            let iteration = ck.base_iteration + iter as u64 + 1;
            if iteration.is_multiple_of(ck.interval) {
                self.write_checkpoint(ctx, ck, iteration);
            }
        }
        verdict
    }

    fn write_checkpoint(&self, ctx: &SimCtx, ck: &CheckpointHooks, iteration: u64) {
        let (prof, workload, gpu_usable) = (self.profile(), &self.workload, self.split.gpu_usable);
        let cpu_rate = if workload.ai_cpu > 0.0 {
            prof.cpu_roofline().attainable_flops(workload.ai_cpu)
        } else {
            0.0
        };
        let gpu_rate = if gpu_usable > 0 && workload.ai_gpu > 0.0 && !prof.gpus.is_empty() {
            split_multi_gpu(prof, workload, gpu_usable).gpu_flops
        } else {
            0.0
        };
        let snapshot = Checkpoint {
            iteration,
            virtual_secs: ck.base_secs + ctx.now().as_secs_f64(),
            app_state: (ck.save_state)(),
            partition_map: ck.partition_map.clone(),
            calib_rates: (cpu_rate, gpu_rate),
            rng_seed: ck.rng_seed,
        };
        ck.store.save(&snapshot).expect("checkpoint store write");
        self.recover(ctx, RecoveryAction::CheckpointWritten { iteration });
    }

    /// Books a completed iteration: its stage seconds and split, its
    /// spans and frames, and — from rank 0 — one pump of the flight
    /// recorder (host-side work only, so virtual time is untouched).
    /// Eviction is capped at the one-iteration-lagged watermark; the
    /// post-run settle handles whatever the lag leaves behind.
    fn record(&mut self, iter: usize, clock: &StageClock) {
        self.report.iters.push(clock.times());
        if !matches!(self.job.config.scheduling, SchedulingMode::Dynamic { .. }) {
            self.report.p_used = Some(self.split.p_eff);
        }
        let obs = &self.job.obs;
        clock.emit(obs, &self.sched_lane, iter);
        if self.rank == 0 && obs.recorder.is_enabled() {
            let [t0, .., t_update] = clock.marks.map(SimTime::as_secs_f64);
            obs.recorder
                .pump(&obs.bus, t_update, self.recorder_stable_before);
            self.recorder_stable_before = self.recorder_prev_t0;
            self.recorder_prev_t0 = t0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The grouping both stages used before they sorted: every pair
    /// inserted, in list order, into a map of per-key vectors.
    fn group_by_btree<V>(pairs: Vec<(Key, V)>) -> Vec<(Key, Vec<V>)> {
        let mut grouped: BTreeMap<Key, Vec<V>> = BTreeMap::new();
        for (k, v) in pairs {
            grouped.entry(k).or_default().push(v);
        }
        grouped.into_iter().collect()
    }

    /// Records every `combine` call — key and values in the order given —
    /// and answers with a prefix of them, so the output's order shows too.
    #[derive(Default)]
    struct Recorder {
        calls: Mutex<Vec<(Key, Vec<u32>)>>,
    }

    impl SpmdApp for Recorder {
        type Inter = u32;
        type Output = u32;
        fn num_items(&self) -> usize {
            0
        }
        fn item_bytes(&self) -> u64 {
            4
        }
        fn workload(&self) -> Workload {
            Workload::uniform(1.0, DataResidency::Staged)
        }
        fn cpu_map(&self, _node: usize, _range: Range<usize>) -> Vec<(Key, u32)> {
            Vec::new()
        }
        fn gpu_map(&self, _node: usize, _range: Range<usize>) -> Vec<(Key, u32)> {
            Vec::new()
        }
        fn reduce(&self, _d: DeviceClass, _key: Key, _values: Vec<u32>) -> u32 {
            0
        }
        fn combine(&self, key: Key, values: Vec<u32>) -> Vec<u32> {
            self.calls.lock().push((key, values.clone()));
            let keep = (key as usize % 3).min(values.len());
            values[..keep].to_vec()
        }
    }

    /// Pair lists with few distinct keys, each value its own position so
    /// any reordering inside a key shows.
    fn arb_pairs() -> impl Strategy<Value = Vec<(Key, u32)>> {
        (1u64..40)
            .prop_flat_map(|keys| vec(0..keys, 0..300))
            .prop_map(|keys| {
                keys.into_iter()
                    .enumerate()
                    .map(|(i, k)| (k, i as u32))
                    .collect()
            })
    }

    /// Any recovery action, from a variant index and arbitrary field values.
    fn arb_action() -> impl Strategy<Value = RecoveryAction> {
        (0u8..9, 0u64..5000, 0usize..64, 0usize..64, 0.0f64..10.0).prop_map(
            |(variant, id, a, b, secs)| match variant {
                0 => RecoveryAction::Retry {
                    partition: id,
                    target: a,
                    attempt: b as u32,
                },
                1 => RecoveryAction::Reassign {
                    partition: id,
                    from: a,
                    to: b,
                },
                2 => RecoveryAction::GpuCrash { gpu: a },
                3 => RecoveryAction::GpuDaemonDown {
                    gpu: a,
                    lost_secs: secs,
                },
                4 => RecoveryAction::BlockRequeued { gpu: a },
                5 => RecoveryAction::SpecLaunch { task: id },
                6 => RecoveryAction::SpecWin { task: id },
                7 => RecoveryAction::SpecWasted { task: id },
                _ => RecoveryAction::CheckpointWritten { iteration: id },
            },
        )
    }

    /// The emission half of `record_recovery` as it stood before the
    /// `(kind, attrs)` table: one hand-written draft per action.
    fn emit_per_arm(now: SimTime, obs: &Obs, lane: &str, action: RecoveryAction) {
        match action {
            RecoveryAction::Retry {
                partition,
                target,
                attempt,
            } => {
                if let Some(d) = obs.bus.event(lane, "retry", now) {
                    d.partition(partition as usize)
                        .attr("target", target as f64)
                        .attr("attempt", f64::from(attempt))
                        .commit();
                }
            }
            RecoveryAction::Reassign {
                partition,
                from,
                to,
            } => {
                if let Some(d) = obs.bus.event(lane, "reassign", now) {
                    d.partition(partition as usize)
                        .attr("from", from as f64)
                        .attr("to", to as f64)
                        .commit();
                }
            }
            RecoveryAction::GpuCrash { gpu } => {
                if let Some(d) = obs.bus.event(lane, "gpu-crash", now) {
                    d.attr("gpu", gpu as f64).commit();
                }
            }
            RecoveryAction::GpuDaemonDown { gpu, lost_secs } => {
                if let Some(d) = obs.bus.event(lane, "gpu-daemon-down", now) {
                    d.attr("gpu", gpu as f64).attr("lost_s", lost_secs).commit();
                }
            }
            RecoveryAction::BlockRequeued { gpu } => {
                if let Some(d) = obs.bus.event(lane, "block-requeued", now) {
                    d.attr("gpu", gpu as f64).commit();
                }
            }
            RecoveryAction::SpecLaunch { task } => {
                if let Some(d) = obs.bus.event(lane, "spec-launch", now) {
                    d.attr("task", task as f64).commit();
                }
            }
            RecoveryAction::SpecWin { task } => {
                if let Some(d) = obs.bus.event(lane, "spec-win", now) {
                    d.attr("task", task as f64).commit();
                }
            }
            RecoveryAction::SpecWasted { task } => {
                if let Some(d) = obs.bus.event(lane, "spec-wasted", now) {
                    d.attr("task", task as f64).commit();
                }
            }
            RecoveryAction::CheckpointWritten { iteration } => {
                if let Some(d) = obs.bus.event(lane, "checkpoint", now) {
                    d.attr("iteration", iteration as f64).commit();
                }
            }
        }
    }

    proptest! {
        #[test]
        fn combine_pairs_calls_the_combiner_as_the_btree_grouping_did(pairs in arb_pairs()) {
            let (sorted, btree) = (Recorder::default(), Recorder::default());
            let got = combine_pairs(&sorted, pairs.clone());
            let mut want = Vec::new();
            for (k, vals) in group_by_btree(pairs) {
                want.extend(btree.combine(k, vals).into_iter().map(|v| (k, v)));
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(&*sorted.calls.lock(), &*btree.calls.lock());
        }

        #[test]
        fn reduce_runs_are_the_btree_buckets(pairs in arb_pairs()) {
            // What `shuffle` hands the reduce stage: stably sorted by bucket.
            let mut arrived = pairs;
            arrived.sort_by_key(|(k, _)| *k);
            let runs: Vec<(Key, Vec<u32>)> = key_runs(arrived.clone()).collect();
            prop_assert_eq!(runs, group_by_btree(arrived));
        }

        #[test]
        fn the_recovery_table_emits_what_the_nine_arms_did(
            actions in vec(arb_action(), 1..20),
            t in 0.0f64..100.0,
        ) {
            let now = SimTime::from_secs_f64(t);
            let (table, arms) = (Obs::recording(), Obs::recording());
            let counters = Mutex::new(RecoveryCounters::default());
            for &action in &actions {
                record_recovery(now, &counters, &table, "node3-sched", action);
                emit_per_arm(now, &arms, "node3-sched", action);
            }
            prop_assert_eq!(table.bus.len(), actions.len());
            prop_assert_eq!(table.bus.to_jsonl(), arms.bus.to_jsonl());
        }
    }

    /// Every `SchedulingMode × class × gpu_usable ∈ {0, 1}` against the
    /// routing the scheduler's separate matches spelled out before
    /// `queue_for`: map dispatch and speculative backups by device class,
    /// reduces by `reduce_device`, re-queues from a dead GPU as class CPU.
    #[test]
    fn queue_for_routes_every_mode_class_and_census() {
        use DeviceClass::{Cpu, Gpu};
        let fixed = SchedulingMode::Static {
            p_override: Some(0.5),
        };
        let analytic = SchedulingMode::Static { p_override: None };
        let dynamic = SchedulingMode::Dynamic { block_items: 100 };
        let table = [
            (analytic, Cpu, 0, Queue::Cpu),
            (analytic, Cpu, 1, Queue::Cpu),
            (analytic, Gpu, 0, Queue::Cpu), // every GPU dead: the CPU takes it
            (analytic, Gpu, 1, Queue::Gpu),
            (fixed, Cpu, 0, Queue::Cpu),
            (fixed, Cpu, 1, Queue::Cpu),
            (fixed, Gpu, 0, Queue::Cpu),
            (fixed, Gpu, 1, Queue::Gpu),
            (dynamic, Cpu, 0, Queue::Cpu), // one shared queue
            (dynamic, Cpu, 1, Queue::Cpu),
            (dynamic, Gpu, 0, Queue::Cpu),
            (dynamic, Gpu, 1, Queue::Cpu),
            (SchedulingMode::CpuOnly, Cpu, 0, Queue::Cpu),
            (SchedulingMode::CpuOnly, Cpu, 1, Queue::Cpu),
            (SchedulingMode::CpuOnly, Gpu, 0, Queue::Cpu),
            (SchedulingMode::CpuOnly, Gpu, 1, Queue::Cpu),
            (SchedulingMode::GpuOnly, Cpu, 0, Queue::Gpu), // the only live daemons
            (SchedulingMode::GpuOnly, Cpu, 1, Queue::Gpu),
            (SchedulingMode::GpuOnly, Gpu, 0, Queue::Gpu),
            (SchedulingMode::GpuOnly, Gpu, 1, Queue::Gpu),
        ];
        for (mode, class, gpu_usable, want) in table {
            let got = queue_for(mode, class, gpu_usable);
            assert_eq!(got, want, "{mode:?} {class:?} gpu_usable={gpu_usable}");
        }
    }

    #[test]
    fn a_static_split_covers_the_partition_exactly_once() {
        let eps = f64::EPSILON;
        for part in [0..0, 5..6, 0..7, 3..1004, 10..100_011] {
            for p in [0.0, eps, 0.5, 1.0 - eps, 1.0] {
                let (cpu, gpu) = split_part(&part, p);
                assert_eq!(cpu.start, part.start, "{part:?} p={p}");
                assert_eq!(cpu.end, gpu.start, "{part:?} p={p}");
                assert_eq!(gpu.end, part.end, "{part:?} p={p}");
                assert_eq!(cpu.len() + gpu.len(), part.len(), "{part:?} p={p}");
            }
            assert!(split_part(&part, 0.0).0.is_empty());
            assert!(split_part(&part, 1.0).1.is_empty());
        }
    }
}
