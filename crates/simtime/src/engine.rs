//! The public simulation engine: spawning processes, running the event loop,
//! and the in-process context handle ([`SimCtx`]).
//!
//! There is one OS thread — the caller of [`Sim::run`] — and no engine
//! context. Every process is a coroutine on a stack of its own
//! ([`crate::coro`]), and the event loop ([`dispatch`]) runs on whichever
//! context holds the execution token: a process that blocks pops events
//! itself, runs kernel actions and timers inline, keeps going when the next
//! wake is its own, and otherwise switches straight to the woken process.
//! The caller of [`Sim::run`] is the root context: it switches to the first
//! process and is resumed once, at the terminal condition.

use crate::coro::{Body, Resumed};
use crate::kernel::{
    BlockReason, EventPayload, KState, Kernel, Outcome, Pid, ProcEntry, ProcState, Queues, Shard,
    TraceEvent,
};
use crate::time::SimTime;
use parking_lot::MutexGuard;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Payload used to unwind blocked processes when the simulation ends.
struct Shutdown;

/// Which event-queue implementation the engine runs on. Every mode pops
/// events in identical ascending `(time, seq)` order, so virtual clocks,
/// event orders, and every derived artifact are bit-identical across modes
/// (enforced by the differential determinism suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineMode {
    /// The original global binary heap — O(log n) per event; kept as the
    /// differential-testing reference.
    LegacyHeap,
    /// Calendar queue — amortized O(1) per event at million-event
    /// populations. The default.
    #[default]
    Calendar,
    /// Per-shard calendar queues advanced inside conservative α-lookahead
    /// windows and merged deterministically at window boundaries. Opt-in.
    Parallel,
}

impl EngineMode {
    /// Stable lower-case name, used by CLI flags and bench artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineMode::LegacyHeap => "legacy",
            EngineMode::Calendar => "calendar",
            EngineMode::Parallel => "parallel",
        }
    }

    /// Every mode, for differential test matrices.
    pub const ALL: [EngineMode; 3] = [
        EngineMode::LegacyHeap,
        EngineMode::Calendar,
        EngineMode::Parallel,
    ];
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for EngineMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "legacy" | "heap" => Ok(EngineMode::LegacyHeap),
            "calendar" => Ok(EngineMode::Calendar),
            "parallel" => Ok(EngineMode::Parallel),
            other => Err(format!(
                "unknown engine mode '{other}' (expected legacy|calendar|parallel)"
            )),
        }
    }
}

/// Engine construction parameters (see [`Sim::with_config`]).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Queue implementation.
    pub mode: EngineMode,
    /// Shard count for [`EngineMode::Parallel`]; typically one per
    /// simulated node. Ignored by the sequential modes.
    pub shards: usize,
    /// Conservative lookahead window for [`EngineMode::Parallel`] — the
    /// minimum cross-shard signalling latency (e.g. the network α). Zero is
    /// always safe: windows then batch only equal-timestamp events.
    pub lookahead: SimTime,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: EngineMode::default(),
            shards: 1,
            lookahead: SimTime::ZERO,
        }
    }
}

impl EngineConfig {
    /// Config for the given mode with default sharding.
    pub fn for_mode(mode: EngineMode) -> Self {
        EngineConfig {
            mode,
            ..Default::default()
        }
    }
}

/// Why a simulation run failed.
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// Virtual time at which progress stopped.
        now: SimTime,
        /// `(process name, block reason)` for every blocked process.
        blocked: Vec<(String, String)>,
    },
    /// A process body panicked.
    ProcessPanicked {
        /// Name of the panicking process.
        process: String,
        /// Best-effort panic message.
        message: String,
    },
    /// More events fired than the configured limit allows.
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The operating system refused the stack of a new process: the
    /// address-space limit (`ulimit -v`) or the mapping-count limit
    /// (`vm.max_map_count`; a stack and its guard page are two mappings)
    /// is used up. The run ends at that spawn.
    StackExhausted {
        /// Processes spawned before the one that got no stack.
        processes: usize,
        /// What `mmap` or `mprotect` reported.
        source: std::io::Error,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { now, blocked } => {
                write!(f, "simulation deadlocked at t={now}; blocked: ")?;
                for (i, (name, reason)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name} ({reason})")?;
                }
                Ok(())
            }
            SimError::ProcessPanicked { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded")
            }
            SimError::StackExhausted { processes, source } => write!(
                f,
                "no stack for a new process after {processes} simulated processes ({source}): \
                 the address space (`ulimit -v`) or vm.max_map_count (two mappings per \
                 process) is used up"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::StackExhausted { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Summary of a completed simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Virtual time when the last event fired.
    pub end_time: SimTime,
    /// Total events processed by the engine loop.
    pub events_processed: u64,
    /// Wakes that moved the execution token from one process to another —
    /// one user-space context switch each. A pure function of the event
    /// order, so identical across [`EngineMode`]s and across runs. The
    /// start of the first process from [`Sim::run`] and the return to it
    /// at the end are not counted.
    pub handoffs: u64,
    /// Wakes whose target was the very process running the event loop: it
    /// carried on with no switch at all.
    pub inline_resumes: u64,
    /// Trace records, if tracing was enabled via [`Sim::enable_trace`].
    pub trace: Vec<TraceEvent>,
}

/// Handle to a spawned process; join it from another process via
/// [`SimCtx::join`].
#[derive(Clone)]
pub struct ProcHandle {
    pub(crate) pid: Pid,
    name: String,
}

impl ProcHandle {
    /// The process name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A deterministic process-oriented discrete-event simulation.
///
/// Processes are plain closures written in blocking style; they advance
/// virtual time with [`SimCtx::hold`] and synchronize through
/// [`crate::Resource`] and [`crate::Channel`]. Each runs as a coroutine on
/// the thread that calls [`Sim::run`] — no OS thread of its own — and
/// exactly one of them, the holder of the execution token, executes at any
/// instant, so runs are deterministic: events at equal virtual times fire
/// in scheduling order — under every [`EngineMode`], including the sharded
/// parallel stepper.
///
/// A process has 1 MiB of stack, committed as it is touched, above a guard
/// page; overflowing it kills the program with a plain `SIGSEGV`.
///
/// ```
/// use simtime::{Sim, SimTime};
///
/// let mut sim = Sim::new();
/// sim.spawn("worker", |ctx| {
///     ctx.hold(SimTime::from_secs(2));
///     assert_eq!(ctx.now(), SimTime::from_secs(2));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_secs(2));
/// ```
pub struct Sim {
    kernel: Arc<Kernel>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at t = 0 on the default engine.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Creates an empty simulation with an explicit engine configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let queue = match config.mode {
            EngineMode::LegacyHeap => Queues::new_legacy(),
            EngineMode::Calendar => Queues::new_calendar(),
            EngineMode::Parallel => Queues::new_sharded(config.shards, config.lookahead),
        };
        Sim {
            kernel: Kernel::new(queue),
        }
    }

    /// Turns on trace recording (see [`SimCtx::trace`]).
    pub fn enable_trace(&self) {
        self.kernel.state.lock().trace = Some(Vec::new());
    }

    /// Aborts the run with [`SimError::EventLimitExceeded`] after `limit`
    /// events; useful to bound property tests.
    pub fn set_event_limit(&self, limit: u64) {
        self.kernel.state.lock().event_limit = Some(limit);
    }

    /// Spawns a root process that will begin executing at the current
    /// virtual time once [`Sim::run`] is called. Lands on shard 0.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_on(0, name, f)
    }

    /// Spawns a root process whose events land on the given shard. Shards
    /// are a placement hint for [`EngineMode::Parallel`] (typically one per
    /// simulated node); they never affect event ordering.
    pub fn spawn_on<F>(&mut self, shard: usize, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        // Without a stack the run is over before it starts, so nothing will
        // ever look this handle up.
        spawn_process(&self.kernel, shard as Shard, name, f).unwrap_or_else(|| ProcHandle {
            pid: Pid::MAX,
            name: name.to_string(),
        })
    }

    /// Schedules a lightweight timer `after` the current virtual time.
    ///
    /// Timers run inline on whichever process holds the execution token
    /// when they come due — no stack of their own, no handoff — so
    /// million-timer workloads pay only queue cost. The callback may
    /// reschedule via [`Timers::schedule`]. A panicking callback stops the
    /// run; [`Sim::run`] re-raises the panic after unwinding every process.
    pub fn schedule<F>(&self, after: SimTime, f: F)
    where
        F: FnOnce(&mut Timers) + Send + 'static,
    {
        self.schedule_timer_on(0, after, f)
    }

    /// [`Sim::schedule`] with an explicit shard placement hint.
    pub fn schedule_timer_on<F>(&self, shard: usize, after: SimTime, f: F)
    where
        F: FnOnce(&mut Timers) + Send + 'static,
    {
        let mut ks = self.kernel.state.lock();
        let at = ks.now + after;
        let saved = ks.cur_shard;
        ks.cur_shard = shard as Shard;
        ks.schedule_action(at, move |ks| {
            let mut t = Timers { ks };
            f(&mut t);
        });
        ks.cur_shard = saved;
    }

    /// Runs the event loop to completion and returns a report, or the first
    /// error (deadlock, panic, event-limit, a spawn the OS had no stack
    /// for).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from a kernel action or timer callback, after
    /// every blocked process has been unwound.
    pub fn run(self) -> Result<SimReport, SimError> {
        let kernel = &self.kernel;
        let ks = kernel.state.lock();
        // A root spawn that got no stack has settled the outcome already.
        if ks.outcome.is_none() {
            if let Baton::Passed(first) = dispatch(ks, None) {
                let _ = kernel.contexts.switch_to(first);
            }
        } else {
            drop(ks);
        }
        let outcome = kernel.state.lock().outcome.take();
        // Whatever the outcome, no process outlives `run`: each blocked
        // one unwinds to its base, and the never-started are dropped with
        // the kernel.
        kernel.contexts.unwind_all();
        outcome
            .expect("the token came back without an outcome")
            .unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

/// Whether the context that called [`dispatch`] still holds the execution
/// token when it returns.
enum Baton {
    /// The caller runs on: its own wake came due, or (for `Sim::run`) the
    /// run is over.
    Kept,
    /// The token goes to the named process, or to `Sim::run` (`None`); the
    /// caller must switch there.
    Passed(Option<Pid>),
}

/// The event loop, run by whoever holds the execution token: `me` is the
/// blocking (or finishing) process, or `None` for `Sim::run`.
///
/// Pops events in `(time, seq)` order under the caller's one kernel lock.
/// Actions run inline. A wake for `me` returns [`Baton::Kept`] — no
/// switch; a wake for another process passes the token straight to it. On a
/// terminal condition (checked in the order panic, event limit, done,
/// deadlock) the outcome is stored and the token goes back to `Sim::run`.
/// Who pops an event never influences which event is popped, so the event
/// order is that of the queue alone.
fn dispatch(mut ks: MutexGuard<'_, KState>, me: Option<Pid>) -> Baton {
    let outcome: Outcome = loop {
        if let Some((process, message)) = ks.panic_info.take() {
            break Ok(Err(SimError::ProcessPanicked { process, message }));
        }
        if let Some(limit) = ks.event_limit.filter(|&l| ks.events_processed > l) {
            break Ok(Err(SimError::EventLimitExceeded { limit }));
        }
        match ks.pop_event() {
            Some((_, EventPayload::Wake(pid))) => {
                if ks.procs[pid].state == ProcState::Finished {
                    continue;
                }
                debug_assert_eq!(ks.procs[pid].state, ProcState::Blocked);
                ks.procs[pid].state = ProcState::Running;
                if me == Some(pid) {
                    ks.inline_resumes += 1;
                    return Baton::Kept;
                }
                ks.handoffs += u64::from(me.is_some());
                return Baton::Passed(Some(pid));
            }
            Some((_, EventPayload::Action(slot))) => {
                let f = ks.take_action(slot);
                // Caught here so the panic is neither blamed on the process
                // that happens to run the loop nor allowed to skip the
                // shutdown of everyone else.
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ks))) {
                    break Err(payload);
                }
            }
            None if ks.live == 0 => {
                break Ok(Ok(SimReport {
                    end_time: ks.now,
                    events_processed: ks.events_processed,
                    handoffs: ks.handoffs,
                    inline_resumes: ks.inline_resumes,
                    trace: ks.take_trace(),
                }));
            }
            None => {
                break Ok(Err(SimError::Deadlock {
                    now: ks.now,
                    blocked: ks.blocked_summary(),
                }));
            }
        }
    };
    ks.outcome = Some(outcome);
    match me {
        None => Baton::Kept,
        Some(_) => Baton::Passed(None),
    }
}

/// Handle passed to [`Sim::schedule`] timer callbacks: read the clock and
/// chain further timers, all inline in the process running the event loop.
pub struct Timers<'a> {
    ks: &'a mut KState,
}

impl Timers<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ks.now
    }

    /// Schedules a follow-up timer `after` the current virtual time, on the
    /// same shard as the timer currently firing.
    pub fn schedule<F>(&mut self, after: SimTime, f: F)
    where
        F: FnOnce(&mut Timers) + Send + 'static,
    {
        let at = self.ks.now + after;
        self.ks.schedule_action(at, move |ks| {
            let mut t = Timers { ks };
            f(&mut t);
        });
    }
}

/// Registers a process and schedules its start. `None` when the OS has no
/// stack for it: that error is then the run's outcome, if it had none yet.
fn spawn_process<F>(kernel: &Arc<Kernel>, shard: Shard, name: &str, f: F) -> Option<ProcHandle>
where
    F: FnOnce(&SimCtx) + Send + 'static,
{
    // One critical section for the whole registration. The stack comes
    // first: if the OS refuses it, nothing has been registered.
    let mut ks = kernel.state.lock();
    let pid = ks.procs.len();
    // The body owns the process closure; holding the kernel weakly until
    // it starts keeps a never-started process from keeping the kernel —
    // and through it itself — alive.
    let weak = Arc::downgrade(kernel);
    let body: Body = Box::new(move || {
        let ctx = SimCtx {
            kernel: weak
                .upgrade()
                .expect("a process only starts inside Sim::run"),
            pid,
            shard,
            not_sync: PhantomData,
        };
        match panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            Ok(()) => finishing(&ctx, None),
            // Unwound by `Sim::run` on its way out: back to it.
            Err(payload) if payload.is::<Shutdown>() => None,
            Err(payload) => finishing(&ctx, Some(panic_message(payload.as_ref()))),
        }
    });
    let slot = match kernel.contexts.spawn(body) {
        Ok(slot) => slot,
        Err(source) => {
            ks.outcome.get_or_insert(Ok(Err(SimError::StackExhausted {
                processes: pid,
                source,
            })));
            return None;
        }
    };
    assert_eq!(slot, pid, "contexts and processes are numbered alike");

    let label = ks.intern(name);
    ks.procs.push(ProcEntry {
        name: name.to_string(),
        label,
        shard,
        state: ProcState::Blocked,
        block_reason: BlockReason::NotStarted,
        join_waiters: Vec::new(),
    });
    ks.live += 1;
    let now = ks.now;
    ks.schedule_wake(now, pid);

    Some(ProcHandle {
        pid,
        name: name.to_string(),
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Marks the process finished, wakes its joiners, and runs the event loop
/// one last time; returns who gets the token when this process's context
/// is left for good.
fn finishing(ctx: &SimCtx, panic_msg: Option<String>) -> Option<Pid> {
    let mut ks = ctx.kernel.state.lock();
    let now = ks.now;
    let entry = &mut ks.procs[ctx.pid];
    entry.state = ProcState::Finished;
    let waiters = std::mem::take(&mut entry.join_waiters);
    ks.live -= 1;
    for w in waiters {
        ks.schedule_wake(now, w);
    }
    if let Some(msg) = panic_msg {
        let name = ks.procs[ctx.pid].name.clone();
        ks.panic_info = Some((name, msg));
    }
    match dispatch(ks, Some(ctx.pid)) {
        Baton::Passed(next) => next,
        Baton::Kept => unreachable!("a finished process is never woken"),
    }
}

/// The in-process handle: every process closure receives `&SimCtx` and uses
/// it for all interaction with virtual time and the scheduler.
///
/// Not `Sync`: only the process itself, on the thread inside [`Sim::run`],
/// may block through it.
pub struct SimCtx {
    kernel: Arc<Kernel>,
    pid: Pid,
    shard: Shard,
    not_sync: PhantomData<Cell<()>>,
}

impl SimCtx {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Advances this process's virtual time by `dt`, letting other events
    /// fire in between.
    pub fn hold(&self, dt: SimTime) {
        let mut ks = self.kernel.state.lock();
        let at = ks.now + dt;
        ks.schedule_wake(at, self.pid);
        self.park(ks, BlockReason::HoldUntil(at));
    }

    /// Spawns a child process starting at the current virtual time, on the
    /// parent's shard.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_on(self.shard as usize, name, f)
    }

    /// Spawns a child process on an explicit shard (see [`Sim::spawn_on`]).
    pub fn spawn_on<F>(&self, shard: usize, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        // Without a stack for the child the run is over, its outcome
        // stored: this process leaves as one unwound at shutdown does,
        // straight back to `Sim::run`.
        spawn_process(&self.kernel, shard as Shard, name, f)
            .unwrap_or_else(|| panic::resume_unwind(Box::new(Shutdown)))
    }

    /// Blocks until the process behind `handle` finishes. Returns
    /// immediately if it already has.
    pub fn join(&self, handle: &ProcHandle) {
        let mut ks = self.kernel.state.lock();
        let target = &mut ks.procs[handle.pid];
        if target.state == ProcState::Finished {
            return;
        }
        target.join_waiters.push(self.pid);
        let reason = BlockReason::Join(target.label);
        self.park(ks, reason);
    }

    /// Joins every handle in `handles`, in order.
    pub fn join_all(&self, handles: &[ProcHandle]) {
        for h in handles {
            self.join(h);
        }
    }

    /// Emits a trace record if tracing is enabled.
    pub fn trace(&self, message: impl Into<String>) {
        let mut ks = self.kernel.state.lock();
        let msg = message.into();
        ks.emit_trace(self.pid, msg);
    }

    pub(crate) fn pid(&self) -> Pid {
        self.pid
    }

    pub(crate) fn with_kernel<R>(&self, f: impl FnOnce(&mut KState) -> R) -> R {
        let mut ks = self.kernel.state.lock();
        f(&mut ks)
    }

    /// Blocks this process until its next wake. `arm` runs in the same
    /// kernel critical section as the handoff and returns why the process
    /// blocks; it (or the caller, beforehand) must have arranged for a
    /// future wake: a scheduled event, a resource grant, a channel
    /// delivery, or a join notification.
    pub(crate) fn block(&self, arm: impl FnOnce(&mut KState) -> BlockReason) {
        let mut ks = self.kernel.state.lock();
        let reason = arm(&mut ks);
        self.park(ks, reason);
    }

    /// Records the block reason, then runs the event loop in this process
    /// until the token either comes straight back (own wake next) or goes
    /// elsewhere — in which case this process is suspended until it is
    /// woken, or until the run ends and it is unwound.
    fn park(&self, mut ks: MutexGuard<'_, KState>, reason: BlockReason) {
        let entry = &mut ks.procs[self.pid];
        entry.block_reason = reason;
        entry.state = ProcState::Blocked;
        if let Baton::Passed(next) = dispatch(ks, Some(self.pid)) {
            if self.kernel.contexts.switch_to(next) == Resumed::Unwind {
                // Not a panic anyone should hear about: no hook.
                panic::resume_unwind(Box::new(Shutdown));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::live_stacks;
    use crate::watchdog::within_deadline;
    use crate::Channel;

    #[test]
    fn wake_for_a_finished_process_is_skipped() {
        // No public operation leaves a wake behind for a process that has
        // since finished, so plant one: it must be counted as an event and
        // otherwise ignored, by the process that pops it.
        let report = within_deadline(|| {
            let mut sim = Sim::new();
            let gone = sim.spawn("sw-gone", |_| {});
            sim.spawn("sw-live", move |ctx| {
                ctx.with_kernel(|ks| {
                    let at = ks.now + SimTime::from_secs(1);
                    ks.schedule_wake(at, gone.pid);
                });
                ctx.hold(SimTime::from_secs(2));
            });
            sim.run().unwrap()
        });
        assert_eq!(report.end_time, SimTime::from_secs(2));
        // Two starts, the stale wake, and the hold.
        assert_eq!(report.events_processed, 4);
        assert_eq!((report.handoffs, report.inline_resumes), (1, 1));
    }

    /// A simulation with ten processes blocked for good, one that finishes
    /// at once, and `last` spawned after them.
    fn with_bystanders(last: impl FnOnce(&SimCtx) + Send + 'static) -> Sim {
        let mut sim = Sim::new();
        for i in 0..10 {
            let never: Channel<u8> = Channel::new("never");
            sim.spawn(&format!("idle{i}"), move |ctx| {
                never.recv(ctx);
            });
        }
        sim.spawn("quick", |_| {});
        sim.spawn("last", last);
        sim
    }

    #[test]
    fn a_sim_dropped_without_run_releases_every_process() {
        // `live_stacks` counts per thread, so build and drop on one.
        within_deadline(|| {
            let mut sim = Sim::new();
            let alive = Arc::new(());
            for i in 0..100 {
                let held = alive.clone();
                sim.spawn(&format!("p{i}"), move |_| drop(held));
            }
            assert_eq!((live_stacks(), Arc::strong_count(&alive)), (100, 101));
            drop(sim);
            assert_eq!((live_stacks(), Arc::strong_count(&alive)), (0, 1));
        });
    }

    #[test]
    fn every_exit_of_run_leaves_no_stack_behind() {
        within_deadline(|| {
            // Done.
            let mut sim = Sim::new();
            for i in 0..10 {
                sim.spawn(&format!("p{i}"), move |ctx| ctx.hold(SimTime::from_secs(i)));
            }
            assert_eq!(live_stacks(), 10);
            sim.run().unwrap();
            assert_eq!(live_stacks(), 0, "done");

            let sim = with_bystanders(|_| {});
            assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
            assert_eq!(live_stacks(), 0, "deadlock");

            let sim = with_bystanders(|ctx| loop {
                ctx.hold(SimTime::ZERO);
            });
            sim.set_event_limit(100);
            assert!(matches!(
                sim.run(),
                Err(SimError::EventLimitExceeded { .. })
            ));
            assert_eq!(live_stacks(), 0, "event limit");

            // The panic ends the run before `unborn` is ever started.
            let sim = with_bystanders(|ctx| {
                ctx.spawn("unborn", |_| {});
                panic!("boom");
            });
            assert!(matches!(sim.run(), Err(SimError::ProcessPanicked { .. })));
            assert_eq!(live_stacks(), 0, "process panic");

            let sim = with_bystanders(|ctx| ctx.hold(SimTime::from_secs(2)));
            sim.schedule(SimTime::from_secs(1), |_| panic!("timer boom"));
            assert!(panic::catch_unwind(AssertUnwindSafe(|| sim.run())).is_err());
            assert_eq!(live_stacks(), 0, "action panic");
        });
    }

    #[test]
    fn a_refused_stack_ends_the_run_with_an_error_and_nothing_mapped() {
        use crate::coro::with_chunk_cap;
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        /// What `run` must say when the `refused`th spawn found no stack.
        fn assert_exhausted(result: Result<SimReport, SimError>, refused: usize) {
            match result {
                Err(SimError::StackExhausted { processes, source }) => {
                    assert_eq!(processes, refused);
                    assert_eq!(source.raw_os_error(), Some(12));
                }
                other => panic!("expected StackExhausted, got {other:?}"),
            }
            assert_eq!(live_stacks(), 0);
        }
        within_deadline(|| {
            with_chunk_cap(1, || {
                // Root spawns until the one chunk is used up: nothing runs.
                let ran = Arc::new(AtomicU64::new(0));
                let r = ran.clone();
                let mut sim = with_bystanders(move |_| {
                    r.fetch_add(1, Relaxed);
                });
                let mut spawned = live_stacks();
                loop {
                    sim.spawn("root", |_| {});
                    if live_stacks() == spawned {
                        break;
                    }
                    spawned += 1;
                }
                let result = sim.run();
                let message = result.as_ref().unwrap_err().to_string();
                assert_exhausted(result, spawned as usize);
                assert_eq!(ran.load(Relaxed), 0);
                assert!(
                    message.contains("vm.max_map_count") && message.contains("address space"),
                    "{message}"
                );

                // A `ctx.spawn` mid-run: the spawner does not come back from
                // it, and the blocked bystanders are unwound as ever.
                let children = Arc::new(AtomicU64::new(0));
                let c = children.clone();
                let sim = with_bystanders(move |ctx| {
                    ctx.hold(SimTime::from_secs(1));
                    loop {
                        ctx.spawn("child", |ctx| ctx.hold(SimTime::from_secs(9)));
                        c.fetch_add(1, Relaxed);
                    }
                });
                let roots = live_stacks() as u64;
                let result = sim.run();
                let children = children.load(Relaxed);
                assert!(children > 0, "some children got a stack");
                assert_exhausted(result, (roots + children) as usize);
            });
            // The cap is gone with the closure.
            let mut sim = Sim::new();
            for i in 0..100 {
                sim.spawn(&format!("p{i}"), |_| {});
            }
            sim.run().unwrap();
        });
    }
}
