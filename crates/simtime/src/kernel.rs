//! Engine internals: the event queues, the process table, and the shared
//! kernel state that processes and synchronization primitives manipulate.
//!
//! Three interchangeable event-queue implementations back the engine (see
//! [`crate::EngineMode`]); all of them pop events in identical ascending
//! `(time, seq)` order, which is the engine's determinism contract. The
//! kernel also owns two allocation-avoidance structures for million-event
//! runs: an action arena that recycles event slots instead of allocating a
//! fresh queue node per event, and a label interner so block reasons and
//! trace attribution are integer handles rather than per-event `String`s.

use crate::coro::Contexts;
use crate::engine::{SimError, SimReport};
use crate::queue::CalendarQueue;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;

/// Process identifier: an index into the process table.
pub(crate) type Pid = usize;

/// Interned-string handle (index into the kernel's label table).
pub(crate) type Label = u32;

/// Shard identifier for the sharded queue; performance hint only — never
/// affects event ordering.
pub(crate) type Shard = u32;

/// What an event does when it fires, packed into one `u64` so a calendar
/// entry is 24 B: the high half names a process or a channel, the low half
/// a slot, and [`EventPayload::NONE`] in a half leaves it unnamed. A wake
/// is `(pid, NONE)`, a kernel action `(NONE, arena slot)`, and a delayed
/// channel delivery `(channel, in-flight slot)`, the channel being the
/// kernel's index of the channel's delivery target. Boxed action closures
/// live in the arena, delayed messages in their channel's in-flight slab.
#[derive(Clone, Copy)]
pub(crate) struct EventPayload(u64);

/// An [`EventPayload`] unpacked: what the event loop does with it.
#[derive(Clone, Copy)]
pub(crate) enum Fire {
    /// Transfer control to a blocked process.
    Wake(Pid),
    /// Run the kernel action stored in the arena slot.
    Action(u32),
    /// Move the message in a channel's in-flight slot into its queue: the
    /// channel's index among the kernel's delivery targets, and the slot.
    Deliver(u32, u32),
}

const _: () = assert!(std::mem::size_of::<EventPayload>() == 8);

impl EventPayload {
    /// The half that names nothing; no pid, channel or slot takes it.
    const NONE: u32 = u32::MAX;

    fn pack(hi: u32, lo: u32) -> Self {
        EventPayload(u64::from(hi) << 32 | u64::from(lo))
    }

    /// A half that names something: below [`EventPayload::NONE`].
    fn half(i: usize) -> u32 {
        u32::try_from(i)
            .ok()
            .filter(|&h| h != Self::NONE)
            .expect("fewer than 2^32 - 1 processes, channels and slots")
    }

    pub fn wake(pid: Pid) -> Self {
        Self::pack(Self::half(pid), Self::NONE)
    }

    pub fn action(slot: u32) -> Self {
        Self::pack(Self::NONE, Self::half(slot as usize))
    }

    pub fn deliver(target: u32, slot: u32) -> Self {
        Self::pack(Self::half(target as usize), Self::half(slot as usize))
    }

    pub fn fire(self) -> Fire {
        match ((self.0 >> 32) as u32, self.0 as u32) {
            (pid, Self::NONE) => Fire::Wake(pid as Pid),
            (Self::NONE, slot) => Fire::Action(slot),
            (target, slot) => Fire::Deliver(target, slot),
        }
    }
}

/// Boxed kernel action (timeouts, timers).
pub(crate) type Action = Box<dyn FnOnce(&mut KState) + Send>;

/// Values parked under `u32` slots, with a free list, so steady-state
/// traffic reuses slots instead of growing: the kernel's pending action
/// closures, and each channel's in-flight messages.
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                EventPayload::half(self.slots.len() - 1)
            }
        }
    }

    pub fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize].as_ref().expect("a live slot")
    }

    pub fn take(&mut self, slot: u32) -> T {
        let v = self.slots[slot as usize].take().expect("slot taken twice");
        self.free.push(slot);
        v
    }

    /// Values live.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The value under `slot`, the last one live: [`Slab::take`] without
    /// keeping the slots.
    pub fn into_last(mut self, slot: u32) -> T {
        debug_assert_eq!(self.live(), 1);
        self.slots[slot as usize].take().expect("a live slot")
    }

    /// Slots ever used: the high-water mark of live values.
    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// A channel's side of a delayed delivery: [`Fire::Deliver`] names one of
/// these by its index in [`KState::targets`].
pub(crate) trait DeliveryTarget: Send + Sync {
    /// Moves the message in flight under `slot` into the channel's queue,
    /// and returns the receiver to wake, if one was waiting.
    fn deliver(&self, slot: u32) -> Option<Pid>;

    /// Drops the messages kernel `kernel` still has in flight: its run is
    /// over. A channel that has sent in a later kernel since keeps them.
    fn abandon(&self, kernel: u64);
}

/// Deduplicating string table. Labels identify channels, resources, and
/// processes in block reasons and traces without per-event allocation.
#[derive(Default)]
pub(crate) struct Interner {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Label>,
}

impl Interner {
    pub fn intern(&mut self, s: &str) -> Label {
        if let Some(&l) = self.index.get(s) {
            return l;
        }
        let arc: Arc<str> = s.into();
        let l = self.strings.len() as Label;
        self.strings.push(arc.clone());
        self.index.insert(arc, l);
        l
    }

    pub fn resolve(&self, l: Label) -> &str {
        &self.strings[l as usize]
    }
}

/// What a channel or resource keeps of the kernel it was last used in:
/// its name's label there (interning hashes the name, and processes block
/// on one channel or resource thousands of times in a run) and, for a
/// channel, its index among that kernel's delivery targets. Keyed by
/// kernel because nothing ties a channel to one simulation. `u64::MAX`
/// names no kernel and [`EventPayload::NONE`] no label or target yet, so
/// the cache is 16 bytes.
pub(crate) struct KernelCache {
    kernel: u64,
    label: Label,
    target: u32,
}

impl Default for KernelCache {
    fn default() -> Self {
        KernelCache {
            kernel: u64::MAX,
            label: EventPayload::NONE,
            target: EventPayload::NONE,
        }
    }
}

impl KernelCache {
    /// The cache for kernel `ks`, emptied if it held another kernel's.
    fn under(&mut self, ks: &KState) -> &mut Self {
        if self.kernel != ks.id {
            *self = KernelCache {
                kernel: ks.id,
                ..KernelCache::default()
            };
        }
        self
    }

    /// Whether the cache holds kernel `kernel`'s values.
    pub fn is_under(&self, kernel: u64) -> bool {
        self.kernel == kernel
    }

    /// `name`'s label in `ks`, interned on first use there.
    pub fn label(&mut self, ks: &mut KState, name: &str) -> Label {
        let c = self.under(ks);
        if c.label == EventPayload::NONE {
            c.label = ks.intern(name);
        }
        c.label
    }

    /// The channel's delivery-target index in `ks`, registering `target`
    /// on first use there.
    pub fn target(&mut self, ks: &mut KState, target: impl FnOnce() -> Arc<dyn DeliveryTarget>) -> u32 {
        let c = self.under(ks);
        if c.target == EventPayload::NONE {
            c.target = ks.add_target(target());
        }
        c.target
    }
}

const _: () = assert!(std::mem::size_of::<KernelCache>() == 16);

/// Why a process is parked, stored without allocating. Rendered to the
/// exact human-readable strings deadlock reports always used.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockReason {
    /// Spawned but not yet given the token.
    NotStarted,
    /// In `hold` until the given instant.
    HoldUntil(SimTime),
    /// In `recv` on the named channel.
    Recv(Label),
    /// In `recv_deadline` on the named channel.
    RecvDeadline(Label, SimTime),
    /// In `acquire(amount)` on the named resource.
    Acquire(u64, Label),
    /// In `join` on the named process.
    Join(Label),
}

impl BlockReason {
    fn render(&self, labels: &Interner) -> String {
        match *self {
            BlockReason::NotStarted => "not started".to_string(),
            BlockReason::HoldUntil(at) => format!("hold until {at}"),
            BlockReason::Recv(l) => format!("recv on '{}'", labels.resolve(l)),
            BlockReason::RecvDeadline(l, d) => {
                format!("recv on '{}' (deadline {d})", labels.resolve(l))
            }
            BlockReason::Acquire(amount, l) => {
                format!("acquire {amount} of '{}'", labels.resolve(l))
            }
            BlockReason::Join(l) => format!("join '{}'", labels.resolve(l)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Waiting for a wake event or a grant: suspended, or running the
    /// event loop on the way there.
    Blocked,
    /// Currently holding the execution token.
    Running,
    /// Body returned (or unwound); will never run again.
    Finished,
}

pub(crate) struct ProcEntry {
    pub name: String,
    /// Interned copy of `name`, for trace records and join reasons.
    pub label: Label,
    /// Event shard this process's wakes land on (sharded mode only).
    pub shard: Shard,
    pub state: ProcState,
    /// Reason recorded before blocking, for deadlock reports.
    pub block_reason: BlockReason,
    /// Pids waiting in `join` for this process to finish.
    pub join_waiters: Vec<Pid>,
}

/// A single timestamped trace record, available when tracing is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time at which the record was emitted.
    pub time: SimTime,
    /// Name of the emitting process.
    pub process: String,
    /// Free-form message.
    pub message: String,
}

/// Compact in-flight trace record; materialized to [`TraceEvent`] (with the
/// process name resolved) only when the run's report is built.
pub(crate) struct RawTrace {
    time: SimTime,
    process: Label,
    message: String,
}

/// A heap entry for the legacy queue and the intra-window heap.
pub(crate) struct HeapEv {
    pub time: SimTime,
    pub seq: u64,
    pub payload: EventPayload,
}

const _: () = assert!(std::mem::size_of::<HeapEv>() == 24);

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEv {}

impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEv {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the earliest
    /// `(time, seq)` first. `seq` breaks ties deterministically in
    /// scheduling order — never by insertion hash or pointer identity.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Per-node event shards advanced inside conservative lookahead windows.
///
/// Determinism argument: a window opens at the global minimum pending time
/// `t0` and spans `[t0, t0 + lookahead]`. Every event already pending with
/// `time <= window_end` is drained from the shards into a sorted staging
/// run (the per-shard drains are independent — the parallelizable step).
/// Events *scheduled during* the window carry strictly larger `seq` than
/// everything staged; those landing strictly inside the window go to the
/// intra-window heap, those at or past the boundary to their shard. Merging
/// `staging` and `intra` by `(time, seq)` therefore yields exactly the
/// globally sorted event order — bit-identical to the sequential engines.
pub(crate) struct ShardedQueue {
    shards: Vec<CalendarQueue<EventPayload>>,
    lookahead: SimTime,
    /// Current window's drained events, sorted ascending; `staged_pos`
    /// marks the consumption frontier.
    staged: Vec<(SimTime, u64, EventPayload)>,
    staged_pos: usize,
    /// Events scheduled mid-window with `time < window_end`.
    intra: BinaryHeap<HeapEv>,
    window_end: SimTime,
    len: usize,
}

impl ShardedQueue {
    fn new(shards: usize, lookahead: SimTime) -> Self {
        ShardedQueue {
            shards: (0..shards.max(1)).map(|_| CalendarQueue::new()).collect(),
            lookahead,
            staged: Vec::new(),
            staged_pos: 0,
            intra: BinaryHeap::new(),
            window_end: SimTime::ZERO,
            len: 0,
        }
    }

    fn window_active(&self) -> bool {
        self.staged_pos < self.staged.len() || !self.intra.is_empty()
    }

    fn push(&mut self, time: SimTime, seq: u64, payload: EventPayload, shard: Shard) {
        if self.window_active() && time < self.window_end {
            self.intra.push(HeapEv { time, seq, payload });
        } else {
            let s = shard as usize % self.shards.len();
            self.shards[s].schedule(time, seq, payload);
        }
        self.len += 1;
    }

    fn open_window(&mut self) -> bool {
        let mut t0: Option<SimTime> = None;
        for s in &mut self.shards {
            if let Some((t, _)) = s.peek() {
                t0 = Some(match t0 {
                    Some(cur) => cur.min(t),
                    None => t,
                });
            }
        }
        let Some(t0) = t0 else {
            return false;
        };
        self.window_end = t0 + self.lookahead;
        self.staged.clear();
        self.staged_pos = 0;
        // Independent per-shard drains: each shard owns its calendar, so
        // under a real work-stealing runtime these proceed concurrently;
        // the in-tree rayon shim runs them sequentially with identical
        // results (the merge below is order-insensitive).
        use rayon::prelude::*;
        let limit = self.window_end;
        let runs: Vec<Vec<(SimTime, u64, EventPayload)>> = self
            .shards
            .par_iter_mut()
            .map(|shard| {
                let mut out = Vec::new();
                shard.drain_until(limit, &mut out);
                out
            })
            .collect();
        for run in runs {
            self.staged.extend(run);
        }
        // Each run is already sorted; the adaptive merge sort restores the
        // global (time, seq) order across shards cheaply.
        self.staged.sort_by_key(|&(t, s, _)| (t, s));
        true
    }

    fn pop(&mut self) -> Option<(SimTime, u64, EventPayload)> {
        loop {
            let staged_head = self.staged.get(self.staged_pos).map(|&(t, s, _)| (t, s));
            let intra_head = self.intra.peek().map(|e| (e.time, e.seq));
            match (staged_head, intra_head) {
                (Some(sh), Some(ih)) => {
                    self.len -= 1;
                    if sh <= ih {
                        self.staged_pos += 1;
                        return Some(self.staged[self.staged_pos - 1]);
                    }
                    let e = self.intra.pop().expect("peeked");
                    return Some((e.time, e.seq, e.payload));
                }
                (Some(_), None) => {
                    self.len -= 1;
                    self.staged_pos += 1;
                    return Some(self.staged[self.staged_pos - 1]);
                }
                (None, Some(_)) => {
                    self.len -= 1;
                    let e = self.intra.pop().expect("peeked");
                    return Some((e.time, e.seq, e.payload));
                }
                (None, None) => {
                    if !self.open_window() {
                        return None;
                    }
                }
            }
        }
    }
}

/// The engine's event queue, in one of three interchangeable modes. All
/// modes pop in ascending `(time, seq)` order.
pub(crate) enum Queues {
    /// The original global `BinaryHeap` — kept as the differential-testing
    /// reference.
    Legacy(BinaryHeap<HeapEv>),
    /// Single calendar queue (the default).
    Calendar(CalendarQueue<EventPayload>),
    /// Per-shard calendar queues merged at conservative lookahead windows.
    Sharded(ShardedQueue),
}

impl Queues {
    pub(crate) fn new_legacy() -> Self {
        Queues::Legacy(BinaryHeap::new())
    }

    pub(crate) fn new_calendar() -> Self {
        Queues::Calendar(CalendarQueue::new())
    }

    pub(crate) fn new_sharded(shards: usize, lookahead: SimTime) -> Self {
        Queues::Sharded(ShardedQueue::new(shards, lookahead))
    }

    fn push(&mut self, time: SimTime, seq: u64, payload: EventPayload, shard: Shard) {
        match self {
            Queues::Legacy(h) => h.push(HeapEv { time, seq, payload }),
            Queues::Calendar(q) => q.schedule(time, seq, payload),
            Queues::Sharded(q) => q.push(time, seq, payload, shard),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, EventPayload)> {
        match self {
            Queues::Legacy(h) => h.pop().map(|e| (e.time, e.seq, e.payload)),
            Queues::Calendar(q) => q.pop(),
            Queues::Sharded(q) => q.pop(),
        }
    }
}

/// How a run ended: the report or error `Sim::run` returns, or the payload
/// of a panic raised by a kernel action or timer callback, which `Sim::run`
/// re-raises once every blocked process has been unwound.
pub(crate) type Outcome = Result<Result<SimReport, SimError>, Box<dyn Any + Send>>;

/// Mutable kernel state, guarded by the kernel mutex. Because only the one
/// context holding the execution token ever runs at a time, the lock is
/// uncontended; it exists to satisfy the type system and to make the
/// handoff points explicit. It is never held across a context switch.
pub(crate) struct KState {
    /// Unique in this program: what a [`KernelCache`] is good for.
    pub id: u64,
    pub now: SimTime,
    pub seq: u64,
    pub queue: Queues,
    pub actions: Slab<(Shard, Action)>,
    /// The channels this kernel has delayed messages for, by the index a
    /// [`Fire::Deliver`] names.
    pub targets: Vec<Arc<dyn DeliveryTarget>>,
    pub labels: Interner,
    pub procs: Vec<ProcEntry>,
    pub live: usize,
    pub trace: Option<Vec<RawTrace>>,
    pub events_processed: u64,
    pub event_limit: Option<u64>,
    /// The process whose wake fired last: the one running, or the one
    /// whose block or finish is running the event loop. `None` until the
    /// first wake.
    pub running: Option<Pid>,
    /// Wakes delivered to another process than `running`.
    pub handoffs: u64,
    /// Wakes whose target was `running` itself.
    pub inline_resumes: u64,
    /// Stack switches made from one process's context to another's.
    pub switches: u64,
    pub panic_info: Option<(String, String)>,
    /// Set once, by whoever detects the terminal condition.
    pub outcome: Option<Outcome>,
    /// Shard of the event currently firing; actions and spawns it causes
    /// inherit it. Placement only — ordering never depends on it.
    pub cur_shard: Shard,
}

impl KState {
    pub fn new(queue: Queues) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        static KERNELS: AtomicU64 = AtomicU64::new(0);
        KState {
            id: KERNELS.fetch_add(1, Relaxed),
            now: SimTime::ZERO,
            seq: 0,
            queue,
            actions: Slab::default(),
            targets: Vec::new(),
            labels: Interner::default(),
            procs: Vec::new(),
            live: 0,
            trace: None,
            events_processed: 0,
            event_limit: None,
            running: None,
            handoffs: 0,
            inline_resumes: 0,
            switches: 0,
            panic_info: None,
            outcome: None,
            cur_shard: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Interns `s` in the kernel label table.
    pub fn intern(&mut self, s: &str) -> Label {
        self.labels.intern(s)
    }

    /// Schedules a wake of `pid` at absolute time `at`. The event lands on
    /// the process's shard.
    pub fn schedule_wake(&mut self, at: SimTime, pid: Pid) {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq();
        let shard = self.procs[pid].shard;
        self.queue.push(at, seq, EventPayload::wake(pid), shard);
    }

    /// Schedules a kernel action at absolute time `at`, on the shard of the
    /// event currently firing.
    pub fn schedule_action<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut KState) + Send + 'static,
    {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq();
        let shard = self.cur_shard;
        let slot = self.actions.insert((shard, Box::new(f)));
        self.queue.push(at, seq, EventPayload::action(slot), shard);
    }

    /// Schedules the delivery of the message in flight under `slot` of
    /// delivery target `target` at absolute time `at`, on the shard of the
    /// event currently firing. Takes the next `seq`, as an action would.
    pub fn schedule_delivery(&mut self, at: SimTime, target: u32, slot: u32) {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq();
        let shard = self.cur_shard;
        self.queue.push(at, seq, EventPayload::deliver(target, slot), shard);
    }

    /// Registers a channel's delivery target; [`Fire::Deliver`] names it
    /// by the index returned.
    pub fn add_target(&mut self, target: Arc<dyn DeliveryTarget>) -> u32 {
        self.targets.push(target);
        EventPayload::half(self.targets.len() - 1)
    }

    /// Fires a delivery: the message joins its channel's queue and a
    /// waiting receiver is woken now.
    pub fn deliver(&mut self, target: u32, slot: u32) {
        if let Some(pid) = self.targets[target as usize].deliver(slot) {
            let now = self.now;
            self.schedule_wake(now, pid);
        }
    }

    /// Pops the next event in global `(time, seq)` order, advancing `now`
    /// and the fired-event counter. A delivery leaves `cur_shard` as it
    /// is: it only schedules a wake, which lands on the woken process's
    /// shard.
    pub fn pop_event(&mut self) -> Option<(SimTime, Fire)> {
        let (time, _seq, payload) = self.queue.pop()?;
        self.now = time;
        self.events_processed += 1;
        let fire = payload.fire();
        match fire {
            Fire::Wake(pid) => self.cur_shard = self.procs[pid].shard,
            Fire::Action(slot) => self.cur_shard = self.actions.get(slot).0,
            Fire::Deliver(..) => {}
        }
        Some((time, fire))
    }

    /// Marks `pid` running because its wake fired, and counts the wake as
    /// a hand-off or an inline resume.
    pub fn resume(&mut self, pid: Pid) {
        debug_assert_eq!(self.procs[pid].state, ProcState::Blocked);
        self.procs[pid].state = ProcState::Running;
        match self.running.replace(pid) {
            Some(prev) if prev == pid => self.inline_resumes += 1,
            Some(_) => self.handoffs += 1,
            None => {}
        }
    }

    /// Marks `pid` finished and wakes its joiners; a panic message makes
    /// the run end with `pid` named as the panicking process.
    pub fn finish(&mut self, pid: Pid, panic_msg: Option<String>) {
        let now = self.now;
        let entry = &mut self.procs[pid];
        entry.state = ProcState::Finished;
        let waiters = std::mem::take(&mut entry.join_waiters);
        self.live -= 1;
        for w in waiters {
            self.schedule_wake(now, w);
        }
        if let Some(msg) = panic_msg {
            self.panic_info = Some((self.procs[pid].name.clone(), msg));
        }
    }

    /// Removes the fired action from the arena.
    pub fn take_action(&mut self, slot: u32) -> Action {
        self.actions.take(slot).1
    }

    pub fn emit_trace(&mut self, pid: Pid, message: String) {
        if let Some(trace) = &mut self.trace {
            let process = self.procs[pid].label;
            trace.push(RawTrace {
                time: self.now,
                process,
                message,
            });
        }
    }

    /// Materializes the compact trace into public records, in emit order.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let raw = self.trace.take().unwrap_or_default();
        raw.into_iter()
            .map(|r| TraceEvent {
                time: r.time,
                process: self.labels.resolve(r.process).to_string(),
                message: r.message,
            })
            .collect()
    }

    /// Names and block reasons of all non-finished processes, for deadlock
    /// diagnostics.
    pub fn blocked_summary(&self) -> Vec<(String, String)> {
        self.procs
            .iter()
            .filter(|p| p.state == ProcState::Blocked)
            .map(|p| (p.name.clone(), p.block_reason.render(&self.labels)))
            .collect()
    }
}

impl Drop for KState {
    /// Messages still in flight die with the run, as pending actions do.
    fn drop(&mut self) {
        for target in &self.targets {
            target.abandon(self.id);
        }
    }
}

/// Shared kernel: the state, and the execution contexts — `Sim::run`'s and
/// one per process, indexed by [`Pid`] — outside the lock, because a
/// context is switched away from and back to with the lock released.
pub(crate) struct Kernel {
    pub state: Mutex<KState>,
    pub contexts: Contexts,
}

impl Kernel {
    pub fn new(queue: Queues) -> Arc<Kernel> {
        Arc::new(Kernel {
            state: Mutex::new(KState::new(queue)),
            contexts: Contexts::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_entry(name: &str, labels: &mut Interner) -> ProcEntry {
        let label = labels.intern(name);
        ProcEntry {
            name: name.into(),
            label,
            shard: 0,
            state: ProcState::Blocked,
            block_reason: BlockReason::NotStarted,
            join_waiters: vec![],
        }
    }

    #[test]
    fn queues_pop_in_time_then_seq_order() {
        for queue in [
            Queues::new_legacy(),
            Queues::new_calendar(),
            Queues::new_sharded(4, SimTime::from_millis(1.0)),
        ] {
            let mut ks = KState::new(queue);
            let mut labels = Interner::default();
            for name in ["p0", "p1", "p2"] {
                let e = proc_entry(name, &mut labels);
                ks.procs.push(e);
            }
            ks.schedule_wake(SimTime::from_secs_f64(2.0), 0);
            ks.schedule_wake(SimTime::from_secs_f64(1.0), 1);
            ks.schedule_wake(SimTime::from_secs_f64(1.0), 2);
            let pops: Vec<Pid> = std::iter::from_fn(|| {
                ks.pop_event().map(|(_, p)| match p {
                    Fire::Wake(pid) => pid,
                    _ => unreachable!(),
                })
            })
            .collect();
            assert_eq!(pops, vec![1, 2, 0], "ties broken by scheduling order");
        }
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut ks = KState::new(Queues::new_calendar());
        let mut labels = Interner::default();
        let e = proc_entry("p", &mut labels);
        ks.procs.push(e);
        ks.emit_trace(0, "hello".into());
        assert!(ks.trace.is_none());
    }

    #[test]
    fn interner_dedups() {
        let mut i = Interner::default();
        let a = i.intern("ch");
        let b = i.intern("ch");
        let c = i.intern("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "ch");
    }

    #[test]
    fn block_reasons_render_legacy_strings() {
        let mut i = Interner::default();
        let ch = i.intern("acks");
        assert_eq!(BlockReason::NotStarted.render(&i), "not started");
        assert_eq!(
            BlockReason::HoldUntil(SimTime::from_secs(2)).render(&i),
            "hold until 2.000000s"
        );
        assert_eq!(BlockReason::Recv(ch).render(&i), "recv on 'acks'");
        assert_eq!(
            BlockReason::RecvDeadline(ch, SimTime::from_secs(1)).render(&i),
            "recv on 'acks' (deadline 1.000000s)"
        );
        assert_eq!(
            BlockReason::Acquire(2, ch).render(&i),
            "acquire 2 of 'acks'"
        );
        assert_eq!(BlockReason::Join(ch).render(&i), "join 'acks'");
    }

    #[test]
    fn sharded_queue_matches_heap_order() {
        let mut sharded = ShardedQueue::new(3, SimTime::from_millis(5.0));
        let mut heap: BinaryHeap<HeapEv> = BinaryHeap::new();
        let times = [3.0, 1.0, 1.0, 4.0, 0.5, 2.5, 2.5, 0.5];
        for (i, &t) in times.iter().enumerate() {
            let time = SimTime::from_secs_f64(t);
            let payload = EventPayload::wake(i);
            sharded.push(time, i as u64, payload, (i % 3) as Shard);
            heap.push(HeapEv {
                time,
                seq: i as u64,
                payload,
            });
        }
        loop {
            let a = sharded.pop().map(|(t, s, _)| (t, s));
            let b = heap.pop().map(|e| (e.time, e.seq));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn sharded_mid_window_pushes_stay_ordered() {
        // Open a window, then push events inside and past it; pops must
        // still come out globally (time, seq)-sorted.
        let mut q = ShardedQueue::new(2, SimTime::from_secs(10));
        q.push(SimTime::from_secs(1), 0, EventPayload::wake(0), 0);
        q.push(SimTime::from_secs(5), 1, EventPayload::wake(1), 1);
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((SimTime::from_secs(1), 0)));
        // Window is [1, 11]; these land in the intra heap / shard split.
        q.push(SimTime::from_secs(3), 2, EventPayload::wake(2), 0);
        q.push(SimTime::from_secs(11), 3, EventPayload::wake(3), 1);
        q.push(SimTime::from_secs(20), 4, EventPayload::wake(4), 0);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, s, _)| s)).collect();
        assert_eq!(order, vec![2, 1, 3, 4]);
    }
}
