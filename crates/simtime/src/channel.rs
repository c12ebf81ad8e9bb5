//! Simulation-aware message channels: unbounded, multi-producer
//! multi-consumer, with optional delivery delay. Blocking `recv` integrates
//! with the virtual clock, making channels the building block for task
//! queues, request/reply protocols, and the network layer.

use crate::engine::SimCtx;
use crate::kernel::{BlockReason, DeliveryTarget, KState, KernelCache, Label, Pid, Slab};
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

struct ChanInner<T> {
    queue: VecDeque<T>,
    /// Blocked receivers as `(pid, ticket)`. The ticket uniquely names one
    /// registration, so a timeout action scheduled for an old registration
    /// can detect it has already been satisfied and stay silent instead of
    /// issuing a stale wake.
    waiters: VecDeque<(Pid, u64)>,
    next_ticket: u64,
    closed: bool,
    /// The name given at construction, for panic messages and block
    /// reasons.
    name: Box<str>,
    /// The channel's label (what receivers' block reasons carry) and its
    /// delivery target in the kernel it was last used in.
    kernel: KernelCache,
    /// Messages sent with a delay and not delivered yet, if there are
    /// any. The calendar event that delivers one names this channel and
    /// the message's slot, so a message in flight costs its slot and a
    /// 24-B calendar entry.
    in_flight: Option<Box<Slab<T>>>,
}

impl<T: Send> DeliveryTarget for Mutex<ChanInner<T>> {
    fn deliver(&self, slot: u32) -> Option<Pid> {
        let mut g = self.lock();
        let slab = g.in_flight.as_mut().expect("a delivery's message is in flight");
        // A burst's slab goes once the burst has landed: a shuffle's
        // batches are all in flight at once, and slabs kept at that
        // high-water mark would hold the memory its receivers need next.
        let msg = if slab.live() > 1 {
            slab.take(slot)
        } else {
            g.in_flight.take().expect("seen above").into_last(slot)
        };
        assert!(!g.closed, "delayed send on closed channel '{}'", g.name);
        g.queue.push_back(msg);
        g.waiters.pop_front().map(|(pid, _)| pid)
    }

    fn abandon(&self, kernel: u64) {
        let mut g = self.lock();
        if g.kernel.is_under(kernel) {
            g.in_flight = None;
        }
    }
}

/// Result of a [`Channel::recv_deadline`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome<T> {
    /// A message arrived before the deadline.
    Msg(T),
    /// The channel was closed and drained before the deadline.
    Closed,
    /// Virtual time reached the deadline with no message.
    TimedOut,
}

impl<T> RecvOutcome<T> {
    /// Converts to `Option`, mapping both `Closed` and `TimedOut` to `None`.
    pub fn msg(self) -> Option<T> {
        match self {
            RecvOutcome::Msg(m) => Some(m),
            _ => None,
        }
    }
}

/// An unbounded MPMC channel living inside a simulation.
///
/// `send` is non-blocking and delivers at the current virtual time;
/// `send_delayed` delivers after a virtual delay (used to model link
/// latency). `recv` blocks the calling process until a message or close;
/// a task awaits `recv_async` instead.
pub struct Channel<T> {
    inner: Arc<Mutex<ChanInner<T>>>,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Channel<T> {
    /// Creates an empty open channel.
    pub fn new(name: &str) -> Self {
        Channel {
            inner: Arc::new(Mutex::new(ChanInner {
                queue: VecDeque::new(),
                waiters: VecDeque::new(),
                next_ticket: 0,
                closed: false,
                name: name.into(),
                kernel: KernelCache::default(),
                in_flight: None,
            })),
        }
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }

    /// Delivers `msg` at the current virtual time.
    pub fn send(&self, ctx: &SimCtx, msg: T) {
        let wake = {
            let mut g = self.inner.lock();
            assert!(!g.closed, "send on closed channel '{}'", g.name);
            g.queue.push_back(msg);
            g.waiters.pop_front()
        };
        if let Some((pid, _)) = wake {
            ctx.with_kernel(|ks| {
                let now = ks.now;
                ks.schedule_wake(now, pid);
            });
        }
    }

    /// Delivers `msg` after `delay` of virtual time (the sender does not
    /// block — the message is "in flight"). The message waits in the
    /// channel's in-flight slab, and the event that delivers it names the
    /// channel and its slot: no closure and no action slot per message.
    pub fn send_delayed(&self, ctx: &SimCtx, msg: T, delay: SimTime) {
        ctx.with_kernel(|ks| {
            let at = ks.now + delay;
            let (target, slot) = {
                let g = &mut *self.inner.lock();
                let target = g.kernel.target(ks, || self.inner.clone());
                (target, g.in_flight.get_or_insert_default().insert(msg))
            };
            ks.schedule_delivery(at, target, slot);
        });
    }

    /// Blocks until a message is available; returns `None` once the channel
    /// is closed *and* drained. [`SimCtx::wait`] on [`Channel::recv_async`].
    pub fn recv(&self, ctx: &SimCtx) -> Option<T> {
        ctx.wait(self.recv_async(ctx))
    }

    /// The next message, or `None` once the channel is closed *and*
    /// drained: the future behind [`Channel::recv`].
    pub async fn recv_async(&self, ctx: &SimCtx) -> Option<T> {
        loop {
            {
                let mut g = self.inner.lock();
                if let Some(m) = g.queue.pop_front() {
                    return Some(m);
                }
                if g.closed {
                    return None;
                }
                let ticket = g.next_ticket;
                g.next_ticket += 1;
                g.waiters.push_back((ctx.pid(), ticket));
            }
            ctx.block(|ks| BlockReason::Recv(self.label(ks))).await;
        }
    }

    /// Blocks until a message, close, or the absolute virtual-time
    /// `deadline`, whichever comes first. [`SimCtx::wait`] on
    /// [`Channel::recv_deadline_async`].
    pub fn recv_deadline(&self, ctx: &SimCtx, deadline: SimTime) -> RecvOutcome<T> {
        ctx.wait(self.recv_deadline_async(ctx, deadline))
    }

    /// A message, close, or the absolute virtual-time `deadline`,
    /// whichever comes first: the future behind [`Channel::recv_deadline`].
    ///
    /// The timeout is implemented as a kernel action keyed by a per-wait
    /// ticket: if the receiver was already woken by a delivery (or close)
    /// the ticket is gone and the action is a no-op, so no stale wake can
    /// reach a process that has moved on.
    pub async fn recv_deadline_async(&self, ctx: &SimCtx, deadline: SimTime) -> RecvOutcome<T> {
        loop {
            let now = ctx.now();
            let ticket = {
                let mut g = self.inner.lock();
                if let Some(m) = g.queue.pop_front() {
                    return RecvOutcome::Msg(m);
                }
                if g.closed {
                    return RecvOutcome::Closed;
                }
                if now >= deadline {
                    return RecvOutcome::TimedOut;
                }
                let ticket = g.next_ticket;
                g.next_ticket += 1;
                g.waiters.push_back((ctx.pid(), ticket));
                ticket
            };
            let pid = ctx.pid();
            let inner = self.inner.clone();
            ctx.block(|ks| {
                ks.schedule_action(deadline, move |ks2| {
                    let expired = {
                        let mut g = inner.lock();
                        match g.waiters.iter().position(|&w| w == (pid, ticket)) {
                            Some(i) => {
                                g.waiters.remove(i);
                                true
                            }
                            None => false,
                        }
                    };
                    if expired {
                        let now = ks2.now;
                        ks2.schedule_wake(now, pid);
                    }
                });
                BlockReason::RecvDeadline(self.label(ks), deadline)
            })
            .await;
        }
    }

    fn label(&self, ks: &mut KState) -> Label {
        let g = &mut *self.inner.lock();
        g.kernel.label(ks, &g.name)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.lock().queue.pop_front()
    }

    /// Closes the channel: future `recv` calls drain the buffer then return
    /// `None`; blocked receivers are woken.
    pub fn close(&self, ctx: &SimCtx) {
        let waiters: Vec<(Pid, u64)> = {
            let mut g = self.inner.lock();
            g.closed = true;
            g.waiters.drain(..).collect()
        };
        if !waiters.is_empty() {
            ctx.with_kernel(|ks| {
                let now = ks.now;
                for (pid, _) in waiters {
                    ks.schedule_wake(now, pid);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimTime};

    #[test]
    fn a_channel_blocked_on_under_two_kernels_is_named_in_both_reports() {
        use crate::SimError;
        let ch: Channel<u8> = Channel::new("shared");
        for pads in [0, 3] {
            let mut sim = Sim::new();
            // Names interned ahead of the channel's give it another label
            // the second time round.
            for i in 0..pads {
                sim.spawn(&format!("pad{i}"), |_| {});
            }
            let rx = ch.clone();
            sim.spawn("stuck", move |ctx| {
                for _ in 0..2 {
                    rx.recv_deadline(ctx, ctx.now() + SimTime::from_secs(1));
                }
                rx.recv(ctx);
            });
            match sim.run() {
                Err(SimError::Deadlock { blocked, .. }) => assert_eq!(
                    blocked,
                    vec![("stuck".to_string(), "recv on 'shared'".to_string())]
                ),
                other => panic!("expected a deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn send_then_recv_same_time() {
        let mut sim = Sim::new();
        let ch: Channel<u32> = Channel::new("c");
        let tx = ch.clone();
        sim.spawn("sender", move |ctx| {
            tx.send(ctx, 7);
        });
        let rx = ch.clone();
        let got = Arc::new(Mutex::new(None));
        let got2 = got.clone();
        sim.spawn("receiver", move |ctx| {
            *got2.lock() = rx.recv(ctx);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
        assert_eq!(*got.lock(), Some(7));
    }

    #[test]
    fn recv_blocks_until_delivery() {
        let mut sim = Sim::new();
        let ch: Channel<&'static str> = Channel::new("c");
        let tx = ch.clone();
        sim.spawn("sender", move |ctx| {
            ctx.hold(SimTime::from_secs(3));
            tx.send(ctx, "late");
        });
        let rx = ch.clone();
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), Some("late"));
            assert_eq!(ctx.now(), SimTime::from_secs(3));
        });
        sim.run().unwrap();
    }

    #[test]
    fn delayed_send_models_latency() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("link");
        let tx = ch.clone();
        sim.spawn("sender", move |ctx| {
            tx.send_delayed(ctx, 1, SimTime::from_millis(10.0));
            // Sender continues immediately.
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        let rx = ch.clone();
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), Some(1));
            assert_eq!(ctx.now(), SimTime::from_millis(10.0));
        });
        sim.run().unwrap();
    }

    /// Every engine mode, the parallel one on three shards with a
    /// lookahead window that spans a burst of instants.
    fn engines() -> [crate::EngineConfig; 3] {
        use crate::{EngineConfig, EngineMode};
        [
            EngineConfig::for_mode(EngineMode::LegacyHeap),
            EngineConfig::for_mode(EngineMode::Calendar),
            EngineConfig {
                mode: EngineMode::Parallel,
                shards: 3,
                lookahead: SimTime::from_millis(1.5),
            },
        ]
    }

    /// How many kernel actions this process's kernel ever held at once.
    fn action_slots(ctx: &SimCtx) -> usize {
        ctx.with_kernel(|ks| ks.actions.slots())
    }

    #[test]
    fn delayed_sends_take_no_action_slot() {
        const N: u32 = 64;
        for config in engines() {
            let mut sim = Sim::with_config(config);
            let ch: Channel<u32> = Channel::new("link");
            let tx = ch.clone();
            sim.spawn("sender", move |ctx| {
                // Delays of 1..=4 ms, so deliveries tie in fours at each
                // instant and arrive out of send order.
                for i in 0..N {
                    tx.send_delayed(ctx, i, SimTime::from_millis(f64::from(4 - i % 4)));
                }
            });
            let rx = ch.clone();
            let got = Arc::new(Mutex::new(Vec::new()));
            let got2 = got.clone();
            sim.spawn("receiver", move |ctx| {
                for _ in 0..N {
                    let m = rx.recv(ctx).expect("open");
                    got2.lock().push((ctx.now(), m));
                }
                assert_eq!(action_slots(ctx), 0, "{:?}", config.mode);
            });
            sim.run().unwrap();
            // Ascending `(time, seq)`: by delay, then in send order.
            let mut want: Vec<(SimTime, u32)> =
                (0..N).map(|i| (SimTime::from_millis(f64::from(4 - i % 4)), i)).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(*got.lock(), want, "{:?}", config.mode);
        }
    }

    /// The delayed send as a boxed kernel action, as it was before it
    /// became a typed event: the reference for the scenario below.
    fn send_delayed_boxed(ch: &Channel<u32>, ctx: &SimCtx, msg: u32, delay: SimTime) {
        let inner = ch.inner.clone();
        ctx.with_kernel(move |ks| {
            let at = ks.now + delay;
            ks.schedule_action(at, move |ks2| {
                let wake = {
                    let mut g = inner.lock();
                    g.queue.push_back(msg);
                    g.waiters.pop_front()
                };
                if let Some((pid, _)) = wake {
                    let now = ks2.now;
                    ks2.schedule_wake(now, pid);
                }
            });
        });
    }

    /// Six deliveries, three timers and a `recv_deadline` timeout, all at
    /// one instant `T`, their `seq`s interleaved: the log of what the
    /// timers and the receiver saw, the run's counters, and the most
    /// kernel actions held at once.
    fn one_instant(config: crate::EngineConfig, boxed: bool) -> (Vec<String>, [u64; 3], usize) {
        let t = SimTime::from_secs(1);
        let mut sim = Sim::with_config(config);
        let (ch, quiet) = (Channel::<u32>::new("ch"), Channel::<u32>::new("quiet"));
        let log = Arc::new(Mutex::new(Vec::new()));
        let probe = |name: &'static str| {
            let (ch, log) = (ch.clone(), log.clone());
            move |tm: &mut crate::Timers| {
                log.lock().push(format!("{name} at {} sees {}", tm.now(), ch.len()));
            }
        };
        // `seq` 0: the first event at `T`.
        sim.schedule(t, probe("timer0"));
        // At 0.5 s it schedules a probe at `T` whose `seq` follows every
        // event of instant 0.
        let (half, late) = (SimTime::from_millis(500.0), probe("late"));
        sim.schedule(half, move |tm| tm.schedule(half, late));
        let tx = ch.clone();
        sim.spawn("tx", move |ctx| {
            let send = |m| {
                if boxed {
                    send_delayed_boxed(&tx, ctx, m, t);
                } else {
                    tx.send_delayed(ctx, m, t);
                }
            };
            (0..3).for_each(send);
            // Lets `rx` block (its timeout's `seq` comes next) and the
            // zero-delay timer schedule its probe before the second burst.
            ctx.hold(SimTime::ZERO);
            (3..6).for_each(send);
        });
        let (rx, rx_quiet, rx_log) = (ch.clone(), quiet.clone(), log.clone());
        let slots = Arc::new(Mutex::new(0));
        let rx_slots = slots.clone();
        sim.spawn("rx", move |ctx| {
            let out = rx_quiet.recv_deadline(ctx, t);
            rx_log.lock().push(format!("rx {out:?} at {} sees {}", ctx.now(), rx.len()));
            while let Some(m) = rx.try_recv() {
                rx_log.lock().push(format!("rx got {m}"));
            }
            *rx_slots.lock() = action_slots(ctx);
        });
        let mid = probe("mid");
        sim.schedule(SimTime::ZERO, move |tm| tm.schedule(t, mid));
        let r = sim.run().unwrap();
        assert_eq!(r.end_time, t);
        let log = log.lock().clone();
        let slots = *slots.lock();
        (log, [r.events_processed, r.handoffs, r.inline_resumes], slots)
    }

    #[test]
    fn deliveries_timers_and_a_timeout_at_one_instant_fire_in_seq_order() {
        let want: Vec<String> = [
            "timer0 at 1.000000s sees 0",
            "mid at 1.000000s sees 3",
            "late at 1.000000s sees 6",
            "rx TimedOut at 1.000000s sees 6",
            "rx got 0",
            "rx got 1",
            "rx got 2",
            "rx got 3",
            "rx got 4",
            "rx got 5",
        ]
        .map(String::from)
        .to_vec();
        for config in engines() {
            let (log, counts, slots) = one_instant(config, false);
            assert_eq!(log, want, "{:?}", config.mode);
            let (boxed_log, boxed_counts, boxed_slots) = one_instant(config, true);
            assert_eq!((log, counts), (boxed_log, boxed_counts), "{:?}", config.mode);
            // The timers and the timeout hold actions; the six deliveries
            // add none; as closures, all six were in the arena at once.
            assert!(slots <= 4 && boxed_slots >= slots + 6, "{slots} {boxed_slots}");
        }
    }

    #[test]
    fn a_message_in_flight_when_the_run_ends_is_dropped_with_it() {
        let ch: Channel<Arc<()>> = Channel::new("kept");
        let token = Arc::new(());
        let mut sim = Sim::new();
        let (tx, msg) = (ch.clone(), token.clone());
        sim.spawn("sender", move |ctx| {
            tx.send_delayed(ctx, msg, SimTime::from_secs(5));
            ctx.hold(SimTime::from_secs(1));
        });
        // The sender's start and its hold's wake: the run stops before
        // the delivery fires.
        sim.set_event_limit(1);
        assert!(sim.run().is_err());
        assert_eq!(Arc::strong_count(&token), 1, "the channel outlives the run");
        assert!(ch.is_empty());
    }

    #[test]
    fn close_wakes_receivers_with_none() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("c");
        let rx = ch.clone();
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), None);
        });
        let cl = ch.clone();
        sim.spawn("closer", move |ctx| {
            ctx.hold(SimTime::from_secs(1));
            cl.close(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn close_drains_buffer_first() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("c");
        let tx = ch.clone();
        sim.spawn("producer", move |ctx| {
            tx.send(ctx, 1);
            tx.send(ctx, 2);
            tx.close(ctx);
        });
        let rx = ch.clone();
        sim.spawn("consumer", move |ctx| {
            ctx.hold(SimTime::from_secs(1));
            assert_eq!(rx.recv(ctx), Some(1));
            assert_eq!(rx.recv(ctx), Some(2));
            assert_eq!(rx.recv(ctx), None);
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_deadline_times_out_at_deadline() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("c");
        let rx = ch.clone();
        sim.spawn("receiver", move |ctx| {
            let out = rx.recv_deadline(ctx, SimTime::from_secs(5));
            assert_eq!(out, RecvOutcome::TimedOut);
            assert_eq!(ctx.now(), SimTime::from_secs(5));
        });
        // Keep the channel referenced so it stays open.
        let _keep = ch.clone();
        sim.run().unwrap();
    }

    #[test]
    fn recv_deadline_delivers_early_message() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("c");
        let tx = ch.clone();
        sim.spawn("sender", move |ctx| {
            ctx.hold(SimTime::from_secs(2));
            tx.send(ctx, 9);
        });
        let rx = ch.clone();
        sim.spawn("receiver", move |ctx| {
            let out = rx.recv_deadline(ctx, SimTime::from_secs(5));
            assert_eq!(out, RecvOutcome::Msg(9));
            assert_eq!(ctx.now(), SimTime::from_secs(2));
            // The expired timeout action for the satisfied wait must not
            // wake or disturb this process later on.
            ctx.hold(SimTime::from_secs(10));
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_deadline_sees_close() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("c");
        let cl = ch.clone();
        sim.spawn("closer", move |ctx| {
            ctx.hold(SimTime::from_secs(1));
            cl.close(ctx);
        });
        let rx = ch.clone();
        sim.spawn("receiver", move |ctx| {
            let out = rx.recv_deadline(ctx, SimTime::from_secs(5));
            assert_eq!(out, RecvOutcome::Closed);
            assert_eq!(ctx.now(), SimTime::from_secs(1));
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_deadline_retry_then_blocking_recv() {
        // A receiver that times out, retries with a later deadline, and
        // finally gets the message — the pattern the job master uses.
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("c");
        let tx = ch.clone();
        sim.spawn("sender", move |ctx| {
            ctx.hold(SimTime::from_secs(7));
            tx.send(ctx, 3);
        });
        let rx = ch.clone();
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv_deadline(ctx, SimTime::from_secs(2)), RecvOutcome::TimedOut);
            assert_eq!(rx.recv_deadline(ctx, SimTime::from_secs(4)), RecvOutcome::TimedOut);
            assert_eq!(rx.recv_deadline(ctx, SimTime::from_secs(9)), RecvOutcome::Msg(3));
            assert_eq!(ctx.now(), SimTime::from_secs(7));
        });
        sim.run().unwrap();
    }

    #[test]
    fn mpmc_distributes_work() {
        let mut sim = Sim::new();
        let ch: Channel<u32> = Channel::new("tasks");
        let done = Arc::new(Mutex::new(Vec::new()));
        for w in 0..2 {
            let rx = ch.clone();
            let done = done.clone();
            sim.spawn(&format!("worker{w}"), move |ctx| {
                while let Some(task) = rx.recv(ctx) {
                    ctx.hold(SimTime::from_secs(1));
                    done.lock().push((w, task));
                }
            });
        }
        let tx = ch.clone();
        sim.spawn("producer", move |ctx| {
            for t in 0..4 {
                tx.send(ctx, t);
            }
            tx.close(ctx);
        });
        let report = sim.run().unwrap();
        // Two workers, four 1-second tasks: finishes at t=2, not t=4.
        assert_eq!(report.end_time, SimTime::from_secs(2));
        assert_eq!(done.lock().len(), 4);
    }
}
