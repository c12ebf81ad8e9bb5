//! Simulation-aware message channels: unbounded, multi-producer
//! multi-consumer, with optional delivery delay. Blocking `recv` integrates
//! with the virtual clock, making channels the building block for task
//! queues, request/reply protocols, and the network layer.

use crate::engine::SimCtx;
use crate::kernel::{BlockReason, CachedLabel, KState, Label, Pid};
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
    /// The channel's name as receivers' block reasons carry it.
    label: CachedLabel,
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
/// latency). `recv` blocks the calling process until a message or close.
pub struct Channel<T> {
    name: Arc<str>,
    inner: Arc<Mutex<ChanInner<T>>>,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            name: self.name.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Channel<T> {
    /// Creates an empty open channel.
    pub fn new(name: &str) -> Self {
        Channel {
            name: name.into(),
            inner: Arc::new(Mutex::new(ChanInner {
                queue: VecDeque::new(),
                waiters: VecDeque::new(),
                next_ticket: 0,
                closed: false,
                label: CachedLabel::default(),
            })),
        }
    }

    /// The channel name given at construction.
    pub fn name(&self) -> &str {
        &self.name
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
            assert!(!g.closed, "send on closed channel '{}'", self.name);
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
    /// block — the message is "in flight").
    pub fn send_delayed(&self, ctx: &SimCtx, msg: T, delay: SimTime) {
        let inner = self.inner.clone();
        let name = self.name.clone();
        ctx.with_kernel(move |ks| {
            let at = ks.now + delay;
            ks.schedule_action(at, move |ks2| {
                let wake = {
                    let mut g = inner.lock();
                    assert!(!g.closed, "delayed send on closed channel '{name}'");
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

    /// Blocks until a message is available; returns `None` once the channel
    /// is closed *and* drained.
    pub fn recv(&self, ctx: &SimCtx) -> Option<T> {
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
            ctx.block(|ks| BlockReason::Recv(self.label(ks)));
        }
    }

    /// Blocks until a message, close, or the absolute virtual-time
    /// `deadline`, whichever comes first.
    ///
    /// The timeout is implemented as a kernel action keyed by a per-wait
    /// ticket: if the receiver was already woken by a delivery (or close)
    /// the ticket is gone and the action is a no-op, so no stale wake can
    /// reach a process that has moved on.
    pub fn recv_deadline(&self, ctx: &SimCtx, deadline: SimTime) -> RecvOutcome<T> {
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
            });
        }
    }

    fn label(&self, ks: &mut KState) -> Label {
        self.inner.lock().label.get(ks, &self.name)
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
