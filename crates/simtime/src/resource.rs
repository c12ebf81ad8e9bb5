//! Counted resources with FIFO queueing — the simulation analogue of a
//! semaphore. Used to model exclusive or capacity-limited hardware such as
//! GPU compute engines, copy engines, CPU cores, and network links.

use crate::engine::SimCtx;
use crate::kernel::{BlockReason, KernelCache, Pid};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

struct ResInner {
    capacity: u64,
    available: u64,
    waiters: VecDeque<(Pid, u64)>,
    /// The resource's name as waiters' block reasons carry it.
    label: KernelCache,
}

/// A capacity-limited resource. `acquire(n)` blocks until `n` units are
/// available *and* every earlier waiter has been served (strict FIFO — no
/// barging, so small requests cannot starve a large one).
#[derive(Clone)]
pub struct Resource {
    name: Arc<str>,
    inner: Arc<Mutex<ResInner>>,
}

impl Resource {
    /// Creates a resource with `capacity` units, all initially available.
    pub fn new(name: &str, capacity: u64) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        Resource {
            name: name.into(),
            inner: Arc::new(Mutex::new(ResInner {
                capacity,
                available: capacity,
                waiters: VecDeque::new(),
                label: KernelCache::default(),
            })),
        }
    }

    /// The resource name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.inner.lock().capacity
    }

    /// Units currently available.
    pub fn available(&self) -> u64 {
        self.inner.lock().available
    }

    /// Number of processes waiting to acquire.
    pub fn queue_len(&self) -> usize {
        self.inner.lock().waiters.len()
    }

    /// Acquires `amount` units, blocking in FIFO order until granted.
    /// [`SimCtx::wait`] on [`Resource::acquire_async`].
    pub fn acquire(&self, ctx: &SimCtx, amount: u64) {
        ctx.wait(self.acquire_async(ctx, amount));
    }

    /// Completes once `amount` units are granted, in FIFO order: the
    /// future behind [`Resource::acquire`].
    pub async fn acquire_async(&self, ctx: &SimCtx, amount: u64) {
        let must_wait = {
            let mut g = self.inner.lock();
            assert!(
                amount <= g.capacity,
                "acquire({amount}) exceeds capacity {} of '{}'",
                g.capacity,
                self.name
            );
            if g.waiters.is_empty() && g.available >= amount {
                g.available -= amount;
                false
            } else {
                g.waiters.push_back((ctx.pid(), amount));
                true
            }
        };
        if must_wait {
            // The corresponding `release` deducts our units and schedules our
            // wake; on resume the grant has already been made.
            ctx.block(|ks| {
                let label = self.inner.lock().label.label(ks, &self.name);
                BlockReason::Acquire(amount, label)
            })
            .await;
        }
    }

    /// Returns `amount` units and grants as many FIFO waiters as now fit.
    pub fn release(&self, ctx: &SimCtx, amount: u64) {
        let to_wake = {
            let mut g = self.inner.lock();
            g.available += amount;
            assert!(
                g.available <= g.capacity,
                "release overflows capacity of '{}'",
                self.name
            );
            let mut woken = Vec::new();
            while let Some(&(pid, amt)) = g.waiters.front() {
                if amt <= g.available {
                    g.available -= amt;
                    g.waiters.pop_front();
                    woken.push(pid);
                } else {
                    break;
                }
            }
            woken
        };
        if !to_wake.is_empty() {
            ctx.with_kernel(|ks| {
                let now = ks.now;
                for pid in to_wake {
                    ks.schedule_wake(now, pid);
                }
            });
        }
    }

    /// Acquires, runs `f`, then releases — the common hold-resource pattern.
    pub fn with<R>(&self, ctx: &SimCtx, amount: u64, f: impl FnOnce() -> R) -> R {
        self.acquire(ctx, amount);
        let r = f();
        self.release(ctx, amount);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn exclusive_resource_serializes_holders() {
        let mut sim = Sim::new();
        let res = Resource::new("engine", 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let res = res.clone();
            let order = order.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                res.acquire(ctx, 1);
                order.lock().push((i, ctx.now().as_secs_f64()));
                ctx.hold(SimTime::from_secs(1));
                res.release(ctx, 1);
            });
        }
        sim.run().unwrap();
        let order = order.lock();
        // FIFO: spawn order preserved; each holder starts 1s after previous.
        assert_eq!(
            *order,
            vec![(0usize, 0.0f64), (1, 1.0), (2, 2.0)],
            "got {order:?}"
        );
    }

    #[test]
    fn fifo_prevents_barging() {
        // p0 takes 3/4 units. p1 wants 2 (must wait). p2 wants 1 — would fit
        // in the leftover unit, but FIFO makes it queue behind p1.
        let mut sim = Sim::new();
        let res = Resource::new("r", 4);
        let log = Arc::new(Mutex::new(Vec::new()));

        {
            let res = res.clone();
            let log = log.clone();
            sim.spawn("p0", move |ctx| {
                res.acquire(ctx, 3);
                log.lock().push(("p0", ctx.now().as_secs_f64()));
                ctx.hold(SimTime::from_secs(5));
                res.release(ctx, 3);
            });
        }
        {
            let res = res.clone();
            let log = log.clone();
            sim.spawn("p1", move |ctx| {
                ctx.hold(SimTime::from_secs(1));
                res.acquire(ctx, 2);
                log.lock().push(("p1", ctx.now().as_secs_f64()));
                res.release(ctx, 2);
            });
        }
        {
            let res = res.clone();
            let log = log.clone();
            sim.spawn("p2", move |ctx| {
                ctx.hold(SimTime::from_secs(2));
                res.acquire(ctx, 1);
                log.lock().push(("p2", ctx.now().as_secs_f64()));
                res.release(ctx, 1);
            });
        }
        sim.run().unwrap();
        let log = log.lock();
        assert_eq!(*log, vec![("p0", 0.0), ("p1", 5.0), ("p2", 5.0)]);
    }

    #[test]
    fn with_releases_on_completion() {
        let mut sim = Sim::new();
        let res = Resource::new("r", 2);
        let count = Arc::new(AtomicUsize::new(0));
        {
            let res = res.clone();
            let count = count.clone();
            sim.spawn("a", move |ctx| {
                res.with(ctx, 2, || {
                    count.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(res.available(), 2);
            });
        }
        sim.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_acquire_panics() {
        let mut sim = Sim::new();
        let res = Resource::new("r", 1);
        sim.spawn("a", move |ctx| {
            res.acquire(ctx, 2);
        });
        // The panic inside the process surfaces as a SimError; unwrap the
        // error message to re-panic for should_panic matching.
        let err = sim.run().unwrap_err();
        panic!("{err}");
    }
}
