//! A one-token handoff gate: the way the execution token moves between
//! threads. Every simulation process owns one, and so does the thread
//! blocked in `Sim::run`. Whoever holds the token opens the next runner's
//! gate and then parks on its own; exactly one thread runs in between.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};

/// A sticky one-token gate with a single fixed waiter: `open` deposits the
/// token and unparks the waiter, `wait` blocks until the token is there and
/// consumes it. The token does not accumulate beyond one, which is fine
/// because the handoff protocol never opens a gate twice without an
/// intervening wait.
///
/// The token is an atomic flag and the wake-up is `Thread::unpark`, so
/// `open` never holds a lock the woken thread needs: on a single CPU the
/// waiter preempts the opener, finds the flag already set, and runs.
pub(crate) struct Gate {
    token: AtomicBool,
    waiter: OnceLock<Thread>,
}

impl Gate {
    pub(crate) fn new() -> Self {
        Gate {
            token: AtomicBool::new(false),
            waiter: OnceLock::new(),
        }
    }

    /// Names the one thread that will ever `wait` here. Must be called
    /// before the first `open`; the token holder does so right after
    /// spawning the waiter, before it can hand the token to anyone.
    pub(crate) fn bind(&self, waiter: Thread) {
        self.waiter
            .set(waiter)
            .expect("a gate has exactly one waiter");
    }

    /// Deposits the token and wakes the waiter if it is parked. Opening
    /// before the waiter first waits is fine: the token stays put.
    pub(crate) fn open(&self) {
        // Release pairs with the Acquire swap in `wait`: everything the
        // opener did while holding the token is visible to the waiter.
        self.token.store(true, Ordering::Release);
        self.waiter
            .get()
            .expect("gate opened before its waiter was bound")
            .unpark();
    }

    /// Blocks the bound waiter until the token is available, then consumes
    /// it. `park` may return spuriously (or on a stale unpark left over
    /// from an open-before-wait), hence the loop on the flag.
    pub(crate) fn wait(&self) {
        while !self.token.swap(false, Ordering::Acquire) {
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn bound_to_current() -> Gate {
        let g = Gate::new();
        g.bind(thread::current());
        g
    }

    #[test]
    fn open_before_wait_does_not_block() {
        let g = bound_to_current();
        g.open();
        g.wait(); // must return immediately
    }

    #[test]
    fn handoff_across_threads() {
        let g = Arc::new(Gate::new());
        let g2 = g.clone();
        let t = thread::spawn(move || {
            g2.wait();
            42
        });
        g.bind(t.thread().clone());
        g.open();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn open_before_the_owner_first_waits_is_not_lost() {
        // A freshly spawned process can be handed the token before its
        // thread has reached `wait`. Force that order: the waiter is held
        // back until the gate is already open.
        let g = Arc::new(Gate::new());
        let g2 = g.clone();
        let (go, held) = std::sync::mpsc::channel::<()>();
        let t = thread::spawn(move || {
            held.recv().unwrap();
            g2.wait();
        });
        g.bind(t.thread().clone());
        g.open();
        go.send(()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn token_is_consumed() {
        let g = bound_to_current();
        g.open();
        g.wait();
        // The stale unpark from the first open must not satisfy a later
        // wait on its own: only a fresh token does.
        assert!(!g.token.load(Ordering::Acquire));
        g.open();
        g.wait();
    }

    #[test]
    fn ping_pong_never_loses_a_wakeup() {
        // Two threads bounce the token 10 000 times; a lost unpark would
        // hang (the simtime stress tests put a watchdog around the same
        // protocol at scale).
        let a = Arc::new(bound_to_current());
        let b = Arc::new(Gate::new());
        let (a2, b2) = (a.clone(), b.clone());
        let t = thread::spawn(move || {
            for _ in 0..10_000 {
                b2.wait();
                a2.open();
            }
        });
        b.bind(t.thread().clone());
        for _ in 0..10_000 {
            b.open();
            a.wait();
        }
        t.join().unwrap();
    }
}
