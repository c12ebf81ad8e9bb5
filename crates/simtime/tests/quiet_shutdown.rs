//! Ending a run unwinds the processes that are still blocked, and that is
//! not a panic anyone should hear about: the panic hook runs for genuine
//! panics only. Alone in its binary because the hook is process-global.

use simtime::{Channel, Sim, SimError, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// A simulation with 50 processes blocked for good.
fn fifty_parked() -> Sim {
    let mut sim = Sim::new();
    for i in 0..50 {
        let never: Channel<u8> = Channel::new("never");
        sim.spawn(&format!("parked{i}"), move |ctx| {
            never.recv(ctx);
        });
    }
    sim
}

#[test]
fn unwinding_blocked_processes_never_reaches_the_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Relaxed);
    }));

    let deadlocked = fifty_parked().run();
    assert!(
        matches!(deadlocked, Err(SimError::Deadlock { ref blocked, .. }) if blocked.len() == 50)
    );
    assert_eq!(
        HOOK_CALLS.load(Relaxed),
        0,
        "a deadlock is an error, not a panic"
    );

    let mut sim = fifty_parked();
    sim.spawn("bad", |ctx| {
        ctx.hold(SimTime::from_secs(1));
        panic!("boom");
    });
    assert!(matches!(sim.run(), Err(SimError::ProcessPanicked { .. })));
    assert_eq!(
        HOOK_CALLS.load(Relaxed),
        1,
        "only the genuine panic is reported"
    );
}
