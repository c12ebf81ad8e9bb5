//! Simulation processes are coroutines on the thread that calls
//! `Sim::run`, not OS threads. Alone in its binary so that no other test's
//! threads come and go while it counts.

use simtime::{Sim, SimTime};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn two_thousand_processes_run_on_the_calling_thread() {
    let before = os_threads();
    let during = Arc::new(AtomicU64::new(0));
    let mut sim = Sim::new();
    for i in 0..2000 {
        let during = during.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            // By now every process has started and is blocked in a hold.
            ctx.hold(SimTime::from_secs(1));
            if i == 1000 {
                during.store(os_threads(), Relaxed);
            }
            ctx.hold(SimTime::from_secs(1));
        });
    }
    sim.run().unwrap();
    assert_eq!(during.load(Relaxed), before);
}
