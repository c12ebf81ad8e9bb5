//! # simtime — deterministic process-oriented discrete-event simulation
//!
//! The substrate every simulated component of `hetero-prs` runs on:
//! a virtual clock, an event queue, and *processes* — plain closures written
//! in blocking style, multiplexed one-at-a-time so that runs are fully
//! deterministic (events at equal times fire in scheduling order).
//!
//! Building blocks:
//!
//! - [`Sim`] / [`SimCtx`] — engine and per-process handle ([`SimCtx::hold`]
//!   advances time, [`SimCtx::spawn`]/[`SimCtx::join`] manage processes).
//! - [`Resource`] — FIFO counted resource (GPU engines, cores, links).
//! - [`Channel`] — MPMC message channel with optional delivery latency.
//! - [`SimTime`] — virtual instants/durations in seconds.
//!
//! ```
//! use simtime::{Channel, Resource, Sim, SimTime};
//!
//! let mut sim = Sim::new();
//! let pci = Resource::new("pcie", 1);
//! let jobs: Channel<u64> = Channel::new("jobs");
//!
//! let rx = jobs.clone();
//! let pci2 = pci.clone();
//! sim.spawn("gpu-daemon", move |ctx| {
//!     while let Some(bytes) = rx.recv(ctx) {
//!         pci2.with(ctx, 1, || { /* exclusive transfer */ });
//!         ctx.hold(SimTime::from_secs_f64(bytes as f64 / 8e9));
//!     }
//! });
//! let tx = jobs.clone();
//! sim.spawn("scheduler", move |ctx| {
//!     tx.send(ctx, 16_000_000_000); // 16 GB over 8 GB/s => 2 s
//!     tx.close(ctx);
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time, SimTime::from_secs(2));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod channel;
#[allow(unsafe_code)]
mod coro;
mod engine;
mod kernel;
pub mod queue;
mod resource;
pub mod stackctx;
pub mod stress;
mod time;
#[cfg(test)]
mod watchdog;

pub use channel::{Channel, RecvOutcome};
pub use engine::{
    EngineConfig, EngineMode, ProcHandle, Sim, SimCtx, SimError, SimReport, Timers,
};
pub use kernel::TraceEvent;
pub use queue::CalendarQueue;
pub use resource::Resource;
pub use stackctx::{StackCtx, StackFrame};
pub use time::SimTime;

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn empty_sim_completes_at_zero() {
        let sim = Sim::new();
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events_processed, 0);
    }

    #[test]
    fn hold_advances_only_virtual_time() {
        let mut sim = Sim::new();
        sim.spawn("p", |ctx| {
            ctx.hold(SimTime::from_secs(1_000_000));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_secs(1_000_000));
    }

    #[test]
    fn lone_process_never_hands_off() {
        // Every hold finds its own wake next: the process keeps the token
        // for the whole run.
        for mode in EngineMode::ALL {
            let mut sim = Sim::with_config(EngineConfig::for_mode(mode));
            sim.spawn("solo", |ctx| {
                for _ in 0..25 {
                    ctx.hold(SimTime::from_secs(1));
                }
            });
            let report = sim.run().unwrap();
            assert_eq!(report.events_processed, 26);
            assert_eq!((report.handoffs, report.inline_resumes), (0, 25));
        }
    }

    #[test]
    fn ping_pong_hands_off_once_per_message() {
        const ROUNDS: u64 = 40;
        for mode in EngineMode::ALL {
            let mut sim = Sim::with_config(EngineConfig::for_mode(mode));
            let ping: Channel<u64> = Channel::new("ping");
            let pong: Channel<u64> = Channel::new("pong");
            let (tx, rx) = (ping.clone(), pong.clone());
            sim.spawn("pinger", move |ctx| {
                for i in 0..ROUNDS {
                    tx.send(ctx, i);
                    assert_eq!(rx.recv(ctx), Some(i));
                }
            });
            sim.spawn("ponger", move |ctx| {
                for _ in 0..ROUNDS {
                    let i = ping.recv(ctx).unwrap();
                    pong.send(ctx, i);
                }
            });
            let report = sim.run().unwrap();
            // Each message is received by the other process: one hand-off
            // per message, and nobody ever finds its own wake next.
            assert_eq!((report.handoffs, report.inline_resumes), (2 * ROUNDS, 0));
        }
    }

    #[test]
    fn processes_interleave_deterministically() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for (name, delay) in [("a", 2.0), ("b", 1.0), ("c", 3.0)] {
            let order = order.clone();
            sim.spawn(name, move |ctx| {
                ctx.hold(SimTime::from_secs_f64(delay));
                order.lock().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["b", "a", "c"]);
    }

    #[test]
    fn equal_times_fire_in_spawn_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for name in ["x", "y", "z"] {
            let order = order.clone();
            sim.spawn(name, move |ctx| {
                ctx.hold(SimTime::from_secs(1));
                order.lock().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["x", "y", "z"]);
    }

    #[test]
    fn spawn_and_join_children() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| {
            let children: Vec<_> = (0..3)
                .map(|i| {
                    ctx.spawn(&format!("child{i}"), move |cctx| {
                        cctx.hold(SimTime::from_secs(i + 1));
                    })
                })
                .collect();
            ctx.join_all(&children);
            assert_eq!(ctx.now(), SimTime::from_secs(3));
        });
        sim.run().unwrap();
    }

    #[test]
    fn join_finished_process_returns_immediately() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |_| {});
            ctx.hold(SimTime::from_secs(5));
            ctx.join(&child); // already finished
            assert_eq!(ctx.now(), SimTime::from_secs(5));
        });
        sim.run().unwrap();
    }

    #[test]
    fn deadlock_is_reported_with_reasons() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("never");
        sim.spawn("stuck", move |ctx| {
            ch.recv(ctx);
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, "stuck");
                assert!(blocked[0].1.contains("never"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_is_propagated() {
        let mut sim = Sim::new();
        sim.spawn("bad", |_| panic!("boom"));
        match sim.run() {
            Err(SimError::ProcessPanicked { process, message }) => {
                assert_eq!(process, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_bounds_runaway_sims() {
        let mut sim = Sim::new();
        sim.set_event_limit(100);
        sim.spawn("spinner", |ctx| loop {
            ctx.hold(SimTime::from_secs(1));
        });
        match sim.run() {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 100),
            other => panic!("expected limit error, got {other:?}"),
        }
    }

    #[test]
    fn trace_records_in_time_order() {
        let mut sim = Sim::new();
        sim.enable_trace();
        sim.spawn("a", |ctx| {
            ctx.trace("start");
            ctx.hold(SimTime::from_secs(2));
            ctx.trace("end");
        });
        sim.spawn("b", |ctx| {
            ctx.hold(SimTime::from_secs(1));
            ctx.trace("middle");
        });
        let report = sim.run().unwrap();
        let msgs: Vec<_> = report.trace.iter().map(|t| t.message.as_str()).collect();
        assert_eq!(msgs, vec!["start", "middle", "end"]);
        assert_eq!(report.trace[1].process, "b");
    }

    #[test]
    fn identical_sims_produce_identical_reports() {
        fn build_and_run(seed_delays: &[f64]) -> (SimTime, u64) {
            let mut sim = Sim::new();
            let res = Resource::new("r", 2);
            for (i, &d) in seed_delays.iter().enumerate() {
                let res = res.clone();
                sim.spawn(&format!("p{i}"), move |ctx| {
                    res.acquire(ctx, 1);
                    ctx.hold(SimTime::from_secs_f64(d));
                    res.release(ctx, 1);
                });
            }
            let r = sim.run().unwrap();
            (r.end_time, r.events_processed)
        }
        let delays = [0.5, 1.5, 0.25, 2.0, 1.0];
        assert_eq!(build_and_run(&delays), build_and_run(&delays));
    }
}
