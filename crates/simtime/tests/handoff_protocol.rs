//! Protocol tests for direct hand-off scheduling: the event loop runs in
//! whichever process blocks, so every edge where the token changes
//! processes — or pointedly does not — is exercised here, each under a
//! wall-clock watchdog so a stuck run fails instead of hanging.

#[path = "../src/watchdog.rs"]
mod watchdog;

use simtime::{
    Channel, EngineConfig, EngineMode, Resource, Sim, SimError, SimReport, SimTime, TraceEvent,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use watchdog::within_deadline;

/// Cheap integer hash: the per-process scripts below are a pure function
/// of `(process, step)`, so every run executes the same program.
fn mix(a: u64, b: u64) -> u64 {
    let mut h = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 29)
}

const PROCS: usize = 240;
const STEPS: usize = 12;
const CONSUMERS: usize = 6;
const SHARDS: usize = 8;

/// 240 scripted processes, 6 queue consumers and a closer, mixing every
/// way a process can block or be woken: timed and zero-length `hold`,
/// `send`, `send_delayed`, `recv`, `recv_deadline`, contended
/// `Resource::acquire`, and `spawn` + `join` of children that finish at
/// once or after a hold.
fn stress_program(mode: EngineMode) -> SimReport {
    let mut sim = Sim::with_config(EngineConfig {
        mode,
        shards: SHARDS,
        lookahead: SimTime::from_micros(3.0),
    });
    sim.enable_trace();
    let slots = Resource::new("slots", 3);
    let ring: Vec<Channel<u64>> = (0..PROCS)
        .map(|i| Channel::new(&format!("ring{i}")))
        .collect();
    let work: Channel<u64> = Channel::new("work");
    let done: Channel<usize> = Channel::new("done");

    for c in 0..CONSUMERS {
        let work = work.clone();
        sim.spawn_on(c % SHARDS, &format!("consumer{c}"), move |ctx| {
            while let Some(item) = work.recv(ctx) {
                ctx.hold(SimTime::from_nanos((item % 700) as f64));
                ctx.trace(format!("ate {item}"));
            }
        });
    }
    {
        let (work, done) = (work.clone(), done.clone());
        sim.spawn("closer", move |ctx| {
            for _ in 0..PROCS {
                done.recv(ctx).expect("`done` is never closed");
            }
            work.close(ctx);
        });
    }
    for i in 0..PROCS {
        let (slots, ring, work, done) = (slots.clone(), ring.clone(), work.clone(), done.clone());
        sim.spawn_on(i % SHARDS, &format!("w{i}"), move |ctx| {
            for step in 0..STEPS {
                let h = mix(i as u64, step as u64);
                let peer = &ring[(i + 1 + (h >> 8) as usize % (PROCS - 1)) % PROCS];
                let gap = SimTime::from_nanos((1 + (h >> 16) % 2_000) as f64);
                match h % 8 {
                    0 => ctx.hold(gap),
                    1 => ctx.hold(SimTime::ZERO),
                    2 => peer.send(ctx, h),
                    3 => peer.send_delayed(ctx, h, gap),
                    4 => {
                        let got = ring[i].recv_deadline(ctx, ctx.now() + gap);
                        ctx.trace(format!("{got:?}"));
                    }
                    5 => {
                        let units = 1 + (h >> 40) % 2;
                        slots.acquire(ctx, units);
                        ctx.hold(gap);
                        slots.release(ctx, units);
                    }
                    6 => work.send(ctx, h),
                    _ => {
                        let quick = ctx.spawn(&format!("w{i}q{step}"), |_| {});
                        let slow = ctx.spawn(&format!("w{i}s{step}"), move |c| c.hold(gap));
                        ctx.join(&slow);
                        ctx.join(&quick); // finished long ago
                    }
                }
                ctx.trace(format!("step {step}"));
            }
            done.send(ctx, i);
        });
    }
    sim.run().expect("the stress program terminates")
}

type Summary = (SimTime, u64, u64, u64, Vec<TraceEvent>);

fn summary(r: SimReport) -> Summary {
    (
        r.end_time,
        r.events_processed,
        r.handoffs,
        r.inline_resumes,
        r.trace,
    )
}

#[test]
fn mixed_stress_is_identical_across_engines_and_repeats() {
    within_deadline(|| {
        let reference = summary(stress_program(EngineMode::LegacyHeap));
        assert!(reference.1 > (PROCS * STEPS) as u64, "the program ran");
        assert!(reference.2 > 0 && reference.3 > 0, "both wake paths ran");
        for round in 0..3 {
            for mode in EngineMode::ALL {
                assert!(
                    summary(stress_program(mode)) == reference,
                    "{mode} diverged from the reference in round {round}"
                );
            }
        }
    });
}

#[test]
fn deadlock_found_on_a_process_thread_lists_the_detector_too() {
    // `dl-a` blocks first and hands the token to `dl-b`, whose own block
    // drains the queue: the deadlock is detected on `dl-b`'s stack and
    // must still name `dl-b` itself.
    for mode in EngineMode::ALL {
        let err = within_deadline(move || {
            let mut sim = Sim::with_config(EngineConfig::for_mode(mode));
            for name in ["dl-a", "dl-b"] {
                let never: Channel<u8> = Channel::new(&format!("never-{name}"));
                sim.spawn(name, move |ctx| {
                    never.recv(ctx);
                });
            }
            sim.run().unwrap_err()
        });
        match err {
            SimError::Deadlock { now, blocked } => {
                assert_eq!(now, SimTime::ZERO);
                assert_eq!(
                    blocked,
                    vec![
                        ("dl-a".to_string(), "recv on 'never-dl-a'".to_string()),
                        ("dl-b".to_string(), "recv on 'never-dl-b'".to_string()),
                    ]
                );
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }
}

#[test]
fn zero_hold_spinner_resumes_inline_and_trips_the_event_limit() {
    // A `hold(0)` always finds its own wake next, so the spinner keeps the
    // token: 1000 spins are 1000 inline resumes, and the only hand-offs are
    // the two that bracket it (bystander -> spinner, spinner -> bystander).
    let report = within_deadline(|| {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("go");
        let rx = ch.clone();
        sim.spawn("bystander", move |ctx| {
            rx.recv(ctx);
        });
        sim.spawn("spinner", move |ctx| {
            for _ in 0..1000 {
                ctx.hold(SimTime::ZERO);
            }
            ch.send(ctx, 1);
        });
        sim.run().unwrap()
    });
    assert_eq!((report.handoffs, report.inline_resumes), (2, 1000));
    assert_eq!(report.events_processed, 2 + 1000 + 1);

    // The endless variant hits the limit on the spinner's own stack, with
    // a bystander blocked the whole time.
    let err = within_deadline(|| {
        let mut sim = Sim::new();
        sim.set_event_limit(500);
        let never: Channel<u8> = Channel::new("never");
        sim.spawn("spin-by", move |ctx| {
            never.recv(ctx);
        });
        sim.spawn("spin-er", |ctx| loop {
            ctx.hold(SimTime::ZERO);
        });
        sim.run().unwrap_err()
    });
    assert!(matches!(err, SimError::EventLimitExceeded { limit: 500 }));
}

#[test]
fn process_panic_unwinds_the_parked_processes() {
    let err = within_deadline(|| {
        let mut sim = Sim::new();
        for i in 0..20 {
            let never: Channel<u8> = Channel::new("never");
            sim.spawn(&format!("pp-idle{i}"), move |ctx| {
                never.recv(ctx);
            });
        }
        sim.spawn("pp-bad", |ctx| {
            ctx.hold(SimTime::from_secs(1));
            panic!("boom");
        });
        sim.run().unwrap_err()
    });
    match err {
        SimError::ProcessPanicked { process, message } => {
            assert_eq!((process.as_str(), message.as_str()), ("pp-bad", "boom"));
        }
        other => panic!("expected a process panic, got {other:?}"),
    }
}

/// Runs `sim`, which must panic out of `Sim::run`, and returns the message.
fn run_panics(sim: Sim) -> String {
    let payload = within_deadline(move || {
        catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("Sim::run re-raises the action's panic")
    });
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast::<&str>().expect("a string payload").to_string(),
    }
}

#[test]
fn delayed_send_onto_a_closed_channel_panics_out_of_run() {
    // The delivery action fires at t = 1s on the stack of whichever
    // process blocked last — here `ds-idle`. It is the simulation that is
    // broken, not that process.
    let mut sim = Sim::new();
    let ch: Channel<u8> = Channel::new("gone");
    sim.spawn("ds-send", move |ctx| {
        ch.send_delayed(ctx, 1, SimTime::from_secs(1));
        ch.close(ctx);
    });
    sim.spawn("ds-idle", |ctx| ctx.hold(SimTime::from_secs(5)));
    let message = run_panics(sim);
    assert!(
        message.contains("delayed send on closed channel 'gone'"),
        "{message}"
    );
}

#[test]
fn panicking_timer_panics_out_of_run_from_either_thread() {
    // With no process at all the timer fires in `Sim::run` itself.
    let sim = Sim::new();
    sim.schedule(SimTime::from_secs(1), |_| panic!("timer boom (run thread)"));
    assert_eq!(run_panics(sim), "timer boom (run thread)");

    // With processes it fires on a process's stack: still a panic out of
    // `run` rather than that process's `ProcessPanicked`, and the blocked
    // processes are unwound first.
    let mut sim = Sim::new();
    sim.schedule(SimTime::from_secs(1), |_| {
        panic!("timer boom (process thread)")
    });
    for i in 0..10 {
        sim.spawn(&format!("tp-hold{i}"), |ctx| {
            ctx.hold(SimTime::from_secs(2))
        });
    }
    assert_eq!(run_panics(sim), "timer boom (process thread)");
}
