//! Protocol tests for direct hand-off scheduling: the event loop runs in
//! whichever process blocks, so every edge where the token changes
//! processes — or pointedly does not — is exercised here, each under a
//! wall-clock watchdog so a stuck run fails instead of hanging.

#[path = "../src/watchdog.rs"]
mod watchdog;

use simtime::{
    Channel, EngineConfig, EngineMode, ProcHandle, Resource, Sim, SimCtx, SimError, SimReport,
    SimTime, TraceEvent,
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

/// Whether the `i`th process spawned is a task.
type Choice = fn(u64) -> bool;

/// Spawns root process `body` as a task, or as a stackful process that
/// [`SimCtx::wait`]s on it: the same program either way.
fn spawn_root<F>(sim: &mut Sim, task: bool, shard: usize, name: &str, body: F)
where
    F: AsyncFnOnce(&SimCtx) + Send + 'static,
{
    if task {
        sim.spawn_task_on(shard, name, move |ctx| async move { body(&ctx).await });
    } else {
        sim.spawn_on(shard, name, move |ctx| ctx.wait(body(ctx)));
    }
}

/// [`spawn_root`] for a child of the running process.
fn spawn_child<F>(ctx: &SimCtx, task: bool, name: &str, body: F) -> ProcHandle
where
    F: AsyncFnOnce(&SimCtx) + Send + 'static,
{
    if task {
        ctx.spawn_task(name, move |ctx| async move { body(&ctx).await })
    } else {
        ctx.spawn(name, move |ctx| ctx.wait(body(ctx)))
    }
}

/// 240 scripted processes, 6 queue consumers and a closer, mixing every
/// way a process can block or be woken: timed and zero-length `hold`,
/// `send`, `send_delayed`, `recv`, `recv_deadline`, contended
/// `Resource::acquire`, and `spawn` + `join` of children that finish at
/// once or after a hold. `task(i)` says whether the `i`th process spawned
/// (children count after the roots) is a task rather than stackful.
fn stress_program(mode: EngineMode, task: Choice) -> SimReport {
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
        let name = format!("consumer{c}");
        spawn_root(&mut sim, task(c as u64), c % SHARDS, &name, async move |ctx| {
            while let Some(item) = work.recv_async(ctx).await {
                ctx.sleep(SimTime::from_nanos((item % 700) as f64)).await;
                ctx.trace(format!("ate {item}"));
            }
        });
    }
    {
        let (work, done) = (work.clone(), done.clone());
        spawn_root(&mut sim, task(CONSUMERS as u64), 0, "closer", async move |ctx| {
            for _ in 0..PROCS {
                done.recv_async(ctx).await.expect("`done` is never closed");
            }
            work.close(ctx);
        });
    }
    for i in 0..PROCS {
        let (slots, ring, work, done) = (slots.clone(), ring.clone(), work.clone(), done.clone());
        let me = (CONSUMERS + 1 + i) as u64;
        spawn_root(&mut sim, task(me), i % SHARDS, &format!("w{i}"), async move |ctx| {
            for step in 0..STEPS {
                let h = mix(i as u64, step as u64);
                let peer = &ring[(i + 1 + (h >> 8) as usize % (PROCS - 1)) % PROCS];
                let gap = SimTime::from_nanos((1 + (h >> 16) % 2_000) as f64);
                match h % 8 {
                    0 => ctx.sleep(gap).await,
                    1 => ctx.sleep(SimTime::ZERO).await,
                    2 => peer.send(ctx, h),
                    3 => peer.send_delayed(ctx, h, gap),
                    4 => {
                        let deadline = ctx.now() + gap;
                        let got = ring[i].recv_deadline_async(ctx, deadline).await;
                        ctx.trace(format!("{got:?}"));
                    }
                    5 => {
                        let units = 1 + (h >> 40) % 2;
                        slots.acquire_async(ctx, units).await;
                        ctx.sleep(gap).await;
                        slots.release(ctx, units);
                    }
                    6 => work.send(ctx, h),
                    _ => {
                        // Children are numbered after every root.
                        let child = (PROCS + CONSUMERS + 1) as u64 + mix(me, step as u64) % 1024;
                        let quick =
                            spawn_child(ctx, task(child), &format!("w{i}q{step}"), async |_| {});
                        let slow = spawn_child(
                            ctx,
                            task(child + 1),
                            &format!("w{i}s{step}"),
                            async move |c| c.sleep(gap).await,
                        );
                        ctx.join_async(&slow).await;
                        ctx.join_async(&quick).await; // finished long ago
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

/// Every process stackful.
fn all_stackful(_: u64) -> bool {
    false
}

#[test]
fn mixed_stress_is_identical_across_engines_and_repeats() {
    within_deadline(|| {
        let report = stress_program(EngineMode::LegacyHeap, all_stackful);
        assert_eq!(report.switches, report.handoffs, "every hand-off is a switch");
        let reference = summary(report);
        assert!(reference.1 > (PROCS * STEPS) as u64, "the program ran");
        assert!(reference.2 > 0 && reference.3 > 0, "both wake paths ran");
        for round in 0..3 {
            for mode in EngineMode::ALL {
                assert!(
                    summary(stress_program(mode, all_stackful)) == reference,
                    "{mode} diverged from the reference in round {round}"
                );
            }
        }
    });
}

#[test]
fn tasks_leave_the_stress_program_as_it_was_but_for_switches() {
    // Which processes are tasks is a function of a seed. A wake to a task
    // counts as the same wake to a stackful process would, so everything
    // but the stack switches matches the all-stackful run, trace included.
    within_deadline(|| {
        let reference = summary(stress_program(EngineMode::LegacyHeap, all_stackful));
        let choices: [(&str, Choice); 4] = [
            ("seed 1", |i| mix(1, i).is_multiple_of(2)),
            ("seed 2", |i| mix(2, i).is_multiple_of(2)),
            ("seed 3, mostly tasks", |i| !mix(3, i).is_multiple_of(4)),
            ("all tasks", |_| true),
        ];
        for (seed, task) in choices {
            for mode in EngineMode::ALL {
                let report = stress_program(mode, task);
                assert!(
                    report.switches < report.handoffs,
                    "{seed}, {mode}: {} switches for {} hand-offs",
                    report.switches,
                    report.handoffs
                );
                if seed == "all tasks" {
                    assert_eq!(report.switches, 0, "{mode}: nothing to switch to");
                }
                assert!(summary(report) == reference, "{seed} diverged under {mode}");
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

#[test]
fn a_stackful_process_ping_pongs_with_a_task_without_switching() {
    // Each message still hands off — the counters do not care which side
    // is a task — but the task is polled on the pinger's stack, so no
    // stack is ever switched to after the first.
    const ROUNDS: u64 = 40;
    for mode in EngineMode::ALL {
        let report = within_deadline(move || {
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
            sim.spawn_task("ponger", move |ctx| async move {
                for _ in 0..ROUNDS {
                    let i = ping.recv_async(&ctx).await.expect("open");
                    pong.send(&ctx, i);
                }
            });
            sim.run().unwrap()
        });
        let counts = (report.handoffs, report.inline_resumes, report.switches);
        assert_eq!(counts, (2 * ROUNDS, 0, 0), "{mode}");
    }
}

#[test]
fn a_process_joins_a_task_and_a_task_joins_a_process() {
    let report = within_deadline(|| {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn_task("task-child", |c| async move {
                c.sleep(SimTime::from_secs(3)).await;
                // A task may spawn a stackful child and join it in turn.
                let grandchild = c.spawn("grandchild", |g| g.hold(SimTime::from_secs(2)));
                c.join_async(&grandchild).await;
                assert_eq!(c.now(), SimTime::from_secs(5));
            });
            ctx.join(&child);
            assert_eq!(ctx.now(), SimTime::from_secs(5));
            ctx.join(&child); // finished: returns at once
            assert_eq!(ctx.now(), SimTime::from_secs(5));
        });
        sim.run().unwrap()
    });
    assert_eq!(report.end_time, SimTime::from_secs(5));
}

#[test]
fn zero_sleep_task_spinner_resumes_inline_and_trips_the_event_limit() {
    // The task form of the `hold(0)` spinner counts exactly as the
    // stackful one does, and switches stacks not at all.
    let report = within_deadline(|| {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("go");
        let rx = ch.clone();
        sim.spawn("bystander", move |ctx| {
            rx.recv(ctx);
        });
        sim.spawn_task("spinner", move |ctx| async move {
            for _ in 0..1000 {
                ctx.sleep(SimTime::ZERO).await;
            }
            ch.send(&ctx, 1);
        });
        sim.run().unwrap()
    });
    assert_eq!((report.handoffs, report.inline_resumes), (2, 1000));
    assert_eq!(report.events_processed, 2 + 1000 + 1);
    assert_eq!(report.switches, 0);

    let err = within_deadline(|| {
        let mut sim = Sim::new();
        sim.set_event_limit(500);
        let never: Channel<u8> = Channel::new("never");
        sim.spawn("spin-by", move |ctx| {
            never.recv(ctx);
        });
        sim.spawn_task("spin-er", |ctx| async move {
            loop {
                ctx.sleep(SimTime::ZERO).await;
            }
        });
        sim.run().unwrap_err()
    });
    assert!(matches!(err, SimError::EventLimitExceeded { limit: 500 }));
}

#[test]
fn a_panicking_task_is_reported_by_name() {
    let err = within_deadline(|| {
        let mut sim = Sim::new();
        for i in 0..5 {
            let never: Channel<u8> = Channel::new("never");
            sim.spawn(&format!("tp-idle{i}"), move |ctx| {
                never.recv(ctx);
            });
        }
        sim.spawn_task("tp-bad", |ctx| async move {
            ctx.sleep(SimTime::from_secs(1)).await;
            panic!("task boom");
        });
        sim.run().unwrap_err()
    });
    match err {
        SimError::ProcessPanicked { process, message } => {
            assert_eq!((process.as_str(), message.as_str()), ("tp-bad", "task boom"));
        }
        other => panic!("expected a task panic, got {other:?}"),
    }
}

#[test]
fn a_deadlock_lists_a_blocked_task_with_its_reason() {
    for mode in EngineMode::ALL {
        let err = within_deadline(move || {
            let mut sim = Sim::with_config(EngineConfig::for_mode(mode));
            let (a, b): (Channel<u8>, Channel<u8>) =
                (Channel::new("never-a"), Channel::new("never-b"));
            sim.spawn("dl-proc", move |ctx| {
                a.recv(ctx);
            });
            sim.spawn_task("dl-task", move |ctx| async move {
                b.recv_async(&ctx).await;
            });
            let slots = Resource::new("dl-slots", 1);
            sim.spawn_task("dl-holder", move |ctx| async move {
                slots.acquire_async(&ctx, 1).await;
                slots.acquire_async(&ctx, 1).await;
            });
            sim.run().unwrap_err()
        });
        match err {
            SimError::Deadlock { blocked, .. } => assert_eq!(
                blocked,
                vec![
                    ("dl-proc".to_string(), "recv on 'never-a'".to_string()),
                    ("dl-task".to_string(), "recv on 'never-b'".to_string()),
                    ("dl-holder".to_string(), "acquire 1 of 'dl-slots'".to_string()),
                ],
                "{mode}"
            ),
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }
}

#[test]
fn a_sim_holding_unstarted_tasks_drops_without_running_them() {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;
    let ran = Arc::new(AtomicU64::new(0));
    let mut sim = Sim::new();
    for i in 0..10 {
        let ran = ran.clone();
        sim.spawn_task(&format!("unborn{i}"), move |_| {
            ran.fetch_add(1, Relaxed);
            async {}
        });
    }
    assert_eq!(Arc::strong_count(&ran), 11);
    drop(sim);
    assert_eq!((ran.load(Relaxed), Arc::strong_count(&ran)), (0, 1));
}

#[test]
fn a_run_drops_every_task_it_started_before_returning() {
    use std::sync::Arc;
    let held = Arc::new(());
    let h = held.clone();
    let err = within_deadline(move || {
        let mut sim = Sim::new();
        let never: Channel<u8> = Channel::new("never");
        sim.spawn_task("keeper", move |ctx| async move {
            let _held = h;
            never.recv_async(&ctx).await;
        });
        sim.run().unwrap_err()
    });
    assert!(matches!(err, SimError::Deadlock { .. }));
    assert_eq!(Arc::strong_count(&held), 1);
}

#[test]
fn waiting_in_a_task_panics_and_says_to_await() {
    let err = within_deadline(|| {
        let mut sim = Sim::new();
        sim.spawn_task("blocker", |ctx| async move {
            ctx.hold(SimTime::from_secs(1));
        });
        sim.run().unwrap_err()
    });
    match err {
        SimError::ProcessPanicked { process, message } => {
            assert_eq!(process, "blocker");
            assert!(message.contains("`.await`"), "{message}");
        }
        other => panic!("expected a panic, got {other:?}"),
    }
}

#[test]
fn a_future_pending_without_a_wake_is_an_error_not_a_hang() {
    for task in [false, true] {
        let err = within_deadline(move || {
            let mut sim = Sim::new();
            spawn_root(&mut sim, task, 0, "stray", async |_| {
                std::future::pending::<()>().await;
            });
            sim.run().unwrap_err()
        });
        match err {
            SimError::ProcessPanicked { process, message } => {
                assert_eq!(process, "stray");
                assert!(message.contains("without blocking"), "task {task}: {message}");
            }
            other => panic!("expected a panic, got {other:?}"),
        }
    }
}
