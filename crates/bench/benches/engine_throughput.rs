//! Engine event-throughput micro-benchmarks — the offline companion of
//! the repo benchmark's `simtime.timer_us_per_event` and
//! `simtime.hold_us_per_event` (`bash benchmark/run.sh`).
//!
//! Three shapes:
//! * the synthetic timer stress ([`simtime::stress::run_stress`]) under
//!   every queue discipline, at a cluster-scale population — the pure
//!   queue-cost path (inline timers, no process handoff), timestamps
//!   spread by hash so that no two events tie;
//! * the same in lock-step ([`simtime::stress::run_lockstep`]): every
//!   node's timers fire at the same instants, the ties an SPMD job's
//!   supersteps produce;
//! * the process path ([`run_hold_baseline`]): coroutine processes
//!   `hold()`ing in a loop, handing the execution token to one another.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simtime::stress::{run_hold_baseline, run_lockstep, run_stress, StressSpec};
use simtime::EngineMode;

fn bench_queue_disciplines(c: &mut Criterion) {
    type Run = fn(EngineMode, StressSpec) -> (u64, simtime::SimTime);
    for (shape, run) in [("synthetic", run_stress as Run), ("lockstep", run_lockstep)] {
        let mut g = c.benchmark_group(format!("engine_throughput/{shape}"));
        for mode in EngineMode::ALL {
            for nodes in [100usize, 1000] {
                // 100 resident timers per node, one refire each: 1000 nodes
                // puts 100k timers in the queue and fires 200k events — in
                // lock-step, 200 instants of 1000 ties.
                let spec = StressSpec {
                    nodes,
                    timers_per_node: 100,
                    refires: 1,
                };
                g.throughput(Throughput::Elements(spec.total_events()));
                g.bench_with_input(
                    BenchmarkId::new(mode.as_str(), nodes),
                    &spec,
                    |b, &spec| {
                        b.iter(|| run(mode, spec));
                    },
                );
            }
        }
        g.finish();
    }
}

fn bench_hold_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_throughput/hold_baseline");
    for mode in [EngineMode::LegacyHeap, EngineMode::Calendar] {
        g.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            b.iter(|| run_hold_baseline(mode, 200, 40));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_queue_disciplines, bench_hold_baseline);
criterion_main!(benches);
