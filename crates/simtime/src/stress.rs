//! Synthetic engine stress workload shared by the throughput micro-bench
//! (`benches/engine_throughput.rs`) and the repo benchmark's `simtime.*`
//! probes (`benchmark/src/probes.rs`): `nodes × timers_per_node`
//! self-rescheduling timers kept resident simultaneously, so at a
//! thousand of each the event queue holds a million entries while
//! events fire.
//!
//! Timers use [`crate::Sim::schedule`] (callbacks run inline by the event
//! loop, no process handoff), so the measured cost is queue discipline plus
//! arena overhead — exactly the path the calendar queue accelerates over the
//! legacy heap. [`run_stress`] spreads the timestamps by hash, so no two
//! events tie; [`run_lockstep`] gives every node the same timestamps, so
//! every instant is a tie among all nodes, as in an SPMD job.

use crate::engine::{EngineConfig, EngineMode, Sim, SimReport, Timers};
use crate::time::SimTime;

/// Parameters for the synthetic stress run.
#[derive(Debug, Clone, Copy)]
pub struct StressSpec {
    /// Simulated node count (also the shard count in parallel mode).
    pub nodes: usize,
    /// Resident timers per node; total population = `nodes * timers_per_node`.
    pub timers_per_node: usize,
    /// How many times each timer chain re-arms itself after the first fire.
    pub refires: usize,
}

impl StressSpec {
    /// Total events the run will fire.
    pub fn total_events(&self) -> u64 {
        (self.nodes * self.timers_per_node * (1 + self.refires)) as u64
    }
}

/// Deterministic per-timer gap in virtual nanoseconds: a cheap integer hash
/// spreads timestamps so buckets stay balanced without `rand`.
fn gap_nanos(node: usize, timer: usize, round: usize) -> f64 {
    let mut h = (node as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(timer as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(round as u64);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 29;
    (1 + h % 1_000_000) as f64 // 1ns ..= 1ms
}

/// Runs the synthetic under the given engine mode and returns
/// `(events_processed, end_time)`. Identical across modes — callers use
/// that to cross-check determinism while measuring wall-clock outside.
pub fn run_stress(mode: EngineMode, spec: StressSpec) -> (u64, SimTime) {
    run_timers(mode, spec, gap_nanos)
}

/// The synthetic in lock-step, the traffic of an SPMD job: timer `t` of
/// every node fires at the same instants, so each instant is a tie among
/// `spec.nodes` events. Same event count and return value as
/// [`run_stress`].
pub fn run_lockstep(mode: EngineMode, spec: StressSpec) -> (u64, SimTime) {
    run_timers(mode, spec, |_node, timer, round| gap_nanos(0, timer, round))
}

/// A timer's gap in virtual nanoseconds from `(node, timer, round)`.
type Gap = fn(usize, usize, usize) -> f64;

fn run_timers(mode: EngineMode, spec: StressSpec, gap: Gap) -> (u64, SimTime) {
    let sim = Sim::with_config(EngineConfig {
        mode,
        shards: spec.nodes,
        lookahead: SimTime::from_micros(2.0),
    });

    fn arm(t: &mut Timers, gap: Gap, node: usize, timer: usize, round: usize, refires: usize) {
        t.schedule(SimTime::from_nanos(gap(node, timer, round)), move |t2| {
            if round < refires {
                arm(t2, gap, node, timer, round + 1, refires);
            }
        });
    }

    for node in 0..spec.nodes {
        for timer in 0..spec.timers_per_node {
            let refires = spec.refires;
            let first = SimTime::from_nanos(gap(node, timer, 0));
            sim.schedule_timer_on(node, first, move |t| {
                if refires > 0 {
                    arm(t, gap, node, timer, 1, refires);
                }
            });
        }
    }

    let report = sim.run().expect("stress sim cannot deadlock");
    (report.events_processed, report.end_time)
}

/// The process-handoff path (the benchmark's `simtime.hold_us_per_event`):
/// `procs` processes each `hold()`ing `holds` times through the given
/// queue discipline. An event costs one context switch when the next wake
/// belongs to another process and none when it is the holder's own.
/// Returns the events processed (callers time the run themselves).
pub fn run_hold_baseline(mode: EngineMode, procs: usize, holds: usize) -> u64 {
    hold_baseline_report(mode, procs, holds).events_processed
}

/// [`run_hold_baseline`] returning the whole report, for the hand-off
/// counters.
fn hold_baseline_report(mode: EngineMode, procs: usize, holds: usize) -> SimReport {
    let mut sim = Sim::with_config(EngineConfig::for_mode(mode));
    for p in 0..procs {
        sim.spawn(&format!("hold{p}"), move |ctx| {
            for round in 0..holds {
                ctx.hold(SimTime::from_nanos(gap_nanos(p, round, 0)));
            }
        });
    }
    sim.run().expect("hold baseline cannot deadlock")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_baseline_counts_every_hold() {
        // One start wake per process plus one wake per hold.
        let events = run_hold_baseline(EngineMode::LegacyHeap, 10, 7);
        assert_eq!(events, 10 * (7 + 1));
    }

    #[test]
    fn hold_baseline_handoffs_are_identical_across_modes() {
        let counts = |mode| {
            let r = hold_baseline_report(mode, 50, 20);
            (r.events_processed, r.handoffs, r.inline_resumes)
        };
        let baseline = counts(EngineMode::LegacyHeap);
        // Every event is a wake, delivered across processes or inline;
        // only the very first is delivered by `Sim::run`.
        assert_eq!(baseline.1 + baseline.2, baseline.0 - 1);
        assert!(
            baseline.1 > 0 && baseline.2 > 0,
            "both paths ran: {baseline:?}"
        );
        for mode in [EngineMode::Calendar, EngineMode::Parallel] {
            assert_eq!(counts(mode), baseline, "mode {mode} diverged");
        }
        assert_eq!(
            counts(EngineMode::LegacyHeap),
            baseline,
            "repeat run diverged"
        );
    }

    #[test]
    fn stress_is_identical_across_modes() {
        let spec = StressSpec {
            nodes: 8,
            timers_per_node: 50,
            refires: 2,
        };
        let baseline = run_stress(EngineMode::LegacyHeap, spec);
        assert_eq!(baseline.0, spec.total_events());
        for mode in [EngineMode::Calendar, EngineMode::Parallel] {
            assert_eq!(run_stress(mode, spec), baseline, "mode {mode} diverged");
        }
    }

    #[test]
    fn lockstep_fires_as_many_events_as_one_node_does_instants() {
        let spec = StressSpec {
            nodes: 8,
            timers_per_node: 50,
            refires: 2,
        };
        let one_node = run_lockstep(EngineMode::LegacyHeap, StressSpec { nodes: 1, ..spec });
        for mode in EngineMode::ALL {
            // Every node's timers are node 0's: the same last instant,
            // eight times the events.
            assert_eq!(
                run_lockstep(mode, spec),
                (spec.total_events(), one_node.1),
                "mode {mode}"
            );
        }
        assert_ne!(run_stress(EngineMode::Calendar, spec).1, one_node.1);
    }
}
