//! The simulated CPU complex: a pool of cores sharing peak flops and DRAM
//! bandwidth. One map/reduce task occupies one core (the paper's threading
//! model runs "one mapper or reducer on each CPU core").

use crate::cost::{cpu_core_time, WorkProfile};
use crate::faults::SlowdownWindow;
use crate::timeline::DEVICE_KINDS;
use obs::Obs;
use parking_lot::Mutex;
use roofline::profiles::CpuSpec;
use serde::{Deserialize, Serialize};
use simtime::{Resource, SimCtx, SimTime};
use std::sync::Arc;

/// Counters exported for benches and Gflops accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpuStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Total flops charged.
    pub flops: f64,
    /// Core-seconds of busy time (summed over cores).
    pub core_busy: f64,
}

/// A pool of CPU cores with shared-roofline task timing.
pub struct CpuPool {
    /// Hardware description.
    pub spec: CpuSpec,
    cores: Resource,
    stats: Mutex<CpuStats>,
    name: Arc<str>,
    /// The kind every task is recorded under.
    kind_task: Arc<str>,
    obs: Mutex<Option<Obs>>,
    /// Recording lanes, one per concurrently busy core slot:
    /// `(interned lane name, last recorded end time)`. Slots are
    /// claimed lowest-index-first by tasks whose start is at or after
    /// the slot's last end, so one lane never self-overlaps.
    lane_slots: Mutex<Vec<(Arc<str>, f64)>>,
    slowdowns: Mutex<Vec<SlowdownWindow>>,
}

impl CpuPool {
    /// Creates the pool with `spec.cores` schedulable cores.
    pub fn new(name: &str, spec: CpuSpec) -> Arc<Self> {
        let [cpu_task, ..] = DEVICE_KINDS;
        Arc::new(CpuPool {
            cores: Resource::new(&format!("{name}-cores"), spec.cores as u64),
            spec,
            stats: Mutex::new(CpuStats::default()),
            name: name.into(),
            kind_task: Arc::from(cpu_task),
            obs: Mutex::new(None),
            lane_slots: Mutex::new(Vec::new()),
            slowdowns: Mutex::new(Vec::new()),
        })
    }

    /// Installs straggler windows; tasks starting inside a window take
    /// `factor` times longer.
    pub fn set_slowdowns(&self, windows: Vec<SlowdownWindow>) {
        *self.slowdowns.lock() = windows;
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CpuStats {
        *self.stats.lock()
    }

    /// The pool name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches structured observability: per-task spans on the event
    /// bus and stack frames on the profiler stack (the device timeline),
    /// block-wait-time observations in the metrics registry.
    pub fn attach_obs(&self, obs: Obs) {
        *self.obs.lock() = Some(obs);
    }

    /// Claims a recording lane for a task spanning `[start, end]`:
    /// the lowest-index core slot free at `start`, growing the slot
    /// table on first use. Tasks are recorded in completion order by
    /// the deterministic engine, so the assignment is reproducible.
    fn claim_lane(&self, start: f64, end: f64) -> Arc<str> {
        let mut slots = self.lane_slots.lock();
        for slot in slots.iter_mut() {
            if slot.1 <= start + 1e-12 {
                slot.1 = end;
                return slot.0.clone();
            }
        }
        let lane: Arc<str> = Arc::from(format!("{}-c{}", self.name, slots.len()).as_str());
        slots.push((lane.clone(), end));
        lane
    }

    /// Runs one task on one core: blocks for a core, executes the real
    /// `body`, charges the roofline core time for `work`.
    /// [`SimCtx::wait`] on [`CpuPool::run_task_async`].
    pub fn run_task<R>(&self, ctx: &SimCtx, work: &WorkProfile, body: impl FnOnce() -> R) -> R {
        ctx.wait(self.run_task_async(ctx, work, body))
    }

    /// The future behind [`CpuPool::run_task`], for a task to await.
    pub async fn run_task_async<R>(
        &self,
        ctx: &SimCtx,
        work: &WorkProfile,
        body: impl FnOnce() -> R,
    ) -> R {
        let t_queued = ctx.now();
        self.cores.acquire_async(ctx, 1).await;
        let result = body();
        let t0 = ctx.now();
        let factor = SlowdownWindow::factor_at(&self.slowdowns.lock(), t0);
        let base = cpu_core_time(&self.spec, work);
        let t = if factor == 1.0 {
            base
        } else {
            SimTime::from_secs_f64(base.as_secs_f64() * factor)
        };
        ctx.sleep(t).await;
        let t_end = ctx.now();
        if let Some(obs) = self.obs.lock().as_ref() {
            let lane = self.claim_lane(t0.as_secs_f64(), t_end.as_secs_f64());
            let wait = t0.saturating_sub(t_queued).as_secs_f64();
            if let Some(d) = obs.bus.span_interned(&lane, &self.kind_task, t0, t_end) {
                d.attr("flops", work.flops)
                    .attr("bytes", work.dram_bytes)
                    .attr("wait_s", wait)
                    .commit();
            }
            obs.stack.frame_interned(&lane, &self.kind_task, t0, t_end);
            obs.metrics
                .observe("prs_block_wait_seconds", &[("device", &self.name)], wait);
        }
        self.cores.release(ctx, 1);
        let mut s = self.stats.lock();
        s.tasks += 1;
        s.flops += work.flops;
        s.core_busy += t.as_secs_f64();
        result
    }

    /// Timing-only task.
    pub fn run_task_timed(&self, ctx: &SimCtx, work: &WorkProfile) {
        self.run_task(ctx, work, || ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roofline::profiles::DeviceProfile;
    use simtime::Sim;

    fn pool() -> Arc<CpuPool> {
        CpuPool::new("cpu", DeviceProfile::delta_node().cpu)
    }

    #[test]
    fn full_pool_reaches_aggregate_roofline() {
        // 12 concurrent tasks, each 130/12 Gflop at high AI: all finish at
        // t = 1 s, i.e. the pool sustains the 130 Gflop/s roofline.
        let p = pool();
        let mut sim = Sim::new();
        for i in 0..12 {
            let p = p.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                let w = WorkProfile::from_intensity(130e9 / 12.0, 1e9);
                p.run_task_timed(ctx, &w);
            });
        }
        let report = sim.run().unwrap();
        assert!((report.end_time.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(p.stats().tasks, 12);
    }

    #[test]
    fn oversubscription_queues_on_cores() {
        // 24 tasks on 12 cores: two waves.
        let p = pool();
        let mut sim = Sim::new();
        for i in 0..24 {
            let p = p.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                let w = WorkProfile::from_intensity(130e9 / 12.0, 1e9);
                p.run_task_timed(ctx, &w);
            });
        }
        let report = sim.run().unwrap();
        assert!((report.end_time.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_bound_task_charged_by_dram() {
        let p = pool();
        let mut sim = Sim::new();
        let p2 = p.clone();
        sim.spawn("t", move |ctx| {
            // 32/12 GB through a 32 GB/s DRAM shared by 12 cores -> 1 s.
            let w = WorkProfile {
                flops: 1.0,
                dram_bytes: 32e9 / 12.0,
            };
            p2.run_task_timed(ctx, &w);
        });
        let report = sim.run().unwrap();
        assert!((report.end_time.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn body_result_is_returned() {
        let p = pool();
        let mut sim = Sim::new();
        let p2 = p.clone();
        sim.spawn("t", move |ctx| {
            let w = WorkProfile::from_intensity(1e6, 1.0);
            let v = p2.run_task(ctx, &w, || 41 + 1);
            assert_eq!(v, 42);
        });
        sim.run().unwrap();
    }

    #[test]
    fn slowdown_window_stretches_tasks_started_inside_it() {
        let p = pool();
        p.set_slowdowns(vec![SlowdownWindow::new(
            SimTime::ZERO,
            SimTime::from_secs_f64(0.5),
            4.0,
        )]);
        let mut sim = Sim::new();
        let p2 = p.clone();
        sim.spawn("t", move |ctx| {
            let w = WorkProfile::from_intensity(130e9 / 12.0, 1e9); // 1 s nominal
            p2.run_task_timed(ctx, &w); // starts at 0 inside the window: 4 s
            assert_eq!(ctx.now(), SimTime::from_secs(4));
            p2.run_task_timed(ctx, &w); // starts at 4, window over: 1 s
            assert_eq!(ctx.now(), SimTime::from_secs(5));
        });
        sim.run().unwrap();
    }

    #[test]
    fn idle_core_reporting() {
        let p = pool();
        assert_eq!(p.cores.available(), 12);
    }

    #[test]
    fn concurrent_tasks_record_on_distinct_non_overlapping_lanes() {
        let p = pool();
        let obs = Obs {
            stack: simtime::StackCtx::recording(),
            ..Obs::disabled()
        };
        p.attach_obs(obs.clone());
        let mut sim = Sim::new();
        // Two waves of 12 one-second tasks: the recorder must spread each
        // wave across 12 core lanes and reuse them for the second wave.
        for i in 0..24 {
            let p = p.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                let w = WorkProfile::from_intensity(130e9 / 12.0, 1e9);
                p.run_task_timed(ctx, &w);
            });
        }
        sim.run().unwrap();
        let frames = obs.stack.frames();
        let overlaps = crate::timeline::overlapping_frames(&frames);
        assert!(
            overlaps.is_empty(),
            "a core lane self-overlaps: {overlaps:?}"
        );
        let mut busy: std::collections::BTreeMap<&str, f64> = Default::default();
        for f in &frames {
            *busy.entry(&f.lane).or_default() += f.t1 - f.t0;
        }
        assert_eq!(busy.len(), 12, "12 cores -> 12 lanes: {busy:?}");
        assert!(busy.iter().all(|(lane, b)| lane.starts_with("cpu-c") && (*b - 2.0).abs() < 1e-9));
    }

    #[test]
    fn obs_attachment_records_spans_and_wait_times() {
        let p = pool();
        let obs = obs::Obs::recording();
        p.attach_obs(obs.clone());
        let mut sim = Sim::new();
        for i in 0..13 {
            let p = p.clone();
            sim.spawn(&format!("t{i}"), move |ctx| {
                let w = WorkProfile::from_intensity(130e9 / 12.0, 1e9);
                p.run_task_timed(ctx, &w);
            });
        }
        sim.run().unwrap();
        assert_eq!(obs.bus.len(), 13);
        let (count, wait_sum) = obs
            .metrics
            .histogram_stats("prs_block_wait_seconds", &[("device", "cpu")])
            .unwrap();
        assert_eq!(count, 13);
        // 13th task waits a full second for a core.
        assert!((wait_sum - 1.0).abs() < 1e-9, "wait {wait_sum}");
    }
}
