//! The simulated GPU: a compute engine, one or two DMA copy engines,
//! CUDA-like contexts and streams, and device global memory.
//!
//! Kernels are *timed* here (roofline cost model, [`crate::cost`]); the
//! actual numeric work of a kernel runs on host threads in the runtime
//! layer. Separate compute and copy [`Resource`]s mean transfers and
//! kernels from different streams overlap exactly as on real hardware.

use crate::cost::{gpu_kernel_time, pcie_transfer_time, OverheadModel, WorkProfile};
use crate::faults::{GpuCrashed, SlowdownWindow};
use crate::memory::MemorySpace;
use obs::Obs;
use parking_lot::Mutex;
use roofline::profiles::GpuSpec;
use serde::{Deserialize, Serialize};
use simtime::{Resource, SimCtx, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Counters exported for benches and Gflops accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GpuStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Total flops charged to the compute engine.
    pub flops: f64,
    /// Virtual seconds the compute engine was busy.
    pub compute_busy: f64,
    /// Host-to-device bytes transferred.
    pub bytes_h2d: u64,
    /// Device-to-host bytes transferred.
    pub bytes_d2h: u64,
    /// Virtual seconds the copy engines were busy (summed).
    pub copy_busy: f64,
    /// Contexts created.
    pub contexts: u64,
}

/// Pre-interned lane and kind names so hot-path recording is two `Arc`
/// clones instead of a `format!` per kernel or transfer. Kepler-class
/// parts (dual DMA) get separate `-copy-h2d` / `-copy-d2h` lanes so the
/// overlapping directions never share (and never visually corrupt) one
/// lane; Fermi keeps a single `-copy` lane, matching its single engine.
struct RecordingLanes {
    compute: Arc<str>,
    copy_in: Arc<str>,
    copy_out: Arc<str>,
    kind_kernel: Arc<str>,
    kind_crashed: Arc<str>,
    kind_h2d: Arc<str>,
    kind_d2h: Arc<str>,
}

/// A simulated GPU device.
pub struct Gpu {
    /// Hardware description.
    pub spec: GpuSpec,
    /// Software-stack overheads in force.
    pub overheads: OverheadModel,
    /// Device global memory.
    pub memory: MemorySpace,
    host_dram_bw: f64,
    compute: Resource,
    /// H2D DMA engine (also used for D2H on Fermi-class parts).
    copy_h2d: Resource,
    /// D2H DMA engine on Kepler-class parts (dual DMA); `None` on Fermi,
    /// where one engine serves both directions.
    copy_d2h: Option<Resource>,
    stats: Mutex<GpuStats>,
    context_epoch: AtomicU64,
    name: Arc<str>,
    lanes: RecordingLanes,
    obs: Mutex<Option<Obs>>,
    /// Armed crash time; the device dies the first time a kernel would run
    /// past this instant (or is launched after it).
    crash_at: Mutex<Option<SimTime>>,
    crashed: AtomicBool,
    slowdowns: Mutex<Vec<SlowdownWindow>>,
}

impl Gpu {
    /// Builds a GPU from its spec. `host_dram_bw` is the host-side DRAM
    /// bandwidth every PCI-E transfer also crosses. Fermi-class parts
    /// (one hardware work queue) get a single copy engine; Kepler-class
    /// parts get dual DMA engines, letting H2D and D2H overlap.
    pub fn new(name: &str, spec: GpuSpec, host_dram_bw: f64, overheads: OverheadModel) -> Arc<Self> {
        let dual_dma = spec.hw_queues > 1;
        let copy_in: Arc<str> = if dual_dma {
            Arc::from(format!("{name}-copy-h2d").as_str())
        } else {
            Arc::from(format!("{name}-copy").as_str())
        };
        let copy_out: Arc<str> = if dual_dma {
            Arc::from(format!("{name}-copy-d2h").as_str())
        } else {
            copy_in.clone()
        };
        let [_, kernel, crashed, h2d, d2h] = obs::kinds::DEVICE.map(Arc::<str>::from);
        Arc::new(Gpu {
            name: name.into(),
            lanes: RecordingLanes {
                compute: Arc::from(format!("{name}-compute").as_str()),
                copy_in,
                copy_out,
                kind_kernel: kernel,
                kind_crashed: crashed,
                kind_h2d: h2d,
                kind_d2h: d2h,
            },
            obs: Mutex::new(None),
            memory: MemorySpace::new(&format!("{name}-globalmem"), spec.mem_bytes),
            compute: Resource::new(&format!("{name}-compute"), 1),
            copy_h2d: Resource::new(&format!("{name}-copy-h2d"), 1),
            copy_d2h: dual_dma.then(|| Resource::new(&format!("{name}-copy-d2h"), 1)),
            host_dram_bw,
            overheads,
            spec,
            stats: Mutex::new(GpuStats::default()),
            context_epoch: AtomicU64::new(0),
            crash_at: Mutex::new(None),
            crashed: AtomicBool::new(false),
            slowdowns: Mutex::new(Vec::new()),
        })
    }

    /// Arms a crash: the device dies when a kernel is launched at or would
    /// run past `at`. `None` disarms.
    pub fn set_crash_at(&self, at: Option<SimTime>) {
        *self.crash_at.lock() = at;
    }

    /// Installs straggler windows; kernels starting inside a window take
    /// `factor` times longer.
    pub fn set_slowdowns(&self, windows: Vec<SlowdownWindow>) {
        *self.slowdowns.lock() = windows;
    }

    /// Whether the device is dead at virtual time `now` (either already
    /// observed crashing, or armed to crash at or before `now`).
    pub fn is_crashed(&self, now: SimTime) -> bool {
        if self.crashed.load(Ordering::Relaxed) {
            return true;
        }
        match *self.crash_at.lock() {
            Some(at) if now >= at => {
                self.crashed.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Snapshot of the device counters.
    pub fn stats(&self) -> GpuStats {
        *self.stats.lock()
    }

    /// The device name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches structured observability: per-kernel and per-transfer
    /// spans on the event bus and stack frames on the profiler stack (the
    /// device timeline), engine wait times and bytes-moved counters in
    /// the metrics registry.
    pub fn attach_obs(&self, obs: Obs) {
        *self.obs.lock() = Some(obs);
    }

    /// Creates a GPU context, paying the creation cost in virtual time.
    /// The paper funnels all GPU access through one daemon precisely to
    /// avoid paying this per task (§III.C.3).
    /// [`SimCtx::wait`] on [`Gpu::create_context_async`].
    pub fn create_context(self: &Arc<Self>, ctx: &SimCtx) -> GpuContext {
        ctx.wait(self.create_context_async(ctx))
    }

    /// The future behind [`Gpu::create_context`], for a task to await.
    pub async fn create_context_async(self: &Arc<Self>, ctx: &SimCtx) -> GpuContext {
        ctx.sleep(self.overheads.context_create).await;
        self.stats.lock().contexts += 1;
        GpuContext {
            gpu: self.clone(),
            epoch: self.context_epoch.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Transfers `bytes` host→device on the H2D DMA engine.
    /// [`SimCtx::wait`] on [`Gpu::transfer_h2d_async`].
    pub fn transfer_h2d(&self, ctx: &SimCtx, bytes: u64) {
        ctx.wait(self.transfer_h2d_async(ctx, bytes));
    }

    /// The future behind [`Gpu::transfer_h2d`], for a task to await.
    pub async fn transfer_h2d_async(&self, ctx: &SimCtx, bytes: u64) {
        let t = pcie_transfer_time(self.host_dram_bw, &self.spec, &self.overheads, bytes as f64);
        self.copy_h2d.acquire_async(ctx, 1).await;
        let t0 = ctx.now();
        ctx.sleep(t).await;
        let t1 = ctx.now();
        self.record_obs_transfer(&self.lanes.copy_in, &self.lanes.kind_h2d, bytes, t0, t1);
        self.copy_h2d.release(ctx, 1);
        let mut s = self.stats.lock();
        s.bytes_h2d += bytes;
        s.copy_busy += t.as_secs_f64();
    }

    /// Emits a transfer span + bytes-moved counter when obs is attached.
    fn record_obs_transfer(
        &self,
        lane: &Arc<str>,
        kind: &Arc<str>,
        bytes: u64,
        t0: SimTime,
        t1: SimTime,
    ) {
        if let Some(o) = self.obs.lock().as_ref() {
            if let Some(d) = o.bus.span_interned(lane, kind, t0, t1) {
                d.attr("bytes", bytes as f64).commit();
            }
            o.stack.frame_interned(lane, kind, t0, t1);
            o.metrics.counter_add(
                "prs_bytes_moved_total",
                &[("device", &self.name), ("dir", kind)],
                bytes as f64,
            );
        }
    }

    /// Transfers `bytes` device→host: on Kepler-class parts this uses the
    /// second DMA engine and overlaps H2D traffic; on Fermi both
    /// directions share one engine. [`SimCtx::wait`] on
    /// [`Gpu::transfer_d2h_async`].
    pub fn transfer_d2h(&self, ctx: &SimCtx, bytes: u64) {
        ctx.wait(self.transfer_d2h_async(ctx, bytes));
    }

    /// The future behind [`Gpu::transfer_d2h`], for a task to await.
    pub async fn transfer_d2h_async(&self, ctx: &SimCtx, bytes: u64) {
        let t = pcie_transfer_time(self.host_dram_bw, &self.spec, &self.overheads, bytes as f64);
        let engine = self.copy_d2h.as_ref().unwrap_or(&self.copy_h2d);
        engine.acquire_async(ctx, 1).await;
        let t0 = ctx.now();
        ctx.sleep(t).await;
        let t1 = ctx.now();
        self.record_obs_transfer(&self.lanes.copy_out, &self.lanes.kind_d2h, bytes, t0, t1);
        engine.release(ctx, 1);
        let mut s = self.stats.lock();
        s.bytes_d2h += bytes;
        s.copy_busy += t.as_secs_f64();
    }

    /// Launches a kernel described by `work`, blocking until completion.
    /// `body` executes the kernel's real host-side computation at the end
    /// of the charged kernel time, while the compute engine is still held
    /// (a `body` reading `ctx.now()` sees that end). Panics if the device
    /// has crashed — fault aware callers use [`Gpu::try_launch`].
    /// [`SimCtx::wait`] on [`Gpu::launch_async`].
    pub fn launch<R>(&self, ctx: &SimCtx, work: &WorkProfile, body: impl FnOnce() -> R) -> R {
        ctx.wait(self.launch_async(ctx, work, body))
    }

    /// The future behind [`Gpu::launch`], for a task to await.
    pub async fn launch_async<R>(
        &self,
        ctx: &SimCtx,
        work: &WorkProfile,
        body: impl FnOnce() -> R,
    ) -> R {
        self.try_launch_async(ctx, work, body)
            .await
            .unwrap_or_else(|_| panic!("kernel launched on crashed GPU '{}'", self.name))
    }

    /// Fault-aware kernel launch: fails with [`GpuCrashed`] when the device
    /// is already dead or dies mid-kernel (the armed crash time falls
    /// inside the kernel's execution window). On a mid-kernel crash the
    /// caller is charged the virtual time up to the crash — work lost, not
    /// results — and `body` never runs. A kernel that completes runs
    /// `body` at the end of its charged time, so its output exists only
    /// from the kernel's end on; virtual time does not depend on `body`.
    /// [`SimCtx::wait`] on [`Gpu::try_launch_async`].
    pub fn try_launch<R>(
        &self,
        ctx: &SimCtx,
        work: &WorkProfile,
        body: impl FnOnce() -> R,
    ) -> Result<R, GpuCrashed> {
        ctx.wait(self.try_launch_async(ctx, work, body))
    }

    /// The future behind [`Gpu::try_launch`], for a task to await.
    pub async fn try_launch_async<R>(
        &self,
        ctx: &SimCtx,
        work: &WorkProfile,
        body: impl FnOnce() -> R,
    ) -> Result<R, GpuCrashed> {
        if self.is_crashed(ctx.now()) {
            return Err(GpuCrashed { lost: SimTime::ZERO });
        }
        let t_queued = ctx.now();
        self.compute.acquire_async(ctx, 1).await;
        let t0 = ctx.now();
        if self.is_crashed(t0) {
            self.compute.release(ctx, 1);
            return Err(GpuCrashed { lost: SimTime::ZERO });
        }
        let factor = SlowdownWindow::factor_at(&self.slowdowns.lock(), t0);
        let base = self.overheads.kernel_launch + gpu_kernel_time(&self.spec, work);
        let t = if factor == 1.0 {
            base
        } else {
            SimTime::from_secs_f64(base.as_secs_f64() * factor)
        };
        if let Some(at) = *self.crash_at.lock() {
            if t0 + t > at {
                // Dies mid-kernel: burn the time up to the crash, then fail.
                let lost = if at > t0 { at - t0 } else { SimTime::ZERO };
                ctx.sleep(lost).await;
                let t1 = ctx.now();
                if let Some(o) = self.obs.lock().as_ref() {
                    if let Some(d) =
                        o.bus.span_interned(&self.lanes.compute, &self.lanes.kind_crashed, t0, t1)
                    {
                        d.attr("lost_s", lost.as_secs_f64()).commit();
                    }
                    o.stack.frame_interned(&self.lanes.compute, &self.lanes.kind_crashed, t0, t1);
                }
                self.compute.release(ctx, 1);
                self.crashed.store(true, Ordering::Relaxed);
                return Err(GpuCrashed { lost });
            }
        }
        ctx.sleep(t).await;
        let result = body();
        let t1 = ctx.now();
        if let Some(o) = self.obs.lock().as_ref() {
            let wait = t0.saturating_sub(t_queued).as_secs_f64();
            if let Some(d) = o.bus.span_interned(&self.lanes.compute, &self.lanes.kind_kernel, t0, t1)
            {
                d.attr("flops", work.flops)
                    .attr("bytes", work.dram_bytes)
                    .attr("wait_s", wait)
                    .commit();
            }
            o.stack.frame_interned(&self.lanes.compute, &self.lanes.kind_kernel, t0, t1);
            o.metrics
                .observe("prs_block_wait_seconds", &[("device", &self.name)], wait);
        }
        self.compute.release(ctx, 1);
        let mut s = self.stats.lock();
        s.kernels += 1;
        s.flops += work.flops;
        s.compute_busy += t.as_secs_f64();
        Ok(result)
    }
}

/// A CUDA-like context guard. Holding one is a precondition for stream
/// operations; creating many of them is the anti-pattern the paper's
/// funneled daemon avoids.
pub struct GpuContext {
    gpu: Arc<Gpu>,
    epoch: u64,
}

impl GpuContext {
    /// The device this context binds to.
    pub fn gpu(&self) -> &Arc<Gpu> {
        &self.gpu
    }

    /// Monotone context id (diagnostics).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Opens a stream on this context.
    pub fn stream(&self) -> Stream<'_> {
        Stream { context: self }
    }
}

/// A CUDA-like stream: issues H2D → kernel → D2H pipelines. Because the
/// copy and compute engines are independent resources, blocks issued on
/// *different* streams overlap transfer and compute; within one stream the
/// stages are ordered, as on hardware.
pub struct Stream<'a> {
    context: &'a GpuContext,
}

impl Stream<'_> {
    /// Runs one block through the stream: optional input transfer, kernel
    /// (with real host-side `body`), optional output transfer.
    /// [`SimCtx::wait`] on [`Stream::run_block_async`].
    pub fn run_block<R>(
        &self,
        ctx: &SimCtx,
        h2d_bytes: u64,
        work: &WorkProfile,
        d2h_bytes: u64,
        body: impl FnOnce() -> R,
    ) -> R {
        ctx.wait(self.run_block_async(ctx, h2d_bytes, work, d2h_bytes, body))
    }

    /// The future behind [`Stream::run_block`], for a task to await.
    pub async fn run_block_async<R>(
        &self,
        ctx: &SimCtx,
        h2d_bytes: u64,
        work: &WorkProfile,
        d2h_bytes: u64,
        body: impl FnOnce() -> R,
    ) -> R {
        let gpu = self.context.gpu();
        if h2d_bytes > 0 {
            gpu.transfer_h2d_async(ctx, h2d_bytes).await;
        }
        let r = gpu.launch_async(ctx, work, body).await;
        if d2h_bytes > 0 {
            gpu.transfer_d2h_async(ctx, d2h_bytes).await;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roofline::profiles::DeviceProfile;
    use simtime::Sim;

    impl Gpu {
        /// Timing-only launch (no host-side body).
        fn launch_timed(&self, ctx: &SimCtx, work: &WorkProfile) {
            self.launch(ctx, work, || ());
        }

        /// The duration a transfer of `bytes` takes.
        fn transfer_cost(&self, bytes: u64) -> SimTime {
            pcie_transfer_time(self.host_dram_bw, &self.spec, &self.overheads, bytes as f64)
        }
    }

    fn delta_gpu(overheads: OverheadModel) -> Arc<Gpu> {
        let prof = DeviceProfile::delta_node();
        Gpu::new("gpu0", prof.gpu().clone(), prof.cpu.dram_bw, overheads)
    }

    #[test]
    fn kernel_time_matches_roofline() {
        let gpu = delta_gpu(OverheadModel::zero());
        let mut sim = Sim::new();
        let g = gpu.clone();
        sim.spawn("k", move |ctx| {
            // 1030 Gflop at high AI -> exactly 1 s on the C2070.
            let w = WorkProfile::from_intensity(1030e9, 1e9);
            g.launch_timed(ctx, &w);
        });
        let report = sim.run().unwrap();
        assert!((report.end_time.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(gpu.stats().kernels, 1);
    }

    #[test]
    fn kernels_serialize_on_one_compute_engine() {
        let gpu = delta_gpu(OverheadModel::zero());
        let mut sim = Sim::new();
        for i in 0..3 {
            let g = gpu.clone();
            sim.spawn(&format!("k{i}"), move |ctx| {
                let w = WorkProfile::from_intensity(103e9, 1e9); // 0.1 s each
                g.launch_timed(ctx, &w);
            });
        }
        let report = sim.run().unwrap();
        assert!((report.end_time.as_secs_f64() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn streams_overlap_transfer_and_compute() {
        // Two streams, each: H2D then kernel. With overlap the makespan is
        // less than the serialized sum.
        let gpu = delta_gpu(OverheadModel::zero());
        let xfer = gpu.transfer_cost(1 << 30).as_secs_f64();
        let w = WorkProfile::from_intensity(1030e9, 1e9); // 1 s kernel
        let mut sim = Sim::new();
        for i in 0..2 {
            let g = gpu.clone();
            sim.spawn(&format!("stream{i}"), move |ctx| {
                let cctx = g.create_context(ctx);
                let s = cctx.stream();
                s.run_block(ctx, 1 << 30, &w, 0, || ());
            });
        }
        let report = sim.run().unwrap();
        let serialized = 2.0 * (xfer + 1.0);
        let overlapped = report.end_time.as_secs_f64();
        assert!(
            overlapped < serialized - 0.5,
            "overlapped {overlapped} vs serialized {serialized}"
        );
        // Lower bound: both transfers serialized on one copy engine, then
        // the last kernel.
        assert!(overlapped >= 2.0 * xfer + 1.0 - 1e-6);
    }

    #[test]
    fn context_creation_costs_time() {
        let gpu = delta_gpu(OverheadModel::default());
        let mut sim = Sim::new();
        let g = gpu.clone();
        sim.spawn("p", move |ctx| {
            let _c1 = g.create_context(ctx);
            let _c2 = g.create_context(ctx);
        });
        let report = sim.run().unwrap();
        let expect = 2.0 * OverheadModel::default().context_create.as_secs_f64();
        assert!((report.end_time.as_secs_f64() - expect).abs() < 1e-9);
        assert_eq!(gpu.stats().contexts, 2);
    }

    #[test]
    fn launch_runs_real_body() {
        let gpu = delta_gpu(OverheadModel::zero());
        let mut sim = Sim::new();
        let g = gpu.clone();
        let result = Arc::new(Mutex::new(0u64));
        let r2 = result.clone();
        sim.spawn("p", move |ctx| {
            let w = WorkProfile::from_intensity(1e9, 10.0);
            let sum = g.launch(ctx, &w, || (0..100u64).sum::<u64>());
            *r2.lock() = sum;
        });
        sim.run().unwrap();
        assert_eq!(*result.lock(), 4950);
    }

    #[test]
    fn transfer_accounting() {
        let gpu = delta_gpu(OverheadModel::zero());
        let mut sim = Sim::new();
        let g = gpu.clone();
        sim.spawn("p", move |ctx| {
            g.transfer_h2d(ctx, 1000);
            g.transfer_d2h(ctx, 500);
        });
        sim.run().unwrap();
        let s = gpu.stats();
        assert_eq!(s.bytes_h2d, 1000);
        assert_eq!(s.bytes_d2h, 500);
        assert!(s.copy_busy > 0.0);
    }

    #[test]
    fn armed_crash_kills_mid_kernel_and_charges_lost_time() {
        let gpu = delta_gpu(OverheadModel::zero());
        gpu.set_crash_at(Some(SimTime::from_secs_f64(0.5)));
        let mut sim = Sim::new();
        let g = gpu.clone();
        sim.spawn("k", move |ctx| {
            let w = WorkProfile::from_intensity(1030e9, 1e9); // 1 s kernel
            let err = g.try_launch(ctx, &w, || ()).unwrap_err();
            assert!((err.lost.as_secs_f64() - 0.5).abs() < 1e-9);
            assert_eq!(ctx.now(), SimTime::from_secs_f64(0.5));
            assert!(g.is_crashed(ctx.now()));
            // Further launches fail immediately with no time lost.
            let err2 = g.try_launch(ctx, &w, || ()).unwrap_err();
            assert_eq!(err2.lost, SimTime::ZERO);
            assert_eq!(ctx.now(), SimTime::from_secs_f64(0.5));
        });
        sim.run().unwrap();
        // The interrupted kernel is not counted as completed.
        assert_eq!(gpu.stats().kernels, 0);
    }

    #[test]
    fn body_runs_at_the_kernels_end_and_never_on_a_crash() {
        let gpu = delta_gpu(OverheadModel::zero());
        gpu.set_crash_at(Some(SimTime::from_secs_f64(1.5)));
        let mut sim = Sim::new();
        let g = gpu.clone();
        let calls = Arc::new(Mutex::new(0u32));
        let c = calls.clone();
        sim.spawn("k", move |ctx| {
            let w = WorkProfile::from_intensity(1030e9, 1e9); // 1 s kernel
            let seen = g.try_launch(ctx, &w, || ctx.now()).unwrap();
            assert_eq!(seen, SimTime::from_secs(1));
            // The second kernel would end at 2 s; the card dies at 1.5 s.
            let err = g.try_launch(ctx, &w, || *c.lock() += 1).unwrap_err();
            assert_eq!(err.lost, SimTime::from_secs_f64(0.5));
            let err = g.try_launch(ctx, &w, || *c.lock() += 1).unwrap_err();
            assert_eq!(err.lost, SimTime::ZERO);
        });
        sim.run().unwrap();
        assert_eq!(*calls.lock(), 0, "a crashed launch never runs its body");
        assert_eq!(gpu.stats().kernels, 1);
    }

    #[test]
    fn kernel_finishing_before_crash_time_succeeds() {
        let gpu = delta_gpu(OverheadModel::zero());
        gpu.set_crash_at(Some(SimTime::from_secs(10)));
        let mut sim = Sim::new();
        let g = gpu.clone();
        sim.spawn("k", move |ctx| {
            let w = WorkProfile::from_intensity(103e9, 1e9); // 0.1 s
            assert_eq!(g.try_launch(ctx, &w, || 7).unwrap(), 7);
        });
        sim.run().unwrap();
        assert_eq!(gpu.stats().kernels, 1);
    }

    #[test]
    fn slowdown_window_stretches_kernel_time() {
        let gpu = delta_gpu(OverheadModel::zero());
        gpu.set_slowdowns(vec![SlowdownWindow::new(
            SimTime::ZERO,
            SimTime::from_secs(100),
            3.0,
        )]);
        let mut sim = Sim::new();
        let g = gpu.clone();
        sim.spawn("k", move |ctx| {
            let w = WorkProfile::from_intensity(1030e9, 1e9); // 1 s nominal
            g.launch_timed(ctx, &w);
        });
        let report = sim.run().unwrap();
        assert!((report.end_time.as_secs_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn kepler_dual_dma_overlaps_h2d_and_d2h() {
        let prof = DeviceProfile::bigred2_node(); // K20: hw_queues > 1
        let gpu = Gpu::new(
            "k20",
            prof.gpu().clone(),
            prof.cpu.dram_bw,
            OverheadModel::zero(),
        );
        let one = gpu.transfer_cost(1 << 30).as_secs_f64();
        let mut sim = Sim::new();
        let g1 = gpu.clone();
        sim.spawn("h2d", move |ctx| g1.transfer_h2d(ctx, 1 << 30));
        let g2 = gpu.clone();
        sim.spawn("d2h", move |ctx| g2.transfer_d2h(ctx, 1 << 30));
        let report = sim.run().unwrap();
        assert!(
            (report.end_time.as_secs_f64() - one).abs() < 1e-9,
            "dual DMA should fully overlap"
        );
    }

    #[test]
    fn kepler_copy_directions_record_on_distinct_lanes_without_overlap() {
        let prof = DeviceProfile::bigred2_node();
        let gpu = Gpu::new(
            "k20",
            prof.gpu().clone(),
            prof.cpu.dram_bw,
            OverheadModel::zero(),
        );
        let obs = Obs {
            stack: simtime::StackCtx::recording(),
            ..Obs::disabled()
        };
        gpu.attach_obs(obs.clone());
        let mut sim = Sim::new();
        let g1 = gpu.clone();
        sim.spawn("h2d", move |ctx| g1.transfer_h2d(ctx, 1 << 30));
        let g2 = gpu.clone();
        sim.spawn("d2h", move |ctx| g2.transfer_d2h(ctx, 1 << 30));
        sim.run().unwrap();
        // The two directions overlap in time, so with one shared lane the
        // no-overlap invariant would trip; dual DMA gets dual lanes.
        let frames = obs.stack.frames();
        let overlaps = crate::timeline::overlapping_frames(&frames);
        assert!(
            overlaps.is_empty(),
            "a copy lane self-overlaps: {overlaps:?}"
        );
        let lanes: std::collections::BTreeSet<&str> = frames.iter().map(|f| &*f.lane).collect();
        assert_eq!(
            lanes.into_iter().collect::<Vec<_>>(),
            ["k20-copy-d2h", "k20-copy-h2d"]
        );
    }

    #[test]
    fn obs_records_kernel_spans_and_byte_counters() {
        let gpu = delta_gpu(OverheadModel::zero());
        let obs = obs::Obs::recording();
        gpu.attach_obs(obs.clone());
        let mut sim = Sim::new();
        let g = gpu.clone();
        sim.spawn("p", move |ctx| {
            g.transfer_h2d(ctx, 1000);
            let w = WorkProfile::from_intensity(103e9, 1e9);
            g.launch_timed(ctx, &w);
            g.transfer_d2h(ctx, 500);
        });
        sim.run().unwrap();
        assert_eq!(obs.bus.len(), 3);
        assert_eq!(
            obs.metrics
                .counter("prs_bytes_moved_total", &[("device", "gpu0"), ("dir", "h2d")]),
            Some(1000.0)
        );
        assert_eq!(
            obs.metrics
                .counter("prs_bytes_moved_total", &[("device", "gpu0"), ("dir", "d2h")]),
            Some(500.0)
        );
        let jsonl = obs.bus.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"kernel\""));
        assert!(jsonl.contains("gpu0-compute"));
    }

    #[test]
    fn fermi_single_copy_engine_serializes_transfers() {
        let gpu = delta_gpu(OverheadModel::zero()); // C2070: 1 queue
        let obs = Obs {
            stack: simtime::StackCtx::recording(),
            ..Obs::disabled()
        };
        gpu.attach_obs(obs.clone());
        let one = gpu.transfer_cost(1 << 30).as_secs_f64();
        let mut sim = Sim::new();
        let g1 = gpu.clone();
        sim.spawn("h2d", move |ctx| g1.transfer_h2d(ctx, 1 << 30));
        let g2 = gpu.clone();
        sim.spawn("d2h", move |ctx| g2.transfer_d2h(ctx, 1 << 30));
        let report = sim.run().unwrap();
        assert!((report.end_time.as_secs_f64() - 2.0 * one).abs() < 1e-9);
        // Both directions share the one `-copy` lane, back to back.
        let frames = obs.stack.frames();
        assert!(frames.iter().all(|f| &*f.lane == "gpu0-copy"), "{frames:?}");
        assert!(
            crate::timeline::overlapping_frames(&frames).is_empty(),
            "{frames:?}"
        );
    }
}
