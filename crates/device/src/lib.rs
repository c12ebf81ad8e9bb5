//! # device — simulated fat-node hardware
//!
//! The hardware substrate the PRS runtime schedules onto, built on
//! [`simtime`]'s deterministic virtual clock:
//!
//! - [`cost`] — the roofline cost model converting work descriptors
//!   ([`cost::WorkProfile`]) into virtual time, plus the software-stack
//!   overhead knobs ([`cost::OverheadModel`]).
//! - [`gpu`] — the simulated GPU: serialized compute engine, DMA copy
//!   engine(s), contexts with creation cost, CUDA-like streams whose
//!   transfers overlap compute across streams.
//! - [`cpu`] — the CPU core pool with evenly shared peak flops and DRAM
//!   bandwidth.
//! - [`memory`] — tracked memory spaces and the paper's region-based
//!   allocator (§III.C.2).
//! - [`node`] — a [`node::FatNode`] assembling CPU + GPUs from a
//!   [`roofline::DeviceProfile`].
//! - [`faults`] — slowdown windows and GPU crash arming for
//!   fault-injection experiments.
//! - [`race`] — the first-completion-wins scoreboard arbitrating
//!   speculative backup tasks against their straggling primaries.
//!
//! Real computation executes on host threads inside `launch`/`run_task`
//! bodies; only its *duration* is simulated, so experiment outputs are
//! numerically real while timings are hardware-independent.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod cpu;
pub mod faults;
pub mod gpu;
pub mod memory;
pub mod node;
pub mod race;
pub mod timeline;

pub use cost::{OverheadModel, WorkProfile};
pub use cpu::CpuPool;
pub use faults::{GpuCrashed, SlowdownWindow};
pub use race::CompletionBoard;
pub use gpu::{Gpu, GpuContext, Stream};
pub use memory::{MemorySpace, OutOfMemory, Region};
pub use node::FatNode;
pub use timeline::{
    render_ascii, to_chrome_trace, to_chrome_trace_with_flows, FlowArrow, Interval, Timeline,
};

#[cfg(test)]
mod proptests {
    use crate::cost::{cpu_core_time, gpu_kernel_time, WorkProfile};
    use proptest::prelude::*;
    use roofline::profiles::DeviceProfile;

    proptest! {
        #[test]
        fn kernel_time_monotone_in_work(
            flops in 1e3..1e12f64,
            ai in 0.01..1e4f64,
            factor in 1.0..8.0f64,
        ) {
            let d = DeviceProfile::delta_node();
            let w = WorkProfile::from_intensity(flops, ai);
            let bigger = w.scale(factor);
            prop_assert!(gpu_kernel_time(d.gpu(), &bigger) >= gpu_kernel_time(d.gpu(), &w));
            prop_assert!(cpu_core_time(&d.cpu, &bigger) >= cpu_core_time(&d.cpu, &w));
        }

        #[test]
        fn kernel_time_never_beats_peak(
            flops in 1e3..1e12f64,
            ai in 0.01..1e4f64,
        ) {
            let d = DeviceProfile::delta_node();
            let w = WorkProfile::from_intensity(flops, ai);
            let t = gpu_kernel_time(d.gpu(), &w).as_secs_f64();
            // Achieved rate can never exceed the device peak.
            prop_assert!(flops / t <= d.gpu().peak_flops * (1.0 + 1e-9));
        }

        #[test]
        fn split_work_is_never_faster_serial(
            flops in 1e6..1e12f64,
            ai in 0.1..1e3f64,
            cut in 0.1..0.9f64,
        ) {
            // Splitting a task in two and running them back to back on the
            // same engine takes at least as long as the fused task.
            let d = DeviceProfile::delta_node();
            let w = WorkProfile::from_intensity(flops, ai);
            let a = w.scale(cut);
            let b = w.scale(1.0 - cut);
            let fused = gpu_kernel_time(d.gpu(), &w).as_secs_f64();
            let split = gpu_kernel_time(d.gpu(), &a).as_secs_f64()
                + gpu_kernel_time(d.gpu(), &b).as_secs_f64();
            prop_assert!(split >= fused - 1e-12);
        }
    }
}
