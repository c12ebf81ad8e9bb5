//! # roofline — the CLUSTER'13 analytic scheduling model
//!
//! Implements the paper's performance machinery end to end:
//!
//! - [`model`] — the roofline itself: attainable flops vs arithmetic
//!   intensity, ridge points, and the staged-vs-resident distinction for
//!   GPU data (Equations (6)/(7), Figure 3).
//! - [`profiles`] — fat-node hardware profiles (paper Table 4): Delta
//!   (2× C2070 + 12-core Xeon) and BigRed2 (K20 + 32-core Opteron),
//!   plus parametric nodes for ablations.
//! - [`schedule`] — the workload-distribution model: Equations (1)–(5) and
//!   the three-regime Equation (8) that computes the CPU fraction `p`,
//!   plus the network-aware and heterogeneous-nodes extensions from the
//!   paper's future-work list.
//! - [`granularity`] — task-granularity analysis: stream-overlap
//!   percentage (Equation (9)) and minimal saturating block size
//!   (Equations (10)/(11)).
//! - [`intensity`] — per-application arithmetic-intensity catalogue
//!   (Figure 4, Table 5).
//!
//! ```
//! use roofline::model::DataResidency;
//! use roofline::profiles::DeviceProfile;
//! use roofline::schedule::{split, Workload};
//!
//! let delta = DeviceProfile::delta_node();
//! // GEMV: AI = 2 flops/byte, staged over PCI-E each call.
//! let gemv = Workload::uniform(2.0, DataResidency::Staged);
//! let d = split(&delta, &gemv);
//! assert!(d.cpu_fraction > 0.9); // CPU should take almost all of GEMV
//!
//! // GMM: AI = 6600, loop-invariant data resident on the GPU.
//! let gmm = Workload::uniform(6600.0, DataResidency::Resident);
//! let d = split(&delta, &gmm);
//! assert!(d.cpu_fraction < 0.15); // GPU should take almost all of GMM
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod granularity;
pub mod intensity;
pub mod model;
pub mod profiles;
pub mod schedule;

pub use model::{DataResidency, Roofline};
pub use profiles::DeviceProfile;
pub use schedule::{split, SplitDecision, Workload};

#[cfg(test)]
mod proptests {
    use crate::model::DataResidency;
    use crate::profiles::DeviceProfile;
    use crate::schedule::{makespan, split, Workload};
    use proptest::prelude::*;

    fn arb_profile() -> impl Strategy<Value = DeviceProfile> {
        (
            1.0e9..1000.0e9f64, // cpu peak
            1.0e9..200.0e9f64,  // dram bw
            10.0e9..5000.0e9f64, // gpu peak
            50.0e9..500.0e9f64, // gpu dram bw
            0.1e9..16.0e9f64,   // pcie bw
        )
            .prop_map(|(pc, bd, pg, bg, bp)| {
                let mut prof = DeviceProfile::delta_node();
                prof.cpu.peak_flops = pc;
                prof.cpu.dram_bw = bd;
                prof.gpus.truncate(1);
                prof.gpus[0].peak_flops = pg;
                prof.gpus[0].dram_bw = bg;
                prof.gpus[0].pcie_eff_bw = bp;
                prof
            })
    }

    fn arb_workload() -> impl Strategy<Value = Workload> {
        (0.01..1e5f64, prop_oneof![
            Just(DataResidency::Staged),
            Just(DataResidency::Resident)
        ])
            .prop_map(|(ai, r)| Workload::uniform(ai, r))
    }

    proptest! {
        #[test]
        fn p_is_always_a_fraction(prof in arb_profile(), w in arb_workload()) {
            let d = split(&prof, &w);
            prop_assert!(d.cpu_fraction > 0.0 && d.cpu_fraction < 1.0);
            prop_assert!(d.cpu_flops > 0.0 && d.gpu_flops > 0.0);
        }

        #[test]
        fn analytic_split_is_optimal(prof in arb_profile(), w in arb_workload()) {
            let p_star = split(&prof, &w).cpu_fraction;
            let best = makespan(&prof, &w, 1e9, p_star);
            for i in 1..20 {
                let p = i as f64 / 20.0;
                prop_assert!(makespan(&prof, &w, 1e9, p) >= best * (1.0 - 1e-9));
            }
        }

        #[test]
        fn makespan_scales_linearly_with_bytes(prof in arb_profile(), w in arb_workload()) {
            let p = split(&prof, &w).cpu_fraction;
            let t1 = makespan(&prof, &w, 1e9, p);
            let t2 = makespan(&prof, &w, 2e9, p);
            prop_assert!((t2 - 2.0 * t1).abs() <= 1e-9 * t2.abs().max(1.0));
        }

        #[test]
        fn faster_gpu_never_increases_cpu_share(
            prof in arb_profile(),
            w in arb_workload(),
            boost in 1.0..10.0f64,
        ) {
            let base = split(&prof, &w).cpu_fraction;
            let mut faster = prof.clone();
            faster.gpus[0].peak_flops *= boost;
            faster.gpus[0].dram_bw *= boost;
            faster.gpus[0].pcie_eff_bw *= boost;
            let boosted = split(&faster, &w).cpu_fraction;
            prop_assert!(boosted <= base + 1e-12);
        }
    }
}
