//! EWMA calibration of the roofline hardware model from observed spans.
//!
//! The scheduler's Equations (1)–(11) are only as good as the
//! `DeviceProfile` constants behind them. This module fits those
//! constants from what actually happened: each `cpu-task` / `kernel`
//! span carries `flops` and `bytes`, so a span is one sample of
//! *attainable throughput at a measured arithmetic intensity*; transfer
//! spans sample the PCI-E series bandwidth, and `net-send` spans the
//! fabric. Samples feed exponentially weighted moving averages
//! (`v ← α·x + (1−α)·v`) seeded from the configured profile, so a
//! correct profile is a fixed point: observations that match the model
//! leave it untouched.
//!
//! A sample at intensity `A` updates the parameter the roofline says is
//! binding at `A`: above the device's ridge point (`P/B`) it re-estimates
//! the peak `P` from the flop rate, below it the bandwidth `B` from the
//! byte rate. The ridge is re-derived from the *current fitted* values,
//! so the classification itself converges with the fit.

use obs::EventView;
use roofline::profiles::DeviceProfile;
use roofline::schedule::{split_multi_gpu, SplitDecision, Workload};

/// Default EWMA smoothing factor: new samples get 30% weight.
pub const DEFAULT_ALPHA: f64 = 0.3;

fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Sample counters per fitted quantity, for reporting and for warm-start
/// bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleCounts {
    /// CPU roofline samples (`cpu-task` spans or observed map windows).
    pub cpu: u64,
    /// GPU roofline samples.
    pub gpu: u64,
    /// PCI-E transfer samples.
    pub pcie: u64,
    /// Network samples.
    pub net: u64,
}

/// A `DeviceProfile` whose constants are EWMA-fitted from observation,
/// plus the fit state. Conversion is free: [`profile`](Self::profile)
/// is accepted anywhere a `profiles.rs` preset is.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationProfile {
    fitted: DeviceProfile,
    /// EWMA smoothing factor in `[0, 1]`; 0 freezes the profile.
    pub alpha: f64,
    /// How many samples each quantity has absorbed.
    pub samples: SampleCounts,
    /// Fitted network bandwidth (bytes/s), when `net-send` spans were
    /// seen. Not part of `DeviceProfile`; reported for `split_with_network`.
    pub net_bw: Option<f64>,
}

impl CalibrationProfile {
    /// Starts a fit seeded from `base` (usually the configured preset).
    pub fn new(base: DeviceProfile, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        CalibrationProfile {
            fitted: DeviceProfile {
                name: format!("{}+fitted", base.name),
                ..base
            },
            alpha,
            samples: SampleCounts::default(),
            net_bw: None,
        }
    }

    /// Rebuilds fit state around an already-fitted profile (used when
    /// loading a persisted fit).
    pub fn from_parts(
        fitted: DeviceProfile,
        alpha: f64,
        samples: SampleCounts,
        net_bw: Option<f64>,
    ) -> Self {
        CalibrationProfile {
            fitted,
            alpha,
            samples,
            net_bw,
        }
    }

    /// The current fitted profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.fitted
    }

    fn ewma(&self, current: f64, sample: f64) -> f64 {
        self.alpha * sample + (1.0 - self.alpha) * current
    }

    /// One CPU sample: the *aggregate* (all-cores) attainable flop rate
    /// observed at intensity `ai`. Updates peak above the fitted CPU
    /// ridge, DRAM bandwidth below it.
    pub fn observe_cpu_rate(&mut self, ai: f64, flops_per_sec: f64) {
        if !positive(ai) || !positive(flops_per_sec) {
            return;
        }
        let ridge = self.fitted.cpu.peak_flops / self.fitted.cpu.dram_bw;
        if ai >= ridge {
            self.fitted.cpu.peak_flops = self.ewma(self.fitted.cpu.peak_flops, flops_per_sec);
        } else {
            self.fitted.cpu.dram_bw = self.ewma(self.fitted.cpu.dram_bw, flops_per_sec / ai);
        }
        self.samples.cpu += 1;
    }

    /// One GPU sample: the attainable flop rate of a *single* GPU at
    /// intensity `ai` (kernel-side roofline — device DRAM, not PCI-E).
    /// All GPUs of the node share one fitted spec, like the presets.
    pub fn observe_gpu_rate(&mut self, ai: f64, flops_per_sec: f64) {
        if !positive(ai) || !positive(flops_per_sec) || self.fitted.gpus.is_empty() {
            return;
        }
        let g = &self.fitted.gpus[0];
        let ridge = g.peak_flops / g.dram_bw;
        let (peak, bw) = if ai >= ridge {
            (self.ewma(g.peak_flops, flops_per_sec), g.dram_bw)
        } else {
            (g.peak_flops, self.ewma(g.dram_bw, flops_per_sec / ai))
        };
        for g in &mut self.fitted.gpus {
            g.peak_flops = peak;
            g.dram_bw = bw;
        }
        self.samples.gpu += 1;
    }

    /// One PCI-E sample: observed bytes/s of a host↔device transfer.
    /// Transfers cross host DRAM and the bus in series, so the bus term
    /// is recovered by inverting `1/B_obs = 1/B_dram + 1/B_pcie`.
    pub fn observe_pcie_bw(&mut self, bytes_per_sec: f64) {
        if !positive(bytes_per_sec) || self.fitted.gpus.is_empty() {
            return;
        }
        let dram = self.fitted.cpu.dram_bw;
        let pcie = if bytes_per_sec < dram {
            1.0 / (1.0 / bytes_per_sec - 1.0 / dram)
        } else {
            bytes_per_sec
        };
        let cur = self.fitted.gpus[0].pcie_eff_bw;
        let next = self.ewma(cur, pcie);
        for g in &mut self.fitted.gpus {
            g.pcie_eff_bw = next;
        }
        self.samples.pcie += 1;
    }

    /// One network sample: observed bytes/s on a rank's egress.
    pub fn observe_net_bw(&mut self, bytes_per_sec: f64) {
        if !positive(bytes_per_sec) {
            return;
        }
        let cur = self.net_bw.unwrap_or(bytes_per_sec);
        self.net_bw = Some(self.ewma(cur, bytes_per_sec));
        self.samples.net += 1;
    }

    /// Re-solves Equation (8) (multi-GPU form) against the fitted
    /// profile.
    pub fn split(&self, workload: &Workload, n_gpus: usize) -> SplitDecision {
        split_multi_gpu(&self.fitted, workload, n_gpus)
    }

    /// Fitted CPU ridge point, flops/byte.
    pub fn cpu_ridge(&self) -> f64 {
        self.fitted.cpu_ridge()
    }

    /// Total samples absorbed.
    pub fn total_samples(&self) -> u64 {
        self.samples.cpu + self.samples.gpu + self.samples.pcie + self.samples.net
    }
}

/// Fits a profile offline from an exported trace: every `cpu-task` /
/// `kernel` span with `flops` + `bytes` attrs, every transfer span, and
/// every `net-send` span becomes one EWMA sample, in canonical trace
/// order. `cpu-task` spans time one core slot of `cores`, so their rate
/// is scaled to the aggregate roofline.
pub fn fit_from_events<E: EventView>(
    base: DeviceProfile,
    alpha: f64,
    events: &[E],
) -> CalibrationProfile {
    let cores = base.cpu.cores as f64;
    let mut cal = CalibrationProfile::new(base, alpha);
    for e in events {
        let Some(dur) = e.dur().filter(|d| *d > 0.0) else {
            continue;
        };
        match e.kind() {
            "cpu-task" => {
                if let (Some(flops), Some(bytes)) = (e.attr("flops"), e.attr("bytes")) {
                    if bytes > 0.0 {
                        cal.observe_cpu_rate(flops / bytes, flops / dur * cores);
                    }
                }
            }
            "kernel" => {
                if let (Some(flops), Some(bytes)) = (e.attr("flops"), e.attr("bytes")) {
                    if bytes > 0.0 {
                        cal.observe_gpu_rate(flops / bytes, flops / dur);
                    }
                }
            }
            "h2d" | "d2h" => {
                if let Some(bytes) = e.attr("bytes") {
                    cal.observe_pcie_bw(bytes / dur);
                }
            }
            "net-send" => {
                if let Some(bytes) = e.attr("bytes") {
                    cal.observe_net_bw(bytes / dur);
                }
            }
            _ => {}
        }
    }
    cal
}

#[cfg(test)]
mod tests {
    use super::*;
    use roofline::model::DataResidency;

    fn delta() -> DeviceProfile {
        DeviceProfile::delta_node()
    }

    #[test]
    fn correct_profile_is_a_fixed_point() {
        let mut cal = CalibrationProfile::new(delta(), 0.3);
        // Samples that match the model exactly: peak flops above the
        // ridge, bandwidth-limited rate below it.
        cal.observe_cpu_rate(500.0, 130e9);
        cal.observe_cpu_rate(1.0, 32e9);
        cal.observe_gpu_rate(500.0, 1030e9);
        cal.observe_gpu_rate(1.0, 144e9);
        assert_eq!(cal.profile().cpu.peak_flops, 130e9);
        assert_eq!(cal.profile().cpu.dram_bw, 32e9);
        assert_eq!(cal.profile().gpus[0].peak_flops, 1030e9);
        assert_eq!(cal.profile().gpus[1].dram_bw, 144e9);
        assert_eq!(cal.total_samples(), 4);
    }

    #[test]
    fn ewma_converges_to_true_rate() {
        let mut cal = CalibrationProfile::new(delta(), 0.5);
        // GPU actually delivers half its configured peak.
        for _ in 0..20 {
            cal.observe_gpu_rate(500.0, 515e9);
        }
        let fitted = cal.profile().gpus[0].peak_flops;
        assert!((fitted - 515e9).abs() / 515e9 < 1e-4, "fitted {fitted}");
        // And the re-solved split shifts toward the CPU accordingly.
        let w = Workload::uniform(500.0, DataResidency::Resident);
        let p = cal.split(&w, 1).cpu_fraction;
        assert!((p - 130.0 / 645.0).abs() < 1e-3, "p {p}");
    }

    #[test]
    fn alpha_zero_freezes_the_profile() {
        let base = delta();
        let mut cal = CalibrationProfile::new(base.clone(), 0.0);
        cal.observe_cpu_rate(500.0, 1e9);
        cal.observe_gpu_rate(500.0, 1e9);
        cal.observe_pcie_bw(1e7);
        assert_eq!(cal.profile().cpu, base.cpu);
        assert_eq!(cal.profile().gpus, base.gpus);
        assert_eq!(cal.total_samples(), 3);
    }

    #[test]
    fn pcie_series_inversion() {
        let mut cal = CalibrationProfile::new(delta(), 1.0);
        // The configured effective path: series of 32 GB/s DRAM and
        // 0.92 GB/s bus.
        let series = 1.0 / (1.0 / 32e9 + 1.0 / 0.92e9);
        cal.observe_pcie_bw(series);
        let fitted = cal.profile().gpus[0].pcie_eff_bw;
        assert!((fitted - 0.92e9).abs() / 0.92e9 < 1e-9, "fitted {fitted}");
    }

    #[test]
    fn fit_from_events_reads_span_attrs() {
        use crate::trace::TraceEvent;
        let mk = |kind: &str, lane: &str, dur: f64, attrs: &[(&str, f64)]| TraceEvent {
            t: 0.0,
            dur: Some(dur),
            lane: lane.into(),
            kind: kind.into(),
            iter: None,
            part: None,
            block: None,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        // One core slot delivering peak/cores at AI 500 ⇒ aggregate is
        // exactly the configured peak; a kernel at half speed drags the
        // GPU peak down.
        let events = vec![
            mk(
                "cpu-task",
                "node0-cpu-c0",
                1.0,
                &[("flops", 130e9 / 12.0), ("bytes", 130e9 / 12.0 / 500.0)],
            ),
            mk(
                "kernel",
                "node0-gpu0-compute",
                2.0,
                &[("flops", 1030e9), ("bytes", 1030e9 / 500.0)],
            ),
            mk("net-send", "net-rank0", 1.0, &[("bytes", 3e9)]),
        ];
        let cal = fit_from_events(delta(), 1.0, &events);
        assert!((cal.profile().cpu.peak_flops - 130e9).abs() < 1.0);
        assert!((cal.profile().gpus[0].peak_flops - 515e9).abs() < 1.0);
        assert_eq!(cal.net_bw, Some(3e9));
        assert_eq!(cal.samples.cpu, 1);
        assert_eq!(cal.samples.gpu, 1);
        assert_eq!(cal.samples.net, 1);
    }
}
