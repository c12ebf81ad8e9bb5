//! Batched 1-D FFT — the paper's *moderate* arithmetic-intensity
//! representative ("For applications with moderate arithmetic intensity,
//! such as FFT ... the performance bottleneck lies in the DRAM, and PCI-E
//! bandwidth"; §V argues these middle-range apps benefit most from
//! co-processing because both devices contribute).
//!
//! The workload is a batch of independent complex signals; each map task
//! transforms a block of signals with an iterative radix-2 Cooley-Tukey
//! FFT and emits the block's spectral energy, which reduce sums (a
//! Parseval check doubles as the verifiable output).

use prs_core::{DeviceClass, Key, SpmdApp};
use prs_data::rng::SplitMix64;
use rayon::prelude::*;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

/// In-place iterative radix-2 FFT over interleaved (re, im) pairs.
/// `signal.len()` must be `2 * L` with `L` a power of two.
pub fn fft_inplace(signal: &mut [f32]) {
    let l = signal.len() / 2;
    assert!(l.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = l.trailing_zeros();
    for i in 0..l {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            signal.swap(2 * i, 2 * j);
            signal.swap(2 * i + 1, 2 * j + 1);
        }
    }
    // Butterfly stages.
    let mut len = 2;
    while len <= l {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (w_re, w_im) = (ang.cos(), ang.sin());
        let mut start = 0;
        while start < l {
            let mut cur_re = 1.0f64;
            let mut cur_im = 0.0f64;
            for k in 0..len / 2 {
                let a = start + k;
                let b = a + len / 2;
                let (ar, ai) = (signal[2 * a] as f64, signal[2 * a + 1] as f64);
                let (br, bi) = (signal[2 * b] as f64, signal[2 * b + 1] as f64);
                let tr = br * cur_re - bi * cur_im;
                let ti = br * cur_im + bi * cur_re;
                signal[2 * a] = (ar + tr) as f32;
                signal[2 * a + 1] = (ai + ti) as f32;
                signal[2 * b] = (ar - tr) as f32;
                signal[2 * b + 1] = (ai - ti) as f32;
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
            start += len;
        }
        len <<= 1;
    }
}

/// Batched FFT over `batch` signals of length `len` each, on the PRS.
pub struct BatchFft {
    signals: Arc<Vec<Vec<f32>>>,
    pub(crate) len: usize,
}

impl BatchFft {
    /// Wraps a prepared batch; all signals must share one power-of-two
    /// length.
    pub fn new(signals: Arc<Vec<Vec<f32>>>) -> Self {
        assert!(!signals.is_empty());
        let len = signals[0].len() / 2;
        assert!(len.is_power_of_two());
        assert!(signals.iter().all(|s| s.len() == 2 * len));
        BatchFft { signals, len }
    }

    /// Generates `batch` random complex signals of length `len`.
    pub fn synthetic(batch: usize, len: usize, seed: u64) -> Self {
        assert!(len.is_power_of_two());
        let mut rng = SplitMix64::new(seed ^ 0xFF7);
        let signals = (0..batch)
            .map(|_| (0..2 * len).map(|_| rng.next_f32() - 0.5).collect())
            .collect();
        BatchFft {
            signals: Arc::new(signals),
            len,
        }
    }

    /// Time-domain energy of one signal (for Parseval checks).
    pub fn time_energy(&self, idx: usize) -> f64 {
        self.signals[idx].iter().map(|&v| v as f64 * v as f64).sum()
    }

    /// Total time-domain energy of the batch.
    pub fn total_time_energy(&self) -> f64 {
        (0..self.signals.len()).map(|i| self.time_energy(i)).sum()
    }

    fn block_energy(&self, range: Range<usize>) -> f64 {
        let signals = &self.signals;
        range
            .into_par_iter()
            .map(|i| {
                let mut s = signals[i].clone();
                fft_inplace(&mut s);
                s.iter().map(|&v| v as f64 * v as f64).sum::<f64>()
            })
            .sum()
    }
}

impl SpmdApp for BatchFft {
    type Inter = f64;
    type Output = f64;

    fn num_items(&self) -> usize {
        self.signals.len()
    }

    fn item_bytes(&self) -> u64 {
        8 * self.len as u64 // complex f32
    }

    fn workload(&self) -> Workload {
        // 5 L log2 L flops over 8 L bytes: the Figure-4 moderate band.
        let ai = 5.0 * (self.len as f64).log2() / 8.0;
        Workload::uniform(ai, DataResidency::Staged)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, f64)> {
        vec![(0, self.block_energy(range))]
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, f64)> {
        self.cpu_map(node, range)
    }

    fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<f64>) -> f64 {
        values.iter().sum()
    }

    fn combine_into(&self, _key: Key, acc: &mut f64, next: f64) -> Option<f64> {
        *acc += next;
        None
    }

    fn inter_bytes(&self, _v: &f64) -> u64 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse FFT (unnormalized conjugate method), for the round trip.
    fn ifft_inplace(signal: &mut [f32]) {
        let l = signal.len() / 2;
        for i in 0..l {
            signal[2 * i + 1] = -signal[2 * i + 1];
        }
        fft_inplace(signal);
        let scale = 1.0 / l as f32;
        for i in 0..l {
            signal[2 * i] *= scale;
            signal[2 * i + 1] *= -scale;
        }
    }

    fn impulse(l: usize) -> Vec<f32> {
        let mut s = vec![0.0; 2 * l];
        s[0] = 1.0;
        s
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut s = impulse(8);
        fft_inplace(&mut s);
        for k in 0..8 {
            assert!((s[2 * k] - 1.0).abs() < 1e-6);
            assert!(s[2 * k + 1].abs() < 1e-6);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let l = 16;
        let mut s = vec![0.0; 2 * l];
        for k in 0..l {
            s[2 * k] = 1.0;
        }
        fft_inplace(&mut s);
        assert!((s[0] - l as f32).abs() < 1e-4);
        for k in 1..l {
            assert!(s[2 * k].abs() < 1e-4, "bin {k}");
            assert!(s[2 * k + 1].abs() < 1e-4);
        }
    }

    #[test]
    fn fft_single_tone_lands_in_right_bin() {
        let l = 32;
        let f = 5;
        let mut s = vec![0.0f32; 2 * l];
        for n in 0..l {
            let ang = 2.0 * std::f64::consts::PI * f as f64 * n as f64 / l as f64;
            s[2 * n] = ang.cos() as f32;
            s[2 * n + 1] = ang.sin() as f32;
        }
        fft_inplace(&mut s);
        let mag = |k: usize| {
            ((s[2 * k] as f64).powi(2) + (s[2 * k + 1] as f64).powi(2)).sqrt()
        };
        assert!((mag(f) - l as f64).abs() < 1e-3);
        for k in (0..l).filter(|&k| k != f) {
            assert!(mag(k) < 1e-3, "leak into bin {k}: {}", mag(k));
        }
    }

    #[test]
    fn fft_ifft_round_trip() {
        let mut rng = SplitMix64::new(8);
        let l = 64;
        let original: Vec<f32> = (0..2 * l).map(|_| rng.next_f32() - 0.5).collect();
        let mut s = original.clone();
        fft_inplace(&mut s);
        ifft_inplace(&mut s);
        for (a, b) in s.iter().zip(&original) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_holds_per_block() {
        let app = BatchFft::synthetic(20, 128, 3);
        let spectral = app.block_energy(0..20);
        let time = app.total_time_energy();
        // Parseval: spectral energy = L * time energy.
        assert!(
            (spectral - 128.0 * time).abs() < 1e-2 * spectral,
            "{spectral} vs {}",
            128.0 * time
        );
    }

    #[test]
    fn workload_sits_in_moderate_band() {
        let app = BatchFft::synthetic(4, 1 << 20, 1);
        let ai = app.workload().ai_cpu;
        assert!((ai - 12.5).abs() < 0.01);
        assert_eq!(app.item_bytes(), 8 << 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut s = vec![0.0; 2 * 6];
        fft_inplace(&mut s);
    }
}
