//! Splittable deterministic random number generation.
//!
//! Every stochastic component of the reproduction draws from SplitMix64
//! streams derived from a user seed with SplitMix64, so that any experiment
//! re-run with the same seed produces bit-identical inputs regardless of
//! task scheduling or thread count.

/// SplitMix64: tiny, fast, and passes BigCrush; used both as a generator
/// and as a stream-splitting hash.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform integer in `[0, bound)` (rejection-free Lemire reduction).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Standard normal via Box-Muller (uses two uniforms, discards the
    /// second variate for simplicity).
    pub fn next_normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Derives an independent child stream; `label` distinguishes sibling
    /// streams (task ids, node ids).
    pub fn split(&self, label: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(self.state ^ label.rotate_left(32) ^ 0xA0761D6478BD642F);
        // Burn one output so that adjacent labels decorrelate.
        let s = mixer.next_u64();
        SplitMix64::new(s)
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below((i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Samples an index from unnormalized non-negative `weights`.
    ///
    /// Sums the table on every call; a loop over one table should sum it
    /// once with [`weight_total`] and draw with
    /// [`Self::next_weighted_with_total`] — the draws are the same.
    pub fn next_weighted(&mut self, weights: &[f64]) -> usize {
        self.next_weighted_with_total(weights, weight_total(weights))
    }

    /// [`Self::next_weighted`] with the table's [`weight_total`] supplied
    /// by the caller. The scan is sequential subtraction on purpose: a
    /// cumulative-table search rounds differently at the boundaries and
    /// would change the stream.
    pub fn next_weighted_with_total(&mut self, weights: &[f64], total: f64) -> usize {
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

/// Sum of a weight table, in the order [`SplitMix64::next_weighted`] has
/// always added it (so the `f64` total, and every draw scaled by it, is
/// unchanged). Panics when no weight is positive.
pub fn weight_total(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval_and_well_spread() {
        let mut rng = SplitMix64::new(7);
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SplitMix64::new(3);
        const N: usize = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..N {
            let x = rng.next_normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / N as f64;
        let var = sum2 / N as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }

    #[test]
    fn split_streams_are_independent_and_reproducible() {
        let root = SplitMix64::new(1234);
        let mut a1 = root.split(1);
        let mut a2 = root.split(1);
        let mut b = root.split(2);
        let va: Vec<u64> = (0..10).map(|_| a1.next_u64()).collect();
        let va2: Vec<u64> = (0..10).map(|_| a2.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_eq!(va, va2);
        assert_ne!(va, vb);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>(), "astronomically unlikely");
    }

    #[test]
    fn weighted_sampling_matches_weights() {
        let mut rng = SplitMix64::new(11);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..4000 {
            counts[rng.next_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio = {ratio}");
    }
}
