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

    /// Samples an index from unnormalized non-negative `weights` by
    /// sequential subtraction — the definition of every weighted draw in
    /// the workspace. Sums and walks the table on every call; a loop over
    /// one table builds a [`WeightTable`] once and draws with
    /// [`Self::next_in`] — the draws are the same.
    pub fn next_weighted(&mut self, weights: &[f64]) -> usize {
        let target = self.next_f64() * weight_total(weights);
        scan_index(weights, target)
    }

    /// [`Self::next_weighted`] over `table`'s weights in O(log n).
    pub fn next_in(&mut self, table: &WeightTable) -> usize {
        table.index_of(self.next_f64() * table.total)
    }
}

/// Where the sequential-subtraction scan over `weights` stops for
/// `target`: what a weighted draw *is*. [`WeightTable`] must agree with it
/// on every input and runs it where its prefix sums cannot promise that.
pub fn scan_index(weights: &[f64], mut target: f64) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// Sum of a weight table, in the order [`SplitMix64::next_weighted`] has
/// always added it (so the `f64` total, and every draw scaled by it, is
/// unchanged). Panics when no weight is positive.
pub fn weight_total(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    total
}

/// A weight table prepared for repeated draws: built in O(n), searched in
/// O(log n), and *exact* — [`Self::index_of`] is [`scan_index`] for every
/// `target`, so moving a generator onto the table leaves its stream alone.
///
/// `prefix[k]` is the first `k` weights added in the scan's order. A
/// binary search proposes the `k` with `prefix[k] <= target < prefix[k+1]`
/// and is believed only when `target` lies at least `guard = 4·(n+2)·ε·M`
/// inside that interval, `M = max(total, prefix[n])`; otherwise the scan
/// itself runs (≈ 8n²ε of uniform draws: 10⁻⁹ at n = 800). The bound:
/// no weight is negative, so no partial sum exceeds `prefix[n]` and no
/// running target of the scan exceeds `total`; each of the ≤ n additions
/// behind `prefix[k]` and ≤ n subtractions behind the scan's `i`-th
/// comparison therefore rounds by at most `ε/2·M`, and the scan compares
/// `target − (w_0 + … + w_i) + e` with 0 for some `|e| ≤ n·ε·M < guard` —
/// inside the guard band its sign is the exact one: ≥ 0 for every
/// `i < k`, < 0 at `i = k`.
#[derive(Debug, Clone)]
pub struct WeightTable {
    weights: Vec<f64>,
    prefix: Vec<f64>,
    total: f64,
    guard: f64,
}

impl WeightTable {
    /// Prepares `weights`. Panics when one is negative or none positive.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(weights.iter().all(|&w| w >= 0.0), "weights must be non-negative");
        let total = weight_total(&weights);
        let mut prefix = vec![0.0];
        prefix.extend(weights.iter().scan(0.0, |sum, &w| {
            *sum += w;
            Some(*sum)
        }));
        let largest = total.max(prefix[weights.len()]);
        let guard = 4.0 * (weights.len() + 2) as f64 * f64::EPSILON * largest;
        WeightTable {
            weights,
            prefix,
            total,
            guard,
        }
    }

    /// The scan's index for `target` when the prefix sums alone decide it;
    /// `None` inside a guard band (or outside the table, or NaN), where
    /// only the scan knows.
    fn lookup(&self, target: f64) -> Option<usize> {
        let above = self.prefix.partition_point(|&p| p <= target);
        let k = above.checked_sub(1)?;
        let hi = *self.prefix.get(above)?;
        (target - self.prefix[k] >= self.guard && hi - target >= self.guard).then_some(k)
    }

    /// Where the scan over these weights stops for `target`.
    pub fn index_of(&self, target: f64) -> usize {
        let found = self.lookup(target);
        debug_assert!(found.is_none_or(|k| k == scan_index(&self.weights, target)));
        found.unwrap_or_else(|| scan_index(&self.weights, target))
    }
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

    /// [`WeightTable`] against its two oracles: the scan it must equal, and
    /// the scan's own thresholds found without any error analysis.
    mod weight_table {
        use super::*;
        use proptest::prelude::*;

        /// Tables of `1..max_n` weights in the shapes that strain prefix
        /// sums: flat, Zipf `1/(r+1)`, magnitudes from 2⁻⁶⁰ to 2⁶⁰, zeros
        /// (leading, trailing and in runs), and one weight dwarfing the rest.
        fn arb_weights(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
            (1..max_n, 0u8..5, any::<u64>()).prop_map(|(n, shape, seed)| {
                let mut rng = SplitMix64::new(seed);
                let mut pick = || rng.next_below(n as u64) as usize;
                let (from, to) = (pick(), pick());
                let mut zero_run = false;
                let mut weights: Vec<f64> = (0..n)
                    .map(|r| match shape {
                        0 => rng.next_f64(),
                        1 => 1.0 / (r as f64 + 1.0),
                        2 => (rng.next_f64() * 120.0 - 60.0).exp2(),
                        3 => {
                            zero_run ^= rng.next_below(4) == 0;
                            let outside = r < from.min(to) || r > from.max(to);
                            if outside || zero_run { 0.0 } else { rng.next_f64() }
                        }
                        _ => rng.next_f64() * 1e-9,
                    })
                    .collect();
                match shape {
                    3 => weights[from] = 0.5,
                    4 => weights[from] = 1e9,
                    _ => {}
                }
                weights
            })
        }

        /// `count` uniform draws' targets.
        fn uniform_targets(table: &WeightTable, seed: u64, count: usize) -> Vec<f64> {
            let mut rng = SplitMix64::new(seed);
            (0..count).map(|_| rng.next_f64() * table.total).collect()
        }

        /// Every prefix sum and its three `f64` neighbours on each side.
        fn boundary_targets(table: &WeightTable) -> Vec<f64> {
            let near = |p: f64| (-3i64..=3).filter_map(move |d| p.to_bits().checked_add_signed(d));
            table.prefix.iter().flat_map(|&p| near(p)).map(f64::from_bits).collect()
        }

        /// The targets one guard band (and one and a half) away from every
        /// prefix sum: the first the table answers without the scan.
        fn band_edge_targets(table: &WeightTable) -> Vec<f64> {
            let g = table.guard;
            let edges = table.prefix.iter().flat_map(|&p| [p - 1.5 * g, p - g, p + g, p + 1.5 * g]);
            edges.filter(|t| *t >= 0.0).collect()
        }

        /// The scan's index is a monotone step function of `target`
        /// (`x ↦ fl(x − w)` is monotone), so its steps can be bisected on
        /// the bit pattern, which orders non-negative `f64`s: entry `k` is
        /// the smallest target the scan carries past index `k`. O(n²) to
        /// build, no rounding argument needed.
        fn scan_thresholds(weights: &[f64]) -> Vec<f64> {
            (0..weights.len() - 1)
                .map(|k| {
                    let (mut lo, mut hi) = (0u64, f64::INFINITY.to_bits());
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if scan_index(weights, f64::from_bits(mid)) > k {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    f64::from_bits(lo)
                })
                .collect()
        }

        proptest! {
            #[test]
            fn equals_the_scan_and_reports_its_fallbacks(
                weights in arb_weights(2000),
                seed in any::<u64>(),
            ) {
                let table = WeightTable::new(weights.clone());
                let uniform = uniform_targets(&table, seed, 256);
                let fell_back = uniform.iter().filter(|&&t| table.lookup(t).is_none()).count();
                // ≈ 8n²ε per draw: a uniform target that needs the scan
                // means the guard band has been widened.
                prop_assert_eq!(fell_back, 0, "{} of 256 uniform targets fell back", fell_back);
                let boundary = boundary_targets(&table);
                let declined = boundary.iter().filter(|&&t| table.lookup(t).is_none()).count();
                prop_assert_eq!(declined, boundary.len(), "a target within 3 ulps of a prefix sum");
                for t in uniform.into_iter().chain(boundary).chain(band_edge_targets(&table)) {
                    prop_assert_eq!(table.index_of(t), scan_index(&weights, t), "target {:e}", t);
                }
            }

            #[test]
            fn equals_the_bisected_thresholds(weights in arb_weights(48), seed in any::<u64>()) {
                let table = WeightTable::new(weights.clone());
                let thresholds = scan_thresholds(&weights);
                prop_assert!(thresholds.windows(2).all(|w| w[0] <= w[1]));
                let targets = uniform_targets(&table, seed, 256)
                    .into_iter()
                    .chain(boundary_targets(&table))
                    .chain(band_edge_targets(&table));
                for t in targets {
                    let by_threshold = thresholds.partition_point(|&th| th <= t);
                    prop_assert_eq!(table.index_of(t), by_threshold, "target {:e}", t);
                    prop_assert_eq!(scan_index(&weights, t), by_threshold, "target {:e}", t);
                }
            }
        }

        /// Totals where `ε·total` is itself subnormal, overflows, or is the
        /// only weight; targets outside `[0, total)`, infinite and NaN.
        #[test]
        fn degenerate_tables_and_targets() {
            let tiny = f64::from_bits(1);
            for weights in [
                vec![tiny, 0.0, 2.0 * tiny, 5.0 * tiny],
                vec![f64::MIN_POSITIVE, f64::MIN_POSITIVE * 3.0],
                vec![f64::MAX, f64::MAX, 1.0],
                vec![3.0],
                vec![0.0, 0.0, 2.0, 0.0],
            ] {
                let table = WeightTable::new(weights.clone());
                let mut targets = boundary_targets(&table);
                targets.extend(uniform_targets(&table, 9, 64));
                targets.extend([-1.0, -0.0, f64::INFINITY, f64::NAN, 2.0 * table.total]);
                for t in targets {
                    assert_eq!(table.index_of(t), scan_index(&weights, t), "{weights:?} at {t:e}");
                }
            }
        }

        #[test]
        #[should_panic(expected = "non-negative")]
        fn rejects_a_negative_weight() {
            WeightTable::new(vec![1.0, -0.5, 2.0]);
        }
    }
}
