//! Word count — the paper's canonical *low* arithmetic-intensity
//! application (Figure 4's left end, "the CPU may provide better
//! performance than the GPU"). Input is a pre-tokenized stream of word
//! ids; map counts occurrences, reduce sums.

use prs_core::{DeviceClass, Key, SpmdApp};
use prs_data::rng::{SplitMix64, WeightTable};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

/// A map task counts into one counter per vocabulary entry while the
/// vocabulary is at most this many times its block, and otherwise sorts a
/// copy of the block and run-length encodes it: the counters cost ≈ 1 ns
/// per entry and token, the sort ≈ 12 ns per token, and a block must never
/// pay for (or allocate) a vocabulary far larger than itself.
const DENSE_VOCAB_PER_TOKEN: usize = 8;

/// Word count over a tokenized corpus.
pub struct WordCount {
    words: Arc<Vec<u32>>,
    vocab: u32,
}

impl WordCount {
    /// Wraps an existing token stream. Panics on a token outside
    /// `0..vocab`: the histograms index by token.
    pub fn new(words: Arc<Vec<u32>>, vocab: u32) -> Self {
        assert!(vocab > 0);
        if let Some(at) = words.iter().position(|&w| w >= vocab) {
            panic!("token {} at position {at} is outside the vocabulary 0..{vocab}", words[at]);
        }
        WordCount { words, vocab }
    }

    /// Generates a synthetic Zipf-ish corpus of `n` tokens over `vocab`
    /// distinct words (rank r has weight 1/(r+1)).
    pub fn synthetic(n: usize, vocab: u32, seed: u64) -> Self {
        let weights = WeightTable::new((0..vocab).map(|r| 1.0 / (r as f64 + 1.0)).collect());
        let mut rng = SplitMix64::new(seed ^ 0x77C0);
        let words = (0..n).map(|_| rng.next_in(&weights) as u32).collect();
        WordCount {
            words: Arc::new(words),
            vocab,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> u32 {
        self.vocab
    }

    /// Serial reference histogram.
    pub fn serial_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.vocab as usize];
        for &w in self.words.iter() {
            counts[w as usize] += 1;
        }
        counts
    }
}

impl SpmdApp for WordCount {
    type Inter = u64;
    type Output = u64;

    fn num_items(&self) -> usize {
        self.words.len()
    }

    fn item_bytes(&self) -> u64 {
        4
    }

    fn workload(&self) -> Workload {
        // Figure 4's left end: ~0.1 "flops" per byte, staged.
        Workload::uniform(0.1, DataResidency::Staged)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        let block = &self.words[range];
        if self.vocab as usize <= DENSE_VOCAB_PER_TOKEN * block.len() {
            let mut counts = vec![0u64; self.vocab as usize];
            for &w in block {
                counts[w as usize] += 1;
            }
            let seen = counts.iter().enumerate().filter(|(_, &c)| c > 0);
            seen.map(|(w, &c)| (w as Key, c)).collect()
        } else {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            let runs = sorted.chunk_by(|a, b| a == b);
            runs.map(|run| (run[0] as Key, run.len() as u64)).collect()
        }
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        self.cpu_map(node, range)
    }

    fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<u64>) -> u64 {
        values.iter().sum()
    }

    fn combine(&self, _key: Key, values: Vec<u64>) -> Vec<u64> {
        vec![values.iter().sum()]
    }

    fn inter_bytes(&self, _value: &u64) -> u64 {
        12 // key + count on the wire
    }

    fn output_bytes(&self, _value: &u64) -> u64 {
        12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn synthetic_corpus_is_zipfish() {
        let wc = WordCount::synthetic(50_000, 10, 3);
        let counts = wc.serial_counts();
        // Rank 0 strictly more frequent than rank 9.
        assert!(counts[0] > counts[9] * 3);
        assert_eq!(counts.iter().sum::<u64>(), 50_000);
    }

    /// The generator's random stream is part of every wordcount result
    /// (`netsim.bytes`, the `--json` output): this constant was taken on
    /// the commit before `next_weighted` stopped re-summing the weights
    /// per draw. A generator speed-up may not move it.
    #[test]
    fn synthetic_stream_is_pinned_across_commits() {
        let wc = WordCount::synthetic(1_000_000, 800, 42);
        let hash = wc
            .words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(hash, PINNED_SYNTHETIC_800_SEED42, "{hash:#x}");
    }

    const PINNED_SYNTHETIC_800_SEED42: u64 = 0xb2c9_7f60_1c64_e8c5;

    #[test]
    fn map_counts_match_serial_on_blocks() {
        let wc = WordCount::synthetic(10_000, 20, 5);
        let mut counts = vec![0u64; 20];
        for range in [0..4000, 4000..10_000] {
            for (k, c) in wc.cpu_map(0, range) {
                counts[k as usize] += c;
            }
        }
        assert_eq!(counts, wc.serial_counts());
    }

    #[test]
    fn map_output_is_sorted_and_unique() {
        let wc = WordCount::synthetic(1000, 8, 7);
        let pairs = wc.cpu_map(0, 0..1000);
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    #[should_panic(expected = "token 9 at position 2 is outside the vocabulary 0..9")]
    fn new_rejects_a_token_outside_the_vocabulary() {
        WordCount::new(Arc::new(vec![0, 8, 9, 12]), 9);
    }

    /// `cpu_map` as it was: a SipHash map of the block, then a sort.
    fn map_by_hash(block: &[u32]) -> Vec<(Key, u64)> {
        let mut local: HashMap<u32, u64> = HashMap::new();
        for &w in block {
            *local.entry(w).or_insert(0) += 1;
        }
        let mut out: Vec<(Key, u64)> = local.into_iter().map(|(w, c)| (w as Key, c)).collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// A vocabulary — one word, smaller than the block, larger, or the
    /// 7·10⁸ that `--clusters` once wrapped to, which no map task may
    /// allocate — and a block of its tokens.
    fn arb_corpus() -> impl Strategy<Value = (u32, Vec<u32>)> {
        prop_oneof![Just(1u32), 2u32..60, 60u32..4000, Just(705_032_704u32)]
            .prop_flat_map(|vocab| (Just(vocab), vec(0..vocab, 0..400)))
    }

    proptest! {
        #[test]
        fn cpu_map_matches_hash_then_sort((vocab, words) in arb_corpus(), cut in (0usize..400, 0usize..400)) {
            let n = words.len();
            let (lo, hi) = (cut.0.min(cut.1).min(n), cut.0.max(cut.1).min(n));
            let wc = WordCount::new(Arc::new(words.clone()), vocab);
            for range in [0..n, lo..hi, lo..lo, lo..(lo + 1).min(n)] {
                prop_assert_eq!(wc.cpu_map(0, range.clone()), map_by_hash(&words[range]));
            }
        }
    }

    #[test]
    fn reduce_and_combine_sum() {
        let wc = WordCount::synthetic(10, 2, 1);
        assert_eq!(wc.reduce(DeviceClass::Cpu, 0, vec![1, 2, 3]), 6);
        assert_eq!(wc.combine(0, vec![4, 5]), vec![9]);
    }

    #[test]
    fn low_intensity_staged_workload() {
        let wc = WordCount::synthetic(10, 2, 1);
        assert!(wc.workload().ai_cpu < 1.0);
        assert_eq!(wc.workload().residency, DataResidency::Staged);
    }
}
