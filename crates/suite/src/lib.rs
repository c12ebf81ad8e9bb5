//! Anchor crate for the workspace-level `examples/` and `tests/`
//! directories (Cargo requires examples and integration tests to belong
//! to a package; this one exists to host them), and the suites' one test
//! kit: the fixture apps they share and the hashes their pins are
//! written in.
//!
//! - [`HistApp`] — a stateless value histogram whose outputs are integer
//!   counts, independent of device and partitioning, so any divergence
//!   under faults, engines or observers is a real bug, not float noise.
//! - [`ChainApp`] — a histogram whose map output depends on model state
//!   carried across iterations, so a botched restore or a lost update
//!   changes every later iteration's outputs.
//! - [`mix`], [`fnv1a`] and [`fnv_words`] — the hashes those fixtures and
//!   the byte pins use. A pinned constant is a hash of these; changing
//!   one re-captures every pin.
//!
//! A suite builds its fixtures here and keeps at most a one-line local
//! builder with its own constants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use prs_core::{CheckpointableApp, DeviceClass, IterativeApp, Key, SpmdApp};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Arc, RwLock};

/// The splitmix64 finaliser: a fixed bijection on `u64`.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// [`fnv1a`] over each word's little-endian bytes.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

/// Deterministic value histogram: item `i` counts once towards key
/// `i · 2654435761 mod k`. It carries no model state, so its checkpoints
/// are empty and any divergence is the runtime's, not the app's.
///
/// Two switches serve the scheduler pins: `ordered` makes the app define
/// `compare()` and reduce order-sensitively, without a combiner (so an
/// unsorted bucket changes the output), and `reduce_flops` makes one
/// reduce task long enough for a fault to land inside it. Off (`false`,
/// `0.0`), both return exactly the trait defaults.
pub struct HistApp {
    /// Input items.
    pub n: usize,
    /// Distinct keys.
    pub k: u64,
    /// Arithmetic intensity of the map.
    pub ai: f64,
    /// Where the input lives between iterations.
    pub residency: DataResidency,
    /// Bytes per input item.
    pub item_bytes: u64,
    /// Order-sensitive reduce with `compare()` and no combiner.
    pub ordered: bool,
    /// Flops added to every reduce task.
    pub reduce_flops: f64,
}

impl HistApp {
    /// `n` 64-byte items over `k` keys at intensity `ai`, unordered, with
    /// the default reduce cost.
    pub fn new(n: usize, k: u64, ai: f64, residency: DataResidency) -> Self {
        HistApp { n, k, ai, residency, item_bytes: 64, ordered: false, reduce_flops: 0.0 }
    }
}

/// [`HistApp::new`], shared.
pub fn hist(n: usize, k: u64, ai: f64, residency: DataResidency) -> Arc<HistApp> {
    Arc::new(HistApp::new(n, k, ai, residency))
}

impl SpmdApp for HistApp {
    type Inter = u64;
    type Output = u64;
    fn num_items(&self) -> usize {
        self.n
    }
    fn item_bytes(&self) -> u64 {
        self.item_bytes
    }
    fn workload(&self) -> Workload {
        Workload::uniform(self.ai, self.residency)
    }
    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        if self.ordered {
            // Few blocks' worth of distinct values per key, no combiner.
            range.step_by(997).map(|i| (i as u64 % self.k, mix(i as u64) % 1000)).collect()
        } else {
            range.map(|i| ((i as u64 * 2654435761) % self.k, 1)).collect()
        }
    }
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        self.cpu_map(node, range)
    }
    fn reduce(&self, _d: DeviceClass, _k: Key, v: Vec<u64>) -> u64 {
        if self.ordered {
            v.iter().fold(0u64, |h, x| h.rotate_left(5) ^ x)
        } else {
            v.iter().sum()
        }
    }
    fn combine_into(&self, _k: Key, acc: &mut u64, next: u64) -> Option<u64> {
        if self.ordered {
            return Some(next);
        }
        *acc += next;
        None
    }
    fn compare(&self, a: &u64, b: &u64) -> Option<Ordering> {
        self.ordered.then(|| a.cmp(b))
    }
    fn reduce_work(&self, n_values: usize) -> device::WorkProfile {
        let bytes = n_values as f64 * 64.0;
        device::WorkProfile { flops: 2.0 * bytes + self.reduce_flops, dram_bytes: bytes }
    }
}

impl IterativeApp for HistApp {
    fn update(&self, _outputs: &[(Key, u64)]) -> bool {
        false // run to the configured iteration cap
    }
}

impl CheckpointableApp for HistApp {
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore_state(&self, _bytes: &[u8]) {}
}

/// State-chained histogram: map output depends on the model state folded
/// from all previous iterations, so a recovery that restores the wrong
/// checkpoint, or replays an update twice, diverges and stays diverged.
/// The reduce is an order-insensitive wrapping sum, so a recovered run
/// must match the fault-free run bit for bit.
pub struct ChainApp {
    /// Input items.
    pub n: usize,
    /// Distinct keys.
    pub k: u64,
    /// Arithmetic intensity of the (staged) map.
    pub ai: f64,
    /// The model state: what `update` folds and a checkpoint saves.
    pub state: RwLock<u64>,
}

impl ChainApp {
    /// `n` 64-byte items over `k` keys at intensity `ai`, from the fixed
    /// initial state.
    pub fn new(n: usize, k: u64, ai: f64) -> Self {
        ChainApp { n, k, ai, state: RwLock::new(0x9e37_79b9_7f4a_7c15) }
    }
}

/// [`ChainApp::new`] at intensity 50, shared.
pub fn chain(n: usize, k: u64) -> Arc<ChainApp> {
    Arc::new(ChainApp::new(n, k, 50.0))
}

impl SpmdApp for ChainApp {
    type Inter = u64;
    type Output = u64;
    fn num_items(&self) -> usize {
        self.n
    }
    fn item_bytes(&self) -> u64 {
        64
    }
    fn workload(&self) -> Workload {
        Workload::uniform(self.ai, DataResidency::Staged)
    }
    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        let acc = *self.state.read().unwrap();
        range.map(|i| (i as u64 % self.k, mix(i as u64 ^ acc))).collect()
    }
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, u64)> {
        self.cpu_map(node, range)
    }
    fn reduce(&self, _d: DeviceClass, _k: Key, v: Vec<u64>) -> u64 {
        v.iter().fold(0u64, |a, b| a.wrapping_add(*b))
    }
    fn combine_into(&self, _k: Key, acc: &mut u64, next: u64) -> Option<u64> {
        *acc = acc.wrapping_add(next);
        None
    }
}

impl IterativeApp for ChainApp {
    fn update(&self, outputs: &[(Key, u64)]) -> bool {
        let mut s = self.state.write().unwrap();
        for (k, v) in outputs {
            *s = mix(*s ^ k.wrapping_add(v.rotate_left(7)));
        }
        false // run to the configured iteration cap
    }
}

impl CheckpointableApp for ChainApp {
    fn save_state(&self) -> Vec<u8> {
        self.state.read().unwrap().to_le_bytes().to_vec()
    }
    fn restore_state(&self, bytes: &[u8]) {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        *self.state.write().unwrap() = u64::from_le_bytes(buf);
    }
}
