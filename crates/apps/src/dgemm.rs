//! Dense matrix-matrix multiplication — the paper's high-intensity
//! BLAS3 representative, whose arithmetic intensity grows with block size
//! (O(N)); used by the task-granularity and stream ablations (Equations
//! (9)–(11)).

use prs_core::{DeviceClass, Key, SpmdApp};
use prs_data::matrix::MatrixF32;
use rayon::prelude::*;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

/// A contiguous block of output rows of `C`.
#[derive(Debug, Clone, PartialEq)]
pub struct CBlock {
    /// First row of `C` this block covers.
    pub start: usize,
    /// The block itself (`len × n`).
    pub rows: MatrixF32,
}

/// `C = A·B` on the PRS, decomposed by rows of `A`.
pub struct Dgemm {
    pub(crate) a: Arc<MatrixF32>,
    pub(crate) b: Arc<MatrixF32>,
}

impl Dgemm {
    /// Creates the job; inner dimensions must agree.
    pub fn new(a: Arc<MatrixF32>, b: Arc<MatrixF32>) -> Self {
        assert_eq!(a.cols(), b.rows(), "dimension mismatch");
        Dgemm { a, b }
    }

    /// Assembles gathered outputs into the full `C` matrix.
    pub fn assemble(&self, outputs: &[(Key, CBlock)]) -> MatrixF32 {
        let mut c = MatrixF32::zeros(self.a.rows(), self.b.cols());
        for (_, block) in outputs {
            for (i, local) in (0..block.rows.rows()).enumerate() {
                c.row_mut(block.start + i).copy_from_slice(block.rows.row(local));
            }
        }
        c
    }

    fn compute_block(&self, range: Range<usize>) -> CBlock {
        let start = range.start;
        let n = self.b.cols();
        let k = self.a.cols();
        let a = &self.a;
        let b = &self.b;
        let mut rows = MatrixF32::zeros(range.len(), n);
        rows.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(local, crow)| {
                let i = start + local;
                for kk in 0..k {
                    let aik = a.get(i, kk);
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = b.row(kk);
                    for j in 0..n {
                        crow[j] += aik * brow[j];
                    }
                }
            });
        CBlock { start, rows }
    }
}

impl SpmdApp for Dgemm {
    type Inter = CBlock;
    type Output = CBlock;

    fn num_items(&self) -> usize {
        self.a.rows()
    }

    fn item_bytes(&self) -> u64 {
        4 * self.a.cols() as u64
    }

    fn workload(&self) -> Workload {
        // Per row of A (the staged unit): 2·K·N flops over 4·K bytes
        // = N/2 flops/byte — the O(N) BLAS3 intensity.
        let ai = self.b.cols() as f64 / 2.0;
        Workload::uniform(ai, DataResidency::Staged)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, CBlock)> {
        let block = self.compute_block(range);
        vec![(block.start as Key, block)]
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, CBlock)> {
        self.cpu_map(node, range)
    }

    fn reduce(&self, _d: DeviceClass, _key: Key, mut values: Vec<CBlock>) -> CBlock {
        debug_assert_eq!(values.len(), 1);
        values.pop().expect("one block per key")
    }

    fn inter_bytes(&self, value: &CBlock) -> u64 {
        value.rows.bytes() + 8
    }

    fn output_bytes(&self, value: &CBlock) -> u64 {
        self.inter_bytes(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_data::matrix::gemm_seq;
    use prs_data::rng::SplitMix64;

    fn setup(m: usize, k: usize, n: usize) -> (Dgemm, MatrixF32) {
        let mut rng = SplitMix64::new(31);
        let a = Arc::new(MatrixF32::from_fn(m, k, |_, _| rng.next_f32() - 0.5));
        let b = Arc::new(MatrixF32::from_fn(k, n, |_, _| rng.next_f32() - 0.5));
        let mut c = MatrixF32::zeros(m, n);
        gemm_seq(&a, &b, &mut c);
        (Dgemm::new(a, b), c)
    }

    #[test]
    fn blocks_match_reference() {
        let (app, expect) = setup(20, 15, 12);
        let mut outputs = Vec::new();
        for range in [0..7, 7..20] {
            for (key, blk) in app.cpu_map(0, range) {
                outputs.push((key, blk));
            }
        }
        let c = app.assemble(&outputs);
        for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn intensity_grows_with_n() {
        let (small, _) = setup(4, 4, 8);
        let (big, _) = setup(4, 4, 64);
        assert!(big.workload().ai_cpu > small.workload().ai_cpu);
        assert_eq!(big.workload().ai_cpu, 32.0);
    }

    #[test]
    fn inter_bytes_counts_block() {
        let (app, _) = setup(8, 8, 8);
        let (_, blk) = app.cpu_map(0, 0..4).pop().unwrap();
        assert_eq!(app.inter_bytes(&blk), 4 * 4 * 8 + 8);
    }
}
