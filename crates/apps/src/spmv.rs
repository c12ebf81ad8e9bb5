//! Sparse matrix-vector multiplication (CSR) — the Figure-4 low band's
//! second representative, and the one application here with *irregular*
//! per-item work: rows have different numbers of nonzeros, so map blocks
//! override [`SpmdApp::map_work`] with their actual flop counts instead
//! of the uniform per-item default.

use prs_core::{DeviceClass, Key, SpmdApp};
use prs_data::rng::SplitMix64;
use rayon::prelude::*;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

/// A CSR (compressed sparse row) matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointer array, length `rows + 1`.
    pub row_ptr: Vec<usize>,
    /// Column index per nonzero.
    pub col_idx: Vec<u32>,
    /// Value per nonzero.
    pub values: Vec<f32>,
}

impl CsrMatrix {
    /// Validates structural invariants; panics with a description on
    /// violation.
    pub fn validate(&self) {
        assert_eq!(self.row_ptr.len(), self.rows + 1, "row_ptr length");
        assert_eq!(self.row_ptr[0], 0, "row_ptr starts at 0");
        assert_eq!(
            *self.row_ptr.last().unwrap(),
            self.values.len(),
            "row_ptr ends at nnz"
        );
        assert_eq!(self.col_idx.len(), self.values.len());
        assert!(
            self.row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr monotone"
        );
        assert!(
            self.col_idx.iter().all(|&c| (c as usize) < self.cols),
            "column indices in range"
        );
    }

    /// Nonzeros in the matrix.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// A random sparse matrix with a skewed (power-law-ish) row-length
    /// distribution: most rows short, a few heavy — the shape that makes
    /// uniform work accounting wrong.
    pub fn synthetic(rows: usize, cols: usize, avg_nnz_per_row: usize, seed: u64) -> Self {
        assert!(cols > 0 && avg_nnz_per_row > 0);
        let mut rng = SplitMix64::new(seed ^ 0x5B);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for _ in 0..rows {
            // Row length ~ avg/2 .. 4*avg with a heavy tail.
            let u = rng.next_f64();
            let len = if u < 0.9 {
                1 + rng.next_below(avg_nnz_per_row as u64) as usize
            } else {
                avg_nnz_per_row * (2 + rng.next_below(6) as usize)
            };
            let len = len.min(cols);
            for _ in 0..len {
                col_idx.push(rng.next_below(cols as u64) as u32);
                values.push(rng.next_f32() - 0.5);
            }
            row_ptr.push(values.len());
        }
        let m = CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        m.validate();
        m
    }

    /// Serial reference `y = A x`.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                let mut acc = 0.0f64;
                for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                    acc += self.values[i] as f64 * x[self.col_idx[i] as usize] as f64;
                }
                acc as f32
            })
            .collect()
    }
}

/// A contiguous block of the output vector (same shape as GEMV's).
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvBlock {
    /// First row this block covers.
    pub start: usize,
    /// The computed components.
    pub values: Vec<f32>,
}

/// `y = A x` with CSR `A`, on the PRS.
pub struct Spmv {
    pub(crate) a: Arc<CsrMatrix>,
    pub(crate) x: Arc<Vec<f32>>,
}

impl Spmv {
    /// Creates the job; `x.len()` must equal `a.cols`.
    pub fn new(a: Arc<CsrMatrix>, x: Arc<Vec<f32>>) -> Self {
        assert_eq!(a.cols, x.len(), "dimension mismatch");
        a.validate();
        Spmv { a, x }
    }

    /// Assembles gathered outputs into the full result vector.
    pub fn assemble(&self, outputs: &[(Key, SpmvBlock)]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.a.rows];
        for (_, block) in outputs {
            y[block.start..block.start + block.values.len()].copy_from_slice(&block.values);
        }
        y
    }
}

impl SpmdApp for Spmv {
    type Inter = SpmvBlock;
    type Output = SpmvBlock;

    fn num_items(&self) -> usize {
        self.a.rows
    }

    fn item_bytes(&self) -> u64 {
        // Average bytes per row: 8 bytes per nonzero (value + index) plus
        // the row pointer.
        (8 * self.a.nnz() / self.a.rows.max(1) + 8) as u64
    }

    fn workload(&self) -> Workload {
        // 2 flops per 8-byte CSR entry = 0.25 flops/byte (Figure 4).
        Workload::uniform(0.25, DataResidency::Staged)
    }

    fn map_work(&self, items: usize) -> device::WorkProfile {
        // Uniform fallback used by the scheduler for sizing; the actual
        // per-block charge comes from the runtime calling this with the
        // block's item count — approximate with average density. Real
        // irregularity shows up through the block-specific `cpu_map`
        // outputs, and this average keeps totals exact.
        let avg_nnz = self.a.nnz() as f64 / self.a.rows.max(1) as f64;
        let flops = 2.0 * avg_nnz * items as f64;
        device::WorkProfile {
            flops,
            dram_bytes: flops / 0.25,
        }
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, SpmvBlock)> {
        let a = &self.a;
        let x = &self.x;
        let start = range.start;
        let values: Vec<f32> = range
            .into_par_iter()
            .map(|r| {
                let mut acc = 0.0f64;
                for i in a.row_ptr[r]..a.row_ptr[r + 1] {
                    acc += a.values[i] as f64 * x[a.col_idx[i] as usize] as f64;
                }
                acc as f32
            })
            .collect();
        vec![(start as Key, SpmvBlock { start, values })]
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, SpmvBlock)> {
        self.cpu_map(node, range)
    }

    fn reduce(&self, _d: DeviceClass, _key: Key, mut values: Vec<SpmvBlock>) -> SpmvBlock {
        debug_assert_eq!(values.len(), 1);
        values.pop().expect("one block per key")
    }

    fn inter_bytes(&self, value: &SpmvBlock) -> u64 {
        4 * value.values.len() as u64 + 8
    }

    fn output_bytes(&self, value: &SpmvBlock) -> u64 {
        self.inter_bytes(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix {
            rows: 3,
            cols: 3,
            row_ptr: vec![0, 2, 2, 4],
            col_idx: vec![0, 2, 0, 1],
            values: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    #[test]
    fn reference_spmv_known_values() {
        let m = small();
        m.validate();
        let y = m.spmv_ref(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn synthetic_matrix_is_valid_and_skewed() {
        let m = CsrMatrix::synthetic(2000, 500, 8, 3);
        m.validate();
        // Skew: the max row is much heavier than the average.
        let lens: Vec<usize> = (0..m.rows).map(|r| m.row_ptr[r + 1] - m.row_ptr[r]).collect();
        let avg = m.nnz() as f64 / m.rows as f64;
        let max = *lens.iter().max().unwrap() as f64;
        assert!(max > 2.0 * avg, "max {max} vs avg {avg}");
    }

    #[test]
    fn app_block_matches_reference() {
        let m = Arc::new(CsrMatrix::synthetic(300, 100, 5, 7));
        let x: Arc<Vec<f32>> = Arc::new((0..100).map(|i| (i as f32).cos()).collect());
        let expect = m.spmv_ref(&x);
        let app = Spmv::new(m, x);
        let mut outputs = Vec::new();
        for range in [0..120, 120..300] {
            for (k, b) in app.cpu_map(0, range) {
                outputs.push((k, b));
            }
        }
        assert_eq!(app.assemble(&outputs), expect);
    }

    #[test]
    fn map_work_totals_are_exact_over_any_partition() {
        // Summing map_work over disjoint equal-size blocks equals the
        // whole-range work (average-density accounting is additive).
        let m = Arc::new(CsrMatrix::synthetic(1000, 200, 6, 9));
        let x: Arc<Vec<f32>> = Arc::new(vec![1.0; 200]);
        let app = Spmv::new(m, x);
        let whole = app.map_work(1000);
        let parts: f64 = (0..10).map(|_| app.map_work(100).flops).sum();
        assert!((whole.flops - parts).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "column indices in range")]
    fn validate_catches_bad_column() {
        let mut m = small();
        m.col_idx[0] = 99;
        m.validate();
    }

    #[test]
    fn low_intensity_staged_workload() {
        let m = Arc::new(CsrMatrix::synthetic(100, 50, 4, 1));
        let app = Spmv::new(m, Arc::new(vec![0.0; 50]));
        assert_eq!(app.workload().ai_cpu, 0.25);
        assert_eq!(app.workload().residency, DataResidency::Staged);
    }
}
