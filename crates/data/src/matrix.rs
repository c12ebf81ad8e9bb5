//! Dense single-precision matrices and the BLAS-style kernels the
//! applications are built from. Row-major storage; `f64` accumulators for
//! reductions so results are robust and (with fixed chunking) deterministic
//! under parallel execution.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixF32 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        MatrixF32 { rows, cols, data }
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        MatrixF32 { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a 0-element matrix.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes (for `WorkProfile` accounting).
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The flat backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat backing slice, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A sub-matrix containing rows `lo..hi` (copied).
    pub fn rows_slice(&self, lo: usize, hi: usize) -> MatrixF32 {
        assert!(lo <= hi && hi <= self.rows);
        MatrixF32 {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Transpose (copied).
    pub fn transpose(&self) -> MatrixF32 {
        let mut t = MatrixF32::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }
}

/// Dot product with an `f64` accumulator.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum::<f64>()
}

/// Squared Euclidean distance.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
}

/// Sequential GEMV: `y = A x`. Reference implementation.
pub fn gemv_seq(a: &MatrixF32, x: &[f32], y: &mut [f32]) {
    assert_eq!(a.cols(), x.len());
    assert_eq!(a.rows(), y.len());
    for (r, yr) in y.iter_mut().enumerate() {
        *yr = dot(a.row(r), x) as f32;
    }
}

/// Parallel GEMV with deterministic per-row results (each output element is
/// computed by exactly one task, so the float result is scheduling-independent).
pub fn gemv_par(a: &MatrixF32, x: &[f32], y: &mut [f32]) {
    assert_eq!(a.cols(), x.len());
    assert_eq!(a.rows(), y.len());
    let cols = a.cols();
    y.par_iter_mut().enumerate().for_each(|(r, yr)| {
        let row = &a.as_slice()[r * cols..(r + 1) * cols];
        *yr = dot(row, x) as f32;
    });
}

/// Sequential GEMM: `C = A B`. Reference implementation (ikj loop order).
pub fn gemm_seq(a: &MatrixF32, b: &MatrixF32, c: &mut MatrixF32) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    c.as_mut_slice().fill(0.0);
    let n = b.cols();
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            let brow = b.row(k);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
}

/// Parallel GEMM over output rows; per-row results are deterministic.
pub fn gemm_par(a: &MatrixF32, b: &MatrixF32, c: &mut MatrixF32) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    let n = b.cols();
    let k_dim = a.cols();
    let a_slice = a.as_slice();
    let b_slice = b.as_slice();
    c.as_mut_slice()
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, crow)| {
            crow.fill(0.0);
            for k in 0..k_dim {
                let aik = a_slice[i * k_dim + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b_slice[k * n..(k + 1) * n];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> MatrixF32 {
        let mut rng = SplitMix64::new(seed);
        MatrixF32::from_fn(rows, cols, |_, _| rng.next_f32() - 0.5)
    }

    #[test]
    fn constructors_and_accessors() {
        let m = MatrixF32::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_checks_size() {
        let _ = MatrixF32::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = random_matrix(5, 7, 1);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn rows_slice_extracts_contiguous_rows() {
        let m = MatrixF32::from_fn(4, 2, |r, _| r as f32);
        let s = m.rows_slice(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert_eq!(s.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn gemv_par_matches_seq() {
        let a = random_matrix(64, 33, 2);
        let x: Vec<f32> = (0..33).map(|i| (i as f32).sin()).collect();
        let mut y1 = vec![0.0; 64];
        let mut y2 = vec![0.0; 64];
        gemv_seq(&a, &x, &mut y1);
        gemv_par(&a, &x, &mut y2);
        assert_eq!(y1, y2, "per-row determinism makes these bit-equal");
    }

    #[test]
    fn gemm_par_matches_seq() {
        let a = random_matrix(17, 23, 3);
        let b = random_matrix(23, 11, 4);
        let mut c1 = MatrixF32::zeros(17, 11);
        let mut c2 = MatrixF32::zeros(17, 11);
        gemm_seq(&a, &b, &mut c1);
        gemm_par(&a, &b, &mut c2);
        for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = random_matrix(8, 8, 5);
        let eye = MatrixF32::from_fn(8, 8, |r, c| if r == c { 1.0 } else { 0.0 });
        let mut c = MatrixF32::zeros(8, 8);
        gemm_seq(&a, &eye, &mut c);
        assert_eq!(c, a);
    }

    #[test]
    fn gemv_known_values() {
        let a = MatrixF32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = vec![0.0; 2];
        gemv_seq(&a, &[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn dot_and_distance() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
