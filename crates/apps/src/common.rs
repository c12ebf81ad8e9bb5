//! Shared helpers for the clustering applications: deterministic
//! rayon-parallel partial sums, center bookkeeping, and the **center
//! panel** — the one point–center distance kernel C-means, K-means and
//! deterministic annealing share.
//!
//! The panel changes the *layout* of the computation, never its
//! arithmetic: every squared distance still adds its `d` terms in
//! dimension order, every partial sum still adds its points in index
//! order, chunks still merge in index order. Its output is therefore
//! bit-identical to the naive `sq_dist`-per-center formulation that
//! survives in `serial_cmeans` / `serial_kmeans` (DESIGN.md, "Kernel
//! numerics contract").

use prs_data::matrix::MatrixF32;
use prs_data::rng::SplitMix64;
use rayon::prelude::*;
use std::ops::Range;

/// Deterministic parallel fold over fixed chunks of `range`: each chunk is
/// processed independently, then chunk results are combined **in index
/// order**, so the floating-point result is independent of thread
/// scheduling.
pub fn par_block_fold<T, FMap, FMerge>(
    range: Range<usize>,
    chunk: usize,
    map: FMap,
    zero: T,
    merge: FMerge,
) -> T
where
    T: Send,
    FMap: Fn(Range<usize>) -> T + Send + Sync,
    FMerge: Fn(T, T) -> T,
{
    assert!(chunk > 0);
    let chunks: Vec<Range<usize>> = {
        let mut v = Vec::new();
        let mut start = range.start;
        while start < range.end {
            let end = (start + chunk).min(range.end);
            v.push(start..end);
            start = end;
        }
        v
    };
    let partials: Vec<T> = chunks.into_par_iter().map(map).collect();
    partials.into_iter().fold(zero, merge)
}

/// Per-cluster accumulator used by C-means/K-means/GMM partial sums: a
/// weighted coordinate sum and the total weight, plus an objective term.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPartial {
    /// Σ w·x, length `d`.
    pub weighted_sum: Vec<f64>,
    /// Σ w.
    pub weight: f64,
}

impl ClusterPartial {
    /// A zeroed accumulator of dimension `d`.
    pub fn zero(d: usize) -> Self {
        ClusterPartial {
            weighted_sum: vec![0.0; d],
            weight: 0.0,
        }
    }

    /// Adds `w · x`.
    pub fn add(&mut self, w: f64, x: &[f32]) {
        debug_assert_eq!(x.len(), self.weighted_sum.len());
        for (s, &xi) in self.weighted_sum.iter_mut().zip(x) {
            *s += w * xi as f64;
        }
        self.weight += w;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ClusterPartial) {
        debug_assert_eq!(self.weighted_sum.len(), other.weighted_sum.len());
        for (a, b) in self.weighted_sum.iter_mut().zip(&other.weighted_sum) {
            *a += b;
        }
        self.weight += other.weight;
    }

    /// The center this accumulator implies, or `None` if it is empty.
    pub fn center(&self) -> Option<Vec<f64>> {
        if self.weight <= 0.0 {
            return None;
        }
        Some(self.weighted_sum.iter().map(|s| s / self.weight).collect())
    }

    /// Serialized wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        (self.weighted_sum.len() as u64 + 1) * 8
    }
}

/// `k` centers widened to `f64` and stored dimension-major
/// (`ct[c * stride + j]` is coordinate `c` of center `j`), so the squared
/// distances from one point to *all* centers accumulate side by side.
/// Built once per map task.
pub(crate) struct CenterPanel {
    k: usize,
    d: usize,
    /// `k` rounded up to a whole number of [`LANES`] groups; the padding
    /// centers sit at the origin and their distances are discarded.
    stride: usize,
    ct: Vec<f64>,
}

/// Centers whose distances accumulate together, in registers, over the
/// whole dimension loop.
const LANES: usize = 4;

/// Per-chunk scratch of a [`CenterPanel`]: the widened point, its squared
/// distance to every center, and one `k`-long buffer for whatever weights
/// the app derives from the distances.
pub(crate) struct PanelScratch {
    /// The current point, widened to `f64`; length `d`.
    pub(crate) xf: Vec<f64>,
    /// Squared distance to each center; length `k`.
    pub(crate) d2: Vec<f64>,
    /// App-defined weights (memberships, responsibilities); length `k`.
    pub(crate) u: Vec<f64>,
}

impl CenterPanel {
    /// Widens and transposes `centers`.
    pub(crate) fn new(centers: &MatrixF32) -> Self {
        let (k, d) = (centers.rows(), centers.cols());
        // At least one group, so the row stride is never zero.
        let stride = k.next_multiple_of(LANES).max(LANES);
        let mut ct = vec![0.0; stride * d];
        for j in 0..k {
            for (c, &v) in centers.row(j).iter().enumerate() {
                ct[c * stride + j] = v as f64;
            }
        }
        CenterPanel { k, d, stride, ct }
    }

    /// The filled scratch of one `point` against `centers`, for the
    /// apps' one-point public helpers.
    pub(crate) fn of_point(centers: &MatrixF32, point: &[f32]) -> PanelScratch {
        let panel = CenterPanel::new(centers);
        let mut s = panel.scratch();
        panel.sq_dists(point, &mut s);
        s
    }

    /// Zeroed scratch of this panel's shape.
    pub(crate) fn scratch(&self) -> PanelScratch {
        PanelScratch {
            xf: vec![0.0; self.d],
            d2: vec![0.0; self.k],
            u: vec![0.0; self.k],
        }
    }

    /// Widens `point` into `s.xf` and fills `s.d2` with its squared
    /// distance to every center. The dimension loop is outside and the
    /// center loop inside: each `d2[j]` adds its terms in dimension order
    /// `0..d` exactly as `sq_dist` does, the chains of one lane group just
    /// run together.
    pub(crate) fn sq_dists(&self, point: &[f32], s: &mut PanelScratch) {
        assert_eq!(point.len(), self.d);
        for (w, &x) in s.xf.iter_mut().zip(point) {
            *w = x as f64;
        }
        for (j0, d2) in (0..self.stride).step_by(LANES).zip(s.d2.chunks_mut(LANES)) {
            let mut acc = [0.0f64; LANES];
            for (&x, row) in s.xf.iter().zip(self.ct.chunks_exact(self.stride)) {
                for (a, &cj) in acc.iter_mut().zip(&row[j0..j0 + LANES]) {
                    let diff = x - cj;
                    *a += diff * diff;
                }
            }
            d2.copy_from_slice(&acc[..d2.len()]);
        }
    }
}

/// The `k` per-cluster accumulators of one map task as one flat `k × d`
/// block; the same arithmetic as `k` [`ClusterPartial`]s.
pub(crate) struct BlockSums {
    d: usize,
    sums: Vec<f64>,
    weights: Vec<f64>,
}

impl BlockSums {
    /// Zeroed accumulators for `k` clusters of dimension `d`.
    pub(crate) fn zero(k: usize, d: usize) -> Self {
        BlockSums {
            d,
            sums: vec![0.0; k * d],
            weights: vec![0.0; k],
        }
    }

    /// Adds `w · xf` to cluster `j` (as [`ClusterPartial::add`], for a
    /// point already widened).
    pub(crate) fn add(&mut self, j: usize, w: f64, xf: &[f64]) {
        debug_assert_eq!(xf.len(), self.d);
        for (s, &x) in self.sums[j * self.d..(j + 1) * self.d].iter_mut().zip(xf) {
            *s += w * x;
        }
        self.weights[j] += w;
    }

    /// Merges another block into this one (as [`ClusterPartial::merge`]).
    pub(crate) fn merge(&mut self, other: &BlockSums) {
        debug_assert_eq!(self.sums.len(), other.sums.len());
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        for (a, b) in self.weights.iter_mut().zip(&other.weights) {
            *a += b;
        }
    }

    /// One [`ClusterPartial`] per cluster, in cluster order.
    pub(crate) fn into_partials(self) -> Vec<ClusterPartial> {
        let d = self.d;
        self.weights
            .iter()
            .enumerate()
            .map(|(j, &weight)| ClusterPartial {
                weighted_sum: self.sums[j * d..(j + 1) * d].to_vec(),
                weight,
            })
            .collect()
    }
}

/// The map task of a center-based app: per-cluster partial sums over
/// `range` plus one scalar objective. `point` is called once per input
/// point, in index order within a chunk, with `s.xf` / `s.d2` already
/// filled; it adds the point's contribution to the sums and the
/// objective. Chunks of `chunk` points are merged in index order.
pub(crate) fn panel_block_fold<F>(
    points: &MatrixF32,
    panel: &CenterPanel,
    range: Range<usize>,
    chunk: usize,
    point: F,
) -> (Vec<ClusterPartial>, f64)
where
    F: Fn(&mut PanelScratch, &mut BlockSums, &mut f64) + Send + Sync,
{
    let (k, d) = (panel.k, panel.d);
    let (sums, objective) = par_block_fold(
        range,
        chunk,
        |chunk| {
            let mut s = panel.scratch();
            let mut sums = BlockSums::zero(k, d);
            let mut objective = 0.0;
            for i in chunk {
                panel.sq_dists(points.row(i), &mut s);
                point(&mut s, &mut sums, &mut objective);
            }
            (sums, objective)
        },
        (BlockSums::zero(k, d), 0.0),
        |(mut acc, aobj), (part, pobj)| {
            acc.merge(&part);
            (acc, aobj + pobj)
        },
    );
    (sums.into_partials(), objective)
}

/// Hard labels for every row of `points`: `pick` sees the scratch with
/// `s.d2` filled and returns the row's cluster.
pub(crate) fn panel_labels<F>(panel: &CenterPanel, points: &MatrixF32, mut pick: F) -> Vec<u32>
where
    F: FnMut(&mut PanelScratch) -> usize,
{
    let mut s = panel.scratch();
    (0..points.rows())
        .map(|i| {
            panel.sq_dists(points.row(i), &mut s);
            pick(&mut s) as u32
        })
        .collect()
}

/// Picks `k` distinct random rows of `points` as initial centers
/// (deterministic in `seed`).
pub fn random_centers(points: &MatrixF32, k: usize, seed: u64) -> MatrixF32 {
    let n = points.rows();
    assert!(k <= n, "cannot pick {k} centers from {n} points");
    let mut rng = SplitMix64::new(seed ^ 0xCE117E85);
    let mut picked = Vec::with_capacity(k);
    let mut seen = std::collections::HashSet::new();
    while picked.len() < k {
        let idx = rng.next_below(n as u64) as usize;
        if seen.insert(idx) {
            picked.push(idx);
        }
    }
    let mut centers = MatrixF32::zeros(k, points.cols());
    for (j, &idx) in picked.iter().enumerate() {
        centers.row_mut(j).copy_from_slice(points.row(idx));
    }
    centers
}

/// Max per-coordinate movement between two center matrices — the
/// convergence criterion (a center-based stand-in for the paper's
/// max |u_ij^(k+1) − u_ij^(k)| membership criterion; see DESIGN.md).
pub fn max_center_shift(old: &MatrixF32, new: &MatrixF32) -> f64 {
    assert_eq!(old.rows(), new.rows());
    assert_eq!(old.cols(), new.cols());
    old.as_slice()
        .iter()
        .zip(new.as_slice())
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_data::matrix::sq_dist;

    #[test]
    fn par_fold_is_deterministic_and_correct() {
        let sum = |r: Range<usize>| r.map(|i| i as f64).sum::<f64>();
        let a = par_block_fold(0..10_000, 97, sum, 0.0, |x, y| x + y);
        let b = par_block_fold(0..10_000, 97, sum, 0.0, |x, y| x + y);
        assert_eq!(a, b);
        assert_eq!(a, (0..10_000u64).sum::<u64>() as f64);
    }

    #[test]
    fn par_fold_respects_chunk_order() {
        // Collect chunk starts in merge order: must be ascending.
        let starts = par_block_fold(
            0..100,
            7,
            |r| vec![r.start],
            Vec::new(),
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn cluster_partial_accumulates() {
        let mut p = ClusterPartial::zero(2);
        p.add(2.0, &[1.0, 3.0]);
        p.add(1.0, &[4.0, 0.0]);
        assert_eq!(p.weight, 3.0);
        assert_eq!(p.weighted_sum, vec![6.0, 6.0]);
        assert_eq!(p.center(), Some(vec![2.0, 2.0]));
        assert_eq!(p.wire_bytes(), 24);
    }

    #[test]
    fn panel_distances_equal_sq_dist_bit_for_bit() {
        let mut rng = SplitMix64::new(3);
        for (k, d) in [(1, 1), (3, 7), (8, 32), (12, 40)] {
            let centers = MatrixF32::from_fn(k, d, |_, _| rng.next_normal() as f32 * 4.0);
            let panel = CenterPanel::new(&centers);
            let mut s = panel.scratch();
            for _ in 0..200 {
                let x: Vec<f32> = (0..d).map(|_| rng.next_normal() as f32 * 4.0).collect();
                panel.sq_dists(&x, &mut s);
                for j in 0..k {
                    assert_eq!(s.d2[j].to_bits(), sq_dist(&x, centers.row(j)).to_bits());
                }
            }
        }
    }

    #[test]
    fn block_sums_equal_cluster_partials_bit_for_bit() {
        let mut rng = SplitMix64::new(4);
        let (k, d) = (3, 5);
        let mut sums = BlockSums::zero(k, d);
        let mut partials = vec![ClusterPartial::zero(d); k];
        for i in 0..100 {
            let x: Vec<f32> = (0..d).map(|_| rng.next_normal() as f32).collect();
            let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            let w = rng.next_f64();
            sums.add(i % k, w, &xf);
            partials[i % k].add(w, &x);
        }
        let mut twice = BlockSums::zero(k, d);
        twice.merge(&sums);
        twice.merge(&sums);
        let mut merged = vec![ClusterPartial::zero(d); k];
        for (m, p) in merged.iter_mut().zip(&partials) {
            m.merge(p);
            m.merge(p);
        }
        assert_eq!(sums.into_partials(), partials);
        assert_eq!(twice.into_partials(), merged);
    }

    #[test]
    fn empty_partial_has_no_center() {
        assert_eq!(ClusterPartial::zero(3).center(), None);
    }

    #[test]
    fn merge_equals_sequential_adds() {
        let mut a = ClusterPartial::zero(1);
        a.add(1.0, &[2.0]);
        let mut b = ClusterPartial::zero(1);
        b.add(3.0, &[4.0]);
        a.merge(&b);
        assert_eq!(a.weight, 4.0);
        assert_eq!(a.weighted_sum, vec![14.0]);
    }

    #[test]
    fn random_centers_are_rows_of_input() {
        let pts = MatrixF32::from_fn(10, 2, |r, c| (r * 2 + c) as f32);
        let centers = random_centers(&pts, 3, 1);
        assert_eq!(centers.rows(), 3);
        for j in 0..3 {
            let row = centers.row(j);
            assert!((0..10).any(|i| pts.row(i) == row));
        }
        // Distinct rows.
        assert_ne!(centers.row(0), centers.row(1));
    }

    #[test]
    fn center_shift_metric() {
        let a = MatrixF32::from_vec(1, 2, vec![0.0, 0.0]);
        let b = MatrixF32::from_vec(1, 2, vec![0.5, -2.0]);
        assert_eq!(max_center_shift(&a, &b), 2.0);
        assert_eq!(max_center_shift(&a, &a), 0.0);
    }
}
