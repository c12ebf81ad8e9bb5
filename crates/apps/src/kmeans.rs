//! K-means clustering — the paper's point of comparison for C-means
//! (Figure 5) and the "similar performance ratios" remark in §IV.A.1.
//! Hard assignments, otherwise the same PRS structure as C-means.

use crate::common::{
    max_center_shift, panel_block_fold, panel_labels, random_centers, CenterPanel, ClusterPartial,
};
use parking_lot::RwLock;
use prs_core::{DeviceClass, IterativeApp, Key, SpmdApp};
use prs_data::matrix::{sq_dist, MatrixF32};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

const CHUNK: usize = 4096;

struct State {
    centers: MatrixF32,
    sse: Vec<f64>,
    last_shift: f64,
}

/// K-means on the PRS.
pub struct KMeans {
    points: Arc<MatrixF32>,
    k: usize,
    epsilon: f64,
    state: RwLock<State>,
}

impl KMeans {
    /// Creates a K-means instance with random-point initialization.
    pub fn new(points: Arc<MatrixF32>, k: usize, epsilon: f64, seed: u64) -> Self {
        assert!(k >= 1 && k < points.rows());
        let centers = random_centers(&points, k, seed);
        KMeans {
            points,
            k,
            epsilon,
            state: RwLock::new(State {
                centers,
                sse: Vec::new(),
                last_shift: f64::INFINITY,
            }),
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Snapshot of the current centers.
    pub fn centers(&self) -> MatrixF32 {
        self.state.read().centers.clone()
    }

    /// Sum of squared errors after each iteration.
    pub fn sse_history(&self) -> Vec<f64> {
        self.state.read().sse.clone()
    }

    /// Index of the nearest center to `point` and its squared distance.
    /// A one-point wrapper over the center panel the map task uses.
    pub fn nearest(centers: &MatrixF32, point: &[f32]) -> (usize, f64) {
        first_minimum(&CenterPanel::of_point(centers, point).d2)
    }

    /// Hard labels for a matrix of points.
    pub fn labels(&self, points: &MatrixF32) -> Vec<u32> {
        let panel = CenterPanel::new(&self.state.read().centers);
        panel_labels(&panel, points, |s| first_minimum(&s.d2).0)
    }

    fn block_partials(&self, range: Range<usize>) -> (Vec<ClusterPartial>, f64) {
        let panel = CenterPanel::new(&self.state.read().centers);
        panel_block_fold(&self.points, &panel, range, CHUNK, |s, sums, sse| {
            let (j, dist) = first_minimum(&s.d2);
            sums.add(j, 1.0, &s.xf);
            *sse += dist;
        })
    }

    fn obj_key(&self) -> Key {
        self.k as Key
    }
}

/// The smallest of `d2` and its index; the first one wins a tie.
fn first_minimum(d2: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (j, &d) in d2.iter().enumerate() {
        if d < best.1 {
            best = (j, d);
        }
    }
    best
}

impl SpmdApp for KMeans {
    type Inter = ClusterPartial;
    type Output = ClusterPartial;

    fn num_items(&self) -> usize {
        self.points.rows()
    }

    fn item_bytes(&self) -> u64 {
        4 * self.points.cols() as u64
    }

    fn workload(&self) -> Workload {
        // ~3 flops per center per 4-byte coordinate (distance accumulate),
        // resident like C-means.
        Workload::uniform(0.75 * self.k as f64, DataResidency::Resident)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, ClusterPartial)> {
        let (partials, sse) = self.block_partials(range);
        let mut out: Vec<(Key, ClusterPartial)> = partials
            .into_iter()
            .enumerate()
            .map(|(j, p)| (j as Key, p))
            .collect();
        let mut obj = ClusterPartial::zero(1);
        obj.add(sse, &[1.0]);
        out.push((self.obj_key(), obj));
        out
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, ClusterPartial)> {
        self.cpu_map(node, range)
    }

    fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<ClusterPartial>) -> ClusterPartial {
        let mut acc = values[0].clone();
        for v in &values[1..] {
            acc.merge(v);
        }
        acc
    }

    fn combine(&self, _key: Key, values: Vec<ClusterPartial>) -> Vec<ClusterPartial> {
        let mut acc = values[0].clone();
        for v in &values[1..] {
            acc.merge(v);
        }
        vec![acc]
    }

    fn inter_bytes(&self, value: &ClusterPartial) -> u64 {
        value.wire_bytes()
    }

    fn output_bytes(&self, value: &ClusterPartial) -> u64 {
        value.wire_bytes()
    }
}

impl IterativeApp for KMeans {
    fn update(&self, outputs: &[(Key, ClusterPartial)]) -> bool {
        let mut state = self.state.write();
        let old = state.centers.clone();
        let mut new_centers = old.clone();
        let mut sse = 0.0;
        for (key, partial) in outputs {
            let j = *key as usize;
            if j == self.k {
                sse = partial.weighted_sum[0];
            } else if let Some(c) = partial.center() {
                for (dst, &v) in new_centers.row_mut(j).iter_mut().zip(&c) {
                    *dst = v as f32;
                }
            }
        }
        let shift = max_center_shift(&old, &new_centers);
        state.centers = new_centers;
        state.sse.push(sse);
        state.last_shift = shift;
        shift < self.epsilon
    }
}

/// Single-threaded reference K-means.
pub fn serial_kmeans(
    points: &MatrixF32,
    k: usize,
    epsilon: f64,
    seed: u64,
    max_iters: usize,
) -> (MatrixF32, Vec<f64>) {
    let d = points.cols();
    let mut centers = random_centers(points, k, seed);
    let mut history = Vec::new();
    for _ in 0..max_iters {
        let mut partials = vec![ClusterPartial::zero(d); k];
        let mut sse = 0.0;
        for i in 0..points.rows() {
            let x = points.row(i);
            // The naive formulation, deliberately not the center panel:
            // this is the reference the panel is checked against.
            let (mut j, mut dist) = (0usize, f64::INFINITY);
            for c in 0..k {
                let dc = sq_dist(x, centers.row(c));
                if dc < dist {
                    (j, dist) = (c, dc);
                }
            }
            partials[j].add(1.0, x);
            sse += dist;
        }
        let old = centers.clone();
        for (j, p) in partials.iter().enumerate() {
            if let Some(c) = p.center() {
                for (dst, &v) in centers.row_mut(j).iter_mut().zip(&c) {
                    *dst = v as f32;
                }
            }
        }
        history.push(sse);
        if max_center_shift(&old, &centers) < epsilon {
            break;
        }
    }
    (centers, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_data::gaussian::MixtureSpec;

    fn ring_points(n: usize) -> Arc<MatrixF32> {
        let spec = MixtureSpec::ring(4, 2, 40.0, 1.0);
        Arc::new(prs_data::generate(&spec, n, 11).points)
    }

    #[test]
    fn nearest_picks_minimum() {
        let centers = MatrixF32::from_vec(3, 1, vec![0.0, 10.0, 20.0]);
        let (j, d) = KMeans::nearest(&centers, &[12.0]);
        assert_eq!(j, 1);
        assert_eq!(d, 4.0);
    }

    #[test]
    fn serial_sse_is_nonincreasing() {
        let pts = ring_points(800);
        let (_, history) = serial_kmeans(&pts, 4, 1e-4, 3, 50);
        for w in history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9));
        }
    }

    #[test]
    fn serial_recovers_separated_clusters() {
        let pts = ring_points(2000);
        let (centers, _) = serial_kmeans(&pts, 4, 1e-4, 3, 100);
        for idx in 0..4 {
            let angle = 2.0 * std::f64::consts::PI * idx as f64 / 4.0;
            let truth = [40.0 * angle.cos(), 40.0 * angle.sin()];
            let best = (0..4)
                .map(|j| {
                    let c = centers.row(j);
                    ((c[0] as f64 - truth[0]).powi(2) + (c[1] as f64 - truth[1]).powi(2)).sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(best < 2.0, "cluster {idx} missed by {best}");
        }
    }

    #[test]
    fn partials_split_merge_consistency() {
        let pts = ring_points(300);
        let app = KMeans::new(pts, 4, 1e-4, 5);
        let (whole, sse_whole) = app.block_partials(0..300);
        let (a, sse_a) = app.block_partials(0..123);
        let (b, sse_b) = app.block_partials(123..300);
        for j in 0..4 {
            let mut m = a[j].clone();
            m.merge(&b[j]);
            assert!((m.weight - whole[j].weight).abs() < 1e-9);
        }
        assert!((sse_a + sse_b - sse_whole).abs() < 1e-6 * sse_whole.max(1.0));
    }

    #[test]
    fn counts_are_conserved() {
        // Hard assignment: total weight equals the number of points.
        let pts = ring_points(500);
        let app = KMeans::new(pts, 4, 1e-4, 5);
        let (partials, _) = app.block_partials(0..500);
        let total: f64 = partials.iter().map(|p| p.weight).sum();
        assert_eq!(total, 500.0);
    }

    #[test]
    fn labels_cover_all_clusters_on_separated_data() {
        let pts = ring_points(2000);
        let app = KMeans::new(pts.clone(), 4, 1e-4, 3);
        // Run a few serial-equivalent updates through the app interface.
        for _ in 0..20 {
            let outputs: Vec<(Key, ClusterPartial)> = app
                .cpu_map(0, 0..2000)
                .into_iter()
                .collect();
            // Merge duplicate keys like reduce would.
            let mut merged: std::collections::BTreeMap<Key, ClusterPartial> =
                std::collections::BTreeMap::new();
            for (k, v) in outputs {
                merged
                    .entry(k)
                    .and_modify(|acc| acc.merge(&v))
                    .or_insert(v);
            }
            let outs: Vec<(Key, ClusterPartial)> = merged.into_iter().collect();
            if app.update(&outs) {
                break;
            }
        }
        let labels = app.labels(&pts);
        let mut seen = [false; 4];
        for &l in &labels {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
