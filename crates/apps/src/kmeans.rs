//! K-means clustering — the paper's point of comparison for C-means
//! (Figure 5) and the "similar performance ratios" remark in §IV.A.1.
//! The [`Nearest`] rule over the shared [`Centers`] app: hard
//! assignments, otherwise the same PRS structure as C-means.

use crate::centers::{Centers, Rule};
use crate::common::{random_centers, serial_iterate, BlockSums, CenterPanel, PanelScratch};
use prs_data::matrix::{sq_dist, MatrixF32};
use std::sync::Arc;

/// K-means on the PRS.
pub type KMeans = Centers<Nearest>;

/// The K-means rule: every point belongs wholly to its nearest center.
pub struct Nearest;

impl KMeans {
    /// Creates a K-means instance with random-point initialization.
    pub fn new(points: Arc<MatrixF32>, k: usize, epsilon: f64, seed: u64) -> Self {
        let centers = random_centers(&points, k, seed);
        Centers::with_rule(points, centers, epsilon, Nearest, ())
    }

    /// Index of the nearest center to `point` and its squared distance.
    /// A one-point wrapper over the center panel the map task uses.
    pub fn nearest(centers: &MatrixF32, point: &[f32]) -> (usize, f64) {
        first_minimum(&CenterPanel::of_point(centers, point).d2)
    }
}

impl Rule for Nearest {
    type Schedule = ();
    const CHUNK: usize = 4096;
    // ~3 flops per center per 4-byte coordinate (distance accumulate).
    const AI_PER_CENTER: f64 = 0.75;
    const OBJECTIVE: bool = true;

    /// Adds the point to its nearest center; the objective is the SSE.
    fn weigh(&self, _: &(), s: &mut PanelScratch, sums: &mut BlockSums) {
        let (j, dist) = first_minimum(&s.d2);
        sums.add(j, 1.0, &s.xf);
        sums.objective += dist;
    }

    fn label(&self, s: &mut PanelScratch) -> usize {
        first_minimum(&s.d2).0
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

/// Single-threaded reference K-means.
pub fn serial_kmeans(
    points: &MatrixF32,
    k: usize,
    epsilon: f64,
    seed: u64,
    max_iters: usize,
) -> (MatrixF32, Vec<f64>) {
    let centers = random_centers(points, k, seed);
    serial_iterate(points, centers, epsilon, max_iters, |centers, x, partials, sse| {
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
        *sse += dist;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::tests::{assert_checkpoint_round_trips, step};
    use crate::common::ClusterPartial;
    use prs_core::{IterativeApp, Key, SpmdApp};
    use prs_data::gaussian::MixtureSpec;

    fn ring_points(n: usize) -> Arc<MatrixF32> {
        let spec = MixtureSpec::ring(4, 2, 40.0, 1.0);
        Arc::new(prs_data::generate(&spec, n, 11).points)
    }

    #[test]
    fn checkpoint_state_round_trips_bit_for_bit() {
        let pts = ring_points(300);
        let app = KMeans::new(pts.clone(), 4, 1e-4, 5);
        step(&app);
        step(&app);
        assert_checkpoint_round_trips(&app, KMeans::new(pts, 4, 1e-4, 6));
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
