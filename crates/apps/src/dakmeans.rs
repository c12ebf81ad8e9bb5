//! Deterministic annealing clustering — the quality reference the paper's
//! Figure-5 discussion cites ("The DA approach provide the best quality of
//! output results", referencing Fox et al.'s parallel deterministic
//! annealing).
//!
//! DA treats clustering as free-energy minimization: at temperature `T`
//! every point is assigned softly, `p(j|x) ∝ exp(−d²(x,c_j)/T)`; centers
//! are the responsibility-weighted means. `T` starts high (one effective
//! cluster) and cools geometrically, so the solution tracks the global
//! structure instead of a random initialization — DA has no seed
//! sensitivity, which is exactly why it wins on quality.

use crate::common::{
    max_center_shift, panel_block_fold, panel_labels, CenterPanel, ClusterPartial, PanelScratch,
};
use parking_lot::RwLock;
use prs_core::{DeviceClass, IterativeApp, Key, SpmdApp};
use prs_data::matrix::MatrixF32;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

const CHUNK: usize = 4096;

struct State {
    centers: MatrixF32,
    temperature: f64,
    phase: Phase,
    iterations_at_t: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Annealing,
    Converging,
    Done,
}

/// Deterministic-annealing K-means on the PRS.
pub struct DaKmeans {
    points: Arc<MatrixF32>,
    k: usize,
    cooling: f64,
    t_min: f64,
    epsilon: f64,
    state: RwLock<State>,
}

impl DaKmeans {
    /// Creates a DA clusterer. All centers start at the data mean,
    /// perturbed infinitesimally so they can split as `T` cools — no
    /// random initialization.
    pub fn new(points: Arc<MatrixF32>, k: usize, cooling: f64, epsilon: f64) -> Self {
        assert!(k >= 1 && k < points.rows());
        assert!((0.0..1.0).contains(&cooling) && cooling > 0.5, "cooling in (0.5, 1)");
        let d = points.cols();
        let n = points.rows();
        // Data mean and variance set the starting temperature: above
        // 2·max-variance the free energy has a single minimum.
        let mut mean = vec![0.0f64; d];
        for i in 0..n {
            for (j, m) in mean.iter_mut().enumerate() {
                *m += points.get(i, j) as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = 0.0f64;
        for i in 0..n {
            for (j, m) in mean.iter().enumerate() {
                let dv = points.get(i, j) as f64 - m;
                var += dv * dv;
            }
        }
        var /= n as f64;

        let mut centers = MatrixF32::zeros(k, d);
        let spread = var.sqrt().max(1e-6);
        for j in 0..k {
            for (c, m) in mean.iter().enumerate() {
                // Deterministic symmetry-breaking offsets, scaled to the
                // data spread so centers can split as T cools.
                let eps = 0.05 * spread * ((1.7 * (j * d + c + 1) as f64).sin());
                centers.set(j, c, (m + eps) as f32);
            }
        }
        DaKmeans {
            points,
            k,
            cooling,
            t_min: (var * 1e-4).max(1e-9),
            epsilon,
            state: RwLock::new(State {
                centers,
                temperature: 2.0 * var,
                phase: Phase::Annealing,
                iterations_at_t: 0,
            }),
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current centers.
    pub fn centers(&self) -> MatrixF32 {
        self.state.read().centers.clone()
    }

    /// Current annealing temperature.
    pub fn temperature(&self) -> f64 {
        self.state.read().temperature
    }

    /// Soft DA responsibilities of `point` at temperature `t`. A
    /// one-point wrapper over the center panel the map task uses.
    pub fn responsibilities(centers: &MatrixF32, t: f64, point: &[f32]) -> Vec<f64> {
        let mut s = CenterPanel::of_point(centers, point);
        soft_responsibilities(t, &mut s);
        s.u
    }

    /// Hard labels under the final centers.
    pub fn labels(&self, points: &MatrixF32) -> Vec<u32> {
        let panel = CenterPanel::new(&self.state.read().centers);
        panel_labels(&panel, points, |s| {
            let d2 = &s.d2;
            (0..d2.len())
                .min_by(|&a, &b| d2[a].total_cmp(&d2[b]))
                .unwrap()
        })
    }

    fn block_partials(&self, range: Range<usize>) -> Vec<ClusterPartial> {
        let (panel, t) = {
            let s = self.state.read();
            (CenterPanel::new(&s.centers), s.temperature)
        };
        // DA carries no objective through the map; the fold's scalar
        // stays zero.
        let (partials, _) = panel_block_fold(&self.points, &panel, range, CHUNK, |s, sums, _| {
            soft_responsibilities(t, s);
            for (j, &w) in s.u.iter().enumerate() {
                if w > 1e-12 {
                    sums.add(j, w, &s.xf);
                }
            }
        });
        partials
    }
}

/// `p(j|x) ∝ exp(−d²/T)` on a filled scratch: `s.d2` → `s.u`, shifted
/// by the smallest distance so the largest term is `exp(0)`.
fn soft_responsibilities(t: f64, s: &mut PanelScratch) {
    let min = s.d2.iter().cloned().fold(f64::INFINITY, f64::min);
    for (w, &v) in s.u.iter_mut().zip(&s.d2) {
        *w = (-(v - min) / t).exp();
    }
    let sum: f64 = s.u.iter().sum();
    for w in &mut s.u {
        *w /= sum;
    }
}

impl SpmdApp for DaKmeans {
    type Inter = ClusterPartial;
    type Output = ClusterPartial;

    fn num_items(&self) -> usize {
        self.points.rows()
    }

    fn item_bytes(&self) -> u64 {
        4 * self.points.cols() as u64
    }

    fn workload(&self) -> Workload {
        // Same distance+exp structure as C-means: ~5 flops per center per
        // byte, resident across annealing iterations.
        Workload::uniform(5.0 * self.k as f64, DataResidency::Resident)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, ClusterPartial)> {
        self.block_partials(range)
            .into_iter()
            .enumerate()
            .map(|(j, p)| (j as Key, p))
            .collect()
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

impl IterativeApp for DaKmeans {
    fn update(&self, outputs: &[(Key, ClusterPartial)]) -> bool {
        let mut state = self.state.write();
        let old = state.centers.clone();
        let mut new_centers = old.clone();
        for (key, partial) in outputs {
            let j = *key as usize;
            if j < self.k {
                if let Some(c) = partial.center() {
                    for (dst, &v) in new_centers.row_mut(j).iter_mut().zip(&c) {
                        *dst = v as f32;
                    }
                }
            }
        }
        let shift = max_center_shift(&old, &new_centers);
        state.centers = new_centers;
        state.iterations_at_t += 1;

        match state.phase {
            Phase::Annealing => {
                // Cool once the fixed point at this temperature settles
                // (or after a handful of sweeps).
                if shift < self.epsilon * 10.0 || state.iterations_at_t >= 4 {
                    state.temperature *= self.cooling;
                    state.iterations_at_t = 0;
                    if state.temperature < self.t_min {
                        state.phase = Phase::Converging;
                    }
                }
                false
            }
            Phase::Converging => {
                if shift < self.epsilon {
                    state.phase = Phase::Done;
                    true
                } else {
                    false
                }
            }
            Phase::Done => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_data::gaussian::MixtureSpec;

    fn ring(n: usize) -> Arc<MatrixF32> {
        let spec = MixtureSpec::ring(3, 2, 30.0, 2.0);
        Arc::new(prs_data::generate(&spec, n, 77).points)
    }

    fn run_serial(app: &DaKmeans, max_iters: usize) -> usize {
        let n = app.num_items();
        for it in 0..max_iters {
            let pairs = app.cpu_map(0, 0..n);
            let outs: Vec<(Key, ClusterPartial)> = pairs
                .into_iter()
                .map(|(k, v)| (k, app.reduce(DeviceClass::Cpu, k, vec![v])))
                .collect();
            if app.update(&outs) {
                return it + 1;
            }
        }
        max_iters
    }

    #[test]
    fn responsibilities_sum_to_one_and_sharpen_as_t_drops() {
        let centers = MatrixF32::from_vec(2, 1, vec![0.0, 10.0]);
        let hot = DaKmeans::responsibilities(&centers, 1000.0, &[2.0]);
        let cold = DaKmeans::responsibilities(&centers, 0.1, &[2.0]);
        assert!((hot.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((cold.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Hot: nearly uniform. Cold: crisp.
        assert!((hot[0] - 0.5).abs() < 0.05, "{hot:?}");
        assert!(cold[0] > 0.999, "{cold:?}");
    }

    #[test]
    fn temperature_cools_monotonically() {
        let app = DaKmeans::new(ring(300), 3, 0.8, 1e-3);
        let t0 = app.temperature();
        run_serial(&app, 10);
        assert!(app.temperature() < t0);
    }

    #[test]
    fn recovers_ring_clusters_without_random_init() {
        let pts = ring(1500);
        let app = DaKmeans::new(pts.clone(), 3, 0.8, 1e-3);
        let iters = run_serial(&app, 300);
        assert!(iters < 300, "DA should converge, took {iters}");
        let centers = app.centers();
        for idx in 0..3 {
            let angle = 2.0 * std::f64::consts::PI * idx as f64 / 3.0;
            let truth = [30.0 * angle.cos(), 30.0 * angle.sin()];
            let best = (0..3)
                .map(|j| {
                    let c = centers.row(j);
                    ((c[0] as f64 - truth[0]).powi(2) + (c[1] as f64 - truth[1]).powi(2)).sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(best < 3.0, "cluster {idx} missed by {best}");
        }
    }

    #[test]
    fn is_seed_free_and_deterministic() {
        let pts = ring(500);
        let a = DaKmeans::new(pts.clone(), 3, 0.8, 1e-3);
        let b = DaKmeans::new(pts, 3, 0.8, 1e-3);
        run_serial(&a, 200);
        run_serial(&b, 200);
        assert_eq!(a.centers(), b.centers());
    }

    #[test]
    fn labels_partition_the_data() {
        let pts = ring(600);
        let app = DaKmeans::new(pts.clone(), 3, 0.8, 1e-3);
        run_serial(&app, 200);
        let labels = app.labels(&pts);
        assert_eq!(labels.len(), 600);
        let mut seen = [false; 3];
        for &l in &labels {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
