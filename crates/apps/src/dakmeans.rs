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

use crate::centers::{Centers, Rule};
use crate::common::{BlockSums, CenterPanel, PanelScratch};
use prs_data::matrix::MatrixF32;
use std::sync::Arc;

/// Deterministic-annealing K-means on the PRS.
pub type DaKmeans = Centers<Annealing>;

/// The DA rule: soft responsibilities at the current temperature, and a
/// cooling schedule in place of a plain shift test.
pub struct Annealing {
    cooling: f64,
    t_min: f64,
}

/// Where DA is on its cooling schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnealState {
    temperature: f64,
    phase: Phase,
    iterations_at_t: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Annealing,
    Converging,
    Done,
}

impl DaKmeans {
    /// Creates a DA clusterer. All centers start at the data mean,
    /// perturbed infinitesimally so they can split as `T` cools — no
    /// random initialization.
    pub fn new(points: Arc<MatrixF32>, k: usize, cooling: f64, epsilon: f64) -> Self {
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
        let rule = Annealing {
            cooling,
            t_min: (var * 1e-4).max(1e-9),
        };
        let schedule = AnnealState {
            temperature: 2.0 * var,
            ..AnnealState::default()
        };
        Centers::with_rule(points, centers, epsilon, rule, schedule)
    }

    /// Current annealing temperature.
    pub fn temperature(&self) -> f64 {
        self.schedule().temperature
    }

    /// Soft DA responsibilities of `point` at temperature `t`. A
    /// one-point wrapper over the center panel the map task uses.
    pub fn responsibilities(centers: &MatrixF32, t: f64, point: &[f32]) -> Vec<f64> {
        let mut s = CenterPanel::of_point(centers, point);
        soft_responsibilities(t, &mut s);
        s.u
    }
}

impl Rule for Annealing {
    type Schedule = AnnealState;
    const CHUNK: usize = 4096;
    // Same distance+exp structure as C-means: ~5 flops per center per byte.
    const AI_PER_CENTER: f64 = 5.0;
    // DA carries no objective through the map.
    const OBJECTIVE: bool = false;

    fn weigh(&self, at: &AnnealState, s: &mut PanelScratch, sums: &mut BlockSums) {
        soft_responsibilities(at.temperature, s);
        for (j, &w) in s.u.iter().enumerate() {
            if w > 1e-12 {
                sums.add(j, w, &s.xf);
            }
        }
    }

    fn label(&self, s: &mut PanelScratch) -> usize {
        let d2 = &s.d2;
        (0..d2.len())
            .min_by(|&a, &b| d2[a].total_cmp(&d2[b]))
            .unwrap()
    }

    fn converged(&self, at: &mut AnnealState, shift: f64, epsilon: f64) -> bool {
        at.iterations_at_t += 1;
        match at.phase {
            Phase::Annealing => {
                // Cool once the fixed point at this temperature settles
                // (or after a handful of sweeps).
                if shift < epsilon * 10.0 || at.iterations_at_t >= 4 {
                    at.temperature *= self.cooling;
                    at.iterations_at_t = 0;
                    if at.temperature < self.t_min {
                        at.phase = Phase::Converging;
                    }
                }
                false
            }
            Phase::Converging => {
                if shift < epsilon {
                    at.phase = Phase::Done;
                    true
                } else {
                    false
                }
            }
            Phase::Done => true,
        }
    }

    fn save_schedule(at: &AnnealState, out: &mut Vec<u8>) {
        out.extend(at.temperature.to_bits().to_le_bytes());
        out.push(at.phase as u8);
        out.extend((at.iterations_at_t as u64).to_le_bytes());
    }

    fn restore_schedule(mut next: impl FnMut(usize) -> u64) -> AnnealState {
        AnnealState {
            temperature: f64::from_bits(next(8)),
            phase: [Phase::Annealing, Phase::Converging, Phase::Done][next(1) as usize],
            iterations_at_t: next(8) as usize,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::tests::{assert_checkpoint_round_trips, step};
    use crate::common::ClusterPartial;
    use prs_core::{CheckpointableApp, DeviceClass, IterativeApp, Key, SpmdApp};
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

    /// Mid-anneal: the temperature has dropped and the sweep counter
    /// at this temperature is non-zero, so the schedule bytes matter.
    #[test]
    fn checkpoint_state_round_trips_mid_anneal() {
        let pts = ring(300);
        let app = DaKmeans::new(pts.clone(), 3, 0.8, 1e-3);
        let t0 = app.temperature();
        while app.temperature() == t0 || app.schedule().iterations_at_t == 0 {
            step(&app);
        }
        assert_eq!(app.schedule().phase, Phase::Annealing);
        let fresh = DaKmeans::new(pts, 3, 0.8, 1e-3);
        assert_checkpoint_round_trips(&app, fresh);
        // A restored run continues exactly as the original does.
        let restored = DaKmeans::new(ring(300), 3, 0.8, 1e-3);
        restored.restore_state(&app.save_state());
        for _ in 0..30 {
            assert_eq!(step(&app), step(&restored));
        }
        assert_eq!(restored.save_state(), app.save_state());
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
